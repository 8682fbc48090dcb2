//! The full Elbtunnel case study — the paper's Sect. IV, end to end.
//!
//! Walks through every step the paper reports:
//!
//! 1. fault trees for both hazards and their minimal cut sets,
//! 2. the parameterized/constrained analytic model,
//! 3. optimization of the timer runtimes (paper: ≈ 19 / 15.6 min),
//! 4. comparison against the engineers' 30-minute initial guesses,
//! 5. the Fig. 6 scaling analysis that exposes the design flaw, with the
//!    two proposed fixes,
//! 6. Monte-Carlo cross-validation via the discrete-event simulator.
//!
//! Run with: `cargo run --release --example elbtunnel_case_study`
//!
//! With `--telemetry`, forces the `counters` telemetry level, attaches
//! a convergence-trace observer to the optimizer, and appends a
//! human-readable telemetry summary (tape compile statistics, memo
//! cache hit rate, per-restart convergence) after the study.
//!
//! With `--trace`, forces the top `profile` level instead (which
//! includes `counters`, so the summary still prints): the
//! study records a structured event stream (scopes, spans, warnings)
//! and per-op sweep profiles, writes the events as Chrome trace-event
//! JSON (`results/elbtunnel_trace.json`, loadable in Perfetto or
//! `chrome://tracing`) and as JSONL (`results/elbtunnel_trace.jsonl`),
//! and appends an event/scope summary plus the compiled tape's hot-op
//! table.

use safety_optimization::elbtunnel::analytic::{scaling, ElbtunnelModel, Variant};
use safety_optimization::elbtunnel::constants as c;
use safety_optimization::elbtunnel::fault_trees;
use safety_optimization::elbtunnel::sim::{simulate, SimConfig};
use safety_optimization::fta::render::to_ascii;
use safety_optimization::optim::CollectingHook;
use safety_optimization::safeopt::optimize::{ConfigurationComparison, SafetyOptimizer};
use safety_optimization::telemetry;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let with_trace = args.iter().any(|a| a == "--trace");
    let with_telemetry = args.iter().any(|a| a == "--telemetry") || with_trace;
    if with_trace {
        telemetry::set_mode(telemetry::TelemetryMode::Profile);
    } else if with_telemetry {
        telemetry::set_mode(telemetry::TelemetryMode::Counters);
    }
    let trace = Arc::new(CollectingHook::default());
    println!("== 1. Fault tree analysis (Sect. IV-B) ==");
    for tree in [
        fault_trees::collision_tree()?,
        fault_trees::false_alarm_tree()?,
    ] {
        println!("\n{}", tree.name());
        print!("{}", to_ascii(&tree)?);
        let mcs = tree.minimal_cut_sets()?;
        println!("minimal cut sets ({}):", mcs.len());
        for cs in mcs.iter() {
            println!("  {{{}}}", cs.names(&tree).join(", "));
        }
    }

    println!("\n== 2. Parameterized model (Sect. IV-C) ==");
    let paper = ElbtunnelModel::paper();
    let model = paper.build()?;
    let (i1, i2) = c::INITIAL_TIMERS_MIN;
    println!(
        "initial config (T1, T2) = ({i1}, {i2}) min:  P(HCol) = {:.3e}, P(HAlr) = {:.3e}",
        paper.p_collision(i1, i2)?,
        paper.p_false_alarm(i1, i2),
    );

    println!("\n== 3. Safety optimization ==");
    let mut optimizer = SafetyOptimizer::new(&model);
    if with_telemetry {
        optimizer = optimizer.with_trace_hook(trace.clone());
    }
    let optimum = optimizer.run()?;
    println!("{optimum}");
    println!(
        "paper reports ≈ ({}, {}) min",
        c::PAPER_OPTIMUM_MIN.0,
        c::PAPER_OPTIMUM_MIN.1
    );

    println!("\n== 4. Optimum vs the engineers' guesses ==");
    let cmp = ConfigurationComparison::compute(&model, &[i1, i2], optimum.point().values())?;
    print!("{cmp}");
    let alarm = cmp.hazard("false-alarm").expect("hazard exists");
    println!(
        "false-alarm risk improvement: {:.1} % (paper: ~10 %)",
        -100.0 * alarm.relative_change
    );
    let col = cmp.hazard("collision").expect("hazard exists");
    println!(
        "collision risk change: {:+.3} % (paper: < 0.1 %)",
        100.0 * col.relative_change
    );

    println!("\n== 5. Scaling analysis (Fig. 6): the design flaw ==");
    let t2_opt = optimum.point().value("timer2").unwrap();
    for variant in [Variant::Original, Variant::WithLb4, Variant::LbAtOdFinal] {
        let p = scaling::false_alarm_given_correct_ohv(&paper, variant, t2_opt)?;
        println!(
            "  {variant:<14} P(false alarm | correct OHV) at T2 = {t2_opt:.1}: {:5.1} %",
            100.0 * p
        );
    }
    println!(
        "  -> even at the optimized runtime, {:.0} % of correctly driving OHVs\n\
         \x20    trigger an alarm; the complex control is almost obsolete\n\
         \x20    (the paper's central finding).",
        100.0 * scaling::false_alarm_given_correct_ohv(&paper, Variant::Original, t2_opt)?
    );

    println!("\n== 6. Discrete-event simulation cross-check ==");
    for variant in [Variant::Original, Variant::WithLb4, Variant::LbAtOdFinal] {
        let config = SimConfig::paper(19.0, t2_opt, variant);
        let report = simulate(&config, 100_000, 2004);
        let sim = report.false_alarm_given_correct.p_hat();
        let (lo, hi) = report.false_alarm_given_correct.wilson_interval(0.95)?;
        let analytic = scaling::false_alarm_given_correct_ohv(&paper, variant, t2_opt)?;
        println!(
            "  {variant:<14} sim {:5.2} % [{:5.2}, {:5.2}]  analytic {:5.2} %",
            100.0 * sim,
            100.0 * lo,
            100.0 * hi,
            100.0 * analytic
        );
    }

    if with_telemetry {
        print_telemetry_summary(&trace);
    }
    if with_trace {
        write_trace_artifacts(&model)?;
    }
    Ok(())
}

/// The `--trace` appendix: exports the study's event stream, prints a
/// per-kind/per-scope digest, and renders the compiled tape's hot-op
/// table (populated by a profiled surface sweep, since the optimizer's
/// internal tape is not exposed).
fn write_trace_artifacts(
    model: &safety_optimization::safeopt::model::SafetyModel,
) -> Result<(), Box<dyn std::error::Error>> {
    use safety_optimization::safeopt::compile::CompiledModel;

    println!("\n== 8. Structured trace (--trace) ==");

    // A profiled sweep over the cost surface grid: every op of the
    // compiled Elbtunnel tape gets timed forward/adjoint samples on
    // both the lane-blocked and the scalar-tail path.
    let compiled = CompiledModel::compile(model)?;
    {
        let _scope = telemetry::TraceScope::enter("profile.sweep");
        let pts: Vec<Vec<f64>> = (0..60)
            .flat_map(|i| (0..60).map(move |j| vec![5.0 + i as f64, 5.0 + j as f64]))
            .collect();
        compiled.cost_batch(&pts)?;
        compiled.gradient_batch(&pts)?;
    }
    println!("hot ops (compiled Elbtunnel tape, surface sweep):");
    print!("{}", compiled.profile_report().render_table());

    let events = telemetry::trace::take_events();
    let mut kinds: std::collections::BTreeMap<&'static str, usize> = Default::default();
    let mut scopes: std::collections::BTreeSet<String> = Default::default();
    for e in &events {
        *kinds.entry(e.kind.name()).or_default() += 1;
        if let Some(s) = &e.scope {
            scopes.insert(s.clone());
        }
    }
    println!(
        "event stream: {} events ({} dropped)",
        events.len(),
        telemetry::trace::dropped_events()
    );
    for (kind, n) in &kinds {
        println!("  {kind:<16} {n:>8}");
    }
    println!(
        "scopes seen: {}",
        scopes.into_iter().collect::<Vec<_>>().join(", ")
    );

    std::fs::create_dir_all("results")?;
    let chrome = telemetry::trace::export_chrome_trace(&events);
    std::fs::write("results/elbtunnel_trace.json", chrome)?;
    let jsonl = telemetry::trace::export_jsonl(&events);
    std::fs::write("results/elbtunnel_trace.jsonl", jsonl)?;
    println!(
        "wrote results/elbtunnel_trace.json (Chrome trace-event format; \
         load in Perfetto or chrome://tracing) and results/elbtunnel_trace.jsonl"
    );
    Ok(())
}

/// The `--telemetry` appendix: what the registry observed across the
/// whole study, plus the optimizer's convergence trace.
fn print_telemetry_summary(trace: &CollectingHook) {
    let snap = telemetry::snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    println!("\n== 7. Telemetry summary (--telemetry) ==");
    println!("tape compilation:");
    println!("  builds            {:>10}", c("engine.tape.builds"));
    println!("  ops requested     {:>10}", c("engine.tape.ops_requested"));
    println!("  ops emitted       {:>10}", c("engine.tape.ops_emitted"));
    println!("  constants folded  {:>10}", c("engine.tape.const_folded"));
    println!("  hash-cons hits    {:>10}", c("engine.tape.interned_hits"));
    println!("  fused n-ary ops   {:>10}", c("engine.tape.fused_ops"));
    let (hits, misses) = (c("engine.cache.hits"), c("engine.cache.misses"));
    let evals = hits + misses;
    println!("memo cache:");
    println!("  hits / misses     {hits:>10} / {misses}");
    println!(
        "  hit rate          {:>9.1}%",
        if evals > 0 {
            100.0 * hits as f64 / evals as f64
        } else {
            0.0
        }
    );
    println!("batch execution:");
    println!("  chunks swept      {:>10}", c("engine.batch.chunks"));
    println!("  soa points        {:>10}", c("engine.batch.soa_points"));
    println!(
        "  adjoint sweeps    {:>10}",
        c("engine.grad.adjoint_sweeps")
    );

    let collected = trace.collected();
    let restarts = collected.iter().map(|(k, _)| *k).max().map_or(0, |k| k + 1);
    println!(
        "optimizer trace ({restarts} restarts, {} points):",
        collected.len()
    );
    for k in 0..restarts {
        let last = collected.iter().rev().find(|(r, _)| *r == k);
        if let Some((_, p)) = last {
            println!(
                "  restart {k}: {:>3} iterations, {:>4} evaluations, best {:.6e}",
                p.iteration, p.evaluations, p.best_value
            );
        }
    }
}
