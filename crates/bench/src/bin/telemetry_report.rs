//! `telemetry_report` — runs a representative Elbtunnel workload at the
//! top `profile` telemetry level, then renders what the
//! observability stack saw as a human-readable report:
//!
//! * the global counter aggregates (tape compilation, memo cache,
//!   batch execution),
//! * per-[`TraceScope`](telemetry::TraceScope) latency percentiles
//!   (p50/p90/p99 over the span histograms attributed to each scope),
//! * the compiled tape's hot-op table (per-op forward/adjoint sweep
//!   time, lane-blocked vs scalar path),
//! * a digest of the structured event stream (per-kind counts, scopes
//!   seen, drop counter).
//!
//! Run with: `cargo run --release -p safety_opt_bench --bin telemetry_report`
//!
//! The mode is forced programmatically (`profile`) — the
//! `SAFETY_OPT_TELEMETRY` env variable is ignored so the report is
//! self-contained.

use safety_opt_core::compile::CompiledModel;
use safety_opt_core::optimize::SafetyOptimizer;
use safety_opt_elbtunnel::analytic::ElbtunnelModel;
use safety_opt_telemetry as telemetry;
use std::collections::{BTreeMap, BTreeSet};

/// One side of the profiled surface sweep (`GRID`² points).
const GRID: usize = 60;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    telemetry::set_mode(telemetry::TelemetryMode::Profile);

    println!("# Telemetry report — Elbtunnel study under telemetry=profile\n");

    // The representative workload: the study's own optimizer run (the
    // sequential multi-start path, so the trace carries `compile` and
    // `restart.k` scopes) followed by a profiled batch sweep over the
    // cost surface (populates the per-op profiler on both sweep
    // directions).
    let paper = ElbtunnelModel::paper();
    let model = paper.build()?;
    let optimum = SafetyOptimizer::new(&model).run()?;
    println!(
        "workload: optimizer -> {}, then a {GRID}x{GRID} cost+gradient sweep\n",
        optimum.point()
    );

    let compiled = CompiledModel::compile(&model)?;
    {
        let _scope = telemetry::TraceScope::enter("report.sweep");
        let (lo, hi) = paper.timer_domain;
        let step = (hi - lo) / (GRID - 1) as f64;
        let pts: Vec<Vec<f64>> = (0..GRID)
            .flat_map(|i| (0..GRID).map(move |j| vec![lo + i as f64 * step, lo + j as f64 * step]))
            .collect();
        compiled.cost_batch(&pts)?;
        compiled.gradient_batch(&pts)?;
    }

    let snap = telemetry::snapshot();

    println!("## Global counters (non-zero)\n");
    for (name, value) in snap.counters.iter().filter(|&&(_, v)| v > 0) {
        println!("  {name:<34} {value:>12}");
    }

    println!("\n## Per-scope latency percentiles\n");
    if snap.scopes.is_empty() {
        println!("  (no scoped attribution recorded)");
    }
    println!(
        "  {:<20} {:<28} {:>8} {:>10} {:>10} {:>10}",
        "scope", "histogram", "count", "p50", "p90", "p99"
    );
    for scope in &snap.scopes {
        for h in &scope.histograms {
            println!(
                "  {:<20} {:<28} {:>8} {:>10} {:>10} {:>10}",
                scope.name,
                h.name,
                h.count,
                fmt_nanos(h.p50),
                fmt_nanos(h.p90),
                fmt_nanos(h.p99),
            );
        }
        for (name, value) in &scope.counters {
            println!("  {:<20} {name:<28} {value:>8}", scope.name);
        }
    }

    println!("\n## Hot ops (compiled Elbtunnel tape, surface sweep)\n");
    print!("{}", compiled.profile_report().render_table());

    let events = telemetry::trace::take_events();
    let mut kinds: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut scopes: BTreeSet<String> = BTreeSet::new();
    for e in &events {
        *kinds.entry(e.kind.name()).or_default() += 1;
        if let Some(s) = &e.scope {
            scopes.insert(s.clone());
        }
    }
    println!(
        "\n## Event stream: {} events ({} dropped)\n",
        events.len(),
        telemetry::trace::dropped_events()
    );
    for (kind, n) in &kinds {
        println!("  {kind:<16} {n:>8}");
    }
    println!(
        "  scopes seen: {}",
        scopes.into_iter().collect::<Vec<_>>().join(", ")
    );
    Ok(())
}

/// Renders a nanosecond histogram-bucket bound compactly (`840ns`,
/// `13.2us`, `1.50ms`, `2.10s`).
fn fmt_nanos(n: u64) -> String {
    let n = n as f64;
    if n < 1e3 {
        format!("{n:.0}ns")
    } else if n < 1e6 {
        format!("{:.1}us", n / 1e3)
    } else if n < 1e9 {
        format!("{:.2}ms", n / 1e6)
    } else {
        format!("{:.2}s", n / 1e9)
    }
}
