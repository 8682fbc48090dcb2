//! E8 — engine gates: one harness for the engine layers under the
//! paper's optimum (SoA sweeps, the fleet, adjoint gradients, the exact
//! tape, modular BDDs, telemetry, deadlines).
//!
//! Each section first checks that its fast path computes the same
//! numbers as its reference (bit for bit, or to a stated tolerance),
//! then times them. Every ratio gate runs its modes interleaved one
//! pass at a time with the order rotated each round
//! ([`safety_opt_bench::interleave`]), on one worker, and gates on the
//! median of the per-round paired ratios
//! ([`safety_opt_bench::paired_median`]). One worker, so each ratio
//! prices a layer per sweep rather than how the pool schedules it; pool
//! scaling is the end-to-end benchmark's `engine.sweep_speedup_nproc`.
//! (On a 2-core machine `events` reads 0.962–0.973 of `off` at two
//! workers, against 0.986–0.989 at one.)
//!
//! Every floor is always enforced: the bin exits non-zero when any gate
//! fails. Every reading lands in `BENCH_gates.json` at the workspace
//! root, with the core count and each gate's worker count; the
//! telemetry section also writes `results/telemetry_snapshot.json`.
//!
//! Run with: `cargo run --release -p safety_opt_bench --bin gates [SECTION]`
//! where `SECTION` is one of `soa`, `fleet`, `grad`, `exact`, `bdd`,
//! `telemetry`, `robustness`; with none, every section runs. One
//! section rewrites `BENCH_gates.json` with its own readings only.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safety_opt_bench::{
    bench_timestamp, interleave, paired_median, write_artifact, Bound, GateReport, Reading,
};
use safety_opt_core::compile::CompiledModel;
use safety_opt_core::fleet::CompiledFleet;
use safety_opt_core::model::{Hazard, QuantMethod, SafetyModel};
use safety_opt_core::param::{ParamValues, ParameterSpace};
use safety_opt_core::pprob::{
    complement, constant, exposure, overtime, product, scaled, sum, ProbExpr,
};
use safety_opt_elbtunnel::analytic::ElbtunnelModel;
use safety_opt_elbtunnel::fault_trees::{collision_tree, false_alarm_tree, names};
use safety_opt_engine::{BatchEvaluator, EvalDeadline, GradWorkspace, Tape};
use safety_opt_fta::bdd::TreeBdd;
use safety_opt_fta::modular::ModularPlan;
use safety_opt_fta::preprocess::{preprocess, PreprocessOutcome};
use safety_opt_fta::quant::ProbabilityMap;
use safety_opt_fta::synth::{modular_tree, ModularTreeConfig};
use safety_opt_fta::tree::{FaultTree, NodeKind};
use safety_opt_stats::dist::TruncatedNormal;
use safety_opt_telemetry::{self as telemetry, TelemetryMode};
use std::error::Error;
use std::time::{Duration, Instant};

type Section = fn(&mut GateReport) -> Result<(), Box<dyn Error>>;

/// The sections, in run order.
const SECTIONS: [(&str, Section); 7] = [
    ("soa", soa),
    ("fleet", fleet),
    ("grad", grad),
    ("exact", exact),
    ("bdd", bdd),
    ("telemetry", telemetry_section),
    ("robustness", robustness),
];

/// Worker threads of every measured path.
const WORKERS: usize = 1;
/// Paired rounds per ratio gate. The telemetry and deadline floors sit
/// 1% below parity, where the median of 301 rounds still moved by
/// ±0.3% from run to run on a 2-core machine, so those sections take
/// more rounds.
const ROUNDS: usize = 101;
const OVERHEAD_ROUNDS: usize = 501;

fn main() -> Result<(), Box<dyn Error>> {
    let only = std::env::args().nth(1);
    if let Some(name) = &only {
        if !SECTIONS.iter().any(|(s, _)| s == name) {
            let names: Vec<_> = SECTIONS.iter().map(|(s, _)| *s).collect();
            eprintln!("gates: unknown section {name:?}; expected one of {names:?}");
            std::process::exit(2);
        }
    }
    let mut report = GateReport::new(bench_timestamp());
    for (name, run) in SECTIONS {
        if only.as_deref().unwrap_or(name) == name {
            println!("\n# {name}");
            run(&mut report)?;
        }
    }
    report.write();
    let failures = report.failures();
    if !failures.is_empty() {
        for r in failures {
            eprintln!("gates: {} = {:.4} misses {:?}", r.id, r.value, r.bound);
        }
        std::process::exit(1);
    }
    Ok(())
}

/// The [`paired_median`] of `mode` against `base` as gate `id`.
fn ratio(id: &'static str, base: &[f64], mode: &[f64], bound: Bound) -> Reading {
    Reading {
        id,
        value: paired_median(base, mode),
        bound,
        statistic: format!("median of {} paired rounds", base.len()),
        workers: WORKERS,
    }
}

/// A batch result as a checksum; an error reads as NaN, which
/// [`interleave`] rejects.
fn total<E>(costs: Result<Vec<f64>, E>) -> f64 {
    costs.map_or(f64::NAN, |v| v.iter().sum())
}

/// Asserts `a` and `b` are equal bit for bit.
fn assert_bitwise(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lengths differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: slot {i} differs");
    }
}

/// The dense `side × side` (T1, T2) grid over the paper's timer domain:
/// the shape of every cost-surface and sensitivity sweep.
fn timer_grid(paper: &ElbtunnelModel, side: usize) -> Vec<Vec<f64>> {
    let (lo, hi) = paper.timer_domain;
    let step = (hi - lo) / (side - 1) as f64;
    (0..side * side)
        .map(|i| vec![lo + step * (i / side) as f64, lo + step * (i % side) as f64])
        .collect()
}

/// `n` uniform random (T1, T2) points over the paper's timer domain.
fn random_timers(paper: &ElbtunnelModel, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (lo, hi) = paper.timer_domain;
    (0..n)
        .map(|_| {
            vec![
                lo + rng.gen::<f64>() * (hi - lo),
                lo + rng.gen::<f64>() * (hi - lo),
            ]
        })
        .collect()
}

/// SoA sweep: the lane-blocked batch sweep vs a pointwise
/// [`Tape::eval_into`] loop on the 141×141 Elbtunnel cost surface. The
/// win must come from amortized dispatch and vectorized n-ary kernels
/// alone.
fn soa(report: &mut GateReport) -> Result<(), Box<dyn Error>> {
    let paper = ElbtunnelModel::paper();
    let soa = CompiledModel::compile_with_threads(&paper.build()?, WORKERS)?;
    let tape = soa.tape();
    let points = timer_grid(&paper, 141);

    let mut scratch = Vec::with_capacity(tape.scratch_len());
    let mut hazards = vec![0.0; points.len() * tape.n_outputs()];
    let costs: Vec<f64> = points
        .iter()
        .zip(hazards.chunks_mut(tape.n_outputs()))
        .map(|(p, out)| tape.eval_into(p, &mut scratch, out))
        .collect();
    let (batch_costs, batch_hazards) = soa.cost_and_hazards_batch(&points)?;
    assert_bitwise(&costs, &batch_costs, "SoA vs pointwise costs");
    assert_bitwise(&hazards, &batch_hazards, "SoA vs pointwise hazards");
    println!("check: soa == pointwise sweep, 0 ULP");

    let mut out = vec![0.0; tape.n_outputs()];
    let t = interleave(
        ROUNDS,
        &mut [
            &mut || {
                // Costs land in a vector, as the batch sweep's do.
                let costs: Vec<f64> = points
                    .iter()
                    .map(|p| tape.eval_into(p, &mut scratch, &mut out))
                    .collect();
                costs.iter().sum()
            },
            &mut || total(soa.cost_batch(&points)),
        ],
    );
    report.push(ratio(
        "soa.soa_vs_pointwise",
        &t[0],
        &t[1],
        Bound::AtLeast(1.5),
    ));
    report.fact("soa.n_points", points.len());
    report.fact("soa.tape_ops", tape.n_ops());
    Ok(())
}

/// Fleet: the shared-arena fleet vs a per-model compile-and-evaluate
/// loop on 128 sampled Elbtunnel models (λ_HV known to ±30 %, P(OHV) to
/// ±25 %) × 96 points. Cross-model hash-consing alone must pay for
/// itself.
fn fleet(report: &mut GateReport) -> Result<(), Box<dyn Error>> {
    const N_MODELS: usize = 128;
    let mut rng = StdRng::seed_from_u64(0x5AFE_F1EE);
    let models: Vec<SafetyModel> = (0..N_MODELS)
        .map(|_| {
            let mut m = ElbtunnelModel::paper();
            m.lambda_hv *= 0.7 + 0.6 * rng.gen::<f64>();
            m.p_ohv = (m.p_ohv * (0.75 + 0.5 * rng.gen::<f64>())).min(1.0);
            m.build()
        })
        .collect::<Result<_, _>>()?;
    let points = random_timers(&ElbtunnelModel::paper(), 96, 0x5AFE_2026);
    let compiled: Vec<CompiledModel> = models
        .iter()
        .map(|m| CompiledModel::compile_with_threads(m, WORKERS))
        .collect::<Result<_, _>>()?;
    let fleet = CompiledFleet::compile_with_threads(&models, WORKERS)?;

    let fleet_costs = fleet.costs_all(&points)?;
    for (k, c) in compiled.iter().enumerate() {
        let from_fleet: Vec<f64> = fleet_costs
            .iter()
            .skip(k)
            .step_by(N_MODELS)
            .copied()
            .collect();
        assert_bitwise(
            &c.cost_batch(&points)?,
            &from_fleet,
            "fleet vs per-model loop",
        );
    }
    println!("check: fleet == per-model loop, 0 ULP");

    let t = interleave(
        ROUNDS,
        &mut [
            &mut || compiled.iter().map(|c| total(c.cost_batch(&points))).sum(),
            &mut || total(fleet.costs_all(&points)),
        ],
    );
    report.push(ratio(
        "fleet.fleet_vs_loop",
        &t[0],
        &t[1],
        Bound::AtLeast(1.0),
    ));
    report.fact("fleet.arena_ops", fleet.fleet().tape().n_ops());
    report.fact("fleet.sharing", format!("{:.4}", fleet.sharing()));
    Ok(())
}

/// Parameter count of the synthetic gradient family (the regime where
/// the `O(dim)` cost of finite differences bites).
const SYN_DIM: usize = 10;

/// A dense `SYN_DIM`-parameter safety model: one hazard per timer
/// (overtime + averted-overtime/exposure cut sets coupling neighboring
/// timers), the shape the paper's method produces for larger systems.
fn synthetic_model() -> SafetyModel {
    let mut space = ParameterSpace::new();
    let params: Vec<_> = (0..SYN_DIM)
        .map(|i| space.parameter(format!("t{i}"), 1.0, 30.0).unwrap())
        .collect();
    let mut model = SafetyModel::new(space);
    for i in 0..SYN_DIM {
        let d = TruncatedNormal::lower_bounded(4.0 + 0.3 * i as f64, 2.0, 0.0).unwrap();
        let next = params[(i + 1) % SYN_DIM];
        let crit = constant(1e-3 * (1.0 + i as f64)).unwrap();
        let hazard = Hazard::builder(format!("h{i}"))
            .residual("rest", 1e-8)
            .cut_set("overtime", [crit.clone(), overtime(d, params[i])])
            .cut_set(
                "averted",
                [
                    crit,
                    complement(overtime(d, params[i])),
                    exposure(0.05 + 0.01 * i as f64, next),
                ],
            )
            .build();
        model = model.hazard(hazard, 10.0 + 1e4 * (i % 3) as f64);
    }
    model
}

/// `n` quasi-random points in `[lo, hi]^dim` (golden-ratio sequence).
fn grid_points(dim: usize, n: usize, lo: f64, hi: f64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|j| {
                    let u = ((i * dim + j) as f64 * 0.618_033_988_749_894_9).fract();
                    lo + (hi - lo) * u
                })
                .collect()
        })
        .collect()
}

/// Central-difference gradients of every point, with all `2·dim` probe
/// points of the batch sharded through one `cost_batch` call (the same
/// batching the adjoint side gets).
fn fd_gradients(compiled: &CompiledModel, points: &[Vec<f64>], h: f64) -> Vec<f64> {
    let dim = compiled.dim();
    let mut probes = Vec::with_capacity(points.len() * 2 * dim);
    for p in points {
        for i in 0..dim {
            for step in [h, -h] {
                let mut probe = p.clone();
                probe[i] += step;
                probes.push(probe);
            }
        }
    }
    let costs = compiled.cost_batch(&probes).expect("fd probes evaluate");
    costs
        .chunks(2)
        .map(|pair| (pair[0] - pair[1]) / (2.0 * h))
        .collect()
}

/// Cost and gradient of every point by one point-at-a-time forward +
/// backward sweep: the reference the SoA adjoint must equal bit for bit.
fn pointwise_grads(tape: &Tape, points: &[Vec<f64>]) -> (Vec<f64>, Vec<f64>) {
    let dim = tape.n_inputs();
    let mut ws = GradWorkspace::new();
    let mut out = vec![0.0; tape.n_outputs()];
    let mut grads = vec![0.0; points.len() * dim];
    let costs = points
        .iter()
        .zip(grads.chunks_mut(dim))
        .map(|(p, g)| tape.eval_grad_into(p, &mut ws, &mut out, g))
        .collect();
    (costs, grads)
}

/// Gradients: the reverse-mode adjoint vs central differences (`2·dim`
/// sweeps per gradient) on the 10-parameter synthetic family, and the
/// lane-blocked SoA adjoint vs a pointwise adjoint loop.
fn grad(report: &mut GateReport) -> Result<(), Box<dyn Error>> {
    const FD_STEP: f64 = 1e-4;
    let syn = CompiledModel::compile_with_threads(&synthetic_model(), WORKERS)?;
    let syn_points = grid_points(SYN_DIM, 256, 2.0, 29.0);
    let paper = ElbtunnelModel::paper();
    let elb = CompiledModel::compile_with_threads(&paper.build()?, WORKERS)?;
    let (lo, hi) = paper.timer_domain;
    let elb_points = grid_points(2, 16, lo + 0.5, hi - 0.5);

    // The FD step is large enough that the reference's own cancellation
    // error stays below the bound; the absolute floor absorbs it on
    // near-zero components. The adversarial rigor lives in
    // `engine/tests/grad_equivalence.rs`.
    for (label, compiled, points) in [
        ("synthetic", &syn, &syn_points[..16]),
        ("elbtunnel", &elb, &elb_points[..]),
    ] {
        let fd = fd_gradients(compiled, points, FD_STEP);
        let (_, adj) = compiled.gradient_batch(points)?;
        for (i, (a, f)) in adj.iter().zip(&fd).enumerate() {
            assert!(
                (a - f).abs() <= 1e-4 * a.abs().max(f.abs()) + 1e-9,
                "{label}: adjoint diverged from central differences at slot {i}: {a} vs {f}"
            );
        }
    }
    println!("check: adjoint == central differences (mixed 1e-4 tol)");
    let soa = BatchEvaluator::new(syn.tape(), WORKERS);
    let (costs, grads) = pointwise_grads(syn.tape(), &syn_points);
    let (batch_costs, batch_grads) = soa.eval_grad_batch(&syn_points)?;
    assert_bitwise(&costs, &batch_costs, "SoA vs pointwise adjoint costs");
    assert_bitwise(&grads, &batch_grads, "SoA vs pointwise adjoint gradients");
    println!("check: soa adjoint == pointwise adjoint, 0 ULP");

    let t = interleave(
        ROUNDS,
        &mut [
            &mut || fd_gradients(&syn, &syn_points, FD_STEP).iter().sum(),
            &mut || {
                syn.gradient_batch(&syn_points)
                    .map_or(f64::NAN, |(_, g)| g.iter().sum())
            },
            &mut || pointwise_grads(syn.tape(), &syn_points).1.iter().sum(),
            &mut || {
                soa.eval_grad_batch(&syn_points)
                    .map_or(f64::NAN, |(_, g)| g.iter().sum())
            },
        ],
    );
    report.push(ratio(
        "grad.adjoint_vs_fd",
        &t[0],
        &t[1],
        Bound::AtLeast(3.0),
    ));
    report.push(ratio(
        "grad.soa_adjoint_vs_pointwise",
        &t[2],
        &t[3],
        Bound::AtLeast(1.4),
    ));
    report.fact("grad.synthetic_tape_ops", syn.tape().n_ops());
    Ok(())
}

/// The Elbtunnel hazards as (tree, leaf substitution, cost weight): the
/// real Sect. IV-B fault trees with the calibrated parameterized leaves.
fn elbtunnel_trees(
    m: &ElbtunnelModel,
    space: &mut ParameterSpace,
) -> Vec<(FaultTree, Vec<ProbExpr>, f64)> {
    let (lo, hi) = m.timer_domain;
    let t1 = space.parameter("timer1", lo, hi).unwrap();
    let t2 = space.parameter("timer2", lo, hi).unwrap();
    let transit = m.transit_distribution().unwrap();
    let activation = sum([
        constant(m.p_ohv).unwrap(),
        scaled(
            1.0 - m.p_ohv,
            product([
                constant(m.p_fd_lbpre).unwrap(),
                exposure(m.lambda_fd_lb, t1),
            ]),
        )
        .unwrap(),
    ]);
    [
        (collision_tree().unwrap(), m.cost_collision),
        (false_alarm_tree().unwrap(), m.cost_false_alarm),
    ]
    .into_iter()
    .map(|(ft, cost)| {
        let exprs = (0..ft.leaves().len())
            .map(|leaf| match ft.node(ft.leaf(leaf)).name() {
                names::OT1 => overtime(transit, t1),
                names::OT2 => overtime(transit, t2),
                names::MD_ODLEFT | names::MD_ODFINAL => constant(1e-5).unwrap(),
                names::HV_ODFINAL => exposure(m.lambda_hv, t2),
                names::FD_ODFINAL => scaled(1e-2, exposure(m.lambda_hv, t2)).unwrap(),
                names::HV_ODLEFT => constant(5e-3).unwrap(),
                names::FD_ODLEFT => constant(1e-4).unwrap(),
                names::OHV_CRITICAL => constant(m.p_ohv_critical).unwrap(),
                names::OHV_PRESENT => constant(m.p_ohv).unwrap(),
                names::ODFINAL_ACTIVE => activation.clone(),
                other => unreachable!("unexpected leaf {other}"),
            })
            .collect();
        (ft, exprs, cost)
    })
    .collect()
}

/// Exact quantification: the compiled BDD Shannon tape vs the per-point
/// BDD oracle (`TreeBdd::probability` on freshly evaluated leaf
/// probabilities) on the Elbtunnel fault trees over the 141×141 timer
/// grid. The compiled rare-event tape is recorded alongside, as what
/// exactness costs on the tape.
fn exact(report: &mut GateReport) -> Result<(), Box<dyn Error>> {
    let paper = ElbtunnelModel::paper();
    let mut space = ParameterSpace::new();
    let trees = elbtunnel_trees(&paper, &mut space);
    let mut exact_model = SafetyModel::new(space).with_quant_method(QuantMethod::BddExact);
    for (ft, exprs, cost) in &trees {
        let hazard = Hazard::from_fault_tree(ft, |leaf| Ok(exprs[leaf].clone()))?;
        exact_model = exact_model.hazard(hazard, *cost);
    }
    let rare_model = exact_model
        .clone()
        .with_quant_method(QuantMethod::RareEvent);
    let exact = CompiledModel::compile_with_threads(&exact_model, WORKERS)?;
    let rare = CompiledModel::compile_with_threads(&rare_model, WORKERS)?;

    // The oracle builds its BDDs once (compile-time either way) and
    // quantifies per point.
    let bdds: Vec<TreeBdd> = trees
        .iter()
        .map(|(ft, _, _)| TreeBdd::build(ft))
        .collect::<Result<_, _>>()?;
    let per_point = |x: &[f64]| -> f64 {
        let params = ParamValues::new(x);
        let mut cost = 0.0;
        for ((ft, exprs, weight), bdd) in trees.iter().zip(&bdds) {
            let pm = ProbabilityMap::from_fn(ft, |leaf| {
                exprs[leaf]
                    .eval(&params)
                    .expect("calibrated leaves evaluate")
            })
            .expect("calibrated leaves are probabilities");
            cost += weight * bdd.probability(&pm).expect("probability map is total");
        }
        cost
    };
    let points = timer_grid(&paper, 141);

    let compiled_costs = exact.cost_batch(&points)?;
    let mut max_rel = 0.0f64;
    for (p, &got) in points.iter().zip(&compiled_costs) {
        let want = per_point(p);
        let rel = (got - want).abs() / want.abs().max(1.0);
        assert!(
            rel <= 1e-12,
            "compiled exact tape diverged from the BDD oracle at {p:?}: {got} vs {want}"
        );
        max_rel = max_rel.max(rel);
    }
    println!("check: compiled == TreeBdd::probability, max rel {max_rel:.2e}");

    let t = interleave(
        ROUNDS,
        &mut [
            &mut || points.iter().map(|p| per_point(p)).sum(),
            &mut || total(exact.cost_batch(&points)),
            &mut || total(rare.cost_batch(&points)),
        ],
    );
    report.push(ratio(
        "exact.exact_vs_per_point",
        &t[0],
        &t[1],
        Bound::AtLeast(3.0),
    ));
    report.push(ratio(
        "exact.exact_vs_rare_event",
        &t[2],
        &t[1],
        Bound::Recorded,
    ));
    // The approximation error the exact tape removes: the rare-event
    // cost over-estimate at the paper optimum.
    let opt = [19.0, 15.6];
    let gap = (rare.cost(&opt)? - exact.cost(&opt)?) / exact.cost(&opt)?;
    report.fact(
        "exact.rare_event_overestimate_at_optimum",
        format!("{gap:.6e}"),
    );
    Ok(())
}

/// Industrial-scale BDDs: preprocessing plus module-wise BDDs on the
/// 1105-gate `synth::modular_tree`, vs the monolithic BDD of the same
/// preprocessed tree. The full pipeline (preprocess, per-module BDDs,
/// compose, quantify once) is timed once, cold, as a caller pays it.
fn bdd(report: &mut GateReport) -> Result<(), Box<dyn Error>> {
    let ft = modular_tree(ModularTreeConfig {
        modules: 48,
        sections_per_module: 12,
        leaves_per_section: 4,
        leaf_probability: 1e-3,
    });
    let gates = ft
        .iter()
        .filter(|(_, n)| matches!(n.kind(), NodeKind::Gate { .. }))
        .count();
    assert!(
        gates >= 1000,
        "industrial workload must have >= 1000 gates, got {gates}"
    );

    let start = Instant::now();
    let pre = preprocess(&ft)?;
    let tree = match &pre.outcome {
        PreprocessOutcome::Tree(t) => t,
        PreprocessOutcome::Constant(_) => unreachable!("workload is not constant"),
    };
    let plan = ModularPlan::build(tree)?;
    let probs: Vec<f64> = (0..tree.leaves().len())
        .map(|i| tree.node(tree.leaf(i)).probability().unwrap_or(0.0))
        .collect();
    let p_modular = plan.leaf_tape().eval(&probs);
    let pipeline_seconds = start.elapsed().as_secs_f64();

    let mono = TreeBdd::build(tree)?;
    let p_mono = mono
        .probability(&tree.stored_probabilities()?)
        .expect("stored probabilities are total");
    assert!(
        (p_modular - p_mono).abs() <= 1e-12 * p_mono.abs().max(1.0),
        "modular plan diverged from the monolithic BDD: {p_modular} vs {p_mono}"
    );
    println!("check: modular == monolithic, P(top) = {p_mono:.6e}");

    report.push(Reading {
        id: "bdd.pipeline_seconds",
        value: pipeline_seconds,
        bound: Bound::Below(1.0),
        statistic: "one cold run".to_string(),
        workers: WORKERS,
    });
    report.push(Reading {
        id: "bdd.largest_module_vs_monolithic_nodes",
        value: plan.largest_module_nodes() as f64 / mono.node_count() as f64,
        bound: Bound::Below(1.0),
        statistic: "node count ratio".to_string(),
        workers: WORKERS,
    });
    report.fact("bdd.gates_before", pre.report.gates_before);
    report.fact("bdd.gates_after", pre.report.gates_after);
    report.fact("bdd.modules", plan.modules().len());
    report.fact("bdd.nodes_monolithic", mono.node_count());
    report.fact("bdd.nodes_largest_module", plan.largest_module_nodes());
    Ok(())
}

/// One telemetry-section pass: a 20 000-point cost sweep at `mode`,
/// inside a trace scope. Draining the event ring afterwards is part of
/// the pass, so `events` pays for its own events and every pass starts
/// from an empty ring.
fn sweep_at<'a>(
    compiled: &'a CompiledModel,
    points: &'a [Vec<f64>],
    mode: TelemetryMode,
) -> impl FnMut() -> f64 + 'a {
    move || {
        telemetry::set_mode(mode);
        let checksum = {
            let _scope = telemetry::TraceScope::enter("bench.sweep");
            total(compiled.cost_batch(points))
        };
        telemetry::trace::clear_events();
        checksum
    }
}

/// Telemetry overhead: the Elbtunnel cost sweep at every level of the
/// `SAFETY_OPT_TELEMETRY` ladder against `off`. `off` re-measured
/// against itself is the noise floor of the statistic (≥ 0.99);
/// `counters` and `events` may cost ≤ 3%; `profile` reads the clock
/// per op and is recorded, not gated. The levels are forced with
/// [`telemetry::set_mode`], so the env variable is ignored here.
fn telemetry_section(report: &mut GateReport) -> Result<(), Box<dyn Error>> {
    let paper = ElbtunnelModel::paper();
    let compiled = CompiledModel::compile_with_threads(&paper.build()?, WORKERS)?;
    let points = random_timers(&paper, 20_000, 0x5AFE_2004);

    // The equivalence suite owns bit-identity across levels; the cheap
    // end of it runs here too, before timing.
    telemetry::set_mode(TelemetryMode::Off);
    let reference = compiled.cost_batch(&points)?;
    for mode in [
        TelemetryMode::Counters,
        TelemetryMode::Events,
        TelemetryMode::Profile,
    ] {
        telemetry::set_mode(mode);
        assert_bitwise(&reference, &compiled.cost_batch(&points)?, mode.name());
    }
    telemetry::trace::clear_events();
    println!("check: every telemetry level == off, 0 ULP");

    let t = interleave(
        OVERHEAD_ROUNDS,
        &mut [
            &mut sweep_at(&compiled, &points, TelemetryMode::Off),
            &mut sweep_at(&compiled, &points, TelemetryMode::Off),
            &mut sweep_at(&compiled, &points, TelemetryMode::Counters),
            &mut sweep_at(&compiled, &points, TelemetryMode::Events),
            &mut sweep_at(&compiled, &points, TelemetryMode::Profile),
        ],
    );
    report.push(ratio(
        "telemetry.off_vs_off",
        &t[0],
        &t[1],
        Bound::AtLeast(0.99),
    ));
    report.push(ratio(
        "telemetry.counters_vs_off",
        &t[0],
        &t[2],
        Bound::AtLeast(0.97),
    ));
    report.push(ratio(
        "telemetry.events_vs_off",
        &t[0],
        &t[3],
        Bound::AtLeast(0.97),
    ));
    report.push(ratio(
        "telemetry.profile_vs_off",
        &t[0],
        &t[4],
        Bound::Recorded,
    ));

    // Archive what the registry saw, ending with a `profile` sweep.
    sweep_at(&compiled, &points, TelemetryMode::Profile)();
    write_artifact("telemetry_snapshot.json", &telemetry::snapshot().to_json());
    telemetry::set_mode(TelemetryMode::Off);
    Ok(())
}

/// Deadline overhead: the Elbtunnel cost sweep with a generous
/// cooperative deadline (one clock read per chunk) vs the same sweep
/// without one; the fault-tolerant pool itself is part of both.
fn robustness(report: &mut GateReport) -> Result<(), Box<dyn Error>> {
    let paper = ElbtunnelModel::paper();
    let compiled = CompiledModel::compile_with_threads(&paper.build()?, WORKERS)?;
    let bounded = compiled.with_deadline(EvalDeadline::after(Duration::from_secs(24 * 3600)));
    let points = random_timers(&paper, 20_000, 0x5AFE_2004);

    assert_bitwise(
        &compiled.cost_batch(&points)?,
        &bounded.cost_batch(&points)?,
        "a generous deadline",
    );
    println!("check: deadline sweep == plain sweep, 0 ULP");

    let t = interleave(
        OVERHEAD_ROUNDS,
        &mut [&mut || total(compiled.cost_batch(&points)), &mut || {
            total(bounded.cost_batch(&points))
        }],
    );
    report.push(ratio(
        "robustness.deadline_vs_plain",
        &t[0],
        &t[1],
        Bound::AtLeast(0.99),
    ));
    Ok(())
}
