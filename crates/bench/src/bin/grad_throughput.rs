//! E11 — gradient throughput: gradients/sec of central differences
//! (`2·dim` tape sweeps per gradient) vs. the reverse-mode **adjoint
//! pass** (one forward + one backward sweep, cost independent of the
//! dimension) on two workloads:
//!
//! * a 10-parameter synthetic hazard family (the ≥8-dim regime where
//!   the `O(dim)` finite-difference cost bites — this is the gated
//!   headline number), and
//! * the 2-parameter Elbtunnel objective (recorded for context; at
//!   `dim = 2` finite differences only pay 4 sweeps, so the adjoint win
//!   is structural, not dramatic).
//!
//! On top of the adjoint-vs-FD ratio, the bin times the adjoint two
//! ways — `adjoint_scalar` (a pointwise [`Tape::eval_grad_into`] loop,
//! one point at a time) vs `adjoint_soa` (the lane-blocked
//! structure-of-arrays batch sweep) — and gates the SoA adjoint at
//! ≥1.4× the scalar adjoint on one core, after asserting the two agree
//! **bit for bit** (the 0-ULP contract pinned adversarially in
//! `engine/tests/grad_soa_equivalence.rs`).
//!
//! Writes `BENCH_grad.json` at the workspace root in the shared
//! [`safety_opt_bench::BenchReport`] schema.
//!
//! Run with: `cargo run --release -p safety_opt_bench --bin grad_throughput`
//!
//! With `--enforce`, exits non-zero when either gate fails (adjoint
//! ≥3× central differences, SoA adjoint ≥1.4× scalar adjoint). Unlike
//! the wall-clock-sensitive throughput bins, CI *does* enforce these
//! gates: both sides of each ratio run on the same core in the same
//! process, and the wins are structural (dimension-independent sweeps
//! vs. `2·dim` sweeps; lane-blocked register files vs. pointwise
//! dispatch), so a noisy runner cannot flip the verdicts. The
//! adjoint↔central-difference and SoA↔scalar agreement checks always
//! run first.
//!
//! With `--thread-scaling` (and more than one available core), also
//! measures the SoA adjoint at 2 and `available_parallelism()` worker
//! threads and records the scaling curve in the report extras —
//! recorded, never gated, since multi-thread wall-clock is exactly what
//! shared runners distort.

use safety_opt_bench::{bench_timestamp, measure, BenchReport};
use safety_opt_core::compile::CompiledModel;
use safety_opt_core::model::{Hazard, SafetyModel};
use safety_opt_core::param::ParameterSpace;
use safety_opt_core::pprob::{complement, constant, exposure, overtime};
use safety_opt_elbtunnel::analytic::ElbtunnelModel;
use safety_opt_engine::{BatchEvaluator, GradWorkspace, Tape};
use safety_opt_stats::dist::TruncatedNormal;

/// Synthetic-family parameter count (the issue's "≥8-dim" regime).
const SYN_DIM: usize = 10;
/// Points per measured pass.
const SYN_POINTS: usize = 256;
const ELB_POINTS: usize = 1024;
/// Acceptance threshold: adjoint vs. central-difference gradients/sec
/// on the synthetic family, one core.
const TARGET_SPEEDUP: f64 = 3.0;
/// Acceptance threshold: SoA adjoint vs. scalar adjoint gradients/sec
/// on the synthetic family, one core.
const TARGET_SOA_SPEEDUP: f64 = 1.4;

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

/// One full batch of central-difference gradients: `2·dim` probe points
/// per gradient, all sharded through one `cost_batch` call (the same
/// batching advantage the adjoint side gets), returning a checksum.
fn fd_gradients(compiled: &CompiledModel, points: &[Vec<f64>], h: f64, out: &mut Vec<f64>) -> f64 {
    let dim = compiled.dim();
    let mut probes = Vec::with_capacity(points.len() * 2 * dim);
    for p in points {
        for i in 0..dim {
            let mut hi = p.clone();
            hi[i] += h;
            probes.push(hi);
            let mut lo = p.clone();
            lo[i] -= h;
            probes.push(lo);
        }
    }
    let costs = compiled.cost_batch(&probes).expect("fd probes evaluate");
    out.clear();
    let mut checksum = 0.0;
    for pt in 0..points.len() {
        for i in 0..dim {
            let fp = costs[pt * 2 * dim + 2 * i];
            let fm = costs[pt * 2 * dim + 2 * i + 1];
            let g = (fp - fm) / (2.0 * h);
            out.push(g);
            checksum += g;
        }
    }
    checksum
}

/// The scalar adjoint reference: cost and gradient of every point by
/// one point-at-a-time forward + backward sweep, written to cost and
/// gradient vectors as a batch evaluator would.
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let enforce = std::env::args().any(|a| a == "--enforce");
    let thread_scaling = std::env::args().any(|a| a == "--thread-scaling");
    println!(
        "# Gradient throughput — adjoint pass vs central differences \
         ({SYN_DIM}-dim synthetic family + Elbtunnel)\n"
    );

    let synthetic = synthetic_model();
    let syn = CompiledModel::compile_with_threads(&synthetic, 1)?;
    let syn_points = grid_points(SYN_DIM, SYN_POINTS, 2.0, 29.0);

    let paper = ElbtunnelModel::paper();
    let elb_model = paper.build()?;
    let elb = CompiledModel::compile_with_threads(&elb_model, 1)?;
    let (lo, hi) = paper.timer_domain;
    let elb_points = grid_points(2, ELB_POINTS, lo + 0.5, hi - 0.5);

    // Correctness gate before timing anything: adjoint == central
    // differences within mixed tolerance on both workloads (the FD step
    // is large enough that the reference's own cancellation error stays
    // below the bound).
    let fd_h = 1e-4;
    for (label, compiled, points) in [
        ("synthetic", &syn, &syn_points),
        ("elbtunnel", &elb, &elb_points),
    ] {
        let mut fd = Vec::new();
        fd_gradients(compiled, &points[..16.min(points.len())], fd_h, &mut fd);
        let (_, adj) = compiled.gradient_batch(&points[..16.min(points.len())])?;
        for (i, (a, f)) in adj.iter().zip(&fd).enumerate() {
            // Mixed tolerance: the absolute floor absorbs the
            // reference's own subtractive-cancellation noise
            // (≈ε·|cost|/h) on near-zero components; the adversarial
            // rigor lives in `engine/tests/grad_equivalence.rs`.
            let scale = a.abs().max(f.abs());
            assert!(
                (a - f).abs() <= 1e-4 * scale + 1e-9,
                "{label}: adjoint diverged from central differences at slot {i}: {a} vs {f}"
            );
        }
    }
    println!("equivalence check     adjoint == central differences (mixed 1e-4 tol)");

    // Sweep gate: the lane-blocked SoA adjoint must equal the pointwise
    // scalar adjoint bit for bit before its throughput means anything.
    {
        let (sv, sg) = pointwise_grads(syn.tape(), &syn_points);
        let (bv, bg) = BatchEvaluator::new(syn.tape(), 1).eval_grad_batch(&syn_points);
        assert!(
            sv.iter().zip(&bv).all(|(a, b)| a.to_bits() == b.to_bits())
                && sg.iter().zip(&bg).all(|(a, b)| a.to_bits() == b.to_bits()),
            "SoA adjoint diverged bitwise from the scalar adjoint"
        );
    }
    println!("equivalence check     soa adjoint == scalar adjoint (bitwise)\n");

    let mut fd_buf = Vec::new();
    let syn_fd = measure(
        "fd_synthetic_one_core",
        "fd 10-dim (1 core)",
        "gradients/sec",
        SYN_POINTS,
        || fd_gradients(&syn, &syn_points, fd_h, &mut fd_buf),
    );
    let syn_adj = measure(
        "adjoint_synthetic_one_core",
        "adjoint 10-dim (1 core)",
        "gradients/sec",
        SYN_POINTS,
        || {
            let (_, g) = syn.gradient_batch(&syn_points).expect("adjoint batch");
            g.iter().sum()
        },
    );
    let elb_fd = measure(
        "fd_elbtunnel_one_core",
        "fd elbtunnel (1 core)",
        "gradients/sec",
        ELB_POINTS,
        || fd_gradients(&elb, &elb_points, fd_h, &mut fd_buf),
    );
    let elb_adj = measure(
        "adjoint_elbtunnel_one_core",
        "adjoint elbtunnel (1 core)",
        "gradients/sec",
        ELB_POINTS,
        || {
            let (_, g) = elb.gradient_batch(&elb_points).expect("adjoint batch");
            g.iter().sum()
        },
    );
    // The pointwise adjoint loop vs the lane-blocked batch sweep, both
    // on one worker straight on the tape, so the ratio isolates the
    // lane-blocked sweep itself.
    let adj_scalar = measure(
        "adjoint_scalar_one_core",
        "adjoint scalar pointwise (1 core)",
        "gradients/sec",
        SYN_POINTS,
        || {
            let (_, g) = pointwise_grads(syn.tape(), &syn_points);
            g.iter().sum()
        },
    );
    let adj_soa = measure(
        "adjoint_soa_one_core",
        "adjoint soa (1 core)",
        "gradients/sec",
        SYN_POINTS,
        || {
            let (_, g) = BatchEvaluator::new(syn.tape(), 1).eval_grad_batch(&syn_points);
            g.iter().sum()
        },
    );

    // Optional thread-scaling leg: recorded, never gated (multi-thread
    // wall-clock is exactly what shared runners distort).
    let mut scaling = Vec::new();
    if thread_scaling {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores > 1 {
            let mut counts = vec![2];
            if cores > 2 {
                counts.push(cores);
            }
            for threads in counts {
                let m = measure(
                    "adjoint_soa_threads",
                    &format!("adjoint soa ({threads} threads)"),
                    "gradients/sec",
                    SYN_POINTS,
                    || {
                        let (_, g) =
                            BatchEvaluator::new(syn.tape(), threads).eval_grad_batch(&syn_points);
                        g.iter().sum()
                    },
                );
                scaling.push((threads, m.points_per_sec));
            }
        } else {
            println!("thread scaling        skipped (one available core)");
        }
    }

    let speedup_syn = syn_adj.points_per_sec / syn_fd.points_per_sec;
    let speedup_elb = elb_adj.points_per_sec / elb_fd.points_per_sec;
    let speedup_soa = adj_soa.points_per_sec / adj_scalar.points_per_sec;
    let pass_fd = speedup_syn >= TARGET_SPEEDUP;
    let pass_soa = speedup_soa >= TARGET_SOA_SPEEDUP;
    let pass = pass_fd && pass_soa;
    println!();
    println!(
        "adjoint vs fd, {SYN_DIM}-dim synthetic : {speedup_syn:.2}x  (target >= {TARGET_SPEEDUP}x)"
    );
    println!(
        "soa vs scalar adjoint, one core  : {speedup_soa:.2}x  (target >= {TARGET_SOA_SPEEDUP}x)"
    );
    println!("adjoint vs fd, elbtunnel (dim 2) : {speedup_elb:.2}x  (recorded, not gated)");
    for (threads, pps) in &scaling {
        println!(
            "soa adjoint, {threads} threads          : {:.2}x one-core  (recorded, not gated)",
            pps / adj_soa.points_per_sec
        );
    }
    println!("synthetic tape ops               : {}", syn.tape().n_ops());
    println!(
        "verdict                          : {}",
        if pass { "PASS" } else { "FAIL" }
    );

    let timestamp = bench_timestamp();
    let modes = [syn_fd, syn_adj, adj_scalar, adj_soa, elb_fd, elb_adj];
    let scaling_json = format!(
        "[{}]",
        scaling
            .iter()
            .map(|(t, pps)| format!("{{ \"threads\": {t}, \"points_per_sec\": {pps:.1} }}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    BenchReport {
        name: "grad_throughput",
        workload: "synthetic10_plus_elbtunnel",
        threads: 1,
        timestamp: &timestamp,
        extras: vec![
            ("synthetic_dim", SYN_DIM.to_string()),
            ("synthetic_points", SYN_POINTS.to_string()),
            ("elbtunnel_points", ELB_POINTS.to_string()),
            ("synthetic_tape_ops", syn.tape().n_ops().to_string()),
            (
                "target_adjoint_soa_vs_scalar",
                format!("{TARGET_SOA_SPEEDUP}"),
            ),
            ("adjoint_soa_thread_scaling", scaling_json),
        ],
        modes: &modes,
        speedups: vec![
            ("adjoint_vs_fd_synthetic", speedup_syn),
            ("adjoint_vs_fd_elbtunnel", speedup_elb),
            ("adjoint_soa_vs_scalar_synthetic", speedup_soa),
        ],
        target: Some(("adjoint_vs_fd_synthetic", TARGET_SPEEDUP)),
        pass,
    }
    .write("grad");

    if !pass_fd {
        eprintln!(
            "grad_throughput: adjoint below the {TARGET_SPEEDUP}x vs-fd target{}",
            if enforce {
                ""
            } else {
                " (not enforced; pass --enforce to gate)"
            }
        );
    }
    if !pass_soa {
        eprintln!(
            "grad_throughput: soa adjoint below the {TARGET_SOA_SPEEDUP}x vs-scalar target{}",
            if enforce {
                ""
            } else {
                " (not enforced; pass --enforce to gate)"
            }
        );
    }
    if !pass && enforce {
        std::process::exit(1);
    }
    Ok(())
}
