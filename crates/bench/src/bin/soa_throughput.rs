//! E10 — SoA sweep throughput: points/sec of a scalar point-at-a-time
//! loop ([`Tape::eval_into`], one full tape sweep per point) vs. the
//! op-at-a-time SoA batch sweep on the Elbtunnel **surface workload** (a dense cost-surface grid over the
//! timer domain — the shape of every sweep the analysis front-ends run).
//!
//! Writes `BENCH_soa.json` at the workspace root in the shared
//! [`safety_opt_bench::BenchReport`] schema. The headline number is the
//! **one-core** comparison: lane-blocked op sweeps must pay for
//! themselves through amortized dispatch and vectorized n-ary kernels
//! alone, before any thread-level parallelism.
//!
//! Run with: `cargo run --release -p safety_opt_bench --bin soa_throughput`
//!
//! With `--enforce`, exits non-zero when the one-core SoA path falls
//! below the 1.5× speedup target — meant for the quiet reference
//! machine; shared CI runners record the baseline without gating on
//! wall-clock. The SoA↔pointwise **bitwise** (0 ULP) equivalence check
//! is always enforced.

use safety_opt_bench::{bench_timestamp, measure, BenchReport};
use safety_opt_core::compile::CompiledModel;
use safety_opt_elbtunnel::analytic::ElbtunnelModel;
use safety_opt_engine::Tape;

/// Grid resolution per timer axis (N_SIDE² points per pass).
const N_SIDE: usize = 141;
/// Acceptance threshold: SoA vs. scalar points/sec on one core.
const TARGET_SPEEDUP: f64 = 1.5;

/// The scalar reference: every point's cost by one full point-at-a-time
/// tape sweep, written to a cost vector as a batch evaluator would, and
/// summed as the checksum.
fn pointwise_cost_sum(tape: &Tape, points: &[Vec<f64>], scratch: &mut Vec<f64>) -> f64 {
    let mut out = vec![0.0; tape.n_outputs()];
    let costs: Vec<f64> = points
        .iter()
        .map(|p| tape.eval_into(p, scratch, &mut out))
        .collect();
    costs.iter().sum()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let enforce = std::env::args().any(|a| a == "--enforce");
    let n_points = N_SIDE * N_SIDE;
    println!("# SoA sweep throughput — Elbtunnel cost surface, {N_SIDE}x{N_SIDE} grid\n");

    let paper = ElbtunnelModel::paper();
    let model = paper.build()?;
    let soa = CompiledModel::compile_with_threads(&model, 1)?;
    let tape = soa.tape();
    let threads = safety_opt_engine::default_threads();
    let soa_parallel = CompiledModel::compile_with_threads(&model, threads)?;

    // The surface workload: the dense (T1, T2) grid every cost-surface /
    // sensitivity sweep evaluates.
    let (lo, hi) = paper.timer_domain;
    let step = (hi - lo) / (N_SIDE - 1) as f64;
    let points: Vec<Vec<f64>> = (0..n_points)
        .map(|i| {
            vec![
                lo + step * (i / N_SIDE) as f64,
                lo + step * (i % N_SIDE) as f64,
            ]
        })
        .collect();

    // Correctness gate before timing anything: SoA == pointwise, bit
    // for bit, costs and hazards.
    let mut scratch = Vec::with_capacity(tape.scratch_len());
    let mut sh = vec![0.0; n_points * tape.n_outputs()];
    let sc: Vec<f64> = points
        .iter()
        .zip(sh.chunks_mut(tape.n_outputs()))
        .map(|(p, out)| tape.eval_into(p, &mut scratch, out))
        .collect();
    let (fc, fh) = soa.cost_and_hazards_batch(&points)?;
    for (i, (a, b)) in sc.iter().zip(&fc).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "SoA diverged from the pointwise sweep (cost, point {i})"
        );
    }
    for (i, (a, b)) in sh.iter().zip(&fh).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "SoA diverged from the pointwise sweep (hazard slot {i})"
        );
    }
    println!("equivalence check     soa == pointwise sweep, 0 ULP\n");

    let scalar_mode = measure(
        "scalar_one_core",
        "scalar pointwise (1 core)",
        "points/sec",
        n_points,
        || pointwise_cost_sum(tape, &points, &mut scratch),
    );
    let soa_mode = measure(
        "soa_one_core",
        "soa (1 core)",
        "points/sec",
        n_points,
        || {
            soa.cost_batch(&points)
                .map(|v| v.iter().sum())
                .unwrap_or(0.0)
        },
    );
    let soa_par_mode = measure(
        "soa_parallel",
        "soa + parallel",
        "points/sec",
        n_points,
        || {
            soa_parallel
                .cost_batch(&points)
                .map(|v| v.iter().sum())
                .unwrap_or(0.0)
        },
    );

    let speedup = soa_mode.points_per_sec / scalar_mode.points_per_sec;
    let speedup_par = soa_par_mode.points_per_sec / scalar_mode.points_per_sec;
    let pass = speedup >= TARGET_SPEEDUP;
    println!();
    println!("soa vs scalar (1 core)   : {speedup:.2}x  (target >= {TARGET_SPEEDUP}x)");
    println!("soa + parallel vs scalar : {speedup_par:.2}x  ({threads} threads)");
    println!("tape ops                 : {}", tape.n_ops());
    println!(
        "verdict                  : {}",
        if pass { "PASS" } else { "FAIL" }
    );

    let timestamp = bench_timestamp();
    let modes = [scalar_mode, soa_mode, soa_par_mode];
    BenchReport {
        name: "soa_throughput",
        workload: "elbtunnel_surface",
        threads,
        timestamp: &timestamp,
        extras: vec![
            ("n_points", n_points.to_string()),
            ("tape_ops", tape.n_ops().to_string()),
        ],
        modes: &modes,
        speedups: vec![
            ("soa_vs_scalar_one_core", speedup),
            ("soa_parallel_vs_scalar", speedup_par),
        ],
        target: Some(("soa_vs_scalar_one_core", TARGET_SPEEDUP)),
        pass,
    }
    .write("soa");

    if !pass {
        eprintln!(
            "soa_throughput: below the {TARGET_SPEEDUP}x target{}",
            if enforce {
                ""
            } else {
                " (not enforced; pass --enforce to gate)"
            }
        );
        if enforce {
            std::process::exit(1);
        }
    }
    Ok(())
}
