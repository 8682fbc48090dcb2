//! E13 — robustness overhead: points/sec of the compiled-tape batch path
//! on the Elbtunnel cost function with a cooperative deadline, against
//! the same path without one, measured first in the same process.
//!
//! Every batch sweep runs on the `catch_unwind`-per-chunk pool with the
//! failpoints checked once per chunk; that cost is part of the baseline.
//! The one optional cost left is the deadline, and this bench enforces
//! its side of the contract (the chaos suite enforces the behavioral
//! side):
//!
//! * `deadline` (a generous cooperative deadline checked per chunk, one
//!   `Instant::now` each): ≥ 0.99× the baseline,
//! * bit-identity between the baseline and the deadline sweep is
//!   asserted in-process before anything is timed.
//!
//! Writes `BENCH_robustness.json` at the workspace root in the shared
//! [`safety_opt_bench::BenchReport`] schema.
//!
//! Run with: `cargo run --release -p safety_opt_bench --bin robustness_overhead`
//!
//! With `--enforce`, exits non-zero when the gate fails — CI runs this
//! gated: within each interleaved round the modes run back-to-back and
//! the gate takes the best per-round ratio, so genuine overhead (which
//! shows in every round) fails the gate while a one-round runner stall
//! does not.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safety_opt_bench::{bench_timestamp, measure, BenchReport};
use safety_opt_core::compile::CompiledModel;
use safety_opt_elbtunnel::analytic::ElbtunnelModel;
use safety_opt_engine::EvalDeadline;
use std::time::Duration;

/// Points in the measurement working set (matches `engine_throughput`).
const N_POINTS: usize = 20_000;
/// Acceptance threshold: deadline vs baseline throughput ratio (≤1%
/// loss).
const DEADLINE_FLOOR: f64 = 0.99;
/// Interleaved measurement rounds per mode (best pass wins). More
/// rounds than the other overhead benches: the gate is a 1% floor on a
/// path whose true overhead is one clock read per chunk, so the
/// estimate must sit below the runner's pass-to-pass jitter.
const ROUNDS: usize = 6;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let enforce = std::env::args().any(|a| a == "--enforce");
    println!("# Robustness overhead — Elbtunnel cost function, fault-tolerant batch path\n");

    let paper = ElbtunnelModel::paper();
    let model = paper.build()?;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let compiled = CompiledModel::compile_with_threads(&model, threads)?;

    let mut rng = StdRng::seed_from_u64(0x5AFE_2004);
    let (lo, hi) = paper.timer_domain;
    let points: Vec<Vec<f64>> = (0..N_POINTS)
        .map(|_| {
            vec![
                lo + rng.gen::<f64>() * (hi - lo),
                lo + rng.gen::<f64>() * (hi - lo),
            ]
        })
        .collect();

    // Bit-identity between the two paths is part of the robustness
    // contract — assert it before timing.
    let reference = compiled.cost_batch(&points)?;
    let far_away = EvalDeadline::after(Duration::from_secs(24 * 3600));
    let bounded = compiled.with_deadline(far_away);
    let with_deadline = bounded.cost_batch(&points)?;
    assert_eq!(
        reference, with_deadline,
        "a generous deadline must not change a single bit"
    );

    // Interleave the modes across several rounds; within a round the
    // modes run back-to-back, so slow drift on a shared runner
    // (thermal, co-tenants) cancels out of the per-round ratio. The
    // gate takes the **best per-round ratio**: genuine overhead shows
    // up in every round, while a stall that happens to land on the
    // deadline slot of one round does not fail the bench. The reported
    // throughputs are still each mode's best pass across all rounds.
    let mode_plan = [
        ("baseline", "baseline (no deadline)", &compiled),
        ("deadline", "with deadline", &bounded),
    ];
    let mut best: Vec<Option<safety_opt_bench::Measurement>> = vec![None; mode_plan.len()];
    let mut ratio_deadline = f64::NEG_INFINITY;
    for round in 0..ROUNDS {
        println!("-- round {} of {ROUNDS} --", round + 1);
        let mut round_pps = [0.0f64; 2];
        for (slot, (key, label, model)) in mode_plan.iter().enumerate() {
            let m = measure(key, label, "points/sec", N_POINTS, || {
                let costs = model.cost_batch(&points);
                costs.map(|v| v.iter().sum()).unwrap_or(0.0)
            });
            round_pps[slot] = m.points_per_sec;
            match &mut best[slot] {
                Some(b) => {
                    b.points_per_sec = b.points_per_sec.max(m.points_per_sec);
                    b.total_points += m.total_points;
                    b.seconds += m.seconds;
                }
                empty => *empty = Some(m),
            }
        }
        ratio_deadline = ratio_deadline.max(round_pps[1] / round_pps[0]);
    }
    let modes: Vec<_> = best
        .into_iter()
        .map(|m| m.expect("every mode measured"))
        .collect();

    let pass = ratio_deadline >= DEADLINE_FLOOR;

    println!();
    println!("deadline vs baseline   : {ratio_deadline:.4}  (best round; floor {DEADLINE_FLOOR})");
    println!("threads                : {threads}");
    println!(
        "verdict                : {}",
        if pass { "PASS" } else { "FAIL" }
    );

    let timestamp = bench_timestamp();
    BenchReport {
        name: "robustness_overhead",
        workload: "elbtunnel_paper",
        threads,
        timestamp: &timestamp,
        extras: vec![("n_points", N_POINTS.to_string())],
        modes: &modes,
        speedups: vec![("deadline_vs_baseline", ratio_deadline)],
        target: Some(("deadline_vs_baseline", DEADLINE_FLOOR)),
        pass,
    }
    .write("robustness");

    if !pass {
        eprintln!(
            "robustness_overhead: overhead gate failed{}",
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
