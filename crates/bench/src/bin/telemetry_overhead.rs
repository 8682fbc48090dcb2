//! E12 — telemetry overhead: points/sec of the compiled-tape batch path
//! on the Elbtunnel cost function at every level of the
//! `SAFETY_OPT_TELEMETRY` ladder (`off < counters < events < profile`),
//! against an `off` baseline measured first in the same process.
//!
//! The telemetry subsystem is contractually observation-only and
//! near-free when disabled; this bench enforces the cost side of that
//! contract (the equivalence suite enforces the bit-identity side):
//!
//! * `off`: ≤ 1% slower than the baseline (same mode, re-measured —
//!   the noise floor of the gate itself),
//! * `counters`: ≤ 3% slower than the baseline,
//! * `events` (counters plus scoped attribution, the event ring and
//!   span events — the production pairing): ≤ 3% slower than the
//!   baseline — the event ring buffer is a few relaxed atomics plus a
//!   sharded-mutex push per span/scope, far off the per-point hot
//!   path, and scoped attribution buffers thread-locally,
//! * `profile` (adds histograms, span durations and the per-op tape
//!   profiler): recorded but not gated (a clock read per op is real,
//!   intentional work — the level is the deep-dive diagnostics opt-in).
//!
//! Writes `BENCH_telemetry.json` at the workspace root in the shared
//! [`safety_opt_bench::BenchReport`] schema, plus a sample telemetry
//! snapshot (`results/telemetry_snapshot.json`, captured after a
//! `profile` sweep) so CI archives what the registry actually emits.
//!
//! Run with: `cargo run --release -p safety_opt_bench --bin telemetry_overhead`
//!
//! With `--enforce`, exits non-zero when a gate fails — CI runs this
//! gated: the best-of-passes measurement loop absorbs transient runner
//! load, and the gated modes differ only in a few relaxed atomic adds.
//!
//! The modes are forced programmatically ([`telemetry::set_mode`]) so
//! one process measures every level on identical warmed state; the
//! `SAFETY_OPT_TELEMETRY` env variable is ignored here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safety_opt_bench::{bench_timestamp, measure, write_artifact, BenchReport};
use safety_opt_core::compile::CompiledModel;
use safety_opt_elbtunnel::analytic::ElbtunnelModel;
use safety_opt_telemetry as telemetry;

/// Points in the measurement working set (matches `engine_throughput`).
const N_POINTS: usize = 20_000;
/// Acceptance threshold: `off` vs baseline throughput ratio (≤1% loss).
const OFF_FLOOR: f64 = 0.99;
/// Acceptance threshold: `counters` vs baseline throughput ratio
/// (≤3% loss).
const COUNTERS_FLOOR: f64 = 0.97;
/// Acceptance threshold: `events` vs baseline throughput ratio
/// (≤3% loss).
const EVENTS_FLOOR: f64 = 0.97;
/// Interleaved measurement rounds per mode (best pass wins).
const ROUNDS: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let enforce = std::env::args().any(|a| a == "--enforce");
    println!("# Telemetry overhead — Elbtunnel cost function, compiled batch path\n");

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

    let run_mode = |key: &'static str, label: &str, mode: telemetry::TelemetryMode| {
        telemetry::set_mode(mode);
        let m = measure(key, label, "points/sec", N_POINTS, || {
            let _scope = telemetry::TraceScope::enter("bench.sweep");
            compiled
                .cost_batch(&points)
                .map(|v| v.iter().sum())
                .unwrap_or(0.0)
        });
        // Drain the ring between passes so every `events`-and-up pass
        // fills it from empty instead of inheriting drop-oldest churn.
        telemetry::trace::clear_events();
        m
    };

    // Bit-identity across modes is enforced by the equivalence suite;
    // assert the cheap end of it here too before timing anything: every
    // telemetry level must leave the floats untouched.
    telemetry::set_mode(telemetry::TelemetryMode::Off);
    let reference = compiled.cost_batch(&points)?;
    for mode in [
        telemetry::TelemetryMode::Counters,
        telemetry::TelemetryMode::Events,
        telemetry::TelemetryMode::Profile,
    ] {
        telemetry::set_mode(mode);
        let instrumented = compiled.cost_batch(&points)?;
        assert_eq!(
            reference,
            instrumented,
            "telemetry must be observation-only (mode {})",
            mode.name()
        );
    }
    telemetry::set_mode(telemetry::TelemetryMode::Off);
    telemetry::trace::clear_events();

    // Interleave the modes across several rounds and keep each mode's
    // best pass: slow drift on a shared runner (thermal, co-tenants)
    // then biases every mode equally instead of penalizing whichever
    // mode happened to run during a stall.
    let mode_plan = [
        (
            "baseline_off",
            "baseline (off)",
            telemetry::TelemetryMode::Off,
        ),
        ("off", "off (re-measured)", telemetry::TelemetryMode::Off),
        ("counters", "counters", telemetry::TelemetryMode::Counters),
        ("events", "events", telemetry::TelemetryMode::Events),
        ("profile", "profile", telemetry::TelemetryMode::Profile),
    ];
    let mut best: Vec<Option<safety_opt_bench::Measurement>> = vec![None; mode_plan.len()];
    for round in 0..ROUNDS {
        println!("-- round {} of {ROUNDS} --", round + 1);
        for (slot, &(key, label, mode)) in mode_plan.iter().enumerate() {
            let m = run_mode(key, label, mode);
            match &mut best[slot] {
                Some(b) => {
                    b.points_per_sec = b.points_per_sec.max(m.points_per_sec);
                    b.total_points += m.total_points;
                    b.seconds += m.seconds;
                }
                empty => *empty = Some(m),
            }
        }
    }
    let mut it = best.into_iter().map(|m| m.expect("every mode measured"));
    let (baseline, off, counters, events, profile) = (
        it.next().unwrap(),
        it.next().unwrap(),
        it.next().unwrap(),
        it.next().unwrap(),
        it.next().unwrap(),
    );
    // Re-run the top level last so the archived snapshot reflects a
    // `profile` sweep (spans included).
    telemetry::set_mode(telemetry::TelemetryMode::Profile);
    let _ = compiled.cost_batch(&points)?;
    telemetry::trace::clear_events();

    // Archive what the registry saw, ending with the `profile` sweep.
    let snapshot = telemetry::snapshot();
    write_artifact("telemetry_snapshot.json", &snapshot.to_json());

    let ratio_off = off.points_per_sec / baseline.points_per_sec;
    let ratio_counters = counters.points_per_sec / baseline.points_per_sec;
    let ratio_events = events.points_per_sec / baseline.points_per_sec;
    let ratio_profile = profile.points_per_sec / baseline.points_per_sec;
    let pass =
        ratio_off >= OFF_FLOOR && ratio_counters >= COUNTERS_FLOOR && ratio_events >= EVENTS_FLOOR;

    println!();
    println!("off vs baseline      : {ratio_off:.4}  (floor {OFF_FLOOR})");
    println!("counters vs baseline : {ratio_counters:.4}  (floor {COUNTERS_FLOOR})");
    println!("events vs baseline   : {ratio_events:.4}  (floor {EVENTS_FLOOR})");
    println!("profile vs baseline  : {ratio_profile:.4}  (not gated)");
    println!("threads              : {threads}");
    println!(
        "verdict              : {}",
        if pass { "PASS" } else { "FAIL" }
    );

    let timestamp = bench_timestamp();
    let modes = [baseline, off, counters, events, profile];
    BenchReport {
        name: "telemetry_overhead",
        workload: "elbtunnel_paper",
        threads,
        timestamp: &timestamp,
        extras: vec![
            ("n_points", N_POINTS.to_string()),
            ("counters_floor", COUNTERS_FLOOR.to_string()),
            ("events_floor", EVENTS_FLOOR.to_string()),
        ],
        modes: &modes,
        speedups: vec![
            ("off_vs_baseline", ratio_off),
            ("counters_vs_baseline", ratio_counters),
            ("events_vs_baseline", ratio_events),
            ("profile_vs_baseline", ratio_profile),
        ],
        target: Some(("off_vs_baseline", OFF_FLOOR)),
        pass,
    }
    .write("telemetry");

    if !pass {
        eprintln!(
            "telemetry_overhead: overhead gate failed{}",
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
