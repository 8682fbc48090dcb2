//! Small batches run on lane blocks: within each chunk the SoA sweep
//! narrows its block (16 → 8 → 4 → 2 lanes) as fewer points remain, so
//! at most one point per chunk runs point-at-a-time. For every batch
//! size 1..=40, chunk lengths 7, 16 and 256, and one and two threads,
//! every tape and fleet batch method must
//!
//! * match the pointwise oracles of `common` bit for bit (0 ULP), and
//! * count exactly one `engine.batch.tail_points` per odd-sized chunk
//!   and every other point under `engine.batch.soa_points`.
//!
//! One `#[test]` fn: the counters and the telemetry mode are
//! process-global, so no other test may share this binary.

mod common;

use common::{
    bits, compile_family, pointwise_all, pointwise_costs, pointwise_grads, pointwise_model,
    pointwise_model_grads, pointwise_outputs, random_points, FactorSpec, FamilySpec,
};
use safety_opt_engine::fleet::FleetEvaluator;
use safety_opt_engine::BatchEvaluator;
use safety_opt_telemetry as telemetry;

/// Two hazards over the three inputs, with the ops the narrowed blocks
/// dispatch on: exposure, overtime, complement, fused products and sums,
/// a Shannon node and an opaque closure (the per-point fallback inside
/// a block).
fn spec() -> FamilySpec {
    use FactorSpec::*;
    let overtime = |input| Overtime {
        mu: 4.0,
        sigma: 2.0,
        input,
    };
    FamilySpec {
        hazards: vec![
            (
                vec![
                    vec![
                        Constant {
                            base: 1e-3,
                            vary: true,
                        },
                        overtime(0),
                    ],
                    vec![
                        Complement(Box::new(overtime(0))),
                        overtime(1),
                        Exposure {
                            rate: 0.13,
                            vary: false,
                            input: 2,
                        },
                    ],
                ],
                100_000.0,
            ),
            (
                vec![
                    vec![Ite(
                        Box::new(Exposure {
                            rate: 0.05,
                            vary: true,
                            input: 1,
                        }),
                        Box::new(overtime(2)),
                        Box::new(Closure {
                            slot: 0,
                            coeff: 0.3,
                            vary: false,
                            poison: false,
                            smooth: true,
                        }),
                    )],
                    vec![Scaled(
                        0.5,
                        Box::new(Sum(vec![
                            overtime(1),
                            Constant {
                                base: 0.2,
                                vary: false,
                            },
                        ])),
                    )],
                ],
                1.0,
            ),
        ],
        n_models: 3,
    }
}

/// One batch method on fixed points, returning its result vectors.
type Call<'a> = (&'static str, Box<dyn Fn() -> Vec<Vec<f64>> + 'a>);

/// `(soa_points, tail_points)` so far.
fn split() -> (u64, u64) {
    let snap = telemetry::snapshot();
    let get = |name| snap.counter(name).unwrap_or(0);
    (
        get("engine.batch.soa_points"),
        get("engine.batch.tail_points"),
    )
}

#[test]
fn small_batches_sweep_on_narrowing_lane_blocks() {
    telemetry::set_mode(telemetry::TelemetryMode::Counters);
    let (fleet, tapes) = compile_family(&spec());
    let tape = &tapes[0];
    let model = fleet.n_models() - 1;
    for n in 1..=40 {
        let points = random_points(n, 0x1A4E + n as u64);
        let costs = pointwise_costs(tape, &points);
        let (_, outputs) = pointwise_outputs(tape, &points);
        let (grad_costs, grads) = pointwise_grads(tape, &points);
        let (all_costs, _) = pointwise_all(&fleet, &points);
        let model_costs = pointwise_model(&fleet, model, &points);
        let (model_grad_costs, model_grads) = pointwise_model_grads(&fleet, model, &points);
        for chunk in [7, 16, 256] {
            // One point per odd-sized chunk is left to the pointwise path.
            let tails = (0..n)
                .step_by(chunk)
                .filter(|&start| (n - start).min(chunk) % 2 == 1)
                .count() as u64;
            for threads in [1, 2] {
                let ev = BatchEvaluator::new(tape, threads).chunk_size(chunk);
                let fev = FleetEvaluator::new(&fleet, threads).chunk_size(chunk);
                let case = format!("n = {n}, chunk = {chunk}, threads = {threads}");
                let calls: [Call; 6] = [
                    ("costs", Box::new(|| vec![ev.costs(&points).unwrap()])),
                    (
                        "costs_and_outputs",
                        Box::new(|| {
                            let (c, o) = ev.costs_and_outputs(&points).unwrap();
                            vec![c, o]
                        }),
                    ),
                    (
                        "eval_grad_batch",
                        Box::new(|| {
                            let (c, g) = ev.eval_grad_batch(&points).unwrap();
                            vec![c, g]
                        }),
                    ),
                    (
                        "costs_all",
                        Box::new(|| vec![fev.costs_all(&points).unwrap()]),
                    ),
                    (
                        "model_costs",
                        Box::new(|| vec![fev.model_costs(model, &points).unwrap()]),
                    ),
                    (
                        "model_grads",
                        Box::new(|| {
                            let (c, g) = fev.model_grads(model, &points).unwrap();
                            vec![c, g]
                        }),
                    ),
                ];
                let oracles: [Vec<&[f64]>; 6] = [
                    vec![&costs],
                    vec![&costs, &outputs],
                    vec![&grad_costs, &grads],
                    vec![&all_costs],
                    vec![&model_costs],
                    vec![&model_grad_costs, &model_grads],
                ];
                for ((name, call), want) in calls.iter().zip(&oracles) {
                    let before = split();
                    let got = call();
                    let after = split();
                    for (got, want) in got.iter().zip(want) {
                        assert_eq!(bits(got), bits(want), "{name}: {case}");
                    }
                    let tail = after.1 - before.1;
                    assert_eq!(tail, tails, "{name}: tail points, {case}");
                    assert_eq!(after.0 - before.0, n as u64 - tail, "{name}: {case}");
                }
            }
        }
    }
    telemetry::set_mode(telemetry::TelemetryMode::Off);
}
