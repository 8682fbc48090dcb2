//! Observation is observation-only, adversarially: forcing every
//! level of the `SAFETY_OPT_TELEMETRY` ladder (`off < counters < events
//! < profile`) over the batch sweeps, the pointwise sweeps and every
//! thread count must leave each result **bit-identical** (0 ULP) to the
//! unobserved pointwise reference — including the opaque-closure scalar
//! fallback inside SoA blocks, NaN-poisoned closures, fleet masked
//! sweeps, the adjoint gradient path, scoped attribution under an
//! active `TraceScope`, span events emitted from worker threads, and
//! the per-op tape profiler armed by `profile`.
//!
//! Everything lives in ONE `#[test]` fn: the telemetry mode is
//! process-global state and the libtest harness runs `#[test]` fns on
//! concurrent threads, so a mode sweep must not share a binary with any
//! other test that observes the mode.

mod common;

use common::{
    bits, compile_family, pointwise_all, pointwise_costs, pointwise_grads, pointwise_model,
    pointwise_outputs, random_points, FactorSpec, FamilySpec,
};
use safety_opt_engine::fleet::FleetEvaluator;
use safety_opt_engine::BatchEvaluator;
use safety_opt_telemetry as telemetry;

/// A fixed family exercising every op kind the sweeps dispatch on —
/// crucially the opaque closures (SoA's per-op scalar fallback, the
/// only instrumentation inside a lane block) and a NaN-poisoned one.
fn spec() -> FamilySpec {
    use FactorSpec::*;
    let overtime = || Overtime {
        mu: 4.0,
        sigma: 2.0,
        input: 0,
    };
    FamilySpec {
        hazards: vec![
            (
                vec![
                    vec![
                        Constant {
                            base: 1e-3,
                            vary: false,
                        },
                        overtime(),
                    ],
                    vec![
                        Constant {
                            base: 1e-3,
                            vary: true,
                        },
                        Complement(Box::new(overtime())),
                        Exposure {
                            rate: 0.13,
                            vary: false,
                            input: 1,
                        },
                    ],
                    vec![Closure {
                        slot: 0,
                        coeff: 0.4,
                        vary: true,
                        poison: true,
                        smooth: false,
                    }],
                ],
                100_000.0,
            ),
            (
                vec![
                    vec![
                        Sum(vec![
                            Constant {
                                base: 1e-3,
                                vary: false,
                            },
                            Scaled(
                                0.9,
                                Box::new(Exposure {
                                    rate: 1e-4,
                                    vary: false,
                                    input: 2,
                                }),
                            ),
                        ]),
                        Exposure {
                            rate: 0.13,
                            vary: true,
                            input: 1,
                        },
                    ],
                    vec![Ite(
                        Box::new(Constant {
                            base: 0.25,
                            vary: false,
                        }),
                        Box::new(overtime()),
                        Box::new(Closure {
                            slot: 1,
                            coeff: 0.2,
                            vary: false,
                            poison: false,
                            smooth: true,
                        }),
                    )],
                ],
                1.0,
            ),
        ],
        n_models: 3,
    }
}

#[test]
fn telemetry_modes_never_change_results() {
    use telemetry::TelemetryMode;

    let (fleet, tapes) = compile_family(&spec());
    let points = random_points(61, 0x5AFE_7E1E);

    // References: telemetry off, pointwise sweeps.
    telemetry::set_mode(TelemetryMode::Off);
    let tape = &tapes[0];
    let ref_costs = pointwise_costs(tape, &points);
    let (ref_c, ref_o) = pointwise_outputs(tape, &points);
    let (ref_gc, ref_g) = pointwise_grads(tape, &points);
    let ref_all = pointwise_all(&fleet, &points).0;
    let ref_models: Vec<Vec<f64>> = (0..fleet.n_models())
        .map(|k| pointwise_model(&fleet, k, &points))
        .collect();
    assert_eq!(bits(&ref_costs), bits(&ref_c));

    for mode in [
        TelemetryMode::Off,
        TelemetryMode::Counters,
        TelemetryMode::Events,
        TelemetryMode::Profile,
    ] {
        telemetry::set_mode(mode);
        telemetry::reset();
        telemetry::trace::clear_events();
        tape.reset_profile();
        let scope = telemetry::TraceScope::enter("equivalence");
        // The pointwise sweeps themselves, observed.
        let ctx = format!("mode {}, pointwise", mode.name());
        assert_eq!(
            bits(&pointwise_costs(tape, &points)),
            bits(&ref_costs),
            "{ctx}"
        );
        let (gc, g) = pointwise_grads(tape, &points);
        assert_eq!(bits(&gc), bits(&ref_gc), "gradient costs, {ctx}");
        assert_eq!(bits(&g), bits(&ref_g), "gradients, {ctx}");
        assert_eq!(
            bits(&pointwise_all(&fleet, &points).0),
            bits(&ref_all),
            "fleet, {ctx}"
        );
        for threads in [1usize, 4] {
            let ctx = format!("mode {}, {threads} threads", mode.name());
            let ev = BatchEvaluator::new(tape, threads);
            assert_eq!(
                bits(&ev.costs(&points).unwrap()),
                bits(&ref_costs),
                "costs, {ctx}"
            );
            let (c, o) = ev.costs_and_outputs(&points).unwrap();
            assert_eq!(bits(&c), bits(&ref_c), "batch costs, {ctx}");
            assert_eq!(bits(&o), bits(&ref_o), "output rows, {ctx}");
            let (gc, g) = ev.eval_grad_batch(&points).unwrap();
            assert_eq!(bits(&gc), bits(&ref_gc), "gradient costs, {ctx}");
            assert_eq!(bits(&g), bits(&ref_g), "gradients, {ctx}");

            let fe = FleetEvaluator::new(&fleet, threads);
            assert_eq!(
                bits(&fe.costs_all(&points).unwrap()),
                bits(&ref_all),
                "fleet, {ctx}"
            );
            for (k, reference) in ref_models.iter().enumerate() {
                assert_eq!(
                    bits(&fe.model_costs(k, &points).unwrap()),
                    bits(reference),
                    "model {k}, {ctx}"
                );
            }
        }
        drop(scope);

        // The sweeps above really were observed (not just harmless):
        // each instrument fills exactly from the level that arms it.
        let snap = telemetry::snapshot();
        let chunks = snap.counter("engine.batch.chunks").unwrap_or(0);
        let fallback = snap
            .counter("engine.exec.closure_soa_fallback")
            .unwrap_or(0);
        if mode >= TelemetryMode::Counters {
            assert!(chunks > 0, "counters enabled but no chunks recorded");
            assert!(fallback > 0, "SoA sweeps above hit the closure fallback");
        } else {
            assert_eq!(chunks, 0, "mode off must record nothing");
            assert_eq!(fallback, 0, "mode off must record nothing");
        }
        let events = telemetry::trace::take_events();
        if mode >= TelemetryMode::Events {
            assert!(
                events.iter().any(|e| e.kind == telemetry::EventKind::Span),
                "mode {} recorded no span events",
                mode.name()
            );
            assert!(
                events
                    .iter()
                    .all(|e| e.scope.as_deref() != Some("") && !e.name.is_empty()),
                "events must carry resolved names"
            );
        } else {
            assert!(
                events.is_empty(),
                "mode {} must record no events",
                mode.name()
            );
        }
        let profiled = tape.profile_report().total_nanos();
        if mode == TelemetryMode::Profile {
            assert!(profiled > 0, "mode profile must arm the tape profiler");
        } else {
            assert_eq!(profiled, 0, "mode {} must not profile", mode.name());
        }
        tape.reset_profile();
    }

    // Leave the process-global mode where the environment default would
    // have put it for any test binary spawned after this one.
    telemetry::set_mode(TelemetryMode::Off);
    telemetry::trace::clear_events();
}
