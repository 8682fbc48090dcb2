//! Structured tracing is observation-only, adversarially: forcing
//! every `SAFETY_OPT_TRACE` mode (with full telemetry stacked on top,
//! the most instrumented configuration) over the batch sweeps, the
//! pointwise sweeps and every thread count must leave each result
//! **bit-identical** (0 ULP) to the untraced pointwise reference —
//! including the per-op tape
//! profiler armed by `full`, scoped attribution under an active
//! `TraceScope`, and the span events emitted from worker threads.
//!
//! Everything lives in ONE `#[test]` fn: the trace mode is
//! process-global state and the libtest harness runs `#[test]` fns on
//! concurrent threads, so a mode sweep must not share a binary with any
//! other test that observes the mode.

mod common;

use common::{
    bits, compile_family, pointwise_all, pointwise_costs, pointwise_grads, random_points,
    FactorSpec, FamilySpec,
};
use safety_opt_engine::fleet::FleetEvaluator;
use safety_opt_engine::BatchEvaluator;
use safety_opt_telemetry as telemetry;

/// A family exercising every op kind the sweeps dispatch on, including
/// the opaque closures (the SoA per-op scalar fallback) and a
/// NaN-poisoned one — the same shape the telemetry equivalence suite
/// pins.
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
fn trace_modes_never_change_results() {
    let (fleet, tapes) = compile_family(&spec());
    let points = random_points(61, 0x5AFE_7ACE);

    // References: telemetry off, tracing off, pointwise sweeps.
    telemetry::set_mode(telemetry::TelemetryMode::Off);
    telemetry::set_trace_mode(telemetry::TraceMode::Off);
    let tape = &tapes[0];
    let ref_costs = pointwise_costs(tape, &points);
    let (ref_gc, ref_g) = pointwise_grads(tape, &points);
    let ref_all = pointwise_all(&fleet, &points).0;

    for trace in [
        telemetry::TraceMode::Off,
        telemetry::TraceMode::Events,
        telemetry::TraceMode::Full,
    ] {
        telemetry::set_mode(telemetry::TelemetryMode::Full);
        telemetry::set_trace_mode(trace);
        telemetry::trace::clear_events();
        let _scope = telemetry::TraceScope::enter("equivalence");
        // The pointwise sweeps themselves, observed.
        let ctx = format!("trace {}, pointwise", trace.name());
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
            let ctx = format!("trace {}, {threads} threads", trace.name());
            let ev = BatchEvaluator::new(tape, threads);
            assert_eq!(bits(&ev.costs(&points)), bits(&ref_costs), "costs, {ctx}");
            let (gc, g) = ev.eval_grad_batch(&points);
            assert_eq!(bits(&gc), bits(&ref_gc), "gradient costs, {ctx}");
            assert_eq!(bits(&g), bits(&ref_g), "gradients, {ctx}");
            let fe = FleetEvaluator::new(&fleet, threads);
            assert_eq!(bits(&fe.costs_all(&points)), bits(&ref_all), "fleet, {ctx}");
        }
        drop(_scope);

        // The sweeps above really were observed (not just harmless):
        // the event ring and the profiler fill exactly when their mode
        // says so.
        let events = telemetry::trace::take_events();
        let profiled = tape.profile_report().total_nanos();
        if trace >= telemetry::TraceMode::Events {
            assert!(
                events.iter().any(|e| e.kind == telemetry::EventKind::Span),
                "trace {} recorded no span events",
                trace.name()
            );
            assert!(
                events
                    .iter()
                    .all(|e| e.scope.as_deref() != Some("") && !e.name.is_empty()),
                "events must carry resolved names"
            );
        } else {
            assert!(events.is_empty(), "trace off must record nothing");
        }
        if trace == telemetry::TraceMode::Full {
            assert!(profiled > 0, "trace full must arm the tape profiler");
        }
        tape.reset_profile();
    }

    // Leave the process-global modes where the environment default
    // would have put them for any later-spawned test binary.
    telemetry::set_mode(telemetry::TelemetryMode::Off);
    telemetry::set_trace_mode(telemetry::TraceMode::Off);
}
