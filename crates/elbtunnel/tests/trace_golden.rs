//! Golden structured-trace shape on the Elbtunnel workload: the event
//! stream the default optimizer emits under `SAFETY_OPT_TELEMETRY=events`
//! is **pinned** — one `compile` scope followed by one
//! `restarts.lockstep` scope holding one batch-chunk span per lockstep
//! round, each scope properly begin/end-paired, nothing dropped, and no
//! stray failpoint / degradation / deadline / warning events.
//! Timestamps are ignored (they are wall-clock); the *shape* is a
//! deterministic artifact of the compile pipeline and the multi-start
//! strategy, so a change here means the optimizer's control flow
//! changed — a deliberate, reviewed event.
//!
//! One `#[test]` fn only: the telemetry mode and the event ring are
//! process-global, so this sweep must not share a binary with any
//! other test that observes them.

use safety_opt_core::model::QuantMethod;
use safety_opt_core::optimize::SafetyOptimizer;
use safety_opt_elbtunnel::analytic::ElbtunnelModel;
use safety_opt_telemetry as telemetry;
use std::collections::BTreeMap;

#[test]
fn default_optimizer_event_stream_shape_is_pinned() {
    // Force the quant method so the shape holds under every
    // `SAFETY_OPT_QUANT` CI leg, and the telemetry mode so it holds
    // under every `SAFETY_OPT_TELEMETRY` leg.
    let model = ElbtunnelModel::paper()
        .build()
        .unwrap()
        .with_quant_method(QuantMethod::RareEvent);
    telemetry::set_mode(telemetry::TelemetryMode::Events);
    telemetry::trace::clear_events();

    let optimum = SafetyOptimizer::new(&model).run().unwrap();
    assert!(optimum.cost().is_finite());

    let events = telemetry::trace::take_events();
    assert_eq!(telemetry::trace::dropped_events(), 0, "nothing dropped");

    // Kind counts: one compile scope and one lockstep scope, begin/end
    // paired, plus one chunk span per lockstep round: the quasi-Newton
    // restarts' value + gradient batch fits one pool chunk, which runs
    // inline at every thread count. No failpoints, fallbacks,
    // deadlines, or warnings fire on the paper model.
    let rounds = 71;
    let mut kinds: BTreeMap<&'static str, usize> = BTreeMap::new();
    for e in &events {
        *kinds.entry(e.kind.name()).or_default() += 1;
    }
    let expected: BTreeMap<&'static str, usize> =
        [("scope_begin", 2), ("scope_end", 2), ("span", rounds)]
            .into_iter()
            .collect();
    assert_eq!(kinds, expected, "event kind counts are pinned");

    // The sequence is pinned exactly: compile first, then the lockstep
    // scope wrapping every round's span.
    let shape: Vec<(&'static str, &str)> = events
        .iter()
        .map(|e| (e.kind.name(), e.name.as_str()))
        .collect();
    let mut want = vec![
        ("scope_begin", "compile"),
        ("scope_end", "compile"),
        ("scope_begin", "restarts.lockstep"),
    ];
    want.extend(std::iter::repeat(("span", "engine.batch.chunk_nanos")).take(rounds));
    want.push(("scope_end", "restarts.lockstep"));
    assert_eq!(shape, want, "event sequence is pinned");

    // Spans are attributed to the scope they ran in.
    assert!(events
        .iter()
        .filter(|e| e.kind.name() == "span")
        .all(|e| e.scope.as_deref() == Some("restarts.lockstep")));
    // Every scope event carries its own scope attribution and the
    // global sequence numbers are strictly increasing (the drain order).
    assert!(events
        .iter()
        .filter(|e| e.kind.name() != "span")
        .all(|e| e.scope.as_deref() == Some(e.name.as_str())));
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));

    telemetry::set_mode(telemetry::TelemetryMode::Off);
}
