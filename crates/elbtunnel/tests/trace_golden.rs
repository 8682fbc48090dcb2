//! Golden structured-trace shape on the Elbtunnel workload: the event
//! stream the default optimizer emits under `SAFETY_OPT_TELEMETRY=events`
//! is **pinned** — one `compile` scope followed by the eight
//! sequential multi-start `restart.k` scopes, each properly
//! begin/end-paired, nothing dropped, and no stray failpoint /
//! degradation / deadline / warning events. Timestamps are ignored
//! (they are wall-clock); the *shape* is a deterministic artifact of
//! the compile pipeline and the multi-start strategy, so a change here
//! means the optimizer's control flow changed — a deliberate, reviewed
//! event.
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

    // Kind counts: one compile scope + eight restarts, begin/end
    // paired, and nothing else on this path (the sequential strategy
    // evaluates point-by-point through the memo cache — no chunked
    // sweeps, so no span events; no failpoints, fallbacks, deadlines,
    // or warnings fire on the paper model).
    let mut kinds: BTreeMap<&'static str, usize> = BTreeMap::new();
    for e in &events {
        *kinds.entry(e.kind.name()).or_default() += 1;
    }
    let expected: BTreeMap<&'static str, usize> =
        [("scope_begin", 9), ("scope_end", 9)].into_iter().collect();
    assert_eq!(kinds, expected, "event kind counts are pinned");

    // The scope sequence is pinned exactly: compile first, then the
    // restarts in index order, strictly nested (sequential strategy,
    // one thread — no interleaving).
    let shape: Vec<(&'static str, &str)> = events
        .iter()
        .map(|e| (e.kind.name(), e.name.as_str()))
        .collect();
    let mut want: Vec<(&'static str, String)> = vec![
        ("scope_begin", "compile".to_owned()),
        ("scope_end", "compile".to_owned()),
    ];
    for k in 0..8 {
        want.push(("scope_begin", format!("restart.{k}")));
        want.push(("scope_end", format!("restart.{k}")));
    }
    let want: Vec<(&'static str, &str)> = want.iter().map(|(k, n)| (*k, n.as_str())).collect();
    assert_eq!(shape, want, "scope event sequence is pinned");

    // Every event carries its own scope attribution and the global
    // sequence numbers are strictly increasing (the drain order).
    assert!(events
        .iter()
        .all(|e| e.scope.as_deref() == Some(e.name.as_str())));
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));

    telemetry::set_mode(telemetry::TelemetryMode::Off);
}
