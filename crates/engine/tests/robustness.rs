//! Engine-level robustness: armed failpoints fail **typed**, shared
//! state survives, and disarmed retries are 0-ULP bit-identical.
//!
//! Failpoint state is process-global, so every test serializes on one
//! mutex — which is why these tests live in their own integration
//! binary instead of the concurrently-running unit suites (the
//! higher-level safeopt chaos suite covers the same sites through the
//! compiled-model and fleet APIs).

mod common;

use common::{pointwise_costs, pointwise_grads};
use safety_opt_engine::faultinject::{self, sites, Trigger};
use safety_opt_engine::fleet::{FleetBuilder, FleetEvaluator};
use safety_opt_engine::{BatchEvaluator, EngineError, QuantizedCache, Tape, TapeBuilder};
use std::sync::{Mutex, MutexGuard, Once, PoisonError};

fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|m| m.contains("fault injected"));
            if !injected {
                default_hook(info);
            }
        }));
    });
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tape() -> Tape {
    let mut b = TapeBuilder::new(2);
    let t0 = b.input(0);
    let t1 = b.input(1);
    let e0 = b.exposure(0.3, t0);
    let e1 = b.exposure(0.7, t1);
    let both = b.product(vec![e0, e1]);
    let h = b.sum_clamped(0.0, vec![both]);
    b.output(h, 1000.0);
    b.build()
}

fn points(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| vec![0.1 + i as f64 * 0.05, 1.0 + i as f64 * 0.03])
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn pool_and_grad_chunks_fail_typed_and_retry_bit_identically() {
    let _guard = chaos_lock();
    let tape = tape();
    let pts = points(257);
    // The pointwise oracle: retries must reproduce it bit for bit.
    let base = pointwise_costs(&tape, &pts);
    let base_grad = pointwise_grads(&tape, &pts);
    for threads in [1usize, 4] {
        let ev = || BatchEvaluator::new(&tape, threads);
        faultinject::arm(sites::POOL_CHUNK, Trigger::Prob { p: 1.0, seed: 0 });
        match ev().try_costs(&pts, None).unwrap_err() {
            EngineError::WorkerPanicked { payload, .. } => {
                assert!(payload.contains(sites::POOL_CHUNK), "payload {payload:?}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        faultinject::disarm(sites::POOL_CHUNK);
        faultinject::arm(sites::GRAD_CHUNK, Trigger::Nth(1));
        assert!(matches!(
            ev().try_eval_grad_batch(&pts, None).unwrap_err(),
            EngineError::WorkerPanicked { .. }
        ));
        faultinject::disarm(sites::GRAD_CHUNK);
        // Nothing poisoned: retries are bit-identical across the
        // whole matrix.
        assert_eq!(
            bits(&ev().try_costs(&pts, None).unwrap()),
            bits(&base),
            "{threads} threads"
        );
        let (v, g) = ev().try_eval_grad_batch(&pts, None).unwrap();
        assert_eq!(bits(&v), bits(&base_grad.0), "{threads} threads");
        assert_eq!(bits(&g), bits(&base_grad.1), "{threads} threads");
        // The infallible wrappers still work after the faults.
        assert_eq!(bits(&ev().costs(&pts)), bits(&base));
    }
}

#[test]
fn fleet_chunks_fail_typed_and_retry_bit_identically() {
    let _guard = chaos_lock();
    let mut fb = FleetBuilder::new(2);
    for weight in [10.0, 20.0, 30.0] {
        let b = fb.lowerer();
        let t0 = b.input(0);
        let t1 = b.input(1);
        let e0 = b.exposure(0.3, t0);
        let e1 = b.exposure(0.7, t1);
        let both = b.product(vec![e0, e1]);
        let h = b.sum_clamped(0.0, vec![both]);
        b.output(h, weight);
        fb.finish_model();
    }
    let fleet = fb.build();
    let pts = points(193);
    let base = FleetEvaluator::new(&fleet, 1)
        .try_costs_all(&pts, None)
        .unwrap();
    for threads in [1usize, 4] {
        faultinject::arm(sites::FLEET_CHUNK, Trigger::Prob { p: 1.0, seed: 0 });
        let err = FleetEvaluator::new(&fleet, threads)
            .try_costs_all(&pts, None)
            .unwrap_err();
        assert!(matches!(err, EngineError::WorkerPanicked { .. }), "{err:?}");
        let err = FleetEvaluator::new(&fleet, threads)
            .try_model_grads(1, &pts, None)
            .unwrap_err();
        assert!(matches!(err, EngineError::WorkerPanicked { .. }), "{err:?}");
        faultinject::disarm(sites::FLEET_CHUNK);
        assert_eq!(
            bits(
                &FleetEvaluator::new(&fleet, threads)
                    .try_costs_all(&pts, None)
                    .unwrap()
            ),
            bits(&base),
            "{threads} threads"
        );
    }
}

#[test]
fn cache_memo_panic_under_the_lock_does_not_poison_the_cache() {
    let _guard = chaos_lock();
    let cache = QuantizedCache::fine();
    faultinject::arm(sites::CACHE_MEMO, Trigger::Nth(1));
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cache.get_or_insert_with(&[1.0, 2.0], || 7.0)
    }));
    assert!(panicked.is_err(), "armed cache.memo must panic");
    faultinject::disarm(sites::CACHE_MEMO);
    // The faulted insert is a plain miss: recomputed, then cached.
    assert_eq!(cache.get_or_insert_with(&[1.0, 2.0], || 7.0), 7.0);
    assert_eq!(cache.get_or_insert_with(&[1.0, 2.0], || 9.0), 7.0);
    assert_eq!(cache.len(), 1);
}

#[test]
fn fired_and_hit_counters_track_armed_sites() {
    let _guard = chaos_lock();
    let tape = tape();
    let pts = points(64);
    faultinject::arm(sites::POOL_CHUNK, Trigger::Nth(1));
    let _ = BatchEvaluator::new(&tape, 1).try_costs(&pts, None);
    assert_eq!(faultinject::fired(sites::POOL_CHUNK), 1);
    assert!(faultinject::hits(sites::POOL_CHUNK) >= 1);
    faultinject::disarm(sites::POOL_CHUNK);
}
