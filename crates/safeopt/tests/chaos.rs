//! Adversarial chaos suite — the robustness contract, end to end.
//!
//! Every failpoint site fires in turn (`safety_opt_engine::faultinject`),
//! across thread counts 1 and 4 and both the standalone and fleet
//! compilation paths, and the suite asserts the three-part contract:
//!
//! 1. only **typed errors** escape the batch entry points — worker
//!    panics are isolated into [`EngineError::WorkerPanicked`],
//!    compile-path sites return [`EngineError::FaultInjected`] wrapped
//!    in the owning crate's error type;
//! 2. no shared state is poisoned — tapes, fleets, memo caches, and the
//!    chunked pool all stay fully usable after a fault;
//! 3. a retry after disarming is **0-ULP bit-identical** to a run that
//!    never faulted.
//!
//! Failpoint state is process-global, so every test serializes on one
//! mutex; this is why these tests live in their own integration binary
//! instead of the concurrently-running unit suites.

use safety_opt_core::compile::CompiledModel;
use safety_opt_core::fleet::CompiledFleet;
use safety_opt_core::model::{Hazard, QuantMethod, SafetyModel};
use safety_opt_core::param::ParameterSpace;
use safety_opt_core::pprob::{complement, constant, exposure, overtime};
use safety_opt_core::uncertainty::optimize_under_uncertainty;
use safety_opt_core::{Result, SafeOptError};
use safety_opt_engine::faultinject::{self, sites, Trigger};
use safety_opt_engine::{CompileBudget, EngineError, EvalDeadline};
use safety_opt_stats::dist::TruncatedNormal;
use safety_opt_telemetry as telemetry;
use std::sync::{Mutex, MutexGuard, Once, PoisonError};
use std::time::Duration;

/// Serializes every chaos test (failpoints and the telemetry mode are
/// process-global) and silences the panic hook for the suite's own
/// injected panics so the output stays readable.
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

/// The Elbtunnel-shaped two-hazard model the equivalence suites use.
fn model() -> SafetyModel {
    let mut space = ParameterSpace::new();
    let t1 = space.parameter("t1", 5.0, 30.0).unwrap();
    let t2 = space.parameter("t2", 5.0, 30.0).unwrap();
    let transit = TruncatedNormal::lower_bounded(4.0, 2.0, 0.0).unwrap();
    let collision = Hazard::builder("collision")
        .residual("rest", 1e-8)
        .cut_set("ot1", [constant(1e-3).unwrap(), overtime(transit, t1)])
        .cut_set(
            "ot2",
            [
                constant(1e-3).unwrap(),
                complement(overtime(transit, t1)),
                overtime(transit, t2),
            ],
        )
        .build();
    let alarm = Hazard::builder("alarm")
        .cut_set("hv", [constant(0.5).unwrap(), exposure(0.13, t2)])
        .build();
    SafetyModel::new(space)
        .hazard(collision, 100_000.0)
        .hazard(alarm, 1.0)
}

/// A small family sharing the collision subtree, for the fleet paths.
fn family(n: usize) -> Vec<SafetyModel> {
    (0..n)
        .map(|k| {
            let mut space = ParameterSpace::new();
            let t1 = space.parameter("t1", 5.0, 30.0).unwrap();
            let t2 = space.parameter("t2", 5.0, 30.0).unwrap();
            let transit = TruncatedNormal::lower_bounded(4.0, 2.0, 0.0).unwrap();
            let collision = Hazard::builder("collision")
                .cut_set("ot", [constant(1e-3).unwrap(), overtime(transit, t1)])
                .build();
            let alarm = Hazard::builder("alarm")
                .cut_set(
                    "hv",
                    [
                        constant(0.5).unwrap(),
                        exposure(0.10 + 0.005 * k as f64, t2),
                    ],
                )
                .build();
            SafetyModel::new(space)
                .hazard(collision, 100_000.0)
                .hazard(alarm, 1.0)
        })
        .collect()
}

/// Enough points for several pool chunks at every thread count.
fn points() -> Vec<Vec<f64>> {
    (0..300)
        .map(|i| {
            let t = 5.0 + (i as f64) * 25.0 / 299.0;
            vec![t, 35.0 - t]
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts `err` is an isolated worker panic whose payload names `site`.
fn assert_worker_panicked(err: &SafeOptError, site: &str) {
    match err {
        SafeOptError::Engine(EngineError::WorkerPanicked { payload, .. }) => {
            assert!(
                payload.contains(site),
                "payload {payload:?} does not name site {site:?}"
            );
        }
        other => panic!("expected WorkerPanicked({site}), got {other:?}"),
    }
}

/// One batch method of the safeopt layer, its outputs flattened into a
/// list of vectors so a table can compare them bit for bit.
type BatchCall = fn(&CompiledModel, &CompiledFleet, &[Vec<f64>]) -> Result<Vec<Vec<f64>>>;

/// Every batch method of [`CompiledModel`] and [`CompiledFleet`], with
/// the failpoint site its chunks check.
fn batch_paths() -> [(&'static str, &'static str, BatchCall); 7] {
    [
        ("cost_batch", sites::POOL_CHUNK, |m, _, p| {
            Ok(vec![m.cost_batch(p)?])
        }),
        ("cost_and_hazards_batch", sites::POOL_CHUNK, |m, _, p| {
            let (c, h) = m.cost_and_hazards_batch(p)?;
            Ok(vec![c, h])
        }),
        ("gradient_batch", sites::GRAD_CHUNK, |m, _, p| {
            let (c, g) = m.gradient_batch(p)?;
            Ok(vec![c, g])
        }),
        ("costs_all", sites::FLEET_CHUNK, |_, f, p| {
            Ok(vec![f.costs_all(p)?])
        }),
        ("cost_and_hazards_all", sites::FLEET_CHUNK, |_, f, p| {
            let (c, h) = f.cost_and_hazards_all(p)?;
            Ok(vec![c, h])
        }),
        ("model_cost_batch", sites::FLEET_CHUNK, |_, f, p| {
            Ok(vec![f.model_cost_batch(1, p)?])
        }),
        ("model_gradient_batch", sites::FLEET_CHUNK, |_, f, p| {
            let (c, g) = f.model_gradient_batch(1, p)?;
            Ok(vec![c, g])
        }),
    ]
}

fn all_bits(outputs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    outputs.iter().map(|v| bits(v)).collect()
}

#[test]
fn evaluation_sites_fail_typed_across_backends_threads_and_paths() {
    let _guard = chaos_lock();
    let pts = points();
    let models = family(3);

    for threads in [1usize, 4] {
        let compiled = CompiledModel::compile_with_threads(&model(), threads).unwrap();
        let fleet = CompiledFleet::compile_with_threads(&models, threads).unwrap();
        // The never-faulted baseline is the pointwise sweep, bit for bit.
        let base_costs = compiled.cost_batch(&pts).unwrap();
        for (p, c) in pts.iter().zip(&base_costs) {
            assert_eq!(compiled.tape().eval(p).to_bits(), c.to_bits());
        }
        for (name, site, call) in batch_paths() {
            let ctx = format!("{name}, {threads} threads");
            let base = call(&compiled, &fleet, &pts).unwrap();
            faultinject::arm(site, Trigger::Prob { p: 1.0, seed: 0 });
            let err = call(&compiled, &fleet, &pts).unwrap_err();
            faultinject::disarm(site);
            assert_worker_panicked(&err, site);
            // Nothing was poisoned: the disarmed retry is bit-identical
            // to the never-faulted baseline.
            let retry = call(&compiled, &fleet, &pts).unwrap();
            assert_eq!(all_bits(&retry), all_bits(&base), "{ctx}");
        }
    }
}

#[test]
fn compile_sites_fail_typed_and_recompilation_is_unaffected() {
    let _guard = chaos_lock();
    let baseline = CompiledModel::compile_with_threads(&model(), 1).unwrap();
    let x = [14.0, 17.0];

    // Hazard lowering onto the tape: typed, all-or-nothing.
    faultinject::arm(sites::TAPE_COMPILE, Trigger::Nth(1));
    match CompiledModel::compile(&model()) {
        Err(SafeOptError::Engine(EngineError::FaultInjected { site })) => {
            assert_eq!(site, sites::TAPE_COMPILE);
        }
        other => panic!("expected FaultInjected(tape.compile), got {other:?}"),
    }
    faultinject::disarm(sites::TAPE_COMPILE);
    let retry = CompiledModel::compile_with_threads(&model(), 1).unwrap();
    assert_eq!(
        retry.cost(&x).unwrap().to_bits(),
        baseline.cost(&x).unwrap().to_bits()
    );

    // BDD construction in the fta crate: typed through the Fta wrapper.
    let tree = || {
        let mut ft = safety_opt_fta::tree::FaultTree::new("shared");
        let a = ft.basic_event("a").unwrap();
        let b = ft.basic_event("b").unwrap();
        let g = ft.and_gate("g", [a, b]).unwrap();
        ft.set_root(g).unwrap();
        ft
    };
    let mut space = ParameterSpace::new();
    let t = space.parameter("t", 0.1, 10.0).unwrap();
    let leaves = move |leaf: usize| -> Result<_> {
        Ok(if leaf == 0 {
            exposure(0.2, t)
        } else {
            constant(0.25).unwrap()
        })
    };
    faultinject::arm(sites::BDD_APPLY, Trigger::Nth(1));
    match Hazard::from_fault_tree(&tree(), leaves) {
        Err(SafeOptError::Fta(safety_opt_fta::FtaError::FaultInjected { site })) => {
            assert_eq!(site, sites::BDD_APPLY);
        }
        other => panic!(
            "expected Fta(FaultInjected(bdd.apply)), got {:?}",
            other.map(|_| ())
        ),
    }
    faultinject::disarm(sites::BDD_APPLY);
    Hazard::from_fault_tree(&tree(), leaves).unwrap();

    // One model's lowering into a fleet build: all-or-nothing on
    // `compile`, rolled back per slot on `compile_partial`.
    let models = family(3);
    faultinject::arm(sites::FLEET_BUILD, Trigger::Nth(2));
    match CompiledFleet::compile(&models) {
        Err(SafeOptError::Engine(EngineError::FaultInjected { site })) => {
            assert_eq!(site, sites::FLEET_BUILD);
        }
        other => panic!("expected FaultInjected(fleet.build), got {other:?}"),
    }
    faultinject::arm(sites::FLEET_BUILD, Trigger::Nth(2));
    let (fleet, slots) = CompiledFleet::compile_partial(&models, 1);
    let fleet = fleet.expect("two models survive");
    assert_eq!(fleet.n_models(), 2);
    assert!(matches!(
        slots[1],
        Err(SafeOptError::Engine(EngineError::FaultInjected { .. }))
    ));
    faultinject::disarm(sites::FLEET_BUILD);
    // The surviving models are bit-identical to standalone compiles.
    for (model, slot) in [(&models[0], 0usize), (&models[2], 1)] {
        let standalone = CompiledModel::compile_with_threads(model, 1).unwrap();
        let fc = fleet.model_cost_batch(slot, &[x.to_vec()]).unwrap();
        assert_eq!(fc[0].to_bits(), standalone.cost(&x).unwrap().to_bits());
    }
}

#[test]
fn cache_memo_panic_never_poisons_the_objective_memo() {
    use safety_opt_optim::Objective as _;
    let _guard = chaos_lock();
    let compiled = CompiledModel::compile_with_threads(&model(), 1).unwrap();
    let obj = compiled.objective(true);
    let x = [19.0, 15.6];
    faultinject::arm(sites::CACHE_MEMO, Trigger::Nth(1));
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| obj.eval(&x)));
    assert!(
        panicked.is_err(),
        "armed cache.memo must panic under the lock"
    );
    faultinject::disarm(sites::CACHE_MEMO);
    // The cache recovered from the poisoned lock: the faulted insert is
    // a plain miss, recomputed bit-identically and cached from then on.
    let expected = compiled.cost(&x).unwrap();
    assert_eq!(obj.eval(&x).to_bits(), expected.to_bits());
    assert_eq!(obj.eval(&x).to_bits(), expected.to_bits());
    let stats = obj.cache_stats();
    assert_eq!(stats.hits, 1, "second post-fault eval must hit the cache");
}

/// Shared-event tree where rare-event and exact genuinely differ (event
/// `a` sits in both cut sets, so the rare-event sum over-counts).
fn shared_event_model(quant: QuantMethod) -> SafetyModel {
    let mut ft = safety_opt_fta::tree::FaultTree::new("shared");
    let a = ft.basic_event("a").unwrap();
    let b = ft.basic_event("b").unwrap();
    let c = ft.basic_event("c").unwrap();
    let g1 = ft.and_gate("g1", [a, b]).unwrap();
    let g2 = ft.and_gate("g2", [a, c]).unwrap();
    let top = ft.or_gate("top", [g1, g2]).unwrap();
    ft.set_root(top).unwrap();
    let mut space = ParameterSpace::new();
    let t = space.parameter("t", 0.1, 10.0).unwrap();
    let hazard = Hazard::from_fault_tree(&ft, |leaf| {
        Ok(match leaf {
            0 => exposure(0.2, t),
            1 => constant(0.4).unwrap(),
            _ => constant(0.25).unwrap(),
        })
    })
    .unwrap();
    SafetyModel::new(space)
        .hazard(hazard, 1000.0)
        .with_quant_method(quant)
}

fn fallback_counter() -> u64 {
    telemetry::snapshot()
        .counter("safeopt.degrade.fallback")
        .unwrap_or(0)
}

#[test]
fn bdd_node_budget_degrades_to_rare_event_lowering_when_enabled() {
    let _guard = chaos_lock();
    let exact_model = shared_event_model(QuantMethod::BddExact);
    let strict = CompileBudget::default().with_max_bdd_nodes(0);
    let lenient = strict.with_rare_event_fallback();
    let x = [3.0];

    // The default policy: all-or-nothing typed error.
    match CompiledModel::compile_with_budget(&exact_model, 1, strict) {
        Err(SafeOptError::Engine(EngineError::BudgetExceeded { what, .. })) => {
            assert_eq!(what, "BDD nodes");
        }
        other => panic!("expected BudgetExceeded(BDD nodes), got {other:?}"),
    }

    // The fallback budget: compiles, counts the degradation, and the
    // degraded hazard is bit-identical to an explicit rare-event compile.
    telemetry::set_mode(telemetry::TelemetryMode::Counters);
    let before = fallback_counter();
    let degraded = CompiledModel::compile_with_budget(&exact_model, 1, lenient).unwrap();
    assert_eq!(
        fallback_counter(),
        before + 1,
        "degradation must be counted"
    );
    telemetry::set_mode(telemetry::TelemetryMode::Off);
    let rare = CompiledModel::compile_with_threads(&shared_event_model(QuantMethod::RareEvent), 1)
        .unwrap();
    assert_eq!(
        degraded.cost(&x).unwrap().to_bits(),
        rare.cost(&x).unwrap().to_bits(),
        "degraded hazard must equal the rare-event lowering exactly"
    );
    // And it genuinely degraded: the unbudgeted exact compile differs.
    let exact = CompiledModel::compile(&exact_model).unwrap();
    assert_ne!(
        exact.cost(&x).unwrap().to_bits(),
        degraded.cost(&x).unwrap().to_bits()
    );
}

#[test]
fn fallback_budget_that_is_not_blown_compiles_exactly() {
    let _guard = chaos_lock();
    let exact_model = shared_event_model(QuantMethod::BddExact);
    let roomy = CompileBudget::default()
        .with_max_bdd_nodes(1_000)
        .with_rare_event_fallback();
    telemetry::set_mode(telemetry::TelemetryMode::Counters);
    let before = fallback_counter();
    let budgeted = CompiledModel::compile_with_budget(&exact_model, 1, roomy).unwrap();
    assert_eq!(fallback_counter(), before, "nothing degraded");
    telemetry::set_mode(telemetry::TelemetryMode::Off);
    let plain = CompiledModel::compile_with_threads(&exact_model, 1).unwrap();
    for x in [[0.1], [3.0], [7.5], [10.0]] {
        assert_eq!(
            budgeted.cost(&x).unwrap().to_bits(),
            plain.cost(&x).unwrap().to_bits(),
            "at {x:?}"
        );
    }
}

#[test]
fn degrade_policy_belongs_to_each_compile() {
    let _guard = chaos_lock();
    let exact_model = shared_event_model(QuantMethod::BddExact);
    let rare = CompiledModel::compile_with_threads(&shared_event_model(QuantMethod::RareEvent), 1)
        .unwrap();
    let strict = CompileBudget::default().with_max_bdd_nodes(0);
    let lenient = strict.with_rare_event_fallback();
    let x = [3.0];
    // Opposite policies back to back, in both orders: neither compile
    // leaks its policy into the next.
    for _ in 0..2 {
        let degraded = CompiledModel::compile_with_budget(&exact_model, 1, lenient).unwrap();
        assert_eq!(
            degraded.cost(&x).unwrap().to_bits(),
            rare.cost(&x).unwrap().to_bits()
        );
        assert!(matches!(
            CompiledModel::compile_with_budget(&exact_model, 1, strict),
            Err(SafeOptError::Engine(EngineError::BudgetExceeded {
                what: "BDD nodes",
                ..
            }))
        ));
    }
}

#[test]
fn ops_budget_is_all_or_nothing() {
    let _guard = chaos_lock();
    match CompiledModel::compile_with_budget(&model(), 1, CompileBudget::default().with_max_ops(1))
    {
        Err(SafeOptError::Engine(EngineError::BudgetExceeded { what, limit, .. })) => {
            assert_eq!(what, "tape ops");
            assert_eq!(limit, 1);
        }
        other => panic!("expected BudgetExceeded(tape ops), got {other:?}"),
    }
    // An unlimited retry is unaffected.
    CompiledModel::compile_with_budget(&model(), 1, CompileBudget::UNLIMITED).unwrap();
}

#[test]
fn expired_deadlines_are_typed_on_every_batch_path() {
    let _guard = chaos_lock();
    let pts = points();
    let compiled = CompiledModel::compile_with_threads(&model(), 2).unwrap();
    let fleet = CompiledFleet::compile_with_threads(&family(3), 2).unwrap();
    let expired = EvalDeadline::after(Duration::ZERO);
    let generous = EvalDeadline::after(Duration::from_secs(3600));
    for (name, _, call) in batch_paths() {
        match call(
            &compiled.with_deadline(expired),
            &fleet.with_deadline(expired),
            &pts,
        ) {
            Err(SafeOptError::Engine(EngineError::DeadlineExceeded { .. })) => {}
            other => panic!("{name}: expected DeadlineExceeded, got {other:?}"),
        }
        // A generous deadline evaluates normally, bit-identical to none.
        let bounded = call(
            &compiled.with_deadline(generous),
            &fleet.with_deadline(generous),
            &pts,
        )
        .unwrap();
        let unbounded = call(&compiled, &fleet, &pts).unwrap();
        assert_eq!(all_bits(&bounded), all_bits(&unbounded), "{name}");
    }
}

/// The one-timer tradeoff family the uncertainty tests sample: an HV
/// rate uncertain in [0.1, 0.16].
fn tradeoff_sample(rng: &mut rand::rngs::StdRng) -> Result<SafetyModel> {
    use rand::Rng as _;
    let lambda = 0.1 + 0.06 * rng.gen::<f64>();
    let mut space = ParameterSpace::new();
    let t = space.parameter("t", 5.0, 30.0)?;
    let transit = TruncatedNormal::lower_bounded(4.0, 2.0, 0.0)?;
    let col = Hazard::builder("col")
        .cut_set("ot", [overtime(transit, t)])
        .build();
    let alr = Hazard::builder("alr")
        .cut_set("hv", [constant(0.5)?, exposure(lambda, t)])
        .build();
    Ok(SafetyModel::new(space)
        .hazard(col, 100_000.0)
        .hazard(alr, 1.0))
}

#[test]
fn mid_fleet_compile_fault_counts_as_an_uncertainty_failure() {
    let _guard = chaos_lock();
    let sampler = tradeoff_sample;
    // The second sample's fleet lowering faults: it is counted as a
    // failure, the other four samples aggregate normally.
    faultinject::arm(sites::FLEET_BUILD, Trigger::Nth(2));
    let dist = optimize_under_uncertainty(sampler, 5, 3).unwrap();
    faultinject::disarm(sites::FLEET_BUILD);
    assert_eq!(dist.runs, 5);
    assert_eq!(dist.failures, 1);
    assert_eq!(dist.min_cost.count(), 4);
    // A clean rerun recovers all five samples.
    let clean = optimize_under_uncertainty(sampler, 5, 3).unwrap();
    assert_eq!(clean.failures, 0);
    assert_eq!(clean.min_cost.count(), 5);
}

#[test]
fn engine_panics_during_a_study_are_typed_per_sample_errors() {
    use safety_opt_optim::BatchDifferentiableObjective as _;

    let _guard = chaos_lock();
    let never_faulted = optimize_under_uncertainty(tradeoff_sample, 6, 11).unwrap();
    // Every sweep panics: each sample's optimization is caught on its
    // worker and recorded as a typed error, so the study returns the
    // last one instead of unwinding.
    faultinject::arm(sites::FLEET_CHUNK, Trigger::Prob { p: 1.0, seed: 0 });
    let faulted = optimize_under_uncertainty(tradeoff_sample, 6, 11);
    faultinject::disarm(sites::FLEET_CHUNK);
    assert_worker_panicked(&faulted.unwrap_err(), sites::FLEET_CHUNK);
    let rerun = optimize_under_uncertainty(tradeoff_sample, 6, 11).unwrap();
    assert_eq!(rerun, never_faulted);

    // A batch objective whose sweep panicked drops the buffers it held:
    // its next call matches a never-faulted objective bit for bit.
    let models = family(3);
    let fleet = CompiledFleet::compile_with_threads(&models, 1).unwrap();
    let pts = &points()[..17];
    let (mut v, mut g) = (Vec::new(), Vec::new());
    let objective = fleet.model_batch_objective(1);
    objective.eval_grad_batch(pts, &mut v, &mut g);
    faultinject::arm(sites::FLEET_CHUNK, Trigger::Nth(1));
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        objective.eval_grad_batch(&points()[..3], &mut v, &mut g)
    }));
    faultinject::disarm(sites::FLEET_CHUNK);
    assert!(panicked.is_err(), "armed fleet.chunk must panic the sweep");
    objective.eval_grad_batch(pts, &mut v, &mut g);
    let (mut fv, mut fg) = (Vec::new(), Vec::new());
    fleet
        .model_batch_objective(1)
        .eval_grad_batch(pts, &mut fv, &mut fg);
    assert_eq!(bits(&v), bits(&fv));
    assert_eq!(bits(&g), bits(&fg));
}
