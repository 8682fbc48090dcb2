//! The `optim.restarts` / `optim.capped` telemetry counters: every
//! multi-start driver folds its restarts through one aggregation, which
//! counts them and the ones that stopped at their iteration cap. The
//! default quasi-Newton strategy must never hit its cap on the paper
//! model or on a sampled uncertainty study, and the lockstep and
//! sequential drivers must count alike.
//!
//! One `#[test]` fn only: the telemetry mode and counters are
//! process-global, so this binary must not run other tests that move
//! them.

use rand::rngs::StdRng;
use rand::Rng;
use safety_opt_core::compile::CompiledModel;
use safety_opt_core::optimize::SafetyOptimizer;
use safety_opt_core::uncertainty::optimize_under_uncertainty;
use safety_opt_elbtunnel::analytic::ElbtunnelModel;
use safety_opt_optim::multistart::MultiStart;
use safety_opt_optim::quasi_newton::QuasiNewton;
use safety_opt_optim::{Minimizer, TerminationReason};
use safety_opt_telemetry as telemetry;

/// `(optim.restarts, optim.capped)` recorded while `f` runs.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let read = || {
        let s = telemetry::snapshot();
        (
            s.counter("optim.restarts").unwrap_or(0),
            s.counter("optim.capped").unwrap_or(0),
        )
    };
    let before = read();
    f();
    let after = read();
    (after.0 - before.0, after.1 - before.1)
}

/// The Elbtunnel model with λ_HV ±30 % and P(OHV) ±25 %.
fn sampled(rng: &mut StdRng) -> safety_opt_core::Result<safety_opt_core::model::SafetyModel> {
    let mut m = ElbtunnelModel::paper();
    m.lambda_hv *= 0.7 + 0.6 * rng.gen::<f64>();
    m.p_ohv = (m.p_ohv * (0.75 + 0.5 * rng.gen::<f64>())).min(1.0);
    m.build()
}

#[test]
fn restarts_and_capped_restarts_are_counted() {
    if telemetry::mode() < telemetry::TelemetryMode::Counters {
        telemetry::set_mode(telemetry::TelemetryMode::Counters);
    }
    let model = ElbtunnelModel::paper().build().unwrap();

    // The paper model: four restarts, none capped.
    let (restarts, capped) = counted(|| {
        SafetyOptimizer::new(&model).run().unwrap();
    });
    assert_eq!((restarts, capped), (4, 0));

    // A 32-model study: four restarts per model, none capped.
    let (restarts, capped) = counted(|| {
        let study = optimize_under_uncertainty(sampled, 32, 17).unwrap();
        assert_eq!(study.failures, 0);
    });
    assert_eq!((restarts, capped), (128, 0));

    // A cap too small to converge: every restart is counted as capped,
    // by the lockstep and the sequential driver alike.
    let compiled = CompiledModel::compile(&model).unwrap();
    let domain = model.space().domain().unwrap();
    let ms = MultiStart::new(QuasiNewton::default().max_iterations(3), 5);
    let mut outcomes = Vec::new();
    let lockstep = counted(|| outcomes.push(ms.minimize_batch(&compiled, &domain).unwrap()));
    let sequential = counted(|| {
        outcomes.push(
            ms.minimize_differentiable(&compiled.objective(false), &domain)
                .unwrap(),
        )
    });
    assert_eq!(lockstep, (5, 5));
    assert_eq!(sequential, lockstep);
    assert!(outcomes
        .iter()
        .all(|o| o.termination == TerminationReason::MaxIterations));
}
