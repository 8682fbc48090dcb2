//! Property tests for parameterized probability expressions: arbitrary
//! compositions must stay inside `[0, 1]` for every in-domain parameter
//! point, and the model layer must preserve that invariant up to the cost
//! function.

use proptest::prelude::*;
use safety_opt_core::compile::CompiledModel;
use safety_opt_core::model::{Hazard, SafetyModel};
use safety_opt_core::param::{ParamId, ParamValues, ParameterSpace};
use safety_opt_core::pprob::{complement, constant, exposure, overtime, product, scaled, ProbExpr};
use safety_opt_stats::dist::TruncatedNormal;

/// A recursive strategy for random probability expressions over two
/// parameters.
fn expr_strategy() -> impl Strategy<Value = ProbExpr> {
    let leaf = prop_oneof![
        (0.0f64..=1.0).prop_map(|p| constant(p).unwrap()),
        (0.001f64..2.0, 0usize..2).prop_map(|(rate, idx)| exposure(rate, ParamId::new(idx))),
        ((0.1f64..20.0, 0.1f64..5.0), 0usize..2).prop_map(|((mu, sigma), idx)| {
            overtime(
                TruncatedNormal::lower_bounded(mu, sigma, 0.0).unwrap(),
                ParamId::new(idx),
            )
        }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(complement),
            prop::collection::vec(inner.clone(), 1..4).prop_map(product),
            (0.0f64..=1.0, inner).prop_map(|(c, e)| scaled(c, e).unwrap()),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn expressions_always_yield_probabilities(
        expr in expr_strategy(),
        x0 in 0.0f64..50.0,
        x1 in 0.0f64..50.0,
    ) {
        let values = [x0, x1];
        let p = expr
            .eval(&ParamValues::new(&values))
            .map_err(|e| TestCaseError::fail(format!("eval failed: {e}")))?;
        prop_assert!((0.0..=1.0).contains(&p), "{} -> {p}", expr.describe());
    }

    #[test]
    fn describe_never_panics_and_is_nonempty(expr in expr_strategy()) {
        prop_assert!(!expr.describe().is_empty());
    }

    #[test]
    fn hazards_and_costs_stay_finite(
        exprs in prop::collection::vec(expr_strategy(), 1..4),
        cost in 0.0f64..1e6,
        x0 in 5.0f64..30.0,
        x1 in 5.0f64..30.0,
    ) {
        let mut space = ParameterSpace::new();
        space.parameter("a", 5.0, 30.0).unwrap();
        space.parameter("b", 5.0, 30.0).unwrap();
        let mut builder = Hazard::builder("h");
        for (i, e) in exprs.into_iter().enumerate() {
            builder = builder.cut_set(format!("cs{i}"), [e]);
        }
        let model = SafetyModel::new(space).hazard(builder.build(), cost);
        let probs = model
            .hazard_probabilities(&[x0, x1])
            .map_err(|e| TestCaseError::fail(format!("eval failed: {e}")))?;
        prop_assert!((0.0..=1.0).contains(&probs[0]));
        let c = model
            .cost(&[x0, x1])
            .map_err(|e| TestCaseError::fail(format!("cost failed: {e}")))?;
        prop_assert!(c.is_finite() && c >= 0.0);
        prop_assert!(c <= cost + 1e-9, "cost {c} exceeds weight {cost}");
    }

    #[test]
    fn exposure_is_monotone_in_the_window(
        rate in 0.001f64..2.0,
        t_small in 0.0f64..40.0,
        dt in 0.0f64..40.0,
    ) {
        let e = exposure(rate, ParamId::new(0));
        let small = e.eval(&ParamValues::new(&[t_small])).unwrap();
        let large = e.eval(&ParamValues::new(&[t_small + dt])).unwrap();
        prop_assert!(large + 1e-12 >= small);
    }

    #[test]
    fn overtime_is_antitone_in_the_runtime(
        mu in 0.5f64..20.0,
        sigma in 0.1f64..5.0,
        t_small in 0.0f64..40.0,
        dt in 0.0f64..40.0,
    ) {
        let d = TruncatedNormal::lower_bounded(mu, sigma, 0.0).unwrap();
        let e = overtime(d, ParamId::new(0));
        let early = e.eval(&ParamValues::new(&[t_small])).unwrap();
        let late = e.eval(&ParamValues::new(&[t_small + dt])).unwrap();
        prop_assert!(late <= early + 1e-12);
    }

    // The rare-event linearisation of an exposure: for λt ∈ [0, 0.1),
    // `p = 1 − e^{−λt}` satisfies `0 ≤ λt − p ≤ (λt)²/2`, because the
    // series `λt − p = (λt)²/2 − (λt)³/6 + …` alternates with falling
    // terms. Checked on the scalar expression and on the compiled op,
    // pointwise and through a lane-blocked batch.
    #[test]
    fn exposure_linearisation_error_is_bounded(
        rate in 0.001f64..2.0,
        u in 0.0f64..1.0,
    ) {
        let t_max = 0.1 / rate;
        let mut space = ParameterSpace::new();
        let t = space.parameter("t", 0.0, t_max).unwrap();
        let expr = exposure(rate, t);
        let hazard = Hazard::builder("h").cut_set("exposure", [expr.clone()]).build();
        let compiled =
            CompiledModel::compile_with_threads(&SafetyModel::new(space).hazard(hazard, 1.0), 1)
                .unwrap();
        let points: Vec<Vec<f64>> = (0..19).map(|k| vec![t_max * u * k as f64 / 19.0]).collect();
        let (_, batch) = compiled.cost_and_hazards_batch(&points).unwrap();
        for (point, &from_batch) in points.iter().zip(&batch) {
            let lt = rate * point[0];
            prop_assert!(lt < 0.1);
            let scalar = expr.eval(&ParamValues::new(point)).unwrap();
            let pointwise = compiled.cost(point).unwrap();
            for (what, p) in [("scalar", scalar), ("pointwise", pointwise), ("batch", from_batch)] {
                prop_assert!(
                    (0.0..=lt * lt / 2.0).contains(&(lt - p)),
                    "{what}: λt = {lt:e}, p = {p:e}, λt − p = {:e}", lt - p
                );
            }
        }
    }
}
