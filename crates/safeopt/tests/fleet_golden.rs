//! Seed-determinism regression: `propagate` and
//! `optimize_under_uncertainty` must return **`PartialEq`-identical**
//! reports for the same seed across the fleet rewiring.
//!
//! The `propagate` literals below were pinned from the pre-fleet
//! sequential path (sample → compile each model alone → evaluate one at
//! a time) at the commit that introduced the fleet; the
//! `optimize_under_uncertainty` literals were re-pinned when the
//! per-sample optimizer became lockstep **projected quasi-Newton over
//! analytic adjoint batches** (each re-pinned optimum is no farther from
//! the closed-form per-sample minimum than the gradient-descent one it
//! replaced), and are asserted against a live sequential reference
//! (compile each sampled model alone, run the same quasi-Newton restarts
//! one at a time). The
//! fleet path — one shared-arena compilation per Monte-Carlo batch,
//! lockstep multi-start restarts — must reproduce both bit for bit, and
//! stay bit-identical for every engine thread count (CI runs this suite
//! under `SAFETY_OPT_THREADS=1` and `=4`).

use rand::rngs::StdRng;
use rand::Rng;
use safety_opt_core::model::{Hazard, SafetyModel};
use safety_opt_core::param::ParameterSpace;
use safety_opt_core::pprob::{constant, exposure, overtime};
use safety_opt_core::uncertainty::{optimize_under_uncertainty, propagate};
use safety_opt_core::Result;
use safety_opt_stats::dist::TruncatedNormal;
use safety_opt_stats::mc::RunningStats;

/// The golden workload: a tradeoff model with an uncertain high-vehicle
/// rate λ ∈ [0.1, 0.16] and an uncertain presence probability
/// p ∈ [0.4, 0.6]. Changing this sampler invalidates the pinned
/// literals below.
fn golden_sampler(rng: &mut StdRng) -> Result<SafetyModel> {
    let lambda = 0.1 + 0.06 * rng.gen::<f64>();
    let p_hv = 0.4 + 0.2 * rng.gen::<f64>();
    let mut space = ParameterSpace::new();
    let t = space.parameter("t", 5.0, 30.0)?;
    let transit = TruncatedNormal::lower_bounded(4.0, 2.0, 0.0)?;
    let col = Hazard::builder("col")
        .cut_set("ot", [overtime(transit, t)])
        .build();
    let alr = Hazard::builder("alr")
        .cut_set("hv", [constant(p_hv)?, exposure(lambda, t)])
        .build();
    Ok(SafetyModel::new(space)
        .hazard(col, 100_000.0)
        .hazard(alr, 1.0))
}

/// Exact-equality check of a running statistic against pinned bits.
#[track_caller]
fn assert_stat(stat: &RunningStats, count: u64, mean: f64, var: f64, min: f64, max: f64) {
    assert_eq!(stat.count(), count);
    assert_eq!(
        stat.mean().to_bits(),
        mean.to_bits(),
        "mean {}",
        stat.mean()
    );
    assert_eq!(
        stat.sample_variance().to_bits(),
        var.to_bits(),
        "variance {}",
        stat.sample_variance()
    );
    assert_eq!(stat.min().to_bits(), min.to_bits(), "min {}", stat.min());
    assert_eq!(stat.max().to_bits(), max.to_bits(), "max {}", stat.max());
}

#[test]
fn propagate_reproduces_the_pre_fleet_sequential_path() {
    let report = propagate(golden_sampler, &[14.5], 64, 2024).unwrap();
    assert_eq!(report.runs, 64);
    assert_eq!(report.point, vec![14.5]);
    assert_stat(
        &report.cost,
        64,
        0.4350498846738543,
        0.0029875414054472238,
        0.32896549144053594,
        0.5340303815077477,
    );
    assert_eq!(report.hazards.len(), 2);
    assert_stat(
        &report.hazards[0],
        64,
        7.782002090877192e-8,
        0.0,
        7.782002090877192e-8,
        7.782002090877192e-8,
    );
    assert_stat(
        &report.hazards[1],
        64,
        0.4272678825829771,
        0.0029875414054472238,
        0.32118348934965874,
        0.5262483794168705,
    );
}

#[test]
fn optimize_under_uncertainty_reproduces_a_sequential_quasi_newton_reference() {
    // Live reference: the exact pre-fleet per-sample loop — compile
    // each sampled model alone, run the same 4 quasi-Newton restarts
    // sequentially over the uncached scalar objective (the lockstep
    // fleet path is also uncached), fold the same statistics.
    use rand::SeedableRng;
    use safety_opt_core::compile::CompiledModel;
    use safety_opt_optim::multistart::MultiStart;
    use safety_opt_optim::quasi_newton::QuasiNewton;
    use safety_opt_optim::Minimizer;

    let (runs, seed) = (12, 9);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arg_min = RunningStats::new();
    let mut min_cost = RunningStats::new();
    for _ in 0..runs {
        let model = golden_sampler(&mut rng).unwrap();
        let compiled = CompiledModel::compile(&model).unwrap();
        let domain = model.space().domain().unwrap();
        let objective = compiled.objective(false);
        let outcome = MultiStart::new(QuasiNewton::default(), 4)
            .minimize_differentiable(&objective, &domain)
            .unwrap();
        arg_min.push(outcome.best_x[0]);
        min_cost.push(outcome.best_value);
    }

    let dist = optimize_under_uncertainty(golden_sampler, runs, seed).unwrap();
    assert_eq!(dist.runs, 12);
    assert_eq!(dist.failures, 0);
    assert_eq!(dist.arg_min.len(), 1);
    assert_eq!(
        dist.arg_min[0], arg_min,
        "arg-min stats must be bit-identical"
    );
    assert_eq!(
        dist.min_cost, min_cost,
        "min-cost stats must be bit-identical"
    );

    // Pinned literals on top of the live reference, so a drift in *both*
    // paths at once (e.g. an engine kernel change) still trips CI.
    assert_stat(
        &dist.arg_min[0],
        12,
        14.814649710878594,
        0.003870539459316857,
        14.699265149005988,
        14.939865833955425,
    );
    assert_stat(
        &dist.min_cost,
        12,
        0.42697112442621543,
        0.003350047074130326,
        0.33881533445235756,
        0.5024796277095301,
    );
}

#[test]
fn fleet_path_equals_a_live_per_model_sequential_reference() {
    // Belt and braces beyond the pinned literals: recompute `propagate`
    // with the exact pre-fleet loop (sample, compile each model alone,
    // evaluate one point) and demand PartialEq identity.
    use rand::SeedableRng;
    use safety_opt_core::compile::CompiledModel;

    let (point, runs, seed) = (vec![11.25], 40, 7);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cost = RunningStats::new();
    let mut hazards: Vec<RunningStats> = Vec::new();
    for _ in 0..runs {
        let model = golden_sampler(&mut rng).unwrap();
        let compiled = CompiledModel::compile(&model).unwrap();
        let (costs, flat) = compiled
            .cost_and_hazards_batch(std::slice::from_ref(&point))
            .unwrap();
        if hazards.is_empty() {
            hazards = vec![RunningStats::new(); flat.len()];
        }
        for (stat, p) in hazards.iter_mut().zip(&flat) {
            stat.push(*p);
        }
        cost.push(costs[0]);
    }

    let report = propagate(golden_sampler, &point, runs, seed).unwrap();
    assert_eq!(report.cost, cost);
    assert_eq!(report.hazards, hazards);
}

#[test]
fn reports_stay_seed_deterministic_across_repeats() {
    let a = propagate(golden_sampler, &[14.5], 32, 5).unwrap();
    let b = propagate(golden_sampler, &[14.5], 32, 5).unwrap();
    assert_eq!(a, b);
    let c = optimize_under_uncertainty(golden_sampler, 6, 5).unwrap();
    let d = optimize_under_uncertainty(golden_sampler, 6, 5).unwrap();
    assert_eq!(c.arg_min, d.arg_min);
    assert_eq!(c.min_cost, d.min_cost);
}
