//! Uncertainty propagation — the paper's Sect. V outlook made concrete.
//!
//! *"It is our experience, that the results of this analysis depend a lot
//! on how well the statistical model reflects reality"* — and the paper
//! points to **stochastic programming** as the natural extension. This
//! module implements the Monte-Carlo form of that idea: the analyst
//! supplies a *sampler* that draws whole safety models from the joint
//! distribution of the uncertain constants (failure rates estimated from
//! finite data, disputed cost ratios, …), and the analysis propagates that
//! uncertainty to
//!
//! * the cost and hazard probabilities of a **fixed configuration**
//!   ([`propagate`]), and
//! * the **optimal configuration itself** ([`optimize_under_uncertainty`])
//!   — how much do the optimal timer runtimes move when the model
//!   constants wiggle within their credible ranges?
//!
//! Both compile the whole Monte-Carlo batch into one shared fleet arena
//! ([`crate::fleet`]). The optimum study then splits the work by model:
//! each sampled model is an independent problem for the default
//! quasi-Newton strategy, so whole models run in parallel on the
//! engine's worker count, and each model's small lockstep batches sweep
//! inline on its worker through a batch objective that reuses its sweep
//! buffers from call to call. The
//! per-model optima are folded into the statistics in sample order, so
//! the report is identical for every worker count.
//!
//! ```
//! use safety_opt_core::uncertainty::propagate;
//! # use safety_opt_core::model::{Hazard, SafetyModel};
//! # use safety_opt_core::param::ParameterSpace;
//! # use safety_opt_core::pprob::constant;
//! use rand::Rng;
//!
//! # fn main() -> Result<(), safety_opt_core::SafeOptError> {
//! let report = propagate(
//!     |rng| {
//!         // Basic-event probability known only to within a factor ~2:
//!         let p = 1e-4 * (1.0 + rng.gen::<f64>());
//!         let mut space = ParameterSpace::new();
//!         space.parameter("t", 0.0, 1.0)?;
//!         let hazard = Hazard::builder("h").cut_set("c", [constant(p)?]).build();
//!         Ok(SafetyModel::new(space).hazard(hazard, 1000.0))
//!     },
//!     &[0.5],
//!     200,
//!     42,
//! )?;
//! let (lo, hi) = report.cost.mean_confidence_interval(0.95)?;
//! assert!(lo < 0.15 && hi > 0.15); // E[cost] = 1000 · 1.5e-4
//! # Ok(())
//! # }
//! ```

use crate::fleet::CompiledFleet;
use crate::model::SafetyModel;
use crate::optimize::SafetyOptimizer;
use crate::{Result, SafeOptError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use safety_opt_engine::EngineError;
use safety_opt_stats::mc::RunningStats;
use safety_opt_telemetry as telemetry;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Draws the whole Monte-Carlo batch of models up front — the shared
/// structure of the sampled family then lowers and evaluates once
/// through a fleet (see [`crate::fleet`]).
fn sample_models<F>(sampler: &mut F, runs: usize, seed: u64) -> Result<Vec<SafetyModel>>
where
    F: FnMut(&mut StdRng) -> Result<SafetyModel>,
{
    if runs == 0 {
        return Err(SafeOptError::Optim(
            safety_opt_optim::OptimError::InvalidConfig {
                option: "runs",
                requirement: "must be >= 1",
            },
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut models = Vec::with_capacity(runs);
    for _ in 0..runs {
        models.push(sampler(&mut rng)?);
    }
    Ok(models)
}

/// Distribution of cost and hazard probabilities at a fixed configuration
/// under model uncertainty.
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationReport {
    /// The evaluated configuration.
    pub point: Vec<f64>,
    /// Monte-Carlo statistics of the cost.
    pub cost: RunningStats,
    /// Per-hazard Monte-Carlo statistics (order of the first sampled
    /// model's hazards).
    pub hazards: Vec<RunningStats>,
    /// Models sampled.
    pub runs: usize,
}

/// Evaluates `point` under `runs` models drawn from `sampler`.
///
/// The sampler receives a seeded RNG and returns a fresh [`SafetyModel`];
/// it is free to perturb probabilities, rates, costs, or even structure.
///
/// # Errors
///
/// Propagates sampler and evaluation errors; requires `runs >= 1` and a
/// consistent hazard count across sampled models
/// ([`SafeOptError::DimensionMismatch`] otherwise).
pub fn propagate<F>(
    mut sampler: F,
    point: &[f64],
    runs: usize,
    seed: u64,
) -> Result<PropagationReport>
where
    F: FnMut(&mut StdRng) -> Result<SafetyModel>,
{
    // Fleet path: the whole Monte-Carlo batch compiles into one shared
    // op arena (the sampled models differ only in a few constants, so
    // most ops dedupe across models), and a single arena sweep at
    // `point` evaluates every sample — bit-identical to compiling and
    // evaluating each model's tape alone.
    let models = sample_models(&mut sampler, runs, seed)?;
    let fleet = CompiledFleet::compile(&models)?;
    let (costs, flat) = fleet.cost_and_hazards_all(&[point.to_vec()])?;
    let mut cost = RunningStats::new();
    let mut hazards: Vec<RunningStats> = Vec::new();
    for (k, model) in models.iter().enumerate() {
        let range = fleet.hazard_range(k);
        let model_probs = &flat[range];
        let model_cost = costs[k];
        let (probs, cost_value) =
            if model_cost.is_finite() && model_probs.iter().all(|v| v.is_finite()) {
                (model_probs.to_vec(), model_cost)
            } else {
                // Resolve closure failures to the scalar path's typed
                // error.
                (model.hazard_probabilities(point)?, model.cost(point)?)
            };
        if hazards.is_empty() {
            hazards = vec![RunningStats::new(); probs.len()];
        } else if hazards.len() != probs.len() {
            return Err(SafeOptError::DimensionMismatch {
                expected: hazards.len(),
                got: probs.len(),
            });
        }
        for (stat, p) in hazards.iter_mut().zip(&probs) {
            stat.push(*p);
        }
        cost.push(cost_value);
    }
    Ok(PropagationReport {
        point: point.to_vec(),
        cost,
        hazards,
        runs,
    })
}

/// Distribution of the *optimum* under model uncertainty.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimumDistribution {
    /// Per-parameter statistics of the arg-min.
    pub arg_min: Vec<RunningStats>,
    /// Statistics of the minimal cost.
    pub min_cost: RunningStats,
    /// Models sampled (failed optimizations are skipped and counted
    /// here).
    pub runs: usize,
    /// Optimizations that failed (e.g. fully infeasible sampled models).
    pub failures: usize,
}

impl OptimumDistribution {
    /// Robustness summary: the largest per-parameter standard deviation
    /// of the arg-min — small means the recommendation is insensitive to
    /// the model uncertainty.
    pub fn arg_min_spread(&self) -> f64 {
        self.arg_min
            .iter()
            .map(RunningStats::sample_std_dev)
            .fold(0.0, f64::max)
    }
}

/// Optimizes each of `runs` sampled models and reports the distribution
/// of the optimal configuration.
///
/// The samples compile into one shared fleet arena. The models are then
/// optimized with the default strategy (four lockstep quasi-Newton
/// restarts on batched adjoint gradients) in parallel, whole models at a
/// time, on
/// [`safety_opt_engine::default_threads`] workers (the calling thread is
/// one of them); each model's batches sweep inline on its worker. The
/// per-model results are folded into the statistics in sample order, so
/// the report is `PartialEq`-identical for every worker count.
///
/// # Errors
///
/// Propagates sampler errors; requires `runs >= 1`. Compilation and
/// optimizer failures on individual samples are tolerated (counted in
/// [`OptimumDistribution::failures`]) as long as at least one sample
/// optimizes successfully; when none does, the error of the last failed
/// sample (in sample order) is returned. This per-sample tolerance
/// covers the typed engine errors too — a blown
/// [`safety_opt_engine::CompileBudget`], an expired deadline, or an
/// injected fault ([`SafeOptError::Engine`](crate::SafeOptError::Engine))
/// on one sample increments `failures` instead of aborting the whole
/// study. A panic while optimizing one sample — such as an armed
/// `fleet.chunk` failpoint, which the infallible batch objective
/// re-raises — is caught on its worker and recorded as that sample's
/// [`EngineError::WorkerPanicked`] with `chunk` set to the sample index.
/// Failpoint hits are counted process-wide, so with more than one
/// worker a `site@N` or `p < 1` trigger lands on a schedule-dependent
/// sample; `p = 1` fails every sample on any schedule.
pub fn optimize_under_uncertainty<F>(
    sampler: F,
    runs: usize,
    seed: u64,
) -> Result<OptimumDistribution>
where
    F: FnMut(&mut StdRng) -> Result<SafetyModel>,
{
    optimize_with_workers(sampler, runs, seed, safety_opt_engine::default_threads())
}

/// [`optimize_under_uncertainty`] on an explicit worker count.
pub(crate) fn optimize_with_workers<F>(
    mut sampler: F,
    runs: usize,
    seed: u64,
    workers: usize,
) -> Result<OptimumDistribution>
where
    F: FnMut(&mut StdRng) -> Result<SafetyModel>,
{
    // Fleet path: one shared-arena compilation for the whole batch
    // (samples that fail to compile are rolled back and counted as
    // failures, like every other per-sample fault); each sample's
    // multi-start quasi-Newton restarts then run in lockstep against
    // its masked fleet objective, submitting every restart's
    // value+gradient request as one analytic-adjoint batch per round
    // (`MultiStart::minimize_batch` over the engine's SoA adjoint
    // sweep) — bit-identical to optimizing each sample sequentially
    // with the same quasi-Newton restarts.
    let models = sample_models(&mut sampler, runs, seed)?;
    let (fleet, slots) = CompiledFleet::compile_partial(&models, workers);
    let optima = match &fleet {
        Some(fleet) => optimize_models(&models, fleet, &slots),
        None => (0..slots.len()).map(|_| OnceLock::new()).collect(),
    };
    let mut arg_min: Vec<RunningStats> = Vec::new();
    let mut min_cost = RunningStats::new();
    let mut failures = 0usize;
    let mut last_error: Option<SafeOptError> = None;
    for (slot, optimum) in slots.into_iter().zip(optima) {
        let result = slot.and_then(|_| {
            optimum
                .into_inner()
                .expect("every compiled sample was optimized")
        });
        match result {
            Ok((x, cost)) => {
                if arg_min.is_empty() {
                    arg_min = vec![RunningStats::new(); x.len()];
                }
                for (stat, v) in arg_min.iter_mut().zip(&x) {
                    stat.push(*v);
                }
                min_cost.push(cost);
            }
            Err(e) => {
                failures += 1;
                last_error = Some(e);
            }
        }
    }
    if min_cost.count() == 0 {
        return Err(last_error.expect("runs >= 1 and all failed"));
    }
    Ok(OptimumDistribution {
        arg_min,
        min_cost,
        runs,
        failures,
    })
}

/// One sample's optimum: its arg-min and minimal cost.
type SampleOptimum = Result<(Vec<f64>, f64)>;

/// Optimizes every compiled sample (`slots[i]` is sample `i`'s fleet
/// index) on `fleet.threads()` workers, the calling thread included.
/// Workers take sample indices from a shared counter and write each
/// outcome into that sample's cell; cells of samples that did not
/// compile stay empty.
fn optimize_models(
    models: &[SafetyModel],
    fleet: &CompiledFleet,
    slots: &[Result<usize>],
) -> Vec<OnceLock<SampleOptimum>> {
    let optima: Vec<OnceLock<SampleOptimum>> = slots.iter().map(|_| OnceLock::new()).collect();
    let inline = fleet.single_threaded();
    let next = AtomicUsize::new(0);
    let scope_h = telemetry::ScopeHandle::current();
    let work = || loop {
        // Relaxed: the counter only hands out indices; each outcome is
        // published through its cell and the scope's join.
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else { break };
        if let Ok(k) = slot {
            let outcome = optimize_sample(&models[i], &inline, *k, i);
            optima[i]
                .set(outcome)
                .expect("each sample index is handed out once");
        }
    };
    let compiled = slots.iter().filter(|s| s.is_ok()).count();
    let workers = fleet.threads().min(compiled);
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| {
                let _trace_scope = scope_h.attach();
                work();
            });
        }
        work();
    });
    optima
}

/// Optimizes sample `sample` (fleet model `k`) with the default
/// strategy's quasi-Newton restarts, four of them in lockstep. A panic is caught here and becomes the
/// sample's typed error, so one faulted sample never aborts the study.
fn optimize_sample(
    model: &SafetyModel,
    fleet: &CompiledFleet,
    k: usize,
    sample: usize,
) -> SampleOptimum {
    let objective = fleet.model_batch_objective(k);
    let run = || {
        SafetyOptimizer::new(model)
            .starts(4)
            .with_batch_differentiable_objective(&objective)
            .run()
    };
    let optimum = std::panic::catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        Err(SafeOptError::Engine(EngineError::WorkerPanicked {
            chunk: sample,
            payload: panic_text(payload.as_ref()),
        }))
    })?;
    Ok((optimum.point().values().to_vec(), optimum.cost()))
}

/// Best-effort text of a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        String::from("<non-string panic>")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Hazard;
    use crate::param::ParameterSpace;
    use crate::pprob::{constant, exposure, overtime};
    use rand::Rng;
    use safety_opt_stats::dist::TruncatedNormal;

    fn sampled_model(rng: &mut StdRng) -> Result<SafetyModel> {
        // Tradeoff model with an uncertain HV rate λ ∈ [0.1, 0.16].
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
    fn propagation_statistics_are_sane() {
        let report = propagate(sampled_model, &[15.0], 200, 1).unwrap();
        assert_eq!(report.runs, 200);
        assert_eq!(report.cost.count(), 200);
        assert_eq!(report.hazards.len(), 2);
        // Collision hazard does not depend on λ: zero variance.
        assert!(report.hazards[0].sample_variance() < 1e-30);
        // Alarm hazard does: strictly positive variance.
        assert!(report.hazards[1].sample_variance() > 0.0);
        // Mean alarm probability near the λ-midpoint value.
        let mid = 0.5 * (1.0 - (-0.13f64 * 15.0).exp());
        assert!((report.hazards[1].mean() - mid).abs() < 0.02);
    }

    #[test]
    fn propagation_is_deterministic_per_seed() {
        let a = propagate(sampled_model, &[12.0], 50, 7).unwrap();
        let b = propagate(sampled_model, &[12.0], 50, 7).unwrap();
        assert_eq!(a, b);
        let c = propagate(sampled_model, &[12.0], 50, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn optimum_distribution_tracks_uncertainty() {
        let dist = optimize_under_uncertainty(sampled_model, 24, 3).unwrap();
        assert_eq!(dist.failures, 0);
        assert_eq!(dist.arg_min.len(), 1);
        // The optimum moves with λ but stays in a sane band.
        let mean_t = dist.arg_min[0].mean();
        assert!(mean_t > 9.0 && mean_t < 17.0, "mean t* = {mean_t}");
        assert!(dist.arg_min_spread() > 0.0);
        assert!(
            dist.arg_min_spread() < 2.0,
            "spread {}",
            dist.arg_min_spread()
        );
        assert!(dist.min_cost.mean() > 0.0);
    }

    #[test]
    fn uncompilable_samples_count_as_failures_not_hard_errors() {
        // One sample references a parameter outside its space: its
        // compilation fails, it is counted in `failures`, and the
        // healthy samples still aggregate (the pre-fleet per-sample
        // tolerance).
        let mut k = 0usize;
        let dist = optimize_under_uncertainty(
            move |rng| {
                k += 1;
                if k == 2 {
                    let mut space = ParameterSpace::new();
                    space.parameter("t", 5.0, 30.0)?;
                    let h = Hazard::builder("h")
                        .cut_set("e", [exposure(0.1, crate::param::ParamId::new(9))])
                        .build();
                    Ok(SafetyModel::new(space).hazard(h, 1.0))
                } else {
                    sampled_model(rng)
                }
            },
            5,
            3,
        )
        .unwrap();
        assert_eq!(dist.runs, 5);
        assert_eq!(dist.failures, 1);
        assert_eq!(dist.min_cost.count(), 4);

        // All samples uncompilable: the last typed error surfaces.
        let all_bad = optimize_under_uncertainty(
            |_| {
                let mut space = ParameterSpace::new();
                space.parameter("t", 5.0, 30.0)?;
                let h = Hazard::builder("h")
                    .cut_set("e", [exposure(0.1, crate::param::ParamId::new(9))])
                    .build();
                Ok(SafetyModel::new(space).hazard(h, 1.0))
            },
            3,
            3,
        );
        assert!(matches!(
            all_bad,
            Err(SafeOptError::UnknownParameter { .. })
        ));
    }

    /// A sample that compiles but cannot be optimized: its opaque
    /// closure yields the invalid probability `2 + tag` everywhere, so
    /// each such sample fails with an error naming its own `tag`.
    fn unoptimizable_model(tag: f64) -> Result<SafetyModel> {
        let mut space = ParameterSpace::new();
        space.parameter("t", 5.0, 30.0)?;
        let h = Hazard::builder("h")
            .cut_set("c", [crate::pprob::from_fn("bad", move |_| 2.0 + tag)])
            .build();
        Ok(SafetyModel::new(space).hazard(h, 1.0))
    }

    /// A sample that fails to compile (foreign parameter id `9 + tag`)
    /// and is rolled back out of the fleet.
    fn uncompilable_model(tag: usize) -> Result<SafetyModel> {
        let mut space = ParameterSpace::new();
        space.parameter("t", 5.0, 30.0)?;
        let foreign = crate::param::ParamId::new(9 + tag);
        let h = Hazard::builder("h")
            .cut_set("e", [exposure(0.1, foreign)])
            .build();
        Ok(SafetyModel::new(space).hazard(h, 1.0))
    }

    #[test]
    fn studies_are_identical_for_every_worker_count() {
        // Healthy samples with rolled-back and unoptimizable ones mixed
        // in: the report must not depend on which worker ran what.
        let mixed = |workers| {
            let mut k = 0usize;
            optimize_with_workers(
                move |rng| {
                    k += 1;
                    match k % 5 {
                        2 => uncompilable_model(k),
                        4 => unoptimizable_model(k as f64),
                        _ => sampled_model(rng),
                    }
                },
                11,
                9,
                workers,
            )
        };
        let reference = mixed(1).unwrap();
        assert_eq!(reference.failures, 4);
        assert_eq!(reference.min_cost.count(), 7);
        for workers in [2, 3, 4] {
            assert_eq!(mixed(workers).unwrap(), reference, "{workers} workers");
        }

        // Every sample fails, each with its own error: the study returns
        // the last sample's, whatever the worker count.
        let failing = |workers| {
            let mut k = 0usize;
            optimize_with_workers(
                move |_| {
                    k += 1;
                    if k % 3 == 0 {
                        uncompilable_model(k)
                    } else {
                        unoptimizable_model(k as f64)
                    }
                },
                7,
                1,
                workers,
            )
            .unwrap_err()
        };
        let last = failing(1);
        assert_eq!(
            last,
            SafeOptError::InvalidProbability {
                expression: "bad".into(),
                value: 9.0,
            }
        );
        for workers in [2, 3, 4] {
            assert_eq!(failing(workers), last, "{workers} workers");
        }
    }

    #[test]
    fn zero_runs_is_an_error() {
        assert!(propagate(sampled_model, &[12.0], 0, 1).is_err());
        assert!(optimize_under_uncertainty(sampled_model, 0, 1).is_err());
    }

    #[test]
    fn sampler_errors_propagate() {
        let result = propagate(|_| Err(SafeOptError::EmptyModel), &[1.0], 5, 1);
        assert!(matches!(result, Err(SafeOptError::EmptyModel)));
    }

    /// A model whose opaque closure factor yields an invalid probability
    /// past `t = 0.5` — the compiled tape turns that into NaN, the
    /// scalar interpreter into a typed error.
    fn poisoned_model(shift: f64) -> Result<SafetyModel> {
        let mut space = ParameterSpace::new();
        let t = space.parameter("t", 0.0, 1.0)?;
        let good = Hazard::builder("good")
            .cut_set("e", [exposure(0.5, t)])
            .build();
        let bad = Hazard::builder("bad")
            .cut_set(
                "c",
                [crate::pprob::from_fn("poisoned", move |v| {
                    let x = v.get(crate::param::ParamId::new(0)).unwrap_or(0.0);
                    // Valid probability below the threshold, invalid
                    // (> 1) above it.
                    if x <= 0.5 {
                        0.25 + shift
                    } else {
                        2.0
                    }
                })],
            )
            .build();
        Ok(SafetyModel::new(space).hazard(good, 10.0).hazard(bad, 1.0))
    }

    #[test]
    fn non_finite_tape_results_fall_back_to_the_scalar_paths_typed_error() {
        // At t = 0.8 the closure produces 2.0: the tape evaluates the
        // hazard to NaN, and the fallback branch must resolve that
        // through the scalar interpreter's typed error instead of
        // pushing NaN into the running statistics.
        let result = propagate(|_| poisoned_model(0.0), &[0.8], 8, 3);
        match result {
            Err(SafeOptError::InvalidProbability { expression, value }) => {
                assert_eq!(expression, "poisoned");
                assert_eq!(value, 2.0);
            }
            other => panic!("expected InvalidProbability, got {other:?}"),
        }

        // One poisoned sample inside an otherwise healthy batch still
        // surfaces the typed error (never NaN statistics).
        let mut k = 0usize;
        let mixed = propagate(
            move |_| {
                k += 1;
                if k == 3 {
                    poisoned_model(0.0)
                } else {
                    let mut space = ParameterSpace::new();
                    let t = space.parameter("t", 0.0, 1.0)?;
                    let good = Hazard::builder("good")
                        .cut_set("e", [exposure(0.5, t)])
                        .build();
                    let also = Hazard::builder("bad")
                        .cut_set("c", [constant(0.25)?])
                        .build();
                    Ok(SafetyModel::new(space).hazard(good, 10.0).hazard(also, 1.0))
                }
            },
            &[0.8],
            5,
            3,
        );
        assert!(matches!(
            mixed,
            Err(SafeOptError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn valid_closures_propagate_without_the_fallback_distorting_stats() {
        // Below the poison threshold the closure is a valid constant:
        // the tape path is finite, the fallback never fires, and the
        // statistics match the scalar interpreter exactly.
        let report = propagate(|_| poisoned_model(0.0), &[0.3], 16, 3).unwrap();
        assert_eq!(report.cost.count(), 16);
        assert!(report.cost.mean().is_finite());
        let model = poisoned_model(0.0).unwrap();
        let scalar_probs = model.hazard_probabilities(&[0.3]).unwrap();
        let scalar_cost = model.cost(&[0.3]).unwrap();
        assert_eq!(
            report.hazards[0].mean().to_bits(),
            scalar_probs[0].to_bits()
        );
        assert_eq!(
            report.hazards[1].mean().to_bits(),
            scalar_probs[1].to_bits()
        );
        assert_eq!(report.cost.mean().to_bits(), scalar_cost.to_bits());
        assert_eq!(report.hazards[1].sample_variance(), 0.0);
    }

    #[test]
    fn inconsistent_hazard_counts_are_detected() {
        let mut toggle = false;
        let result = propagate(
            move |_| {
                toggle = !toggle;
                let mut space = ParameterSpace::new();
                space.parameter("t", 0.0, 1.0)?;
                let h = Hazard::builder("h").cut_set("c", [constant(0.1)?]).build();
                let mut model = SafetyModel::new(space).hazard(h.clone(), 1.0);
                if toggle {
                    model = model.hazard(h, 1.0);
                }
                Ok(model)
            },
            &[0.5],
            4,
            1,
        );
        assert!(matches!(
            result,
            Err(SafeOptError::DimensionMismatch { .. })
        ));
    }
}
