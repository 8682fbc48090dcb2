//! `uncertainty_study`: the fleet path.
//!
//! Each query optimizes a seed-sampled family of Elbtunnel models (λ_HV
//! ±30 %, P(OHV) ±25 %) with `optimize_under_uncertainty`: one shared
//! fleet arena, then per model four lockstep gradient-descent restarts
//! on batched analytic adjoints. An answer is one sampled model
//! optimized.

use crate::layers::{self, ms_since, timed, CapHook, Tally, TimedBatch};
use crate::reference::Elbtunnel;
use crate::{query_rng, sample_elbtunnel, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safety_opt_core::fleet::CompiledFleet;
use safety_opt_core::model::SafetyModel;
use safety_opt_core::uncertainty::{optimize_under_uncertainty, OptimumDistribution};
use safety_opt_core::SafeOptError;
use safety_opt_optim::gradient::GradientDescent;
use safety_opt_optim::multistart::MultiStart;
use safety_opt_stats::mc::RunningStats;
use std::time::Instant;

/// Sampled models per study.
pub const MODELS: usize = 32;
/// Restarts per model (what `optimize_under_uncertainty` runs).
const STARTS: usize = 4;
/// Band the mean optimal timer 1 must lie in (minutes): the cost valley
/// is flat along timer 1, and gradient descent stops near 18.5.
pub const T1_BAND: (f64, f64) = (17.5, 19.5);
/// How far above the mean reference minimum the mean optimal cost may
/// lie.
pub const OPTIMUM_GAP_LIMIT: f64 = 1e-4;

/// One query's input: the seed the study samples its models from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Input {
    /// Study seed.
    pub study_seed: u64,
}

/// The workload.
#[derive(Debug, Default)]
pub struct UncertaintyStudy;

/// The sampler the study draws its models with.
pub fn sample_model(rng: &mut StdRng) -> Result<SafetyModel, SafeOptError> {
    sample_elbtunnel(rng).build()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Workload for UncertaintyStudy {
    type Input = Input;
    type Answer = OptimumDistribution;

    fn name(&self) -> &'static str {
        "uncertainty_study"
    }

    fn generate(&self, seed: u64, index: u64) -> Input {
        Input {
            study_seed: query_rng(seed, index).gen(),
        }
    }

    fn query(&self, input: &Input) -> Result<OptimumDistribution, String> {
        optimize_under_uncertainty(sample_model, MODELS, input.study_seed).map_err(err)
    }

    fn answers(&self, answer: &OptimumDistribution) -> u64 {
        answer.min_cost.count()
    }

    fn check(&self, input: &Input, answer: &OptimumDistribution) -> Result<f64, String> {
        check_answer(input, answer)
    }

    fn traced(&self, input: &Input, t: &mut Tally) -> Result<OptimumDistribution, String> {
        let sweeps_before = layers::telemetry_counter("engine.grad.adjoint_sweeps");
        let start = Instant::now();
        let real = timed(t, "safeopt.study_ms", || self.query(input))?;
        t.add("bench.query_ms", ms_since(start));
        t.add("bench.top_ms", t.get("safeopt.study_ms"));
        t.add(
            "engine.adjoint_sweeps",
            (layers::telemetry_counter("engine.grad.adjoint_sweeps") - sweeps_before) as f64,
        );
        let same = replay_study(t, input, &real)?;
        t.add("bench.replays", 1.0);
        t.add("bench.replays_identical", if same { 1.0 } else { 0.0 });
        Ok(real)
    }
}

/// Replays `optimize_under_uncertainty` from public parts (sampling,
/// `CompiledFleet::compile_partial`, per model lockstep gradient descent
/// on `model_batch_objective`) with a timer around the objective; adds
/// the split to `t` and returns whether it reproduced `real` exactly.
fn replay_study(t: &mut Tally, input: &Input, real: &OptimumDistribution) -> Result<bool, String> {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(input.study_seed);
    let models = (0..MODELS)
        .map(|_| sample_model(&mut rng))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let mut outside_ms = ms_since(start);
    let (fleet, slots) = timed(t, "safeopt.compile_ms", || {
        CompiledFleet::compile_partial(&models, safety_opt_engine::default_threads())
    });
    outside_ms += t.get("safeopt.compile_ms");
    let fleet = fleet.ok_or("no sampled model compiled")?;
    t.add(
        "engine.fleet_arena_ops",
        fleet.fleet().tape().n_ops() as f64,
    );
    t.add("engine.fleet_sharing", fleet.sharing());

    let loop_start = Instant::now();
    let hook = CapHook::new();
    let strategy =
        MultiStart::new(GradientDescent::default(), STARTS).with_trace_hook(hook.clone());
    let mut arg_min: Vec<RunningStats> = Vec::new();
    let mut min_cost = RunningStats::new();
    let mut failures = 0usize;
    let (mut minimize_ms, mut objective_ms) = (0.0, 0.0);
    for (model, slot) in models.iter().zip(slots) {
        let Ok(k) = slot else {
            failures += 1;
            continue;
        };
        let objective = fleet.model_batch_objective(k);
        let timed_objective = TimedBatch::new(&objective);
        let domain = model.space().domain().map_err(err)?;
        let start = Instant::now();
        let outcome = strategy.minimize_batch(&timed_objective, &domain);
        minimize_ms += ms_since(start);
        let times = timed_objective.times();
        objective_ms += times.value_ms + times.grad_ms;
        t.add(
            "engine.objective_calls",
            (times.value_calls + times.grad_calls) as f64,
        );
        t.add(
            "engine.objective_points",
            (times.value_points + times.grad_points) as f64,
        );
        t.add("engine.grad_ms", times.grad_ms);
        t.add("engine.grad_points", times.grad_points as f64);
        // What `SafetyOptimizer::run` does with the outcome.
        match outcome.map_err(SafeOptError::from).and_then(|o| {
            model.hazard_probabilities(&o.best_x)?;
            model.space_arc().point(o.best_x.clone())?;
            Ok(o)
        }) {
            Ok(o) => {
                if arg_min.is_empty() {
                    arg_min = vec![RunningStats::new(); o.best_x.len()];
                }
                for (stat, v) in arg_min.iter_mut().zip(&o.best_x) {
                    stat.push(*v);
                }
                min_cost.push(o.best_value);
                t.add("optim.evaluations", o.evaluations as f64);
                t.add("optim.iterations", o.iterations as f64);
            }
            Err(_) => failures += 1,
        }
        let (capped, restarts) = hook.take_capped(layers::GRADIENT_MAX_ITERATIONS);
        t.add("optim.capped", capped as f64);
        t.add("optim.restarts", restarts as f64);
    }
    let loop_ms = ms_since(loop_start);
    t.add("safeopt.optimize_ms", loop_ms);
    outside_ms += loop_ms - minimize_ms;
    let real_ms = t.get("safeopt.study_ms");
    layers::split_minimize(t, real_ms, outside_ms, minimize_ms, objective_ms);
    let replayed = OptimumDistribution {
        arg_min,
        min_cost,
        runs: MODELS,
        failures,
    };
    Ok(&replayed == real)
}

/// Checks a study: every model optimized, the mean timer 1 in its band,
/// and the mean optimal cost at the mean of the per-model closed-form
/// reference minima.
///
/// # Errors
///
/// What is wrong with the answer.
pub fn check_answer(input: &Input, answer: &OptimumDistribution) -> Result<f64, String> {
    if answer.failures != 0 || answer.runs != MODELS || answer.min_cost.count() != MODELS as u64 {
        return Err(format!(
            "{} of {} models failed ({} optimized)",
            answer.failures,
            answer.runs,
            answer.min_cost.count()
        ));
    }
    let t1 = answer.arg_min.first().map_or(f64::NAN, RunningStats::mean);
    if !(T1_BAND.0..=T1_BAND.1).contains(&t1) {
        return Err(format!("mean timer 1 {t1} outside {T1_BAND:?}"));
    }
    let mut rng = StdRng::seed_from_u64(input.study_seed);
    let reference_mean = (0..MODELS)
        .map(|_| {
            Elbtunnel::new(&sample_elbtunnel(&mut rng))
                .optimum(Elbtunnel::paper_cost)
                .value
        })
        .sum::<f64>()
        / MODELS as f64;
    let gap = (answer.min_cost.mean() - reference_mean) / reference_mean;
    if !(-1e-9..=OPTIMUM_GAP_LIMIT).contains(&gap) {
        return Err(format!(
            "mean optimal cost {:e} is {gap:e} off the reference {reference_mean:e}",
            answer.min_cost.mean()
        ));
    }
    Ok(gap)
}
