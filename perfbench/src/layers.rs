//! Per-layer attribution for the traced run: a per-query tally, timing
//! wrappers around the optimizer's objective traits, and replays of the
//! program's internal steps from public parts.
//!
//! Everything here times calls from the benchmark's side; the program
//! itself is not instrumented. The replays re-run a step after the query
//! and report whether they reproduced the real call bit for bit.

use safety_opt_core::compile::CompiledModel;
use safety_opt_core::model::{Hazard, SafetyModel};
use safety_opt_fta::mcs;
use safety_opt_fta::modular::ModularPlan;
use safety_opt_fta::preprocess::{preprocess_with_constants, PreprocessOutcome};
use safety_opt_fta::tree::FaultTree;
use safety_opt_optim::multistart::MultiStart;
use safety_opt_optim::nelder_mead::NelderMead;
use safety_opt_optim::{
    BatchDifferentiableObjective, BatchObjective, Minimizer, Objective, OptimizationOutcome,
    TraceHook, TracePoint,
};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Named per-query quantities, summed over the traced queries of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    sums: BTreeMap<&'static str, f64>,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `value` to quantity `key`.
    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.sums.entry(key).or_insert(0.0) += value;
    }

    /// The sum of quantity `key` (0 when never added).
    pub fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Adds every quantity of `other`.
    pub fn merge(&mut self, other: &Tally) {
        for (&k, &v) in &other.sums {
            self.add(k, v);
        }
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f`, adding its wall time in milliseconds to `key`.
pub fn timed<T>(tally: &mut Tally, key: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    tally.add(key, ms_since(start));
    out
}

/// The current value of a counter of the program's telemetry registry
/// (0 while it has never been touched).
pub fn telemetry_counter(name: &str) -> u64 {
    safety_opt_telemetry::snapshot().counter(name).unwrap_or(0)
}

/// Times every call into a scalar [`Objective`].
#[derive(Debug)]
pub struct TimedObjective<'a, O: ?Sized> {
    inner: &'a O,
    nanos: Cell<u64>,
    calls: Cell<u64>,
}

impl<'a, O: Objective + ?Sized> TimedObjective<'a, O> {
    /// Wraps `inner`.
    pub fn new(inner: &'a O) -> Self {
        Self {
            inner,
            nanos: Cell::new(0),
            calls: Cell::new(0),
        }
    }

    /// Time spent inside the wrapped objective, in milliseconds.
    pub fn ms(&self) -> f64 {
        self.nanos.get() as f64 * 1e-6
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

impl<O: Objective + ?Sized> Objective for TimedObjective<'_, O> {
    fn eval(&self, x: &[f64]) -> f64 {
        let start = Instant::now();
        let v = self.inner.eval(x);
        self.nanos
            .set(self.nanos.get() + start.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        v
    }
}

/// Times every call into a [`BatchDifferentiableObjective`], value
/// batches and gradient batches apart.
#[derive(Debug)]
pub struct TimedBatch<'a, O> {
    inner: &'a O,
    value_nanos: AtomicU64,
    value_calls: AtomicU64,
    value_points: AtomicU64,
    grad_nanos: AtomicU64,
    grad_calls: AtomicU64,
    grad_points: AtomicU64,
}

/// What a [`TimedBatch`] saw.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchTimes {
    /// Milliseconds in value batches.
    pub value_ms: f64,
    /// Value batch calls.
    pub value_calls: u64,
    /// Points in value batches.
    pub value_points: u64,
    /// Milliseconds in gradient batches.
    pub grad_ms: f64,
    /// Gradient batch calls.
    pub grad_calls: u64,
    /// Points in gradient batches.
    pub grad_points: u64,
}

impl<'a, O: BatchDifferentiableObjective> TimedBatch<'a, O> {
    /// Wraps `inner`.
    pub fn new(inner: &'a O) -> Self {
        Self {
            inner,
            value_nanos: AtomicU64::new(0),
            value_calls: AtomicU64::new(0),
            value_points: AtomicU64::new(0),
            grad_nanos: AtomicU64::new(0),
            grad_calls: AtomicU64::new(0),
            grad_points: AtomicU64::new(0),
        }
    }

    /// Totals so far.
    pub fn times(&self) -> BatchTimes {
        // Statistics only: nothing else is published through these.
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        BatchTimes {
            value_ms: get(&self.value_nanos) as f64 * 1e-6,
            value_calls: get(&self.value_calls),
            value_points: get(&self.value_points),
            grad_ms: get(&self.grad_nanos) as f64 * 1e-6,
            grad_calls: get(&self.grad_calls),
            grad_points: get(&self.grad_points),
        }
    }
}

fn record(nanos: &AtomicU64, calls: &AtomicU64, points: &AtomicU64, start: Instant, n: usize) {
    nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    calls.fetch_add(1, Ordering::Relaxed);
    points.fetch_add(n as u64, Ordering::Relaxed);
}

impl<O: BatchDifferentiableObjective> BatchObjective for TimedBatch<'_, O> {
    fn eval_batch(&self, points: &[Vec<f64>], out: &mut Vec<f64>) {
        let start = Instant::now();
        self.inner.eval_batch(points, out);
        record(
            &self.value_nanos,
            &self.value_calls,
            &self.value_points,
            start,
            points.len(),
        );
    }
}

impl<O: BatchDifferentiableObjective> BatchDifferentiableObjective for TimedBatch<'_, O> {
    fn eval_grad_batch(&self, points: &[Vec<f64>], values: &mut Vec<f64>, grads: &mut Vec<f64>) {
        let start = Instant::now();
        self.inner.eval_grad_batch(points, values, grads);
        record(
            &self.grad_nanos,
            &self.grad_calls,
            &self.grad_points,
            start,
            points.len(),
        );
    }
}

/// Records the last iteration each restart of a multi-start run
/// reported, to tell restarts stopped by the iteration cap apart.
#[derive(Debug, Default)]
pub struct CapHook {
    last: Mutex<Vec<u64>>,
}

impl CapHook {
    /// A fresh hook.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// `(restarts that reached max_iterations, restarts seen)`; clears
    /// the record for the next run.
    pub fn take_capped(&self, max_iterations: u64) -> (u64, u64) {
        let mut last = self.last.lock().expect("cap hook lock is never poisoned");
        let capped = last.iter().filter(|&&it| it >= max_iterations).count() as u64;
        let seen = last.len() as u64;
        last.clear();
        (capped, seen)
    }
}

impl TraceHook for CapHook {
    fn on_iteration(&self, restart: u64, point: &TracePoint) {
        let mut last = self.last.lock().expect("cap hook lock is never poisoned");
        let k = restart as usize;
        if last.len() <= k {
            last.resize(k + 1, 0);
        }
        last[k] = point.iteration;
    }
}

/// Default Nelder–Mead iteration cap (what `NelderMead::default()` uses).
pub const NELDER_MEAD_MAX_ITERATIONS: u64 = 2000;
/// Default gradient-descent iteration cap.
pub const GRADIENT_MAX_ITERATIONS: u64 = 5000;
/// Restarts of `SafetyOptimizer`'s default strategy.
pub const DEFAULT_STARTS: usize = 8;

/// Replays `Hazard::from_fault_tree`'s analysis steps on `tree`
/// (minimal cut sets, preprocessing with the house-event oracle
/// `constant`, the modular BDD plan) and adds their times and sizes to
/// `tally`. Returns whether the replay reproduced `hazard` exactly.
pub fn replay_hazard(
    tally: &mut Tally,
    tree: &FaultTree,
    hazard: &Hazard,
    constant: impl FnMut(usize) -> Option<bool>,
) -> Result<bool, String> {
    let cut_sets =
        timed(tally, "fta.mcs_ms", || mcs::bottom_up(tree)).map_err(|e| e.to_string())?;
    let pre = timed(tally, "fta.preprocess_ms", || {
        preprocess_with_constants(tree, constant)
    })
    .map_err(|e| e.to_string())?;
    let plan = match &pre.outcome {
        PreprocessOutcome::Tree(reduced) => {
            timed(tally, "fta.bdd_ms", || ModularPlan::build(reduced)).map_err(|e| e.to_string())?
        }
        PreprocessOutcome::Constant(value) => ModularPlan::constant(*value, tree.leaves().len()),
    };
    tally.add("fta.mcs_cut_sets", cut_sets.len() as f64);
    tally.add("fta.gates_after", pre.report.gates_after as f64);
    tally.add("fta.modules", pre.report.modules as f64);
    tally.add("fta.bdd_nodes", plan.node_count() as f64);

    let same_cut_sets = cut_sets.len() == hazard.cut_sets().len()
        && cut_sets
            .iter()
            .zip(hazard.cut_sets())
            .all(|(cs, model_cs)| cs.names(tree).join(" & ") == model_cs.name());
    let same_plan = hazard.exact().is_some_and(|exact| {
        let real = exact.plan();
        let probe: Vec<f64> = (0..tree.leaves().len())
            .map(|i| 0.01 + 0.5 * (i as f64 * 0.618_033_988_75).fract())
            .collect();
        real.modules().len() == plan.modules().len()
            && real.node_count() == plan.node_count()
            && real.probability(&probe).to_bits() == plan.probability(&probe).to_bits()
    });
    Ok(same_cut_sets && same_plan)
}

/// Splits `real_ms`, the program's own time for a step a replay
/// reproduced, into the optimizer's self time and the objective's time.
/// `outside_ms` is what the replay timed outside the minimizer (compile,
/// post-processing); the rest is divided in the proportion the replay
/// measured, because the timing wrappers slow the replayed minimizer
/// itself (`bench.replay_time_ratio` reports by how much).
pub fn split_minimize(
    tally: &mut Tally,
    real_ms: f64,
    outside_ms: f64,
    replay_minimize_ms: f64,
    replay_objective_ms: f64,
) {
    let minimize = (real_ms - outside_ms).max(0.0);
    let share = if replay_minimize_ms > 0.0 {
        (replay_objective_ms / replay_minimize_ms).min(1.0)
    } else {
        0.0
    };
    tally.add("engine.objective_ms", minimize * share);
    tally.add("optim.self_ms", minimize * (1.0 - share));
    tally.add("bench.replay_minimize_ms", replay_minimize_ms);
    tally.add("bench.real_minimize_ms", minimize);
}

/// Replays `SafetyOptimizer::run`'s default arm (compile, memoized
/// objective, 8-start Nelder–Mead, hazard probabilities at the optimum)
/// with a timer around the objective, splits `real_ms` (the real run's
/// time) with [`split_minimize`], and returns whether the replay found
/// the real outcome bit for bit.
pub fn replay_nelder_mead(
    tally: &mut Tally,
    model: &SafetyModel,
    real: &OptimizationOutcome,
    real_ms: f64,
) -> Result<bool, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let start = Instant::now();
    let domain = model.space().domain().map_err(|e| err(&e))?;
    let compiled = CompiledModel::compile(model).map_err(|e| err(&e))?;
    let objective = compiled.objective(true);
    let mut outside_ms = ms_since(start);

    let timed_objective = TimedObjective::new(&objective);
    let hook = CapHook::new();
    let strategy =
        MultiStart::new(NelderMead::default(), DEFAULT_STARTS).with_trace_hook(hook.clone());
    let start = Instant::now();
    let outcome = strategy
        .minimize(&timed_objective, &domain)
        .map_err(|e| err(&e))?;
    let minimize_ms = ms_since(start);

    let start = Instant::now();
    model
        .hazard_probabilities(&outcome.best_x)
        .map_err(|e| err(&e))?;
    model
        .space_arc()
        .point(outcome.best_x.clone())
        .map_err(|e| err(&e))?;
    outside_ms += ms_since(start);

    split_minimize(
        tally,
        real_ms,
        outside_ms,
        minimize_ms,
        timed_objective.ms(),
    );
    let (capped, restarts) = hook.take_capped(NELDER_MEAD_MAX_ITERATIONS);
    let cache = objective.cache_stats();
    tally.add("engine.objective_calls", timed_objective.calls() as f64);
    tally.add("engine.objective_points", timed_objective.calls() as f64);
    tally.add("engine.cache_hits", cache.hits as f64);
    tally.add("engine.cache_lookups", (cache.hits + cache.misses) as f64);
    tally.add("optim.capped", capped as f64);
    tally.add("optim.restarts", restarts as f64);

    Ok(outcome.best_x.len() == real.best_x.len()
        && outcome
            .best_x
            .iter()
            .zip(&real.best_x)
            .all(|(a, b)| a.to_bits() == b.to_bits())
        && outcome.best_value.to_bits() == real.best_value.to_bits()
        && outcome.evaluations == real.evaluations)
}
