//! Multi-start wrapper: restart any local minimizer from scattered
//! starting points and keep the best result.
//!
//! The system default is four quasi-Newton starts,
//! `MultiStart::new(QuasiNewton::default(), 4)`, whose `minimize_batch`
//! runs the restarts in lockstep. The cost surfaces are smooth and
//! low-dimensional, so a few converging local runs from a deterministic
//! low-discrepancy scatter find the global optimum.

use crate::domain::BoxDomain;
use crate::gradient::{GdState, GradientDescent};
use crate::nelder_mead::NelderMead;
use crate::quasi_newton::{QnState, QuasiNewton};
use crate::trace::HookHandle;
use crate::{
    BatchDifferentiableObjective, DifferentiableObjective, Minimizer, Objective, OptimError,
    OptimizationOutcome, Result, TerminationReason,
};
use safety_opt_telemetry as telemetry;

/// Restarts folded by every multi-start driver.
static RESTARTS: telemetry::Counter = telemetry::Counter::new("optim.restarts");
/// Restarts that stopped at their iteration cap instead of converging.
static CAPPED: telemetry::Counter = telemetry::Counter::new("optim.capped");

/// Multi-start wrapper around an inner [`Minimizer`].
///
/// Start points: the domain center plus points of a deterministic
/// low-discrepancy sequence (Halton bases 2 and 3, extended per
/// dimension), so results are reproducible without an RNG.
///
/// ```
/// use safety_opt_optim::domain::BoxDomain;
/// use safety_opt_optim::multistart::MultiStart;
/// use safety_opt_optim::nelder_mead::NelderMead;
/// use safety_opt_optim::Minimizer;
///
/// # fn main() -> Result<(), safety_opt_optim::OptimError> {
/// let domain = BoxDomain::from_bounds(&[(-5.0, 5.0), (-5.0, 5.0)])?;
/// let ms = MultiStart::new(NelderMead::default(), 8);
/// let out = ms.minimize(&safety_opt_optim::testfns::himmelblau, &domain)?;
/// assert!(out.best_value < 1e-8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiStart<M> {
    inner: M,
    starts: usize,
    hook: HookHandle,
}

impl<M> MultiStart<M> {
    /// Wraps `inner`, running it from `starts` different start points.
    pub fn new(inner: M, starts: usize) -> Self {
        Self {
            inner,
            starts,
            hook: HookHandle::none(),
        }
    }

    /// Installs a live per-iteration observer (see [`crate::TraceHook`]):
    /// each restart's inner run reports with its restart index, so an
    /// observer can tell the convergence curves apart. When the wrapper
    /// has no hook, the inner minimizer's own hook (if any) is left
    /// untouched.
    pub fn with_trace_hook(mut self, hook: std::sync::Arc<dyn crate::TraceHook>) -> Self {
        self.hook = HookHandle::new(hook);
        self
    }

    /// The wrapped minimizer.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Number of restarts.
    pub fn starts(&self) -> usize {
        self.starts
    }

    /// Start point of restart `k`: the domain center, then the Halton
    /// scatter (shared by the sequential and lockstep drivers).
    fn start_point(k: usize, domain: &BoxDomain) -> Vec<f64> {
        if k == 0 {
            domain.center()
        } else {
            halton(k - 1, domain.dim())
                .into_iter()
                .enumerate()
                .map(|(d, t)| domain.interval(d).lerp(t))
                .collect()
        }
    }

    /// `Err(InvalidConfig)` for zero restarts.
    fn check_starts(&self) -> Result<()> {
        if self.starts == 0 {
            return Err(OptimError::InvalidConfig {
                option: "starts",
                requirement: "must be >= 1",
            });
        }
        Ok(())
    }
}

impl<M: StartablePoint + Clone> MultiStart<M> {
    /// The inner minimizer configured for restart `k`: its start point,
    /// and the wrapper's hook tagged with `k` (shared by every driver).
    fn restart(&self, k: usize, domain: &BoxDomain) -> M {
        let inner = self.inner.clone().with_start(Self::start_point(k, domain));
        if self.hook.is_set() {
            inner.with_restart_hook(self.hook.with_restart(k as u64))
        } else {
            inner
        }
    }
}

impl MultiStart<GradientDescent> {
    /// Runs all gradient-descent restarts **in lockstep** against a
    /// [`BatchDifferentiableObjective`]: each round gathers every live
    /// restart's pending work — analytic-gradient requests into one
    /// `eval_grad_batch` call (the hook the engine's lane-blocked SoA
    /// adjoint sweep plugs into), Armijo trials and finite-difference
    /// fallback probes into one `eval_batch` call — so a batched backend
    /// sees `starts`-wide batches instead of single points.
    ///
    /// Each restart's evaluation sequence — and therefore its outcome —
    /// is identical to running
    /// [`minimize_differentiable`](Minimizer::minimize_differentiable)
    /// sequentially from the same start points for pointwise-equal
    /// objectives; only the interleaving across restarts changes.
    /// Aggregation (best-of, evaluation totals, termination) matches the
    /// sequential wrapper exactly.
    ///
    /// # Errors
    ///
    /// Same conditions as the sequential path: configuration errors, and
    /// [`OptimError::NoFiniteValue`] if every restart failed to see a
    /// finite value.
    pub fn minimize_batch(
        &self,
        objective: &dyn BatchDifferentiableObjective,
        domain: &BoxDomain,
    ) -> Result<OptimizationOutcome> {
        self.check_starts()?;
        // One scope for the whole lockstep drive: rounds interleave
        // restarts, so per-restart attribution is impossible here by
        // construction.
        let _scope = telemetry::TraceScope::enter("restarts.lockstep");
        let dim = domain.dim();
        let mut states = (0..self.starts)
            .map(|k| GdState::new(&self.restart(k, domain), domain))
            .collect::<Result<Vec<_>>>()?;
        let mut vbatch: Vec<Vec<f64>> = Vec::new();
        let mut vvalues: Vec<f64> = Vec::new();
        let mut vspans: Vec<(usize, usize)> = Vec::new();
        let mut gbatch: Vec<Vec<f64>> = Vec::new();
        let mut gvalues: Vec<f64> = Vec::new();
        let mut ggrads: Vec<f64> = Vec::new();
        let mut gidx: Vec<usize> = Vec::new();
        loop {
            vbatch.clear();
            vspans.clear();
            gbatch.clear();
            gidx.clear();
            for (idx, state) in states.iter().enumerate() {
                if state.is_done() {
                    continue;
                }
                if let Some(x) = state.pending_grad() {
                    gidx.push(idx);
                    gbatch.push(x.to_vec());
                } else if !state.pending_values().is_empty() {
                    vspans.push((idx, state.pending_values().len()));
                    vbatch.extend(state.pending_values().iter().cloned());
                }
            }
            if gbatch.is_empty() && vbatch.is_empty() {
                break;
            }
            if !gbatch.is_empty() {
                objective.eval_grad_batch(&gbatch, &mut gvalues, &mut ggrads);
                for (j, &idx) in gidx.iter().enumerate() {
                    states[idx].advance_grad(gvalues[j], &ggrads[j * dim..(j + 1) * dim]);
                }
            }
            if !vbatch.is_empty() {
                objective.eval_batch(&vbatch, &mut vvalues);
                let mut offset = 0;
                for &(idx, len) in &vspans {
                    states[idx].advance_values(&vvalues[offset..offset + len]);
                    offset += len;
                }
            }
        }
        let mut fold = RestartFold::default();
        for state in states {
            fold.observe(state.into_outcome())?;
        }
        fold.finish()
    }
}

impl MultiStart<QuasiNewton> {
    /// Runs all quasi-Newton restarts **in lockstep** against a
    /// [`BatchDifferentiableObjective`]: every request of the method is
    /// one value + gradient pair, so each round is exactly one
    /// `eval_grad_batch` call holding every live restart's point (the
    /// hook the engine's lane-blocked SoA adjoint sweep plugs into).
    ///
    /// Each restart runs the state machine of the sequential
    /// [`minimize_differentiable`](Minimizer::minimize_differentiable)
    /// path, so outcomes are bit-identical to running the restarts one
    /// after another for pointwise-equal objectives; aggregation goes
    /// through the same restart fold.
    ///
    /// # Errors
    ///
    /// Same conditions as the sequential path: configuration errors, and
    /// [`OptimError::NoFiniteValue`] if every restart failed to see a
    /// finite value.
    pub fn minimize_batch(
        &self,
        objective: &dyn BatchDifferentiableObjective,
        domain: &BoxDomain,
    ) -> Result<OptimizationOutcome> {
        self.check_starts()?;
        // One scope for the whole lockstep drive (see the
        // gradient-descent twin above).
        let _scope = telemetry::TraceScope::enter("restarts.lockstep");
        let dim = domain.dim();
        let mut states = (0..self.starts)
            .map(|k| QnState::new(&self.restart(k, domain), domain))
            .collect::<Result<Vec<_>>>()?;
        let mut batch = vec![vec![0.0; dim]; self.starts];
        let mut live: Vec<usize> = Vec::with_capacity(self.starts);
        let (mut values, mut grads) = (Vec::new(), Vec::new());
        loop {
            live.clear();
            for (idx, state) in states.iter().enumerate() {
                if let Some(x) = state.pending() {
                    batch[live.len()].copy_from_slice(x);
                    live.push(idx);
                }
            }
            if live.is_empty() {
                break;
            }
            objective.eval_grad_batch(&batch[..live.len()], &mut values, &mut grads);
            for (j, &idx) in live.iter().enumerate() {
                states[idx].advance(values[j], &grads[j * dim..(j + 1) * dim]);
            }
        }
        let mut fold = RestartFold::default();
        for state in states {
            fold.observe(state.into_outcome())?;
        }
        fold.finish()
    }
}

/// Shared restart aggregation: best-of selection (strict `<`, earliest
/// restart wins ties), evaluation/iteration totals including
/// finite-value-starved restarts, and the merged termination reason.
/// Both the sequential and the lockstep driver fold through this, so
/// their aggregation semantics — and the `optim.restarts` /
/// `optim.capped` telemetry counters — can never drift apart.
#[derive(Debug, Default)]
struct RestartFold {
    best: Option<OptimizationOutcome>,
    total_evals: u64,
    total_iters: u64,
    any_converged: bool,
}

impl RestartFold {
    /// Folds one restart's result. `Err(NoFiniteValue)` is tolerated
    /// (its evaluations still count); any other error aborts the fold.
    fn observe(&mut self, run: Result<OptimizationOutcome>) -> Result<()> {
        RESTARTS.add(1);
        let run = match run {
            Ok(r) => r,
            Err(OptimError::NoFiniteValue { evaluations }) => {
                self.total_evals += evaluations;
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        self.total_evals += run.evaluations;
        self.total_iters += run.iterations;
        self.any_converged |= run.converged();
        if run.termination == TerminationReason::MaxIterations {
            CAPPED.add(1);
        }
        if self
            .best
            .as_ref()
            .map(|b| run.best_value < b.best_value)
            .unwrap_or(true)
        {
            self.best = Some(run);
        }
        Ok(())
    }

    /// The aggregated outcome.
    ///
    /// # Errors
    ///
    /// [`OptimError::NoFiniteValue`] if no restart produced one.
    fn finish(self) -> Result<OptimizationOutcome> {
        let mut best = self.best.ok_or(OptimError::NoFiniteValue {
            evaluations: self.total_evals,
        })?;
        best.evaluations = self.total_evals;
        best.iterations = self.total_iters;
        best.termination = if self.any_converged {
            TerminationReason::Converged
        } else {
            TerminationReason::MaxIterations
        };
        Ok(best)
    }
}

/// `i`-th element of the van-der-Corput sequence in `base`.
fn van_der_corput(mut i: usize, base: usize) -> f64 {
    let mut q = 0.0;
    let mut bk = 1.0 / base as f64;
    while i > 0 {
        q += (i % base) as f64 * bk;
        i /= base;
        bk /= base as f64;
    }
    q
}

const PRIMES: [usize; 8] = [2, 3, 5, 7, 11, 13, 17, 19];

/// `k`-th Halton point in `dim` dimensions (unit cube).
fn halton(k: usize, dim: usize) -> Vec<f64> {
    (0..dim)
        .map(|d| van_der_corput(k + 1, PRIMES[d % PRIMES.len()]))
        .collect()
}

/// Trait bound alias: MultiStart works with any minimizer that accepts a
/// start point. We restart by constraining the domain is not possible in
/// general, so we instead pass start points through the supported
/// interface: minimizers expose `start(Vec<f64>)` builders. To stay
/// object-friendly, `MultiStart` is generic over a factory closure.
impl<M: Minimizer + Clone + StartablePoint> Minimizer for MultiStart<M> {
    fn minimize(
        &self,
        objective: &dyn Objective,
        domain: &BoxDomain,
    ) -> Result<OptimizationOutcome> {
        self.check_starts()?;
        let mut fold = RestartFold::default();
        for k in 0..self.starts {
            let _scope = telemetry::TraceScope::enter(&format!("restart.{k}"));
            fold.observe(self.restart(k, domain).minimize(objective, domain))?;
        }
        fold.finish()
    }

    /// Sequential restarts through the inner minimizer's
    /// **differentiable** entry point, so a gradient-capable inner
    /// algorithm (e.g. [`GradientDescent`]) consumes analytic gradients
    /// from every start — the sequential twin of the lockstep
    /// [`MultiStart::minimize_batch`] driver over the same start points
    /// and the same `RestartFold` aggregation.
    fn minimize_differentiable(
        &self,
        objective: &dyn DifferentiableObjective,
        domain: &BoxDomain,
    ) -> Result<OptimizationOutcome> {
        self.check_starts()?;
        let mut fold = RestartFold::default();
        for k in 0..self.starts {
            let _scope = telemetry::TraceScope::enter(&format!("restart.{k}"));
            fold.observe(
                self.restart(k, domain)
                    .minimize_differentiable(objective, domain),
            )?;
        }
        fold.finish()
    }

    fn name(&self) -> &'static str {
        "multi-start"
    }
}

/// Minimizers that accept an explicit start point.
///
/// Implemented by the local methods of this crate so [`MultiStart`] can
/// scatter them; implement it for your own [`Minimizer`] to make it
/// multi-startable.
pub trait StartablePoint {
    /// Returns a copy configured to start at `x0`.
    fn with_start(self, x0: Vec<f64>) -> Self;

    /// Returns a copy whose [`crate::TraceHook`] observations go through
    /// `hook` — how [`MultiStart`] tags each restart with its index. The
    /// default keeps the minimizer unchanged, so methods without hook
    /// support still multi-start (their iterations just go unobserved).
    fn with_restart_hook(self, hook: HookHandle) -> Self
    where
        Self: Sized,
    {
        let _ = hook;
        self
    }
}

impl StartablePoint for NelderMead {
    fn with_start(self, x0: Vec<f64>) -> Self {
        self.start(x0)
    }

    fn with_restart_hook(self, hook: HookHandle) -> Self {
        self.hook_handle(hook)
    }
}

impl StartablePoint for crate::gradient::GradientDescent {
    fn with_start(self, x0: Vec<f64>) -> Self {
        self.start(x0)
    }

    fn with_restart_hook(self, hook: HookHandle) -> Self {
        self.hook_handle(hook)
    }
}

impl StartablePoint for QuasiNewton {
    fn with_start(self, x0: Vec<f64>) -> Self {
        self.start(x0)
    }

    fn with_restart_hook(self, hook: HookHandle) -> Self {
        self.hook_handle(hook)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::GradientDescent;
    use crate::testfns::{himmelblau, rastrigin};

    #[test]
    fn halton_points_fill_unit_cube() {
        for k in 0..32 {
            let p = halton(k, 3);
            assert_eq!(p.len(), 3);
            assert!(p.iter().all(|&t| (0.0..1.0).contains(&t)), "{p:?}");
        }
        // First base-2 points: 1/2, 1/4, 3/4, ...
        assert!((halton(0, 1)[0] - 0.5).abs() < 1e-12);
        assert!((halton(1, 1)[0] - 0.25).abs() < 1e-12);
        assert!((halton(2, 1)[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn finds_global_minimum_among_himmelblau_basins() {
        let domain = BoxDomain::from_bounds(&[(-5.0, 5.0), (-5.0, 5.0)]).unwrap();
        let out = MultiStart::new(NelderMead::default(), 8)
            .minimize(&himmelblau, &domain)
            .unwrap();
        assert!(out.best_value < 1e-8, "best = {}", out.best_value);
    }

    #[test]
    fn beats_single_start_on_rastrigin() {
        let domain = BoxDomain::from_bounds(&[(-5.12, 5.12), (-5.12, 5.12)]).unwrap();
        let single = NelderMead::default()
            .start(vec![3.0, 3.0])
            .minimize(&rastrigin, &domain)
            .unwrap();
        let multi = MultiStart::new(NelderMead::default(), 16)
            .minimize(&rastrigin, &domain)
            .unwrap();
        assert!(multi.best_value <= single.best_value + 1e-9);
        assert!(multi.best_value < 2.0, "multi best = {}", multi.best_value);
    }

    #[test]
    fn works_with_gradient_descent() {
        let domain = BoxDomain::from_bounds(&[(-5.0, 5.0), (-5.0, 5.0)]).unwrap();
        let out = MultiStart::new(GradientDescent::default(), 4)
            .minimize(&crate::testfns::booth, &domain)
            .unwrap();
        assert!(out.best_value < 1e-8);
    }

    #[test]
    fn aggregates_evaluation_counts() {
        let domain = BoxDomain::from_bounds(&[(-5.0, 5.0), (-5.0, 5.0)]).unwrap();
        let single = NelderMead::default()
            .minimize(&crate::testfns::sphere, &domain)
            .unwrap();
        let multi = MultiStart::new(NelderMead::default(), 4)
            .minimize(&crate::testfns::sphere, &domain)
            .unwrap();
        assert!(multi.evaluations > single.evaluations);
    }

    #[test]
    fn zero_starts_is_an_error() {
        let domain = BoxDomain::from_bounds(&[(0.0, 1.0)]).unwrap();
        assert!(MultiStart::new(NelderMead::default(), 0)
            .minimize(&crate::testfns::sphere, &domain)
            .is_err());
    }

    #[test]
    fn gd_lockstep_batch_equals_sequential_differentiable_exactly() {
        // An analytic quadratic whose gradient is poisoned on part of
        // the domain, so restarts exercise both the batched
        // analytic-gradient path and the finite-difference fallback.
        struct Quad;
        impl crate::Objective for Quad {
            fn eval(&self, x: &[f64]) -> f64 {
                (x[0] - 1.0).powi(2) + 2.0 * (x[1] + 0.5).powi(2)
            }
        }
        impl crate::DifferentiableObjective for Quad {
            fn value_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
                if x[0] < -2.0 {
                    grad.fill(f64::NAN);
                } else {
                    grad[0] = 2.0 * (x[0] - 1.0);
                    grad[1] = 4.0 * (x[1] + 0.5);
                }
                self.eval(x)
            }
        }
        impl crate::BatchObjective for Quad {
            fn eval_batch(&self, points: &[Vec<f64>], out: &mut Vec<f64>) {
                out.clear();
                out.extend(points.iter().map(|p| crate::Objective::eval(self, p)));
            }
        }
        impl crate::BatchDifferentiableObjective for Quad {
            fn eval_grad_batch(
                &self,
                points: &[Vec<f64>],
                values: &mut Vec<f64>,
                grads: &mut Vec<f64>,
            ) {
                values.clear();
                grads.clear();
                let mut g = [0.0; 2];
                for p in points {
                    values.push(crate::DifferentiableObjective::value_grad(self, p, &mut g));
                    grads.extend_from_slice(&g);
                }
            }
        }

        let domain = BoxDomain::from_bounds(&[(-5.0, 5.0), (-5.0, 5.0)]).unwrap();
        for starts in [1usize, 3, 8] {
            // Sequential reference: the same start scatter, one
            // `minimize_differentiable` restart at a time, folded by the
            // shared aggregation.
            let mut fold = RestartFold::default();
            for k in 0..starts {
                let cfg = GradientDescent::default()
                    .start(MultiStart::<GradientDescent>::start_point(k, &domain));
                fold.observe(cfg.minimize_differentiable(&Quad, &domain))
                    .unwrap();
            }
            let seq = fold.finish().unwrap();
            let batch = MultiStart::new(GradientDescent::default(), starts)
                .minimize_batch(&Quad, &domain)
                .unwrap();
            assert_eq!(seq.best_x, batch.best_x, "{starts} starts");
            assert_eq!(seq.best_value.to_bits(), batch.best_value.to_bits());
            assert_eq!(seq.evaluations, batch.evaluations, "{starts} starts");
            assert_eq!(seq.iterations, batch.iterations, "{starts} starts");
            assert_eq!(seq.termination, batch.termination, "{starts} starts");
        }
    }

    #[test]
    fn qn_lockstep_batch_equals_sequential_differentiable_exactly() {
        // Quadratic minima inside and outside the box, with a NaN region
        // some trials step into: every restart's lockstep trajectory
        // must match its sequential run bit for bit.
        struct Bowl {
            c: [f64; 2],
        }
        impl crate::Objective for Bowl {
            fn eval(&self, x: &[f64]) -> f64 {
                if x[0] > 4.5 {
                    return f64::NAN;
                }
                (x[0] - self.c[0]).powi(2) + 3.0 * (x[1] - self.c[1]).powi(2) + x[0] * x[1]
            }
        }
        impl crate::DifferentiableObjective for Bowl {
            fn value_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
                grad[0] = 2.0 * (x[0] - self.c[0]) + x[1];
                grad[1] = 6.0 * (x[1] - self.c[1]) + x[0];
                crate::Objective::eval(self, x)
            }
        }
        impl crate::BatchObjective for Bowl {
            fn eval_batch(&self, points: &[Vec<f64>], out: &mut Vec<f64>) {
                out.clear();
                out.extend(points.iter().map(|p| crate::Objective::eval(self, p)));
            }
        }
        impl crate::BatchDifferentiableObjective for Bowl {
            fn eval_grad_batch(
                &self,
                points: &[Vec<f64>],
                values: &mut Vec<f64>,
                grads: &mut Vec<f64>,
            ) {
                values.clear();
                grads.clear();
                let mut g = [0.0; 2];
                for p in points {
                    values.push(crate::DifferentiableObjective::value_grad(self, p, &mut g));
                    grads.extend_from_slice(&g);
                }
            }
        }

        let domain = BoxDomain::from_bounds(&[(-5.0, 5.0), (-5.0, 5.0)]).unwrap();
        for c in [[1.0, -0.5], [9.0, 7.0]] {
            let f = Bowl { c };
            for starts in [1usize, 3, 8] {
                let ms = MultiStart::new(QuasiNewton::default(), starts);
                let seq = ms.minimize_differentiable(&f, &domain).unwrap();
                let batch = ms.minimize_batch(&f, &domain).unwrap();
                assert_eq!(seq.best_x, batch.best_x, "{starts} starts");
                assert_eq!(seq.best_value.to_bits(), batch.best_value.to_bits());
                assert_eq!(seq.evaluations, batch.evaluations, "{starts} starts");
                assert_eq!(seq.iterations, batch.iterations, "{starts} starts");
                assert_eq!(seq.termination, batch.termination, "{starts} starts");
                assert!(batch.converged(), "{starts} starts");
            }
        }
        assert!(MultiStart::new(QuasiNewton::default(), 0)
            .minimize_batch(&Bowl { c: [0.0, 0.0] }, &domain)
            .is_err());
    }

    #[test]
    fn gd_lockstep_zero_starts_is_an_error() {
        let domain = BoxDomain::from_bounds(&[(0.0, 1.0)]).unwrap();
        struct Flat;
        impl crate::BatchObjective for Flat {
            fn eval_batch(&self, points: &[Vec<f64>], out: &mut Vec<f64>) {
                out.clear();
                out.resize(points.len(), 0.0);
            }
        }
        impl crate::BatchDifferentiableObjective for Flat {
            fn eval_grad_batch(
                &self,
                points: &[Vec<f64>],
                values: &mut Vec<f64>,
                grads: &mut Vec<f64>,
            ) {
                values.clear();
                values.resize(points.len(), 0.0);
                grads.clear();
                grads.resize(points.len(), 0.0);
            }
        }
        assert!(MultiStart::new(GradientDescent::default(), 0)
            .minimize_batch(&Flat, &domain)
            .is_err());
    }

    #[test]
    fn survives_partial_nan_basins() {
        // Objective NaN on half the domain; restarts landing there are
        // skipped, the rest succeed.
        let domain = BoxDomain::from_bounds(&[(-1.0, 1.0)]).unwrap();
        let f = |x: &[f64]| {
            if x[0] < -0.5 {
                f64::NAN
            } else {
                (x[0] - 0.25).powi(2)
            }
        };
        let out = MultiStart::new(NelderMead::default(), 6)
            .minimize(&f, &domain)
            .unwrap();
        assert!((out.best_x[0] - 0.25).abs() < 1e-5);
    }
}
