//! Projected gradient descent with numerical or analytic gradients.
//!
//! The paper calls the gradient method "the most simple" approach to the
//! resulting nonlinear program: *"finds local minima by calculating
//! gradients iteratively and always following the steepest descent."*
//! This implementation uses Armijo backtracking line search and
//! projection onto the box after every step. Gradients come from one of
//! two sources sharing one descent loop:
//!
//! * the [`Minimizer`] entry point builds **central-difference**
//!   gradients (`2·dim` objective evaluations per iteration) — the
//!   original behavior, unchanged;
//! * [`GradientDescent::minimize_differentiable`] asks the objective
//!   for its **analytic** gradient
//!   ([`crate::DifferentiableObjective::value_grad`], e.g. the engine's
//!   reverse-mode adjoint tape sweep — one evaluation-equivalent per
//!   iteration instead of `2·dim`), falling back to central differences
//!   at any point where the analytic gradient comes back non-finite.

use crate::domain::BoxDomain;
use crate::objective::ValueOnly;
use crate::trace::HookHandle;
use crate::{
    CountingObjective, DifferentiableObjective, Minimizer, Objective, OptimError,
    OptimizationOutcome, Result, TerminationReason, TracePoint,
};

/// Where the descent loop gets its gradients.
enum GradSource<'a> {
    /// Central differences over the (counted) objective.
    CentralDiff,
    /// Analytic gradients from the objective itself, with a
    /// central-difference fallback at non-finite points.
    Analytic(&'a dyn DifferentiableObjective),
}

/// Central-difference step, relative to each dimension width.
const FD_STEP: f64 = 1e-6;
/// Projected-gradient norm at which the descent counts as converged.
const G_TOL: f64 = 1e-10;
/// Accepted step length, relative to the widest domain dimension, at
/// which the descent counts as converged.
const X_TOL: f64 = 1e-12;
/// Initial (and largest) line-search step as a fraction of the widest
/// domain dimension.
const INITIAL_STEP: f64 = 0.1;

/// Projected-gradient-descent configuration.
///
/// ```
/// use safety_opt_optim::domain::BoxDomain;
/// use safety_opt_optim::gradient::GradientDescent;
/// use safety_opt_optim::Minimizer;
///
/// # fn main() -> Result<(), safety_opt_optim::OptimError> {
/// let domain = BoxDomain::from_bounds(&[(-5.0, 5.0), (-5.0, 5.0)])?;
/// let out = GradientDescent::default()
///     .minimize(&safety_opt_optim::testfns::sphere, &domain)?;
/// assert!(out.best_value < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GradientDescent {
    max_iterations: u64,
    start: Option<Vec<f64>>,
    record_trace: bool,
    hook: HookHandle,
}

impl Default for GradientDescent {
    fn default() -> Self {
        Self {
            max_iterations: 5000,
            start: None,
            record_trace: false,
            hook: HookHandle::none(),
        }
    }
}

impl GradientDescent {
    /// Creates a minimizer with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the iteration budget.
    pub fn max_iterations(mut self, n: u64) -> Self {
        self.max_iterations = n;
        self
    }

    /// Starts from `x0` instead of the domain center.
    pub fn start(mut self, x0: Vec<f64>) -> Self {
        self.start = Some(x0);
        self
    }

    /// Records a best-so-far trace point per iteration.
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Installs a live per-iteration observer (see [`crate::TraceHook`]);
    /// fires whether or not a trace is recorded.
    pub fn with_trace_hook(mut self, hook: std::sync::Arc<dyn crate::TraceHook>) -> Self {
        self.hook = HookHandle::new(hook);
        self
    }

    /// Replaces the hook slot wholesale (restart tagging in multi-start).
    pub(crate) fn hook_handle(mut self, hook: HookHandle) -> Self {
        self.hook = hook;
        self
    }

    fn validate(&self, domain: &BoxDomain) -> Result<()> {
        if self.max_iterations == 0 {
            return Err(OptimError::InvalidConfig {
                option: "max_iterations",
                requirement: "must be >= 1",
            });
        }
        if let Some(x0) = &self.start {
            if x0.len() != domain.dim() {
                return Err(OptimError::DimensionMismatch {
                    expected: "start point matching domain dimension",
                    got: x0.len(),
                });
            }
        }
        Ok(())
    }

    /// Central-difference gradient, with the probe points projected into
    /// the domain (one-sided at the boundary).
    fn gradient(
        &self,
        f: &CountingObjective<'_>,
        domain: &BoxDomain,
        x: &[f64],
        widths: &[f64],
    ) -> Vec<f64> {
        let mut g = vec![0.0; x.len()];
        for i in 0..x.len() {
            let h = (FD_STEP * widths[i]).max(1e-12);
            let iv = domain.interval(i);
            let hi = iv.clamp(x[i] + h);
            let lo = iv.clamp(x[i] - h);
            if hi == lo {
                g[i] = 0.0;
                continue;
            }
            let mut xp = x.to_vec();
            xp[i] = hi;
            let fp = f.eval_penalized(&xp);
            xp[i] = lo;
            let fm = f.eval_penalized(&xp);
            g[i] = (fp - fm) / (hi - lo);
        }
        g
    }

    /// One iteration's gradient from the configured source. The
    /// analytic path costs one recorded evaluation-equivalent (the
    /// forward sweep of the adjoint pass); if it returns any non-finite
    /// component — a kink, a closure failure — the iteration falls back
    /// to the central-difference gradient so the descent stays robust.
    fn iteration_gradient(
        &self,
        f: &CountingObjective<'_>,
        source: &GradSource<'_>,
        domain: &BoxDomain,
        x: &[f64],
        widths: &[f64],
    ) -> Vec<f64> {
        if let GradSource::Analytic(obj) = source {
            let mut g = vec![0.0; x.len()];
            let v = obj.value_grad(x, &mut g);
            f.record(1);
            if v.is_finite() && g.iter().all(|gi| gi.is_finite()) {
                return g;
            }
        }
        self.gradient(f, domain, x, widths)
    }

    /// The shared projected-descent loop under both gradient sources.
    fn run(
        &self,
        f: &CountingObjective<'_>,
        source: GradSource<'_>,
        domain: &BoxDomain,
    ) -> Result<OptimizationOutcome> {
        self.validate(domain)?;
        let widths = domain.widths();
        let scale = domain.max_width();

        let mut x = match &self.start {
            Some(p) => domain.project(p),
            None => domain.center(),
        };
        let mut fx = f.eval_penalized(&x);
        let mut step0 = INITIAL_STEP * scale;
        let mut trace = Vec::new();
        let mut iterations = 0;
        let mut termination = TerminationReason::MaxIterations;

        while iterations < self.max_iterations {
            iterations += 1;
            let g = self.iteration_gradient(f, &source, domain, &x, &widths);
            let g_norm = g.iter().map(|v| v * v).sum::<f64>().sqrt();

            // Projected-gradient convergence test: the step the projection
            // actually allows, not the raw gradient.
            let probe: Vec<f64> = x.iter().zip(&g).map(|(&xi, &gi)| xi - gi).collect();
            let projected = domain.project(&probe);
            let pg_norm = projected
                .iter()
                .zip(&x)
                .map(|(&p, &xi)| (p - xi) * (p - xi))
                .sum::<f64>()
                .sqrt();
            if pg_norm <= G_TOL || g_norm == 0.0 {
                termination = TerminationReason::Converged;
                break;
            }

            // Armijo backtracking along the normalized descent direction.
            let dir: Vec<f64> = g.iter().map(|&gi| -gi / g_norm).collect();
            let mut step = step0;
            let c1 = 1e-4;
            let mut accepted = false;
            for _ in 0..60 {
                let trial: Vec<f64> = x
                    .iter()
                    .zip(&dir)
                    .map(|(&xi, &di)| xi + step * di)
                    .collect();
                let trial = domain.project(&trial);
                let ft = f.eval_penalized(&trial);
                // Directional derivative along dir is −g_norm.
                if ft <= fx - c1 * step * g_norm {
                    let moved: f64 = trial
                        .iter()
                        .zip(&x)
                        .map(|(&a, &b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt();
                    x = trial;
                    fx = ft;
                    accepted = true;
                    // Gentle step growth for the next iteration.
                    step0 = (step * 2.0).min(INITIAL_STEP * scale);
                    if moved <= X_TOL * scale {
                        termination = TerminationReason::Converged;
                    }
                    break;
                }
                step *= 0.5;
            }
            if self.record_trace || self.hook.is_set() {
                let point = TracePoint {
                    iteration: iterations,
                    evaluations: f.count(),
                    best_value: fx,
                };
                self.hook.emit(0, &point);
                if self.record_trace {
                    trace.push(point);
                }
            }
            if !accepted {
                // Line search failed: either converged or the landscape is
                // flat at numerical precision.
                termination = TerminationReason::Converged;
                break;
            }
            if termination == TerminationReason::Converged {
                break;
            }
        }

        if !fx.is_finite() {
            return Err(OptimError::NoFiniteValue {
                evaluations: f.count(),
            });
        }
        Ok(OptimizationOutcome {
            best_x: x,
            best_value: fx,
            evaluations: f.count(),
            iterations,
            termination,
            trace,
        })
    }
}

/// Maps non-finite objective values to `+∞` so comparisons stay total
/// (the state-machine twin of [`CountingObjective::eval_penalized`]).
fn penalize(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::INFINITY
    }
}

/// Which objective answer one restart's state machine awaits.
#[derive(Debug)]
enum GdPhase {
    /// The start point's value.
    Init,
    /// The analytic gradient at the current iterate.
    Grad,
    /// Central-difference probe values (the analytic fallback):
    /// `(coordinate, hi, lo)` per probed dimension, two probes each, in
    /// slot order.
    Fd {
        g: Vec<f64>,
        slots: Vec<(usize, f64, f64)>,
    },
    /// One Armijo backtracking trial value.
    Trial {
        g_norm: f64,
        dir: Vec<f64>,
        step: f64,
        tries: u32,
    },
}

/// Resumable state of one gradient-descent restart, for the lockstep
/// multi-start driver
/// ([`MultiStart::minimize_batch`](crate::multistart::MultiStart::minimize_batch)):
/// the [`GradientDescent`] descent loop unrolled into a state machine
/// whose objective evaluations are requested through
/// [`pending_values`](Self::pending_values) /
/// [`pending_grad`](Self::pending_grad) and answered through
/// [`advance_values`](Self::advance_values) /
/// [`advance_grad`](Self::advance_grad). Every evaluation, every float,
/// and every stopping decision replays the sequential
/// [`minimize_differentiable`](Minimizer::minimize_differentiable) path
/// exactly, so lockstep outcomes are bit-identical to running the
/// restarts one after another (asserted by the multistart equivalence
/// tests).
#[derive(Debug)]
pub(crate) struct GdState {
    cfg: GradientDescent,
    domain: BoxDomain,
    widths: Vec<f64>,
    scale: f64,
    x: Vec<f64>,
    fx: f64,
    step0: f64,
    iterations: u64,
    evals: u64,
    termination: TerminationReason,
    trace: Vec<TracePoint>,
    phase: GdPhase,
    /// Value probes awaited this round (empty in the gradient phase).
    pending: Vec<Vec<f64>>,
    done: bool,
}

impl GdState {
    pub(crate) fn new(config: &GradientDescent, domain: &BoxDomain) -> crate::Result<Self> {
        config.validate(domain)?;
        let x = match &config.start {
            Some(p) => domain.project(p),
            None => domain.center(),
        };
        let pending = vec![x.clone()];
        Ok(Self {
            widths: domain.widths(),
            scale: domain.max_width(),
            step0: INITIAL_STEP * domain.max_width(),
            cfg: config.clone(),
            domain: domain.clone(),
            x,
            fx: f64::INFINITY,
            iterations: 0,
            evals: 0,
            termination: TerminationReason::MaxIterations,
            trace: Vec::new(),
            phase: GdPhase::Init,
            pending,
            done: false,
        })
    }

    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// Value probes awaited this round (empty while a gradient is
    /// awaited instead).
    pub(crate) fn pending_values(&self) -> &[Vec<f64>] {
        &self.pending
    }

    /// The iterate whose analytic value + gradient is awaited this
    /// round, if the state is in its gradient phase.
    pub(crate) fn pending_grad(&self) -> Option<&[f64]> {
        (!self.done && matches!(self.phase, GdPhase::Grad)).then_some(self.x.as_slice())
    }

    /// Feeds the values of every probe in
    /// [`pending_values`](Self::pending_values), in order, and advances
    /// to the next phase.
    pub(crate) fn advance_values(&mut self, raw: &[f64]) {
        debug_assert_eq!(raw.len(), self.pending.len());
        self.evals += raw.len() as u64;
        match std::mem::replace(&mut self.phase, GdPhase::Init) {
            GdPhase::Init => {
                self.fx = penalize(raw[0]);
                self.pending.clear();
                self.begin_iteration();
            }
            GdPhase::Fd { mut g, slots } => {
                for (j, &(i, hi, lo)) in slots.iter().enumerate() {
                    let fp = penalize(raw[2 * j]);
                    let fm = penalize(raw[2 * j + 1]);
                    g[i] = (fp - fm) / (hi - lo);
                }
                self.pending.clear();
                self.got_gradient(g);
            }
            GdPhase::Trial {
                g_norm,
                dir,
                step,
                tries,
            } => {
                let ft = penalize(raw[0]);
                let trial = self.pending.pop().expect("one pending trial");
                // Directional derivative along dir is −g_norm.
                let c1 = 1e-4;
                if ft <= self.fx - c1 * step * g_norm {
                    let moved: f64 = trial
                        .iter()
                        .zip(&self.x)
                        .map(|(&a, &b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt();
                    self.x = trial;
                    self.fx = ft;
                    // Gentle step growth for the next iteration.
                    self.step0 = (step * 2.0).min(INITIAL_STEP * self.scale);
                    self.end_iteration(true, moved <= X_TOL * self.scale);
                } else if tries + 1 >= 60 {
                    // Line search failed: either converged or the
                    // landscape is flat at numerical precision.
                    self.end_iteration(false, false);
                } else {
                    let step = step * 0.5;
                    let next: Vec<f64> = self
                        .x
                        .iter()
                        .zip(&dir)
                        .map(|(&xi, &di)| xi + step * di)
                        .collect();
                    self.pending.push(self.domain.project(&next));
                    self.phase = GdPhase::Trial {
                        g_norm,
                        dir,
                        step,
                        tries: tries + 1,
                    };
                }
            }
            GdPhase::Grad => unreachable!("no value probes pending in the gradient phase"),
        }
    }

    /// Feeds the analytic value + gradient at
    /// [`pending_grad`](Self::pending_grad) and advances: a non-finite
    /// answer falls back to central-difference probes, exactly like the
    /// sequential `iteration_gradient`.
    pub(crate) fn advance_grad(&mut self, value: f64, grad: &[f64]) {
        debug_assert!(matches!(self.phase, GdPhase::Grad));
        // One recorded evaluation-equivalent: the forward sweep embedded
        // in the adjoint pass (the sequential path's `f.record(1)`).
        self.evals += 1;
        if value.is_finite() && grad.iter().all(|g| g.is_finite()) {
            self.got_gradient(grad.to_vec());
            return;
        }
        // Central-difference fallback with the probe points projected
        // into the domain (one-sided at the boundary).
        let mut g = vec![0.0; self.x.len()];
        let mut slots = Vec::new();
        self.pending.clear();
        for (i, gi) in g.iter_mut().enumerate() {
            let h = (FD_STEP * self.widths[i]).max(1e-12);
            let iv = self.domain.interval(i);
            let hi = iv.clamp(self.x[i] + h);
            let lo = iv.clamp(self.x[i] - h);
            if hi == lo {
                *gi = 0.0;
                continue;
            }
            let mut xp = self.x.clone();
            xp[i] = hi;
            self.pending.push(xp);
            let mut xm = self.x.clone();
            xm[i] = lo;
            self.pending.push(xm);
            slots.push((i, hi, lo));
        }
        if slots.is_empty() {
            self.got_gradient(g);
        } else {
            self.phase = GdPhase::Fd { g, slots };
        }
    }

    /// The aggregated outcome once [`is_done`](Self::is_done).
    pub(crate) fn into_outcome(self) -> crate::Result<OptimizationOutcome> {
        if !self.fx.is_finite() {
            return Err(OptimError::NoFiniteValue {
                evaluations: self.evals,
            });
        }
        Ok(OptimizationOutcome {
            best_x: self.x,
            best_value: self.fx,
            evaluations: self.evals,
            iterations: self.iterations,
            termination: self.termination,
            trace: self.trace,
        })
    }

    fn begin_iteration(&mut self) {
        if self.iterations >= self.cfg.max_iterations {
            self.finish(self.termination);
            return;
        }
        self.iterations += 1;
        self.phase = GdPhase::Grad;
    }

    /// Runs the convergence test on a fresh gradient and either stops or
    /// opens the Armijo line search — the float sequence of the
    /// sequential loop body.
    fn got_gradient(&mut self, g: Vec<f64>) {
        let g_norm = g.iter().map(|v| v * v).sum::<f64>().sqrt();
        // Projected-gradient convergence test: the step the projection
        // actually allows, not the raw gradient.
        let probe: Vec<f64> = self.x.iter().zip(&g).map(|(&xi, &gi)| xi - gi).collect();
        let projected = self.domain.project(&probe);
        let pg_norm = projected
            .iter()
            .zip(&self.x)
            .map(|(&p, &xi)| (p - xi) * (p - xi))
            .sum::<f64>()
            .sqrt();
        if pg_norm <= G_TOL || g_norm == 0.0 {
            self.finish(TerminationReason::Converged);
            return;
        }
        // Armijo backtracking along the normalized descent direction.
        let dir: Vec<f64> = g.iter().map(|&gi| -gi / g_norm).collect();
        let step = self.step0;
        let trial: Vec<f64> = self
            .x
            .iter()
            .zip(&dir)
            .map(|(&xi, &di)| xi + step * di)
            .collect();
        self.pending.push(self.domain.project(&trial));
        self.phase = GdPhase::Trial {
            g_norm,
            dir,
            step,
            tries: 0,
        };
    }

    /// Closes one iteration: trace/hook emission, then stop or continue
    /// — the sequential loop tail exactly (the trace fires after the
    /// line search, never on a convergence-test break).
    fn end_iteration(&mut self, accepted: bool, stalled: bool) {
        if self.cfg.record_trace || self.cfg.hook.is_set() {
            let point = TracePoint {
                iteration: self.iterations,
                evaluations: self.evals,
                best_value: self.fx,
            };
            self.cfg.hook.emit(0, &point);
            if self.cfg.record_trace {
                self.trace.push(point);
            }
        }
        if !accepted || stalled {
            self.finish(TerminationReason::Converged);
        } else {
            self.begin_iteration();
        }
    }

    fn finish(&mut self, termination: TerminationReason) {
        self.termination = termination;
        self.pending.clear();
        self.done = true;
    }
}

impl Minimizer for GradientDescent {
    fn minimize(
        &self,
        objective: &dyn Objective,
        domain: &BoxDomain,
    ) -> Result<OptimizationOutcome> {
        self.run(
            &CountingObjective::new(objective),
            GradSource::CentralDiff,
            domain,
        )
    }

    /// Same projected-descent loop, stopping rules, and outcome
    /// reporting as [`minimize`](Minimizer::minimize), but each
    /// iteration's gradient is one `value_grad` call instead of `2·dim`
    /// finite-difference evaluations (with an FD fallback at points
    /// whose analytic gradient comes back non-finite). Reached through
    /// `&dyn Minimizer` by front-ends, so e.g. the safety optimizer's
    /// compiled objective gets adjoint gradients automatically.
    fn minimize_differentiable(
        &self,
        objective: &dyn DifferentiableObjective,
        domain: &BoxDomain,
    ) -> Result<OptimizationOutcome> {
        let value_only = ValueOnly(objective);
        self.run(
            &CountingObjective::new(&value_only),
            GradSource::Analytic(objective),
            domain,
        )
    }

    fn name(&self) -> &'static str {
        "gradient-descent"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfns::{booth, sphere};

    #[test]
    fn solves_sphere() {
        let domain = BoxDomain::from_bounds(&[(-5.0, 5.0); 3]).unwrap();
        let out = GradientDescent::default()
            .minimize(&sphere, &domain)
            .unwrap();
        assert!(out.best_value < 1e-10, "best = {}", out.best_value);
        assert!(out.converged());
    }

    #[test]
    fn solves_booth() {
        let domain = BoxDomain::from_bounds(&[(-10.0, 10.0), (-10.0, 10.0)]).unwrap();
        let out = GradientDescent::default()
            .minimize(&booth, &domain)
            .unwrap();
        assert!(out.best_value < 1e-8, "best = {}", out.best_value);
    }

    #[test]
    fn respects_active_box_constraints() {
        // Minimum of (x+2)² on [0, 5] is the boundary x = 0.
        let domain = BoxDomain::from_bounds(&[(0.0, 5.0)]).unwrap();
        let out = GradientDescent::default()
            .minimize(&|x: &[f64]| (x[0] + 2.0).powi(2), &domain)
            .unwrap();
        assert!(out.best_x[0] < 1e-8, "x = {}", out.best_x[0]);
        assert!(out.converged());
    }

    #[test]
    fn never_evaluates_outside_domain() {
        let domain = BoxDomain::from_bounds(&[(0.0, 1.0), (2.0, 3.0)]).unwrap();
        let d2 = domain.clone();
        let f = move |x: &[f64]| {
            assert!(d2.contains(x), "outside: {x:?}");
            sphere(x)
        };
        GradientDescent::default().minimize(&f, &domain).unwrap();
    }

    #[test]
    fn flat_function_converges_immediately() {
        let domain = BoxDomain::from_bounds(&[(-1.0, 1.0)]).unwrap();
        let out = GradientDescent::default()
            .minimize(&|_: &[f64]| 3.5, &domain)
            .unwrap();
        assert_eq!(out.best_value, 3.5);
        assert!(out.converged());
        assert!(out.iterations <= 2);
    }

    struct QuadWithGrad {
        /// When set, `value_grad` reports a NaN partial — exercising the
        /// central-difference fallback.
        poison_grad: bool,
    }

    impl crate::Objective for QuadWithGrad {
        fn eval(&self, x: &[f64]) -> f64 {
            x.iter().map(|v| (v - 1.0) * (v - 1.0)).sum()
        }
    }

    impl crate::DifferentiableObjective for QuadWithGrad {
        fn value_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
            for (g, &xi) in grad.iter_mut().zip(x) {
                *g = if self.poison_grad {
                    f64::NAN
                } else {
                    2.0 * (xi - 1.0)
                };
            }
            self.eval(x)
        }
    }

    #[test]
    fn analytic_path_matches_fd_optimum_with_fewer_evaluations() {
        let domain = BoxDomain::from_bounds(&[(-5.0, 5.0); 4]).unwrap();
        let gd = GradientDescent::default();
        let obj = QuadWithGrad { poison_grad: false };
        let analytic = gd.minimize_differentiable(&obj, &domain).unwrap();
        let fd = gd.minimize(&obj, &domain).unwrap();
        assert!(analytic.converged());
        for (a, b) in analytic.best_x.iter().zip(&fd.best_x) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
        assert!(
            analytic.evaluations < fd.evaluations,
            "analytic {} vs fd {} evaluations",
            analytic.evaluations,
            fd.evaluations
        );
    }

    #[test]
    fn non_finite_analytic_gradient_falls_back_to_central_differences() {
        let domain = BoxDomain::from_bounds(&[(-5.0, 5.0); 2]).unwrap();
        let obj = QuadWithGrad { poison_grad: true };
        let out = GradientDescent::default()
            .minimize_differentiable(&obj, &domain)
            .unwrap();
        assert!(out.best_value < 1e-8, "best = {}", out.best_value);
        assert!(out.converged());
    }

    #[test]
    fn rejects_bad_config() {
        let domain = BoxDomain::from_bounds(&[(0.0, 1.0)]).unwrap();
        assert!(GradientDescent::default()
            .max_iterations(0)
            .minimize(&sphere, &domain)
            .is_err());
    }
}
