//! Projected quasi-Newton minimization over a box, driven by analytic
//! value + gradient pairs.
//!
//! The paper's gradient method *"finds local minima by calculating
//! gradients iteratively"*; steepest descent does that, but it crawls
//! along flat valleys — such as the Elbtunnel timer-1 valley, flat to
//! about 1e-9 relative — until its iteration cap. This method keeps a
//! dense BFGS inverse-Hessian approximation instead, so its steps follow
//! the curvature it has seen, and handles the box the way L-BFGS-B
//! (Byrd, Lu, Nocedal & Zhu 1995) does, in dense form because the
//! dimension stays small:
//!
//! * a coordinate is **active** — held fixed for the iteration — when
//!   it sits on a bound and its gradient points out of the box; the
//!   quasi-Newton direction is built on the free coordinates only;
//! * the step is an Armijo backtracking search (quadratic
//!   interpolation) along the **projected path** `P(x + t·d)`, with
//!   sufficient-decrease term `g·(x_t − x)`; a full step that leaves the
//!   slope steep is doubled instead, so steps scaled in a convex region
//!   do not crawl through a concave one;
//! * the first accepted step scales the initial inverse Hessian by
//!   `s·y / y·y` (Shanno–Phua), and an update whose `s·y` is not
//!   positive is skipped;
//! * when the projected quasi-Newton step `P(x + d) − x` is at most
//!   1e-8 of the domain width along every coordinate, or its
//!   predicted decrease is below the cost's rounding, or its line
//!   search fails, the curvature memory is dropped and one
//!   steepest-descent step confirms convergence: it catches coordinates
//!   the memory had scaled down to nothing. The run stops when that
//!   step cannot decrease the cost either, or moves less than that
//!   tolerance.
//!   Running into the iteration cap is reported as
//!   [`TerminationReason::MaxIterations`], never as convergence.
//!
//! Every objective request is one value + gradient pair; a trial point
//! whose value or gradient is not finite simply backtracks. The method
//! is a resumable state machine, so the sequential
//! [`Minimizer::minimize_differentiable`] entry point and the lockstep
//! multi-start driver
//! ([`MultiStart::minimize_batch`](crate::multistart::MultiStart::<QuasiNewton>::minimize_batch))
//! run the same code: one with batches of one point, the other with one
//! batch of every live restart per round.

use crate::domain::BoxDomain;
use crate::trace::HookHandle;
use crate::{
    CountingObjective, DifferentiableObjective, Minimizer, Objective, OptimError,
    OptimizationOutcome, Result, TerminationReason, TracePoint,
};

/// Armijo sufficient-decrease constant.
const ARMIJO_C1: f64 = 1e-4;
/// Wolfe curvature constant: a full step is doubled while the slope at
/// its end is still steeper than this fraction of the initial slope.
const WOLFE_C2: f64 = 0.9;
/// Requests (halvings or doublings) before a line search ends.
const MAX_TRIALS: u32 = 20;
/// Relative central-difference step of the value-only entry point.
const FD_STEP: f64 = 1e-6;
/// Step tolerance, as a fraction of each coordinate's domain width.
const X_TOL: f64 = 1e-8;
/// Length of a steepest-descent step (taken before any curvature is
/// known) as a fraction of the largest domain width.
const INITIAL_STEP: f64 = 0.1;

/// Projected BFGS configuration.
///
/// ```
/// use safety_opt_optim::domain::BoxDomain;
/// use safety_opt_optim::quasi_newton::QuasiNewton;
/// use safety_opt_optim::Minimizer;
///
/// # fn main() -> Result<(), safety_opt_optim::OptimError> {
/// let domain = BoxDomain::from_bounds(&[(-5.0, 5.0), (-5.0, 5.0)])?;
/// let out = QuasiNewton::default()
///     .minimize(&safety_opt_optim::testfns::booth, &domain)?;
/// assert!(out.best_value < 1e-10);
/// assert!(out.converged());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuasiNewton {
    max_iterations: u64,
    start: Option<Vec<f64>>,
    record_trace: bool,
    hook: HookHandle,
}

impl Default for QuasiNewton {
    fn default() -> Self {
        Self {
            max_iterations: 1000,
            start: None,
            record_trace: false,
            hook: HookHandle::none(),
        }
    }
}

impl QuasiNewton {
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
}

/// What the awaited value + gradient pair answers.
#[derive(Debug)]
enum Phase {
    /// The start point.
    Init,
    /// The line-search trial `P(x + t·d)`, the `tries`-th request of
    /// this search. While a full step is being doubled, `best` is the
    /// value of the last accepted trial (kept in `best_x` / `best_g`).
    Trial {
        t: f64,
        tries: u32,
        best: Option<f64>,
    },
}

/// Resumable state of one quasi-Newton run: it publishes the point whose
/// value + gradient it needs through [`pending`](Self::pending) and
/// consumes the answer through [`advance`](Self::advance). Drivers only
/// decide how requests are batched, so the sequential and the lockstep
/// multi-start paths give bit-identical outcomes for pointwise-equal
/// objectives. Steady state allocates nothing.
#[derive(Debug)]
pub(crate) struct QnState {
    cfg: QuasiNewton,
    domain: BoxDomain,
    widths: Vec<f64>,
    x: Vec<f64>,
    fx: f64,
    g: Vec<f64>,
    /// Dense row-major inverse-Hessian approximation; meaningful once
    /// `curved` is set by the first accepted curvature pair.
    h: Vec<f64>,
    curved: bool,
    /// Search direction of the current iteration.
    d: Vec<f64>,
    /// The point awaiting its value + gradient.
    pending: Vec<f64>,
    /// Gradient at the trial being accepted.
    gt: Vec<f64>,
    /// Last accepted trial of a doubling search, and its gradient.
    best_x: Vec<f64>,
    best_g: Vec<f64>,
    /// Update scratch: step, gradient change, `H·y`.
    s: Vec<f64>,
    y: Vec<f64>,
    hy: Vec<f64>,
    iterations: u64,
    evals: u64,
    termination: TerminationReason,
    trace: Vec<TracePoint>,
    phase: Phase,
    done: bool,
}

impl QnState {
    pub(crate) fn new(config: &QuasiNewton, domain: &BoxDomain) -> Result<Self> {
        config.validate(domain)?;
        let n = domain.dim();
        let x = match &config.start {
            Some(p) => domain.project(p),
            None => domain.center(),
        };
        Ok(Self {
            cfg: config.clone(),
            domain: domain.clone(),
            widths: domain.widths(),
            pending: x.clone(),
            x,
            fx: f64::INFINITY,
            g: vec![0.0; n],
            h: vec![0.0; n * n],
            curved: false,
            d: vec![0.0; n],
            gt: vec![0.0; n],
            best_x: vec![0.0; n],
            best_g: vec![0.0; n],
            s: vec![0.0; n],
            y: vec![0.0; n],
            hy: vec![0.0; n],
            iterations: 0,
            evals: 0,
            termination: TerminationReason::Converged,
            trace: Vec::new(),
            phase: Phase::Init,
            done: false,
        })
    }

    /// The point whose value + gradient is awaited, until the run ends.
    pub(crate) fn pending(&self) -> Option<&[f64]> {
        (!self.done).then_some(self.pending.as_slice())
    }

    /// Feeds the value and gradient at [`pending`](Self::pending).
    pub(crate) fn advance(&mut self, value: f64, grad: &[f64]) {
        debug_assert!(!self.done);
        self.evals += 1;
        let usable = value.is_finite() && grad.iter().all(|v| v.is_finite());
        match std::mem::replace(&mut self.phase, Phase::Init) {
            Phase::Init => {
                if !usable {
                    // Without a finite start there is no direction; a
                    // non-finite start value surfaces as NoFiniteValue.
                    self.fx = if value.is_finite() {
                        value
                    } else {
                        f64::INFINITY
                    };
                    self.finish(TerminationReason::Converged);
                    return;
                }
                self.fx = value;
                self.g.copy_from_slice(grad);
                self.begin_iteration();
            }
            Phase::Trial { t, tries, best } => {
                let steepest = !self.curved;
                let decrease = self.slope(&self.g);
                let acceptable = usable
                    && decrease < 0.0
                    && value < self.fx
                    && value <= self.fx + ARMIJO_C1 * decrease;
                if acceptable && best.map_or(true, |b| value < b) {
                    // A full step that leaves the slope steep (the Wolfe
                    // curvature condition fails) is doubled while that
                    // keeps paying: quasi-Newton steps scaled in one
                    // region are far too short in a concave one.
                    let steep = self.slope(grad) < WOLFE_C2 * decrease;
                    if steep && (tries == 0 || best.is_some()) && tries + 1 < MAX_TRIALS {
                        self.best_x.copy_from_slice(&self.pending);
                        self.step_to(2.0 * t);
                        if self.pending != self.best_x {
                            self.best_g.copy_from_slice(grad);
                            self.phase = Phase::Trial {
                                t: 2.0 * t,
                                tries: tries + 1,
                                best: Some(value),
                            };
                            return;
                        }
                    }
                    self.gt.copy_from_slice(grad);
                    self.accept(value);
                } else if let Some(value) = best {
                    // The doubled step stopped paying: take the last one.
                    std::mem::swap(&mut self.pending, &mut self.best_x);
                    std::mem::swap(&mut self.gt, &mut self.best_g);
                    self.accept(value);
                } else {
                    let next = backtrack(t, value - self.fx, decrease);
                    self.step_to(next);
                    if tries + 1 >= MAX_TRIALS
                        || self.pending == self.x
                        || !self.resolvable(decrease * next / t)
                    {
                        self.end_iteration();
                        if self.curved {
                            // Retry along steepest descent before giving
                            // up, like L-BFGS-B.
                            self.curved = false;
                            self.begin_iteration();
                        } else {
                            // The cost cannot be decreased any more:
                            // converged to the precision the objective
                            // allows.
                            self.finish(TerminationReason::Converged);
                        }
                        return;
                    }
                    self.phase = Phase::Trial {
                        t: next,
                        tries: tries + 1,
                        best: None,
                    };
                    return;
                }
                self.end_iteration();
                if steepest && self.short() {
                    // Even a steepest-descent step moved less than the
                    // tolerance (`pending` now holds the previous
                    // iterate).
                    self.finish(TerminationReason::Converged);
                } else {
                    self.begin_iteration();
                }
            }
        }
    }

    /// The outcome once [`pending`](Self::pending) returns `None`.
    pub(crate) fn into_outcome(self) -> Result<OptimizationOutcome> {
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

    /// `true` when a predicted change `decrease` (negative) is larger
    /// than the cost's rounding, so a strict decrease can be seen.
    fn resolvable(&self, decrease: f64) -> bool {
        -decrease > f64::EPSILON * self.fx.abs()
    }

    /// `true` when `pending` lies within `X_TOL` of the domain width of
    /// `x` along every coordinate.
    fn short(&self) -> bool {
        self.pending
            .iter()
            .zip(&self.x)
            .zip(&self.widths)
            .all(|((p, xi), w)| (p - xi).abs() <= X_TOL * w)
    }

    /// Directional slope `grad·(x_t − x)` towards the pending trial.
    fn slope(&self, grad: &[f64]) -> f64 {
        grad.iter()
            .zip(self.pending.iter().zip(&self.x))
            .map(|(gi, (xt, xi))| gi * (xt - xi))
            .sum()
    }

    /// Sets the pending trial to `P(x + t·d)`.
    fn step_to(&mut self, t: f64) {
        for (i, p) in self.pending.iter_mut().enumerate() {
            *p = self.domain.interval(i).clamp(self.x[i] + t * self.d[i]);
        }
    }

    /// `true` when coordinate `i` sits on a bound and moving along `v`
    /// would leave the box.
    fn blocked(&self, i: usize, v: f64) -> bool {
        let iv = self.domain.interval(i);
        (self.x[i] <= iv.lo() && v < 0.0) || (self.x[i] >= iv.hi() && v > 0.0)
    }

    /// `true` unless coordinate `i` is active: on a bound with the
    /// gradient pointing out of the box.
    fn free(&self, i: usize) -> bool {
        !self.blocked(i, -self.g[i])
    }

    /// Builds the iteration's direction and either stops or opens the
    /// line search along it.
    fn begin_iteration(&mut self) {
        if self.iterations >= self.cfg.max_iterations {
            self.finish(TerminationReason::MaxIterations);
            return;
        }
        let n = self.x.len();
        if self.curved {
            for i in 0..n {
                let di = if self.free(i) {
                    let row = &self.h[i * n..(i + 1) * n];
                    -(0..n)
                        .filter(|&j| self.free(j))
                        .map(|j| row[j] * self.g[j])
                        .sum::<f64>()
                } else {
                    0.0
                };
                // A free coordinate on a bound whose quasi-Newton
                // component points out stays put: projection would
                // clamp it anyway.
                self.d[i] = if self.blocked(i, di) { 0.0 } else { di };
            }
            // A negligible quasi-Newton step — too short, or too small a
            // decrease to resolve — is confirmed by one steepest-descent
            // step, which finds coordinates the curvature memory has
            // scaled down to nothing (a flat valley seen only from
            // across it): the memory is dropped.
            self.step_to(1.0);
            if self.short() || !self.resolvable(self.slope(&self.g)) {
                self.curved = false;
            }
        }
        if !self.curved {
            // No curvature yet: a steepest-descent step spanning
            // `INITIAL_STEP` of the domain along its largest component.
            let g_max = (0..n)
                .filter(|&i| self.free(i))
                .map(|i| self.g[i].abs())
                .fold(0.0, f64::max);
            if g_max > 0.0 {
                let gamma = INITIAL_STEP * self.domain.max_width() / g_max;
                for i in 0..n {
                    self.d[i] = if self.free(i) {
                        -gamma * self.g[i]
                    } else {
                        0.0
                    };
                }
                self.step_to(1.0);
            }
            if g_max == 0.0 || !self.resolvable(self.slope(&self.g)) {
                // The projected gradient vanishes to the precision the
                // cost allows.
                self.finish(TerminationReason::Converged);
                return;
            }
        }
        self.iterations += 1;
        self.phase = Phase::Trial {
            t: 1.0,
            tries: 0,
            best: None,
        };
    }

    /// Moves to the pending trial (value `value`, gradient in `gt`) and
    /// updates the inverse Hessian from the step `s` and gradient change
    /// `y` (skipped unless `s·y > 0`).
    fn accept(&mut self, value: f64) {
        let n = self.x.len();
        for i in 0..n {
            self.s[i] = self.pending[i] - self.x[i];
            self.y[i] = self.gt[i] - self.g[i];
        }
        let sy: f64 = self.s.iter().zip(&self.y).map(|(a, b)| a * b).sum();
        if sy > 0.0 {
            if !self.curved {
                // Shanno–Phua: scale the initial inverse Hessian to the
                // curvature along the first step.
                let yy: f64 = self.y.iter().map(|v| v * v).sum();
                self.h.fill(0.0);
                for i in 0..n {
                    self.h[i * n + i] = sy / yy;
                }
                self.curved = true;
            }
            bfgs_update(&mut self.h, &self.s, &self.y, sy, &mut self.hy);
        }
        std::mem::swap(&mut self.x, &mut self.pending);
        std::mem::swap(&mut self.g, &mut self.gt);
        self.fx = value;
    }

    /// Closes one iteration: trace/hook emission after its line search.
    fn end_iteration(&mut self) {
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
    }

    fn finish(&mut self, termination: TerminationReason) {
        self.termination = termination;
        self.done = true;
    }
}

/// The next backtracking step after trial step `t` raised the cost by
/// `rise` where the linear model predicted `decrease`: the minimizer of
/// the quadratic through both, kept within `[0.1·t, 0.5·t]` (plain
/// halving when the trial was not finite).
fn backtrack(t: f64, rise: f64, decrease: f64) -> f64 {
    let curvature = rise - decrease;
    if !(rise.is_finite() && curvature > 0.0) {
        return 0.5 * t;
    }
    (-0.5 * decrease * t / curvature).clamp(0.1 * t, 0.5 * t)
}

/// BFGS update of the inverse Hessian `h` (row-major, symmetric):
/// `H ← (I − ρ s yᵀ) H (I − ρ y sᵀ) + ρ s sᵀ` with `ρ = 1 / s·y`;
/// `hy` is scratch for `H·y`.
fn bfgs_update(h: &mut [f64], s: &[f64], y: &[f64], sy: f64, hy: &mut [f64]) {
    let n = s.len();
    let rho = 1.0 / sy;
    for (hyi, row) in hy.iter_mut().zip(h.chunks_exact(n)) {
        *hyi = row.iter().zip(y).map(|(a, b)| a * b).sum();
    }
    let yhy: f64 = y.iter().zip(hy.iter()).map(|(a, b)| a * b).sum();
    let c = rho * rho * yhy + rho;
    for (i, row) in h.chunks_exact_mut(n).enumerate() {
        for (j, hij) in row.iter_mut().enumerate() {
            *hij += c * s[i] * s[j] - rho * (hy[i] * s[j] + s[i] * hy[j]);
        }
    }
}

/// Central-difference gradients for the value-only entry point, with the
/// probes projected into the domain (one-sided at a bound).
struct CentralDiff<'a> {
    f: &'a CountingObjective<'a>,
    domain: &'a BoxDomain,
}

impl Objective for CentralDiff<'_> {
    fn eval(&self, x: &[f64]) -> f64 {
        self.f.eval(x)
    }
}

impl DifferentiableObjective for CentralDiff<'_> {
    fn value_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        let mut probe = x.to_vec();
        for (i, gi) in grad.iter_mut().enumerate() {
            let iv = self.domain.interval(i);
            let h = FD_STEP * iv.width();
            let (hi, lo) = (iv.clamp(x[i] + h), iv.clamp(x[i] - h));
            probe[i] = hi;
            let fp = self.f.eval(&probe);
            probe[i] = lo;
            let fm = self.f.eval(&probe);
            probe[i] = x[i];
            *gi = (fp - fm) / (hi - lo);
        }
        self.f.eval(x)
    }
}

impl Minimizer for QuasiNewton {
    /// Runs on central-difference gradients (`2·dim + 1` evaluations
    /// per request); the reported evaluation count is the true one.
    fn minimize(
        &self,
        objective: &dyn Objective,
        domain: &BoxDomain,
    ) -> Result<OptimizationOutcome> {
        let counted = CountingObjective::new(objective);
        let fd = CentralDiff {
            f: &counted,
            domain,
        };
        match self.minimize_differentiable(&fd, domain) {
            Ok(mut out) => {
                out.evaluations = counted.count();
                Ok(out)
            }
            Err(OptimError::NoFiniteValue { .. }) => Err(OptimError::NoFiniteValue {
                evaluations: counted.count(),
            }),
            Err(e) => Err(e),
        }
    }

    /// One `value_grad` call per request, driving the same state
    /// machine as the lockstep multi-start driver with batches of one.
    fn minimize_differentiable(
        &self,
        objective: &dyn DifferentiableObjective,
        domain: &BoxDomain,
    ) -> Result<OptimizationOutcome> {
        let mut state = QnState::new(self, domain)?;
        let mut grad = vec![0.0; domain.dim()];
        while let Some(x) = state.pending() {
            let value = objective.value_grad(x, &mut grad);
            state.advance(value, &grad);
        }
        state.into_outcome()
    }

    fn name(&self) -> &'static str {
        "quasi-newton"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::GradientDescent;
    use crate::testfns::{booth, rosenbrock, sphere};

    /// `Σ aᵢ (xᵢ − cᵢ)²` with its analytic gradient.
    struct Quad {
        a: Vec<f64>,
        c: Vec<f64>,
    }

    impl Objective for Quad {
        fn eval(&self, x: &[f64]) -> f64 {
            x.iter()
                .zip(self.a.iter().zip(&self.c))
                .map(|(xi, (a, c))| a * (xi - c) * (xi - c))
                .sum()
        }
    }

    impl DifferentiableObjective for Quad {
        fn value_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
            for (i, g) in grad.iter_mut().enumerate() {
                *g = 2.0 * self.a[i] * (x[i] - self.c[i]);
            }
            self.eval(x)
        }
    }

    #[test]
    fn solves_smooth_problems_by_value_only() {
        let domain = BoxDomain::from_bounds(&[(-5.0, 5.0); 3]).unwrap();
        let out = QuasiNewton::default().minimize(&sphere, &domain).unwrap();
        assert!(out.best_value < 1e-12, "sphere best = {}", out.best_value);
        assert!(out.converged());
        let domain = BoxDomain::from_bounds(&[(-2.0, 2.0), (-1.0, 3.0)]).unwrap();
        let out = QuasiNewton::default()
            .minimize(&rosenbrock, &domain)
            .unwrap();
        assert!(
            out.best_value < 1e-8,
            "rosenbrock best = {}",
            out.best_value
        );
        let domain = BoxDomain::from_bounds(&[(-10.0, 10.0); 2]).unwrap();
        let out = QuasiNewton::default().minimize(&booth, &domain).unwrap();
        assert!(out.best_value < 1e-10, "booth best = {}", out.best_value);
    }

    #[test]
    fn box_minimum_outside_the_domain_stops_on_the_face() {
        // Unconstrained minimum (7, −9, 0.5) lies outside the box in the
        // first two coordinates: the box minimum is on the face
        // x₀ = 3, x₁ = −2 with x₂ = 0.5 free.
        let f = Quad {
            a: vec![1.0, 4.0, 0.5],
            c: vec![7.0, -9.0, 0.5],
        };
        let domain = BoxDomain::from_bounds(&[(-3.0, 3.0), (-2.0, 2.0), (-1.0, 1.0)]).unwrap();
        for start in [[0.0, 0.0, 0.0], [-3.0, 2.0, -1.0], [2.9, -1.9, 0.9]] {
            let out = QuasiNewton::default()
                .start(start.to_vec())
                .minimize_differentiable(&f, &domain)
                .unwrap();
            assert_eq!(out.termination, TerminationReason::Converged, "{start:?}");
            assert_eq!(out.best_x[0], 3.0, "{start:?}");
            assert_eq!(out.best_x[1], -2.0, "{start:?}");
            assert!(
                (out.best_x[2] - 0.5).abs() < 1e-8,
                "{start:?}: {:?}",
                out.best_x
            );
            // Projected gradient ≈ 0: only the free coordinate counts.
            let mut g = [0.0; 3];
            f.value_grad(&out.best_x, &mut g);
            let projected = domain.project(
                &out.best_x
                    .iter()
                    .zip(&g)
                    .map(|(x, g)| x - g)
                    .collect::<Vec<_>>(),
            );
            let pg = projected
                .iter()
                .zip(&out.best_x)
                .map(|(p, x)| (p - x).abs())
                .fold(0.0, f64::max);
            assert!(pg < 1e-8, "{start:?}: projected gradient {pg}");
        }
    }

    #[test]
    fn converges_where_gradient_descent_runs_into_its_cap() {
        // An ill-conditioned valley: steepest descent zig-zags, the
        // quasi-Newton direction does not.
        let f = Quad {
            a: vec![1.0, 1e4],
            c: vec![0.3, -0.2],
        };
        let domain = BoxDomain::from_bounds(&[(-1.0, 1.0); 2]).unwrap();
        let qn = QuasiNewton::default()
            .minimize_differentiable(&f, &domain)
            .unwrap();
        let gd = GradientDescent::default()
            .max_iterations(200)
            .minimize_differentiable(&f, &domain)
            .unwrap();
        assert_eq!(gd.termination, TerminationReason::MaxIterations);
        assert!(qn.converged());
        assert!(qn.iterations < 50, "{} iterations", qn.iterations);
        assert!(qn.best_value <= gd.best_value);
        assert!((qn.best_x[0] - 0.3).abs() < 1e-6, "{:?}", qn.best_x);
    }

    #[test]
    fn the_cap_is_reported_as_max_iterations() {
        let domain = BoxDomain::from_bounds(&[(-2.0, 2.0), (-1.0, 3.0)]).unwrap();
        let out = QuasiNewton::default()
            .max_iterations(3)
            .minimize(&rosenbrock, &domain)
            .unwrap();
        assert_eq!(out.termination, TerminationReason::MaxIterations);
        assert_eq!(out.iterations, 3);
        assert!(!out.converged());
    }

    #[test]
    fn non_finite_trials_backtrack_and_never_leave_the_box() {
        // NaN on part of the domain the first step would reach.
        let domain = BoxDomain::from_bounds(&[(0.0, 1.0), (2.0, 3.0)]).unwrap();
        let d2 = domain.clone();
        let f = move |x: &[f64]| {
            assert!(d2.contains(x), "outside: {x:?}");
            if x[0] < 0.2 {
                f64::NAN
            } else {
                (x[0] - 0.25).powi(2) + (x[1] - 2.5).powi(2)
            }
        };
        let out = QuasiNewton::default().minimize(&f, &domain).unwrap();
        assert!(out.best_value.is_finite());
        assert!(out.best_x[0] >= 0.2);
        // A NaN start is NoFiniteValue, not a panic.
        let nan = |_: &[f64]| f64::NAN;
        assert!(matches!(
            QuasiNewton::default().minimize(&nan, &domain),
            Err(OptimError::NoFiniteValue { .. })
        ));
    }

    #[test]
    fn flat_function_converges_immediately() {
        let domain = BoxDomain::from_bounds(&[(-1.0, 1.0)]).unwrap();
        let out = QuasiNewton::default()
            .minimize(&|_: &[f64]| 3.5, &domain)
            .unwrap();
        assert_eq!(out.best_value, 3.5);
        assert!(out.converged());
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn trace_and_hook_see_every_iteration() {
        let hook = std::sync::Arc::new(crate::CollectingHook::default());
        let domain = BoxDomain::from_bounds(&[(-5.0, 5.0); 2]).unwrap();
        let out = QuasiNewton::default()
            .record_trace(true)
            .with_trace_hook(hook.clone())
            .minimize(&booth, &domain)
            .unwrap();
        assert_eq!(out.trace.len() as u64, out.iterations);
        assert_eq!(hook.collected().len(), out.trace.len());
        assert!(out
            .trace
            .windows(2)
            .all(|w| w[1].best_value <= w[0].best_value));
    }

    #[test]
    fn rejects_bad_config() {
        let domain = BoxDomain::from_bounds(&[(0.0, 1.0)]).unwrap();
        assert!(QuasiNewton::default()
            .max_iterations(0)
            .minimize(&sphere, &domain)
            .is_err());
        assert!(QuasiNewton::default()
            .start(vec![0.5, 0.5])
            .minimize(&sphere, &domain)
            .is_err());
    }
}
