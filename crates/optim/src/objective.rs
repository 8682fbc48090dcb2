use std::cell::Cell;

/// An objective function `f : ℝⁿ → ℝ` to minimize.
///
/// Implemented for all `Fn(&[f64]) -> f64` closures, so the common case is
/// simply:
///
/// ```
/// use safety_opt_optim::Objective;
///
/// let f = |x: &[f64]| (x[0] - 1.0).powi(2);
/// assert_eq!(f.eval(&[3.0]), 4.0);
/// ```
///
/// Returning NaN or ±∞ is allowed and means "this point is infeasible";
/// optimizers treat such points as worse than every finite value.
pub trait Objective {
    /// Evaluates the objective at `x`.
    fn eval(&self, x: &[f64]) -> f64;
}

impl<F: Fn(&[f64]) -> f64> Objective for F {
    fn eval(&self, x: &[f64]) -> f64 {
        self(x)
    }
}

impl Objective for dyn Fn(&[f64]) -> f64 + '_ {
    fn eval(&self, x: &[f64]) -> f64 {
        self(x)
    }
}

/// An objective that can also produce its gradient analytically.
///
/// Gradient-based methods ([`QuasiNewton`], [`GradientDescent`])
/// interrogate this trait through their `minimize_differentiable` entry
/// points: one
/// `value_grad` call replaces the `2·dim` objective evaluations of a
/// central-difference gradient — the hook the engine's reverse-mode
/// adjoint tape sweep plugs into. The plain [`Minimizer`] entry points
/// are unchanged and keep using finite differences.
///
/// Implementations must write exactly `x.len()` partials into `grad`.
/// Non-finite values (value or any partial) mean "no usable gradient
/// here"; callers fall back to finite differences or treat the point as
/// infeasible, exactly as for [`Objective`].
///
/// [`QuasiNewton`]: crate::quasi_newton::QuasiNewton
/// [`GradientDescent`]: crate::gradient::GradientDescent
/// [`Minimizer`]: crate::Minimizer
pub trait DifferentiableObjective: Objective {
    /// Writes `∇f(x)` into `grad` (length `x.len()`) and returns
    /// `f(x)`.
    fn value_grad(&self, x: &[f64], grad: &mut [f64]) -> f64;
}

/// Adapter presenting a [`DifferentiableObjective`] as a plain
/// [`Objective`] without trait-object upcasting (MSRV-friendly); used
/// by gradient consumers that also need value-only evaluations.
pub(crate) struct ValueOnly<'a>(pub &'a dyn DifferentiableObjective);

impl Objective for ValueOnly<'_> {
    fn eval(&self, x: &[f64]) -> f64 {
        self.0.eval(x)
    }
}

/// An objective that can evaluate a whole batch of points at once.
///
/// The value-only half of [`BatchDifferentiableObjective`]: the lockstep
/// gradient-descent driver sends its Armijo trials and
/// finite-difference probes through `eval_batch`, so compiled, parallel
/// evaluation backends (the `safety_opt_engine` tape) see whole rounds.
/// Any `Fn(&[f64]) -> f64 + Sync` closure is a valid (pointwise) batch
/// objective.
///
/// Implementations must write exactly one value per input point, in
/// order; non-finite values mean "infeasible" exactly as for
/// [`Objective`].
pub trait BatchObjective: Sync {
    /// Evaluates every point of `points`, overwriting `out` with one
    /// value per point.
    fn eval_batch(&self, points: &[Vec<f64>], out: &mut Vec<f64>);
}

impl<F: Fn(&[f64]) -> f64 + Sync> BatchObjective for F {
    fn eval_batch(&self, points: &[Vec<f64>], out: &mut Vec<f64>) {
        out.clear();
        out.extend(points.iter().map(|p| self(p)));
    }
}

impl std::fmt::Debug for dyn BatchObjective + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BatchObjective")
    }
}

/// A batch objective that can also produce analytic gradients for a
/// whole batch of points at once.
///
/// The lockstep gradient drivers ([`MultiStart::minimize_batch`] for
/// quasi-Newton and gradient descent) gather every live restart's
/// pending point into one `eval_grad_batch` call — the hook the
/// engine's lane-blocked SoA adjoint sweep plugs into, so a fleet of
/// restarts pays one batched forward + backward sweep per round instead
/// of `starts` scattered `value_grad` calls.
///
/// Implementations must write exactly one value per point into `values`
/// and `points.len() · dim` partials into `grads`, row-major in point
/// order. Non-finite entries mean "no usable gradient here", exactly as
/// for [`DifferentiableObjective`]: quasi-Newton backtracks from such a
/// point, gradient descent falls back to finite differences there.
///
/// [`MultiStart::minimize_batch`]: crate::multistart::MultiStart::minimize_batch
pub trait BatchDifferentiableObjective: BatchObjective {
    /// Evaluates value **and** gradient at every point, overwriting
    /// `values` (one per point) and `grads` (row-major,
    /// `points.len() × dim`).
    fn eval_grad_batch(&self, points: &[Vec<f64>], values: &mut Vec<f64>, grads: &mut Vec<f64>);
}

impl std::fmt::Debug for dyn BatchDifferentiableObjective + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BatchDifferentiableObjective")
    }
}

/// Wrapper that counts evaluations of an inner objective.
///
/// Every algorithm in this crate reports evaluation counts through its
/// [`OptimizationOutcome`](crate::OptimizationOutcome); `CountingObjective`
/// is also exported for callers who want to meter objectives across
/// multiple optimizer runs (e.g. the benchmark harness's
/// evaluations-per-algorithm table).
///
/// ```
/// use safety_opt_optim::{CountingObjective, Objective};
///
/// let f = |x: &[f64]| x[0] * x[0];
/// let counted = CountingObjective::new(&f);
/// counted.eval(&[1.0]);
/// counted.eval(&[2.0]);
/// assert_eq!(counted.count(), 2);
/// ```
#[derive(Debug)]
pub struct CountingObjective<'a> {
    inner: &'a dyn Objective,
    count: Cell<u64>,
}

impl<'a> CountingObjective<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn Objective) -> Self {
        Self {
            inner,
            count: Cell::new(0),
        }
    }

    /// Number of evaluations so far.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Records `n` evaluations performed outside [`eval`](Objective::eval)
    /// — e.g. the forward tape sweep embedded in an analytic
    /// [`DifferentiableObjective::value_grad`] call — so reported
    /// evaluation counts stay comparable across gradient sources.
    pub fn record(&self, n: u64) {
        self.count.set(self.count.get() + n);
    }

    /// Evaluates and maps non-finite results to `f64::INFINITY` so that
    /// comparisons stay total.
    pub fn eval_penalized(&self, x: &[f64]) -> f64 {
        let v = self.eval(x);
        if v.is_finite() {
            v
        } else {
            f64::INFINITY
        }
    }
}

impl Objective for CountingObjective<'_> {
    fn eval(&self, x: &[f64]) -> f64 {
        self.count.set(self.count.get() + 1);
        self.inner.eval(x)
    }
}

impl std::fmt::Debug for dyn Objective + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Objective")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_is_objective() {
        fn takes_dyn(f: &dyn Objective) -> f64 {
            f.eval(&[2.0, 3.0])
        }
        let f = |x: &[f64]| x[0] + x[1];
        assert_eq!(takes_dyn(&f), 5.0);
    }

    #[test]
    fn counting_wrapper_counts() {
        let f = |x: &[f64]| x[0];
        let c = CountingObjective::new(&f);
        assert_eq!(c.count(), 0);
        for i in 0..7 {
            c.eval(&[i as f64]);
        }
        assert_eq!(c.count(), 7);
    }

    #[test]
    fn penalized_eval_maps_non_finite_to_infinity() {
        let f = |x: &[f64]| if x[0] < 0.0 { f64::NAN } else { x[0] };
        let c = CountingObjective::new(&f);
        assert_eq!(c.eval_penalized(&[-1.0]), f64::INFINITY);
        assert_eq!(c.eval_penalized(&[4.0]), 4.0);
        assert_eq!(c.count(), 2);
    }
}
