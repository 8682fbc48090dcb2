//! Optimization over compact box domains.
//!
//! The paper reduces safety analysis to a mathematical program (Sect.
//! III-B): *"Find (x₁, …, x_l) such that f_cost(x₁, …, x_l) =
//! min f_cost"*, with the real-valued domains restricted to **compact
//! intervals** so the minimum exists. It names gradient descent, general
//! nonlinear programming, brute-force combination testing, and 3-D-plot
//! inspection as admissible solution strategies — this crate implements all
//! of them, from scratch:
//!
//! * [`domain`] — compact [`Interval`](domain::Interval)s and
//!   [`domain::BoxDomain`]s with projection and sampling.
//! * [`grid`] — exhaustive (optionally parallel) grid search: the paper's
//!   "test large numbers of combinations in very short time".
//! * [`nelder_mead`] — the derivative-free simplex workhorse.
//! * [`hooke_jeeves`] — pattern search.
//! * [`gradient`] — projected gradient descent with numerical gradients and
//!   Armijo backtracking: the paper's "most simple" method.
//! * [`quasi_newton`] — projected BFGS with an active set on analytic
//!   value + gradient pairs: the gradient method that converges on flat
//!   valleys.
//! * [`anneal`] / [`de`] — stochastic global search (simulated annealing,
//!   differential evolution) for non-smooth or multimodal cost functions.
//! * [`multistart`] — restart wrapper that upgrades any local
//!   [`Minimizer`] into a global heuristic.
//!
//! All algorithms implement the object-safe [`Minimizer`] trait, report a
//! structured [`OptimizationOutcome`] (best point, value, evaluation
//! counts, termination reason, optional trace), never evaluate outside the
//! domain, and treat non-finite objective values as "worse than anything"
//! rather than propagating NaN.
//!
//! # Example
//!
//! ```
//! use safety_opt_optim::domain::BoxDomain;
//! use safety_opt_optim::nelder_mead::NelderMead;
//! use safety_opt_optim::Minimizer;
//!
//! # fn main() -> Result<(), safety_opt_optim::OptimError> {
//! let domain = BoxDomain::from_bounds(&[(-5.0, 5.0), (-5.0, 5.0)])?;
//! let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
//! let outcome = NelderMead::default().minimize(&sphere, &domain)?;
//! assert!(outcome.best_value < 1e-8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod anneal;
pub mod de;
pub mod domain;
mod error;
pub mod gradient;
pub mod grid;
pub mod hooke_jeeves;
pub mod multistart;
pub mod nelder_mead;
mod objective;
mod outcome;
pub mod quasi_newton;
pub mod testfns;
pub mod trace;

pub use error::OptimError;
pub use objective::{
    BatchDifferentiableObjective, BatchObjective, CountingObjective, DifferentiableObjective,
    Objective,
};
pub use outcome::{OptimizationOutcome, TerminationReason, TracePoint};
pub use trace::{CollectingHook, HookHandle, TraceHook};

/// Convenience result alias for fallible optimization operations.
pub type Result<T> = std::result::Result<T, OptimError>;

use domain::BoxDomain;

/// A minimization algorithm over a compact box domain.
///
/// Object-safe so front-ends (like the safety optimizer) can accept
/// `&dyn Minimizer` and let callers swap algorithms at runtime.
///
/// # Contract
///
/// Implementations must only evaluate the objective at points inside
/// `domain`, must return the best point *they evaluated* (never an
/// extrapolation), and must map non-finite objective values to "infinitely
/// bad" instead of returning them as a best value.
pub trait Minimizer: std::fmt::Debug {
    /// Minimizes `objective` over `domain`.
    ///
    /// # Errors
    ///
    /// * [`OptimError::DimensionMismatch`] if the algorithm is restricted
    ///   to certain dimensionalities (e.g. 1-D methods).
    /// * [`OptimError::NoFiniteValue`] if every evaluated point produced a
    ///   non-finite objective.
    /// * Algorithm-specific configuration errors.
    fn minimize(
        &self,
        objective: &dyn Objective,
        domain: &BoxDomain,
    ) -> Result<OptimizationOutcome>;

    /// Minimizes an objective that can also provide **analytic
    /// gradients** ([`DifferentiableObjective`]). The default
    /// implementation ignores the gradient capability and delegates to
    /// [`minimize`](Self::minimize), so derivative-free algorithms are
    /// unaffected; gradient-based algorithms override it —
    /// [`quasi_newton::QuasiNewton`] and [`gradient::GradientDescent`]
    /// consume one analytic gradient per request instead of `2·dim`
    /// finite-difference evaluations.
    /// Front-ends (like the safety optimizer) call this entry point, so
    /// a gradient-capable minimizer picks up analytic gradients through
    /// `&dyn Minimizer` dispatch too.
    ///
    /// # Errors
    ///
    /// Same conditions as [`minimize`](Self::minimize).
    fn minimize_differentiable(
        &self,
        objective: &dyn DifferentiableObjective,
        domain: &BoxDomain,
    ) -> Result<OptimizationOutcome> {
        self.minimize(&objective::ValueOnly(objective), domain)
    }

    /// Short human-readable algorithm name (used in reports and benches).
    fn name(&self) -> &'static str;
}
