//! Exhaustive grid search.
//!
//! The paper explicitly endorses brute force when nothing smarter applies:
//! *"It is possible to test large numbers of combinations in very short
//! time. So this technique gives a good impression about the quantitative
//! dependencies between mean costs and free parameters."* Here it is the
//! dense cross-check of the default quasi-Newton optimum; the Fig. 5 cost
//! surface is the front-end's batched `CostSurface` sweep, not this type.

use crate::domain::BoxDomain;
use crate::{
    CountingObjective, Minimizer, Objective, OptimError, OptimizationOutcome, Result,
    TerminationReason,
};

/// Exhaustive search over a regular lattice.
///
/// `points_per_dim` grid lines per dimension, endpoints included.
///
/// ```
/// use safety_opt_optim::domain::BoxDomain;
/// use safety_opt_optim::grid::GridSearch;
/// use safety_opt_optim::Minimizer;
///
/// # fn main() -> Result<(), safety_opt_optim::OptimError> {
/// let domain = BoxDomain::from_bounds(&[(0.0, 4.0), (0.0, 4.0)])?;
/// let f = |x: &[f64]| (x[0] - 2.0).powi(2) + (x[1] - 3.0).powi(2);
/// let out = GridSearch::new(41).minimize(&f, &domain)?;
/// assert!((out.best_x[0] - 2.0).abs() < 0.06);
/// assert!((out.best_x[1] - 3.0).abs() < 0.06);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearch {
    points_per_dim: usize,
}

impl Default for GridSearch {
    fn default() -> Self {
        Self::new(101)
    }
}

impl GridSearch {
    /// Creates a grid search with `points_per_dim` lattice lines per
    /// dimension (endpoints included; must be ≥ 2).
    pub fn new(points_per_dim: usize) -> Self {
        Self { points_per_dim }
    }

    fn validate(&self) -> Result<()> {
        if self.points_per_dim < 2 {
            return Err(OptimError::InvalidConfig {
                option: "points_per_dim",
                requirement: "must be >= 2",
            });
        }
        Ok(())
    }

    /// Coordinates of grid line `k` (of `n`) in `interval`. The clamp
    /// guards against the multiply-then-divide rounding 1 ulp past `hi`.
    fn line(&self, lo: f64, hi: f64, k: usize) -> f64 {
        let n = self.points_per_dim;
        (lo + (hi - lo) * k as f64 / (n - 1) as f64).clamp(lo, hi)
    }

    fn point(&self, domain: &BoxDomain, mut index: usize) -> Vec<f64> {
        let n = self.points_per_dim;
        let mut x = Vec::with_capacity(domain.dim());
        for iv in domain.intervals() {
            let k = index % n;
            index /= n;
            x.push(self.line(iv.lo(), iv.hi(), k));
        }
        x
    }

    /// Total number of lattice points for `domain`.
    pub fn total_points(&self, domain: &BoxDomain) -> usize {
        self.points_per_dim.pow(domain.dim() as u32)
    }
}

impl Minimizer for GridSearch {
    fn minimize(
        &self,
        objective: &dyn Objective,
        domain: &BoxDomain,
    ) -> Result<OptimizationOutcome> {
        self.validate()?;
        let f = CountingObjective::new(objective);
        let total = self.total_points(domain);
        let mut best_x: Option<Vec<f64>> = None;
        let mut best_value = f64::INFINITY;
        for i in 0..total {
            let x = self.point(domain, i);
            let v = f.eval_penalized(&x);
            if v < best_value || best_x.is_none() {
                best_value = v;
                best_x = Some(x);
            }
        }
        let best_x = best_x.expect("grid has at least 2^dim points");
        if !best_value.is_finite() {
            return Err(OptimError::NoFiniteValue {
                evaluations: f.count(),
            });
        }
        Ok(OptimizationOutcome {
            best_x,
            best_value,
            evaluations: f.count(),
            iterations: total as u64,
            termination: TerminationReason::Exhausted,
            trace: Vec::new(),
        })
    }

    fn name(&self) -> &'static str {
        "grid-search"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfns::rastrigin;

    #[test]
    fn lattice_covers_endpoints() {
        let domain = BoxDomain::from_bounds(&[(0.0, 1.0)]).unwrap();
        let grid = GridSearch::new(5);
        let xs: Vec<f64> = (0..5).map(|i| grid.point(&domain, i)[0]).collect();
        assert_eq!(xs, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn finds_global_minimum_of_multimodal_function() {
        // Rastrigin defeats local methods; the grid cannot be fooled.
        let domain = BoxDomain::from_bounds(&[(-5.12, 5.12), (-5.12, 5.12)]).unwrap();
        let out = GridSearch::new(65).minimize(&rastrigin, &domain).unwrap();
        assert!(out.best_value < 0.1, "best = {}", out.best_value);
        assert_eq!(out.termination, TerminationReason::Exhausted);
        assert_eq!(out.evaluations, 65 * 65);
    }

    #[test]
    fn rejects_tiny_grid() {
        let domain = BoxDomain::from_bounds(&[(0.0, 1.0)]).unwrap();
        assert!(GridSearch::new(1)
            .minimize(&|x: &[f64]| x[0], &domain)
            .is_err());
    }

    #[test]
    fn nan_points_are_skipped_not_fatal() {
        let domain = BoxDomain::from_bounds(&[(-1.0, 1.0)]).unwrap();
        // NaN on the negative half; minimum of x² on [0, 1] is at 0.
        let f = |x: &[f64]| if x[0] < 0.0 { f64::NAN } else { x[0] * x[0] };
        let out = GridSearch::new(21).minimize(&f, &domain).unwrap();
        assert_eq!(out.best_x[0], 0.0);
    }

    #[test]
    fn all_nan_is_error() {
        let domain = BoxDomain::from_bounds(&[(0.0, 1.0)]).unwrap();
        assert!(matches!(
            GridSearch::new(5).minimize(&|_: &[f64]| f64::NAN, &domain),
            Err(OptimError::NoFiniteValue { .. })
        ));
    }

    #[test]
    fn three_dimensional_lattice_size() {
        let domain = BoxDomain::from_bounds(&[(0.0, 1.0); 3]).unwrap();
        let grid = GridSearch::new(7);
        assert_eq!(grid.total_points(&domain), 343);
        let out = grid.minimize(&crate::testfns::sphere, &domain).unwrap();
        assert_eq!(out.evaluations, 343);
        assert_eq!(out.best_x, vec![0.0, 0.0, 0.0]);
    }
}
