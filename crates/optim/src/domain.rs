//! Compact search domains.
//!
//! The paper restricts free parameters to compact intervals so the minimum
//! of the cost function is guaranteed to exist (Sect. III-B). A
//! [`BoxDomain`] is the Cartesian product of such [`Interval`]s; every
//! optimizer in this crate takes one and guarantees never to evaluate the
//! objective outside it.

use crate::{OptimError, Result};

/// A compact real interval `[lo, hi]` with `lo < hi`, both finite.
///
/// ```
/// use safety_opt_optim::domain::Interval;
///
/// # fn main() -> Result<(), safety_opt_optim::OptimError> {
/// let timer_range = Interval::new(5.0, 30.0)?; // minutes
/// assert_eq!(timer_range.clamp(42.0), 30.0);
/// assert!(timer_range.contains(19.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Creates the interval `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::InvalidInterval`] unless both bounds are
    /// finite and `lo < hi`.
    pub fn new(lo: f64, hi: f64) -> Result<Self> {
        if lo.is_finite() && hi.is_finite() && lo < hi {
            Ok(Self { lo, hi })
        } else {
            Err(OptimError::InvalidInterval { lo, hi })
        }
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Interval width `hi − lo` (always positive).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint.
    pub fn center(&self) -> f64 {
        self.lo + 0.5 * self.width()
    }

    /// `true` if `x` lies in `[lo, hi]`.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }

    /// Projects `x` onto the interval.
    pub fn clamp(&self, x: f64) -> f64 {
        x.clamp(self.lo, self.hi)
    }

    /// Linear interpolation: `t = 0` maps to `lo`, `t = 1` to `hi`.
    pub fn lerp(&self, t: f64) -> f64 {
        self.clamp(self.lo + t * self.width())
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// The Cartesian product of compact intervals — an axis-aligned box.
///
/// ```
/// use safety_opt_optim::domain::BoxDomain;
///
/// # fn main() -> Result<(), safety_opt_optim::OptimError> {
/// // The Elbtunnel search space: two timer runtimes in [5, 30] minutes.
/// let domain = BoxDomain::from_bounds(&[(5.0, 30.0), (5.0, 30.0)])?;
/// assert_eq!(domain.dim(), 2);
/// assert_eq!(domain.project(&[0.0, 42.0]), vec![5.0, 30.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BoxDomain {
    intervals: Vec<Interval>,
}

impl BoxDomain {
    /// Creates a box from explicit intervals.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::EmptyDomain`] if `intervals` is empty.
    pub fn new(intervals: Vec<Interval>) -> Result<Self> {
        if intervals.is_empty() {
            return Err(OptimError::EmptyDomain);
        }
        Ok(Self { intervals })
    }

    /// Creates a box from `(lo, hi)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::EmptyDomain`] for an empty slice and
    /// [`OptimError::InvalidInterval`] for any invalid pair.
    pub fn from_bounds(bounds: &[(f64, f64)]) -> Result<Self> {
        let intervals = bounds
            .iter()
            .map(|&(lo, hi)| Interval::new(lo, hi))
            .collect::<Result<Vec<_>>>()?;
        Self::new(intervals)
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.intervals.len()
    }

    /// The intervals making up the box.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// The interval of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    pub fn interval(&self, i: usize) -> Interval {
        self.intervals[i]
    }

    /// `true` if every coordinate of `x` lies inside its interval and the
    /// dimensionality matches.
    pub fn contains(&self, x: &[f64]) -> bool {
        x.len() == self.dim() && x.iter().zip(&self.intervals).all(|(&v, iv)| iv.contains(v))
    }

    /// Projects `x` coordinate-wise onto the box.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn project(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "point/domain dimension mismatch");
        x.iter()
            .zip(&self.intervals)
            .map(|(&v, iv)| iv.clamp(v))
            .collect()
    }

    /// The center of the box.
    pub fn center(&self) -> Vec<f64> {
        self.intervals.iter().map(Interval::center).collect()
    }

    /// Width of each dimension.
    pub fn widths(&self) -> Vec<f64> {
        self.intervals.iter().map(Interval::width).collect()
    }

    /// The largest dimension width — a useful convergence scale.
    pub fn max_width(&self) -> f64 {
        self.intervals
            .iter()
            .map(Interval::width)
            .fold(0.0, f64::max)
    }
}

impl std::fmt::Display for BoxDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, iv) in self.intervals.iter().enumerate() {
            if i > 0 {
                write!(f, " × ")?;
            }
            write!(f, "{iv}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_rejects_bad_bounds() {
        assert!(Interval::new(1.0, 1.0).is_err());
        assert!(Interval::new(2.0, 1.0).is_err());
        assert!(Interval::new(f64::NAN, 1.0).is_err());
        assert!(Interval::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn interval_geometry() {
        let iv = Interval::new(5.0, 30.0).unwrap();
        assert_eq!(iv.width(), 25.0);
        assert_eq!(iv.center(), 17.5);
        assert!(iv.contains(5.0) && iv.contains(30.0));
        assert!(!iv.contains(4.999));
        assert_eq!(iv.clamp(-10.0), 5.0);
        assert_eq!(iv.clamp(31.0), 30.0);
        assert_eq!(iv.lerp(0.0), 5.0);
        assert_eq!(iv.lerp(1.0), 30.0);
        assert_eq!(iv.lerp(0.5), 17.5);
    }

    #[test]
    fn box_rejects_empty() {
        assert_eq!(BoxDomain::from_bounds(&[]), Err(OptimError::EmptyDomain));
    }

    #[test]
    fn box_propagates_interval_errors() {
        assert!(matches!(
            BoxDomain::from_bounds(&[(0.0, 1.0), (3.0, 2.0)]),
            Err(OptimError::InvalidInterval { .. })
        ));
    }

    #[test]
    fn box_contains_and_projects() {
        let d = BoxDomain::from_bounds(&[(0.0, 1.0), (10.0, 20.0)]).unwrap();
        assert!(d.contains(&[0.5, 15.0]));
        assert!(!d.contains(&[1.5, 15.0]));
        assert!(!d.contains(&[0.5])); // wrong dimension
        assert_eq!(d.project(&[-1.0, 25.0]), vec![0.0, 20.0]);
        assert_eq!(d.center(), vec![0.5, 15.0]);
        assert_eq!(d.max_width(), 10.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn project_panics_on_wrong_dimension() {
        let d = BoxDomain::from_bounds(&[(0.0, 1.0)]).unwrap();
        let _ = d.project(&[0.5, 0.5]);
    }

    #[test]
    fn display_formats() {
        let d = BoxDomain::from_bounds(&[(0.0, 1.0), (5.0, 30.0)]).unwrap();
        assert_eq!(d.to_string(), "[0, 1] × [5, 30]");
    }
}
