//! Nelder–Mead downhill simplex with box constraints.
//!
//! A derivative-free alternative to the default quasi-Newton, for cost
//! functions whose gradients vanish or cannot be computed (deep normal
//! tails underflow to zero slope). Robust and fast on the
//! low-dimensional problems safety models produce.
//! Box constraints are enforced by projecting trial points onto the
//! domain, which preserves convergence on these landscapes while
//! guaranteeing no out-of-domain evaluation.
//!
//! The algorithm is implemented as a resumable state machine
//! (`NmState`): it publishes the points it needs next (the initial
//! simplex, one reflection/expansion/contraction probe, or a whole
//! shrink) and consumes their values; [`NelderMead::minimize`] drives it
//! pointwise.

use crate::domain::BoxDomain;
use crate::trace::HookHandle;
use crate::{
    Minimizer, Objective, OptimError, OptimizationOutcome, Result, TerminationReason, TracePoint,
};

/// Function-value spread at which the simplex counts as converged.
const F_TOL: f64 = 1e-12;
/// Simplex diameter, relative to the widest domain dimension, at which
/// the simplex counts as converged.
const X_TOL: f64 = 1e-10;
/// Initial simplex edge as a fraction of each dimension width.
const INITIAL_SCALE: f64 = 0.10;

/// Nelder–Mead configuration (standard coefficients, adaptive by default).
///
/// ```
/// use safety_opt_optim::domain::BoxDomain;
/// use safety_opt_optim::nelder_mead::NelderMead;
/// use safety_opt_optim::Minimizer;
///
/// # fn main() -> Result<(), safety_opt_optim::OptimError> {
/// let domain = BoxDomain::from_bounds(&[(-5.0, 5.0), (-5.0, 5.0)])?;
/// let out = NelderMead::default().minimize(&safety_opt_optim::testfns::rosenbrock, &domain)?;
/// assert!((out.best_x[0] - 1.0).abs() < 1e-4);
/// assert!((out.best_x[1] - 1.0).abs() < 1e-4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NelderMead {
    max_iterations: u64,
    /// Optional explicit start point (defaults to the domain center).
    start: Option<Vec<f64>>,
    record_trace: bool,
    hook: HookHandle,
}

impl Default for NelderMead {
    fn default() -> Self {
        Self {
            max_iterations: 2000,
            start: None,
            record_trace: false,
            hook: HookHandle::none(),
        }
    }
}

impl NelderMead {
    /// Creates a minimizer with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the iteration budget.
    pub fn max_iterations(mut self, n: u64) -> Self {
        self.max_iterations = n;
        self
    }

    /// Starts the simplex around `x0` instead of the domain center.
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

impl Minimizer for NelderMead {
    fn minimize(
        &self,
        objective: &dyn Objective,
        domain: &BoxDomain,
    ) -> Result<OptimizationOutcome> {
        let mut state = NmState::new(self, domain)?;
        let mut values = Vec::new();
        while !state.is_done() {
            values.clear();
            values.extend(state.pending().iter().map(|p| objective.eval(p)));
            state.advance(&values);
        }
        state.into_outcome()
    }

    fn name(&self) -> &'static str {
        "nelder-mead"
    }
}

/// Where a paused [`NmState`] resumes once its pending points have
/// values.
#[derive(Debug, Clone)]
enum Phase {
    /// Awaiting the initial simplex values.
    Init,
    /// Awaiting the reflection probe.
    Reflect {
        best: usize,
        worst: usize,
        second_worst: usize,
        centroid: Vec<f64>,
        xr: Vec<f64>,
    },
    /// Awaiting the expansion probe.
    Expand {
        worst: usize,
        xr: Vec<f64>,
        fr: f64,
        xe: Vec<f64>,
    },
    /// Awaiting the contraction probe.
    Contract {
        best: usize,
        worst: usize,
        fr: f64,
        xc: Vec<f64>,
    },
    /// Awaiting the shrunk vertices (all but the best, ascending).
    Shrink { indices: Vec<usize> },
    /// Terminated; [`NmState::into_outcome`] is ready.
    Done,
}

/// Resumable Nelder–Mead run: alternates between publishing
/// [`pending`](NmState::pending) evaluation points and consuming their
/// values through [`advance`](NmState::advance). Replicates the classic
/// loop step for step.
#[derive(Debug, Clone)]
pub(crate) struct NmState {
    max_iterations: u64,
    record_trace: bool,
    hook: HookHandle,
    // Adaptive coefficients (Gao & Han 2012) help in higher dimensions.
    alpha: f64,
    beta: f64,
    gamma: f64,
    delta: f64,
    n: usize,
    domain: BoxDomain,
    domain_scale: f64,
    simplex: Vec<Vec<f64>>,
    values: Vec<f64>,
    evaluations: u64,
    iterations: u64,
    trace: Vec<TracePoint>,
    termination: TerminationReason,
    phase: Phase,
    pending: Vec<Vec<f64>>,
}

impl NmState {
    /// Validates `config` and builds the initial simplex; the state
    /// starts with the whole simplex pending.
    pub(crate) fn new(config: &NelderMead, domain: &BoxDomain) -> Result<Self> {
        config.validate(domain)?;
        let n = domain.dim();
        let nf = n as f64;

        // Initial simplex: start point plus one vertex per dimension.
        let x0 = match &config.start {
            Some(p) => domain.project(p),
            None => domain.center(),
        };
        let widths = domain.widths();
        let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        simplex.push(x0.clone());
        for i in 0..n {
            let mut v = x0.clone();
            let step = INITIAL_SCALE * widths[i];
            // Step towards whichever side has room.
            let iv = domain.interval(i);
            v[i] = if v[i] + step <= iv.hi() {
                v[i] + step
            } else {
                v[i] - step
            };
            simplex.push(v);
        }
        let pending = simplex.clone();
        Ok(Self {
            max_iterations: config.max_iterations,
            record_trace: config.record_trace,
            hook: config.hook.clone(),
            alpha: 1.0,
            beta: 1.0 + 2.0 / nf,           // expansion
            gamma: 0.75 - 1.0 / (2.0 * nf), // contraction
            delta: 1.0 - 1.0 / nf.max(2.0), // shrink
            n,
            domain: domain.clone(),
            domain_scale: domain.max_width(),
            simplex,
            values: Vec::new(),
            evaluations: 0,
            iterations: 0,
            trace: Vec::new(),
            termination: TerminationReason::MaxIterations,
            phase: Phase::Init,
            pending,
        })
    }

    /// Points awaiting evaluation (empty exactly when
    /// [`is_done`](Self::is_done)).
    pub(crate) fn pending(&self) -> &[Vec<f64>] {
        &self.pending
    }

    /// `true` once the run has terminated.
    pub(crate) fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// Consumes one value per pending point (in order; non-finite values
    /// are penalized to `+∞`) and
    /// progresses to the next pending set or termination.
    ///
    /// # Panics
    ///
    /// Panics if `raw_values` does not match the pending count.
    pub(crate) fn advance(&mut self, raw_values: &[f64]) {
        assert_eq!(
            raw_values.len(),
            self.pending.len(),
            "one value per pending point"
        );
        let vals: Vec<f64> = raw_values
            .iter()
            .map(|&v| if v.is_finite() { v } else { f64::INFINITY })
            .collect();
        self.evaluations += vals.len() as u64;
        self.pending.clear();
        match std::mem::replace(&mut self.phase, Phase::Done) {
            Phase::Init => {
                self.values = vals;
                self.begin_iteration();
            }
            Phase::Reflect {
                best,
                worst,
                second_worst,
                centroid,
                xr,
            } => {
                let fr = vals[0];
                if fr < self.values[best] {
                    // Expansion.
                    let xe = self.project_combine(&centroid, worst, self.beta);
                    self.pending.push(xe.clone());
                    self.phase = Phase::Expand { worst, xr, fr, xe };
                } else if fr < self.values[second_worst] {
                    self.simplex[worst] = xr;
                    self.values[worst] = fr;
                    self.end_iteration();
                } else {
                    // Contraction (outside if the reflection helped at
                    // all).
                    let t = if fr < self.values[worst] {
                        self.gamma
                    } else {
                        -self.gamma
                    };
                    let xc = self.project_combine(&centroid, worst, t);
                    self.pending.push(xc.clone());
                    self.phase = Phase::Contract {
                        best,
                        worst,
                        fr,
                        xc,
                    };
                }
            }
            Phase::Expand { worst, xr, fr, xe } => {
                let fe = vals[0];
                if fe < fr {
                    self.simplex[worst] = xe;
                    self.values[worst] = fe;
                } else {
                    self.simplex[worst] = xr;
                    self.values[worst] = fr;
                }
                self.end_iteration();
            }
            Phase::Contract {
                best,
                worst,
                fr,
                xc,
            } => {
                let fc = vals[0];
                if fc < self.values[worst].min(fr) {
                    self.simplex[worst] = xc;
                    self.values[worst] = fc;
                    self.end_iteration();
                } else {
                    // Shrink towards the best vertex.
                    let best_point = self.simplex[best].clone();
                    let mut indices = Vec::with_capacity(self.n);
                    for (i, v) in self.simplex.iter_mut().enumerate() {
                        if i == best {
                            continue;
                        }
                        for (vi, &bi) in v.iter_mut().zip(&best_point) {
                            *vi = bi + self.delta * (*vi - bi);
                        }
                        *v = self.domain.project(v);
                        indices.push(i);
                        self.pending.push(v.clone());
                    }
                    self.phase = Phase::Shrink { indices };
                }
            }
            Phase::Shrink { indices } => {
                for (&i, &fv) in indices.iter().zip(&vals) {
                    self.values[i] = fv;
                }
                self.end_iteration();
            }
            Phase::Done => panic!("advance() after termination"),
        }
    }

    /// Starts the next iteration: convergence/budget checks, then the
    /// reflection probe.
    fn begin_iteration(&mut self) {
        if self.iterations >= self.max_iterations {
            self.termination = TerminationReason::MaxIterations;
            self.phase = Phase::Done;
            return;
        }
        self.iterations += 1;
        // Order vertices by value.
        let n = self.n;
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&a, &b| self.values[a].partial_cmp(&self.values[b]).unwrap());
        let best = order[0];
        let worst = order[n];
        let second_worst = order[n - 1];

        // Convergence: value spread and simplex diameter.
        let spread = self.values[worst] - self.values[best];
        let diameter = self
            .simplex
            .iter()
            .flat_map(|v| self.simplex[best].iter().zip(v).map(|(a, b)| (a - b).abs()))
            .fold(0.0, f64::max);
        if (spread.is_finite() && spread <= F_TOL) || diameter <= X_TOL * self.domain_scale {
            self.termination = TerminationReason::Converged;
            self.phase = Phase::Done;
            return;
        }

        // Centroid of all but the worst vertex.
        let nf = n as f64;
        let mut centroid = vec![0.0; n];
        for (i, v) in self.simplex.iter().enumerate() {
            if i == worst {
                continue;
            }
            for (c, &vi) in centroid.iter_mut().zip(v) {
                *c += vi / nf;
            }
        }

        // Reflection.
        let xr = self.project_combine(&centroid, worst, self.alpha);
        self.pending.push(xr.clone());
        self.phase = Phase::Reflect {
            best,
            worst,
            second_worst,
            centroid,
            xr,
        };
    }

    fn end_iteration(&mut self) {
        if self.record_trace || self.hook.is_set() {
            let best_now = self.values.iter().copied().fold(f64::INFINITY, f64::min);
            let point = TracePoint {
                iteration: self.iterations,
                evaluations: self.evaluations,
                best_value: best_now,
            };
            self.hook.emit(0, &point);
            if self.record_trace {
                self.trace.push(point);
            }
        }
        self.begin_iteration();
    }

    fn project_combine(&self, centroid: &[f64], worst: usize, t: f64) -> Vec<f64> {
        let p: Vec<f64> = centroid
            .iter()
            .zip(&self.simplex[worst])
            .map(|(&c, &w)| c + t * (c - w))
            .collect();
        self.domain.project(&p)
    }

    /// Final outcome of a terminated run.
    ///
    /// # Errors
    ///
    /// [`OptimError::NoFiniteValue`] if every evaluated vertex is
    /// non-finite.
    pub(crate) fn into_outcome(self) -> Result<OptimizationOutcome> {
        let (best_idx, &best_value) = self
            .values
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .expect("simplex non-empty");
        if !best_value.is_finite() {
            return Err(OptimError::NoFiniteValue {
                evaluations: self.evaluations,
            });
        }
        Ok(OptimizationOutcome {
            best_x: self.simplex[best_idx].clone(),
            best_value,
            evaluations: self.evaluations,
            iterations: self.iterations,
            termination: self.termination,
            trace: self.trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfns::{booth, rosenbrock, sphere};

    #[test]
    fn solves_sphere_in_five_dimensions() {
        let domain = BoxDomain::from_bounds(&[(-5.0, 5.0); 5]).unwrap();
        let out = NelderMead::default().minimize(&sphere, &domain).unwrap();
        assert!(out.best_value < 1e-8, "best = {}", out.best_value);
    }

    #[test]
    fn solves_rosenbrock() {
        let domain = BoxDomain::from_bounds(&[(-5.0, 5.0), (-5.0, 5.0)]).unwrap();
        let out = NelderMead::default()
            .minimize(&rosenbrock, &domain)
            .unwrap();
        assert!(out.best_value < 1e-8, "best = {}", out.best_value);
        assert!(out.converged());
    }

    #[test]
    fn respects_start_point() {
        let domain = BoxDomain::from_bounds(&[(-10.0, 10.0), (-10.0, 10.0)]).unwrap();
        let out = NelderMead::default()
            .start(vec![1.0, 3.0])
            .minimize(&booth, &domain)
            .unwrap();
        assert!(out.best_value < 1e-10);
        assert!(out.evaluations < 400);
    }

    #[test]
    fn constrained_minimum_on_boundary() {
        // Unconstrained minimum at (−3, −3); box keeps x ≥ 0 → best is (0, 0).
        let domain = BoxDomain::from_bounds(&[(0.0, 5.0), (0.0, 5.0)]).unwrap();
        let f = |x: &[f64]| (x[0] + 3.0).powi(2) + (x[1] + 3.0).powi(2);
        let out = NelderMead::default().minimize(&f, &domain).unwrap();
        assert!(
            out.best_x[0] < 1e-5 && out.best_x[1] < 1e-5,
            "{:?}",
            out.best_x
        );
    }

    #[test]
    fn never_leaves_domain() {
        let domain = BoxDomain::from_bounds(&[(2.0, 5.0), (-1.0, 1.0)]).unwrap();
        let d2 = domain.clone();
        let f = move |x: &[f64]| {
            assert!(d2.contains(x), "evaluated outside domain: {x:?}");
            sphere(x)
        };
        NelderMead::default().minimize(&f, &domain).unwrap();
    }

    #[test]
    fn iteration_budget_is_respected() {
        let domain = BoxDomain::from_bounds(&[(-5.0, 5.0), (-5.0, 5.0)]).unwrap();
        let out = NelderMead::default()
            .max_iterations(5)
            .minimize(&rosenbrock, &domain)
            .unwrap();
        assert_eq!(out.iterations, 5);
        assert_eq!(out.termination, TerminationReason::MaxIterations);
    }

    #[test]
    fn nan_regions_are_avoided() {
        // NaN for x < 0: the simplex should still find the minimum at 0.5.
        let domain = BoxDomain::from_bounds(&[(-2.0, 2.0)]).unwrap();
        let f = |x: &[f64]| {
            if x[0] < 0.0 {
                f64::NAN
            } else {
                (x[0] - 0.5).powi(2)
            }
        };
        let out = NelderMead::default().minimize(&f, &domain).unwrap();
        assert!((out.best_x[0] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn rejects_bad_start_dimension() {
        let domain = BoxDomain::from_bounds(&[(0.0, 1.0)]).unwrap();
        assert!(NelderMead::default()
            .start(vec![0.5, 0.5])
            .minimize(&sphere, &domain)
            .is_err());
    }

    #[test]
    fn trace_is_monotone() {
        let domain = BoxDomain::from_bounds(&[(-5.0, 5.0), (-5.0, 5.0)]).unwrap();
        let out = NelderMead::default()
            .record_trace(true)
            .minimize(&rosenbrock, &domain)
            .unwrap();
        assert!(!out.trace.is_empty());
        for w in out.trace.windows(2) {
            assert!(w[1].best_value <= w[0].best_value + 1e-12);
        }
    }
}
