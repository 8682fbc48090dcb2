//! Simulated annealing.
//!
//! Stochastic global search for cost functions that are multimodal or
//! non-smooth — e.g. safety models with discrete regime changes in their
//! environment model. Gaussian proposals scaled to the domain, Metropolis
//! acceptance, geometric cooling, and a deterministic seed so runs are
//! reproducible.

use crate::domain::BoxDomain;
use crate::trace::HookHandle;
use crate::{
    CountingObjective, Minimizer, Objective, OptimError, OptimizationOutcome, Result,
    TerminationReason, TracePoint,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulated-annealing configuration.
///
/// ```
/// use safety_opt_optim::anneal::SimulatedAnnealing;
/// use safety_opt_optim::domain::BoxDomain;
/// use safety_opt_optim::Minimizer;
///
/// # fn main() -> Result<(), safety_opt_optim::OptimError> {
/// let domain = BoxDomain::from_bounds(&[(-5.12, 5.12), (-5.12, 5.12)])?;
/// let out = SimulatedAnnealing::default()
///     .seed(42)
///     .minimize(&safety_opt_optim::testfns::rastrigin, &domain)?;
/// assert!(out.best_value < 1.0); // escapes local minima
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedAnnealing {
    initial_temperature: f64,
    cooling: f64,
    iterations_per_temperature: u64,
    temperature_levels: u64,
    /// Proposal standard deviation as a fraction of each dimension width.
    proposal_scale: f64,
    seed: u64,
    record_trace: bool,
    hook: HookHandle,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        Self {
            initial_temperature: 1.0,
            cooling: 0.93,
            iterations_per_temperature: 60,
            temperature_levels: 120,
            proposal_scale: 0.12,
            seed: 0x5AFE_0907,
            record_trace: false,
            hook: HookHandle::none(),
        }
    }
}

impl SimulatedAnnealing {
    /// Creates an annealer with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the starting temperature (relative to objective scale; the
    /// annealer auto-calibrates by multiplying with an initial value
    /// spread estimate).
    pub fn initial_temperature(mut self, t: f64) -> Self {
        self.initial_temperature = t;
        self
    }

    /// Sets the geometric cooling factor in `(0, 1)`.
    pub fn cooling(mut self, c: f64) -> Self {
        self.cooling = c;
        self
    }

    /// Sets proposals per temperature level.
    pub fn iterations_per_temperature(mut self, n: u64) -> Self {
        self.iterations_per_temperature = n;
        self
    }

    /// Sets the number of temperature levels.
    pub fn temperature_levels(mut self, n: u64) -> Self {
        self.temperature_levels = n;
        self
    }

    /// Sets the Gaussian proposal scale (fraction of dimension width).
    pub fn proposal_scale(mut self, s: f64) -> Self {
        self.proposal_scale = s;
        self
    }

    /// Sets the RNG seed (runs are deterministic given a seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Records a best-so-far trace point per temperature level.
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Installs a live per-temperature-level observer (see
    /// [`crate::TraceHook`]); fires whether or not a trace is recorded.
    pub fn with_trace_hook(mut self, hook: std::sync::Arc<dyn crate::TraceHook>) -> Self {
        self.hook = HookHandle::new(hook);
        self
    }

    fn validate(&self) -> Result<()> {
        if !(self.initial_temperature.is_finite() && self.initial_temperature > 0.0) {
            return Err(OptimError::InvalidConfig {
                option: "initial_temperature",
                requirement: "must be finite and > 0",
            });
        }
        if !(self.cooling > 0.0 && self.cooling < 1.0) {
            return Err(OptimError::InvalidConfig {
                option: "cooling",
                requirement: "must lie in (0, 1)",
            });
        }
        if self.iterations_per_temperature == 0 || self.temperature_levels == 0 {
            return Err(OptimError::InvalidConfig {
                option: "iterations",
                requirement: "levels and iterations per level must be >= 1",
            });
        }
        if !(self.proposal_scale.is_finite() && self.proposal_scale > 0.0) {
            return Err(OptimError::InvalidConfig {
                option: "proposal_scale",
                requirement: "must be finite and > 0",
            });
        }
        Ok(())
    }
}

/// Standard-normal variate via Box–Muller (two uniforms).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl Minimizer for SimulatedAnnealing {
    fn minimize(
        &self,
        objective: &dyn Objective,
        domain: &BoxDomain,
    ) -> Result<OptimizationOutcome> {
        self.validate()?;
        let f = CountingObjective::new(objective);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let widths = domain.widths();

        // Calibrate the temperature to the objective's value scale from a
        // handful of random probes.
        let mut current = domain.center();
        let mut f_current = f.eval_penalized(&current);
        let mut spread = 0.0f64;
        let mut probe_best = (current.clone(), f_current);
        for _ in 0..16 {
            let x = domain.sample(&mut rng);
            let v = f.eval_penalized(&x);
            if v < probe_best.1 {
                probe_best = (x.clone(), v);
            }
            if v.is_finite() && f_current.is_finite() {
                spread = spread.max((v - f_current).abs());
            }
        }
        if probe_best.1 < f_current {
            current = probe_best.0.clone();
            f_current = probe_best.1;
        }
        let mut best = current.clone();
        let mut f_best = f_current;
        let mut temperature = self.initial_temperature * spread.max(1e-12);

        let mut trace = Vec::new();
        let mut iterations = 0;

        for _level in 0..self.temperature_levels {
            iterations += 1;
            for _ in 0..self.iterations_per_temperature {
                let trial: Vec<f64> = current
                    .iter()
                    .zip(&widths)
                    .enumerate()
                    .map(|(i, (&xi, &w))| {
                        domain
                            .interval(i)
                            .clamp(xi + gaussian(&mut rng) * self.proposal_scale * w)
                    })
                    .collect();
                let f_trial = f.eval_penalized(&trial);
                let accept = if f_trial <= f_current {
                    true
                } else if temperature > 0.0 {
                    let delta = f_trial - f_current;
                    rng.gen::<f64>() < (-delta / temperature).exp()
                } else {
                    false
                };
                if accept {
                    current = trial;
                    f_current = f_trial;
                    if f_current < f_best {
                        best = current.clone();
                        f_best = f_current;
                    }
                }
            }
            temperature *= self.cooling;
            if self.record_trace || self.hook.is_set() {
                let point = TracePoint {
                    iteration: iterations,
                    evaluations: f.count(),
                    best_value: f_best,
                };
                self.hook.emit(0, &point);
                if self.record_trace {
                    trace.push(point);
                }
            }
        }

        if !f_best.is_finite() {
            return Err(OptimError::NoFiniteValue {
                evaluations: f.count(),
            });
        }
        Ok(OptimizationOutcome {
            best_x: best,
            best_value: f_best,
            evaluations: f.count(),
            iterations,
            termination: TerminationReason::MaxIterations,
            trace,
        })
    }

    fn name(&self) -> &'static str {
        "simulated-annealing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfns::{rastrigin, sphere};

    #[test]
    fn finds_near_global_minimum_of_rastrigin() {
        let domain = BoxDomain::from_bounds(&[(-5.12, 5.12), (-5.12, 5.12)]).unwrap();
        let out = SimulatedAnnealing::default()
            .seed(7)
            .minimize(&rastrigin, &domain)
            .unwrap();
        assert!(out.best_value < 1.1, "best = {}", out.best_value);
    }

    #[test]
    fn deterministic_given_seed() {
        let domain = BoxDomain::from_bounds(&[(-5.0, 5.0), (-5.0, 5.0)]).unwrap();
        let a = SimulatedAnnealing::default()
            .seed(123)
            .minimize(&sphere, &domain)
            .unwrap();
        let b = SimulatedAnnealing::default()
            .seed(123)
            .minimize(&sphere, &domain)
            .unwrap();
        assert_eq!(a.best_x, b.best_x);
        assert_eq!(a.best_value, b.best_value);
    }

    #[test]
    fn different_seeds_explore_differently() {
        // Asymmetric domain so the center start is not already optimal.
        let domain = BoxDomain::from_bounds(&[(-3.0, 5.12), (-5.12, 2.0)]).unwrap();
        let a = SimulatedAnnealing::default()
            .seed(1)
            .minimize(&rastrigin, &domain)
            .unwrap();
        let b = SimulatedAnnealing::default()
            .seed(2)
            .minimize(&rastrigin, &domain)
            .unwrap();
        // Both should be decent, but the trajectories differ.
        assert_ne!(a.best_x, b.best_x);
        assert!(a.best_value < 2.0 && b.best_value < 2.0);
    }

    #[test]
    fn stays_inside_domain() {
        let domain = BoxDomain::from_bounds(&[(0.0, 1.0), (10.0, 11.0)]).unwrap();
        let d2 = domain.clone();
        let f = move |x: &[f64]| {
            assert!(d2.contains(x), "outside: {x:?}");
            sphere(x)
        };
        SimulatedAnnealing::default().minimize(&f, &domain).unwrap();
    }

    #[test]
    fn rejects_bad_config() {
        let domain = BoxDomain::from_bounds(&[(0.0, 1.0)]).unwrap();
        assert!(SimulatedAnnealing::default()
            .cooling(1.5)
            .minimize(&sphere, &domain)
            .is_err());
        assert!(SimulatedAnnealing::default()
            .initial_temperature(-1.0)
            .minimize(&sphere, &domain)
            .is_err());
        assert!(SimulatedAnnealing::default()
            .proposal_scale(0.0)
            .minimize(&sphere, &domain)
            .is_err());
    }

    #[test]
    fn all_nan_objective_is_error() {
        let domain = BoxDomain::from_bounds(&[(0.0, 1.0)]).unwrap();
        assert!(matches!(
            SimulatedAnnealing::default().minimize(&|_: &[f64]| f64::NAN, &domain),
            Err(OptimError::NoFiniteValue { .. })
        ));
    }
}
