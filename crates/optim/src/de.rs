//! Differential evolution (DE/rand/1/bin).
//!
//! Population-based global optimizer; the heavyweight option for safety
//! models whose cost surfaces have multiple competing configurations
//! (e.g. several locally-optimal maintenance schedules). Deterministic
//! under a fixed seed.

use crate::domain::BoxDomain;
use crate::trace::HookHandle;
use crate::{
    CountingObjective, Minimizer, Objective, OptimError, OptimizationOutcome, Result,
    TerminationReason, TracePoint,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Differential-evolution configuration.
///
/// ```
/// use safety_opt_optim::de::DifferentialEvolution;
/// use safety_opt_optim::domain::BoxDomain;
/// use safety_opt_optim::Minimizer;
///
/// # fn main() -> Result<(), safety_opt_optim::OptimError> {
/// let domain = BoxDomain::from_bounds(&[(-5.12, 5.12), (-5.12, 5.12)])?;
/// let out = DifferentialEvolution::default()
///     .seed(42)
///     .minimize(&safety_opt_optim::testfns::rastrigin, &domain)?;
/// assert!(out.best_value < 1e-4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentialEvolution {
    population: usize,
    /// Differential weight `F`.
    weight: f64,
    /// Crossover probability `CR`.
    crossover: f64,
    generations: u64,
    /// Early-stop tolerance on the population value spread.
    f_tol: f64,
    seed: u64,
    record_trace: bool,
    hook: HookHandle,
}

impl Default for DifferentialEvolution {
    fn default() -> Self {
        Self {
            population: 40,
            weight: 0.7,
            crossover: 0.9,
            generations: 300,
            f_tol: 1e-12,
            seed: 0xDE_2004,
            record_trace: false,
            hook: HookHandle::none(),
        }
    }
}

impl DifferentialEvolution {
    /// Creates an optimizer with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the population size (≥ 4).
    pub fn population(mut self, n: usize) -> Self {
        self.population = n;
        self
    }

    /// Sets the differential weight `F` in `(0, 2]`.
    pub fn weight(mut self, f: f64) -> Self {
        self.weight = f;
        self
    }

    /// Sets the crossover probability `CR` in `[0, 1]`.
    pub fn crossover(mut self, cr: f64) -> Self {
        self.crossover = cr;
        self
    }

    /// Sets the generation budget.
    pub fn generations(mut self, n: u64) -> Self {
        self.generations = n;
        self
    }

    /// Sets the early-stop population-spread tolerance.
    pub fn f_tol(mut self, tol: f64) -> Self {
        self.f_tol = tol;
        self
    }

    /// Sets the RNG seed (runs are deterministic given a seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Records a best-so-far trace point per generation.
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Installs a live per-generation observer (see [`crate::TraceHook`]);
    /// fires whether or not a trace is recorded.
    pub fn with_trace_hook(mut self, hook: std::sync::Arc<dyn crate::TraceHook>) -> Self {
        self.hook = HookHandle::new(hook);
        self
    }

    fn validate(&self) -> Result<()> {
        if self.population < 4 {
            return Err(OptimError::InvalidConfig {
                option: "population",
                requirement: "must be >= 4",
            });
        }
        if !(self.weight > 0.0 && self.weight <= 2.0) {
            return Err(OptimError::InvalidConfig {
                option: "weight",
                requirement: "must lie in (0, 2]",
            });
        }
        if !(0.0..=1.0).contains(&self.crossover) {
            return Err(OptimError::InvalidConfig {
                option: "crossover",
                requirement: "must lie in [0, 1]",
            });
        }
        if self.generations == 0 {
            return Err(OptimError::InvalidConfig {
                option: "generations",
                requirement: "must be >= 1",
            });
        }
        if !(self.f_tol.is_finite() && self.f_tol >= 0.0) {
            return Err(OptimError::InvalidConfig {
                option: "f_tol",
                requirement: "must be finite and >= 0",
            });
        }
        Ok(())
    }
}

impl Minimizer for DifferentialEvolution {
    fn minimize(
        &self,
        objective: &dyn Objective,
        domain: &BoxDomain,
    ) -> Result<OptimizationOutcome> {
        self.validate()?;
        let f = CountingObjective::new(objective);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = domain.dim();
        let np = self.population;

        let mut pop: Vec<Vec<f64>> = (0..np).map(|_| domain.sample(&mut rng)).collect();
        let mut values: Vec<f64> = pop.iter().map(|x| f.eval_penalized(x)).collect();

        let mut trace = Vec::new();
        let mut iterations = 0;
        let mut termination = TerminationReason::MaxIterations;

        for _gen in 0..self.generations {
            iterations += 1;
            for i in 0..np {
                // Pick three distinct indices ≠ i.
                let mut pick = || loop {
                    let k = rng.gen_range(0..np);
                    if k != i {
                        return k;
                    }
                };
                let (a, b, c) = {
                    let a = pick();
                    let b = loop {
                        let k = pick();
                        if k != a {
                            break k;
                        }
                    };
                    let c = loop {
                        let k = pick();
                        if k != a && k != b {
                            break k;
                        }
                    };
                    (a, b, c)
                };
                // Mutation + binomial crossover.
                let forced = rng.gen_range(0..n);
                let mut trial = pop[i].clone();
                for j in 0..n {
                    if j == forced || rng.gen::<f64>() < self.crossover {
                        let v = pop[a][j] + self.weight * (pop[b][j] - pop[c][j]);
                        trial[j] = domain.interval(j).clamp(v);
                    }
                }
                let ft = f.eval_penalized(&trial);
                if ft <= values[i] {
                    pop[i] = trial;
                    values[i] = ft;
                }
            }
            let (min_v, max_v) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            if self.record_trace || self.hook.is_set() {
                let point = TracePoint {
                    iteration: iterations,
                    evaluations: f.count(),
                    best_value: min_v,
                };
                self.hook.emit(0, &point);
                if self.record_trace {
                    trace.push(point);
                }
            }
            if max_v.is_finite() && (max_v - min_v) <= self.f_tol {
                termination = TerminationReason::Converged;
                break;
            }
        }

        let (best_idx, &best_value) = values
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .expect("population non-empty");
        if !best_value.is_finite() {
            return Err(OptimError::NoFiniteValue {
                evaluations: f.count(),
            });
        }
        Ok(OptimizationOutcome {
            best_x: pop[best_idx].clone(),
            best_value,
            evaluations: f.count(),
            iterations,
            termination,
            trace,
        })
    }

    fn name(&self) -> &'static str {
        "differential-evolution"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfns::{rastrigin, rosenbrock, sphere};

    #[test]
    fn solves_rastrigin_globally() {
        let domain = BoxDomain::from_bounds(&[(-5.12, 5.12), (-5.12, 5.12)]).unwrap();
        let out = DifferentialEvolution::default()
            .seed(3)
            .minimize(&rastrigin, &domain)
            .unwrap();
        assert!(out.best_value < 1e-4, "best = {}", out.best_value);
    }

    #[test]
    fn solves_rosenbrock() {
        let domain = BoxDomain::from_bounds(&[(-5.0, 5.0), (-5.0, 5.0)]).unwrap();
        let out = DifferentialEvolution::default()
            .generations(600)
            .minimize(&rosenbrock, &domain)
            .unwrap();
        assert!(out.best_value < 1e-6, "best = {}", out.best_value);
    }

    #[test]
    fn deterministic_given_seed() {
        let domain = BoxDomain::from_bounds(&[(-5.0, 5.0); 3]).unwrap();
        let a = DifferentialEvolution::default()
            .seed(9)
            .minimize(&sphere, &domain)
            .unwrap();
        let b = DifferentialEvolution::default()
            .seed(9)
            .minimize(&sphere, &domain)
            .unwrap();
        assert_eq!(a.best_x, b.best_x);
    }

    #[test]
    fn early_stops_when_population_collapses() {
        let domain = BoxDomain::from_bounds(&[(-1.0, 1.0)]).unwrap();
        let out = DifferentialEvolution::default()
            .f_tol(1e-9)
            .minimize(&sphere, &domain)
            .unwrap();
        assert_eq!(out.termination, TerminationReason::Converged);
        assert!(out.iterations < 300);
    }

    #[test]
    fn rejects_bad_config() {
        let domain = BoxDomain::from_bounds(&[(0.0, 1.0)]).unwrap();
        assert!(DifferentialEvolution::default()
            .population(3)
            .minimize(&sphere, &domain)
            .is_err());
        assert!(DifferentialEvolution::default()
            .weight(0.0)
            .minimize(&sphere, &domain)
            .is_err());
        assert!(DifferentialEvolution::default()
            .crossover(1.5)
            .minimize(&sphere, &domain)
            .is_err());
    }

    #[test]
    fn stays_inside_domain() {
        let domain = BoxDomain::from_bounds(&[(0.0, 1.0), (5.0, 6.0)]).unwrap();
        let d2 = domain.clone();
        let f = move |x: &[f64]| {
            assert!(d2.contains(x), "outside: {x:?}");
            sphere(x)
        };
        DifferentialEvolution::default()
            .generations(20)
            .minimize(&f, &domain)
            .unwrap();
    }
}
