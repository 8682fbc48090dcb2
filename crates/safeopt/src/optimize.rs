//! The safety-optimization front-end.
//!
//! [`SafetyOptimizer`] wires a [`SafetyModel`] to any
//! [`safety_opt_optim::Minimizer`] and returns an
//! [`OptimalConfiguration`]: the arg-min point, its cost, and the hazard
//! probabilities there. The default strategy is the paper's gradient
//! method made to converge: multi-start projected quasi-Newton
//! ([`QuasiNewton`]) over a deterministic Halton scatter, its restarts
//! stepping in lockstep on batched analytic adjoint gradients.
//! [`ConfigurationComparison`] reports how the optimum improves on a
//! baseline configuration — the paper's headline
//! numbers ("~10 % improvement in false alarm risk, < 0.1 % change in
//! collision risk") are exactly such a comparison against the engineers'
//! initial 30-minute guesses.

use crate::model::SafetyModel;
use crate::param::ParameterPoint;
use crate::Result;
use safety_opt_optim::multistart::MultiStart;
use safety_opt_optim::quasi_newton::QuasiNewton;
use safety_opt_optim::{BatchDifferentiableObjective, Minimizer, OptimizationOutcome, TraceHook};
use std::sync::Arc;

/// The result of a safety optimization run.
#[derive(Debug, Clone)]
pub struct OptimalConfiguration {
    point: ParameterPoint,
    cost: f64,
    hazard_probabilities: Vec<f64>,
    outcome: OptimizationOutcome,
}

impl OptimalConfiguration {
    /// The optimal parameter configuration.
    pub fn point(&self) -> &ParameterPoint {
        &self.point
    }

    /// The minimal mean cost.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Hazard probabilities at the optimum (aligned with the model's
    /// hazards).
    pub fn hazard_probabilities(&self) -> &[f64] {
        &self.hazard_probabilities
    }

    /// The raw optimizer outcome (evaluations, termination, trace).
    pub fn outcome(&self) -> &OptimizationOutcome {
        &self.outcome
    }

    /// Post-processes a raw optimizer outcome into the front-end result
    /// (scalar-path hazard probabilities at the optimum, named point) —
    /// shared by every optimization driver so fleet-backed runs report
    /// exactly like model-backed ones.
    pub(crate) fn from_outcome(model: &SafetyModel, outcome: OptimizationOutcome) -> Result<Self> {
        let hazard_probabilities = model.hazard_probabilities(&outcome.best_x)?;
        let point = model.space_arc().point(outcome.best_x.clone())?;
        Ok(Self {
            point,
            cost: outcome.best_value,
            hazard_probabilities,
            outcome,
        })
    }
}

impl std::fmt::Display for OptimalConfiguration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "optimum at {} with mean cost {:.6e}",
            self.point, self.cost
        )
    }
}

/// Safety optimizer: model + minimization strategy.
///
/// ```no_run
/// use safety_opt_core::optimize::SafetyOptimizer;
/// use safety_opt_optim::grid::GridSearch;
/// # fn demo(model: &safety_opt_core::model::SafetyModel) -> Result<(), safety_opt_core::SafeOptError> {
/// // Default strategy:
/// let optimum = SafetyOptimizer::new(model).run()?;
/// // Or any custom minimizer:
/// let grid = GridSearch::new(301);
/// let optimum = SafetyOptimizer::new(model).with_minimizer(&grid).run()?;
/// # Ok(())
/// # }
/// ```
pub struct SafetyOptimizer<'m> {
    model: &'m SafetyModel,
    minimizer: Option<&'m dyn Minimizer>,
    batch_differentiable: Option<&'m dyn BatchDifferentiableObjective>,
    starts: usize,
    hook: Option<Arc<dyn TraceHook>>,
}

impl std::fmt::Debug for SafetyOptimizer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SafetyOptimizer")
            .field("model", &self.model)
            .field("custom_minimizer", &self.minimizer.is_some())
            .field("batch_differentiable", &self.batch_differentiable.is_some())
            .field("starts", &self.starts)
            .field("hook", &self.hook.is_some())
            .finish()
    }
}

impl<'m> SafetyOptimizer<'m> {
    /// Creates an optimizer with the default strategy: multi-start
    /// projected quasi-Newton ([`QuasiNewton`]) with 4 scattered starts,
    /// run in lockstep on the compiled model's batched adjoint
    /// gradients. Each start converges on its own, so the restarts only
    /// guard against separate basins.
    pub fn new(model: &'m SafetyModel) -> Self {
        Self {
            model,
            minimizer: None,
            batch_differentiable: None,
            starts: 4,
            hook: None,
        }
    }

    /// Overrides the minimization algorithm. Gradient-based algorithms
    /// (e.g. [`safety_opt_optim::gradient::GradientDescent`]) receive
    /// the compiled objective through
    /// [`Minimizer::minimize_differentiable`] and therefore consume the
    /// engine's analytic adjoint gradients — one tape sweep per
    /// gradient instead of `2·dim` finite-difference probes;
    /// derivative-free algorithms are unaffected.
    pub fn with_minimizer(mut self, minimizer: &'m dyn Minimizer) -> Self {
        self.minimizer = Some(minimizer);
        self
    }

    /// Supplies a precompiled **gradient-capable** batch objective (e.g.
    /// one model of a [`crate::fleet::CompiledFleet`] via
    /// [`crate::fleet::CompiledFleet::model_batch_objective`]) for the
    /// default strategy to run on instead of compiling the model
    /// internally. A custom [`with_minimizer`](Self::with_minimizer)
    /// takes precedence and ignores this hook.
    ///
    /// The supplied objective must be pointwise-equal to the model's
    /// compiled cost and gradient; the optimum is then bit-identical to
    /// the internal path's, and to running the same quasi-Newton
    /// restarts sequentially (see the fleet golden tests).
    pub fn with_batch_differentiable_objective(
        mut self,
        objective: &'m dyn BatchDifferentiableObjective,
    ) -> Self {
        self.batch_differentiable = Some(objective);
        self
    }

    /// Number of restarts used by the default strategy (ignored with a
    /// custom minimizer).
    pub fn starts(mut self, starts: usize) -> Self {
        self.starts = starts.max(1);
        self
    }

    /// Registers a convergence-trace observer on the default multi-start
    /// strategy: `hook` sees every restart's per-iteration best cost and
    /// evaluation count, tagged with the restart index (see
    /// [`safety_opt_optim::TraceHook`]). With a custom
    /// [`with_minimizer`](Self::with_minimizer) the hook is ignored —
    /// configure the minimizer's own
    /// `with_trace_hook` instead.
    pub fn with_trace_hook(mut self, hook: Arc<dyn TraceHook>) -> Self {
        self.hook = Some(hook);
        self
    }

    /// Runs the optimization.
    ///
    /// The cost function is compiled onto the evaluation engine first
    /// (see [`crate::compile`]) unless a batch objective was supplied.
    /// The default strategy then runs its quasi-Newton restarts in
    /// lockstep ([`MultiStart::minimize_batch`](MultiStart::<QuasiNewton>::minimize_batch)):
    /// each round is one value + gradient batch of every live restart's
    /// point on the engine's SoA adjoint sweep. A custom minimizer gets
    /// the compiled tape (with its quantized memo cache) through
    /// [`Minimizer::minimize_differentiable`]. The reported hazard
    /// probabilities at the optimum come from the scalar reference path.
    ///
    /// # Errors
    ///
    /// Model-validation errors and any optimizer error.
    pub fn run(self) -> Result<OptimalConfiguration> {
        self.model.validate()?;
        let domain = self.model.space().domain()?;

        let outcome = match self.minimizer {
            Some(m) => {
                let compiled = crate::compile::CompiledModel::compile(self.model)?;
                let f = compiled.objective(true);
                // The differentiable entry point: gradient-based
                // minimizers consume the compiled tape's analytic
                // adjoint gradients; derivative-free algorithms fall
                // through to plain `minimize` via the trait's default
                // implementation.
                m.minimize_differentiable(&f, &domain)?
            }
            None => {
                let mut ms = MultiStart::new(QuasiNewton::default(), self.starts);
                if let Some(hook) = &self.hook {
                    ms = ms.with_trace_hook(Arc::clone(hook));
                }
                match self.batch_differentiable {
                    Some(batch) => ms.minimize_batch(batch, &domain)?,
                    None => {
                        let compiled = crate::compile::CompiledModel::compile(self.model)?;
                        ms.minimize_batch(&compiled, &domain)?
                    }
                }
            }
        };

        OptimalConfiguration::from_outcome(self.model, outcome)
    }
}

/// Per-hazard delta between two configurations.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HazardDelta {
    /// Hazard name.
    pub hazard: String,
    /// Probability at the baseline configuration.
    pub baseline: f64,
    /// Probability at the candidate configuration.
    pub candidate: f64,
    /// Relative change `(candidate − baseline) / baseline` (0 when the
    /// baseline probability is 0).
    pub relative_change: f64,
}

/// Comparison of two configurations of the same model.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ConfigurationComparison {
    /// Baseline parameter values.
    pub baseline: Vec<f64>,
    /// Candidate parameter values.
    pub candidate: Vec<f64>,
    /// Cost at the baseline.
    pub baseline_cost: f64,
    /// Cost at the candidate.
    pub candidate_cost: f64,
    /// Per-hazard probability changes.
    pub hazards: Vec<HazardDelta>,
}

impl ConfigurationComparison {
    /// Compares `candidate` against `baseline` on `model`.
    ///
    /// # Errors
    ///
    /// Evaluation errors from the model (dimension mismatch, expression
    /// failures).
    pub fn compute(model: &SafetyModel, baseline: &[f64], candidate: &[f64]) -> Result<Self> {
        let base_probs = model.hazard_probabilities(baseline)?;
        let cand_probs = model.hazard_probabilities(candidate)?;
        let hazards = model
            .hazards()
            .iter()
            .zip(base_probs.iter().zip(&cand_probs))
            .map(|(h, (&b, &c))| HazardDelta {
                hazard: h.name().to_owned(),
                baseline: b,
                candidate: c,
                relative_change: if b > 0.0 { (c - b) / b } else { 0.0 },
            })
            .collect();
        Ok(Self {
            baseline: baseline.to_vec(),
            candidate: candidate.to_vec(),
            baseline_cost: model.cost(baseline)?,
            candidate_cost: model.cost(candidate)?,
            hazards,
        })
    }

    /// Relative cost improvement `(baseline − candidate) / baseline`
    /// (positive = candidate is better).
    pub fn cost_improvement(&self) -> f64 {
        if self.baseline_cost > 0.0 {
            (self.baseline_cost - self.candidate_cost) / self.baseline_cost
        } else {
            0.0
        }
    }

    /// Delta for one hazard by name.
    pub fn hazard(&self, name: &str) -> Option<&HazardDelta> {
        self.hazards.iter().find(|h| h.hazard == name)
    }
}

impl std::fmt::Display for ConfigurationComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cost: {:.6e} -> {:.6e} ({:+.2}%)",
            self.baseline_cost,
            self.candidate_cost,
            -100.0 * self.cost_improvement()
        )?;
        for h in &self.hazards {
            writeln!(
                f,
                "  {}: {:.6e} -> {:.6e} ({:+.2}%)",
                h.hazard,
                h.baseline,
                h.candidate,
                100.0 * h.relative_change
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Hazard;
    use crate::param::ParameterSpace;
    use crate::pprob::{constant, exposure, overtime};
    use safety_opt_optim::grid::GridSearch;
    use safety_opt_stats::dist::TruncatedNormal;

    fn model() -> SafetyModel {
        let mut space = ParameterSpace::new();
        let t = space.parameter("t", 5.0, 30.0).unwrap();
        let transit = TruncatedNormal::lower_bounded(4.0, 2.0, 0.0).unwrap();
        let collision = Hazard::builder("collision")
            .cut_set("ot", [overtime(transit, t)])
            .build();
        let alarm = Hazard::builder("alarm")
            .cut_set("hv", [constant(0.5).unwrap(), exposure(0.13, t)])
            .build();
        SafetyModel::new(space)
            .hazard(collision, 100_000.0)
            .hazard(alarm, 1.0)
    }

    #[test]
    fn default_strategy_finds_interior_optimum() {
        let optimum = SafetyOptimizer::new(&model()).run().unwrap();
        let t = optimum.point().value("t").unwrap();
        // Stationarity: 1e5·φ(t) = 0.5·0.13·e^{−0.13 t} has its root
        // around t ≈ 12–13 for N(4,2) truncated at 0.
        assert!(t > 10.0 && t < 16.0, "t* = {t}");
        assert!(optimum.cost() < 0.5);
        assert_eq!(optimum.hazard_probabilities().len(), 2);
    }

    #[test]
    fn custom_minimizer_agrees_with_default() {
        let m = model();
        let grid = GridSearch::new(2001);
        let by_grid = SafetyOptimizer::new(&m)
            .with_minimizer(&grid)
            .run()
            .unwrap();
        let by_default = SafetyOptimizer::new(&m).run().unwrap();
        let dt =
            (by_grid.point().value("t").unwrap() - by_default.point().value("t").unwrap()).abs();
        assert!(dt < 0.1, "grid vs quasi-newton differ by {dt}");
    }

    #[test]
    fn gradient_descent_via_front_end_uses_analytic_gradients() {
        use safety_opt_optim::gradient::GradientDescent;
        let m = model();
        let gd = GradientDescent::default();
        let optimum = SafetyOptimizer::new(&m).with_minimizer(&gd).run().unwrap();
        // Reference: the same algorithm forced onto finite differences.
        let compiled = crate::compile::CompiledModel::compile(&m).unwrap();
        let obj = compiled.objective(true);
        let domain = m.space().domain().unwrap();
        let fd = gd.minimize(&obj, &domain).unwrap();
        assert!(
            (optimum.cost() - fd.best_value).abs() < 1e-9,
            "same optimum: {} vs {}",
            optimum.cost(),
            fd.best_value
        );
        assert!(
            optimum.outcome().evaluations < fd.evaluations,
            "front-end run must ride the analytic path: {} vs {} evaluations",
            optimum.outcome().evaluations,
            fd.evaluations
        );
    }

    #[test]
    fn default_strategy_equals_sequential_quasi_newton_restarts() {
        use safety_opt_optim::multistart::MultiStart;
        use safety_opt_optim::quasi_newton::QuasiNewton;
        let m = model();
        let optimum = SafetyOptimizer::new(&m).run().unwrap();
        let compiled = crate::compile::CompiledModel::compile(&m).unwrap();
        let domain = m.space().domain().unwrap();
        let sequential = MultiStart::new(QuasiNewton::default(), 4)
            .minimize_differentiable(&compiled.objective(false), &domain)
            .unwrap();
        assert_eq!(optimum.point().values(), &sequential.best_x[..]);
        assert_eq!(optimum.cost().to_bits(), sequential.best_value.to_bits());
        assert_eq!(optimum.outcome().evaluations, sequential.evaluations);
        assert!(optimum.outcome().converged());
    }

    #[test]
    fn comparison_reports_improvements() {
        let m = model();
        let optimum = SafetyOptimizer::new(&m).run().unwrap();
        let baseline = vec![30.0];
        let cmp =
            ConfigurationComparison::compute(&m, &baseline, optimum.point().values()).unwrap();
        assert!(cmp.cost_improvement() > 0.0);
        let alarm = cmp.hazard("alarm").unwrap();
        assert!(alarm.relative_change < 0.0, "alarm risk should drop");
        assert!(cmp.hazard("nope").is_none());
        let shown = cmp.to_string();
        assert!(shown.contains("alarm"));
    }

    #[test]
    fn trace_hook_observes_every_restart() {
        use safety_opt_optim::CollectingHook;
        let m = model();
        let hook = Arc::new(CollectingHook::default());
        let starts = 4;
        let optimum = SafetyOptimizer::new(&m)
            .starts(starts)
            .with_trace_hook(hook.clone())
            .run()
            .unwrap();
        let collected = hook.collected();
        assert!(!collected.is_empty(), "hook saw no iterations");
        let restarts: std::collections::BTreeSet<u64> = collected.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            restarts.into_iter().collect::<Vec<_>>(),
            (0..starts as u64).collect::<Vec<_>>(),
            "every restart must emit trace points"
        );
        // The best traced value can never beat the reported optimum.
        let best_traced = collected
            .iter()
            .map(|(_, p)| p.best_value)
            .fold(f64::INFINITY, f64::min);
        assert!(best_traced >= optimum.cost() - 1e-12);
        // The hook must not perturb the optimization itself.
        let plain = SafetyOptimizer::new(&m).starts(starts).run().unwrap();
        assert_eq!(plain.cost().to_bits(), optimum.cost().to_bits());
    }

    #[test]
    fn empty_model_fails_fast() {
        let mut space = ParameterSpace::new();
        space.parameter("t", 0.0, 1.0).unwrap();
        let empty = SafetyModel::new(space);
        assert!(SafetyOptimizer::new(&empty).run().is_err());
    }

    #[test]
    fn display_formats() {
        let optimum = SafetyOptimizer::new(&model()).run().unwrap();
        let s = optimum.to_string();
        assert!(s.contains("optimum at"));
        assert!(s.contains("t = "));
    }
}
