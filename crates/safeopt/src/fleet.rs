//! Fleet compilation of safety-model families.
//!
//! Monte-Carlo uncertainty ([`crate::uncertainty`]) and scenario studies
//! optimize *populations* of sampled models that share almost all of
//! their structure. [`CompiledFleet`] lowers every model of such a
//! family into one [`safety_opt_engine::fleet::Fleet`]: ops are
//! hash-consed **across models**, so the shared structure compiles and
//! evaluates once no matter how many variants reference it, while each
//! model's results stay bit-identical to compiling it alone with
//! [`crate::compile::CompiledModel`] (the equivalence property suites in
//! `engine` and this crate enforce 0-ULP agreement for every thread
//! count).
//!
//! ```
//! use safety_opt_core::fleet::CompiledFleet;
//! # use safety_opt_core::model::{Hazard, SafetyModel};
//! # use safety_opt_core::param::ParameterSpace;
//! # use safety_opt_core::pprob::{constant, exposure};
//!
//! # fn main() -> Result<(), safety_opt_core::SafeOptError> {
//! // A tiny family: three sampled models differing in one rate.
//! let mut models = Vec::new();
//! for rate in [0.10, 0.12, 0.14] {
//!     let mut space = ParameterSpace::new();
//!     let t = space.parameter("t", 0.0, 30.0)?;
//!     let h = Hazard::builder("alarm")
//!         .cut_set("hv", [constant(0.5)?, exposure(rate, t)])
//!         .build();
//!     models.push(SafetyModel::new(space).hazard(h, 1000.0));
//! }
//! let fleet = CompiledFleet::compile(&models)?;
//! assert_eq!(fleet.n_models(), 3);
//! // One arena sweep per point yields every model's cost and hazards.
//! let (costs, hazards) = fleet.cost_and_hazards_all(&[vec![10.0]])?;
//! assert_eq!(costs.len(), 3);
//! assert_eq!(hazards.len(), 3);
//! assert!(costs.windows(2).all(|w| w[0] < w[1]), "higher rate, higher cost");
//! # Ok(())
//! # }
//! ```

use crate::compile::{feasible, infinite_if_not_finite, lower_hazard};
use crate::model::SafetyModel;
use crate::{Result, SafeOptError};
use safety_opt_engine::fleet::{Fleet, FleetBuilder, FleetEvaluator, FleetScratch};
use safety_opt_engine::hash::FxHashMap;
use safety_opt_engine::{
    faultinject, CompileBudget, CompileStats, EngineError, EvalDeadline, Value,
};
use std::ops::Range;
use std::sync::Arc;

/// A family of safety models compiled into one shared-arena fleet.
///
/// Cheap to clone (the fleet is shared). The models must agree on
/// parameter-space dimension; their hazard counts may differ. Batch
/// entry points sweep each chunk lane-blocked; results are
/// bit-identical for every thread count.
///
/// Every batch method returns worker panics and expired deadlines as
/// [`SafeOptError::Engine`] instead of panicking, with the
/// all-or-nothing contract of [`crate::compile::CompiledModel`].
#[derive(Debug, Clone)]
pub struct CompiledFleet {
    fleet: Arc<Fleet>,
    threads: usize,
    /// Cooperative deadline of every batch method (see
    /// [`with_deadline`](Self::with_deadline)).
    deadline: Option<EvalDeadline>,
}

impl CompiledFleet {
    /// Compiles `models` with default parallelism for batches
    /// ([`safety_opt_engine::default_threads`]).
    ///
    /// # Errors
    ///
    /// [`SafeOptError::DimensionMismatch`] for inconsistent parameter
    /// dimensions, [`SafeOptError::UnknownParameter`] for expressions
    /// referencing parameters outside their model's space, and an
    /// invalid-config error for an empty family.
    pub fn compile(models: &[SafetyModel]) -> Result<Self> {
        Self::compile_with_threads(models, safety_opt_engine::default_threads())
    }

    /// Compiles `models` with an explicit batch worker count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`compile`](Self::compile).
    pub fn compile_with_threads(models: &[SafetyModel], threads: usize) -> Result<Self> {
        let _scope = safety_opt_telemetry::TraceScope::enter("compile.fleet");
        let Some(first) = models.first() else {
            return Err(SafeOptError::Optim(
                safety_opt_optim::OptimError::InvalidConfig {
                    option: "models",
                    requirement: "fleet needs at least one model",
                },
            ));
        };
        let dim = first.space().len();
        let mut builder = FleetBuilder::new(dim);
        for model in models {
            lower_model_into(&mut builder, model, dim)?;
            builder.finish_model();
        }
        Ok(Self {
            fleet: Arc::new(builder.build()),
            threads: threads.max(1),
            deadline: None,
        })
    }

    /// Fault-tolerant compilation: models that fail to lower (foreign
    /// parameter ids, parameter-dimension mismatch with the first model)
    /// are rolled back and reported per slot instead of failing the
    /// whole family — the hook for Monte-Carlo loops that tolerate bad
    /// samples. Returns the fleet (absent when *no* model compiled) and,
    /// per input model, its fleet index or its compile error.
    #[allow(clippy::type_complexity)]
    pub fn compile_partial(
        models: &[SafetyModel],
        threads: usize,
    ) -> (Option<Self>, Vec<std::result::Result<usize, SafeOptError>>) {
        let _scope = safety_opt_telemetry::TraceScope::enter("compile.fleet");
        let Some(first) = models.first() else {
            return (None, Vec::new());
        };
        let dim = first.space().len();
        let mut builder = FleetBuilder::new(dim);
        let mut slots = Vec::with_capacity(models.len());
        for model in models {
            match lower_model_into(&mut builder, model, dim) {
                Ok(()) => slots.push(Ok(builder.finish_model())),
                Err(e) => {
                    builder.abort_model();
                    slots.push(Err(e));
                }
            }
        }
        if slots.iter().all(|s| s.is_err()) {
            return (None, slots);
        }
        let fleet = Self {
            fleet: Arc::new(builder.build()),
            threads: threads.max(1),
            deadline: None,
        };
        (Some(fleet), slots)
    }

    /// The underlying engine fleet.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Per-op sweep-time attribution for the fleet's shared arena tape,
    /// populated only under `SAFETY_OPT_TELEMETRY=profile` (every evaluator
    /// and worker thread sweeping this fleet accumulates into the same
    /// cells).
    pub fn profile_report(&self) -> safety_opt_engine::ProfileReport {
        self.fleet.tape().profile_report()
    }

    /// Number of models in the fleet.
    pub fn n_models(&self) -> usize {
        self.fleet.n_models()
    }

    /// Number of parameters every model expects.
    pub fn dim(&self) -> usize {
        self.fleet.n_inputs()
    }

    /// Number of hazards of `model`.
    pub fn n_hazards(&self, model: usize) -> usize {
        self.fleet.n_outputs(model)
    }

    /// Columns of `model` in the flat all-models hazard row.
    pub fn hazard_range(&self, model: usize) -> Range<usize> {
        self.fleet.output_range(model)
    }

    /// Configured batch worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Fraction of per-model ops saved by cross-model hash-consing.
    pub fn sharing(&self) -> f64 {
        self.fleet.sharing()
    }

    /// Compile-time statistics of the shared arena (ops requested vs
    /// emitted, constant folds, hash-consing hits, fused ops). Recorded
    /// unconditionally — independent of the `SAFETY_OPT_TELEMETRY` mode.
    pub fn compile_stats(&self) -> CompileStats {
        self.fleet.compile_stats()
    }

    fn check_points(&self, points: &[Vec<f64>]) -> Result<()> {
        for p in points {
            if p.len() != self.dim() {
                return Err(SafeOptError::DimensionMismatch {
                    expected: self.dim(),
                    got: p.len(),
                });
            }
        }
        Ok(())
    }

    /// Costs of **every model** at every point (point-major,
    /// `points.len() × n_models`), one arena sweep per point, evaluated
    /// in parallel with deterministic chunking.
    ///
    /// # Errors
    ///
    /// [`SafeOptError::DimensionMismatch`] for wrong-arity points;
    /// [`SafeOptError::Engine`] for isolated worker panics
    /// ([`EngineError::WorkerPanicked`]) and expired deadlines
    /// ([`EngineError::DeadlineExceeded`]).
    pub fn costs_all(&self, points: &[Vec<f64>]) -> Result<Vec<f64>> {
        self.check_points(points)?;
        Ok(self.evaluator().costs_all(points)?)
    }

    /// Costs **and** hazard probabilities of every model at every point.
    /// Returns `(costs, hazards)`: `costs` point-major
    /// (`points.len() × n_models`), `hazards` point-major with each
    /// model occupying its [`hazard_range`](Self::hazard_range) columns.
    ///
    /// # Errors
    ///
    /// Same conditions as [`costs_all`](Self::costs_all).
    pub fn cost_and_hazards_all(&self, points: &[Vec<f64>]) -> Result<(Vec<f64>, Vec<f64>)> {
        self.check_points(points)?;
        Ok(self.evaluator().costs_and_outputs_all(points)?)
    }

    /// Costs of **one model** at every point through its reachability
    /// mask — bit-identical to that model's standalone
    /// [`crate::compile::CompiledModel::cost_batch`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`costs_all`](Self::costs_all).
    pub fn model_cost_batch(&self, model: usize, points: &[Vec<f64>]) -> Result<Vec<f64>> {
        self.check_points(points)?;
        Ok(self.evaluator().model_costs(model, points)?)
    }

    /// Costs **and** analytic cost gradients of **one model** at every
    /// point via the masked reverse-mode adjoint sweep, sharded across
    /// the deterministic chunked pool (`grads` is row-major,
    /// `points.len() × dim`) — bit-identical to that model's standalone
    /// [`crate::compile::CompiledModel::gradient_batch`] for every
    /// thread count and lane width.
    ///
    /// # Errors
    ///
    /// Same conditions as [`costs_all`](Self::costs_all).
    pub fn model_gradient_batch(
        &self,
        model: usize,
        points: &[Vec<f64>],
    ) -> Result<(Vec<f64>, Vec<f64>)> {
        self.check_points(points)?;
        Ok(self.evaluator().model_grads(model, points)?)
    }

    /// The fleet evaluator every batch entry point routes through.
    fn evaluator(&self) -> FleetEvaluator<'_> {
        let ev = FleetEvaluator::new(&self.fleet, self.threads);
        match self.deadline {
            Some(deadline) => ev.deadline(deadline),
            None => ev,
        }
    }

    /// This fleet with a cooperative [`EvalDeadline`] on every batch
    /// method, checked before each chunk starts: once it has passed, a
    /// batch fails with [`SafeOptError::Engine`]`(`
    /// [`EngineError::DeadlineExceeded`]`)`. A cheap clone; the arena
    /// is shared.
    pub fn with_deadline(&self, deadline: EvalDeadline) -> Self {
        Self {
            deadline: Some(deadline),
            ..self.clone()
        }
    }

    /// This fleet with every batch evaluated inline on the calling
    /// thread: what each worker of a model-parallel study sweeps with,
    /// so nested pools never oversubscribe the cores (results are
    /// bit-identical for every thread count).
    pub(crate) fn single_threaded(&self) -> Self {
        Self {
            threads: 1,
            ..self.clone()
        }
    }

    /// One model's compiled cost as a
    /// [`safety_opt_optim::BatchDifferentiableObjective`] — the hook the
    /// lockstep multi-start drivers plug into.
    pub fn model_batch_objective(&self, model: usize) -> FleetModelBatchObjective {
        FleetModelBatchObjective {
            fleet: self.clone(),
            model,
            scratch: FleetScratch::new(),
        }
    }
}

/// Lowers one model into the shared fleet arena, mirroring
/// [`crate::compile::CompiledModel`]'s lowering exactly.
///
/// A fresh expression memo per model means every node is demanded
/// through the tape builder, which both hash-conses across models and
/// keeps this model's canonicalization order equal to a standalone
/// compile. On error the caller must roll back with
/// [`FleetBuilder::abort_model`].
fn lower_model_into(builder: &mut FleetBuilder, model: &SafetyModel, dim: usize) -> Result<()> {
    if faultinject::should_fail(faultinject::sites::FLEET_BUILD) {
        return Err(SafeOptError::Engine(EngineError::FaultInjected {
            site: faultinject::sites::FLEET_BUILD,
        }));
    }
    let space = model.space_arc();
    if space.len() != dim {
        return Err(SafeOptError::DimensionMismatch {
            expected: dim,
            got: space.len(),
        });
    }
    let mut memo: FxHashMap<usize, Value> = FxHashMap::default();
    let quant = model.quant_method();
    for (hazard, &cost) in model.hazards().iter().zip(model.costs()) {
        let b = builder.lowerer();
        let hazard_value = lower_hazard(
            b,
            &mut memo,
            &space,
            hazard,
            quant,
            &CompileBudget::UNLIMITED,
        )?;
        b.output(hazard_value, cost);
    }
    Ok(())
}

/// One fleet model's cost as a [`safety_opt_optim::BatchObjective`]:
/// one parallel masked sweep per round, through the checked
/// [`CompiledFleet::model_cost_batch`] /
/// [`CompiledFleet::model_gradient_batch`] path.
///
/// Optimizer rounds are small (a lockstep round holds one probe per
/// live restart), so most calls run inline on the calling thread. The
/// objective keeps that inline path's sweep buffers (arena scratch,
/// output rows, lane and adjoint files) in one [`FleetScratch`] and
/// reuses them call after call; only a batch larger than one pool chunk
/// spawns workers, each with buffers of its own. A call that fails or
/// panics drops the buffers it held instead of returning them, so no
/// later call sees a half-written one. Results are bit-identical to a
/// fresh evaluator on every call.
#[derive(Debug)]
pub struct FleetModelBatchObjective {
    fleet: CompiledFleet,
    model: usize,
    scratch: FleetScratch,
}

impl FleetModelBatchObjective {
    fn evaluator(&self) -> FleetEvaluator<'_> {
        self.fleet.evaluator().reuse_scratch(&self.scratch)
    }

    /// [`CompiledFleet::model_cost_batch`] on the kept sweep buffers.
    fn costs(&self, points: &[Vec<f64>]) -> Result<Vec<f64>> {
        self.fleet.check_points(points)?;
        Ok(self.evaluator().model_costs(self.model, points)?)
    }

    /// [`CompiledFleet::model_gradient_batch`] on the kept sweep
    /// buffers.
    fn grads(&self, points: &[Vec<f64>]) -> Result<(Vec<f64>, Vec<f64>)> {
        self.fleet.check_points(points)?;
        Ok(self.evaluator().model_grads(self.model, points)?)
    }
}

/// Values map non-finite to `∞`, and a wrong-arity batch is infeasible
/// (all `∞`), like [`crate::compile::CompiledObjective`]'s `eval`; engine
/// errors re-raise, so a worker panic resumes with its own payload.
impl safety_opt_optim::BatchObjective for FleetModelBatchObjective {
    fn eval_batch(&self, points: &[Vec<f64>], out: &mut Vec<f64>) {
        *out = feasible(self.costs(points)).unwrap_or_else(|| vec![f64::NAN; points.len()]);
        infinite_if_not_finite(out);
    }
}

/// The batched analytic-gradient hook the lockstep gradient drivers
/// (quasi-Newton and gradient descent,
/// [`safety_opt_optim::multistart::MultiStart::minimize_batch`]) plug
/// into: one parallel masked adjoint sweep per round — and within
/// each worker, the engine's lane-blocked SoA adjoint path. Values map
/// non-finite to `∞` and gradients stay poisoned, pointwise identical
/// to the standalone [`crate::compile::CompiledObjective`]'s sequential
/// `value_grad`; a wrong-arity batch is infeasible (`∞` values, NaN
/// gradients).
impl safety_opt_optim::BatchDifferentiableObjective for FleetModelBatchObjective {
    fn eval_grad_batch(&self, points: &[Vec<f64>], values: &mut Vec<f64>, grads: &mut Vec<f64>) {
        (*values, *grads) = feasible(self.grads(points)).unwrap_or_else(|| {
            (
                vec![f64::NAN; points.len()],
                vec![f64::NAN; points.len() * self.fleet.dim()],
            )
        });
        infinite_if_not_finite(values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledModel;
    use crate::model::Hazard;
    use crate::param::ParameterSpace;
    use crate::pprob::{complement, constant, exposure, from_fn, overtime, ProbExpr};
    use safety_opt_optim::{
        BatchDifferentiableObjective as _, BatchObjective as _, DifferentiableObjective as _,
        Objective as _,
    };
    use safety_opt_stats::dist::TruncatedNormal;

    fn family_member(lambda: f64, shared_alarm: &ProbExpr) -> SafetyModel {
        let mut space = ParameterSpace::new();
        let t1 = space.parameter("t1", 5.0, 30.0).unwrap();
        let t2 = space.parameter("t2", 5.0, 30.0).unwrap();
        let transit = TruncatedNormal::lower_bounded(4.0, 2.0, 0.0).unwrap();
        let collision = Hazard::builder("collision")
            .residual("rest", 1e-8)
            .cut_set("ot1", [constant(1e-3).unwrap(), overtime(transit, t1)])
            .cut_set(
                "ot2",
                [
                    constant(1e-3).unwrap(),
                    complement(overtime(transit, t1)),
                    overtime(transit, t2),
                ],
            )
            .build();
        let alarm = Hazard::builder("alarm")
            .cut_set("hv", [shared_alarm.clone(), exposure(lambda, t2)])
            .build();
        SafetyModel::new(space)
            .hazard(collision, 100_000.0)
            .hazard(alarm, 1.0)
    }

    fn family(n: usize) -> Vec<SafetyModel> {
        let shared = constant(0.5).unwrap();
        (0..n)
            .map(|k| family_member(0.10 + 0.005 * k as f64, &shared))
            .collect()
    }

    fn grid_points() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        let mut t1 = 5.0;
        while t1 <= 30.0 {
            pts.push(vec![t1, 35.0 - t1]);
            t1 += 0.83;
        }
        pts
    }

    #[test]
    fn fleet_matches_per_model_compilation_bitwise() {
        let models = family(6);
        let fleet = CompiledFleet::compile_with_threads(&models, 3).unwrap();
        let points = grid_points();
        let (costs, hazards) = fleet.cost_and_hazards_all(&points).unwrap();
        for (k, model) in models.iter().enumerate() {
            let compiled = CompiledModel::compile_with_threads(model, 1).unwrap();
            let (mc, mh) = compiled.cost_and_hazards_batch(&points).unwrap();
            let batch = fleet.model_cost_batch(k, &points).unwrap();
            for (i, p) in points.iter().enumerate() {
                assert_eq!(
                    costs[i * 6 + k].to_bits(),
                    mc[i].to_bits(),
                    "cost of model {k} at {p:?}"
                );
                assert_eq!(batch[i].to_bits(), mc[i].to_bits());
                let range = fleet.hazard_range(k);
                let width = fleet.fleet().total_outputs();
                for h in 0..2 {
                    assert_eq!(
                        hazards[i * width + range.start + h].to_bits(),
                        mh[i * 2 + h].to_bits(),
                        "hazard {h} of model {k} at {p:?}"
                    );
                }
            }
        }
        // The collision subtree is shared by all six models.
        assert!(fleet.sharing() > 0.4, "sharing = {}", fleet.sharing());
    }

    #[test]
    fn fleet_objectives_match_compiled_objectives() {
        let models = family(3);
        let fleet = CompiledFleet::compile_with_threads(&models, 2).unwrap();
        for (k, model) in models.iter().enumerate() {
            let compiled = CompiledModel::compile_with_threads(model, 1).unwrap();
            let single = compiled.objective(false);
            // Batch objective agrees pointwise.
            let bo = fleet.model_batch_objective(k);
            let pts = grid_points();
            let mut out = Vec::new();
            bo.eval_batch(&pts, &mut out);
            for (p, &v) in pts.iter().zip(&out) {
                assert_eq!(v.to_bits(), single.eval(p).to_bits());
            }
        }
    }

    #[test]
    fn soa_backend_matches_scalar_bitwise() {
        let models = family(4);
        let soa = CompiledFleet::compile_with_threads(&models, 2).unwrap();
        let points = grid_points();
        // Pointwise oracle: one arena sweep per point.
        let arena = soa.fleet();
        let (n_models, width) = (arena.n_models(), arena.total_outputs());
        let mut scratch = Vec::new();
        let mut sc = vec![0.0; points.len() * n_models];
        let mut sh = vec![0.0; points.len() * width];
        for ((p, c), h) in points
            .iter()
            .zip(sc.chunks_mut(n_models))
            .zip(sh.chunks_mut(width))
        {
            arena.eval_all_into(p, &mut scratch, c, h);
        }
        let (fc, fh) = soa.cost_and_hazards_all(&points).unwrap();
        assert_eq!(sc, fc);
        assert_eq!(sh, fh);
        for k in 0..4 {
            let pointwise: Vec<f64> = (0..points.len()).map(|i| sc[i * n_models + k]).collect();
            assert_eq!(
                pointwise,
                soa.model_cost_batch(k, &points).unwrap(),
                "model {k}"
            );
            let mut b = Vec::new();
            soa.model_batch_objective(k).eval_batch(&points, &mut b);
            assert_eq!(pointwise, b, "batch objective, model {k}");
        }
    }

    #[test]
    fn fleet_gradients_match_per_model_compilation_bitwise() {
        let models = family(5);
        let points = grid_points();
        let fleet = CompiledFleet::compile_with_threads(&models, 3).unwrap();
        for (k, model) in models.iter().enumerate() {
            let compiled = CompiledModel::compile_with_threads(model, 1).unwrap();
            let (sv, sg) = compiled.gradient_batch(&points).unwrap();
            let (fv, fg) = fleet.model_gradient_batch(k, &points).unwrap();
            assert_eq!(sv, fv, "values, model {k}");
            for (a, b) in sg.iter().zip(&fg) {
                assert_eq!(a.to_bits(), b.to_bits(), "grads, model {k}");
            }
        }
    }

    #[test]
    fn fleet_differentiable_objectives_match_compiled_value_grad() {
        let models = family(3);
        let fleet = CompiledFleet::compile_with_threads(&models, 2).unwrap();
        let points = grid_points();
        for (k, model) in models.iter().enumerate() {
            let compiled = CompiledModel::compile_with_threads(model, 1).unwrap();
            let single = compiled.objective(false);
            let mut gs = vec![0.0; 2];
            // Batch gradient hook agrees pointwise with the standalone
            // model's sequential value_grad (the lockstep-vs-sequential
            // invariant).
            let bo = fleet.model_batch_objective(k);
            let mut values = Vec::new();
            let mut grads = Vec::new();
            bo.eval_grad_batch(&points, &mut values, &mut grads);
            for (i, p) in points.iter().enumerate() {
                let v = single.value_grad(p, &mut gs);
                assert_eq!(values[i].to_bits(), v.to_bits(), "batch value {i}");
                for (a, b) in grads[i * 2..i * 2 + 2].iter().zip(&gs) {
                    assert_eq!(a.to_bits(), b.to_bits(), "batch grad {i}");
                }
            }
        }
    }

    #[test]
    fn gd_lockstep_on_the_fleet_equals_sequential_gd() {
        use safety_opt_optim::gradient::GradientDescent;
        use safety_opt_optim::multistart::MultiStart;
        use safety_opt_optim::Minimizer;

        let models = family(3);
        let fleet = CompiledFleet::compile_with_threads(&models, 2).unwrap();
        let domain = models[0].space().domain().unwrap();
        for (k, model) in models.iter().enumerate() {
            let lockstep = MultiStart::new(GradientDescent::default(), 3)
                .minimize_batch(&fleet.model_batch_objective(k), &domain)
                .unwrap();
            let standalone = CompiledModel::compile_with_threads(model, 1).unwrap();
            let sequential = MultiStart::new(GradientDescent::default(), 3)
                .minimize_differentiable(&standalone.objective(false), &domain)
                .unwrap();
            assert_eq!(lockstep.best_x, sequential.best_x, "model {k}");
            assert_eq!(
                lockstep.best_value.to_bits(),
                sequential.best_value.to_bits(),
                "model {k}"
            );
            assert_eq!(lockstep.evaluations, sequential.evaluations, "model {k}");
            assert_eq!(lockstep.iterations, sequential.iterations, "model {k}");
            assert_eq!(lockstep.termination, sequential.termination, "model {k}");
        }
    }

    #[test]
    fn qn_lockstep_on_the_fleet_equals_sequential_qn() {
        use safety_opt_optim::multistart::MultiStart;
        use safety_opt_optim::quasi_newton::QuasiNewton;
        use safety_opt_optim::Minimizer;

        let models = family(3);
        let fleet = CompiledFleet::compile_with_threads(&models, 2).unwrap();
        let domain = models[0].space().domain().unwrap();
        for (k, model) in models.iter().enumerate() {
            let ms = MultiStart::new(QuasiNewton::default(), 4);
            let lockstep = ms
                .minimize_batch(&fleet.model_batch_objective(k), &domain)
                .unwrap();
            let standalone = CompiledModel::compile_with_threads(model, 1).unwrap();
            let sequential = ms
                .minimize_differentiable(&standalone.objective(false), &domain)
                .unwrap();
            assert_eq!(lockstep.best_x, sequential.best_x, "model {k}");
            assert_eq!(
                lockstep.best_value.to_bits(),
                sequential.best_value.to_bits(),
                "model {k}"
            );
            assert_eq!(lockstep.evaluations, sequential.evaluations, "model {k}");
            assert_eq!(lockstep.iterations, sequential.iterations, "model {k}");
            assert!(lockstep.converged(), "model {k}");
        }
    }

    #[test]
    fn batch_objective_reuses_scratch_bit_identically() {
        // One objective, batch sizes alternating across the tail (1: one
        // pointwise point; 3: a 2-lane block and one point), one full SoA
        // block (16), a block plus one point (17) and the pooled path (300 > one chunk, two threads), with
        // value and gradient calls interleaved: every call must match a
        // fresh evaluator bit for bit.
        let models = family(4);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let fleet = CompiledFleet::compile_with_threads(&models, 2).unwrap();
        let objective = fleet.model_batch_objective(2);
        let fresh = || FleetEvaluator::new(fleet.fleet(), 2);
        let mut offset = 0.0;
        for round in 0..3 {
            for n in [1, 3, 16, 17, 300, 17, 1] {
                offset += 0.61;
                let points: Vec<Vec<f64>> = (0..n)
                    .map(|i| {
                        let t = (i as f64 * 0.37 + offset) % 25.0;
                        vec![5.0 + t, 30.0 - t]
                    })
                    .collect();
                let (mut values, mut grads) = (Vec::new(), Vec::new());
                objective.eval_grad_batch(&points, &mut values, &mut grads);
                let (fv, fg) = fresh().model_grads(2, &points).unwrap();
                assert_eq!(bits(&values), bits(&fv), "round {round} n={n}");
                assert_eq!(bits(&grads), bits(&fg), "round {round} n={n}");
                let mut costs = Vec::new();
                objective.eval_batch(&points, &mut costs);
                let fc = fresh().model_costs(2, &points).unwrap();
                assert_eq!(bits(&costs), bits(&fc), "round {round} n={n}");
            }
        }
    }

    #[test]
    fn closure_failures_surface_as_infinity() {
        let mut space = ParameterSpace::new();
        space.parameter("t", 0.0, 1.0).unwrap();
        let broken = Hazard::builder("h")
            .cut_set("bad", [from_fn("broken", |_| 2.0)])
            .build();
        let model = SafetyModel::new(space).hazard(broken, 1.0);
        let fleet = CompiledFleet::compile(std::slice::from_ref(&model)).unwrap();
        let costs = fleet.costs_all(&[vec![0.5]]).unwrap();
        assert!(costs[0].is_nan());
        let mut out = Vec::new();
        fleet
            .model_batch_objective(0)
            .eval_batch(&[vec![0.5]], &mut out);
        assert_eq!(out, [f64::INFINITY]);
    }

    #[test]
    fn partial_compilation_rolls_back_bad_models() {
        let good = family(3);
        let mut space = ParameterSpace::new();
        space.parameter("t1", 5.0, 30.0).unwrap();
        space.parameter("t2", 5.0, 30.0).unwrap();
        let foreign = Hazard::builder("h")
            .cut_set("ok", [constant(0.5).unwrap()])
            .cut_set("bad", [exposure(0.1, crate::param::ParamId::new(7))])
            .build();
        let broken = SafetyModel::new(space).hazard(foreign, 1.0);
        let models = vec![good[0].clone(), broken, good[1].clone(), good[2].clone()];

        let (fleet, slots) = CompiledFleet::compile_partial(&models, 1);
        let fleet = fleet.expect("three models compile");
        assert_eq!(fleet.n_models(), 3);
        assert_eq!(slots.len(), 4);
        assert_eq!(slots[0].as_ref().unwrap(), &0);
        assert!(matches!(
            slots[1],
            Err(SafeOptError::UnknownParameter { .. })
        ));
        assert_eq!(slots[2].as_ref().unwrap(), &1);
        assert_eq!(slots[3].as_ref().unwrap(), &2);
        // The rollback must not disturb the surviving models: still
        // bit-identical to standalone compilation, with two hazards
        // each.
        for (model, slot) in [(&models[0], 0usize), (&models[2], 1), (&models[3], 2)] {
            assert_eq!(fleet.n_hazards(slot), 2);
            let compiled = CompiledModel::compile_with_threads(model, 1).unwrap();
            for p in grid_points() {
                let batch = fleet
                    .model_cost_batch(slot, std::slice::from_ref(&p))
                    .unwrap();
                assert_eq!(batch[0].to_bits(), compiled.cost(&p).unwrap().to_bits());
            }
        }

        // Nothing compiles: no fleet, every slot an error.
        let (none, slots) = CompiledFleet::compile_partial(&models[1..2], 1);
        assert!(none.is_none());
        assert!(slots[0].is_err());
        let (none, slots) = CompiledFleet::compile_partial(&[], 1);
        assert!(none.is_none());
        assert!(slots.is_empty());
    }

    #[test]
    fn wrong_arity_points_are_infeasible_on_every_objective_path() {
        // A 1-D point against a 2-D model: every optimizer-facing path
        // reports it infeasible (`∞` values, NaN gradients) instead of
        // panicking.
        let models = family(2);
        let compiled = CompiledModel::compile_with_threads(&models[0], 1).unwrap();
        let fleet = CompiledFleet::compile_with_threads(&models, 1).unwrap();
        let scalar = compiled.objective(false);
        let batch = fleet.model_batch_objective(0);
        let point = vec![vec![19.0]];
        type Path<'a> = Box<dyn Fn() -> (Vec<f64>, Option<Vec<f64>>) + 'a>;
        let paths: [(&str, Path<'_>); 5] = [
            (
                "CompiledObjective::eval",
                Box::new(|| (vec![scalar.eval(&point[0])], None)),
            ),
            (
                "CompiledModel::eval_batch",
                Box::new(|| {
                    let mut out = Vec::new();
                    compiled.eval_batch(&point, &mut out);
                    (out, None)
                }),
            ),
            (
                "CompiledModel::eval_grad_batch",
                Box::new(|| {
                    let (mut v, mut g) = (Vec::new(), Vec::new());
                    compiled.eval_grad_batch(&point, &mut v, &mut g);
                    (v, Some(g))
                }),
            ),
            (
                "FleetModelBatchObjective::eval_batch",
                Box::new(|| {
                    let mut out = Vec::new();
                    batch.eval_batch(&point, &mut out);
                    (out, None)
                }),
            ),
            (
                "FleetModelBatchObjective::eval_grad_batch",
                Box::new(|| {
                    let (mut v, mut g) = (Vec::new(), Vec::new());
                    batch.eval_grad_batch(&point, &mut v, &mut g);
                    (v, Some(g))
                }),
            ),
        ];
        for (name, path) in &paths {
            let (values, grads) = path();
            assert_eq!(values, [f64::INFINITY], "{name}");
            if let Some(grads) = grads {
                assert_eq!(grads.len(), 2, "{name}");
                assert!(grads.iter().all(|g| g.is_nan()), "{name}: {grads:?}");
            }
        }
    }

    #[test]
    fn dimension_mismatches_are_detected() {
        let mut models = family(2);
        let mut space = ParameterSpace::new();
        space.parameter("only", 0.0, 1.0).unwrap();
        let h = Hazard::builder("h")
            .cut_set("c", [constant(0.1).unwrap()])
            .build();
        models.push(SafetyModel::new(space).hazard(h, 1.0));
        assert!(matches!(
            CompiledFleet::compile(&models),
            Err(SafeOptError::DimensionMismatch { .. })
        ));

        let fleet = CompiledFleet::compile(&family(2)).unwrap();
        assert!(matches!(
            fleet.costs_all(&[vec![1.0]]),
            Err(SafeOptError::DimensionMismatch { .. })
        ));
        assert!(CompiledFleet::compile(&[]).is_err());
    }
}
