//! Compilation of safety models onto the evaluation engine.
//!
//! [`CompiledModel::compile`] lowers a [`SafetyModel`] — every hazard's
//! parameterized cut sets — into one flat [`safety_opt_engine`] op-tape:
//! constants fold (residual cut sets become their hazard's bias),
//! subexpressions shared across cut sets and hazards deduplicate via the
//! expression nodes' shared identity, cut-set products and hazard sums
//! fuse into n-ary ops, and the truncated-normal overtime kernel runs on
//! the engine's fixed-cost `erfc`. Opaque [`pprob::from_fn`] closures
//! lower to fallback ops that delegate to the scalar interpreter for
//! just that factor.
//!
//! One compiled evaluation is an allocation-free tape sweep; batches
//! shard across threads with deterministic chunking. The analysis
//! front-ends ([`surface`](crate::surface),
//! [`sensitivity`](crate::sensitivity), [`pareto`](crate::pareto),
//! [`uncertainty`](crate::uncertainty), [`optimize`](crate::optimize))
//! all route their inner loops through this path behind their unchanged
//! public APIs; the equivalence contract (compiled == scalar to ≤1e-12,
//! thread-count independent) is enforced by property tests.
//!
//! [`pprob::from_fn`]: crate::pprob::from_fn

use crate::model::{Hazard, QuantMethod, SafetyModel};
use crate::param::{ParamValues, ParameterSpace};
use crate::pprob::{ExprStructure, ProbExpr};
use crate::{Result, SafeOptError};
use safety_opt_engine::{
    faultinject, BatchEvaluator, CacheStats, CompileBudget, CompileStats, EngineError,
    EvalDeadline, GradWorkspace, QuantizedCache, Tape, TapeBuilder, Value,
};
use safety_opt_fta::bdd::ShannonRef;
use safety_opt_fta::modular::PlanInput;
use safety_opt_telemetry as telemetry;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Hazards whose exact BDD lowering blew its node budget and degraded
/// to rare-event lowering ([`CompileBudget::with_rare_event_fallback`]).
static DEGRADE_FALLBACKS: telemetry::Counter = telemetry::Counter::new("safeopt.degrade.fallback");

/// Warns once per process when graceful degradation first kicks in;
/// every further degradation is visible in the
/// `safeopt.degrade.fallback` telemetry counter.
fn warn_degrade_fallback_once(hazard: &str, nodes: usize, limit: usize) {
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        eprintln!(
            "safety-opt: hazard {hazard:?} has a {nodes}-node BDD plan over the \
             {limit}-node budget; degrading to rare-event lowering \
             (CompileBudget::with_rare_event_fallback). Probabilities for \
             this hazard are conservative rare-event approximations, not BDD-exact. \
             Further degradations are counted in safeopt.degrade.fallback."
        );
    });
}

/// A safety model compiled to an engine tape.
///
/// Cheap to clone (the tape is shared). Thread-safe: batch methods shard
/// across a scoped worker pool sized by `threads` and sweep each chunk
/// lane-blocked; results are bit-identical for every thread count and
/// to the pointwise [`cost`](Self::cost).
///
/// Every batch method returns worker panics and expired deadlines as
/// [`SafeOptError::Engine`] instead of panicking. Batches are
/// all-or-nothing: an error means no partial results, and the model
/// stays fully usable (an identical retry returns bit-identical
/// results).
#[derive(Debug, Clone)]
pub struct CompiledModel {
    tape: Arc<Tape>,
    space: Arc<ParameterSpace>,
    threads: usize,
    /// Cooperative deadline of every batch method (see
    /// [`with_deadline`](Self::with_deadline)).
    deadline: Option<EvalDeadline>,
    quant: QuantMethod,
    /// The source hazards (names + exact BDD structures) — what the
    /// point-importance API ([`crate::importance`]) walks.
    hazards: Arc<Vec<Hazard>>,
}

impl CompiledModel {
    /// Compiles `model` with machine-sized parallelism for batches.
    ///
    /// # Errors
    ///
    /// [`SafeOptError::UnknownParameter`] if an expression references a
    /// parameter outside the model's space.
    pub fn compile(model: &SafetyModel) -> Result<Self> {
        Self::compile_with_threads(model, safety_opt_engine::default_threads())
    }

    /// Compiles `model` with an explicit batch worker count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`compile`](Self::compile).
    pub fn compile_with_threads(model: &SafetyModel, threads: usize) -> Result<Self> {
        Self::compile_with_budget(model, threads, CompileBudget::UNLIMITED)
    }

    /// Compiles `model` under a [`CompileBudget`], with an explicit
    /// batch worker count. With [`CompileBudget::UNLIMITED`] this is
    /// exactly [`compile_with_threads`](Self::compile_with_threads).
    ///
    /// Budget enforcement is **all-or-nothing**: a blown limit returns
    /// [`SafeOptError::Engine`]`(`[`EngineError::BudgetExceeded`]`)`
    /// and no partially compiled model. Exception: when `budget` carries
    /// [`CompileBudget::with_rare_event_fallback`], a hazard whose exact
    /// BDD plan alone blows `max_bdd_nodes` falls back to rare-event
    /// lowering for that hazard — a documented accuracy degradation,
    /// counted in the `safeopt.degrade.fallback` telemetry counter and
    /// warned once per process. The policy belongs to this one compile:
    /// two compiles in one process may use opposite policies.
    ///
    /// # Errors
    ///
    /// Everything [`compile`](Self::compile) can return, plus
    /// [`SafeOptError::Engine`] for blown budgets.
    pub fn compile_with_budget(
        model: &SafetyModel,
        threads: usize,
        budget: CompileBudget,
    ) -> Result<Self> {
        let _scope = telemetry::TraceScope::enter("compile");
        let space = model.space_arc();
        let quant = model.quant_method();
        let mut builder = TapeBuilder::new(space.len());
        let mut memo: HashMap<usize, Value> = HashMap::new();
        for (hazard, &cost) in model.hazards().iter().zip(model.costs()) {
            let hazard_value =
                lower_hazard(&mut builder, &mut memo, &space, hazard, quant, &budget)?;
            builder.output(hazard_value, cost);
            // Checked per hazard so a runaway model stops at the first
            // hazard that blows the cap, not after lowering everything.
            budget
                .check_ops(builder.compile_stats().ops_emitted as usize)
                .map_err(SafeOptError::Engine)?;
        }
        Ok(Self {
            tape: Arc::new(builder.build()),
            space,
            threads: threads.max(1),
            deadline: None,
            quant,
            hazards: Arc::new(model.hazards().to_vec()),
        })
    }

    /// The quantification method the tape was compiled with.
    pub fn quant_method(&self) -> QuantMethod {
        self.quant
    }

    /// The source hazards the tape was compiled from.
    pub(crate) fn hazards(&self) -> &[Hazard] {
        &self.hazards
    }

    /// The underlying tape.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// Compile-time statistics of the underlying tape (ops requested vs
    /// emitted, constant folds, hash-consing hits, fused ops). Recorded
    /// unconditionally — independent of the `SAFETY_OPT_TELEMETRY` mode.
    pub fn compile_stats(&self) -> CompileStats {
        self.tape.compile_stats()
    }

    /// Per-op sweep-time attribution for this model's tape, populated
    /// only under `SAFETY_OPT_TELEMETRY=profile` (every evaluator and worker
    /// thread sweeping this model accumulates into the same cells).
    pub fn profile_report(&self) -> safety_opt_engine::ProfileReport {
        self.tape.profile_report()
    }

    /// Number of parameters the compiled model expects.
    pub fn dim(&self) -> usize {
        self.space.len()
    }

    /// Number of hazards (tape outputs).
    pub fn n_hazards(&self) -> usize {
        self.tape.n_outputs()
    }

    /// Configured batch worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// This model with a cooperative [`EvalDeadline`] on every batch
    /// method, checked before each chunk starts: once it has passed, a
    /// batch fails with [`SafeOptError::Engine`]`(`
    /// [`EngineError::DeadlineExceeded`]`)`. A cheap clone; the tape is
    /// shared.
    pub fn with_deadline(&self, deadline: EvalDeadline) -> Self {
        Self {
            deadline: Some(deadline),
            ..self.clone()
        }
    }

    pub(crate) fn check_dim(&self, got: usize) -> Result<()> {
        if got != self.dim() {
            return Err(SafeOptError::DimensionMismatch {
                expected: self.dim(),
                got,
            });
        }
        Ok(())
    }

    /// Cost at one point; NaN signals an evaluation failure of an opaque
    /// closure factor (mirror of the scalar path's typed error).
    ///
    /// # Errors
    ///
    /// [`SafeOptError::DimensionMismatch`] for wrong-arity points.
    pub fn cost(&self, x: &[f64]) -> Result<f64> {
        self.check_dim(x.len())?;
        let mut scratch = Vec::with_capacity(self.tape.scratch_len());
        let mut hazards = vec![0.0; self.n_hazards()];
        Ok(self.tape.eval_into(x, &mut scratch, &mut hazards))
    }

    /// Costs for a batch of points, evaluated in parallel with
    /// deterministic chunking (results are independent of the thread
    /// count).
    ///
    /// # Errors
    ///
    /// [`SafeOptError::DimensionMismatch`] for wrong-arity points;
    /// [`SafeOptError::Engine`] for isolated worker panics
    /// ([`EngineError::WorkerPanicked`]) and expired deadlines
    /// ([`EngineError::DeadlineExceeded`]).
    pub fn cost_batch(&self, points: &[Vec<f64>]) -> Result<Vec<f64>> {
        self.check_points(points)?;
        Ok(self.evaluator().costs(points)?)
    }

    /// Costs **and** hazard probabilities for a batch of points
    /// (`hazards` is row-major, `points.len() × n_hazards`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`cost_batch`](Self::cost_batch).
    pub fn cost_and_hazards_batch(&self, points: &[Vec<f64>]) -> Result<(Vec<f64>, Vec<f64>)> {
        self.check_points(points)?;
        Ok(self.evaluator().costs_and_outputs(points)?)
    }

    /// Cost **and** analytic cost gradient at one point, via the
    /// engine's reverse-mode adjoint sweep (one forward + one backward
    /// pass — cost independent of the parameter count, unlike the
    /// `2·dim` tape sweeps of a central-difference gradient). The value
    /// is bit-identical to [`cost`](Self::cost); NaN (a failing opaque
    /// closure factor) propagates into the value and every gradient
    /// component it reaches.
    ///
    /// # Errors
    ///
    /// [`SafeOptError::DimensionMismatch`] for wrong-arity points.
    pub fn value_grad(&self, x: &[f64]) -> Result<(f64, Vec<f64>)> {
        self.check_dim(x.len())?;
        Ok(self.tape.eval_grad(x))
    }

    /// The analytic cost gradient at one point (see
    /// [`value_grad`](Self::value_grad)).
    ///
    /// # Errors
    ///
    /// [`SafeOptError::DimensionMismatch`] for wrong-arity points.
    pub fn gradient(&self, x: &[f64]) -> Result<Vec<f64>> {
        Ok(self.value_grad(x)?.1)
    }

    /// Costs and analytic gradients for a batch of points, sharded
    /// across the deterministic chunked pool (`grads` is row-major,
    /// `points.len() × dim`; results are independent of the thread
    /// count).
    ///
    /// # Errors
    ///
    /// Same conditions as [`cost_batch`](Self::cost_batch).
    pub fn gradient_batch(&self, points: &[Vec<f64>]) -> Result<(Vec<f64>, Vec<f64>)> {
        self.check_points(points)?;
        Ok(self.evaluator().eval_grad_batch(points)?)
    }

    fn check_points(&self, points: &[Vec<f64>]) -> Result<()> {
        points.iter().try_for_each(|p| self.check_dim(p.len()))
    }

    /// The batch evaluator every batch entry point routes through.
    fn evaluator(&self) -> BatchEvaluator<'_> {
        let ev = BatchEvaluator::new(&self.tape, self.threads);
        match self.deadline {
            Some(deadline) => ev.deadline(deadline),
            None => ev,
        }
    }

    /// The compiled cost as a scalar optimization objective with an
    /// optional quantized memo cache (see [`CompiledObjective`]).
    pub fn objective(&self, memo: bool) -> CompiledObjective {
        CompiledObjective {
            tape: Arc::clone(&self.tape),
            scratch: RefCell::new((
                Vec::with_capacity(self.tape.scratch_len()),
                vec![0.0; self.n_hazards()],
            )),
            grad_ws: RefCell::new(GradWorkspace::new()),
            cache: memo.then(QuantizedCache::fine),
        }
    }
}

/// The compiled cost function as an [`safety_opt_optim::Objective`].
///
/// Evaluation failures (NaN from an opaque closure factor) surface as
/// `+∞`, exactly like [`SafetyModel::objective`]. With `memo` enabled,
/// evaluations are cached per quantized point — multi-start local
/// searches and pattern moves revisit points constantly.
#[derive(Debug)]
pub struct CompiledObjective {
    tape: Arc<Tape>,
    scratch: RefCell<(Vec<f64>, Vec<f64>)>,
    grad_ws: RefCell<GradWorkspace>,
    cache: Option<QuantizedCache>,
}

impl CompiledObjective {
    fn eval_raw(&self, x: &[f64]) -> f64 {
        let (scratch, hazards) = &mut *self.scratch.borrow_mut();
        let v = self.tape.eval_into(x, scratch, hazards);
        if v.is_finite() {
            v
        } else {
            f64::INFINITY
        }
    }

    /// Hit/miss/eviction statistics of the memo cache (all zero when
    /// disabled). Recorded unconditionally — independent of the
    /// `SAFETY_OPT_TELEMETRY` mode.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map_or_else(CacheStats::default, QuantizedCache::stats)
    }
}

impl safety_opt_optim::Objective for CompiledObjective {
    fn eval(&self, x: &[f64]) -> f64 {
        if x.len() != self.tape.n_inputs() {
            return f64::INFINITY;
        }
        match &self.cache {
            Some(cache) => cache.get_or_insert_with(x, || self.eval_raw(x)),
            None => self.eval_raw(x),
        }
    }
}

/// The analytic-gradient hook for gradient-based minimizers'
/// `minimize_differentiable` entry points: one reverse-mode adjoint
/// sweep of the compiled tape per gradient.
/// Evaluation failures surface as an `∞` value (exactly like
/// [`eval`](safety_opt_optim::Objective::eval)) alongside the poisoned
/// gradient, which tells the optimizer to fall back to finite
/// differences at that point. The memo cache is bypassed — a gradient
/// call is as cheap as the forward evaluation it embeds.
impl safety_opt_optim::DifferentiableObjective for CompiledObjective {
    fn value_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        if x.len() != self.tape.n_inputs() || grad.len() != x.len() {
            grad.fill(f64::NAN);
            return f64::INFINITY;
        }
        let ws = &mut *self.grad_ws.borrow_mut();
        let (_, hazards) = &mut *self.scratch.borrow_mut();
        let v = self.tape.eval_grad_into(x, ws, hazards, grad);
        if v.is_finite() {
            v
        } else {
            f64::INFINITY
        }
    }
}

/// [`safety_opt_optim::BatchObjective`] for the value-only rounds of the
/// lockstep multi-start drivers: one [`cost_batch`](CompiledModel::cost_batch)
/// per round. Values map non-finite to `∞`, and a wrong-arity batch is
/// infeasible (all `∞`), like [`CompiledObjective`]'s `eval`; engine
/// errors re-raise (see `feasible`).
impl safety_opt_optim::BatchObjective for CompiledModel {
    fn eval_batch(&self, points: &[Vec<f64>], out: &mut Vec<f64>) {
        *out = feasible(self.cost_batch(points)).unwrap_or_else(|| vec![f64::NAN; points.len()]);
        infinite_if_not_finite(out);
    }
}

/// The batched analytic-gradient hook of the default lockstep
/// quasi-Newton strategy: one [`gradient_batch`](CompiledModel::gradient_batch)
/// per round. Values map non-finite to `∞` and gradients stay
/// poisoned, pointwise identical to [`CompiledObjective`]'s
/// `value_grad`; a wrong-arity batch is infeasible (`∞` values, NaN
/// gradients), not a panic. Engine errors re-raise (see `feasible`).
impl safety_opt_optim::BatchDifferentiableObjective for CompiledModel {
    fn eval_grad_batch(&self, points: &[Vec<f64>], values: &mut Vec<f64>, grads: &mut Vec<f64>) {
        (*values, *grads) = feasible(self.gradient_batch(points)).unwrap_or_else(|| {
            (
                vec![f64::NAN; points.len()],
                vec![f64::NAN; points.len() * self.dim()],
            )
        });
        infinite_if_not_finite(values);
    }
}

/// The error policy of the optimizer-facing batch objectives, whose
/// traits have no error channel: a wrong-arity batch is infeasible
/// (`None`), and an engine error becomes a panic on the calling thread
/// — a worker panic resumes with its own payload, any other engine
/// error panics with its message.
pub(crate) fn feasible<T>(result: Result<T>) -> Option<T> {
    match result {
        Ok(v) => Some(v),
        Err(SafeOptError::DimensionMismatch { .. }) => None,
        Err(SafeOptError::Engine(EngineError::WorkerPanicked { payload, .. })) => {
            std::panic::resume_unwind(Box::new(payload))
        }
        Err(SafeOptError::Engine(e)) => panic!("{e}"),
        Err(e) => panic!("{e}"),
    }
}

/// Maps every non-finite value to `+∞`: the optimizers' "infeasible".
pub(crate) fn infinite_if_not_finite(values: &mut [f64]) {
    for v in values {
        if !v.is_finite() {
            *v = f64::INFINITY;
        }
    }
}

/// Lowers one hazard onto the tape under the model's quantification
/// method (shared between [`CompiledModel`] and the fleet compiler in
/// [`crate::fleet`]).
///
/// * [`QuantMethod::RareEvent`] (and every hazard without a captured
///   structure function): each cut set fuses into an n-ary product, the
///   hazard into one clamped sum — the paper's Eq. 3.
/// * [`QuantMethod::BddExact`]: the hazard's Shannon decomposition
///   lowers node-by-node into `p·hi + (1−p)·lo` Shannon nodes
///   ([`TapeBuilder::mul_add`]; the built tape fuses single-parent runs
///   into `Chain` ops), leaf expressions lowering through the
///   same expression memo as the rare-event path. Hash-consing dedups
///   shared BDD subgraphs **within and across hazards** (and across
///   fleet models) for free, because structurally identical nodes
///   produce identical op keys.
pub(crate) fn lower_hazard(
    b: &mut TapeBuilder,
    memo: &mut HashMap<usize, Value>,
    space: &ParameterSpace,
    hazard: &Hazard,
    method: QuantMethod,
    budget: &CompileBudget,
) -> Result<Value> {
    if faultinject::should_fail(faultinject::sites::TAPE_COMPILE) {
        return Err(SafeOptError::Engine(EngineError::FaultInjected {
            site: faultinject::sites::TAPE_COMPILE,
        }));
    }
    if method == QuantMethod::BddExact {
        if let Some(exact) = hazard.exact() {
            let plan = exact.plan();
            // Exact lowering emits one fused op per Shannon node, so the
            // plan's node count is the budget-relevant size. A blown
            // `max_bdd_nodes` either aborts (all-or-nothing) or — when
            // the budget allows the rare-event fallback — degrades this
            // hazard to the rare-event cut-set lowering below.
            if let Err(e) = budget.check_bdd_nodes(plan.node_count()) {
                if !budget.rare_event_fallback {
                    return Err(SafeOptError::Engine(e));
                }
                DEGRADE_FALLBACKS.add(1);
                telemetry::trace::trace_instant(
                    telemetry::EventKind::DegradeFallback,
                    hazard.name(),
                    plan.node_count() as u64,
                );
                warn_degrade_fallback_once(
                    hazard.name(),
                    plan.node_count(),
                    budget.max_bdd_nodes.unwrap_or(usize::MAX),
                );
                return lower_rare_event(b, memo, space, hazard);
            }
            let resolve = |r: ShannonRef, vals: &[Value], b: &TapeBuilder| match r {
                ShannonRef::False => b.constant(0.0),
                ShannonRef::True => b.constant(1.0),
                ShannonRef::Node(i) => vals[i],
            };
            // Modules are listed children-before-parents (root last), so
            // a parent's `PlanInput::Module` reference always finds its
            // child's already-lowered top value.
            let mut roots: Vec<Value> = Vec::with_capacity(plan.modules().len());
            for m in plan.modules() {
                let mut vals: Vec<Value> = Vec::with_capacity(m.plan().nodes.len());
                for node in &m.plan().nodes {
                    let p = match m.input(node.leaf) {
                        PlanInput::Module(j) => roots[j],
                        PlanInput::Leaf(leaf) => {
                            let expr = exact
                                .leaf_expr(leaf)
                                .expect("BDD leaves have substituted expressions");
                            lower(b, memo, space, expr)?
                        }
                    };
                    let hi = resolve(node.high, &vals, b);
                    let lo = resolve(node.low, &vals, b);
                    vals.push(b.mul_add(p, hi, lo));
                }
                roots.push(resolve(m.plan().root, &vals, b));
            }
            return Ok(*roots.last().expect("a plan has at least one module"));
        }
    }
    lower_rare_event(b, memo, space, hazard)
}

/// The rare-event cut-set lowering (paper Eq. 3) — the default path and
/// the graceful-degradation target for budget-blown exact hazards.
fn lower_rare_event(
    b: &mut TapeBuilder,
    memo: &mut HashMap<usize, Value>,
    space: &ParameterSpace,
    hazard: &Hazard,
) -> Result<Value> {
    let mut cut_sets = Vec::with_capacity(hazard.cut_sets().len());
    for cs in hazard.cut_sets() {
        let factors = cs
            .factors()
            .iter()
            .map(|f| lower(b, memo, space, f))
            .collect::<Result<Vec<_>>>()?;
        cut_sets.push(b.product(factors));
    }
    Ok(b.sum_clamped(0.0, cut_sets))
}

/// Lowers one probability expression, reusing shared nodes through the
/// expression-identity memo (shared with the fleet compiler in
/// [`crate::fleet`]).
pub(crate) fn lower(
    b: &mut TapeBuilder,
    memo: &mut HashMap<usize, Value>,
    space: &ParameterSpace,
    expr: &ProbExpr,
) -> Result<Value> {
    let id = expr.node_id();
    if let Some(v) = memo.get(&id) {
        return Ok(*v);
    }
    let check_param = |param: crate::param::ParamId| -> Result<usize> {
        let i = param.index();
        if i >= space.len() {
            return Err(SafeOptError::UnknownParameter {
                reference: format!("#{i}"),
            });
        }
        Ok(i)
    };
    let value = match expr.structure() {
        ExprStructure::Constant(p) => b.constant(p),
        ExprStructure::Overtime { dist, param } => {
            let i = check_param(param)?;
            let t = b.input(i);
            b.overtime(dist, t)
        }
        ExprStructure::Exposure { rate, param } => {
            let i = check_param(param)?;
            let t = b.input(i);
            b.exposure(rate, t)
        }
        ExprStructure::Complement(inner) => {
            let v = lower(b, memo, space, inner)?;
            b.complement(v)
        }
        ExprStructure::Scaled(c, inner) => {
            let v = lower(b, memo, space, inner)?;
            b.scale(c, v)
        }
        ExprStructure::Product(terms) => {
            let vs = terms
                .iter()
                .map(|t| lower(b, memo, space, t))
                .collect::<Result<Vec<_>>>()?;
            b.product(vs)
        }
        ExprStructure::Sum(terms) => {
            let vs = terms
                .iter()
                .map(|t| lower(b, memo, space, t))
                .collect::<Result<Vec<_>>>()?;
            b.sum_clamped(0.0, vs)
        }
        ExprStructure::Closure { .. } => {
            // Opaque: delegate this factor to the scalar interpreter;
            // evaluation failures become NaN and propagate through the
            // tape.
            let fallback = expr.clone();
            b.closure(
                id,
                Arc::new(move |xs: &[f64]| {
                    fallback.eval(&ParamValues::new(xs)).unwrap_or(f64::NAN)
                }),
            )
        }
        // `ExprStructure` is non-exhaustive for future node kinds; new
        // kinds must be lowered explicitly before this is reachable.
        #[allow(unreachable_patterns)]
        other => unreachable!("unlowered expression kind {other:?}"),
    };
    memo.insert(id, value);
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Hazard;
    use crate::param::ParameterSpace;
    use crate::pprob::{complement, constant, exposure, from_fn, overtime, product, scaled, sum};
    use safety_opt_optim::Objective as _;
    use safety_opt_stats::dist::TruncatedNormal;

    fn elb_like_model() -> SafetyModel {
        let mut space = ParameterSpace::new();
        let t1 = space.parameter("t1", 5.0, 30.0).unwrap();
        let t2 = space.parameter("t2", 5.0, 30.0).unwrap();
        let transit = TruncatedNormal::lower_bounded(4.0, 2.0, 0.0).unwrap();
        let crit = constant(1e-3).unwrap();
        let collision = Hazard::builder("collision")
            .residual("rest", 1e-8)
            .cut_set("ot1", [crit.clone(), overtime(transit, t1)])
            .cut_set(
                "ot2",
                [
                    crit,
                    complement(overtime(transit, t1)),
                    overtime(transit, t2),
                ],
            )
            .build();
        let activation = sum([
            constant(1e-3).unwrap(),
            scaled(
                1.0 - 1e-3,
                product([constant(1e-4).unwrap(), exposure(1e-4, t1)]),
            )
            .unwrap(),
        ]);
        let alarm = Hazard::builder("alarm")
            .residual("rest", 1e-4)
            .cut_set("hv", [activation, exposure(0.13, t2)])
            .build();
        SafetyModel::new(space)
            .hazard(collision, 100_000.0)
            .hazard(alarm, 1.0)
    }

    #[test]
    fn compiled_matches_scalar_everywhere() {
        let model = elb_like_model();
        let compiled = CompiledModel::compile(&model).unwrap();
        let mut t1 = 5.0;
        while t1 <= 30.0 {
            let mut t2 = 5.0;
            while t2 <= 30.0 {
                let x = [t1, t2];
                let scalar = model.cost(&x).unwrap();
                let fast = compiled.cost(&x).unwrap();
                assert!(
                    (scalar - fast).abs() <= 1e-12,
                    "cost mismatch at {x:?}: {scalar} vs {fast}"
                );
                t2 += 1.37;
            }
            t1 += 1.37;
        }
    }

    #[test]
    fn shared_subexpressions_compile_once() {
        let model = elb_like_model();
        let compiled = CompiledModel::compile(&model).unwrap();
        // overtime(t1) is shared between the two collision cut sets
        // through the cloned expression node; the tape carries each
        // distinct op once: 2 overtime, 2 exposure, 1 complement,
        // 1 scale(product) chain, products and 2 hazard sums.
        assert!(
            compiled.tape().n_ops() <= 14,
            "expected a deduplicated tape, got {} ops",
            compiled.tape().n_ops()
        );
        // Duplicating a hazard (same shared expression nodes) must not
        // add a single expression op — only the new hazard sum.
        let mut dup = elb_like_model();
        let h = dup.hazards()[0].clone();
        dup = dup.hazard(h, 1.0);
        let dup_compiled = CompiledModel::compile(&dup).unwrap();
        assert!(
            dup_compiled.tape().n_ops() <= compiled.tape().n_ops() + 1,
            "duplicate hazard re-lowered: {} vs {} ops",
            dup_compiled.tape().n_ops(),
            compiled.tape().n_ops()
        );
    }

    #[test]
    fn batch_and_scalar_compiled_paths_agree_bitwise() {
        let model = elb_like_model();
        let compiled = CompiledModel::compile_with_threads(&model, 3).unwrap();
        let points: Vec<Vec<f64>> = (0..500)
            .map(|i| {
                let t = 5.0 + (i as f64) * 25.0 / 499.0;
                vec![t, 35.0 - t]
            })
            .collect();
        let batch = compiled.cost_batch(&points).unwrap();
        for (p, &v) in points.iter().zip(&batch) {
            assert_eq!(compiled.cost(p).unwrap(), v);
        }
        let (costs, hazards) = compiled.cost_and_hazards_batch(&points).unwrap();
        assert_eq!(costs, batch);
        for (i, p) in points.iter().enumerate() {
            let scalar = model.hazard_probabilities(p).unwrap();
            for h in 0..2 {
                assert!(
                    (hazards[i * 2 + h] - scalar[h]).abs() <= 1e-12,
                    "hazard {h} mismatch at {p:?}"
                );
            }
        }
    }

    #[test]
    fn soa_backend_matches_scalar_bitwise() {
        let model = elb_like_model();
        let soa = CompiledModel::compile_with_threads(&model, 2).unwrap();
        let points: Vec<Vec<f64>> = (0..203)
            .map(|i| {
                let t = 5.0 + (i as f64) * 25.0 / 202.0;
                vec![t, 35.0 - t]
            })
            .collect();
        // Pointwise oracle: one full tape sweep per point.
        let tape = soa.tape();
        let mut scratch = Vec::new();
        let mut sh = vec![0.0; points.len() * tape.n_outputs()];
        let sc: Vec<f64> = points
            .iter()
            .zip(sh.chunks_mut(tape.n_outputs()))
            .map(|(p, out)| tape.eval_into(p, &mut scratch, out))
            .collect();
        let (fc, fh) = soa.cost_and_hazards_batch(&points).unwrap();
        assert_eq!(sc, fc);
        assert_eq!(sh, fh);
        assert_eq!(sc, soa.cost_batch(&points).unwrap());
    }

    #[test]
    fn adjoint_gradient_matches_finite_differences() {
        let model = elb_like_model();
        let compiled = CompiledModel::compile(&model).unwrap();
        for x in [[10.0, 12.0], [19.0, 15.6], [6.5, 27.0]] {
            let (value, grad) = compiled.value_grad(&x).unwrap();
            assert_eq!(
                value.to_bits(),
                compiled.cost(&x).unwrap().to_bits(),
                "value must be bit-identical to plain evaluation"
            );
            // Large enough that the reference's subtractive
            // cancellation stays below the comparison tolerance (the
            // adjoint side has no step at all).
            let h = 1e-4;
            for i in 0..2 {
                let mut p = x;
                p[i] += h;
                let fp = compiled.cost(&p).unwrap();
                p[i] = x[i] - h;
                let fm = compiled.cost(&p).unwrap();
                let fd = (fp - fm) / (2.0 * h);
                let scale = grad[i].abs().max(fd.abs()).max(1e-9);
                assert!(
                    (grad[i] - fd).abs() <= 1e-5 * scale,
                    "∂f/∂x{i} at {x:?}: adjoint {} vs fd {fd}",
                    grad[i]
                );
            }
        }
    }

    #[test]
    fn gradient_batch_is_bit_identical_to_pointwise() {
        let model = elb_like_model();
        let compiled = CompiledModel::compile_with_threads(&model, 3).unwrap();
        let points: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                let t = 5.0 + (i as f64) * 25.0 / 299.0;
                vec![t, 35.0 - t]
            })
            .collect();
        let (costs, grads) = compiled.gradient_batch(&points).unwrap();
        assert_eq!(costs, compiled.cost_batch(&points).unwrap());
        for (i, p) in points.iter().enumerate() {
            let (_, g) = compiled.value_grad(p).unwrap();
            for (a, b) in g.iter().zip(&grads[i * 2..(i + 1) * 2]) {
                assert_eq!(a.to_bits(), b.to_bits(), "point {i}");
            }
        }
        assert!(compiled.gradient(&[1.0]).is_err());
        assert!(compiled.gradient_batch(&[vec![1.0]]).is_err());
    }

    #[test]
    fn differentiable_objective_agrees_with_eval() {
        use safety_opt_optim::DifferentiableObjective as _;
        let model = elb_like_model();
        let compiled = CompiledModel::compile(&model).unwrap();
        let obj = compiled.objective(false);
        let x = [14.0, 17.0];
        let mut grad = [0.0; 2];
        let v = obj.value_grad(&x, &mut grad);
        assert_eq!(v.to_bits(), obj.eval(&x).to_bits());
        assert_eq!(
            grad[0].to_bits(),
            compiled.gradient(&x).unwrap()[0].to_bits()
        );
        // Wrong arity is infeasible, not a panic — and poisons the
        // gradient so the optimizer falls back to finite differences.
        let mut bad = [0.0; 1];
        assert_eq!(obj.value_grad(&[1.0], &mut bad), f64::INFINITY);
        assert!(bad[0].is_nan());
    }

    #[test]
    fn batch_gradient_objective_matches_pointwise_value_grad() {
        use safety_opt_optim::{BatchDifferentiableObjective as _, DifferentiableObjective as _};
        let model = elb_like_model();
        let compiled = CompiledModel::compile_with_threads(&model, 2).unwrap();
        let obj = compiled.objective(false);
        let points: Vec<Vec<f64>> = (0..19)
            .map(|i| vec![5.0 + 1.3 * i as f64, 29.0 - 1.1 * i as f64])
            .collect();
        let (mut values, mut grads) = (Vec::new(), Vec::new());
        compiled.eval_grad_batch(&points, &mut values, &mut grads);
        let mut g = [0.0; 2];
        for (i, p) in points.iter().enumerate() {
            let v = obj.value_grad(p, &mut g);
            assert_eq!(values[i].to_bits(), v.to_bits(), "value {i}");
            assert_eq!(grads[2 * i].to_bits(), g[0].to_bits(), "grad {i}");
            assert_eq!(grads[2 * i + 1].to_bits(), g[1].to_bits(), "grad {i}");
        }
        // Wrong arity is infeasible, not a panic.
        compiled.eval_grad_batch(&[vec![1.0]], &mut values, &mut grads);
        assert_eq!(values, vec![f64::INFINITY]);
        assert!(grads.iter().all(|g| g.is_nan()));
    }

    #[test]
    fn objective_memo_caches_revisits() {
        let model = elb_like_model();
        let compiled = CompiledModel::compile(&model).unwrap();
        let obj = compiled.objective(true);
        let a = obj.eval(&[19.0, 15.6]);
        let b = obj.eval(&[19.0, 15.6]);
        assert_eq!(a, b);
        let stats = obj.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert_eq!(stats.hit_rate(), 0.5);
        // Wrong arity through the objective is infeasible, not a panic.
        assert_eq!(obj.eval(&[1.0]), f64::INFINITY);
    }

    #[test]
    fn bdd_exact_compilation_matches_scalar_exact_eval() {
        use crate::model::QuantMethod;
        use safety_opt_fta::tree::FaultTree;
        // Shared-event tree where rare-event and exact genuinely differ.
        let mut ft = FaultTree::new("shared");
        let a = ft.basic_event("a").unwrap();
        let b = ft.basic_event("b").unwrap();
        let c = ft.basic_event("c").unwrap();
        let g1 = ft.and_gate("g1", [a, b]).unwrap();
        let g2 = ft.and_gate("g2", [a, c]).unwrap();
        let top = ft.or_gate("top", [g1, g2]).unwrap();
        ft.set_root(top).unwrap();

        let mut space = ParameterSpace::new();
        let t1 = space.parameter("t1", 0.1, 10.0).unwrap();
        let t2 = space.parameter("t2", 0.1, 10.0).unwrap();
        let transit = TruncatedNormal::lower_bounded(4.0, 2.0, 0.0).unwrap();
        let hazard = Hazard::from_fault_tree(&ft, |leaf| {
            Ok(match leaf {
                0 => overtime(transit, t1),
                1 => exposure(0.3, t2),
                _ => constant(0.25).unwrap(),
            })
        })
        .unwrap();
        let model = SafetyModel::new(space)
            .hazard(hazard, 1000.0)
            .with_quant_method(QuantMethod::BddExact);
        let compiled = CompiledModel::compile(&model).unwrap();
        assert_eq!(compiled.quant_method(), QuantMethod::BddExact);
        let mut x0 = 0.1;
        while x0 <= 10.0 {
            let x = [x0, 10.1 - x0];
            let scalar = model.cost(&x).unwrap();
            let fast = compiled.cost(&x).unwrap();
            let scale = scalar.abs().max(1e-300);
            assert!(
                (scalar - fast).abs() <= 1e-12 * scale.max(1.0),
                "exact cost mismatch at {x:?}: {scalar} vs {fast}"
            );
            // Adjoint gradient through the Shannon chains vs central
            // differences on the compiled cost.
            let (value, grad) = compiled.value_grad(&x).unwrap();
            assert_eq!(value.to_bits(), fast.to_bits());
            let h = 1e-5;
            for i in 0..2 {
                let mut p = x;
                p[i] += h;
                let fp = compiled.cost(&p).unwrap();
                p[i] = x[i] - h;
                let fm = compiled.cost(&p).unwrap();
                let fd = (fp - fm) / (2.0 * h);
                let scale = grad[i].abs().max(fd.abs()).max(1e-9);
                assert!(
                    (grad[i] - fd).abs() <= 1e-4 * scale,
                    "∂f/∂x{i} at {x:?}: adjoint {} vs fd {fd}",
                    grad[i]
                );
            }
            x0 += 1.7;
        }
    }

    #[test]
    fn shared_bdd_subgraphs_compile_once_across_hazards() {
        use crate::model::QuantMethod;
        use safety_opt_fta::tree::FaultTree;
        let tree = || {
            let mut ft = FaultTree::new("h");
            let a = ft.basic_event("a").unwrap();
            let b = ft.basic_event("b").unwrap();
            let g = ft.or_gate("top", [a, b]).unwrap();
            ft.set_root(g).unwrap();
            ft
        };
        let mut space = ParameterSpace::new();
        let t = space.parameter("t", 0.1, 10.0).unwrap();
        let ea = exposure(0.2, t);
        let eb = constant(0.125).unwrap();
        let leafs = |leaf: usize| -> Result<ProbExpr> {
            Ok(if leaf == 0 { ea.clone() } else { eb.clone() })
        };
        let h1 = Hazard::from_fault_tree(&tree(), leafs).unwrap();
        let h2 = Hazard::from_fault_tree(&tree(), leafs).unwrap();
        let one = SafetyModel::new(space.clone())
            .hazard(h1.clone(), 1.0)
            .with_quant_method(QuantMethod::BddExact);
        let two = SafetyModel::new(space)
            .hazard(h1, 1.0)
            .hazard(h2, 2.0)
            .with_quant_method(QuantMethod::BddExact);
        let one_ops = CompiledModel::compile(&one).unwrap().tape().n_ops();
        let two_ops = CompiledModel::compile(&two).unwrap().tape().n_ops();
        // The second hazard's BDD is structurally identical (same shared
        // leaf expressions), so its Shannon nodes hash-cons away
        // entirely.
        assert_eq!(
            one_ops, two_ops,
            "identical BDD across hazards must not add ops"
        );
    }

    #[test]
    fn closure_failures_surface_like_the_scalar_path() {
        let mut space = ParameterSpace::new();
        space.parameter("t", 0.0, 1.0).unwrap();
        let broken = Hazard::builder("h")
            .cut_set("bad", [from_fn("broken", |_| 2.0)])
            .build();
        let model = SafetyModel::new(space).hazard(broken, 1.0);
        let compiled = CompiledModel::compile(&model).unwrap();
        assert!(compiled.cost(&[0.5]).unwrap().is_nan());
        let obj = compiled.objective(false);
        assert_eq!(obj.eval(&[0.5]), f64::INFINITY);
        assert_eq!(model.objective()(&[0.5]), f64::INFINITY);
    }

    #[test]
    fn foreign_param_ids_are_rejected_at_compile_time() {
        let mut space = ParameterSpace::new();
        space.parameter("t", 0.0, 1.0).unwrap();
        let h = Hazard::builder("h")
            .cut_set("e", [exposure(0.1, crate::param::ParamId::new(7))])
            .build();
        let model = SafetyModel::new(space).hazard(h, 1.0);
        assert!(matches!(
            CompiledModel::compile(&model),
            Err(SafeOptError::UnknownParameter { .. })
        ));
    }
}
