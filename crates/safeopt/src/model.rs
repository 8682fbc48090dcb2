//! Safety models: hazards as parameterized minimal cut sets, plus costs.
//!
//! A [`Hazard`] holds the minimal cut sets of one top event, each cut set
//! being a *product of parameterized probability factors* — primary
//! failures and constraint probabilities alike (paper Eq. 2). A
//! [`SafetyModel`] combines several hazards over one
//! [`crate::param::ParameterSpace`] and attaches the cost
//! weight of each hazard, yielding the cost function of Eqs. 5–6.
//!
//! Hazards can be written down directly (as the paper's Sect. IV-B does
//! after FTA identified the cut sets) or derived from an explicit
//! [`FaultTree`] via [`Hazard::from_fault_tree`], which runs the cut-set
//! engine and substitutes a [`ProbExpr`] per leaf. Tree-derived hazards
//! additionally capture the tree's **BDD Shannon decomposition**, so a
//! model can be quantified either with the paper's Eq. 1 rare-event sum
//! ([`QuantMethod::RareEvent`]) or **exactly**
//! ([`QuantMethod::BddExact`]) — the same selector the compiled engine
//! path honours.

use crate::param::{ParamValues, ParameterSpace};
use crate::pprob::{ExprStructure, ProbExpr};
use crate::{Result, SafeOptError};
use safety_opt_fta::bdd::ShannonRef;
use safety_opt_fta::modular::{ModularPlan, PlanInput};
use safety_opt_fta::preprocess::{preprocess_with_constants, PreprocessOutcome};
use safety_opt_fta::tree::FaultTree;
use std::sync::Arc;

/// How hazard probabilities are quantified, both by the scalar
/// interpreter ([`SafetyModel::hazard_probabilities`]) and by the
/// compiled engine path ([`crate::compile::CompiledModel`]).
///
/// The model-level default comes from [`default_quant_method`]
/// (`SAFETY_OPT_QUANT` when set, [`RareEvent`](Self::RareEvent)
/// otherwise); override per model with
/// [`SafetyModel::with_quant_method`]. [`BddExact`](Self::BddExact)
/// applies to hazards that carry an exact structure (built by
/// [`Hazard::from_fault_tree`]); hand-written cut-set hazards have no
/// structure function to decompose and always quantify as rare-event
/// sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[non_exhaustive]
pub enum QuantMethod {
    /// Paper Eq. 1/3: `P(H) = min(Σ_MCS ∏ P(PF), 1)` — over-estimates
    /// coherent trees.
    RareEvent,
    /// Exact Shannon decomposition of the hazard's BDD: each node
    /// evaluates `q·P(hi) + (1−q)·P(lo)` — no rare-event error, no
    /// clamp needed.
    BddExact,
}

/// The process-wide default [`QuantMethod`]: the `SAFETY_OPT_QUANT`
/// environment variable when set (`"rare-event"` or `"bdd-exact"`,
/// case-insensitive, `_` accepted for `-`),
/// [`QuantMethod::RareEvent`] otherwise. Read **once per process**,
/// mirroring `SAFETY_OPT_THREADS`: the override
/// exists so CI can force the whole suite through the exact
/// quantification path without touching call sites.
///
/// # Panics
///
/// Panics if `SAFETY_OPT_QUANT` names neither method — a forced
/// quantification exists precisely to pin which semantics run, and a
/// typo silently falling back to rare-event would be undetectable in
/// models without shared events.
pub fn default_quant_method() -> QuantMethod {
    static DEFAULT: std::sync::OnceLock<QuantMethod> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        parse_quant_override(std::env::var("SAFETY_OPT_QUANT").ok().as_deref())
            .unwrap_or(QuantMethod::RareEvent)
    })
}

/// Parses a `SAFETY_OPT_QUANT` override: `None`/empty means "unset".
fn parse_quant_override(value: Option<&str>) -> Option<QuantMethod> {
    safety_opt_engine::env::parse_choice(
        "SAFETY_OPT_QUANT",
        value,
        &[
            ("rare-event", QuantMethod::RareEvent),
            ("bdd-exact", QuantMethod::BddExact),
        ],
        "unset it to use the rare-event default",
    )
}

/// The exact (BDD) structure of a tree-derived hazard: the modular
/// Shannon decomposition (one BDD per independent module, composed over
/// the original tree's leaf slots) plus the substituted probability
/// expression and name per leaf. Captured by [`Hazard::from_fault_tree`];
/// consumed by the scalar exact interpreter, the engine lowering
/// ([`crate::compile`]/[`crate::fleet`]), and the point-importance API
/// ([`crate::importance`]).
#[derive(Debug)]
pub struct ExactHazard {
    pub(crate) plan: ModularPlan,
    /// Per leaf index: the substituted expression (`None` for leaves
    /// the root does not reach, see [`FaultTree::reachable_leaves`]).
    pub(crate) leaf_exprs: Vec<Option<ProbExpr>>,
    /// Per leaf index: the tree's leaf name.
    pub(crate) leaf_names: Vec<String>,
    /// Lazily compiled leaf tape of [`plan`](Self::plan), shared across
    /// every consumer of this hazard (the `Arc<ExactHazard>` is cloned
    /// into [`crate::compile::CompiledModel`]), so repeated importance
    /// sweeps pay one compilation instead of one per
    /// [`crate::importance::ImportanceReport::at_point`] call.
    leaf_tape: std::sync::OnceLock<safety_opt_engine::Tape>,
}

/// Leaf-tape cache reuse (a call found the tape already compiled).
static LEAF_TAPE_CACHE_HITS: safety_opt_telemetry::Counter =
    safety_opt_telemetry::Counter::new("core.importance.leaf_tape_cache_hit");
/// Leaf-tape compilations (first call per hazard).
static LEAF_TAPE_COMPILES: safety_opt_telemetry::Counter =
    safety_opt_telemetry::Counter::new("core.importance.leaf_tape_compile");

impl ExactHazard {
    /// The exported modular Shannon decomposition.
    pub fn plan(&self) -> &ModularPlan {
        &self.plan
    }

    /// The substituted expression of leaf `leaf`, if the leaf is used.
    pub fn leaf_expr(&self, leaf: usize) -> Option<&ProbExpr> {
        self.leaf_exprs.get(leaf).and_then(Option::as_ref)
    }

    /// The tree name of leaf `leaf`.
    pub fn leaf_name(&self, leaf: usize) -> &str {
        &self.leaf_names[leaf]
    }

    /// The plan's compiled leaf tape (inputs = leaf probabilities),
    /// compiled on first use and cached for the lifetime of the hazard.
    /// Cache hits and compilations are counted in telemetry
    /// (`core.importance.leaf_tape_cache_hit` / `…_compile`).
    pub fn leaf_tape(&self) -> &safety_opt_engine::Tape {
        let mut compiled = false;
        let tape = self.leaf_tape.get_or_init(|| {
            compiled = true;
            self.plan.leaf_tape()
        });
        if compiled {
            LEAF_TAPE_COMPILES.add(1);
        } else {
            LEAF_TAPE_CACHE_HITS.add(1);
        }
        tape
    }

    /// Exact hazard probability at a parameter point: evaluates each
    /// BDD leaf's expression once, then folds each module's Shannon
    /// nodes bottom-up, substituting already-folded child-module tops
    /// where the plan references them — the scalar twin of the compiled
    /// Shannon-chain lowering and of
    /// [`safety_opt_fta::bdd::TreeBdd::probability`]'s float sequence.
    pub(crate) fn probability(&self, params: &ParamValues<'_>) -> Result<f64> {
        let mut leaf_vals: Vec<Option<f64>> = vec![None; self.leaf_exprs.len()];
        let mut roots: Vec<f64> = Vec::with_capacity(self.plan.modules().len());
        for m in self.plan.modules() {
            let mut values: Vec<f64> = Vec::with_capacity(m.plan().nodes.len());
            for node in &m.plan().nodes {
                let q = match m.input(node.leaf) {
                    PlanInput::Module(j) => roots[j],
                    PlanInput::Leaf(leaf) => match leaf_vals[leaf] {
                        Some(q) => q,
                        None => {
                            let expr = self.leaf_exprs[leaf]
                                .as_ref()
                                .expect("BDD leaves have substituted expressions");
                            let q = expr.eval(params)?;
                            leaf_vals[leaf] = Some(q);
                            q
                        }
                    },
                };
                let hi = shannon_value(node.high, &values);
                let lo = shannon_value(node.low, &values);
                values.push(q * hi + (1.0 - q) * lo);
            }
            roots.push(shannon_value(m.plan().root, &values));
        }
        Ok(*roots.last().expect("a plan has at least one module"))
    }
}

/// Resolves a Shannon cofactor against already-folded node values.
fn shannon_value(r: ShannonRef, values: &[f64]) -> f64 {
    match r {
        ShannonRef::False => 0.0,
        ShannonRef::True => 1.0,
        ShannonRef::Node(i) => values[i],
    }
}

/// One parameterized (minimal) cut set: the hazard fires if all factors
/// "happen"; its probability is the product of the factor probabilities.
#[derive(Debug, Clone)]
pub struct ModelCutSet {
    name: String,
    factors: Vec<ProbExpr>,
}

impl ModelCutSet {
    /// Creates a cut set from its factors.
    pub fn new(name: impl Into<String>, factors: impl IntoIterator<Item = ProbExpr>) -> Self {
        Self {
            name: name.into(),
            factors: factors.into_iter().collect(),
        }
    }

    /// The cut set's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The probability factors.
    pub fn factors(&self) -> &[ProbExpr] {
        &self.factors
    }

    /// Evaluates `∏ factors` at a parameter point.
    ///
    /// # Errors
    ///
    /// Propagates factor-evaluation errors.
    pub fn probability(&self, params: &ParamValues<'_>) -> Result<f64> {
        let mut p = 1.0;
        for f in &self.factors {
            p *= f.eval(params)?;
        }
        Ok(p)
    }
}

/// A hazard: a named top event with its parameterized minimal cut sets.
///
/// The hazard probability is the paper's Eq. 3 rare-event sum
/// `P(H)(X) = Σ_MCS P(MCS)(X)` (clamped to 1).
#[derive(Debug, Clone)]
pub struct Hazard {
    name: String,
    cut_sets: Vec<ModelCutSet>,
    /// Shannon decomposition of the tree the hazard came from (absent
    /// for hand-written cut-set hazards).
    exact: Option<Arc<ExactHazard>>,
}

impl Hazard {
    /// Starts building a hazard.
    pub fn builder(name: impl Into<String>) -> HazardBuilder {
        HazardBuilder {
            name: name.into(),
            cut_sets: Vec::new(),
        }
    }

    /// The hazard's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameterized cut sets.
    pub fn cut_sets(&self) -> &[ModelCutSet] {
        &self.cut_sets
    }

    /// The hazard's exact (BDD) structure, if it was built from a fault
    /// tree.
    pub fn exact(&self) -> Option<&Arc<ExactHazard>> {
        self.exact.as_ref()
    }

    /// Hazard probability at a parameter point (Eq. 3 / rare-event sum,
    /// clamped into `[0, 1]` — an exotic user closure could in principle
    /// drive the sum negative, and the guard must mirror the upper
    /// clamp; `f64::clamp` propagates NaN untouched, like the compiled
    /// `SumClamp` kernel, whose lowering documents the same two-sided
    /// contract).
    ///
    /// # Errors
    ///
    /// Propagates factor-evaluation errors.
    pub fn probability(&self, params: &ParamValues<'_>) -> Result<f64> {
        let mut sum = 0.0;
        for cs in &self.cut_sets {
            sum += cs.probability(params)?;
        }
        Ok(sum.clamp(0.0, 1.0))
    }

    /// Hazard probability under an explicit quantification method.
    /// [`QuantMethod::BddExact`] uses the captured Shannon decomposition
    /// when present and falls back to the rare-event sum otherwise (a
    /// hand-written hazard has no structure function).
    ///
    /// # Errors
    ///
    /// Propagates factor-evaluation errors.
    pub fn probability_with(&self, params: &ParamValues<'_>, method: QuantMethod) -> Result<f64> {
        match (method, &self.exact) {
            (QuantMethod::BddExact, Some(exact)) => exact.probability(params),
            _ => self.probability(params),
        }
    }

    /// Builds a hazard from a fault tree: runs the minimal-cut-set engine
    /// and substitutes `leaf_expr(leaf_index)` for every leaf — the
    /// *"all instances of failure probabilities are substituted with the
    /// according function"* step of Sect. II-D.2. `leaf_expr` is invoked
    /// **once per reachable leaf** (repeated cut-set occurrences share
    /// the same expression node, maximizing downstream hash-consing).
    ///
    /// The tree's reduced ordered BDD is captured alongside the cut
    /// sets, so the hazard can also be quantified **exactly** — select
    /// with [`SafetyModel::with_quant_method`]
    /// ([`QuantMethod::BddExact`]).
    ///
    /// On a tree of at least 128 leaves, when
    /// [`safety_opt_engine::default_threads`] is above one, the cut sets
    /// are computed on a second thread while this one substitutes the
    /// leaves and builds the exact structure; the result is the same
    /// either way. So `leaf_expr` may run while the cut sets are computed, and also
    /// when the cut-set engine then fails: that call still returns the
    /// cut-set engine's error.
    ///
    /// # Errors
    ///
    /// Fault-tree errors (no root, budget), or whatever `leaf_expr`
    /// returns as `Err` for a leaf it cannot map. A cut-set error wins
    /// over a `leaf_expr` error, which wins over an error of the exact
    /// structure's preprocessing or BDD build.
    pub fn from_fault_tree(
        tree: &FaultTree,
        leaf_expr: impl FnMut(usize) -> Result<ProbExpr>,
    ) -> Result<Self> {
        let overlap =
            safety_opt_engine::default_threads() > 1 && tree.leaves().len() >= OVERLAP_MIN_LEAVES;
        Self::from_fault_tree_with(tree, leaf_expr, overlap)
    }

    /// [`from_fault_tree`](Self::from_fault_tree), computing the cut sets
    /// on a second thread when `overlap` is set.
    pub(crate) fn from_fault_tree_with(
        tree: &FaultTree,
        mut leaf_expr: impl FnMut(usize) -> Result<ProbExpr>,
        overlap: bool,
    ) -> Result<Self> {
        let (mcs, exact) = if overlap {
            let scope_h = safety_opt_telemetry::ScopeHandle::current();
            std::thread::scope(|scope| {
                let mcs = scope.spawn(move || {
                    let _trace_scope = scope_h.attach();
                    safety_opt_fta::mcs::bottom_up(tree)
                });
                let exact = ExactHazard::build(tree, &mut leaf_expr);
                let mcs = mcs
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                (mcs, exact)
            })
        } else {
            let mcs = safety_opt_fta::mcs::bottom_up(tree)?;
            (Ok(mcs), ExactHazard::build(tree, &mut leaf_expr))
        };
        let (mcs, exact) = (mcs?, exact?);
        let mut cut_sets = Vec::with_capacity(mcs.len());
        for cs in mcs.iter() {
            let mut factors = Vec::with_capacity(cs.order());
            for leaf in cs.iter() {
                factors.push(
                    exact.leaf_exprs[leaf]
                        .clone()
                        .expect("cut-set leaves are reachable"),
                );
            }
            let names = cs.names(tree).join(" & ");
            cut_sets.push(ModelCutSet::new(names, factors));
        }
        Ok(Self {
            name: tree.name().to_owned(),
            cut_sets,
            exact: Some(Arc::new(exact)),
        })
    }
}

/// Smallest tree, in leaves, whose cut sets [`Hazard::from_fault_tree`]
/// computes on a second thread. On a 2-vCPU x86-64 box a scoped spawn
/// and join cost ≈40 µs, and against the sequential build the overlap
/// was up to 38% slower on trees of 32–50 leaves, about even (12%
/// faster to 19% slower) from 100 to 250 leaves, and 39% faster on the
/// 2400-leaf industrial tree.
const OVERLAP_MIN_LEAVES: usize = 128;

impl ExactHazard {
    /// Substitutes `leaf_expr` for every reachable leaf of `tree` and
    /// builds the exact structure from the substituted tree. A
    /// `leaf_expr` error returns before preprocessing starts.
    fn build(
        tree: &FaultTree,
        leaf_expr: &mut impl FnMut(usize) -> Result<ProbExpr>,
    ) -> Result<Self> {
        let mut leaf_exprs: Vec<Option<ProbExpr>> = vec![None; tree.leaves().len()];
        for leaf in tree.reachable_leaves()? {
            leaf_exprs[leaf] = Some(leaf_expr(leaf)?);
        }
        // The exact structure always goes through the preprocessing
        // pipeline (constant propagation, normalization, coalescing,
        // module detection); the cut sets always come from the raw tree
        // so the rare-event path is byte-for-byte unaffected by the
        // rewrite. Leaves whose substituted expression is literally 0 or
        // 1 are folded as house events.
        let oracle = |leaf: usize| {
            leaf_exprs[leaf]
                .as_ref()
                .and_then(|expr| match expr.structure() {
                    ExprStructure::Constant(v) => {
                        if v == 0.0 {
                            Some(false)
                        } else if v == 1.0 {
                            Some(true)
                        } else {
                            None
                        }
                    }
                    _ => None,
                })
        };
        let plan = match preprocess_with_constants(tree, oracle)?.outcome {
            PreprocessOutcome::Tree(reduced) => ModularPlan::build(&reduced)?,
            PreprocessOutcome::Constant(value) => ModularPlan::constant(value, tree.leaves().len()),
        };
        let leaf_names = tree
            .leaves()
            .iter()
            .map(|&id| tree.node(id).name().to_owned())
            .collect();
        Ok(Self {
            plan,
            leaf_exprs,
            leaf_names,
            leaf_tape: std::sync::OnceLock::new(),
        })
    }
}

/// Builder for [`Hazard`].
#[derive(Debug)]
pub struct HazardBuilder {
    name: String,
    cut_sets: Vec<ModelCutSet>,
}

impl HazardBuilder {
    /// Adds a cut set given its probability factors.
    pub fn cut_set(
        mut self,
        name: impl Into<String>,
        factors: impl IntoIterator<Item = ProbExpr>,
    ) -> Self {
        self.cut_sets.push(ModelCutSet::new(name, factors));
        self
    }

    /// Adds a constant residual term — the paper's `P_const` buckets that
    /// accumulate the cut sets not modelled in detail.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`; residuals are literals supplied
    /// by the model author, so this is a programming error, not input.
    pub fn residual(self, name: impl Into<String>, p: f64) -> Self {
        let c = crate::pprob::constant(p).expect("residual probability must be in [0, 1]");
        self.cut_set(name, [c])
    }

    /// Finalizes the hazard.
    pub fn build(self) -> Hazard {
        Hazard {
            name: self.name,
            cut_sets: self.cut_sets,
            exact: None,
        }
    }
}

/// A complete safety model: hazards with cost weights over one parameter
/// space. Implements the paper's cost function (Eq. 6)
/// `f_cost(X) = Σ Cost_i · P(Hᵢ)(X)`.
#[derive(Debug, Clone)]
pub struct SafetyModel {
    space: Arc<ParameterSpace>,
    hazards: Vec<Hazard>,
    costs: Vec<f64>,
    quant: QuantMethod,
}

impl SafetyModel {
    /// Creates an empty model over `space`, quantified with
    /// [`default_quant_method`].
    pub fn new(space: ParameterSpace) -> Self {
        Self {
            space: Arc::new(space),
            hazards: Vec::new(),
            costs: Vec::new(),
            quant: default_quant_method(),
        }
    }

    /// Selects how the model's hazards are quantified — by the scalar
    /// interpreter *and* by every compiled path
    /// ([`crate::compile::CompiledModel`], [`crate::fleet::CompiledFleet`],
    /// and the analysis front-ends built on them).
    pub fn with_quant_method(mut self, method: QuantMethod) -> Self {
        self.quant = method;
        self
    }

    /// The configured quantification method.
    pub fn quant_method(&self) -> QuantMethod {
        self.quant
    }

    /// Adds a hazard with its cost weight (cost per occurrence, in
    /// whatever currency the model uses — the paper weighs a collision at
    /// 100 000 false alarms).
    pub fn hazard(mut self, hazard: Hazard, cost: f64) -> Self {
        self.hazards.push(hazard);
        self.costs.push(cost);
        self
    }

    /// The parameter space.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    /// Shared handle to the parameter space.
    pub fn space_arc(&self) -> Arc<ParameterSpace> {
        Arc::clone(&self.space)
    }

    /// The hazards in insertion order.
    pub fn hazards(&self) -> &[Hazard] {
        &self.hazards
    }

    /// The cost weights, aligned with [`hazards`](Self::hazards).
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// Validates the model: non-empty, sane costs, and evaluable at the
    /// domain center.
    ///
    /// # Errors
    ///
    /// [`SafeOptError::EmptyModel`], [`SafeOptError::InvalidCost`], or any
    /// evaluation error at the center point.
    pub fn validate(&self) -> Result<()> {
        if self.hazards.is_empty() {
            return Err(SafeOptError::EmptyModel);
        }
        for (h, &c) in self.hazards.iter().zip(&self.costs) {
            if !(c.is_finite() && c >= 0.0) {
                return Err(SafeOptError::InvalidCost {
                    hazard: h.name().to_owned(),
                    value: c,
                });
            }
        }
        let center = self.space.center();
        self.cost(&center)?;
        Ok(())
    }

    /// All hazard probabilities at a parameter point.
    ///
    /// # Errors
    ///
    /// [`SafeOptError::DimensionMismatch`] for wrong-arity points and
    /// factor-evaluation errors.
    pub fn hazard_probabilities(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.space.len() {
            return Err(SafeOptError::DimensionMismatch {
                expected: self.space.len(),
                got: x.len(),
            });
        }
        let params = ParamValues::new(x);
        self.hazards
            .iter()
            .map(|h| h.probability_with(&params, self.quant))
            .collect()
    }

    /// The cost function `f_cost(X)` (Eq. 6).
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`hazard_probabilities`](Self::hazard_probabilities).
    pub fn cost(&self, x: &[f64]) -> Result<f64> {
        let probs = self.hazard_probabilities(x)?;
        Ok(probs.iter().zip(&self.costs).map(|(p, c)| p * c).sum())
    }

    /// The cost function as an optimization objective. Evaluation errors
    /// (which can only arise from expression bugs, not from in-domain
    /// points) surface as `+∞`, which every optimizer in
    /// [`safety_opt_optim`] treats as "worse than anything".
    pub fn objective(&self) -> impl Fn(&[f64]) -> f64 + '_ {
        move |x: &[f64]| self.cost(x).unwrap_or(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParameterSpace;
    use crate::pprob::{constant, exposure, overtime};
    use safety_opt_stats::dist::TruncatedNormal;

    fn two_hazard_model() -> SafetyModel {
        let mut space = ParameterSpace::new();
        let t1 = space.parameter("t1", 5.0, 30.0).unwrap();
        let t2 = space.parameter("t2", 5.0, 30.0).unwrap();
        let transit = TruncatedNormal::lower_bounded(4.0, 2.0, 0.0).unwrap();
        let collision = Hazard::builder("collision")
            .residual("other", 1e-8)
            .cut_set("ot1", [constant(0.01).unwrap(), overtime(transit, t1)])
            .cut_set("ot2", [constant(0.01).unwrap(), overtime(transit, t2)])
            .build();
        let alarm = Hazard::builder("false-alarm")
            .residual("other", 1e-4)
            .cut_set("hv", [constant(1e-3).unwrap(), exposure(0.13, t2)])
            .build();
        SafetyModel::new(space)
            .hazard(collision, 100_000.0)
            .hazard(alarm, 1.0)
    }

    #[test]
    fn hazard_probability_is_rare_event_sum() {
        let model = two_hazard_model();
        let probs = model.hazard_probabilities(&[30.0, 30.0]).unwrap();
        assert_eq!(probs.len(), 2);
        // At long runtimes overtime ≈ 0: collision ≈ residual.
        assert!((probs[0] - 1e-8).abs() < 1e-10);
        // False alarm: residual + 1e-3 · (1 − e^{−3.9}).
        let expected = 1e-4 + 1e-3 * (1.0 - (-0.13f64 * 30.0).exp());
        assert!((probs[1] - expected).abs() < 1e-12);
    }

    #[test]
    fn cost_is_weighted_sum() {
        let model = two_hazard_model();
        let x = [30.0, 30.0];
        let probs = model.hazard_probabilities(&x).unwrap();
        let cost = model.cost(&x).unwrap();
        assert!((cost - (1e5 * probs[0] + probs[1])).abs() < 1e-12);
    }

    #[test]
    fn cost_tradeoff_creates_interior_optimum() {
        // Short timers: huge collision risk. Long timers: higher alarm
        // risk. Some middle point beats both extremes.
        let model = two_hazard_model();
        let short = model.cost(&[6.0, 6.0]).unwrap();
        let long = model.cost(&[30.0, 30.0]).unwrap();
        let mid = model.cost(&[16.0, 16.0]).unwrap();
        assert!(mid < short, "mid {mid} vs short {short}");
        assert!(mid < long, "mid {mid} vs long {long}");
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let model = two_hazard_model();
        assert!(matches!(
            model.cost(&[10.0]),
            Err(SafeOptError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn validation_catches_empty_and_bad_costs() {
        let mut space = ParameterSpace::new();
        space.parameter("t", 0.0, 1.0).unwrap();
        let empty = SafetyModel::new(space);
        assert!(matches!(empty.validate(), Err(SafeOptError::EmptyModel)));

        let mut space = ParameterSpace::new();
        space.parameter("t", 0.0, 1.0).unwrap();
        let h = Hazard::builder("h").residual("r", 0.1).build();
        let bad = SafetyModel::new(space).hazard(h, -5.0);
        assert!(matches!(
            bad.validate(),
            Err(SafeOptError::InvalidCost { .. })
        ));

        assert!(two_hazard_model().validate().is_ok());
    }

    #[test]
    fn hazard_probability_clamps_at_one() {
        let mut space = ParameterSpace::new();
        space.parameter("t", 0.0, 1.0).unwrap();
        let h = Hazard::builder("h")
            .residual("a", 0.9)
            .residual("b", 0.9)
            .build();
        let model = SafetyModel::new(space).hazard(h, 1.0);
        let p = model.hazard_probabilities(&[0.5]).unwrap()[0];
        assert_eq!(p, 1.0);
    }

    #[test]
    fn from_fault_tree_substitutes_expressions() {
        // (a AND b) OR c with parameterized c.
        let mut ft = FaultTree::new("hazard");
        let a = ft.basic_event("a").unwrap();
        let b = ft.basic_event("b").unwrap();
        let c = ft.basic_event("c").unwrap();
        let g = ft.and_gate("ab", [a, b]).unwrap();
        let top = ft.or_gate("top", [g, c]).unwrap();
        ft.set_root(top).unwrap();

        let mut space = ParameterSpace::new();
        let t = space.parameter("t", 0.0, 10.0).unwrap();
        let hazard = Hazard::from_fault_tree(&ft, |leaf| {
            Ok(match leaf {
                0 => constant(0.1).unwrap(),
                1 => constant(0.2).unwrap(),
                _ => exposure(0.5, t),
            })
        })
        .unwrap();
        assert_eq!(hazard.cut_sets().len(), 2);
        assert!(hazard.exact().is_some(), "tree hazards capture their BDD");
        // Pin the rare-event semantics explicitly: this test asserts the
        // Eq. 3 sum, independent of any SAFETY_OPT_QUANT override.
        let model = SafetyModel::new(space)
            .hazard(hazard, 1.0)
            .with_quant_method(QuantMethod::RareEvent);
        let p = model.hazard_probabilities(&[2.0]).unwrap()[0];
        let expected = 0.1 * 0.2 + (1.0 - (-1.0f64).exp());
        assert!((p - expected).abs() < 1e-12, "p = {p}");
    }

    #[test]
    fn bdd_exact_quantification_removes_rare_event_error() {
        // top = (a AND b) OR (a AND c) with shared `a`: rare-event
        // double-counts a, the Shannon decomposition does not.
        let mut ft = FaultTree::new("shared");
        let a = ft.basic_event("a").unwrap();
        let b = ft.basic_event("b").unwrap();
        let c = ft.basic_event("c").unwrap();
        let g1 = ft.and_gate("g1", [a, b]).unwrap();
        let g2 = ft.and_gate("g2", [a, c]).unwrap();
        let top = ft.or_gate("top", [g1, g2]).unwrap();
        ft.set_root(top).unwrap();

        let mut space = ParameterSpace::new();
        let t = space.parameter("t", 0.0, 10.0).unwrap();
        let hazard = Hazard::from_fault_tree(&ft, |leaf| {
            Ok(match leaf {
                0 => exposure(0.5, t), // a, parameterized
                1 => constant(0.5).unwrap(),
                _ => constant(0.5).unwrap(),
            })
        })
        .unwrap();
        let rare = SafetyModel::new(space.clone())
            .hazard(hazard.clone(), 1.0)
            .with_quant_method(QuantMethod::RareEvent);
        let exact = SafetyModel::new(space)
            .hazard(hazard, 1.0)
            .with_quant_method(QuantMethod::BddExact);
        assert_eq!(exact.quant_method(), QuantMethod::BddExact);
        let x = [3.0];
        let pa = 1.0 - (-0.5f64 * 3.0).exp();
        // Exact: P(a ∧ (b ∨ c)) = pa · 0.75; rare-event: pa · 1.0.
        let p_exact = exact.hazard_probabilities(&x).unwrap()[0];
        let p_rare = rare.hazard_probabilities(&x).unwrap()[0];
        assert!((p_exact - pa * 0.75).abs() < 1e-12, "exact = {p_exact}");
        assert!((p_rare - pa).abs() < 1e-12, "rare = {p_rare}");
        assert!(p_rare > p_exact);
        // The exact value matches the fta BDD oracle at the same leaf
        // probabilities.
        let pm =
            safety_opt_fta::quant::ProbabilityMap::new(vec![pa.clamp(0.0, 1.0), 0.5, 0.5]).unwrap();
        let oracle = safety_opt_fta::bdd::TreeBdd::build(&ft)
            .unwrap()
            .probability(&pm)
            .unwrap();
        assert!((p_exact - oracle).abs() <= 1e-12 * oracle.max(1e-300));
    }

    #[test]
    fn hand_written_hazards_fall_back_to_rare_event_under_bdd_exact() {
        let model = two_hazard_model();
        let exact = two_hazard_model().with_quant_method(QuantMethod::BddExact);
        let x = [20.0, 20.0];
        // No structure function captured -> identical values.
        assert_eq!(
            model
                .with_quant_method(QuantMethod::RareEvent)
                .hazard_probabilities(&x)
                .unwrap(),
            exact.hazard_probabilities(&x).unwrap()
        );
    }

    #[test]
    fn quant_override_parsing() {
        assert_eq!(parse_quant_override(None), None);
        assert_eq!(parse_quant_override(Some("")), None);
        assert_eq!(
            parse_quant_override(Some("rare-event")),
            Some(QuantMethod::RareEvent)
        );
        assert_eq!(
            parse_quant_override(Some(" BDD_Exact ")),
            Some(QuantMethod::BddExact)
        );
    }

    #[test]
    #[should_panic(expected = "SAFETY_OPT_QUANT must be")]
    fn unknown_quant_override_is_rejected_loudly() {
        parse_quant_override(Some("exactish"));
    }

    #[test]
    fn objective_is_total_on_errors() {
        let model = two_hazard_model();
        let f = model.objective();
        // Wrong dimension through the objective → +∞, not a panic.
        assert_eq!(f(&[1.0]), f64::INFINITY);
        assert!(f(&[20.0, 20.0]).is_finite());
    }

    #[test]
    fn cut_set_describe_names() {
        let model = two_hazard_model();
        assert_eq!(model.hazards()[0].cut_sets()[1].name(), "ot1");
        assert_eq!(model.hazards()[0].name(), "collision");
    }

    /// A tree's leaf functions over a two-timer space: the stored
    /// probability as a constant when it is 0 or 1 (house events),
    /// otherwise a scaled exposure or overtime of one of the timers.
    fn leaf_function(
        ft: &FaultTree,
        timers: [crate::param::ParamId; 2],
    ) -> impl Fn(usize) -> Result<ProbExpr> + '_ {
        move |leaf| {
            let p = ft.node(ft.leaf(leaf)).probability().unwrap_or(1e-3);
            if p == 0.0 || p == 1.0 {
                return constant(p);
            }
            let timer = timers[leaf % 2];
            if leaf % 3 == 0 {
                let d = TruncatedNormal::lower_bounded(4.0, 2.0, 0.0).unwrap();
                crate::pprob::scaled(p, overtime(d, timer))
            } else {
                crate::pprob::scaled(p, exposure(0.01 * (1 + leaf % 7) as f64, timer))
            }
        }
    }

    /// Builds `ft`'s hazard sequentially and overlapped and asserts the
    /// two are the same hazard: cut-set names and factors in the same
    /// order, and bit-equal compiled costs under both quantifications.
    fn assert_overlap_is_invisible(ft: &FaultTree) {
        let mut space = ParameterSpace::new();
        let timers = [
            space.parameter("t1", 1.0, 40.0).unwrap(),
            space.parameter("t2", 1.0, 40.0).unwrap(),
        ];
        let sequential =
            Hazard::from_fault_tree_with(ft, leaf_function(ft, timers), false).unwrap();
        let overlapped = Hazard::from_fault_tree_with(ft, leaf_function(ft, timers), true).unwrap();
        let describe = |h: &Hazard| -> Vec<(String, Vec<String>)> {
            h.cut_sets()
                .iter()
                .map(|cs| {
                    let factors = cs.factors().iter().map(ProbExpr::describe).collect();
                    (cs.name().to_owned(), factors)
                })
                .collect()
        };
        assert_eq!(
            describe(&sequential),
            describe(&overlapped),
            "{}",
            ft.name()
        );
        for method in [QuantMethod::RareEvent, QuantMethod::BddExact] {
            let compile = |h: &Hazard| {
                let model = SafetyModel::new(space.clone())
                    .hazard(h.clone(), 1.0)
                    .with_quant_method(method);
                crate::compile::CompiledModel::compile_with_threads(&model, 1).unwrap()
            };
            let (a, b) = (compile(&sequential), compile(&overlapped));
            for x in [[1.0, 1.0], [7.5, 19.0], [15.6, 3.25], [40.0, 40.0]] {
                assert_eq!(
                    a.cost(&x).unwrap().to_bits(),
                    b.cost(&x).unwrap().to_bits(),
                    "{} under {method:?} at {x:?}",
                    ft.name()
                );
            }
        }
    }

    #[test]
    fn overlapped_build_equals_sequential_on_the_industrial_tree() {
        let ft = safety_opt_fta::synth::modular_tree(safety_opt_fta::synth::ModularTreeConfig {
            modules: 48,
            sections_per_module: 12,
            leaves_per_section: 4,
            leaf_probability: 1e-3,
        });
        assert!(ft.leaves().len() >= OVERLAP_MIN_LEAVES);
        assert_overlap_is_invisible(&ft);
    }

    #[test]
    fn overlapped_build_equals_sequential_on_random_trees() {
        use safety_opt_fta::synth::{random_tree, RandomTreeConfig};
        for seed in 0..100u64 {
            // Every leaf no gate picks is ORed under the root, so each
            // tree keeps all of its ≥ 128 leaves reachable while its
            // gates stay few enough for a quick exact build.
            let config = RandomTreeConfig {
                num_leaves: OVERLAP_MIN_LEAVES + (seed as usize * 7) % 64,
                num_gates: 12 + (seed as usize % 25),
                max_inputs: 3 + (seed as usize % 3),
                leaf_probability: 1e-3 * (1 + seed % 5) as f64,
                gate_reuse: 0.1 * (seed % 6) as f64,
            };
            let ft = random_tree(config, seed);
            assert!(ft.leaves().len() >= OVERLAP_MIN_LEAVES);
            assert_overlap_is_invisible(&ft);
        }
    }

    #[test]
    fn a_cut_set_error_wins_over_a_leaf_error_on_both_paths() {
        // A 10-of-130 voter: C(130, 10) subsets blow the bottom-up
        // budget at its pre-check; every leaf function also fails.
        let mut ft = FaultTree::new("voter");
        let leaves: Vec<_> = (0..130)
            .map(|i| ft.basic_event(format!("e{i}")).unwrap())
            .collect();
        let top = ft.k_of_n_gate("vote", 10, leaves).unwrap();
        ft.set_root(top).unwrap();
        for overlap in [false, true] {
            let mut calls = 0;
            let result = Hazard::from_fault_tree_with(
                &ft,
                |leaf| {
                    calls += 1;
                    Err(SafeOptError::Fta(
                        safety_opt_fta::FtaError::MissingProbability {
                            event: format!("e{leaf}"),
                        },
                    ))
                },
                overlap,
            );
            match result {
                Err(SafeOptError::Fta(safety_opt_fta::FtaError::BudgetExceeded {
                    what,
                    limit,
                })) => {
                    assert_eq!(what, "bottom-up k-of-n expansion");
                    assert_eq!(limit, safety_opt_fta::mcs::DEFAULT_BUDGET);
                }
                other => panic!("overlap {overlap}: {:?}", other.map(|h| h.cut_sets().len())),
            }
            // The sequential build stops before the first leaf; the
            // overlapped one may already have called it.
            if !overlap {
                assert_eq!(calls, 0);
            }
        }
    }
}
