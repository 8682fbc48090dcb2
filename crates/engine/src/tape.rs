//! The op-tape intermediate representation.
//!
//! A [`Tape`] is a flat, arena-style evaluation plan for a weighted-sum
//! cost function `f(X) = Σᵢ wᵢ · min(biasᵢ + Σ terms, 1)` — the shape of
//! every safety model (hazards as clamped rare-event sums of cut-set
//! products). A [`TapeBuilder`] constructs it with
//!
//! * **hash-consing** — structurally identical subexpressions (and
//!   pointer-identical opaque closures) lower to a single op, shared
//!   across cut sets and hazards;
//! * **constant folding** — constant factors collapse at build time:
//!   constant cut sets fold into their hazard's bias, constant factors of
//!   a product fold into one scale coefficient;
//! * **op fusion** — cut-set products and hazard sums are n-ary ops over
//!   a shared argument table, not chains of binaries;
//! * **chain fusion** — BDD-exact hazards lower to one Shannon node
//!   `p·hi + (1−p)·lo` per BDD node, and [`TapeBuilder::build`] merges
//!   every run in which a node's only reader is the next node's `hi` or
//!   `lo` into one [`Op::Chain`] whose running value stays in a local,
//!   bit-identical to the per-node tape in value and gradient.
//!
//! One evaluation is a single allocation-free sweep over `Vec<Op>` with a
//! caller-provided scratch buffer, so batch evaluation amortizes to pure
//! arithmetic.

use crate::fast_erf;
use crate::hash::FxHashMap;
pub(crate) use fuse::ModelOps;
use safety_opt_stats::dist::{ContinuousDistribution, TruncatedNormal};
use safety_opt_stats::special;
use safety_opt_telemetry as telemetry;
use std::sync::Arc;

mod fuse;

/// Telemetry: tapes finalized by [`TapeBuilder::build`].
static TAPE_BUILDS: telemetry::Counter = telemetry::Counter::new("engine.tape.builds");
/// Telemetry: op-constructor requests across all builds.
static TAPE_OPS_REQUESTED: telemetry::Counter =
    telemetry::Counter::new("engine.tape.ops_requested");
/// Telemetry: ops actually emitted onto tapes.
static TAPE_OPS_EMITTED: telemetry::Counter = telemetry::Counter::new("engine.tape.ops_emitted");
/// Telemetry: requests resolved entirely at compile time.
static TAPE_CONST_FOLDED: telemetry::Counter = telemetry::Counter::new("engine.tape.const_folded");
/// Telemetry: requests deduplicated against an already-interned op.
static TAPE_INTERNED_HITS: telemetry::Counter =
    telemetry::Counter::new("engine.tape.interned_hits");
/// Telemetry: emitted fused n-ary ops and Shannon nodes (Product,
/// SumClamp, one per `mul_add` node before chain fusion).
static TAPE_FUSED_OPS: telemetry::Counter = telemetry::Counter::new("engine.tape.fused_ops");

/// Opaque scalar function over the full input point (the closure
/// fallback's payload type).
pub type ClosureFn = Arc<dyn Fn(&[f64]) -> f64 + Send + Sync>;

/// Index of a value slot in the evaluation scratch: inputs first, then
/// one slot per op output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(u32);

impl Reg {
    /// Slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Survival function of a truncated normal, precomputed for the fast
/// evaluation path.
///
/// The normalization constants are produced by the *same* iterative
/// special functions the scalar interpreter uses (they are computed once,
/// at compile time); only the per-point `Φ̄(z)` moves to the fixed-cost
/// rational approximation of [`fast_erf`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncNormSf {
    mu: f64,
    sigma: f64,
    lower: f64,
    upper: f64,
    sf_beta: f64,
    mass: f64,
}

impl TruncNormSf {
    /// Precomputes the plan for `dist.sf(x)`.
    pub fn new(dist: &TruncatedNormal) -> Self {
        let (lower, upper) = dist.support();
        let (mu, sigma) = (dist.mu(), dist.sigma());
        let sf_beta = if upper.is_finite() {
            special::std_normal_sf((upper - mu) / sigma)
        } else {
            0.0
        };
        let mass = special::std_normal_sf((lower - mu) / sigma) - sf_beta;
        Self {
            mu,
            sigma,
            lower,
            upper,
            sf_beta,
            mass,
        }
    }

    /// `P(X > x)` with the fast normal tail.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        if x <= self.lower {
            1.0
        } else if x >= self.upper {
            0.0
        } else {
            let z = (x - self.mu) / self.sigma;
            ((fast_erf::std_normal_sf(z) - self.sf_beta) / self.mass).clamp(0.0, 1.0)
        }
    }

    /// Lane-blocked twin of [`eval`](Self::eval) for the SoA sweeps:
    /// per lane the in-range arithmetic is **exactly** [`eval`]'s
    /// sequence (bit-identical results), but the normalization
    /// (subtract, divide, clamp) is hoisted out of the scalar
    /// `std_normal_sf` loop into its own lane loop so it vectorizes.
    /// Out-of-range lanes are computed speculatively and overwritten by
    /// the fixup pass ([`std_normal_sf`](fast_erf::std_normal_sf) is
    /// pure, so the speculation is unobservable).
    #[inline]
    pub(crate) fn eval_block<const L: usize>(&self, x: &[f64; L], out: &mut [f64; L]) {
        let mut z = [0.0; L];
        for l in 0..L {
            z[l] = (x[l] - self.mu) / self.sigma;
        }
        let mut sf = [0.0; L];
        fast_erf::std_normal_sf_block::<L>(&z, &mut sf);
        for l in 0..L {
            out[l] = ((sf[l] - self.sf_beta) / self.mass).clamp(0.0, 1.0);
        }
        for l in 0..L {
            if x[l] <= self.lower {
                out[l] = 1.0;
            } else if x[l] >= self.upper {
                out[l] = 0.0;
            }
        }
    }

    /// `d/dx P(X > x)` — the negated truncated-normal density
    /// `−φ((x−µ)/σ)/(σ·mass)` strictly inside the support, 0 on the
    /// clamped tails (the adjoint pass's VJP for [`Op::Overtime`]).
    /// Reuses the forward plan's precomputed normalization mass; only
    /// the normal pdf is new work per point.
    #[inline]
    pub fn deriv(&self, x: f64) -> f64 {
        if x <= self.lower || x >= self.upper {
            0.0
        } else {
            let z = (x - self.mu) / self.sigma;
            -special::std_normal_pdf(z) / (self.sigma * self.mass)
        }
    }

    /// Lane-blocked twin of [`deriv`](Self::deriv) for the SoA adjoint
    /// sweep: per lane the in-support arithmetic is **exactly**
    /// [`deriv`]'s sequence (bit-identical results). Out-of-support
    /// lanes are computed speculatively and overwritten by the fixup
    /// pass (`std_normal_pdf` is pure, so the speculation is
    /// unobservable); NaN inputs fail both fixup comparisons and keep
    /// their speculative NaN, exactly like the scalar branch.
    #[inline]
    pub(crate) fn deriv_block<const L: usize>(&self, x: &[f64; L], out: &mut [f64; L]) {
        for l in 0..L {
            let z = (x[l] - self.mu) / self.sigma;
            out[l] = -special::std_normal_pdf(z) / (self.sigma * self.mass);
        }
        for l in 0..L {
            if x[l] <= self.lower || x[l] >= self.upper {
                out[l] = 0.0;
            }
        }
    }

    fn key(&self) -> [u64; 4] {
        [
            self.mu.to_bits(),
            self.sigma.to_bits(),
            self.lower.to_bits(),
            self.upper.to_bits(),
        ]
    }
}

/// One fused operation. Ops write their result to consecutive scratch
/// slots; n-ary ops read argument registers from the tape's shared
/// argument table.
#[derive(Clone)]
pub enum Op {
    /// `1 − exp(−rate · max(t, 0))`: Poisson exposure window.
    Exposure {
        /// Arrival rate λ.
        rate: f64,
        /// Register holding the window length.
        t: Reg,
    },
    /// Truncated-normal survival `P(X > x)`: overtime probability.
    Overtime {
        /// Precomputed survival plan.
        sf: TruncNormSf,
        /// Register holding the evaluation point.
        x: Reg,
    },
    /// Opaque scalar function of the *full* input point (fallback for
    /// closure-based probability expressions). Must return NaN rather
    /// than panic on failure.
    Closure {
        /// The function.
        f: ClosureFn,
    },
    /// `1 − x`.
    Complement {
        /// Argument register.
        x: Reg,
    },
    /// `c · x` (folded constant coefficient).
    Scale {
        /// Coefficient.
        c: f64,
        /// Argument register.
        x: Reg,
    },
    /// `c · ∏ args`: fused n-ary product with folded constant factors.
    Product {
        /// Folded constant coefficient.
        c: f64,
        /// Range into the tape's argument table.
        args: ArgRange,
    },
    /// `min(bias + Σ args, 1)`: clamped probability sum (hazard
    /// probabilities, saturating sums).
    ///
    /// Only the **upper** clamp is materialized: every argument is a
    /// probability ≥ 0 by construction (the model layer validates
    /// factors into `[0, 1]`, and opaque closures surface failures as
    /// NaN — which both clamps deliberately pass through), so the lower
    /// guard of the scalar rare-event sum
    /// (`Hazard::probability`'s `[0, 1]` clamp) can never fire on a
    /// lowered tape and is not re-checked per point.
    SumClamp {
        /// Folded constant offset.
        bias: f64,
        /// Range into the tape's argument table.
        args: ArgRange,
    },
    /// A fused run of Shannon/ITE nodes — the kernel of BDD-exact hazard
    /// quantification. The first node is generic, `acc = p·hi + (1−p)·lo`;
    /// each later [`ChainStep`] folds the running value `acc` into one
    /// more node whose other operands are registers or constants. Only
    /// the last node's value gets a register. [`TapeBuilder::mul_add`]
    /// emits one node per call; [`TapeBuilder::build`] merges every run
    /// in which a node's only reader is the next node's `hi` or `lo`
    /// (so a chain of no later steps is a single node). Every step runs
    /// exactly the BDD oracle's float sequence
    /// (`fta::bdd::TreeBdd::probability`): multiply high, complement,
    /// multiply low, add.
    Chain {
        /// Branch probability of the first node (its BDD variable's leaf
        /// probability).
        p: Value,
        /// High cofactor of the first node (the variable failed).
        hi: Value,
        /// Low cofactor of the first node (the variable works).
        lo: Value,
        /// The later nodes, in evaluation order.
        steps: StepRange,
    },
}

/// One later node of an [`Op::Chain`]: combines the running value `acc`
/// of the nodes below it with its own operands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChainStep {
    /// `p + (1−p)·acc`: the high cofactor is the constant 1 (an OR node
    /// of a coherent tree), so `p·1.0 = p` is skipped — it is exact.
    Or {
        /// Branch probability.
        p: Value,
    },
    /// `p·acc + (1−p)·lo`: the chain runs through the high branch.
    Hi {
        /// Branch probability.
        p: Value,
        /// Low cofactor.
        lo: Value,
    },
    /// `p·hi + (1−p)·acc`: the chain runs through the low branch.
    Lo {
        /// Branch probability.
        p: Value,
        /// High cofactor.
        hi: Value,
    },
}

impl ChainStep {
    /// The step's branch probability.
    pub(crate) fn p(self) -> Value {
        match self {
            ChainStep::Or { p } | ChainStep::Hi { p, .. } | ChainStep::Lo { p, .. } => p,
        }
    }

    /// The step's cofactor on the side the chain does not run through.
    pub(crate) fn other(self) -> Value {
        match self {
            ChainStep::Or { .. } => Value::Const(1.0),
            ChainStep::Hi { lo, .. } => lo,
            ChainStep::Lo { hi, .. } => hi,
        }
    }

    /// The node's value given the value `acc` of the nodes below it.
    #[inline]
    pub(crate) fn apply(self, acc: f64, scratch: &[f64]) -> f64 {
        match self {
            ChainStep::Or { p } => {
                let pv = Tape::value_at(p, scratch);
                pv + (1.0 - pv) * acc
            }
            ChainStep::Hi { p, lo } => {
                let pv = Tape::value_at(p, scratch);
                pv * acc + (1.0 - pv) * Tape::value_at(lo, scratch)
            }
            ChainStep::Lo { p, hi } => {
                let pv = Tape::value_at(p, scratch);
                pv * Tape::value_at(hi, scratch) + (1.0 - pv) * acc
            }
        }
    }
}

/// Range `[start, start + len)` into the tape's chain-step table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct StepRange {
    start: u32,
    len: u32,
}

impl StepRange {
    /// Index of the first step in the tape's step table (and of its
    /// slot after the registers of an evaluation scratch).
    pub(crate) fn start(self) -> usize {
        self.start as usize
    }

    /// Number of later steps.
    pub(crate) fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the chain is a single node.
    pub(crate) fn is_empty(self) -> bool {
        self.len == 0
    }
}

impl Op {
    /// Number of op kinds (the profiler's cell dimension).
    pub(crate) const N_KINDS: usize = 8;

    /// Stable snake_case kind names, indexed by
    /// [`kind_index`](Self::kind_index).
    pub(crate) const KIND_NAMES: [&'static str; Self::N_KINDS] = [
        "exposure",
        "overtime",
        "closure",
        "complement",
        "scale",
        "product",
        "sum_clamp",
        "chain",
    ];

    /// Dense kind index for profiler cells.
    #[inline]
    pub(crate) fn kind_index(&self) -> usize {
        match self {
            Op::Exposure { .. } => 0,
            Op::Overtime { .. } => 1,
            Op::Closure { .. } => 2,
            Op::Complement { .. } => 3,
            Op::Scale { .. } => 4,
            Op::Product { .. } => 5,
            Op::SumClamp { .. } => 6,
            Op::Chain { .. } => 7,
        }
    }

    /// Shannon nodes the op evaluates: a chain's length, 1 for every
    /// other op (the profiler's `units` per lane).
    #[inline]
    pub(crate) fn units(&self) -> u64 {
        match self {
            Op::Chain { steps, .. } => 1 + steps.len as u64,
            _ => 1,
        }
    }
}

impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Exposure { rate, t } => write!(f, "Exposure(λ={rate}, r{})", t.0),
            Op::Overtime { sf, x } => {
                write!(f, "Overtime(N({}, {}²), r{})", sf.mu, sf.sigma, x.0)
            }
            Op::Closure { .. } => write!(f, "Closure"),
            Op::Complement { x } => write!(f, "Complement(r{})", x.0),
            Op::Scale { c, x } => write!(f, "Scale({c}, r{})", x.0),
            Op::Product { c, args } => write!(f, "Product({c}, {args:?})"),
            Op::SumClamp { bias, args } => write!(f, "SumClamp({bias}, {args:?})"),
            Op::Chain { p, hi, lo, steps } => {
                write!(f, "Chain({p:?}, {hi:?}, {lo:?}, +{} steps)", steps.len)
            }
        }
    }
}

/// Range `[start, start + len)` into the tape argument table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArgRange {
    start: u32,
    len: u32,
}

/// Structural key for hash-consing ops during construction.
#[derive(PartialEq, Eq, Hash)]
enum OpKey {
    Exposure(u64, Reg),
    Overtime([u64; 4], Reg),
    Closure(usize),
    Complement(Reg),
    Scale(u64, Reg),
    Product(u64, Vec<Reg>),
    SumClamp(u64, Vec<Reg>),
    Shannon([ValueKey; 3]),
}

/// Hashable identity of a [`Value`] (constants by bit pattern).
#[derive(PartialEq, Eq, Hash, Clone, Copy)]
enum ValueKey {
    Const(u64),
    Reg(Reg),
}

fn value_key(v: Value) -> ValueKey {
    match v {
        Value::Const(c) => ValueKey::Const(c.to_bits()),
        Value::Reg(r) => ValueKey::Reg(r),
    }
}

/// A value during lowering: either a compile-time constant or a register.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Known at compile time; never materialized in the scratch.
    Const(f64),
    /// Computed at evaluation time.
    Reg(Reg),
}

impl Value {
    /// The register, if the value is computed at evaluation time.
    pub(crate) fn reg(self) -> Option<Reg> {
        match self {
            Value::Reg(r) => Some(r),
            Value::Const(_) => None,
        }
    }
}

/// Compile-time statistics of one [`TapeBuilder`] run — how much work
/// folding, hash-consing, and fusion saved. Recorded unconditionally
/// (independent of the telemetry mode) and stored on the built [`Tape`],
/// so compile profiles are always inspectable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Op-constructor requests (`exposure`, `product`, …). Nested
    /// fusions count per constructor reached (a product degrading to a
    /// scale counts both).
    pub ops_requested: u64,
    /// Ops the op constructors emitted, before chain fusion: one per
    /// Shannon node (the count [`TapeBuilder::compile_stats`] reports
    /// while lowering, so compile budgets and pinned stats keep their
    /// meaning).
    pub ops_emitted: u64,
    /// Requests resolved entirely at compile time (constant folding and
    /// identity shortcuts).
    pub const_folded: u64,
    /// Requests deduplicated against an already-interned op
    /// (hash-consing hits).
    pub interned_hits: u64,
    /// Emitted fused n-ary ops and Shannon nodes ([`Op::Product`],
    /// [`Op::SumClamp`], one per [`TapeBuilder::mul_add`] node).
    pub fused_ops: u64,
    /// Shannon nodes merged into the chain of the node they feed (the
    /// later steps of every [`Op::Chain`] on the built tape). On a
    /// single-model tape `n_ops() == ops_emitted − chain_steps`.
    pub chain_steps: u64,
}

/// The op slots one sweep visits, ascending (dependency order): every
/// op of a tape (`0..n_ops`) or one fleet model's reachability mask
/// (`&[u32]`). Each sweep loop is generic over it, so the whole-tape
/// loop monomorphizes to a plain counted loop and no loop branches on
/// which kind it runs.
pub(crate) trait Slots: Clone + Sync {
    /// Number of slots visited.
    fn n_slots(&self) -> usize;
    /// The `i`-th slot visited.
    fn slot(&self, i: usize) -> usize;
}

impl Slots for std::ops::Range<usize> {
    #[inline]
    fn n_slots(&self) -> usize {
        self.end - self.start
    }

    #[inline]
    fn slot(&self, i: usize) -> usize {
        self.start + i
    }
}

impl Slots for &[u32] {
    #[inline]
    fn n_slots(&self) -> usize {
        self.len()
    }

    #[inline]
    fn slot(&self, i: usize) -> usize {
        self[i] as usize
    }
}

/// A compiled weighted-sum-of-clamped-sums evaluation plan.
///
/// Layout of the evaluation scratch: `[inputs… | op outputs…]`. Outputs
/// (one per declared sum, e.g. one per hazard) are read from the
/// registers in `Tape::outputs`; the scalar result is
/// `Σ weights[i] · output[i]`.
#[derive(Debug, Clone)]
pub struct Tape {
    pub(crate) n_inputs: usize,
    pub(crate) ops: Vec<Op>,
    pub(crate) args: Vec<Reg>,
    /// The later steps of every [`Op::Chain`], indexed by its
    /// [`StepRange`].
    pub(crate) steps: Vec<ChainStep>,
    pub(crate) outputs: Vec<Value>,
    pub(crate) weights: Vec<f64>,
    pub(crate) stats: CompileStats,
    /// Per-op sweep profiler, shared across clones (evaluators and
    /// worker threads accumulate into the same cells). Inert unless
    /// `SAFETY_OPT_TELEMETRY=profile`.
    pub(crate) profiler: Arc<crate::profile::TapeProfiler>,
}

impl Tape {
    /// Number of input coordinates the tape expects.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of declared outputs (hazards).
    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of ops the sweeps run, after folding, deduplication and
    /// chain fusion — a run of Shannon nodes counts once (a proxy for
    /// evaluation cost; exposed for tests and diagnostics).
    /// [`CompileStats::ops_emitted`] counts the ops before fusion.
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// Compile-time statistics recorded while this tape was built
    /// (always populated, independent of the telemetry mode).
    pub fn compile_stats(&self) -> CompileStats {
        self.stats
    }

    /// Per-op sweep-time attribution accumulated so far (populated only
    /// under `SAFETY_OPT_TELEMETRY=profile`; see [`crate::profile`]). Clones
    /// of this tape share the cells, so one report covers every
    /// evaluator and worker thread sweeping it.
    pub fn profile_report(&self) -> crate::profile::ProfileReport {
        self.profiler.report()
    }

    /// Zeroes the per-op profiler cells (e.g. between profiled phases).
    pub fn reset_profile(&self) {
        self.profiler.reset();
    }

    /// Output weights (hazard costs).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Scratch length required by [`eval_into`](Self::eval_into): the
    /// inputs, one register per op, then one slot per later chain step
    /// (the running value entering it, which the chain VJP reads).
    pub fn scratch_len(&self) -> usize {
        self.n_regs() + self.steps.len()
    }

    /// Registers: the inputs, then one per op (the adjoint's length).
    pub(crate) fn n_regs(&self) -> usize {
        self.n_inputs + self.ops.len()
    }

    /// Evaluates the tape at `x`, writing per-output values into
    /// `outputs` (length [`n_outputs`](Self::n_outputs)) and returning
    /// the weighted sum. `scratch` is resized as needed and reused
    /// across calls — a steady-state evaluation allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from [`n_inputs`](Self::n_inputs) or
    /// `outputs.len()` from [`n_outputs`](Self::n_outputs).
    pub fn eval_into(&self, x: &[f64], scratch: &mut Vec<f64>, outputs: &mut [f64]) -> f64 {
        self.forward(0..self.n_ops(), x, scratch);
        assert_eq!(outputs.len(), self.outputs.len(), "output arity mismatch");
        self.read_outputs(scratch, 0..self.outputs.len(), outputs)
    }

    /// The scalar forward sweep: loads `x` into `scratch` (resized only
    /// when its length changes) and evaluates the op `slots` in order.
    /// Nothing is zeroed: ops only read the inputs and slots earlier ops
    /// of the same sweep wrote, so a scratch left over from another
    /// sweep (another model's mask, say) cannot leak into the result.
    pub(crate) fn forward<S: Slots>(&self, slots: S, x: &[f64], scratch: &mut Vec<f64>) {
        assert_eq!(x.len(), self.n_inputs, "input arity mismatch");
        scratch.resize(self.scratch_len(), 0.0);
        scratch[..self.n_inputs].copy_from_slice(x);
        let mut timer = crate::profile::OpTimer::new();
        for i in 0..slots.n_slots() {
            let slot = slots.slot(i);
            let op = &self.ops[slot];
            scratch[self.n_inputs + slot] = self.op_value(op, scratch);
            timer.lap(
                &self.profiler,
                op,
                crate::profile::PATH_SCALAR,
                crate::profile::SWEEP_FORWARD,
                1,
            );
        }
    }

    /// Value of one op given the current scratch; a chain also writes
    /// the running value entering each later step into its step slot.
    /// Ops only read slots of earlier ops, so a partial scratch with
    /// every dependency written is sufficient — the masked sweeps rely
    /// on that.
    #[inline]
    pub(crate) fn op_value(&self, op: &Op, scratch: &mut [f64]) -> f64 {
        match op {
            Op::Exposure { rate, t } => {
                let w = scratch[t.index()].max(0.0);
                -(-rate * w).exp_m1()
            }
            Op::Overtime { sf, x } => sf.eval(scratch[x.index()]),
            Op::Closure { f } => f(&scratch[..self.n_inputs]),
            Op::Complement { x } => 1.0 - scratch[x.index()],
            Op::Scale { c, x } => c * scratch[x.index()],
            Op::Product { c, args } => {
                let mut acc = *c;
                for r in self.arg_slice(*args) {
                    acc *= scratch[r.index()];
                }
                acc
            }
            Op::SumClamp { bias, args } => {
                let mut acc = *bias;
                for r in self.arg_slice(*args) {
                    acc += scratch[r.index()];
                }
                // Branch instead of f64::min so NaN (= evaluation
                // failure) propagates instead of clamping to 1.
                if acc > 1.0 {
                    1.0
                } else {
                    acc
                }
            }
            Op::Chain { p, hi, lo, steps } => {
                let pv = Self::value_at(*p, scratch);
                let hv = Self::value_at(*hi, scratch);
                let lv = Self::value_at(*lo, scratch);
                let acc = pv * hv + (1.0 - pv) * lv;
                if steps.is_empty() {
                    acc
                } else {
                    self.chain_steps_value(acc, *steps, scratch)
                }
            }
        }
    }

    /// Runs a chain's later steps from the first node's value `acc` and
    /// returns the chain's value; writes the running value entering each
    /// step into its step slot. Kept out of line so the per-op match of
    /// [`op_value`](Self::op_value) stays small enough to inline.
    #[inline(never)]
    fn chain_steps_value(&self, mut acc: f64, steps: StepRange, scratch: &mut [f64]) -> f64 {
        let base = self.n_regs() + steps.start();
        for (i, step) in self.chain_steps(steps).iter().enumerate() {
            scratch[base + i] = acc;
            acc = step.apply(acc, scratch);
        }
        acc
    }

    /// Resolves a [`Value`] against an evaluation scratch.
    #[inline]
    pub(crate) fn value_at(v: Value, scratch: &[f64]) -> f64 {
        match v {
            Value::Const(c) => c,
            Value::Reg(r) => scratch[r.index()],
        }
    }

    /// Reads the declared outputs in `range` from an evaluated scratch
    /// into `outputs` and returns their weighted sum.
    pub(crate) fn read_outputs(
        &self,
        scratch: &[f64],
        range: std::ops::Range<usize>,
        outputs: &mut [f64],
    ) -> f64 {
        let mut cost = 0.0;
        for (out, (value, w)) in outputs
            .iter_mut()
            .zip(self.outputs[range.clone()].iter().zip(&self.weights[range]))
        {
            let v = match value {
                Value::Const(c) => *c,
                Value::Reg(r) => scratch[r.index()],
            };
            *out = v;
            cost += v * w;
        }
        cost
    }

    /// Convenience wrapper allocating its own buffers.
    pub fn eval(&self, x: &[f64]) -> f64 {
        let mut scratch = Vec::new();
        let mut outputs = vec![0.0; self.outputs.len()];
        self.eval_into(x, &mut scratch, &mut outputs)
    }

    pub(crate) fn arg_slice(&self, range: ArgRange) -> &[Reg] {
        &self.args[range.start as usize..(range.start + range.len) as usize]
    }

    /// The later steps of a chain.
    pub(crate) fn chain_steps(&self, range: StepRange) -> &[ChainStep] {
        &self.steps[range.start()..range.start() + range.len()]
    }
}

/// [`TapeBuilder`]'s touch-order entry of a register the current model
/// has not touched.
const UNTOUCHED: u32 = u32::MAX;

/// Builder for [`Tape`] with hash-consing and constant folding.
///
/// Commutative n-ary ops (products, clamped sums) canonicalize their
/// arguments by **touch order** — the order in which each register was
/// first produced for the model currently being lowered. For a
/// single-model build touch order coincides with register order, so the
/// canonicalization is unobservable; for a multi-model fleet build
/// ([`crate::fleet::FleetBuilder`] resets the order at model boundaries)
/// it guarantees each model's ops multiply and sum in exactly the order
/// its standalone tape would, keeping fleet evaluation bit-identical to
/// per-model compilation even when hash-consing interleaves registers
/// across models.
///
/// The hash-consing table is keyed by op structure (register numbers and
/// float bit patterns) and hashes with the small [`FxHashMap`]; the touch
/// order is a `Vec` indexed by register. No table here is keyed by text
/// from the input, so none needs std's randomly seeded hasher (see
/// [`crate::hash`]).
#[derive(Default)]
pub struct TapeBuilder {
    n_inputs: usize,
    ops: Vec<Op>,
    args: Vec<Reg>,
    interned: FxHashMap<OpKey, Reg>,
    outputs: Vec<Value>,
    weights: Vec<f64>,
    stats: CompileStats,
    /// First-touch sequence number per register for the model currently
    /// being lowered (inputs are pre-touched in index order), indexed by
    /// register; [`UNTOUCHED`] past the end or where not touched yet.
    touch: Vec<u32>,
    next_touch: u32,
}

impl std::fmt::Debug for TapeBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TapeBuilder")
            .field("n_inputs", &self.n_inputs)
            .field("ops", &self.ops.len())
            .field("outputs", &self.outputs.len())
            .finish()
    }
}

impl TapeBuilder {
    /// Starts a tape over `n_inputs` input coordinates.
    pub fn new(n_inputs: usize) -> Self {
        let mut b = Self {
            n_inputs,
            ..Self::default()
        };
        b.reset_model_order();
        b
    }

    /// Resets the per-model touch order (used by the fleet builder at
    /// model boundaries). Interned ops survive; only the argument
    /// canonicalization order of *subsequently built* ops restarts, so
    /// the next model's commutative ops order their arguments exactly as
    /// a standalone build of that model would.
    pub(crate) fn reset_model_order(&mut self) {
        self.touch.clear();
        self.touch.extend(0..self.n_inputs as u32);
        self.next_touch = self.n_inputs as u32;
    }

    /// First-touch sequence number of `r` for the current model,
    /// assigned on demand.
    fn touch_key(&mut self, r: Reg) -> u32 {
        let i = r.index();
        if i >= self.touch.len() {
            self.touch.resize(i + 1, UNTOUCHED);
        }
        if self.touch[i] == UNTOUCHED {
            self.touch[i] = self.next_touch;
            self.next_touch += 1;
        }
        self.touch[i]
    }

    /// Register holding input coordinate `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn input(&self, i: usize) -> Value {
        assert!(i < self.n_inputs, "input {i} out of range");
        Value::Reg(Reg(i as u32))
    }

    /// A compile-time constant.
    pub fn constant(&self, v: f64) -> Value {
        Value::Const(v)
    }

    fn push(&mut self, key: OpKey, op: Op) -> Reg {
        if let Some(&r) = self.interned.get(&key) {
            self.stats.interned_hits += 1;
            self.touch_key(r);
            return r;
        }
        self.stats.ops_emitted += 1;
        if matches!(
            op,
            Op::Product { .. } | Op::SumClamp { .. } | Op::Chain { .. }
        ) {
            self.stats.fused_ops += 1;
        }
        let r = Reg((self.n_inputs + self.ops.len()) as u32);
        self.ops.push(op);
        self.interned.insert(key, r);
        self.touch_key(r);
        r
    }

    /// `1 − exp(−rate · max(t, 0))`.
    pub fn exposure(&mut self, rate: f64, t: Value) -> Value {
        self.stats.ops_requested += 1;
        match t {
            Value::Const(w) => {
                self.stats.const_folded += 1;
                Value::Const(-(-rate * w.max(0.0)).exp_m1())
            }
            Value::Reg(t) => {
                Value::Reg(self.push(OpKey::Exposure(rate.to_bits(), t), Op::Exposure { rate, t }))
            }
        }
    }

    /// Truncated-normal survival `P(X > x)`.
    pub fn overtime(&mut self, dist: &TruncatedNormal, x: Value) -> Value {
        self.stats.ops_requested += 1;
        let sf = TruncNormSf::new(dist);
        match x {
            // Constant argument: fold through the *scalar* path so the
            // folded value is bit-identical to the interpreter's.
            Value::Const(x) => {
                self.stats.const_folded += 1;
                Value::Const(dist.sf(x))
            }
            Value::Reg(x) => {
                Value::Reg(self.push(OpKey::Overtime(sf.key(), x), Op::Overtime { sf, x }))
            }
        }
    }

    /// Opaque closure over the full input point. `identity` is the
    /// deduplication key — pass a stable address (e.g. the shared
    /// expression node's pointer) so clones of one expression lower to
    /// one op; pass a unique value to opt out.
    pub fn closure(&mut self, identity: usize, f: ClosureFn) -> Value {
        self.stats.ops_requested += 1;
        Value::Reg(self.push(OpKey::Closure(identity), Op::Closure { f }))
    }

    /// `1 − x`.
    pub fn complement(&mut self, x: Value) -> Value {
        self.stats.ops_requested += 1;
        match x {
            Value::Const(v) => {
                self.stats.const_folded += 1;
                Value::Const(1.0 - v)
            }
            Value::Reg(x) => Value::Reg(self.push(OpKey::Complement(x), Op::Complement { x })),
        }
    }

    /// `c · x`.
    pub fn scale(&mut self, c: f64, x: Value) -> Value {
        self.stats.ops_requested += 1;
        match x {
            Value::Const(v) => {
                self.stats.const_folded += 1;
                Value::Const(c * v)
            }
            Value::Reg(_) if c == 1.0 => {
                self.stats.const_folded += 1;
                x
            }
            Value::Reg(x) => {
                Value::Reg(self.push(OpKey::Scale(c.to_bits(), x), Op::Scale { c, x }))
            }
        }
    }

    /// `∏ factors`: constant factors fold into a coefficient; zero or one
    /// remaining registers degrade to a constant or a scale.
    pub fn product(&mut self, factors: impl IntoIterator<Item = Value>) -> Value {
        self.stats.ops_requested += 1;
        let mut c = 1.0;
        let mut regs: Vec<Reg> = Vec::new();
        for f in factors {
            match f {
                Value::Const(v) => c *= v,
                Value::Reg(r) => regs.push(r),
            }
        }
        match regs.len() {
            0 => {
                self.stats.const_folded += 1;
                Value::Const(c)
            }
            1 => self.scale(c, Value::Reg(regs[0])),
            _ => {
                // Canonical order maximizes sharing of commutative
                // products across cut sets; touch order == register
                // order for single-model builds, and the current
                // model's standalone order in fleet builds.
                for &r in &regs {
                    self.touch_key(r);
                }
                let touch = &self.touch;
                regs.sort_by_key(|r| touch[r.index()]);
                let key = OpKey::Product(c.to_bits(), regs.clone());
                if let Some(&r) = self.interned.get(&key) {
                    // First demand of an op interned by an earlier model
                    // still counts as this model's touch.
                    self.stats.interned_hits += 1;
                    self.touch_key(r);
                    return Value::Reg(r);
                }
                let args = self.intern_args(&regs);
                Value::Reg(self.push(key, Op::Product { c, args }))
            }
        }
    }

    /// `min(bias + Σ terms, 1)`.
    pub fn sum_clamped(&mut self, bias: f64, terms: impl IntoIterator<Item = Value>) -> Value {
        self.stats.ops_requested += 1;
        let mut b = bias;
        let mut regs: Vec<Reg> = Vec::new();
        for t in terms {
            match t {
                Value::Const(v) => b += v,
                Value::Reg(r) => regs.push(r),
            }
        }
        if regs.is_empty() {
            self.stats.const_folded += 1;
            return Value::Const(b.min(1.0));
        }
        for &r in &regs {
            self.touch_key(r);
        }
        let touch = &self.touch;
        regs.sort_by_key(|r| touch[r.index()]);
        let key = OpKey::SumClamp(b.to_bits(), regs.clone());
        if let Some(&r) = self.interned.get(&key) {
            // First demand of an op interned by an earlier model still
            // counts as this model's touch.
            self.stats.interned_hits += 1;
            self.touch_key(r);
            return Value::Reg(r);
        }
        let args = self.intern_args(&regs);
        Value::Reg(self.push(key, Op::SumClamp { bias: b, args }))
    }

    /// `p·hi + (1−p)·lo`: one Shannon/ITE node of BDD-exact
    /// quantification ([`build`](Self::build) merges single-reader runs
    /// of them into [`Op::Chain`]s). An all-constant node folds at build time with the
    /// same float sequence the runtime kernel (and the BDD oracle) uses;
    /// everything else — including a constant selector over computed
    /// cofactors — stays one op, so NaN cofactors propagate exactly as
    /// the oracle's `p·hi + (1−p)·lo` arithmetic would (`0·NaN` is NaN;
    /// short-circuiting a `p = 0` branch would lose that). Structurally
    /// identical nodes hash-cons, which is what dedups shared BDD
    /// subgraphs within and across hazards.
    pub fn mul_add(&mut self, p: Value, hi: Value, lo: Value) -> Value {
        self.stats.ops_requested += 1;
        if let (Value::Const(pc), Value::Const(h), Value::Const(l)) = (p, hi, lo) {
            self.stats.const_folded += 1;
            return Value::Const(pc * h + (1.0 - pc) * l);
        }
        // Touch operands in consumption order so fleet builds
        // canonicalize later commutative ops exactly like a standalone
        // build (mirrors `product`/`sum_clamped`).
        for v in [p, hi, lo] {
            if let Value::Reg(r) = v {
                self.touch_key(r);
            }
        }
        let key = OpKey::Shannon([value_key(p), value_key(hi), value_key(lo)]);
        let node = Op::Chain {
            p,
            hi,
            lo,
            steps: StepRange::default(),
        };
        Value::Reg(self.push(key, node))
    }

    fn intern_args(&mut self, regs: &[Reg]) -> ArgRange {
        let start = self.args.len() as u32;
        self.args.extend_from_slice(regs);
        ArgRange {
            start,
            len: regs.len() as u32,
        }
    }

    /// Declares `value` as the next output with weight `weight`.
    pub fn output(&mut self, value: Value, weight: f64) {
        self.outputs.push(value);
        self.weights.push(weight);
    }

    /// Number of outputs declared so far (model-boundary bookkeeping for
    /// the fleet builder).
    pub(crate) fn outputs_len(&self) -> usize {
        self.outputs.len()
    }

    /// Discards outputs declared after the first `len` (fleet-builder
    /// rollback of a model whose lowering failed part-way; its interned
    /// ops stay in the builder, and the fleet build leaves out those no
    /// finished model touched).
    pub(crate) fn truncate_outputs(&mut self, len: usize) {
        self.outputs.truncate(len);
        self.weights.truncate(len);
    }

    /// Compile-time statistics recorded so far (mode-independent).
    pub fn compile_stats(&self) -> CompileStats {
        self.stats
    }

    /// The ops emitted so far, before chain fusion: every Shannon node
    /// is an [`Op::Chain`] of no later steps. A read-only view for tests
    /// and diagnostics; op `i` writes register `n_inputs + i`.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The argument registers of an n-ary op of [`ops`](Self::ops).
    pub fn arg_regs(&self, range: ArgRange) -> &[Reg] {
        &self.args[range.start as usize..(range.start + range.len) as usize]
    }

    /// The outputs declared so far and their weights.
    pub fn declared_outputs(&self) -> (&[Value], &[f64]) {
        (&self.outputs, &self.weights)
    }

    /// The current model's op slots in the order it first touched them —
    /// the order its standalone build emits them (the fleet builder's
    /// per-model plan for chain fusion).
    pub(crate) fn model_order(&self) -> Vec<u32> {
        let mut touched: Vec<(u32, u32)> = self
            .touch
            .iter()
            .enumerate()
            .skip(self.n_inputs)
            .filter(|&(_, &k)| k != UNTOUCHED)
            .map(|(r, &k)| (k, (r - self.n_inputs) as u32))
            .collect();
        touched.sort_unstable();
        touched.into_iter().map(|(_, slot)| slot).collect()
    }

    /// Finalizes the tape: merges single-reader runs of Shannon nodes
    /// into [`Op::Chain`]s and publishes the compile statistics to the
    /// telemetry registry (a per-build event — never on the eval path).
    ///
    /// A node merges into the node above it when that node is its only
    /// reader (outputs count as readers) and reads it as `hi` or `lo`.
    /// The backward sweep runs a chain's steps together at the chain's
    /// slot, so a chain also stops before an op that reads a register
    /// an earlier step of the chain reads: every register then gets its
    /// adjoint additions in the per-node order, and values and
    /// gradients stay bit-identical to the per-node tape.
    pub fn build(self) -> Tape {
        let model = ModelOps {
            order: (0..self.ops.len() as u32).collect(),
            outputs: 0..self.outputs.len(),
        };
        self.build_models(&[model])
    }

    /// [`build`](Self::build) for a fleet arena: each model's ops are
    /// fused as its standalone build would fuse them, and the arena is
    /// their hash-consed union (ops no model touched are dropped).
    pub(crate) fn build_models(self, models: &[ModelOps]) -> Tape {
        TAPE_BUILDS.add(1);
        TAPE_OPS_REQUESTED.add(self.stats.ops_requested);
        TAPE_OPS_EMITTED.add(self.stats.ops_emitted);
        TAPE_CONST_FOLDED.add(self.stats.const_folded);
        TAPE_INTERNED_HITS.add(self.stats.interned_hits);
        TAPE_FUSED_OPS.add(self.stats.fused_ops);
        let Self {
            n_inputs,
            ops,
            args,
            outputs,
            weights,
            stats,
            interned,
            touch,
            ..
        } = self;
        // Dead once lowering ends: freed before the fused copy is made.
        drop((interned, touch));
        let fused = fuse::fuse(n_inputs, &ops, &args, &outputs, models);
        Tape {
            n_inputs,
            ops: fused.ops,
            args: fused.args,
            stats: CompileStats {
                chain_steps: fused.steps.len() as u64,
                ..stats
            },
            steps: fused.steps,
            outputs: fused.outputs,
            weights,
            profiler: Arc::new(crate::profile::TapeProfiler::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding_eliminates_pure_const_outputs() {
        let mut b = TapeBuilder::new(1);
        let c1 = b.constant(0.25);
        let c2 = b.constant(0.5);
        let prod = b.product([c1, c2]);
        assert_eq!(prod, Value::Const(0.125));
        let h = b.sum_clamped(0.1, [prod]);
        assert_eq!(h, Value::Const(0.225));
        b.output(h, 2.0);
        let tape = b.build();
        assert_eq!(tape.n_ops(), 0);
        let mut out = [0.0];
        let mut scratch = Vec::new();
        let cost = tape.eval_into(&[7.0], &mut scratch, &mut out);
        assert_eq!(out[0], 0.225);
        assert!((cost - 0.45).abs() < 1e-15);
    }

    #[test]
    fn hash_consing_shares_identical_subexpressions() {
        let d = TruncatedNormal::lower_bounded(4.0, 2.0, 0.0).unwrap();
        let mut b = TapeBuilder::new(2);
        let t1 = b.input(0);
        let ot_a = b.overtime(&d, t1);
        let ot_b = b.overtime(&d, t1);
        assert_eq!(ot_a, ot_b, "same dist + same reg must intern to one op");
        let t2 = b.input(1);
        let ot_c = b.overtime(&d, t2);
        assert_ne!(ot_a, ot_c);
        assert_eq!(b.ops.len(), 2);
    }

    #[test]
    fn products_fold_constants_and_canonicalize() {
        let mut b = TapeBuilder::new(2);
        let e1 = b.exposure(0.5, b.input(0));
        let e2 = b.exposure(0.25, b.input(1));
        let half = b.constant(0.5);
        let p1 = b.product([e1, half, e2]);
        let p2 = b.product([e2, e1, b.constant(0.5)]); // permuted
        assert_eq!(p1, p2, "commutative products must share");
    }

    #[test]
    fn evaluation_matches_hand_computation() {
        let d = TruncatedNormal::lower_bounded(4.0, 2.0, 0.0).unwrap();
        let mut b = TapeBuilder::new(2);
        let t1 = b.input(0);
        let t2 = b.input(1);
        let ot1 = b.overtime(&d, t1);
        let not1 = b.complement(ot1);
        let ot2 = b.overtime(&d, t2);
        let crit = b.constant(1e-3);
        let cs1 = b.product([crit, ot1]);
        let cs2 = b.product([crit, not1, ot2]);
        let hazard = b.sum_clamped(1e-8, [cs1, cs2]);
        b.output(hazard, 100_000.0);
        let tape = b.build();

        let x = [10.0, 12.0];
        let ot1v = d.sf(10.0);
        let ot2v = d.sf(12.0);
        let want = 1e-8 + 1e-3 * ot1v + 1e-3 * (1.0 - ot1v) * ot2v;
        let mut out = [0.0];
        let mut scratch = Vec::new();
        let cost = tape.eval_into(&x, &mut scratch, &mut out);
        assert!((out[0] - want).abs() < 1e-15, "{} vs {want}", out[0]);
        assert!((cost - 1e5 * want).abs() < 1e-9);
    }

    #[test]
    fn sum_clamps_at_one() {
        let mut b = TapeBuilder::new(1);
        let e = b.exposure(100.0, b.input(0));
        let h = b.sum_clamped(0.9, [e, e]);
        b.output(h, 1.0);
        let tape = b.build();
        assert_eq!(tape.eval(&[10.0]), 1.0);
    }

    #[test]
    fn closures_dedupe_by_identity() {
        let f: ClosureFn = Arc::new(|x: &[f64]| x[0] * 0.5);
        let mut b = TapeBuilder::new(1);
        let a = b.closure(1, Arc::clone(&f));
        let b2 = b.closure(1, Arc::clone(&f));
        let c = b.closure(2, f);
        assert_eq!(a, b2);
        assert_ne!(a, c);
    }

    #[test]
    fn nan_from_closures_propagates() {
        let mut b = TapeBuilder::new(1);
        let bad = b.closure(1, Arc::new(|_: &[f64]| f64::NAN));
        let h = b.sum_clamped(0.0, [bad]);
        b.output(h, 1.0);
        let tape = b.build();
        assert!(tape.eval(&[0.5]).is_nan());
    }

    #[test]
    fn mul_add_matches_shannon_arithmetic() {
        // Tape over (p, h, l): one Shannon node.
        let mut b = TapeBuilder::new(3);
        let node = b.mul_add(b.input(0), b.input(1), b.input(2));
        b.output(node, 1.0);
        let tape = b.build();
        let (p, h, l) = (0.3, 0.7, 0.2);
        let want = p * h + (1.0 - p) * l;
        assert_eq!(tape.eval(&[p, h, l]).to_bits(), want.to_bits());
    }

    #[test]
    fn mul_add_folds_constants_and_hash_conses() {
        let mut b = TapeBuilder::new(1);
        // All-constant node folds with the oracle's float sequence.
        let folded = b.mul_add(b.constant(0.25), b.constant(0.8), b.constant(0.4));
        assert_eq!(folded, Value::Const(0.25 * 0.8 + (1.0 - 0.25) * 0.4));
        // Structurally identical nodes intern to one op…
        let e = b.exposure(0.5, b.input(0));
        let n1 = b.mul_add(e, b.constant(1.0), b.constant(0.0));
        let n2 = b.mul_add(e, b.constant(1.0), b.constant(0.0));
        assert_eq!(n1, n2);
        // …different cofactors do not.
        let n3 = b.mul_add(e, b.constant(0.0), b.constant(1.0));
        assert_ne!(n1, n3);
        assert_eq!(b.ops.len(), 3);
    }

    #[test]
    fn mul_add_keeps_nan_cofactors() {
        // A constant selector over a NaN cofactor must not short-circuit:
        // 0·NaN + 1·v is NaN, exactly like the BDD oracle's arithmetic.
        let mut b = TapeBuilder::new(1);
        let bad = b.closure(1, Arc::new(|_: &[f64]| f64::NAN));
        let node = b.mul_add(b.constant(0.0), bad, b.constant(0.5));
        b.output(node, 1.0);
        assert!(b.build().eval(&[0.1]).is_nan());
    }

    #[test]
    #[should_panic(expected = "input arity mismatch")]
    fn arity_is_checked() {
        let mut b = TapeBuilder::new(2);
        let h = b.sum_clamped(0.5, [b.input(0)]);
        b.output(h, 1.0);
        b.build().eval(&[1.0]);
    }
}
