//! Reverse-mode adjoint differentiation of a compiled [`Tape`].
//!
//! The optimizer and the sensitivity sweeps both need `∇f_cost(X)` — and
//! until now built it from central differences: `2·dim` full tape sweeps
//! per gradient, plus more inside every Armijo line search. The op-tape
//! makes the adjoint (vector–Jacobian product) sweep cheap instead: one
//! **forward** pass records every op's value, one **backward** pass
//! pushes the output weights through each op's analytic local
//! derivative, and *all* partials fall out at a cost independent of the
//! input dimension (≈2–3× one forward sweep).
//!
//! Per-op VJPs:
//!
//! * [`Op::Exposure`] — `y = 1 − e^{−λ·max(t,0)}`: `∂y/∂t = λ·e^{−λt}`
//!   for `t > 0`, **subgradient 0** on the clamped branch (`t ≤ 0`).
//! * [`Op::Overtime`] — truncated-normal survival: `∂y/∂x =
//!   −φ(z)/(σ·mass)` strictly inside the support, 0 on the clamped
//!   tails (the same normalization constants the forward plan
//!   precomputed; only the normal pdf is evaluated per point).
//! * [`Op::Complement`] / [`Op::Scale`] — `−1` and `c`.
//! * [`Op::Product`] — division-free via prefix/suffix partial
//!   products, so zero factors and NaN propagate exactly as the forward
//!   multiply would (no `y / xᵢ` blow-ups).
//! * [`Op::SumClamp`] — pass-through below the clamp, **subgradient 0**
//!   once `bias + Σ args > 1` (the forward branch condition, re-checked
//!   bit-for-bit in the backward sweep).
//! * [`Op::Chain`] — a run of Shannon/ITE nodes `p·h + (1−p)·l`, each
//!   with `∂/∂p = h − l`, `∂/∂h = p`, `∂/∂l = 1 − p`. The VJP walks the
//!   steps in reverse from each step's kept incoming value and carries
//!   the chain's adjoint in a local, exactly as the per-node registers
//!   would hold it (`0.0 + a·q`, dead once 0). On a tape whose inputs are
//!   leaf probabilities this is exactly the Birnbaum-importance
//!   recursion, so one backward sweep yields every `∂P/∂qᵢ` at once.
//! * [`Op::Closure`] — opaque functions have no structure to
//!   differentiate; the backward pass falls back to **per-op central
//!   differences** of just that closure (`2·dim` closure calls, not
//!   `2·dim` tape sweeps), so every existing model still differentiates.
//!
//! Kinks inherit a subgradient, not an average: at `t = 0` exposure
//! windows and at saturated hazard sums the adjoint reports the
//! flat-side derivative (0), which is the conservative choice for a
//! descent method — it never manufactures descent out of a clamped
//! branch.
//!
//! Hash-consed ops shared across hazards accumulate their adjoints
//! additively, so sharing is handled by construction. Each direction's
//! sweep is one loop over the op slots it is given — every op of a
//! tape, or one fleet model's reachability mask. Batched gradients
//! ([`crate::BatchEvaluator::eval_grad_batch`],
//! [`crate::FleetEvaluator::model_grads`]) run on the same batch runner
//! and deterministic chunked pool as plain evaluation, and the
//! adjoint sweep runs **lane-blocked op-at-a-time** like
//! the forward sweep: the forward pass retains the whole lane-major
//! register file (`exec::LaneFile`), and the backward pass
//! sweeps each op's VJP across the block in an `AdjointFile` of the
//! same `[n_regs × LANES]` layout. Per lane the backward kernels
//! perform the scalar VJP's float sequence in the same order (including
//! the `a == 0` dead-op skip per lane, so signed zeros and NaN
//! adjoints behave identically), which makes SoA
//! gradients 0-ULP bit-identical to the scalar adjoint for every lane
//! width, thread count, and chunk size. [`Op::Closure`] VJPs and the
//! single point a chunk may leave over fall back to the scalar path
//! exactly like the forward sweep.

use crate::tape::{ChainStep, Op, Slots, StepRange, Tape, Value};
use std::ops::Range;

use safety_opt_telemetry as telemetry;

/// Completed forward + backward adjoint sweeps (one per gradient point).
static ADJOINT_SWEEPS: telemetry::Counter = telemetry::Counter::new("engine.grad.adjoint_sweeps");
/// Closure evaluations spent on the per-op central-difference fallback
/// (`2·dim` per opaque [`Op::Closure`] op per backward sweep).
static CLOSURE_FD_PROBES: telemetry::Counter =
    telemetry::Counter::new("engine.grad.closure_fd_probes");
/// Live lanes an SoA adjoint sweep pushed through the scalar `Closure`
/// central-difference fallback (the backward twin of
/// `engine.exec.closure_soa_fallback` — see the one-time warning in
/// `profile` mode).
static ADJOINT_CLOSURE_FALLBACK: telemetry::Counter =
    telemetry::Counter::new("engine.grad.closure_soa_fallback");

/// Warns once per process that an SoA **adjoint** sweep hit an opaque
/// `Closure` op — the mirror of the forward sweep's one-time warning.
/// Only at the `profile` telemetry level: the degradation is correct (the
/// fallback replays the scalar backward pass's exact probe sequence),
/// it just costs the lane-block speedup for that op.
fn warn_adjoint_closure_fallback_once(lanes: usize) {
    static WARN: std::sync::Once = std::sync::Once::new();
    static TRACE_WARN: std::sync::Once = std::sync::Once::new();
    // Machine-visible twin of the stderr diagnostic (its own latch, so
    // it fires at the `events` level, where stderr stays quiet).
    if telemetry::events_enabled() {
        TRACE_WARN.call_once(|| {
            telemetry::trace::trace_instant(
                telemetry::EventKind::Warning,
                "engine.grad.closure_soa_fallback",
                lanes as u64,
            );
        });
    }
    if telemetry::profile_enabled() {
        WARN.call_once(|| {
            eprintln!(
                "safety-opt telemetry: SoA adjoint sweep hit an opaque Closure \
                 op; falling back to per-lane central differences for that op \
                 ({lanes} lanes degraded — lower a named op instead of a \
                 closure to keep the block sweep; counted as \
                 engine.grad.closure_soa_fallback)"
            );
        });
    }
}

/// Relative step of the per-op central-difference fallback for opaque
/// [`Op::Closure`] factors (`h = ε·max(1, |xⱼ|)`), chosen near the
/// cube root of `f64::EPSILON` — the classic optimum for central
/// differences.
pub const CLOSURE_FD_EPS: f64 = 6.0554544523933395e-6;

/// Reusable buffers for [`Tape::eval_grad_into`]; steady-state gradient
/// evaluation allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct GradWorkspace {
    /// Forward values, `[inputs… | op outputs…]` — identical layout to
    /// the plain evaluation scratch.
    pub(crate) scratch: Vec<f64>,
    /// One adjoint per scratch slot (`∂f_cost/∂slot`).
    pub(crate) adjoint: Vec<f64>,
    /// Prefix partial products for the [`Op::Product`] VJP.
    prefix: Vec<f64>,
    /// Probe point for the [`Op::Closure`] central-difference fallback.
    probe: Vec<f64>,
}

impl GradWorkspace {
    /// A workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Tape {
    /// Evaluates value **and** gradient at `x` in one forward + one
    /// backward sweep: writes per-output (hazard) values into `outputs`,
    /// the cost gradient `∂(Σ wᵢ·outᵢ)/∂x` into `grad`, and returns the
    /// weighted cost — bit-identical to [`eval_into`](Self::eval_into)'s
    /// value for the same point.
    ///
    /// NaN forward values (an opaque closure signalling evaluation
    /// failure) propagate into every gradient component they reach,
    /// mirroring the forward contract.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()`, `outputs.len()`, or `grad.len()` mismatch
    /// the tape's arities.
    pub fn eval_grad_into(
        &self,
        x: &[f64],
        ws: &mut GradWorkspace,
        outputs: &mut [f64],
        grad: &mut [f64],
    ) -> f64 {
        // Forward: exactly the plain evaluation (same code path, so the
        // bit-identity contract cannot drift), with the populated
        // scratch kept for the backward sweep.
        let cost = self.eval_into(x, &mut ws.scratch, outputs);
        self.backward(0..self.n_ops(), 0..self.n_outputs(), ws, grad);
        cost
    }

    /// The scalar adjoint sweep over an evaluated `ws.scratch`: seeds
    /// `∂cost/∂outputᵢ = weightᵢ` for the declared outputs in `outputs`
    /// (in declaration order; constant outputs have no register and no
    /// derivative), visits the op `slots` in reverse pushing each
    /// slot's adjoint through its VJP, and writes the input adjoints
    /// into `grad`.
    pub(crate) fn backward<S: Slots>(
        &self,
        slots: S,
        outputs: Range<usize>,
        ws: &mut GradWorkspace,
        grad: &mut [f64],
    ) {
        assert_eq!(grad.len(), self.n_inputs(), "gradient arity mismatch");
        ws.adjoint.clear();
        ws.adjoint.resize(self.n_regs(), 0.0);
        for (value, w) in self.outputs[outputs.clone()]
            .iter()
            .zip(&self.weights[outputs])
        {
            if let Value::Reg(r) = value {
                ws.adjoint[r.index()] += *w;
            }
        }
        let mut timer = crate::profile::OpTimer::new();
        for i in (0..slots.n_slots()).rev() {
            let slot = slots.slot(i);
            self.backward_slot(slot, ws);
            timer.lap(
                &self.profiler,
                &self.ops[slot],
                crate::profile::PATH_SCALAR,
                crate::profile::SWEEP_ADJOINT,
                1,
            );
        }
        ADJOINT_SWEEPS.add(1);
        grad.copy_from_slice(&ws.adjoint[..self.n_inputs]);
    }

    /// Convenience wrapper allocating its own buffers: `(cost, ∇cost)`.
    pub fn eval_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let mut ws = GradWorkspace::new();
        let mut outputs = vec![0.0; self.n_outputs()];
        let mut grad = vec![0.0; self.n_inputs()];
        let cost = self.eval_grad_into(x, &mut ws, &mut outputs, &mut grad);
        (cost, grad)
    }

    /// One op's scalar VJP: pushes slot `slot`'s accumulated adjoint
    /// through the op's local derivative into its argument slots.
    fn backward_slot(&self, slot: usize, ws: &mut GradWorkspace) {
        let op = &self.ops[slot];
        let a = ws.adjoint[self.n_inputs + slot];
        // Dead ops (outputs nothing downstream reads, or a clamped
        // branch upstream zeroed them) contribute nothing; NaN
        // adjoints compare unequal and still propagate.
        if a == 0.0 {
            return;
        }
        match op {
            Op::Exposure { rate, t } => {
                let w = ws.scratch[t.index()];
                // λ·e^{−λt} for t > 0; subgradient 0 on the clamped
                // branch (the forward value is constant there).
                if w > 0.0 {
                    ws.adjoint[t.index()] += a * rate * (-rate * w).exp();
                }
            }
            Op::Overtime { sf, x } => {
                let xv = ws.scratch[x.index()];
                ws.adjoint[x.index()] += a * sf.deriv(xv);
            }
            Op::Closure { f } => {
                // No structure to differentiate: per-op central
                // differences over the full input point. Costs
                // 2·dim closure calls — not 2·dim tape sweeps — so
                // closure-bearing models still gain on every other
                // op.
                CLOSURE_FD_PROBES.add(2 * self.n_inputs as u64);
                ws.probe.clear();
                ws.probe.extend_from_slice(&ws.scratch[..self.n_inputs]);
                for j in 0..self.n_inputs {
                    let xj = ws.probe[j];
                    let h = CLOSURE_FD_EPS * xj.abs().max(1.0);
                    ws.probe[j] = xj + h;
                    let fp = f(&ws.probe);
                    ws.probe[j] = xj - h;
                    let fm = f(&ws.probe);
                    ws.probe[j] = xj;
                    ws.adjoint[j] += a * (fp - fm) / (2.0 * h);
                }
            }
            Op::Complement { x } => {
                ws.adjoint[x.index()] -= a;
            }
            Op::Scale { c, x } => {
                ws.adjoint[x.index()] += a * c;
            }
            Op::Product { c, args } => {
                // ∂y/∂xᵢ = c·∏_{j<i} xⱼ · ∏_{j>i} xⱼ, built from
                // prefix and suffix partial products — division-free
                // so zero factors and NaN behave exactly like the
                // forward multiply chain.
                let regs = self.arg_slice(*args);
                ws.prefix.clear();
                let mut acc = *c;
                for r in regs {
                    ws.prefix.push(acc);
                    acc *= ws.scratch[r.index()];
                }
                let mut suffix = 1.0;
                for (i, r) in regs.iter().enumerate().rev() {
                    ws.adjoint[r.index()] += a * ws.prefix[i] * suffix;
                    suffix *= ws.scratch[r.index()];
                }
            }
            Op::Chain { p, hi, lo, steps } => {
                // Each node y = p·h + (1−p)·l: ∂y/∂p = h − l, ∂y/∂h = p,
                // ∂y/∂l = 1 − p. Constant operands have no register
                // and receive no adjoint. The walk back reads each
                // step's incoming value from its step slot and carries
                // the chain's adjoint, which for a merged node is
                // exactly its per-node register: `0.0 + a·q` (the
                // `0.0 +` turns −0 into +0), with a dead node ending
                // the walk.
                let base = self.n_regs() + steps.start();
                let steps = self.chain_steps(*steps);
                let mut a = a;
                for (i, step) in steps.iter().enumerate().rev() {
                    let acc = ws.scratch[base + i];
                    let q = match *step {
                        ChainStep::Or { p } => {
                            let pv = Tape::value_at(p, &ws.scratch);
                            if let Value::Reg(r) = p {
                                ws.adjoint[r.index()] += a * (1.0 - acc);
                            }
                            1.0 - pv
                        }
                        ChainStep::Hi { p, lo } => {
                            let pv = Tape::value_at(p, &ws.scratch);
                            let lv = Tape::value_at(lo, &ws.scratch);
                            if let Value::Reg(r) = p {
                                ws.adjoint[r.index()] += a * (acc - lv);
                            }
                            if let Value::Reg(r) = lo {
                                ws.adjoint[r.index()] += a * (1.0 - pv);
                            }
                            pv
                        }
                        ChainStep::Lo { p, hi } => {
                            let pv = Tape::value_at(p, &ws.scratch);
                            let hv = Tape::value_at(hi, &ws.scratch);
                            if let Value::Reg(r) = p {
                                ws.adjoint[r.index()] += a * (hv - acc);
                            }
                            if let Value::Reg(r) = hi {
                                ws.adjoint[r.index()] += a * pv;
                            }
                            1.0 - pv
                        }
                    };
                    a = 0.0 + a * q;
                    if a == 0.0 {
                        return;
                    }
                }
                let pv = Tape::value_at(*p, &ws.scratch);
                let hv = Tape::value_at(*hi, &ws.scratch);
                let lv = Tape::value_at(*lo, &ws.scratch);
                if let Value::Reg(r) = p {
                    ws.adjoint[r.index()] += a * (hv - lv);
                }
                if let Value::Reg(r) = hi {
                    ws.adjoint[r.index()] += a * pv;
                }
                if let Value::Reg(r) = lo {
                    ws.adjoint[r.index()] += a * (1.0 - pv);
                }
            }
            Op::SumClamp { bias, args } => {
                // Re-derive the forward branch: pass-through when
                // unclamped, subgradient 0 once the sum saturates.
                // (NaN sums fail `> 1.0` and take the pass-through
                // branch, exactly like the forward kernel.)
                let mut acc = *bias;
                for r in self.arg_slice(*args) {
                    acc += ws.scratch[r.index()];
                }
                if acc > 1.0 {
                    return;
                }
                for r in self.arg_slice(*args) {
                    ws.adjoint[r.index()] += a;
                }
            }
        }
    }
}

/// Lane-blocked adjoint file: the backward-sweep twin of
/// [`LaneFile`](crate::exec::LaneFile) — one adjoint per register per lane, in the same
/// `[n_regs × L]` register-major layout, plus the lane-blocked prefix
/// stack of the [`Op::Product`] VJP and the scalar probe row of the
/// [`Op::Closure`] fallback. All methods are monomorphized over the
/// block width `L`.
#[derive(Debug, Default)]
pub(crate) struct AdjointFile {
    /// `∂cost/∂reg` per lane, register-major (`r * L + l`).
    adj: Vec<f64>,
    /// Lane-blocked prefix partial products (`[n_args × L]`).
    prefix: Vec<f64>,
    /// One lane's probe point for the closure fallback.
    probe: Vec<f64>,
}

impl AdjointFile {
    /// The SoA adjoint sweep of one full `L`-wide block, the lane-blocked
    /// twin of [`Tape::backward`]: zeroes the file, seeds every lane's
    /// output-weight adjoints for the declared outputs in `outputs` (per
    /// lane the scalar seeding order), visits the op `slots` in reverse,
    /// and copies each lane's input adjoints into the point-major
    /// gradient rows (`grads[l · dim + j] = ∂cost_l/∂x_j`). `regs` is
    /// the register file a `KEEP` forward sweep of the same block left.
    pub(crate) fn backward<const L: usize, S: Slots>(
        &mut self,
        tape: &Tape,
        slots: S,
        outputs: Range<usize>,
        regs: &[f64],
        grads: &mut [f64],
    ) {
        self.adj.clear();
        self.adj.resize(tape.n_regs() * L, 0.0);
        for (value, w) in tape.outputs[outputs.clone()]
            .iter()
            .zip(&tape.weights[outputs])
        {
            if let Value::Reg(r) = value {
                for a in lane_window::<L>(&mut self.adj, r.index() * L) {
                    *a += *w;
                }
            }
        }
        let mut timer = crate::profile::OpTimer::new();
        for i in (0..slots.n_slots()).rev() {
            let slot = slots.slot(i);
            self.backward_slot_block::<L>(tape, slot, regs);
            timer.lap(
                &tape.profiler,
                &tape.ops[slot],
                crate::profile::PATH_SOA,
                crate::profile::SWEEP_ADJOINT,
                L as u64,
            );
        }
        ADJOINT_SWEEPS.add(L as u64);
        let dim = tape.n_inputs;
        for l in 0..L {
            for j in 0..dim {
                grads[l * dim + j] = self.adj[j * L + l];
            }
        }
    }

    /// One op's VJP swept across the whole lane block: the lane-blocked
    /// twin of [`Tape::backward_slot`]. `regs` is the forward sweep's
    /// retained register file, chain steps included. Per lane each kernel
    /// performs the scalar VJP's float sequence in the same order —
    /// including the `a == 0.0` dead-lane skip, as a real branch or, in
    /// the chain kernel, as the equivalent computed select
    /// ([`add_live`]), so signed zeros stay put and NaN adjoints
    /// propagate identically — which is what makes the SoA adjoint 0-ULP
    /// bit-identical to the scalar one. Blocks whose every lane is dead
    /// skip the op entirely (the scalar sweep's dead-op skip, amortized).
    fn backward_slot_block<const L: usize>(&mut self, tape: &Tape, slot: usize, regs: &[f64]) {
        let out_base = (tape.n_inputs + slot) * L;
        let a: [f64; L] = regs_block::<L>(&self.adj, out_base);
        if a.iter().all(|&v| v == 0.0) {
            return;
        }
        match &tape.ops[slot] {
            Op::Exposure { rate, t } => {
                let base = t.index() * L;
                let w: [f64; L] = regs_block::<L>(regs, base);
                let adj = lane_window::<L>(&mut self.adj, base);
                for l in 0..L {
                    // λ·e^{−λt} for t > 0; subgradient 0 on the clamped
                    // branch — the scalar VJP per lane.
                    if a[l] != 0.0 && w[l] > 0.0 {
                        adj[l] += a[l] * rate * (-rate * w[l]).exp();
                    }
                }
            }
            Op::Overtime { sf, x } => {
                let base = x.index() * L;
                let xb: [f64; L] = regs_block::<L>(regs, base);
                let mut d = [0.0; L];
                sf.deriv_block::<L>(&xb, &mut d);
                let adj = lane_window::<L>(&mut self.adj, base);
                for l in 0..L {
                    if a[l] != 0.0 {
                        adj[l] += a[l] * d[l];
                    }
                }
            }
            Op::Closure { f } => {
                // Scalar fallback, one live lane at a time: each lane
                // replays the scalar backward pass's exact probe
                // sequence over its own input row (the forward sweep
                // loaded it into the register file unchanged).
                ADJOINT_CLOSURE_FALLBACK.add(a.iter().filter(|&&v| v != 0.0).count() as u64);
                warn_adjoint_closure_fallback_once(L);
                for (l, &al) in a.iter().enumerate() {
                    if al == 0.0 {
                        continue;
                    }
                    CLOSURE_FD_PROBES.add(2 * tape.n_inputs as u64);
                    self.probe.clear();
                    for j in 0..tape.n_inputs {
                        self.probe.push(regs[j * L + l]);
                    }
                    for j in 0..tape.n_inputs {
                        let xj = self.probe[j];
                        let h = CLOSURE_FD_EPS * xj.abs().max(1.0);
                        self.probe[j] = xj + h;
                        let fp = f(&self.probe);
                        self.probe[j] = xj - h;
                        let fm = f(&self.probe);
                        self.probe[j] = xj;
                        self.adj[j * L + l] += al * (fp - fm) / (2.0 * h);
                    }
                }
            }
            Op::Complement { x } => {
                let adj = lane_window::<L>(&mut self.adj, x.index() * L);
                for l in 0..L {
                    if a[l] != 0.0 {
                        adj[l] -= a[l];
                    }
                }
            }
            Op::Scale { c, x } => {
                let adj = lane_window::<L>(&mut self.adj, x.index() * L);
                for l in 0..L {
                    if a[l] != 0.0 {
                        adj[l] += a[l] * c;
                    }
                }
            }
            Op::Product { c, args } => {
                // Lane-blocked prefix/suffix partial products: per lane
                // the scalar VJP's exact division-free sequence.
                // Suffixes advance on dead lanes too — pure arithmetic
                // no dead lane ever reads, since its writes are skipped.
                let rs = tape.arg_slice(*args);
                self.prefix.clear();
                self.prefix.resize(rs.len() * L, 0.0);
                let mut acc = [*c; L];
                for (i, r) in rs.iter().enumerate() {
                    let rb: [f64; L] = regs_block::<L>(regs, r.index() * L);
                    let pre = lane_window::<L>(&mut self.prefix, i * L);
                    pre.copy_from_slice(&acc);
                    for (a, r) in acc.iter_mut().zip(&rb) {
                        *a *= *r;
                    }
                }
                let mut suffix = [1.0; L];
                for (i, r) in rs.iter().enumerate().rev() {
                    let rb: [f64; L] = regs_block::<L>(regs, r.index() * L);
                    let pre: [f64; L] = regs_block::<L>(&self.prefix, i * L);
                    let adj = lane_window::<L>(&mut self.adj, r.index() * L);
                    for l in 0..L {
                        if a[l] != 0.0 {
                            adj[l] += a[l] * pre[l] * suffix[l];
                        }
                        suffix[l] *= rb[l];
                    }
                }
            }
            Op::Chain { p, hi, lo, steps } => {
                let a = if steps.is_empty() {
                    a
                } else {
                    self.backward_chain_steps::<L>(tape, regs, a, *steps)
                };
                // The first node; constants broadcast, and the three
                // operand adjoints land in the scalar VJP's order
                // (p, hi, lo).
                let block = |v: Value| -> [f64; L] {
                    match v {
                        Value::Const(c) => [c; L],
                        Value::Reg(r) => regs_block::<L>(regs, r.index() * L),
                    }
                };
                let pv = block(*p);
                let hv = block(*hi);
                let lv = block(*lo);
                if let Value::Reg(r) = p {
                    let adj = lane_window::<L>(&mut self.adj, r.index() * L);
                    add_live(adj, &a, |l| a[l] * (hv[l] - lv[l]));
                }
                if let Value::Reg(r) = hi {
                    let adj = lane_window::<L>(&mut self.adj, r.index() * L);
                    add_live(adj, &a, |l| a[l] * pv[l]);
                }
                if let Value::Reg(r) = lo {
                    let adj = lane_window::<L>(&mut self.adj, r.index() * L);
                    add_live(adj, &a, |l| a[l] * (1.0 - pv[l]));
                }
            }
            Op::SumClamp { bias, args } => {
                // Re-derive the forward branch per lane: pass-through
                // when unclamped, subgradient 0 once saturated (NaN
                // sums fail `> 1.0` and pass through, like the scalar
                // kernel).
                let rs = tape.arg_slice(*args);
                let mut acc = [*bias; L];
                for r in rs {
                    let rb: [f64; L] = regs_block::<L>(regs, r.index() * L);
                    for l in 0..L {
                        acc[l] += rb[l];
                    }
                }
                for r in rs {
                    let adj = lane_window::<L>(&mut self.adj, r.index() * L);
                    for l in 0..L {
                        if acc[l] > 1.0 {
                            // Saturated: flat-side subgradient 0.
                        } else if a[l] != 0.0 {
                            adj[l] += a[l];
                        }
                    }
                }
            }
        }
    }

    /// The VJP of a chain's later steps across the lane block, in
    /// reverse, each reading its incoming value from its chain-step row
    /// of `regs`; returns the adjoint of the chain's first node. The
    /// chain's adjoint is carried in `a` as the per-node register would
    /// hold it, `0.0 + a·q` on live lanes and 0 on dead ones. Operand
    /// adjoints land in the scalar VJP's order (p, then the other
    /// operand). Kept out of line so the per-op dispatch of
    /// [`backward_slot_block`](Self::backward_slot_block) stays small for
    /// the one-node ops.
    #[inline(never)]
    fn backward_chain_steps<const L: usize>(
        &mut self,
        tape: &Tape,
        regs: &[f64],
        mut a: [f64; L],
        steps: StepRange,
    ) -> [f64; L] {
        let block = |v: Value| -> [f64; L] {
            match v {
                Value::Const(c) => [c; L],
                Value::Reg(r) => regs_block::<L>(regs, r.index() * L),
            }
        };
        let base = tape.n_regs() + steps.start();
        for (i, step) in tape.chain_steps(steps).iter().enumerate().rev() {
            let acc: [f64; L] = regs_block::<L>(regs, (base + i) * L);
            let mut q = [0.0; L];
            match *step {
                ChainStep::Or { p } => {
                    if let Value::Reg(r) = p {
                        let adj = lane_window::<L>(&mut self.adj, r.index() * L);
                        add_live(adj, &a, |l| a[l] * (1.0 - acc[l]));
                    }
                    let pv = block(p);
                    for l in 0..L {
                        q[l] = 1.0 - pv[l];
                    }
                }
                ChainStep::Hi { p, lo } => {
                    let (pv, lv) = (block(p), block(lo));
                    if let Value::Reg(r) = p {
                        let adj = lane_window::<L>(&mut self.adj, r.index() * L);
                        add_live(adj, &a, |l| a[l] * (acc[l] - lv[l]));
                    }
                    if let Value::Reg(r) = lo {
                        let adj = lane_window::<L>(&mut self.adj, r.index() * L);
                        add_live(adj, &a, |l| a[l] * (1.0 - pv[l]));
                    }
                    q = pv;
                }
                ChainStep::Lo { p, hi } => {
                    let (pv, hv) = (block(p), block(hi));
                    if let Value::Reg(r) = p {
                        let adj = lane_window::<L>(&mut self.adj, r.index() * L);
                        add_live(adj, &a, |l| a[l] * (hv[l] - acc[l]));
                    }
                    if let Value::Reg(r) = hi {
                        let adj = lane_window::<L>(&mut self.adj, r.index() * L);
                        add_live(adj, &a, |l| a[l] * pv[l]);
                    }
                    for l in 0..L {
                        q[l] = 1.0 - pv[l];
                    }
                }
            }
            for l in 0..L {
                let carried = 0.0 + a[l] * q[l];
                a[l] = if a[l] != 0.0 { carried } else { 0.0 };
            }
        }
        a
    }
}

/// `adj[l] += d(l)` on every live lane (`a[l] != 0`), written as a
/// computed select — `s = adj + d; adj = if live { s } else { adj }` —
/// which gives the per-lane branch's bits (a dead lane keeps its
/// adjoint exactly) and lets the compiler vectorize the lane loop.
#[inline(always)]
fn add_live<const L: usize>(adj: &mut [f64; L], a: &[f64; L], d: impl Fn(usize) -> f64) {
    for l in 0..L {
        let s = adj[l] + d(l);
        adj[l] = if a[l] != 0.0 { s } else { adj[l] };
    }
}

/// Copies the `L`-wide lane block at `base` out of a register-major
/// file (a by-value read, so the caller may then mutate the file).
#[inline]
fn regs_block<const L: usize>(regs: &[f64], base: usize) -> [f64; L] {
    regs[base..base + L].try_into().expect("lane block")
}

/// Borrows the `L`-wide lane block at `base` as a fixed-size array —
/// one bounds check at the borrow, none inside the lane loops.
#[inline]
fn lane_window<const L: usize>(regs: &mut [f64], base: usize) -> &mut [f64; L] {
    (&mut regs[base..base + L]).try_into().expect("lane block")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{ClosureFn, TapeBuilder};
    use safety_opt_stats::dist::{ContinuousDistribution, TruncatedNormal};
    use std::sync::Arc;

    /// Central-difference reference over the whole tape.
    fn fd_grad(tape: &Tape, x: &[f64], h: f64) -> Vec<f64> {
        (0..x.len())
            .map(|i| {
                let mut p = x.to_vec();
                p[i] = x[i] + h;
                let fp = tape.eval(&p);
                p[i] = x[i] - h;
                let fm = tape.eval(&p);
                (fp - fm) / (2.0 * h)
            })
            .collect()
    }

    fn assert_grad_close(got: &[f64], want: &[f64], tol: f64) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let scale = g.abs().max(w.abs()).max(1.0);
            assert!(
                (g - w).abs() <= tol * scale,
                "component {i}: adjoint {g} vs reference {w}"
            );
        }
    }

    fn elb_like_tape() -> Tape {
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
        let col = b.sum_clamped(1e-8, [cs1, cs2]);
        let e1 = b.exposure(1e-4, t1);
        let scaled = b.scale(0.999, e1);
        let e2 = b.exposure(0.13, t2);
        let alr_cs = b.product([scaled, e2]);
        let alr = b.sum_clamped(1e-4, [alr_cs]);
        b.output(col, 100_000.0);
        b.output(alr, 1.0);
        b.build()
    }

    #[test]
    fn adjoint_matches_central_differences() {
        let tape = elb_like_tape();
        for &x in &[[10.0, 12.0], [6.0, 25.0], [19.0, 15.6], [28.0, 7.0]] {
            let (cost, grad) = tape.eval_grad(&x);
            assert_eq!(cost.to_bits(), tape.eval(&x).to_bits(), "value drift");
            assert_grad_close(&grad, &fd_grad(&tape, &x, 1e-6), 1e-7);
        }
    }

    #[test]
    fn value_and_outputs_are_bit_identical_to_eval_into() {
        let tape = elb_like_tape();
        let x = [13.0, 21.0];
        let mut scratch = Vec::new();
        let mut out_ref = vec![0.0; 2];
        let want = tape.eval_into(&x, &mut scratch, &mut out_ref);
        let mut ws = GradWorkspace::new();
        let mut out = vec![0.0; 2];
        let mut grad = vec![0.0; 2];
        let got = tape.eval_grad_into(&x, &mut ws, &mut out, &mut grad);
        assert_eq!(want.to_bits(), got.to_bits());
        assert_eq!(
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            out_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn exposure_clamp_has_zero_subgradient() {
        let mut b = TapeBuilder::new(1);
        let e = b.exposure(0.5, b.input(0));
        let h = b.sum_clamped(0.0, [e]);
        b.output(h, 1.0);
        let tape = b.build();
        let (_, g_neg) = tape.eval_grad(&[-3.0]);
        assert_eq!(g_neg[0], 0.0, "clamped branch must have 0 subgradient");
        let (_, g_zero) = tape.eval_grad(&[0.0]);
        assert_eq!(g_zero[0], 0.0, "kink takes the flat-side subgradient");
        let (_, g_pos) = tape.eval_grad(&[2.0]);
        let want = 0.5 * (-0.5f64 * 2.0).exp();
        assert!((g_pos[0] - want).abs() < 1e-15);
    }

    #[test]
    fn saturated_sum_has_zero_subgradient() {
        let mut b = TapeBuilder::new(1);
        let e = b.exposure(1.0, b.input(0));
        let h = b.sum_clamped(0.9, [e, e]);
        b.output(h, 5.0);
        let tape = b.build();
        let (cost, grad) = tape.eval_grad(&[10.0]);
        assert_eq!(cost, 5.0);
        assert_eq!(grad[0], 0.0);
        // Unsaturated: d/dt [0.9 + 2(1 − e^{−t})]·5 = 10·e^{−t}.
        let (_, g) = tape.eval_grad(&[0.01]);
        assert!((g[0] - 10.0 * (-0.01f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn overtime_tails_have_zero_subgradient() {
        let d = TruncatedNormal::lower_bounded(4.0, 2.0, 0.0).unwrap();
        let mut b = TapeBuilder::new(1);
        let ot = b.overtime(&d, b.input(0));
        let h = b.sum_clamped(0.0, [ot]);
        b.output(h, 1.0);
        let tape = b.build();
        let (_, below) = tape.eval_grad(&[-1.0]);
        assert_eq!(below[0], 0.0);
        // Interior: matches the negated pdf.
        let (_, mid) = tape.eval_grad(&[5.0]);
        assert!((mid[0] + d.pdf(5.0)).abs() <= 1e-12 * d.pdf(5.0));
    }

    #[test]
    fn product_vjp_survives_zero_factors() {
        // y = x0 · x1 · x2 with a zero factor: ∂y/∂x1 must come out as
        // the product of the *other* factors, not 0/0.
        let mut b = TapeBuilder::new(3);
        let e0 = b.scale(2.0, b.input(0));
        let e1 = b.scale(3.0, b.input(1));
        let e2 = b.scale(5.0, b.input(2));
        let p = b.product([e0, e1, e2]);
        b.output(p, 1.0);
        let tape = b.build();
        let (_, g) = tape.eval_grad(&[0.0, 1.0, 2.0]);
        assert_eq!(g[0], 2.0 * 3.0 * 5.0 * 2.0); // 2·(3·1)·(5·2)
        assert_eq!(g[1], 0.0);
        assert_eq!(g[2], 0.0);
    }

    #[test]
    fn closure_fallback_differentiates_numerically() {
        let f: ClosureFn = Arc::new(|x: &[f64]| (x[0] * 0.25).sin() + x[1] * x[1]);
        let mut b = TapeBuilder::new(2);
        let c = b.closure(1, f);
        let h = b.sum_clamped(0.0, [c]);
        b.output(h, 2.0);
        let tape = b.build();
        let x = [1.3, 0.4];
        let (_, g) = tape.eval_grad(&x);
        let want = [2.0 * 0.25 * (x[0] * 0.25).cos(), 2.0 * 2.0 * x[1]];
        assert_grad_close(&g, &want, 1e-8);
    }

    #[test]
    fn nan_closures_poison_the_gradient() {
        let mut b = TapeBuilder::new(1);
        let bad = b.closure(1, Arc::new(|_: &[f64]| f64::NAN));
        let h = b.sum_clamped(0.0, [bad]);
        b.output(h, 1.0);
        let tape = b.build();
        let (cost, grad) = tape.eval_grad(&[0.5]);
        assert!(cost.is_nan());
        assert!(grad[0].is_nan());
    }

    #[test]
    fn shared_subexpressions_accumulate_adjoints() {
        // f = 3·e + 4·e with e shared (hash-consed): ∂f/∂t = 7·e'.
        let mut b = TapeBuilder::new(1);
        let e = b.exposure(0.2, b.input(0));
        let h1 = b.sum_clamped(0.0, [e]);
        let h2 = b.sum_clamped(0.0, [e]);
        b.output(h1, 3.0);
        b.output(h2, 4.0);
        let tape = b.build();
        // The two identical hazard sums hash-cons into one op on top of
        // the shared exposure; both output weights land on one register.
        assert_eq!(tape.n_ops(), 2, "exposure and hazard sum must be shared");
        let (_, g) = tape.eval_grad(&[1.5]);
        let want = 7.0 * 0.2 * (-0.2f64 * 1.5).exp();
        assert!((g[0] - want).abs() < 1e-14);
    }

    #[test]
    fn mul_add_vjp_is_the_birnbaum_recursion() {
        // A two-node Shannon chain over leaf probabilities q0, q1:
        // P = q0·1 + (1−q0)·(q1·1 + (1−q1)·0) — an OR of two leaves.
        let mut b = TapeBuilder::new(2);
        let inner = b.mul_add(b.input(1), b.constant(1.0), b.constant(0.0));
        let root = b.mul_add(b.input(0), b.constant(1.0), inner);
        b.output(root, 1.0);
        let tape = b.build();
        let q = [0.3, 0.2];
        let (p, grad) = tape.eval_grad(&q);
        let want = q[0] + (1.0 - q[0]) * q[1];
        assert!((p - want).abs() < 1e-15);
        // Birnbaum: ∂P/∂q0 = 1 − q1, ∂P/∂q1 = 1 − q0 — and the adjoint
        // must agree with central differences.
        assert!((grad[0] - (1.0 - q[1])).abs() < 1e-15);
        assert!((grad[1] - (1.0 - q[0])).abs() < 1e-15);
        assert_grad_close(&grad, &fd_grad(&tape, &q, 1e-6), 1e-8);
    }

    #[test]
    fn mul_add_vjp_reaches_all_three_operands() {
        // y = p·h + (1−p)·l with every operand a register.
        let mut b = TapeBuilder::new(3);
        let node = b.mul_add(b.input(0), b.input(1), b.input(2));
        b.output(node, 2.0);
        let tape = b.build();
        let x = [0.4, 0.9, 0.1];
        let (_, grad) = tape.eval_grad(&x);
        assert!((grad[0] - 2.0 * (x[1] - x[2])).abs() < 1e-15);
        assert!((grad[1] - 2.0 * x[0]).abs() < 1e-15);
        assert!((grad[2] - 2.0 * (1.0 - x[0])).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "gradient arity mismatch")]
    fn gradient_arity_is_checked() {
        let mut b = TapeBuilder::new(2);
        let h = b.sum_clamped(0.5, [b.input(0)]);
        b.output(h, 1.0);
        let tape = b.build();
        let mut ws = GradWorkspace::new();
        let mut out = [0.0];
        let mut grad = [0.0];
        tape.eval_grad_into(&[1.0, 2.0], &mut ws, &mut out, &mut grad);
    }
}
