//! Shannon-chain fusion: the pass [`TapeBuilder::build`] runs over the
//! ops the constructors emitted.
//!
//! A BDD lowers to one [`TapeBuilder::mul_add`] node per BDD node, and in
//! a coherent tree almost every node has a single parent: the next node
//! up reads it as its `hi` or `lo` cofactor. The pass merges every such
//! run into one [`Op::Chain`], so a sweep keeps the running value in a
//! local instead of writing each node to the register file and reading it
//! back. Only the last node of a run keeps a register; registers,
//! argument-table entries and outputs are renumbered around the merged
//! nodes.
//!
//! The merge keeps every result bit-identical to the per-node tape:
//!
//! * a chain runs each node's float sequence unchanged;
//! * a node merges only if the next node is its one reader (outputs
//!   count as readers), so no other op needs its register;
//! * the backward sweep runs a chain's steps together, at the chain's
//!   slot, so a register the chain reads gets its adjoint additions
//!   earlier than in the per-node sweep. The pass therefore stops a chain
//!   before it would span an op that reads a register an earlier step of
//!   the chain reads: every register then receives its adjoint additions
//!   in the per-node order.
//!
//! A fleet arena is the union of its models' fused tapes, hash-consed
//! across models: each model is planned alone, in the order its
//! standalone build emits its ops and with only its own readers counted.
//! A node two models share but feed into different nodes is therefore
//! merged into both models' chains, and every model sweeps exactly the
//! ops of its standalone tape.

use super::{ArgRange, ChainStep, Op, Reg, StepRange, Value};
use std::ops::Range;

/// Marks "no slot" in the per-slot tables.
const NONE: u32 = u32::MAX;

/// One model's share of a builder's ops: its op slots in the order its
/// standalone build emits them, and the range of its outputs.
pub(crate) struct ModelOps {
    pub(crate) order: Vec<u32>,
    pub(crate) outputs: Range<usize>,
}

/// The fused op list, with its own argument and step tables.
pub(super) struct Fused {
    pub(super) ops: Vec<Op>,
    pub(super) args: Vec<Reg>,
    pub(super) steps: Vec<ChainStep>,
    pub(super) outputs: Vec<Value>,
}

/// Calls `f` with every register `op` reads whose adjoint its VJP
/// updates, in the VJP's order (an opaque closure differentiates
/// against every input).
fn for_each_read(op: &Op, args: &[Reg], n_inputs: usize, mut f: impl FnMut(Reg)) {
    let mut value = |v: Value| {
        if let Value::Reg(r) = v {
            f(r)
        }
    };
    match op {
        Op::Exposure { t: x, .. }
        | Op::Overtime { x, .. }
        | Op::Complement { x }
        | Op::Scale { x, .. } => value(Value::Reg(*x)),
        Op::Closure { .. } => (0..n_inputs).for_each(|i| value(Value::Reg(Reg(i as u32)))),
        Op::Product { args: range, .. } | Op::SumClamp { args: range, .. } => {
            let start = range.start as usize;
            args[start..start + range.len as usize]
                .iter()
                .for_each(|&r| value(Value::Reg(r)));
        }
        Op::Chain { p, hi, lo, .. } => {
            value(*p);
            value(*hi);
            value(*lo);
        }
    }
}

/// Fuses the builder's ops (`Op::Chain`s of no later steps are single
/// nodes) for `models`, each planned and emitted in its own order.
pub(super) fn fuse(
    n_inputs: usize,
    ops: &[Op],
    args: &[Reg],
    outputs: &[Value],
    models: &[ModelOps],
) -> Fused {
    let n = ops.len();
    let mut pass = Pass {
        n_inputs,
        ops,
        args,
        slots: vec![Slot::FRESH; n],
        holder: vec![NONE; n_inputs + n],
        blocked: Vec::new(),
        out: Fused {
            ops: Vec::new(),
            args: Vec::with_capacity(args.len()),
            steps: Vec::new(),
            outputs: Vec::with_capacity(outputs.len()),
        },
        // One model's ops are all distinct; only a fleet's models share.
        shared: (models.len() > 1).then(|| Shared {
            first: vec![NONE; n],
            more: Vec::new(),
        }),
    };
    for model in models {
        pass.plan(model, &outputs[model.outputs.clone()]);
        pass.emit(model, &outputs[model.outputs.clone()]);
        pass.clear(model);
    }
    pass.out
}

/// The plan of one op slot for the current model.
#[derive(Clone, Copy)]
struct Slot {
    /// Reads of the slot by the model's ops and outputs.
    readers: u32,
    /// The last op that read the slot (`NONE` for an output).
    reader: u32,
    /// The node merged below this chain node.
    below: u32,
    /// Merged into the node above it.
    merged: bool,
    /// The chain this node belongs to.
    chain: u32,
    /// The slot's fused register, once emitted.
    res: u32,
}

impl Slot {
    const FRESH: Slot = Slot {
        readers: 0,
        reader: NONE,
        below: NONE,
        merged: false,
        chain: NONE,
        res: NONE,
    };
}

/// Per-slot planning tables (reset between models) and the fused output.
struct Pass<'a> {
    n_inputs: usize,
    ops: &'a [Op],
    args: &'a [Reg],
    slots: Vec<Slot>,
    /// Per register, the one chain that read it and may still grow past
    /// another reader of it: when an op reads a register, every other
    /// chain that read it before is blocked.
    holder: Vec<u32>,
    /// Per chain: an op after one of its steps read a register the step
    /// reads, so the chain must not grow past that op.
    blocked: Vec<bool>,
    out: Fused,
    /// In a fleet build: the fused ops each slot was emitted as, so a
    /// model whose fused op equals an earlier model's shares it.
    shared: Option<Shared>,
}

/// The fused registers a fleet build emitted each slot as.
struct Shared {
    /// The first, per slot.
    first: Vec<u32>,
    /// Any later one (a slot whose operands or chain differ by model),
    /// with its slot.
    more: Vec<(u32, Reg)>,
}

impl Pass<'_> {
    fn slot(&self, r: Reg) -> Option<usize> {
        r.index().checked_sub(self.n_inputs)
    }

    /// Records that an op of chain `own` (`NONE` for an op outside every
    /// chain) reads `r`, blocking the chain that read it before.
    fn read(&mut self, r: Reg, own: u32) {
        let held = self.holder[r.index()];
        if held != NONE && held != own {
            self.blocked[held as usize] = true;
        }
        self.holder[r.index()] = own;
    }

    /// Decides which nodes merge into the node above them, visiting the
    /// model's ops in order.
    fn plan(&mut self, model: &ModelOps, outputs: &[Value]) {
        let (ops, args, n_inputs) = (self.ops, self.args, self.n_inputs);
        for &s in &model.order {
            for_each_read(&ops[s as usize], args, n_inputs, |r| {
                if let Some(x) = r.index().checked_sub(n_inputs) {
                    self.slots[x].readers += 1;
                    self.slots[x].reader = s;
                }
            });
        }
        for v in outputs {
            if let Some(x) = v.reg().and_then(|r| self.slot(r)) {
                self.slots[x].readers += 1;
                self.slots[x].reader = NONE;
            }
        }
        self.blocked.clear();
        for &y in &model.order {
            let Op::Chain { p, hi, lo, .. } = ops[y as usize] else {
                for_each_read(&ops[y as usize], args, n_inputs, |r| self.read(r, NONE));
                continue;
            };
            // The cofactor the chain can run through: a node whose one
            // reader is `y` and whose chain may still grow.
            let below = [lo, hi].into_iter().find_map(|v| {
                let x = v.reg().and_then(|r| self.slot(r))?;
                let plan = self.slots[x];
                let grows = matches!(ops[x], Op::Chain { .. })
                    && plan.readers == 1
                    && plan.reader == y
                    && !self.blocked[plan.chain as usize];
                grows.then_some((x, v))
            });
            let own = match below {
                Some((x, _)) => {
                    self.slots[y as usize].below = x as u32;
                    self.slots[x].merged = true;
                    self.slots[x].chain
                }
                None => {
                    self.blocked.push(false);
                    (self.blocked.len() - 1) as u32
                }
            };
            self.slots[y as usize].chain = own;
            for v in [p, hi, lo] {
                if let Some(r) = v.reg() {
                    if below.map(|(_, acc)| acc) != Some(v) {
                        self.read(r, own);
                    }
                }
            }
        }
    }

    /// The fused value of an unfused operand.
    fn resolve(&self, v: Value) -> Value {
        match v {
            Value::Reg(r) => match self.slot(r) {
                Some(s) => {
                    let fused = self.slots[s].res;
                    assert_ne!(fused, NONE, "value carried across a fleet model boundary");
                    Value::Reg(Reg(fused))
                }
                None => v,
            },
            Value::Const(_) => v,
        }
    }

    fn resolve_reg(&self, r: Reg) -> Reg {
        match self.resolve(Value::Reg(r)) {
            Value::Reg(r) => r,
            Value::Const(_) => unreachable!("registers resolve to registers"),
        }
    }

    /// Appends the model's unmerged ops to the fused list (or, in a
    /// fleet, finds the same op an earlier model emitted) and resolves
    /// its outputs.
    fn emit(&mut self, model: &ModelOps, outputs: &[Value]) {
        for &s in &model.order {
            let s = s as usize;
            if self.slots[s].merged {
                continue;
            }
            let op = self.fused_op(s);
            let reg = match self.emitted_as(s, &op) {
                Some(r) => {
                    self.unpush(&op);
                    r
                }
                None => {
                    let r = Reg((self.n_inputs + self.out.ops.len()) as u32);
                    self.out.ops.push(op);
                    if let Some(shared) = &mut self.shared {
                        if shared.first[s] == NONE {
                            shared.first[s] = r.0;
                        } else {
                            shared.more.push((s as u32, r));
                        }
                    }
                    r
                }
            };
            self.slots[s].res = reg.0;
        }
        for &v in outputs {
            self.out.outputs.push(self.resolve(v));
        }
    }

    /// In a fleet build, the register an earlier model emitted slot `s`
    /// as, if that fused op equals `op`.
    fn emitted_as(&self, s: usize, op: &Op) -> Option<Reg> {
        let shared = self.shared.as_ref()?;
        let first = (shared.first[s] != NONE).then_some(Reg(shared.first[s]));
        let more = shared.more.iter().filter(|&&(t, _)| t as usize == s);
        first
            .into_iter()
            .chain(more.map(|&(_, r)| r))
            .find(|r| self.same(op, &self.out.ops[r.index() - self.n_inputs]))
    }

    /// Whether two fused ops of one slot read the same registers (their
    /// constants come from the slot, so they are the same op).
    fn same(&self, a: &Op, b: &Op) -> bool {
        let args = |r: &ArgRange| &self.out.args[r.start as usize..(r.start + r.len) as usize];
        let steps = |r: &StepRange| &self.out.steps[r.start()..r.start() + r.len()];
        match (a, b) {
            (Op::Exposure { t: x, .. }, Op::Exposure { t: y, .. })
            | (Op::Overtime { x, .. }, Op::Overtime { x: y, .. })
            | (Op::Complement { x }, Op::Complement { x: y })
            | (Op::Scale { x, .. }, Op::Scale { x: y, .. }) => x == y,
            (Op::Closure { .. }, Op::Closure { .. }) => true,
            (Op::Product { args: x, .. }, Op::Product { args: y, .. })
            | (Op::SumClamp { args: x, .. }, Op::SumClamp { args: y, .. }) => args(x) == args(y),
            (
                Op::Chain {
                    p,
                    hi,
                    lo,
                    steps: x,
                },
                Op::Chain {
                    p: p2,
                    hi: hi2,
                    lo: lo2,
                    steps: y,
                },
            ) => p == p2 && hi == hi2 && lo == lo2 && steps(x) == steps(y),
            _ => false,
        }
    }

    /// The fused op for unmerged slot `s`, its argument or step table
    /// entries appended.
    fn fused_op(&mut self, s: usize) -> Op {
        match &self.ops[s] {
            Op::Exposure { rate, t } => Op::Exposure {
                rate: *rate,
                t: self.resolve_reg(*t),
            },
            Op::Overtime { sf, x } => Op::Overtime {
                sf: *sf,
                x: self.resolve_reg(*x),
            },
            Op::Closure { f } => Op::Closure { f: f.clone() },
            Op::Complement { x } => Op::Complement {
                x: self.resolve_reg(*x),
            },
            Op::Scale { c, x } => Op::Scale {
                c: *c,
                x: self.resolve_reg(*x),
            },
            Op::Product { c, args } => Op::Product {
                c: *c,
                args: self.resolve_args(*args),
            },
            Op::SumClamp { bias, args } => Op::SumClamp {
                bias: *bias,
                args: self.resolve_args(*args),
            },
            Op::Chain { .. } => {
                // Walk down from the top, then put the steps bottom first.
                let start = self.out.steps.len();
                let mut node = s;
                while self.slots[node].below != NONE {
                    let below = self.slots[node].below as usize;
                    let Op::Chain { p, hi, lo, .. } = self.ops[node] else {
                        unreachable!("chains hold nodes")
                    };
                    let acc = Value::Reg(Reg((below + self.n_inputs) as u32));
                    let p = self.resolve(p);
                    let step = if hi == acc {
                        ChainStep::Hi {
                            p,
                            lo: self.resolve(lo),
                        }
                    } else if matches!(hi, Value::Const(c) if c.to_bits() == 1f64.to_bits()) {
                        ChainStep::Or { p }
                    } else {
                        ChainStep::Lo {
                            p,
                            hi: self.resolve(hi),
                        }
                    };
                    self.out.steps.push(step);
                    node = below;
                }
                self.out.steps[start..].reverse();
                let Op::Chain { p, hi, lo, .. } = self.ops[node] else {
                    unreachable!("chains start at a node")
                };
                Op::Chain {
                    p: self.resolve(p),
                    hi: self.resolve(hi),
                    lo: self.resolve(lo),
                    steps: StepRange {
                        start: start as u32,
                        len: (self.out.steps.len() - start) as u32,
                    },
                }
            }
        }
    }

    fn resolve_args(&mut self, range: ArgRange) -> ArgRange {
        let start = self.out.args.len() as u32;
        for i in range.start..range.start + range.len {
            let r = self.resolve_reg(self.args[i as usize]);
            self.out.args.push(r);
        }
        ArgRange {
            start,
            len: range.len,
        }
    }

    /// Drops the table entries [`fused_op`](Self::fused_op) appended for
    /// an op that turned out to be interned already.
    fn unpush(&mut self, op: &Op) {
        match op {
            Op::Product { args, .. } | Op::SumClamp { args, .. } => {
                self.out.args.truncate(args.start as usize)
            }
            Op::Chain { steps, .. } => self.out.steps.truncate(steps.start()),
            _ => {}
        }
    }

    /// Resets the per-slot tables the model touched.
    fn clear(&mut self, model: &ModelOps) {
        self.holder[..self.n_inputs].fill(NONE);
        for &s in &model.order {
            self.slots[s as usize] = Slot::FRESH;
            self.holder[self.n_inputs + s as usize] = NONE;
        }
    }
}
