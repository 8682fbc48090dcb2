//! Chain fusion's exactness oracle: every tape [`TapeBuilder::build`]
//! fuses is checked bit for bit against a per-node reference interpreter
//! kept in this file. The reference runs over the builder's ops before
//! fusion ([`TapeBuilder::ops`]): the forward sweep one Shannon node at a
//! time, and the adjoint with `+=` in reverse tape order — the per-node
//! sweep a fused tape must reproduce.
//!
//! Inputs:
//! * Shannon plans of random `synth` trees, monolithic and modular,
//!   lowered exactly as `ModularPlan::leaf_tape` lowers them, at leaf
//!   probabilities that include exact 0 and 1 (dead adjoint lanes);
//! * the random `Ite` families of `tests/common` (shared subgraphs, NaN
//!   closures, constant selectors), standalone and as fleets;
//! * a hand-built tape whose chain must stop at an op that reads a
//!   register an earlier step of the chain reads.
//!
//! Every case runs the scalar sweeps and the batch evaluators at every
//! SoA lane width 1–16 and at 1, 2 and 4 threads.

mod common;

use common::{bits, family_strategy, lower_model, random_points, DIM};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safety_opt_engine::fleet::FleetEvaluator;
use safety_opt_engine::grad::CLOSURE_FD_EPS;
use safety_opt_engine::tape::{Op, Tape, TapeBuilder, Value};
use safety_opt_engine::BatchEvaluator;
use safety_opt_fta::bdd::{ShannonRef, TreeBdd};
use safety_opt_fta::modular::{ModularPlan, PlanInput};
use safety_opt_fta::synth::{modular_tree, random_tree, ModularTreeConfig, RandomTreeConfig};

const THREADS: [usize; 3] = [1, 2, 4];

/// The builder's ops before fusion, interpreted one node at a time.
struct Reference {
    n_inputs: usize,
    ops: Vec<Op>,
    /// Argument registers of each n-ary op (empty for the others).
    args: Vec<Vec<usize>>,
    outputs: Vec<Value>,
    weights: Vec<f64>,
}

impl Reference {
    fn of(b: &TapeBuilder, n_inputs: usize) -> Self {
        let args = b
            .ops()
            .iter()
            .map(|op| match op {
                Op::Product { args, .. } | Op::SumClamp { args, .. } => {
                    b.arg_regs(*args).iter().map(|r| r.index()).collect()
                }
                _ => Vec::new(),
            })
            .collect();
        let (outputs, weights) = b.declared_outputs();
        Self {
            n_inputs,
            ops: b.ops().to_vec(),
            args,
            outputs: outputs.to_vec(),
            weights: weights.to_vec(),
        }
    }

    fn value(v: Value, scratch: &[f64]) -> f64 {
        match v {
            Value::Const(c) => c,
            Value::Reg(r) => scratch[r.index()],
        }
    }

    /// Every register's value at `x`, then the outputs and the cost.
    fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>, f64) {
        let mut s = x.to_vec();
        for (i, op) in self.ops.iter().enumerate() {
            let v = match op {
                Op::Exposure { rate, t } => -(-rate * s[t.index()].max(0.0)).exp_m1(),
                Op::Overtime { sf, x } => sf.eval(s[x.index()]),
                Op::Closure { f } => f(&s[..self.n_inputs]),
                Op::Complement { x } => 1.0 - s[x.index()],
                Op::Scale { c, x } => c * s[x.index()],
                Op::Product { c, .. } => self.args[i].iter().fold(*c, |acc, &r| acc * s[r]),
                Op::SumClamp { bias, .. } => {
                    let acc = self.args[i].iter().fold(*bias, |acc, &r| acc + s[r]);
                    if acc > 1.0 {
                        1.0
                    } else {
                        acc
                    }
                }
                Op::Chain { p, hi, lo, .. } => {
                    let pv = Self::value(*p, &s);
                    pv * Self::value(*hi, &s) + (1.0 - pv) * Self::value(*lo, &s)
                }
            };
            s.push(v);
        }
        let mut cost = 0.0;
        let mut outputs = Vec::new();
        for (v, w) in self.outputs.iter().zip(&self.weights) {
            let o = Self::value(*v, &s);
            outputs.push(o);
            cost += o * w;
        }
        (s, outputs, cost)
    }

    /// The cost and its gradient at `x`: the per-node adjoint sweep.
    fn grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let (s, _, cost) = self.forward(x);
        let mut adj = vec![0.0; s.len()];
        for (v, w) in self.outputs.iter().zip(&self.weights) {
            if let Value::Reg(r) = v {
                adj[r.index()] += *w;
            }
        }
        for (i, op) in self.ops.iter().enumerate().rev() {
            let a = adj[self.n_inputs + i];
            if a == 0.0 {
                continue;
            }
            match op {
                Op::Exposure { rate, t } => {
                    let w = s[t.index()];
                    if w > 0.0 {
                        adj[t.index()] += a * rate * (-rate * w).exp();
                    }
                }
                Op::Overtime { sf, x } => adj[x.index()] += a * sf.deriv(s[x.index()]),
                Op::Closure { f } => {
                    let mut probe = s[..self.n_inputs].to_vec();
                    for j in 0..self.n_inputs {
                        let xj = probe[j];
                        let h = CLOSURE_FD_EPS * xj.abs().max(1.0);
                        probe[j] = xj + h;
                        let fp = f(&probe);
                        probe[j] = xj - h;
                        let fm = f(&probe);
                        probe[j] = xj;
                        adj[j] += a * (fp - fm) / (2.0 * h);
                    }
                }
                Op::Complement { x } => adj[x.index()] -= a,
                Op::Scale { c, x } => adj[x.index()] += a * c,
                Op::Product { c, .. } => {
                    let regs = &self.args[i];
                    let mut prefix = Vec::new();
                    let mut acc = *c;
                    for &r in regs {
                        prefix.push(acc);
                        acc *= s[r];
                    }
                    let mut suffix = 1.0;
                    for (k, &r) in regs.iter().enumerate().rev() {
                        adj[r] += a * prefix[k] * suffix;
                        suffix *= s[r];
                    }
                }
                Op::SumClamp { bias, .. } => {
                    let acc = self.args[i].iter().fold(*bias, |acc, &r| acc + s[r]);
                    if acc <= 1.0 || acc.is_nan() {
                        for &r in &self.args[i] {
                            adj[r] += a;
                        }
                    }
                }
                Op::Chain { p, hi, lo, .. } => {
                    let pv = Self::value(*p, &s);
                    let hv = Self::value(*hi, &s);
                    let lv = Self::value(*lo, &s);
                    if let Value::Reg(r) = p {
                        adj[r.index()] += a * (hv - lv);
                    }
                    if let Value::Reg(r) = hi {
                        adj[r.index()] += a * pv;
                    }
                    if let Value::Reg(r) = lo {
                        adj[r.index()] += a * (1.0 - pv);
                    }
                }
            }
        }
        adj.truncate(self.n_inputs);
        (cost, adj)
    }
}

/// Fuses `b` and checks the tape against the per-node reference at
/// every point: scalar value, outputs and gradient, then the batch
/// costs and gradients at every lane width and thread count.
fn check_fused(b: TapeBuilder, n_inputs: usize, points: &[Vec<f64>]) -> Tape {
    let reference = Reference::of(&b, n_inputs);
    let tape = b.build();
    let stats = tape.compile_stats();
    assert_eq!(tape.n_ops() as u64, stats.ops_emitted - stats.chain_steps);
    let mut want_costs = Vec::new();
    let mut want_grads = Vec::new();
    let mut scratch = Vec::new();
    let mut outputs = vec![0.0; tape.n_outputs()];
    for p in points {
        let (_, want_out, want_cost) = reference.forward(p);
        let cost = tape.eval_into(p, &mut scratch, &mut outputs);
        assert_eq!(cost.to_bits(), want_cost.to_bits(), "cost at {p:?}");
        assert_eq!(bits(&outputs), bits(&want_out), "outputs at {p:?}");
        let (cost, grad) = reference.grad(p);
        let (got_cost, got_grad) = tape.eval_grad(p);
        assert_eq!(got_cost.to_bits(), cost.to_bits(), "gradient cost at {p:?}");
        assert_eq!(bits(&got_grad), bits(&grad), "gradient at {p:?}");
        want_costs.push(cost);
        want_grads.extend(grad);
    }
    for threads in THREADS {
        for lanes in 1..=16 {
            let ev = BatchEvaluator::new(&tape, threads)
                .chunk_size(23)
                .lanes(lanes);
            let costs = ev.costs(points).unwrap();
            assert_eq!(
                bits(&costs),
                bits(&want_costs),
                "costs, {lanes} lanes, {threads} threads"
            );
            let (costs, grads) = ev.eval_grad_batch(points).unwrap();
            assert_eq!(
                bits(&costs),
                bits(&want_costs),
                "grad costs, {lanes} lanes, {threads} threads"
            );
            assert_eq!(
                bits(&grads),
                bits(&want_grads),
                "grads, {lanes} lanes, {threads} threads"
            );
        }
    }
    tape
}

/// `ModularPlan::leaf_tape`'s lowering, into a builder the reference
/// can read before fusion.
fn lower_plan(plan: &ModularPlan) -> TapeBuilder {
    let mut b = TapeBuilder::new(plan.num_leaves());
    let mut roots: Vec<Value> = Vec::new();
    for m in plan.modules() {
        let resolve = |r: ShannonRef, vals: &[Value]| match r {
            ShannonRef::False => Value::Const(0.0),
            ShannonRef::True => Value::Const(1.0),
            ShannonRef::Node(i) => vals[i],
        };
        let mut vals: Vec<Value> = Vec::new();
        for node in &m.plan().nodes {
            let p = match m.input(node.leaf) {
                PlanInput::Leaf(leaf) => b.input(leaf),
                PlanInput::Module(j) => roots[j],
            };
            let hi = resolve(node.high, &vals);
            let lo = resolve(node.low, &vals);
            vals.push(b.mul_add(p, hi, lo));
        }
        roots.push(resolve(m.plan().root, &vals));
    }
    b.output(*roots.last().expect("at least one module"), 1.0);
    b
}

/// Leaf-probability points; about one coordinate in six is exactly 0 or
/// 1, which kills adjoint lanes part-way up a chain.
fn probability_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| match rng.gen_range(0..12) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.gen::<f64>(),
                })
                .collect()
        })
        .collect()
}

/// Checks a plan's fused leaf tape and ties the lowering copied here to
/// the real one.
fn check_plan(plan: &ModularPlan, seed: u64) {
    let points = probability_points(37, plan.num_leaves(), seed);
    let tape = check_fused(lower_plan(plan), plan.num_leaves(), &points);
    let leaf_tape = plan.leaf_tape();
    assert_eq!(tape.n_ops(), leaf_tape.n_ops());
    for p in &points {
        assert_eq!(tape.eval(p).to_bits(), leaf_tape.eval(p).to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random trees as one monolithic BDD and as a modular composition.
    #[test]
    fn shannon_plans_of_random_trees_fuse_exactly(
        seed in any::<u64>(),
        num_leaves in 3usize..14,
        num_gates in 2usize..12,
        gate_reuse in 0.0f64..0.6,
    ) {
        let config = RandomTreeConfig {
            num_leaves,
            num_gates,
            max_inputs: 3,
            leaf_probability: 0.1,
            gate_reuse,
        };
        let tree = random_tree(config, seed);
        let monolithic = ModularPlan::from_single(TreeBdd::build(&tree).unwrap().shannon_plan());
        check_plan(&monolithic, seed);
        check_plan(&ModularPlan::build(&tree).unwrap(), seed ^ 1);
    }

    // The `Ite` families: every model's standalone tape against the
    // reference, and the fleet's masked costs against the same models.
    #[test]
    fn ite_families_fuse_exactly(spec in family_strategy(), seed in any::<u64>()) {
        let points = random_points(29, seed);
        let (fleet, _) = common::compile_family(&spec);
        for model in 0..spec.n_models.min(3) {
            let mut b = TapeBuilder::new(DIM);
            lower_model(&mut b, &spec, model);
            let reference = Reference::of(&b, DIM);
            let tape = check_fused(b, DIM, &points);
            prop_assert_eq!(fleet.model_ops(model), tape.n_ops());
            let want: Vec<f64> = points.iter().map(|p| reference.forward(p).2).collect();
            for threads in THREADS {
                for lanes in [1, 5, 16] {
                    let costs = FleetEvaluator::new(&fleet, threads)
                        .chunk_size(11)
                        .lanes(lanes)
                        .model_costs(model, &points)
                        .unwrap();
                    prop_assert_eq!(bits(&costs), bits(&want), "fleet model {}", model);
                }
            }
        }
    }
}

#[test]
fn modular_synth_trees_fuse_exactly() {
    for (modules, sections, leaves) in [(3, 2, 3), (4, 3, 2), (2, 4, 4)] {
        let tree = modular_tree(ModularTreeConfig {
            modules,
            sections_per_module: sections,
            leaves_per_section: leaves,
            leaf_probability: 0.05,
        });
        let plan = ModularPlan::build(&tree).unwrap();
        check_plan(&plan, modules as u64);
        // Coherent trees fuse into few chains.
        let tape = plan.leaf_tape();
        assert!(tape.compile_stats().chain_steps > 0);
        assert!(tape.n_ops() < plan.node_count());
    }
}

/// `q`, `r` → node `x = q·r + (1−q)·0.25`, then `v = 1 − q`, then the OR
/// node `y = r + (1−r)·x`, then `w = 3·q`; outputs `y`, `Σv`, `Σw`.
/// `x`'s one reader is `y`, but `v` lies between them and reads `q`, which
/// `x` reads too. Merging `x` into `y`'s chain would add `x`'s adjoint
/// into `q` before `v`'s instead of after it.
fn guarded_tape(v_between: bool) -> TapeBuilder {
    let mut b = TapeBuilder::new(2);
    let q = b.exposure(0.7, b.input(0));
    let r = b.exposure(0.3, b.input(1));
    let x = b.mul_add(q, r, b.constant(0.25));
    let v = if v_between {
        Some(b.complement(q))
    } else {
        None
    };
    let y = b.mul_add(r, b.constant(1.0), x);
    let v = v.unwrap_or_else(|| b.complement(q));
    let w = b.scale(3.0, q);
    let sv = b.sum_clamped(0.0, [v]);
    let sw = b.sum_clamped(0.0, [w]);
    b.output(y, 7.3);
    b.output(sv, 1.1);
    b.output(sw, 0.3);
    b
}

#[test]
fn a_chain_stops_at_an_op_reading_a_register_it_reads() {
    let mut rng = StdRng::seed_from_u64(7);
    let points: Vec<Vec<f64>> = (0..64)
        .map(|_| vec![rng.gen::<f64>() * 3.0, rng.gen::<f64>() * 3.0])
        .collect();
    let guarded = check_fused(guarded_tape(true), 2, &points);
    assert_eq!(
        guarded.compile_stats().chain_steps,
        0,
        "the chain must stop at v"
    );
    // With `v` after the OR node nothing lies in the span: the two nodes
    // fuse into one chain.
    let merged = check_fused(guarded_tape(false), 2, &points);
    assert_eq!(merged.compile_stats().chain_steps, 1);
    assert_eq!(merged.n_ops() + 1, guarded.n_ops());
}
