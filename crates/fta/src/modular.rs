//! Module-wise BDD construction: one small BDD per independent module,
//! composed back together on the op-tape.
//!
//! [`crate::preprocess::detect_modules`] finds the gates whose subtrees
//! share nothing with the rest of the tree. Each such gate's structure
//! function can be compiled into its **own** [`TreeBdd`] over its own
//! local variables, with nested module tops appearing as a *single*
//! pseudo-variable — so the worst-case BDD size is bounded by the
//! largest module instead of the whole tree (the component-fault-tree
//! decomposition of Höfig et al., and exactly how SCRAM keeps
//! industrial trees tractable).
//!
//! Composition is exact, not an approximation: modules are independent
//! (disjoint leaf sets, by definition), so the top probability is
//! multilinear in each module-top probability and substituting
//! `P(module)` for the pseudo-variable is the Shannon decomposition of
//! the full function. On the tape this costs nothing — a child module's
//! root value simply feeds the parent's Shannon chain (the engine's
//! fused `Chain` op) where a leaf input would have been.

use crate::bdd::{ShannonPlan, ShannonRef, TreeBdd};
use crate::preprocess::detect_modules;
use crate::tree::{FaultTree, GateKind, NodeId, NodeKind};
use crate::Result;
use std::collections::HashMap;

/// Reachable-node count above which a module's BDD is re-ordered by
/// sifting (small BDDs are not worth the rebuilds).
const SIFT_THRESHOLD: usize = 512;

/// Cumulative allocated-node budget for one module's sifting pass (see
/// [`TreeBdd::build_sifted`]).
const SIFT_BUDGET: usize = 1 << 17;

/// What one slot of a module's local variable space stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanInput {
    /// A real leaf of the original tree (original leaf index).
    Leaf(usize),
    /// The top event of a nested module (index into
    /// [`ModularPlan::modules`], always smaller than the referencing
    /// module's own index).
    Module(usize),
}

/// One module's Shannon decomposition plus the mapping from its local
/// variable slots back to original leaves / nested modules.
#[derive(Debug, Clone)]
pub struct ModulePlan {
    plan: ShannonPlan,
    inputs: Vec<PlanInput>,
    name: String,
}

impl ModulePlan {
    /// The module's own Shannon decomposition (local variable space:
    /// `plan().nodes[i].leaf` indexes [`inputs`](Self::inputs)).
    pub fn plan(&self) -> &ShannonPlan {
        &self.plan
    }

    /// Local slot → original leaf or nested module.
    pub fn inputs(&self) -> &[PlanInput] {
        &self.inputs
    }

    /// Resolves one local slot.
    pub fn input(&self, slot: usize) -> PlanInput {
        self.inputs[slot]
    }

    /// The module gate's name in the source tree.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A whole tree's structure function as composed per-module Shannon
/// decompositions, in bottom-up order — the **last** module is the top
/// event. Built by [`ModularPlan::build`]; the monolithic and constant
/// cases embed as single-module plans, so downstream consumers (tape
/// lowering, importance, the safeopt scalar path) handle every tree
/// through one interface.
#[derive(Debug, Clone)]
pub struct ModularPlan {
    modules: Vec<ModulePlan>,
    num_leaves: usize,
}

impl ModularPlan {
    /// Decomposes `tree` into independent modules and compiles one
    /// [`TreeBdd`] per module. A module whose first-build BDD exceeds
    /// 512 reachable nodes gets a greedy [`TreeBdd::build_sifted`]
    /// re-ordering pass under a budget of 2¹⁷ allocated nodes, unless
    /// that BDD is already within 4× of the module's input count: such
    /// a BDD is near-linear — the variable order has nothing left to
    /// win — and a sifting sweep over a wide module (one adjacent-swap
    /// rebuild per input) would cost far more than any conceivable
    /// saving.
    ///
    /// # Errors
    ///
    /// [`crate::FtaError::NoRoot`] if the tree has no root.
    pub fn build(tree: &FaultTree) -> Result<Self> {
        let module_gates = detect_modules(tree)?;
        let module_of: HashMap<NodeId, usize> = module_gates
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        let mut modules = Vec::with_capacity(module_gates.len());
        for &gate in &module_gates {
            let (local, inputs) = build_module_tree(tree, gate, &module_of)?;
            let mut bdd = TreeBdd::build(&local)?;
            let linear_floor = local.leaves().len().saturating_mul(4);
            if bdd.node_count() > SIFT_THRESHOLD && bdd.node_count() > linear_floor {
                let sifted = TreeBdd::build_sifted(&local, SIFT_BUDGET)?;
                if sifted.node_count() < bdd.node_count() {
                    bdd = sifted;
                }
            }
            modules.push(ModulePlan {
                plan: bdd.shannon_plan(),
                inputs,
                name: tree.node(gate).name().to_owned(),
            });
        }
        Ok(ModularPlan {
            modules,
            num_leaves: tree.leaves().len(),
        })
    }

    /// Wraps a monolithic [`ShannonPlan`] as a single-module plan — the
    /// unpreprocessed reference that modular plans are checked against:
    /// local slots map one-to-one onto original leaves.
    pub fn from_single(plan: ShannonPlan) -> Self {
        let num_leaves = plan.num_leaves();
        ModularPlan {
            modules: vec![ModulePlan {
                plan,
                inputs: (0..num_leaves).map(PlanInput::Leaf).collect(),
                name: String::from("top"),
            }],
            num_leaves,
        }
    }

    /// A plan whose structure function is the constant `value` (what a
    /// tree that folds away entirely under constant propagation
    /// becomes).
    pub fn constant(value: bool, num_leaves: usize) -> Self {
        ModularPlan {
            modules: vec![ModulePlan {
                plan: ShannonPlan::constant(value, 0),
                inputs: Vec::new(),
                name: String::from("constant"),
            }],
            num_leaves,
        }
    }

    /// The modules, bottom-up; the last one is the top event.
    pub fn modules(&self) -> &[ModulePlan] {
        &self.modules
    }

    /// Leaf-probability input arity (original tree leaf numbering).
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Total Shannon nodes across all modules.
    pub fn node_count(&self) -> usize {
        self.modules.iter().map(|m| m.plan.nodes.len()).sum()
    }

    /// Shannon nodes of the largest single module — the quantity module
    /// decomposition actually bounds.
    pub fn largest_module_nodes(&self) -> usize {
        self.modules
            .iter()
            .map(|m| m.plan.nodes.len())
            .max()
            .unwrap_or(0)
    }

    /// Compiles the whole composition onto one engine op-tape whose
    /// inputs are the **original** leaf probabilities: per module one
    /// Shannon node per plan node (fused into `Chain` ops when the tape
    /// is built), with nested module roots wired straight into their
    /// parents' chains. For a single-module plan
    /// this emits exactly [`ShannonPlan::leaf_tape`]'s op sequence.
    pub fn leaf_tape(&self) -> safety_opt_engine::Tape {
        use safety_opt_engine::{TapeBuilder, Value};
        let mut b = TapeBuilder::new(self.num_leaves);
        let mut roots: Vec<Value> = Vec::with_capacity(self.modules.len());
        for m in &self.modules {
            let resolve = |r: ShannonRef, vals: &[Value]| match r {
                ShannonRef::False => Value::Const(0.0),
                ShannonRef::True => Value::Const(1.0),
                ShannonRef::Node(i) => vals[i],
            };
            let mut vals: Vec<Value> = Vec::with_capacity(m.plan.nodes.len());
            for node in &m.plan.nodes {
                let p = match m.inputs[node.leaf] {
                    PlanInput::Leaf(leaf) => b.input(leaf),
                    PlanInput::Module(j) => roots[j],
                };
                let hi = resolve(node.high, &vals);
                let lo = resolve(node.low, &vals);
                vals.push(b.mul_add(p, hi, lo));
            }
            roots.push(resolve(m.plan.root, &vals));
        }
        let top = *roots.last().expect("at least one module");
        b.output(top, 1.0);
        b.build()
    }

    /// Top-event probability by the same per-node float sequence the
    /// compiled tape executes (bit-identical to evaluating
    /// [`leaf_tape`](Self::leaf_tape)). `probs` is dense, original leaf
    /// numbering.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != num_leaves()`.
    pub fn probability(&self, probs: &[f64]) -> f64 {
        assert_eq!(
            probs.len(),
            self.num_leaves,
            "probability vector arity mismatch"
        );
        let mut roots: Vec<f64> = Vec::with_capacity(self.modules.len());
        for m in &self.modules {
            let resolve = |r: ShannonRef, vals: &[f64]| match r {
                ShannonRef::False => 0.0,
                ShannonRef::True => 1.0,
                ShannonRef::Node(i) => vals[i],
            };
            let mut vals: Vec<f64> = Vec::with_capacity(m.plan.nodes.len());
            for node in &m.plan.nodes {
                let q = match m.inputs[node.leaf] {
                    PlanInput::Leaf(leaf) => probs[leaf],
                    PlanInput::Module(j) => roots[j],
                };
                let hi = resolve(node.high, &vals);
                let lo = resolve(node.low, &vals);
                vals.push(q * hi + (1.0 - q) * lo);
            }
            roots.push(resolve(m.plan.root, &vals));
        }
        *roots.last().expect("at least one module")
    }

    /// Top-event probability **and** all Birnbaum importances
    /// `∂P/∂qᵢ` (original leaf numbering) in one forward + one backward
    /// sweep over the composed tape.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != num_leaves()`.
    pub fn probability_and_birnbaum(&self, probs: &[f64]) -> (f64, Vec<f64>) {
        self.leaf_tape().eval_grad(probs)
    }
}

/// Extracts module `gate`'s local tree: a standalone [`FaultTree`] whose
/// leaves are the module's own leaves plus one pseudo basic-event per
/// nested module top, with the slot mapping recorded as [`PlanInput`]s.
fn build_module_tree(
    tree: &FaultTree,
    gate: NodeId,
    module_of: &HashMap<NodeId, usize>,
) -> Result<(FaultTree, Vec<PlanInput>)> {
    let mut local = FaultTree::new(tree.node(gate).name());
    let mut inputs: Vec<PlanInput> = Vec::new();
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    let mut stack: Vec<(NodeId, bool)> = vec![(gate, false)];
    while let Some((id, expanded)) = stack.pop() {
        if expanded {
            let NodeKind::Gate { kind, inputs: gi } = tree.node(id).kind() else {
                unreachable!("only gates get an exit phase");
            };
            let name = tree.node(id).name();
            let local_inputs: Vec<NodeId> = gi.iter().map(|c| map[c]).collect();
            let lid = match kind {
                GateKind::And => local.and_gate(name, local_inputs)?,
                GateKind::Or => local.or_gate(name, local_inputs)?,
                GateKind::KOfN(k) => local.k_of_n_gate(name, *k, local_inputs)?,
                GateKind::Inhibit => local.inhibit_gate(name, local_inputs[0], local_inputs[1])?,
            };
            map.insert(id, lid);
            continue;
        }
        if map.contains_key(&id) {
            continue;
        }
        let node = tree.node(id);
        let nested_module = id != gate && module_of.contains_key(&id);
        if node.is_leaf() || nested_module {
            // A local pseudo-variable. Names stay collision-free: the
            // original tree enforced uniqueness and a nested module's
            // interior never materializes here.
            let lid = if node.is_condition() {
                local.condition(node.name())?
            } else {
                local.basic_event(node.name())?
            };
            map.insert(id, lid);
            inputs.push(if nested_module {
                PlanInput::Module(module_of[&id])
            } else {
                PlanInput::Leaf(tree.leaf_index(id).expect("leaf slot"))
            });
        } else {
            stack.push((id, true));
            let NodeKind::Gate { inputs: gi, .. } = node.kind() else {
                unreachable!("non-leaf is a gate");
            };
            for &c in gi.iter().rev() {
                stack.push((c, false));
            }
        }
    }
    let root = map[&gate];
    local.set_root(root)?;
    Ok((local, inputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two genuine modules under a root that also shares a leaf between
    /// two non-module gates.
    fn modular_fixture() -> FaultTree {
        let mut ft = FaultTree::new("fixture");
        let a = ft.basic_event_with_probability("a", 0.1).unwrap();
        let b = ft.basic_event_with_probability("b", 0.2).unwrap();
        let c = ft.basic_event_with_probability("c", 0.3).unwrap();
        let d = ft.basic_event_with_probability("d", 0.15).unwrap();
        let s = ft.basic_event_with_probability("s", 0.05).unwrap();
        let m1 = ft.and_gate("m1", [a, b]).unwrap();
        let m2 = ft.k_of_n_gate("m2", 2, [c, d, s]).unwrap();
        let l = ft.and_gate("l", [m1, s]).unwrap();
        let top = ft.or_gate("top", [l, m2]).unwrap();
        ft.set_root(top).unwrap();
        ft
    }

    #[test]
    fn modular_matches_monolithic_probability() {
        let ft = modular_fixture();
        let probs: Vec<f64> = (0..ft.leaves().len())
            .map(|i| {
                ft.node(ft.leaf(i))
                    .probability()
                    .expect("stored probability")
            })
            .collect();
        let mono = TreeBdd::build(&ft)
            .unwrap()
            .probability(&ft.stored_probabilities().unwrap())
            .unwrap();
        let plan = ModularPlan::build(&ft).unwrap();
        assert!((plan.probability(&probs) - mono).abs() <= 1e-12);
        let (tape_p, _) = plan.probability_and_birnbaum(&probs);
        assert!((tape_p - mono).abs() <= 1e-12);
    }

    #[test]
    fn scalar_fold_is_bit_identical_to_the_tape() {
        let ft = modular_fixture();
        let probs: Vec<f64> = (0..ft.leaves().len())
            .map(|i| 0.01 + 0.07 * i as f64)
            .collect();
        let plan = ModularPlan::build(&ft).unwrap();
        let tape = plan.leaf_tape();
        assert_eq!(
            plan.probability(&probs).to_bits(),
            tape.eval(&probs).to_bits()
        );
    }

    #[test]
    fn from_single_replays_the_monolithic_plan_exactly() {
        let ft = modular_fixture();
        let probs: Vec<f64> = (0..ft.leaves().len())
            .map(|i| 0.03 * (i + 1) as f64)
            .collect();
        let mono_plan = TreeBdd::build(&ft).unwrap().shannon_plan();
        let mono_tape = mono_plan.leaf_tape();
        let wrapped = ModularPlan::from_single(mono_plan);
        assert_eq!(
            wrapped.leaf_tape().eval(&probs).to_bits(),
            mono_tape.eval(&probs).to_bits()
        );
    }

    #[test]
    fn constant_plans_evaluate_to_their_constant() {
        let t = ModularPlan::constant(true, 4);
        let f = ModularPlan::constant(false, 4);
        let probs = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(t.probability(&probs), 1.0);
        assert_eq!(f.probability(&probs), 0.0);
        assert_eq!(t.leaf_tape().eval(&probs), 1.0);
        assert_eq!(f.leaf_tape().eval(&probs), 0.0);
    }

    #[test]
    fn module_decomposition_bounds_the_largest_bdd() {
        // A chain of independent 2-of-3 modules: monolithic nodes grow
        // with the whole tree, the largest module stays constant.
        let mut ft = FaultTree::new("chain");
        let mut tops = Vec::new();
        for m in 0..6 {
            let e: Vec<_> = (0..3)
                .map(|j| {
                    ft.basic_event_with_probability(format!("e{m}_{j}"), 0.01 * (j + 1) as f64)
                        .unwrap()
                })
                .collect();
            tops.push(ft.k_of_n_gate(format!("m{m}"), 2, e).unwrap());
        }
        let top = ft.or_gate("top", tops).unwrap();
        ft.set_root(top).unwrap();

        let plan = ModularPlan::build(&ft).unwrap();
        assert_eq!(plan.modules().len(), 7);
        let mono = TreeBdd::build(&ft).unwrap().shannon_plan();
        assert!(plan.largest_module_nodes() < mono.nodes.len());

        let probs: Vec<f64> = (0..ft.leaves().len()).map(|_| 0.02).collect();
        let mono_p = ModularPlan::from_single(mono).probability(&probs);
        assert!((plan.probability(&probs) - mono_p).abs() <= 1e-12);
    }

    #[test]
    fn birnbaum_matches_monolithic_gradients() {
        let ft = modular_fixture();
        let probs: Vec<f64> = (0..ft.leaves().len())
            .map(|i| 0.05 * (i + 1) as f64)
            .collect();
        let plan = ModularPlan::build(&ft).unwrap();
        let mono = TreeBdd::build(&ft).unwrap().shannon_plan();
        let (p_mod, g_mod) = plan.probability_and_birnbaum(&probs);
        let (p_mono, g_mono) = mono.probability_and_birnbaum(&probs);
        assert!((p_mod - p_mono).abs() <= 1e-12);
        for (a, b) in g_mod.iter().zip(&g_mono) {
            assert!((a - b).abs() <= 1e-12, "{a} vs {b}");
        }
    }
}
