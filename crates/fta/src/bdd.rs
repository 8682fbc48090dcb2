//! Binary decision diagrams (BDDs) for fault trees.
//!
//! A reduced ordered BDD represents the tree's *structure function*
//! exactly, which buys **exact hazard probabilities** by Shannon
//! decomposition — no rare-event approximation, no inclusion–exclusion
//! blow-up. The paper uses the engineering-standard Eq. 1 approximation;
//! comparing it against the BDD-exact value quantifies the approximation
//! error. Minimal cut sets come from [`crate::mcs::bottom_up`], not from
//! the BDD.
//!
//! The implementation is a classic unique-table manager with an ITE-based
//! apply and memoized probability evaluation. Variables are the tree's
//! leaves, ordered by first DFS visit (a standard, effective static
//! heuristic).
//!
//! The unique and ITE tables, keyed by node triples, hash with the
//! engine's small [`FxHashMap`]; every memo keyed by a tree node, BDD
//! node, level or leaf slot is a `Vec` indexed by it. Only tables keyed
//! by names from the input text keep std's randomly seeded hasher, since
//! a fixed hash would let chosen names collide.

use crate::quant::ProbabilityMap;
use crate::tree::{FaultTree, GateKind, NodeId, NodeKind};
use crate::{FtaError, Result};
use safety_opt_engine::hash::FxHashMap;

use safety_opt_telemetry as telemetry;

/// BDDs compiled by [`TreeBdd::build`]/[`TreeBdd::build_with_order`].
static BDD_BUILDS: telemetry::Counter = telemetry::Counter::new("fta.bdd.builds");
/// Internal nodes reachable from the roots of built BDDs.
static BDD_NODES: telemetry::Counter = telemetry::Counter::new("fta.bdd.nodes");
/// Total nodes allocated building BDDs, including construction garbage.
static BDD_ALLOCATED: telemetry::Counter = telemetry::Counter::new("fta.bdd.allocated");
/// Shannon plans exported by [`TreeBdd::shannon_plan`].
static SHANNON_PLANS: telemetry::Counter = telemetry::Counter::new("fta.shannon.plans");
/// Decomposition nodes across exported Shannon plans.
static SHANNON_NODES: telemetry::Counter = telemetry::Counter::new("fta.shannon.nodes");

/// Reference to a BDD node inside one manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Ref(u32);

const FALSE: Ref = Ref(0);
const TRUE: Ref = Ref(1);

#[derive(Debug, Clone, Copy)]
struct BddNode {
    /// Variable level (lower = nearer the root). `u32::MAX` on terminals.
    var: u32,
    low: Ref,
    high: Ref,
}

/// A fault tree compiled to a reduced ordered BDD.
///
/// ```
/// use safety_opt_fta::bdd::TreeBdd;
/// use safety_opt_fta::tree::FaultTree;
///
/// # fn main() -> Result<(), safety_opt_fta::FtaError> {
/// let mut ft = FaultTree::new("t");
/// let a = ft.basic_event_with_probability("a", 0.1)?;
/// let b = ft.basic_event_with_probability("b", 0.2)?;
/// let top = ft.and_gate("top", [a, b])?;
/// ft.set_root(top)?;
///
/// let bdd = TreeBdd::build(&ft)?;
/// let p = bdd.probability(&ft.stored_probabilities()?)?;
/// assert!((p - 0.02).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TreeBdd {
    nodes: Vec<BddNode>,
    root: Ref,
    /// BDD level → leaf index of the owning tree.
    level_to_leaf: Vec<usize>,
    /// Number of leaves in the owning tree.
    num_leaves: usize,
}

/// The unique table and the ITE cache, hashed as the [module
/// docs](self) describe. A run of builds (the modules of one plan, the
/// candidate orders of a sifting pass) passes one set from build to
/// build, so their memory is allocated once.
#[derive(Default)]
pub(crate) struct BddTables {
    unique: FxHashMap<(u32, Ref, Ref), Ref>,
    ite_cache: FxHashMap<(Ref, Ref, Ref), Ref>,
}

/// Internal construction state: the node arena and the tables.
struct Builder<'t> {
    nodes: Vec<BddNode>,
    unique: &'t mut FxHashMap<(u32, Ref, Ref), Ref>,
    ite_cache: &'t mut FxHashMap<(Ref, Ref, Ref), Ref>,
}

impl<'t> Builder<'t> {
    /// A manager for `variables` variables over emptied `tables`.
    /// Building a fault tree's BDD allocates a few nodes and ITE results
    /// per variable (about seven and six on the industrial tree's top
    /// module), so both tables get room for eight per variable up front
    /// instead of growing through repeated rehashes.
    fn new(variables: usize, tables: &'t mut BddTables) -> Self {
        let terminals = vec![
            BddNode {
                var: u32::MAX,
                low: FALSE,
                high: FALSE,
            },
            BddNode {
                var: u32::MAX,
                low: TRUE,
                high: TRUE,
            },
        ];
        let BddTables { unique, ite_cache } = tables;
        unique.clear();
        ite_cache.clear();
        unique.reserve(8 * variables);
        ite_cache.reserve(8 * variables);
        Self {
            nodes: terminals,
            unique,
            ite_cache,
        }
    }

    fn var_of(&self, r: Ref) -> u32 {
        self.nodes[r.0 as usize].var
    }

    fn mk(&mut self, var: u32, low: Ref, high: Ref) -> Ref {
        if low == high {
            return low;
        }
        *self.unique.entry((var, low, high)).or_insert_with(|| {
            let r = Ref(self.nodes.len() as u32);
            self.nodes.push(BddNode { var, low, high });
            r
        })
    }

    fn variable(&mut self, level: u32) -> Ref {
        self.mk(level, FALSE, TRUE)
    }

    fn cofactor(&self, f: Ref, var: u32) -> (Ref, Ref) {
        let node = self.nodes[f.0 as usize];
        if node.var == var {
            (node.low, node.high)
        } else {
            (f, f)
        }
    }

    /// If-then-else: the universal binary/ternary operator.
    fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        // Terminal shortcuts.
        if f == TRUE {
            return g;
        }
        if f == FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == TRUE && h == FALSE {
            return f;
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return r;
        }
        let top = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactor(f, top);
        let (g0, g1) = self.cofactor(g, top);
        let (h0, h1) = self.cofactor(h, top);
        let low = self.ite(f0, g0, h0);
        let high = self.ite(f1, g1, h1);
        let r = self.mk(top, low, high);
        self.ite_cache.insert((f, g, h), r);
        r
    }

    fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, FALSE)
    }

    fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, TRUE, g)
    }
}

impl TreeBdd {
    /// Compiles `tree` with the default variable order (first DFS visit).
    ///
    /// # Errors
    ///
    /// [`FtaError::NoRoot`] if the tree has no root.
    pub fn build(tree: &FaultTree) -> Result<Self> {
        let order = dfs_leaf_order(tree)?;
        Self::build_with_order(tree, order)
    }

    /// Compiles `tree` with an explicit variable order (a permutation of
    /// the reachable leaf indices; unreached leaves may be omitted).
    ///
    /// # Errors
    ///
    /// [`FtaError::NoRoot`] if the tree has no root, or
    /// [`FtaError::UnknownNode`] if `order` references an invalid leaf or
    /// omits a reachable one.
    pub fn build_with_order(tree: &FaultTree, order: Vec<usize>) -> Result<Self> {
        Self::build_in(tree, order, &mut BddTables::default())
    }

    /// [`build`](Self::build) on reused tables.
    pub(crate) fn build_reusing(tree: &FaultTree, tables: &mut BddTables) -> Result<Self> {
        let order = dfs_leaf_order(tree)?;
        Self::build_in(tree, order, tables)
    }

    /// [`build_with_order`](Self::build_with_order) on reused tables.
    fn build_in(tree: &FaultTree, order: Vec<usize>, tables: &mut BddTables) -> Result<Self> {
        // Deterministic fault-injection site: every BDD compilation
        // funnels through here (`build`, `build_sifted`, module-wise
        // plans), so one armed site covers all Shannon/apply work.
        if safety_opt_engine::faultinject::should_fail(
            safety_opt_engine::faultinject::sites::BDD_APPLY,
        ) {
            return Err(FtaError::FaultInjected {
                site: safety_opt_engine::faultinject::sites::BDD_APPLY,
            });
        }
        let root_id = tree.root()?;
        let mut leaf_to_level = vec![NO_LEVEL; tree.leaves().len()];
        for (level, &leaf) in order.iter().enumerate() {
            let Some(slot) = leaf_to_level.get_mut(leaf) else {
                return Err(FtaError::UnknownNode {
                    reference: format!("leaf index {leaf}"),
                });
            };
            if std::mem::replace(slot, level as u32) != NO_LEVEL {
                return Err(FtaError::UnknownNode {
                    reference: format!("duplicate leaf index {leaf} in order"),
                });
            }
        }
        for leaf in tree.reachable_leaves()? {
            if leaf_to_level[leaf] == NO_LEVEL {
                return Err(FtaError::UnknownNode {
                    reference: format!("reachable leaf index {leaf} missing from order"),
                });
            }
        }

        let mut b = Builder::new(order.len(), tables);
        let mut memo: Vec<Option<Ref>> = vec![None; tree.len()];
        let root = build_node(tree, root_id, &leaf_to_level, &mut b, &mut memo);
        let built = Self {
            nodes: b.nodes,
            root,
            level_to_leaf: order,
            num_leaves: tree.leaves().len(),
        };
        // Gated: the reachable-node count is a DFS, not a field read.
        if telemetry::counters_enabled() {
            BDD_BUILDS.add(1);
            BDD_NODES.add(built.node_count() as u64);
            BDD_ALLOCATED.add(built.allocated_count() as u64);
        }
        Ok(built)
    }

    /// Compiles `tree` with a greedy **sifting** pass: starting from the
    /// DFS order, repeatedly tries adjacent transpositions of the
    /// variable order (rebuilding through
    /// [`build_with_order`](Self::build_with_order)) and keeps every
    /// swap that shrinks the reachable node count, until a full sweep
    /// finds no improvement or the cumulative **allocated-node budget**
    /// is exhausted — whichever comes first, the best BDD seen so far is
    /// returned (never an error from running out of budget).
    ///
    /// # Errors
    ///
    /// [`FtaError::NoRoot`] if the tree has no root.
    pub fn build_sifted(tree: &FaultTree, node_budget: usize) -> Result<Self> {
        let mut order = dfs_leaf_order(tree)?;
        let mut tables = BddTables::default();
        let mut best = Self::build_in(tree, order.clone(), &mut tables)?;
        let mut spent = best.allocated_count();
        if order.len() < 2 {
            return Ok(best);
        }
        loop {
            let mut improved = false;
            for i in 0..order.len() - 1 {
                order.swap(i, i + 1);
                let candidate = Self::build_in(tree, order.clone(), &mut tables)?;
                spent = spent.saturating_add(candidate.allocated_count());
                let better = candidate.node_count() < best.node_count();
                if better {
                    best = candidate;
                    improved = true;
                } else {
                    order.swap(i, i + 1);
                }
                if spent >= node_budget {
                    return Ok(best);
                }
            }
            if !improved {
                return Ok(best);
            }
        }
    }

    /// Number of internal BDD nodes reachable from the root (excluding
    /// the two terminals). Construction may allocate further nodes that
    /// became garbage during intermediate folds; see
    /// [`allocated_count`](Self::allocated_count).
    pub fn node_count(&self) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut count = 0;
        let mut stack = vec![self.root];
        while let Some(r) = stack.pop() {
            if r == TRUE || r == FALSE || std::mem::replace(&mut seen[r.0 as usize], true) {
                continue;
            }
            count += 1;
            let node = self.nodes[r.0 as usize];
            stack.push(node.low);
            stack.push(node.high);
        }
        count
    }

    /// Total nodes allocated by the manager, including construction
    /// garbage (excluding terminals). Useful for benchmarking variable
    /// orders.
    pub fn allocated_count(&self) -> usize {
        self.nodes.len().saturating_sub(2)
    }

    /// Exact top-event probability by Shannon decomposition, assuming
    /// independent leaves with the probabilities in `probs` (indexed by
    /// leaf index).
    ///
    /// # Errors
    ///
    /// [`FtaError::MissingProbability`] if a leaf used by the BDD has no
    /// entry in `probs`.
    pub fn probability(&self, probs: &ProbabilityMap) -> Result<f64> {
        let mut memo: Vec<Option<f64>> = vec![None; self.nodes.len()];
        memo[FALSE.0 as usize] = Some(0.0);
        memo[TRUE.0 as usize] = Some(1.0);
        self.prob_rec(self.root, probs, &mut memo)
    }

    fn prob_rec(&self, r: Ref, probs: &ProbabilityMap, memo: &mut [Option<f64>]) -> Result<f64> {
        if let Some(p) = memo[r.0 as usize] {
            return Ok(p);
        }
        let node = self.nodes[r.0 as usize];
        let leaf = self.level_to_leaf[node.var as usize];
        let p_leaf = probs
            .get(leaf)
            .ok_or_else(|| FtaError::MissingProbability {
                event: format!("leaf index {leaf}"),
            })?;
        let p_low = self.prob_rec(node.low, probs, memo)?;
        let p_high = self.prob_rec(node.high, probs, memo)?;
        let p = p_leaf * p_high + (1.0 - p_leaf) * p_low;
        memo[r.0 as usize] = Some(p);
        Ok(p)
    }

    /// Evaluates the structure function for a concrete leaf assignment.
    pub fn evaluate(&self, failed: &crate::BitSet) -> bool {
        let mut r = self.root;
        loop {
            if r == TRUE {
                return true;
            }
            if r == FALSE {
                return false;
            }
            let node = self.nodes[r.0 as usize];
            let leaf = self.level_to_leaf[node.var as usize];
            r = if failed.contains(leaf) {
                node.high
            } else {
                node.low
            };
        }
    }

    /// Exports the Shannon decomposition as a flat, compilation-friendly
    /// plan: the internal nodes reachable from the root in bottom-up
    /// topological order (children always precede parents), each
    /// carrying its leaf index and its cofactor references. This is the
    /// interface the evaluation-engine lowering consumes — one fused
    /// `p·hi + (1−p)·lo` op per node.
    pub fn shannon_plan(&self) -> ShannonPlan {
        let mut index: Vec<Option<ShannonRef>> = vec![None; self.nodes.len()];
        index[FALSE.0 as usize] = Some(ShannonRef::False);
        index[TRUE.0 as usize] = Some(ShannonRef::True);
        let exported =
            |index: &[Option<ShannonRef>], r: Ref| index[r.0 as usize].expect("child first");
        let mut nodes = Vec::new();
        let mut stack: Vec<(Ref, bool)> = vec![(self.root, false)];
        while let Some((r, expanded)) = stack.pop() {
            if index[r.0 as usize].is_some() {
                continue;
            }
            let node = self.nodes[r.0 as usize];
            if expanded {
                let plan_node = ShannonNode {
                    leaf: self.level_to_leaf[node.var as usize],
                    low: exported(&index, node.low),
                    high: exported(&index, node.high),
                };
                index[r.0 as usize] = Some(ShannonRef::Node(nodes.len()));
                nodes.push(plan_node);
            } else {
                stack.push((r, true));
                stack.push((node.high, false));
                stack.push((node.low, false));
            }
        }
        SHANNON_PLANS.add(1);
        SHANNON_NODES.add(nodes.len() as u64);
        ShannonPlan {
            nodes,
            root: exported(&index, self.root),
            num_leaves: self.num_leaves,
        }
    }

    /// The number of leaves of the tree this BDD was built from.
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }
}

/// Cofactor reference inside a [`ShannonPlan`]: a terminal or an earlier
/// node of the plan (children always precede parents).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ShannonRef {
    /// Terminal 0 — the structure function is false on this branch.
    False,
    /// Terminal 1 — the structure function is true on this branch.
    True,
    /// Index into [`ShannonPlan::nodes`] (strictly smaller than the
    /// referencing node's own index).
    Node(usize),
}

/// One internal BDD node of an exported Shannon decomposition:
/// `P(node) = q_leaf · P(high) + (1 − q_leaf) · P(low)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ShannonNode {
    /// Leaf index of the branch variable (tree leaf numbering).
    pub leaf: usize,
    /// Cofactor when the leaf works.
    pub low: ShannonRef,
    /// Cofactor when the leaf fails.
    pub high: ShannonRef,
}

/// A BDD's Shannon decomposition, flattened for compilation: reachable
/// internal nodes in bottom-up topological order plus the root
/// reference. See [`TreeBdd::shannon_plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ShannonPlan {
    /// Reachable internal nodes, children before parents.
    pub nodes: Vec<ShannonNode>,
    /// The decomposition's root (a terminal for constant structure
    /// functions).
    pub root: ShannonRef,
    num_leaves: usize,
}

impl ShannonPlan {
    /// A plan whose structure function is the constant `value` — no
    /// nodes, a terminal root. What preprocessing hands back when
    /// constant propagation collapses a whole tree (or module).
    pub fn constant(value: bool, num_leaves: usize) -> Self {
        ShannonPlan {
            nodes: Vec::new(),
            root: if value {
                ShannonRef::True
            } else {
                ShannonRef::False
            },
            num_leaves,
        }
    }

    /// Number of leaves of the owning tree (the leaf-probability input
    /// arity of [`leaf_tape`](Self::leaf_tape)).
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Compiles the decomposition onto an engine op-tape whose **inputs
    /// are the leaf probabilities** (`num_leaves` coordinates, tree leaf
    /// numbering): one Shannon node per BDD node, output weight 1; the
    /// built tape fuses single-parent runs of them into `Chain` ops.
    ///
    /// Evaluating the tape reproduces [`TreeBdd::probability`]
    /// bit-for-bit (same per-node float sequence over the same reduced
    /// DAG), and because the top-event probability is **multilinear** in
    /// the leaf probabilities, one reverse-mode adjoint sweep
    /// ([`safety_opt_engine::Tape::eval_grad`]) yields every Birnbaum
    /// importance `∂P/∂qᵢ = P(top|qᵢ=1) − P(top|qᵢ=0)` at once.
    pub fn leaf_tape(&self) -> safety_opt_engine::Tape {
        use safety_opt_engine::{TapeBuilder, Value};
        let mut b = TapeBuilder::new(self.num_leaves);
        let mut vals: Vec<Value> = Vec::with_capacity(self.nodes.len());
        let resolve = |r: ShannonRef, vals: &[Value]| match r {
            ShannonRef::False => Value::Const(0.0),
            ShannonRef::True => Value::Const(1.0),
            ShannonRef::Node(i) => vals[i],
        };
        for node in &self.nodes {
            let p = b.input(node.leaf);
            let hi = resolve(node.high, &vals);
            let lo = resolve(node.low, &vals);
            vals.push(b.mul_add(p, hi, lo));
        }
        let root = resolve(self.root, &vals);
        b.output(root, 1.0);
        b.build()
    }

    /// Top-event probability **and** all Birnbaum importances
    /// `∂P/∂qᵢ` in one forward + one backward sweep over the leaf tape.
    /// `probs` is dense, indexed by leaf (length
    /// [`num_leaves`](Self::num_leaves)); leaves the BDD does not
    /// reference may carry any value and get gradient 0.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != num_leaves()`.
    pub fn probability_and_birnbaum(&self, probs: &[f64]) -> (f64, Vec<f64>) {
        self.leaf_tape().eval_grad(probs)
    }
}

/// Variable order: leaves by first DFS visit from the root.
fn dfs_leaf_order(tree: &FaultTree) -> Result<Vec<usize>> {
    let root = tree.root()?;
    let mut order = Vec::new();
    let mut seen = vec![false; tree.len()];
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut seen[id.index()], true) {
            continue;
        }
        match tree.node(id).kind() {
            NodeKind::Gate { inputs, .. } => {
                // Push in reverse so the first input is visited first.
                for &i in inputs.iter().rev() {
                    stack.push(i);
                }
            }
            _ => order.push(tree.leaf_index(id).expect("leaf slot")),
        }
    }
    Ok(order)
}

/// [`TreeBdd::build_with_order`]'s level of a leaf that is not in the
/// order.
const NO_LEVEL: u32 = u32::MAX;

fn build_node(
    tree: &FaultTree,
    id: NodeId,
    leaf_to_level: &[u32],
    b: &mut Builder,
    memo: &mut [Option<Ref>],
) -> Ref {
    if let Some(r) = memo[id.index()] {
        return r;
    }
    let r = match tree.node(id).kind() {
        NodeKind::BasicEvent { .. } | NodeKind::Condition { .. } => {
            let leaf = tree.leaf_index(id).expect("leaf slot");
            b.variable(leaf_to_level[leaf])
        }
        NodeKind::Gate { kind, inputs } => {
            let input_refs: Vec<Ref> = inputs
                .iter()
                .map(|&i| build_node(tree, i, leaf_to_level, b, memo))
                .collect();
            match kind {
                GateKind::And | GateKind::Inhibit => {
                    reduce_balanced(b, input_refs, TRUE, Builder::and)
                }
                GateKind::Or => reduce_balanced(b, input_refs, FALSE, Builder::or),
                GateKind::KOfN(k) => threshold(b, &input_refs, *k),
            }
        }
    };
    memo[id.index()] = Some(r);
    r
}

/// Folds `refs` under `op` as a balanced pairwise reduction. The result
/// is the same canonical BDD a linear fold produces, but wide gates
/// (preprocessing coalesces fanout-1 chains into gates with hundreds of
/// inputs) cost `O(n log n)` apply work instead of the linear fold's
/// `O(n²)` — each level merges sub-results of comparable size rather
/// than dragging one ever-growing accumulator past every input.
fn reduce_balanced<'t>(
    b: &mut Builder<'t>,
    mut refs: Vec<Ref>,
    unit: Ref,
    op: impl Fn(&mut Builder<'t>, Ref, Ref) -> Ref,
) -> Ref {
    if refs.is_empty() {
        return unit;
    }
    while refs.len() > 1 {
        let mut next = Vec::with_capacity(refs.len().div_ceil(2));
        for pair in refs.chunks(2) {
            next.push(match *pair {
                [f, g] => op(b, f, g),
                [f] => f,
                _ => unreachable!("chunks(2)"),
            });
        }
        refs = next;
    }
    refs[0]
}

/// BDD for "at least `k` of `fs` are true".
fn threshold(b: &mut Builder, fs: &[Ref], k: usize) -> Ref {
    if k == 0 {
        return TRUE;
    }
    if k > fs.len() {
        return FALSE;
    }
    let first = fs[0];
    let rest = &fs[1..];
    let with = threshold(b, rest, k - 1);
    let without = threshold(b, rest, k);
    b.ite(first, with, without)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcs;

    fn and_or_tree() -> FaultTree {
        // top = (a AND b) OR c
        let mut ft = FaultTree::new("t");
        let a = ft.basic_event_with_probability("a", 0.1).unwrap();
        let b = ft.basic_event_with_probability("b", 0.2).unwrap();
        let c = ft.basic_event_with_probability("c", 0.05).unwrap();
        let g = ft.and_gate("ab", [a, b]).unwrap();
        let top = ft.or_gate("top", [g, c]).unwrap();
        ft.set_root(top).unwrap();
        ft
    }

    #[test]
    fn exact_probability_matches_hand_calculation() {
        let ft = and_or_tree();
        let bdd = TreeBdd::build(&ft).unwrap();
        let p = bdd
            .probability(&ft.stored_probabilities().unwrap())
            .unwrap();
        // P((a∧b)∨c) = P(ab) + P(c) − P(abc) = 0.02 + 0.05 − 0.001
        assert!((p - 0.069).abs() < 1e-15, "p = {p}");
    }

    #[test]
    fn kofn_probability_is_exact_binomial() {
        // 2-of-3 with p = 0.1 each: 3 p²(1−p) + p³ = 0.028.
        let mut ft = FaultTree::new("t");
        let leaves: Vec<_> = (0..3)
            .map(|i| {
                ft.basic_event_with_probability(format!("e{i}"), 0.1)
                    .unwrap()
            })
            .collect();
        let top = ft.k_of_n_gate("vote", 2, leaves).unwrap();
        ft.set_root(top).unwrap();
        let bdd = TreeBdd::build(&ft).unwrap();
        let p = bdd
            .probability(&ft.stored_probabilities().unwrap())
            .unwrap();
        assert!((p - 0.028).abs() < 1e-15, "p = {p}");
    }

    #[test]
    fn shared_events_are_exact_where_rare_event_is_not() {
        // top = (a AND b) OR (a AND c): rare-event double counts `a`.
        let mut ft = FaultTree::new("t");
        let a = ft.basic_event_with_probability("a", 0.5).unwrap();
        let b = ft.basic_event_with_probability("b", 0.5).unwrap();
        let c = ft.basic_event_with_probability("c", 0.5).unwrap();
        let g1 = ft.and_gate("g1", [a, b]).unwrap();
        let g2 = ft.and_gate("g2", [a, c]).unwrap();
        let top = ft.or_gate("top", [g1, g2]).unwrap();
        ft.set_root(top).unwrap();
        let bdd = TreeBdd::build(&ft).unwrap();
        let p = bdd
            .probability(&ft.stored_probabilities().unwrap())
            .unwrap();
        // P(a ∧ (b ∨ c)) = 0.5 · 0.75 = 0.375 (rare-event would say 0.5).
        assert!((p - 0.375).abs() < 1e-15, "p = {p}");
    }

    #[test]
    fn evaluate_agrees_with_cut_sets() {
        let ft = and_or_tree();
        let bdd = TreeBdd::build(&ft).unwrap();
        let mcs = mcs::bottom_up(&ft).unwrap();
        // All 8 assignments over 3 leaves.
        for mask in 0..8usize {
            let failed: crate::BitSet = (0..3).filter(|i| mask & (1 << i) != 0).collect();
            assert_eq!(
                bdd.evaluate(&failed),
                mcs.evaluate(&failed),
                "assignment {mask:03b}"
            );
        }
    }

    #[test]
    fn inhibit_behaves_like_and() {
        let mut ft = FaultTree::new("t");
        let cause = ft.basic_event_with_probability("cause", 0.01).unwrap();
        let cond = ft.condition_with_probability("env", 0.5).unwrap();
        let top = ft.inhibit_gate("top", cause, cond).unwrap();
        ft.set_root(top).unwrap();
        let bdd = TreeBdd::build(&ft).unwrap();
        let p = bdd
            .probability(&ft.stored_probabilities().unwrap())
            .unwrap();
        assert!((p - 0.005).abs() < 1e-15);
    }

    #[test]
    fn custom_variable_order_changes_size_not_semantics() {
        let ft = and_or_tree();
        let default = TreeBdd::build(&ft).unwrap();
        let custom = TreeBdd::build_with_order(&ft, vec![2, 1, 0]).unwrap();
        let pm = ft.stored_probabilities().unwrap();
        assert!(
            (default.probability(&pm).unwrap() - custom.probability(&pm).unwrap()).abs() < 1e-15
        );
    }

    #[test]
    fn order_validation() {
        let ft = and_or_tree();
        // Missing reachable leaf.
        assert!(TreeBdd::build_with_order(&ft, vec![0, 1]).is_err());
        // Out-of-range leaf.
        assert!(TreeBdd::build_with_order(&ft, vec![0, 1, 9]).is_err());
        // Duplicate leaf.
        assert!(TreeBdd::build_with_order(&ft, vec![0, 1, 1]).is_err());
    }

    #[test]
    fn node_count_is_reduced() {
        // OR over n independent leaves has exactly n internal nodes.
        let mut ft = FaultTree::new("t");
        let leaves: Vec<_> = (0..8)
            .map(|i| ft.basic_event(format!("e{i}")).unwrap())
            .collect();
        let top = ft.or_gate("top", leaves).unwrap();
        ft.set_root(top).unwrap();
        let bdd = TreeBdd::build(&ft).unwrap();
        assert_eq!(bdd.node_count(), 8);
    }

    #[test]
    fn shannon_plan_is_topologically_ordered() {
        let ft = and_or_tree();
        let bdd = TreeBdd::build(&ft).unwrap();
        let plan = bdd.shannon_plan();
        assert_eq!(plan.nodes.len(), bdd.node_count());
        assert_eq!(plan.num_leaves(), 3);
        for (i, node) in plan.nodes.iter().enumerate() {
            for r in [node.low, node.high] {
                if let ShannonRef::Node(j) = r {
                    assert!(j < i, "child {j} not before parent {i}");
                }
            }
        }
        assert!(matches!(plan.root, ShannonRef::Node(_)));
    }

    #[test]
    fn shannon_leaf_tape_matches_probability_bitwise() {
        for (seed, ft) in [
            (0, and_or_tree()),
            (1, {
                let mut ft = FaultTree::new("t");
                let leaves: Vec<_> = (0..4)
                    .map(|i| {
                        ft.basic_event_with_probability(format!("e{i}"), 0.05 + 0.1 * i as f64)
                            .unwrap()
                    })
                    .collect();
                let top = ft.k_of_n_gate("vote", 2, leaves).unwrap();
                ft.set_root(top).unwrap();
                ft
            }),
        ] {
            let bdd = TreeBdd::build(&ft).unwrap();
            let pm = ft.stored_probabilities().unwrap();
            let want = bdd.probability(&pm).unwrap();
            let plan = bdd.shannon_plan();
            let tape = plan.leaf_tape();
            assert_eq!(tape.n_inputs(), ft.leaves().len());
            let got = tape.eval(pm.as_slice());
            assert_eq!(want.to_bits(), got.to_bits(), "tree {seed}");
        }
    }

    #[test]
    fn birnbaum_gradient_matches_forced_reevaluation() {
        let ft = and_or_tree();
        let bdd = TreeBdd::build(&ft).unwrap();
        let pm = ft.stored_probabilities().unwrap();
        let plan = bdd.shannon_plan();
        let (p, grad) = plan.probability_and_birnbaum(pm.as_slice());
        assert_eq!(p.to_bits(), bdd.probability(&pm).unwrap().to_bits());
        for (leaf, &g) in grad.iter().enumerate() {
            let up = bdd
                .probability(&pm.with_forced(leaf, 1.0).unwrap())
                .unwrap();
            let down = bdd
                .probability(&pm.with_forced(leaf, 0.0).unwrap())
                .unwrap();
            assert!(
                (g - (up - down)).abs() < 1e-15,
                "leaf {leaf}: adjoint {g} vs forced {}",
                up - down
            );
        }
    }

    #[test]
    fn constant_structure_functions_export_terminal_plans() {
        // Coherent trees cannot produce terminal roots, but the plan
        // format admits them; the leaf tape must handle a constant
        // structure function gracefully.
        let plan = ShannonPlan {
            nodes: Vec::new(),
            root: ShannonRef::True,
            num_leaves: 2,
        };
        let (p, grad) = plan.probability_and_birnbaum(&[0.5, 0.5]);
        assert_eq!(p, 1.0);
        assert_eq!(grad, vec![0.0, 0.0]);
    }

    #[test]
    fn probability_requires_all_leaves() {
        let ft = and_or_tree();
        let bdd = TreeBdd::build(&ft).unwrap();
        let short = ProbabilityMap::new(vec![0.1, 0.2]).unwrap();
        assert!(matches!(
            bdd.probability(&short),
            Err(FtaError::MissingProbability { .. })
        ));
    }
}
