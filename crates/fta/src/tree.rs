//! Fault-tree structure: nodes, gates, builders, and validation.
//!
//! A [`FaultTree`] is an arena of named nodes. Leaves are **basic events**
//! (the paper's primary failures) or **conditions** (the environmental
//! side-inputs of INHIBIT gates, which the paper's constraint
//! probabilities quantify). Inner nodes are gates: AND, OR, k-of-n
//! (voting), and INHIBIT.
//!
//! Construction is bottom-up — a gate can only reference [`NodeId`]s that
//! already exist — so a tree is a DAG *by construction*; shared subtrees
//! are allowed and handled correctly by every algorithm in this crate.

use crate::{FtaError, Result};
use std::collections::HashMap;

/// Opaque handle to a node inside one [`FaultTree`].
///
/// Handles are only meaningful for the tree that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The arena index of this node.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// The logical type of a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum GateKind {
    /// Output occurs iff **all** inputs occur.
    And,
    /// Output occurs iff **any** input occurs.
    Or,
    /// Output occurs iff at least `k` of the inputs occur.
    KOfN(usize),
    /// Output occurs iff the (single) cause input occurs **and** the
    /// condition holds. The condition is `inputs[1]` by convention; it is
    /// usually a [`NodeKind::Condition`] leaf but may be any node.
    Inhibit,
}

impl std::fmt::Display for GateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateKind::And => f.write_str("AND"),
            GateKind::Or => f.write_str("OR"),
            GateKind::KOfN(k) => write!(f, "{k}-of-n"),
            GateKind::Inhibit => f.write_str("INHIBIT"),
        }
    }
}

/// Payload of a node.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum NodeKind {
    /// A primary failure (leaf). Not developed further; carries an
    /// optional point probability.
    BasicEvent {
        /// Optional stored probability of occurrence.
        probability: Option<f64>,
    },
    /// An environmental condition (leaf of an INHIBIT gate). Not a
    /// failure; the paper's constraint probabilities quantify how likely
    /// the environment is "bad enough".
    Condition {
        /// Optional stored probability that the condition holds.
        probability: Option<f64>,
    },
    /// An inner node combining its inputs through a gate.
    Gate {
        /// The gate type.
        kind: GateKind,
        /// Input nodes (for INHIBIT: `[cause, condition]`).
        inputs: Vec<NodeId>,
    },
}

/// A named node of a fault tree.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Node {
    name: String,
    kind: NodeKind,
}

impl Node {
    /// The node's (tree-unique) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's payload.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// `true` for basic events and conditions.
    pub fn is_leaf(&self) -> bool {
        matches!(
            self.kind,
            NodeKind::BasicEvent { .. } | NodeKind::Condition { .. }
        )
    }

    /// `true` for condition leaves.
    pub fn is_condition(&self) -> bool {
        matches!(self.kind, NodeKind::Condition { .. })
    }

    /// Stored probability, if this is a leaf that has one.
    pub fn probability(&self) -> Option<f64> {
        match self.kind {
            NodeKind::BasicEvent { probability } | NodeKind::Condition { probability } => {
                probability
            }
            NodeKind::Gate { .. } => None,
        }
    }
}

/// A fault tree: a named DAG of gates over basic events and conditions,
/// with one distinguished root (the hazard / top event).
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FaultTree {
    name: String,
    nodes: Vec<Node>,
    /// Name → node lookup.
    names: HashMap<String, NodeId>,
    /// Leaves in creation order; position is the **leaf index** used by
    /// cut sets.
    leaves: Vec<NodeId>,
    /// Node index → leaf index (None for gates).
    leaf_slot: Vec<Option<usize>>,
    root: Option<NodeId>,
}

impl FaultTree {
    /// Creates an empty fault tree for the hazard `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            names: HashMap::new(),
            leaves: Vec::new(),
            leaf_slot: Vec::new(),
            root: None,
        }
    }

    /// The hazard name this tree describes.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn add_node(&mut self, name: String, kind: NodeKind) -> Result<NodeId> {
        if self.names.contains_key(&name) {
            return Err(FtaError::DuplicateName { name });
        }
        let id = NodeId(self.nodes.len());
        let is_leaf = matches!(
            kind,
            NodeKind::BasicEvent { .. } | NodeKind::Condition { .. }
        );
        self.names.insert(name.clone(), id);
        self.nodes.push(Node { name, kind });
        if is_leaf {
            self.leaf_slot.push(Some(self.leaves.len()));
            self.leaves.push(id);
        } else {
            self.leaf_slot.push(None);
        }
        Ok(id)
    }

    /// Appends `input` to `gate`'s inputs without the builder's checks,
    /// the shape a hand-edited serialized tree can hold (for example an
    /// input listed twice).
    #[cfg(test)]
    pub(crate) fn push_input_unchecked(&mut self, gate: NodeId, input: NodeId) {
        if let NodeKind::Gate { inputs, .. } = &mut self.nodes[gate.0].kind {
            inputs.push(input);
        }
    }

    /// Adds a primary failure leaf without a stored probability.
    ///
    /// # Errors
    ///
    /// [`FtaError::DuplicateName`] if `name` is already used.
    pub fn basic_event(&mut self, name: impl Into<String>) -> Result<NodeId> {
        self.add_node(name.into(), NodeKind::BasicEvent { probability: None })
    }

    /// Adds a primary failure leaf with a stored probability.
    ///
    /// # Errors
    ///
    /// [`FtaError::DuplicateName`] or [`FtaError::InvalidProbability`].
    pub fn basic_event_with_probability(
        &mut self,
        name: impl Into<String>,
        probability: f64,
    ) -> Result<NodeId> {
        let name = name.into();
        check_probability(&name, probability)?;
        self.add_node(
            name,
            NodeKind::BasicEvent {
                probability: Some(probability),
            },
        )
    }

    /// Adds a condition leaf (for INHIBIT gates).
    ///
    /// # Errors
    ///
    /// [`FtaError::DuplicateName`] if `name` is already used.
    pub fn condition(&mut self, name: impl Into<String>) -> Result<NodeId> {
        self.add_node(name.into(), NodeKind::Condition { probability: None })
    }

    /// Adds a condition leaf with a stored probability.
    ///
    /// # Errors
    ///
    /// [`FtaError::DuplicateName`] or [`FtaError::InvalidProbability`].
    pub fn condition_with_probability(
        &mut self,
        name: impl Into<String>,
        probability: f64,
    ) -> Result<NodeId> {
        let name = name.into();
        check_probability(&name, probability)?;
        self.add_node(
            name,
            NodeKind::Condition {
                probability: Some(probability),
            },
        )
    }

    fn gate(&mut self, name: String, kind: GateKind, inputs: Vec<NodeId>) -> Result<NodeId> {
        if inputs.is_empty() {
            return Err(FtaError::EmptyGate { gate: name });
        }
        for &input in &inputs {
            if input.0 >= self.nodes.len() {
                return Err(FtaError::UnknownNode {
                    reference: format!("#{}", input.0),
                });
            }
        }
        let mut seen = std::collections::HashSet::new();
        for &input in &inputs {
            if !seen.insert(input) {
                return Err(FtaError::UnknownNode {
                    reference: format!(
                        "duplicate input {:?} to gate {name:?}",
                        self.nodes[input.0].name
                    ),
                });
            }
        }
        if let GateKind::KOfN(k) = kind {
            if k == 0 || k > inputs.len() {
                return Err(FtaError::InvalidThreshold {
                    gate: name,
                    k,
                    n: inputs.len(),
                });
            }
        }
        self.add_node(name, NodeKind::Gate { kind, inputs })
    }

    /// Adds an AND gate over `inputs`.
    ///
    /// # Errors
    ///
    /// [`FtaError::EmptyGate`], [`FtaError::DuplicateName`], or
    /// [`FtaError::UnknownNode`] (also used for duplicate inputs).
    pub fn and_gate(
        &mut self,
        name: impl Into<String>,
        inputs: impl IntoIterator<Item = NodeId>,
    ) -> Result<NodeId> {
        self.gate(name.into(), GateKind::And, inputs.into_iter().collect())
    }

    /// Adds an OR gate over `inputs`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`and_gate`](Self::and_gate).
    pub fn or_gate(
        &mut self,
        name: impl Into<String>,
        inputs: impl IntoIterator<Item = NodeId>,
    ) -> Result<NodeId> {
        self.gate(name.into(), GateKind::Or, inputs.into_iter().collect())
    }

    /// Adds a k-of-n voting gate over `inputs`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`and_gate`](Self::and_gate), plus
    /// [`FtaError::InvalidThreshold`] unless `1 <= k <= n`.
    pub fn k_of_n_gate(
        &mut self,
        name: impl Into<String>,
        k: usize,
        inputs: impl IntoIterator<Item = NodeId>,
    ) -> Result<NodeId> {
        self.gate(name.into(), GateKind::KOfN(k), inputs.into_iter().collect())
    }

    /// Adds an INHIBIT gate: `cause` propagates only while `condition`
    /// holds.
    ///
    /// # Errors
    ///
    /// Same conditions as [`and_gate`](Self::and_gate).
    pub fn inhibit_gate(
        &mut self,
        name: impl Into<String>,
        cause: NodeId,
        condition: NodeId,
    ) -> Result<NodeId> {
        self.gate(name.into(), GateKind::Inhibit, vec![cause, condition])
    }

    /// Declares `root` as the tree's top event.
    ///
    /// # Errors
    ///
    /// [`FtaError::InvalidRoot`] if the node does not exist or is a leaf.
    pub fn set_root(&mut self, root: NodeId) -> Result<()> {
        let node = self
            .nodes
            .get(root.0)
            .ok_or_else(|| FtaError::InvalidRoot {
                reason: format!("node #{} does not exist", root.0),
            })?;
        if node.is_leaf() {
            return Err(FtaError::InvalidRoot {
                reason: format!("{:?} is a leaf, hazards must be gates", node.name),
            });
        }
        self.root = Some(root);
        Ok(())
    }

    /// The root (top event).
    ///
    /// # Errors
    ///
    /// [`FtaError::NoRoot`] if [`set_root`](Self::set_root) has not been
    /// called.
    pub fn root(&self) -> Result<NodeId> {
        self.root.ok_or(FtaError::NoRoot)
    }

    /// Looks a node up by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this tree.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Looks a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// All nodes in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Number of nodes (gates + leaves).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The leaves (basic events and conditions) in leaf-index order.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// Leaf index of `id` (None for gates).
    pub fn leaf_index(&self, id: NodeId) -> Option<usize> {
        self.leaf_slot.get(id.0).copied().flatten()
    }

    /// Node id of leaf index `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.leaves().len()`.
    pub fn leaf(&self, slot: usize) -> NodeId {
        self.leaves[slot]
    }

    /// Sets (or replaces) the stored probability of a leaf.
    ///
    /// # Errors
    ///
    /// [`FtaError::InvalidProbability`] for values outside `[0, 1]`, and
    /// [`FtaError::UnknownNode`] if `id` is not a leaf of this tree.
    pub fn set_probability(&mut self, id: NodeId, probability: f64) -> Result<()> {
        let node = self
            .nodes
            .get_mut(id.0)
            .ok_or_else(|| FtaError::UnknownNode {
                reference: format!("#{}", id.0),
            })?;
        check_probability(&node.name, probability)?;
        match &mut node.kind {
            NodeKind::BasicEvent { probability: p } | NodeKind::Condition { probability: p } => {
                *p = Some(probability);
                Ok(())
            }
            NodeKind::Gate { .. } => Err(FtaError::UnknownNode {
                reference: format!("{:?} is a gate, not a leaf", node.name),
            }),
        }
    }

    /// Collects the stored leaf probabilities into a
    /// [`ProbabilityMap`](crate::quant::ProbabilityMap).
    ///
    /// # Errors
    ///
    /// [`FtaError::MissingProbability`] naming the first leaf without one.
    pub fn stored_probabilities(&self) -> Result<crate::quant::ProbabilityMap> {
        let mut probs = Vec::with_capacity(self.leaves.len());
        for &leaf in &self.leaves {
            let node = self.node(leaf);
            match node.probability() {
                Some(p) => probs.push(p),
                None => {
                    return Err(FtaError::MissingProbability {
                        event: node.name.clone(),
                    })
                }
            }
        }
        crate::quant::ProbabilityMap::new(probs)
    }

    /// Computes the minimal cut sets of this tree (bottom-up engine).
    ///
    /// # Errors
    ///
    /// [`FtaError::NoRoot`] if no root is set.
    pub fn minimal_cut_sets(&self) -> Result<crate::CutSetCollection> {
        crate::mcs::bottom_up(self)
    }

    /// Leaves reachable from the root, as leaf indices.
    ///
    /// # Errors
    ///
    /// [`FtaError::NoRoot`] if no root is set.
    pub fn reachable_leaves(&self) -> Result<Vec<usize>> {
        let root = self.root()?;
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.0], true) {
                continue;
            }
            match &self.nodes[id.0].kind {
                NodeKind::Gate { inputs, .. } => stack.extend(inputs.iter().copied()),
                _ => out.push(self.leaf_index(id).expect("leaf has slot")),
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Depth of the tree from the root (a single gate over leaves has
    /// depth 2).
    ///
    /// # Errors
    ///
    /// [`FtaError::NoRoot`] if no root is set.
    pub fn depth(&self) -> Result<usize> {
        let root = self.root()?;
        // Iterative DFS with memo; the structure is a DAG by construction.
        let mut memo: Vec<Option<usize>> = vec![None; self.nodes.len()];
        fn depth_of(tree: &FaultTree, id: NodeId, memo: &mut Vec<Option<usize>>) -> usize {
            if let Some(d) = memo[id.0] {
                return d;
            }
            let d = match &tree.nodes[id.0].kind {
                NodeKind::Gate { inputs, .. } => {
                    1 + inputs
                        .iter()
                        .map(|&i| depth_of(tree, i, memo))
                        .max()
                        .unwrap_or(0)
                }
                _ => 1,
            };
            memo[id.0] = Some(d);
            d
        }
        Ok(depth_of(self, root, &mut memo))
    }

    /// Structural self-check: every gate input exists, thresholds are
    /// sane, and the graph below the root is acyclic. Trees built through
    /// the public API always pass; this exists for defence-in-depth (e.g.
    /// after deserializing a tree from disk).
    ///
    /// # Errors
    ///
    /// The specific [`FtaError`] describing the first violation found.
    pub fn validate(&self) -> Result<()> {
        for node in &self.nodes {
            if let NodeKind::Gate { kind, inputs } = &node.kind {
                if inputs.is_empty() {
                    return Err(FtaError::EmptyGate {
                        gate: node.name.clone(),
                    });
                }
                for input in inputs {
                    if input.0 >= self.nodes.len() {
                        return Err(FtaError::UnknownNode {
                            reference: format!("#{}", input.0),
                        });
                    }
                }
                if let GateKind::KOfN(k) = kind {
                    if *k == 0 || *k > inputs.len() {
                        return Err(FtaError::InvalidThreshold {
                            gate: node.name.clone(),
                            k: *k,
                            n: inputs.len(),
                        });
                    }
                }
            }
        }
        // Cycle check via iterative three-colour DFS.
        let mut colour = vec![0u8; self.nodes.len()]; // 0 white, 1 grey, 2 black
        for start in 0..self.nodes.len() {
            if colour[start] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, bool)> = vec![(start, false)];
            while let Some((idx, processed)) = stack.pop() {
                if processed {
                    colour[idx] = 2;
                    continue;
                }
                if colour[idx] == 2 {
                    continue;
                }
                if colour[idx] == 1 {
                    return Err(FtaError::CyclicTree {
                        via: self.nodes[idx].name.clone(),
                    });
                }
                colour[idx] = 1;
                stack.push((idx, true));
                if let NodeKind::Gate { inputs, .. } = &self.nodes[idx].kind {
                    for input in inputs {
                        if colour[input.0] == 1 {
                            return Err(FtaError::CyclicTree {
                                via: self.nodes[input.0].name.clone(),
                            });
                        }
                        if colour[input.0] == 0 {
                            stack.push((input.0, false));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

fn check_probability(event: &str, p: f64) -> Result<()> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(FtaError::InvalidProbability {
            event: event.to_owned(),
            value: p,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_fig2_tree() -> (FaultTree, NodeId) {
        // Fig. 2: Collision = OHV-ignores OR (Signal out of order OR not activated)
        let mut ft = FaultTree::new("Collision");
        let a = ft.basic_event("OHV ignores signal").unwrap();
        let b = ft.basic_event("Signal out of order").unwrap();
        let c = ft.basic_event("Signal not activated").unwrap();
        let not_on = ft.or_gate("Signal not on", [b, c]).unwrap();
        let top = ft.or_gate("Collision", [a, not_on]).unwrap();
        ft.set_root(top).unwrap();
        (ft, top)
    }

    #[test]
    fn builds_paper_fig2() {
        let (ft, top) = paper_fig2_tree();
        assert_eq!(ft.len(), 5);
        assert_eq!(ft.leaves().len(), 3);
        assert_eq!(ft.root().unwrap(), top);
        assert_eq!(ft.depth().unwrap(), 3);
        ft.validate().unwrap();
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut ft = FaultTree::new("t");
        ft.basic_event("x").unwrap();
        assert!(matches!(
            ft.basic_event("x"),
            Err(FtaError::DuplicateName { .. })
        ));
        // Also across node kinds.
        assert!(ft.condition("x").is_err());
    }

    #[test]
    fn rejects_empty_gate() {
        let mut ft = FaultTree::new("t");
        assert!(matches!(
            ft.and_gate("g", []),
            Err(FtaError::EmptyGate { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_gate_inputs() {
        let mut ft = FaultTree::new("t");
        let x = ft.basic_event("x").unwrap();
        assert!(ft.and_gate("g", [x, x]).is_err());
    }

    #[test]
    fn rejects_bad_kofn_threshold() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic_event("a").unwrap();
        let b = ft.basic_event("b").unwrap();
        assert!(matches!(
            ft.k_of_n_gate("v", 0, [a, b]),
            Err(FtaError::InvalidThreshold { .. })
        ));
        assert!(matches!(
            ft.k_of_n_gate("w", 3, [a, b]),
            Err(FtaError::InvalidThreshold { .. })
        ));
        assert!(ft.k_of_n_gate("ok", 2, [a, b]).is_ok());
    }

    #[test]
    fn rejects_leaf_as_root() {
        let mut ft = FaultTree::new("t");
        let x = ft.basic_event("x").unwrap();
        assert!(matches!(ft.set_root(x), Err(FtaError::InvalidRoot { .. })));
        assert!(matches!(ft.root(), Err(FtaError::NoRoot)));
    }

    #[test]
    fn probability_validation() {
        let mut ft = FaultTree::new("t");
        assert!(ft.basic_event_with_probability("x", 1.5).is_err());
        assert!(ft.basic_event_with_probability("x", -0.1).is_err());
        assert!(ft.basic_event_with_probability("x", f64::NAN).is_err());
        let x = ft.basic_event_with_probability("x", 0.25).unwrap();
        assert_eq!(ft.node(x).probability(), Some(0.25));
        ft.set_probability(x, 0.5).unwrap();
        assert_eq!(ft.node(x).probability(), Some(0.5));
        let g = ft.or_gate("g", [x]).unwrap();
        assert!(ft.set_probability(g, 0.5).is_err());
    }

    #[test]
    fn stored_probabilities_require_all_leaves() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic_event_with_probability("a", 0.1).unwrap();
        let b = ft.basic_event("b").unwrap();
        let g = ft.or_gate("g", [a, b]).unwrap();
        ft.set_root(g).unwrap();
        assert!(matches!(
            ft.stored_probabilities(),
            Err(FtaError::MissingProbability { .. })
        ));
        ft.set_probability(b, 0.2).unwrap();
        let pm = ft.stored_probabilities().unwrap();
        assert_eq!(pm.len(), 2);
    }

    #[test]
    fn conditions_are_leaves_with_flag() {
        let mut ft = FaultTree::new("t");
        let cause = ft.basic_event("cooling fails").unwrap();
        let cond = ft
            .condition_with_probability("system running", 0.9)
            .unwrap();
        let g = ft.inhibit_gate("overheat", cause, cond).unwrap();
        ft.set_root(g).unwrap();
        assert!(ft.node(cond).is_condition());
        assert!(!ft.node(cause).is_condition());
        assert!(ft.node(cond).is_leaf());
        assert_eq!(ft.leaves().len(), 2);
    }

    #[test]
    fn shared_subtrees_are_allowed() {
        let mut ft = FaultTree::new("t");
        let x = ft.basic_event("x").unwrap();
        let y = ft.basic_event("y").unwrap();
        let shared = ft.or_gate("shared", [x, y]).unwrap();
        let a = ft.and_gate("a", [shared, x]).unwrap();
        let b = ft.and_gate("b", [shared, y]).unwrap();
        let top = ft.or_gate("top", [a, b]).unwrap();
        ft.set_root(top).unwrap();
        ft.validate().unwrap();
        assert_eq!(ft.reachable_leaves().unwrap(), vec![0, 1]);
    }

    #[test]
    fn reachable_leaves_ignores_disconnected_parts() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic_event("a").unwrap();
        let _orphan = ft.basic_event("orphan").unwrap();
        let b = ft.basic_event("b").unwrap();
        let g = ft.and_gate("g", [a, b]).unwrap();
        ft.set_root(g).unwrap();
        assert_eq!(ft.reachable_leaves().unwrap(), vec![0, 2]);
    }

    #[test]
    fn node_lookup_by_name() {
        let (ft, top) = paper_fig2_tree();
        assert_eq!(ft.node_by_name("Collision"), Some(top));
        assert_eq!(ft.node_by_name("nope"), None);
        assert_eq!(ft.node(top).name(), "Collision");
    }

    #[test]
    fn leaf_indexing_round_trips() {
        let (ft, _) = paper_fig2_tree();
        for (slot, &leaf) in ft.leaves().iter().enumerate() {
            assert_eq!(ft.leaf_index(leaf), Some(slot));
            assert_eq!(ft.leaf(slot), leaf);
        }
        let root = ft.root().unwrap();
        assert_eq!(ft.leaf_index(root), None);
    }

    #[test]
    fn validate_detects_corrupted_cycles() {
        // Deliberately corrupt a deserialized-style tree: make gate point
        // at itself via serde round trip surgery on the struct.
        let (ft, _) = paper_fig2_tree();
        let mut corrupted = ft.clone();
        // Rewire "Signal not on" (index 3) to take the root (index 4) as
        // an input, producing a cycle root -> 3 -> root.
        if let NodeKind::Gate { inputs, .. } = &mut corrupted.nodes[3].kind {
            inputs[0] = NodeId(4);
        }
        assert!(matches!(
            corrupted.validate(),
            Err(FtaError::CyclicTree { .. })
        ));
    }
}
