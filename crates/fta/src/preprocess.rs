//! SCRAM-style fault-tree preprocessing: the standard pipeline that
//! stands between raw industrial trees (thousands of gates) and BDD
//! construction.
//!
//! Four semantics-preserving passes, applied in one bottom-up sweep:
//!
//! 1. **Constant propagation** — house/condition events pinned to 0 or 1
//!    are folded out of their gates (`AND` with a false input dies, `OR`
//!    with a true input fires, k-of-n thresholds shift).
//! 2. **Gate normalization** — `INHIBIT` becomes `AND` (identical
//!    semantics everywhere in this crate), `1-of-n` becomes `OR`,
//!    `n-of-n` becomes `AND`.
//! 3. **Coalescing** — a same-kind `AND`/`OR` child used by exactly one
//!    parent is spliced into that parent (deep gate chains flatten).
//! 4. **Null/unity pruning** — single-input gates pass through, duplicate
//!    inputs of idempotent gates deduplicate, and degenerate thresholds
//!    collapse to constants.
//!
//! On top of the rewritten tree, [`detect_modules`] runs the
//! Dutuit–Rauzy **visit-interval algorithm**: a gate is an independent
//! module iff every node below it is visited only from inside its
//! subtree. Modules are what keep BDD sizes bounded — see
//! [`crate::modular::ModularPlan`].
//!
//! The rewritten tree **preserves leaf indices**: every leaf of the
//! input tree is recreated first, in slot order, with its kind, name,
//! and stored probability (leaves that fold away simply become
//! orphans, which [`FaultTree`] permits). Probability maps, cut-set
//! leaf indices, and substituted expressions of the original tree
//! therefore apply unchanged to the preprocessed one.
//!
//! Constant propagation is only sound when the quantification agrees
//! that those leaves are constant, so it is **opt-in by oracle**:
//! [`preprocess`] derives constants from stored probabilities that are
//! exactly `0.0`/`1.0` (classic house events), while
//! [`preprocess_with_constants`] lets callers supply their own notion
//! (the safeopt layer passes "the substituted expression is literally
//! `Constant(0.0)`/`Constant(1.0)`"). Pass `|_| None` to disable.

use crate::tree::{FaultTree, GateKind, NodeId, NodeKind};
use crate::Result;
use std::collections::HashMap;

use safety_opt_telemetry as telemetry;

/// Preprocessing runs.
static PRE_RUNS: telemetry::Counter = telemetry::Counter::new("fta.preprocess.runs");
/// Constant leaf occurrences folded out of gates.
static PRE_CONSTANTS: telemetry::Counter = telemetry::Counter::new("fta.preprocess.constants");
/// Gates normalized (INHIBIT→AND, 1-of-n→OR, n-of-n→AND).
static PRE_NORMALIZED: telemetry::Counter = telemetry::Counter::new("fta.preprocess.normalized");
/// Same-kind fanout-1 gates spliced into their parent.
static PRE_COALESCED: telemetry::Counter = telemetry::Counter::new("fta.preprocess.coalesced");
/// Net reachable gates removed by a run.
static PRE_GATES_REMOVED: telemetry::Counter =
    telemetry::Counter::new("fta.preprocess.gates_removed");
/// Independent modules detected on preprocessed trees.
static PRE_MODULES: telemetry::Counter = telemetry::Counter::new("fta.preprocess.modules");

/// What one preprocessing run did: node counts before/after (reachable
/// from the root), per-pass rewrite tallies, and the module count of the
/// result. Mirrored into the `fta.preprocess.*` telemetry counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreprocessReport {
    /// Gates reachable from the root before preprocessing.
    pub gates_before: usize,
    /// Gates reachable from the root after preprocessing (0 when the
    /// tree folded to a constant).
    pub gates_after: usize,
    /// Leaves reachable before preprocessing.
    pub leaves_before: usize,
    /// Leaves reachable after preprocessing.
    pub leaves_after: usize,
    /// Constant leaf occurrences folded out of gates.
    pub constants_folded: usize,
    /// Gates normalized (INHIBIT→AND, 1-of-n→OR, n-of-n→AND).
    pub gates_normalized: usize,
    /// Same-kind fanout-1 child gates spliced into their parent.
    pub gates_coalesced: usize,
    /// Independent modules of the preprocessed tree (≥ 1 — the root is
    /// always a module; 0 when the tree folded to a constant).
    pub modules: usize,
}

/// Result structure of a preprocessing run: either a rewritten tree or
/// the constant the whole structure function folded to.
#[derive(Debug)]
pub enum PreprocessOutcome {
    /// The rewritten, leaf-index-preserving tree.
    Tree(FaultTree),
    /// Constant propagation collapsed the structure function entirely.
    Constant(bool),
}

/// A preprocessed tree plus its [`PreprocessReport`].
#[derive(Debug)]
pub struct Preprocessed {
    /// The rewritten tree (or constant).
    pub outcome: PreprocessOutcome,
    /// What the run did.
    pub report: PreprocessReport,
}

impl Preprocessed {
    /// The rewritten tree, if the structure function did not fold to a
    /// constant.
    pub fn tree(&self) -> Option<&FaultTree> {
        match &self.outcome {
            PreprocessOutcome::Tree(t) => Some(t),
            PreprocessOutcome::Constant(_) => None,
        }
    }
}

/// Runs the pipeline with constants taken from **stored** leaf
/// probabilities that are exactly `0.0` or `1.0` (house events). Only
/// sound if the tree is later quantified with those same stored
/// probabilities; quantify-time probability maps that disagree need
/// [`preprocess_with_constants`] with a matching oracle (or `|_| None`).
///
/// # Errors
///
/// [`crate::FtaError::NoRoot`] if the tree has no root.
pub fn preprocess(tree: &FaultTree) -> Result<Preprocessed> {
    preprocess_with_constants(tree, |slot| {
        let p = tree.node(tree.leaf(slot)).probability()?;
        if p == 0.0 {
            Some(false)
        } else if p == 1.0 {
            Some(true)
        } else {
            None
        }
    })
}

/// Runs the pipeline with an explicit constant oracle: `constant(slot)`
/// returns `Some(value)` for leaves whose probability is pinned to 0/1
/// under the intended quantification, `None` otherwise.
///
/// # Errors
///
/// [`crate::FtaError::NoRoot`] if the tree has no root.
pub fn preprocess_with_constants(
    tree: &FaultTree,
    mut constant: impl FnMut(usize) -> Option<bool>,
) -> Result<Preprocessed> {
    let root = tree.root()?;

    // Reachable set + original fanout (gate parents per node): coalescing
    // only splices children that exactly one reachable parent consumes.
    let mut reachable = vec![false; tree.len()];
    let mut fanout = vec![0usize; tree.len()];
    let mut gates_before = 0usize;
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut reachable[id.index()], true) {
            continue;
        }
        if let NodeKind::Gate { inputs, .. } = tree.node(id).kind() {
            gates_before += 1;
            for &i in inputs {
                fanout[i.index()] += 1;
                stack.push(i);
            }
        }
    }
    let leaves_before = tree.reachable_leaves()?.len();

    let mut rw = Rewriter {
        tree,
        fanout: &fanout,
        specs: Vec::new(),
        memo: HashMap::new(),
        tally: Tally::default(),
    };
    let root_res = rw.rewrite(root, &mut constant);
    let specs = rw.specs;
    let tally = rw.tally;

    let (outcome, gates_after, leaves_after, modules) = match root_res {
        Res::Const(value) => (PreprocessOutcome::Constant(value), 0, 0, 0),
        root_res => {
            let rebuilt = materialize(tree, &specs, root_res)?;
            let gates_after = rebuilt
                .iter()
                .filter(|(_, n)| matches!(n.kind(), NodeKind::Gate { .. }))
                .count();
            let leaves_after = rebuilt.reachable_leaves()?.len();
            let modules = detect_modules(&rebuilt)?.len();
            (
                PreprocessOutcome::Tree(rebuilt),
                gates_after,
                leaves_after,
                modules,
            )
        }
    };

    let report = PreprocessReport {
        gates_before,
        gates_after,
        leaves_before,
        leaves_after,
        constants_folded: tally.constants,
        gates_normalized: tally.normalized,
        gates_coalesced: tally.coalesced,
        modules,
    };
    if telemetry::counters_enabled() {
        PRE_RUNS.add(1);
        PRE_CONSTANTS.add(report.constants_folded as u64);
        PRE_NORMALIZED.add(report.gates_normalized as u64);
        PRE_COALESCED.add(report.gates_coalesced as u64);
        PRE_GATES_REMOVED.add(report.gates_before.saturating_sub(report.gates_after) as u64);
        PRE_MODULES.add(report.modules as u64);
    }
    Ok(Preprocessed { outcome, report })
}

/// Rewrite result for one original node: a constant, an original leaf
/// slot, or a rewritten gate (index into the spec arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Res {
    Const(bool),
    Leaf(usize),
    Gate(usize),
}

/// Rewritten-gate spec: only `AND`/`OR`/`k-of-n` survive normalization.
#[derive(Debug)]
struct Spec {
    kind: SpecKind,
    inputs: Vec<Res>,
    /// Name carried into the rebuilt tree (original gate name, or a
    /// synthesized one for threshold-duplicate expansions).
    name: Option<String>,
    /// Whether a same-kind parent may splice this gate's inputs (the
    /// original gate had fanout 1, or the spec is synthetic).
    inline_ok: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecKind {
    And,
    Or,
    KOfN(usize),
}

#[derive(Debug, Default)]
struct Tally {
    constants: usize,
    normalized: usize,
    coalesced: usize,
}

struct Rewriter<'t> {
    tree: &'t FaultTree,
    fanout: &'t [usize],
    specs: Vec<Spec>,
    memo: HashMap<NodeId, Res>,
    tally: Tally,
}

impl Rewriter<'_> {
    fn rewrite(&mut self, id: NodeId, constant: &mut impl FnMut(usize) -> Option<bool>) -> Res {
        if let Some(&r) = self.memo.get(&id) {
            return r;
        }
        let r = match self.tree.node(id).kind() {
            NodeKind::BasicEvent { .. } | NodeKind::Condition { .. } => {
                let slot = self.tree.leaf_index(id).expect("leaf slot");
                match constant(slot) {
                    Some(value) => Res::Const(value),
                    None => Res::Leaf(slot),
                }
            }
            NodeKind::Gate { kind, inputs } => {
                let input_res: Vec<Res> =
                    inputs.iter().map(|&i| self.rewrite(i, constant)).collect();
                let name = self.tree.node(id).name().to_owned();
                let inline_ok = self.fanout[id.index()] <= 1;
                match kind {
                    GateKind::And => self.make_and(input_res, Some(name), inline_ok),
                    GateKind::Or => self.make_or(input_res, Some(name), inline_ok),
                    GateKind::Inhibit => {
                        // INHIBIT is AND everywhere in this crate (the
                        // condition simply joins the conjunction).
                        self.tally.normalized += 1;
                        self.make_and(input_res, Some(name), inline_ok)
                    }
                    GateKind::KOfN(k) => self.make_kofn(*k, input_res, Some(name), inline_ok),
                }
            }
        };
        self.memo.insert(id, r);
        r
    }

    fn push_spec(
        &mut self,
        kind: SpecKind,
        inputs: Vec<Res>,
        name: Option<String>,
        inline_ok: bool,
    ) -> Res {
        self.specs.push(Spec {
            kind,
            inputs,
            name,
            inline_ok,
        });
        Res::Gate(self.specs.len() - 1)
    }

    /// `AND` with constant folding, coalescing, dedup, and pass-through.
    fn make_and(&mut self, inputs: Vec<Res>, name: Option<String>, inline_ok: bool) -> Res {
        let mut flat: Vec<Res> = Vec::with_capacity(inputs.len());
        for r in inputs {
            match r {
                Res::Const(false) => {
                    self.tally.constants += 1;
                    return Res::Const(false);
                }
                Res::Const(true) => self.tally.constants += 1,
                Res::Gate(j) if self.specs[j].kind == SpecKind::And && self.specs[j].inline_ok => {
                    self.tally.coalesced += 1;
                    let spliced = std::mem::take(&mut self.specs[j].inputs);
                    flat.extend(spliced);
                }
                other => flat.push(other),
            }
        }
        Self::dedup(&mut flat);
        match flat.len() {
            0 => Res::Const(true),
            1 => flat[0],
            _ => self.push_spec(SpecKind::And, flat, name, inline_ok),
        }
    }

    /// `OR`, dual of [`make_and`].
    fn make_or(&mut self, inputs: Vec<Res>, name: Option<String>, inline_ok: bool) -> Res {
        let mut flat: Vec<Res> = Vec::with_capacity(inputs.len());
        for r in inputs {
            match r {
                Res::Const(true) => {
                    self.tally.constants += 1;
                    return Res::Const(true);
                }
                Res::Const(false) => self.tally.constants += 1,
                Res::Gate(j) if self.specs[j].kind == SpecKind::Or && self.specs[j].inline_ok => {
                    self.tally.coalesced += 1;
                    let spliced = std::mem::take(&mut self.specs[j].inputs);
                    flat.extend(spliced);
                }
                other => flat.push(other),
            }
        }
        Self::dedup(&mut flat);
        match flat.len() {
            0 => Res::Const(false),
            1 => flat[0],
            _ => self.push_spec(SpecKind::Or, flat, name, inline_ok),
        }
    }

    /// `k`-of-`n` with constant folding, degenerate-threshold collapse,
    /// and duplicate-input expansion.
    fn make_kofn(
        &mut self,
        k: usize,
        inputs: Vec<Res>,
        name: Option<String>,
        inline_ok: bool,
    ) -> Res {
        let mut k = k as isize;
        let mut live: Vec<Res> = Vec::with_capacity(inputs.len());
        for r in inputs {
            match r {
                Res::Const(true) => {
                    self.tally.constants += 1;
                    k -= 1;
                }
                Res::Const(false) => self.tally.constants += 1,
                other => live.push(other),
            }
        }
        if k <= 0 {
            return Res::Const(true);
        }
        let k = k as usize;
        if k > live.len() {
            return Res::Const(false);
        }
        // Duplicate inputs (two children rewrote to the same node) break
        // the "distinct inputs" invariant of both the tree arena and the
        // threshold recursion. Shannon-expand on the duplicated input x
        // with multiplicity m: f = kofn(k, R) ∨ (x ∧ kofn(k−m, R)).
        if let Some(&dup) = live
            .iter()
            .find(|r| live.iter().filter(|s| *s == *r).count() > 1)
        {
            let m = live.iter().filter(|&&s| s == dup).count();
            let rest: Vec<Res> = live.iter().copied().filter(|&s| s != dup).collect();
            let without = self.make_kofn(k, rest.clone(), None, true);
            let with = self.make_kofn(k.saturating_sub(m), rest, None, true);
            let fired = self.make_and(vec![dup, with], None, true);
            return self.make_or(vec![without, fired], name, inline_ok);
        }
        if k == 1 {
            self.tally.normalized += 1;
            return self.make_or(live, name, inline_ok);
        }
        if k == live.len() {
            self.tally.normalized += 1;
            return self.make_and(live, name, inline_ok);
        }
        self.push_spec(SpecKind::KOfN(k), live, name, inline_ok)
    }

    /// Order-preserving dedup (sound for the idempotent `AND`/`OR`).
    fn dedup(inputs: &mut Vec<Res>) {
        let mut seen: Vec<Res> = Vec::with_capacity(inputs.len());
        inputs.retain(|r| {
            if seen.contains(r) {
                false
            } else {
                seen.push(*r);
                true
            }
        });
    }
}

/// Rebuilds a concrete [`FaultTree`] from the spec arena: all original
/// leaves first (slot order — the index-preservation contract), then the
/// reachable rewritten gates depth-first.
fn materialize(original: &FaultTree, specs: &[Spec], root: Res) -> Result<FaultTree> {
    let mut ft = FaultTree::new(original.name());
    let mut leaf_ids = Vec::with_capacity(original.leaves().len());
    for &leaf in original.leaves() {
        let node = original.node(leaf);
        let name = node.name().to_owned();
        let id = match (node.is_condition(), node.probability()) {
            (false, None) => ft.basic_event(name)?,
            (false, Some(p)) => ft.basic_event_with_probability(name, p)?,
            (true, None) => ft.condition(name)?,
            (true, Some(p)) => ft.condition_with_probability(name, p)?,
        };
        leaf_ids.push(id);
    }

    let mut built: HashMap<usize, NodeId> = HashMap::new();
    let mut fresh = 0usize;
    let root_id = match root {
        Res::Const(_) => unreachable!("constant roots are handled by the caller"),
        Res::Leaf(slot) => {
            // A root gate that collapsed to a single leaf still needs a
            // gate root; wrap it in a pass-through OR carrying the
            // original root's name (gate names never collide with leaf
            // names — the original tree enforced uniqueness).
            let root_name = original.node(original.root()?).name().to_owned();
            ft.or_gate(root_name, [leaf_ids[slot]])?
        }
        Res::Gate(j) => build_spec(j, specs, &leaf_ids, &mut built, &mut fresh, &mut ft)?,
    };
    ft.set_root(root_id)?;
    Ok(ft)
}

fn build_spec(
    j: usize,
    specs: &[Spec],
    leaf_ids: &[NodeId],
    built: &mut HashMap<usize, NodeId>,
    fresh: &mut usize,
    ft: &mut FaultTree,
) -> Result<NodeId> {
    if let Some(&id) = built.get(&j) {
        return Ok(id);
    }
    let spec = &specs[j];
    let mut inputs = Vec::with_capacity(spec.inputs.len());
    for &r in &spec.inputs {
        inputs.push(match r {
            Res::Const(_) => unreachable!("constants folded before spec creation"),
            Res::Leaf(slot) => leaf_ids[slot],
            Res::Gate(child) => build_spec(child, specs, leaf_ids, built, fresh, ft)?,
        });
    }
    let name = match &spec.name {
        Some(n) => n.clone(),
        None => {
            // Synthetic gate (threshold-duplicate expansion): pick a name
            // no original node can carry (original names never start with
            // our reserved prefix followed by a counter we control).
            let mut candidate;
            loop {
                candidate = format!("~kofn-expand-{fresh}");
                *fresh += 1;
                if ft.node_by_name(&candidate).is_none() {
                    break;
                }
            }
            candidate
        }
    };
    let id = match spec.kind {
        SpecKind::And => ft.and_gate(name, inputs)?,
        SpecKind::Or => ft.or_gate(name, inputs)?,
        SpecKind::KOfN(k) => ft.k_of_n_gate(name, k, inputs)?,
    };
    built.insert(j, id);
    Ok(id)
}

/// Detects the independent modules of a tree with the Dutuit–Rauzy
/// **visit-interval algorithm**: one DFS stamps every node with its
/// first/last visit date (revisits of shared nodes update the last date
/// without re-descending), then a gate is a module iff the visit dates
/// of everything below it lie strictly inside the window of the gate's
/// *first* traversal (first visit → first exit) — nothing under the
/// gate is reachable except through the gate. Comparing against the
/// first-traversal exit rather than the gate's own last revisit matters:
/// a shared gate's revisits would otherwise widen its window far enough
/// to swallow out-of-subtree revisits of its descendants.
///
/// Returns the module gates in **bottom-up topological order** (nested
/// modules before their enclosing ones); the root is always last and is
/// always a module.
///
/// # Errors
///
/// [`crate::FtaError::NoRoot`] if the tree has no root.
pub fn detect_modules(tree: &FaultTree) -> Result<Vec<NodeId>> {
    let root = tree.root()?;
    let n = tree.len();
    let mut first = vec![0u64; n];
    let mut last = vec![0u64; n];
    // Exit date of a gate's *first* traversal. Everything below the gate
    // is stamped within `(first, post)`; later revisits of the gate
    // itself bump `last` but must NOT widen the window the module test
    // uses — a shared descendant revisited from a different parent after
    // our exit has to land outside it.
    let mut post = vec![0u64; n];
    let mut clock = 0u64;

    enum Ev {
        Visit(NodeId),
        Exit(NodeId),
    }
    let mut stack = vec![Ev::Visit(root)];
    while let Some(ev) = stack.pop() {
        match ev {
            Ev::Visit(id) => {
                clock += 1;
                let i = id.index();
                if first[i] == 0 {
                    first[i] = clock;
                    last[i] = clock;
                    if let NodeKind::Gate { inputs, .. } = tree.node(id).kind() {
                        stack.push(Ev::Exit(id));
                        for &c in inputs.iter().rev() {
                            stack.push(Ev::Visit(c));
                        }
                    } else {
                        post[i] = clock;
                    }
                } else {
                    // Shared node: stamp the revisit, don't re-descend.
                    last[i] = clock;
                }
            }
            Ev::Exit(id) => {
                clock += 1;
                let i = id.index();
                last[i] = clock;
                post[i] = clock;
            }
        }
    }

    // Bottom-up pass over the reachable gates: aggregate the extreme
    // visit dates of everything strictly below each gate. Postorder via
    // an explicit two-phase stack (children complete before parents).
    let mut postorder: Vec<NodeId> = Vec::new();
    let mut seen = vec![false; n];
    let mut stack: Vec<(NodeId, bool)> = vec![(root, false)];
    while let Some((id, expanded)) = stack.pop() {
        if expanded {
            postorder.push(id);
            continue;
        }
        if std::mem::replace(&mut seen[id.index()], true) {
            continue;
        }
        if let NodeKind::Gate { inputs, .. } = tree.node(id).kind() {
            stack.push((id, true));
            for &c in inputs.iter().rev() {
                stack.push((c, false));
            }
        }
    }

    let mut agg_first = vec![u64::MAX; n];
    let mut agg_last = vec![0u64; n];
    let mut modules = Vec::new();
    for &id in &postorder {
        let NodeKind::Gate { inputs, .. } = tree.node(id).kind() else {
            continue;
        };
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for &c in inputs {
            let ci = c.index();
            lo = lo.min(first[ci]);
            hi = hi.max(last[ci]);
            if matches!(tree.node(c).kind(), NodeKind::Gate { .. }) {
                lo = lo.min(agg_first[ci]);
                hi = hi.max(agg_last[ci]);
            }
        }
        let i = id.index();
        agg_first[i] = lo;
        agg_last[i] = hi;
        if lo > first[i] && hi < post[i] {
            modules.push(id);
        }
    }
    Ok(modules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdd::TreeBdd;

    fn probability(tree: &FaultTree) -> f64 {
        TreeBdd::build(tree)
            .unwrap()
            .probability(&tree.stored_probabilities().unwrap())
            .unwrap()
    }

    #[test]
    fn house_events_fold_out() {
        // top = OR(AND(a, on), AND(b, off)) with on=1, off=0 → OR(a·…) = a.
        let mut ft = FaultTree::new("t");
        let a = ft.basic_event_with_probability("a", 0.3).unwrap();
        let b = ft.basic_event_with_probability("b", 0.4).unwrap();
        let on = ft.condition_with_probability("on", 1.0).unwrap();
        let off = ft.condition_with_probability("off", 0.0).unwrap();
        let g1 = ft.and_gate("g1", [a, on]).unwrap();
        let g2 = ft.and_gate("g2", [b, off]).unwrap();
        let top = ft.or_gate("top", [g1, g2]).unwrap();
        ft.set_root(top).unwrap();

        let pre = preprocess(&ft).unwrap();
        let out = pre.tree().expect("not constant");
        assert!((probability(out) - probability(&ft)).abs() < 1e-15);
        assert!(pre.report.constants_folded >= 2);
        assert_eq!(pre.report.leaves_after, 1);
        // Leaf slots preserved: `a` keeps slot 0 in the rebuilt tree.
        assert_eq!(out.leaves().len(), ft.leaves().len());
        assert_eq!(out.node(out.leaf(0)).name(), "a");
    }

    #[test]
    fn whole_tree_can_fold_to_a_constant() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic_event_with_probability("a", 0.3).unwrap();
        let on = ft.condition_with_probability("on", 1.0).unwrap();
        let top = ft.or_gate("top", [a, on]).unwrap();
        ft.set_root(top).unwrap();
        let pre = preprocess(&ft).unwrap();
        assert!(matches!(pre.outcome, PreprocessOutcome::Constant(true)));
        assert_eq!(pre.report.gates_after, 0);
        assert_eq!(pre.report.modules, 0);
    }

    #[test]
    fn normalization_rewrites_degenerate_thresholds_and_inhibit() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic_event_with_probability("a", 0.1).unwrap();
        let b = ft.basic_event_with_probability("b", 0.2).unwrap();
        let c = ft.basic_event_with_probability("c", 0.3).unwrap();
        let cond = ft.condition_with_probability("cond", 0.5).unwrap();
        let one = ft.k_of_n_gate("one", 1, [a, b]).unwrap();
        let all = ft.k_of_n_gate("all", 3, [a, b, c]).unwrap();
        let inh = ft.inhibit_gate("inh", all, cond).unwrap();
        let top = ft.or_gate("top", [one, inh]).unwrap();
        ft.set_root(top).unwrap();

        let pre = preprocess(&ft).unwrap();
        let out = pre.tree().expect("not constant");
        assert!((probability(out) - probability(&ft)).abs() < 1e-15);
        assert!(pre.report.gates_normalized >= 3);
        // No k-of-n or INHIBIT gates survive.
        for (_, node) in out.iter() {
            if let NodeKind::Gate { kind, .. } = node.kind() {
                assert!(matches!(kind, GateKind::And | GateKind::Or), "{kind:?}");
            }
        }
    }

    #[test]
    fn fanout_one_same_kind_chains_coalesce() {
        // or(or(or(a, b), c), d) → or(a, b, c, d).
        let mut ft = FaultTree::new("t");
        let a = ft.basic_event_with_probability("a", 0.1).unwrap();
        let b = ft.basic_event_with_probability("b", 0.1).unwrap();
        let c = ft.basic_event_with_probability("c", 0.1).unwrap();
        let d = ft.basic_event_with_probability("d", 0.1).unwrap();
        let g1 = ft.or_gate("g1", [a, b]).unwrap();
        let g2 = ft.or_gate("g2", [g1, c]).unwrap();
        let top = ft.or_gate("top", [g2, d]).unwrap();
        ft.set_root(top).unwrap();

        let pre = preprocess(&ft).unwrap();
        let out = pre.tree().expect("not constant");
        assert_eq!(pre.report.gates_after, 1);
        assert_eq!(pre.report.gates_coalesced, 2);
        assert!((probability(out) - probability(&ft)).abs() < 1e-15);
    }

    #[test]
    fn shared_gates_are_not_coalesced() {
        // s = or(x, y) feeds two ANDs; splicing it would duplicate work
        // and lose sharing, so it must survive as a gate.
        let mut ft = FaultTree::new("t");
        let x = ft.basic_event_with_probability("x", 0.1).unwrap();
        let y = ft.basic_event_with_probability("y", 0.2).unwrap();
        let a = ft.basic_event_with_probability("a", 0.3).unwrap();
        let b = ft.basic_event_with_probability("b", 0.4).unwrap();
        let s = ft.or_gate("s", [x, y]).unwrap();
        let l = ft.and_gate("l", [s, a]).unwrap();
        let r = ft.and_gate("r", [s, b]).unwrap();
        let top = ft.or_gate("top", [l, r]).unwrap();
        ft.set_root(top).unwrap();

        let pre = preprocess(&ft).unwrap();
        let out = pre.tree().expect("not constant");
        assert!(out.node_by_name("s").is_some());
        assert!((probability(out) - probability(&ft)).abs() < 1e-15);
    }

    #[test]
    fn kofn_duplicate_inputs_expand_exactly() {
        // 2-of-(s, s, c) where both copies collapse to the same node:
        // f = kofn(2, {c}) ∨ (s ∧ kofn(0, {c})) = s  ∨ … — compare
        // against the raw BDD probability.
        let mut ft = FaultTree::new("t");
        let x = ft.basic_event_with_probability("x", 0.3).unwrap();
        let c = ft.basic_event_with_probability("c", 0.25).unwrap();
        let on = ft.condition_with_probability("on", 1.0).unwrap();
        // Two gates that both fold to `x` once the house event goes away.
        let s1 = ft.and_gate("s1", [x, on]).unwrap();
        let s2 = ft.or_gate("s2", [x]).unwrap();
        let top = ft.k_of_n_gate("top", 2, [s1, s2, c]).unwrap();
        ft.set_root(top).unwrap();

        let pre = preprocess(&ft).unwrap();
        let out = pre.tree().expect("not constant");
        assert!((probability(out) - probability(&ft)).abs() < 1e-15);
    }

    #[test]
    fn detect_modules_flags_independent_subtrees_only() {
        // m1 = and(a, b) and m2 = or(c, d) are modules; the gates around
        // the shared leaf s are not.
        let mut ft = FaultTree::new("t");
        let a = ft.basic_event("a").unwrap();
        let b = ft.basic_event("b").unwrap();
        let c = ft.basic_event("c").unwrap();
        let d = ft.basic_event("d").unwrap();
        let s = ft.basic_event("s").unwrap();
        let m1 = ft.and_gate("m1", [a, b]).unwrap();
        let m2 = ft.or_gate("m2", [c, d]).unwrap();
        let l = ft.and_gate("l", [m1, s]).unwrap();
        let r = ft.and_gate("r", [m2, s]).unwrap();
        let top = ft.or_gate("top", [l, r]).unwrap();
        ft.set_root(top).unwrap();

        let modules = detect_modules(&ft).unwrap();
        let names: Vec<&str> = modules.iter().map(|&id| ft.node(id).name()).collect();
        assert_eq!(names, vec!["m1", "m2", "top"]);
    }

    #[test]
    fn root_is_always_a_module_and_order_is_bottom_up() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic_event("a").unwrap();
        let b = ft.basic_event("b").unwrap();
        let inner = ft.and_gate("inner", [a, b]).unwrap();
        let top = ft.or_gate("top", [inner]).unwrap();
        ft.set_root(top).unwrap();
        let modules = detect_modules(&ft).unwrap();
        assert_eq!(modules.last().copied(), Some(top));
        assert!(modules.contains(&inner));
    }
}
