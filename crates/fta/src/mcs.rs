//! Minimal cut set computation.
//!
//! * [`bottom_up`] — the library's engine: a memoized bottom-up
//!   set-algebra pass that computes, for every node, the minimal cut sets
//!   of the sub-DAG it roots. Every library path that needs cut sets
//!   ([`FaultTree::minimal_cut_sets`], [`crate::quant`],
//!   [`crate::importance`]) calls it.
//! * [`mocus`] — the classical top-down MOCUS algorithm (Fussell &
//!   Vesely): rows of node sets are expanded gate by gate until only
//!   leaves remain, then subsumption-minimized. No library path calls
//!   it; it is the independent reference the tests compare `bottom_up`
//!   against on trees too large to enumerate.
//!
//! Both return the same [`CutSetCollection`]. INHIBIT gates are treated
//! as AND — their conditions simply appear in the cut sets as condition
//! leaves, which is exactly how the paper's Eq. 2 wants constraints to
//! surface for quantification.
//!
//! Both engines take an optional budget on intermediate cut-set counts and
//! fail with [`FtaError::BudgetExceeded`] instead of exhausting memory on
//! adversarial inputs.

use crate::cutset::{CutSet, CutSetCollection};
use crate::tree::{FaultTree, GateKind, NodeId, NodeKind};
use crate::{FtaError, Result};
use std::collections::HashSet;

/// Default limit on intermediate cut sets (per engine invocation).
pub const DEFAULT_BUDGET: usize = 1 << 20;

/// Computes minimal cut sets with MOCUS and the default budget.
///
/// # Errors
///
/// [`FtaError::NoRoot`] if the tree has no root, or
/// [`FtaError::BudgetExceeded`] if expansion explodes.
pub fn mocus(tree: &FaultTree) -> Result<CutSetCollection> {
    mocus_with_budget(tree, DEFAULT_BUDGET)
}

/// MOCUS with an explicit budget on live rows.
///
/// # Budget contract
///
/// The result is **all-or-nothing**: either the complete minimal
/// cut-set collection comes back, or the call fails with the typed
/// [`FtaError::BudgetExceeded`] — never a silently truncated
/// collection. The budget bounds *intermediate* state (live rows, and
/// the `C(n, k)` expansion of each k-of-n gate, which is pre-checked
/// before anything is materialized), so a call may fail even when the
/// final minimized collection would have been small.
///
/// # Errors
///
/// See [`mocus`].
pub fn mocus_with_budget(tree: &FaultTree, budget: usize) -> Result<CutSetCollection> {
    let root = tree.root()?;

    // A row is a conjunction of nodes still to be satisfied. Represent it
    // as a sorted Vec<NodeId> for cheap hashing/deduplication.
    type Row = Vec<NodeId>;
    let mut pending: Vec<Row> = vec![vec![root]];
    let mut seen: HashSet<Row> = HashSet::new();
    let mut done: Vec<CutSet> = Vec::new();

    while let Some(row) = pending.pop() {
        // Find the first gate in the row.
        let gate_pos = row
            .iter()
            .position(|&id| matches!(tree.node(id).kind(), NodeKind::Gate { .. }));
        let Some(pos) = gate_pos else {
            // Pure-leaf row: convert to a cut set.
            let cs: CutSet = row
                .iter()
                .map(|&id| tree.leaf_index(id).expect("leaf row"))
                .collect();
            done.push(cs);
            continue;
        };
        let gate_id = row[pos];
        let NodeKind::Gate { kind, inputs } = tree.node(gate_id).kind() else {
            unreachable!("position() found a gate");
        };

        let mut rest: Row = row;
        rest.remove(pos);

        let push_row =
            |mut new_row: Row, pending: &mut Vec<Row>, seen: &mut HashSet<Row>| -> Result<()> {
                new_row.sort_unstable();
                new_row.dedup();
                if seen.insert(new_row.clone()) {
                    pending.push(new_row);
                }
                if pending.len() + done.len() > budget {
                    return Err(FtaError::BudgetExceeded {
                        what: "MOCUS rows",
                        limit: budget,
                    });
                }
                Ok(())
            };

        match kind {
            GateKind::And | GateKind::Inhibit => {
                let mut new_row = rest;
                new_row.extend(inputs.iter().copied());
                push_row(new_row, &mut pending, &mut seen)?;
            }
            GateKind::Or => {
                for &input in inputs {
                    let mut new_row = rest.clone();
                    new_row.push(input);
                    push_row(new_row, &mut pending, &mut seen)?;
                }
            }
            GateKind::KOfN(k) => {
                // Pre-check the combinatorial count: C(n, k) can reach
                // hundreds of millions before the first row ever lands,
                // so the budget must refuse *before* materializing.
                check_combination_budget(inputs.len(), *k, budget, "MOCUS k-of-n expansion")?;
                for combo in combinations(inputs.len(), *k) {
                    let mut new_row = rest.clone();
                    new_row.extend(combo.iter().map(|&i| inputs[i]));
                    push_row(new_row, &mut pending, &mut seen)?;
                }
            }
        }
    }

    Ok(CutSetCollection::from_sets(done))
}

/// Computes minimal cut sets bottom-up with the default budget.
///
/// # Errors
///
/// [`FtaError::NoRoot`] if the tree has no root, or
/// [`FtaError::BudgetExceeded`] if an intermediate collection explodes.
pub fn bottom_up(tree: &FaultTree) -> Result<CutSetCollection> {
    bottom_up_with_budget(tree, DEFAULT_BUDGET)
}

/// Bottom-up engine with an explicit budget on intermediate cut sets.
///
/// # Budget contract
///
/// Identical to [`mocus_with_budget`]: **all-or-nothing** — a complete
/// collection or the typed [`FtaError::BudgetExceeded`], never silent
/// truncation. The budget bounds every intermediate collection
/// (OR unions, AND cross-products between minimization folds, and the
/// pre-checked `C(n, k)` expansion of k-of-n gates), so a call may fail
/// on intermediate size even when the final answer would fit.
///
/// # Errors
///
/// See [`bottom_up`].
pub fn bottom_up_with_budget(tree: &FaultTree, budget: usize) -> Result<CutSetCollection> {
    let root = tree.root()?;
    let mut memo = Memo::new(tree, root);
    node_cut_sets(tree, root, budget, &mut memo)?;
    Ok(memo.sets[root.index()].take().expect("computed"))
}

/// The bottom-up engine's memo: each computed node's collection, kept
/// only until the last gate that reads it has computed.
struct Memo {
    sets: Vec<Option<CutSetCollection>>,
    /// Per node: reads by gates reachable from the root that have not
    /// computed yet, an input listed twice counting twice.
    readers: Vec<usize>,
}

impl Memo {
    fn new(tree: &FaultTree, root: NodeId) -> Self {
        let mut readers = vec![0; tree.len()];
        let mut seen = vec![false; tree.len()];
        let mut stack = vec![root];
        seen[root.index()] = true;
        while let Some(id) = stack.pop() {
            if let NodeKind::Gate { inputs, .. } = tree.node(id).kind() {
                for &input in inputs {
                    readers[input.index()] += 1;
                    if !std::mem::replace(&mut seen[input.index()], true) {
                        stack.push(input);
                    }
                }
            }
        }
        Self {
            sets: vec![None; tree.len()],
            readers,
        }
    }

    /// Counts one gate's reads of `inputs`, dropping every collection
    /// that has no reader left.
    fn release(&mut self, inputs: &[NodeId]) {
        for input in inputs {
            let readers = &mut self.readers[input.index()];
            *readers -= 1;
            if *readers == 0 {
                self.sets[input.index()] = None;
            }
        }
    }
}

fn node_cut_sets(tree: &FaultTree, id: NodeId, budget: usize, memo: &mut Memo) -> Result<()> {
    if memo.sets[id.index()].is_some() {
        return Ok(());
    }
    // Only the root has no reader; any other node computes here once,
    // for its first reader, and is never asked for after its release.
    debug_assert!(
        memo.readers[id.index()] > 0 || tree.root() == Ok(id),
        "node {id:?} recomputed after its memo entry was freed"
    );
    let result = match tree.node(id).kind() {
        NodeKind::BasicEvent { .. } | NodeKind::Condition { .. } => {
            let slot = tree.leaf_index(id).expect("leaf has slot");
            CutSetCollection::from_sets(vec![CutSet::singleton(slot)])
        }
        NodeKind::Gate { kind, inputs } => {
            for &input in inputs {
                node_cut_sets(tree, input, budget, memo)?;
            }
            let input_sets: Vec<&CutSetCollection> = inputs
                .iter()
                .map(|&i| memo.sets[i.index()].as_ref().expect("computed"))
                .collect();
            let result = match kind {
                GateKind::Or => or_combine(&input_sets, budget)?,
                GateKind::And | GateKind::Inhibit => and_combine(&input_sets, budget)?,
                GateKind::KOfN(k) => k_of_n_combine(&input_sets, *k, budget)?,
            };
            memo.release(inputs);
            result
        }
    };
    memo.sets[id.index()] = Some(result);
    Ok(())
}

fn or_combine(collections: &[&CutSetCollection], budget: usize) -> Result<CutSetCollection> {
    check_or_budget(collections.iter().map(|c| c.len()).sum(), budget)?;
    Ok(collections.iter().flat_map(|c| c.iter().cloned()).collect())
}

fn check_or_budget(total: usize, budget: usize) -> Result<()> {
    if total > budget {
        return Err(FtaError::BudgetExceeded {
            what: "OR-combined cut sets",
            limit: budget,
        });
    }
    Ok(())
}

/// The k-of-n gate: the OR over the AND of every `k`-subset of inputs.
fn k_of_n_combine(
    input_sets: &[&CutSetCollection],
    k: usize,
    budget: usize,
) -> Result<CutSetCollection> {
    check_combination_budget(input_sets.len(), k, budget, "bottom-up k-of-n expansion")?;
    let mut alternatives = Vec::new();
    for combo in combinations(input_sets.len(), k) {
        let chosen: Vec<&CutSetCollection> = combo.iter().map(|&i| input_sets[i]).collect();
        alternatives.push(and_combine(&chosen, budget)?);
    }
    check_or_budget(alternatives.iter().map(CutSetCollection::len).sum(), budget)?;
    Ok(CutSetCollection::from_sets(
        alternatives
            .into_iter()
            .flat_map(CutSetCollection::into_sets)
            .collect(),
    ))
}

/// The AND gate: the cross-product of unions, minimized after each fold.
/// Every input collection is already a minimized antichain, so the first
/// one seeds the fold as it stands.
fn and_combine(collections: &[&CutSetCollection], budget: usize) -> Result<CutSetCollection> {
    let exceeded = || FtaError::BudgetExceeded {
        what: "AND-combined cut sets",
        limit: budget,
    };
    let Some((first, rest)) = collections.split_first() else {
        return Ok(CutSetCollection::from_sets(vec![CutSet::empty()]));
    };
    if first.len() > budget {
        return Err(exceeded());
    }
    let mut acc = (*first).clone();
    for c in rest {
        let mut next = Vec::with_capacity(acc.len() * c.len());
        for a in &acc {
            for b in c.iter() {
                next.push(a.union(b));
                if next.len() > budget {
                    return Err(exceeded());
                }
            }
        }
        // Minimize between folds to keep intermediate products small.
        acc = CutSetCollection::from_sets(next);
    }
    Ok(acc)
}

/// Refuses a k-of-n expansion whose subset count alone already exceeds
/// the budget, *before* [`combinations`] materializes anything.
fn check_combination_budget(n: usize, k: usize, budget: usize, what: &'static str) -> Result<()> {
    if binomial_saturating(n, k) > budget {
        return Err(FtaError::BudgetExceeded {
            what,
            limit: budget,
        });
    }
    Ok(())
}

/// `C(n, k)`, saturating at `usize::MAX`. Exact below the saturation
/// point: each step of the multiplicative form divides a product of
/// consecutive integers by the full factorial prefix, so the running
/// value stays integral.
pub(crate) fn binomial_saturating(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i as u128 + 1);
        if acc > usize::MAX as u128 {
            return usize::MAX;
        }
    }
    acc as usize
}

/// Enumerates all `k`-element subsets of `0..n` in lexicographic order.
pub(crate) fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if k > n {
        return out;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.clone());
        // Advance the combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_of(tree: &FaultTree, c: &CutSetCollection) -> Vec<Vec<String>> {
        c.iter()
            .map(|cs| cs.names(tree).iter().map(|s| s.to_string()).collect())
            .collect()
    }

    fn simple_and_or() -> FaultTree {
        // top = (a AND b) OR c
        let mut ft = FaultTree::new("t");
        let a = ft.basic_event("a").unwrap();
        let b = ft.basic_event("b").unwrap();
        let c = ft.basic_event("c").unwrap();
        let g1 = ft.and_gate("ab", [a, b]).unwrap();
        let top = ft.or_gate("top", [g1, c]).unwrap();
        ft.set_root(top).unwrap();
        ft
    }

    #[test]
    fn combinations_enumeration() {
        assert_eq!(combinations(3, 2), vec![vec![0, 1], vec![0, 2], vec![1, 2]]);
        assert_eq!(combinations(4, 1).len(), 4);
        assert_eq!(combinations(4, 4), vec![vec![0, 1, 2, 3]]);
        assert_eq!(combinations(2, 3), Vec::<Vec<usize>>::new());
        assert_eq!(combinations(5, 3).len(), 10);
    }

    #[test]
    fn and_or_tree_both_engines() {
        let ft = simple_and_or();
        for engine in [mocus, bottom_up] {
            let mcs = engine(&ft).unwrap();
            assert_eq!(mcs.len(), 2);
            let got = names_of(&ft, &mcs);
            assert!(got.contains(&vec!["c".to_string()]));
            assert!(got.contains(&vec!["a".to_string(), "b".to_string()]));
            assert!(mcs.is_minimal());
        }
    }

    #[test]
    fn subsumption_across_gates() {
        // top = a OR (a AND b): {a} subsumes {a, b}.
        let mut ft = FaultTree::new("t");
        let a = ft.basic_event("a").unwrap();
        let b = ft.basic_event("b").unwrap();
        let g = ft.and_gate("ab", [a, b]).unwrap();
        let top = ft.or_gate("top", [a, g]).unwrap();
        ft.set_root(top).unwrap();
        for engine in [mocus, bottom_up] {
            let mcs = engine(&ft).unwrap();
            assert_eq!(mcs.len(), 1);
            assert_eq!(mcs.sets()[0], CutSet::singleton(0));
        }
    }

    #[test]
    fn k_of_n_gate_expansion() {
        // 2-of-3 over {a, b, c} → {ab, ac, bc}.
        let mut ft = FaultTree::new("t");
        let a = ft.basic_event("a").unwrap();
        let b = ft.basic_event("b").unwrap();
        let c = ft.basic_event("c").unwrap();
        let top = ft.k_of_n_gate("vote", 2, [a, b, c]).unwrap();
        ft.set_root(top).unwrap();
        for engine in [mocus, bottom_up] {
            let mcs = engine(&ft).unwrap();
            assert_eq!(mcs.len(), 3);
            assert!(mcs.iter().all(|cs| cs.order() == 2));
        }
    }

    #[test]
    fn inhibit_gate_collects_condition() {
        let mut ft = FaultTree::new("t");
        let cause = ft.basic_event("cooling fails").unwrap();
        let cond = ft.condition("system running").unwrap();
        let top = ft.inhibit_gate("overheat", cause, cond).unwrap();
        ft.set_root(top).unwrap();
        for engine in [mocus, bottom_up] {
            let mcs = engine(&ft).unwrap();
            assert_eq!(mcs.len(), 1);
            let cs = &mcs.sets()[0];
            assert_eq!(cs.order(), 2);
            assert_eq!(cs.failures(&ft), vec![0]);
            assert_eq!(cs.conditions(&ft), vec![1]);
        }
    }

    #[test]
    fn shared_subtree_handled_once() {
        // top = (s AND a) OR (s AND b), s shared OR-subtree of {x, y}.
        let mut ft = FaultTree::new("t");
        let x = ft.basic_event("x").unwrap();
        let y = ft.basic_event("y").unwrap();
        let a = ft.basic_event("a").unwrap();
        let b = ft.basic_event("b").unwrap();
        let s = ft.or_gate("s", [x, y]).unwrap();
        let left = ft.and_gate("left", [s, a]).unwrap();
        let right = ft.and_gate("right", [s, b]).unwrap();
        let top = ft.or_gate("top", [left, right]).unwrap();
        ft.set_root(top).unwrap();
        for engine in [mocus, bottom_up] {
            let mcs = engine(&ft).unwrap();
            // {x,a},{y,a},{x,b},{y,b}
            assert_eq!(mcs.len(), 4);
            assert!(mcs.iter().all(|cs| cs.order() == 2));
        }
    }

    #[test]
    fn engines_agree_on_deep_mixed_tree() {
        let mut ft = FaultTree::new("t");
        let leaves: Vec<_> = (0..6)
            .map(|i| ft.basic_event(format!("e{i}")).unwrap())
            .collect();
        let g1 = ft.and_gate("g1", [leaves[0], leaves[1]]).unwrap();
        let g2 = ft.or_gate("g2", [leaves[2], leaves[3]]).unwrap();
        let g3 = ft.k_of_n_gate("g3", 2, [g1, g2, leaves[4]]).unwrap();
        let top = ft.or_gate("top", [g3, leaves[5]]).unwrap();
        ft.set_root(top).unwrap();
        let a = mocus(&ft).unwrap();
        let b = bottom_up(&ft).unwrap();
        assert_eq!(a, b);
        assert!(a.is_minimal());
    }

    #[test]
    fn budget_exceeded_is_detected() {
        // 2-of-20 voting gate has 190 cut sets; a budget of 10 must fail.
        let mut ft = FaultTree::new("t");
        let leaves: Vec<_> = (0..20)
            .map(|i| ft.basic_event(format!("e{i}")).unwrap())
            .collect();
        let top = ft.k_of_n_gate("vote", 2, leaves).unwrap();
        ft.set_root(top).unwrap();
        assert!(matches!(
            mocus_with_budget(&ft, 10),
            Err(FtaError::BudgetExceeded { .. })
        ));
        assert!(matches!(
            bottom_up_with_budget(&ft, 10),
            Err(FtaError::BudgetExceeded { .. })
        ));
        // And with the default budget both succeed.
        assert_eq!(mocus(&ft).unwrap().len(), 190);
        assert_eq!(bottom_up(&ft).unwrap().len(), 190);
    }

    #[test]
    fn binomial_saturating_is_exact_then_saturates() {
        assert_eq!(binomial_saturating(5, 0), 1);
        assert_eq!(binomial_saturating(5, 5), 1);
        assert_eq!(binomial_saturating(5, 2), 10);
        assert_eq!(binomial_saturating(30, 15), 155_117_520);
        assert_eq!(binomial_saturating(3, 7), 0);
        assert_eq!(binomial_saturating(1000, 500), usize::MAX);
    }

    /// Regression: a 15-of-30 voter has 155 million subsets; the
    /// engines used to materialize the full `combinations` vector
    /// before the first budget check ran (gigabytes of allocation on a
    /// budget of 1000). The pre-check must refuse immediately.
    #[test]
    fn huge_kofn_fails_fast_instead_of_materializing() {
        let mut ft = FaultTree::new("t");
        let leaves: Vec<_> = (0..30)
            .map(|i| ft.basic_event(format!("e{i}")).unwrap())
            .collect();
        let top = ft.k_of_n_gate("vote", 15, leaves).unwrap();
        ft.set_root(top).unwrap();
        let start = std::time::Instant::now();
        assert!(matches!(
            mocus_with_budget(&ft, 1000),
            Err(FtaError::BudgetExceeded { .. })
        ));
        assert!(matches!(
            bottom_up_with_budget(&ft, 1000),
            Err(FtaError::BudgetExceeded { .. })
        ));
        // Generous bound — the point is "refused", not "enumerated".
        assert!(start.elapsed() < std::time::Duration::from_secs(2));
    }

    /// The documented all-or-nothing contract: the budget bounds
    /// intermediates, so a tree whose *final* answer is tiny can still
    /// exceed it — and then the caller gets the typed error, never a
    /// truncated collection.
    #[test]
    fn intermediate_blowup_errors_even_when_final_answer_is_small() {
        // and(or(e0..e14), or(e0..e14)) over the *same* leaves: the
        // cross-product holds 225 sets before minimization collapses
        // them to the 15 singletons.
        let mut ft = FaultTree::new("t");
        let leaves: Vec<_> = (0..15)
            .map(|i| ft.basic_event(format!("e{i}")).unwrap())
            .collect();
        let g1 = ft.or_gate("g1", leaves.clone()).unwrap();
        let g2 = ft.or_gate("g2", leaves).unwrap();
        let top = ft.and_gate("top", [g1, g2]).unwrap();
        ft.set_root(top).unwrap();
        // Unbudgeted: the minimized answer is small.
        assert_eq!(bottom_up(&ft).unwrap().len(), 15);
        assert_eq!(mocus(&ft).unwrap().len(), 15);
        // Budget below the intermediate peak: typed error from both.
        assert!(matches!(
            bottom_up_with_budget(&ft, 100),
            Err(FtaError::BudgetExceeded { .. })
        ));
        assert!(matches!(
            mocus_with_budget(&ft, 100),
            Err(FtaError::BudgetExceeded { .. })
        ));
    }

    /// The `industrial_query` tree: both engines agree at workload size,
    /// where the lowest-leaf index carries the time.
    #[test]
    fn engines_agree_on_the_workload_size_modular_tree() {
        let ft = crate::synth::modular_tree(crate::synth::ModularTreeConfig {
            modules: 48,
            sections_per_module: 12,
            leaves_per_section: 4,
            leaf_probability: 1e-3,
        });
        let a = bottom_up(&ft).unwrap();
        let b = mocus(&ft).unwrap();
        assert_eq!(a.len(), 2784);
        assert_eq!(a.max_order(), 3);
        assert_eq!(a, b);
        assert!(a.is_minimal());
    }

    /// Both engines return `expected` (leaf names per set, in
    /// collection order); the bottom-up memo frees entries as their last
    /// reader computes, which must not change a single set.
    fn assert_engines_give(ft: &FaultTree, expected: &[&[&str]]) {
        let bu = bottom_up(ft).unwrap();
        assert_eq!(bu, mocus(ft).unwrap());
        assert_eq!(names_of(ft, &bu), expected);
        assert!(bu.is_minimal());
    }

    #[test]
    fn memo_release_keeps_a_diamond_exact() {
        // top = (s OR a) AND (s OR b), s = x AND y: both sides read s.
        let mut ft = FaultTree::new("t");
        let x = ft.basic_event("x").unwrap();
        let y = ft.basic_event("y").unwrap();
        let a = ft.basic_event("a").unwrap();
        let b = ft.basic_event("b").unwrap();
        let s = ft.and_gate("s", [x, y]).unwrap();
        let left = ft.or_gate("left", [s, a]).unwrap();
        let right = ft.or_gate("right", [s, b]).unwrap();
        let top = ft.and_gate("top", [left, right]).unwrap();
        ft.set_root(top).unwrap();
        assert_engines_give(&ft, &[&["x", "y"], &["a", "b"]]);
        // A budget below the first OR's two sets fails at that gate,
        // with the same typed error as before entries were freed.
        assert_eq!(
            bottom_up_with_budget(&ft, 1),
            Err(FtaError::BudgetExceeded {
                what: "OR-combined cut sets",
                limit: 1,
            })
        );
    }

    #[test]
    fn memo_release_counts_an_input_listed_twice() {
        // and(a, b, a) and or(c, d, c): each duplicate is one more read,
        // so `a` survives `g` for the root's own read of it.
        let mut ft = FaultTree::new("t");
        let a = ft.basic_event("a").unwrap();
        let b = ft.basic_event("b").unwrap();
        let c = ft.basic_event("c").unwrap();
        let d = ft.basic_event("d").unwrap();
        let g = ft.and_gate("g", [a, b]).unwrap();
        let h = ft.or_gate("h", [c, d]).unwrap();
        ft.push_input_unchecked(g, a);
        ft.push_input_unchecked(h, c);
        let top = ft.and_gate("top", [g, h, a]).unwrap();
        ft.set_root(top).unwrap();
        assert_engines_give(&ft, &[&["a", "b", "c"], &["a", "b", "d"]]);
        assert_eq!(
            bottom_up_with_budget(&ft, 1),
            Err(FtaError::BudgetExceeded {
                what: "OR-combined cut sets",
                limit: 1,
            })
        );
    }

    #[test]
    fn memo_release_serves_a_subtree_read_by_three_parents() {
        let mut ft = FaultTree::new("t");
        let x = ft.basic_event("x").unwrap();
        let y = ft.basic_event("y").unwrap();
        let s = ft.or_gate("s", [x, y]).unwrap();
        let parents: Vec<_> = ["a", "b", "c"]
            .iter()
            .map(|name| {
                let leaf = ft.basic_event(*name).unwrap();
                ft.and_gate(format!("p{name}"), [s, leaf]).unwrap()
            })
            .collect();
        let top = ft.or_gate("top", parents).unwrap();
        ft.set_root(top).unwrap();
        assert_engines_give(
            &ft,
            &[
                &["x", "a"],
                &["y", "a"],
                &["x", "b"],
                &["y", "b"],
                &["x", "c"],
                &["y", "c"],
            ],
        );
        assert_eq!(
            bottom_up_with_budget(&ft, 5),
            Err(FtaError::BudgetExceeded {
                what: "OR-combined cut sets",
                limit: 5,
            })
        );
    }

    #[test]
    fn memo_release_ignores_gates_unreachable_from_the_root() {
        // Two orphan gates read the shared s, and one reads the root
        // itself; none of them is ever computed.
        let mut ft = FaultTree::new("t");
        let x = ft.basic_event("x").unwrap();
        let y = ft.basic_event("y").unwrap();
        let z = ft.basic_event("z").unwrap();
        let s = ft.or_gate("s", [x, y]).unwrap();
        let top = ft.and_gate("top", [s, z]).unwrap();
        let orphan = ft.and_gate("orphan", [s, y]).unwrap();
        ft.or_gate("orphan of orphan", [orphan, s, top]).unwrap();
        ft.set_root(top).unwrap();
        assert_engines_give(&ft, &[&["x", "z"], &["y", "z"]]);
        assert_eq!(
            bottom_up_with_budget(&ft, 1),
            Err(FtaError::BudgetExceeded {
                what: "OR-combined cut sets",
                limit: 1,
            })
        );
    }

    #[test]
    fn no_root_is_an_error() {
        let mut ft = FaultTree::new("t");
        let _ = ft.basic_event("a").unwrap();
        assert!(matches!(mocus(&ft), Err(FtaError::NoRoot)));
        assert!(matches!(bottom_up(&ft), Err(FtaError::NoRoot)));
    }
}
