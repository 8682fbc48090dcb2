//! Synthetic fault-tree generators for property tests and benchmarks.
//!
//! Two kinds of generators:
//!
//! * Parametric **families** with known analytic answers
//!   ([`and_of_ors`], [`or_of_ands`], [`voter_chain`]) — used by the
//!   benchmark harness to sweep tree size while keeping the expected
//!   minimal-cut-set counts checkable in closed form.
//! * A seeded **random tree** generator ([`random_tree`]) — used by
//!   property tests to check the bottom-up cut-set engine against MOCUS
//!   and the quantification engines against an enumeration oracle on
//!   arbitrary structures.

use crate::tree::{FaultTree, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `AND` of `m` independent `OR`-groups with `n` leaves each.
///
/// Minimal cut sets: all `n^m` combinations picking one leaf per group.
/// Leaf probabilities default to `p`.
pub fn and_of_ors(m: usize, n: usize, p: f64) -> FaultTree {
    let mut ft = FaultTree::new(format!("and{m}-of-or{n}"));
    let mut groups = Vec::new();
    for g in 0..m {
        let leaves: Vec<NodeId> = (0..n)
            .map(|i| {
                ft.basic_event_with_probability(format!("e{g}_{i}"), p)
                    .expect("unique names")
            })
            .collect();
        groups.push(ft.or_gate(format!("or{g}"), leaves).expect("valid gate"));
    }
    let top = ft.and_gate("top", groups).expect("valid gate");
    ft.set_root(top).expect("gate root");
    ft
}

/// `OR` of `m` independent `AND`-groups with `n` leaves each.
///
/// Minimal cut sets: exactly the `m` groups.
pub fn or_of_ands(m: usize, n: usize, p: f64) -> FaultTree {
    let mut ft = FaultTree::new(format!("or{m}-of-and{n}"));
    let mut groups = Vec::new();
    for g in 0..m {
        let leaves: Vec<NodeId> = (0..n)
            .map(|i| {
                ft.basic_event_with_probability(format!("e{g}_{i}"), p)
                    .expect("unique names")
            })
            .collect();
        groups.push(ft.and_gate(format!("and{g}"), leaves).expect("valid gate"));
    }
    let top = ft.or_gate("top", groups).expect("valid gate");
    ft.set_root(top).expect("gate root");
    ft
}

/// A chain of `depth` 2-of-3 voters, each voting over one fresh leaf pair
/// plus the previous stage. Exercises deep sharing and k-of-n expansion.
pub fn voter_chain(depth: usize, p: f64) -> FaultTree {
    let mut ft = FaultTree::new(format!("voter-chain-{depth}"));
    let mut stage = {
        let a = ft.basic_event_with_probability("seed_a", p).unwrap();
        let b = ft.basic_event_with_probability("seed_b", p).unwrap();
        ft.and_gate("stage0", [a, b]).unwrap()
    };
    for d in 1..=depth {
        let x = ft.basic_event_with_probability(format!("x{d}"), p).unwrap();
        let y = ft.basic_event_with_probability(format!("y{d}"), p).unwrap();
        stage = ft
            .k_of_n_gate(format!("stage{d}"), 2, [stage, x, y])
            .unwrap();
    }
    // Wrap in a trivial OR so the root is distinct from the last voter.
    let top = ft.or_gate("top", [stage]).unwrap();
    ft.set_root(top).unwrap();
    ft
}

/// Configuration for [`random_tree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomTreeConfig {
    /// Number of distinct basic events to draw from.
    pub num_leaves: usize,
    /// Number of gates to generate (sink gates are collected under an
    /// OR root).
    pub num_gates: usize,
    /// Maximum inputs per gate (≥ 2).
    pub max_inputs: usize,
    /// Probability assigned to every leaf.
    pub leaf_probability: f64,
    /// Probability that a gate input reuses an existing gate rather than
    /// a leaf (controls DAG sharing).
    pub gate_reuse: f64,
}

impl Default for RandomTreeConfig {
    fn default() -> Self {
        Self {
            num_leaves: 8,
            num_gates: 6,
            max_inputs: 3,
            leaf_probability: 0.1,
            gate_reuse: 0.4,
        }
    }
}

/// Generates a random coherent fault tree (AND/OR/k-of-n gates) with the
/// given seed. Deterministic per `(config, seed)`.
///
/// The generated tree always has a valid root; every gate draws inputs
/// from earlier gates and leaves, so it is a DAG by construction.
pub fn random_tree(config: RandomTreeConfig, seed: u64) -> FaultTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ft = FaultTree::new(format!("random-{seed}"));
    let leaves: Vec<NodeId> = (0..config.num_leaves.max(2))
        .map(|i| {
            ft.basic_event_with_probability(format!("e{i}"), config.leaf_probability)
                .expect("unique names")
        })
        .collect();
    let mut gates: Vec<NodeId> = Vec::new();
    for g in 0..config.num_gates.max(1) {
        let arity = rng.gen_range(2..=config.max_inputs.max(2));
        let mut inputs: Vec<NodeId> = Vec::new();
        for _ in 0..arity {
            let candidate = if !gates.is_empty() && rng.gen::<f64>() < config.gate_reuse {
                gates[rng.gen_range(0..gates.len())]
            } else {
                leaves[rng.gen_range(0..leaves.len())]
            };
            if !inputs.contains(&candidate) {
                inputs.push(candidate);
            }
        }
        if inputs.len() < 2 {
            // Ensure arity ≥ 2 by adding a distinct leaf.
            for &l in &leaves {
                if !inputs.contains(&l) {
                    inputs.push(l);
                    break;
                }
            }
        }
        let kind = rng.gen_range(0..3);
        let gate = match kind {
            0 => ft.and_gate(format!("g{g}"), inputs).expect("valid"),
            1 => ft.or_gate(format!("g{g}"), inputs).expect("valid"),
            _ => {
                let k = rng.gen_range(1..=inputs.len());
                ft.k_of_n_gate(format!("g{g}"), k, inputs).expect("valid")
            }
        };
        gates.push(gate);
    }
    // Root: an OR over every sink gate (gates no other gate consumed)
    // plus any leaf no gate picked up, so the whole generated structure
    // is reachable from the root. A single full-coverage sink roots
    // directly. Collected by scanning the arena (not the RNG), so
    // `(config, seed)` determinism is untouched.
    let mut used: Vec<NodeId> = Vec::new();
    for (_, node) in ft.iter() {
        if let crate::tree::NodeKind::Gate { inputs, .. } = node.kind() {
            used.extend(inputs.iter().copied());
        }
    }
    let sinks: Vec<NodeId> = gates
        .iter()
        .copied()
        .filter(|g| !used.contains(g))
        .collect();
    let orphans: Vec<NodeId> = leaves
        .iter()
        .copied()
        .filter(|l| !used.contains(l))
        .collect();
    let root = if sinks.len() == 1 && orphans.is_empty() {
        sinks[0]
    } else {
        let mut inputs = sinks;
        inputs.extend(orphans);
        ft.or_gate("root", inputs).expect("valid root gate")
    };
    ft.set_root(root).expect("gate root");
    ft
}

/// Configuration for [`modular_tree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModularTreeConfig {
    /// Number of independent modules under the OR root.
    pub modules: usize,
    /// Sections (internal gate clusters) per module.
    pub sections_per_module: usize,
    /// Fresh leaves per section.
    pub leaves_per_section: usize,
    /// Base leaf probability (varied deterministically per leaf).
    pub leaf_probability: f64,
}

impl Default for ModularTreeConfig {
    fn default() -> Self {
        Self {
            modules: 8,
            sections_per_module: 4,
            leaves_per_section: 4,
            leaf_probability: 1e-3,
        }
    }
}

/// A large synthetic tree with known modular structure — the
/// industrial-scale workload for the preprocessing + module-wise BDD
/// pipeline (and the `bdd` section of the `gates` bench).
///
/// Each module owns a disjoint leaf set (so every module top is a true
/// independent module) and mixes the shapes the preprocessing passes
/// target: k-of-n ladders over leaves plus an always-on house event
/// (constant propagation shifts the threshold), OR groups carrying an
/// always-off house event (pruning), fanout-1 same-kind OR chains
/// (coalescing), INHIBIT gates (normalization), and a shared section
/// consumed by two parents (module-internal DAG sharing). Fully
/// deterministic — a pure function of `config`.
pub fn modular_tree(config: ModularTreeConfig) -> FaultTree {
    let modules = config.modules.max(1);
    let sections = config.sections_per_module.max(2);
    let width = config.leaves_per_section.max(3);
    let mut ft = FaultTree::new(format!("modular-{modules}x{sections}x{width}"));
    let mut tops = Vec::with_capacity(modules);
    for m in 0..modules {
        let on = ft
            .condition_with_probability(format!("m{m}_on"), 1.0)
            .expect("unique names");
        let off = ft
            .condition_with_probability(format!("m{m}_off"), 0.0)
            .expect("unique names");
        let mut section_gates = Vec::with_capacity(sections);
        for s in 0..sections {
            let leaves: Vec<NodeId> = (0..width)
                .map(|j| {
                    let p =
                        config.leaf_probability * (0.5 + 0.1 * ((m * 7 + s * 3 + j) % 10) as f64);
                    ft.basic_event_with_probability(format!("m{m}_s{s}_e{j}"), p)
                        .expect("unique names")
                })
                .collect();
            let gate = match s % 4 {
                0 => {
                    // k-of-n ladder with an always-on house event: the
                    // pipeline folds `on` and shifts the threshold.
                    let mut inputs = leaves;
                    inputs.push(on);
                    ft.k_of_n_gate(format!("m{m}_s{s}_voter"), 2, inputs)
                        .expect("valid")
                }
                1 => {
                    // OR group carrying an always-off house event.
                    let mut inputs = leaves;
                    inputs.push(off);
                    ft.or_gate(format!("m{m}_s{s}_or"), inputs).expect("valid")
                }
                2 => {
                    // Fanout-1 same-kind OR chain — coalesces flat.
                    let mut chain = leaves[0];
                    for (j, &leaf) in leaves.iter().enumerate().skip(1) {
                        chain = ft
                            .or_gate(format!("m{m}_s{s}_chain{j}"), [chain, leaf])
                            .expect("valid");
                    }
                    chain
                }
                _ => {
                    // INHIBIT over an AND pair — normalizes to AND.
                    let cause = ft
                        .and_gate(format!("m{m}_s{s}_and"), leaves[..2].to_vec())
                        .expect("valid");
                    ft.inhibit_gate(format!("m{m}_s{s}_inh"), cause, on)
                        .expect("valid")
                }
            };
            section_gates.push(gate);
        }
        // Module-internal sharing: the first two sections also feed a
        // conjunction, giving them fanout 2 (never coalesced away).
        let pair = ft
            .and_gate(format!("m{m}_pair"), [section_gates[0], section_gates[1]])
            .expect("valid");
        let mut or_inputs = section_gates;
        or_inputs.push(pair);
        tops.push(ft.or_gate(format!("m{m}_top"), or_inputs).expect("valid"));
    }
    let top = ft.or_gate("top", tops).expect("valid");
    ft.set_root(top).expect("gate root");
    ft
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcs;

    #[test]
    fn and_of_ors_counts() {
        let ft = and_of_ors(3, 4, 0.01);
        let mcs = mcs::bottom_up(&ft).unwrap();
        assert_eq!(mcs.len(), 64); // 4³
        assert!(mcs.iter().all(|cs| cs.order() == 3));
    }

    #[test]
    fn or_of_ands_counts() {
        let ft = or_of_ands(5, 3, 0.01);
        let mcs = mcs::bottom_up(&ft).unwrap();
        assert_eq!(mcs.len(), 5);
        assert!(mcs.iter().all(|cs| cs.order() == 3));
    }

    #[test]
    fn voter_chain_is_analyzable() {
        let ft = voter_chain(4, 0.1);
        ft.validate().unwrap();
        let a = mcs::mocus(&ft).unwrap();
        let b = mcs::bottom_up(&ft).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn random_trees_are_valid_and_engines_agree() {
        for seed in 0..25 {
            let ft = random_tree(RandomTreeConfig::default(), seed);
            ft.validate().unwrap();
            let m = mcs::mocus(&ft).unwrap();
            let b = mcs::bottom_up(&ft).unwrap();
            assert_eq!(m, b, "seed {seed}: mocus vs bottom-up");
        }
    }

    /// Regression: the root used to be `*gates.last()` alone, silently
    /// dropping every gate (and most leaves) the last gate did not
    /// happen to reach — "large" random trees collapsed to a fragment.
    #[test]
    fn random_tree_reaches_every_gate_and_leaf() {
        for seed in 0..40 {
            let ft = random_tree(RandomTreeConfig::default(), seed);
            let mut seen = vec![false; ft.len()];
            let mut stack = vec![ft.root().unwrap()];
            while let Some(id) = stack.pop() {
                if std::mem::replace(&mut seen[id.index()], true) {
                    continue;
                }
                if let crate::tree::NodeKind::Gate { inputs, .. } = ft.node(id).kind() {
                    stack.extend(inputs.iter().copied());
                }
            }
            let unreached: Vec<&str> = ft
                .iter()
                .filter(|(id, _)| !seen[id.index()])
                .map(|(_, n)| n.name())
                .collect();
            assert!(
                unreached.is_empty(),
                "seed {seed}: unreachable {unreached:?}"
            );
        }
    }

    #[test]
    fn modular_tree_is_deterministic_valid_and_fully_modular() {
        let cfg = ModularTreeConfig::default();
        let a = modular_tree(cfg);
        let b = modular_tree(cfg);
        assert_eq!(a, b);
        a.validate().unwrap();
        // Every module top is a genuine independent module.
        let modules = crate::preprocess::detect_modules(&a).unwrap();
        for m in 0..cfg.modules {
            let top = a.node_by_name(&format!("m{m}_top")).unwrap();
            assert!(modules.contains(&top), "m{m}_top not detected as module");
        }
    }

    #[test]
    fn random_tree_is_deterministic_per_seed() {
        let a = random_tree(RandomTreeConfig::default(), 7);
        let b = random_tree(RandomTreeConfig::default(), 7);
        assert_eq!(a, b);
        let c = random_tree(RandomTreeConfig::default(), 8);
        assert_ne!(a, c);
    }
}
