//! Property-based cross-checks of the cut-set and quantification engines
//! on randomly generated fault trees (the exactness claims themselves are
//! checked against an enumeration oracle in `exactness_oracle.rs`).
//!
//! Invariants enforced on every random instance:
//!
//! * MOCUS ≡ bottom-up minimal cut sets,
//! * minimal cut sets form an antichain,
//! * structure-function evaluation agrees between the cut sets and the
//!   BDD on random leaf assignments,
//! * `BDD-exact ≤ min-cut upper bound ≤ rare-event` for coherent trees,
//!   with inclusion–exclusion equal to the exact value where feasible.

use proptest::prelude::*;
use safety_optimization::fta::bdd::TreeBdd;
use safety_optimization::fta::quant::{inclusion_exclusion, min_cut_upper_bound, rare_event};
use safety_optimization::fta::synth::{random_tree, RandomTreeConfig};
use safety_optimization::fta::{mcs, BitSet, FtaError};

fn tree_strategy() -> impl Strategy<Value = (RandomTreeConfig, u64)> {
    (2usize..10, 1usize..9, 2usize..5, 0.0f64..0.9, any::<u64>()).prop_map(
        |(leaves, gates, arity, reuse, seed)| {
            (
                RandomTreeConfig {
                    num_leaves: leaves,
                    num_gates: gates,
                    max_inputs: arity,
                    leaf_probability: 0.15,
                    gate_reuse: reuse,
                },
                seed,
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engines_agree_and_sets_are_minimal((config, seed) in tree_strategy()) {
        let tree = random_tree(config, seed);
        tree.validate().unwrap();
        let by_mocus = mcs::mocus(&tree).unwrap();
        let by_bottom_up = mcs::bottom_up(&tree).unwrap();
        prop_assert_eq!(&by_mocus, &by_bottom_up);
        prop_assert!(by_mocus.is_minimal(), "cut sets must form an antichain");
    }

    #[test]
    fn structure_function_agrees_on_assignments(
        (config, seed) in tree_strategy(),
        assignment_bits in any::<u64>(),
    ) {
        let tree = random_tree(config, seed);
        let sets = mcs::bottom_up(&tree).unwrap();
        let bdd = TreeBdd::build(&tree).unwrap();
        let failed: BitSet = (0..tree.leaves().len())
            .filter(|i| assignment_bits & (1 << (i % 64)) != 0)
            .collect();
        prop_assert_eq!(sets.evaluate(&failed), bdd.evaluate(&failed));
        // All-failed must trigger (the root is reachable from leaves);
        // all-working must not.
        let all: BitSet = (0..tree.leaves().len()).collect();
        prop_assert!(bdd.evaluate(&all));
        prop_assert!(!bdd.evaluate(&BitSet::new()));
    }

    #[test]
    fn quantification_ordering_holds((config, seed) in tree_strategy()) {
        let tree = random_tree(config, seed);
        let probs = tree.stored_probabilities().unwrap();
        let sets = mcs::bottom_up(&tree).unwrap();
        let exact = TreeBdd::build(&tree).unwrap().probability(&probs).unwrap();
        let bound = min_cut_upper_bound(&sets, &probs).unwrap();
        let rare = rare_event(&sets, &probs).unwrap();
        prop_assert!((0.0..=1.0).contains(&exact), "exact = {}", exact);
        prop_assert!(exact <= bound + 1e-12, "exact {} > bound {}", exact, bound);
        prop_assert!(bound <= rare + 1e-12, "bound {} > rare {}", bound, rare);
        match inclusion_exclusion(&sets, &probs) {
            Ok(ie) => prop_assert!(
                (ie - exact).abs() < 1e-9,
                "inclusion-exclusion {} vs exact {}", ie, exact
            ),
            Err(FtaError::BudgetExceeded { .. }) => {} // too many cut sets: fine
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
        }
    }

    #[test]
    fn probability_is_monotone_in_leaf_probability((config, seed) in tree_strategy()) {
        // Coherent structure functions are monotone: raising any leaf
        // probability cannot lower the top probability.
        let tree = random_tree(config, seed);
        let probs = tree.stored_probabilities().unwrap();
        let bdd = TreeBdd::build(&tree).unwrap();
        let base = bdd.probability(&probs).unwrap();
        for leaf in 0..tree.leaves().len() {
            let raised = probs.with_forced(leaf, 0.9).unwrap();
            let up = bdd.probability(&raised).unwrap();
            prop_assert!(up + 1e-12 >= base, "leaf {}: {} < {}", leaf, up, base);
        }
    }

    #[test]
    fn text_format_round_trips((config, seed) in tree_strategy()) {
        use safety_optimization::fta::parse::{parse, to_text};
        let tree = random_tree(config, seed);
        let text = to_text(&tree).unwrap();
        let back = parse(&text).unwrap();
        prop_assert_eq!(
            mcs::bottom_up(&back).unwrap(),
            mcs::bottom_up(&tree).unwrap()
        );
        prop_assert_eq!(
            back.stored_probabilities().unwrap(),
            tree.stored_probabilities().unwrap()
        );
    }
}
