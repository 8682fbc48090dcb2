//! Exactness against an enumeration oracle that shares no code with what
//! it checks.
//!
//! [`oracle::TruthTable`] enumerates all `2ⁿ` failure states of a tree's
//! reachable leaves and evaluates every gate straight from the
//! [`FaultTree`] node kinds. From that table alone it derives the minimal
//! cut sets (the minimal true states of the monotone structure
//! function), the exact top-event probability and each leaf's Birnbaum
//! importance. It reads nothing from the cut-set engines, the BDD stack,
//! preprocessing, module detection, quantification or the evaluation
//! engine.
//!
//! Against it, on seeded random trees decorated with INHIBIT gates,
//! shared conditions and shared subtrees, under per-leaf probabilities
//! that include house events (exactly 0 and 1):
//!
//! * `mcs::bottom_up` and `mcs::mocus` give the oracle's cut sets;
//! * `TreeBdd::probability` (default and permuted variable orders),
//!   preprocessing followed by a BDD, and `ModularPlan::probability`
//!   give the oracle's P(top) to 1e-12 relative;
//! * the plan's Shannon leaf tape gives it pointwise, through
//!   `BatchEvaluator` at every lane width 1–16 on one and four threads,
//!   and its adjoint gives the oracle's Birnbaum importances;
//! * inclusion–exclusion is exact and `rare_event ≥ min-cut upper bound
//!   ≥ exact`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safety_optimization::elbtunnel::analytic::ElbtunnelModel;
use safety_optimization::elbtunnel::constants::PAPER_OPTIMUM_MIN;
use safety_optimization::elbtunnel::fault_trees::{collision_tree, false_alarm_tree};
use safety_optimization::engine::BatchEvaluator;
use safety_optimization::fta::bdd::TreeBdd;
use safety_optimization::fta::modular::ModularPlan;
use safety_optimization::fta::preprocess::{preprocess_with_constants, PreprocessOutcome};
use safety_optimization::fta::quant::{
    inclusion_exclusion, min_cut_upper_bound, rare_event, ProbabilityMap,
};
use safety_optimization::fta::synth::{random_tree, RandomTreeConfig};
use safety_optimization::fta::tree::{FaultTree, GateKind, NodeId, NodeKind};
use safety_optimization::fta::{mcs, CutSetCollection};
use safety_optimization::safeopt::compile::CompiledModel;
use safety_optimization::safeopt::model::QuantMethod;
use safety_optimization::safeopt::param::ParamValues;

mod oracle {
    //! The oracle proper: only `FaultTree`'s node, leaf and gate types.

    use safety_optimization::fta::tree::{FaultTree, GateKind, NodeId, NodeKind};

    /// The most reachable leaves the oracle enumerates (2¹⁸ states).
    pub const MAX_LEAVES: usize = 18;

    /// A structure function as a truth table over the reachable leaves:
    /// bit `b` of a state says whether leaf `leaves[b]` has failed.
    pub struct TruthTable {
        leaves: Vec<usize>,
        /// Bit `s` of the table is the top event's value in state `s`.
        top: Vec<u64>,
    }

    impl TruthTable {
        /// Enumerates `tree` from its root.
        ///
        /// # Panics
        ///
        /// Panics if the tree has no root or more than [`MAX_LEAVES`]
        /// reachable leaves.
        pub fn new(tree: &FaultTree) -> Self {
            let root = tree.root().expect("a rooted tree");
            let mut leaves = Vec::new();
            let mut seen = vec![false; tree.len()];
            let mut stack = vec![root];
            while let Some(id) = stack.pop() {
                if std::mem::replace(&mut seen[id.index()], true) {
                    continue;
                }
                match tree.node(id).kind() {
                    NodeKind::Gate { inputs, .. } => stack.extend(inputs.iter().copied()),
                    _ => leaves.push(tree.leaf_index(id).expect("a leaf has a slot")),
                }
            }
            leaves.sort_unstable();
            assert!(leaves.len() <= MAX_LEAVES, "{} leaves", leaves.len());
            let states = 1usize << leaves.len();
            let mut columns: Vec<Option<Vec<u64>>> = vec![None; tree.len()];
            let top = column(tree, root, &leaves, states, &mut columns);
            Self { leaves, top }
        }

        fn states(&self) -> usize {
            1 << self.leaves.len()
        }

        fn phi(&self, s: usize) -> bool {
            self.top[s / 64] >> (s % 64) & 1 == 1
        }

        /// `true` if failing one more leaf never clears the top event.
        pub fn is_monotone(&self) -> bool {
            (0..self.states())
                .all(|s| (0..self.leaves.len()).all(|b| !self.phi(s) || self.phi(s | 1 << b)))
        }

        /// The minimal true states, each as ascending leaf indices, in
        /// ascending order.
        pub fn minimal_cut_sets(&self) -> Vec<Vec<usize>> {
            let mut sets: Vec<Vec<usize>> = (0..self.states())
                .filter(|&s| self.phi(s))
                .filter(|&s| {
                    (0..self.leaves.len()).all(|b| s >> b & 1 == 0 || !self.phi(s ^ 1 << b))
                })
                .map(|s| {
                    (0..self.leaves.len())
                        .filter(|b| s >> b & 1 == 1)
                        .map(|b| self.leaves[b])
                        .collect()
                })
                .collect();
            sets.sort();
            sets
        }

        /// P(top) for independent leaves failing with probability
        /// `q[leaf]`.
        pub fn probability(&self, q: &[f64]) -> f64 {
            let w = self.weights(q);
            pairwise_sum((0..self.states()).map(|s| if self.phi(s) { w[s] } else { 0.0 }))
        }

        /// Birnbaum importance of every leaf (`0` where unreachable):
        /// `P(top | qᵢ = 1) − P(top | qᵢ = 0)`, summed as the
        /// probability of the states in which leaf `i` is critical, so
        /// no difference of two rounded probabilities is ever taken.
        pub fn birnbaum(&self, q: &[f64]) -> Vec<f64> {
            let mut out = vec![0.0; q.len()];
            for (b, &leaf) in self.leaves.iter().enumerate() {
                let mut forced = q.to_vec();
                forced[leaf] = 1.0;
                let w = self.weights(&forced);
                out[leaf] = pairwise_sum((0..self.states()).map(|s| {
                    let critical = s >> b & 1 == 1 && self.phi(s) && !self.phi(s ^ 1 << b);
                    if critical {
                        w[s]
                    } else {
                        0.0
                    }
                }));
            }
            out
        }

        /// Probability of each state.
        fn weights(&self, q: &[f64]) -> Vec<f64> {
            let mut w = vec![0.0; self.states()];
            w[0] = 1.0;
            for (b, &leaf) in self.leaves.iter().enumerate() {
                let p = q[leaf];
                for s in 0..1usize << b {
                    w[s | 1 << b] = w[s] * p;
                    w[s] *= 1.0 - p;
                }
            }
            w
        }
    }

    /// The truth-table column of node `id`: bit `s` is the node's value
    /// in state `s`.
    fn column(
        tree: &FaultTree,
        id: NodeId,
        leaves: &[usize],
        states: usize,
        columns: &mut Vec<Option<Vec<u64>>>,
    ) -> Vec<u64> {
        if let Some(c) = &columns[id.index()] {
            return c.clone();
        }
        let words = states.div_ceil(64);
        let c = match tree.node(id).kind() {
            NodeKind::Gate { kind, inputs } => {
                let ins: Vec<Vec<u64>> = inputs
                    .iter()
                    .map(|&i| column(tree, i, leaves, states, columns))
                    .collect();
                let fold = |unit: u64, op: fn(u64, u64) -> u64| {
                    (0..words)
                        .map(|w| ins.iter().fold(unit, |acc, c| op(acc, c[w])))
                        .collect::<Vec<u64>>()
                };
                match kind {
                    GateKind::And | GateKind::Inhibit => fold(!0, |a, b| a & b),
                    GateKind::Or => fold(0, |a, b| a | b),
                    GateKind::KOfN(k) => {
                        // at_least[j]: at least j of the inputs seen so far fail.
                        let mut at_least = vec![vec![0u64; words]; k + 1];
                        at_least[0] = vec![!0; words];
                        for input in &ins {
                            for j in (1..=*k).rev() {
                                for w in 0..words {
                                    at_least[j][w] |= at_least[j - 1][w] & input[w];
                                }
                            }
                        }
                        at_least.swap_remove(*k)
                    }
                }
            }
            _ => {
                let leaf = tree.leaf_index(id).expect("a leaf has a slot");
                let b = leaves.binary_search(&leaf).expect("a reachable leaf");
                let mut c = vec![0u64; words];
                for s in (0..states).filter(|s| s >> b & 1 == 1) {
                    c[s / 64] |= 1 << (s % 64);
                }
                c
            }
        };
        columns[id.index()] = Some(c.clone());
        c
    }

    /// Sums `terms` (a power-of-two count) pairwise, so rounding error
    /// grows with the logarithm of the state count.
    fn pairwise_sum(terms: impl Iterator<Item = f64>) -> f64 {
        let mut t: Vec<f64> = terms.collect();
        while t.len() > 1 {
            let half = t.len() / 2;
            for i in 0..half {
                t[i] = t[2 * i] + t[2 * i + 1];
            }
            t.truncate(half);
        }
        t[0]
    }
}

use oracle::TruthTable;

/// Random trees enumerated per run; their reachable leaves stay ≤ 16.
const SEEDS: u64 = 64;

/// Inclusion–exclusion is checked on collections of at most this many
/// cut sets (2¹² terms); larger ones cost seconds in a debug build.
const IE_MAX_CUT_SETS: usize = 12;

fn assert_close(got: f64, want: f64, what: &str) {
    assert_within(got, want, 0.0, what);
}

/// `got` equals `want` to 1e-12 relative to the larger of the two and
/// `scale`.
fn assert_within(got: f64, want: f64, scale: f64, what: &str) {
    let tol = 1e-12 * got.abs().max(want.abs()).max(scale);
    assert!(
        (got - want).abs() <= tol,
        "{what}: {got:e} vs oracle {want:e} (diff {:e})",
        got - want
    );
}

fn sorted_sets(c: &CutSetCollection) -> Vec<Vec<usize>> {
    let mut sets: Vec<Vec<usize>> = c.iter().map(|cs| cs.iter().collect()).collect();
    sets.sort();
    sets
}

/// A leaf probability: one in ten a house event (exactly 0 or 1),
/// otherwise uniform or log-uniform down to 1e-5.
fn draw_probability(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..20) {
        0 => 0.0,
        1 => 1.0,
        2..=10 => rng.gen_range(0.02..0.98),
        _ => 10f64.powf(-rng.gen_range(1.0..5.0)),
    }
}

/// `random_tree(config, seed)` copied into a fresh tree with per-leaf
/// probabilities and some gates wrapped in INHIBIT gates (conditions
/// shared between them), under a new root that ORs the old one with a
/// gate over two existing gates (shared subtrees) and, for every other
/// seed, a 2-of-3 vote over fresh leaves (an independent module).
fn decorated_tree(seed: u64) -> FaultTree {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let config = RandomTreeConfig {
        num_leaves: rng.gen_range(3..=10),
        num_gates: rng.gen_range(2..=9),
        max_inputs: rng.gen_range(2..=4),
        leaf_probability: 0.5,
        gate_reuse: rng.gen_range(0.0..0.7),
    };
    let base = random_tree(config, seed);
    let mut ft = FaultTree::new(format!("decorated-{seed}"));
    let mut map: Vec<Option<NodeId>> = vec![None; base.len()];
    let mut conditions: Vec<NodeId> = Vec::new();
    let mut gates: Vec<NodeId> = Vec::new();
    for (id, node) in base.iter() {
        let new = match node.kind() {
            NodeKind::BasicEvent { .. } => ft
                .basic_event_with_probability(node.name(), draw_probability(&mut rng))
                .unwrap(),
            NodeKind::Condition { .. } => ft
                .condition_with_probability(node.name(), draw_probability(&mut rng))
                .unwrap(),
            NodeKind::Gate { kind, inputs } => {
                let ins: Vec<NodeId> = inputs.iter().map(|i| map[i.index()].unwrap()).collect();
                let name = node.name();
                let gate = match kind {
                    GateKind::And => ft.and_gate(name, ins),
                    GateKind::Or => ft.or_gate(name, ins),
                    GateKind::KOfN(k) => ft.k_of_n_gate(name, *k, ins),
                    GateKind::Inhibit => ft.inhibit_gate(name, ins[0], ins[1]),
                }
                .unwrap();
                if rng.gen_range(0..10) < 3 {
                    // Reuse a condition half the time once one exists.
                    let cond = if conditions.len() < 3 && (conditions.is_empty() || rng.gen()) {
                        let c = ft
                            .condition_with_probability(
                                format!("c{}", conditions.len()),
                                draw_probability(&mut rng),
                            )
                            .unwrap();
                        conditions.push(c);
                        c
                    } else {
                        conditions[rng.gen_range(0..conditions.len())]
                    };
                    ft.inhibit_gate(format!("inh_{name}"), gate, cond).unwrap()
                } else {
                    gate
                }
            }
        };
        if matches!(node.kind(), NodeKind::Gate { .. }) {
            gates.push(new);
        }
        map[id.index()] = Some(new);
    }
    let old_root = map[base.root().unwrap().index()].unwrap();
    let mut tops = vec![old_root];
    gates.retain(|&g| g != old_root);
    if gates.len() >= 2 {
        let a = gates.swap_remove(rng.gen_range(0..gates.len()));
        let b = gates[rng.gen_range(0..gates.len())];
        tops.push(if rng.gen() {
            ft.and_gate("shared", [a, b]).unwrap()
        } else {
            let leaf = ft.leaf(rng.gen_range(0..ft.leaves().len()));
            ft.k_of_n_gate("shared", 2, [a, b, leaf]).unwrap()
        });
    }
    if seed % 2 == 1 {
        let fresh: Vec<NodeId> = (0..3)
            .map(|i| {
                let p = draw_probability(&mut rng);
                ft.basic_event_with_probability(format!("m{i}"), p).unwrap()
            })
            .collect();
        tops.push(ft.k_of_n_gate("module", 2, fresh).unwrap());
    }
    let top = ft.or_gate("top", tops).unwrap();
    ft.set_root(top).unwrap();
    ft
}

/// Per-leaf probabilities of `ft` as a dense vector.
fn stored(ft: &FaultTree) -> Vec<f64> {
    ft.stored_probabilities().unwrap().as_slice().to_vec()
}

/// Every leaf re-drawn, house events kept: a batch of points for the
/// lane sweeps.
fn perturbed(base: &[f64], rng: &mut StdRng) -> Vec<f64> {
    base.iter()
        .map(|&p| {
            if p == 0.0 || p == 1.0 {
                p
            } else {
                draw_probability(rng).clamp(1e-6, 1.0 - 1e-6)
            }
        })
        .collect()
}

#[test]
fn decorated_random_trees_match_the_oracle() {
    let mut checked_ie = 0;
    for seed in 0..SEEDS {
        let ft = decorated_tree(seed);
        ft.validate().unwrap();
        let table = TruthTable::new(&ft);
        assert!(table.is_monotone(), "seed {seed}: not coherent");
        let probs = stored(&ft);
        let pm = ProbabilityMap::new(probs.clone()).unwrap();
        let exact = table.probability(&probs);
        let tag = |what: &str| format!("seed {seed}: {what}");

        // Cut sets: both engines against the minimal true states.
        let want = table.minimal_cut_sets();
        let by_bottom_up = mcs::bottom_up(&ft).unwrap();
        assert_eq!(sorted_sets(&by_bottom_up), want, "{}", tag("bottom-up"));
        assert_eq!(
            sorted_sets(&mcs::mocus(&ft).unwrap()),
            want,
            "{}",
            tag("mocus")
        );

        // Monolithic BDDs under the default and a permuted order.
        let bdd = TreeBdd::build(&ft).unwrap();
        assert_close(bdd.probability(&pm).unwrap(), exact, &tag("BDD"));
        let mut order: Vec<usize> = (0..ft.leaves().len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let permuted = TreeBdd::build_with_order(&ft, order).unwrap();
        assert_close(
            permuted.probability(&pm).unwrap(),
            exact,
            &tag("permuted BDD"),
        );

        // Preprocessing with the house events folded, then a BDD and a
        // modular plan of what is left.
        let constants = |slot: usize| {
            let p = probs[slot];
            (p == 0.0 || p == 1.0).then_some(p == 1.0)
        };
        match preprocess_with_constants(&ft, constants).unwrap().outcome {
            PreprocessOutcome::Tree(t) => {
                let p = TreeBdd::build(&t).unwrap().probability(&pm).unwrap();
                assert_close(p, exact, &tag("preprocessed BDD"));
                let p = ModularPlan::build(&t).unwrap().probability(&probs);
                assert_close(p, exact, &tag("preprocessed plan"));
            }
            PreprocessOutcome::Constant(v) => {
                assert_close(if v { 1.0 } else { 0.0 }, exact, &tag("constant"));
            }
        }

        // The modular plan, its scalar fold and its Shannon leaf tape.
        let plan = ModularPlan::build(&ft).unwrap();
        assert_close(plan.probability(&probs), exact, &tag("plan"));
        let tape = plan.leaf_tape();
        assert_close(tape.eval(&probs), exact, &tag("tape"));
        // The adjoint forms each Birnbaum value from cofactor differences
        // `hi − lo`, whose rounding error scales with P(top | qᵢ = 1), not
        // with the difference.
        let birnbaum = table.birnbaum(&probs);
        let if_failed: Vec<f64> = (0..probs.len())
            .map(|leaf| {
                let mut forced = probs.clone();
                forced[leaf] = 1.0;
                table.probability(&forced)
            })
            .collect();
        for (what, (p, grad)) in [
            ("eval_grad", tape.eval_grad(&probs)),
            (
                "probability_and_birnbaum",
                plan.probability_and_birnbaum(&probs),
            ),
        ] {
            assert_close(p, exact, &tag(what));
            for (leaf, (&g, &b)) in grad.iter().zip(&birnbaum).enumerate() {
                let what = format!("{what} Birnbaum of leaf {leaf}");
                assert_within(g, b, if_failed[leaf], &tag(&what));
            }
        }

        // Lane-blocked batches at every width, inline and pooled.
        let points: Vec<Vec<f64>> = std::iter::once(probs.clone())
            .chain((0..6).map(|_| perturbed(&probs, &mut rng)))
            .collect();
        let want: Vec<f64> = points.iter().map(|p| table.probability(p)).collect();
        for threads in [1, 4] {
            for lanes in 1..=16 {
                let got = BatchEvaluator::new(&tape, threads)
                    .chunk_size(3)
                    .lanes(lanes)
                    .costs(&points)
                    .unwrap();
                for (k, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    let what = format!("batch point {k}, {threads} threads, {lanes} lanes");
                    assert_close(g, w, &tag(&what));
                }
            }
        }

        // Cut-set quantifications: exact and bounded.
        let rare = rare_event(&by_bottom_up, &pm).unwrap();
        let bound = min_cut_upper_bound(&by_bottom_up, &pm).unwrap();
        let slack = 1e-12 * rare;
        assert!(
            rare + slack >= bound,
            "{}",
            tag(&format!("rare {rare} < bound {bound}"))
        );
        assert!(
            bound + slack >= exact,
            "{}",
            tag(&format!("bound {bound} < exact {exact}"))
        );
        if by_bottom_up.len() <= IE_MAX_CUT_SETS {
            let ie = inclusion_exclusion(&by_bottom_up, &pm).unwrap();
            assert_close(ie, exact, &tag("inclusion-exclusion"));
            checked_ie += 1;
        }
    }
    assert!(
        checked_ie >= SEEDS / 2,
        "inclusion-exclusion ran on {checked_ie} trees"
    );
}

/// `top = AND(OR(a₁..a₉), OR(a₁∧b₁, …, a₉∧b₉))` equals its second OR,
/// but first-visit DFS orders every aᵢ before any bᵢ: ≈2¹⁰ BDD nodes,
/// above the plan's sifting threshold (512) and its 4×-inputs floor, so
/// `ModularPlan::build` re-orders it.
#[test]
fn modular_plan_sifts_a_badly_ordered_module() {
    let mut ft = FaultTree::new("sift");
    let a: Vec<NodeId> = (1..=9)
        .map(|i| {
            ft.basic_event_with_probability(format!("a{i}"), 0.05 * i as f64)
                .unwrap()
        })
        .collect();
    let b: Vec<NodeId> = (1..=9)
        .map(|i| {
            ft.basic_event_with_probability(format!("b{i}"), 0.93 - 0.09 * i as f64)
                .unwrap()
        })
        .collect();
    let any_a = ft.or_gate("any a", a.clone()).unwrap();
    let pairs: Vec<NodeId> = (0..9)
        .map(|i| {
            ft.and_gate(format!("a{}b{}", i + 1, i + 1), [a[i], b[i]])
                .unwrap()
        })
        .collect();
    let any_pair = ft.or_gate("any pair", pairs).unwrap();
    let top = ft.and_gate("top", [any_a, any_pair]).unwrap();
    ft.set_root(top).unwrap();

    let dfs = TreeBdd::build(&ft).unwrap().node_count();
    assert!(dfs > 512, "the DFS-order BDD has only {dfs} nodes");
    let plan = ModularPlan::build(&ft).unwrap();
    assert!(
        plan.node_count() < dfs,
        "plan {} nodes vs DFS order {dfs}: the sifting branch did not run",
        plan.node_count()
    );
    let probs = stored(&ft);
    assert_close(
        plan.probability(&probs),
        TruthTable::new(&ft).probability(&probs),
        "sifted plan",
    );
}

/// The paper's two fault trees: their cut sets are the oracle's.
#[test]
fn paper_fault_trees_have_the_oracle_cut_sets() {
    for ft in [collision_tree().unwrap(), false_alarm_tree().unwrap()] {
        let want = TruthTable::new(&ft).minimal_cut_sets();
        assert_eq!(want.len(), 4, "{}", ft.name());
        assert_eq!(
            sorted_sets(&mcs::bottom_up(&ft).unwrap()),
            want,
            "{}",
            ft.name()
        );
    }
}

/// The trees `ElbtunnelModel::build_from_trees` quantifies, rebuilt
/// leaf for leaf: collision = OR(INHIBIT(OT1 ∨ OT2, crit), Pconst1),
/// false alarm = OR(INHIBIT(HV_ODfinal, active), Pconst2).
fn trees_model_trees() -> [FaultTree; 2] {
    let mut col = FaultTree::new("collision");
    let ot1 = col.basic_event("OT1").unwrap();
    let ot2 = col.basic_event("OT2").unwrap();
    let crit = col.condition("OHV critical").unwrap();
    let chain = col.or_gate("a timer runs out", [ot1, ot2]).unwrap();
    let armed = col.inhibit_gate("OHV collides", chain, crit).unwrap();
    let resid = col.basic_event("Pconst1").unwrap();
    let top = col.or_gate("collision", [armed, resid]).unwrap();
    col.set_root(top).unwrap();

    let mut alr = FaultTree::new("false-alarm");
    let hv = alr.basic_event("HV_ODfinal").unwrap();
    let active = alr.condition("ODfinal active").unwrap();
    let armed = alr
        .inhibit_gate("spurious stop in zone 2", hv, active)
        .unwrap();
    let resid = alr.basic_event("Pconst2").unwrap();
    let top = alr.or_gate("false alarm", [armed, resid]).unwrap();
    alr.set_root(top).unwrap();
    [col, alr]
}

/// At the paper's optimum the BDD-exact trees model, scalar and
/// compiled, gives the oracle's hazard probabilities under the model's
/// own leaf probabilities.
#[test]
fn paper_optimum_hazards_match_the_oracle() {
    let m = ElbtunnelModel::paper();
    let model = m.build_from_trees(QuantMethod::BddExact).unwrap();
    let (t1, t2) = PAPER_OPTIMUM_MIN;
    let x = [t1, t2];
    let params = ParamValues::new(&x);
    let scalar = model.hazard_probabilities(&x).unwrap();
    let compiled = CompiledModel::compile(&model).unwrap();
    let (costs, rows) = compiled.cost_and_hazards_batch(&[x.to_vec()]).unwrap();

    let mut oracle_cost = 0.0;
    for (h, (tree, (hazard, &cost))) in trees_model_trees()
        .iter()
        .zip(model.hazards().iter().zip(model.costs()))
        .enumerate()
    {
        // The rebuilt tree is the model's: same leaves, same cut sets.
        let exact = hazard.exact().expect("a tree-built hazard");
        let names: Vec<&str> = (0..tree.leaves().len())
            .map(|i| exact.leaf_name(i))
            .collect();
        let rebuilt: Vec<&str> = tree
            .leaves()
            .iter()
            .map(|&id| tree.node(id).name())
            .collect();
        assert_eq!(names, rebuilt, "hazard {h}: leaves");
        let mut model_sets: Vec<String> = hazard
            .cut_sets()
            .iter()
            .map(|c| c.name().to_owned())
            .collect();
        let table = TruthTable::new(tree);
        let mut oracle_sets: Vec<String> = table
            .minimal_cut_sets()
            .iter()
            .map(|s| s.iter().map(|&l| names[l]).collect::<Vec<_>>().join(" & "))
            .collect();
        model_sets.sort();
        oracle_sets.sort();
        assert_eq!(model_sets, oracle_sets, "hazard {h}: cut sets");

        let q: Vec<f64> = (0..tree.leaves().len())
            .map(|i| exact.leaf_expr(i).unwrap().eval(&params).unwrap())
            .collect();
        let p = table.probability(&q);
        assert_close(scalar[h], p, &format!("hazard {h}, scalar"));
        assert_close(rows[h], p, &format!("hazard {h}, compiled"));
        oracle_cost += cost * p;
    }
    assert_close(costs[0], oracle_cost, "cost");
    assert!(
        (oracle_cost - 4.650e-3).abs() < 5e-6,
        "cost at the paper optimum: {oracle_cost:e}"
    );
}
