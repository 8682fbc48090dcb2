//! The preprocessing/modularization equivalence contract, adversarially.
//!
//! Two layers, each against an independent oracle:
//!
//! 1. **Rewrite exactness** — [`preprocess`] must not move any hazard
//!    probability: the preprocessed tree agrees with the raw tree under
//!    the monolithic [`TreeBdd`] to ≤ 1e-12 relative, over k-of-n
//!    ladders, shared-subtree DAGs, INHIBIT wrappers, house-event 0/1
//!    leaves, and random trees with leaves forced to exact constants.
//! 2. **Modular composition** — the per-module [`ModularPlan`] agrees
//!    with the monolithic BDD of the same tree, both through the scalar
//!    fold and through the compiled op-tape; and the compiled tape's
//!    lane-blocked batch sweep is **bit-identical** to its pointwise
//!    sweep at thread counts 1 and 4.

use safety_opt_engine::BatchEvaluator;
use safety_opt_fta::bdd::TreeBdd;
use safety_opt_fta::modular::ModularPlan;
use safety_opt_fta::preprocess::{preprocess, PreprocessOutcome};
use safety_opt_fta::synth::{modular_tree, random_tree, ModularTreeConfig, RandomTreeConfig};
use safety_opt_fta::tree::FaultTree;

/// Deterministic pseudo-random probability in `(0, 1)` for leaf `i`.
fn mix(seed: u64, i: usize) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(i as u64 + 1);
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58476d1ce4e5b9);
    z ^= z >> 27;
    0.01 + 0.98 * ((z >> 11) as f64 / (1u64 << 53) as f64)
}

/// Raw-vs-preprocessed agreement under the monolithic BDD oracle.
fn assert_preprocess_exact(ft: &FaultTree, tag: &str) {
    let pm = ft.stored_probabilities().unwrap();
    let raw = TreeBdd::build(ft).unwrap().probability(&pm).unwrap();
    let pre = preprocess(ft).unwrap();
    let got = match &pre.outcome {
        PreprocessOutcome::Tree(t) => TreeBdd::build(t).unwrap().probability(&pm).unwrap(),
        PreprocessOutcome::Constant(b) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
    };
    let scale = raw.abs().max(1.0);
    assert!(
        (raw - got).abs() <= 1e-12 * scale,
        "{tag}: raw {raw} vs preprocessed {got}"
    );
}

/// Modular-vs-monolithic agreement: scalar fold, compiled tape, and
/// bit-identity of the batch sweep with the pointwise sweep across
/// thread counts.
fn assert_modular_exact(ft: &FaultTree, tag: &str) {
    let pre = preprocess(ft).unwrap();
    let t = match &pre.outcome {
        PreprocessOutcome::Tree(t) => t,
        PreprocessOutcome::Constant(_) => return, // nothing modular to test
    };
    let pm = t.stored_probabilities().unwrap();
    let mono = TreeBdd::build(t).unwrap().probability(&pm).unwrap();
    let plan = ModularPlan::build(t).unwrap();
    let probs: Vec<f64> = (0..t.leaves().len())
        .map(|i| t.node(t.leaf(i)).probability().unwrap())
        .collect();

    let scalar = plan.probability(&probs);
    let scale = mono.abs().max(1.0);
    assert!(
        (mono - scalar).abs() <= 1e-12 * scale,
        "{tag}: monolithic {mono} vs modular scalar {scalar}"
    );

    let tape = plan.leaf_tape();
    let (tape_p, _grad) = tape.eval_grad(&probs);
    assert!(
        (mono - tape_p).abs() <= 1e-12 * scale,
        "{tag}: monolithic {mono} vs modular tape {tape_p}"
    );
    // The scalar fold is the tape's float-for-float twin.
    assert_eq!(
        scalar.to_bits(),
        tape_p.to_bits(),
        "{tag}: scalar fold must replay the tape bitwise"
    );

    // Bit-identity of the batch sweep with the pointwise sweep, across
    // thread counts, on a batch of perturbed points.
    let points: Vec<Vec<f64>> = (0..37)
        .map(|k| {
            probs
                .iter()
                .enumerate()
                .map(|(i, &p)| (p * (0.5 + mix(k as u64, i))).clamp(0.0, 1.0))
                .collect()
        })
        .collect();
    let mut scratch = Vec::new();
    let mut out = vec![0.0; tape.n_outputs()];
    let reference: Vec<f64> = points
        .iter()
        .map(|p| tape.eval_into(p, &mut scratch, &mut out))
        .collect();
    for threads in [1usize, 4] {
        let got = BatchEvaluator::new(&tape, threads).costs(&points);
        for (k, (a, b)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{tag}: point {k} differs under {threads} threads"
            );
        }
    }
}

/// k-of-n ladders: stacked voters over overlapping leaf windows — the
/// normalization path (k-of-n → AND/OR of expansions) must stay exact.
#[test]
fn kofn_ladders_are_exact() {
    for n in [3usize, 5, 7] {
        let mut ft = FaultTree::new(format!("ladder{n}"));
        let leaves: Vec<_> = (0..2 * n)
            .map(|i| {
                ft.basic_event_with_probability(format!("e{i}"), mix(n as u64, i))
                    .unwrap()
            })
            .collect();
        let mut rungs = Vec::new();
        for k in 1..=n {
            let window = leaves[k - 1..k - 1 + n].to_vec();
            rungs.push(ft.k_of_n_gate(format!("v{k}"), k, window).unwrap());
        }
        let top = ft.k_of_n_gate("top", 2, rungs).unwrap();
        ft.set_root(top).unwrap();
        assert_preprocess_exact(&ft, &format!("ladder n={n}"));
        assert_modular_exact(&ft, &format!("ladder n={n}"));
    }
}

/// Shared subtrees: one gate feeding three parents, leaves shared
/// across siblings — the exact DAG shape that once fooled the module
/// detector into splitting a non-module.
#[test]
fn shared_subtrees_are_exact() {
    let mut ft = FaultTree::new("shared");
    let e0 = ft.basic_event_with_probability("e0", 0.35).unwrap();
    let e1 = ft.basic_event_with_probability("e1", 0.15).unwrap();
    let e2 = ft.basic_event_with_probability("e2", 0.55).unwrap();
    let g0 = ft.or_gate("g0", [e1, e0]).unwrap();
    let g1 = ft.and_gate("g1", [g0, e0]).unwrap();
    let g2 = ft.or_gate("g2", [g0, e0]).unwrap();
    let top = ft.or_gate("top", [g2, g1, g0, e2]).unwrap();
    ft.set_root(top).unwrap();
    assert_preprocess_exact(&ft, "shared");
    assert_modular_exact(&ft, "shared");
}

/// INHIBIT gates with house-event conditions at both constants plus a
/// genuine probabilistic condition.
#[test]
fn inhibit_and_house_events_are_exact() {
    for (on, off) in [(1.0, 0.0), (1.0, 1.0), (0.0, 0.0)] {
        let mut ft = FaultTree::new("inhibit");
        let cause = ft.basic_event_with_probability("cause", 0.2).unwrap();
        let extra = ft.basic_event_with_probability("extra", 0.1).unwrap();
        let armed = ft.condition_with_probability("armed", on).unwrap();
        let bypass = ft.condition_with_probability("bypass", off).unwrap();
        let maybe = ft.condition_with_probability("maybe", 0.6).unwrap();
        let i1 = ft.inhibit_gate("i1", cause, armed).unwrap();
        let i2 = ft.inhibit_gate("i2", extra, bypass).unwrap();
        let i3 = ft.inhibit_gate("i3", cause, maybe).unwrap();
        let top = ft.or_gate("top", [i1, i2, i3]).unwrap();
        ft.set_root(top).unwrap();
        assert_preprocess_exact(&ft, &format!("inhibit on={on} off={off}"));
        assert_modular_exact(&ft, &format!("inhibit on={on} off={off}"));
    }
}

/// Random trees across reuse levels, with every fourth leaf forced to an
/// exact 0/1 constant so the constant-propagation path runs hot.
#[test]
fn random_trees_with_forced_constants_are_exact() {
    for seed in 0..200u64 {
        let config = RandomTreeConfig {
            num_leaves: 3 + (seed % 9) as usize,
            num_gates: 2 + (seed % 8) as usize,
            max_inputs: 2 + (seed % 4) as usize,
            leaf_probability: 0.3,
            gate_reuse: 0.1 + 0.08 * (seed % 10) as f64,
        };
        let base = random_tree(config, seed);
        // Rebuild with leaf probabilities replaced: every fourth leaf
        // becomes a house event (alternating 0/1), the rest pseudo-random.
        let text = safety_opt_fta::parse::to_text(&base).unwrap();
        let mut ft = safety_opt_fta::parse::parse(&text).unwrap();
        for i in 0..ft.leaves().len() {
            let p = match i % 4 {
                0 if seed % 2 == 0 => 0.0,
                0 => 1.0,
                _ => mix(seed, i),
            };
            ft.set_probability(ft.leaf(i), p).unwrap();
        }
        assert_preprocess_exact(&ft, &format!("random seed={seed}"));
        assert_modular_exact(&ft, &format!("random seed={seed}"));
    }
}

/// The deterministic modular family used by the throughput bench: it
/// must decompose into one module per block and still quantify exactly.
#[test]
fn modular_family_is_exact_and_actually_modular() {
    let ft = modular_tree(ModularTreeConfig {
        modules: 6,
        sections_per_module: 5,
        leaves_per_section: 3,
        leaf_probability: 1e-2,
    });
    assert_preprocess_exact(&ft, "modular family");
    assert_modular_exact(&ft, "modular family");

    let pre = preprocess(&ft).unwrap();
    let t = pre.tree().expect("family is not constant");
    let plan = ModularPlan::build(t).unwrap();
    assert!(
        plan.modules().len() > 6,
        "expected nested modules, got {}",
        plan.modules().len()
    );
    let mono = TreeBdd::build(t).unwrap().node_count();
    assert!(
        plan.largest_module_nodes() <= mono,
        "largest module ({}) must not exceed the monolithic BDD ({mono})",
        plan.largest_module_nodes()
    );
}
