//! The exact-quantification contract, adversarially: a model compiled
//! under [`QuantMethod::BddExact`] must agree with the fta crate's
//! per-point BDD oracle ([`quant::Method::BddExact`]) to ≤ 1e-12
//! relative on random synthetic trees — AND/OR/k-of-n structures from
//! [`synth::random_tree`], INHIBIT wrappers, shared subtrees, opaque
//! closures including NaN poisoning — at random parameter points; and
//! the compiled tape's lane-blocked batch sweep must be
//! **bit-identical** to its pointwise sweep at thread counts 1 and 4.

use proptest::prelude::*;
use safety_opt_core::compile::CompiledModel;
use safety_opt_core::model::{Hazard, QuantMethod, SafetyModel};
use safety_opt_core::param::{ParamId, ParameterSpace};
use safety_opt_core::pprob::{complement, constant, exposure, from_fn, overtime, ProbExpr};
use safety_opt_fta::bdd::TreeBdd;
use safety_opt_fta::modular::PlanInput;
use safety_opt_fta::quant::ProbabilityMap;
use safety_opt_fta::synth::{random_tree, RandomTreeConfig};
use safety_opt_fta::tree::FaultTree;
use safety_opt_stats::dist::TruncatedNormal;

const DIM: usize = 3;

/// One leaf-substitution recipe (applied per leaf index).
#[derive(Debug, Clone, Copy)]
enum LeafKind {
    Constant(f64),
    Exposure(f64, usize),
    Overtime(usize),
    ComplementExposure(f64, usize),
    /// Smooth closure into (0, 1); `poison` returns NaN for x0 > 35.
    Closure {
        coeff: f64,
        poison: bool,
    },
}

fn leaf_kind_strategy() -> impl Strategy<Value = LeafKind> {
    prop_oneof![
        (0.01f64..=0.99).prop_map(LeafKind::Constant),
        // Exact 0 and 1 are house events: `Hazard::from_fault_tree`
        // folds them out of the tree before building its BDDs, and the
        // raw-tree oracle below must still agree.
        Just(LeafKind::Constant(0.0)),
        Just(LeafKind::Constant(1.0)),
        (0.001f64..1.0, 0usize..DIM).prop_map(|(r, i)| LeafKind::Exposure(r, i)),
        (0usize..DIM).prop_map(LeafKind::Overtime),
        (0.001f64..1.0, 0usize..DIM).prop_map(|(r, i)| LeafKind::ComplementExposure(r, i)),
        (0.1f64..2.0, any::<bool>())
            .prop_map(|(coeff, poison)| LeafKind::Closure { coeff, poison }),
    ]
}

fn make_expr(kind: LeafKind, leaf: usize) -> ProbExpr {
    match kind {
        LeafKind::Constant(p) => constant(p).unwrap(),
        LeafKind::Exposure(rate, i) => exposure(rate, ParamId::new(i)),
        LeafKind::Overtime(i) => overtime(
            TruncatedNormal::lower_bounded(8.0, 4.0, 0.0).unwrap(),
            ParamId::new(i),
        ),
        LeafKind::ComplementExposure(rate, i) => complement(exposure(rate, ParamId::new(i))),
        LeafKind::Closure { coeff, poison } => from_fn(format!("closure{leaf}"), move |v| {
            let x0 = v.get(ParamId::new(0)).unwrap_or(f64::NAN);
            let x1 = v.get(ParamId::new(1)).unwrap_or(f64::NAN);
            if poison && x0 > 35.0 {
                f64::NAN
            } else {
                0.5 + 0.45 * (coeff * (x0 + 0.5 * x1)).sin()
            }
        }),
    }
}

/// A generated tree + substitution: the random structure, an optional
/// INHIBIT wrapper (condition leaf over the whole tree), and per-leaf
/// expression kinds.
#[derive(Debug, Clone)]
struct TreeSpec {
    seed: u64,
    num_leaves: usize,
    num_gates: usize,
    max_inputs: usize,
    gate_reuse: f64,
    inhibit: bool,
    kinds: Vec<LeafKind>,
}

fn tree_spec_strategy() -> impl Strategy<Value = TreeSpec> {
    (
        any::<u64>(),
        3usize..9,
        2usize..8,
        2usize..5,
        0.0f64..0.9,
        any::<bool>(),
        prop::collection::vec(leaf_kind_strategy(), 1..10),
    )
        .prop_map(
            |(seed, num_leaves, num_gates, max_inputs, gate_reuse, inhibit, kinds)| TreeSpec {
                seed,
                num_leaves,
                num_gates,
                max_inputs,
                gate_reuse,
                inhibit,
                kinds,
            },
        )
}

fn build_tree(spec: &TreeSpec) -> FaultTree {
    let mut ft = random_tree(
        RandomTreeConfig {
            num_leaves: spec.num_leaves,
            num_gates: spec.num_gates,
            max_inputs: spec.max_inputs,
            leaf_probability: 0.1,
            gate_reuse: spec.gate_reuse,
        },
        spec.seed,
    );
    if spec.inhibit {
        // Wrap the whole structure in an INHIBIT constraint — the
        // paper's Eq. 2 shape — with a fresh condition leaf.
        let root = ft.root().unwrap();
        let cond = ft.condition("constraint").unwrap();
        let top = ft.inhibit_gate("inhibited top", root, cond).unwrap();
        ft.set_root(top).unwrap();
    }
    ft
}

fn leaf_expr(spec: &TreeSpec, leaf: usize) -> ProbExpr {
    make_expr(spec.kinds[leaf % spec.kinds.len()], leaf)
}

fn space() -> ParameterSpace {
    let mut space = ParameterSpace::new();
    for d in 0..DIM {
        space.parameter(format!("p{d}"), 0.0, 40.0).unwrap();
    }
    space
}

fn points(seed: u64, n: usize) -> Vec<Vec<f64>> {
    // Deterministic quasi-random points over the domain, with a tail
    // planted in the closure-poison region (x0 > 35).
    (0..n)
        .map(|i| {
            let mix = |k: u64| {
                let mut z = seed
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add((i as u64) << 8)
                    .wrapping_add(k);
                z ^= z >> 30;
                z = z.wrapping_mul(0xbf58476d1ce4e5b9);
                z ^= z >> 27;
                (z >> 11) as f64 / (1u64 << 53) as f64
            };
            let mut p: Vec<f64> = (0..DIM).map(|d| 40.0 * mix(d as u64)).collect();
            if i % 8 == 7 {
                p[0] = 36.0 + 3.0 * mix(99);
            }
            p
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Compiled BDD-exact tape == per-point TreeBdd oracle, ≤ 1e-12 rel.
    #[test]
    fn compiled_exact_matches_bdd_oracle(
        spec in tree_spec_strategy(),
        pt_seed in any::<u64>(),
    ) {
        let ft = build_tree(&spec);
        let hazard = Hazard::from_fault_tree(&ft, |leaf| Ok(leaf_expr(&spec, leaf)))
            .map_err(|e| TestCaseError::fail(format!("hazard: {e}")))?;
        let exact = hazard.exact().expect("tree hazards capture their BDD").clone();
        let model = SafetyModel::new(space())
            .hazard(hazard, 1.0)
            .with_quant_method(QuantMethod::BddExact);
        let compiled = CompiledModel::compile(&model)
            .map_err(|e| TestCaseError::fail(format!("compile: {e}")))?;
        let bdd = TreeBdd::build(&ft).unwrap();

        // Leaves the folded BDD plan actually references (a NaN
        // elsewhere is unobservable: house-event folding may remove a
        // leaf the raw-tree oracle still branches on, but then the
        // leaf cannot change the result).
        let mut used = vec![false; ft.leaves().len()];
        for m in exact.plan().modules() {
            for node in &m.plan().nodes {
                if let PlanInput::Leaf(leaf) = m.input(node.leaf) {
                    used[leaf] = true;
                }
            }
        }

        for x in points(pt_seed, 24) {
            let got = compiled.cost(&x).unwrap();
            let params = safety_opt_core::param::ParamValues::new(&x);
            let mut q = vec![0.0; ft.leaves().len()];
            let mut poisoned = false;
            for (leaf, slot) in q.iter_mut().enumerate() {
                match leaf_expr(&spec, leaf).eval(&params) {
                    Ok(v) => *slot = v,
                    Err(_) if used[leaf] => poisoned = true,
                    Err(_) => {}
                }
            }
            if poisoned {
                // A failing opaque factor must surface as NaN on the
                // compiled path (the oracle has no number to offer).
                prop_assert!(got.is_nan(), "poisoned point {x:?} gave {got}");
                continue;
            }
            let pm = ProbabilityMap::new(q).unwrap();
            let want = bdd.probability(&pm).unwrap();
            let scale = want.abs().max(1.0);
            prop_assert!(
                (got - want).abs() <= 1e-12 * scale,
                "at {x:?}: compiled {got} vs oracle {want}"
            );
            // The scalar interpreter's exact path obeys the same bound.
            let scalar = model.cost(&x).unwrap();
            prop_assert!(
                (scalar - want).abs() <= 1e-12 * scale,
                "scalar at {x:?}: {scalar} vs oracle {want}"
            );
        }
    }

    // Thread counts and the batch sweep never change a single bit of
    // the pointwise sweep.
    #[test]
    fn exact_tape_is_bit_identical_across_threads_and_backends(
        spec in tree_spec_strategy(),
        pt_seed in any::<u64>(),
    ) {
        let ft = build_tree(&spec);
        let make = || {
            let hazard = Hazard::from_fault_tree(&ft, |leaf| Ok(leaf_expr(&spec, leaf)))
                .expect("hazard builds");
            SafetyModel::new(space())
                .hazard(hazard, 1000.0)
                .with_quant_method(QuantMethod::BddExact)
        };
        // Odd point count: every lane width leaves a ragged tail.
        let pts = points(pt_seed, 61);
        let reference = CompiledModel::compile_with_threads(&make(), 1).unwrap();
        let tape = reference.tape();
        let mut scratch = Vec::new();
        let mut ref_h = vec![0.0; pts.len() * tape.n_outputs()];
        let ref_c: Vec<f64> = pts
            .iter()
            .zip(ref_h.chunks_mut(tape.n_outputs()))
            .map(|(p, out)| tape.eval_into(p, &mut scratch, out))
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for threads in [1usize, 4] {
            let compiled = CompiledModel::compile_with_threads(&make(), threads).unwrap();
            let (c, h) = compiled.cost_and_hazards_batch(&pts).unwrap();
            prop_assert_eq!(bits(&c), bits(&ref_c), "costs, {} threads", threads);
            prop_assert_eq!(bits(&h), bits(&ref_h), "hazards, {} threads", threads);
        }
    }
}

/// Deterministic k-of-n and INHIBIT structures, pinned outside the
/// random sweep so shrinkage can never lose them.
#[test]
fn kofn_and_inhibit_trees_quantify_exactly() {
    // 2-of-3 vote over parameterized leaves under an INHIBIT condition.
    let mut ft = FaultTree::new("vote");
    let leaves: Vec<_> = (0..3)
        .map(|i| ft.basic_event(format!("e{i}")).unwrap())
        .collect();
    let vote = ft.k_of_n_gate("vote", 2, leaves).unwrap();
    let cond = ft.condition("armed").unwrap();
    let top = ft.inhibit_gate("top", vote, cond).unwrap();
    ft.set_root(top).unwrap();

    let t = ParamId::new(0);
    let hazard = Hazard::from_fault_tree(&ft, |leaf| {
        Ok(match leaf {
            0..=2 => exposure(0.05 * (leaf + 1) as f64, t),
            _ => constant(0.7).unwrap(),
        })
    })
    .unwrap();
    let model = SafetyModel::new(space())
        .hazard(hazard, 1.0)
        .with_quant_method(QuantMethod::BddExact);
    let compiled = CompiledModel::compile(&model).unwrap();
    let bdd = TreeBdd::build(&ft).unwrap();
    for x0 in [0.5, 3.0, 11.0, 27.0] {
        let x = [x0, 0.0, 0.0];
        let q: Vec<f64> = (0..3)
            .map(|i| 1.0 - (-0.05 * (i + 1) as f64 * x0).exp())
            .chain([0.7])
            .collect();
        let want = bdd.probability(&ProbabilityMap::new(q).unwrap()).unwrap();
        let got = compiled.cost(&x).unwrap();
        assert!(
            (got - want).abs() <= 1e-12 * want.max(1.0),
            "at t={x0}: {got} vs {want}"
        );
        // The exact binomial sanity check: P = q_armed · P(2-of-3).
        let p: Vec<f64> = (0..3)
            .map(|i| 1.0 - (-0.05 * (i + 1) as f64 * x0).exp())
            .collect();
        let two_of_three = p[0] * p[1] * (1.0 - p[2])
            + p[0] * (1.0 - p[1]) * p[2]
            + (1.0 - p[0]) * p[1] * p[2]
            + p[0] * p[1] * p[2];
        assert!((want - 0.7 * two_of_three).abs() < 1e-12);
    }
}
