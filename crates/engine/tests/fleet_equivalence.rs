//! The fleet's equivalence contract, adversarially: evaluating a model
//! through a [`Fleet`] — masked per-model sweeps, full-arena sweeps, and
//! every [`FleetEvaluator`] entry point — is **bit-identical** (0 ULP)
//! to compiling and evaluating that model's standalone [`Tape`], across
//! random model families (shared structure + per-model perturbed
//! constants, including NaN-producing opaque closures), random point
//! batches and seeds, and thread counts 1, 2, 4, 7.
//!
//! The random-family machinery is shared with the `soa_equivalence`
//! suite (`tests/common/mod.rs`).

mod common;

use common::{bits, compile_family, family_strategy, random_points, FactorSpec};
use proptest::prelude::*;
use safety_opt_engine::fleet::FleetEvaluator;
use safety_opt_engine::tape::Tape;
use safety_opt_engine::BatchEvaluator;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Masked per-model fleet evaluation is the standalone tape, bit for
    // bit — costs and hazard outputs, including NaN propagation.
    #[test]
    fn fleet_matches_standalone_tapes_bitwise(
        spec in family_strategy(),
        seed in any::<u64>(),
    ) {
        let (fleet, tapes) = compile_family(&spec);
        let mut scratch = Vec::new();
        for p in random_points(17, seed) {
            for (k, tape) in tapes.iter().enumerate() {
                prop_assert_eq!(fleet.model_ops(k), tape.n_ops(), "mask size, model {}", k);
                let n_out = tape.n_outputs();
                let mut fleet_out = vec![0.0; n_out];
                let mut tape_out = vec![0.0; n_out];
                let fc = fleet.eval_model_into(k, &p, &mut scratch, &mut fleet_out);
                let tc = tape.eval_into(&p, &mut Vec::new(), &mut tape_out);
                prop_assert_eq!(
                    fc.to_bits(), tc.to_bits(),
                    "cost of model {} at {:?}: fleet {} vs tape {}", k, &p, fc, tc
                );
                prop_assert_eq!(bits(&fleet_out), bits(&tape_out), "outputs of model {}", k);
            }
        }
    }

    // Full-arena sweeps (shared ops computed once for all models) agree
    // with masked sweeps and standalone tapes, bit for bit.
    #[test]
    fn full_sweep_matches_standalone_tapes_bitwise(
        spec in family_strategy(),
        seed in any::<u64>(),
    ) {
        let (fleet, tapes) = compile_family(&spec);
        let mut scratch = Vec::new();
        for p in random_points(11, seed) {
            let mut costs = vec![0.0; fleet.n_models()];
            let mut outputs = vec![0.0; fleet.total_outputs()];
            fleet.eval_all_into(&p, &mut scratch, &mut costs, &mut outputs);
            for (k, tape) in tapes.iter().enumerate() {
                let mut tape_out = vec![0.0; tape.n_outputs()];
                let tc = tape.eval_into(&p, &mut Vec::new(), &mut tape_out);
                prop_assert_eq!(costs[k].to_bits(), tc.to_bits(), "cost of model {}", k);
                prop_assert_eq!(
                    bits(&outputs[fleet.output_range(k)]),
                    bits(&tape_out),
                    "outputs of model {}", k
                );
            }
        }
    }

    // Every FleetEvaluator entry point is independent of thread count
    // and chunk size (1, 2, 4, 7 workers), and equal to the standalone
    // BatchEvaluator at the same thread counts.
    #[test]
    fn fleet_pool_is_thread_count_independent(
        spec in family_strategy(),
        seed in any::<u64>(),
        chunk in 1usize..40,
    ) {
        let (fleet, tapes) = compile_family(&spec);
        let points = random_points(97, seed);
        let reference = FleetEvaluator::new(&fleet, 1).costs_all(&points).unwrap();
        let (ref_c, ref_o) = FleetEvaluator::new(&fleet, 1).costs_and_outputs_all(&points).unwrap();
        prop_assert_eq!(bits(&reference), bits(&ref_c));
        for threads in [1usize, 2, 4, 7] {
            let ev = FleetEvaluator::new(&fleet, threads).chunk_size(chunk);
            prop_assert_eq!(
                bits(&ev.costs_all(&points).unwrap()), bits(&reference),
                "costs_all, {} threads", threads
            );
            let (c, o) = ev.costs_and_outputs_all(&points).unwrap();
            prop_assert_eq!(bits(&c), bits(&ref_c), "costs, {} threads", threads);
            prop_assert_eq!(bits(&o), bits(&ref_o), "outputs, {} threads", threads);
            for (k, tape) in tapes.iter().enumerate() {
                let mc = ev.model_costs(k, &points).unwrap();
                let standalone = BatchEvaluator::new(tape, threads)
                    .chunk_size(chunk)
                    .costs(&points).unwrap();
                prop_assert_eq!(
                    bits(&mc), bits(&standalone),
                    "model_costs vs BatchEvaluator, model {}, {} threads", k, threads
                );
                for (i, &v) in mc.iter().enumerate() {
                    prop_assert_eq!(
                        v.to_bits(),
                        reference[i * fleet.n_models() + k].to_bits(),
                        "model_costs vs costs_all, model {}", k
                    );
                }
            }
        }
    }

    // Cross-model hash-consing: a family whose models are *identical*
    // collapses to the op count of a single model, and every arena is
    // never larger than the sum of its standalone tapes.
    #[test]
    fn sharing_is_bounded_and_tight_for_identical_models(
        spec in family_strategy(),
    ) {
        let (fleet, tapes) = compile_family(&spec);
        let per_model: usize = tapes.iter().map(Tape::n_ops).sum();
        prop_assert!(fleet.tape().n_ops() <= per_model);

        // Strip the variation: all models identical -> perfect sharing.
        let mut shared = spec.clone();
        fn freeze(f: &mut FactorSpec) {
            match f {
                FactorSpec::Constant { vary, .. } | FactorSpec::Exposure { vary, .. } => {
                    *vary = false
                }
                FactorSpec::Overtime { .. } => {}
                FactorSpec::Complement(inner) | FactorSpec::Scaled(_, inner) => freeze(inner),
                FactorSpec::Product(terms) | FactorSpec::Sum(terms) => {
                    terms.iter_mut().for_each(freeze)
                }
                FactorSpec::Ite(p, hi, lo) => {
                    freeze(p);
                    freeze(hi);
                    freeze(lo);
                }
                FactorSpec::Closure { vary, .. } => *vary = false,
            }
        }
        let mut has_closure = false;
        for (cut_sets, _) in &mut shared.hazards {
            for factors in cut_sets {
                for f in factors.iter_mut() {
                    freeze(f);
                    // Closures still never share across models (distinct
                    // identities, like distinct expression nodes).
                    has_closure |= format!("{f:?}").contains("Closure");
                }
            }
        }
        if !has_closure {
            let (frozen, frozen_tapes) = compile_family(&shared);
            prop_assert_eq!(frozen.tape().n_ops(), frozen_tapes[0].n_ops());
        }
    }
}
