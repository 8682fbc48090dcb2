//! The SoA sweep's equivalence contract, adversarially: evaluating
//! random tapes and random model fleets — including NaN-producing
//! opaque closures — through the lane-blocked batch evaluators is
//! **bit-identical** (0 ULP) to the pointwise scalar sweep
//! ([`safety_opt_engine::Tape::eval_into`],
//! [`safety_opt_engine::Fleet::eval_all_into`] /
//! [`safety_opt_engine::Fleet::eval_model_into`]), for every entry point
//! ([`BatchEvaluator`] costs / costs-and-outputs, [`FleetEvaluator`]
//! all-models / per-model), across thread counts 1, 2, 4, 7, lane
//! counts 1, 4, 8, 16 and odd (exercising the monomorphized block
//! widths, the rounding, and the ragged scalar tail), and random chunk
//! sizes.
//!
//! The random-family machinery and the pointwise oracles are shared
//! with the `fleet_equivalence` suite (`tests/common/mod.rs`).

mod common;

use common::{
    bits, compile_family, family_strategy, pointwise_all, pointwise_costs, pointwise_model,
    pointwise_outputs, random_points,
};
use proptest::prelude::*;
use safety_opt_engine::fleet::FleetEvaluator;
use safety_opt_engine::BatchEvaluator;

/// The adversarial lane-count matrix: the monomorphized widths, odd
/// requests that round down mid-batch, and 1 (every point is a tail).
const LANES: [usize; 6] = [1, 4, 5, 8, 11, 16];
const THREADS: [usize; 4] = [1, 2, 4, 7];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Standalone tapes: the SoA sweep equals the pointwise sweep, bit
    // for bit, for costs and per-output rows — NaN closures included.
    #[test]
    fn soa_tape_matches_scalar_bitwise(
        spec in family_strategy(),
        seed in any::<u64>(),
        chunk in 1usize..40,
    ) {
        let (_, tapes) = compile_family(&spec);
        // Odd point count: every lane width leaves a ragged tail.
        let points = random_points(61, seed);
        for tape in tapes.iter().take(2) {
            let reference = pointwise_costs(tape, &points);
            let (ref_c, ref_o) = pointwise_outputs(tape, &points);
            prop_assert_eq!(bits(&reference), bits(&ref_c));
            for threads in THREADS {
                for lanes in LANES {
                    let ev = BatchEvaluator::new(tape, threads)
                        .chunk_size(chunk)
                        .lanes(lanes);
                    prop_assert_eq!(
                        bits(&ev.costs(&points)), bits(&reference),
                        "costs, {} threads, {} lanes", threads, lanes
                    );
                    let (c, o) = ev.costs_and_outputs(&points);
                    prop_assert_eq!(
                        bits(&c), bits(&ref_c),
                        "costs_and_outputs costs, {} threads, {} lanes", threads, lanes
                    );
                    prop_assert_eq!(
                        bits(&o), bits(&ref_o),
                        "output rows, {} threads, {} lanes", threads, lanes
                    );
                }
            }
        }
    }

    // Fleets: every FleetEvaluator entry point equals the pointwise
    // fleet sweeps, bit for bit — full-arena sweeps, per-model masked
    // sweeps, and the flat output rows.
    #[test]
    fn soa_fleet_matches_scalar_bitwise(
        spec in family_strategy(),
        seed in any::<u64>(),
        chunk in 1usize..40,
    ) {
        let (fleet, _) = compile_family(&spec);
        let points = random_points(53, seed);
        let (ref_c, ref_o) = pointwise_all(&fleet, &points);
        let reference = ref_c.clone();
        let ref_models: Vec<Vec<f64>> = (0..fleet.n_models())
            .map(|k| pointwise_model(&fleet, k, &points))
            .collect();
        for threads in THREADS {
            for lanes in LANES {
                let ev = FleetEvaluator::new(&fleet, threads)
                    .chunk_size(chunk)
                    .lanes(lanes);
                prop_assert_eq!(
                    bits(&ev.costs_all(&points)), bits(&reference),
                    "costs_all, {} threads, {} lanes", threads, lanes
                );
                let (c, o) = ev.costs_and_outputs_all(&points);
                prop_assert_eq!(
                    bits(&c), bits(&ref_c),
                    "costs, {} threads, {} lanes", threads, lanes
                );
                prop_assert_eq!(
                    bits(&o), bits(&ref_o),
                    "outputs, {} threads, {} lanes", threads, lanes
                );
                for (k, reference_model) in ref_models.iter().enumerate() {
                    prop_assert_eq!(
                        bits(&ev.model_costs(k, &points)), bits(reference_model),
                        "model_costs, model {}, {} threads, {} lanes", k, threads, lanes
                    );
                }
            }
        }
    }

    // Tape::eval, the allocating single-point entry point, is the
    // anchor the batch sweep must reproduce.
    #[test]
    fn soa_agrees_with_pointwise_eval(
        spec in family_strategy(),
        seed in any::<u64>(),
    ) {
        let (_, tapes) = compile_family(&spec);
        let points = random_points(33, seed);
        let tape = &tapes[0];
        let soa = BatchEvaluator::new(tape, 1).costs(&points);
        for (p, &v) in points.iter().zip(&soa) {
            prop_assert_eq!(tape.eval(p).to_bits(), v.to_bits(), "at {:?}", p);
        }
    }
}
