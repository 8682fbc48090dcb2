//! The SoA **adjoint** sweep's equivalence contract, adversarially:
//! batched reverse-mode gradients of random tapes and random model
//! fleets — Shannon chains (`Op::Chain`), saturating `SumClamp`s,
//! NaN-poisoned opaque closures (which drop the whole lane block onto
//! the scalar fallback) — through the lane-blocked batch evaluators are
//! **bit-identical** (0 ULP) to the pointwise scalar adjoint
//! ([`safety_opt_engine::Tape::eval_grad_into`],
//! [`safety_opt_engine::Fleet::eval_model_grad_into`]), across
//! thread counts 1, 2, 4, 7, lane counts 1, 4, 8, 16 and odd
//! (exercising the monomorphized block widths, the rounding, and the
//! ragged scalar tail), and random chunk sizes.
//!
//! The lane kernels call the platform libm `exp`/`exp_m1` per lane,
//! exactly as the pointwise sweep does, which is what makes 0 ULP
//! attainable.
//!
//! The random-family machinery is shared with the `soa_equivalence`,
//! `fleet_equivalence`, and `grad_equivalence` suites
//! (`tests/common/mod.rs`).

mod common;

use common::{
    bits, compile_family, family_strategy, pointwise_grads, pointwise_model_grads, random_points,
    DIM,
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

    // Standalone tapes: the SoA adjoint equals the scalar adjoint, bit
    // for bit, for values and every gradient row — NaN closures (and
    // their lane-block scalar fallback) included.
    #[test]
    fn soa_adjoint_matches_scalar_adjoint_bitwise(
        spec in family_strategy(),
        seed in any::<u64>(),
        chunk in 1usize..40,
    ) {
        let (_, tapes) = compile_family(&spec);
        // Odd point count: every lane width leaves a ragged tail.
        let points = random_points(61, seed);
        for tape in tapes.iter().take(2) {
            let (ref_v, ref_g) = pointwise_grads(tape, &points);
            // The workspace-reusing oracle is the allocating adjoint.
            for (i, p) in points.iter().enumerate() {
                let (v, g) = tape.eval_grad(p);
                prop_assert_eq!(v.to_bits(), ref_v[i].to_bits());
                prop_assert_eq!(bits(&g), bits(&ref_g[i * DIM..(i + 1) * DIM]));
            }
            for threads in THREADS {
                for lanes in LANES {
                    let (v, g) = BatchEvaluator::new(tape, threads)
                        .chunk_size(chunk)
                        .lanes(lanes)
                        .eval_grad_batch(&points).unwrap();
                    prop_assert_eq!(
                        bits(&v), bits(&ref_v),
                        "values, {} threads, {} lanes", threads, lanes
                    );
                    prop_assert_eq!(
                        bits(&g), bits(&ref_g),
                        "grads, {} threads, {} lanes", threads, lanes
                    );
                }
            }
        }
    }

    // Fleets: the masked per-model SoA adjoint equals the pointwise
    // masked adjoint bit for bit (the 0-ULP sweep contract), and
    // both track the standalone per-model tape within an ulp-level
    // envelope. The standalone comparison is *not* bitwise by design:
    // cross-model hash-consing can place a shared subexpression's
    // consumers in a different arena order than a standalone compile,
    // and the adjoint's `+=` accumulation rounds in sweep order — the
    // shipped safety-model workloads are pinned bitwise by the
    // fleet-level golden suites, but adversarial random families can
    // legitimately differ by a few rounding steps, amplified by
    // subtractive cancellation inside the accumulated sums.
    #[test]
    fn soa_fleet_adjoint_matches_scalar_bitwise_and_standalone_closely(
        spec in family_strategy(),
        seed in any::<u64>(),
        chunk in 1usize..40,
    ) {
        let (fleet, tapes) = compile_family(&spec);
        let points = random_points(37, seed);
        for (k, tape) in tapes.iter().enumerate().take(2) {
            let (ref_v, ref_g) = pointwise_model_grads(&fleet, k, &points);
            // Masked arena sweep vs standalone tape: same NaN pattern,
            // ≤ 128 ulp everywhere (~3e-14 relative: a reordering
            // envelope — a masking bug would diverge structurally).
            let (tape_v, tape_g) = pointwise_grads(tape, &points);
            let monotone = |x: f64| {
                let t = x.to_bits() as i64;
                if t < 0 { i64::MIN - t } else { t }
            };
            for (a, b) in ref_v.iter().chain(&ref_g).zip(tape_v.iter().chain(&tape_g)) {
                prop_assert_eq!(a.is_nan(), b.is_nan(), "NaN pattern, model {}", k);
                if a.is_nan() {
                    continue;
                }
                let d = monotone(*a).abs_diff(monotone(*b));
                prop_assert!(d <= 128, "model {}: {} vs standalone {} ({} ulp)", k, a, b, d);
            }
            for threads in THREADS {
                for lanes in LANES {
                    let (v, g) = FleetEvaluator::new(&fleet, threads)
                        .chunk_size(chunk)
                        .lanes(lanes)
                        .model_grads(k, &points).unwrap();
                    prop_assert_eq!(
                        bits(&v), bits(&ref_v),
                        "values, model {}, {} threads, {} lanes", k, threads, lanes
                    );
                    prop_assert_eq!(
                        bits(&g), bits(&ref_g),
                        "grads, model {}, {} threads, {} lanes", k, threads, lanes
                    );
                }
            }
        }
    }
}
