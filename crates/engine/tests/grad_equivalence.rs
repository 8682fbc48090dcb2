//! The adjoint pass's equivalence contract, adversarially: reverse-mode
//! gradients of random tapes — clamped `Exposure`/`Overtime` branches,
//! saturating `SumClamp`s, NaN-poisoned opaque closures, hash-consed
//! sharing — agree with central differences of the whole tape within a
//! mixed absolute/relative tolerance (≤1e-6 relative away from clamp
//! kinks), and [`BatchEvaluator::eval_grad_batch`] is **bit-identical**
//! across thread counts 1/4 and chunk sizes to the pointwise
//! [`Tape::eval_grad`].
//!
//! Finite differences are a *noisy* reference: near a clamp kink the
//! one-sided truth differs from the symmetric difference, and deep in a
//! weighted tail the subtraction cancels. The comparison therefore
//! evaluates the reference at two step sizes and Richardson-extrapolates;
//! a component where the two steps disagree (a kink inside the stencil,
//! or curvature the stencil cannot resolve) is skipped, and the
//! cancellation floor `ε·|f|/h` joins the tolerance. Test points are
//! additionally sampled away from the structural kink loci (the
//! exposure/overtime clamp at 0, the closures' NaN threshold at 30) so
//! the skips stay rare rather than masking the suite.
//!
//! The random-family machinery is shared with the `fleet_equivalence`
//! and `soa_equivalence` suites (`tests/common/mod.rs`).

mod common;

use common::{bits, compile_family, family_strategy, random_points, smooth_closures, DIM};
use proptest::prelude::*;
use safety_opt_engine::{BatchEvaluator, Tape};

/// Deterministic quasi-random points over the kink-avoiding domain
/// `[-8, -0.5] ∪ [0.5, 28.5] ∪ [31.5, 40]`: negative coordinates pin
/// the exposure/overtime clamped branches (flat on both stencil sides),
/// while the margins keep every finite-difference stencil away from the
/// clamp at 0 and the poison threshold at 30.
fn kink_avoiding_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let segments: [(f64, f64); 3] = [(-8.0, -0.5), (0.5, 28.5), (31.5, 40.0)];
    let total: f64 = segments.iter().map(|(lo, hi)| hi - lo).sum();
    let mut state = seed | 1;
    let mut next = || {
        // SplitMix64: cheap, deterministic, good enough for scatter.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    (0..n)
        .map(|_| {
            (0..DIM)
                .map(|_| {
                    let mut u = next() * total;
                    for (lo, hi) in segments {
                        if u <= hi - lo {
                            return lo + u;
                        }
                        u -= hi - lo;
                    }
                    segments[2].1
                })
                .collect()
        })
        .collect()
}

/// Central difference of the whole tape along coordinate `i` with
/// step `h`.
fn central_diff(tape: &Tape, x: &[f64], i: usize, h: f64) -> f64 {
    let mut p = x.to_vec();
    p[i] = x[i] + h;
    let fp = tape.eval(&p);
    p[i] = x[i] - h;
    let fm = tape.eval(&p);
    (fp - fm) / (2.0 * h)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    // Adjoint gradients vs. Richardson-extrapolated central differences
    // on random tapes (closures forced onto their smooth form so the
    // reference differentiates the same function the adjoint does).
    #[test]
    fn adjoint_matches_central_differences(
        spec in family_strategy(),
        seed in any::<u64>(),
    ) {
        let mut spec = spec;
        smooth_closures(&mut spec);
        let (_, tapes) = compile_family(&spec);
        let points = kink_avoiding_points(16, seed);
        for tape in tapes.iter().take(2) {
            // Guards against a vacuous pass: the kink/cancellation skip
            // below must stay the exception, not swallow the suite.
            let mut compared = 0usize;
            for x in &points {
                let (cost, grad) = tape.eval_grad(x);
                // The embedded forward pass is the plain evaluation,
                // bit for bit (NaN included).
                prop_assert_eq!(cost.to_bits(), tape.eval(x).to_bits());
                if !cost.is_finite() {
                    // NaN region (poisoned closure): the reference
                    // differences NaN against NaN; nothing to compare.
                    continue;
                }
                for i in 0..DIM {
                    let h = 1e-4 * x[i].abs().max(1.0);
                    let f1 = central_diff(tape, x, i, h);
                    let f2 = central_diff(tape, x, i, h / 2.0);
                    let richardson = (4.0 * f2 - f1) / 3.0;
                    let scale = grad[i].abs().max(richardson.abs());
                    // Subtractive-cancellation floor of the reference.
                    let floor = 16.0 * f64::EPSILON * cost.abs() / h + 1e-12;
                    if !richardson.is_finite()
                        || (f1 - f2).abs() > 1e-5 * scale + floor
                    {
                        // A kink inside the stencil (e.g. a SumClamp
                        // saturating between the probes) or curvature
                        // the stencil cannot resolve: the reference is
                        // unusable here, not the adjoint.
                        continue;
                    }
                    prop_assert!(
                        (grad[i] - richardson).abs() <= 1e-6 * scale + floor,
                        "∂f/∂x{} at {:?}: adjoint {} vs reference {} (floor {})",
                        i, x, grad[i], richardson, floor
                    );
                    compared += 1;
                }
            }
            prop_assert!(
                compared > 0,
                "every comparison was skipped — the suite would pass vacuously"
            );
        }
    }

    // Batched gradients: bit-identical to the pointwise adjoint for
    // every thread count and chunk size — the NaN-poisoned,
    // kink-exercising original closures included (determinism needs no
    // smoothness).
    #[test]
    fn grad_batch_is_thread_and_chunk_independent(
        spec in family_strategy(),
        seed in any::<u64>(),
        chunk in 1usize..40,
    ) {
        let (_, tapes) = compile_family(&spec);
        let points = random_points(61, seed);
        for tape in tapes.iter().take(2) {
            let (ref_costs, ref_grads) = BatchEvaluator::new(tape, 1).eval_grad_batch(&points).unwrap();
            for (i, p) in points.iter().enumerate() {
                let (cost, grad) = tape.eval_grad(p);
                prop_assert_eq!(cost.to_bits(), ref_costs[i].to_bits());
                prop_assert_eq!(
                    bits(&grad),
                    bits(&ref_grads[i * DIM..(i + 1) * DIM])
                );
            }
            for threads in [1usize, 4] {
                let (c, g) = BatchEvaluator::new(tape, threads)
                    .chunk_size(chunk)
                    .eval_grad_batch(&points).unwrap();
                prop_assert_eq!(bits(&c), bits(&ref_costs), "costs, {} threads", threads);
                prop_assert_eq!(bits(&g), bits(&ref_grads), "grads, {} threads", threads);
            }
        }
    }
}
