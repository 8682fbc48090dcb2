//! Regression pin for the fleet-masked adjoint's accuracy envelope.
//!
//! The masked fleet **values** are bit-identical to the standalone
//! per-model tapes (golden-pinned in `fleet_equivalence`). The masked
//! adjoint **gradients** carry a documented caveat: cross-model
//! hash-consing can reorder a shared subexpression's consumers, which
//! reorders the adjoint accumulation and perturbs gradients at the ulp
//! level. This suite pins that envelope on a **deterministic**
//! adversarial family — `MulAdd` Shannon nodes, saturating `SumClamp`s,
//! NaN-poisoned opaque closures, heavy cross-model sharing — so the
//! measured distances are fixed numbers, not a proptest draw: every
//! fleet gradient component stays within **128 ulps** of the standalone
//! tape's adjoint, for the pointwise masked adjoint and the batched SoA
//! sweep at thread counts 1 and 4.
//! (Observed maximum on this family: 32 ulps; 128 leaves headroom for
//! deeper sharing without letting a real accuracy regression —
//! re-association into different math, a broken mask — through.)

mod common;

use common::{
    bits, compile_family, pointwise_grads, pointwise_model_grads, random_points, FactorSpec,
    FamilySpec, DIM,
};
use safety_opt_engine::fleet::FleetEvaluator;

/// The pinned envelope.
const MAX_ULPS: u64 = 128;

fn ite(p: FactorSpec, hi: FactorSpec, lo: FactorSpec) -> FactorSpec {
    FactorSpec::Ite(Box::new(p), Box::new(hi), Box::new(lo))
}

/// Two hand-built families that maximize consumer reordering: every
/// Shannon subtree is shared across cut sets, hazards, and models (the
/// `vary: false` parts hash-cons fleet-wide), weights are large enough
/// that accumulation-order differences are visible, and poisoned
/// closures exercise the NaN lane-fallback path.
fn families() -> Vec<FamilySpec> {
    use FactorSpec::*;
    let expo = |rate: f64, input: usize| Exposure {
        rate,
        vary: true,
        input,
    };
    let ot = |mu: f64, input: usize| Overtime {
        mu,
        sigma: 2.0,
        input,
    };
    let cl = |slot: usize, coeff: f64, poison: bool| Closure {
        slot,
        coeff,
        vary: true,
        poison,
        smooth: true,
    };
    let shannon = |input: usize| {
        ite(
            ot(6.0, input),
            expo(0.4, (input + 1) % DIM),
            Complement(Box::new(expo(0.9, (input + 2) % DIM))),
        )
    };
    let f1 = FamilySpec {
        hazards: vec![
            (
                vec![
                    vec![
                        shannon(0),
                        Constant {
                            base: 0.3,
                            vary: true,
                        },
                    ],
                    vec![shannon(1), shannon(2), cl(0, 1.3, true)],
                    vec![Sum(vec![shannon(0), shannon(1), expo(1.7, 0)])],
                ],
                9.7e5,
            ),
            (
                vec![
                    vec![Scaled(
                        0.9,
                        Box::new(Product(vec![shannon(2), ot(12.0, 1)])),
                    )],
                    vec![cl(1, 2.7, false), Complement(Box::new(shannon(0)))],
                ],
                3.1e4,
            ),
            (vec![vec![ite(shannon(1), shannon(2), shannon(0))]], 8.8e5),
        ],
        n_models: 6,
    };
    let f2 = FamilySpec {
        hazards: vec![
            (
                vec![
                    vec![Sum(vec![
                        ite(expo(0.2, 0), ot(3.0, 1), ot(9.0, 2)),
                        cl(2, 0.7, true),
                        shannon(0),
                    ])],
                    vec![shannon(1), shannon(1), shannon(2)],
                ],
                1e6,
            ),
            (
                vec![vec![Complement(Box::new(Sum(vec![
                    shannon(0),
                    shannon(2),
                    Constant {
                        base: 0.05,
                        vary: true,
                    },
                ])))]],
                5.5e5,
            ),
        ],
        n_models: 6,
    };
    vec![f1, f2]
}

/// Ulp distance, measured through zero when the signs differ (so a
/// cancellation landing on ±ε around 0.0 counts its true distance
/// instead of failing outright). NaN matches only NaN.
fn ulp_distance(a: f64, b: f64) -> u64 {
    if a.to_bits() == b.to_bits() {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return if a.is_nan() && b.is_nan() {
            0
        } else {
            u64::MAX
        };
    }
    let mag = |x: f64| x.abs().to_bits();
    if a.is_sign_negative() != b.is_sign_negative() {
        mag(a).saturating_add(mag(b))
    } else {
        mag(a).abs_diff(mag(b))
    }
}

#[test]
fn fleet_masked_adjoint_stays_within_the_pinned_envelope() {
    for (fi, spec) in families().iter().enumerate() {
        let (fleet, tapes) = compile_family(spec);
        for seed in [11u64, 202, 3003] {
            let points = random_points(47, seed);
            for (k, tape) in tapes.iter().enumerate() {
                let (sv, sg) = pointwise_grads(tape, &points);
                let fleet_runs = [
                    ("pointwise", pointwise_model_grads(&fleet, k, &points)),
                    (
                        "1 thread",
                        FleetEvaluator::new(&fleet, 1)
                            .model_grads(k, &points)
                            .unwrap(),
                    ),
                    (
                        "4 threads",
                        FleetEvaluator::new(&fleet, 4)
                            .model_grads(k, &points)
                            .unwrap(),
                    ),
                ];
                for (run, (fv, fg)) in fleet_runs {
                    // Values: bit-identical, no envelope at all.
                    assert_eq!(
                        bits(&fv),
                        bits(&sv),
                        "values, family {fi}, model {k}, {run}"
                    );
                    for (i, (a, b)) in sg.iter().zip(&fg).enumerate() {
                        let d = ulp_distance(*a, *b);
                        assert!(
                            d <= MAX_ULPS,
                            "grad[{i}] (point {}, input {}) of family {fi} model {k}: \
                             {a} vs {b} = {d} ulps ({run})",
                            i / DIM,
                            i % DIM,
                        );
                    }
                }
            }
        }
    }
}
