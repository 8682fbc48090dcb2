//! The relaxed-math mode's equivalence contract
//! (`SAFETY_OPT_MATH=relaxed`): the vectorizable `exp`/`exp_m1` lane
//! kernels stay within their documented ulp bounds of the platform
//! libm, and end-to-end SoA sweeps — forward values *and* adjoint
//! gradients — stay within a few ulps of the exact pointwise sweep,
//! preserve NaN poisoning, and remain deterministic across thread
//! counts.
//!
//! The mode knob is read **once per process** (like every
//! `SAFETY_OPT_*` knob), so this suite lives in its own integration
//! binary: every test pins the variable before first touching the
//! engine, and the exact-mode 0-ULP contract is pinned separately in
//! `grad_soa_equivalence.rs` / `soa_equivalence.rs`.

mod common;

use common::{closure_fn, pointwise_grads, random_points, DIM};
use safety_opt_engine::tape::TapeBuilder;
use safety_opt_engine::{fast_exp, math_mode, BatchEvaluator, MathMode, Tape};

/// Pins the process to relaxed mode. Every test calls this before any
/// engine work; the assert makes an accidental exact-mode run (e.g. a
/// harness scrubbing the environment) fail loudly instead of passing
/// vacuously with 0-ULP results.
fn force_relaxed() {
    std::env::set_var("SAFETY_OPT_MATH", "relaxed");
    assert_eq!(math_mode(), MathMode::Relaxed);
}

/// Order-preserving integer view of a float: adjacent finite values
/// differ by exactly 1.
fn monotone(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    if b < 0 {
        i64::MIN - b
    } else {
        b
    }
}

/// Ulp distance between two finite floats (`u64::MAX` if either is
/// NaN, so NaN mismatches always trip a bound).
fn ulp_dist(a: f64, b: f64) -> u64 {
    if a.is_nan() || b.is_nan() {
        if a.is_nan() && b.is_nan() {
            return 0;
        }
        return u64::MAX;
    }
    monotone(a).abs_diff(monotone(b))
}

/// Deterministic scatter over `[-bound, bound]`.
fn scatter(n: usize, bound: f64, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 * bound - bound
        })
        .collect()
}

#[test]
fn relaxed_exp_kernels_stay_within_documented_ulp_bounds() {
    force_relaxed();
    const HALF_LN2: f64 = 0.34657359027997264;
    const LN2: f64 = std::f64::consts::LN_2;
    for &bound in &[1.0, 40.0, 690.0, 1000.0] {
        for x in scatter(20_000, bound, bound.to_bits()) {
            let d = ulp_dist(fast_exp::exp(x), x.exp());
            assert!(d <= 1, "exp({x}) off by {d} ulp");
            let dm = ulp_dist(fast_exp::exp_m1(x), x.exp_m1());
            // The documented regime bounds: ≤1 ulp under ln2/2, ≤5 in
            // the band (exponent-gap amplification), ≤3 beyond ln2.
            let limit = if x.abs() <= HALF_LN2 {
                1
            } else if x.abs() <= LN2 {
                5
            } else {
                3
            };
            assert!(dm <= limit, "exp_m1({x}) off by {dm} ulp (limit {limit})");
        }
    }
    for x in [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        710.0,
        -745.0,
    ] {
        assert_eq!(ulp_dist(fast_exp::exp(x), x.exp()), 0, "exp({x})");
        assert_eq!(ulp_dist(fast_exp::exp_m1(x), x.exp_m1()), 0, "exp_m1({x})");
    }
}

/// An exposure-heavy tape: two hazards over products of `Exposure`
/// factors — every factor runs the relaxed `exp_m1` forward kernel and
/// the relaxed `exp` adjoint kernel.
fn exposure_tape() -> Tape {
    let mut b = TapeBuilder::new(DIM);
    let factors: Vec<_> = (0..DIM)
        .map(|i| {
            let t = b.input(i);
            b.exposure(0.05 * (i + 1) as f64, t)
        })
        .collect();
    let prod = b.product(factors);
    b.output(prod, 10.0);
    let t0 = b.input(0);
    let single = b.exposure(1.3, t0);
    b.output(single, 2.0);
    b.build()
}

#[test]
fn relaxed_soa_adjoint_stays_within_a_few_ulps_of_exact_scalar() {
    force_relaxed();
    let tape = exposure_tape();
    let points = random_points(61, 0x51ee7);
    // The pointwise sweep never uses the relaxed kernels, so it is the
    // exact reference even inside a relaxed process.
    let (ref_v, ref_g) = pointwise_grads(&tape, &points);
    let (v, g) = BatchEvaluator::new(&tape, 1).eval_grad_batch(&points);
    // One ≤1-ulp kernel per factor, a handful of correctly-rounded
    // multiplies on top: a small end-to-end ulp envelope. 16 is ~2× the
    // worst drift observed across seeds.
    for (a, b) in v.iter().zip(&ref_v) {
        let d = ulp_dist(*a, *b);
        assert!(d <= 16, "value {a} vs {b}: {d} ulp");
    }
    for (a, b) in g.iter().zip(&ref_g) {
        let d = ulp_dist(*a, *b);
        assert!(d <= 16, "grad {a} vs {b}: {d} ulp");
    }

    // Relaxed results stay deterministic and worker-count independent
    // for a fixed chunk size: every parallel run blocks each chunk the
    // same way, so block boundaries — and therefore which points ride
    // the relaxed kernels vs the scalar-exact ragged tail — are
    // identical. (A single-thread run takes the sequential fast path,
    // which sweeps the whole batch as one chunk: different block
    // boundaries, allowed to differ within the bound.)
    let (rv, rg) = BatchEvaluator::new(&tape, 2)
        .chunk_size(8)
        .eval_grad_batch(&points);
    for threads in [4usize, 7] {
        let (tv, tg) = BatchEvaluator::new(&tape, threads)
            .chunk_size(8)
            .eval_grad_batch(&points);
        assert_eq!(
            tv.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            rv.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "{threads} threads"
        );
        assert_eq!(
            tg.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            rg.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "{threads} threads"
        );
    }
}

#[test]
fn relaxed_mode_preserves_nan_poisoning() {
    force_relaxed();
    let mut b = TapeBuilder::new(DIM);
    let t = b.input(0);
    let e = b.exposure(0.2, t);
    let c = b.closure(0, closure_fn(0.7, true, false));
    let prod = b.product(vec![e, c]);
    b.output(prod, 5.0);
    let tape = b.build();
    // First coordinate past the closure's poison threshold at 30 on
    // some points, below it on others — and the poisoned closure drops
    // its whole lane block onto the scalar-exact fallback.
    let points = random_points(61, 0xdead);
    let (ref_v, ref_g) = pointwise_grads(&tape, &points);
    let (v, g) = BatchEvaluator::new(&tape, 1).eval_grad_batch(&points);
    assert!(
        ref_v.iter().any(|x| x.is_nan()),
        "suite needs poisoned points"
    );
    assert!(
        ref_v.iter().any(|x| x.is_finite()),
        "suite needs clean points"
    );
    for (a, b) in v.iter().zip(&ref_v) {
        assert_eq!(a.is_nan(), b.is_nan(), "NaN pattern: {a} vs {b}");
        if !a.is_nan() {
            assert!(ulp_dist(*a, *b) <= 16, "value {a} vs {b}");
        }
    }
    for (a, b) in g.iter().zip(&ref_g) {
        assert_eq!(a.is_nan(), b.is_nan(), "NaN pattern: {a} vs {b}");
        if !a.is_nan() {
            assert!(ulp_dist(*a, *b) <= 16, "grad {a} vs {b}");
        }
    }
}
