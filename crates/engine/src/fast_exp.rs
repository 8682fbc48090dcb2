//! Branchless `exp` / `exp_m1` kernels for the relaxed math mode.
//!
//! In [`MathMode::Exact`](crate::exec::MathMode) the SoA lane kernels
//! call the platform `exp`/`exp_m1` scalar per lane — the calls cannot
//! vectorize (libm is an opaque function boundary), but results stay
//! 0-ULP bit-identical to the scalar sweep. `SAFETY_OPT_MATH=relaxed`
//! swaps those calls for the kernels here: a straight-line Cody–Waite
//! reduction (`x = k·ln 2 + r`, `|r| ≤ ln 2 / 2`) with fdlibm's minimax
//! rational for `expm1(r)/r`, the bias trick for the nearest-integer
//! `k`, and an exponent-field add for the final `2^k` scaling — no
//! branches, no libm, so a whole lane block compiles to vectorizable
//! straight-line code. Lanes outside the branchless kernel's domain
//! (`|x| ≥ 700`, NaN) are overwritten by a scalar fixup pass, exactly
//! like the speculative two-regime Cody `erfc` in [`crate::fast_erf`].
//!
//! ## Accuracy (pinned by the `relaxed_math` equivalence suite)
//!
//! * [`exp`] — **≤ 1 ulp** of the platform `exp` over the full finite
//!   domain (the fdlibm argument reduction and rational are the proven
//!   < 0.52 ulp construction; only the `k` rounding differs, by at most
//!   one reduction step at exact half-way points).
//! * [`exp_m1`] — two regimes with a per-lane select: the fdlibm
//!   `expm1` rational for `|x| ≤ ln 2 / 2` (**≤ 1 ulp**), and
//!   `exp(x) − 1` beyond. Inside the magnitude band
//!   `(ln 2 / 2, ln 2]` the subtraction is exact by Sterbenz's lemma,
//!   so the error is the `exp` kernel's — but one ulp of `exp(x)` is
//!   up to *four* ulp of the smaller difference (the exponent gap
//!   between `exp(x) ≈ 1.42` and `exp(x) − 1 ≈ 0.42` is two):
//!   **≤ 5 ulp** guaranteed, 4 observed over 10⁸ samples. Beyond
//!   `ln 2` the exponent gap is at most one and the subtraction adds
//!   half an ulp: **≤ 3 ulp** guaranteed, 2 observed.
//!
//! The scalar functions and the `_block` twins share one code path per
//! regime, so a relaxed-mode result is deterministic and thread-count
//! independent; it may differ from the exact mode (and across lane
//! widths / chunk boundaries, which decide whether a point runs in a
//! block or in the scalar-exact ragged tail) within the bounds above.

/// `ln 2` split hi/lo so `x − k·LN2_HI` is exact for the reduced range
/// (fdlibm's split: the low 27 bits of `LN2_HI` are zero).
const LN2_HI: f64 = 6.93147180369123816490e-01;
/// Low part of the `ln 2` split.
const LN2_LO: f64 = 1.90821492927058770002e-10;
/// `1 / ln 2` for the nearest-integer reduction step (fdlibm's
/// `invln2` literal rounds to exactly this constant).
const INV_LN2: f64 = std::f64::consts::LOG2_E;

/// fdlibm minimax coefficients for `exp` on the reduced interval:
/// `r − r²·P(r²)` approximates `r − r·(e^r + 1)/(e^r − 1) · r/2`… — the
/// published `e_exp.c` rational, transcribed at full precision.
const P1: f64 = 1.66666666666666019037e-01;
const P2: f64 = -2.77777777770155933842e-03;
const P3: f64 = 6.61375632143793436117e-05;
const P4: f64 = -1.65339022054652515390e-06;
const P5: f64 = 4.13813679705723846039e-08;

/// fdlibm minimax coefficients for `expm1` on `|x| ≤ ln 2 / 2`
/// (`s_expm1.c`'s `Q1…Q5`).
const Q1: f64 = -3.33333333333331316428e-02;
const Q2: f64 = 1.58730158725481460165e-03;
const Q3: f64 = -7.93650757867487942473e-05;
const Q4: f64 = 4.00821782732936239552e-06;
const Q5: f64 = -2.01099218183624371326e-07;

/// Adding then subtracting `1.5·2^52` rounds to the nearest integer
/// (ties to even) for `|v| < 2^51` — the branchless `round` used for
/// the reduction step `k`.
const ROUND_BIAS: f64 = 6755399441055744.0;

/// `ln 2 / 2`: the regime boundary of [`exp_m1`].
const HALF_LN2: f64 = 0.34657359027997264;

/// Domain of the branchless main path: `|x| < 700` keeps `2^k` scaling
/// inside the normal exponent range (no subnormals, no overflow) so the
/// exponent-field add is exact. Outside, the scalar fixup defers to the
/// platform libm.
const MAIN_LIMIT: f64 = 700.0;

/// The branchless Cody–Waite core: valid for `|x| < MAIN_LIMIT`, called
/// speculatively on arbitrary lanes (out-of-domain lanes produce
/// garbage that the fixup pass overwrites; all operations are defined
/// on any input — the int cast saturates, the shifts/adds wrap).
#[inline]
fn exp_main(x: f64) -> f64 {
    let kf = (INV_LN2 * x + ROUND_BIAS) - ROUND_BIAS;
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let t = r * r;
    let c = r - t * (P1 + t * (P2 + t * (P3 + t * (P4 + t * P5))));
    let y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    // 2^k via the exponent field: y ∈ (0.7, 1.42) and |k| ≤ 1010 on the
    // main domain, so the add stays inside the normal range. The clamp
    // and wrapping arithmetic only matter for speculative out-of-domain
    // lanes, whose results are discarded.
    let k = (kf as i64).clamp(-2000, 2000);
    f64::from_bits((y.to_bits() as i64).wrapping_add(k << 52) as u64)
}

/// The fdlibm `expm1` rational on `|x| ≤ ln 2 / 2` (the `k = 0` path of
/// `s_expm1.c`), branchless. NaN propagates through the arithmetic.
#[inline]
fn expm1_small(x: f64) -> f64 {
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    x - (x * e - hxs)
}

/// `true` when `x` is inside the branchless main path's domain.
#[inline]
fn in_main_domain(x: f64) -> bool {
    x > -MAIN_LIMIT && x < MAIN_LIMIT
}

/// Relaxed-mode `e^x`: the branchless kernel on `|x| < 700`, the
/// platform `exp` beyond (overflow, underflow-to-subnormal, NaN).
/// ≤ 1 ulp of the platform `exp` everywhere.
#[inline]
pub fn exp(x: f64) -> f64 {
    if in_main_domain(x) {
        exp_main(x)
    } else {
        x.exp()
    }
}

/// Relaxed-mode `e^x − 1`: the fdlibm rational for `|x| ≤ ln 2 / 2`,
/// `exp(x) − 1` beyond (see the module docs for the per-regime bounds).
#[inline]
pub fn exp_m1(x: f64) -> f64 {
    if x.abs() <= HALF_LN2 {
        expm1_small(x)
    } else if in_main_domain(x) {
        exp_main(x) - 1.0
    } else {
        x.exp_m1()
    }
}

/// Lane-blocked [`exp`]: speculative branchless evaluation of every
/// lane (vectorizes — no calls, no branches), then a scalar fixup for
/// out-of-domain lanes.
#[inline]
pub(crate) fn exp_block<const L: usize>(x: &[f64; L], out: &mut [f64; L]) {
    for l in 0..L {
        out[l] = exp_main(x[l]);
    }
    for l in 0..L {
        if !in_main_domain(x[l]) {
            out[l] = x[l].exp();
        }
    }
}

/// Lane-blocked [`exp_m1`]: both regimes evaluated speculatively and
/// branchlessly, a per-lane select, then a scalar fixup for
/// out-of-domain lanes — the same regime boundaries as the scalar
/// [`exp_m1`], so block and scalar relaxed results agree bit-for-bit.
#[inline]
pub(crate) fn exp_m1_block<const L: usize>(x: &[f64; L], out: &mut [f64; L]) {
    let mut small = [0.0; L];
    for l in 0..L {
        small[l] = expm1_small(x[l]);
    }
    let mut big = [0.0; L];
    for l in 0..L {
        big[l] = exp_main(x[l]);
    }
    for l in 0..L {
        out[l] = if x[l].abs() <= HALF_LN2 {
            small[l]
        } else {
            big[l] - 1.0
        };
    }
    for l in 0..L {
        if x[l].abs() <= HALF_LN2 {
            // Small regime: already exact above (NaN fails the
            // comparison and falls through to the libm patch-up).
        } else if !in_main_domain(x[l]) {
            out[l] = x[l].exp_m1();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in ulps between two finite doubles of the same sign.
    fn ulp_diff(a: f64, b: f64) -> u64 {
        let ia = a.to_bits() as i64;
        let ib = b.to_bits() as i64;
        ia.abs_diff(ib)
    }

    #[test]
    fn exp_matches_libm_to_one_ulp_on_a_dense_scan() {
        let mut worst = 0;
        let mut i = 0u64;
        let mut x = -709.0;
        while x < 709.0 {
            let d = ulp_diff(exp(x), x.exp());
            worst = worst.max(d);
            assert!(d <= 1, "exp({x}) off by {d} ulp");
            i += 1;
            x += 0.013 + 1e-9 * (i % 997) as f64;
        }
        assert!(worst <= 1);
    }

    #[test]
    fn exp_m1_respects_the_documented_regime_bounds() {
        let mut i = 0u64;
        let mut x = -709.0;
        while x < 709.0 {
            let d = ulp_diff(exp_m1(x), x.exp_m1());
            // Documented regime bounds (see the module docs): the
            // rational is ≤ 1 ulp, the band's exponent-gap
            // amplification allows 5, beyond ln 2 allows 3.
            let bound = if x.abs() <= HALF_LN2 {
                1
            } else if x.abs() <= std::f64::consts::LN_2 {
                5
            } else {
                3
            };
            assert!(d <= bound, "exp_m1({x}) off by {d} ulp (bound {bound})");
            i += 1;
            x += 0.0071 + 1e-9 * (i % 991) as f64;
        }
    }

    #[test]
    fn tiny_and_zero_arguments_are_exact_enough() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp_m1(0.0), 0.0);
        assert_eq!(exp_m1(-0.0), -0.0);
        for &x in &[1e-300, -1e-300, 1e-18, -1e-18, 2e-8, -2e-8] {
            assert!(ulp_diff(exp(x), x.exp()) <= 1);
            assert!(ulp_diff(exp_m1(x), x.exp_m1()) <= 1);
        }
    }

    #[test]
    fn specials_defer_to_libm() {
        assert!(exp(f64::NAN).is_nan());
        assert!(exp_m1(f64::NAN).is_nan());
        assert_eq!(exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp_m1(f64::NEG_INFINITY), -1.0);
        assert_eq!(exp(-745.0), (-745.0f64).exp()); // subnormal result
        assert_eq!(exp(710.0), f64::INFINITY);
        assert_eq!(exp_m1(-60.0), (-60.0f64).exp_m1());
    }

    #[test]
    fn blocks_agree_with_the_scalar_kernels_bitwise() {
        let xs: [f64; 8] = [-0.1, -0.5, -3.7, -700.5, f64::NAN, 0.0, 345.678, -1e-12];
        let mut e = [0.0; 8];
        let mut em1 = [0.0; 8];
        exp_block::<8>(&xs, &mut e);
        exp_m1_block::<8>(&xs, &mut em1);
        for l in 0..8 {
            assert_eq!(e[l].to_bits(), exp(xs[l]).to_bits(), "exp lane {l}");
            assert_eq!(em1[l].to_bits(), exp_m1(xs[l]).to_bits(), "exp_m1 lane {l}");
        }
    }
}
