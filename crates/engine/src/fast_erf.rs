//! Fast complementary error function for the compiled evaluation path.
//!
//! The scalar `pprob` interpreter reaches `erfc` through the regularized
//! incomplete gamma function of `safety_opt_stats::special` — an iterative
//! series/continued-fraction expansion that costs dozens of divisions per
//! call. That is the single hottest operation of every overtime
//! probability, so the compiled tape replaces it with W. J. Cody's
//! rational Chebyshev approximation (the classic Netlib `CALERF`
//! routine): three fixed-cost rational regimes with ≈1 ulp relative
//! accuracy over the whole real line.
//!
//! The equivalence property tests assert agreement with the iterative
//! implementation to far better than the engine's 1e-12 contract.

/// 1/√π.
const SQRT_PI_INV: f64 = 0.564_189_583_547_756_28;

const A: [f64; 5] = [
    3.161_123_743_870_565_6,
    1.138_641_541_510_501_56e2,
    3.774_852_376_853_020_2e2,
    3.209_377_589_138_469_47e3,
    1.857_777_061_846_031_53e-1,
];
const B: [f64; 4] = [
    2.360_129_095_234_412_09e1,
    2.440_246_379_344_441_73e2,
    1.282_616_526_077_372_28e3,
    2.844_236_833_439_170_62e3,
];
const C: [f64; 9] = [
    5.641_884_969_886_700_89e-1,
    8.883_149_794_388_375_94,
    6.611_919_063_714_162_95e1,
    2.986_351_381_974_001_31e2,
    8.819_522_212_417_690_9e2,
    1.712_047_612_634_070_58e3,
    2.051_078_377_826_071_47e3,
    1.230_339_354_797_997_25e3,
    2.153_115_354_744_038_46e-8,
];
const D: [f64; 8] = [
    1.574_492_611_070_983_47e1,
    1.176_939_508_913_124_99e2,
    5.371_811_018_620_098_58e2,
    1.621_389_574_566_690_19e3,
    3.290_799_235_733_459_63e3,
    4.362_619_090_143_247_16e3,
    3.439_367_674_143_721_64e3,
    1.230_339_354_803_749_42e3,
];
const P: [f64; 6] = [
    3.053_266_349_612_323_44e-1,
    3.603_448_999_498_044_39e-1,
    1.257_817_261_112_292_46e-1,
    1.608_378_514_874_227_66e-2,
    6.587_491_615_298_378_03e-4,
    1.631_538_713_730_209_78e-2,
];
const Q: [f64; 5] = [
    2.568_520_192_289_822_42,
    1.872_952_849_923_460_47,
    5.279_051_029_514_284_12e-1,
    6.051_834_131_244_131_91e-2,
    2.335_204_976_268_691_85e-3,
];

/// Complementary error function `erfc(x)` by Cody's rational
/// approximation — fixed cost, ≈1 ulp relative accuracy, no iteration.
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let y = x.abs();
    let result = if y <= 0.46875 {
        // erfc = 1 − erf with the erf rational form.
        let z = if y > 1.11e-16 { y * y } else { 0.0 };
        let mut num = A[4] * z;
        let mut den = z;
        for i in 0..3 {
            num = (num + A[i]) * z;
            den = (den + B[i]) * z;
        }
        return 1.0 - x * (num + A[3]) / (den + B[3]);
    } else if y <= 4.0 {
        let mut num = C[8] * y;
        let mut den = y;
        for i in 0..7 {
            num = (num + C[i]) * y;
            den = (den + D[i]) * y;
        }
        scaled_tail(y, (num + C[7]) / (den + D[7]))
    } else if y < 26.6 {
        let z = 1.0 / (y * y);
        let mut num = P[5] * z;
        let mut den = z;
        for i in 0..4 {
            num = (num + P[i]) * z;
            den = (den + Q[i]) * z;
        }
        let r = z * (num + P[4]) / (den + Q[4]);
        scaled_tail(y, (SQRT_PI_INV - r) / y)
    } else {
        0.0 // underflows double precision
    };
    if x < 0.0 {
        2.0 - result
    } else {
        result
    }
}

/// `exp(−(i/16)²)` for `i = 0..=425` — the quantized leading factor of
/// [`scaled_tail`], whose argument takes at most 426 distinct values
/// for `y < 26.6`. Both `i/16` and its square are exactly representable
/// in an `f64` (`i² ≤ 425² < 2⁵³`), so each entry is **bit-identical**
/// to evaluating `(-ysq * ysq).exp()` inline; precomputing trades the
/// hotter of the tail's two `exp` calls for a table load.
fn exp_ysq_table() -> &'static [f64; 426] {
    static TABLE: std::sync::OnceLock<[f64; 426]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0.0; 426];
        for (i, v) in table.iter_mut().enumerate() {
            let ysq = i as f64 / 16.0;
            *v = (-ysq * ysq).exp();
        }
        table
    })
}

/// Multiplies the rational tail by `exp(-y²)`, split Cody-style into an
/// exact-square part (tabulated, see [`exp_ysq_table`]) and a small
/// remainder to avoid cancellation. Callers guarantee `0 ≤ y < 26.6`.
#[inline]
fn scaled_tail(y: f64, rational: f64) -> f64 {
    let i = (y * 16.0).trunc();
    let ysq = i / 16.0;
    let del = (y - ysq) * (y + ysq);
    exp_ysq_table()[i as usize] * (-del).exp() * rational
}

/// Standard normal survival function `1 − Φ(z)` on the fast path.
#[inline]
pub fn std_normal_sf(z: f64) -> f64 {
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

/// Lane-blocked twin of [`std_normal_sf`] for the SoA
/// op-at-a-time sweeps — **bit-identical** per lane to the scalar
/// function.
///
/// The two rational regimes of [`erfc`] are evaluated *speculatively*
/// for every lane in straight-line lane loops (the polynomials are
/// pure, so computing the regime a lane does not take is unobservable),
/// which turns the serial Horner recurrences into vectorizable code;
/// the per-lane select and the `exp` tail stay scalar. Lanes outside
/// both regimes (|x| ≤ 0.46875, the erfc-underflow tail, NaN) fall back
/// to the scalar [`erfc`] wholesale.
pub(crate) fn std_normal_sf_block<const L: usize>(z: &[f64; L], out: &mut [f64; L]) {
    let mut x = [0.0; L];
    let mut y = [0.0; L];
    for l in 0..L {
        x[l] = z[l] / std::f64::consts::SQRT_2;
        y[l] = x[l].abs();
    }
    // Speculative middle regime (0.46875 < y ≤ 4): C/D rational.
    let mut r_mid = [0.0; L];
    for l in 0..L {
        let yy = y[l];
        let mut num = C[8] * yy;
        let mut den = yy;
        for i in 0..7 {
            num = (num + C[i]) * yy;
            den = (den + D[i]) * yy;
        }
        r_mid[l] = (num + C[7]) / (den + D[7]);
    }
    // Speculative asymptotic regime (4 < y < 26.6): P/Q rational in 1/y².
    let mut r_far = [0.0; L];
    for l in 0..L {
        let zz = 1.0 / (y[l] * y[l]);
        let mut num = P[5] * zz;
        let mut den = zz;
        for i in 0..4 {
            num = (num + P[i]) * zz;
            den = (den + Q[i]) * zz;
        }
        let r = zz * (num + P[4]) / (den + Q[4]);
        r_far[l] = (SQRT_PI_INV - r) / y[l];
    }
    for l in 0..L {
        let yy = y[l];
        let e = if yy <= 0.46875 || yy >= 26.6 || yy.is_nan() {
            // Small-argument regime, underflow tail, and NaN: the
            // scalar path verbatim (rare for overtime sweeps).
            erfc(x[l])
        } else {
            let rational = if yy <= 4.0 { r_mid[l] } else { r_far[l] };
            let result = scaled_tail(yy, rational);
            if x[l] < 0.0 {
                2.0 - result
            } else {
                result
            }
        };
        out[l] = 0.5 * e;
    }
}

/// Standard normal cumulative distribution function on the fast path.
#[inline]
pub fn std_normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_values() {
        // Reference values from IEEE-754 libm erfc.
        let cases = [
            (0.0, 1.0),
            (0.1, 0.887_537_083_981_715_2),
            (0.5, 0.479_500_122_186_953_5),
            (1.0, 0.157_299_207_050_285_13),
            (2.0, 4.677_734_981_047_265e-3),
            (5.0, 1.537_459_794_428_035_1e-12),
            (10.0, 2.088_487_583_762_545e-45),
            (-1.0, 1.842_700_792_949_715),
            (-3.0, 1.999_977_909_503_001_5),
        ];
        for (x, want) in cases {
            let got = erfc(x);
            assert!(
                (got - want).abs() <= 1e-13 * want.abs().max(1e-300),
                "erfc({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn agrees_with_iterative_implementation() {
        // Dense scan against the stats crate's gamma-function-based erfc.
        // Both implementations carry ~1e-13 relative error in the deep
        // tail; the bound here is the union of a relative and an absolute
        // budget, both far tighter than the engine's 1e-12 contract.
        let mut x = -8.0;
        while x <= 26.0 {
            let fast = erfc(x);
            let slow = safety_opt_stats::special::erfc(x);
            let diff = (fast - slow).abs();
            assert!(
                diff <= 1e-12 * slow.abs() || diff <= 1e-14,
                "erfc({x}): fast {fast} vs iterative {slow}"
            );
            x += 0.01375; // irrational-ish step to avoid hitting only nice points
        }
    }

    #[test]
    fn limits_and_nan() {
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
        assert_eq!(erfc(30.0), 0.0);
        assert!(erfc(f64::NAN).is_nan());
    }

    #[test]
    fn normal_helpers_are_consistent() {
        for &z in &[-6.0, -1.0, 0.0, 0.5, 3.0, 7.5] {
            let cdf = std_normal_cdf(z);
            let sf = std_normal_sf(z);
            assert!((cdf + sf - 1.0).abs() < 1e-14);
            let slow = safety_opt_stats::special::std_normal_sf(z);
            assert!((sf - slow).abs() <= 1e-12 * slow.max(1e-300));
        }
    }
}
