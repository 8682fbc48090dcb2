//! Reference solvers for the answer checks.
//!
//! They work from closed forms derived by hand from each workload's
//! model and minimize by dense grids with zoom refinement, so they share
//! no code with the program path they check: no tree analysis, no
//! tape, no optimizer. (The transit-time survival function comes from
//! the statistics crate, which both sides use as a special function.)

use safety_opt_elbtunnel::analytic::ElbtunnelModel;
use safety_opt_stats::dist::{ContinuousDistribution, TruncatedNormal};

/// A minimum found by a reference solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Minimum<const D: usize> {
    /// Arg-min.
    pub x: [f64; D],
    /// Minimal value.
    pub value: f64,
}

/// Zoom rounds after the coarse grid; each shrinks the cell by 5×, so
/// the final cell is below 1e-7 of the domain width.
const ZOOM_ROUNDS: usize = 11;
/// Points per axis of each zoom grid (the box spans ±2 coarse cells).
const ZOOM_POINTS: usize = 21;

/// Minimizes `f` over `[lo, hi]`: a `coarse`-point grid, then repeated
/// ±2-cell zoom grids around the best point.
pub fn minimize_1d(f: impl Fn(f64) -> f64, (lo, hi): (f64, f64), coarse: usize) -> Minimum<1> {
    let mut best = Minimum {
        x: [lo],
        value: f64::INFINITY,
    };
    let (mut a, mut b, mut n) = (lo, hi, coarse.max(3));
    for _round in 0..=ZOOM_ROUNDS {
        let step = (b - a) / (n - 1) as f64;
        for i in 0..n {
            let x = a + i as f64 * step;
            let v = f(x);
            if v < best.value {
                best = Minimum { x: [x], value: v };
            }
        }
        (a, b) = (
            (best.x[0] - 2.0 * step).max(lo),
            (best.x[0] + 2.0 * step).min(hi),
        );
        n = ZOOM_POINTS;
    }
    best
}

/// Minimizes `f(row(x₀), col(x₁))` over a box: the per-axis features
/// are computed once per grid line instead of once per grid point.
pub fn minimize_2d_separable<A: Copy, B: Copy>(
    row: impl Fn(f64) -> A,
    col: impl Fn(f64) -> B,
    f: impl Fn(A, B) -> f64,
    bounds: ((f64, f64), (f64, f64)),
    coarse: usize,
) -> Minimum<2> {
    let axis = |(lo, hi): (f64, f64), n: usize| -> Vec<f64> {
        let step = (hi - lo) / (n - 1) as f64;
        (0..n).map(|i| lo + i as f64 * step).collect()
    };
    let mut best = Minimum {
        x: [bounds.0 .0, bounds.1 .0],
        value: f64::INFINITY,
    };
    let mut boxes = bounds;
    let mut n = coarse.max(3);
    for _round in 0..=ZOOM_ROUNDS {
        let (xs, ys) = (axis(boxes.0, n), axis(boxes.1, n));
        let cols: Vec<B> = ys.iter().map(|&y| col(y)).collect();
        for &x in &xs {
            let r = row(x);
            for (&y, &c) in ys.iter().zip(&cols) {
                let v = f(r, c);
                if v < best.value {
                    best = Minimum {
                        x: [x, y],
                        value: v,
                    };
                }
            }
        }
        let zoom = |(lo, hi): (f64, f64), (blo, bhi): (f64, f64), x: f64| {
            let step = (hi - lo) / (n - 1) as f64;
            ((x - 2.0 * step).max(blo), (x + 2.0 * step).min(bhi))
        };
        boxes = (
            zoom(boxes.0, bounds.0, best.x[0]),
            zoom(boxes.1, bounds.1, best.x[1]),
        );
        n = ZOOM_POINTS;
    }
    best
}

/// The timer-1 factors of the Elbtunnel hazards.
#[derive(Debug, Clone, Copy)]
pub struct Timer1 {
    /// `P(OT1)`.
    pub overtime: f64,
    /// `P(FD_LBpost)(T1)`.
    pub lb_post: f64,
}

/// The timer-2 factors of the Elbtunnel hazards.
#[derive(Debug, Clone, Copy)]
pub struct Timer2 {
    /// `P(OT2)`.
    pub overtime: f64,
    /// `P(HV_ODfinal)(T2)`.
    pub hv: f64,
}

/// Hand-derived closed forms of the Elbtunnel model.
#[derive(Debug, Clone)]
pub struct Elbtunnel {
    m: ElbtunnelModel,
    transit: TruncatedNormal,
}

impl Elbtunnel {
    /// The closed forms for model constants `m`.
    ///
    /// # Panics
    ///
    /// If `m`'s transit-time moments are invalid (never for the sampled
    /// constants, which leave them at the paper's).
    pub fn new(m: &ElbtunnelModel) -> Self {
        Self {
            m: m.clone(),
            transit: m.transit_distribution().expect("valid transit moments"),
        }
    }

    /// Timer-1 factors at `t`.
    pub fn timer1(&self, t: f64) -> Timer1 {
        Timer1 {
            overtime: self.transit.sf(t),
            lb_post: self.m.p_fd_lbpost(t),
        }
    }

    /// Timer-2 factors at `t`.
    pub fn timer2(&self, t: f64) -> Timer2 {
        Timer2 {
            overtime: self.transit.sf(t),
            hv: self.m.p_hv_odfinal(t),
        }
    }

    /// `P(ODfinal active)`.
    fn activation(&self, a: Timer1) -> f64 {
        let m = &self.m;
        m.p_ohv + (1.0 - m.p_ohv) * m.p_fd_lbpre * a.lb_post
    }

    /// Hazard probabilities `(P(collision), P(false alarm))` of the fault
    /// trees quantified exactly: each top is the OR of its residual leaf
    /// and its INHIBIT branch, so the residuals combine by `a + r − a·r`
    /// instead of the plain sum of [`ElbtunnelModel::cost`].
    pub fn exact_hazards(&self, a: Timer1, b: Timer2) -> (f64, f64) {
        let m = &self.m;
        let armed = m.p_ohv_critical * (1.0 - (1.0 - a.overtime) * (1.0 - b.overtime));
        (
            or2(armed, m.p_const1),
            or2(self.activation(a) * b.hv, m.p_const2),
        )
    }

    /// The cost of [`exact_hazards`](Self::exact_hazards).
    pub fn exact_cost(&self, a: Timer1, b: Timer2) -> f64 {
        let (p_col, p_alr) = self.exact_hazards(a, b);
        self.m.cost_collision * p_col + self.m.cost_false_alarm * p_alr
    }

    /// The paper's closed-form cost ([`ElbtunnelModel::cost`]), which the
    /// cut-set model of [`ElbtunnelModel::build`] compiles.
    pub fn paper_cost(&self, a: Timer1, b: Timer2) -> f64 {
        let m = &self.m;
        let p_col = m.p_const1 + m.p_ohv_critical * (a.overtime + (1.0 - a.overtime) * b.overtime);
        let p_alr = m.p_const2 + self.activation(a) * b.hv;
        m.cost_collision * p_col + m.cost_false_alarm * p_alr
    }

    /// Birnbaum importance of leaf `OT1` in the exact collision tree:
    /// `∂P(col)/∂P(OT1) = P(crit) · (1 − P(OT2)) · (1 − Pconst1)`.
    pub fn birnbaum_ot1(&self, b: Timer2) -> f64 {
        self.m.p_ohv_critical * (1.0 - b.overtime) * (1.0 - self.m.p_const1)
    }

    /// Reference optimum of `cost` over the timer domain.
    pub fn optimum(&self, cost: impl Fn(&Self, Timer1, Timer2) -> f64) -> Minimum<2> {
        let d = self.m.timer_domain;
        minimize_2d_separable(
            |t| self.timer1(t),
            |t| self.timer2(t),
            |a, b| cost(self, a, b),
            (d, d),
            ELBTUNNEL_COARSE,
        )
    }
}

fn or2(a: f64, b: f64) -> f64 {
    a + b - a * b
}

/// Coarse grid points per axis for the Elbtunnel references.
const ELBTUNNEL_COARSE: usize = 41;

/// Shape of the industrial tree (`synth::modular_tree`) as the reference
/// needs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModularShape {
    /// Modules under the OR root.
    pub modules: usize,
    /// Sections per module.
    pub sections: usize,
    /// Leaves per section.
    pub width: usize,
    /// Base leaf probability.
    pub leaf_probability: f64,
    /// Timers; timer `g` drives the modules `m ≡ g (mod timers)`.
    pub timers: usize,
}

/// Rate of the exposure leaves of the industrial model (1/min).
pub const INDUSTRIAL_EXPOSURE_RATE: f64 = 0.02;
/// Weight of the overtime leaves of the industrial model.
pub const INDUSTRIAL_OVERTIME_WEIGHT: f64 = 50.0;

impl ModularShape {
    /// The stored probability of leaf `j` of section `s` of module `m`,
    /// as `modular_tree` assigns it.
    pub fn base_probability(&self, m: usize, s: usize, j: usize) -> f64 {
        self.leaf_probability * (0.5 + 0.1 * ((m * 7 + s * 3 + j) % 10) as f64)
    }

    /// The parameterized probability of that leaf at timer value `t`:
    /// even leaves (even `j`, hence even leaf slot) are overtime leaves,
    /// odd leaves exposure leaves.
    pub fn leaf_probability_at(
        &self,
        transit: &TruncatedNormal,
        m: usize,
        s: usize,
        j: usize,
        t: f64,
    ) -> f64 {
        self.leaf_probability(TimerFactors::at(transit, t), m, s, j)
    }

    fn leaf_probability(&self, f: TimerFactors, m: usize, s: usize, j: usize) -> f64 {
        let p = self.base_probability(m, s, j);
        if j.is_multiple_of(2) {
            INDUSTRIAL_OVERTIME_WEIGHT * p * f.overtime
        } else {
            p * f.exposure
        }
    }

    /// `ln P(module m does not fail)` at timer value `t`.
    ///
    /// Sections 0, 1, 2 (mod 4) fail when any leaf fails (a 2-of-n vote
    /// with an always-on house event, an OR with an always-off house
    /// event, an OR chain); section 3 (mod 4) fails when its first two
    /// leaves both fail. The module top ORs its sections plus the AND of
    /// sections 0 and 1, which section 0 already covers.
    fn ln_survival(&self, f: TimerFactors, m: usize) -> f64 {
        let mut ln = 0.0;
        for s in 0..self.sections {
            let q = |j| self.leaf_probability(f, m, s, j);
            if s % 4 == 3 {
                ln += (-(q(0) * q(1))).ln_1p();
            } else {
                ln += (0..self.width).map(|j| (-q(j)).ln_1p()).sum::<f64>();
            }
        }
        ln
    }

    /// Exact top-event probability with every module of timer `g` at
    /// `x[g]`.
    pub fn top_probability(&self, transit: &TruncatedNormal, x: &[f64]) -> f64 {
        let ln: f64 = (0..self.modules)
            .map(|m| self.ln_survival(TimerFactors::at(transit, x[m % self.timers]), m))
            .sum();
        -ln.exp_m1()
    }

    /// The separable reference optimum: modules are independent and the
    /// top ORs them, so `P(top) = 1 − Π_g Q_g(t_g)` and each timer
    /// maximizes its own group survival `Q_g` on its own.
    pub fn separable_optimum(
        &self,
        transit: &TruncatedNormal,
        domain: (f64, f64),
    ) -> (Vec<f64>, f64) {
        let x: Vec<f64> = (0..self.timers)
            .map(|g| {
                let neg_ln_q = |t: f64| {
                    let f = TimerFactors::at(transit, t);
                    -(g..self.modules)
                        .step_by(self.timers)
                        .map(|m| self.ln_survival(f, m))
                        .sum::<f64>()
                };
                minimize_1d(neg_ln_q, domain, 201).x[0]
            })
            .collect();
        let value = self.top_probability(transit, &x);
        (x, value)
    }
}

/// The two timer-dependent leaf factors of the industrial model.
#[derive(Debug, Clone, Copy)]
struct TimerFactors {
    /// `P(transit > t)`.
    overtime: f64,
    /// `1 − e^{−rate·t}`.
    exposure: f64,
}

impl TimerFactors {
    fn at(transit: &TruncatedNormal, t: f64) -> Self {
        Self {
            overtime: transit.sf(t),
            exposure: -(-INDUSTRIAL_EXPOSURE_RATE * t).exp_m1(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_minimizers_find_smooth_minima() {
        let m = minimize_1d(|x| (x - 1.234_567).powi(2) + 3.0, (-5.0, 5.0), 51);
        assert!((m.x[0] - 1.234_567).abs() < 1e-6, "{m:?}");
        let m = minimize_2d_separable(
            |a| (a - 7.1).powi(2),
            |b| 2.0 * (b - 12.9).powi(2),
            |a, b| a + b,
            ((5.0, 30.0), (0.0, 20.0)),
            41,
        );
        assert!(
            (m.x[0] - 7.1).abs() < 1e-6 && (m.x[1] - 12.9).abs() < 1e-6,
            "{m:?}"
        );
    }

    #[test]
    fn paper_optimum_is_reproduced() {
        // Ortmeier & Reif: T1* ≈ 19, T2* ≈ 15.6 min, cost ≈ 4.65e-3.
        let paper = Elbtunnel::new(&ElbtunnelModel::paper());
        for m in [
            paper.optimum(Elbtunnel::exact_cost),
            paper.optimum(Elbtunnel::paper_cost),
        ] {
            assert!((m.x[0] - 19.0).abs() < 1.0, "{m:?}");
            assert!((m.x[1] - 15.6).abs() < 0.2, "{m:?}");
            assert!((m.value - 4.65e-3).abs() < 0.01e-3, "{m:?}");
        }
    }

    #[test]
    fn exact_and_closed_form_costs_differ_only_by_residual_cross_terms() {
        let model = ElbtunnelModel::paper();
        let paper = Elbtunnel::new(&model);
        let (t1, t2) = (paper.timer1(17.0), paper.timer2(14.0));
        let (a, b) = (paper.exact_cost(t1, t2), paper.paper_cost(t1, t2));
        assert!(a < b && (b - a) / b < 1e-4, "{a} vs {b}");
        let direct = model.cost(17.0, 14.0).unwrap();
        assert!((b - direct).abs() <= 1e-15 * direct, "{b} vs {direct}");
    }
}
