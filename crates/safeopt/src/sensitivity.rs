//! Sensitivity and environment-scaling analysis.
//!
//! The paper's most striking result (Fig. 6) is not the optimum itself but
//! what a *sweep* revealed: plotting the false-alarm probability against
//! timer 2 while conditioning on an overhigh vehicle in the controlled
//! area exposed a design flaw neither model checking nor the engineers
//! had seen. This module provides those tools:
//!
//! * [`sweep`] — one-at-a-time parameter sweeps of cost and hazard
//!   probabilities (Fig. 6's curves).
//! * [`tornado`] — per-parameter cost ranges over each parameter's full
//!   interval (which knob matters?).
//! * [`local_gradient`] — central-difference cost gradient at a point
//!   (direction of steepest improvement).

use crate::compile::CompiledModel;
use crate::model::SafetyModel;
use crate::param::ParamId;
use crate::{Result, SafeOptError};

/// One sample of a parameter sweep.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SweepPoint {
    /// Value of the swept parameter.
    pub value: f64,
    /// Cost at this value.
    pub cost: f64,
    /// Hazard probabilities at this value (model order).
    pub hazard_probabilities: Vec<f64>,
}

/// A one-at-a-time sweep of one parameter.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Sweep {
    /// Name of the swept parameter.
    pub parameter: String,
    /// Samples in increasing parameter order.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// CSV export: `value,cost,<hazard names...>`.
    pub fn to_csv(&self, model: &SafetyModel) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let hazard_names: Vec<&str> = model.hazards().iter().map(|h| h.name()).collect();
        let _ = writeln!(out, "{},cost,{}", self.parameter, hazard_names.join(","));
        for p in &self.points {
            let probs: Vec<String> = p
                .hazard_probabilities
                .iter()
                .map(|v| format!("{v}"))
                .collect();
            let _ = writeln!(out, "{},{},{}", p.value, p.cost, probs.join(","));
        }
        out
    }

    /// The swept value with the lowest cost.
    pub fn best(&self) -> Option<&SweepPoint> {
        self.points
            .iter()
            .min_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap())
    }
}

/// Sweeps parameter `param` over its full interval in `steps` points,
/// holding all other parameters at `reference`.
///
/// # Errors
///
/// [`SafeOptError::UnknownParameter`] for a foreign id,
/// [`SafeOptError::DimensionMismatch`] for a wrong-arity reference, and
/// model-evaluation errors.
pub fn sweep(
    model: &SafetyModel,
    param: ParamId,
    reference: &[f64],
    steps: usize,
) -> Result<Sweep> {
    let space = model.space();
    if param.index() >= space.len() {
        return Err(SafeOptError::UnknownParameter {
            reference: format!("#{}", param.index()),
        });
    }
    if reference.len() != space.len() {
        return Err(SafeOptError::DimensionMismatch {
            expected: space.len(),
            got: reference.len(),
        });
    }
    let steps = steps.max(2);
    let interval = space.get(param).interval();
    let mut point = reference.to_vec();
    let mut grid = Vec::with_capacity(steps);
    for i in 0..steps {
        let v = interval.lerp(i as f64 / (steps - 1) as f64);
        point[param.index()] = v;
        grid.push(point.clone());
    }
    // Batch path: one compiled parallel sweep for costs and hazards.
    let compiled = CompiledModel::compile(model)?;
    let (costs, hazards) = compiled.cost_and_hazards_batch(&grid)?;
    let n_hazards = model.hazards().len();
    let mut points = Vec::with_capacity(steps);
    for (i, p) in grid.iter().enumerate() {
        let row = &hazards[i * n_hazards..(i + 1) * n_hazards];
        let (cost, hazard_probabilities) =
            if costs[i].is_finite() && row.iter().all(|v| v.is_finite()) {
                (costs[i], row.to_vec())
            } else {
                // Resolve closure failures to the scalar path's error.
                (model.cost(p)?, model.hazard_probabilities(p)?)
            };
        points.push(SweepPoint {
            value: p[param.index()],
            cost,
            hazard_probabilities,
        });
    }
    Ok(Sweep {
        parameter: space.get(param).name().to_owned(),
        points,
    })
}

/// One bar of a tornado diagram.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TornadoBar {
    /// Parameter name.
    pub parameter: String,
    /// Cost at the interval's lower end.
    pub cost_at_lo: f64,
    /// Cost at the interval's upper end.
    pub cost_at_hi: f64,
    /// Cost at the reference point.
    pub cost_at_reference: f64,
}

impl TornadoBar {
    /// Total cost swing `|hi − lo|` — the bar length.
    pub fn swing(&self) -> f64 {
        (self.cost_at_hi - self.cost_at_lo).abs()
    }
}

/// Computes a tornado diagram: for each parameter, the cost at its
/// interval endpoints with everything else held at `reference`. Bars are
/// sorted by descending swing.
///
/// # Errors
///
/// [`SafeOptError::DimensionMismatch`] for a wrong-arity reference and
/// model-evaluation errors.
pub fn tornado(model: &SafetyModel, reference: &[f64]) -> Result<Vec<TornadoBar>> {
    let space = model.space();
    if reference.len() != space.len() {
        return Err(SafeOptError::DimensionMismatch {
            expected: space.len(),
            got: reference.len(),
        });
    }
    // Batch path: the reference plus both interval endpoints of every
    // parameter in one compiled evaluation.
    let mut probes = Vec::with_capacity(1 + 2 * space.len());
    probes.push(reference.to_vec());
    let mut point = reference.to_vec();
    for (id, p) in space.iter() {
        point[id.index()] = p.interval().lo();
        probes.push(point.clone());
        point[id.index()] = p.interval().hi();
        probes.push(point.clone());
        point[id.index()] = reference[id.index()];
    }
    let compiled = CompiledModel::compile(model)?;
    let raw = compiled.cost_batch(&probes)?;
    let mut costs = Vec::with_capacity(raw.len());
    for (v, p) in raw.into_iter().zip(&probes) {
        costs.push(if v.is_finite() { v } else { model.cost(p)? });
    }
    let cost_at_reference = costs[0];
    let mut bars = Vec::with_capacity(space.len());
    for (i, (_, p)) in space.iter().enumerate() {
        bars.push(TornadoBar {
            parameter: p.name().to_owned(),
            cost_at_lo: costs[1 + 2 * i],
            cost_at_hi: costs[2 + 2 * i],
            cost_at_reference,
        });
    }
    bars.sort_by(|a, b| b.swing().partial_cmp(&a.swing()).unwrap());
    Ok(bars)
}

/// Cost gradient at `x`, via the engine's reverse-mode adjoint sweep:
/// one forward + one backward tape pass yields **all** partials at a
/// cost independent of the parameter count, instead of the `2·dim`
/// tape sweeps of the old one-at-a-time central differences. Opaque
/// closure factors differentiate through per-op central differences
/// inside the adjoint pass, so every model keeps working.
///
/// When the adjoint gradient comes back non-finite (the model fails to
/// evaluate somewhere in the NaN-poisoned region), the old
/// central-difference path runs instead — step `h` relative to each
/// parameter's interval width, probes clamped into the domain — so
/// failures surface as the same typed errors as before. `h` only
/// affects that fallback.
///
/// # Errors
///
/// [`SafeOptError::DimensionMismatch`] for a wrong-arity point and
/// model-evaluation errors.
pub fn local_gradient(model: &SafetyModel, x: &[f64], h: f64) -> Result<Vec<f64>> {
    let space = model.space();
    if x.len() != space.len() {
        return Err(SafeOptError::DimensionMismatch {
            expected: space.len(),
            got: x.len(),
        });
    }
    let compiled = CompiledModel::compile(model)?;
    // Routed through `gradient_batch` — the lane-blocked batch seam —
    // instead of the pointwise `value_grad`, so this entry point shares
    // the SoA adjoint path with every other gradient consumer (a single
    // point runs the point-at-a-time tail and stays bit-identical to
    // `value_grad`).
    let (values, grad) = compiled.gradient_batch(std::slice::from_ref(&x.to_vec()))?;
    let value = values[0];
    if value.is_finite() && grad.iter().all(|g| g.is_finite()) {
        return Ok(grad);
    }
    // Fallback: the pre-adjoint central-difference path — all probes in
    // one compiled batch, non-finite rows resolved to the scalar path's
    // typed error.
    let mut spans = Vec::with_capacity(space.len());
    let mut probes = Vec::with_capacity(2 * space.len());
    let mut probe = x.to_vec();
    for (id, p) in space.iter() {
        let step = (h * p.interval().width()).max(1e-12);
        let hi = p.interval().clamp(x[id.index()] + step);
        let lo = p.interval().clamp(x[id.index()] - step);
        probe[id.index()] = hi;
        probes.push(probe.clone());
        probe[id.index()] = lo;
        probes.push(probe.clone());
        probe[id.index()] = x[id.index()];
        spans.push(hi - lo);
    }
    let raw = compiled.cost_batch(&probes)?;
    let mut costs = Vec::with_capacity(raw.len());
    for (v, p) in raw.into_iter().zip(&probes) {
        costs.push(if v.is_finite() { v } else { model.cost(p)? });
    }
    let grad = spans
        .iter()
        .enumerate()
        .map(|(i, &span)| {
            if span > 0.0 {
                (costs[2 * i] - costs[2 * i + 1]) / span
            } else {
                0.0
            }
        })
        .collect();
    Ok(grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Hazard;
    use crate::param::ParameterSpace;
    use crate::pprob::{constant, exposure, overtime};
    use safety_opt_stats::dist::TruncatedNormal;

    fn model() -> (SafetyModel, ParamId, ParamId) {
        let mut space = ParameterSpace::new();
        let t1 = space.parameter("t1", 5.0, 30.0).unwrap();
        let t2 = space.parameter("t2", 5.0, 30.0).unwrap();
        let transit = TruncatedNormal::lower_bounded(4.0, 2.0, 0.0).unwrap();
        let col = Hazard::builder("col")
            .cut_set("ot1", [overtime(transit, t1)])
            .build();
        let alr = Hazard::builder("alr")
            .cut_set("hv", [constant(0.5).unwrap(), exposure(0.13, t2)])
            .build();
        let m = SafetyModel::new(space)
            .hazard(col, 100_000.0)
            .hazard(alr, 1.0);
        (m, t1, t2)
    }

    #[test]
    fn sweep_monotonicities_match_model() {
        let (m, t1, t2) = model();
        let reference = m.space().center();
        // Collision probability falls with t1.
        let s1 = sweep(&m, t1, &reference, 20).unwrap();
        for w in s1.points.windows(2) {
            assert!(w[1].hazard_probabilities[0] <= w[0].hazard_probabilities[0] + 1e-15);
        }
        // Alarm probability grows with t2.
        let s2 = sweep(&m, t2, &reference, 20).unwrap();
        for w in s2.points.windows(2) {
            assert!(w[1].hazard_probabilities[1] >= w[0].hazard_probabilities[1] - 1e-15);
        }
        assert_eq!(s1.parameter, "t1");
        assert_eq!(s1.points.len(), 20);
        assert_eq!(s1.points[0].value, 5.0);
        assert_eq!(s1.points.last().unwrap().value, 30.0);
    }

    #[test]
    fn sweep_best_is_cost_minimum() {
        let (m, t1, _) = model();
        let reference = m.space().center();
        let s = sweep(&m, t1, &reference, 50).unwrap();
        let best = s.best().unwrap();
        for p in &s.points {
            assert!(best.cost <= p.cost + 1e-15);
        }
    }

    #[test]
    fn sweep_csv_format() {
        let (m, t1, _) = model();
        let reference = m.space().center();
        let s = sweep(&m, t1, &reference, 3).unwrap();
        let csv = s.to_csv(&m);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "t1,cost,col,alr");
        assert_eq!(lines.count(), 3);
    }

    #[test]
    fn tornado_ranks_influential_parameter_first() {
        let (m, _, _) = model();
        let reference = m.space().center();
        let bars = tornado(&m, &reference).unwrap();
        assert_eq!(bars.len(), 2);
        // t1 moves the 1e5-weighted collision term: far bigger swing.
        assert_eq!(bars[0].parameter, "t1");
        assert!(bars[0].swing() > bars[1].swing());
    }

    #[test]
    fn gradient_signs_match_tradeoff() {
        let (m, _, _) = model();
        // At short runtimes the collision term dominates: cost decreases
        // in t1 (negative gradient), and the alarm term makes t2's
        // gradient positive once overtime is negligible.
        let g = local_gradient(&m, &[10.0, 25.0], 1e-4).unwrap();
        assert!(g[0] < 0.0, "g_t1 = {}", g[0]);
        assert!(g[1] > 0.0, "g_t2 = {}", g[1]);
    }

    #[test]
    fn adjoint_gradient_matches_central_differences() {
        let (m, _, _) = model();
        for x in [[12.0, 18.0], [7.5, 25.0], [22.0, 9.0]] {
            let g = local_gradient(&m, &x, 1e-6).unwrap();
            for i in 0..2 {
                // Reference step large enough that central-difference
                // cancellation stays below the tolerance.
                let h = 1e-4 * 25.0;
                let mut p = x;
                p[i] = x[i] + h;
                let fp = m.cost(&p).unwrap();
                p[i] = x[i] - h;
                let fm = m.cost(&p).unwrap();
                let fd = (fp - fm) / (2.0 * h);
                let scale = g[i].abs().max(fd.abs()).max(1e-9);
                assert!(
                    (g[i] - fd).abs() <= 1e-5 * scale,
                    "component {i} at {x:?}: adjoint {} vs fd {fd}",
                    g[i]
                );
            }
        }
    }

    #[test]
    fn closure_models_still_differentiate() {
        // An opaque factor forces the adjoint pass through its per-op
        // central-difference fallback; the gradient must stay finite
        // and correct in sign (cost grows with t via 0.01·t²).
        let mut space = ParameterSpace::new();
        let t = space.parameter("t", 0.1, 10.0).unwrap();
        let _ = t;
        let h = Hazard::builder("h")
            .cut_set(
                "smooth closure",
                [crate::pprob::from_fn("quad", |v| {
                    let t = v.get(crate::param::ParamId::new(0)).unwrap_or(f64::NAN);
                    (0.01 * t * t).min(1.0)
                })],
            )
            .build();
        let m = SafetyModel::new(space).hazard(h, 1.0);
        let g = local_gradient(&m, &[3.0], 1e-6).unwrap();
        assert!(
            (g[0] - 0.06).abs() < 1e-6,
            "d/dt 0.01 t² at 3 = 0.06, got {}",
            g[0]
        );
    }

    #[test]
    fn errors_on_bad_input() {
        let (m, t1, _) = model();
        assert!(sweep(&m, t1, &[1.0], 5).is_err());
        assert!(sweep(&m, ParamId(9), &m.space().center(), 5).is_err());
        assert!(tornado(&m, &[1.0]).is_err());
        assert!(local_gradient(&m, &[1.0], 1e-4).is_err());
    }
}
