//! Shared adversarial-model machinery for the engine's equivalence
//! property suites (`fleet_equivalence`, `soa_equivalence`): random
//! model families — shared hazard structure, per-model perturbed
//! constants, NaN-producing opaque closures — compiled both as one
//! fleet and as standalone per-model tapes, plus the pointwise oracles
//! the batch entry points are checked against.

#![allow(dead_code)] // each test crate uses a different subset

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safety_opt_engine::fleet::{Fleet, FleetBuilder};
use safety_opt_engine::tape::{ClosureFn, Tape, TapeBuilder, Value};
use safety_opt_engine::GradWorkspace;
use safety_opt_stats::dist::TruncatedNormal;
use std::sync::Arc;

/// Input arity of every generated model.
pub const DIM: usize = 3;

/// One probability factor of the family template. `vary: true` marks
/// the constants that differ between the family's sampled models —
/// everything else hash-conses across the whole fleet.
#[derive(Debug, Clone)]
pub enum FactorSpec {
    Constant {
        base: f64,
        vary: bool,
    },
    Exposure {
        rate: f64,
        vary: bool,
        input: usize,
    },
    Overtime {
        mu: f64,
        sigma: f64,
        input: usize,
    },
    Complement(Box<FactorSpec>),
    Scaled(f64, Box<FactorSpec>),
    Product(Vec<FactorSpec>),
    Sum(Vec<FactorSpec>),
    /// Shannon/ITE node `p·hi + (1−p)·lo` — the BDD-exact
    /// quantification kernel ([`TapeBuilder::mul_add`]).
    Ite(Box<FactorSpec>, Box<FactorSpec>, Box<FactorSpec>),
    /// Opaque closure over the full point; `slot` is its per-model
    /// dedup identity, `poison` makes it return NaN past a threshold
    /// (the evaluation-failure path), `smooth` picks the differentiable
    /// sine form instead of the kinked `rem_euclid` form (the gradient
    /// suite compares against finite differences and needs closures
    /// without interior kinks).
    Closure {
        slot: usize,
        coeff: f64,
        vary: bool,
        poison: bool,
        smooth: bool,
    },
}

/// A family: shared hazard structure, per-model constant perturbations.
#[derive(Debug, Clone)]
pub struct FamilySpec {
    /// hazards → cut sets → factors, with one weight per hazard.
    pub hazards: Vec<(Vec<Vec<FactorSpec>>, f64)>,
    pub n_models: usize,
}

/// Deterministic per-model perturbation of a varying constant.
pub fn perturb(base: f64, vary: bool, model: usize) -> f64 {
    if vary {
        base * (1.0 + 0.03 * (model as f64 + 1.0))
    } else {
        base
    }
}

pub fn closure_fn(coeff: f64, poison: bool, smooth: bool) -> ClosureFn {
    Arc::new(move |xs: &[f64]| {
        let v = if smooth {
            0.5 + 0.45 * (coeff * (xs[0] + 0.5 * xs[1] - 0.25 * xs[2])).sin()
        } else {
            (coeff * xs[0]).rem_euclid(1.0)
        };
        if poison && xs[0] > 30.0 {
            f64::NAN
        } else {
            v
        }
    })
}

/// Forces every closure of `spec` onto the smooth sine form (for the
/// gradient suite's finite-difference comparisons); poison flags and
/// everything else survive.
pub fn smooth_closures(spec: &mut FamilySpec) {
    fn visit(f: &mut FactorSpec) {
        match f {
            FactorSpec::Closure { smooth, .. } => *smooth = true,
            FactorSpec::Complement(inner) | FactorSpec::Scaled(_, inner) => visit(inner),
            FactorSpec::Product(terms) | FactorSpec::Sum(terms) => {
                terms.iter_mut().for_each(visit);
            }
            FactorSpec::Ite(p, hi, lo) => {
                visit(p);
                visit(hi);
                visit(lo);
            }
            FactorSpec::Constant { .. }
            | FactorSpec::Exposure { .. }
            | FactorSpec::Overtime { .. } => {}
        }
    }
    for (cut_sets, _) in &mut spec.hazards {
        for factors in cut_sets {
            factors.iter_mut().for_each(visit);
        }
    }
}

/// Lowers one factor of model `model` into `b`, mirroring the shapes
/// the safety-model compiler produces.
pub fn lower_factor(b: &mut TapeBuilder, spec: &FactorSpec, model: usize) -> Value {
    match spec {
        FactorSpec::Constant { base, vary } => b.constant(perturb(*base, *vary, model)),
        FactorSpec::Exposure { rate, vary, input } => {
            let t = b.input(*input);
            b.exposure(perturb(*rate, *vary, model), t)
        }
        FactorSpec::Overtime { mu, sigma, input } => {
            let d = TruncatedNormal::lower_bounded(*mu, *sigma, 0.0).unwrap();
            let x = b.input(*input);
            b.overtime(&d, x)
        }
        FactorSpec::Complement(inner) => {
            let v = lower_factor(b, inner, model);
            b.complement(v)
        }
        FactorSpec::Scaled(c, inner) => {
            let v = lower_factor(b, inner, model);
            b.scale(*c, v)
        }
        FactorSpec::Product(terms) => {
            let vs: Vec<Value> = terms.iter().map(|t| lower_factor(b, t, model)).collect();
            b.product(vs)
        }
        FactorSpec::Sum(terms) => {
            let vs: Vec<Value> = terms.iter().map(|t| lower_factor(b, t, model)).collect();
            b.sum_clamped(0.0, vs)
        }
        FactorSpec::Ite(p, hi, lo) => {
            let pv = lower_factor(b, p, model);
            let hv = lower_factor(b, hi, model);
            let lv = lower_factor(b, lo, model);
            b.mul_add(pv, hv, lv)
        }
        FactorSpec::Closure {
            slot,
            coeff,
            vary,
            poison,
            smooth,
        } => {
            // Identity is per (model, slot), exactly like the real
            // compiler's expression-node pointers: clones within one
            // model dedupe, models never share closures.
            let c = perturb(*coeff, *vary, model);
            b.closure(model * 10_000 + slot, closure_fn(c, *poison, *smooth))
        }
    }
}

pub fn lower_model(b: &mut TapeBuilder, spec: &FamilySpec, model: usize) {
    for (cut_sets, weight) in &spec.hazards {
        let cs: Vec<Value> = cut_sets
            .iter()
            .map(|factors| {
                let fs: Vec<Value> = factors.iter().map(|f| lower_factor(b, f, model)).collect();
                b.product(fs)
            })
            .collect();
        let hazard = b.sum_clamped(0.0, cs);
        b.output(hazard, *weight);
    }
}

/// Compiles the family both ways: one fleet, and one tape per model.
pub fn compile_family(spec: &FamilySpec) -> (Fleet, Vec<Tape>) {
    let mut fb = FleetBuilder::new(DIM);
    let mut tapes = Vec::with_capacity(spec.n_models);
    for model in 0..spec.n_models {
        lower_model(fb.lowerer(), spec, model);
        fb.finish_model();
        let mut sb = TapeBuilder::new(DIM);
        lower_model(&mut sb, spec, model);
        tapes.push(sb.build());
    }
    (fb.build(), tapes)
}

pub fn factor_strategy() -> impl Strategy<Value = FactorSpec> {
    let leaf = prop_oneof![
        (0.0f64..=1.0, any::<bool>()).prop_map(|(base, vary)| FactorSpec::Constant { base, vary }),
        (0.001f64..2.0, any::<bool>(), 0usize..DIM)
            .prop_map(|(rate, vary, input)| FactorSpec::Exposure { rate, vary, input }),
        ((0.5f64..20.0, 0.1f64..5.0), 0usize..DIM)
            .prop_map(|((mu, sigma), input)| FactorSpec::Overtime { mu, sigma, input }),
        (
            0usize..4,
            0.1f64..3.0,
            any::<bool>(),
            any::<bool>(),
            any::<bool>()
        )
            .prop_map(|(slot, coeff, vary, poison, smooth)| FactorSpec::Closure {
                slot,
                coeff,
                vary,
                poison,
                smooth
            }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner
                .clone()
                .prop_map(|f| FactorSpec::Complement(Box::new(f))),
            (0.0f64..=1.0, inner.clone()).prop_map(|(c, f)| FactorSpec::Scaled(c, Box::new(f))),
            prop::collection::vec(inner.clone(), 1..4).prop_map(FactorSpec::Product),
            prop::collection::vec(inner.clone(), 1..4).prop_map(FactorSpec::Sum),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(p, hi, lo)| {
                FactorSpec::Ite(Box::new(p), Box::new(hi), Box::new(lo))
            }),
        ]
    })
}

pub fn family_strategy() -> impl Strategy<Value = FamilySpec> {
    (
        prop::collection::vec(
            (
                prop::collection::vec(prop::collection::vec(factor_strategy(), 1..4), 1..4),
                0.0f64..1e6,
            ),
            1..4,
        ),
        2usize..7,
    )
        .prop_map(|(hazards, n_models)| FamilySpec { hazards, n_models })
}

pub fn random_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..DIM).map(|_| rng.gen::<f64>() * 40.0).collect())
        .collect()
}

/// Bit view of a float slice: NaN-safe exact comparison.
pub fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

// Pointwise oracles: one point-at-a-time sweep per point
// (`Tape::eval_into` / `eval_grad_into`, `Fleet::eval_*_into`), the
// reference every lane-blocked batch entry point must reproduce bit for
// bit. Rows are point-major; indexing (not `chunks_mut`) keeps 0-wide
// rows working.

/// Costs and point-major output rows of `tape` at every point.
pub fn pointwise_outputs<P: AsRef<[f64]>>(tape: &Tape, points: &[P]) -> (Vec<f64>, Vec<f64>) {
    let n_out = tape.n_outputs();
    let mut scratch = Vec::new();
    let mut outputs = vec![0.0; points.len() * n_out];
    let costs = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let row = &mut outputs[i * n_out..(i + 1) * n_out];
            tape.eval_into(p.as_ref(), &mut scratch, row)
        })
        .collect();
    (costs, outputs)
}

/// Costs of `tape` at every point.
pub fn pointwise_costs<P: AsRef<[f64]>>(tape: &Tape, points: &[P]) -> Vec<f64> {
    pointwise_outputs(tape, points).0
}

/// Costs and point-major gradient rows of `tape` at every point.
pub fn pointwise_grads<P: AsRef<[f64]>>(tape: &Tape, points: &[P]) -> (Vec<f64>, Vec<f64>) {
    let dim = tape.n_inputs();
    let mut ws = GradWorkspace::new();
    let mut out = vec![0.0; tape.n_outputs()];
    let mut grads = vec![0.0; points.len() * dim];
    let costs = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let row = &mut grads[i * dim..(i + 1) * dim];
            tape.eval_grad_into(p.as_ref(), &mut ws, &mut out, row)
        })
        .collect();
    (costs, grads)
}

/// Point-major costs (`points × n_models`) and output rows
/// (`points × total_outputs`) of every fleet model at every point.
pub fn pointwise_all<P: AsRef<[f64]>>(fleet: &Fleet, points: &[P]) -> (Vec<f64>, Vec<f64>) {
    let (n_models, width) = (fleet.n_models(), fleet.total_outputs());
    let mut scratch = Vec::new();
    let mut costs = vec![0.0; points.len() * n_models];
    let mut outputs = vec![0.0; points.len() * width];
    for (i, p) in points.iter().enumerate() {
        fleet.eval_all_into(
            p.as_ref(),
            &mut scratch,
            &mut costs[i * n_models..(i + 1) * n_models],
            &mut outputs[i * width..(i + 1) * width],
        );
    }
    (costs, outputs)
}

/// Costs of fleet model `model` at every point (masked sweep).
pub fn pointwise_model<P: AsRef<[f64]>>(fleet: &Fleet, model: usize, points: &[P]) -> Vec<f64> {
    let mut scratch = Vec::new();
    let mut out = vec![0.0; fleet.n_outputs(model)];
    points
        .iter()
        .map(|p| fleet.eval_model_into(model, p.as_ref(), &mut scratch, &mut out))
        .collect()
}

/// Costs and point-major gradient rows of fleet model `model` at every
/// point (masked adjoint sweep).
pub fn pointwise_model_grads<P: AsRef<[f64]>>(
    fleet: &Fleet,
    model: usize,
    points: &[P],
) -> (Vec<f64>, Vec<f64>) {
    let dim = fleet.n_inputs();
    let mut ws = GradWorkspace::new();
    let mut out = vec![0.0; fleet.n_outputs(model)];
    let mut grads = vec![0.0; points.len() * dim];
    let costs = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let row = &mut grads[i * dim..(i + 1) * dim];
            fleet.eval_model_grad_into(model, p.as_ref(), &mut ws, &mut out, row)
        })
        .collect();
    (costs, grads)
}
