//! `industrial_query`: an industrial-size component tree, where the
//! tree front end and large parallel sweeps carry most of the time.
//!
//! Each query takes the 1105-gate `synth::modular_tree` 48×12×4 (2400
//! leaves) as text, with a leaf-probability scale drawn from the seed,
//! and a seed-drawn 4096-point design. Ten timers drive the leaves:
//! timer `g` every leaf of the modules `m ≡ g (mod 10)`; even leaves
//! take `scaled(50·p, overtime(transit, t_g))`, odd leaves
//! `scaled(p, exposure(0.02, t_g))`, house events stay constants. The
//! query parses, builds the BDD-exact hazard, compiles, sweeps the
//! design (costs and gradients), optimizes with the default strategy,
//! and ranks leaf importance at the optimum.

use crate::elbtunnel::stored_house_events;
use crate::layers::{self, ms_since, timed, Tally};
use crate::reference::{ModularShape, INDUSTRIAL_EXPOSURE_RATE, INDUSTRIAL_OVERTIME_WEIGHT};
use crate::{query_rng, Workload};
use rand::Rng;
use safety_opt_core::compile::CompiledModel;
use safety_opt_core::importance::ImportanceReport;
use safety_opt_core::model::{Hazard, QuantMethod, SafetyModel};
use safety_opt_core::optimize::{OptimalConfiguration, SafetyOptimizer};
use safety_opt_core::param::{ParamValues, ParameterSpace};
use safety_opt_core::pprob::{constant, exposure, overtime, scaled};
use safety_opt_core::SafeOptError;
use safety_opt_elbtunnel::analytic::ElbtunnelModel;
use safety_opt_fta::bdd::TreeBdd;
use safety_opt_fta::parse::{parse, to_text};
use safety_opt_fta::preprocess::{preprocess_with_constants, PreprocessOutcome};
use safety_opt_fta::quant::ProbabilityMap;
use safety_opt_fta::synth::{modular_tree, ModularTreeConfig};
use safety_opt_fta::tree::FaultTree;
use safety_opt_fta::FtaError;
use safety_opt_stats::dist::TruncatedNormal;
use std::cell::Cell;
use std::time::Instant;

/// Modules of the tree.
pub const MODULES: usize = 48;
/// Sections per module.
pub const SECTIONS: usize = 12;
/// Leaves per section.
pub const WIDTH: usize = 4;
/// Timers.
pub const TIMERS: usize = 10;
/// Design points swept per query.
pub const DESIGN_POINTS: usize = 4096;
/// Base leaf probability before the seed-drawn scale.
const BASE_PROBABILITY: f64 = 1e-3;
/// Range of the seed-drawn leaf-probability scale.
const SCALE_RANGE: (f64, f64) = (0.8, 1.25);

/// One query's input.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    /// The tree as text.
    pub text: String,
    /// The design points to sweep.
    pub design: Vec<Vec<f64>>,
    /// The tree's shape, for the reference solver.
    pub shape: ModularShape,
}

/// One query's answer.
#[derive(Debug)]
pub struct Answer {
    /// The parsed tree.
    pub tree: FaultTree,
    /// The model built from it.
    pub model: SafetyModel,
    /// The compiled model.
    pub compiled: CompiledModel,
    /// Costs at the design points.
    pub design_costs: Vec<f64>,
    /// Cost gradients at the design points (row-major, `TIMERS` wide).
    pub design_gradients: Vec<f64>,
    /// The optimum.
    pub optimum: OptimalConfiguration,
    /// Leaf importance at the optimum.
    pub importance: ImportanceReport,
}

/// The workload.
#[derive(Debug, Default)]
pub struct IndustrialQuery {
    /// Traced queries so far: alternates which thread count sweeps first.
    traced_queries: Cell<u64>,
}

/// The timer domain (minutes), the Elbtunnel model's.
fn domain() -> (f64, f64) {
    ElbtunnelModel::paper().timer_domain
}

fn transit() -> Result<TruncatedNormal, SafeOptError> {
    ElbtunnelModel::paper().transit_distribution()
}

/// Module index of leaf name `m{m}_…`.
fn module_of(name: &str) -> Option<usize> {
    name.strip_prefix('m')?.split('_').next()?.parse().ok()
}

/// `(module, section, leaf)` of a basic-event name `m{m}_s{s}_e{j}`.
fn leaf_position(name: &str) -> Option<(usize, usize, usize)> {
    let mut parts = name.split('_');
    let m = parts.next()?.strip_prefix('m')?.parse().ok()?;
    let s = parts.next()?.strip_prefix('s')?.parse().ok()?;
    let j = parts.next()?.strip_prefix('e')?.parse().ok()?;
    parts.next().is_none().then_some((m, s, j))
}

/// Builds the ten-timer safety model from the parsed tree, binding
/// leaves by name.
pub fn build_model(tree: &FaultTree) -> Result<SafetyModel, SafeOptError> {
    let mut space = ParameterSpace::new();
    let (lo, hi) = domain();
    let timers = (0..TIMERS)
        .map(|g| space.parameter_with_unit(format!("t{g}"), lo, hi, "min"))
        .collect::<Result<Vec<_>, _>>()?;
    let transit = transit()?;
    let hazard = Hazard::from_fault_tree(tree, |leaf| {
        let node = tree.node(tree.leaf(leaf));
        let name = node.name();
        let p = node
            .probability()
            .ok_or_else(|| FtaError::MissingProbability {
                event: name.to_owned(),
            })?;
        if p == 0.0 || p == 1.0 {
            return constant(p);
        }
        let g = module_of(name).ok_or_else(|| FtaError::UnknownNode {
            reference: name.to_owned(),
        })? % TIMERS;
        if leaf.is_multiple_of(2) {
            scaled(INDUSTRIAL_OVERTIME_WEIGHT * p, overtime(transit, timers[g]))
        } else {
            scaled(p, exposure(INDUSTRIAL_EXPOSURE_RATE, timers[g]))
        }
    })?;
    Ok(SafetyModel::new(space)
        .hazard(hazard, 1.0)
        .with_quant_method(QuantMethod::BddExact))
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Workload for IndustrialQuery {
    type Input = Input;
    type Answer = Answer;

    fn name(&self) -> &'static str {
        "industrial_query"
    }

    fn generate(&self, seed: u64, index: u64) -> Input {
        let mut rng = query_rng(seed, index);
        let (lo, hi) = SCALE_RANGE;
        let leaf_probability = BASE_PROBABILITY * (lo + (hi - lo) * rng.gen::<f64>());
        let tree = modular_tree(ModularTreeConfig {
            modules: MODULES,
            sections_per_module: SECTIONS,
            leaves_per_section: WIDTH,
            leaf_probability,
        });
        let (lo, hi) = domain();
        let design = (0..DESIGN_POINTS)
            .map(|_| {
                (0..TIMERS)
                    .map(|_| lo + (hi - lo) * rng.gen::<f64>())
                    .collect()
            })
            .collect();
        Input {
            text: to_text(&tree).expect("rooted tree"),
            design,
            shape: ModularShape {
                modules: MODULES,
                sections: SECTIONS,
                width: WIDTH,
                leaf_probability,
                timers: TIMERS,
            },
        }
    }

    fn query(&self, input: &Input) -> Result<Answer, String> {
        let tree = parse(&input.text).map_err(err)?;
        let model = build_model(&tree).map_err(err)?;
        let compiled = CompiledModel::compile(&model).map_err(err)?;
        let design_costs = compiled.cost_batch(&input.design).map_err(err)?;
        let (_, design_gradients) = compiled.gradient_batch(&input.design).map_err(err)?;
        let optimum = SafetyOptimizer::new(&model).run().map_err(err)?;
        let importance =
            ImportanceReport::at_point(&compiled, optimum.point().values()).map_err(err)?;
        Ok(Answer {
            tree,
            model,
            compiled,
            design_costs,
            design_gradients,
            optimum,
            importance,
        })
    }

    fn answers(&self, _answer: &Answer) -> u64 {
        1
    }

    fn check(&self, input: &Input, answer: &Answer) -> Result<f64, String> {
        check_answer(input, answer)
    }

    fn traced(&self, input: &Input, t: &mut Tally) -> Result<Answer, String> {
        let sweeps_before = layers::telemetry_counter("engine.grad.adjoint_sweeps");
        let start = Instant::now();
        let tree = timed(t, "fta.parse_ms", || parse(&input.text)).map_err(err)?;
        let model = timed(t, "safeopt.hazard_build_ms", || build_model(&tree)).map_err(err)?;
        let compiled =
            timed(t, "safeopt.compile_ms", || CompiledModel::compile(&model)).map_err(err)?;
        let design_costs = timed(t, "engine.sweep_cost_ms", || {
            compiled.cost_batch(&input.design)
        })
        .map_err(err)?;
        let (_, design_gradients) = timed(t, "engine.grad_ms", || {
            compiled.gradient_batch(&input.design)
        })
        .map_err(err)?;
        let optimum = timed(t, "safeopt.optimize_ms", || {
            SafetyOptimizer::new(&model).run()
        })
        .map_err(err)?;
        let importance = timed(t, "safeopt.importance_ms", || {
            ImportanceReport::at_point(&compiled, optimum.point().values())
        })
        .map_err(err)?;
        t.add("bench.query_ms", ms_since(start));
        let sweep_ms = t.get("engine.sweep_cost_ms") + t.get("engine.grad_ms");
        t.add("safeopt.sweep_ms", sweep_ms);
        let top: f64 = [
            "fta.parse_ms",
            "safeopt.hazard_build_ms",
            "safeopt.compile_ms",
            "safeopt.sweep_ms",
            "safeopt.optimize_ms",
            "safeopt.importance_ms",
        ]
        .iter()
        .map(|k| t.get(k))
        .sum();
        t.add("bench.top_ms", top);
        t.add(
            "engine.adjoint_sweeps",
            (layers::telemetry_counter("engine.grad.adjoint_sweeps") - sweeps_before) as f64,
        );
        t.add("fta.parse_bytes", input.text.len() as f64);
        t.add("engine.tape_ops", compiled.tape().n_ops() as f64);
        t.add("engine.sweep_points", input.design.len() as f64);
        t.add("engine.grad_points", input.design.len() as f64);
        t.add("optim.evaluations", optimum.outcome().evaluations as f64);
        t.add("optim.iterations", optimum.outcome().iterations as f64);

        let hazard_same =
            layers::replay_hazard(t, &tree, &model.hazards()[0], stored_house_events(&tree))?;
        let optimize_same =
            layers::replay_nelder_mead(t, &model, optimum.outcome(), t.get("safeopt.optimize_ms"))?;
        let sweep_same = self.single_thread_sweep(t, &model, &compiled, input, &design_costs)?;
        let same = [hazard_same, optimize_same, sweep_same];
        t.add("bench.replays", same.len() as f64);
        t.add(
            "bench.replays_identical",
            same.iter().filter(|&&s| s).count() as f64,
        );
        Ok(Answer {
            tree,
            model,
            compiled,
            design_costs,
            design_gradients,
            optimum,
            importance,
        })
    }
}

impl IndustrialQuery {
    /// The design sweep on a one-thread model against the `nproc`-thread
    /// model, interleaved (the order alternates between queries). Adds
    /// both times; returns whether the one-thread costs match bit for bit.
    fn single_thread_sweep(
        &self,
        t: &mut Tally,
        model: &SafetyModel,
        compiled: &CompiledModel,
        input: &Input,
        costs: &[f64],
    ) -> Result<bool, String> {
        let single = CompiledModel::compile_with_threads(model, 1).map_err(err)?;
        let sweep = |m: &CompiledModel| -> Result<(f64, Vec<f64>), String> {
            let start = Instant::now();
            let c = m.cost_batch(&input.design).map_err(err)?;
            m.gradient_batch(&input.design).map_err(err)?;
            Ok((ms_since(start), c))
        };
        let n = self.traced_queries.get();
        self.traced_queries.set(n + 1);
        let ((single_ms, single_costs), (many_ms, _)) = if n.is_multiple_of(2) {
            let s = sweep(&single)?;
            (s, sweep(compiled)?)
        } else {
            let m = sweep(compiled)?;
            (sweep(&single)?, m)
        };
        t.add("engine.sweep_1t_ms", single_ms);
        t.add("engine.sweep_nt_ms", many_ms);
        Ok(single_costs.len() == costs.len()
            && single_costs
                .iter()
                .zip(costs)
                .all(|(a, b)| a.to_bits() == b.to_bits()))
    }
}

/// Relative agreement required between the compiled P(top) and the
/// monolithic BDD of the preprocessed tree.
const BDD_AGREEMENT: f64 = 1e-12;
/// Relative agreement required between the BDD and the hand-derived
/// closed form.
const CLOSED_FORM_AGREEMENT: f64 = 1e-10;
/// How far above the separable reference optimum the optimizer's cost
/// may lie.
pub const OPTIMUM_GAP_LIMIT: f64 = 1e-4;

/// The leaf probabilities at `x`, from the reference formulas.
fn reference_leaf_probabilities(
    tree: &FaultTree,
    shape: &ModularShape,
    transit: &TruncatedNormal,
    x: &[f64],
) -> Result<Vec<f64>, String> {
    tree.leaves()
        .iter()
        .map(|&id| {
            let node = tree.node(id);
            match (node.probability(), leaf_position(node.name())) {
                (Some(p), _) if p == 0.0 || p == 1.0 => Ok(p),
                (_, Some((m, s, j))) => {
                    Ok(shape.leaf_probability_at(transit, m, s, j, x[m % shape.timers]))
                }
                _ => Err(format!("unexpected leaf {:?}", node.name())),
            }
        })
        .collect()
}

/// The three checks of an industrial answer, plus the gap to the
/// separable reference optimum.
///
/// # Errors
///
/// What is wrong with the answer.
pub fn check_answer(input: &Input, answer: &Answer) -> Result<f64, String> {
    let x = answer.optimum.point().values().to_vec();
    let cost = answer.optimum.cost();
    if x.len() != TIMERS || !cost.is_finite() {
        return Err(format!("malformed optimum {x:?} with cost {cost}"));
    }
    let transit = transit().map_err(err)?;
    let tree = &answer.tree;

    // 1. Compiled P(top) vs the monolithic BDD of the preprocessed tree.
    let (_, hazards) = answer
        .compiled
        .cost_and_hazards_batch(std::slice::from_ref(&x))
        .map_err(err)?;
    let compiled_top = hazards[0];
    let reduced = match preprocess_with_constants(tree, stored_house_events(tree))
        .map_err(err)?
        .outcome
    {
        PreprocessOutcome::Tree(t) => t,
        PreprocessOutcome::Constant(v) => return Err(format!("tree folded to constant {v}")),
    };
    let probs = reference_leaf_probabilities(tree, &input.shape, &transit, &x)?;
    let bdd_top = TreeBdd::build(&reduced)
        .and_then(|bdd| bdd.probability(&ProbabilityMap::new(probs)?))
        .map_err(err)?;
    if (compiled_top - bdd_top).abs() > BDD_AGREEMENT * bdd_top {
        return Err(format!(
            "compiled P(top) {compiled_top:e} vs monolithic BDD {bdd_top:e}"
        ));
    }
    let closed_top = input.shape.top_probability(&transit, &x);
    if (closed_top - bdd_top).abs() > CLOSED_FORM_AGREEMENT * bdd_top {
        return Err(format!(
            "monolithic BDD {bdd_top:e} vs closed form {closed_top:e}"
        ));
    }

    // 2. The rare-event sum bounds the exact value from above.
    let rare = answer.model.hazards()[0]
        .probability_with(&ParamValues::new(&x), QuantMethod::RareEvent)
        .map_err(err)?;
    if rare < bdd_top * (1.0 - BDD_AGREEMENT) {
        return Err(format!("rare-event sum {rare:e} below exact {bdd_top:e}"));
    }

    // 3. The optimum is no worse than the best design point.
    let best_design = answer
        .design_costs
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    if cost > best_design {
        return Err(format!(
            "optimum {cost:e} worse than the best design point {best_design:e}"
        ));
    }
    if answer.design_gradients.len() != TIMERS * input.design.len()
        || !answer.design_gradients.iter().all(|g| g.is_finite())
    {
        return Err("design gradients malformed".to_owned());
    }
    if answer.importance.hazards.len() != 1 {
        return Err("importance report lacks the hazard".to_owned());
    }

    let (_, best) = input.shape.separable_optimum(&transit, domain());
    let gap = (cost - best) / best;
    if !(-1e-9..=OPTIMUM_GAP_LIMIT).contains(&gap) {
        return Err(format!(
            "optimum {cost:e} is {gap:e} off the separable reference {best:e}"
        ));
    }
    Ok(gap)
}
