//! `elbtunnel_query`: the paper's own loop at paper size.
//!
//! Each query takes the collision and false-alarm trees as text (the
//! trees `ElbtunnelModel::build_from_trees` builds, with their constant
//! leaves' probabilities in the text) plus the two uncertain constants
//! λ_HV and P(OHV) drawn from the seed. It parses both trees, binds the
//! leaves by name to their probability expressions (quantified
//! BDD-exactly), optimizes with the default strategy, and ranks leaf
//! importance at the optimum.

use crate::layers::{self, ms_since, timed, Tally};
use crate::reference::Elbtunnel;
use crate::{query_rng, sample_elbtunnel, Workload};
use safety_opt_core::compile::CompiledModel;
use safety_opt_core::importance::ImportanceReport;
use safety_opt_core::model::{Hazard, QuantMethod, SafetyModel};
use safety_opt_core::optimize::{OptimalConfiguration, SafetyOptimizer};
use safety_opt_core::param::{ParamId, ParameterSpace};
use safety_opt_core::pprob::{constant, exposure, overtime, product, scaled, sum, ProbExpr};
use safety_opt_core::SafeOptError;
use safety_opt_elbtunnel::analytic::ElbtunnelModel;
use safety_opt_fta::parse::{parse, to_text};
use safety_opt_fta::tree::FaultTree;
use safety_opt_fta::FtaError;
use std::time::Instant;

/// One query's input.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    /// The collision tree as text.
    pub collision_text: String,
    /// The false-alarm tree as text.
    pub false_alarm_text: String,
    /// The model constants; λ_HV and P(OHV) are drawn per query, the
    /// rest are the paper's.
    pub constants: ElbtunnelModel,
}

/// One query's answer.
#[derive(Debug)]
pub struct Answer {
    /// The optimum.
    pub optimum: OptimalConfiguration,
    /// Leaf importance at the optimum.
    pub importance: ImportanceReport,
    /// The compiled model the importance ranking used.
    pub compiled: CompiledModel,
}

/// The workload.
#[derive(Debug, Default)]
pub struct ElbtunnelQuery;

/// The two trees of `ElbtunnelModel::build_from_trees`, with the
/// constant leaves' probabilities stored so the text carries them.
pub fn trees(m: &ElbtunnelModel) -> Result<(FaultTree, FaultTree), FtaError> {
    let mut col = FaultTree::new("collision");
    let ot1 = col.basic_event("OT1")?;
    let ot2 = col.basic_event("OT2")?;
    let crit = col.condition_with_probability("OHV critical", m.p_ohv_critical)?;
    let chain = col.or_gate("a timer runs out", [ot1, ot2])?;
    let armed = col.inhibit_gate("OHV collides", chain, crit)?;
    let resid = col.basic_event_with_probability("Pconst1", m.p_const1)?;
    let top = col.or_gate("collision", [armed, resid])?;
    col.set_root(top)?;

    let mut alr = FaultTree::new("false-alarm");
    let hv = alr.basic_event("HV_ODfinal")?;
    let active = alr.condition("ODfinal active")?;
    let armed = alr.inhibit_gate("spurious stop in zone 2", hv, active)?;
    let resid = alr.basic_event_with_probability("Pconst2", m.p_const2)?;
    let top = alr.or_gate("false alarm", [armed, resid])?;
    alr.set_root(top)?;
    Ok((col, alr))
}

/// The probability a constant leaf stores in the text.
fn stored(tree: &FaultTree, leaf: usize) -> Result<ProbExpr, SafeOptError> {
    let node = tree.node(tree.leaf(leaf));
    let p = node
        .probability()
        .ok_or_else(|| FtaError::MissingProbability {
            event: node.name().to_owned(),
        })?;
    constant(p)
}

fn unknown_leaf(tree: &FaultTree, leaf: usize) -> SafeOptError {
    FtaError::UnknownNode {
        reference: tree.node(tree.leaf(leaf)).name().to_owned(),
    }
    .into()
}

/// Builds the safety model from the two parsed trees, binding leaves by
/// name as `ElbtunnelModel::build_from_trees` does.
pub fn build_model(
    col: &FaultTree,
    alr: &FaultTree,
    c: &ElbtunnelModel,
) -> Result<SafetyModel, SafeOptError> {
    let mut space = ParameterSpace::new();
    let (lo, hi) = c.timer_domain;
    let t1 = space.parameter_with_unit("timer1", lo, hi, "min")?;
    let t2 = space.parameter_with_unit("timer2", lo, hi, "min")?;
    let transit = c.transit_distribution()?;
    let collision = Hazard::from_fault_tree(col, |leaf| match col.node(col.leaf(leaf)).name() {
        "OT1" => Ok(overtime(transit, t1)),
        "OT2" => Ok(overtime(transit, t2)),
        "OHV critical" | "Pconst1" => stored(col, leaf),
        _ => Err(unknown_leaf(col, leaf)),
    })?;
    let activation = activation(c, t1)?;
    let false_alarm = Hazard::from_fault_tree(alr, |leaf| match alr.node(alr.leaf(leaf)).name() {
        "HV_ODfinal" => Ok(exposure(c.lambda_hv, t2)),
        "ODfinal active" => Ok(activation.clone()),
        "Pconst2" => stored(alr, leaf),
        _ => Err(unknown_leaf(alr, leaf)),
    })?;
    Ok(SafetyModel::new(space)
        .hazard(collision, c.cost_collision)
        .hazard(false_alarm, c.cost_false_alarm)
        .with_quant_method(QuantMethod::BddExact))
}

/// `P(OHV) + (1 − P(OHV)) · P(FD_LBpre) · P(FD_LBpost)(T1)`.
fn activation(c: &ElbtunnelModel, t1: ParamId) -> Result<ProbExpr, SafeOptError> {
    Ok(sum([
        constant(c.p_ohv)?,
        scaled(
            1.0 - c.p_ohv,
            product([constant(c.p_fd_lbpre)?, exposure(c.lambda_fd_lb, t1)]),
        )?,
    ]))
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// House-event oracle from stored probabilities: the leaves bound to
/// their stored value fold when it is exactly 0 or 1.
pub fn stored_house_events(tree: &FaultTree) -> impl FnMut(usize) -> Option<bool> + '_ {
    |slot| match tree.node(tree.leaf(slot)).probability() {
        Some(0.0) => Some(false),
        Some(1.0) => Some(true),
        _ => None,
    }
}

impl Workload for ElbtunnelQuery {
    type Input = Input;
    type Answer = Answer;

    fn name(&self) -> &'static str {
        "elbtunnel_query"
    }

    fn generate(&self, seed: u64, index: u64) -> Input {
        let constants = sample_elbtunnel(&mut query_rng(seed, index));
        let (col, alr) = trees(&constants).expect("the Elbtunnel trees are well formed");
        Input {
            collision_text: to_text(&col).expect("rooted tree"),
            false_alarm_text: to_text(&alr).expect("rooted tree"),
            constants,
        }
    }

    fn query(&self, input: &Input) -> Result<Answer, String> {
        let col = parse(&input.collision_text).map_err(err)?;
        let alr = parse(&input.false_alarm_text).map_err(err)?;
        let model = build_model(&col, &alr, &input.constants).map_err(err)?;
        let optimum = SafetyOptimizer::new(&model).run().map_err(err)?;
        let compiled = CompiledModel::compile(&model).map_err(err)?;
        let importance =
            ImportanceReport::at_point(&compiled, optimum.point().values()).map_err(err)?;
        Ok(Answer {
            optimum,
            importance,
            compiled,
        })
    }

    fn answers(&self, _answer: &Answer) -> u64 {
        1
    }

    fn check(&self, input: &Input, answer: &Answer) -> Result<f64, String> {
        check_answer(&input.constants, answer)
    }

    fn traced(&self, input: &Input, t: &mut Tally) -> Result<Answer, String> {
        let sweeps_before = layers::telemetry_counter("engine.grad.adjoint_sweeps");
        let start = Instant::now();
        let (col, alr) = timed(t, "fta.parse_ms", || {
            Ok::<_, FtaError>((
                parse(&input.collision_text)?,
                parse(&input.false_alarm_text)?,
            ))
        })
        .map_err(err)?;
        let model = timed(t, "safeopt.hazard_build_ms", || {
            build_model(&col, &alr, &input.constants)
        })
        .map_err(err)?;
        let optimum = timed(t, "safeopt.optimize_ms", || {
            SafetyOptimizer::new(&model).run()
        })
        .map_err(err)?;
        let compiled =
            timed(t, "safeopt.compile_ms", || CompiledModel::compile(&model)).map_err(err)?;
        let importance = timed(t, "safeopt.importance_ms", || {
            ImportanceReport::at_point(&compiled, optimum.point().values())
        })
        .map_err(err)?;
        t.add("bench.query_ms", ms_since(start));
        let top = [
            "fta.parse_ms",
            "safeopt.hazard_build_ms",
            "safeopt.optimize_ms",
            "safeopt.compile_ms",
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
        t.add(
            "fta.parse_bytes",
            (input.collision_text.len() + input.false_alarm_text.len()) as f64,
        );
        t.add("engine.tape_ops", compiled.tape().n_ops() as f64);
        t.add("optim.evaluations", optimum.outcome().evaluations as f64);
        t.add("optim.iterations", optimum.outcome().iterations as f64);

        let hazards = model.hazards();
        let replays = [
            layers::replay_hazard(t, &col, &hazards[0], stored_house_events(&col))?,
            layers::replay_hazard(t, &alr, &hazards[1], stored_house_events(&alr))?,
            layers::replay_nelder_mead(t, &model, optimum.outcome(), t.get("safeopt.optimize_ms"))?,
        ];
        t.add("bench.replays", replays.len() as f64);
        t.add(
            "bench.replays_identical",
            replays.iter().filter(|&&same| same).count() as f64,
        );
        Ok(Answer {
            optimum,
            importance,
            compiled,
        })
    }
}

/// Relative tolerance between the compiled cost and the closed form at
/// the same point (both quantify the trees exactly).
const COST_AGREEMENT: f64 = 1e-9;
/// How far above the reference minimum the optimizer's cost may lie.
pub const OPTIMUM_GAP_LIMIT: f64 = 1e-6;
/// How far the optimum may sit from the reference arg-min, in minutes
/// (the cost valley is flat along timer 1).
const POSITION_LIMITS: [f64; 2] = [2.0, 0.5];

/// Checks an answer against the closed-form reference for `c`.
///
/// # Errors
///
/// What is wrong with the answer.
pub fn check_answer(c: &ElbtunnelModel, answer: &Answer) -> Result<f64, String> {
    let x = answer.optimum.point().values();
    let cost = answer.optimum.cost();
    if x.len() != 2 || !cost.is_finite() {
        return Err(format!("malformed optimum {x:?} with cost {cost}"));
    }
    let closed = Elbtunnel::new(c);
    let (a, b) = (closed.timer1(x[0]), closed.timer2(x[1]));
    let at_x = closed.exact_cost(a, b);
    if (cost - at_x).abs() > COST_AGREEMENT * at_x {
        return Err(format!(
            "cost {cost:e} at {x:?} disagrees with closed form {at_x:e}"
        ));
    }
    let best = closed.optimum(Elbtunnel::exact_cost);
    let gap = (cost - best.value) / best.value;
    if !(-OPTIMUM_GAP_LIMIT..=OPTIMUM_GAP_LIMIT).contains(&gap) {
        return Err(format!(
            "cost {cost:e} is {gap:e} off the reference minimum {:e}",
            best.value
        ));
    }
    for d in 0..2 {
        if (x[d] - best.x[d]).abs() > POSITION_LIMITS[d] {
            return Err(format!(
                "optimum {x:?} is far from the reference {:?}",
                best.x
            ));
        }
    }
    let collision = answer
        .importance
        .hazard("collision")
        .ok_or("importance report lacks the collision hazard")?;
    let (p_col, _) = closed.exact_hazards(a, b);
    if (collision.probability - p_col).abs() > COST_AGREEMENT * p_col {
        return Err(format!(
            "importance P(collision) {:e} vs closed form {p_col:e}",
            collision.probability
        ));
    }
    let ot1 = collision
        .by_name("OT1")
        .ok_or("importance report lacks leaf OT1")?;
    let birnbaum = closed.birnbaum_ot1(b);
    if (ot1.birnbaum - birnbaum).abs() > COST_AGREEMENT * birnbaum {
        return Err(format!(
            "Birnbaum(OT1) {:e} vs closed form {birnbaum:e}",
            ot1.birnbaum
        ));
    }
    Ok(gap)
}
