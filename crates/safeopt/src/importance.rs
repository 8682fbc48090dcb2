//! Component importance at a parameter point — the bridge between the
//! FTA-level importance measures ([`safety_opt_fta::importance`]) and
//! the parameterized safety model.
//!
//! The paper's case-study argument ("HV at ODfinal will be the
//! dominating factor … by two orders of magnitude") is an importance
//! ranking *at a specific configuration*. For hazards built from fault
//! trees ([`crate::model::Hazard::from_fault_tree`]), this module
//! evaluates every leaf's parameterized probability at the point and
//! derives all classical measures from **one reverse-mode adjoint
//! sweep** over the hazard's compiled Shannon leaf tape: the top-event
//! probability is multilinear in the leaf probabilities, so the adjoint
//! gradient `∂P/∂qᵢ` *is* the Birnbaum importance, and every
//! conditional `P(top | qᵢ=v) = P + (v − qᵢ)·I_B(i)` follows exactly —
//! no `2·n` BDD re-evaluations.
//!
//! Hand-written cut-set hazards have no structure function, so they
//! appear in the report with their probability but no leaf breakdown.

use crate::compile::CompiledModel;
use crate::model::ExactHazard;
use crate::param::ParamValues;
use crate::Result;

/// All importance measures of one fault-tree leaf at a parameter point.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LeafImportance {
    /// Leaf index within the hazard's tree.
    pub leaf: usize,
    /// Leaf name.
    pub name: String,
    /// The leaf's probability at the evaluated point.
    pub probability: f64,
    /// Birnbaum structural sensitivity `∂P(H)/∂qᵢ`.
    pub birnbaum: f64,
    /// Criticality `I_B · qᵢ / P(H)`.
    pub criticality: f64,
    /// BDD-exact Fussell–Vesely `1 − P(H | qᵢ=0) / P(H)` — the fraction
    /// of the hazard probability that vanishes when the component is
    /// made perfect.
    pub fussell_vesely: f64,
    /// Risk achievement worth `P(H | qᵢ=1) / P(H)`.
    pub raw: f64,
    /// Risk reduction worth `P(H) / P(H | qᵢ=0)`.
    pub rrw: f64,
}

/// Importance breakdown of one hazard at a parameter point.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HazardImportance {
    /// Hazard name.
    pub hazard: String,
    /// Hazard probability at the point. Tree-derived hazards report the
    /// **BDD-exact** value (the structure function the measures are
    /// defined on, whatever the model compiles with — mirroring
    /// [`safety_opt_fta::importance::ImportanceReport`]); hand-written
    /// hazards report under the compiled model's quantification method.
    pub probability: f64,
    /// `true` when the hazard carries a BDD structure (tree-derived) and
    /// `leaves` is populated.
    pub exact: bool,
    /// Per-leaf measures, sorted by descending Birnbaum importance.
    /// Empty for hand-written cut-set hazards.
    pub leaves: Vec<LeafImportance>,
}

impl HazardImportance {
    /// The most Birnbaum-important leaf, if any.
    pub fn most_important(&self) -> Option<&LeafImportance> {
        self.leaves.first()
    }

    /// Looks a leaf's measures up by name.
    pub fn by_name(&self, name: &str) -> Option<&LeafImportance> {
        self.leaves.iter().find(|l| l.name == name)
    }
}

/// Importance analysis of a whole compiled model at one parameter point.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ImportanceReport {
    /// The evaluated parameter point.
    pub point: Vec<f64>,
    /// Per-hazard breakdowns, in model order.
    pub hazards: Vec<HazardImportance>,
}

impl ImportanceReport {
    /// Computes the importance breakdown of every hazard of `compiled`
    /// at parameter point `x`: leaf probabilities from the substituted
    /// expressions, all measures from one adjoint gradient call per
    /// tree-derived hazard.
    ///
    /// # Errors
    ///
    /// [`crate::SafeOptError::DimensionMismatch`] for wrong-arity points
    /// and leaf-expression evaluation errors.
    pub fn at_point(compiled: &CompiledModel, x: &[f64]) -> Result<Self> {
        compiled.check_dim(x.len())?;
        let params = ParamValues::new(x);
        let mut hazards = Vec::new();
        for hazard in compiled.hazards() {
            match hazard.exact() {
                Some(exact) => hazards.push(hazard_importance(hazard.name(), exact, &params)?),
                None => hazards.push(HazardImportance {
                    hazard: hazard.name().to_owned(),
                    probability: hazard.probability_with(&params, compiled.quant_method())?,
                    exact: false,
                    leaves: Vec::new(),
                }),
            }
        }
        Ok(Self {
            point: x.to_vec(),
            hazards,
        })
    }

    /// Looks a hazard's breakdown up by name.
    pub fn hazard(&self, name: &str) -> Option<&HazardImportance> {
        self.hazards.iter().find(|h| h.hazard == name)
    }
}

/// One hazard's breakdown: leaf expressions evaluated once, one adjoint
/// sweep for `P(H)` and every Birnbaum, affine identities for the rest.
fn hazard_importance(
    name: &str,
    exact: &ExactHazard,
    params: &ParamValues<'_>,
) -> Result<HazardImportance> {
    let plan = exact.plan();
    let mut q = vec![0.0; plan.num_leaves()];
    let mut used = vec![false; plan.num_leaves()];
    for m in plan.modules() {
        for node in &m.plan().nodes {
            if let safety_opt_fta::modular::PlanInput::Leaf(leaf) = m.input(node.leaf) {
                if !used[leaf] {
                    used[leaf] = true;
                    q[leaf] = exact
                        .leaf_expr(leaf)
                        .expect("BDD leaves have substituted expressions")
                        .eval(params)?;
                }
            }
        }
    }
    // The leaf tape is compiled once per hazard and cached on the
    // `ExactHazard` (telemetry: `core.importance.leaf_tape_cache_hit`),
    // so repeated importance sweeps stop paying a recompilation per
    // call; the gradient itself routes through the batch evaluator —
    // the same lane-blocked adjoint path every other gradient consumer
    // uses.
    let tape = exact.leaf_tape();
    let (p, grads) = safety_opt_engine::BatchEvaluator::new(tape, 1).eval_grad_batch(&[&q[..]]);
    let (p_top, birnbaum) = (p[0], grads);
    let mut leaves = Vec::new();
    for leaf in 0..plan.num_leaves() {
        if !used[leaf] {
            continue;
        }
        let b = birnbaum[leaf];
        // Multilinearity: P(H | qᵢ = v) = P + (v − qᵢ)·I_B.
        let p_up = p_top + (1.0 - q[leaf]) * b;
        let mut p_down = p_top - q[leaf] * b;
        if p_down < p_top * 1e-8 {
            // Near-total cancellation (dominant component): recover the
            // tiny conditional with one exact forced sweep of the leaf
            // tape instead of the lossy subtraction.
            let mut forced = q.clone();
            forced[leaf] = 0.0;
            p_down = tape.eval(&forced);
        }
        let criticality = if p_top > 0.0 {
            b * q[leaf] / p_top
        } else {
            0.0
        };
        let fussell_vesely = if p_top > 0.0 {
            1.0 - p_down / p_top
        } else {
            0.0
        };
        let raw = if p_top > 0.0 {
            p_up / p_top
        } else {
            f64::INFINITY
        };
        let rrw = if p_down > 0.0 {
            p_top / p_down
        } else if p_top > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        leaves.push(LeafImportance {
            leaf,
            name: exact.leaf_name(leaf).to_owned(),
            probability: q[leaf],
            birnbaum: b,
            criticality,
            fussell_vesely,
            raw,
            rrw,
        });
    }
    leaves.sort_by(|a, b| b.birnbaum.partial_cmp(&a.birnbaum).unwrap());
    Ok(HazardImportance {
        hazard: name.to_owned(),
        probability: p_top,
        exact: true,
        leaves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Hazard, QuantMethod, SafetyModel};
    use crate::param::ParameterSpace;
    use crate::pprob::{constant, exposure};
    use safety_opt_fta::tree::FaultTree;

    fn spof_model() -> SafetyModel {
        // top = spof OR (x AND y): the single point of failure dominates.
        let mut ft = FaultTree::new("t");
        let spof = ft.basic_event("spof").unwrap();
        let x = ft.basic_event("x").unwrap();
        let y = ft.basic_event("y").unwrap();
        let g = ft.and_gate("xy", [x, y]).unwrap();
        let top = ft.or_gate("top", [spof, g]).unwrap();
        ft.set_root(top).unwrap();

        let mut space = ParameterSpace::new();
        let t = space.parameter("t", 0.1, 10.0).unwrap();
        let hazard = Hazard::from_fault_tree(&ft, |leaf| {
            Ok(match leaf {
                0 => exposure(0.01, t), // spof, parameterized
                _ => constant(0.001).unwrap(),
            })
        })
        .unwrap();
        SafetyModel::new(space)
            .hazard(hazard, 1.0)
            .with_quant_method(QuantMethod::BddExact)
    }

    #[test]
    fn adjoint_measures_match_fta_oracle() {
        let model = spof_model();
        let compiled = CompiledModel::compile(&model).unwrap();
        let x = [5.0];
        let report = ImportanceReport::at_point(&compiled, &x).unwrap();
        assert_eq!(report.hazards.len(), 1);
        let h = &report.hazards[0];
        assert!(h.exact);
        assert_eq!(h.most_important().unwrap().name, "spof");

        // Oracle: the fta importance report at the same leaf
        // probabilities.
        use safety_opt_fta::importance::ImportanceReport as FtaReport;
        use safety_opt_fta::quant::ProbabilityMap;
        let mut ft = FaultTree::new("t");
        let spof = ft.basic_event("spof").unwrap();
        let xx = ft.basic_event("x").unwrap();
        let y = ft.basic_event("y").unwrap();
        let g = ft.and_gate("xy", [xx, y]).unwrap();
        let top = ft.or_gate("top", [spof, g]).unwrap();
        ft.set_root(top).unwrap();
        let p_spof = 1.0 - (-0.01f64 * 5.0).exp();
        let pm = ProbabilityMap::new(vec![p_spof, 0.001, 0.001]).unwrap();
        let oracle = FtaReport::compute(&ft, &pm).unwrap();
        assert!((h.probability - oracle.hazard_probability).abs() < 1e-15);
        for leaf in &h.leaves {
            let o = oracle.by_name(&leaf.name).unwrap();
            assert!(
                (leaf.birnbaum - o.birnbaum).abs() < 1e-14,
                "{}: {} vs {}",
                leaf.name,
                leaf.birnbaum,
                o.birnbaum
            );
            assert!((leaf.criticality - o.criticality).abs() < 1e-12);
            assert!((leaf.raw - o.raw).abs() < 1e-9);
            assert!((leaf.rrw - o.rrw).abs() < 1e-9);
        }
    }

    #[test]
    fn leaf_tape_is_compiled_once_and_cached_across_sweeps() {
        let model = spof_model();
        let compiled = CompiledModel::compile(&model).unwrap();
        let exact = compiled.hazards()[0].exact().unwrap();
        // First access compiles; every later access — including the ones
        // inside repeated importance sweeps — must hand back the same
        // cached tape.
        let first: *const safety_opt_engine::Tape = exact.leaf_tape();
        let a = ImportanceReport::at_point(&compiled, &[5.0]).unwrap();
        let b = ImportanceReport::at_point(&compiled, &[5.0]).unwrap();
        assert_eq!(a, b);
        let again: *const safety_opt_engine::Tape = exact.leaf_tape();
        assert!(std::ptr::eq(first, again), "leaf tape must be cached");
    }

    #[test]
    fn hand_written_hazards_report_probability_only() {
        let mut space = ParameterSpace::new();
        let t = space.parameter("t", 0.0, 1.0).unwrap();
        let h = Hazard::builder("plain")
            .cut_set("cs", [exposure(0.5, t)])
            .build();
        let model = SafetyModel::new(space).hazard(h, 1.0);
        let compiled = CompiledModel::compile(&model).unwrap();
        let report = ImportanceReport::at_point(&compiled, &[0.5]).unwrap();
        let h = report.hazard("plain").unwrap();
        assert!(!h.exact);
        assert!(h.leaves.is_empty());
        assert!(h.probability > 0.0);
        assert!(ImportanceReport::at_point(&compiled, &[0.5, 1.0]).is_err());
    }
}
