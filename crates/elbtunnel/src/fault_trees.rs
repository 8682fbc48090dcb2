//! Explicit fault trees for the Elbtunnel hazards (paper Sect. IV-B).
//!
//! The DSN paper starts from the minimal cut sets its earlier FTA
//! produced; we model the trees themselves and *re-derive* those cut sets
//! with the engines of [`safety_opt_fta`] — a stronger reproduction than
//! hard-coding the sets. Primary failure types (Sect. IV-B.1):
//!
//! * `FD` — false detection (all sensors),
//! * `MD` — miss detection (overhead detectors only),
//! * `OT` — overtime (timers 1 and 2),
//! * `HV` — a high vehicle misread as an OHV (overhead detectors only).
//!
//! Constraints enter as INHIBIT conditions: an overtime only matters while
//! an OHV heads for a wrong tube; `HV_ODfinal` only fires while the
//! detector is armed.

use safety_opt_fta::tree::FaultTree;
use safety_opt_fta::Result;

/// Leaf and condition names shared by both trees, so model code and tests
/// reference one vocabulary.
pub mod names {
    /// Overtime of timer 1 (OHV needs longer than `T1` through zone 1).
    pub const OT1: &str = "OT1";
    /// Overtime of timer 2.
    pub const OT2: &str = "OT2";
    /// Miss detection at `ODleft`.
    pub const MD_ODLEFT: &str = "MD_ODleft";
    /// Miss detection at `ODfinal`.
    pub const MD_ODFINAL: &str = "MD_ODfinal";
    /// High vehicle misread at `ODleft`.
    pub const HV_ODLEFT: &str = "HV_ODleft";
    /// High vehicle misread at `ODfinal`.
    pub const HV_ODFINAL: &str = "HV_ODfinal";
    /// False detection at `ODleft`.
    pub const FD_ODLEFT: &str = "FD_ODleft";
    /// False detection at `ODfinal`.
    pub const FD_ODFINAL: &str = "FD_ODfinal";
    /// False detection at `LBpre`.
    pub const FD_LBPRE: &str = "FD_LBpre";
    /// False detection at `LBpost`.
    pub const FD_LBPOST: &str = "FD_LBpost";
    /// Condition: an OHV is heading towards the west/mid tube.
    pub const OHV_CRITICAL: &str = "OHV critical";
    /// Condition: an OHV is present in the controlled area.
    pub const OHV_PRESENT: &str = "OHV present";
    /// Condition: `ODfinal` is armed.
    pub const ODFINAL_ACTIVE: &str = "ODfinal active";
}

/// Builds the collision fault tree `HCol`.
///
/// Top event: an OHV collides with an old-tube entrance. The detection
/// chain fails if a timer ran out (`OT1`/`OT2`) or a detector missed the
/// OHV (`MD_ODleft`, `MD_ODfinal`); all of it only matters while an OHV
/// actually heads the wrong way (INHIBIT condition).
///
/// # Errors
///
/// Construction errors are impossible for this fixed structure but the
/// signature stays fallible for API uniformity.
pub fn collision_tree() -> Result<FaultTree> {
    let mut ft = FaultTree::new("HCol: OHV collides with old-tube entrance");
    let ot1 = ft.basic_event(names::OT1)?;
    let ot2 = ft.basic_event(names::OT2)?;
    let md_left = ft.basic_event(names::MD_ODLEFT)?;
    let md_final = ft.basic_event(names::MD_ODFINAL)?;
    let critical = ft.condition(names::OHV_CRITICAL)?;

    let chain = ft.or_gate("detection chain fails", [ot1, ot2, md_left, md_final])?;
    let top = ft.inhibit_gate("collision", chain, critical)?;
    ft.set_root(top)?;
    Ok(ft)
}

/// Builds the false-alarm fault tree `HAlr`.
///
/// Top event: the tunnel is locked although every vehicle drives
/// admissibly. Sect. IV-B.2: triggered by `{HV_ODleft}`, `{HV_ODfinal}`,
/// `{FD_ODleft}` or `{FD_ODfinal}` — "all these failures are only then
/// single points of failure if there is an OHV present in the controlled
/// area" (resp. the detector is armed).
///
/// # Errors
///
/// See [`collision_tree`].
pub fn false_alarm_tree() -> Result<FaultTree> {
    let mut ft = FaultTree::new("HAlr: false alarm locks the tunnel");
    let hv_left = ft.basic_event(names::HV_ODLEFT)?;
    let fd_left = ft.basic_event(names::FD_ODLEFT)?;
    let hv_final = ft.basic_event(names::HV_ODFINAL)?;
    let fd_final = ft.basic_event(names::FD_ODFINAL)?;
    let present = ft.condition(names::OHV_PRESENT)?;
    let active = ft.condition(names::ODFINAL_ACTIVE)?;

    let left = ft.or_gate("ODleft misreads traffic", [hv_left, fd_left])?;
    let left_armed = ft.inhibit_gate("spurious stop in zone 1", left, present)?;
    let fin = ft.or_gate("ODfinal misreads traffic", [hv_final, fd_final])?;
    let fin_armed = ft.inhibit_gate("spurious stop in zone 2", fin, active)?;
    let top = ft.or_gate("false alarm", [left_armed, fin_armed])?;
    ft.set_root(top)?;
    Ok(ft)
}

#[cfg(test)]
mod tests {
    use super::*;
    use safety_opt_fta::mcs;

    #[test]
    fn collision_cut_sets_match_paper() {
        let ft = collision_tree().unwrap();
        let sets = mcs::bottom_up(&ft).unwrap();
        // Four cut sets, each one failure + the critical condition.
        assert_eq!(sets.len(), 4);
        for cs in sets.iter() {
            assert_eq!(cs.failures(&ft).len(), 1, "single point of failure");
            assert_eq!(cs.conditions(&ft).len(), 1);
        }
        // {OT1} and {OT2} are among them (the paper's "two most important").
        let has = |name: &str| sets.iter().any(|cs| cs.names(&ft).contains(&name));
        assert!(has(names::OT1));
        assert!(has(names::OT2));
        assert!(has(names::MD_ODLEFT));
        assert!(has(names::MD_ODFINAL));
    }

    #[test]
    fn false_alarm_cut_sets_match_paper() {
        let ft = false_alarm_tree().unwrap();
        let sets = mcs::bottom_up(&ft).unwrap();
        assert_eq!(sets.len(), 4);
        for cs in sets.iter() {
            assert_eq!(cs.failures(&ft).len(), 1);
            assert_eq!(cs.conditions(&ft).len(), 1);
        }
        // HV_ODfinal pairs with the "ODfinal active" condition.
        let hv_final_cs = sets
            .iter()
            .find(|cs| cs.names(&ft).contains(&names::HV_ODFINAL))
            .expect("HV_ODfinal cut set");
        assert!(hv_final_cs.names(&ft).contains(&names::ODFINAL_ACTIVE));
    }

    #[test]
    fn engines_agree_on_both_trees() {
        for ft in [collision_tree().unwrap(), false_alarm_tree().unwrap()] {
            let a = mcs::mocus(&ft).unwrap();
            let b = mcs::bottom_up(&ft).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn quantification_reproduces_analytic_false_alarm_term() {
        // Assign the paper's probabilities at a fixed configuration and
        // check the dominating cut set equals the analytic product.
        use crate::analytic::ElbtunnelModel;
        use safety_opt_fta::quant::{rare_event, ProbabilityMap};

        let m = ElbtunnelModel::paper();
        let (t1, t2) = (19.0, 15.6);
        let ft = false_alarm_tree().unwrap();
        let activation = m.p_ohv + (1.0 - m.p_ohv) * m.p_fd_lbpre * m.p_fd_lbpost(t1);
        let probs = ProbabilityMap::from_fn(&ft, |leaf| {
            let name = ft.node(ft.leaf(leaf)).name().to_string();
            match name.as_str() {
                names::HV_ODFINAL => m.p_hv_odfinal(t2),
                names::FD_ODFINAL => 0.0, // folded into Pconst2 analytically
                names::HV_ODLEFT => 0.0,  // folded into Pconst2
                names::FD_ODLEFT => 0.0,  // folded into Pconst2
                names::OHV_PRESENT => m.p_ohv,
                names::ODFINAL_ACTIVE => activation,
                other => panic!("unexpected leaf {other}"),
            }
        })
        .unwrap();
        let sets = mcs::bottom_up(&ft).unwrap();
        let p = rare_event(&sets, &probs).unwrap();
        let analytic_term = m.p_false_alarm(t1, t2) - m.p_const2;
        assert!(
            (p - analytic_term).abs() < 1e-12,
            "tree {p} vs analytic {analytic_term}"
        );
    }

    #[test]
    fn hv_odfinal_dominates_importance() {
        // Paper: HV_ODfinal dominates HAlr "by two orders of magnitude".
        use crate::analytic::ElbtunnelModel;
        use safety_opt_fta::importance::ImportanceReport;
        use safety_opt_fta::quant::ProbabilityMap;

        let m = ElbtunnelModel::paper();
        let (t1, t2) = (30.0, 30.0);
        let ft = false_alarm_tree().unwrap();
        let activation = m.p_ohv + (1.0 - m.p_ohv) * m.p_fd_lbpre * m.p_fd_lbpost(t1);
        let probs = ProbabilityMap::from_fn(&ft, |leaf| match ft.node(ft.leaf(leaf)).name() {
            names::HV_ODFINAL => m.p_hv_odfinal(t2),
            names::FD_ODFINAL => 1e-2 * m.p_hv_odfinal(t2),
            names::HV_ODLEFT => 5e-3,
            names::FD_ODLEFT => 1e-4,
            names::OHV_PRESENT => m.p_ohv,
            names::ODFINAL_ACTIVE => activation,
            _ => unreachable!(),
        })
        .unwrap();
        let report = ImportanceReport::compute(&ft, &probs).unwrap();
        let hv = report.by_name(names::HV_ODFINAL).unwrap();
        let fd_left = report.by_name(names::FD_ODLEFT).unwrap();
        assert!(hv.fussell_vesely > 10.0 * fd_left.fussell_vesely);
    }
}
