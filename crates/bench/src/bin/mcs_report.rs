//! E6 — Sect. IV-B: the fault trees of both hazards, their minimal cut
//! sets (MOCUS checked against the bottom-up engine), their BDD sizes, and
//! quantification/importance reports at the initial configuration.
//!
//! Run with: `cargo run --release -p safety-opt-bench --bin mcs_report`

use safety_opt_bench::write_artifact;
use safety_opt_elbtunnel::analytic::ElbtunnelModel;
use safety_opt_elbtunnel::fault_trees::{self, names};
use safety_opt_fta::bdd::TreeBdd;
use safety_opt_fta::importance::ImportanceReport;
use safety_opt_fta::quant::ProbabilityMap;
use safety_opt_fta::render::{to_ascii, to_dot};
use safety_opt_fta::{mcs, tree::FaultTree};

fn report(tree: &FaultTree) -> Result<(), Box<dyn std::error::Error>> {
    println!("== {} ==", tree.name());
    print!("{}", to_ascii(tree)?);
    let by_mocus = mcs::mocus(tree)?;
    let by_bottom_up = mcs::bottom_up(tree)?;
    assert_eq!(by_mocus, by_bottom_up);
    println!(
        "minimal cut sets: {} (MOCUS ≡ bottom-up; BDD has {} nodes)",
        by_mocus.len(),
        TreeBdd::build(tree)?.node_count()
    );
    for cs in by_mocus.iter() {
        println!(
            "  {{{}}}  (failures: {}, conditions: {})",
            cs.names(tree).join(", "),
            cs.failures(tree).len(),
            cs.conditions(tree).len()
        );
    }
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("# E6 — fault trees and minimal cut sets (Sect. IV-B)\n");
    let collision = fault_trees::collision_tree()?;
    let false_alarm = fault_trees::false_alarm_tree()?;
    report(&collision)?;
    report(&false_alarm)?;

    // Quantification + importance of the false-alarm tree at (30, 30).
    let m = ElbtunnelModel::paper();
    let (t1, t2) = (30.0, 30.0);
    let activation = m.p_ohv + (1.0 - m.p_ohv) * m.p_fd_lbpre * m.p_fd_lbpost(t1);
    let probs = ProbabilityMap::from_fn(&false_alarm, |leaf| {
        match false_alarm.node(false_alarm.leaf(leaf)).name() {
            names::HV_ODFINAL => m.p_hv_odfinal(t2),
            names::FD_ODFINAL => 1e-2 * m.p_hv_odfinal(t2),
            names::HV_ODLEFT => 5e-3,
            names::FD_ODLEFT => 1e-4,
            names::OHV_PRESENT => m.p_ohv,
            names::ODFINAL_ACTIVE => activation,
            other => panic!("unmapped leaf {other}"),
        }
    })?;
    let importance = ImportanceReport::compute(&false_alarm, &probs)?;
    println!(
        "== importance, false-alarm tree at (T1, T2) = (30, 30) — P(HAlr) = {:.3e} ==",
        importance.hazard_probability
    );
    println!(
        "{:<16} {:>12} {:>12} {:>10} {:>10}",
        "event", "Birnbaum", "Fussell-V.", "RAW", "criticality"
    );
    for leaf in &importance.leaves {
        println!(
            "{:<16} {:>12.3e} {:>12.3e} {:>10.2} {:>10.3e}",
            leaf.name, leaf.birnbaum, leaf.fussell_vesely, leaf.raw, leaf.criticality
        );
    }
    let hv = importance.by_name(names::HV_ODFINAL).unwrap();
    println!(
        "\npaper: HV_ODfinal dominates HAlr \"by two orders of magnitude\" — its\n\
         Fussell-Vesely share here is {:.1} %.",
        100.0 * hv.fussell_vesely
    );

    write_artifact("hcol_tree.dot", &to_dot(&collision)?);
    write_artifact("halr_tree.dot", &to_dot(&false_alarm)?);
    Ok(())
}
