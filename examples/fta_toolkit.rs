//! The FTA toolkit on its own: cut sets, quantification engines, BDDs,
//! and importance measures on a classic redundant-system tree.
//!
//! System: a protection function fails if BOTH redundant channels fail or
//! the common power supply fails. Each channel is a sensor + a 2-of-3
//! voter over processing units.
//!
//! Run with: `cargo run --example fta_toolkit`

use safety_optimization::fta::bdd::TreeBdd;
use safety_optimization::fta::importance::ImportanceReport;
use safety_optimization::fta::mcs;
use safety_optimization::fta::quant::QuantReport;
use safety_optimization::fta::render::to_ascii;
use safety_optimization::fta::tree::FaultTree;

fn build_tree() -> Result<FaultTree, safety_optimization::fta::FtaError> {
    let mut ft = FaultTree::new("Protection function fails");
    let power = ft.basic_event_with_probability("power supply fails", 1e-5)?;
    let mut channels = Vec::new();
    for ch in ["A", "B"] {
        let sensor = ft.basic_event_with_probability(format!("sensor {ch} fails"), 2e-3)?;
        let units: Vec<_> = (1..=3)
            .map(|i| ft.basic_event_with_probability(format!("unit {ch}{i} fails"), 5e-3))
            .collect::<Result<_, _>>()?;
        let voter = ft.k_of_n_gate(format!("voter {ch} outvoted"), 2, units)?;
        channels.push(ft.or_gate(format!("channel {ch} fails"), [sensor, voter])?);
    }
    let both = ft.and_gate("both channels fail", channels)?;
    let top = ft.or_gate("protection fails", [both, power])?;
    ft.set_root(top)?;
    Ok(ft)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tree = build_tree()?;
    print!("{}", to_ascii(&tree)?);

    // Two independent cut-set engines must agree.
    let by_mocus = mcs::mocus(&tree)?;
    let by_bottom_up = mcs::bottom_up(&tree)?;
    assert_eq!(by_mocus, by_bottom_up);
    println!(
        "\n{} minimal cut sets (MOCUS ≡ bottom-up), orders 1..{}",
        by_mocus.len(),
        by_mocus.max_order()
    );
    for cs in by_mocus.iter().take(6) {
        println!("  {{{}}}", cs.names(&tree).join(", "));
    }
    println!("  …");

    // Quantification: the paper's Eq. 1 vs the exact value.
    let probs = tree.stored_probabilities()?;
    let report = QuantReport::compute(&tree, &probs)?;
    println!("\nquantification:");
    println!("  rare-event (paper Eq. 1): {:.6e}", report.rare_event);
    println!(
        "  min-cut upper bound     : {:.6e}",
        report.min_cut_upper_bound
    );
    if let Some(ie) = report.inclusion_exclusion {
        println!("  inclusion-exclusion     : {ie:.6e}");
    }
    println!("  BDD exact               : {:.6e}", report.bdd_exact);
    println!(
        "  Eq. 1 over-estimates by {:.3} % (tiny: failure probabilities are small)",
        100.0 * report.rare_event_relative_error()
    );
    println!("  BDD size: {} nodes", TreeBdd::build(&tree)?.node_count());

    // Importance: where to spend the next reliability euro.
    let importance = ImportanceReport::compute(&tree, &probs)?;
    println!("\nimportance (by Birnbaum):");
    println!(
        "  {:<22} {:>10} {:>10} {:>8} {:>8}",
        "event", "Birnbaum", "F-V", "RAW", "RRW"
    );
    for leaf in &importance.leaves {
        println!(
            "  {:<22} {:>10.3e} {:>10.3e} {:>8.2} {:>8.2}",
            leaf.name, leaf.birnbaum, leaf.fussell_vesely, leaf.raw, leaf.rrw
        );
    }
    let top = importance.most_important().expect("non-empty");
    println!("\n-> the single point of failure dominates: {}", top.name);
    Ok(())
}
