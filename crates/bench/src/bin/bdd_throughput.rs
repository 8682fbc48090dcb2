//! E12 — industrial-scale BDD throughput: the SCRAM-style preprocessing
//! pipeline plus module-wise BDD construction on a synthetic
//! 1000+-gate fault tree (`synth::modular_tree`), vs. the monolithic
//! single-BDD baseline.
//!
//! Writes `BENCH_bdd.json` at the workspace root in the shared
//! [`safety_opt_bench::BenchReport`] schema. The headline numbers:
//!
//! * **pipeline wall-clock** — preprocess + per-module BDDs + compose +
//!   quantify once must finish in under [`TARGET_SECONDS`] on the
//!   1000+-gate tree;
//! * **peak BDD size** — the largest per-module BDD must be smaller
//!   than the monolithic BDD of the same (preprocessed) tree: module
//!   composition bounds the expensive object by the largest independent
//!   block, which is the entire point of the subsystem.
//!
//! A modular-vs-monolithic ≤ 1e-12 equivalence check always gates the
//! run before anything is timed.
//!
//! Run with: `cargo run --release -p safety_opt_bench --bin bdd_throughput`
//!
//! With `--enforce`, exits non-zero when either headline target fails.

use safety_opt_bench::{bench_timestamp, measure, BenchReport};
use safety_opt_engine::BatchEvaluator;
use safety_opt_fta::bdd::TreeBdd;
use safety_opt_fta::modular::ModularPlan;
use safety_opt_fta::preprocess::{preprocess, PreprocessOutcome};
use safety_opt_fta::synth::{modular_tree, ModularTreeConfig};
use safety_opt_fta::tree::{FaultTree, NodeKind};
use std::time::Instant;

/// Wall-clock budget for the full preprocess → modular BDDs → compose →
/// quantify-once pipeline on the 1000+-gate tree.
const TARGET_SECONDS: f64 = 1.0;
/// Batch size for the tape-eval throughput modes.
const N_POINTS: usize = 4096;

fn gate_count(ft: &FaultTree) -> usize {
    ft.iter()
        .filter(|(_, n)| matches!(n.kind(), NodeKind::Gate { .. }))
        .count()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let enforce = std::env::args().any(|a| a == "--enforce");
    let config = ModularTreeConfig {
        modules: 48,
        sections_per_module: 12,
        leaves_per_section: 4,
        leaf_probability: 1e-3,
    };
    let ft = modular_tree(config);
    let gates = gate_count(&ft);
    assert!(
        gates >= 1000,
        "industrial workload must have >= 1000 gates, got {gates}"
    );
    println!(
        "# Industrial-scale BDD throughput — modular_tree: {gates} gates, {} leaves\n",
        ft.leaves().len()
    );

    // Timed once, end to end: the full pipeline a cold caller pays.
    let pipeline_start = Instant::now();
    let pre = preprocess(&ft)?;
    let tree = match &pre.outcome {
        PreprocessOutcome::Tree(t) => t,
        PreprocessOutcome::Constant(_) => unreachable!("workload is not constant"),
    };
    let plan = ModularPlan::build(tree)?;
    let tape = plan.leaf_tape();
    let probs: Vec<f64> = (0..tree.leaves().len())
        .map(|i| tree.node(tree.leaf(i)).probability().unwrap_or(0.0))
        .collect();
    let p_modular = tape.eval(&probs);
    let pipeline_seconds = pipeline_start.elapsed().as_secs_f64();

    // The monolithic baseline (not part of the pipeline budget).
    let mono = TreeBdd::build(tree)?;
    let p_mono = mono
        .probability(&tree.stored_probabilities()?)
        .expect("stored probabilities are total");
    let scale = p_mono.abs().max(1.0);
    assert!(
        (p_modular - p_mono).abs() <= 1e-12 * scale,
        "modular plan diverged from the monolithic BDD: {p_modular} vs {p_mono}"
    );
    println!("equivalence check     modular == monolithic, P(top) = {p_mono:.6e}\n");

    let nodes_before = mono.node_count();
    let nodes_after = plan.node_count();
    let largest = plan.largest_module_nodes();
    let report = &pre.report;

    let mono_tape = mono.shannon_plan().leaf_tape();
    let points: Vec<Vec<f64>> = (0..N_POINTS)
        .map(|k| {
            probs
                .iter()
                .map(|&p| (p * (0.25 + 1.5 * ((k % 97) as f64 / 97.0))).clamp(0.0, 1.0))
                .collect()
        })
        .collect();

    let build_mode = measure("modular_build", "modular build", "builds/sec", 1, || {
        let pre = preprocess(&ft).unwrap();
        let t = pre.tree().expect("not constant");
        ModularPlan::build(t).unwrap().node_count() as f64
    });
    let modular_eval = measure(
        "modular_tape_eval",
        "modular tape eval",
        "points/sec",
        N_POINTS,
        || {
            BatchEvaluator::new(&tape, 1)
                .costs(&points)
                .expect("tape batch")
                .iter()
                .sum::<f64>()
        },
    );
    let mono_eval = measure(
        "monolithic_tape_eval",
        "monolithic tape eval",
        "points/sec",
        N_POINTS,
        || {
            BatchEvaluator::new(&mono_tape, 1)
                .costs(&points)
                .expect("tape batch")
                .iter()
                .sum::<f64>()
        },
    );

    let eval_ratio = modular_eval.points_per_sec / mono_eval.points_per_sec;
    let peak_reduced = largest < nodes_before;
    let pass = pipeline_seconds < TARGET_SECONDS && peak_reduced;
    println!();
    println!("pipeline wall-clock (preprocess+modular+quantify) : {pipeline_seconds:.4} s  (target < {TARGET_SECONDS} s)");
    println!(
        "gates before -> after preprocessing               : {} -> {}",
        report.gates_before, report.gates_after
    );
    println!("BDD nodes monolithic -> modular total             : {nodes_before} -> {nodes_after}");
    println!(
        "largest per-module BDD                            : {largest} nodes  (modules: {})",
        plan.modules().len()
    );
    println!("modular vs monolithic tape eval                   : {eval_ratio:.2}x");
    println!(
        "verdict                                           : {}",
        if pass { "PASS" } else { "FAIL" }
    );

    let timestamp = bench_timestamp();
    let modes = [build_mode, modular_eval, mono_eval];
    BenchReport {
        name: "bdd_throughput",
        workload: "modular_tree_48x12x4",
        threads: 1,
        timestamp: &timestamp,
        extras: vec![
            ("gates", gates.to_string()),
            ("leaves", ft.leaves().len().to_string()),
            ("pipeline_seconds", format!("{pipeline_seconds:.6}")),
            ("gates_before", report.gates_before.to_string()),
            ("gates_after", report.gates_after.to_string()),
            ("constants_folded", report.constants_folded.to_string()),
            ("gates_normalized", report.gates_normalized.to_string()),
            ("gates_coalesced", report.gates_coalesced.to_string()),
            ("modules", plan.modules().len().to_string()),
            ("bdd_nodes_monolithic", nodes_before.to_string()),
            ("bdd_nodes_modular_total", nodes_after.to_string()),
            ("bdd_nodes_largest_module", largest.to_string()),
        ],
        modes: &modes,
        speedups: vec![("modular_vs_monolithic_tape_eval", eval_ratio)],
        target: None,
        pass,
    }
    .write("bdd");

    if !pass {
        eprintln!(
            "bdd_throughput: pipeline {pipeline_seconds:.3}s (target < {TARGET_SECONDS}s), \
             largest module {largest} vs monolithic {nodes_before} nodes{}",
            if enforce {
                ""
            } else {
                " (not enforced; pass --enforce to gate)"
            }
        );
        if enforce {
            std::process::exit(1);
        }
    }
    Ok(())
}
