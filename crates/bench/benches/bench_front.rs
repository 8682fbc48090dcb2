//! Front-end layers from text to tape on the `industrial_query` tree
//! (`synth::modular_tree` 48×12×4: 1105 gates, 2400 leaves, 132 KB of
//! text): parsing, preprocessing, the per-module BDD build, bottom-up
//! cut sets and compiling the BDD-exact ten-timer model. Every group
//! times one layer on one thread from the previous layer's output.

use criterion::{criterion_group, criterion_main, Criterion};
use safety_opt_core::compile::CompiledModel;
use safety_opt_core::model::{Hazard, QuantMethod, SafetyModel};
use safety_opt_core::param::ParameterSpace;
use safety_opt_core::pprob::{constant, exposure, overtime, scaled};
use safety_opt_elbtunnel::analytic::ElbtunnelModel;
use safety_opt_fta::mcs;
use safety_opt_fta::modular::ModularPlan;
use safety_opt_fta::parse::{parse, to_text};
use safety_opt_fta::preprocess::{preprocess, PreprocessOutcome};
use safety_opt_fta::synth::{modular_tree, ModularTreeConfig};
use safety_opt_fta::tree::FaultTree;

/// Timers of the industrial-shaped model.
const TIMERS: usize = 10;

fn industrial_text() -> String {
    let tree = modular_tree(ModularTreeConfig {
        modules: 48,
        sections_per_module: 12,
        leaves_per_section: 4,
        leaf_probability: 1e-3,
    });
    to_text(&tree).unwrap()
}

/// The ten-timer BDD-exact model over `tree`: timer `g` drives the
/// leaves of the modules `m ≡ g (mod 10)`, even leaves
/// `50·p·overtime(t_g)`, odd leaves `p·exposure(0.02, t_g)`.
fn industrial_model(tree: &FaultTree) -> SafetyModel {
    let paper = ElbtunnelModel::paper();
    let (lo, hi) = paper.timer_domain;
    let transit = paper.transit_distribution().unwrap();
    let mut space = ParameterSpace::new();
    let timers: Vec<_> = (0..TIMERS)
        .map(|g| space.parameter(format!("t{g}"), lo, hi).unwrap())
        .collect();
    let hazard = Hazard::from_fault_tree(tree, |leaf| {
        let node = tree.node(tree.leaf(leaf));
        let p = node.probability().unwrap();
        if p == 0.0 || p == 1.0 {
            return constant(p);
        }
        let module: usize = node.name()[1..].split('_').next().unwrap().parse().unwrap();
        let t = timers[module % TIMERS];
        if leaf % 2 == 0 {
            scaled(50.0 * p, overtime(transit, t))
        } else {
            scaled(p, exposure(0.02, t))
        }
    })
    .unwrap();
    SafetyModel::new(space)
        .hazard(hazard, 1.0)
        .with_quant_method(QuantMethod::BddExact)
}

fn bench_front(c: &mut Criterion) {
    let text = industrial_text();
    let tree = parse(&text).unwrap();
    let reduced = match preprocess(&tree).unwrap().outcome {
        PreprocessOutcome::Tree(reduced) => reduced,
        PreprocessOutcome::Constant(_) => unreachable!("the tree has free leaves"),
    };
    let model = industrial_model(&tree);

    c.benchmark_group("parse")
        .bench_function("modular_48x12x4", |b| b.iter(|| parse(&text).unwrap()));
    c.benchmark_group("preprocess")
        .bench_function("modular_48x12x4", |b| b.iter(|| preprocess(&tree).unwrap()));
    c.benchmark_group("modular_build")
        .bench_function("modular_48x12x4", |b| {
            b.iter(|| ModularPlan::build(&reduced).unwrap())
        });
    c.benchmark_group("bottom_up")
        .bench_function("modular_48x12x4", |b| {
            b.iter(|| mcs::bottom_up(&tree).unwrap())
        });
    c.benchmark_group("compile")
        .bench_function("modular_48x12x4", |b| {
            b.iter(|| CompiledModel::compile_with_threads(&model, 1).unwrap())
        });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(40);
    targets = bench_front
);
criterion_main!(benches);
