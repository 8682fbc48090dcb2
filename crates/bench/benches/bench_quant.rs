//! Quantification-engine benchmarks: the paper's rare-event formula vs
//! the exact methods, the BDD-exact sweeps of an industrial-size tree,
//! importance measures, and the statistics substrate primitives they
//! lean on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safety_opt_core::compile::CompiledModel;
use safety_opt_core::model::{Hazard, QuantMethod, SafetyModel};
use safety_opt_core::param::ParameterSpace;
use safety_opt_core::pprob::{constant, exposure, overtime, scaled};
use safety_opt_elbtunnel::analytic::ElbtunnelModel;
use safety_opt_fta::bdd::TreeBdd;
use safety_opt_fta::importance::ImportanceReport;
use safety_opt_fta::mcs;
use safety_opt_fta::parse::{parse, to_text};
use safety_opt_fta::quant::{inclusion_exclusion, min_cut_upper_bound, rare_event};
use safety_opt_fta::synth::{modular_tree, or_of_ands, ModularTreeConfig};
use safety_opt_stats::dist::{ContinuousDistribution, TruncatedNormal};
use safety_opt_stats::special::{erfc, inverse_normal_cdf};

fn bench_quant_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantification");
    for &m in &[8usize, 16] {
        let tree = or_of_ands(m, 3, 0.01);
        let probs = tree.stored_probabilities().unwrap();
        let sets = mcs::bottom_up(&tree).unwrap();
        group.bench_with_input(BenchmarkId::new("rare_event", m), &m, |b, _| {
            b.iter(|| rare_event(&sets, &probs).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("min_cut_ub", m), &m, |b, _| {
            b.iter(|| min_cut_upper_bound(&sets, &probs).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("inclusion_exclusion", m), &m, |b, _| {
            b.iter(|| inclusion_exclusion(&sets, &probs).unwrap())
        });
        let bdd = TreeBdd::build(&tree).unwrap();
        group.bench_with_input(BenchmarkId::new("bdd_exact", m), &m, |b, _| {
            b.iter(|| bdd.probability(&probs).unwrap())
        });
    }
    group.finish();
}

/// Timers of the industrial-shaped model.
const TIMERS: usize = 10;

/// The industrial-shaped BDD-exact model: the 1105-gate
/// `synth::modular_tree` 48×12×4 (2400 leaves) read back from its text
/// form, with ten timers driving the leaves — timer `g` the leaves of
/// the modules `m ≡ g (mod 10)`, even leaves `50·p·overtime(t_g)`, odd
/// leaves `p·exposure(0.02, t_g)`.
fn industrial_model() -> SafetyModel {
    let synth = modular_tree(ModularTreeConfig {
        modules: 48,
        sections_per_module: 12,
        leaves_per_section: 4,
        leaf_probability: 1e-3,
    });
    let tree = parse(&to_text(&synth).unwrap()).unwrap();
    let paper = ElbtunnelModel::paper();
    let (lo, hi) = paper.timer_domain;
    let transit = paper.transit_distribution().unwrap();
    let mut space = ParameterSpace::new();
    let timers: Vec<_> = (0..TIMERS)
        .map(|g| space.parameter(format!("t{g}"), lo, hi).unwrap())
        .collect();
    let hazard = Hazard::from_fault_tree(&tree, |leaf| {
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

/// Cost and gradient sweeps of the industrial-shaped compiled tape at
/// 4096 design points on one thread — the engine's share of
/// `industrial_query`.
fn bench_modular_sweep(c: &mut Criterion) {
    let model = industrial_model();
    let compiled = CompiledModel::compile_with_threads(&model, 1).unwrap();
    let (lo, hi) = ElbtunnelModel::paper().timer_domain;
    let mut rng = StdRng::seed_from_u64(1);
    let design: Vec<Vec<f64>> = (0..4096)
        .map(|_| {
            (0..TIMERS)
                .map(|_| lo + (hi - lo) * rng.gen::<f64>())
                .collect()
        })
        .collect();
    let mut group = c.benchmark_group("modular_48x12x4_sweep");
    group.bench_function("cost_batch", |b| {
        b.iter(|| compiled.cost_batch(&design).unwrap())
    });
    group.bench_function("gradient_batch", |b| {
        b.iter(|| compiled.gradient_batch(&design).unwrap())
    });
    group.finish();
}

fn bench_importance(c: &mut Criterion) {
    let tree = or_of_ands(10, 3, 0.01);
    let probs = tree.stored_probabilities().unwrap();
    c.bench_function("importance_report_30_leaves", |b| {
        b.iter(|| ImportanceReport::compute(&tree, &probs).unwrap())
    });
}

fn bench_stats_primitives(c: &mut Criterion) {
    c.bench_function("erfc_deep_tail", |b| b.iter(|| erfc(7.5)));
    c.bench_function("inverse_normal_cdf", |b| {
        b.iter(|| inverse_normal_cdf(0.975).unwrap())
    });
    let transit = TruncatedNormal::lower_bounded(4.0, 2.0, 0.0).unwrap();
    c.bench_function("truncated_normal_sf", |b| b.iter(|| transit.sf(19.0)));
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_quant_methods, bench_modular_sweep, bench_importance, bench_stats_primitives
);
criterion_main!(benches);
