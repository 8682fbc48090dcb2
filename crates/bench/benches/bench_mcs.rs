//! A2 — minimal-cut-set engine comparison: MOCUS vs bottom-up on
//! parametric tree families (sweeping size), the `industrial_query`
//! modular tree at workload size, plus subsumption minimization in
//! isolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use safety_opt_fta::mcs;
use safety_opt_fta::synth::{
    and_of_ors, modular_tree, or_of_ands, random_tree, ModularTreeConfig, RandomTreeConfig,
};
use safety_opt_fta::{CutSet, CutSetCollection};

fn bench_engines_on_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcs_engines");
    // and_of_ors(m, n): n^m cut sets — the hard case for cut-set algebra.
    for &(m, n) in &[(2usize, 4usize), (3, 4), (4, 4)] {
        let tree = and_of_ors(m, n, 0.01);
        let label = format!("and{m}_of_or{n}");
        group.bench_with_input(BenchmarkId::new("mocus", &label), &tree, |b, t| {
            b.iter(|| mcs::mocus(t).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("bottom_up", &label), &tree, |b, t| {
            b.iter(|| mcs::bottom_up(t).unwrap())
        });
    }
    // or_of_ands(m, n): m cut sets — the easy, wide case.
    for &(m, n) in &[(32usize, 3usize), (128, 3)] {
        let tree = or_of_ands(m, n, 0.01);
        let label = format!("or{m}_of_and{n}");
        group.bench_with_input(BenchmarkId::new("mocus", &label), &tree, |b, t| {
            b.iter(|| mcs::mocus(t).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("bottom_up", &label), &tree, |b, t| {
            b.iter(|| mcs::bottom_up(t).unwrap())
        });
    }
    group.finish();
}

fn bench_random_trees(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcs_random_trees");
    for &gates in &[8usize, 16, 32] {
        let config = RandomTreeConfig {
            num_leaves: 12,
            num_gates: gates,
            max_inputs: 3,
            leaf_probability: 0.05,
            gate_reuse: 0.5,
        };
        let tree = random_tree(config, 42);
        group.bench_with_input(BenchmarkId::new("bottom_up", gates), &tree, |b, t| {
            b.iter(|| mcs::bottom_up(t).unwrap())
        });
    }
    group.finish();
}

fn bench_workload_size(c: &mut Criterion) {
    // 48×12×4: 1105 gates, 2400 leaves (38 bit-set blocks), 2784 cut sets
    // of order ≤ 3 — where the lowest-leaf subsumption index pays.
    let tree = modular_tree(ModularTreeConfig {
        modules: 48,
        sections_per_module: 12,
        leaves_per_section: 4,
        leaf_probability: 1e-3,
    });
    let mut group = c.benchmark_group("mcs_modular_48x12x4");
    group.bench_function("bottom_up", |b| b.iter(|| mcs::bottom_up(&tree).unwrap()));
    group.bench_function("mocus", |b| b.iter(|| mcs::mocus(&tree).unwrap()));
    group.finish();
}

fn bench_minimization(c: &mut Criterion) {
    // Subsumption minimization over many random sets.
    let sets: Vec<CutSet> = (0..2000u64)
        .map(|i| {
            let a = (i * 2654435761) % 64;
            let b = (i * 40503) % 64;
            let c = (i * 69069) % 64;
            CutSet::from_leaves([a as usize, b as usize, c as usize])
        })
        .collect();
    c.bench_function("cutset_minimize_2000", |b| {
        b.iter(|| CutSetCollection::from_sets(sets.clone()))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_engines_on_families, bench_random_trees, bench_workload_size, bench_minimization
);
criterion_main!(benches);
