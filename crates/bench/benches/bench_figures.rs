//! Wall-time of regenerating each paper artifact: the Fig. 5 surface
//! grid, the Fig. 6 series, the E2 optimization, and a simulation batch —
//! one benchmark per paper experiment (E1, E2, E3, E7 of the README's
//! experiment index).

use criterion::{criterion_group, criterion_main, Criterion};
use safety_opt_core::optimize::SafetyOptimizer;
use safety_opt_core::surface::CostSurface;
use safety_opt_elbtunnel::analytic::{scaling, ElbtunnelModel, Variant};
use safety_opt_elbtunnel::sim::{simulate, SimConfig};

fn bench_fig5(c: &mut Criterion) {
    let mut windowed = ElbtunnelModel::paper();
    windowed.timer_domain = (15.0, 20.0);
    let model = windowed.build().unwrap();
    let (t1, t2) = ElbtunnelModel::timer_ids(&model);
    let reference = model.space().center();
    c.bench_function("fig5_surface_41x41", |b| {
        b.iter(|| CostSurface::evaluate(&model, t1, t2, &reference, 41, 41).unwrap())
    });
}

fn bench_fig6(c: &mut Criterion) {
    let model = ElbtunnelModel::paper();
    c.bench_function("fig6_series_original_41pts", |b| {
        b.iter(|| scaling::figure6_series(&model, Variant::Original, 5.0, 25.0, 41).unwrap())
    });
    c.bench_function("fig6_series_with_lb4_41pts", |b| {
        // Each point integrates over the transit distribution.
        b.iter(|| scaling::figure6_series(&model, Variant::WithLb4, 5.0, 25.0, 41).unwrap())
    });
}

fn bench_optimum(c: &mut Criterion) {
    let model = ElbtunnelModel::paper().build().unwrap();
    c.bench_function("table_optimum_default_strategy", |b| {
        b.iter(|| SafetyOptimizer::new(&model).run().unwrap())
    });
}

fn bench_simulation(c: &mut Criterion) {
    let config = SimConfig::paper(19.0, 15.6, Variant::Original);
    c.bench_function("sim_10k_episodes", |b| {
        b.iter(|| simulate(&config, 10_000, 7))
    });
    let lb4 = SimConfig::paper(19.0, 15.6, Variant::WithLb4);
    c.bench_function("sim_10k_episodes_with_lb4", |b| {
        b.iter(|| simulate(&lb4, 10_000, 7))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig5, bench_fig6, bench_optimum, bench_simulation
);
criterion_main!(benches);
