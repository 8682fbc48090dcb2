//! A1 — optimizer comparison on the Elbtunnel cost function: wall time
//! per full minimization for each algorithm (accuracy and evaluation
//! counts are reported by the `table_optimum` binary).

use criterion::{criterion_group, criterion_main, Criterion};
use safety_opt_core::optimize::SafetyOptimizer;
use safety_opt_elbtunnel::analytic::ElbtunnelModel;
use safety_opt_optim::gradient::GradientDescent;
use safety_opt_optim::grid::GridSearch;
use safety_opt_optim::multistart::MultiStart;
use safety_opt_optim::nelder_mead::NelderMead;
use safety_opt_optim::quasi_newton::QuasiNewton;
use safety_opt_optim::Minimizer;

fn bench_optimizers_on_elbtunnel(c: &mut Criterion) {
    let model = ElbtunnelModel::paper().build().unwrap();
    let algorithms: Vec<(&str, Box<dyn Minimizer>)> = vec![
        ("quasi_newton", Box::new(QuasiNewton::default())),
        (
            "multistart_qn_4",
            Box::new(MultiStart::new(QuasiNewton::default(), 4)),
        ),
        ("nelder_mead", Box::new(NelderMead::default())),
        (
            "multistart_nm_8",
            Box::new(MultiStart::new(NelderMead::default(), 8)),
        ),
        ("gradient_descent", Box::new(GradientDescent::default())),
        ("grid_101", Box::new(GridSearch::new(101))),
    ];
    let mut group = c.benchmark_group("optimize_elbtunnel");
    for (name, algo) in &algorithms {
        group.bench_function(*name, |b| {
            b.iter(|| {
                SafetyOptimizer::new(&model)
                    .with_minimizer(algo.as_ref())
                    .run()
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_cost_evaluation(c: &mut Criterion) {
    // The primitive everything above is built from.
    let model = ElbtunnelModel::paper().build().unwrap();
    c.bench_function("cost_function_single_eval", |b| {
        b.iter(|| model.cost(&[19.0, 15.6]).unwrap())
    });
    let paper = ElbtunnelModel::paper();
    c.bench_function("analytic_formula_single_eval", |b| {
        b.iter(|| paper.cost(19.0, 15.6).unwrap())
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_optimizers_on_elbtunnel, bench_cost_evaluation
);
criterion_main!(benches);
