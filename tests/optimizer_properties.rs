//! Property-based contracts for every optimizer: domain containment,
//! best-evaluated reporting, and convergence on random convex problems.

use proptest::prelude::*;
use safety_optimization::optim::anneal::SimulatedAnnealing;
use safety_optimization::optim::de::DifferentialEvolution;
use safety_optimization::optim::domain::BoxDomain;
use safety_optimization::optim::gradient::GradientDescent;
use safety_optimization::optim::grid::GridSearch;
use safety_optimization::optim::hooke_jeeves::HookeJeeves;
use safety_optimization::optim::multistart::MultiStart;
use safety_optimization::optim::nelder_mead::NelderMead;
use safety_optimization::optim::Minimizer;
use std::sync::atomic::{AtomicBool, Ordering};

/// All multi-dimensional algorithms under test.
fn all_nd() -> Vec<Box<dyn Minimizer>> {
    vec![
        Box::new(GridSearch::new(21)),
        Box::new(NelderMead::default()),
        Box::new(HookeJeeves::default()),
        Box::new(GradientDescent::default()),
        Box::new(SimulatedAnnealing::default().temperature_levels(40)),
        Box::new(DifferentialEvolution::default().generations(60)),
        Box::new(MultiStart::new(NelderMead::default(), 4)),
    ]
}

fn quadratic(center: Vec<f64>, offset: f64) -> impl Fn(&[f64]) -> f64 {
    move |x: &[f64]| {
        x.iter()
            .zip(&center)
            .map(|(xi, ci)| (xi - ci) * (xi - ci))
            .sum::<f64>()
            + offset
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn optimizers_respect_domain_and_report_evaluated_minimum(
        lo in -10.0f64..0.0,
        width in 0.5f64..10.0,
        c1 in -12.0f64..12.0,
        c2 in -12.0f64..12.0,
        offset in -5.0f64..5.0,
    ) {
        let domain = BoxDomain::from_bounds(&[(lo, lo + width), (lo, lo + width)]).unwrap();
        let center = vec![c1, c2];
        let escaped = AtomicBool::new(false);
        let inner = quadratic(center.clone(), offset);
        let d2 = domain.clone();
        let f = move |x: &[f64]| {
            if !d2.contains(x) {
                escaped.store(true, Ordering::Relaxed);
            }
            inner(x)
        };
        for algo in all_nd() {
            let out = algo.minimize(&f, &domain).unwrap();
            // The reported point is inside the domain…
            prop_assert!(domain.contains(&out.best_x), "{}: {:?}", algo.name(), out.best_x);
            // …its value matches re-evaluation (best *evaluated* point)…
            let re = quadratic(center.clone(), offset)(&out.best_x);
            prop_assert!((re - out.best_value).abs() < 1e-9, "{}", algo.name());
            // …and the optimum of the projected quadratic is approached
            // within a generous bound for every algorithm.
            let projected = domain.project(&center);
            let ideal = quadratic(center.clone(), offset)(&projected);
            prop_assert!(
                out.best_value <= ideal + 0.25 * width * width + 1e-9,
                "{}: got {}, ideal {}", algo.name(), out.best_value, ideal
            );
            prop_assert!(out.evaluations > 0);
        }
    }

    #[test]
    fn stochastic_methods_are_seed_deterministic(seed in any::<u64>()) {
        let domain = BoxDomain::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]).unwrap();
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let a = SimulatedAnnealing::default().seed(seed).minimize(&f, &domain).unwrap();
        let b = SimulatedAnnealing::default().seed(seed).minimize(&f, &domain).unwrap();
        prop_assert_eq!(a.best_x, b.best_x);
        let a = DifferentialEvolution::default().seed(seed).generations(40)
            .minimize(&f, &domain).unwrap();
        let b = DifferentialEvolution::default().seed(seed).generations(40)
            .minimize(&f, &domain).unwrap();
        prop_assert_eq!(a.best_x, b.best_x);
    }
}

/// Safety models hand the optimizer +∞ for infeasible regions; every
/// algorithm has to cope with a partially-infeasible landscape.
#[test]
fn optimizers_survive_partial_infeasibility() {
    let domain = BoxDomain::from_bounds(&[(-2.0, 2.0), (-2.0, 2.0)]).unwrap();
    let f = |x: &[f64]| {
        if x[0] + x[1] < -1.5 {
            f64::INFINITY
        } else {
            (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2)
        }
    };
    for algo in all_nd() {
        let out = algo.minimize(&f, &domain).unwrap();
        assert!(
            out.best_value < 0.5,
            "{} stuck at {}",
            algo.name(),
            out.best_value
        );
    }
}
