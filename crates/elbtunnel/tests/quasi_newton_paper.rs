//! Bound handling of [`QuasiNewton`] on the Elbtunnel paper model.
//!
//! The cost is flat to about 1e-9 relative along the timer-1 valley, so
//! steepest descent stops wherever its iteration cap finds it (T1 = 18.5,
//! 25.0, 18.5 and 28.0 from the four starts below), and a crude clamped
//! quasi-Newton step sticks to the T1 = 28 face from (28, 8). With its
//! active set and projected line search, every single-start run must
//! converge to the paper's optimum (T1* ≈ 19, T2* ≈ 15.6) at a cost no
//! higher than gradient descent's end point from the same start.

use safety_opt_core::compile::CompiledModel;
use safety_opt_elbtunnel::analytic::ElbtunnelModel;
use safety_opt_optim::domain::BoxDomain;
use safety_opt_optim::gradient::GradientDescent;
use safety_opt_optim::quasi_newton::QuasiNewton;
use safety_opt_optim::{Minimizer, TerminationReason};

/// The single starts that trip steepest descent and clamped steps.
const STARTS: [[f64; 2]; 4] = [[5.0, 5.0], [25.0, 25.0], [10.0, 28.0], [28.0, 8.0]];

#[test]
fn every_single_start_converges_to_the_paper_optimum() {
    let m = ElbtunnelModel::paper();
    let compiled = CompiledModel::compile(&m.build().unwrap()).unwrap();
    let objective = compiled.objective(false);
    let (lo, hi) = m.timer_domain;
    let domain = BoxDomain::from_bounds(&[(lo, hi), (lo, hi)]).unwrap();
    for start in STARTS {
        let qn = QuasiNewton::default()
            .start(start.to_vec())
            .minimize_differentiable(&objective, &domain)
            .unwrap();
        let gd = GradientDescent::default()
            .start(start.to_vec())
            .minimize_differentiable(&objective, &domain)
            .unwrap();
        assert_eq!(qn.termination, TerminationReason::Converged, "{start:?}");
        let [t1, t2] = [qn.best_x[0], qn.best_x[1]];
        assert!((t1 - 19.0).abs() <= 0.1, "{start:?}: T1 = {t1}");
        assert!((t2 - 15.6).abs() <= 0.1, "{start:?}: T2 = {t2}");
        assert!(
            qn.best_value <= gd.best_value,
            "{start:?}: quasi-Newton {:e} above gradient descent {:e}",
            qn.best_value,
            gd.best_value
        );
        assert!(
            qn.iterations < 200,
            "{start:?}: {} iterations",
            qn.iterations
        );
    }
}
