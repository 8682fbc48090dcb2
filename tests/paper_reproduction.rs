//! End-to-end reproduction checkpoints for every quantitative claim of
//! the paper's evaluation (experiments E1–E6 of the README's experiment
//! index).

use safety_optimization::elbtunnel::analytic::{scaling, ElbtunnelModel, Variant};
use safety_optimization::elbtunnel::constants as c;
use safety_optimization::elbtunnel::fault_trees;
use safety_optimization::optim::grid::GridSearch;
use safety_optimization::safeopt::optimize::{ConfigurationComparison, SafetyOptimizer};
use safety_optimization::safeopt::surface::CostSurface;

/// E1 — Fig. 5: the cost surface over (T1, T2) near the minimum sits in
/// the paper's ≈ 0.0046–0.0047 band and its grid minimum lies at the
/// reported optimum.
#[test]
fn e1_fig5_cost_surface() {
    let paper = ElbtunnelModel::paper();
    let model = paper.build().unwrap();
    let (t1, t2) = ElbtunnelModel::timer_ids(&model);
    // The paper's Fig. 5 plot window is roughly [15, 20] × [15, 18]; we
    // sample the containing square [15, 20]².
    let mut windowed = paper.clone();
    windowed.timer_domain = (15.0, 20.0);
    let win_model = windowed.build().unwrap();
    let reference = win_model.space().center();
    let surface = CostSurface::evaluate(&win_model, t1, t2, &reference, 41, 41).unwrap();
    let (mx, my, mv) = surface.minimum();
    assert!((mx - 19.0).abs() < 0.5, "surface min T1 = {mx}");
    assert!((my - 15.6).abs() < 0.5, "surface min T2 = {my}");
    assert!(
        mv > 0.0046 && mv < 0.0047,
        "Fig. 5 cost band violated: {mv}"
    );
    // The whole plotted neighbourhood stays within a loose band around it.
    for row in &surface.values {
        for &v in row {
            assert!(v > 0.004 && v < 0.04, "cost {v} far outside Fig. 5 scale");
        }
    }
}

/// E2 — Sect. IV-C.2: optimal runtimes ≈ (19, 15.6); ~10 % false-alarm
/// improvement against the engineers' (30, 30) initial guess at < 0.1 %
/// collision-risk change; timer 1 more conservative than timer 2.
#[test]
fn e2_optimum_and_improvement_claims() {
    let paper = ElbtunnelModel::paper();
    let model = paper.build().unwrap();
    let optimum = SafetyOptimizer::new(&model).run().unwrap();
    let t1 = optimum.point().value("timer1").unwrap();
    let t2 = optimum.point().value("timer2").unwrap();
    assert!((t1 - 19.0).abs() < 0.75, "t1* = {t1}");
    assert!((t2 - 15.6).abs() < 0.75, "t2* = {t2}");
    assert!(t1 > t2, "timer 1 must be the more conservative one");

    let cmp = ConfigurationComparison::compute(
        &model,
        &[c::INITIAL_TIMERS_MIN.0, c::INITIAL_TIMERS_MIN.1],
        optimum.point().values(),
    )
    .unwrap();
    let alarm = cmp.hazard("false-alarm").unwrap();
    assert!(
        (-alarm.relative_change - 0.10).abs() < 0.02,
        "false-alarm improvement {}",
        -alarm.relative_change
    );
    let collision = cmp.hazard("collision").unwrap();
    assert!(
        collision.relative_change.abs() < 1e-3,
        "collision change {}",
        collision.relative_change
    );
}

/// E2b — a plain grid search agrees with the default optimizer: the
/// paper's "test large numbers of combinations" route finds the same
/// optimum.
#[test]
fn e2_grid_search_cross_check() {
    let model = ElbtunnelModel::paper().build().unwrap();
    let grid = GridSearch::new(251);
    let by_grid = SafetyOptimizer::new(&model)
        .with_minimizer(&grid)
        .run()
        .unwrap();
    let by_simplex = SafetyOptimizer::new(&model).run().unwrap();
    for (a, b) in by_grid
        .point()
        .values()
        .iter()
        .zip(by_simplex.point().values())
    {
        assert!((a - b).abs() < 0.2, "grid {a} vs simplex {b}");
    }
}

/// E3 — Fig. 6: false-alarm probability for a correctly driving OHV.
#[test]
fn e3_fig6_curves() {
    let paper = ElbtunnelModel::paper();
    // Anchors from the paper's text.
    let p = scaling::false_alarm_given_correct_ohv(&paper, Variant::Original, 15.6).unwrap();
    assert!(p > 0.8, "paper: more than 80 %, got {p}");
    let p = scaling::false_alarm_given_correct_ohv(&paper, Variant::Original, 30.0).unwrap();
    assert!(p > 0.95, "paper: more than 95 %, got {p}");
    let p = scaling::false_alarm_given_correct_ohv(&paper, Variant::WithLb4, 15.6).unwrap();
    assert!((p - 0.40).abs() < 0.06, "paper: ≈ 40 %, got {p}");

    // Curve shapes over the Fig. 6 x-range [5, 25].
    let orig = scaling::figure6_series(&paper, Variant::Original, 5.0, 25.0, 21).unwrap();
    let lb4 = scaling::figure6_series(&paper, Variant::WithLb4, 5.0, 25.0, 21).unwrap();
    for (o, l) in orig.iter().zip(&lb4) {
        assert!(l.1 <= o.1 + 1e-12, "with_LB4 must lie below without_LB4");
    }
    for w in orig.windows(2) {
        assert!(w[1].1 >= w[0].1, "without_LB4 is increasing in T2");
    }
}

/// E4 — Sect. IV-C.2: the LB-at-ODfinal design lowers the rate to ≈ 4 %.
#[test]
fn e4_lb_at_odfinal() {
    let paper = ElbtunnelModel::paper();
    let p = scaling::false_alarm_given_correct_ohv(&paper, Variant::LbAtOdFinal, 15.6).unwrap();
    assert!((p - 0.04).abs() < 0.015, "paper: ≈ 4 %, got {p}");
}

/// E5 — Sect. IV-C.2: timer-2 runtimes below 10 minutes make the
/// collision risk "unacceptably high".
#[test]
fn e5_short_runtime_collision_risk() {
    let paper = ElbtunnelModel::paper();
    let at_optimum = paper.p_collision(19.0, 15.6).unwrap();
    let at_10 = paper.p_collision(19.0, 10.0).unwrap();
    let at_8 = paper.p_collision(19.0, 8.0).unwrap();
    // Already at 10 min the risk has grown by orders of magnitude…
    assert!(at_10 > 100.0 * at_optimum, "at 10 min: {at_10}");
    // …and keeps exploding below.
    assert!(at_8 > 10.0 * at_10, "at 8 min: {at_8}");
}

/// E6 — Sect. IV-B.2: the fault trees reproduce the paper's minimal cut
/// set structure, and MOCUS agrees with the bottom-up engine on them.
#[test]
fn e6_fault_tree_cut_sets() {
    use safety_optimization::fta::mcs;

    let col = fault_trees::collision_tree().unwrap();
    let col_mcs = mcs::bottom_up(&col).unwrap();
    // "almost all cut sets are single points of failure" — each is one
    // failure plus the environmental condition.
    assert_eq!(col_mcs.len(), 4);
    assert!(col_mcs.iter().all(|cs| cs.failures(&col).len() == 1));

    let alr = fault_trees::false_alarm_tree().unwrap();
    let alr_mcs = mcs::bottom_up(&alr).unwrap();
    assert_eq!(alr_mcs.len(), 4);
    assert!(alr_mcs.iter().all(|cs| cs.failures(&alr).len() == 1));

    for ft in [col, alr] {
        let a = mcs::mocus(&ft).unwrap();
        let b = mcs::bottom_up(&ft).unwrap();
        assert_eq!(a, b);
    }
}
