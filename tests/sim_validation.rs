//! E7 — simulator vs analytic model agreement (the README's experiment
//! index). The discrete-event simulator and the closed-form model were
//! written independently; their agreement on the Fig. 6 quantities and
//! the overtime probabilities is the evidence that the substitution of
//! the real tunnel by a simulator preserves the relevant behaviour.

use safety_optimization::elbtunnel::analytic::{scaling, ElbtunnelModel, Variant};
use safety_optimization::elbtunnel::sim::{simulate, SimConfig};

const EPISODES: u64 = 30_000;

#[test]
fn fig6_grid_original_variant() {
    let model = ElbtunnelModel::paper();
    for (i, &t2) in [6.0, 10.0, 15.6, 20.0, 25.0].iter().enumerate() {
        let report = simulate(
            &SimConfig::paper(19.0, t2, Variant::Original),
            EPISODES,
            100 + i as u64,
        );
        let analytic =
            scaling::false_alarm_given_correct_ohv(&model, Variant::Original, t2).unwrap();
        assert!(
            report
                .false_alarm_given_correct
                .is_consistent_with(analytic, 0.999)
                .unwrap(),
            "t2 = {t2}: sim {} vs analytic {analytic}",
            report.false_alarm_given_correct.p_hat()
        );
    }
}

#[test]
fn fig6_grid_with_lb4_variant() {
    let model = ElbtunnelModel::paper();
    for (i, &t2) in [6.0, 15.6, 25.0].iter().enumerate() {
        let report = simulate(
            &SimConfig::paper(19.0, t2, Variant::WithLb4),
            EPISODES,
            200 + i as u64,
        );
        let analytic =
            scaling::false_alarm_given_correct_ohv(&model, Variant::WithLb4, t2).unwrap();
        let sim = report.false_alarm_given_correct.p_hat();
        // The simulator adds OD false detections on top of the pure HV
        // term; allow that small bias plus Monte-Carlo noise.
        assert!(
            (sim - analytic).abs() < 0.02,
            "t2 = {t2}: sim {sim} vs analytic {analytic}"
        );
    }
}

#[test]
fn collision_shape_tracks_analytic_tail() {
    // E5's shape in the simulator: P(collision | wrong lane) ≈ P(OT2)
    // for the original variant, which explodes as T2 shrinks.
    let model = ElbtunnelModel::paper();
    let mut previous = -1.0;
    for (i, &t2) in [12.0, 9.0, 7.0, 5.0].iter().enumerate() {
        let report = simulate(
            &SimConfig::paper(30.0, t2, Variant::Original),
            200_000,
            300 + i as u64,
        );
        let sim = report.collision_given_wrong_lane.p_hat();
        let analytic = model.p_overtime(t2).unwrap();
        assert!(
            report
                .collision_given_wrong_lane
                .is_consistent_with(analytic, 0.999)
                .unwrap_or(sim == 0.0 && analytic < 1e-4),
            "t2 = {t2}: sim {sim} vs analytic {analytic}"
        );
        assert!(sim >= previous, "collision risk must grow as T2 shrinks");
        previous = sim;
    }
}

#[test]
fn overtime_statistics_match_the_transit_distribution() {
    let model = ElbtunnelModel::paper();
    let report = simulate(&SimConfig::paper(7.0, 9.0, Variant::Original), 100_000, 400);
    let ot1_expected = model.p_overtime(7.0).unwrap();
    let ot2_expected = model.p_overtime(9.0).unwrap();
    assert!(report
        .overtime1
        .is_consistent_with(ot1_expected, 0.999)
        .unwrap());
    assert!(report
        .overtime2
        .is_consistent_with(ot2_expected, 0.999)
        .unwrap());
}

#[test]
fn justified_alarms_protect_wrong_lane_ohvs() {
    // With generous timers every wrong-lane OHV must be caught (alarm),
    // never a collision; the LB-at-ODfinal variant catches them through
    // the barrier instead of the timer chain.
    for variant in [Variant::Original, Variant::WithLb4, Variant::LbAtOdFinal] {
        let report = simulate(&SimConfig::paper(30.0, 30.0, variant), 100_000, 500);
        assert_eq!(
            report.collision.successes(),
            0,
            "{variant}: no collisions expected at (30, 30)"
        );
    }
}

#[test]
fn seeded_runs_are_exactly_reproducible() {
    let config = SimConfig::paper(19.0, 15.6, Variant::WithLb4);
    let a = simulate(&config, 5_000, 7);
    let b = simulate(&config, 5_000, 7);
    assert_eq!(a, b);
}

#[test]
fn simulated_exposure_windows_follow_the_transit_distribution() {
    // Distribution-level validation via Kolmogorov–Smirnov: in the LB4
    // variant with a generous timer, the ODfinal exposure window equals
    // the zone-2 transit time, which must follow the truncated normal of
    // the analytic model.
    use rand::SeedableRng;
    use safety_optimization::elbtunnel::sim::simulate_episode;
    use safety_optimization::stats::dist::TruncatedNormal;
    use safety_optimization::stats::ks::ks_test;

    let config = SimConfig::paper(60.0, 60.0, Variant::WithLb4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let mut windows = Vec::new();
    while windows.len() < 4000 {
        let episode = simulate_episode(&config, &mut rng);
        if !episode.wrong_lane && !episode.overtime1 {
            windows.push(episode.od_window);
        }
    }
    let transit = TruncatedNormal::lower_bounded(4.0, 2.0, 0.0).unwrap();
    let result = ks_test(&windows, &transit).unwrap();
    assert!(
        !result.rejects_at(0.01),
        "simulated windows diverge from the transit distribution: D = {}, p = {}",
        result.statistic,
        result.p_value
    );
}
