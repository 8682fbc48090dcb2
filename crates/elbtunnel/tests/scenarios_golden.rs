//! Seed-determinism regression for the traffic `scaling_study`: the
//! fleet path (all scenarios compiled into one shared-arena fleet,
//! lockstep multi-start quasi-Newton per scenario) must return
//! **`PartialEq`-identical** outcomes to the values pinned below, and
//! stay bit-identical for every engine thread count (CI runs this under
//! `SAFETY_OPT_THREADS=1` and `=4`). The values were re-pinned when the
//! default optimizer became projected quasi-Newton; every re-pinned
//! optimal cost lies within rounding of the closed-form scenario
//! minimum, below the Nelder–Mead cost it replaced.

use safety_opt_elbtunnel::analytic::ElbtunnelModel;
use safety_opt_elbtunnel::scenarios::{growth_ladder, scaling_study};

#[test]
fn scaling_study_reproduces_the_pre_fleet_sequential_path() {
    let outcomes = scaling_study(&ElbtunnelModel::paper(), &growth_ladder()).unwrap();
    // (factor, T1*, T2*, cost, alarm_original, alarm_with_lb4).
    let golden: [(f64, f64, f64, f64, f64, f64); 5] = [
        (
            1.0,
            19.001665252877945,
            15.600947959881939,
            0.004650378541185375,
            0.8704546392022532,
            0.3998893456094725,
        ),
        (
            1.5,
            18.97692544112905,
            15.67577795365582,
            0.004980592002067264,
            0.9536925525566277,
            0.5236406117212856,
        ),
        (
            2.0,
            18.96851474696107,
            15.841308666845503,
            0.005296857154762219,
            0.9839906373465849,
            0.616723814248645,
        ),
        (
            3.0,
            18.964774824219724,
            16.316060744916822,
            0.005901529613891798,
            0.9983041645203863,
            0.7422006661561469,
        ),
        (
            5.0,
            18.964602913092865,
            17.56202605684492,
            0.007083776328895276,
            0.9999891666255618,
            0.8664441853913539,
        ),
    ];
    assert_eq!(outcomes.len(), golden.len());
    for (o, g) in outcomes.iter().zip(&golden) {
        assert_eq!(o.scenario.ohv_factor, g.0);
        assert_eq!(
            o.optimal_timers.0.to_bits(),
            g.1.to_bits(),
            "T1* at {}x: {}",
            g.0,
            o.optimal_timers.0
        );
        assert_eq!(
            o.optimal_timers.1.to_bits(),
            g.2.to_bits(),
            "T2* at {}x: {}",
            g.0,
            o.optimal_timers.1
        );
        assert_eq!(
            o.optimal_cost.to_bits(),
            g.3.to_bits(),
            "cost at {}x: {}",
            g.0,
            o.optimal_cost
        );
        assert_eq!(
            o.alarm_rate_original.to_bits(),
            g.4.to_bits(),
            "alarm(original) at {}x",
            g.0
        );
        assert_eq!(
            o.alarm_rate_with_lb4.to_bits(),
            g.5.to_bits(),
            "alarm(LB4) at {}x",
            g.0
        );
    }
}

#[test]
fn scaling_study_is_repeat_deterministic() {
    let base = ElbtunnelModel::paper();
    let ladder = growth_ladder();
    let a = scaling_study(&base, &ladder).unwrap();
    let b = scaling_study(&base, &ladder).unwrap();
    assert_eq!(a, b);
}
