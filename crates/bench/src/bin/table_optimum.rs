//! E2 — regenerates the optimal-configuration results of Sect. IV-C.2:
//! optimal timer runtimes, the improvement over the engineers' initial
//! (30, 30) configuration, and the per-hazard deltas. The default
//! 4-start quasi-Newton is cross-checked against single-start
//! quasi-Newton, Nelder–Mead (single and 8-start), capped gradient descent
//! and a dense grid (ablation A1's accuracy side).
//!
//! Run with: `cargo run --release -p safety-opt-bench --bin table_optimum`

use safety_opt_bench::{row, write_artifact};
use safety_opt_core::optimize::{ConfigurationComparison, SafetyOptimizer};
use safety_opt_elbtunnel::analytic::ElbtunnelModel;
use safety_opt_elbtunnel::constants as c;
use safety_opt_optim::gradient::GradientDescent;
use safety_opt_optim::grid::GridSearch;
use safety_opt_optim::multistart::MultiStart;
use safety_opt_optim::nelder_mead::NelderMead;
use safety_opt_optim::quasi_newton::QuasiNewton;
use safety_opt_optim::Minimizer;
use std::fmt::Write as _;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("# Table — optimal timer configuration (paper Sect. IV-C.2)\n");
    let paper = ElbtunnelModel::paper();
    let model = paper.build()?;

    // The first row is the default strategy, run restart by restart
    // (bit-identical to its lockstep run).
    let algorithms: Vec<(&str, Box<dyn Minimizer>)> = vec![
        (
            "multi-start QN x4",
            Box::new(MultiStart::new(QuasiNewton::default(), 4)),
        ),
        ("quasi-newton", Box::new(QuasiNewton::default())),
        (
            "multi-start NM x8",
            Box::new(MultiStart::new(NelderMead::default(), 8)),
        ),
        ("nelder-mead", Box::new(NelderMead::default())),
        ("gradient-descent", Box::new(GradientDescent::default())),
        ("grid", Box::new(GridSearch::new(501))),
    ];

    let widths = [24usize, 9, 9, 13, 11];
    println!(
        "{}",
        row(
            &[
                "algorithm".into(),
                "T1*".into(),
                "T2*".into(),
                "f_cost*".into(),
                "evals".into()
            ],
            &widths
        )
    );
    let mut csv = String::from("algorithm,t1,t2,cost,evaluations\n");
    for (name, algo) in &algorithms {
        let optimum = SafetyOptimizer::new(&model)
            .with_minimizer(algo.as_ref())
            .run()?;
        let t1 = optimum.point().value("timer1").unwrap();
        let t2 = optimum.point().value("timer2").unwrap();
        println!(
            "{}",
            row(
                &[
                    (*name).into(),
                    format!("{t1:.2}"),
                    format!("{t2:.2}"),
                    format!("{:.6e}", optimum.cost()),
                    format!("{}", optimum.outcome().evaluations),
                ],
                &widths
            )
        );
        let _ = writeln!(
            csv,
            "{name},{t1},{t2},{},{}",
            optimum.cost(),
            optimum.outcome().evaluations
        );
    }
    println!(
        "\npaper: optimum ≈ ({}, {}) min",
        c::PAPER_OPTIMUM_MIN.0,
        c::PAPER_OPTIMUM_MIN.1
    );

    // The headline claims, at the default optimizer's solution.
    let optimum = SafetyOptimizer::new(&model).run()?;
    let initial = [c::INITIAL_TIMERS_MIN.0, c::INITIAL_TIMERS_MIN.1];
    let cmp = ConfigurationComparison::compute(&model, &initial, optimum.point().values())?;
    println!("\nvs initial (30, 30):");
    print!("{cmp}");
    let alarm = cmp.hazard("false-alarm").unwrap();
    let col = cmp.hazard("collision").unwrap();
    println!(
        "false-alarm improvement : {:.2} %   (paper: ~10 %)",
        -100.0 * alarm.relative_change
    );
    println!(
        "collision-risk change   : {:+.3} %   (paper: < 0.1 %)",
        100.0 * col.relative_change
    );

    write_artifact("table_optimum.csv", &csv);
    Ok(())
}
