//! Self-tests of the benchmark: deterministic generators, checkers that
//! reject wrong answers, and an output that names every metric
//! `BENCHMARK.json` declares.

use perfbench::elbtunnel::{self, ElbtunnelQuery};
use perfbench::industrial::{self, IndustrialQuery};
use perfbench::json::{self, Value};
use perfbench::reference::Elbtunnel;
use perfbench::uncertainty::{self, UncertaintyStudy};
use perfbench::{sample_elbtunnel, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use safety_opt_core::optimize::SafetyOptimizer;
use safety_opt_core::uncertainty::OptimumDistribution;
use safety_opt_optim::grid::GridSearch;
use safety_opt_stats::mc::RunningStats;
use std::process::Command;

fn deterministic_and_distinct<W: Workload>(w: &W)
where
    W::Input: PartialEq + std::fmt::Debug,
{
    for seed in [0, 7] {
        for index in [0, 1, 5] {
            assert_eq!(w.generate(seed, index), w.generate(seed, index));
            assert_ne!(w.generate(seed, index), w.generate(seed + 1, index));
            assert_ne!(w.generate(seed, index), w.generate(seed, index + 1));
        }
    }
}

#[test]
fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
    deterministic_and_distinct(&ElbtunnelQuery);
    deterministic_and_distinct(&UncertaintyStudy);
    let w = IndustrialQuery::default();
    let (a, b, c) = (w.generate(3, 1), w.generate(3, 1), w.generate(4, 1));
    assert_eq!(a, b);
    assert_ne!(a.text, c.text);
    assert_ne!(a.design, c.design);
}

#[test]
fn elbtunnel_checker_accepts_the_program_and_rejects_wrong_answers() {
    let w = ElbtunnelQuery;
    let (a, b) = (w.generate(11, 0), w.generate(11, 1));
    let answer = w.query(&a).unwrap();
    let gap = w.check(&a, &answer).unwrap();
    assert!(gap.abs() < 1e-6, "gap {gap}");
    // The right optimum for other constants is a wrong answer here.
    assert!(w.check(&b, &answer).is_err());
    // So is a coarse optimum of the right model.
    let col = safety_opt_fta::parse::parse(&a.collision_text).unwrap();
    let alr = safety_opt_fta::parse::parse(&a.false_alarm_text).unwrap();
    let model = elbtunnel::build_model(&col, &alr, &a.constants).unwrap();
    let coarse = GridSearch::new(6);
    let wrong = elbtunnel::Answer {
        optimum: SafetyOptimizer::new(&model)
            .with_minimizer(&coarse)
            .run()
            .unwrap(),
        ..answer
    };
    assert!(w.check(&a, &wrong).is_err());
}

#[test]
fn industrial_checker_accepts_the_program_and_rejects_wrong_answers() {
    let w = IndustrialQuery::default();
    let (a, b) = (w.generate(5, 0), w.generate(5, 1));
    let answer = w.query(&a).unwrap();
    let gap = w.check(&a, &answer).unwrap();
    assert!(
        (0.0..industrial::OPTIMUM_GAP_LIMIT).contains(&gap.max(0.0)),
        "gap {gap}"
    );
    // Another leaf-probability scale: the optimum cost no longer matches.
    assert!(w.check(&b, &answer).is_err());
    // A design point better than the optimum exposes a missed optimum.
    let mut costs = answer.design_costs.clone();
    costs[17] = answer.optimum.cost() * 0.5;
    let wrong = industrial::Answer {
        design_costs: costs,
        ..answer
    };
    assert!(w.check(&a, &wrong).is_err());
}

/// A study answer assembled from the reference optima of the sampled
/// models, with `perturb` applied to each model's optimum.
fn reference_study(
    input: &uncertainty::Input,
    perturb: impl Fn([f64; 2], f64) -> ([f64; 2], f64),
) -> OptimumDistribution {
    let mut rng = StdRng::seed_from_u64(input.study_seed);
    let mut arg_min = vec![RunningStats::new(), RunningStats::new()];
    let mut min_cost = RunningStats::new();
    for _ in 0..uncertainty::MODELS {
        let m = Elbtunnel::new(&sample_elbtunnel(&mut rng)).optimum(Elbtunnel::paper_cost);
        let (x, v) = perturb(m.x, m.value);
        arg_min[0].push(x[0]);
        arg_min[1].push(x[1]);
        min_cost.push(v);
    }
    OptimumDistribution {
        arg_min,
        min_cost,
        runs: uncertainty::MODELS,
        failures: 0,
    }
}

#[test]
fn uncertainty_checker_rejects_perturbed_studies() {
    let w = UncertaintyStudy;
    let input = w.generate(2, 3);
    let exact = reference_study(&input, |x, v| (x, v));
    assert!(w.check(&input, &exact).is_ok());
    let costly = reference_study(&input, |x, v| (x, v * (1.0 + 1e-3)));
    assert!(w.check(&input, &costly).is_err());
    let shifted = reference_study(&input, |x, v| ([x[0] + 3.0, x[1]], v));
    assert!(w.check(&input, &shifted).is_err());
    let failed = OptimumDistribution {
        failures: 1,
        ..exact.clone()
    };
    assert!(w.check(&input, &failed).is_err());
    let other = w.generate(2, 4);
    assert!(w.check(&other, &exact).is_err());
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark"))
        .unwrap()
}

/// `(name, unit)` of every metric in `BENCHMARK.json` section `key`.
fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Value::as_str).unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run_bench(trace: &str, envs: &[(&str, &str)]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "elbtunnel_query",
            "--seed",
            "3",
            "--seconds",
            "0.3",
            "--trace",
            trace,
        ])
        .envs(envs.iter().copied())
        .output()
        .unwrap()
}

#[test]
fn output_names_every_declared_metric_with_its_unit() {
    let doc = benchmark_json();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = run_bench(trace, &[]);
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let result = json::parse(stdout.lines().last().unwrap()).unwrap();
        let keys: Vec<&str> = result
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(Value::as_f64).is_some(),
                    "{name} has no value"
                );
                (
                    name.clone(),
                    m.get("unit").and_then(Value::as_str).unwrap().to_owned(),
                )
            })
            .collect();
        assert_eq!(printed, declared(&doc, section));
    }
    let names: Vec<String> = declared(&doc, "end_to_end")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let expected: Vec<&str> = perfbench::metrics::END_TO_END
        .iter()
        .map(|s| s.name)
        .collect();
    assert_eq!(names, expected);
}

#[test]
fn refuses_to_measure_another_mode() {
    for var in perfbench::environment::REFUSED_VARS {
        let out = run_bench("0", &[(var, "off")]);
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(out.stdout.is_empty(), "{var} printed a result");
    }
}
