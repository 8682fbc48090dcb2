//! The metrics the benchmark reports, with their units: the end-to-end
//! metrics of the untraced run and the per-layer metrics of the traced
//! run. `BENCHMARK.json` declares the same names and units (a self-test
//! holds the two together).

use crate::layers::Tally;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// End-to-end metrics (untraced run).
pub const END_TO_END: [Spec; 6] = [
    spec("setup_s", "s"),
    spec("latency_p50_ms", "ms"),
    spec("latency_tail_ms", "ms"),
    spec("answers_per_s", "1/s"),
    spec("answered_frac", "ratio"),
    spec("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), grouped by the crate they describe.
pub const PER_LAYER: [Spec; 41] = [
    spec("fta.parse_ms", "ms"),
    spec("fta.parse_mb_per_s", "MB/s"),
    spec("fta.mcs_ms", "ms"),
    spec("fta.mcs_cut_sets", "count"),
    spec("fta.preprocess_ms", "ms"),
    spec("fta.gates_after", "count"),
    spec("fta.modules", "count"),
    spec("fta.bdd_ms", "ms"),
    spec("fta.bdd_nodes", "count"),
    spec("fta.total_ms", "ms"),
    spec("safeopt.hazard_build_ms", "ms"),
    spec("safeopt.compile_ms", "ms"),
    spec("safeopt.sweep_ms", "ms"),
    spec("safeopt.optimize_ms", "ms"),
    spec("safeopt.importance_ms", "ms"),
    spec("safeopt.study_ms", "ms"),
    spec("safeopt.self_ms", "ms"),
    spec("engine.tape_ops", "count"),
    spec("engine.fleet_arena_ops", "count"),
    spec("engine.fleet_sharing", "ratio"),
    spec("engine.sweep_points_per_s", "1/s"),
    spec("engine.grad_points_per_s", "1/s"),
    spec("engine.sweep_speedup_nproc", "ratio"),
    spec("engine.objective_ms", "ms"),
    spec("engine.objective_calls", "count"),
    spec("engine.batch_points_mean", "count"),
    spec("engine.adjoint_sweeps", "count"),
    spec("engine.cache_hit_ratio", "ratio"),
    spec("engine.total_ms", "ms"),
    spec("optim.self_ms", "ms"),
    spec("optim.evaluations", "count"),
    spec("optim.iterations", "count"),
    spec("optim.capped_frac", "ratio"),
    spec("optim.optimum_rel_gap", "ratio"),
    spec("telemetry.overhead_ratio", "ratio"),
    spec("bench.query_ms", "ms"),
    spec("bench.unattributed_ms", "ms"),
    spec("bench.replays_identical", "ratio"),
    spec("bench.replay_time_ratio", "ratio"),
    spec("bench.queries", "count"),
    spec("bench.overhead_base_answers_per_s", "1/s"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The layer rows of the table: each query's time split into the
/// crates it ran in, plus what the benchmark could not attribute. Per
/// query, in milliseconds; they sum to `bench.query_ms`.
pub fn layer_rows(t: &Tally, queries: f64) -> [(&'static str, f64); 5] {
    let per = |k: &str| ratio(t.get(k), queries);
    let fta =
        per("fta.parse_ms") + per("fta.mcs_ms") + per("fta.preprocess_ms") + per("fta.bdd_ms");
    let engine = per("engine.objective_ms") + per("safeopt.sweep_ms");
    let optim = per("optim.self_ms");
    let top = per("bench.top_ms");
    [
        ("fta", fta),
        ("safeopt", top - fta - engine - optim),
        ("engine", engine),
        ("optim", optim),
        ("bench.unattributed", per("bench.query_ms") - top),
    ]
}

/// Values of every [`PER_LAYER`] metric from the traced queries'
/// summed tally. Times and counts are means per query; rates and ratios
/// are ratios of sums. `overhead` is `(traced, untraced)` answers per
/// second.
pub fn per_layer_values(t: &Tally, queries: u64, overhead: (f64, f64)) -> Vec<(Spec, f64)> {
    let q = queries as f64;
    let per = |k: &str| ratio(t.get(k), q);
    let rows = layer_rows(t, q);
    let row = |name: &str| rows.iter().find(|(n, _)| *n == name).map_or(0.0, |r| r.1);
    PER_LAYER
        .iter()
        .map(|&s| {
            let v = match s.name {
                "fta.parse_mb_per_s" => {
                    ratio(t.get("fta.parse_bytes") / 1e6, t.get("fta.parse_ms") / 1e3)
                }
                "fta.total_ms" => row("fta"),
                "safeopt.self_ms" => row("safeopt"),
                "engine.total_ms" => row("engine"),
                "engine.sweep_points_per_s" => ratio(
                    t.get("engine.sweep_points"),
                    t.get("engine.sweep_cost_ms") / 1e3,
                ),
                "engine.grad_points_per_s" => {
                    ratio(t.get("engine.grad_points"), t.get("engine.grad_ms") / 1e3)
                }
                "engine.sweep_speedup_nproc" => {
                    ratio(t.get("engine.sweep_1t_ms"), t.get("engine.sweep_nt_ms"))
                }
                "engine.batch_points_mean" => ratio(
                    t.get("engine.objective_points"),
                    t.get("engine.objective_calls"),
                ),
                "engine.cache_hit_ratio" => {
                    ratio(t.get("engine.cache_hits"), t.get("engine.cache_lookups"))
                }
                "optim.capped_frac" => ratio(t.get("optim.capped"), t.get("optim.restarts")),
                "telemetry.overhead_ratio" => ratio(overhead.0, overhead.1),
                "bench.unattributed_ms" => row("bench.unattributed"),
                "bench.replays_identical" => {
                    ratio(t.get("bench.replays_identical"), t.get("bench.replays"))
                }
                "bench.replay_time_ratio" => ratio(
                    t.get("bench.replay_minimize_ms"),
                    t.get("bench.real_minimize_ms"),
                ),
                "bench.queries" => q,
                "bench.overhead_base_answers_per_s" => overhead.1,
                name => per(name),
            };
            (s, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<Spec> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for (i, s) in all.iter().enumerate() {
            assert!(s.name.len() <= 64 && s.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(s.unit.len() <= 16);
            assert!(
                all[i + 1..].iter().all(|o| o.name != s.name),
                "{} twice",
                s.name
            );
        }
    }

    #[test]
    fn layer_rows_sum_to_the_query_time() {
        let mut t = Tally::new();
        for (k, v) in [
            ("bench.query_ms", 10.0),
            ("bench.top_ms", 9.5),
            ("fta.parse_ms", 1.0),
            ("fta.mcs_ms", 0.5),
            ("engine.objective_ms", 3.0),
            ("safeopt.sweep_ms", 2.0),
            ("optim.self_ms", 1.5),
        ] {
            t.add(k, v);
            t.add(k, v); // two queries
        }
        let rows = layer_rows(&t, 2.0);
        let sum: f64 = rows.iter().map(|r| r.1).sum();
        assert!((sum - 10.0).abs() < 1e-12);
        assert_eq!(rows[0], ("fta", 1.5));
        assert_eq!(rows[2], ("engine", 5.0));
        assert_eq!(rows[4], ("bench.unattributed", 0.5));
        let values = per_layer_values(&t, 2, (9.0, 10.0));
        let get = |n: &str| values.iter().find(|(s, _)| s.name == n).unwrap().1;
        assert_eq!(get("telemetry.overhead_ratio"), 0.9);
        assert_eq!(get("safeopt.self_ms"), 1.5);
    }
}
