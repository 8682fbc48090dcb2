//! Shared helpers for the reproduction harness.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see the experiment index in the README's "Reproduction
//! harness" section), printing the series
//! to stdout and writing CSV/JSON artifacts into `results/` at the
//! workspace root. The Criterion benches in `benches/` measure the
//! engines themselves (cut-set algorithms, quantification, optimizers).
//!
//! The throughput smoke bins (`engine_throughput`, `fleet_throughput`,
//! `soa_throughput`) share one measurement loop ([`measure`]) and one
//! JSON schema ([`BenchReport`]) for their `BENCH_*.json` baselines at
//! the workspace root, so trajectory tooling can diff benches across
//! PRs: every file carries `schema`, `name`, `workload`, `threads`,
//! `timestamp`, a `modes` map of [`Measurement`]s keyed by stable ids,
//! and a `speedups` map. The timestamp is **passed in by the caller**
//! (the bins forward `SAFETY_OPT_BENCH_TIMESTAMP`; [`bench_timestamp`]
//! warns when it is unset) — it is never sampled from the clock, so
//! regenerating a baseline under a fixed value diffs clean.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Workspace root (`CARGO_MANIFEST_DIR` = `crates/bench`, two levels
/// down) — where the `BENCH_*.json` baselines live.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

/// Directory where regeneration binaries drop their artifacts
/// (`results/` next to the workspace `Cargo.toml`), created on demand.
///
/// # Panics
///
/// Panics if the directory cannot be created — the harness cannot do
/// anything useful without it.
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Writes `contents` to `results/<name>` and reports the path on stdout.
///
/// # Panics
///
/// Panics on I/O errors (harness binaries want loud failures).
pub fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).expect("write artifact");
    println!("[artifact] {}", path.display());
    path
}

/// Formats a row of right-aligned columns for console tables.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// One measured throughput mode of a `BENCH_*.json` baseline.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Stable snake_case id (the key in the JSON `modes` map).
    pub key: &'static str,
    /// Units (points, model·points, …) evaluated per second, best pass.
    pub points_per_sec: f64,
    /// Units evaluated across all timed passes.
    pub total_points: u64,
    /// Total timed wall-clock.
    pub seconds: f64,
}

/// Minimum wall-clock per measured mode.
const MIN_SECONDS: f64 = 0.6;

/// Measures `pass` (one full evaluation of `per_pass` units) until
/// `MIN_SECONDS` (0.6 s) of wall-clock accumulate, reporting the **best**
/// pass — robust against transient background load (CI runners and the
/// reference container share their core). A warm-up pass runs first
/// (pages, caches, lazy init); `pass`'s checksum is asserted finite so
/// the work cannot be optimized out.
pub fn measure(
    key: &'static str,
    label: &str,
    unit: &str,
    per_pass: usize,
    mut pass: impl FnMut() -> f64,
) -> Measurement {
    let mut checksum = pass();
    let start = Instant::now();
    let mut passes = 0u64;
    let mut best_pass_seconds = f64::INFINITY;
    loop {
        let pass_start = Instant::now();
        checksum += pass();
        best_pass_seconds = best_pass_seconds.min(pass_start.elapsed().as_secs_f64());
        passes += 1;
        if start.elapsed().as_secs_f64() >= MIN_SECONDS {
            break;
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    let total_points = passes * per_pass as u64;
    let points_per_sec = per_pass as f64 / best_pass_seconds;
    assert!(checksum.is_finite());
    println!(
        "{label:<22} {points_per_sec:>12.0} {unit}   \
         (best of {passes} passes, {total_points} {unit_base} in {seconds:.2} s)",
        unit_base = unit.trim_end_matches("/sec"),
    );
    Measurement {
        key,
        points_per_sec,
        total_points,
        seconds,
    }
}

/// One `BENCH_*.json` baseline in the shared schema (see the module
/// docs). Construct, then [`write`](Self::write).
#[derive(Debug, Clone)]
pub struct BenchReport<'a> {
    /// Benchmark id (`"engine_throughput"`, …).
    pub name: &'a str,
    /// Workload id (`"elbtunnel_paper"`, …).
    pub workload: &'a str,
    /// Worker threads the parallel modes used.
    pub threads: usize,
    /// Caller-provided timestamp (never sampled here; pass `""` for
    /// reproducible baselines).
    pub timestamp: &'a str,
    /// Extra scalar facts as `(key, raw JSON value)` pairs, emitted
    /// verbatim at the top level.
    pub extras: Vec<(&'a str, String)>,
    /// The measured modes, in presentation order.
    pub modes: &'a [Measurement],
    /// Named speedup ratios between modes.
    pub speedups: Vec<(&'a str, f64)>,
    /// The gating target as `(speedup key, threshold)`, when one exists.
    pub target: Option<(&'a str, f64)>,
    /// Did the run meet its target?
    pub pass: bool,
}

/// Escapes a string for a JSON literal (quotes, backslashes, control
/// characters — the subset these reports can contain).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl BenchReport<'_> {
    /// Renders the shared JSON schema.
    pub fn to_json(&self) -> String {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"schema\": \"safety-opt-bench-v1\",\n");
        json.push_str(&format!("  \"name\": \"{}\",\n", json_escape(self.name)));
        json.push_str(&format!(
            "  \"workload\": \"{}\",\n",
            json_escape(self.workload)
        ));
        json.push_str(&format!("  \"threads\": {},\n", self.threads));
        json.push_str(&format!(
            "  \"timestamp\": \"{}\",\n",
            json_escape(self.timestamp)
        ));
        for (key, value) in &self.extras {
            json.push_str(&format!("  \"{}\": {value},\n", json_escape(key)));
        }
        json.push_str("  \"modes\": {\n");
        for (i, m) in self.modes.iter().enumerate() {
            json.push_str(&format!(
                "    \"{}\": {{ \"points_per_sec\": {:.1}, \"total_points\": {}, \"seconds\": {:.4} }}{}\n",
                m.key,
                m.points_per_sec,
                m.total_points,
                m.seconds,
                if i + 1 < self.modes.len() { "," } else { "" }
            ));
        }
        json.push_str("  },\n");
        json.push_str("  \"speedups\": {\n");
        for (i, (key, v)) in self.speedups.iter().enumerate() {
            json.push_str(&format!(
                "    \"{}\": {v:.3}{}\n",
                json_escape(key),
                if i + 1 < self.speedups.len() { "," } else { "" }
            ));
        }
        json.push_str("  },\n");
        if let Some((key, threshold)) = &self.target {
            json.push_str(&format!(
                "  \"target\": {{ \"speedup\": \"{}\", \"at_least\": {threshold} }},\n",
                json_escape(key)
            ));
        }
        json.push_str(&format!("  \"pass\": {}\n", self.pass));
        json.push_str("}\n");
        json
    }

    /// Writes `BENCH_<stem>.json` at the workspace root and reports the
    /// path on stdout.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors (harness binaries want loud failures).
    pub fn write(&self, stem: &str) -> PathBuf {
        let path = workspace_root().join(format!("BENCH_{stem}.json"));
        std::fs::write(&path, self.to_json()).expect("write bench baseline");
        println!("\n[artifact] {}", path.display());
        path
    }
}

/// The caller-provided baseline timestamp: `SAFETY_OPT_BENCH_TIMESTAMP`
/// when set. It is never sampled from the clock — a fixed value
/// regenerates byte-identical baselines — but an *unset* variable now
/// warns on stderr instead of silently emitting `"timestamp": ""`
/// (every committed baseline should say when it was measured; CI
/// exports the variable before the bench steps).
pub fn bench_timestamp() -> String {
    match std::env::var("SAFETY_OPT_BENCH_TIMESTAMP") {
        Ok(ts) if !ts.trim().is_empty() => ts,
        _ => {
            eprintln!(
                "[warn] SAFETY_OPT_BENCH_TIMESTAMP is unset; the baseline will carry an \
                 empty timestamp (export it — e.g. an ISO-8601 date — before running bench bins)"
            );
            String::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_created_and_writable() {
        let dir = results_dir();
        assert!(dir.ends_with("results"));
        let path = write_artifact("self_test.txt", "ok\n");
        assert!(path.exists());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn row_alignment() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }

    #[test]
    fn bench_report_schema_is_stable() {
        let modes = [
            Measurement {
                key: "scalar",
                points_per_sec: 1234.5,
                total_points: 100,
                seconds: 0.5,
            },
            Measurement {
                key: "soa",
                points_per_sec: 2469.0,
                total_points: 200,
                seconds: 0.5,
            },
        ];
        let report = BenchReport {
            name: "demo",
            workload: "unit \"test\"",
            threads: 2,
            timestamp: "",
            extras: vec![("tape_ops", "14".to_string())],
            modes: &modes,
            speedups: vec![("soa_vs_scalar", 2.0)],
            target: Some(("soa_vs_scalar", 1.5)),
            pass: true,
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"safety-opt-bench-v1\""));
        assert!(json.contains("\"workload\": \"unit \\\"test\\\"\""));
        assert!(json.contains("\"tape_ops\": 14,"));
        assert!(json.contains("\"scalar\": { \"points_per_sec\": 1234.5"));
        assert!(json.contains("\"soa_vs_scalar\": 2.000"));
        assert!(json.contains("\"at_least\": 1.5"));
        assert!(json.contains("\"pass\": true"));
        // Every mode key appears exactly once, comma-separated.
        assert_eq!(json.matches("points_per_sec").count(), 2);
    }

    #[test]
    fn bench_timestamp_forwards_the_env_override() {
        // Serial with itself only: no other test reads this variable.
        std::env::set_var("SAFETY_OPT_BENCH_TIMESTAMP", "2026-07-29");
        assert_eq!(bench_timestamp(), "2026-07-29");
        std::env::set_var("SAFETY_OPT_BENCH_TIMESTAMP", "  ");
        assert_eq!(bench_timestamp(), "", "blank counts as unset");
        std::env::remove_var("SAFETY_OPT_BENCH_TIMESTAMP");
        assert_eq!(bench_timestamp(), "");
    }

    #[test]
    fn measure_counts_passes() {
        let m = measure("noop", "noop", "points/sec", 10, || 1.0);
        assert_eq!(m.key, "noop");
        assert!(m.points_per_sec > 0.0);
        assert!(m.total_points >= 10);
        assert!(m.seconds >= 0.6);
    }
}
