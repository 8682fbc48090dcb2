//! Shared helpers for the reproduction harness.
//!
//! Every binary in `src/bin/` but `gates` regenerates one table or
//! figure of the paper (see the experiment index in the README's
//! "Reproduction harness" section), printing the series
//! to stdout and writing CSV/JSON artifacts into `results/` at the
//! workspace root. The Criterion benches in `benches/` measure the
//! engines themselves (cut-set algorithms, quantification, optimizers).
//!
//! The `gates` binary guards the engine layers under the paper's
//! optimum. Every ratio gate times its modes with [`interleave`] and
//! gates on [`paired_median`]; every reading lands in one
//! [`GateReport`], written to `BENCH_gates.json` at the workspace root
//! with `schema`, `timestamp`, `nproc`, a `gates` list of
//! [`Reading`]s keyed by stable ids, and a `facts` map. The timestamp
//! is **passed in by the caller** (the bin forwards
//! `SAFETY_OPT_BENCH_TIMESTAMP`; [`bench_timestamp`] warns when it is
//! unset) — it is never sampled from the clock, so regenerating the
//! file under a fixed value changes only the measured numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Workspace root (`CARGO_MANIFEST_DIR` = `crates/bench`, two levels
/// down) — where `BENCH_gates.json` lives.
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

/// Times one pass of every mode per round, for `rounds` rounds, after
/// one untimed warm-up pass of each (pages, caches, lazy init), and
/// returns `seconds[mode][round]`.
///
/// Round `r` runs the modes in the order `r, r + s, r + 2s, …` (modulo
/// the mode count `n`), where the step `s` moves on to the next value
/// coprime with `n` every `n` rounds. So no mode always runs first, and
/// no mode always runs right after the same neighbour: with one fixed
/// step, the telemetry base would always follow the cache-heavy
/// `profile` pass, which reads a same-mode control 0.1–0.5% high.
///
/// Index `r` of every mode's times was taken in round `r`, so
/// [`paired_median`], which pairs on the index, compares passes that ran
/// back to back. Each pass returns a checksum, asserted finite so the
/// work cannot be optimized out.
pub fn interleave(rounds: usize, passes: &mut [&mut dyn FnMut() -> f64]) -> Vec<Vec<f64>> {
    for pass in passes.iter_mut() {
        assert!(pass().is_finite(), "warm-up checksum is not finite");
    }
    record_rounds(passes.len(), rounds, |mode| {
        let start = Instant::now();
        let checksum = passes[mode]();
        let seconds = start.elapsed().as_secs_f64();
        assert!(checksum.is_finite(), "mode {mode}: checksum is not finite");
        seconds
    })
}

/// The rotation and bookkeeping of [`interleave`], with the clock
/// factored out: `timed(mode)` runs one pass of `mode` and returns its
/// seconds.
fn record_rounds(
    modes: usize,
    rounds: usize,
    mut timed: impl FnMut(usize) -> f64,
) -> Vec<Vec<f64>> {
    // Every step coprime with the mode count visits each mode once per
    // round; cycling through them changes which mode runs before which.
    let steps: Vec<usize> = (1..modes.max(2))
        .filter(|&s| (2..=s).all(|d| s % d != 0 || modes % d != 0))
        .collect();
    let mut seconds = vec![Vec::with_capacity(rounds); modes];
    for round in 0..rounds {
        let step = steps[(round / modes) % steps.len()];
        for k in 0..modes {
            let mode = (round + k * step) % modes;
            seconds[mode].push(timed(mode));
        }
    }
    seconds
}

/// The gate statistic: the median over rounds of `base[r] / mode[r]`,
/// the mode's throughput relative to the base's within one round (both
/// slices are pass times of equal work). Drift slower than a round
/// cancels out of each ratio, and a stall that hits one pass moves one
/// ratio, not the median. An even count takes the mean of the middle
/// two.
///
/// # Panics
///
/// Panics when the slices differ in length or are empty.
pub fn paired_median(base: &[f64], mode: &[f64]) -> f64 {
    assert_eq!(base.len(), mode.len(), "one pass per round on each side");
    assert!(!base.is_empty(), "no rounds to pair");
    let mut ratios: Vec<f64> = base.iter().zip(mode).map(|(b, m)| b / m).collect();
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        0.5 * (ratios[mid - 1] + ratios[mid])
    }
}

/// The condition a [`Reading`]'s value must meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// `value >= floor` (a throughput ratio).
    AtLeast(f64),
    /// `value < ceiling` (seconds, or a size ratio).
    Below(f64),
    /// Recorded, never gated.
    Recorded,
}

impl Bound {
    /// Does `value` meet the bound?
    pub fn holds(self, value: f64) -> bool {
        match self {
            Bound::AtLeast(floor) => value >= floor,
            Bound::Below(ceiling) => value < ceiling,
            Bound::Recorded => true,
        }
    }
}

/// One entry of the `gates` list in `BENCH_gates.json`.
#[derive(Debug, Clone)]
pub struct Reading {
    /// Stable id, `<section>.<gate>` (`"soa.soa_vs_pointwise"`, …).
    pub id: &'static str,
    /// The measured value: a [`paired_median`] ratio, seconds or a size
    /// ratio, as `statistic` says.
    pub value: f64,
    /// The gate on `value`.
    pub bound: Bound,
    /// How `value` was measured (`"median of 101 paired rounds"`, …).
    pub statistic: String,
    /// Worker threads the measured code ran on.
    pub workers: usize,
}

impl Reading {
    /// Does the reading meet its bound?
    pub fn pass(&self) -> bool {
        self.bound.holds(self.value)
    }
}

/// Every reading and fact of one `gates` run, in the `BENCH_gates.json`
/// schema (see the module docs).
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Caller-provided timestamp (never sampled here; `""` when unset).
    pub timestamp: String,
    /// Cores the machine reported (`available_parallelism`).
    pub nproc: usize,
    /// The readings, in run order.
    pub readings: Vec<Reading>,
    /// Workload facts as `(key, raw JSON value)` pairs.
    pub facts: Vec<(String, String)>,
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

impl GateReport {
    /// An empty report stamped with `timestamp` and this machine's
    /// core count.
    pub fn new(timestamp: String) -> Self {
        GateReport {
            timestamp,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            readings: Vec::new(),
            facts: Vec::new(),
        }
    }

    /// Records `reading` and prints it as one console line.
    pub fn push(&mut self, reading: Reading) {
        let bound = match reading.bound {
            Bound::AtLeast(floor) => format!(">= {floor}"),
            Bound::Below(ceiling) => format!("<  {ceiling}"),
            Bound::Recorded => "recorded".to_string(),
        };
        println!(
            "{:<40} {:>8.4}  {bound:<9} {:<4}  ({}, {} worker)",
            reading.id,
            reading.value,
            match (reading.bound, reading.pass()) {
                (Bound::Recorded, _) => "",
                (_, true) => "PASS",
                (_, false) => "FAIL",
            },
            reading.statistic,
            reading.workers,
        );
        self.readings.push(reading);
    }

    /// Records a workload fact; `value` is emitted as a raw JSON value.
    pub fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// The readings that miss their bound.
    pub fn failures(&self) -> Vec<&Reading> {
        self.readings.iter().filter(|r| !r.pass()).collect()
    }

    /// Renders the `BENCH_gates.json` schema.
    pub fn to_json(&self) -> String {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"schema\": \"safety-opt-gates-v1\",\n");
        json.push_str(&format!(
            "  \"timestamp\": \"{}\",\n",
            json_escape(&self.timestamp)
        ));
        json.push_str(&format!("  \"nproc\": {},\n", self.nproc));
        json.push_str("  \"gates\": [\n");
        for (i, r) in self.readings.iter().enumerate() {
            let bound = match r.bound {
                Bound::AtLeast(floor) => format!("\"at_least\": {floor}, "),
                Bound::Below(ceiling) => format!("\"below\": {ceiling}, "),
                Bound::Recorded => String::new(),
            };
            json.push_str(&format!(
                "    {{ \"id\": \"{}\", \"value\": {:.4}, {bound}\"statistic\": \"{}\", \"workers\": {}, \"pass\": {} }}{}\n",
                json_escape(r.id),
                r.value,
                json_escape(&r.statistic),
                r.workers,
                r.pass(),
                if i + 1 < self.readings.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n");
        json.push_str("  \"facts\": {\n");
        for (i, (key, value)) in self.facts.iter().enumerate() {
            json.push_str(&format!(
                "    \"{}\": {value}{}\n",
                json_escape(key),
                if i + 1 < self.facts.len() { "," } else { "" }
            ));
        }
        json.push_str("  },\n");
        json.push_str(&format!("  \"pass\": {}\n", self.failures().is_empty()));
        json.push_str("}\n");
        json
    }

    /// Writes `BENCH_gates.json` at the workspace root and reports the
    /// path on stdout.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors (harness binaries want loud failures).
    pub fn write(&self) -> PathBuf {
        let path = workspace_root().join("BENCH_gates.json");
        std::fs::write(&path, self.to_json()).expect("write BENCH_gates.json");
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
        let mut report = GateReport::new("2026-10-19".to_string());
        report.nproc = 2;
        report.push(Reading {
            id: "soa.soa_vs_pointwise",
            value: 1.75,
            bound: Bound::AtLeast(1.5),
            statistic: "median of 3 paired rounds".to_string(),
            workers: 1,
        });
        report.push(Reading {
            id: "bdd.pipeline_seconds",
            value: 0.0125,
            bound: Bound::Below(1.0),
            statistic: "one \"cold\" run".to_string(),
            workers: 1,
        });
        report.push(Reading {
            id: "telemetry.profile_vs_off",
            value: 0.5,
            bound: Bound::Recorded,
            statistic: "median of 3 paired rounds".to_string(),
            workers: 1,
        });
        report.fact("soa.tape_ops", 13);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"safety-opt-gates-v1\""));
        assert!(json.contains("\"timestamp\": \"2026-10-19\""));
        assert!(json.contains("\"nproc\": 2,"));
        assert!(json.contains(
            "{ \"id\": \"soa.soa_vs_pointwise\", \"value\": 1.7500, \"at_least\": 1.5, \
             \"statistic\": \"median of 3 paired rounds\", \"workers\": 1, \"pass\": true },"
        ));
        assert!(json.contains("\"below\": 1, \"statistic\": \"one \\\"cold\\\" run\""));
        assert!(json.contains("\"value\": 0.5000, \"statistic\""));
        assert!(json.contains("\"soa.tape_ops\": 13\n"));
        assert!(json.ends_with("  \"pass\": true\n}\n"));
        // Every reading appears exactly once, comma-separated.
        assert_eq!(json.matches("\"id\"").count(), 3);
        assert_eq!(json.matches("\"pass\": true },\n").count(), 2);
        assert!(json.contains("\"pass\": true }\n  ],\n"));

        report.push(Reading {
            id: "telemetry.events_vs_off",
            value: 0.96,
            bound: Bound::AtLeast(0.97),
            statistic: String::new(),
            workers: 1,
        });
        let failed: Vec<_> = report.failures().iter().map(|r| r.id).collect();
        assert_eq!(failed, ["telemetry.events_vs_off"]);
        assert!(report.to_json().ends_with("  \"pass\": false\n}\n"));
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
    fn bounds_hold_at_their_edges() {
        assert!(Bound::AtLeast(0.99).holds(0.99));
        assert!(!Bound::AtLeast(0.99).holds(0.9899));
        assert!(Bound::Below(1.0).holds(0.999));
        assert!(!Bound::Below(1.0).holds(1.0));
        assert!(Bound::Recorded.holds(f64::NAN));
    }

    #[test]
    fn paired_median_of_equal_times_is_one() {
        let t = [3e-3, 2.5e-3, 4e-3, 3.1e-3, 2.9e-3];
        assert_eq!(paired_median(&t, &t), 1.0);
    }

    #[test]
    fn paired_median_of_doubled_times_is_one_half() {
        let base = [1.0, 2.0, 3.0, 4.0];
        let doubled = [2.0, 4.0, 6.0, 8.0];
        assert_eq!(paired_median(&base, &doubled), 0.5);
        assert_eq!(paired_median(&doubled, &base), 2.0);
    }

    #[test]
    fn one_outlier_pair_does_not_move_the_median() {
        let base = [1.0, 1.0, 1.0, 1.0, 1.0];
        let mode = [1.25, 1.25, 1.25, 1.25, 1.25];
        let mut stalled = mode;
        stalled[2] = 40.0; // one mode pass hit a stall
        assert_eq!(paired_median(&base, &mode), 0.8);
        assert_eq!(paired_median(&base, &stalled), 0.8);
        let mut stalled_base = base;
        stalled_base[0] = 40.0; // one base pass hit a stall
        assert_eq!(paired_median(&stalled_base, &mode), 0.8);
    }

    #[test]
    fn even_counts_take_the_middle_pair() {
        assert_eq!(paired_median(&[1.0, 1.0], &[1.0, 4.0]), 0.625);
    }

    #[test]
    #[should_panic(expected = "one pass per round")]
    fn unpaired_slices_are_rejected() {
        paired_median(&[1.0, 1.0], &[1.0]);
    }

    #[test]
    fn rounds_rotate_the_order_and_pair_by_round() {
        // The fake clock returns 10·(call index) + mode, so each
        // recorded time names the pass that produced it.
        let mut calls = Vec::new();
        let seconds = record_rounds(3, 7, |mode| {
            calls.push(mode);
            (10 * calls.len() + mode) as f64
        });
        // Step 1 for rounds 0–2, step 2 for rounds 3–5, then step 1 again.
        let orders = [
            [0, 1, 2],
            [1, 2, 0],
            [2, 0, 1],
            [0, 2, 1],
            [1, 0, 2],
            [2, 1, 0],
            [0, 1, 2],
        ];
        assert_eq!(calls, orders.concat());
        assert_eq!(seconds.len(), 3);
        for (mode, times) in seconds.iter().enumerate() {
            assert_eq!(times.len(), 7);
            for (round, &t) in times.iter().enumerate() {
                let call = t as usize / 10 - 1;
                assert_eq!(
                    calls[call], mode,
                    "time of mode {mode} came from its own pass"
                );
                assert_eq!(call / 3, round, "index {round} was taken in round {round}");
            }
        }
    }

    #[test]
    fn interleave_warms_up_then_times_every_round() {
        let (mut a, mut b) = (0u32, 0u32);
        let seconds = interleave(
            5,
            &mut [
                &mut || {
                    a += 1;
                    1.0
                },
                &mut || {
                    b += 1;
                    2.0
                },
            ],
        );
        assert_eq!((a, b), (6, 6), "one warm-up pass plus one per round");
        assert!(seconds
            .iter()
            .all(|t| t.len() == 5 && t.iter().all(|&s| s >= 0.0)));
    }
}
