//! The closed-loop runner: one client sends the next query when the
//! previous answer is back and checked.
//!
//! The untraced run times queries and reports the end-to-end metrics.
//! The traced run (`--trace 1`) first measures the untraced answer rate
//! in a child process (telemetry modes are process-global, so the two
//! never share a process), then turns the telemetry counters on and
//! reports the per-layer metrics. Set-up time is the warm-up query of a
//! cold process, taken in this process and in 2 to [`SETUP_PROBES`] child
//! processes (as many as a tenth of `--seconds` allows); the median is
//! reported.

use crate::calibration::Calibrator;
use crate::elbtunnel::ElbtunnelQuery;
use crate::environment;
use crate::industrial::IndustrialQuery;
use crate::json::{self, ObjectWriter};
use crate::layers::{ms_since, Tally};
use crate::metrics::{self, Spec};
use crate::stats;
use crate::uncertainty::UncertaintyStudy;
use crate::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Workload names, as accepted by `--workload`.
pub const WORKLOADS: [&str; 3] = ["elbtunnel_query", "industrial_query", "uncertainty_study"];

/// Most child processes that each time one cold warm-up query.
pub const SETUP_PROBES: usize = 8;
/// Fewest such child processes.
const MIN_SETUP_PROBES: usize = 2;
/// Share of `--seconds` the set-up probes may take once the minimum ran.
const SETUP_PROBE_SHARE: f64 = 0.1;

/// Share of `--seconds` the traced run spends measuring the untraced
/// answer rate in a child process.
const RATE_PROBE_SHARE: f64 = 1.0 / 3.0;

/// What one invocation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics (`--trace 0`).
    Untraced,
    /// Per-layer metrics (`--trace 1`).
    Traced,
    /// Child: time one cold warm-up query.
    SetupProbe,
    /// Child: measure the untraced answer rate.
    RateProbe,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// What to do.
    pub mode: Mode,
}

/// Usage text.
pub const USAGE: &str =
    "usage: perfbench --workload <elbtunnel_query|industrial_query|uncertainty_study> \
--seed <u64> --seconds <s> --trace <0|1>";

/// Parses the command line (without the program name).
///
/// # Errors
///
/// What is missing or malformed.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut probe) =
        (None, None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            "--probe" => {
                probe = Some(match value.as_str() {
                    "setup" => Mode::SetupProbe,
                    "rate" => Mode::RateProbe,
                    _ => return Err("--probe takes setup or rate".to_owned()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let mode = match (probe, trace) {
        (Some(p), _) => p,
        (None, Some(true)) => Mode::Traced,
        (None, Some(false)) => Mode::Untraced,
        (None, None) => return Err("--trace is required".to_owned()),
    };
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(1.0),
        mode,
    })
}

/// Runs the invocation; returns the lines to print, the result last.
///
/// # Errors
///
/// Why no result can be given (the run is refused or cannot start).
pub fn run(o: &Options) -> Result<Vec<String>, String> {
    match o.workload.as_str() {
        "elbtunnel_query" => run_workload(&ElbtunnelQuery, o),
        "industrial_query" => run_workload(&IndustrialQuery::default(), o),
        "uncertainty_study" => run_workload(&UncertaintyStudy, o),
        other => Err(format!("unknown workload {other}")),
    }
}

fn run_workload<W: Workload>(w: &W, o: &Options) -> Result<Vec<String>, String> {
    match o.mode {
        Mode::Untraced => untraced(w, o),
        Mode::Traced => traced(w, o),
        Mode::SetupProbe => {
            let input = w.generate(o.seed, 0);
            let (_, ms) = timed_query(w, &input);
            Ok(vec![ObjectWriter::new()
                .num("setup_s", ms / 1e3 * setup_scale())
                .num("raw_setup_s", ms / 1e3)
                .num(
                    "peak_rss_mb",
                    environment::peak_rss_mb().unwrap_or(f64::NAN),
                )
                .finish()])
        }
        Mode::RateProbe => {
            let input = w.generate(o.seed, 0);
            let _ = timed_query(w, &input);
            let (run, _) = measure(w, o.seed, o.seconds);
            Ok(vec![ObjectWriter::new()
                .num("answers_per_s", run.answers_per_s())
                .int("queries", run.latencies_ms.len() as u64)
                .finish()])
        }
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic".to_owned());
        Err(format!("panicked: {msg}"))
    })
}

/// One query, timed from input to answer.
fn timed_query<W: Workload>(w: &W, input: &W::Input) -> (Result<W::Answer, String>, f64) {
    let start = Instant::now();
    let answer = guarded(|| w.query(input));
    (answer, ms_since(start))
}

/// Checks an answer, turning a panic in the checker into a failure.
fn checked<W: Workload>(
    w: &W,
    input: &W::Input,
    answer: Result<W::Answer, String>,
) -> Result<(W::Answer, f64), String> {
    let answer = answer?;
    let gap = guarded(|| w.check(input, &answer))?;
    Ok((answer, gap))
}

/// Queries run in one closed loop. Times are calibrated (see
/// [`crate::calibration`]) unless named raw.
#[derive(Debug, Default)]
struct Loop {
    /// Query times; a failed query counts as infinitely slow.
    latencies_ms: Vec<f64>,
    /// Uncalibrated query times.
    raw_latencies_ms: Vec<f64>,
    /// Time spent in queries.
    busy_ms: f64,
    /// Uncalibrated time spent in queries.
    raw_busy_ms: f64,
    answers: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Loop {
    /// Records one query that took `ms` of wall time under machine-speed
    /// scale `scale` and gave `outcome` answers (or failed).
    fn record(&mut self, outcome: Result<u64, String>, ms: f64, scale: f64) {
        self.busy_ms += ms * scale;
        self.raw_busy_ms += ms;
        match outcome {
            Ok(answers) => {
                self.latencies_ms.push(ms * scale);
                self.raw_latencies_ms.push(ms);
                self.answers += answers;
            }
            Err(e) => {
                self.latencies_ms.push(f64::INFINITY);
                self.raw_latencies_ms.push(f64::INFINITY);
                self.failed += 1;
                self.first_failure.get_or_insert(e);
            }
        }
    }

    fn answers_per_s(&self) -> f64 {
        self.answers as f64 / (self.busy_ms / 1e3)
    }

    fn raw_answers_per_s(&self) -> f64 {
        self.answers as f64 / (self.raw_busy_ms / 1e3)
    }
}

/// The calibration scale for a warm-up query that just ended, from
/// three kernel timings taken right after it.
fn setup_scale() -> f64 {
    let mut c = Calibrator::new();
    c.sample();
    c.sample();
    let now = Instant::now();
    c.scale(now, now)
}

/// One query of a loop, kept until the loop's calibration is complete.
struct Timed {
    start: Instant,
    end: Instant,
    /// Answers given, or why the query failed.
    outcome: Result<u64, String>,
}

impl Timed {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// The closed loop: queries 1, 2, … for `seconds`, each checked, with
/// the calibration kernel timed between them.
fn measure<W: Workload>(w: &W, seed: u64, seconds: f64) -> (Loop, Calibrator) {
    let mut calibrator = Calibrator::new();
    let mut queries = Vec::new();
    let deadline = Duration::from_secs_f64(seconds);
    let loop_start = Instant::now();
    let mut index = 1;
    while loop_start.elapsed() < deadline {
        calibrator.tick();
        let input = w.generate(seed, index);
        index += 1;
        let start = Instant::now();
        let answer = guarded(|| w.query(&input));
        let end = Instant::now();
        let outcome = checked(w, &input, answer).map(|(a, _)| w.answers(&a));
        queries.push(Timed {
            start,
            end,
            outcome,
        });
    }
    calibrator.sample();
    let mut run = Loop::default();
    for q in queries {
        let (ms, scale) = (q.ms(), calibrator.scale(q.start, q.end));
        run.record(q.outcome, ms, scale);
    }
    (run, calibrator)
}

/// Runs this program again as a child with `args`, waits for it, and
/// reads `keys` from the JSON object it prints last.
fn child_values(o: &Options, args: &[&str], keys: &[&str]) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &o.workload, "--seed", &o.seed.to_string()])
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("child run: {e}"))?;
    if !out.status.success() {
        return Err(format!("child run {args:?} failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = json::parse(last)?;
    keys.iter()
        .map(|key| {
            doc.get(key)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("child run printed no {key}: {last:?}"))
        })
        .collect()
}

/// The engine threads, refusing a run whose pool is not `nproc` wide.
fn checked_threads() -> Result<usize, String> {
    let threads = environment::engine_threads()?;
    let nproc = environment::nproc();
    if threads != nproc {
        return Err(format!(
            "engine threads {threads} != nproc {nproc}: unset SAFETY_OPT_THREADS, \
             the benchmark measures the machine-sized pool"
        ));
    }
    Ok(threads)
}

fn untraced<W: Workload>(w: &W, o: &Options) -> Result<Vec<String>, String> {
    let input = w.generate(o.seed, 0);
    let (answer, warm_ms) = timed_query(w, &input);
    let warm = checked(w, &input, answer);
    let threads = checked_threads()?;

    let mut raw_setup_s = vec![warm_ms / 1e3];
    let mut setup_s = vec![warm_ms / 1e3 * setup_scale()];
    let mut peak_rss_mb = Vec::new();
    let probes_start = Instant::now();
    let probe_budget = Duration::from_secs_f64(o.seconds * SETUP_PROBE_SHARE);
    for k in 0..SETUP_PROBES {
        if k >= MIN_SETUP_PROBES && probes_start.elapsed() > probe_budget {
            break;
        }
        let probe = child_values(
            o,
            &["--probe", "setup"],
            &["setup_s", "raw_setup_s", "peak_rss_mb"],
        )?;
        setup_s.push(probe[0]);
        raw_setup_s.push(probe[1]);
        peak_rss_mb.push(probe[2]);
    }

    let (mut run, calibrator) = measure(w, o.seed, o.seconds);
    // The warm-up is set-up time, not a loop sample; only its failure counts.
    if let Err(e) = warm {
        run.failed += 1;
        run.first_failure.get_or_insert(e);
    }

    // The tail is picked from the raw samples and scaled like the median:
    // scaling each extreme sample by its own calibration would add the
    // kernel's noise to the few samples the tail rests on.
    let latencies = stats::sorted(&run.latencies_ms);
    let raw_latencies = stats::sorted(&run.raw_latencies_ms);
    let tail = stats::tail(&raw_latencies).ok_or("no query completed")?;
    let p50 = stats::percentile(&latencies, 50.0).unwrap_or(f64::NAN);
    let raw_p50 = stats::percentile(&raw_latencies, 50.0).unwrap_or(f64::NAN);
    let attempted = run.latencies_ms.len() as u64 + 1;
    let median = |v: &[f64]| stats::median(&stats::sorted(v)).unwrap_or(f64::NAN);
    let values = [
        median(&setup_s),
        p50,
        tail.value * p50 / raw_p50,
        run.answers_per_s(),
        1.0 - run.failed as f64 / attempted as f64,
        median(&peak_rss_mb),
    ];
    let report = ObjectWriter::new()
        .raw(
            "environment",
            &environment::record(w.name(), o.seed, false, threads),
        )
        .num("latency_tail_percentile", tail.percentile)
        .int("latency_tail_samples_beyond", tail.beyond as u64)
        .int("latency_samples", tail.samples as u64)
        .num("failed_frac", run.failed as f64 / attempted as f64)
        .num("kernel_ms_median", median(&calibrator.times()))
        .num("raw_setup_s", median(&raw_setup_s))
        .num("raw_latency_p50_ms", raw_p50)
        .num("raw_latency_tail_ms", tail.value)
        .num("raw_answers_per_s", run.raw_answers_per_s())
        .num(
            "loop_peak_rss_mb",
            environment::peak_rss_mb().unwrap_or(f64::NAN),
        )
        .raw("setup_samples_s", &json_array(&setup_s))
        .str("first_failure", run.first_failure.as_deref().unwrap_or(""))
        .finish();
    Ok(vec![
        ObjectWriter::new().raw("report", &report).finish(),
        result_line(
            run.failed,
            attempted,
            metrics::END_TO_END.iter().copied().zip(values),
        ),
    ])
}

fn traced<W: Workload>(w: &W, o: &Options) -> Result<Vec<String>, String> {
    let probe_seconds = (o.seconds * RATE_PROBE_SHARE).to_string();
    let untraced_rate = child_values(
        o,
        &["--probe", "rate", "--seconds", &probe_seconds],
        &["answers_per_s"],
    )?[0];
    safety_opt_telemetry::set_mode(safety_opt_telemetry::TelemetryMode::Counters);

    let mut warm_tally = Tally::new();
    let input = w.generate(o.seed, 0);
    let warm = checked(w, &input, guarded(|| w.traced(&input, &mut warm_tally)));
    let threads = checked_threads()?;

    let mut tally = Tally::new();
    let (mut queries, mut answers, mut failed) = (0u64, 0u64, u64::from(warm.is_err()));
    let mut first_failure = warm.err();
    let mut calibrator = Calibrator::new();
    let mut spans = Vec::new();
    let deadline = Duration::from_secs_f64(o.seconds * (1.0 - RATE_PROBE_SHARE));
    let start = Instant::now();
    // Query 0 was the warm-up.
    let mut index = 1;
    while start.elapsed() < deadline {
        calibrator.tick();
        let input = w.generate(o.seed, index);
        index += 1;
        let mut q = Tally::new();
        let start = Instant::now();
        let outcome = checked(w, &input, guarded(|| w.traced(&input, &mut q)));
        spans.push((start, Instant::now(), q.get("bench.query_ms")));
        match outcome {
            Ok((answer, gap)) => {
                q.add("optim.optimum_rel_gap", gap);
                answers += w.answers(&answer);
                queries += 1;
                tally.merge(&q);
            }
            Err(e) => {
                failed += 1;
                first_failure.get_or_insert(e);
            }
        }
    }
    calibrator.sample();
    let busy_ms: f64 = spans
        .iter()
        .map(|&(start, end, ms)| ms * calibrator.scale(start, end))
        .sum();
    let traced_rate = answers as f64 / (busy_ms / 1e3);
    let values = metrics::per_layer_values(&tally, queries, (traced_rate, untraced_rate));

    let mut lines = layer_table(&tally, queries);
    let report = ObjectWriter::new()
        .raw(
            "environment",
            &environment::record(w.name(), o.seed, true, threads),
        )
        .str("first_failure", first_failure.as_deref().unwrap_or(""))
        .finish();
    lines.push(ObjectWriter::new().raw("report", &report).finish());
    lines.push(result_line(failed, index, values));
    Ok(lines)
}

/// The per-layer table: each layer's share of the traced query time.
fn layer_table(t: &Tally, queries: u64) -> Vec<String> {
    let q = queries.max(1) as f64;
    let query_ms = t.get("bench.query_ms") / q;
    let mut lines = vec![format!(
        "# layer table: mean per traced query over {queries} queries"
    )];
    let rows = metrics::layer_rows(t, q);
    for (name, ms) in rows {
        lines.push(format!(
            "#   {name:<20} {ms:>12.4} ms {:>7.2} %",
            100.0 * ms / query_ms
        ));
    }
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    lines.push(format!(
        "#   {:<20} {sum:>12.4} ms (query {query_ms:.4} ms)",
        "sum"
    ));
    lines
}

fn json_array(values: &[f64]) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|&v| {
            let mut s = String::new();
            json::write_num(&mut s, v);
            s
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// The final line: `correct`, `attempted`, `failed`, and the metrics with
/// their units.
pub fn result_line(
    failed: u64,
    attempted: u64,
    values: impl IntoIterator<Item = (Spec, f64)>,
) -> String {
    let metrics = values
        .into_iter()
        .fold(ObjectWriter::new(), |w, (s, v)| {
            w.raw(
                s.name,
                &ObjectWriter::new()
                    .num("value", v)
                    .str("unit", s.unit)
                    .finish(),
            )
        })
        .finish();
    ObjectWriter::new()
        .bool("correct", failed == 0)
        .int("attempted", attempted)
        .int("failed", failed)
        .raw("metrics", &metrics)
        .finish()
}
