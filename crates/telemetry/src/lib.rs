//! Runtime telemetry for the safety-optimization workspace: atomic
//! counters, power-of-two-bucketed histograms, monotonic-clock spans and
//! a structured event stream behind a process-global registry — with
//! **zero dependencies** and near-zero cost when disabled.
//!
//! # Modes
//!
//! Observability is one ordered ladder, selected once per process by the
//! `SAFETY_OPT_TELEMETRY` environment variable (`off` — the default —
//! `counters`, `events`, or `profile`; matching trims and ignores case,
//! and anything else panics loudly, mirroring the other `SAFETY_OPT_*`
//! knobs) or programmatically via [`set_mode`]. Each level records
//! everything the levels below it record:
//!
//! * [`TelemetryMode::Off`] — every instrumentation site reduces to one
//!   relaxed atomic load and a predictable branch.
//! * [`TelemetryMode::Counters`] — [`Counter`]s record; no clock reads,
//!   no events.
//! * [`TelemetryMode::Events`] — adds [`TraceScope`] attribution, the
//!   event ring and [`span`] completion events (the production pairing).
//! * [`TelemetryMode::Profile`] — adds [`Histogram`]s, span durations,
//!   one-time stderr diagnostics and the engine's per-op tape profiler.
//!
//! # Instrumentation model
//!
//! Sites declare `static` [`Counter`]s and [`Histogram`]s (`const`
//! constructors, no life-before-main). On first use an instrument
//! registers itself with the process-global [`Registry`], so
//! [`snapshot`] sees exactly the instruments the process exercised:
//!
//! ```
//! use safety_opt_telemetry as telemetry;
//!
//! static SWEEPS: telemetry::Counter = telemetry::Counter::new("demo.sweeps");
//!
//! telemetry::set_mode(telemetry::TelemetryMode::Counters);
//! SWEEPS.add(3);
//! assert_eq!(SWEEPS.get(), 3);
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counter("demo.sweeps"), Some(3));
//! telemetry::reset();
//! telemetry::set_mode(telemetry::TelemetryMode::Off);
//! ```
//!
//! Instrumentation is **observation-only** by contract: enabling any
//! mode must never change a computed result (the engine's 0-ULP
//! equivalence suite sweeps every level to enforce this).
//!
//! # Tracing
//!
//! The [`trace`] module holds the `events` layer: named
//! [`TraceScope`]s attribute counters and spans to a request / model /
//! restart instead of only the process globals, a fixed-capacity event
//! ring buffer records scope begins/ends, span completions, failpoint
//! firings, degradation fallbacks, deadline expiries, and cache
//! evictions, and [`trace::export_jsonl`] / [`trace::export_chrome_trace`]
//! render the stream for machines and for Perfetto.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod trace;

pub use trace::{EventKind, ScopeHandle, ScopeSnapshot, TraceScope};

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How much the process records. Ordered: each level includes the
/// previous one's recordings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TelemetryMode {
    /// Nothing records; every site costs one atomic load + branch.
    Off = 0,
    /// Counters record; no clock reads, no events.
    Counters = 1,
    /// Counters plus scoped attribution, the event ring and span
    /// completion events.
    Events = 2,
    /// Everything: histograms, span durations, one-time diagnostics and
    /// the per-op tape profiler.
    Profile = 3,
}

impl TelemetryMode {
    /// The mode's canonical lowercase name
    /// (`off`/`counters`/`events`/`profile`).
    pub fn name(self) -> &'static str {
        match self {
            TelemetryMode::Off => "off",
            TelemetryMode::Counters => "counters",
            TelemetryMode::Events => "events",
            TelemetryMode::Profile => "profile",
        }
    }
}

/// Sentinel: the env var has not been consulted yet.
const MODE_UNSET: u8 = u8::MAX;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// Parses a `SAFETY_OPT_TELEMETRY` override, trimmed and
/// case-insensitive. `None` or an empty/blank string means "not set"
/// (the default, [`TelemetryMode::Off`], applies).
///
/// # Panics
///
/// Panics on any other value, in the uniform `SAFETY_OPT_*` knob message
/// format — a typo silently disabling telemetry would be worse than a
/// crash at startup.
pub fn parse_mode_override(raw: Option<&str>) -> Option<TelemetryMode> {
    let raw = raw?.trim();
    if raw.is_empty() {
        return None;
    }
    match raw.to_ascii_lowercase().as_str() {
        "off" => Some(TelemetryMode::Off),
        "counters" => Some(TelemetryMode::Counters),
        "events" => Some(TelemetryMode::Events),
        "profile" => Some(TelemetryMode::Profile),
        _ => panic!(
            "SAFETY_OPT_TELEMETRY must be \"off\" or \"counters\" or \"events\" \
             or \"profile\", got {raw:?} (unset it to disable telemetry)"
        ),
    }
}

#[cold]
fn init_mode() -> TelemetryMode {
    let env = std::env::var("SAFETY_OPT_TELEMETRY").ok();
    let mode = parse_mode_override(env.as_deref()).unwrap_or(TelemetryMode::Off);
    // A racing initializer computes the same value; last store wins.
    MODE.store(mode as u8, Ordering::Relaxed);
    mode
}

/// The process-wide telemetry mode: the `SAFETY_OPT_TELEMETRY`
/// environment override, read once on first query, unless
/// [`set_mode`] replaced it.
#[inline]
pub fn mode() -> TelemetryMode {
    match MODE.load(Ordering::Relaxed) {
        0 => TelemetryMode::Off,
        1 => TelemetryMode::Counters,
        2 => TelemetryMode::Events,
        3 => TelemetryMode::Profile,
        _ => init_mode(),
    }
}

/// Overrides the telemetry mode for the whole process — the in-process
/// switch the equivalence suite and the overhead bench drive.
pub fn set_mode(mode: TelemetryMode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// `true` when counters record ([`TelemetryMode::Counters`] or above).
#[inline]
pub fn counters_enabled() -> bool {
    mode() >= TelemetryMode::Counters
}

/// `true` when scoped attribution and the event ring record
/// ([`TelemetryMode::Events`] or above).
#[inline]
pub fn events_enabled() -> bool {
    mode() >= TelemetryMode::Events
}

/// `true` when histograms, span durations, diagnostics and the per-op
/// tape profiler record ([`TelemetryMode::Profile`]).
#[inline]
pub fn profile_enabled() -> bool {
    mode() == TelemetryMode::Profile
}

/// A named monotonic event counter (one relaxed `fetch_add` per
/// recording). Declare as a `static`; the counter registers itself with
/// the global [`Registry`] on first use.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A zeroed counter named `name` (use dotted lowercase paths, e.g.
    /// `engine.cache.hits`).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The counter's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` when counters are enabled; a no-op (one load + branch)
    /// otherwise.
    #[inline]
    pub fn add(&'static self, n: u64) {
        let mode = mode();
        if mode >= TelemetryMode::Counters {
            self.record(n, mode >= TelemetryMode::Events);
        }
    }

    /// Adds `n` unconditionally (mode already checked by the caller).
    /// The global aggregate updates first; when `scoped` (the
    /// [`TelemetryMode::Events`] level) and a [`TraceScope`] is active,
    /// the add is *also* attributed to the scope (never instead — scoped
    /// attribution leaves the process globals bit-for-bit untouched).
    fn record(&'static self, n: u64, scoped: bool) {
        self.ensure_registered();
        self.value.fetch_add(n, Ordering::Relaxed);
        if scoped {
            trace::scoped_counter_add(self.name, n);
        }
    }

    /// Current value (readable in every mode).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn ensure_registered(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock_registry().counters.push(self);
        }
    }
}

/// Number of power-of-two histogram buckets: bucket 0 holds the value
/// 0, bucket `i > 0` holds values in `[2^(i−1), 2^i)`.
const BUCKETS: usize = 65;

/// A named histogram over `u64` samples with power-of-two buckets plus
/// exact count and sum. Records only in [`TelemetryMode::Profile`] (every
/// observation is ~3 relaxed `fetch_add`s). Declare as a `static`; it
/// registers itself with the global [`Registry`] on first use.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    /// An empty histogram named `name`.
    pub const fn new(name: &'static str) -> Self {
        // Array-init idiom for a non-Copy element on the 1.75 MSRV
        // (inline-const array expressions need 1.79); the const is a
        // *template* for fresh zeros, never a shared binding.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            name,
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The histogram's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Bucket index of `value`.
    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i`.
    fn bucket_le(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records `value` when [`profile_enabled`]; a no-op otherwise.
    #[inline]
    pub fn observe(&'static self, value: u64) {
        if profile_enabled() {
            self.record(value);
        }
    }

    /// Records `value` unconditionally (mode already checked by the
    /// caller, e.g. at [`span`] creation). Like [`Counter`] adds, the
    /// sample is additionally attributed to the active [`TraceScope`]
    /// (if any) — `profile` includes the scoped attribution of `events`,
    /// and the global aggregate is untouched.
    fn record(&'static self, value: u64) {
        self.ensure_registered();
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        trace::scoped_hist_record(self.name, value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The `p`-th percentile (`0 < p <= 100`) of the recorded samples,
    /// as the inclusive upper bound of the bucket containing the
    /// rank-⌈p/100·count⌉ sample — an upper estimate within the
    /// power-of-two bucket resolution. Returns 0 for an empty
    /// histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        percentile_of_buckets(&counts, p)
    }

    fn ensure_registered(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock_registry().histograms.push(self);
        }
    }
}

/// An in-flight [`span`] timing. If the mode was
/// [`TelemetryMode::Events`] or above when the span started, dropping it
/// emits a [`trace::EventKind::Span`] event; at
/// [`TelemetryMode::Profile`] it also records the elapsed monotonic
/// nanoseconds into its histogram. Below `events` the span never reads
/// the clock.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct Span {
    hist: &'static Histogram,
    /// Start instant and its trace-epoch nanos (`None` below `events`).
    start: Option<(Instant, u64)>,
    /// Record into the histogram on drop (`profile` at start).
    record: bool,
}

/// Starts timing a region against `hist`. Reads the monotonic clock
/// only at [`TelemetryMode::Events`] or above.
#[inline]
pub fn span(hist: &'static Histogram) -> Span {
    let mode = mode();
    let start = (mode >= TelemetryMode::Events).then(|| {
        let now = Instant::now();
        (now, trace::nanos_since_epoch(now))
    });
    Span {
        hist,
        start,
        record: mode == TelemetryMode::Profile,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((start, start_ts)) = self.start {
            let nanos = start.elapsed().as_nanos();
            let nanos = u64::try_from(nanos).unwrap_or(u64::MAX);
            if self.record {
                self.hist.record(nanos);
            }
            trace::record_span_event(self.hist.name, start_ts, nanos);
        }
    }
}

/// Destination for telemetry measurements, keyed by instrument name.
///
/// The process-global [`Registry`] implements this trait, so callers
/// that cannot (or prefer not to) declare `static` instruments — tests,
/// dynamically named subsystems — can still record through the same
/// pipeline. Name-based recording respects the mode exactly like the
/// static instruments: `add` requires [`TelemetryMode::Counters`],
/// `observe` requires [`TelemetryMode::Profile`].
pub trait TelemetrySink {
    /// Adds `n` to the counter named `name`.
    fn add(&self, name: &str, n: u64);
    /// Records one `value` sample against the histogram named `name`.
    fn observe(&self, name: &str, value: u64);
}

/// The process-global instrument registry: every [`Counter`] and
/// [`Histogram`] that has recorded at least once, plus dynamically
/// named values recorded through the [`TelemetrySink`] impl.
#[derive(Debug)]
pub struct Registry(());

/// Instruments known to the registry.
#[derive(Debug)]
struct RegistryInner {
    counters: Vec<&'static Counter>,
    histograms: Vec<&'static Histogram>,
    /// Dynamically named counters recorded via [`TelemetrySink::add`].
    dynamic: Vec<(String, u64)>,
}

static REGISTRY: Mutex<RegistryInner> = Mutex::new(RegistryInner {
    counters: Vec::new(),
    histograms: Vec::new(),
    dynamic: Vec::new(),
});

fn lock_registry() -> std::sync::MutexGuard<'static, RegistryInner> {
    // Recording never panics while holding the lock, so poisoning can
    // only come from a panicking reader; the data is still sound.
    REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The process-global registry.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry(());
    &GLOBAL
}

impl TelemetrySink for Registry {
    fn add(&self, name: &str, n: u64) {
        if !counters_enabled() {
            return;
        }
        let mut inner = lock_registry();
        if let Some(c) = inner.counters.iter().find(|c| c.name == name) {
            c.value.fetch_add(n, Ordering::Relaxed);
            return;
        }
        match inner.dynamic.iter_mut().find(|(k, _)| k == name) {
            Some((_, v)) => *v += n,
            None => inner.dynamic.push((name.to_owned(), n)),
        }
    }

    fn observe(&self, name: &str, value: u64) {
        if !profile_enabled() {
            return;
        }
        let inner = lock_registry();
        if let Some(h) = inner.histograms.iter().find(|h| h.name == name) {
            h.buckets[Histogram::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(value, Ordering::Relaxed);
        }
        // Unknown histogram names are dropped: buckets cannot be
        // meaningfully accumulated into a flat dynamic slot.
    }
}

/// Zeroes every registered instrument, drops dynamic counters, and
/// clears per-scope attribution. Instruments stay registered; the
/// modes are untouched.
pub fn reset() {
    let mut inner = lock_registry();
    for c in &inner.counters {
        c.value.store(0, Ordering::Relaxed);
    }
    for h in &inner.histograms {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
    }
    inner.dynamic.clear();
    drop(inner);
    trace::reset_scoped();
}

/// One histogram's state inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Instrument name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Non-empty buckets as `(inclusive upper bound, sample count)`,
    /// ascending.
    pub buckets: Vec<(u64, u64)>,
    /// Median upper estimate (see [`Histogram::percentile`]).
    pub p50: u64,
    /// 90th-percentile upper estimate.
    pub p90: u64,
    /// 99th-percentile upper estimate.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Builds a snapshot (including the percentile fields) from a full
    /// dense bucket array in declaration order.
    pub(crate) fn from_buckets(
        name: String,
        count: u64,
        sum: u64,
        buckets: impl Iterator<Item = u64>,
    ) -> Self {
        let dense: Vec<u64> = buckets.collect();
        Self {
            name,
            count,
            sum,
            buckets: dense
                .iter()
                .enumerate()
                .filter_map(|(i, &n)| (n > 0).then_some((Histogram::bucket_le(i), n)))
                .collect(),
            p50: percentile_of_buckets(&dense, 50.0),
            p90: percentile_of_buckets(&dense, 90.0),
            p99: percentile_of_buckets(&dense, 99.0),
        }
    }

    /// The `p`-th percentile (`0 < p <= 100`) of the snapshotted
    /// samples (see [`Histogram::percentile`]).
    pub fn percentile(&self, p: f64) -> u64 {
        let total: u64 = self.buckets.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return 0;
        }
        let rank = percentile_rank(total, p);
        let mut seen = 0u64;
        for &(le, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return le;
            }
        }
        self.buckets.last().map_or(0, |&(le, _)| le)
    }
}

/// 1-based sample rank of the `p`-th percentile among `total` samples:
/// `⌈p/100 · total⌉`, clamped to `[1, total]`.
fn percentile_rank(total: u64, p: f64) -> u64 {
    let rank = (p / 100.0 * total as f64).ceil() as u64;
    rank.clamp(1, total)
}

/// Percentile over a dense bucket-count array in declaration order
/// (bucket `i` ↦ upper bound [`Histogram::bucket_le`]). Returns 0 when
/// no samples were recorded.
fn percentile_of_buckets(counts: &[u64], p: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = percentile_rank(total, p);
    let mut seen = 0u64;
    for (i, &n) in counts.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return Histogram::bucket_le(i);
        }
    }
    Histogram::bucket_le(counts.len().saturating_sub(1))
}

/// A point-in-time copy of every registered instrument, exportable as
/// JSON in the `safety-opt-bench-v1` report style (schema
/// `safety-opt-telemetry-v1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The telemetry mode at capture time.
    pub mode: TelemetryMode,
    /// `(name, value)` for every registered + dynamic counter, sorted
    /// by name.
    pub counters: Vec<(String, u64)>,
    /// Every registered histogram, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Per-[`TraceScope`] attribution (empty unless the mode reached
    /// [`TelemetryMode::Events`]),
    /// sorted by scope name.
    pub scopes: Vec<ScopeSnapshot>,
}

impl Snapshot {
    /// Value of the counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// The histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Serializes the snapshot as a stable, human-diffable JSON
    /// document (schema `safety-opt-telemetry-v1`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": \"safety-opt-telemetry-v1\",\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode.name()));
        out.push_str("  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {value}", json_escape(name)));
        }
        if self.counters.is_empty() {
            out.push_str("},\n");
        } else {
            out.push_str("\n  },\n");
        }
        out.push_str("  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&histogram_json(h, "    "));
        }
        if self.histograms.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        out.push_str("  \"scopes\": [");
        for (i, s) in self.scopes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"counters\": {{",
                json_escape(&s.name)
            ));
            for (j, (name, value)) in s.counters.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {value}", json_escape(name)));
            }
            out.push_str("}, \"histograms\": [");
            for (j, h) in s.histograms.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&histogram_json(h, "      "));
            }
            if s.histograms.is_empty() {
                out.push_str("]}");
            } else {
                out.push_str("\n    ]}");
            }
        }
        if self.scopes.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }
}

/// One histogram object of the JSON export (shared between the global
/// and the per-scope sections).
fn histogram_json(h: &HistogramSnapshot, indent: &str) -> String {
    let mut out = format!(
        "\n{indent}{{\"name\": \"{}\", \"count\": {}, \"sum\": {}, \
         \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
        json_escape(&h.name),
        h.count,
        h.sum,
        h.p50,
        h.p90,
        h.p99
    );
    for (j, (le, n)) in h.buckets.iter().enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{{\"le\": {le}, \"count\": {n}}}"));
    }
    out.push_str("]}");
    out
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Captures every registered instrument (readable in every mode — a
/// snapshot taken with telemetry off simply reports what earlier modes
/// recorded).
pub fn snapshot() -> Snapshot {
    let inner = lock_registry();
    let mut counters: Vec<(String, u64)> = inner
        .counters
        .iter()
        .map(|c| (c.name.to_owned(), c.get()))
        .chain(inner.dynamic.iter().cloned())
        .collect();
    counters.sort();
    let mut histograms: Vec<HistogramSnapshot> = inner
        .histograms
        .iter()
        .map(|h| {
            HistogramSnapshot::from_buckets(
                h.name.to_owned(),
                h.count(),
                h.sum(),
                h.buckets.iter().map(|b| b.load(Ordering::Relaxed)),
            )
        })
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    drop(inner);
    Snapshot {
        mode: mode(),
        counters,
        histograms,
        scopes: trace::scoped_snapshot(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serializes every unit test that sets the process-global mode or
    /// touches the event ring: the libtest harness runs tests on
    /// concurrent threads, and one test's mode switch would otherwise
    /// flip the instruments another test is asserting on.
    pub(crate) fn mode_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The whole suite shares one process-global mode + registry, so a
    /// single test exercises every stateful path sequentially.
    #[test]
    fn modes_gate_instruments_and_snapshots_export() {
        let _lock = mode_lock();
        static HITS: Counter = Counter::new("test.hits");
        static NANOS: Histogram = Histogram::new("test.nanos");

        // Off: everything is a no-op.
        set_mode(TelemetryMode::Off);
        assert!(!counters_enabled() && !events_enabled() && !profile_enabled());
        HITS.add(5);
        NANOS.observe(100);
        drop(span(&NANOS));
        assert_eq!(HITS.get(), 0);
        assert_eq!(NANOS.count(), 0);

        // Counters and events: counters record, histograms stay off.
        for mode in [TelemetryMode::Counters, TelemetryMode::Events] {
            set_mode(mode);
            HITS.add(2);
            NANOS.observe(100);
            drop(span(&NANOS));
            assert_eq!(NANOS.count(), 0, "{}", mode.name());
        }
        assert_eq!(HITS.get(), 4);
        assert!(events_enabled() && !profile_enabled());
        trace::clear_events();

        // Profile: everything records; spans land in their histogram.
        set_mode(TelemetryMode::Profile);
        HITS.add(1);
        NANOS.observe(0);
        NANOS.observe(7);
        drop(span(&NANOS));
        assert_eq!(HITS.get(), 5);
        assert_eq!(NANOS.count(), 3);
        assert!(NANOS.sum() >= 7);

        // The name-keyed sink routes to registered instruments and
        // collects unknown counters dynamically.
        global().add("test.hits", 10);
        assert_eq!(HITS.get(), 15);
        global().add("test.dynamic", 4);
        global().add("test.dynamic", 4);
        global().observe("test.nanos", 9);
        assert_eq!(NANOS.count(), 4);

        let snap = snapshot();
        assert_eq!(snap.mode, TelemetryMode::Profile);
        assert_eq!(snap.counter("test.hits"), Some(15));
        assert_eq!(snap.counter("test.dynamic"), Some(8));
        assert_eq!(snap.counter("test.unknown"), None);
        let h = snap.histogram("test.nanos").expect("registered");
        assert_eq!(h.count, 4);
        assert!(h.buckets.iter().map(|&(_, n)| n).sum::<u64>() == 4);
        // Counters are sorted by name.
        let names: Vec<_> = snap.counters.iter().map(|(k, _)| k.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);

        // JSON export: stable schema header, the ladder's level name,
        // and the instruments.
        let json = snap.to_json();
        assert!(json.contains("\"schema\": \"safety-opt-telemetry-v1\""));
        assert!(json.contains("\n  \"mode\": \"profile\",\n"));
        assert!(json.contains("\"test.hits\": 15"));
        assert!(json.contains("\"name\": \"test.nanos\""));

        // Reset zeroes values but keeps registration.
        reset();
        assert_eq!(HITS.get(), 0);
        assert_eq!(NANOS.count(), 0);
        let snap = snapshot();
        assert_eq!(snap.counter("test.hits"), Some(0));
        assert_eq!(snap.counter("test.dynamic"), None);

        set_mode(TelemetryMode::Off);
        trace::clear_events();
    }

    #[test]
    fn bucket_layout_is_power_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_le(0), 0);
        assert_eq!(Histogram::bucket_le(1), 1);
        assert_eq!(Histogram::bucket_le(2), 3);
        assert_eq!(Histogram::bucket_le(64), u64::MAX);
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            let i = Histogram::bucket_of(v);
            assert!(v <= Histogram::bucket_le(i));
            if i > 0 {
                assert!(v > Histogram::bucket_le(i - 1));
            }
        }
    }

    #[test]
    fn parse_override_accepts_known_modes() {
        // Blank means "not set": the caller applies the default.
        for raw in [None, Some(""), Some("  ")] {
            assert_eq!(parse_mode_override(raw), None);
        }
        // Names are trimmed and matched in any case.
        for (raw, m) in [
            (" OFF ", TelemetryMode::Off),
            ("Counters", TelemetryMode::Counters),
            (" events", TelemetryMode::Events),
            ("PROFILE ", TelemetryMode::Profile),
        ] {
            assert_eq!(parse_mode_override(Some(raw)), Some(m));
        }
    }

    /// Every level's name parses back to it, and the ladder is ordered
    /// lowest first.
    #[test]
    fn mode_names_round_trip() {
        let ladder = [
            TelemetryMode::Off,
            TelemetryMode::Counters,
            TelemetryMode::Events,
            TelemetryMode::Profile,
        ];
        for m in ladder {
            assert_eq!(parse_mode_override(Some(m.name())), Some(m));
        }
        assert!(ladder.windows(2).all(|w| w[0] < w[1]));
    }

    /// Anything but a level name (`full` is not one) panics with the
    /// uniform knob message.
    #[test]
    #[should_panic(expected = "SAFETY_OPT_TELEMETRY must be \"off\" or \"counters\" or \
                               \"events\" or \"profile\", got \"full\" \
                               (unset it to disable telemetry)")]
    fn parse_override_rejects_typos() {
        parse_mode_override(Some("full"));
    }

    #[test]
    fn percentiles_on_known_distributions() {
        let _lock = mode_lock();
        // Dense bucket math, independent of the global mode: 100
        // samples of the values 1..=100 land in buckets 1..=7
        // ([1], [2,3], [4,7], [8,15], [16,31], [32,63], [64,100]).
        let mut counts = vec![0u64; BUCKETS];
        for v in 1u64..=100 {
            counts[Histogram::bucket_of(v)] += 1;
        }
        // Rank 50 is the value 50 → bucket [32,63], upper bound 63.
        assert_eq!(percentile_of_buckets(&counts, 50.0), 63);
        // Rank 90 is the value 90 → bucket [64,127], upper bound 127.
        assert_eq!(percentile_of_buckets(&counts, 90.0), 127);
        assert_eq!(percentile_of_buckets(&counts, 99.0), 127);
        // Extremes: p→0 clamps to the first sample, p=100 to the last.
        assert_eq!(percentile_of_buckets(&counts, 0.001), 1);
        assert_eq!(percentile_of_buckets(&counts, 100.0), 127);
        // Empty histograms report 0 everywhere.
        assert_eq!(percentile_of_buckets(&vec![0u64; BUCKETS], 50.0), 0);

        // A point mass: every percentile is that bucket's bound.
        let mut point = vec![0u64; BUCKETS];
        point[Histogram::bucket_of(1000)] = 7;
        for p in [1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile_of_buckets(&point, p), 1023);
        }

        // A bimodal split: 90 fast samples (=4) and 10 slow (=4096):
        // p50/p90 sit in the fast mode, p99 in the slow tail.
        let mut bimodal = vec![0u64; BUCKETS];
        bimodal[Histogram::bucket_of(4)] = 90;
        bimodal[Histogram::bucket_of(4096)] = 10;
        assert_eq!(percentile_of_buckets(&bimodal, 50.0), 7);
        assert_eq!(percentile_of_buckets(&bimodal, 90.0), 7);
        assert_eq!(percentile_of_buckets(&bimodal, 99.0), 8191);

        // The snapshot carries the same numbers through from_buckets
        // and its own sparse-bucket percentile.
        let snap = HistogramSnapshot::from_buckets("t".into(), 100, 0, bimodal.iter().copied());
        assert_eq!((snap.p50, snap.p90, snap.p99), (7, 7, 8191));
        assert_eq!(snap.percentile(50.0), 7);
        assert_eq!(snap.percentile(99.0), 8191);

        // The live accessor agrees with the dense math.
        static PCT: Histogram = Histogram::new("test.pct");
        set_mode(TelemetryMode::Profile);
        for v in 1u64..=100 {
            PCT.observe(v);
        }
        assert_eq!(PCT.percentile(50.0), 63);
        assert_eq!(PCT.percentile(90.0), 127);
        set_mode(TelemetryMode::Off);
    }

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
