//! Structured tracing on top of the telemetry registry: scoped
//! contexts, a timestamped event ring buffer, and JSONL / Chrome
//! trace-event exporters — the `events` level of the
//! `SAFETY_OPT_TELEMETRY` ladder.
//!
//! # Modes
//!
//! Tracing follows the one telemetry mode ([`crate::mode`]):
//!
//! * below [`TelemetryMode::Events`] every trace site reduces to one
//!   relaxed atomic load and a branch, and scope guards are inert;
//! * at [`TelemetryMode::Events`] scope begin/end, span completions,
//!   failpoint firings, degradation fallbacks, deadline expiries, and
//!   cache evictions land in the event ring buffer, and counter /
//!   histogram recordings made under an active [`TraceScope`] are
//!   additionally attributed to that scope;
//! * at [`TelemetryMode::Profile`] the engine's per-op tape profiler
//!   arms itself as well (sweep loops time each op).
//!
//! # Scopes
//!
//! A [`TraceScope`] names a region of work — a request, a model index,
//! an optimizer restart — on the current thread. While a scope is
//! active, every [`Counter`](crate::Counter) add and profile-level span /
//! histogram recording is *additionally* accumulated under the scope
//! (the process-global aggregates are untouched, bit for bit). Worker
//! threads inherit the spawning thread's scope through a cloned
//! [`ScopeHandle`]:
//!
//! ```
//! use safety_opt_telemetry as telemetry;
//!
//! telemetry::set_mode(telemetry::TelemetryMode::Events);
//! let scope = telemetry::TraceScope::enter("request.42");
//! let handle = telemetry::ScopeHandle::current();
//! std::thread::scope(|s| {
//!     s.spawn(move || {
//!         let _g = handle.attach();
//!         // recordings here are attributed to "request.42"
//!     });
//! });
//! drop(scope);
//! telemetry::set_mode(telemetry::TelemetryMode::Off);
//! ```
//!
//! # Events
//!
//! The ring buffer is sharded-mutex, fixed-capacity, drop-oldest; a
//! dropped-events counter ([`dropped_events`]) records what fell off.
//! [`take_events`] drains everything in one globally ordered sequence;
//! [`export_jsonl`] and [`export_chrome_trace`] render it — the latter
//! loads directly into `chrome://tracing` / Perfetto.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[cfg(doc)]
use crate::TelemetryMode;
use crate::{events_enabled, json_escape, HistogramSnapshot, BUCKETS};

// ---------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------

/// Interned identity of a named scope (process-global, never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScopeId(u32);

/// Interned scope names, indexed by [`ScopeId`]. Linear-scan interning:
/// a process has few *distinct* scope names alive at once, and scope
/// entry is far off the per-point hot path.
static SCOPE_NAMES: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn lock_scope_names() -> std::sync::MutexGuard<'static, Vec<String>> {
    SCOPE_NAMES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn intern_scope(name: &str) -> ScopeId {
    let mut names = lock_scope_names();
    if let Some(i) = names.iter().position(|n| n == name) {
        return ScopeId(i as u32);
    }
    names.push(name.to_owned());
    ScopeId((names.len() - 1) as u32)
}

/// The interned name of `id` (scopes are never un-interned).
pub fn scope_name(id: ScopeId) -> String {
    lock_scope_names()
        .get(id.0 as usize)
        .cloned()
        .unwrap_or_default()
}

/// One entry of a thread's scope stack: the scope's identity plus the
/// attribution buffered under it while it is the innermost scope.
///
/// Counter adds and histogram samples land here — a thread-local linear
/// scan over the handful of instruments a scope touches — and merge
/// into the process-global store only when the frame pops. This keeps
/// the per-record cost off every global lock; the trade is that
/// [`scoped_snapshot`] sees a scope's attribution once the scope (or a
/// worker's [`ScopeAttachGuard`]) has ended.
#[derive(Debug)]
struct ScopeFrame {
    id: ScopeId,
    counters: Vec<(&'static str, u64)>,
    hists: Vec<(&'static str, ScopedHist)>,
}

impl ScopeFrame {
    fn new(id: ScopeId) -> Self {
        Self {
            id,
            counters: Vec::new(),
            hists: Vec::new(),
        }
    }
}

thread_local! {
    /// The current thread's scope stack (innermost last).
    static SCOPE_STACK: RefCell<Vec<ScopeFrame>> = const { RefCell::new(Vec::new()) };
}

/// The innermost active scope on the current thread, or `None` when no
/// scope is active or the mode is below [`TelemetryMode::Events`].
#[inline]
pub fn current_scope() -> Option<ScopeId> {
    if !events_enabled() {
        return None;
    }
    SCOPE_STACK.with(|s| s.borrow().last().map(|f| f.id))
}

/// Pushes a frame for `id` onto this thread's scope stack.
fn push_scope_frame(id: ScopeId) {
    SCOPE_STACK.with(|s| s.borrow_mut().push(ScopeFrame::new(id)));
}

/// Pops the frame for `id` (innermost match, tolerating out-of-order
/// guard drops) and merges its buffered attribution into the global
/// store.
fn pop_scope_frame(id: ScopeId) {
    let frame = SCOPE_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if stack.last().map(|f| f.id) == Some(id) {
            stack.pop()
        } else {
            stack
                .iter()
                .rposition(|f| f.id == id)
                .map(|pos| stack.remove(pos))
        }
    });
    if let Some(frame) = frame {
        flush_scope_frame(frame);
    }
}

/// Merges a popped frame's buffered attribution into [`SCOPED`]. One
/// global lock per scope end, not per recording.
fn flush_scope_frame(frame: ScopeFrame) {
    if frame.counters.is_empty() && frame.hists.is_empty() {
        return;
    }
    let ScopeFrame {
        id,
        counters,
        hists,
    } = frame;
    let mut stats = lock_scoped();
    for (name, v) in counters {
        *stats.counters.entry((id, name)).or_insert(0) += v;
    }
    for (name, h) in hists {
        match stats.hists.entry((id, name)) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let dst = e.get_mut();
                for (d, s) in dst.buckets.iter_mut().zip(h.buckets.iter()) {
                    *d += s;
                }
                dst.count += h.count;
                dst.sum = dst.sum.wrapping_add(h.sum);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(h);
            }
        }
    }
}

/// RAII guard for a named scope on the current thread. Entering pushes
/// the scope onto the thread-local stack and records a
/// [`EventKind::ScopeBegin`] event; dropping pops it and records
/// [`EventKind::ScopeEnd`]. Inert (no interning, no events) below
/// [`TelemetryMode::Events`].
#[derive(Debug)]
#[must_use = "a scope ends on drop; binding it to _ drops it immediately"]
pub struct TraceScope {
    id: Option<ScopeId>,
}

impl TraceScope {
    /// Enters the scope named `name` on the current thread.
    pub fn enter(name: &str) -> Self {
        if !events_enabled() {
            return Self { id: None };
        }
        let id = intern_scope(name);
        push_scope_frame(id);
        record_event(RingEvent {
            seq: 0,
            ts_nanos: now_nanos(),
            dur_nanos: 0,
            kind: EventKind::ScopeBegin,
            name: Cow::Owned(name.to_owned()),
            scope: Some(id),
            tid: thread_tag(),
            value: 0,
        });
        Self { id: Some(id) }
    }

    /// The scope's interned id (`None` when the mode was below `events`
    /// at entry).
    pub fn id(&self) -> Option<ScopeId> {
        self.id
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            // Pops *this* scope even if an inner guard leaked out of
            // order, and flushes its buffered attribution.
            pop_scope_frame(id);
            record_event(RingEvent {
                seq: 0,
                ts_nanos: now_nanos(),
                dur_nanos: 0,
                kind: EventKind::ScopeEnd,
                name: Cow::Owned(scope_name(id)),
                scope: Some(id),
                tid: thread_tag(),
                value: 0,
            });
        }
    }
}

/// A cloneable, `Send` handle to the current thread's innermost scope,
/// for carrying scope attribution into worker threads: capture with
/// [`ScopeHandle::current`] before spawning, [`attach`](Self::attach)
/// inside the worker. A handle captured with no active scope (or below
/// [`TelemetryMode::Events`]) attaches as a no-op.
#[derive(Debug, Clone, Copy)]
pub struct ScopeHandle(Option<ScopeId>);

impl ScopeHandle {
    /// Captures the current thread's innermost scope.
    pub fn current() -> Self {
        Self(current_scope())
    }

    /// An empty handle (attaches as a no-op).
    pub fn none() -> Self {
        Self(None)
    }

    /// Pushes the captured scope onto this thread's scope stack until
    /// the returned guard drops. Emits no events — the scope was begun
    /// by its owning [`TraceScope`]; workers only borrow attribution.
    pub fn attach(&self) -> ScopeAttachGuard {
        match self.0 {
            Some(id) if events_enabled() => {
                push_scope_frame(id);
                ScopeAttachGuard { id: Some(id) }
            }
            _ => ScopeAttachGuard { id: None },
        }
    }
}

/// Guard returned by [`ScopeHandle::attach`]; pops the borrowed scope
/// on drop.
#[derive(Debug)]
#[must_use = "the attachment ends on drop; binding it to _ drops it immediately"]
pub struct ScopeAttachGuard {
    id: Option<ScopeId>,
}

impl Drop for ScopeAttachGuard {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            pop_scope_frame(id);
        }
    }
}

// ---------------------------------------------------------------------
// Scoped attribution store
// ---------------------------------------------------------------------

/// Per-scope histogram accumulation (plain integers under the mutex).
#[derive(Debug)]
struct ScopedHist {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
}

/// Per-scope accumulation of counter adds and histogram samples.
#[derive(Debug, Default)]
struct ScopedStats {
    counters: HashMap<(ScopeId, &'static str), u64>,
    hists: HashMap<(ScopeId, &'static str), ScopedHist>,
}

static SCOPED: OnceLock<Mutex<ScopedStats>> = OnceLock::new();

fn lock_scoped() -> std::sync::MutexGuard<'static, ScopedStats> {
    SCOPED
        .get_or_init(|| Mutex::new(ScopedStats::default()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Attributes a counter add to the current scope's thread-local frame,
/// if any. Called from [`Counter::add`](crate::Counter::add) at
/// [`TelemetryMode::Events`] and above, *after* the global add — the
/// process-global aggregate is never touched by this path. A frame
/// touches few distinct instruments, so a linear scan beats hashing
/// under a global lock.
#[inline]
pub(crate) fn scoped_counter_add(name: &'static str, n: u64) {
    SCOPE_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let Some(frame) = stack.last_mut() else {
            return;
        };
        match frame.counters.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v += n,
            None => frame.counters.push((name, n)),
        }
    });
}

/// Attributes a histogram sample to the current scope's thread-local
/// frame, exactly like [`scoped_counter_add`] (histograms record only
/// at [`TelemetryMode::Profile`], which includes `events`).
#[inline]
pub(crate) fn scoped_hist_record(name: &'static str, value: u64) {
    SCOPE_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let Some(frame) = stack.last_mut() else {
            return;
        };
        let idx = match frame.hists.iter().position(|(k, _)| *k == name) {
            Some(i) => i,
            None => {
                frame.hists.push((
                    name,
                    ScopedHist {
                        buckets: Box::new([0; BUCKETS]),
                        count: 0,
                        sum: 0,
                    },
                ));
                frame.hists.len() - 1
            }
        };
        let h = &mut frame.hists[idx].1;
        h.buckets[crate::Histogram::bucket_of(value)] += 1;
        h.count += 1;
        h.sum = h.sum.wrapping_add(value);
    });
}

/// One scope's accumulated instruments inside a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeSnapshot {
    /// The scope's name.
    pub name: String,
    /// `(instrument name, value)` of counter adds made under the scope,
    /// sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram samples recorded under the scope, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Captures every scope's accumulated attribution, sorted by scope
/// name (readable in every mode). Attribution buffers thread-locally
/// while a scope is active and merges here when the scope (or an
/// attach guard) ends — the snapshot reflects completed scope
/// sessions.
pub fn scoped_snapshot() -> Vec<ScopeSnapshot> {
    let stats = lock_scoped();
    let mut by_scope: HashMap<ScopeId, ScopeSnapshot> = HashMap::new();
    for (&(scope, name), &v) in &stats.counters {
        by_scope
            .entry(scope)
            .or_insert_with(|| empty_scope_snapshot(scope))
            .counters
            .push((name.to_owned(), v));
    }
    for (&(scope, name), h) in &stats.hists {
        by_scope
            .entry(scope)
            .or_insert_with(|| empty_scope_snapshot(scope))
            .histograms
            .push(HistogramSnapshot::from_buckets(
                name.to_owned(),
                h.count,
                h.sum,
                h.buckets.iter().copied(),
            ));
    }
    let mut scopes: Vec<ScopeSnapshot> = by_scope.into_values().collect();
    for s in &mut scopes {
        s.counters.sort();
        s.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }
    scopes.sort_by(|a, b| a.name.cmp(&b.name));
    scopes
}

fn empty_scope_snapshot(scope: ScopeId) -> ScopeSnapshot {
    ScopeSnapshot {
        name: scope_name(scope),
        counters: Vec::new(),
        histograms: Vec::new(),
    }
}

/// Clears every scope's accumulated attribution (interned names stay).
pub(crate) fn reset_scoped() {
    let mut stats = lock_scoped();
    stats.counters.clear();
    stats.hists.clear();
}

// ---------------------------------------------------------------------
// Event ring buffer
// ---------------------------------------------------------------------

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A [`TraceScope`] was entered.
    ScopeBegin,
    /// A [`TraceScope`] ended.
    ScopeEnd,
    /// A [`crate::span`] completed; `dur_nanos` holds its duration and
    /// `ts_nanos` its start.
    Span,
    /// An armed fault-injection site fired.
    FailpointFired,
    /// A blown BDD node budget degraded a hazard to rare-event
    /// lowering.
    DegradeFallback,
    /// A cooperative evaluation deadline expired; `value` holds the
    /// chunk index.
    DeadlineExpired,
    /// The quantized memo cache flushed at capacity; `value` holds the
    /// number of dropped entries.
    CacheEviction,
    /// A one-time stderr diagnostic, made machine-visible.
    Warning,
}

impl EventKind {
    /// The kind's stable snake_case name (the `kind` field of the JSONL
    /// export).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::ScopeBegin => "scope_begin",
            EventKind::ScopeEnd => "scope_end",
            EventKind::Span => "span",
            EventKind::FailpointFired => "failpoint_fired",
            EventKind::DegradeFallback => "degrade_fallback",
            EventKind::DeadlineExpired => "deadline_expired",
            EventKind::CacheEviction => "cache_eviction",
            EventKind::Warning => "warning",
        }
    }
}

/// One timestamped entry of the event ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number — the total order across all shards.
    pub seq: u64,
    /// Nanoseconds since the process trace epoch (first trace clock
    /// read); for [`EventKind::Span`] this is the span's *start*.
    pub ts_nanos: u64,
    /// Duration in nanoseconds (0 for instant events).
    pub dur_nanos: u64,
    /// What happened.
    pub kind: EventKind,
    /// Event name (span histogram name, scope name, failpoint site, …).
    pub name: String,
    /// Innermost active scope on the recording thread, if any.
    pub scope: Option<String>,
    /// Stable per-thread tag (small dense integers, not OS ids).
    pub tid: u64,
    /// Kind-specific payload (dropped entries, chunk index, …).
    pub value: u64,
}

/// What the ring actually stores: like [`Event`], but the name borrows
/// `'static` instrument names where it can (span completions — the hot
/// emitters — allocate nothing) and the scope is the interned
/// [`ScopeId`]; both materialize into the public [`Event`] strings only
/// on drain.
#[derive(Debug, Clone)]
struct RingEvent {
    seq: u64,
    ts_nanos: u64,
    dur_nanos: u64,
    kind: EventKind,
    name: Cow<'static, str>,
    scope: Option<ScopeId>,
    tid: u64,
    value: u64,
}

/// Ring shards (thread-tag-picked) and per-shard capacity. 8 × 8192 =
/// 65536 events total before drop-oldest kicks in.
const SHARDS: usize = 8;
const SHARD_CAP: usize = 8192;

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SHARD: Mutex<VecDeque<RingEvent>> = Mutex::new(VecDeque::new());
static RING: [Mutex<VecDeque<RingEvent>>; SHARDS] = [EMPTY_SHARD; SHARDS];

/// Global event sequence — the total order reconstructed on drain.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Events dropped (oldest-first) because a shard hit capacity.
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// The process trace epoch: the instant of the first trace clock read.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic per-thread tags, dense from 0 in first-use order.
static NEXT_THREAD_TAG: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_TAG: u64 = NEXT_THREAD_TAG.fetch_add(1, Ordering::Relaxed);
}

/// This thread's stable trace tag.
pub fn thread_tag() -> u64 {
    THREAD_TAG.with(|t| *t)
}

/// Nanoseconds between the process trace epoch and `now` (initializing
/// the epoch on first call).
#[inline]
pub(crate) fn nanos_since_epoch(now: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(|| now);
    // `duration_since` saturates to zero for the initializing racer.
    u64::try_from(now.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds since the process trace epoch (initializing the epoch on
/// first call).
pub fn now_nanos() -> u64 {
    nanos_since_epoch(Instant::now())
}

fn lock_shard(i: usize) -> std::sync::MutexGuard<'static, VecDeque<RingEvent>> {
    RING[i]
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Stamps `event` with the next global sequence number and pushes it
/// onto this thread's shard, dropping the shard's oldest entry at
/// capacity.
fn record_event(mut event: RingEvent) {
    event.seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut shard = lock_shard((thread_tag() % SHARDS as u64) as usize);
    if shard.len() >= SHARD_CAP {
        shard.pop_front();
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    shard.push_back(event);
}

/// Records an instant event (no duration) at [`TelemetryMode::Events`]
/// and above; a no-op (one load + branch) otherwise.
#[inline]
pub fn trace_instant(kind: EventKind, name: &str, value: u64) {
    if !events_enabled() {
        return;
    }
    record_event(RingEvent {
        seq: 0,
        ts_nanos: now_nanos(),
        dur_nanos: 0,
        kind,
        name: Cow::Owned(name.to_owned()),
        scope: current_scope(),
        tid: thread_tag(),
        value,
    });
}

/// Records a completed span (`start_ts` from [`now_nanos`] at start).
/// Mode already checked by the caller ([`crate::Span`]'s drop). The
/// span-per-chunk hot path: no allocation, no name lookup — the
/// `'static` name is borrowed and the scope stays interned until drain.
pub(crate) fn record_span_event(name: &'static str, start_ts: u64, dur_nanos: u64) {
    record_event(RingEvent {
        seq: 0,
        ts_nanos: start_ts,
        dur_nanos,
        kind: EventKind::Span,
        name: Cow::Borrowed(name),
        scope: current_scope(),
        tid: thread_tag(),
        value: 0,
    });
}

/// Number of events dropped so far because a ring shard was full.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Drains every ring shard into one sequence ordered by the global
/// sequence number, materializing borrowed names and interned scope
/// ids into owned strings. The ring is empty afterwards; the
/// dropped-events counter is untouched.
pub fn take_events() -> Vec<Event> {
    let mut all = Vec::new();
    for i in 0..SHARDS {
        all.extend(lock_shard(i).drain(..));
    }
    all.sort_by_key(|e| e.seq);
    // One snapshot of the interned names resolves every scope id.
    let names = lock_scope_names().clone();
    all.into_iter()
        .map(|e| Event {
            seq: e.seq,
            ts_nanos: e.ts_nanos,
            dur_nanos: e.dur_nanos,
            kind: e.kind,
            name: e.name.into_owned(),
            scope: e.scope.and_then(|id| names.get(id.0 as usize).cloned()),
            tid: e.tid,
            value: e.value,
        })
        .collect()
}

/// Clears the ring and zeroes the dropped-events counter (for tests and
/// bench rounds; interned scope names stay).
pub fn clear_events() {
    for i in 0..SHARDS {
        lock_shard(i).clear();
    }
    DROPPED.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

/// Renders `events` as JSONL: one self-contained JSON object per line,
/// in the given order.
pub fn export_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        out.push_str(&format!(
            "{{\"seq\": {}, \"ts_nanos\": {}, \"dur_nanos\": {}, \"kind\": \"{}\", \
             \"name\": \"{}\", \"scope\": {}, \"tid\": {}, \"value\": {}}}\n",
            e.seq,
            e.ts_nanos,
            e.dur_nanos,
            e.kind.name(),
            json_escape(&e.name),
            match &e.scope {
                Some(s) => format!("\"{}\"", json_escape(s)),
                None => "null".to_owned(),
            },
            e.tid,
            e.value,
        ));
    }
    out
}

/// Renders `events` in the Chrome trace-event format (the JSON object
/// form), loadable in `chrome://tracing` and Perfetto. Scope begin/end
/// map to `B`/`E` duration events, spans to `X` complete events, and
/// everything else to `i` instant events; timestamps are microseconds
/// since the trace epoch.
pub fn export_chrome_trace(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 64);
    out.push_str("{\"traceEvents\": [");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = e.ts_nanos as f64 / 1000.0;
        let common = format!(
            "\"name\": \"{}\", \"pid\": 1, \"tid\": {}, \"ts\": {ts:.3}",
            json_escape(&e.name),
            e.tid
        );
        let args = format!(
            "\"args\": {{\"seq\": {}, \"scope\": {}, \"value\": {}}}",
            e.seq,
            match &e.scope {
                Some(s) => format!("\"{}\"", json_escape(s)),
                None => "null".to_owned(),
            },
            e.value,
        );
        match e.kind {
            EventKind::ScopeBegin => {
                out.push_str(&format!(
                    "\n  {{{common}, \"cat\": \"scope\", \"ph\": \"B\", {args}}}"
                ));
            }
            EventKind::ScopeEnd => {
                out.push_str(&format!(
                    "\n  {{{common}, \"cat\": \"scope\", \"ph\": \"E\", {args}}}"
                ));
            }
            EventKind::Span => {
                let dur = e.dur_nanos as f64 / 1000.0;
                out.push_str(&format!(
                    "\n  {{{common}, \"cat\": \"span\", \"ph\": \"X\", \"dur\": {dur:.3}, {args}}}"
                ));
            }
            kind => {
                out.push_str(&format!(
                    "\n  {{{common}, \"cat\": \"{}\", \"ph\": \"i\", \"s\": \"t\", {args}}}",
                    kind.name()
                ));
            }
        }
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::mode_lock;
    use crate::{set_mode, TelemetryMode};

    /// The whole module shares process-global mode + ring + scope
    /// state, so one test exercises the stateful paths sequentially
    /// (mirroring the lib-level mode test).
    #[test]
    fn scopes_events_and_exports_work_end_to_end() {
        let _lock = mode_lock();
        clear_events();

        // Below `events`: scope guards are inert, events vanish.
        for mode in [TelemetryMode::Off, TelemetryMode::Counters] {
            set_mode(mode);
            {
                let s = TraceScope::enter("off.scope");
                assert!(s.id().is_none());
                trace_instant(EventKind::CacheEviction, "x", 1);
            }
            assert!(take_events().is_empty(), "{}", mode.name());
            assert!(current_scope().is_none());
        }

        // Events: scopes nest, events land in order, handles attach.
        set_mode(TelemetryMode::Events);
        {
            let outer = TraceScope::enter("outer");
            assert!(outer.id().is_some());
            {
                let _inner = TraceScope::enter("inner");
                assert_eq!(current_scope(), _inner.id());
                trace_instant(EventKind::FailpointFired, "site.a", 0);
            }
            assert_eq!(current_scope(), outer.id());
            let handle = ScopeHandle::current();
            std::thread::scope(|s| {
                s.spawn(move || {
                    assert!(current_scope().is_none());
                    let _g = handle.attach();
                    assert!(current_scope().is_some());
                    trace_instant(EventKind::DeadlineExpired, "pool.chunk", 3);
                });
            });
        }
        let events = take_events();
        let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::ScopeBegin, // outer
                EventKind::ScopeBegin, // inner
                EventKind::FailpointFired,
                EventKind::ScopeEnd, // inner
                EventKind::DeadlineExpired,
                EventKind::ScopeEnd, // outer
            ]
        );
        assert_eq!(events[2].scope.as_deref(), Some("inner"));
        assert_eq!(events[4].scope.as_deref(), Some("outer"));
        // seqs are the total order.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));

        // Exports: one JSONL line per event; Chrome doc mentions each.
        let jsonl = export_jsonl(&events);
        assert_eq!(jsonl.lines().count(), events.len());
        assert!(jsonl.contains("\"kind\": \"failpoint_fired\""));
        let chrome = export_chrome_trace(&events);
        assert!(chrome.starts_with("{\"traceEvents\": ["));
        assert!(chrome.contains("\"ph\": \"B\""));
        assert!(chrome.contains("\"ph\": \"E\""));
        assert!(chrome.contains("\"ph\": \"i\""));

        set_mode(TelemetryMode::Off);
        clear_events();
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let _lock = mode_lock();
        // Private-API test: fill one shard directly past capacity.
        let before = dropped_events();
        for i in 0..(SHARD_CAP + 10) {
            let mut shard = lock_shard(SHARDS - 1);
            if shard.len() >= SHARD_CAP {
                shard.pop_front();
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
            shard.push_back(RingEvent {
                seq: i as u64,
                ts_nanos: 0,
                dur_nanos: 0,
                kind: EventKind::CacheEviction,
                name: Cow::Borrowed("fill"),
                scope: None,
                tid: 0,
                value: 0,
            });
        }
        assert_eq!(lock_shard(SHARDS - 1).len(), SHARD_CAP);
        assert_eq!(dropped_events() - before, 10);
        lock_shard(SHARDS - 1).clear();
        DROPPED.store(before, Ordering::Relaxed);
    }
}
