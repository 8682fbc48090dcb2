//! Per-op tape profiler: attributes sweep time to op kind and
//! lane-vs-scalar path.
//!
//! Every [`Tape`](crate::Tape) carries a shared [`TapeProfiler`]
//! (`Arc`-cloned with the tape, so a `CompiledModel`, its evaluators,
//! and every worker thread accumulate into one set of cells). The
//! profiler is **inert unless `SAFETY_OPT_TELEMETRY=profile`**
//! ([`telemetry::profile_enabled`]): the sweep loops carry an
//! `OpTimer` whose per-op cost in every other mode is a single
//! `Option` branch — no clock reads, no atomics — so the 0-ULP
//! observation-only contract and the overhead gates are untouched.
//!
//! Cells are keyed by `(op kind, path, sweep)`:
//!
//! * **op kind** — the eight [`Op`](crate::Op) variants (`chain` for
//!   fused Shannon chains);
//! * **path** — `scalar` (point-at-a-time) vs `soa` (lane-blocked);
//! * **sweep** — `forward` (value) vs `adjoint` (backward VJP).
//!
//! Each cell accumulates wall nanoseconds, timed op executions
//! (`calls`), and point-lanes processed (`units`: 1 per scalar op, `L`
//! per lane-blocked op, times the chain's length for a `chain` op, so
//! op shares stay comparable with a per-node tape), all with relaxed
//! atomics — the profile is a
//! diagnostic aggregate, not a synchronization point. Timing uses a
//! lap-style clock (the previous op's end is the next op's start), so
//! a profiled sweep pays one `Instant::now` per op, not two.
//!
//! [`TapeProfiler::report`] renders the cells as a [`ProfileReport`]
//! whose rows sort hottest-first; [`ProfileReport::render_table`] is
//! the human-readable hot-op table the `telemetry_report` bin and the
//! case study's `--trace` flag print.

use safety_opt_telemetry as telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Path index: scalar point-at-a-time sweep.
pub(crate) const PATH_SCALAR: usize = 0;
/// Path index: lane-blocked SoA sweep.
pub(crate) const PATH_SOA: usize = 1;
/// Sweep index: forward (value) sweep.
pub(crate) const SWEEP_FORWARD: usize = 0;
/// Sweep index: backward (adjoint VJP) sweep.
pub(crate) const SWEEP_ADJOINT: usize = 1;

const N_KINDS: usize = crate::tape::Op::N_KINDS;
const N_CELLS: usize = N_KINDS * 2 * 2;

const PATH_NAMES: [&str; 2] = ["scalar", "soa"];
const SWEEP_NAMES: [&str; 2] = ["forward", "adjoint"];

#[inline]
fn cell_index(kind: usize, path: usize, sweep: usize) -> usize {
    (kind * 2 + path) * 2 + sweep
}

/// One profile cell: accumulated nanoseconds, timed executions, and
/// point-lanes for a `(kind, path, sweep)` combination.
#[derive(Debug, Default)]
struct Cell {
    nanos: AtomicU64,
    calls: AtomicU64,
    units: AtomicU64,
}

/// Accumulated per-op sweep timings for one tape (shared across clones
/// via `Arc`; see the module docs for the cell layout and cost model).
#[derive(Debug)]
pub struct TapeProfiler {
    cells: [Cell; N_CELLS],
}

impl TapeProfiler {
    /// A profiler with every cell zeroed.
    pub(crate) fn new() -> Self {
        Self {
            cells: std::array::from_fn(|_| Cell::default()),
        }
    }

    #[inline]
    pub(crate) fn record(&self, kind: usize, path: usize, sweep: usize, nanos: u64, units: u64) {
        let cell = &self.cells[cell_index(kind, path, sweep)];
        cell.nanos.fetch_add(nanos, Ordering::Relaxed);
        cell.calls.fetch_add(1, Ordering::Relaxed);
        cell.units.fetch_add(units, Ordering::Relaxed);
    }

    /// Zeroes every cell (e.g. between profiled phases).
    pub fn reset(&self) {
        for cell in &self.cells {
            cell.nanos.store(0, Ordering::Relaxed);
            cell.calls.store(0, Ordering::Relaxed);
            cell.units.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshot of the non-empty cells, hottest (most nanoseconds)
    /// first.
    pub fn report(&self) -> ProfileReport {
        let mut rows = Vec::new();
        for kind in 0..N_KINDS {
            for (path, path_name) in PATH_NAMES.iter().enumerate() {
                for (sweep, sweep_name) in SWEEP_NAMES.iter().enumerate() {
                    let cell = &self.cells[cell_index(kind, path, sweep)];
                    let calls = cell.calls.load(Ordering::Relaxed);
                    if calls == 0 {
                        continue;
                    }
                    rows.push(ProfileRow {
                        op: crate::tape::Op::KIND_NAMES[kind],
                        path: path_name,
                        sweep: sweep_name,
                        nanos: cell.nanos.load(Ordering::Relaxed),
                        calls,
                        units: cell.units.load(Ordering::Relaxed),
                    });
                }
            }
        }
        rows.sort_by(|a, b| b.nanos.cmp(&a.nanos).then(a.op.cmp(b.op)));
        ProfileReport { rows }
    }
}

/// One non-empty profile cell in a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// Op kind name (`exposure`, `chain`, …).
    pub op: &'static str,
    /// Execution path: `"scalar"` or `"soa"`.
    pub path: &'static str,
    /// Sweep direction: `"forward"` or `"adjoint"`.
    pub sweep: &'static str,
    /// Accumulated wall nanoseconds.
    pub nanos: u64,
    /// Timed op executions (one lane-blocked op counts once).
    pub calls: u64,
    /// Point-lanes processed (1 per scalar call, `L` per SoA call;
    /// times the steps of a `chain` op).
    pub units: u64,
}

/// Per-op sweep-time attribution for one tape, hottest row first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Non-empty cells, sorted by descending `nanos`.
    pub rows: Vec<ProfileRow>,
}

impl ProfileReport {
    /// Total profiled nanoseconds across all rows.
    pub fn total_nanos(&self) -> u64 {
        self.rows.iter().map(|r| r.nanos).sum()
    }

    /// Renders the hot-op table (one aligned text row per cell, hottest
    /// first, with each row's share of the profiled total). Empty
    /// reports render a one-line explanation instead of an empty table.
    pub fn render_table(&self) -> String {
        if self.rows.is_empty() {
            return "  (no profiled ops — run with SAFETY_OPT_TELEMETRY=profile)\n".to_string();
        }
        let total = self.total_nanos().max(1);
        let mut out = String::new();
        out.push_str(&format!(
            "  {:<12} {:<7} {:<8} {:>12} {:>10} {:>12} {:>7}\n",
            "op", "path", "sweep", "nanos", "calls", "units", "share"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<12} {:<7} {:<8} {:>12} {:>10} {:>12} {:>6.1}%\n",
                r.op,
                r.path,
                r.sweep,
                r.nanos,
                r.calls,
                r.units,
                100.0 * r.nanos as f64 / total as f64,
            ));
        }
        out
    }
}

/// Lap-style sweep clock: `None` (one branch per op) unless profiling
/// is active at construction. Each [`lap`](Self::lap) records the time
/// since the previous lap (or construction) into one profiler cell and
/// restarts the clock, so a profiled sweep reads the clock once per op.
#[derive(Debug)]
pub(crate) struct OpTimer {
    last: Option<Instant>,
}

impl OpTimer {
    /// Starts the clock iff the telemetry mode is `profile`.
    #[inline]
    pub(crate) fn new() -> Self {
        Self {
            last: telemetry::profile_enabled().then(Instant::now),
        }
    }

    /// Records the lap since the previous [`lap`](Self::lap)/
    /// [`new`](Self::new) into `op`'s `(kind, path, sweep)` cell, with
    /// `lanes` points per Shannon node it ran; a no-op when the clock
    /// never started.
    #[inline]
    pub(crate) fn lap(
        &mut self,
        prof: &TapeProfiler,
        op: &crate::tape::Op,
        path: usize,
        sweep: usize,
        lanes: u64,
    ) {
        if let Some(start) = self.last {
            let now = Instant::now();
            let nanos = u64::try_from(now.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
            prof.record(op.kind_index(), path, sweep, nanos, op.units() * lanes);
            self.last = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_sorts_hottest_first_and_sums_totals() {
        let prof = TapeProfiler::new();
        prof.record(0, PATH_SCALAR, SWEEP_FORWARD, 100, 1);
        prof.record(5, PATH_SOA, SWEEP_FORWARD, 900, 8);
        prof.record(5, PATH_SOA, SWEEP_ADJOINT, 300, 8);
        let report = prof.report();
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.rows[0].op, "product");
        assert_eq!(report.rows[0].sweep, "forward");
        assert_eq!(report.rows[0].nanos, 900);
        assert_eq!(report.total_nanos(), 1300);
        let table = report.render_table();
        assert!(table.contains("product"));
        assert!(table.contains("soa"));
        assert!(table.contains("exposure"));
        prof.reset();
        assert!(prof.report().rows.is_empty());
        assert!(prof.report().render_table().contains("no profiled ops"));
    }

    #[test]
    fn timer_is_inert_when_profiling_is_off() {
        // The suite runs with telemetry off unless a leg forces it; in
        // either case the timer's laps must agree with the mode.
        let prof = TapeProfiler::new();
        let mut b = crate::tape::TapeBuilder::new(1);
        b.exposure(0.5, b.input(0));
        let mut timer = OpTimer::new();
        timer.lap(&prof, &b.ops()[0], PATH_SCALAR, SWEEP_FORWARD, 1);
        let rows = prof.report().rows.len();
        if safety_opt_telemetry::profile_enabled() {
            assert_eq!(rows, 1);
        } else {
            assert_eq!(rows, 0);
        }
    }
}
