//! Parallel batch evaluation of a compiled [`Tape`], and the one sweep
//! runner behind every batch entry point.
//!
//! Shards a slice of parameter points across a `std::thread` scoped
//! worker pool. Points are cut into fixed-length chunks and assigned to
//! workers round-robin — a deterministic function of the batch size and
//! chunk length only, never of timing — and every point's result is
//! written to its own output index, so batch results are **bit-identical
//! for every thread count** (asserted by the equivalence property tests).
//! One crate-private driver, `run_pool`, owns that contract.
//!
//! Every entry point is fallible: each chunk runs under
//! [`std::panic::catch_unwind`], so a worker panic comes back as
//! [`EngineError::WorkerPanicked`], and an optional cooperative
//! [`EvalDeadline`] (set with [`BatchEvaluator::deadline`]) is checked
//! before each chunk starts.
//!
//! [`BatchEvaluator`] and [`crate::fleet::FleetEvaluator`] do the same
//! work: sweep a set of op slots of one tape — every op, or one fleet
//! model's reachability mask — and reduce one or more output ranges
//! into weighted costs. A crate-private `Sweep` names that work, and
//! one runner sweeps each chunk of points through it: lane blocks
//! narrowing 16 → 8 → 4 → 2 through the op-at-a-time SoA forward (and,
//! for gradients, adjoint) loops of [`crate::exec`] and [`crate::grad`],
//! then the one point a chunk may leave over through the scalar loops
//! behind [`Tape::eval_into`] / [`Tape::eval_grad_into`] — bit-identical
//! by construction. Every chunk, of either evaluator, checks its
//! failpoint and counts `engine.batch.chunks` and the
//! `engine.batch.chunk_nanos` span.
//!
//! Workers own their scratch buffers; steady-state evaluation performs no
//! allocation beyond the output vectors.

use crate::error::{EngineError, EvalDeadline};
use crate::exec::{dispatch_lanes, supported_lanes, LaneFile, DEFAULT_LANES};
use crate::faultinject;
use crate::grad::{AdjointFile, GradWorkspace};
use crate::tape::{Slots, Tape};

use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, PoisonError};

use safety_opt_telemetry as telemetry;

/// Points swept by SoA lane blocks, of any width.
static SOA_POINTS: telemetry::Counter = telemetry::Counter::new("engine.batch.soa_points");
/// Points run point-at-a-time: the single point a chunk's narrowing
/// lane blocks leave over, at most one per chunk.
static TAIL_POINTS: telemetry::Counter = telemetry::Counter::new("engine.batch.tail_points");
/// Work chunks swept by the runner, for both evaluators (sequential or
/// pooled).
static CHUNKS: telemetry::Counter = telemetry::Counter::new("engine.batch.chunks");
/// Wall-clock nanoseconds per evaluated chunk (`profile` mode only).
static CHUNK_NANOS: telemetry::Histogram = telemetry::Histogram::new("engine.batch.chunk_nanos");

/// Default number of points per work unit.
const DEFAULT_CHUNK: usize = 256;

/// Batch evaluator: a tape plus a parallelism configuration.
///
/// On success every result is bit-identical for every thread count,
/// chunk size and lane width. On error the evaluation is
/// **all-or-nothing**: no partial results are returned, no shared state
/// is poisoned (worker pools are per-call scopes), and an identical
/// retry succeeds bit-identically once the fault is gone. When several
/// chunks fail, the error from the lowest-indexed chunk wins, keeping
/// the reported failure as deterministic as the results it replaces.
#[derive(Debug, Clone)]
pub struct BatchEvaluator<'t> {
    tape: &'t Tape,
    pool: Pool,
}

impl<'t> BatchEvaluator<'t> {
    /// Creates an evaluator over `tape` with `threads` workers
    /// (`threads = 1` evaluates inline with zero spawn overhead).
    pub fn new(tape: &'t Tape, threads: usize) -> Self {
        Self {
            tape,
            pool: Pool::new(threads),
        }
    }

    /// Overrides the deterministic chunk length (points per work unit).
    pub fn chunk_size(mut self, chunk: usize) -> Self {
        self.pool.chunk = chunk.max(1);
        self
    }

    /// Overrides the widest SoA lane-block width, rounded down to the
    /// nearest monomorphized width (1, 2, 4, 8, or 16; results are
    /// bit-identical for every width). Narrower blocks sweep what
    /// remains of a chunk.
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.pool.lanes = supported_lanes(lanes);
        self
    }

    /// Sets a cooperative deadline, checked before each chunk starts;
    /// an expired one fails the call with
    /// [`EngineError::DeadlineExceeded`].
    pub fn deadline(mut self, deadline: EvalDeadline) -> Self {
        self.pool.deadline = Some(deadline);
        self
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.pool.threads
    }

    /// Evaluates the weighted cost at every point.
    ///
    /// # Errors
    ///
    /// [`EngineError::WorkerPanicked`] when a chunk panics (for example
    /// on a point whose arity mismatches the tape), and
    /// [`EngineError::DeadlineExceeded`] once the
    /// [`deadline`](Self::deadline) has passed.
    pub fn costs<P: AsRef<[f64]> + Sync>(&self, points: &[P]) -> Result<Vec<f64>, EngineError> {
        let mut costs = vec![0.0; points.len()];
        self.run(
            faultinject::sites::POOL_CHUNK,
            points,
            &mut costs,
            None,
            None,
        )?;
        Ok(costs)
    }

    /// Evaluates cost **and** per-output (hazard) values at every point.
    /// Returns `(costs, outputs)` with `outputs` flattened row-major
    /// (`points.len() × tape.n_outputs()`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`costs`](Self::costs).
    pub fn costs_and_outputs<P: AsRef<[f64]> + Sync>(
        &self,
        points: &[P],
    ) -> Result<(Vec<f64>, Vec<f64>), EngineError> {
        let mut costs = vec![0.0; points.len()];
        let mut outputs = vec![0.0; points.len() * self.tape.n_outputs()];
        let site = faultinject::sites::POOL_CHUNK;
        self.run(site, points, &mut costs, Some(&mut outputs), None)?;
        Ok((costs, outputs))
    }

    /// Evaluates cost **and** cost gradient at every point via the
    /// reverse-mode adjoint sweep (see [`crate::grad`]). Returns
    /// `(costs, grads)` with `grads` flattened row-major
    /// (`points.len() × tape.n_inputs()`); costs are bit-identical to
    /// [`costs`](Self::costs).
    ///
    /// Points shard across the same deterministic chunked pool as plain
    /// evaluation, so gradients are bit-identical for every thread
    /// count. Every lane block runs the lane-blocked forward sweep
    /// **and** the lane-blocked adjoint sweep
    /// (`grad::AdjointFile`); the one point a chunk may leave over runs
    /// the point-at-a-time adjoint — 0-ULP bit-identical by the
    /// per-lane op-order contract.
    ///
    /// # Errors
    ///
    /// Same conditions as [`costs`](Self::costs).
    pub fn eval_grad_batch<P: AsRef<[f64]> + Sync>(
        &self,
        points: &[P],
    ) -> Result<(Vec<f64>, Vec<f64>), EngineError> {
        let mut costs = vec![0.0; points.len()];
        let mut grads = vec![0.0; points.len() * self.tape.n_inputs()];
        let site = faultinject::sites::GRAD_CHUNK;
        self.run(site, points, &mut costs, None, Some(&mut grads))?;
        Ok((costs, grads))
    }

    /// Sweeps every op of the tape at `points`, reducing all its outputs
    /// into one cost per point, on fresh runner buffers.
    fn run<P: AsRef<[f64]> + Sync>(
        &self,
        failpoint: &'static str,
        points: &[P],
        costs: &mut [f64],
        rows: Option<&mut [f64]>,
        grads: Option<&mut [f64]>,
    ) -> Result<(), EngineError> {
        let ends = [self.tape.n_outputs() as u32];
        let sweep = Sweep {
            tape: self.tape,
            slots: 0..self.tape.n_ops(),
            start: 0,
            ends: &ends,
            failpoint,
        };
        let buffers = SweepBuffers::default;
        self.pool
            .run(&sweep, points, buffers, costs, rows, grads)
            .map(drop)
    }
}

/// The worker-pool settings both evaluators share.
#[derive(Debug, Clone)]
pub(crate) struct Pool {
    pub(crate) threads: usize,
    pub(crate) chunk: usize,
    pub(crate) lanes: usize,
    pub(crate) deadline: Option<EvalDeadline>,
}

impl Pool {
    pub(crate) fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            chunk: DEFAULT_CHUNK,
            lanes: DEFAULT_LANES,
            deadline: None,
        }
    }

    /// Runs `sweep` at every point through [`run_pool`], one unit per
    /// chunk: `costs` gets one cost per output group per point, `rows`
    /// (when kept) the point-major output rows and `grads` (when asked
    /// for) the point-major gradient rows. The inline path runs on
    /// `buffers()`, which are handed back on success only (`None` when
    /// the pool ran); pool workers use buffers of their own.
    pub(crate) fn run<S: Slots, P: AsRef<[f64]> + Sync>(
        &self,
        sweep: &Sweep<'_, S>,
        points: &[P],
        buffers: impl FnOnce() -> SweepBuffers,
        costs: &mut [f64],
        rows: Option<&mut [f64]>,
        grads: Option<&mut [f64]>,
    ) -> Result<Option<SweepBuffers>, EngineError> {
        let (n, chunk) = (points.len(), self.chunk);
        let (keep_rows, keep_grads) = (rows.is_some(), grads.is_some());
        // Buffers not asked for split into empty rows, one per chunk.
        let width = if keep_rows { sweep.width() } else { 0 };
        let dim = if keep_grads { sweep.tape.n_inputs() } else { 0 };
        let units = points
            .chunks(chunk)
            .zip(row_chunks(costs, n, chunk, sweep.ends.len()))
            .zip(row_chunks(rows.unwrap_or_default(), n, chunk, width))
            .zip(row_chunks(grads.unwrap_or_default(), n, chunk, dim));
        let runner = |buf| Runner {
            lanes: self.lanes,
            buf,
        };
        let inline = run_pool(
            self.threads,
            self.deadline.as_ref(),
            units,
            || runner(buffers()),
            || runner(SweepBuffers::default()),
            |r, (((pts, costs), rows), grads)| {
                let rows = keep_rows.then_some(rows);
                r.run(sweep, pts, costs, rows, keep_grads.then_some(grads))
            },
        )?;
        Ok(inline.map(|r| r.buf))
    }
}

/// One sweep over a tape: the op `slots` to visit and the output groups
/// to reduce. The groups are consecutive output ranges from `start`, the
/// `g`-th ending at `ends[g]`; each yields one weighted cost per point,
/// and a kept output row holds every group's outputs side by side.
#[derive(Debug)]
pub(crate) struct Sweep<'a, S> {
    pub(crate) tape: &'a Tape,
    pub(crate) slots: S,
    pub(crate) start: usize,
    pub(crate) ends: &'a [u32],
    /// The failpoint every chunk of this sweep checks.
    pub(crate) failpoint: &'static str,
}

impl<S: Slots> Sweep<'_, S> {
    /// Width of one output row: every output the groups span.
    fn width(&self) -> usize {
        self.span().len()
    }

    /// The outputs the groups span; a gradient differentiates their
    /// weighted sum.
    fn span(&self) -> std::ops::Range<usize> {
        self.start..self.ends.last().map_or(self.start, |&e| e as usize)
    }

    /// Reduces an evaluated scalar `scratch`: one weighted cost per group
    /// into `costs`, every output of the span into `row`.
    pub(crate) fn reduce(&self, scratch: &[f64], costs: &mut [f64], row: &mut [f64]) {
        let mut from = self.start;
        for (cost, &end) in costs.iter_mut().zip(self.ends) {
            let range = from..end as usize;
            let cols = range.start - self.start..range.end - self.start;
            *cost = self.tape.read_outputs(scratch, range, &mut row[cols]);
            from = end as usize;
        }
    }

    /// [`reduce`](Self::reduce) for a lane block: `costs` holds `L`
    /// point-major cost rows, `rows` `L` output rows. Per lane each
    /// group reduces exactly as the scalar reduction does.
    fn reduce_block<const L: usize>(&self, file: &LaneFile, costs: &mut [f64], rows: &mut [f64]) {
        let (groups, width) = (self.ends.len(), self.width());
        let mut from = self.start;
        for (g, &end) in self.ends.iter().enumerate() {
            let range = from..end as usize;
            let mut lane_costs = [0.0; L];
            let col = range.start - self.start;
            file.read_outputs::<L>(self.tape, range, width, col, &mut lane_costs, rows);
            for (lane, c) in lane_costs.into_iter().enumerate() {
                costs[lane * groups + g] = c;
            }
            from = end as usize;
        }
    }
}

/// Every scratch buffer of one [`Runner`]: owned and lifetime-free, so
/// a [`crate::fleet::FleetScratch`] can keep it between calls. Each
/// buffer sizes itself on first use.
#[derive(Debug, Default)]
pub(crate) struct SweepBuffers {
    /// Ragged-tail forward + adjoint workspace.
    ws: GradWorkspace,
    /// One discarded output row of the ragged tail.
    out_row: Vec<f64>,
    /// SoA register file.
    file: LaneFile,
    /// Lane-blocked adjoint file of the SoA backward sweep.
    adj: AdjointFile,
    /// One lane block of discarded output rows.
    lane_rows: Vec<f64>,
}

/// Per-worker execution state of [`run_pool`]: sweeps chunks of points
/// on the [`SweepBuffers`] it owns (steady state allocates nothing).
#[derive(Debug)]
struct Runner {
    lanes: usize,
    buf: SweepBuffers,
}

impl Runner {
    /// Sweeps the chunk `pts`, writing `costs` (point-major, one per
    /// output group) and, when given, the point-major output `rows` and
    /// gradient rows `grads`. Lane blocks narrow as fewer points remain,
    /// so at most one point runs point-at-a-time.
    fn run<S: Slots, P: AsRef<[f64]>>(
        &mut self,
        sweep: &Sweep<'_, S>,
        pts: &[P],
        costs: &mut [f64],
        mut rows: Option<&mut [f64]>,
        mut grads: Option<&mut [f64]>,
    ) {
        if faultinject::should_fail(sweep.failpoint) {
            panic!("fault injected: {}", sweep.failpoint);
        }
        let _chunk_span = telemetry::span(&CHUNK_NANOS);
        CHUNKS.add(1);
        let n = pts.len();
        let mut start = 0;
        while n - start > 1 {
            let width = supported_lanes((n - start).min(self.lanes));
            let (rows, grads) = (rows.as_deref_mut(), grads.as_deref_mut());
            start = dispatch_lanes!(width, L => {
                self.run_blocks::<L, S, P>(sweep, pts, start, costs, rows, grads)
            });
        }
        SOA_POINTS.add(start as u64);
        TAIL_POINTS.add((n - start) as u64);
        // The ragged tail: at most one point remains.
        let (groups, width, dim) = (sweep.ends.len(), sweep.width(), sweep.tape.n_inputs());
        let buf = &mut self.buf;
        for (i, p) in pts.iter().enumerate().skip(start) {
            let row = match rows.as_deref_mut() {
                Some(rows) => &mut rows[i * width..(i + 1) * width],
                None => {
                    buf.out_row.resize(width, 0.0);
                    &mut buf.out_row[..]
                }
            };
            sweep
                .tape
                .forward(sweep.slots.clone(), p.as_ref(), &mut buf.ws.scratch);
            sweep.reduce(
                &buf.ws.scratch,
                &mut costs[i * groups..(i + 1) * groups],
                row,
            );
            if let Some(grads) = grads.as_deref_mut() {
                let grad = &mut grads[i * dim..(i + 1) * dim];
                sweep
                    .tape
                    .backward(sweep.slots.clone(), sweep.span(), &mut buf.ws, grad);
            }
        }
    }

    /// Sweeps every full `L`-wide block of `pts` from `start` through
    /// the SoA forward sweep, the reduction and, for gradients, the SoA
    /// adjoint sweep; returns the first point not swept.
    fn run_blocks<const L: usize, S: Slots, P: AsRef<[f64]>>(
        &mut self,
        sweep: &Sweep<'_, S>,
        pts: &[P],
        mut start: usize,
        costs: &mut [f64],
        mut rows: Option<&mut [f64]>,
        mut grads: Option<&mut [f64]>,
    ) -> usize {
        let (tape, groups, width) = (sweep.tape, sweep.ends.len(), sweep.width());
        let dim = tape.n_inputs();
        let buf = &mut self.buf;
        buf.lane_rows.resize(L * width, 0.0);
        while start + L <= pts.len() {
            let block = &pts[start..start + L];
            let out = match rows.as_deref_mut() {
                Some(rows) => &mut rows[start * width..(start + L) * width],
                None => &mut buf.lane_rows[..],
            };
            let block_costs = &mut costs[start * groups..(start + L) * groups];
            let slots = sweep.slots.clone();
            match grads.as_deref_mut() {
                None => {
                    buf.file.forward::<L, false, S, P>(tape, slots, block);
                    sweep.reduce_block::<L>(&buf.file, block_costs, out);
                }
                Some(grads) => {
                    buf.file
                        .forward::<L, true, S, P>(tape, slots.clone(), block);
                    sweep.reduce_block::<L>(&buf.file, block_costs, out);
                    let grads = &mut grads[start * dim..(start + L) * dim];
                    buf.adj
                        .backward::<L, S>(tape, slots, sweep.span(), buf.file.regs(), grads);
                }
            }
            start += L;
        }
        start
    }
}

/// The chunked pool behind every batch entry point of
/// [`BatchEvaluator`] and [`crate::fleet::FleetEvaluator`]: one unit per
/// chunk of points, run by `run` on a per-worker runner.
///
/// * Chunk indices are assigned before round-robin sharding, so a chunk
///   index names the same points for every thread count.
/// * The deadline is checked before each chunk, and each chunk runs
///   under `catch_unwind` ([`run_chunk`]); when several chunks fail the
///   lowest chunk's error wins ([`FirstError`]).
/// * Each worker attaches the caller's trace scope.
/// * With one thread or at most one chunk everything runs inline on
///   `inline_runner`: nothing is spawned and nothing is allocated for
///   the assignment. That runner is handed back on success only (`None`
///   when the pool ran), so a caller keeping its buffers never keeps a
///   half-written one.
///
/// Build `units` so that every chunk yields one, also when an output
/// row has width 0 ([`row_chunks`]).
pub(crate) fn run_pool<U: Send, R>(
    threads: usize,
    deadline: Option<&EvalDeadline>,
    units: impl ExactSizeIterator<Item = U>,
    inline_runner: impl FnOnce() -> R,
    worker_runner: impl Fn() -> R + Sync,
    run: impl Fn(&mut R, U) + Sync,
) -> Result<Option<R>, EngineError> {
    if threads == 1 || units.len() <= 1 {
        let mut runner = inline_runner();
        for (idx, unit) in units.enumerate() {
            run_chunk(idx, deadline, || run(&mut runner, unit))?;
        }
        return Ok(Some(runner));
    }
    let first_err = FirstError::default();
    // One worker per unit at most: an idle worker would still build its
    // runner (and its buffers) for nothing.
    let workers = threads.min(units.len());
    let assignments = round_robin(workers, units.enumerate());
    let scope_h = telemetry::ScopeHandle::current();
    let (worker_runner, run) = (&worker_runner, &run);
    std::thread::scope(|scope| {
        for worker_units in assignments {
            let first_err = &first_err;
            scope.spawn(move || {
                let _trace_scope = scope_h.attach();
                let mut runner = worker_runner();
                for (idx, unit) in worker_units {
                    if let Err(e) = run_chunk(idx, deadline, || run(&mut runner, unit)) {
                        first_err.record(idx, e);
                        return;
                    }
                }
            });
        }
    });
    first_err.into_result(None)
}

/// Splits `buf`, `n` rows of `width` values, into one slice per chunk
/// of `chunk` rows. Unlike `chunks_mut`, it still yields one (empty)
/// slice per chunk when `width` is 0, so a zipped unit iterator never
/// drops chunks.
pub(crate) fn row_chunks(
    mut buf: &mut [f64],
    n: usize,
    chunk: usize,
    width: usize,
) -> impl ExactSizeIterator<Item = &mut [f64]> {
    (0..n.div_ceil(chunk)).map(move |i| {
        let rows = chunk.min(n - i * chunk);
        let (head, tail) = std::mem::take(&mut buf).split_at_mut(rows * width);
        buf = tail;
        head
    })
}

/// Assigns work units to workers round-robin (unit `i` goes to worker
/// `i % threads`) — deterministic and lock-free.
fn round_robin<T>(threads: usize, units: impl Iterator<Item = T>) -> Vec<Vec<T>> {
    let mut assignments: Vec<Vec<T>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, unit) in units.enumerate() {
        assignments[i % threads].push(unit);
    }
    assignments
}

/// Runs one work unit of [`run_pool`]: checks the cooperative `deadline`
/// first, then isolates any panic behind
/// [`EngineError::WorkerPanicked`]. Chunk indices are assigned before
/// round-robin sharding, so `chunk` identifies the same points for
/// every thread count.
fn run_chunk(
    chunk: usize,
    deadline: Option<&EvalDeadline>,
    work: impl FnOnce(),
) -> Result<(), EngineError> {
    if deadline.is_some_and(EvalDeadline::expired) {
        telemetry::trace::trace_instant(
            telemetry::EventKind::DeadlineExpired,
            "engine.deadline",
            chunk as u64,
        );
        return Err(EngineError::DeadlineExceeded { chunk });
    }
    // `AssertUnwindSafe` is sound here: on `Err` the caller abandons
    // every buffer the closure could have half-written (all-or-nothing
    // contract) and the worker's scratch state dies with its scope.
    std::panic::catch_unwind(AssertUnwindSafe(work)).map_err(|payload| {
        EngineError::WorkerPanicked {
            chunk,
            payload: payload_string(payload.as_ref()),
        }
    })
}

/// Best-effort text of a caught panic payload (`panic!` produces
/// `String` or `&'static str`; anything else is opaque).
fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// First-error cell shared by one call's workers: when several chunks
/// fail in one call, the error from the **lowest-indexed** chunk wins,
/// so the reported failure is as deterministic as the results it
/// replaces (it never depends on worker timing for deterministic
/// faults).
#[derive(Debug, Default)]
struct FirstError(Mutex<Option<(usize, EngineError)>>);

impl FirstError {
    /// Records `err` for `chunk` unless a lower-indexed chunk already
    /// failed. Recovers from poison: the cell is written only by this
    /// method, which cannot panic mid-update.
    fn record(&self, chunk: usize, err: EngineError) {
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        match &*slot {
            Some((winner, _)) if *winner <= chunk => {}
            _ => *slot = Some((chunk, err)),
        }
    }

    /// Consumes the cell: `Ok(ok)` if no worker failed, the winning
    /// error otherwise.
    fn into_result<T>(self, ok: T) -> Result<T, EngineError> {
        match self.0.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some((_, err)) => Err(err),
            None => Ok(ok),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::TapeBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn demo_tape() -> Tape {
        let mut b = TapeBuilder::new(2);
        let e1 = b.exposure(0.13, b.input(0));
        let e2 = b.exposure(0.07, b.input(1));
        let half = b.constant(0.5);
        let p = b.product([half, e1, e2]);
        let h1 = b.sum_clamped(1e-4, [p]);
        let h2 = b.sum_clamped(0.0, [e1]);
        b.output(h1, 100.0);
        b.output(h2, 1.0);
        b.build()
    }

    fn random_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| vec![rng.gen::<f64>() * 30.0, rng.gen::<f64>() * 30.0])
            .collect()
    }

    #[test]
    fn batch_matches_sequential_eval() {
        let tape = demo_tape();
        let points = random_points(1000, 1);
        let batch = BatchEvaluator::new(&tape, 4)
            .chunk_size(64)
            .costs(&points)
            .unwrap();
        for (p, &v) in points.iter().zip(&batch) {
            assert_eq!(tape.eval(p), v, "bitwise equality expected");
        }
    }

    #[test]
    fn results_are_independent_of_thread_count() {
        let tape = demo_tape();
        let points = random_points(3000, 2);
        let reference = BatchEvaluator::new(&tape, 1).costs(&points).unwrap();
        for threads in [2, 3, 8] {
            let got = BatchEvaluator::new(&tape, threads)
                .chunk_size(17)
                .costs(&points)
                .unwrap();
            assert_eq!(reference, got, "threads = {threads}");
        }
    }

    #[test]
    fn costs_and_outputs_agree_with_costs() {
        let tape = demo_tape();
        let points = random_points(500, 3);
        let costs = BatchEvaluator::new(&tape, 2)
            .chunk_size(32)
            .costs(&points)
            .unwrap();
        let (costs2, outputs) = BatchEvaluator::new(&tape, 2)
            .chunk_size(32)
            .costs_and_outputs(&points)
            .unwrap();
        assert_eq!(costs, costs2);
        assert_eq!(outputs.len(), points.len() * tape.n_outputs());
        for (i, p) in points.iter().enumerate() {
            let mut out = vec![0.0; tape.n_outputs()];
            let mut scratch = Vec::new();
            tape.eval_into(p, &mut scratch, &mut out);
            assert_eq!(&outputs[i * 2..i * 2 + 2], out.as_slice());
        }
    }

    #[test]
    fn soa_backend_is_bit_identical_to_scalar() {
        let tape = demo_tape();
        let points = random_points(997, 4); // odd: exercises the tail
        let mut scratch = Vec::new();
        let mut scalar = Vec::new();
        let mut scalar_o = vec![0.0; points.len() * tape.n_outputs()];
        for (p, out) in points.iter().zip(scalar_o.chunks_mut(tape.n_outputs())) {
            scalar.push(tape.eval_into(p, &mut scratch, out));
        }
        for lanes in [1, 4, 8, 5] {
            for threads in [1, 3] {
                let ev = BatchEvaluator::new(&tape, threads)
                    .chunk_size(19)
                    .lanes(lanes);
                assert_eq!(
                    ev.costs(&points).unwrap(),
                    scalar,
                    "lanes {lanes}, {threads} threads"
                );
                let (c, o) = ev.costs_and_outputs(&points).unwrap();
                assert_eq!(c, scalar);
                assert_eq!(o, scalar_o);
            }
        }
    }

    #[test]
    fn grad_batch_matches_pointwise_adjoint_and_is_thread_independent() {
        let tape = demo_tape();
        let points = random_points(700, 5);
        let (costs, grads) = BatchEvaluator::new(&tape, 1)
            .eval_grad_batch(&points)
            .unwrap();
        assert_eq!(grads.len(), points.len() * tape.n_inputs());
        for (i, p) in points.iter().enumerate() {
            let (cost, grad) = tape.eval_grad(p);
            assert_eq!(cost.to_bits(), costs[i].to_bits());
            for (a, b) in grad.iter().zip(&grads[i * 2..(i + 1) * 2]) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(tape.eval(p).to_bits(), costs[i].to_bits());
        }
        for threads in [2, 4, 7] {
            let (c, g) = BatchEvaluator::new(&tape, threads)
                .chunk_size(23)
                .eval_grad_batch(&points)
                .unwrap();
            assert_eq!(costs, c, "costs, {threads} threads");
            assert_eq!(grads, g, "grads, {threads} threads");
        }
    }

    #[test]
    fn grad_batch_handles_zero_input_tapes() {
        // Fully constant-folded tape: no inputs, constant outputs. The
        // parallel path must still report the real costs (its chunked
        // zip has no gradient chunks to hand out).
        let mut b = TapeBuilder::new(0);
        let h = b.sum_clamped(0.25, []);
        b.output(h, 2.0);
        let tape = b.build();
        let points: Vec<Vec<f64>> = vec![Vec::new(); 500];
        for threads in [1, 4] {
            let (costs, grads) = BatchEvaluator::new(&tape, threads)
                .chunk_size(16)
                .eval_grad_batch(&points)
                .unwrap();
            assert!(grads.is_empty());
            assert!(costs.iter().all(|&c| c == 0.5), "{threads} threads");
        }
    }

    #[test]
    fn expired_deadline_is_a_typed_error_and_retry_succeeds() {
        let tape = demo_tape();
        let points = random_points(300, 7);
        let expired = EvalDeadline::after(std::time::Duration::ZERO);
        for threads in [1, 4] {
            let ev = BatchEvaluator::new(&tape, threads).chunk_size(16);
            let late = ev.clone().deadline(expired);
            match late.costs(&points) {
                Err(EngineError::DeadlineExceeded { .. }) => {}
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
            match late.eval_grad_batch(&points) {
                Err(EngineError::DeadlineExceeded { .. }) => {}
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
            // The pool is a per-call scope: nothing is poisoned and the
            // same tape answers bit-identically afterwards.
            let generous = EvalDeadline::after(std::time::Duration::from_secs(3600));
            assert_eq!(
                ev.clone().deadline(generous).costs(&points).unwrap(),
                ev.costs(&points).unwrap()
            );
        }
    }

    #[test]
    fn worker_panic_is_isolated_into_a_typed_error() {
        let tape = demo_tape();
        // One malformed (wrong-arity) point per chunk region makes the
        // runner panic inside a worker; the call must surface it as a
        // typed error instead of tearing the process down.
        let mut points = random_points(200, 8);
        points[130] = vec![1.0]; // arity 1 into a 2-input tape
        for threads in [1, 4] {
            let ev = BatchEvaluator::new(&tape, threads).chunk_size(16);
            match ev.costs(&points) {
                Err(EngineError::WorkerPanicked { chunk, payload }) => {
                    assert_eq!(chunk, 130 / 16, "chunk index is deterministic");
                    assert!(
                        payload.contains("arity"),
                        "payload should carry the panic text, got {payload:?}"
                    );
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
            // Fixing the input makes the identical call succeed — no
            // state was poisoned by the caught panic.
            let mut fixed = points.clone();
            fixed[130] = vec![1.0, 2.0];
            let a = ev.costs(&fixed).unwrap();
            let b = ev.costs(&fixed).unwrap();
            assert_eq!(a, b, "retry is bit-identical");
        }
    }

    #[test]
    fn arity_mismatch_is_returned_as_the_worker_panic() {
        let tape = demo_tape();
        let mut points = random_points(40, 9);
        points[7] = vec![1.0, 2.0, 3.0];
        match BatchEvaluator::new(&tape, 1).costs(&points) {
            Err(EngineError::WorkerPanicked { payload, .. }) => {
                assert!(payload.contains("input arity mismatch"), "{payload:?}")
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn first_error_prefers_the_lowest_chunk() {
        let cell = FirstError::default();
        cell.record(5, EngineError::DeadlineExceeded { chunk: 5 });
        cell.record(2, EngineError::DeadlineExceeded { chunk: 2 });
        cell.record(9, EngineError::DeadlineExceeded { chunk: 9 });
        match cell.into_result(()) {
            Err(EngineError::DeadlineExceeded { chunk }) => assert_eq!(chunk, 2),
            other => panic!("expected the chunk-2 error, got {other:?}"),
        }
    }

    #[test]
    fn pool_spawns_no_worker_without_a_unit() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let built = AtomicUsize::new(0);
        let ran = AtomicUsize::new(0);
        let inline = run_pool(
            8,
            None,
            0..2usize,
            || unreachable!("two units run on the pool"),
            || {
                built.fetch_add(1, Ordering::Relaxed);
            },
            |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            },
        )
        .unwrap();
        assert!(inline.is_none());
        assert_eq!(built.into_inner(), 2, "one runner per unit, not per thread");
        assert_eq!(ran.into_inner(), 2);
    }

    #[test]
    fn empty_batch_is_fine() {
        let tape = demo_tape();
        let points: Vec<Vec<f64>> = Vec::new();
        assert!(BatchEvaluator::new(&tape, 4)
            .costs(&points)
            .unwrap()
            .is_empty());
        let (c, o) = BatchEvaluator::new(&tape, 4)
            .costs_and_outputs(&points)
            .unwrap();
        assert!(c.is_empty() && o.is_empty());
        assert!(BatchEvaluator::new(&tape, 1)
            .costs(&points)
            .unwrap()
            .is_empty());
    }
}
