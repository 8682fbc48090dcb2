//! Parallel batch evaluation of a compiled [`Tape`].
//!
//! Shards a slice of parameter points across a `std::thread` scoped
//! worker pool. Points are cut into fixed-length chunks and assigned to
//! workers round-robin — a deterministic function of the batch size and
//! chunk length only, never of timing — and every point's result is
//! written to its own output index, so batch results are **bit-identical
//! for every thread count** (asserted by the equivalence property tests).
//! One crate-private driver, `run_pool`, owns that contract for every
//! batch entry point of this module and of [`crate::fleet`].
//!
//! Every entry point is fallible: each chunk runs under
//! [`std::panic::catch_unwind`], so a worker panic comes back as
//! [`EngineError::WorkerPanicked`], and an optional cooperative
//! [`EvalDeadline`] (set with [`BatchEvaluator::deadline`]) is checked
//! before each chunk starts.
//!
//! Within a chunk, lane blocks of points run through the op-at-a-time
//! SoA sweeps (see [`crate::exec`]), narrowing 16 → 8 → 4 → 2 as fewer
//! points remain; the one point a chunk may leave over runs through the
//! point-at-a-time [`Tape::eval_into`] / [`Tape::eval_grad_into`] —
//! bit-identical by construction.
//!
//! Workers own their scratch buffers; steady-state evaluation performs no
//! allocation beyond the output vectors.

use crate::error::{EngineError, EvalDeadline};
use crate::exec::{supported_lanes, sweep_lane_blocks, LaneFile, DEFAULT_LANES};
use crate::faultinject;
use crate::grad::{AdjointFile, GradWorkspace};
use crate::tape::Tape;

use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, PoisonError};

use safety_opt_telemetry as telemetry;

/// Points swept by SoA lane blocks, of any width.
static SOA_POINTS: telemetry::Counter = telemetry::Counter::new("engine.batch.soa_points");
/// Points run point-at-a-time: the single point a chunk's narrowing
/// lane blocks leave over, at most one per chunk.
static TAIL_POINTS: telemetry::Counter = telemetry::Counter::new("engine.batch.tail_points");
/// Work chunks executed by tape/grad runners (sequential or pooled).
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
    threads: usize,
    chunk: usize,
    lanes: usize,
    deadline: Option<EvalDeadline>,
}

impl<'t> BatchEvaluator<'t> {
    /// Creates an evaluator over `tape` with `threads` workers
    /// (`threads = 1` evaluates inline with zero spawn overhead).
    pub fn new(tape: &'t Tape, threads: usize) -> Self {
        Self {
            tape,
            threads: threads.max(1),
            chunk: DEFAULT_CHUNK,
            lanes: DEFAULT_LANES,
            deadline: None,
        }
    }

    /// Evaluator sized by [`crate::default_threads`]: the
    /// `SAFETY_OPT_THREADS` override when set, the machine's available
    /// parallelism otherwise.
    pub fn with_available_parallelism(tape: &'t Tape) -> Self {
        Self::new(tape, crate::default_threads())
    }

    /// Overrides the deterministic chunk length (points per work unit).
    pub fn chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Overrides the widest SoA lane-block width, rounded down to the
    /// nearest monomorphized width (1, 2, 4, 8, or 16; results are
    /// bit-identical for every width). Narrower blocks sweep what
    /// remains of a chunk.
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.lanes = supported_lanes(lanes);
        self
    }

    /// Sets a cooperative deadline, checked before each chunk starts;
    /// an expired one fails the call with
    /// [`EngineError::DeadlineExceeded`].
    pub fn deadline(mut self, deadline: EvalDeadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
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
        let units = points.chunks(self.chunk).zip(costs.chunks_mut(self.chunk));
        let runner = || TapeRunner::new(self.tape, self.lanes);
        self.pool(units, runner, |r, (pts, out)| r.run(pts, out, None))?;
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
        let n_out = self.tape.n_outputs();
        let mut costs = vec![0.0; points.len()];
        let mut outputs = vec![0.0; points.len() * n_out];
        let units = points
            .chunks(self.chunk)
            .zip(costs.chunks_mut(self.chunk))
            .zip(row_chunks(&mut outputs, points.len(), self.chunk, n_out));
        let runner = || TapeRunner::new(self.tape, self.lanes);
        self.pool(units, runner, |r, ((pts, out), rows)| {
            r.run(pts, out, Some(rows))
        })?;
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
        let dim = self.tape.n_inputs();
        let mut costs = vec![0.0; points.len()];
        let mut grads = vec![0.0; points.len() * dim];
        let units = points
            .chunks(self.chunk)
            .zip(costs.chunks_mut(self.chunk))
            .zip(row_chunks(&mut grads, points.len(), self.chunk, dim));
        let runner = || GradRunner::new(self.tape, self.lanes);
        self.pool(units, runner, |r, ((pts, out), grads)| {
            r.run(pts, out, grads)
        })?;
        Ok((costs, grads))
    }

    /// Runs `units` through [`run_pool`], the inline path and every
    /// worker on a fresh runner.
    fn pool<U: Send, R>(
        &self,
        units: impl ExactSizeIterator<Item = U>,
        runner: impl Fn() -> R + Sync,
        run: impl Fn(&mut R, U) + Sync,
    ) -> Result<(), EngineError> {
        let deadline = self.deadline.as_ref();
        run_pool(self.threads, deadline, units, &runner, &runner, run).map(drop)
    }
}

/// Per-worker adjoint-sweep state: evaluates cost + gradient per point
/// or per lane block, owning the forward/backward workspaces (steady
/// state allocates nothing). Shared by the sequential and worker paths
/// of [`BatchEvaluator::eval_grad_batch`].
#[derive(Debug)]
struct GradRunner<'t> {
    tape: &'t Tape,
    lanes: usize,
    /// Ragged-tail forward + adjoint workspace.
    ws: GradWorkspace,
    /// One output row (the gradient path discards output values).
    out_row: Vec<f64>,
    /// SoA register file of the lane-blocked forward sweep.
    file: LaneFile,
    /// Lane-blocked adjoint file of the backward sweep.
    adj: AdjointFile,
    /// One lane block of discarded output rows.
    lane_rows: Vec<f64>,
}

impl<'t> GradRunner<'t> {
    fn new(tape: &'t Tape, lanes: usize) -> Self {
        let lanes = supported_lanes(lanes);
        Self {
            tape,
            lanes,
            ws: GradWorkspace::new(),
            out_row: vec![0.0; tape.n_outputs()],
            file: LaneFile::default(),
            adj: AdjointFile::default(),
            lane_rows: vec![0.0; tape.n_outputs() * lanes],
        }
    }

    /// Evaluates `pts`, writing one cost per point and the point-major
    /// gradient rows (`pts.len() × n_inputs`).
    fn run<P: AsRef<[f64]>>(&mut self, pts: &[P], costs: &mut [f64], grads: &mut [f64]) {
        if faultinject::should_fail(faultinject::sites::GRAD_CHUNK) {
            panic!("fault injected: grad.chunk");
        }
        let _chunk_span = telemetry::span(&CHUNK_NANOS);
        CHUNKS.add(1);
        let dim = self.tape.n_inputs();
        let start = sweep_lane_blocks!(self.lanes, pts.len(), start, L => {
            self.run_blocks::<L, P>(pts, start, costs, grads)
        });
        // The ragged tail: at most one point remains.
        for (i, p) in pts.iter().enumerate().skip(start) {
            costs[i] = self.tape.eval_grad_into(
                p.as_ref(),
                &mut self.ws,
                &mut self.out_row,
                &mut grads[i * dim..(i + 1) * dim],
            );
        }
    }

    /// Sweeps every full `L`-wide block of `pts` from `start` through
    /// the SoA forward + adjoint sweeps, returning the first point not
    /// swept.
    fn run_blocks<const L: usize, P: AsRef<[f64]>>(
        &mut self,
        pts: &[P],
        mut start: usize,
        costs: &mut [f64],
        grads: &mut [f64],
    ) -> usize {
        let dim = self.tape.n_inputs();
        while start + L <= pts.len() {
            self.tape.eval_grad_block::<L, P>(
                &pts[start..start + L],
                &mut self.file,
                &mut self.adj,
                &mut costs[start..start + L],
                &mut self.lane_rows,
                &mut grads[start * dim..(start + L) * dim],
            );
            start += L;
        }
        start
    }
}

/// Per-worker execution state: sweeps chunks of points, owning every
/// scratch buffer (steady state allocates nothing). Shared by the
/// sequential and worker paths.
#[derive(Debug)]
struct TapeRunner<'t> {
    tape: &'t Tape,
    lanes: usize,
    /// Ragged-tail scratch ([`Tape::eval_into`]).
    scratch: Vec<f64>,
    /// One output row for costs-only evaluation.
    out_row: Vec<f64>,
    /// SoA register file.
    file: LaneFile,
    /// One lane block of output rows for costs-only SoA evaluation.
    lane_rows: Vec<f64>,
}

impl<'t> TapeRunner<'t> {
    fn new(tape: &'t Tape, lanes: usize) -> Self {
        let n_out = tape.n_outputs();
        let lanes = supported_lanes(lanes);
        Self {
            tape,
            lanes,
            scratch: Vec::with_capacity(tape.scratch_len()),
            out_row: vec![0.0; n_out],
            file: LaneFile::default(),
            lane_rows: vec![0.0; n_out * lanes],
        }
    }

    /// Evaluates `pts`, writing one cost per point and, when `rows` is
    /// given, the point-major output rows (`pts.len() × n_outputs`).
    fn run<P: AsRef<[f64]>>(&mut self, pts: &[P], costs: &mut [f64], mut rows: Option<&mut [f64]>) {
        if faultinject::should_fail(faultinject::sites::POOL_CHUNK) {
            panic!("fault injected: pool.chunk");
        }
        let _chunk_span = telemetry::span(&CHUNK_NANOS);
        CHUNKS.add(1);
        let n_out = self.tape.n_outputs();
        let start = sweep_lane_blocks!(self.lanes, pts.len(), start, L => {
            self.run_blocks::<L, P>(pts, start, costs, rows.as_deref_mut())
        });
        // The ragged tail: at most one point remains.
        for (i, p) in pts.iter().enumerate().skip(start) {
            let out = match rows.as_deref_mut() {
                Some(rows) => &mut rows[i * n_out..(i + 1) * n_out],
                None => &mut self.out_row[..],
            };
            costs[i] = self.tape.eval_into(p.as_ref(), &mut self.scratch, out);
        }
    }

    /// Sweeps every full `L`-wide block of `pts` from `start`
    /// op-at-a-time, returning the first point not swept.
    fn run_blocks<const L: usize, P: AsRef<[f64]>>(
        &mut self,
        pts: &[P],
        mut start: usize,
        costs: &mut [f64],
        mut rows: Option<&mut [f64]>,
    ) -> usize {
        let n_out = self.tape.n_outputs();
        while start + L <= pts.len() {
            let block = &pts[start..start + L];
            self.file.load::<L, false, P>(self.tape, block);
            let mut timer = crate::profile::OpTimer::new();
            for slot in 0..self.tape.n_ops() {
                self.file.sweep_op::<L, false, P>(self.tape, slot, block);
                timer.lap(
                    &self.tape.profiler,
                    &self.tape.ops[slot],
                    crate::profile::PATH_SOA,
                    crate::profile::SWEEP_FORWARD,
                    L as u64,
                );
            }
            let out = match rows.as_deref_mut() {
                Some(rows) => &mut rows[start * n_out..(start + L) * n_out],
                None => &mut self.lane_rows[..],
            };
            self.file
                .read_outputs::<L>(self.tape, 0..n_out, &mut costs[start..start + L], out);
            start += L;
        }
        start
    }
}

/// Counts one chunk's split between lane blocks (`swept` points) and
/// the point-at-a-time tail (the rest of its `n`).
pub(crate) fn record_lane_split(swept: usize, n: usize) {
    SOA_POINTS.add(swept as u64);
    TAIL_POINTS.add((n - swept) as u64);
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
