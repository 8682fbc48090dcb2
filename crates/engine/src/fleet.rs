//! Model-fleet compilation and batch evaluation.
//!
//! Monte-Carlo uncertainty propagation and traffic-scenario studies
//! evaluate *families* of structurally similar models: hundreds of
//! sampled variants of one safety model that differ only in a few
//! constants. Compiling each variant to its own [`Tape`] repeats the
//! shared structure per model; a [`Fleet`] instead lowers every model
//! into **one shared op arena** with hash-consing *across* models, so an
//! op appears once no matter how many models use it. Evaluating the whole
//! fleet at a point is a single sweep over the arena — the shared ops are
//! computed once for all models — and evaluating one model uses its
//! precomputed reachability mask, sweeping exactly the ops a standalone
//! compilation of that model would contain.
//!
//! Determinism contract: every result is **bit-identical** to compiling
//! and evaluating each model's tape individually, for every thread count
//! and chunk size of the [`FleetEvaluator`] pool (the builder re-anchors
//! the commutative-op canonicalization at each model boundary to keep
//! per-model arithmetic order exact; enforced by the
//! `fleet_equivalence` property suite).
//!
//! ```
//! use safety_opt_engine::fleet::{FleetBuilder, FleetEvaluator};
//! use safety_opt_engine::tape::TapeBuilder;
//!
//! // Two "sampled models": identical structure, one constant differs.
//! fn lower(b: &mut TapeBuilder, rate: f64) {
//!     let shared = b.exposure(0.13, b.input(0)); // hash-consed across models
//!     let varying = b.exposure(rate, b.input(0));
//!     let h = b.sum_clamped(0.0, [shared, varying]);
//!     b.output(h, 100.0);
//! }
//! let mut fb = FleetBuilder::new(1);
//! for rate in [0.05, 0.07] {
//!     lower(fb.lowerer(), rate);
//!     fb.finish_model();
//! }
//! let fleet = fb.build();
//! assert_eq!(fleet.n_models(), 2);
//! // 6 ops standalone (3 per model), 5 in the arena: the shared
//! // exposure op deduplicated across the two models.
//! assert_eq!(fleet.tape().n_ops(), 5);
//! assert_eq!(fleet.model_ops(0) + fleet.model_ops(1), 6);
//!
//! // One arena sweep per point evaluates every model; results are
//! // bit-identical to each model's standalone tape for any thread count.
//! let costs = FleetEvaluator::new(&fleet, 2).costs_all(&[[10.0], [20.0]]).unwrap();
//! assert_eq!(costs.len(), 4); // 2 points x 2 models, point-major
//! let mut standalone = TapeBuilder::new(1);
//! lower(&mut standalone, 0.07);
//! assert_eq!(costs[1], standalone.build().eval(&[10.0]));
//! ```

use crate::batch::{row_chunks, run_pool};
use crate::error::{EngineError, EvalDeadline};
use crate::exec::{dispatch_lanes, supported_lanes, LaneFile, DEFAULT_LANES};
use crate::faultinject;
use crate::grad::{AdjointFile, GradWorkspace};
use crate::tape::{Op, Tape, TapeBuilder, Value};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

use safety_opt_telemetry as telemetry;

/// Fleets finalized by [`FleetBuilder::build`].
static FLEET_BUILDS: telemetry::Counter = telemetry::Counter::new("engine.fleet.builds");
/// Ops in the shared arenas of built fleets.
static FLEET_ARENA_OPS: telemetry::Counter = telemetry::Counter::new("engine.fleet.arena_ops");
/// Sum of per-model op counts across built fleets; the fleet sharing
/// ratio is `1 − arena_ops / model_ops`.
static FLEET_MODEL_OPS: telemetry::Counter = telemetry::Counter::new("engine.fleet.model_ops");

/// Builder for a [`Fleet`]: lower each model through the shared
/// [`TapeBuilder`], then mark its end with [`finish_model`].
///
/// Ops are hash-consed across models (sampled variants share most of
/// their structure), while per-model argument canonicalization is reset
/// at every model boundary so each model's ops stay bit-identical to a
/// standalone compilation of that model.
///
/// [`finish_model`]: FleetBuilder::finish_model
#[derive(Debug)]
pub struct FleetBuilder {
    tape: TapeBuilder,
    /// Per finished model: one-past-the-end output index.
    output_ends: Vec<u32>,
}

impl FleetBuilder {
    /// Starts a fleet whose models all take `n_inputs` coordinates.
    pub fn new(n_inputs: usize) -> Self {
        Self {
            tape: TapeBuilder::new(n_inputs),
            output_ends: Vec::new(),
        }
    }

    /// The shared lowering builder for the model currently being built.
    ///
    /// All [`TapeBuilder`] constructors are available; [`Value`]s must
    /// not be carried across [`finish_model`](Self::finish_model)
    /// boundaries (re-lower instead — hash-consing deduplicates).
    pub fn lowerer(&mut self) -> &mut TapeBuilder {
        &mut self.tape
    }

    /// Number of models finished so far.
    pub fn n_models(&self) -> usize {
        self.output_ends.len()
    }

    /// Ends the current model (its outputs are everything declared since
    /// the previous boundary) and returns its fleet index.
    pub fn finish_model(&mut self) -> usize {
        self.output_ends.push(self.tape.outputs_len() as u32);
        self.tape.reset_model_order();
        self.output_ends.len() - 1
    }

    /// Discards the model currently being built (outputs declared since
    /// the last boundary are dropped) — rollback for callers that
    /// tolerate per-model lowering failures. Ops the aborted model
    /// interned stay in the arena; they are excluded from every model's
    /// reachability mask unless a later model demands them again.
    pub fn abort_model(&mut self) {
        let keep = self.output_ends.last().copied().unwrap_or(0) as usize;
        self.tape.truncate_outputs(keep);
        self.tape.reset_model_order();
    }

    /// Finalizes the fleet, computing each model's reachability mask.
    ///
    /// # Panics
    ///
    /// Panics if outputs were declared after the last
    /// [`finish_model`](Self::finish_model) call.
    pub fn build(self) -> Fleet {
        let last = self.output_ends.last().copied().unwrap_or(0) as usize;
        assert_eq!(
            self.tape.outputs_len(),
            last,
            "outputs declared after the last finish_model() call"
        );
        let tape = self.tape.build();
        let n_inputs = tape.n_inputs();
        let n_ops = tape.n_ops();
        let mut masks = Vec::with_capacity(self.output_ends.len());
        let mut marked = vec![false; n_ops];
        let mut start = 0u32;
        for &end in &self.output_ends {
            marked.iter_mut().for_each(|m| *m = false);
            for value in &tape.outputs[start as usize..end as usize] {
                if let Value::Reg(r) = value {
                    if r.index() >= n_inputs {
                        marked[r.index() - n_inputs] = true;
                    }
                }
            }
            // Ops only reference earlier registers, so one backward pass
            // closes the dependency set.
            for i in (0..n_ops).rev() {
                if !marked[i] {
                    continue;
                }
                let mut mark = |r: crate::tape::Reg| {
                    if r.index() >= n_inputs {
                        marked[r.index() - n_inputs] = true;
                    }
                };
                match &tape.ops[i] {
                    Op::Exposure { t, .. } => mark(*t),
                    Op::Overtime { x, .. } => mark(*x),
                    Op::Complement { x } => mark(*x),
                    Op::Scale { x, .. } => mark(*x),
                    Op::Closure { .. } => {}
                    Op::Product { args, .. } | Op::SumClamp { args, .. } => {
                        for &r in tape.arg_slice(*args) {
                            mark(r);
                        }
                    }
                    Op::MulAdd { p, hi, lo } => {
                        for v in [p, hi, lo] {
                            if let Value::Reg(r) = v {
                                mark(*r);
                            }
                        }
                    }
                }
            }
            masks.push(
                (0..n_ops as u32)
                    .filter(|&i| marked[i as usize])
                    .collect::<Box<[u32]>>(),
            );
            start = end;
        }
        FLEET_BUILDS.add(1);
        FLEET_ARENA_OPS.add(n_ops as u64);
        FLEET_MODEL_OPS.add(masks.iter().map(|m| m.len() as u64).sum());
        Fleet {
            tape,
            output_ends: self.output_ends,
            masks,
        }
    }
}

/// N models compiled into one shared op arena (see the module docs).
#[derive(Debug)]
pub struct Fleet {
    tape: Tape,
    output_ends: Vec<u32>,
    /// Per model: indices of the arena ops its outputs depend on,
    /// ascending (dependency order).
    masks: Vec<Box<[u32]>>,
}

impl Fleet {
    /// Number of models in the fleet.
    pub fn n_models(&self) -> usize {
        self.output_ends.len()
    }

    /// Input arity shared by every model.
    pub fn n_inputs(&self) -> usize {
        self.tape.n_inputs()
    }

    /// The shared arena tape (its op count measures cross-model sharing:
    /// compare with the sum of [`model_ops`](Self::model_ops)).
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// Compile-time statistics of the shared arena (see
    /// [`Tape::compile_stats`]). Recorded unconditionally — independent
    /// of the `SAFETY_OPT_TELEMETRY` mode.
    pub fn compile_stats(&self) -> crate::tape::CompileStats {
        self.tape.compile_stats()
    }

    /// Output (hazard) range of `model` in the flat all-models output
    /// row.
    pub fn output_range(&self, model: usize) -> Range<usize> {
        let start = if model == 0 {
            0
        } else {
            self.output_ends[model - 1] as usize
        };
        start..self.output_ends[model] as usize
    }

    /// Number of outputs of `model`.
    pub fn n_outputs(&self, model: usize) -> usize {
        self.output_range(model).len()
    }

    /// Total outputs across the fleet (row width of the flat output
    /// layout).
    pub fn total_outputs(&self) -> usize {
        self.output_ends.last().copied().unwrap_or(0) as usize
    }

    /// Number of arena ops `model` actually sweeps — the op count of its
    /// standalone tape.
    pub fn model_ops(&self, model: usize) -> usize {
        self.masks[model].len()
    }

    /// Fraction of per-model ops saved by cross-model sharing:
    /// `1 − arena_ops / Σ model_ops` (0 for a single-model fleet).
    pub fn sharing(&self) -> f64 {
        let per_model: usize = self.masks.iter().map(|m| m.len()).sum();
        if per_model == 0 {
            0.0
        } else {
            1.0 - self.tape.n_ops() as f64 / per_model as f64
        }
    }

    fn prepare_scratch<'s>(&self, x: &[f64], scratch: &'s mut Vec<f64>) -> &'s mut Vec<f64> {
        assert_eq!(x.len(), self.n_inputs(), "input arity mismatch");
        if scratch.len() != self.tape.scratch_len() {
            scratch.clear();
            scratch.resize(self.tape.scratch_len(), 0.0);
        }
        scratch[..x.len()].copy_from_slice(x);
        scratch
    }

    /// Evaluates `model` at `x` through its reachability mask, writing
    /// its outputs and returning its weighted cost — the exact ops, in
    /// the exact order, of the model's standalone tape.
    ///
    /// # Panics
    ///
    /// Panics on input/output arity mismatches.
    pub fn eval_model_into(
        &self,
        model: usize,
        x: &[f64],
        scratch: &mut Vec<f64>,
        outputs: &mut [f64],
    ) -> f64 {
        let range = self.output_range(model);
        assert_eq!(outputs.len(), range.len(), "output arity mismatch");
        let scratch = self.prepare_scratch(x, scratch);
        let n_inputs = self.n_inputs();
        let mut timer = crate::profile::OpTimer::new();
        for &i in self.masks[model].iter() {
            let op = &self.tape.ops[i as usize];
            scratch[n_inputs + i as usize] = self.tape.op_value(op, scratch);
            timer.lap(
                &self.tape.profiler,
                op.kind_index(),
                crate::profile::PATH_SCALAR,
                crate::profile::SWEEP_FORWARD,
                1,
            );
        }
        self.tape.read_outputs(scratch, range, outputs)
    }

    /// Evaluates `model`'s cost **and** cost gradient at `x` via the
    /// reverse-mode adjoint sweep over its reachability mask: the masked
    /// forward sweep retains the register file, the model's output
    /// weights seed the adjoints, and the backward sweep visits exactly
    /// the masked ops in reverse — the op set and per-op float sequence
    /// of the model's standalone [`Tape::eval_grad_into`]. Cost and
    /// outputs are bit-identical to standalone compilation; the
    /// gradient is bit-identical whenever the masked ops sit in the
    /// model's own demand order, which holds for the safety-model
    /// lowering (golden-pinned) but can be broken by cross-model
    /// hash-consing reordering a shared subexpression's consumers — the
    /// adjoint's `+=` accumulation then rounds in a different order,
    /// shifting components by a few rounding steps, amplified by
    /// subtractive cancellation (the `grad_soa_equivalence` suite pins
    /// a ≤ 128 ulp envelope on adversarial families).
    ///
    /// # Panics
    ///
    /// Panics on input/output/gradient arity mismatches.
    pub fn eval_model_grad_into(
        &self,
        model: usize,
        x: &[f64],
        ws: &mut GradWorkspace,
        outputs: &mut [f64],
        grad: &mut [f64],
    ) -> f64 {
        let range = self.output_range(model);
        assert_eq!(outputs.len(), range.len(), "output arity mismatch");
        assert_eq!(grad.len(), self.n_inputs(), "gradient arity mismatch");
        let n_inputs = self.n_inputs();
        let cost = {
            let scratch = self.prepare_scratch(x, &mut ws.scratch);
            let mut timer = crate::profile::OpTimer::new();
            for &i in self.masks[model].iter() {
                let op = &self.tape.ops[i as usize];
                scratch[n_inputs + i as usize] = self.tape.op_value(op, scratch);
                timer.lap(
                    &self.tape.profiler,
                    op.kind_index(),
                    crate::profile::PATH_SCALAR,
                    crate::profile::SWEEP_FORWARD,
                    1,
                );
            }
            self.tape.read_outputs(scratch, range.clone(), outputs)
        };
        ws.adjoint.clear();
        ws.adjoint.resize(self.tape.scratch_len(), 0.0);
        self.tape.seed_output_adjoints(range, &mut ws.adjoint);
        let mut timer = crate::profile::OpTimer::new();
        for &i in self.masks[model].iter().rev() {
            self.tape.backward_slot(i as usize, ws);
            timer.lap(
                &self.tape.profiler,
                self.tape.ops[i as usize].kind_index(),
                crate::profile::PATH_SCALAR,
                crate::profile::SWEEP_ADJOINT,
                1,
            );
        }
        crate::grad::record_adjoint_sweeps(1);
        grad.copy_from_slice(&ws.adjoint[..n_inputs]);
        cost
    }

    /// Evaluates **every** model at `x` with one full arena sweep
    /// (shared ops computed once for all models), writing per-model
    /// costs and the flat output row.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatches (`costs` must hold
    /// [`n_models`](Self::n_models) values, `outputs`
    /// [`total_outputs`](Self::total_outputs)).
    pub fn eval_all_into(
        &self,
        x: &[f64],
        scratch: &mut Vec<f64>,
        costs: &mut [f64],
        outputs: &mut [f64],
    ) {
        assert_eq!(costs.len(), self.n_models(), "model arity mismatch");
        assert_eq!(outputs.len(), self.total_outputs(), "output arity mismatch");
        let scratch = self.prepare_scratch(x, scratch);
        let n_inputs = self.n_inputs();
        let mut timer = crate::profile::OpTimer::new();
        for (slot, op) in self.tape.ops.iter().enumerate() {
            scratch[n_inputs + slot] = self.tape.op_value(op, scratch);
            timer.lap(
                &self.tape.profiler,
                op.kind_index(),
                crate::profile::PATH_SCALAR,
                crate::profile::SWEEP_FORWARD,
                1,
            );
        }
        for (model, cost) in costs.iter_mut().enumerate() {
            let range = self.output_range(model);
            *cost = self
                .tape
                .read_outputs(scratch, range.clone(), &mut outputs[range]);
        }
    }
}

/// Default number of points per work unit (matches
/// [`crate::batch::BatchEvaluator`]).
const DEFAULT_CHUNK: usize = 256;

/// Parallel fleet evaluation with the same deterministic chunked pool as
/// [`crate::batch::BatchEvaluator`]: points are cut into fixed-length
/// chunks assigned to workers round-robin, each point's results go to
/// its own output indices, so results are bit-identical for every thread
/// count. Within a chunk, full lane blocks run lane-blocked op-at-a-time
/// SoA sweeps (see [`crate::exec`]) and the ragged tail per-point arena
/// sweeps — also bit-identical by construction.
///
/// Every entry point is fallible, with the same panic-isolation,
/// deadline, all-or-nothing and lowest-chunk-wins contract as
/// [`crate::batch::BatchEvaluator`].
#[derive(Debug, Clone)]
pub struct FleetEvaluator<'f> {
    fleet: &'f Fleet,
    threads: usize,
    chunk: usize,
    lanes: usize,
    scratch: Option<&'f FleetScratch>,
    deadline: Option<EvalDeadline>,
}

impl<'f> FleetEvaluator<'f> {
    /// Creates an evaluator with `threads` workers (`threads = 1`
    /// evaluates inline with zero spawn overhead).
    pub fn new(fleet: &'f Fleet, threads: usize) -> Self {
        Self {
            fleet,
            threads: threads.max(1),
            chunk: DEFAULT_CHUNK,
            lanes: DEFAULT_LANES,
            scratch: None,
            deadline: None,
        }
    }

    /// Evaluator sized by [`crate::default_threads`].
    pub fn with_default_threads(fleet: &'f Fleet) -> Self {
        Self::new(fleet, crate::default_threads())
    }

    /// Overrides the deterministic chunk length (points per work unit).
    pub fn chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Overrides the SoA lane-block width, rounded down to the nearest
    /// monomorphized width (1, 2, 4, 8, or 16; results are
    /// bit-identical for every width).
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.lanes = supported_lanes(lanes);
        self
    }

    /// Keeps the inline path's sweep buffers in `slot` between calls,
    /// so an optimizer that sends many small batches through fresh
    /// evaluators allocates them once instead of once per call (see
    /// [`FleetScratch`]). Results are bit-identical with or without a
    /// slot.
    pub fn reuse_scratch(mut self, slot: &'f FleetScratch) -> Self {
        self.scratch = Some(slot);
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

    /// Costs of **every model** at every point: point-major
    /// (`points.len() × n_models`), one arena sweep per point.
    ///
    /// # Errors
    ///
    /// [`EngineError::WorkerPanicked`] when a chunk panics (for example
    /// on a point whose arity mismatches the fleet), and
    /// [`EngineError::DeadlineExceeded`] once the
    /// [`deadline`](Self::deadline) has passed.
    pub fn costs_all<P: AsRef<[f64]> + Sync>(&self, points: &[P]) -> Result<Vec<f64>, EngineError> {
        Ok(self.sweep_all(points, false)?.0)
    }

    /// Costs **and** per-output values of every model at every point.
    /// Returns `(costs, outputs)`: `costs` point-major
    /// (`points.len() × n_models`), `outputs` point-major
    /// (`points.len() × total_outputs`) with each model occupying its
    /// [`Fleet::output_range`] columns.
    ///
    /// # Errors
    ///
    /// Same conditions as [`costs_all`](Self::costs_all).
    pub fn costs_and_outputs_all<P: AsRef<[f64]> + Sync>(
        &self,
        points: &[P],
    ) -> Result<(Vec<f64>, Vec<f64>), EngineError> {
        self.sweep_all(points, true)
    }

    fn sweep_all<P: AsRef<[f64]> + Sync>(
        &self,
        points: &[P],
        want_outputs: bool,
    ) -> Result<(Vec<f64>, Vec<f64>), EngineError> {
        let n = points.len();
        let n_models = self.fleet.n_models();
        // Without kept outputs the rows go to the runner's scratch row.
        let width = if want_outputs {
            self.fleet.total_outputs()
        } else {
            0
        };
        let mut costs = vec![0.0; n * n_models];
        let mut outputs = vec![0.0; n * width];
        let units = points
            .chunks(self.chunk)
            .zip(row_chunks(&mut costs, n, self.chunk, n_models))
            .zip(row_chunks(&mut outputs, n, self.chunk, width));
        self.pool(units, |r, ((pts, c_rows), o_rows)| {
            r.run_all(pts, c_rows, want_outputs.then_some(o_rows))
        })?;
        Ok((costs, outputs))
    }

    /// Costs of **one model** at every point through its reachability
    /// mask — bit-identical to that model's standalone
    /// [`crate::batch::BatchEvaluator`] for every thread count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`costs_all`](Self::costs_all).
    pub fn model_costs<P: AsRef<[f64]> + Sync>(
        &self,
        model: usize,
        points: &[P],
    ) -> Result<Vec<f64>, EngineError> {
        let mut costs = vec![0.0; points.len()];
        let units = points.chunks(self.chunk).zip(costs.chunks_mut(self.chunk));
        self.pool(units, |r, (pts, out)| r.run_model(model, pts, out))?;
        Ok(costs)
    }

    /// Costs **and** cost gradients of **one model** at every point via
    /// the masked reverse-mode adjoint sweep
    /// ([`Fleet::eval_model_grad_into`]). Returns `(costs, grads)` with
    /// `grads` flattened row-major (`points.len() × n_inputs`) —
    /// bit-identical across thread counts and lane widths,
    /// and bit-identical to that model's standalone
    /// [`crate::batch::BatchEvaluator::eval_grad_batch`] up to the
    /// adjoint accumulation-order caveat of
    /// [`Fleet::eval_model_grad_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`costs_all`](Self::costs_all).
    pub fn model_grads<P: AsRef<[f64]> + Sync>(
        &self,
        model: usize,
        points: &[P],
    ) -> Result<(Vec<f64>, Vec<f64>), EngineError> {
        let dim = self.fleet.n_inputs();
        let mut costs = vec![0.0; points.len()];
        let mut grads = vec![0.0; points.len() * dim];
        let units = points
            .chunks(self.chunk)
            .zip(costs.chunks_mut(self.chunk))
            .zip(row_chunks(&mut grads, points.len(), self.chunk, dim));
        self.pool(units, |r, ((pts, out), grad_rows)| {
            r.run_model_grad(model, pts, out, grad_rows)
        })?;
        Ok((costs, grads))
    }

    /// Runs `units` through [`run_pool`]. The inline path runs on the
    /// buffers of the [`reuse_scratch`](Self::reuse_scratch) slot when
    /// one is set and puts them back only after every chunk succeeded:
    /// on an error or caught panic they are dropped instead. Pool
    /// workers use buffers of their own.
    fn pool<U: Send>(
        &self,
        units: impl ExactSizeIterator<Item = U>,
        run: impl Fn(&mut FleetRunner<'f>, U) + Sync,
    ) -> Result<(), EngineError> {
        let inline_runner = || {
            let buf = self.scratch.map(FleetScratch::take).unwrap_or_default();
            FleetRunner::new(self.fleet, self.lanes, buf)
        };
        let worker_runner = || FleetRunner::new(self.fleet, self.lanes, SweepBuffers::default());
        let inline = run_pool(
            self.threads,
            self.deadline.as_ref(),
            units,
            inline_runner,
            worker_runner,
            run,
        )?;
        if let (Some(slot), Some(runner)) = (self.scratch, inline) {
            slot.put(runner.buf);
        }
        Ok(())
    }
}

/// A slot that keeps the sweep buffers of a [`FleetEvaluator`]'s inline
/// path (one thread, or a batch of at most one chunk) between calls —
/// see [`FleetEvaluator::reuse_scratch`]. Each call takes the buffers
/// out and puts them back only when it succeeds, so the lock is never
/// held during a sweep and a faulted call never leaves half-written
/// buffers behind. Pool workers always use buffers of their own.
#[derive(Debug, Default)]
pub struct FleetScratch(Mutex<Option<SweepBuffers>>);

impl FleetScratch {
    /// An empty slot; the first call sizes its buffers.
    pub fn new() -> Self {
        Self::default()
    }

    fn take(&self) -> SweepBuffers {
        self.lock().take().unwrap_or_default()
    }

    fn put(&self, buf: SweepBuffers) {
        *self.lock() = Some(buf);
    }

    /// Recovers from poison: the slot is only written by `take`/`put`,
    /// which cannot panic mid-update.
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<SweepBuffers>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Every scratch buffer of one [`FleetRunner`]: owned and lifetime-free,
/// so a [`FleetScratch`] can keep it between calls.
#[derive(Debug, Default)]
struct SweepBuffers {
    /// Ragged-tail arena scratch.
    scratch: Vec<f64>,
    /// One all-models output row for costs-only tail evaluation, one
    /// per-model output row for masked tail evaluation.
    out_row: Vec<f64>,
    /// SoA register file over the arena.
    file: LaneFile,
    /// One lane block of output rows for costs-only SoA evaluation.
    lane_rows: Vec<f64>,
    /// One lane block of per-model costs for masked SoA evaluation.
    lane_costs: Vec<f64>,
    /// Ragged-tail forward + adjoint workspace of the masked gradient.
    ws: GradWorkspace,
    /// Lane-blocked adjoint file of the masked backward sweep.
    adj: AdjointFile,
}

/// Per-worker fleet execution state: sweeps chunks of points on the
/// [`SweepBuffers`] it takes (steady state allocates nothing).
#[derive(Debug)]
struct FleetRunner<'f> {
    fleet: &'f Fleet,
    lanes: usize,
    buf: SweepBuffers,
}

impl<'f> FleetRunner<'f> {
    /// A runner on `buf`, whose fleet-sized rows are (re)sized for
    /// `fleet`; every other buffer sizes itself per sweep.
    fn new(fleet: &'f Fleet, lanes: usize, mut buf: SweepBuffers) -> Self {
        let lanes = supported_lanes(lanes);
        buf.out_row.resize(fleet.total_outputs(), 0.0);
        buf.lane_rows.resize(fleet.total_outputs() * lanes, 0.0);
        buf.lane_costs.resize(lanes, 0.0);
        Self { fleet, lanes, buf }
    }

    /// Evaluates every model at every point of `pts`: `costs` point-major
    /// (`pts.len() × n_models`), `rows` (when given) point-major
    /// (`pts.len() × total_outputs`).
    fn run_all<P: AsRef<[f64]>>(
        &mut self,
        pts: &[P],
        costs: &mut [f64],
        mut rows: Option<&mut [f64]>,
    ) {
        if faultinject::should_fail(faultinject::sites::FLEET_CHUNK) {
            panic!("fault injected: fleet.chunk");
        }
        let fleet = self.fleet;
        let n_models = fleet.n_models();
        let width = fleet.total_outputs();
        let start = dispatch_lanes!(self.lanes, L => {
            self.run_all_blocks::<L, P>(pts, costs, rows.as_deref_mut())
        });
        // The ragged tail.
        for (i, p) in pts.iter().enumerate().skip(start) {
            let c = &mut costs[i * n_models..(i + 1) * n_models];
            let o = match rows.as_deref_mut() {
                Some(rows) => &mut rows[i * width..(i + 1) * width],
                None => &mut self.buf.out_row[..],
            };
            fleet.eval_all_into(p.as_ref(), &mut self.buf.scratch, c, o);
        }
    }

    /// Sweeps every full `L`-wide block of `pts` through the whole
    /// arena, returning the number of points processed.
    fn run_all_blocks<const L: usize, P: AsRef<[f64]>>(
        &mut self,
        pts: &[P],
        costs: &mut [f64],
        mut rows: Option<&mut [f64]>,
    ) -> usize {
        let fleet = self.fleet;
        let n_models = fleet.n_models();
        let width = fleet.total_outputs();
        let mut start = 0;
        while start + L <= pts.len() {
            let block = &pts[start..start + L];
            self.buf.file.load::<L, P>(&fleet.tape, block);
            let mut timer = crate::profile::OpTimer::new();
            for slot in 0..fleet.tape.n_ops() {
                self.buf.file.sweep_op::<L, P>(&fleet.tape, slot, block);
                timer.lap(
                    &fleet.tape.profiler,
                    fleet.tape.ops[slot].kind_index(),
                    crate::profile::PATH_SOA,
                    crate::profile::SWEEP_FORWARD,
                    L as u64,
                );
            }
            let out = match rows.as_deref_mut() {
                Some(rows) => &mut rows[start * width..(start + L) * width],
                None => &mut self.buf.lane_rows[..],
            };
            // Per lane, models read their output ranges in model order —
            // the scalar `eval_all_into` reduction exactly. Each model's
            // columns scatter into the flat width-strided output row.
            for model in 0..n_models {
                let range = fleet.output_range(model);
                self.buf.lane_costs.fill(0.0);
                self.buf.file.read_outputs_strided::<L>(
                    &fleet.tape,
                    range.clone(),
                    width,
                    range.start,
                    &mut self.buf.lane_costs,
                    out,
                );
                for lane in 0..L {
                    costs[(start + lane) * n_models + model] = self.buf.lane_costs[lane];
                }
            }
            start += L;
        }
        start
    }

    /// Evaluates one model at every point of `pts` through its
    /// reachability mask, writing one cost per point.
    fn run_model<P: AsRef<[f64]>>(&mut self, model: usize, pts: &[P], costs: &mut [f64]) {
        if faultinject::should_fail(faultinject::sites::FLEET_CHUNK) {
            panic!("fault injected: fleet.chunk");
        }
        let start =
            dispatch_lanes!(self.lanes, L => self.run_model_blocks::<L, P>(model, pts, costs));
        let fleet = self.fleet;
        let n_out = fleet.n_outputs(model);
        for (p, c) in pts.iter().zip(costs.iter_mut()).skip(start) {
            *c = fleet.eval_model_into(
                model,
                p.as_ref(),
                &mut self.buf.scratch,
                &mut self.buf.out_row[..n_out],
            );
        }
    }

    /// Evaluates one model's cost + gradient at every point of `pts`
    /// through its reachability mask, writing one cost per point and
    /// the point-major gradient rows.
    fn run_model_grad<P: AsRef<[f64]>>(
        &mut self,
        model: usize,
        pts: &[P],
        costs: &mut [f64],
        grads: &mut [f64],
    ) {
        if faultinject::should_fail(faultinject::sites::FLEET_CHUNK) {
            panic!("fault injected: fleet.chunk");
        }
        let start = dispatch_lanes!(self.lanes, L => {
            self.run_model_grad_blocks::<L, P>(model, pts, costs, grads)
        });
        let fleet = self.fleet;
        let n_out = fleet.n_outputs(model);
        let dim = fleet.n_inputs();
        for (i, p) in pts.iter().enumerate().skip(start) {
            costs[i] = fleet.eval_model_grad_into(
                model,
                p.as_ref(),
                &mut self.buf.ws,
                &mut self.buf.out_row[..n_out],
                &mut grads[i * dim..(i + 1) * dim],
            );
        }
    }

    /// Sweeps every full `L`-wide block of `pts` through one model's
    /// masked SoA forward + adjoint sweeps, returning the number of
    /// points processed.
    fn run_model_grad_blocks<const L: usize, P: AsRef<[f64]>>(
        &mut self,
        model: usize,
        pts: &[P],
        costs: &mut [f64],
        grads: &mut [f64],
    ) -> usize {
        let fleet = self.fleet;
        let range = fleet.output_range(model);
        let n_out = range.len();
        let dim = fleet.n_inputs();
        let mut start = 0;
        while start + L <= pts.len() {
            let block = &pts[start..start + L];
            self.buf.file.load::<L, P>(&fleet.tape, block);
            let mut timer = crate::profile::OpTimer::new();
            for &slot in fleet.masks[model].iter() {
                self.buf
                    .file
                    .sweep_op::<L, P>(&fleet.tape, slot as usize, block);
                timer.lap(
                    &fleet.tape.profiler,
                    fleet.tape.ops[slot as usize].kind_index(),
                    crate::profile::PATH_SOA,
                    crate::profile::SWEEP_FORWARD,
                    L as u64,
                );
            }
            self.buf.file.read_outputs::<L>(
                &fleet.tape,
                range.clone(),
                &mut costs[start..start + L],
                &mut self.buf.lane_rows[..L * n_out],
            );
            self.buf.adj.reset(fleet.tape.scratch_len() * L);
            self.buf.adj.seed::<L>(&fleet.tape, range.clone());
            let mut timer = crate::profile::OpTimer::new();
            for &slot in fleet.masks[model].iter().rev() {
                self.buf.adj.backward_slot_block::<L>(
                    &fleet.tape,
                    slot as usize,
                    self.buf.file.regs(),
                );
                timer.lap(
                    &fleet.tape.profiler,
                    fleet.tape.ops[slot as usize].kind_index(),
                    crate::profile::PATH_SOA,
                    crate::profile::SWEEP_ADJOINT,
                    L as u64,
                );
            }
            crate::grad::record_adjoint_sweeps(L as u64);
            self.buf
                .adj
                .grad_rows::<L>(dim, &mut grads[start * dim..(start + L) * dim]);
            start += L;
        }
        start
    }

    /// Sweeps every full `L`-wide block of `pts` through one model's
    /// reachability mask, returning the number of points processed.
    fn run_model_blocks<const L: usize, P: AsRef<[f64]>>(
        &mut self,
        model: usize,
        pts: &[P],
        costs: &mut [f64],
    ) -> usize {
        let fleet = self.fleet;
        let range = fleet.output_range(model);
        let n_out = range.len();
        let mut start = 0;
        while start + L <= pts.len() {
            let block = &pts[start..start + L];
            self.buf.file.load::<L, P>(&fleet.tape, block);
            let mut timer = crate::profile::OpTimer::new();
            for &slot in fleet.masks[model].iter() {
                self.buf
                    .file
                    .sweep_op::<L, P>(&fleet.tape, slot as usize, block);
                timer.lap(
                    &fleet.tape.profiler,
                    fleet.tape.ops[slot as usize].kind_index(),
                    crate::profile::PATH_SOA,
                    crate::profile::SWEEP_FORWARD,
                    L as u64,
                );
            }
            self.buf.file.read_outputs::<L>(
                &fleet.tape,
                range.clone(),
                &mut costs[start..start + L],
                &mut self.buf.lane_rows[..L * n_out],
            );
            start += L;
        }
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::TapeBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use safety_opt_stats::dist::TruncatedNormal;

    /// Lowers one "sampled model" (Elbtunnel-shaped, two hazards) whose
    /// varying constants are `(rate, crit)`.
    fn lower_sample(b: &mut TapeBuilder, rate: f64, crit: f64) {
        let d = TruncatedNormal::lower_bounded(4.0, 2.0, 0.0).unwrap();
        let t1 = b.input(0);
        let t2 = b.input(1);
        let ot1 = b.overtime(&d, t1);
        let not1 = b.complement(ot1);
        let ot2 = b.overtime(&d, t2);
        let critv = b.constant(crit);
        let cs1 = b.product([critv, ot1]);
        let cs2 = b.product([critv, not1, ot2]);
        let collision = b.sum_clamped(1e-8, [cs1, cs2]);
        let e = b.exposure(rate, t2);
        let half = b.constant(0.5);
        let alarm_cs = b.product([half, e]);
        let alarm = b.sum_clamped(0.0, [alarm_cs]);
        b.output(collision, 100_000.0);
        b.output(alarm, 1.0);
    }

    fn family(n: usize) -> (Fleet, Vec<Tape>) {
        let mut fb = FleetBuilder::new(2);
        let mut tapes = Vec::new();
        for k in 0..n {
            let rate = 0.10 + 0.01 * k as f64;
            lower_sample(fb.lowerer(), rate, 1e-3);
            fb.finish_model();
            let mut sb = TapeBuilder::new(2);
            lower_sample(&mut sb, rate, 1e-3);
            tapes.push(sb.build());
        }
        (fb.build(), tapes)
    }

    fn points(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| vec![5.0 + rng.gen::<f64>() * 25.0, 5.0 + rng.gen::<f64>() * 25.0])
            .collect()
    }

    #[test]
    fn cross_model_hash_consing_shares_ops() {
        let (fleet, tapes) = family(8);
        let per_model: usize = tapes.iter().map(Tape::n_ops).sum();
        // Only the alarm exposure + product + sum vary per model; the
        // collision subtree (and its constants) is shared by all eight.
        assert!(
            fleet.tape().n_ops() < per_model / 2,
            "arena {} ops vs {} per-model",
            fleet.tape().n_ops(),
            per_model
        );
        assert!(fleet.sharing() > 0.5);
        for (k, tape) in tapes.iter().enumerate() {
            assert_eq!(fleet.model_ops(k), tape.n_ops(), "model {k} mask size");
        }
    }

    #[test]
    fn masked_eval_is_bit_identical_to_standalone_tapes() {
        let (fleet, tapes) = family(5);
        let mut scratch = Vec::new();
        for p in points(50, 1) {
            for (k, tape) in tapes.iter().enumerate() {
                let mut fleet_out = vec![0.0; 2];
                let mut tape_out = vec![0.0; 2];
                let fc = fleet.eval_model_into(k, &p, &mut scratch, &mut fleet_out);
                let tc = tape.eval_into(&p, &mut Vec::new(), &mut tape_out);
                assert_eq!(fc.to_bits(), tc.to_bits(), "cost of model {k} at {p:?}");
                assert_eq!(fleet_out, tape_out);
            }
        }
    }

    #[test]
    fn full_sweep_matches_masked_eval() {
        let (fleet, _) = family(4);
        let mut scratch = Vec::new();
        for p in points(20, 2) {
            let mut costs = vec![0.0; 4];
            let mut outputs = vec![0.0; fleet.total_outputs()];
            fleet.eval_all_into(&p, &mut scratch, &mut costs, &mut outputs);
            for k in 0..4 {
                let mut out = vec![0.0; 2];
                let c = fleet.eval_model_into(k, &p, &mut Vec::new(), &mut out);
                assert_eq!(c.to_bits(), costs[k].to_bits());
                assert_eq!(&outputs[fleet.output_range(k)], out.as_slice());
            }
        }
    }

    #[test]
    fn evaluator_is_thread_count_independent() {
        let (fleet, _) = family(3);
        let pts = points(700, 3);
        let reference = FleetEvaluator::new(&fleet, 1).costs_all(&pts).unwrap();
        let (ref_costs, ref_outputs) = FleetEvaluator::new(&fleet, 1)
            .costs_and_outputs_all(&pts)
            .unwrap();
        assert_eq!(reference, ref_costs);
        for threads in [2, 3, 8] {
            let ev = FleetEvaluator::new(&fleet, threads).chunk_size(13);
            assert_eq!(
                ev.costs_all(&pts).unwrap(),
                reference,
                "threads = {threads}"
            );
            let (c, o) = ev.costs_and_outputs_all(&pts).unwrap();
            assert_eq!(c, ref_costs);
            assert_eq!(o, ref_outputs);
            for model in 0..3 {
                let mc = ev.model_costs(model, &pts).unwrap();
                for (i, &v) in mc.iter().enumerate() {
                    assert_eq!(v.to_bits(), reference[i * 3 + model].to_bits());
                }
            }
        }
    }

    #[test]
    fn soa_backend_is_bit_identical_to_scalar() {
        let (fleet, _) = family(3);
        let pts = points(701, 5); // odd: exercises the ragged tail
        let mut scratch = Vec::new();
        let mut ref_c = vec![0.0; pts.len() * 3];
        let mut ref_o = vec![0.0; pts.len() * fleet.total_outputs()];
        for ((p, c), o) in pts
            .iter()
            .zip(ref_c.chunks_mut(3))
            .zip(ref_o.chunks_mut(fleet.total_outputs()))
        {
            fleet.eval_all_into(p, &mut scratch, c, o);
        }
        for lanes in [1, 4, 8, 5] {
            for threads in [1, 2] {
                let ev = FleetEvaluator::new(&fleet, threads)
                    .chunk_size(23)
                    .lanes(lanes);
                let (c, o) = ev.costs_and_outputs_all(&pts).unwrap();
                assert_eq!(c, ref_c, "costs, lanes {lanes}, {threads} threads");
                assert_eq!(o, ref_o, "outputs, lanes {lanes}, {threads} threads");
                assert_eq!(ev.costs_all(&pts).unwrap(), ref_c);
                for model in 0..3 {
                    let mc = ev.model_costs(model, &pts).unwrap();
                    for (i, &v) in mc.iter().enumerate() {
                        assert_eq!(v.to_bits(), ref_c[i * 3 + model].to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn masked_gradients_are_bit_identical_to_standalone_tapes() {
        let (fleet, tapes) = family(4);
        let pts = points(151, 7); // odd: exercises the ragged tail
        for (k, tape) in tapes.iter().enumerate() {
            let (ref_c, ref_g): (Vec<f64>, Vec<Vec<f64>>) =
                pts.iter().map(|p| tape.eval_grad(p)).unzip();
            let ref_g = ref_g.concat();
            for threads in [1, 3] {
                let (c, g) = FleetEvaluator::new(&fleet, threads)
                    .chunk_size(23)
                    .lanes(8)
                    .model_grads(k, &pts)
                    .unwrap();
                assert_eq!(
                    c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    ref_c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "costs of model {k}, {threads} threads"
                );
                assert_eq!(
                    g.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    ref_g.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "grads of model {k}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn empty_batches_and_fleets_are_fine() {
        let (fleet, _) = family(2);
        let none: Vec<Vec<f64>> = Vec::new();
        assert!(FleetEvaluator::new(&fleet, 4)
            .costs_all(&none)
            .unwrap()
            .is_empty());
        let (c, o) = FleetEvaluator::new(&fleet, 4)
            .costs_and_outputs_all(&none)
            .unwrap();
        assert!(c.is_empty() && o.is_empty());

        let empty = FleetBuilder::new(1).build();
        assert_eq!(empty.n_models(), 0);
        assert_eq!(empty.total_outputs(), 0);
    }

    #[test]
    #[should_panic(expected = "outputs declared after the last finish_model")]
    fn unfinished_model_is_rejected() {
        let mut fb = FleetBuilder::new(1);
        let h = fb.lowerer().exposure(0.1, Value::Const(1.0));
        fb.lowerer().output(h, 1.0);
        fb.build();
    }

    #[test]
    fn constant_only_models_work() {
        let mut fb = FleetBuilder::new(1);
        for p in [0.25, 0.5] {
            let b = fb.lowerer();
            let h = b.sum_clamped(p, []);
            b.output(h, 2.0);
            fb.finish_model();
        }
        let fleet = fb.build();
        assert_eq!(fleet.tape().n_ops(), 0);
        let costs = FleetEvaluator::new(&fleet, 1).costs_all(&[[0.0]]).unwrap();
        assert_eq!(costs, vec![0.5, 1.0]);
    }
}
