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
//! A fleet adds no sweep loop of its own: the arena is a [`Tape`], and
//! both forms run the tape's sweep loops and the batch runner of
//! [`crate::batch`] on a different set of op slots — every arena op
//! reduced into one cost per model, or one model's mask reduced into
//! its cost.
//!
//! Shannon chains fuse per model: each model's nodes merge into
//! [`Op::Chain`]s exactly as its standalone build would merge them, and
//! the arena holds the hash-consed union of the models' fused ops (a
//! node two models share but feed into different nodes is merged into
//! both models' chains). So every model sweeps the op set of its
//! standalone tape.
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

use crate::batch::{Pool, Sweep, SweepBuffers};
use crate::error::{EngineError, EvalDeadline};
use crate::exec::supported_lanes;
use crate::faultinject;
use crate::grad::GradWorkspace;
use crate::tape::{ModelOps, Op, Slots, Tape, TapeBuilder, Value};
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
    /// Per finished model: its op slots in its standalone build order
    /// (the plan of its chain fusion).
    orders: Vec<Vec<u32>>,
}

impl FleetBuilder {
    /// Starts a fleet whose models all take `n_inputs` coordinates.
    pub fn new(n_inputs: usize) -> Self {
        Self {
            tape: TapeBuilder::new(n_inputs),
            output_ends: Vec::new(),
            orders: Vec::new(),
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
        self.orders.push(self.tape.model_order());
        self.tape.reset_model_order();
        self.output_ends.len() - 1
    }

    /// Discards the model currently being built (outputs declared since
    /// the last boundary are dropped) — rollback for callers that
    /// tolerate per-model lowering failures. Ops only the aborted model
    /// demanded are left out of the arena.
    pub fn abort_model(&mut self) {
        let keep = self.output_ends.last().copied().unwrap_or(0) as usize;
        self.tape.truncate_outputs(keep);
        self.tape.reset_model_order();
    }

    /// Finalizes the fleet: fuses each model's Shannon chains as its
    /// standalone build would (a node two models share but feed into
    /// different nodes is merged into both models' chains), hash-conses
    /// the fused ops across models into the arena, and computes each
    /// model's reachability mask.
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
        let mut start = 0;
        let models: Vec<ModelOps> = self
            .orders
            .into_iter()
            .zip(&self.output_ends)
            .map(|(order, &end)| {
                let outputs = start..end as usize;
                start = end as usize;
                ModelOps { order, outputs }
            })
            .collect();
        let tape = self.tape.build_models(&models);
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
                    Op::Chain { p, hi, lo, steps } => {
                        let later = tape.chain_steps(*steps);
                        let operands = later.iter().flat_map(|s| [s.p(), s.other()]);
                        for v in [*p, *hi, *lo].into_iter().chain(operands) {
                            if let Value::Reg(r) = v {
                                mark(r);
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
        self.tape.forward(&self.masks[model][..], x, scratch);
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
        let cost = self.eval_model_into(model, x, &mut ws.scratch, outputs);
        let mask = &self.masks[model][..];
        self.tape.backward(mask, self.output_range(model), ws, grad);
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
        let sweep = self.sweep_all();
        self.tape.forward(sweep.slots.clone(), x, scratch);
        sweep.reduce(scratch, costs, outputs);
    }

    /// The whole-arena sweep reducing every model's outputs: one cost
    /// per model per point.
    fn sweep_all(&self) -> Sweep<'_, Range<usize>> {
        Sweep {
            tape: &self.tape,
            slots: 0..self.tape.n_ops(),
            start: 0,
            ends: &self.output_ends,
            failpoint: faultinject::sites::FLEET_CHUNK,
        }
    }

    /// `model`'s masked sweep reducing its outputs: one cost per point.
    fn sweep_model(&self, model: usize) -> Sweep<'_, &[u32]> {
        Sweep {
            tape: &self.tape,
            slots: &self.masks[model],
            start: self.output_range(model).start,
            ends: &self.output_ends[model..=model],
            failpoint: faultinject::sites::FLEET_CHUNK,
        }
    }
}

/// Parallel fleet evaluation on the same deterministic chunked pool and
/// the same sweep runner as [`crate::batch::BatchEvaluator`]: points are
/// cut into fixed-length chunks assigned to workers round-robin, each
/// point's results go to its own output indices, so results are
/// bit-identical for every thread count. The all-models methods sweep
/// the whole arena and reduce every model's outputs; the one-model
/// methods sweep that model's reachability mask. Within a chunk, lane
/// blocks that narrow as fewer points remain run the lane-blocked SoA
/// sweeps (see [`crate::exec`]) and the one point left over, if any,
/// the point-at-a-time sweep — also bit-identical by construction.
///
/// Every entry point is fallible, with the same panic-isolation,
/// deadline, all-or-nothing and lowest-chunk-wins contract as
/// [`crate::batch::BatchEvaluator`].
#[derive(Debug, Clone)]
pub struct FleetEvaluator<'f> {
    fleet: &'f Fleet,
    pool: Pool,
    scratch: Option<&'f FleetScratch>,
}

impl<'f> FleetEvaluator<'f> {
    /// Creates an evaluator with `threads` workers (`threads = 1`
    /// evaluates inline with zero spawn overhead).
    pub fn new(fleet: &'f Fleet, threads: usize) -> Self {
        Self {
            fleet,
            pool: Pool::new(threads),
            scratch: None,
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
        self.pool.deadline = Some(deadline);
        self
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.pool.threads
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
        let mut costs = vec![0.0; points.len() * self.fleet.n_models()];
        self.run(&self.fleet.sweep_all(), points, &mut costs, None, None)?;
        Ok(costs)
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
        let mut costs = vec![0.0; points.len() * self.fleet.n_models()];
        let mut outputs = vec![0.0; points.len() * self.fleet.total_outputs()];
        let sweep = self.fleet.sweep_all();
        self.run(&sweep, points, &mut costs, Some(&mut outputs), None)?;
        Ok((costs, outputs))
    }

    /// Costs of **one model** at every point through its reachability
    /// mask — bit-identical to that model's standalone
    /// [`crate::batch::BatchEvaluator`] for every thread count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`costs_all`](Self::costs_all).
    ///
    /// # Panics
    ///
    /// Panics if `model` is not below [`Fleet::n_models`].
    pub fn model_costs<P: AsRef<[f64]> + Sync>(
        &self,
        model: usize,
        points: &[P],
    ) -> Result<Vec<f64>, EngineError> {
        let mut costs = vec![0.0; points.len()];
        self.run(
            &self.fleet.sweep_model(model),
            points,
            &mut costs,
            None,
            None,
        )?;
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
    ///
    /// # Panics
    ///
    /// Panics if `model` is not below [`Fleet::n_models`].
    pub fn model_grads<P: AsRef<[f64]> + Sync>(
        &self,
        model: usize,
        points: &[P],
    ) -> Result<(Vec<f64>, Vec<f64>), EngineError> {
        let mut costs = vec![0.0; points.len()];
        let mut grads = vec![0.0; points.len() * self.fleet.n_inputs()];
        let sweep = self.fleet.sweep_model(model);
        self.run(&sweep, points, &mut costs, None, Some(&mut grads))?;
        Ok((costs, grads))
    }

    /// Runs `sweep` through [`Pool::run`]. The inline path runs on the
    /// buffers of the [`reuse_scratch`](Self::reuse_scratch) slot when
    /// one is set and puts them back only after every chunk succeeded:
    /// on an error or caught panic they are dropped instead.
    fn run<S: Slots, P: AsRef<[f64]> + Sync>(
        &self,
        sweep: &Sweep<'_, S>,
        points: &[P],
        costs: &mut [f64],
        rows: Option<&mut [f64]>,
        grads: Option<&mut [f64]>,
    ) -> Result<(), EngineError> {
        let buffers = || self.scratch.map(FleetScratch::take).unwrap_or_default();
        let inline = self.pool.run(sweep, points, buffers, costs, rows, grads)?;
        if let (Some(slot), Some(buf)) = (self.scratch, inline) {
            slot.put(buf);
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
