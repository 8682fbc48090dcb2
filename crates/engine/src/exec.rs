//! Lane-blocked structure-of-arrays (SoA) sweeps of a compiled [`Tape`].
//!
//! The batch runner (see [`crate::batch`]) sweeps a tape
//! **op-at-a-time** over a block of points: the scratch becomes a
//! lane-blocked register file (`[n_regs × LANES]`, register-major), and
//! each op processes a whole block of points before the next op runs.
//! One forward loop serves every caller: it visits the op slots it is
//! given — every op of a tape, or one fleet model's reachability mask —
//! generic over the slot source, so neither form pays a per-op branch.
//! The per-op dispatch (enum match, argument-table walk, bounds checks)
//! amortizes over the block, and the lane loops are monomorphized over
//! the block width so the fused n-ary product/sum kernels compile to
//! fully unrolled, vectorizable straight-line code. An [`Op::Chain`]
//! keeps its running value in a local lane block across all its Shannon
//! steps and writes only its result to the register file; the
//! gradient's forward pass also keeps each step's incoming value for
//! the chain VJP. When fewer points than the lane count remain, the
//! runner narrows the block to the widest width that fits, so at most
//! one point per chunk falls back to the point-at-a-time sweep
//! ([`Tape::eval_into`]); opaque [`Op::Closure`] ops run per point
//! inside a block.
//!
//! Determinism contract: for every point the lane-blocked sweep
//! performs **the same floating-point operations in the same order** as
//! the point-at-a-time sweep — per lane, products multiply in argument
//! order, sums accumulate in argument order, and outputs reduce in
//! declaration order — so results are **bit-identical** to
//! [`Tape::eval_into`] for every lane count, thread count, and chunk
//! size (enforced by the `soa_equivalence` property suite).

use crate::tape::{ChainStep, Op, Reg, Slots, StepRange, Tape, Value};
use std::ops::Range;

use safety_opt_telemetry as telemetry;

/// Points an SoA block sweep pushed through the scalar `Closure`
/// fallback (the op is opaque, so the lane block degrades to a per-point
/// loop — see the one-time warning at the `profile` level).
static CLOSURE_SOA_FALLBACK: telemetry::Counter =
    telemetry::Counter::new("engine.exec.closure_soa_fallback");

/// Warns once per process that an SoA sweep hit an opaque `Closure` op.
/// Only at the `profile` telemetry level: the degradation is correct (the
/// fallback is the point-at-a-time sweep's exact code path), it just
/// costs the lane-block speedup for that op, which users chasing SoA
/// throughput deserve to hear about exactly once.
fn warn_closure_fallback_once(lanes: usize) {
    static WARN: std::sync::Once = std::sync::Once::new();
    static TRACE_WARN: std::sync::Once = std::sync::Once::new();
    // Machine-visible twin of the stderr diagnostic (its own latch, so
    // it fires at the `events` level, where stderr stays quiet).
    if telemetry::events_enabled() {
        TRACE_WARN.call_once(|| {
            telemetry::trace::trace_instant(
                telemetry::EventKind::Warning,
                "engine.exec.closure_soa_fallback",
                lanes as u64,
            );
        });
    }
    if telemetry::profile_enabled() {
        WARN.call_once(|| {
            eprintln!(
                "safety-opt telemetry: SoA sweep hit an opaque Closure op; \
                 falling back to a per-point loop for that op ({lanes} lanes \
                 degraded — lower a named op instead of a closure to keep \
                 the block sweep; counted as engine.exec.closure_soa_fallback)"
            );
        });
    }
}

/// Default lane-block width of the SoA sweeps (points per op sweep).
pub const DEFAULT_LANES: usize = 16;

/// Rounds a requested lane count down to the nearest monomorphized
/// block width (1, 2, 4, 8, or 16 — the [`dispatch_lanes!`] arms).
/// Results are bit-identical for every width — lanes are fully
/// independent — so the rounding is purely a code-size/performance
/// trade-off.
pub(crate) fn supported_lanes(requested: usize) -> usize {
    match requested {
        0..=1 => 1,
        2..=3 => 2,
        4..=7 => 4,
        8..=15 => 8,
        _ => 16,
    }
}

/// Expands `$body` with the const `$L` bound to the monomorphized lane
/// width matching `$lanes` — the single list of supported widths, which
/// the batch runner's block loop dispatches on. `$lanes` must come from
/// [`supported_lanes`]; anything else is a bug and fails loudly rather
/// than silently degrading to a narrower block.
macro_rules! dispatch_lanes {
    ($lanes:expr, $L:ident => $body:expr) => {
        match $lanes {
            16 => {
                const $L: usize = 16;
                $body
            }
            8 => {
                const $L: usize = 8;
                $body
            }
            4 => {
                const $L: usize = 4;
                $body
            }
            2 => {
                const $L: usize = 2;
                $body
            }
            1 => {
                const $L: usize = 1;
                $body
            }
            other => unreachable!("lane width {other} has no monomorphized block sweep"),
        }
    };
}
pub(crate) use dispatch_lanes;

/// Lane-blocked SoA register file: register `r`'s value for lane `l`
/// lives at `r * L + l`, inputs first, then one row per op, then one row
/// per later chain step (written only by the gradient's forward pass) —
/// the structure-of-arrays transpose of [`Tape::eval_into`]'s scratch. All
/// methods are monomorphized over the block width `L` so every lane
/// loop has a compile-time trip count.
#[derive(Debug, Default)]
pub(crate) struct LaneFile {
    regs: Vec<f64>,
}

impl LaneFile {
    /// The raw lane-blocked register file (`[n_regs × L]`,
    /// register-major) — read by the SoA adjoint sweep, which keeps the
    /// forward values while accumulating adjoints in its own file.
    pub(crate) fn regs(&self) -> &[f64] {
        &self.regs
    }

    /// The SoA forward sweep of one full block of `L` points: loads
    /// them into the input registers, (re)sizing the file for `tape`'s
    /// registers only when its length changes, then sweeps the op
    /// `slots` across the block in order. With `KEEP` (the gradient's
    /// forward pass) the file also gets the chain-step rows that
    /// [`sweep_op`](Self::sweep_op) writes with `KEEP`.
    ///
    /// # Panics
    ///
    /// Panics if any point's arity mismatches the tape.
    pub(crate) fn forward<const L: usize, const KEEP: bool, S: Slots, P: AsRef<[f64]>>(
        &mut self,
        tape: &Tape,
        slots: S,
        points: &[P],
    ) {
        debug_assert_eq!(points.len(), L);
        let rows = if KEEP {
            tape.scratch_len()
        } else {
            tape.n_regs()
        };
        self.regs.resize(rows * L, 0.0);
        for (lane, p) in points.iter().enumerate() {
            let x = p.as_ref();
            assert_eq!(x.len(), tape.n_inputs, "input arity mismatch");
            for (i, &v) in x.iter().enumerate() {
                self.regs[i * L + lane] = v;
            }
        }
        let mut timer = crate::profile::OpTimer::new();
        for i in 0..slots.n_slots() {
            let slot = slots.slot(i);
            self.sweep_op::<L, KEEP, P>(tape, slot, points);
            timer.lap(
                &tape.profiler,
                &tape.ops[slot],
                crate::profile::PATH_SOA,
                crate::profile::SWEEP_FORWARD,
                L as u64,
            );
        }
    }

    /// Sweeps op `slot` across the whole lane block. `points` carries
    /// the original input rows for the [`Op::Closure`] scalar fallback.
    /// With `KEEP` (the gradient's forward pass, on a file loaded with
    /// `KEEP`) a chain also stores the running value entering each later
    /// step in the step's row, after the op registers, for the chain VJP.
    fn sweep_op<const L: usize, const KEEP: bool, P: AsRef<[f64]>>(
        &mut self,
        tape: &Tape,
        slot: usize,
        points: &[P],
    ) {
        let out_base = (tape.n_inputs + slot) * L;
        // Ops only read registers of strictly earlier slots, so the
        // split hands the compiler provably disjoint read/write slices.
        let (prior, rest) = self.regs.split_at_mut(out_base);
        let (out, later) = rest.split_at_mut(L);
        let out: &mut [f64; L] = out.try_into().expect("lane block");
        let arg = |r: Reg| -> &[f64; L] {
            prior[r.index() * L..r.index() * L + L]
                .try_into()
                .expect("lane block")
        };
        match &tape.ops[slot] {
            Op::Exposure { rate, t } => {
                let t = arg(*t);
                for l in 0..L {
                    out[l] = -(-rate * t[l].max(0.0)).exp_m1();
                }
            }
            Op::Overtime { sf, x } => {
                sf.eval_block::<L>(arg(*x), out);
            }
            Op::Closure { f } => {
                // Scalar fallback: opaque functions see one full input
                // row at a time, exactly like the point-at-a-time sweep.
                CLOSURE_SOA_FALLBACK.add(L as u64);
                warn_closure_fallback_once(L);
                for (o, p) in out.iter_mut().zip(points) {
                    *o = f(p.as_ref());
                }
            }
            Op::Complement { x } => {
                let x = arg(*x);
                for l in 0..L {
                    out[l] = 1.0 - x[l];
                }
            }
            Op::Scale { c, x } => {
                let x = arg(*x);
                for l in 0..L {
                    out[l] = c * x[l];
                }
            }
            Op::Product { c, args } => {
                // Per lane the factors multiply in argument order — the
                // point-at-a-time sweep's exact sequence, loop-interchanged.
                let mut acc = [*c; L];
                for &r in tape.arg_slice(*args) {
                    let v = arg(r);
                    for l in 0..L {
                        acc[l] *= v[l];
                    }
                }
                *out = acc;
            }
            Op::SumClamp { bias, args } => {
                let mut acc = [*bias; L];
                for &r in tape.arg_slice(*args) {
                    let v = arg(r);
                    for l in 0..L {
                        acc[l] += v[l];
                    }
                }
                for l in 0..L {
                    // Branch instead of f64::min so NaN propagates,
                    // mirroring the scalar kernel.
                    out[l] = if acc[l] > 1.0 { 1.0 } else { acc[l] };
                }
            }
            Op::Chain { p, hi, lo, steps } => {
                // Constants broadcast across the block; per lane the
                // multiply/complement/multiply/add sequence is exactly
                // the scalar kernel's, so results stay bit-identical.
                let block = |v: Value| -> [f64; L] {
                    match v {
                        Value::Const(c) => [c; L],
                        Value::Reg(r) => *arg(r),
                    }
                };
                let pv = block(*p);
                let hv = block(*hi);
                let lv = block(*lo);
                for l in 0..L {
                    out[l] = pv[l] * hv[l] + (1.0 - pv[l]) * lv[l];
                }
                if !steps.is_empty() {
                    // Step rows follow the op registers: `later` starts
                    // one row after this op's.
                    let step_base = tape.n_regs() * L - out_base - L;
                    let step_rows = &mut later[step_base..];
                    sweep_chain_steps::<L, KEEP>(tape, out, *steps, prior, step_rows);
                }
            }
        }
    }

    /// Reads the declared outputs in `range` for every lane: lane `l`'s
    /// value for the `j`-th output of `range` goes to
    /// `outputs[l * row_stride + col_offset + j]`, and its weighted sum
    /// **accumulates** into `costs[l]` in declaration order (callers
    /// zero `costs` first) — per lane the point-at-a-time reduction
    /// exactly.
    pub(crate) fn read_outputs<const L: usize>(
        &self,
        tape: &Tape,
        range: Range<usize>,
        row_stride: usize,
        col_offset: usize,
        costs: &mut [f64],
        outputs: &mut [f64],
    ) {
        for (j, (value, w)) in tape.outputs[range.clone()]
            .iter()
            .zip(&tape.weights[range])
            .enumerate()
        {
            let col = col_offset + j;
            match value {
                Value::Const(c) => {
                    for lane in 0..L {
                        outputs[lane * row_stride + col] = *c;
                        costs[lane] += *c * *w;
                    }
                }
                Value::Reg(r) => {
                    let v: &[f64; L] = self.regs[r.index() * L..r.index() * L + L]
                        .try_into()
                        .expect("lane block");
                    for lane in 0..L {
                        outputs[lane * row_stride + col] = v[lane];
                        costs[lane] += v[lane] * *w;
                    }
                }
            }
        }
    }
}

/// A chain's later steps swept across the lane block, from the first
/// node's value in `out` to the chain's value in `out`. Per lane each
/// step's multiply/complement/multiply/add sequence is exactly the scalar
/// kernel's, so results stay bit-identical. The running value stays in
/// a local; with `KEEP` each step's incoming value also goes to its row
/// of `step_rows` (the file's chain-step rows). Kept out of line so the
/// per-op dispatch of [`LaneFile::sweep_op`] stays small for the
/// one-node ops.
#[inline(never)]
fn sweep_chain_steps<const L: usize, const KEEP: bool>(
    tape: &Tape,
    out: &mut [f64; L],
    steps: StepRange,
    prior: &[f64],
    step_rows: &mut [f64],
) {
    let block = |v: Value| -> [f64; L] {
        match v {
            Value::Const(c) => [c; L],
            Value::Reg(r) => prior[r.index() * L..r.index() * L + L]
                .try_into()
                .expect("lane block"),
        }
    };
    let mut acc = *out;
    for (i, step) in tape.chain_steps(steps).iter().enumerate() {
        if KEEP {
            let row = (steps.start() + i) * L;
            step_rows[row..row + L].copy_from_slice(&acc);
        }
        match *step {
            ChainStep::Or { p } => {
                let pv = block(p);
                for l in 0..L {
                    acc[l] = pv[l] + (1.0 - pv[l]) * acc[l];
                }
            }
            ChainStep::Hi { p, lo } => {
                let (pv, lv) = (block(p), block(lo));
                for l in 0..L {
                    acc[l] = pv[l] * acc[l] + (1.0 - pv[l]) * lv[l];
                }
            }
            ChainStep::Lo { p, hi } => {
                let (pv, hv) = (block(p), block(hi));
                for l in 0..L {
                    acc[l] = pv[l] * hv[l] + (1.0 - pv[l]) * acc[l];
                }
            }
        }
    }
    *out = acc;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_widths_round_down_to_supported_blocks() {
        assert_eq!(supported_lanes(0), 1);
        assert_eq!(supported_lanes(1), 1);
        assert_eq!(supported_lanes(3), 2);
        assert_eq!(supported_lanes(5), 4);
        assert_eq!(supported_lanes(8), 8);
        assert_eq!(supported_lanes(9), 8);
        assert_eq!(supported_lanes(16), 16);
        assert_eq!(supported_lanes(1000), 16);
    }
}
