//! The chunked-pool contract of every fallible batch entry point, table
//! driven. On a batch of several chunks, at 1, 2 and 4 threads, every
//! `try_*` method of [`BatchEvaluator`] and [`FleetEvaluator`] must
//!
//! * fail an already-expired deadline with `DeadlineExceeded` naming
//!   chunk 0 (the lowest failing chunk wins),
//! * fail a wrong-arity point with a typed `WorkerPanicked` naming that
//!   point's chunk, and
//! * succeed on the same batch without the fault.
//!
//! The table includes the shapes whose output rows have width 0 — a
//! tape and a fleet with no outputs, a tape and a fleet with no inputs —
//! so no entry point can skip chunks just because a row buffer is
//! empty.

use safety_opt_engine::fleet::{Fleet, FleetBuilder, FleetEvaluator};
use safety_opt_engine::{BatchEvaluator, EngineError, EvalDeadline, Tape, TapeBuilder};
use std::time::Duration;

/// Points per chunk; the batch spans four chunks, the last one ragged.
const CHUNK: usize = 16;
const N: usize = 50;
/// The wrong-arity point sits in chunk 2.
const BAD: usize = 37;

/// One entry point: `(threads, points, deadline)` to its outcome.
type Call<'a> =
    Box<dyn Fn(usize, &[Vec<f64>], Option<&EvalDeadline>) -> Result<(), EngineError> + 'a>;

fn call<'a>(
    f: impl Fn(usize, &[Vec<f64>], Option<&EvalDeadline>) -> Result<(), EngineError> + 'a,
) -> Call<'a> {
    Box::new(f)
}

fn tape_calls<'a>(shape: &str, tape: &'a Tape) -> Vec<(String, Call<'a>)> {
    let ev = move |threads| BatchEvaluator::new(tape, threads).chunk_size(CHUNK);
    let calls: Vec<(&str, Call<'a>)> = vec![
        (
            "try_costs",
            call(move |t, p, d| ev(t).try_costs(p, d).map(drop)),
        ),
        (
            "try_costs_and_outputs",
            call(move |t, p, d| ev(t).try_costs_and_outputs(p, d).map(drop)),
        ),
        (
            "try_eval_grad_batch",
            call(move |t, p, d| ev(t).try_eval_grad_batch(p, d).map(drop)),
        ),
    ];
    calls
        .into_iter()
        .map(|(name, call)| (format!("{shape}: {name}"), call))
        .collect()
}

fn fleet_calls<'a>(shape: &str, fleet: &'a Fleet) -> Vec<(String, Call<'a>)> {
    let ev = move |threads| FleetEvaluator::new(fleet, threads).chunk_size(CHUNK);
    let calls: Vec<(&str, Call<'a>)> = vec![
        (
            "try_costs_all",
            call(move |t, p, d| ev(t).try_costs_all(p, d).map(drop)),
        ),
        (
            "try_costs_and_outputs_all",
            call(move |t, p, d| ev(t).try_costs_and_outputs_all(p, d).map(drop)),
        ),
        (
            "try_model_costs",
            call(move |t, p, d| ev(t).try_model_costs(0, p, d).map(drop)),
        ),
        (
            "try_model_grads",
            call(move |t, p, d| ev(t).try_model_grads(0, p, d).map(drop)),
        ),
    ];
    calls
        .into_iter()
        .map(|(name, call)| (format!("{shape}: {name}"), call))
        .collect()
}

/// Lowers one two-hazard model over `n_inputs` inputs (none: constant
/// hazards only).
fn lower(b: &mut TapeBuilder, n_inputs: usize, rate: f64) {
    let e = if n_inputs == 0 {
        b.constant(0.25)
    } else {
        let t = b.input(0);
        b.exposure(rate, t)
    };
    let half = b.constant(0.5);
    let p = b.product([half, e]);
    let h1 = b.sum_clamped(1e-4, [p]);
    let h2 = b.sum_clamped(0.0, [e]);
    b.output(h1, 100.0);
    b.output(h2, 1.0);
}

fn tape(n_inputs: usize) -> Tape {
    let mut b = TapeBuilder::new(n_inputs);
    lower(&mut b, n_inputs, 0.13);
    b.build()
}

/// Two models over `n_inputs` inputs, both without outputs unless
/// `with_outputs`.
fn fleet(n_inputs: usize, with_outputs: bool) -> Fleet {
    let mut fb = FleetBuilder::new(n_inputs);
    for rate in [0.13, 0.07] {
        if with_outputs {
            lower(fb.lowerer(), n_inputs, rate);
        }
        fb.finish_model();
    }
    fb.build()
}

/// Silences the panics this suite provokes on purpose; every other
/// panic still reports.
fn quiet_arity_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("arity mismatch") {
            default_hook(info);
        }
    }));
}

#[test]
fn every_try_entry_point_reports_the_lowest_failing_chunk() {
    quiet_arity_panics();
    let tapes = [
        ("2-input tape", tape(2)),
        ("0-output tape", TapeBuilder::new(2).build()),
        ("0-input tape", tape(0)),
    ];
    let fleets = [
        ("2-input fleet", fleet(2, true)),
        ("0-output fleet", fleet(2, false)),
        ("0-input fleet", fleet(0, true)),
    ];
    let mut table: Vec<(String, usize, Call<'_>)> = Vec::new();
    for (shape, tape) in &tapes {
        for (name, call) in tape_calls(shape, tape) {
            table.push((name, tape.n_inputs(), call));
        }
    }
    for (shape, fleet) in &fleets {
        for (name, call) in fleet_calls(shape, fleet) {
            table.push((name, fleet.n_inputs(), call));
        }
    }
    assert_eq!(
        table.len(),
        3 * 3 + 3 * 4,
        "every entry point on every shape"
    );

    let expired = EvalDeadline::after(Duration::ZERO);
    for (name, dim, call) in &table {
        let good: Vec<Vec<f64>> = (0..N).map(|i| vec![1.0 + 0.5 * i as f64; *dim]).collect();
        let mut bad = good.clone();
        bad[BAD] = vec![1.0; dim + 1];
        for threads in [1, 2, 4] {
            match call(threads, &good, Some(&expired)) {
                Err(EngineError::DeadlineExceeded { chunk: 0 }) => {}
                other => panic!("{name}, {threads} threads: expired deadline gave {other:?}"),
            }
            match call(threads, &bad, None) {
                Err(EngineError::WorkerPanicked { chunk, .. }) if chunk == BAD / CHUNK => {}
                other => panic!("{name}, {threads} threads: wrong arity gave {other:?}"),
            }
            if let Err(e) = call(threads, &good, None) {
                panic!("{name}, {threads} threads: clean batch failed with {e:?}");
            }
        }
    }
}
