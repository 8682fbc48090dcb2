//! Reused scratch never leaks into a result. The scalar sweeps resize
//! their scratch only when its length changes and never zero it: every
//! op reads only the inputs and registers that earlier ops of the same
//! sweep wrote. This suite pins that invariant on the random families
//! of `tests/common` (Shannon chains, opaque closures, shared
//! subexpressions): a scratch filled with NaN before each call, or left
//! over from another fleet model's sweep, gives results bit-equal to a
//! fresh one — an op that read an unwritten register would surface as
//! NaN.

mod common;

use common::{bits, compile_family, family_strategy, random_points, DIM};
use proptest::prelude::*;
use safety_opt_engine::{GradWorkspace, Tape, TapeBuilder};
use std::sync::Arc;

/// A tape of `len − DIM` distinct closures returning NaN, so one sweep
/// leaves NaN in every scratch slot past the inputs of a `len`-long
/// scratch.
fn nan_tape(len: usize) -> Tape {
    let mut b = TapeBuilder::new(DIM);
    for id in 0..len - DIM {
        let v = b.closure(id, Arc::new(|_: &[f64]| f64::NAN));
        b.output(v, 1.0);
    }
    let tape = b.build();
    assert_eq!(tape.scratch_len(), len);
    tape
}

/// Fills `ws`'s (private) scratch with NaN by sweeping `nan` through it.
fn poison(ws: &mut GradWorkspace, nan: &Tape) {
    let mut outputs = vec![0.0; nan.n_outputs()];
    let mut grad = [0.0; DIM];
    nan.eval_grad_into(&[f64::NAN; DIM], ws, &mut outputs, &mut grad);
}

fn nan_filled(len: usize) -> Vec<f64> {
    vec![f64::NAN; len]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // `Tape::eval_into` / `eval_grad_into` on a NaN-filled scratch and
    // workspace equal a fresh call, bit for bit.
    #[test]
    fn poisoned_tape_scratch_is_bit_identical(
        spec in family_strategy(),
        seed in any::<u64>(),
    ) {
        let (_, tapes) = compile_family(&spec);
        for (k, tape) in tapes.iter().enumerate() {
            let nan = nan_tape(tape.scratch_len());
            let mut ws = GradWorkspace::new();
            for p in random_points(5, seed) {
                let mut want = vec![0.0; tape.n_outputs()];
                let mut got = want.clone();
                let wc = tape.eval_into(&p, &mut Vec::new(), &mut want);
                let mut scratch = nan_filled(tape.scratch_len());
                let gc = tape.eval_into(&p, &mut scratch, &mut got);
                prop_assert_eq!(wc.to_bits(), gc.to_bits(), "cost, model {}", k);
                prop_assert_eq!(bits(&want), bits(&got), "outputs, model {}", k);

                let (wgc, wg) = tape.eval_grad(&p);
                poison(&mut ws, &nan);
                let mut grad = [0.0; DIM];
                let ggc = tape.eval_grad_into(&p, &mut ws, &mut got, &mut grad);
                prop_assert_eq!(wgc.to_bits(), ggc.to_bits(), "grad cost, model {}", k);
                prop_assert_eq!(bits(&wg), bits(&grad), "gradient, model {}", k);
            }
        }
    }

    // `Fleet::eval_model_into` / `eval_model_grad_into` on a NaN-filled
    // scratch and workspace, and on the leftovers of another model's
    // masked sweep at another point, equal a fresh call, bit for bit.
    #[test]
    fn poisoned_and_foreign_fleet_scratch_is_bit_identical(
        spec in family_strategy(),
        seed in any::<u64>(),
    ) {
        let (fleet, _) = compile_family(&spec);
        let len = fleet.tape().scratch_len();
        let nan = nan_tape(len);
        let n = fleet.n_models();
        let points = random_points(5, seed);
        for (i, p) in points.iter().enumerate() {
            let other = &points[(i + 1) % points.len()];
            for k in 0..n {
                let j = (k + 1) % n;
                let mut want = vec![0.0; fleet.n_outputs(k)];
                let mut got = want.clone();
                let mut want_g = [0.0; DIM];
                let mut got_g = [0.0; DIM];
                let wc = fleet.eval_model_into(k, p, &mut Vec::new(), &mut want);
                let wgc = fleet.eval_model_grad_into(
                    k, p, &mut GradWorkspace::new(), &mut got, &mut want_g,
                );

                let mut scratch = nan_filled(len);
                let gc = fleet.eval_model_into(k, p, &mut scratch, &mut got);
                prop_assert_eq!(wc.to_bits(), gc.to_bits(), "NaN scratch, model {}", k);
                prop_assert_eq!(bits(&want), bits(&got), "NaN scratch outputs, model {}", k);
                let mut foreign = vec![0.0; fleet.n_outputs(j)];
                fleet.eval_model_into(j, other, &mut scratch, &mut foreign);
                let gc = fleet.eval_model_into(k, p, &mut scratch, &mut got);
                prop_assert_eq!(wc.to_bits(), gc.to_bits(), "model {} after {}", k, j);
                prop_assert_eq!(bits(&want), bits(&got), "outputs, model {} after {}", k, j);

                let mut ws = GradWorkspace::new();
                poison(&mut ws, &nan);
                let ggc = fleet.eval_model_grad_into(k, p, &mut ws, &mut got, &mut got_g);
                prop_assert_eq!(wgc.to_bits(), ggc.to_bits(), "NaN workspace, model {}", k);
                prop_assert_eq!(bits(&want_g), bits(&got_g), "NaN workspace grad, model {}", k);
                let mut foreign_g = [0.0; DIM];
                fleet.eval_model_grad_into(j, other, &mut ws, &mut foreign, &mut foreign_g);
                let ggc = fleet.eval_model_grad_into(k, p, &mut ws, &mut got, &mut got_g);
                prop_assert_eq!(wgc.to_bits(), ggc.to_bits(), "grad, model {} after {}", k, j);
                prop_assert_eq!(bits(&want_g), bits(&got_g), "gradient, model {} after {}", k, j);
            }
        }
    }
}
