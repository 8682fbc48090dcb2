//! # safety-opt engine — compiled cost functions and batch evaluation
//!
//! The safety-optimization method is an inner loop that evaluates the
//! weighted cost function `f_cost(X) = Σᵢ Costᵢ · P(Hᵢ)(X)` thousands of
//! times: grid search, cost surfaces, sensitivity sweeps, Pareto fronts,
//! and Monte-Carlo uncertainty all hammer the same expression. The
//! interpreter in `safety_opt_core::pprob` walks a boxed expression tree
//! per factor per point; this crate replaces that inner loop with a
//! compile-once / evaluate-many pipeline:
//!
//! 1. **Lowering** ([`tape::TapeBuilder`]) — a model-agnostic op-tape IR
//!    for weighted sums of clamped cut-set products. Constants fold at
//!    build time, shared subexpressions are hash-consed across cut sets
//!    and hazards, and products/sums are fused n-ary ops. (The lowering
//!    *from* `SafetyModel` lives in `safety_opt_core::compile`, keeping
//!    this crate free of a dependency cycle.)
//! 2. **Fast kernels** ([`fast_erf`]) — the truncated-normal survival
//!    function, the hot op of every overtime probability, runs on Cody's
//!    fixed-cost rational `erfc` instead of the iterative
//!    series/continued-fraction path (same ≈1 ulp accuracy, no loops).
//! 3. **Batch evaluation** ([`batch::BatchEvaluator`]) — shards point
//!    batches across a `std::thread` scoped pool with deterministic
//!    chunking; results are bit-identical for every thread count.
//!    One sweep runner serves this evaluator and the fleet's: a tape
//!    batch (or an all-models fleet batch) sweeps every op, a one-model
//!    fleet batch that model's reachability mask. Within a chunk the
//!    runner runs lane-blocked **op-at-a-time SoA
//!    sweeps** ([`exec`]), which amortize op dispatch over a whole block
//!    of points and expose the fused n-ary kernels to the vectorizer —
//!    bit-identical by construction to the point-at-a-time
//!    [`Tape::eval_into`], which runs the one point a chunk's narrowing
//!    blocks may leave over and remains the single-point API.
//! 4. **Adjoint gradients** ([`grad`]) — a reverse-mode sweep over the
//!    same op-tape and the same op slots: one forward + one backward
//!    pass yields the full cost gradient at a cost independent of the
//!    input dimension (analytic VJPs per op, per-op central differences
//!    only for opaque closures), replacing the `2·dim` tape sweeps of
//!    central-difference gradients in the optimizer and the sensitivity
//!    front-ends. The forward and adjoint loops each exist once per
//!    path (scalar and SoA), generic over the slots they visit.
//! 5. **Model fleets** ([`fleet::Fleet`]) — whole families of
//!    structurally similar models (Monte-Carlo samples, traffic
//!    scenarios) compile into one shared op arena with hash-consing
//!    *across* models; one arena sweep per point evaluates every model,
//!    and per-model reachability masks keep single-model evaluation
//!    bit-identical to standalone compilation.
//! 6. **Memoization** ([`cache::QuantizedCache`]) — optional
//!    quantized-point memo for pointwise optimizer objectives (a
//!    minimizer that revisits points across restarts).
//!
//! Run `cargo run --release -p safety_opt_bench --bin gates` for the
//! gated speedups of these layers on one worker: the SoA sweep vs. a
//! point-at-a-time loop on the Elbtunnel surface grid, the fleet vs. a
//! per-model loop on the Elbtunnel uncertainty workload, and adjoint
//! vs. central-difference gradients, among others (written to
//! `BENCH_gates.json`).

// Special-function coefficients are transcribed at full published
// precision; the extra digits are intentional.
#![allow(clippy::excessive_precision)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod cache;
pub mod env;
pub mod error;
pub mod exec;
pub mod fast_erf;
pub mod faultinject;
pub mod fleet;
pub mod grad;
pub mod profile;
pub mod tape;

pub use batch::BatchEvaluator;
pub use cache::{CacheStats, QuantizedCache};
pub use error::{CompileBudget, EngineError, EvalDeadline};
pub use fleet::{Fleet, FleetBuilder, FleetEvaluator, FleetScratch};
pub use grad::GradWorkspace;
pub use profile::{ProfileReport, ProfileRow};
pub use tape::{CompileStats, Op, Tape, TapeBuilder, TruncNormSf, Value};

/// Worker count used by the default-sized evaluators: the
/// `SAFETY_OPT_THREADS` environment variable when set, the machine's
/// available parallelism otherwise.
///
/// The override exists so CI can force the deterministic chunked pools
/// through both their sequential (`SAFETY_OPT_THREADS=1`) and parallel
/// (`SAFETY_OPT_THREADS=4`) code paths even on one-core runners; results
/// are bit-identical either way. Read **once per process**, like every
/// other `SAFETY_OPT_*` knob (see [`env`](mod@env)).
///
/// # Panics
///
/// Panics if `SAFETY_OPT_THREADS` is set to anything but a positive
/// integer. A forced pool size exists precisely to pin which code path
/// runs; silently falling back to machine parallelism would make a
/// misconfiguration (`0`, a typo) undetectable, because results are
/// bit-identical across thread counts by design.
pub fn default_threads() -> usize {
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        parse_thread_override(env::var("SAFETY_OPT_THREADS").as_deref()).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// Parses a `SAFETY_OPT_THREADS` override: `None`/empty means
/// "unset" (use machine parallelism); anything else must be a positive
/// integer.
fn parse_thread_override(value: Option<&str>) -> Option<usize> {
    env::parse_positive(
        "SAFETY_OPT_THREADS",
        value,
        "unset it to use the machine's available parallelism",
    )
}

#[cfg(test)]
mod tests {
    use super::parse_thread_override;

    #[test]
    fn thread_override_parses_positive_integers() {
        assert_eq!(parse_thread_override(None), None);
        assert_eq!(parse_thread_override(Some("")), None);
        assert_eq!(parse_thread_override(Some("  ")), None);
        assert_eq!(parse_thread_override(Some("1")), Some(1));
        assert_eq!(parse_thread_override(Some(" 4 ")), Some(4));
    }

    #[test]
    #[should_panic(expected = "SAFETY_OPT_THREADS must be a positive integer")]
    fn zero_thread_override_is_rejected_loudly() {
        parse_thread_override(Some("0"));
    }

    #[test]
    #[should_panic(expected = "SAFETY_OPT_THREADS must be a positive integer")]
    fn non_numeric_thread_override_is_rejected_loudly() {
        parse_thread_override(Some("one"));
    }
}
