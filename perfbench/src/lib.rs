//! End-to-end benchmark of the safety-optimization pipeline: each query
//! goes from model text (or a sampled model family) to a checked answer.
//!
//! Three closed-loop workloads ([`elbtunnel`], [`industrial`],
//! [`uncertainty`]) share one runner ([`runner`]); the untraced run
//! reports end-to-end metrics, a separate traced run splits each query
//! into per-layer rows ([`layers`]). See `README.md` next to this crate.

#![forbid(unsafe_code)]

pub mod calibration;
pub mod elbtunnel;
pub mod environment;
pub mod industrial;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod reference;
pub mod runner;
pub mod stats;
pub mod uncertainty;

use layers::Tally;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One benchmark workload: how to make its queries, run them, and check
/// their answers.
pub trait Workload {
    /// A query's input, made from the seed before the query is timed.
    type Input;
    /// A query's answer.
    type Answer;

    /// The workload's name on the command line.
    fn name(&self) -> &'static str;

    /// Input of query `index` for workload seed `seed`: the same pair
    /// always gives the same input, and different pairs give different
    /// inputs.
    fn generate(&self, seed: u64, index: u64) -> Self::Input;

    /// Runs the query through the program's public API.
    ///
    /// # Errors
    ///
    /// The program's error, rendered.
    fn query(&self, input: &Self::Input) -> Result<Self::Answer, String>;

    /// Answers in one query's result (for `answers_per_s`).
    fn answers(&self, answer: &Self::Answer) -> u64;

    /// Checks `answer` against the reference solver; returns the
    /// optimum's relative gap to the reference on success.
    ///
    /// # Errors
    ///
    /// What is wrong with the answer.
    fn check(&self, input: &Self::Input, answer: &Self::Answer) -> Result<f64, String>;

    /// Runs the query like [`query`](Self::query) with every call timed,
    /// then replays its internals, adding this query's per-layer
    /// quantities to `tally` (see [`metrics::PER_LAYER`]). Must set
    /// `bench.top_ms` to the summed time of the query's top-level calls.
    ///
    /// # Errors
    ///
    /// The program's error, rendered.
    fn traced(&self, input: &Self::Input, tally: &mut Tally) -> Result<Self::Answer, String>;
}

/// The random stream of query `index` under workload seed `seed`.
pub fn query_rng(seed: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(splitmix64(seed) ^ index))
}

/// One step of the SplitMix64 generator: a bijective 64-bit mix.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws the Elbtunnel model's uncertain constants from `rng`: λ_HV
/// known to ±30 % and P(OHV) to ±25 % around the paper's calibration.
pub fn sample_elbtunnel(rng: &mut StdRng) -> safety_opt_elbtunnel::analytic::ElbtunnelModel {
    use rand::Rng;
    let mut m = safety_opt_elbtunnel::analytic::ElbtunnelModel::paper();
    m.lambda_hv *= 0.7 + 0.6 * rng.gen::<f64>();
    m.p_ohv = (m.p_ohv * (0.75 + 0.5 * rng.gen::<f64>())).min(1.0);
    m
}
