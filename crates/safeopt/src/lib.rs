//! Safety optimization — the core contribution of Ortmeier & Reif,
//! *"Safety Optimization: A combination of fault tree analysis and
//! optimization techniques"*, DSN 2004.
//!
//! The method in one paragraph: run (quantitative) fault tree analysis to
//! get minimal cut sets per hazard; generalize the cut-set probabilities
//! with **constraint probabilities** (how likely the environment is "bad
//! enough" — the paper's Eq. 2) and **parameterized probabilities**
//! (functions of free system parameters such as timer runtimes — Eqs.
//! 3–4); assign each hazard a cost and form the weighted-sum **cost
//! function** `f_cost(X) = Σᵢ Cost_i · P(Hᵢ)(X)` (Eqs. 5–6); then minimize
//! it over the compact parameter domain with mathematical optimization.
//! The minimizer is the optimal system configuration.
//!
//! Module map:
//!
//! * [`param`] — free parameters and parameter spaces (compact intervals).
//! * [`pprob`] — parameterized probability expressions: constants,
//!   closures, overtime tails `P(X > T)` of a transit-time distribution,
//!   Poisson exposure windows `1 − e^{−λT}`, complements and products.
//! * [`model`] — hazards as parameterized minimal cut sets, safety models
//!   as hazards + costs over one parameter space; bridging from
//!   [`safety_opt_fta`] fault trees.
//! * [`importance`] — component importance (Birnbaum, criticality,
//!   Fussell–Vesely, RAW/RRW) at a parameter point, from one adjoint
//!   gradient per tree-derived hazard.
//! * [`optimize`] — the optimization front-end and baseline-vs-optimum
//!   comparison reports.
//! * [`surface`] — cost-surface grids (the paper's Fig. 5 3-D plot) with
//!   CSV and ASCII-heat-map output.
//! * [`sensitivity`] — one-at-a-time sweeps, tornado tables and local
//!   gradients; the tool behind the paper's Fig. 6 scaling analysis.
//! * [`pareto`] — the Pareto front between opposed hazards (collision vs
//!   false alarm), making the trade-off the cost weights resolve visible.
//! * [`uncertainty`] — Monte-Carlo propagation of model-constant
//!   uncertainty to costs and to the optimum itself (the paper's
//!   stochastic-programming outlook, Sect. V).
//! * [`report`] — a one-call Markdown analysis report (optimum,
//!   comparison, sensitivity) for review and archival.
//!
//! # Example
//!
//! A miniature two-hazard model with one free parameter:
//!
//! ```
//! use safety_opt_core::model::{Hazard, SafetyModel};
//! use safety_opt_core::param::ParameterSpace;
//! use safety_opt_core::pprob::{constant, exposure, overtime};
//! use safety_opt_core::optimize::SafetyOptimizer;
//! use safety_opt_stats::dist::TruncatedNormal;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut space = ParameterSpace::new();
//! let t = space.parameter("timer", 5.0, 30.0)?; // minutes
//!
//! let transit = TruncatedNormal::lower_bounded(4.0, 2.0, 0.0)?;
//! let collision = Hazard::builder("collision")
//!     .cut_set("overtime", [overtime(transit, t)])
//!     .build();
//! let false_alarm = Hazard::builder("false-alarm")
//!     .cut_set("exposure", [constant(0.5)?, exposure(0.13, t)])
//!     .build();
//!
//! let model = SafetyModel::new(space)
//!     .hazard(collision, 100_000.0)
//!     .hazard(false_alarm, 1.0);
//!
//! let optimum = SafetyOptimizer::new(&model).run()?;
//! let t_star = optimum.point().value("timer").unwrap();
//! assert!(t_star > 10.0 && t_star < 20.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compile;
mod error;
pub mod fleet;
pub mod importance;
pub mod model;
pub mod optimize;
pub mod param;
pub mod pareto;
pub mod pprob;
pub mod report;
pub mod sensitivity;
pub mod surface;
pub mod uncertainty;

pub use error::SafeOptError;
// The quantification selector of `SafetyModel::with_quant_method`,
// re-exported at the root: the knob that chooses *what* is computed
// (rare-event vs BDD-exact).
pub use model::{default_quant_method, QuantMethod};

/// Convenience result alias for fallible safety-optimization operations.
pub type Result<T> = std::result::Result<T, SafeOptError>;
