//! # Safety Optimization
//!
//! A Rust implementation of **safety optimization** — the combination of
//! fault tree analysis (FTA) and mathematical optimization introduced by
//! Frank Ortmeier and Wolfgang Reif in *"Safety Optimization: A
//! combination of fault tree analysis and optimization techniques"*
//! (DSN 2004) — together with every substrate it runs on and the paper's
//! complete Elbtunnel case study.
//!
//! ## The method
//!
//! 1. **FTA** ([`fta`]): model each hazard as a fault tree, extract its
//!    minimal cut sets (MOCUS / bottom-up / BDD engines).
//! 2. **Generalized quantification** ([`safeopt`]): replace the constant
//!    failure probabilities of classical quantitative FTA with
//!    *parameterized probabilities* — functions of free system parameters
//!    — and multiply in *constraint probabilities* for the environmental
//!    conditions of INHIBIT gates.
//! 3. **Cost function**: weigh each hazard with its (monetary) cost and
//!    form `f_cost(X) = Σᵢ Costᵢ · P(Hᵢ)(X)`.
//! 4. **Optimization** ([`optim`]): minimize `f_cost` over the compact
//!    parameter domain; the arg-min is the optimal system configuration.
//!
//! ## Crates
//!
//! | Re-export | Contents |
//! |-----------|----------|
//! | [`safeopt`] | The method: parameters, probability expressions, hazard models, the optimizer front-end, sensitivity / surface / Pareto analysis |
//! | [`fta`] | Fault trees, minimal cut sets, BDDs, quantification, importance measures, text format |
//! | [`optim`] | Grid / Nelder–Mead / pattern-search / gradient / projected quasi-Newton / annealing / differential-evolution minimizers over box domains |
//! | [`stats`] | Distributions, special functions, quadrature, Monte-Carlo estimation |
//! | [`elbtunnel`] | The paper's case study: calibrated analytic model, fault trees, and a discrete-event simulator of the height control |
//! | [`telemetry`] | Observability: process-global counters, histograms, and spans behind the `SAFETY_OPT_TELEMETRY` mode switch |
//!
//! ## Quick start
//!
//! ```
//! use safety_optimization::elbtunnel::analytic::ElbtunnelModel;
//! use safety_optimization::safeopt::optimize::SafetyOptimizer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = ElbtunnelModel::paper().build()?;
//! let optimum = SafetyOptimizer::new(&model).run()?;
//! println!("{optimum}");
//! // Paper Sect. IV-C.2: ≈ 19 min and ≈ 15.6 min.
//! assert!((optimum.point().value("timer1").unwrap() - 19.0).abs() < 1.0);
//! assert!((optimum.point().value("timer2").unwrap() - 15.6).abs() < 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use safety_opt_core as safeopt;
pub use safety_opt_elbtunnel as elbtunnel;
pub use safety_opt_engine as engine;
pub use safety_opt_fta as fta;
pub use safety_opt_optim as optim;
pub use safety_opt_stats as stats;
pub use safety_opt_telemetry as telemetry;
