//! Fault tree analysis (FTA).
//!
//! The substrate of the DSN 2004 paper *"Safety Optimization"* (Ortmeier &
//! Reif): a fault tree describes how combinations of **primary failures**
//! (basic events) cause a **hazard** (the top event), through AND / OR /
//! k-of-n / INHIBIT gates. This crate implements the full classical
//! pipeline, from scratch:
//!
//! * [`tree`] — arena-based fault-tree DAGs with validation, builders,
//!   and traversal. INHIBIT conditions are first-class leaves (the paper's
//!   Sect. II-D constraint probabilities attach to them).
//! * [`mcs`] — minimal cut sets: the memoized bottom-up set-algebra
//!   engine every library path uses, and top-down MOCUS as the tests'
//!   reference; subsumption minimization.
//! * [`bdd`] — a binary decision diagram package (unique table, ITE,
//!   Shannon-decomposition probability) used as the exact quantification
//!   engine.
//! * [`quant`] — hazard probabilities: the paper's rare-event
//!   approximation (Eq. 1), the min-cut upper bound, exact
//!   inclusion–exclusion, and BDD-exact evaluation.
//! * [`constraints`] — INHIBIT-condition extraction per cut set with the
//!   paper's constraint-probability bounds (Sect. II-D.1 / Sect. V).
//! * [`importance`] — Birnbaum, Fussell–Vesely, risk achievement/reduction
//!   worth, and criticality importance measures.
//! * [`preprocess`] — the SCRAM-style rewriting pipeline (constant
//!   propagation, gate normalization, coalescing, pruning) plus
//!   visit-interval **module detection** for industrial-scale trees.
//! * [`modular`] — per-module BDD construction composed back on the
//!   op-tape, bounding BDD size by the largest module.
//! * [`parse`] — a plain-text fault-tree format (Galileo-flavoured) so
//!   models can live in files.
//! * [`render`] — Graphviz DOT and ASCII rendering.
//! * [`synth`] — synthetic tree families for property tests and benches.
//!
//! # Example
//!
//! The collision fault tree from the paper's Fig. 2:
//!
//! ```
//! use safety_opt_fta::tree::FaultTree;
//! use safety_opt_fta::quant::{hazard_probability, Method};
//!
//! # fn main() -> Result<(), safety_opt_fta::FtaError> {
//! let mut ft = FaultTree::new("Collision");
//! let ignores = ft.basic_event_with_probability("OHV ignores signal", 1e-2)?;
//! let out_of_order = ft.basic_event_with_probability("Signal out of order", 1e-4)?;
//! let not_activated = ft.basic_event_with_probability("Signal not activated", 1e-5)?;
//! let not_on = ft.or_gate("Signal not on", [out_of_order, not_activated])?;
//! let top = ft.or_gate("Collision", [ignores, not_on])?;
//! ft.set_root(top)?;
//!
//! let mcs = ft.minimal_cut_sets()?;
//! assert_eq!(mcs.len(), 3); // three single points of failure
//! let p = hazard_probability(&ft, &ft.stored_probabilities()?, Method::RareEvent)?;
//! assert!((p - (1e-2 + 1e-4 + 1e-5)).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bdd;
mod bitset;
pub mod constraints;
mod cutset;
mod error;
pub mod importance;
pub mod mcs;
pub mod modular;
pub mod parse;
pub mod preprocess;
pub mod quant;
pub mod render;
pub mod synth;
pub mod tree;

pub use bitset::BitSet;
pub use cutset::{CutSet, CutSetCollection};
pub use error::FtaError;

/// Convenience result alias for fallible FTA operations.
pub type Result<T> = std::result::Result<T, FtaError>;
