//! Typed engine errors, compile budgets, and evaluation deadlines.
//!
//! Batch evaluation must fail *typed, bounded, and recoverable*: a
//! wrong-arity point or an injected fault panics inside one worker
//! chunk, and a sweep over an untrusted model must not run forever.
//! This module is the vocabulary for that: [`EngineError`] is what
//! every batch method of [`crate::batch::BatchEvaluator`] and
//! [`crate::fleet::FleetEvaluator`] returns, [`CompileBudget`] bounds
//! how large a compiled artifact may get, and [`EvalDeadline`] bounds
//! how long an evaluation may take (checked cooperatively at chunk
//! granularity).
//!
//! The contract everywhere is **all-or-nothing**: a call that returns an
//! error returns no partial results, and no shared state (evaluator,
//! tape, memo cache, thread pool) is left poisoned — an identical retry
//! on the same evaluator succeeds and is bit-identical to a call that
//! never failed.

use std::fmt;
use std::time::{Duration, Instant};

/// Typed failure of a fallible engine operation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// A worker panicked while executing one chunk of a batch sweep.
    /// The panic was caught at the chunk boundary; the pool and every
    /// shared structure remain usable, and retrying the call yields the
    /// bit-identical never-faulted result. When several chunks panic in
    /// one call, the lowest chunk index is reported (deterministic
    /// across thread counts).
    WorkerPanicked {
        /// Index of the faulted chunk in deterministic chunk order.
        chunk: usize,
        /// The panic payload, stringified (`"<non-string panic>"` when
        /// the payload was not a `String`/`&str`).
        payload: String,
    },
    /// A cooperative [`EvalDeadline`] expired before the batch
    /// completed. Checked once per chunk, so the overrun is bounded by
    /// one chunk's work.
    DeadlineExceeded {
        /// Index of the first chunk (in deterministic chunk order) that
        /// observed the expired deadline.
        chunk: usize,
    },
    /// A [`CompileBudget`] limit was exceeded. All-or-nothing: no
    /// partially compiled artifact is returned.
    BudgetExceeded {
        /// Which resource blew the budget (e.g. `"tape ops"`,
        /// `"BDD nodes"`).
        what: &'static str,
        /// The configured limit.
        limit: usize,
        /// The observed demand that exceeded it.
        used: usize,
    },
    /// A deterministic fault-injection site fired
    /// (see [`crate::faultinject`]).
    FaultInjected {
        /// The site name, e.g. `"tape.compile"`.
        site: &'static str,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::WorkerPanicked { chunk, payload } => {
                write!(f, "worker panicked on chunk {chunk}: {payload}")
            }
            EngineError::DeadlineExceeded { chunk } => {
                write!(f, "evaluation deadline exceeded at chunk {chunk}")
            }
            EngineError::BudgetExceeded { what, limit, used } => {
                write!(f, "compile budget exceeded: {used} {what} > limit {limit}")
            }
            EngineError::FaultInjected { site } => {
                write!(f, "fault injected at site {site:?}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Resource limits for one compilation (tape build, BDD lowering), and
/// what a blown BDD node limit does. Unset limits are unlimited;
/// [`CompileBudget::default`] limits nothing, so a budgeted compile given
/// the default behaves exactly like an unbudgeted one.
///
/// Enforcement is **all-or-nothing**: a blown budget surfaces as
/// [`EngineError::BudgetExceeded`], never as a silently truncated
/// artifact. The one exception is opt-in per budget:
/// [`with_rare_event_fallback`](Self::with_rare_event_fallback) turns a
/// hazard whose BDD plan alone blows [`max_bdd_nodes`](Self::max_bdd_nodes)
/// into a documented accuracy degradation instead (see the safeopt
/// compile layer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileBudget {
    /// Maximum ops emitted onto one compiled tape.
    pub max_ops: Option<usize>,
    /// Maximum Shannon nodes across one hazard's BDD plan.
    pub max_bdd_nodes: Option<usize>,
    /// When a hazard's BDD plan blows [`max_bdd_nodes`](Self::max_bdd_nodes):
    /// `false` (the default) returns [`EngineError::BudgetExceeded`];
    /// `true` lowers that hazard with the rare-event cut-set sum instead.
    pub rare_event_fallback: bool,
}

impl CompileBudget {
    /// A budget that limits nothing (the default).
    pub const UNLIMITED: CompileBudget = CompileBudget {
        max_ops: None,
        max_bdd_nodes: None,
        rare_event_fallback: false,
    };

    /// Caps the ops emitted onto one compiled tape.
    pub fn with_max_ops(mut self, max_ops: usize) -> Self {
        self.max_ops = Some(max_ops);
        self
    }

    /// Caps the Shannon nodes of one hazard's BDD plan.
    pub fn with_max_bdd_nodes(mut self, max_bdd_nodes: usize) -> Self {
        self.max_bdd_nodes = Some(max_bdd_nodes);
        self
    }

    /// Degrades a hazard whose BDD plan blows
    /// [`max_bdd_nodes`](Self::max_bdd_nodes) to rare-event lowering
    /// instead of failing the compile.
    pub fn with_rare_event_fallback(mut self) -> Self {
        self.rare_event_fallback = true;
        self
    }

    /// Checks `used` ops against [`max_ops`](Self::max_ops).
    ///
    /// # Errors
    ///
    /// [`EngineError::BudgetExceeded`] when the limit is exceeded.
    pub fn check_ops(&self, used: usize) -> Result<(), EngineError> {
        match self.max_ops {
            Some(limit) if used > limit => Err(EngineError::BudgetExceeded {
                what: "tape ops",
                limit,
                used,
            }),
            _ => Ok(()),
        }
    }

    /// Checks `used` BDD nodes against
    /// [`max_bdd_nodes`](Self::max_bdd_nodes).
    ///
    /// # Errors
    ///
    /// [`EngineError::BudgetExceeded`] when the limit is exceeded.
    pub fn check_bdd_nodes(&self, used: usize) -> Result<(), EngineError> {
        match self.max_bdd_nodes {
            Some(limit) if used > limit => Err(EngineError::BudgetExceeded {
                what: "BDD nodes",
                limit,
                used,
            }),
            _ => Ok(()),
        }
    }
}

/// A cooperative wall-clock deadline for batch evaluation.
///
/// Workers check the deadline **once per chunk** (the pool's unit of
/// work), so an expired deadline stops the sweep within one chunk's
/// worth of latency — cheap enough to leave on, coarse enough never to
/// show up in a profile. Expiry is reported as
/// [`EngineError::DeadlineExceeded`] with the first chunk (in
/// deterministic chunk order) that observed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalDeadline {
    at: Instant,
}

impl EvalDeadline {
    /// A deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        EvalDeadline {
            at: Instant::now() + timeout,
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(at: Instant) -> Self {
        EvalDeadline { at }
    }

    /// `true` once the deadline has passed.
    #[inline]
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_every_variant() {
        let e = EngineError::WorkerPanicked {
            chunk: 3,
            payload: String::from("boom"),
        };
        assert!(e.to_string().contains("chunk 3"));
        assert!(e.to_string().contains("boom"));
        let e = EngineError::DeadlineExceeded { chunk: 0 };
        assert!(e.to_string().contains("deadline"));
        let e = EngineError::BudgetExceeded {
            what: "tape ops",
            limit: 10,
            used: 12,
        };
        assert!(e.to_string().contains("12 tape ops > limit 10"));
        let e = EngineError::FaultInjected { site: "pool.chunk" };
        assert!(e.to_string().contains("pool.chunk"));
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let b = CompileBudget::default();
        assert_eq!(b, CompileBudget::UNLIMITED);
        assert!(b.check_ops(usize::MAX).is_ok());
        assert!(b.check_bdd_nodes(usize::MAX).is_ok());
    }

    #[test]
    fn budget_limits_are_inclusive() {
        let b = CompileBudget::default()
            .with_max_ops(100)
            .with_max_bdd_nodes(8);
        assert!(b.check_ops(100).is_ok());
        assert!(matches!(
            b.check_ops(101),
            Err(EngineError::BudgetExceeded {
                what: "tape ops",
                limit: 100,
                used: 101,
            })
        ));
        assert!(b.check_bdd_nodes(8).is_ok());
        assert!(matches!(
            b.check_bdd_nodes(9),
            Err(EngineError::BudgetExceeded {
                what: "BDD nodes",
                ..
            })
        ));
    }

    #[test]
    fn deadlines_expire() {
        let d = EvalDeadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        let d = EvalDeadline::at(Instant::now() - Duration::from_millis(1));
        assert!(d.expired());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineError>();
    }
}
