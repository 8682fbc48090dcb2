//! Deterministic fault injection for robustness testing.
//!
//! A **failpoint** is a named site in a hot path (tape compilation, the
//! memo cache, BDD apply, pool chunk execution, adjoint sweeps, fleet
//! builds) that can be armed to fail on demand — either by panicking or
//! by returning a typed error, whichever failure mode the site under
//! test exhibits in production. The chaos suite arms each site in turn
//! and asserts the engine's robustness contract: only typed errors
//! escape, no shared state is poisoned, and a retry after a faulted
//! call is 0-ULP bit-identical to a never-faulted run.
//!
//! Zero-dependency and zero-cost when off: the disarmed fast path is
//! one relaxed atomic load and a predictable branch (the telemetry
//! crate's read-once pattern). No gate times it on its own: every batch
//! sweep pays it, so it sits inside both sides of the `gates` bench's
//! deadline gate (`robustness.deadline_vs_plain` in `BENCH_gates.json`).
//!
//! # Configuration
//!
//! Via the `SAFETY_OPT_FAILPOINTS` environment variable — read **once
//! per process** like every other `SAFETY_OPT_*` knob — as a
//! comma-separated list of entries:
//!
//! * `site@N` — the site fails on its `N`-th hit (1-based), exactly
//!   once;
//! * `site@p=P` — the site fails each hit independently with
//!   probability `P`, driven by a deterministic counter-based generator
//!   (default seed 0);
//! * `site@p=P:seed=S` — same with an explicit seed.
//!
//! Example: `SAFETY_OPT_FAILPOINTS=pool.chunk@2,cache.memo@p=0.1:seed=7`.
//!
//! Tests arm sites **programmatically** with [`arm`]/[`disarm`] instead
//! (the env knob is read-once, so it cannot be toggled mid-process).
//! Site state is process-global: tests that arm shared sites must
//! serialize themselves (the chaos suite holds a lock).

use crate::env;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, Once, PoisonError};

use safety_opt_telemetry as telemetry;

/// Failpoint hits that actually fired.
static FIRED_COUNTER: telemetry::Counter = telemetry::Counter::new("engine.faultinject.fired");

/// The canonical site names, shared between the instrumented crates and
/// the chaos suite so a renamed site cannot silently orphan its tests.
pub mod sites {
    /// Hazard lowering onto the op-tape (fails typed, per hazard).
    pub const TAPE_COMPILE: &str = "tape.compile";
    /// The quantized memo cache's insert path (panics while the cache
    /// lock is held — exercises poison recovery).
    pub const CACHE_MEMO: &str = "cache.memo";
    /// BDD construction in the fta crate (fails typed).
    pub const BDD_APPLY: &str = "bdd.apply";
    /// One forward chunk in the deterministic pool (panics in the
    /// worker).
    pub const POOL_CHUNK: &str = "pool.chunk";
    /// One adjoint-sweep chunk (panics in the worker).
    pub const GRAD_CHUNK: &str = "grad.chunk";
    /// One fleet-evaluation chunk (panics in the worker).
    pub const FLEET_CHUNK: &str = "fleet.chunk";
    /// One model's lowering into a fleet build (fails typed, per
    /// model).
    pub const FLEET_BUILD: &str = "fleet.build";
}

/// When an armed site fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on exactly the `n`-th hit (1-based), once.
    Nth(u64),
    /// Fire each hit independently with probability `p`, decided by a
    /// deterministic counter-based generator seeded with `seed` (and
    /// the site name), so a given `(site, seed, hit-index)` always
    /// agrees across runs, threads, and platforms.
    Prob {
        /// Per-hit firing probability in `[0, 1]`.
        p: f64,
        /// Generator seed.
        seed: u64,
    },
}

/// Per-site bookkeeping.
#[derive(Debug)]
struct SiteState {
    trigger: Trigger,
    hits: u64,
    fired: u64,
}

/// `STATE` values: not-yet-initialized sentinel, no site armed, some
/// site armed.
const STATE_UNSET: u8 = u8::MAX;
const STATE_INACTIVE: u8 = 0;
const STATE_ARMED: u8 = 1;

/// The disarmed fast-path gate (telemetry's read-once pattern).
static STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);

/// Armed sites by name. Locked only on the armed slow path and on
/// arm/disarm; recovered (not propagated) on poison so a panic fired
/// *by* a failpoint can never wedge the harness itself.
static SITES: Mutex<Option<HashMap<String, SiteState>>> = Mutex::new(None);

fn lock_sites() -> MutexGuard<'static, Option<HashMap<String, SiteState>>> {
    SITES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parses `SAFETY_OPT_FAILPOINTS` once and publishes the initial state.
fn ensure_init() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let mut map = HashMap::new();
        for (site, trigger) in parse_failpoints(env::var("SAFETY_OPT_FAILPOINTS").as_deref()) {
            map.insert(
                site,
                SiteState {
                    trigger,
                    hits: 0,
                    fired: 0,
                },
            );
        }
        let armed = !map.is_empty();
        *lock_sites() = Some(map);
        STATE.store(
            if armed { STATE_ARMED } else { STATE_INACTIVE },
            Ordering::Relaxed,
        );
    });
}

/// Parses the comma-separated failpoint spec. `None`/empty → no sites.
///
/// # Panics
///
/// Panics on a malformed entry — an armed failpoint exists to pin a
/// failure path, and a typo silently arming nothing would make the
/// chaos run vacuous.
fn parse_failpoints(value: Option<&str>) -> Vec<(String, Trigger)> {
    let raw = match value {
        Some(v) => v.trim(),
        None => return Vec::new(),
    };
    if raw.is_empty() {
        return Vec::new();
    }
    raw.split(',')
        .map(|entry| parse_entry(entry.trim()))
        .collect()
}

fn parse_entry(entry: &str) -> (String, Trigger) {
    let reject = || -> ! {
        panic!(
            "SAFETY_OPT_FAILPOINTS entries must be \"site@<n>\" or \
             \"site@p=<prob>[:seed=<n>]\", got {entry:?} \
             (unset it to disable fault injection)"
        )
    };
    let Some((site, spec)) = entry.split_once('@') else {
        reject()
    };
    let site = site.trim();
    let spec = spec.trim();
    if site.is_empty() || spec.is_empty() {
        reject();
    }
    let trigger = if let Some(prob_spec) = spec.strip_prefix("p=") {
        let (p_str, seed) = match prob_spec.split_once(':') {
            Some((p, seed_spec)) => {
                let seed_str = seed_spec.strip_prefix("seed=").unwrap_or(seed_spec);
                match seed_str.trim().parse::<u64>() {
                    Ok(s) => (p, s),
                    Err(_) => reject(),
                }
            }
            None => (prob_spec, 0),
        };
        match p_str.trim().parse::<f64>() {
            Ok(p) if (0.0..=1.0).contains(&p) => Trigger::Prob { p, seed },
            _ => reject(),
        }
    } else {
        match spec.parse::<u64>() {
            Ok(n) if n > 0 => Trigger::Nth(n),
            _ => reject(),
        }
    };
    (site.to_owned(), trigger)
}

/// Should the named site fail right now? One relaxed atomic load and a
/// branch when nothing is armed; hit counting and the trigger decision
/// happen only on the armed slow path.
///
/// The *caller* decides what failing means — sites on panic-isolated
/// paths `panic!`, sites on fallible paths return their crate's typed
/// fault-injection error — so the harness never masks which failure
/// mode a production site actually has.
#[inline]
pub fn should_fail(site: &str) -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_INACTIVE => false,
        STATE_ARMED => should_fail_slow(site),
        _ => {
            ensure_init();
            should_fail(site)
        }
    }
}

#[cold]
fn should_fail_slow(site: &str) -> bool {
    let mut guard = lock_sites();
    let Some(state) = guard.as_mut().and_then(|m| m.get_mut(site)) else {
        return false;
    };
    state.hits += 1;
    let fire = match state.trigger {
        Trigger::Nth(n) => state.hits == n,
        Trigger::Prob { p, seed } => unit_float(mix(seed, site, state.hits)) < p,
    };
    if fire {
        state.fired += 1;
        drop(guard);
        FIRED_COUNTER.add(1);
        telemetry::trace::trace_instant(telemetry::EventKind::FailpointFired, site, 1);
    }
    fire
}

/// Arms `site` programmatically (replacing any existing trigger and
/// resetting its counters), taking precedence over the env spec from
/// this call on.
pub fn arm(site: &str, trigger: Trigger) {
    ensure_init();
    let mut guard = lock_sites();
    let map = guard.as_mut().expect("initialized by ensure_init");
    map.insert(
        site.to_owned(),
        SiteState {
            trigger,
            hits: 0,
            fired: 0,
        },
    );
    STATE.store(STATE_ARMED, Ordering::Relaxed);
}

/// Disarms `site`. The fast path goes back to a single no-op branch
/// once no site remains armed.
pub fn disarm(site: &str) {
    ensure_init();
    let mut guard = lock_sites();
    let map = guard.as_mut().expect("initialized by ensure_init");
    map.remove(site);
    if map.is_empty() {
        STATE.store(STATE_INACTIVE, Ordering::Relaxed);
    }
}

/// Disarms every site (programmatic and env-configured).
pub fn disarm_all() {
    ensure_init();
    let mut guard = lock_sites();
    let map = guard.as_mut().expect("initialized by ensure_init");
    map.clear();
    STATE.store(STATE_INACTIVE, Ordering::Relaxed);
}

/// How often `site` was reached while armed (0 when never armed).
pub fn hits(site: &str) -> u64 {
    ensure_init();
    lock_sites()
        .as_ref()
        .and_then(|m| m.get(site))
        .map_or(0, |s| s.hits)
}

/// How often `site` actually fired while armed (0 when never armed).
pub fn fired(site: &str) -> u64 {
    ensure_init();
    lock_sites()
        .as_ref()
        .and_then(|m| m.get(site))
        .map_or(0, |s| s.fired)
}

/// SplitMix64 over `seed ⊕ hash(site) ⊕ hit-index`: a counter-based
/// generator, so the decision for a given hit is a pure function of
/// `(site, seed, hit-index)` — no shared RNG stream to race on.
fn mix(seed: u64, site: &str, hit: u64) -> u64 {
    let mut z = seed ^ fnv1a(site) ^ hit.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the site name (stable across platforms).
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Maps a hash to `[0, 1)` using the top 53 bits.
fn unit_float(z: u64) -> f64 {
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_never_fail() {
        assert!(!should_fail("test.never-armed"));
        assert_eq!(hits("test.never-armed"), 0);
    }

    #[test]
    fn nth_trigger_fires_exactly_once_on_the_nth_hit() {
        let site = "test.nth";
        arm(site, Trigger::Nth(3));
        assert!(!should_fail(site));
        assert!(!should_fail(site));
        assert!(should_fail(site));
        assert!(!should_fail(site));
        assert_eq!(hits(site), 4);
        assert_eq!(fired(site), 1);
        disarm(site);
        assert!(!should_fail(site));
    }

    #[test]
    fn prob_trigger_is_deterministic_in_site_seed_and_hit() {
        let site = "test.prob";
        arm(site, Trigger::Prob { p: 0.5, seed: 42 });
        let first: Vec<bool> = (0..64).map(|_| should_fail(site)).collect();
        // Re-arming resets the hit counter: the sequence replays.
        arm(site, Trigger::Prob { p: 0.5, seed: 42 });
        let second: Vec<bool> = (0..64).map(|_| should_fail(site)).collect();
        assert_eq!(first, second);
        assert!(first.iter().any(|&b| b), "p=0.5 over 64 hits must fire");
        assert!(!first.iter().all(|&b| b), "p=0.5 over 64 hits must skip");
        disarm(site);
    }

    #[test]
    fn prob_zero_and_one_are_exact() {
        let site = "test.prob-edges";
        arm(site, Trigger::Prob { p: 0.0, seed: 1 });
        assert!((0..32).all(|_| !should_fail(site)));
        arm(site, Trigger::Prob { p: 1.0, seed: 1 });
        assert!((0..32).all(|_| should_fail(site)));
        disarm(site);
    }

    #[test]
    fn parse_accepts_nth_prob_and_seeded_prob() {
        assert_eq!(parse_failpoints(None), Vec::new());
        assert_eq!(parse_failpoints(Some("")), Vec::new());
        assert_eq!(parse_failpoints(Some("   ")), Vec::new());
        assert_eq!(
            parse_failpoints(Some("pool.chunk@2")),
            vec![(String::from("pool.chunk"), Trigger::Nth(2))]
        );
        assert_eq!(
            parse_failpoints(Some(" cache.memo@p=0.25 , fleet.build@p=1:seed=7 ")),
            vec![
                (
                    String::from("cache.memo"),
                    Trigger::Prob { p: 0.25, seed: 0 }
                ),
                (
                    String::from("fleet.build"),
                    Trigger::Prob { p: 1.0, seed: 7 }
                ),
            ]
        );
        // Bare `:N` seed spelling is accepted too.
        assert_eq!(
            parse_failpoints(Some("bdd.apply@p=0.1:3")),
            vec![(String::from("bdd.apply"), Trigger::Prob { p: 0.1, seed: 3 })]
        );
    }

    #[test]
    #[should_panic(expected = "SAFETY_OPT_FAILPOINTS entries must be")]
    fn parse_rejects_missing_trigger() {
        parse_failpoints(Some("pool.chunk"));
    }

    #[test]
    #[should_panic(expected = "SAFETY_OPT_FAILPOINTS entries must be")]
    fn parse_rejects_zeroth_hit() {
        parse_failpoints(Some("pool.chunk@0"));
    }

    #[test]
    #[should_panic(expected = "SAFETY_OPT_FAILPOINTS entries must be")]
    fn parse_rejects_out_of_range_probability() {
        parse_failpoints(Some("pool.chunk@p=1.5"));
    }

    #[test]
    #[should_panic(expected = "SAFETY_OPT_FAILPOINTS entries must be")]
    fn parse_rejects_bad_seed() {
        parse_failpoints(Some("pool.chunk@p=0.5:seed=soon"));
    }

    #[test]
    fn counters_survive_a_poisoned_sites_lock() {
        // Panicking while holding the harness's own lock must not wedge
        // it: the guard recovers via `PoisonError::into_inner`.
        let site = "test.poison";
        arm(site, Trigger::Nth(1));
        let _ = std::panic::catch_unwind(|| {
            let _guard = lock_sites();
            panic!("poison the sites lock");
        });
        assert!(should_fail(site));
        disarm(site);
    }
}
