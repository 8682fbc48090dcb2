//! Shared parsing for the `SAFETY_OPT_*` environment knobs.
//!
//! Every process-level knob (`SAFETY_OPT_THREADS`, `_MATH`, `_QUANT`,
//! `_PREPROCESS`, `_FAILPOINTS`, `_DEGRADE`, …) follows the same
//! contract:
//!
//! * read **once per process** (the knob is a process-level contract,
//!   not a per-call switch — evaluators are constructed per batch call
//!   inside optimizer loops);
//! * unset / empty / whitespace-only means "use the default";
//! * anything else must parse, and a typo **panics loudly** with a
//!   uniform message — a forced knob exists precisely to pin which code
//!   path runs, and a silent fallback would be undetectable because
//!   results are bit-identical across most knob settings by design.
//!
//! Before this module each knob carried its own copy of that trim /
//! empty / lowercase / panic dance. The copies now live here; the knob
//! owners keep only their domain enum and their default. (The telemetry
//! crate is the one exception: the engine depends on it, so it keeps a
//! local parser with the same message format.)
//!
//! This module also owns the [`DegradeMode`] knob (`SAFETY_OPT_DEGRADE`)
//! because the graceful-degradation policy is engine-wide, consumed by
//! the safeopt compile layer.

use std::sync::atomic::{AtomicU8, Ordering};

/// Uniform parse of a multiple-choice knob.
///
/// `value` is the raw environment string (`None` when the variable is
/// unset). Returns `None` for unset/empty/whitespace (caller applies
/// its default). Matching is case-insensitive and accepts `_` for `-`.
/// `choices` pairs each accepted (canonical, lowercase) spelling with
/// its parsed value; `hint` finishes the panic message (e.g. `"unset it
/// to use the SoA default"`).
///
/// # Panics
///
/// Panics with `"{name} must be {choices}, got {raw:?} ({hint})"` when
/// the value names no choice.
pub fn parse_choice<T: Copy>(
    name: &str,
    value: Option<&str>,
    choices: &[(&str, T)],
    hint: &str,
) -> Option<T> {
    let raw = value?.trim();
    if raw.is_empty() {
        return None;
    }
    let canon = raw.to_ascii_lowercase().replace('_', "-");
    for (spelling, parsed) in choices {
        if canon == *spelling {
            return Some(*parsed);
        }
    }
    let expected = choices
        .iter()
        .map(|(s, _)| format!("{s:?}"))
        .collect::<Vec<_>>()
        .join(" or ");
    panic!("{name} must be {expected}, got {raw:?} ({hint})");
}

/// Uniform parse of a positive-integer knob (e.g. `SAFETY_OPT_THREADS`).
/// Returns `None` for unset/empty/whitespace.
///
/// # Panics
///
/// Panics with `"{name} must be a positive integer, got {raw:?}
/// ({hint})"` on anything that is not a positive integer.
pub fn parse_positive(name: &str, value: Option<&str>, hint: &str) -> Option<usize> {
    let raw = value?.trim();
    if raw.is_empty() {
        return None;
    }
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => panic!("{name} must be a positive integer, got {raw:?} ({hint})"),
    }
}

/// Reads an environment variable as an owned string (`None` when
/// unset). Callers pair this with [`parse_choice`]/[`parse_positive`]
/// inside their own `OnceLock` so the knob is read once per process.
pub fn var(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Policy when BDD-exact lowering blows its
/// [`crate::CompileBudget::max_bdd_nodes`] budget (the
/// `SAFETY_OPT_DEGRADE` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeMode {
    /// A blown node budget is a hard typed error
    /// ([`crate::EngineError::BudgetExceeded`]) — the default.
    Off,
    /// A blown node budget falls back to rare-event lowering for that
    /// hazard: the process survives with a documented accuracy
    /// degradation (counted in telemetry as
    /// `safeopt.degrade.fallback`, warned once per process).
    Fallback,
}

/// Packed [`DegradeMode`] plus the "not yet initialized" sentinel.
const DEGRADE_UNSET: u8 = u8::MAX;
const DEGRADE_OFF: u8 = 0;
const DEGRADE_FALLBACK: u8 = 1;

/// Process-level degradation policy; `DEGRADE_UNSET` until first read.
static DEGRADE: AtomicU8 = AtomicU8::new(DEGRADE_UNSET);

/// The process-level [`DegradeMode`]: the `SAFETY_OPT_DEGRADE`
/// environment variable when set (`"off"` or `"fallback"`),
/// [`DegradeMode::Off`] otherwise. Read **once per process** like every
/// other knob; tests override it with [`set_degrade_mode`].
///
/// # Panics
///
/// Panics if `SAFETY_OPT_DEGRADE` names neither mode — a degradation
/// policy silently defaulting to `off` would turn an intended graceful
/// fallback into hard errors (or vice versa) with no diagnostic.
pub fn degrade_mode() -> DegradeMode {
    match DEGRADE.load(Ordering::Relaxed) {
        DEGRADE_OFF => DegradeMode::Off,
        DEGRADE_FALLBACK => DegradeMode::Fallback,
        _ => init_degrade_mode(),
    }
}

/// Reads `SAFETY_OPT_DEGRADE` and publishes the mode (first call only).
#[cold]
fn init_degrade_mode() -> DegradeMode {
    let mode =
        parse_degrade_override(var("SAFETY_OPT_DEGRADE").as_deref()).unwrap_or(DegradeMode::Off);
    // Racing first readers agree: the parse is deterministic.
    DEGRADE.store(pack_degrade(mode), Ordering::Relaxed);
    mode
}

/// Programmatic override of the degradation policy, taking precedence
/// over the environment from this call on. For embedders and tests —
/// the env knob stays read-once.
pub fn set_degrade_mode(mode: DegradeMode) {
    DEGRADE.store(pack_degrade(mode), Ordering::Relaxed);
}

fn pack_degrade(mode: DegradeMode) -> u8 {
    match mode {
        DegradeMode::Off => DEGRADE_OFF,
        DegradeMode::Fallback => DEGRADE_FALLBACK,
    }
}

/// Parses a `SAFETY_OPT_DEGRADE` override: `None`/empty means "unset".
fn parse_degrade_override(value: Option<&str>) -> Option<DegradeMode> {
    parse_choice(
        "SAFETY_OPT_DEGRADE",
        value,
        &[
            ("off", DegradeMode::Off),
            ("fallback", DegradeMode::Fallback),
        ],
        "unset it to fail hard on blown budgets",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_handles_unset_empty_whitespace() {
        let choices = [("scalar", 0usize), ("soa", 1usize)];
        assert_eq!(parse_choice("K", None, &choices, "h"), None);
        assert_eq!(parse_choice("K", Some(""), &choices, "h"), None);
        assert_eq!(parse_choice("K", Some("   "), &choices, "h"), None);
        assert_eq!(parse_choice("K", Some("\t\n"), &choices, "h"), None);
    }

    #[test]
    fn choice_is_case_insensitive_and_accepts_underscores() {
        let choices = [("rare-event", 0usize), ("bdd-exact", 1usize)];
        assert_eq!(
            parse_choice("K", Some("RARE-EVENT"), &choices, "h"),
            Some(0)
        );
        assert_eq!(
            parse_choice("K", Some(" Bdd_Exact "), &choices, "h"),
            Some(1)
        );
    }

    #[test]
    #[should_panic(expected = "K must be \"scalar\" or \"soa\", got \"simd\" (try soa)")]
    fn choice_typo_panics_with_uniform_message() {
        let choices = [("scalar", 0usize), ("soa", 1usize)];
        parse_choice("K", Some("simd"), &choices, "try soa");
    }

    #[test]
    fn positive_handles_unset_empty_whitespace() {
        assert_eq!(parse_positive("K", None, "h"), None);
        assert_eq!(parse_positive("K", Some(""), "h"), None);
        assert_eq!(parse_positive("K", Some("  "), "h"), None);
        assert_eq!(parse_positive("K", Some(" 7 "), "h"), Some(7));
    }

    #[test]
    #[should_panic(expected = "K must be a positive integer, got \"0\"")]
    fn positive_rejects_zero() {
        parse_positive("K", Some("0"), "h");
    }

    #[test]
    #[should_panic(expected = "K must be a positive integer, got \"many\"")]
    fn positive_rejects_typos() {
        parse_positive("K", Some("many"), "h");
    }

    #[test]
    fn degrade_override_parses_known_modes() {
        assert_eq!(parse_degrade_override(None), None);
        assert_eq!(parse_degrade_override(Some("")), None);
        assert_eq!(parse_degrade_override(Some("off")), Some(DegradeMode::Off));
        assert_eq!(
            parse_degrade_override(Some(" Fallback ")),
            Some(DegradeMode::Fallback)
        );
    }

    #[test]
    #[should_panic(expected = "SAFETY_OPT_DEGRADE must be \"off\" or \"fallback\"")]
    fn unknown_degrade_mode_is_rejected_loudly() {
        parse_degrade_override(Some("maybe"));
    }

    #[test]
    fn degrade_mode_is_programmable() {
        // The env knob is read-once and process-global; only exercise
        // the programmatic override here (dedicated integration tests
        // pin the env path).
        set_degrade_mode(DegradeMode::Fallback);
        assert_eq!(degrade_mode(), DegradeMode::Fallback);
        set_degrade_mode(DegradeMode::Off);
        assert_eq!(degrade_mode(), DegradeMode::Off);
    }
}
