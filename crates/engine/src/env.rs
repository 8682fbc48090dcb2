//! Shared parsing for the `SAFETY_OPT_*` environment knobs.
//!
//! The process reads four knobs: `SAFETY_OPT_THREADS` (engine pool
//! size), `SAFETY_OPT_QUANT` (default quantification method),
//! `SAFETY_OPT_TELEMETRY` (the observability ladder) and
//! `SAFETY_OPT_FAILPOINTS` (armed fault-injection sites). Every one
//! follows the same contract:
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
//! The trim / empty / lowercase / panic dance lives here once; the knob
//! owners keep only their domain enum and their default. (The telemetry
//! crate is the one exception: the engine depends on it, so it keeps a
//! local parser with the same message format.) Per-compile policy, such
//! as what a blown BDD node budget does, is not a knob: it is a field of
//! the [`crate::CompileBudget`] value the caller passes.

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
}
