//! Property-based contracts for the textual format.
//!
//! * Round trip: `parse(to_text(t)) ≡ t`, structurally — the generator
//!   creates all leaves before any gate and the parser does the same, so
//!   arena order, leaf slots, names, stored probabilities, gate kinds,
//!   and the root all survive the trip and plain `==` is the right check.
//! * Totality and agreement: on arbitrary text, on token soups of the
//!   format's own pieces, and on byte and line mutations of `to_text`
//!   output, `parse` returns `Ok` or `Err` without panicking, and agrees
//!   with [`reference::parse`], the line-at-a-time parser it replaced:
//!   equal trees on `Ok`, the same error (variant, line and message) on
//!   `Err`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safety_opt_fta::parse::{parse, to_text};
use safety_opt_fta::synth::{random_tree, RandomTreeConfig};
use safety_opt_fta::tree::FaultTree;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_trees_round_trip_exactly(
        seed in 0u64..10_000,
        num_leaves in 2usize..14,
        num_gates in 1usize..12,
        max_inputs in 2usize..6,
        gate_reuse in 0.0f64..0.9,
        leaf_probability in 1e-9f64..1.0,
    ) {
        let config = RandomTreeConfig {
            num_leaves,
            num_gates,
            max_inputs,
            leaf_probability,
            gate_reuse,
        };
        let t = random_tree(config, seed);
        let text = to_text(&t).expect("serializable");
        let back = parse(&text)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n--- emitted ---\n{text}"));
        prop_assert_eq!(back, t);
    }

    #[test]
    fn adversarially_named_trees_round_trip_exactly(seed in 0u64..2_000) {
        let t = nasty_tree(seed);
        let text = to_text(&t).expect("serializable");
        let back = parse(&text)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n--- emitted ---\n{text}"));
        prop_assert_eq!(back, t);
    }
}

/// A small fixed-shape tree whose node names are drawn from a menu of
/// characters that historically broke the writer or the parser: quote,
/// backslash, line breaks, the `:=` marker, the inhibit `|` separator,
/// commas/semicolons/parens, `#`, whitespace, and the statement
/// keywords.
fn nasty_tree(seed: u64) -> FaultTree {
    const MENU: &[char] = &[
        '"', '\\', '\n', '\r', '|', ',', ';', '(', ')', '#', ' ', ':', '=', '-', '_', 'a', 'Z',
        '0', 'é', '€',
    ];
    const KEYWORDS: &[&str] = &[
        "tree", "top", "basic", "cond", "and", "or", "kofn", "inhibit",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut name = |tag: usize| -> String {
        if rng.gen::<f64>() < 0.2 {
            // Sometimes a bare keyword, sometimes decorated with menu noise.
            let kw = KEYWORDS[rng.gen_range(0..KEYWORDS.len())];
            if rng.gen::<bool>() {
                return format!("{kw}\u{1}{tag}", kw = kw);
            }
            return format!("{kw}~{tag}");
        }
        let len = rng.gen_range(0..10);
        let mut s: String = (0..len)
            .map(|_| MENU[rng.gen_range(0..MENU.len())])
            .collect();
        // A tag keeps names unique without disturbing the nasty prefix.
        s.push_str(&format!("\u{1}{tag}"));
        s
    };

    let mut ft = FaultTree::new(name(0));
    let leaves: Vec<_> = (1..=5)
        .map(|i| {
            let p = (i as f64) * 0.01;
            ft.basic_event_with_probability(name(i), p).unwrap()
        })
        .collect();
    let cond = ft.condition_with_probability(name(6), 0.5).unwrap();
    let voter = ft.k_of_n_gate(name(7), 2, leaves[..3].to_vec()).unwrap();
    let inh = ft.inhibit_gate(name(8), voter, cond).unwrap();
    let tail = ft.or_gate(name(9), leaves[3..].to_vec()).unwrap();
    let root = ft.or_gate(name(10), [inh, tail]).unwrap();
    ft.set_root(root).unwrap();
    ft
}

/// The exact trees that motivated the fixes, pinned as plain unit cases
/// so a proptest-shrinking regression can never hide them.
#[test]
fn keyword_gate_and_separator_names_round_trip() {
    let mut ft = FaultTree::new("pinned");
    let a = ft.basic_event_with_probability("top", 1e-7).unwrap();
    let b = ft.basic_event_with_probability("a | b", 0.25).unwrap();
    let c = ft.condition_with_probability("x := y", 0.5).unwrap();
    let voter = ft.k_of_n_gate("basic", 1, [a, b]).unwrap();
    let root = ft.inhibit_gate("cond", voter, c).unwrap();
    ft.set_root(root).unwrap();
    let back = parse(&to_text(&ft).unwrap()).unwrap();
    assert_eq!(back, ft);
}

/// `parse` and the reference parser give the same tree or the same error.
fn agree(text: &str) -> Result<(), TestCaseError> {
    let got = parse(text);
    let want = reference::parse(text);
    match (&got, &want) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "different trees for {:?}", text),
        (Err(a), Err(b)) => prop_assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "different errors for {:?}",
            text
        ),
        _ => prop_assert!(false, "{got:?} against {want:?} for {text:?}"),
    }
    Ok(())
}

/// Pieces of the format, well and badly formed, and characters its
/// scanner treats specially (quotes, escapes, separators, Unicode
/// whitespace and alphanumerics).
const PIECES: &[&str] = &[
    "tree ", "top ", "basic ", "cond ", " := ", ":=", "and(", "or(", "kofn(", "inhibit(",
    "kofn(2; ", ")", "(", ", ", ",", ";", " | ", "|", "p=", "p=0.5", "p=1e-3", "p=2", "p=NaN",
    "p=-0", "#", "\"", "\\", "\\\"", "\\n", "\\q", "\n", "\r\n", "\r", " ", "\t", "\u{a0}",
    "\u{85}", "\u{2003}", "a", "b", "c", "G", "top", "é", "€", "x_1", "y-2", "0", "3",
];

fn token_soup(rng: &mut StdRng) -> String {
    let n = rng.gen_range(0..40);
    (0..n)
        .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
        .collect()
}

fn random_text(rng: &mut StdRng) -> String {
    let n = rng.gen_range(0..200);
    let bytes: Vec<u8> = (0..n)
        .map(|_| match rng.gen_range(0..4) {
            // Mostly printable ASCII, where the grammar lives.
            0..=2 => rng.gen_range(0x20usize..0x7f) as u8,
            _ => rng.gen::<u32>() as u8,
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Characters a byte mutation inserts or substitutes.
const MUTANTS: &[char] = &[
    '"', '\\', '\n', '\r', '\t', ' ', '#', ',', ';', '|', '(', ')', ':', '=', 'p', '0', 'a', 'é',
    '\u{a0}', '\u{1}',
];

/// One to four character edits: delete, insert or replace.
fn mutate_chars(text: &str, rng: &mut StdRng) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..rng.gen_range(1..5) {
        let at = rng.gen_range(0..=chars.len());
        let c = MUTANTS[rng.gen_range(0..MUTANTS.len())];
        match rng.gen_range(0..3) {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            1 if at < chars.len() => chars[at] = c,
            _ => chars.insert(at, c),
        }
    }
    chars.into_iter().collect()
}

/// Statements a line mutation inserts: unknown references, cycles,
/// duplicates, bad thresholds and probabilities, and stray syntax.
const LINES: &[&str] = &[
    "top Nope",
    "top a",
    "G := or(G)",
    "H := and(G, H)",
    "basic a p=0.5",
    "basic dup p=0.1",
    "cond dup",
    "K := kofn(0; a, b)",
    "K := kofn(9; a, b)",
    "D := or(a, a)",
    "basic q p=1.5",
    "tree renamed",
    "X := or()",
    "X := xor(a)",
    "I := inhibit(a, b)",
    "basic \"open\\",
    "",
    "# comment",
];

/// One to three line edits: delete, duplicate, swap or insert a line,
/// or swap one keyword for another.
fn mutate_lines(text: &str, rng: &mut StdRng) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    for _ in 0..rng.gen_range(1..4) {
        let n = lines.len();
        let at = rng.gen_range(0..n.max(1));
        match rng.gen_range(0..5) {
            0 if n > 0 => {
                lines.remove(at);
            }
            1 if n > 0 => {
                let line = lines[at].clone();
                lines.insert(rng.gen_range(0..=n), line);
            }
            2 if n > 1 => lines.swap(at, rng.gen_range(0..n)),
            3 if n > 0 => {
                const SWAPS: &[(&str, &str)] = &[
                    ("and(", "or("),
                    ("or(", "kofn(2; "),
                    ("basic ", "cond "),
                    ("kofn(2;", "kofn(7;"),
                    ("inhibit(", "and("),
                    (", ", " | "),
                    ("p=", "p=-"),
                ];
                let (from, to) = SWAPS[rng.gen_range(0..SWAPS.len())];
                lines[at] = lines[at].replacen(from, to, 1);
            }
            _ => lines.insert(
                rng.gen_range(0..=n),
                LINES[rng.gen_range(0..LINES.len())].to_owned(),
            ),
        }
    }
    let mut out = lines.join(if rng.gen::<bool>() { "\n" } else { "\r\n" });
    if rng.gen::<bool>() {
        out.push('\n');
    }
    out
}

fn small_random_tree(seed: u64) -> FaultTree {
    let mut rng = StdRng::seed_from_u64(seed);
    random_tree(
        RandomTreeConfig {
            num_leaves: rng.gen_range(2..8),
            num_gates: rng.gen_range(1..8),
            max_inputs: rng.gen_range(2..5),
            leaf_probability: 0.01,
            gate_reuse: 0.5,
        },
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn arbitrary_text_parses_like_the_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        agree(&random_text(&mut rng))?;
        agree(&token_soup(&mut rng))?;
    }

    #[test]
    fn mutated_trees_parse_like_the_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = if rng.gen::<bool>() {
            small_random_tree(seed)
        } else {
            nasty_tree(seed % 2_000)
        };
        let text = to_text(&tree).expect("serializable");
        agree(&text)?;
        agree(&mutate_chars(&text, &mut rng))?;
        agree(&mutate_lines(&text, &mut rng))?;
    }
}

/// Forward references resolve by an explicit walk, not by recursion: a
/// chain of gates each defined before the gate it reads parses at any
/// depth.
#[test]
fn deep_forward_chains_parse() {
    use std::fmt::Write as _;
    let depth = 50_000;
    let mut text = String::from("top g0\n");
    for i in 0..depth {
        let _ = writeln!(text, "g{i} := or(g{}, a)", i + 1);
    }
    let _ = writeln!(text, "g{depth} := and(a, b)");
    text.push_str("basic a p=0.1\nbasic b p=0.2\n");
    let tree = parse(&text).expect("a chain is a tree");
    assert_eq!(tree.len(), depth + 3);
    assert_eq!(tree.node(tree.root().unwrap()).name(), "g0");
}

/// The line-at-a-time parser [`parse`] replaced, kept as the reference its
/// output and errors are checked against.
mod reference {
    use safety_opt_fta::tree::{FaultTree, NodeId};
    use safety_opt_fta::FtaError;
    use std::collections::HashMap;

    type Result<T> = std::result::Result<T, FtaError>;

    pub(super) fn parse(text: &str) -> Result<FaultTree> {
        let mut tree_name: Option<String> = None;
        let mut top_name: Option<(String, usize)> = None;
        // name -> (kind, prob, line) for leaves
        let mut leaf_decls: Vec<(String, bool, Option<f64>, usize)> = Vec::new();
        // name -> (gate spec, line)
        let mut gate_decls: Vec<(String, GateSpec, usize)> = Vec::new();

        for (lineno, raw) in text.lines().enumerate() {
            let lineno = lineno + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("tree ") {
                let (name, rest) = take_name(rest, lineno)?;
                expect_empty(rest, lineno)?;
                tree_name = Some(name);
            } else if let Some(rest) = line.strip_prefix("top ") {
                let (name, rest) = take_name(rest, lineno)?;
                expect_empty(rest, lineno)?;
                top_name = Some((name, lineno));
            } else if let Some(rest) = line.strip_prefix("basic ") {
                let (name, prob) = parse_leaf(rest, lineno)?;
                leaf_decls.push((name, false, prob, lineno));
            } else if let Some(rest) = line.strip_prefix("cond ") {
                let (name, prob) = parse_leaf(rest, lineno)?;
                leaf_decls.push((name, true, prob, lineno));
            } else if let Some((lhs, rhs)) = split_top_level(line, ":=") {
                let (name, spec) = parse_gate(lhs, rhs, lineno)?;
                gate_decls.push((name, spec, lineno));
            } else {
                return Err(FtaError::Parse {
                    line: lineno,
                    message: format!("unrecognized statement: {line:?}"),
                });
            }
        }

        let name = tree_name.unwrap_or_else(|| "fault-tree".to_string());
        let mut ft = FaultTree::new(name);

        // Create leaves in declaration order so leaf indices are stable.
        let mut ids: HashMap<String, NodeId> = HashMap::new();
        for (name, is_cond, prob, _line) in &leaf_decls {
            let id = match (is_cond, prob) {
                (false, Some(p)) => ft.basic_event_with_probability(name.clone(), *p)?,
                (false, None) => ft.basic_event(name.clone())?,
                (true, Some(p)) => ft.condition_with_probability(name.clone(), *p)?,
                (true, None) => ft.condition(name.clone())?,
            };
            ids.insert(name.clone(), id);
        }

        // Build gates depth-first over the reference graph, detecting cycles.
        let gate_index: HashMap<String, usize> = gate_decls
            .iter()
            .enumerate()
            .map(|(i, (n, _, _))| (n.clone(), i))
            .collect();
        let mut state = vec![0u8; gate_decls.len()]; // 0 unvisited, 1 visiting, 2 done
        for i in 0..gate_decls.len() {
            build_gate(i, &gate_decls, &gate_index, &mut state, &mut ids, &mut ft)?;
        }

        let (top, top_line) = top_name.ok_or(FtaError::Parse {
            line: text.lines().count().max(1),
            message: "missing `top <name>` statement".to_string(),
        })?;
        let top_id = *ids.get(&top).ok_or(FtaError::Parse {
            line: top_line,
            message: format!("top references unknown node {top:?}"),
        })?;
        ft.set_root(top_id)?;
        Ok(ft)
    }

    #[derive(Debug, Clone)]
    enum GateSpec {
        And(Vec<String>),
        Or(Vec<String>),
        KOfN(usize, Vec<String>),
        Inhibit(String, String),
    }

    impl GateSpec {
        fn references(&self) -> Vec<&String> {
            match self {
                GateSpec::And(v) | GateSpec::Or(v) => v.iter().collect(),
                GateSpec::KOfN(_, v) => v.iter().collect(),
                GateSpec::Inhibit(a, b) => vec![a, b],
            }
        }
    }

    fn build_gate(
        i: usize,
        decls: &[(String, GateSpec, usize)],
        index: &HashMap<String, usize>,
        state: &mut [u8],
        ids: &mut HashMap<String, NodeId>,
        ft: &mut FaultTree,
    ) -> Result<()> {
        if state[i] == 2 {
            return Ok(());
        }
        if state[i] == 1 {
            return Err(FtaError::CyclicTree {
                via: decls[i].0.clone(),
            });
        }
        state[i] = 1;
        let (name, spec, line) = &decls[i];
        for r in spec.references() {
            if let Some(&j) = index.get(r) {
                build_gate(j, decls, index, state, ids, ft)?;
            } else if !ids.contains_key(r) {
                return Err(FtaError::Parse {
                    line: *line,
                    message: format!("gate {name:?} references undeclared node {r:?}"),
                });
            }
        }
        let resolve = |name: &String| -> NodeId { ids[name] };
        let id = match spec {
            GateSpec::And(inputs) => ft.and_gate(name.clone(), inputs.iter().map(resolve))?,
            GateSpec::Or(inputs) => ft.or_gate(name.clone(), inputs.iter().map(resolve))?,
            GateSpec::KOfN(k, inputs) => {
                ft.k_of_n_gate(name.clone(), *k, inputs.iter().map(resolve))?
            }
            GateSpec::Inhibit(cause, cond) => {
                ft.inhibit_gate(name.clone(), resolve(cause), resolve(cond))?
            }
        };
        ids.insert(name.clone(), id);
        state[i] = 2;
        Ok(())
    }

    fn strip_comment(line: &str) -> &str {
        // `#` outside quotes starts a comment (backslash escapes keep a
        // quoted `\"` from toggling the quote state).
        let mut in_quote = false;
        let mut escaped = false;
        for (i, c) in line.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_quote => escaped = true,
                '"' => in_quote = !in_quote,
                '#' if !in_quote => return &line[..i],
                _ => {}
            }
        }
        line
    }

    /// Splits `s` at the first occurrence of `pat` that sits outside quoted
    /// names (so `"a:=b" := or(x)` splits at the real definition marker, and
    /// an inhibit argument named `"a|b"` does not split the cause/condition).
    fn split_top_level<'a>(s: &'a str, pat: &str) -> Option<(&'a str, &'a str)> {
        let mut in_quote = false;
        let mut escaped = false;
        for (i, c) in s.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_quote => escaped = true,
                '"' => in_quote = !in_quote,
                _ if !in_quote && s[i..].starts_with(pat) => {
                    return Some((&s[..i], &s[i + pat.len()..]));
                }
                _ => {}
            }
        }
        None
    }

    /// Reads a (possibly quoted) name from the front of `s`; returns the name
    /// and the remaining string. Quoted names decode the escapes [`quote`]
    /// emits (`\"`, `\\`, `\n`, `\r`).
    fn take_name(s: &str, line: usize) -> Result<(String, &str)> {
        let s = s.trim_start();
        if let Some(rest) = s.strip_prefix('"') {
            let mut name = String::new();
            let mut chars = rest.char_indices();
            loop {
                let Some((i, c)) = chars.next() else {
                    return Err(FtaError::Parse {
                        line,
                        message: "unterminated quoted name".to_string(),
                    });
                };
                match c {
                    '"' => return Ok((name, &rest[i + 1..])),
                    '\\' => {
                        let Some((_, esc)) = chars.next() else {
                            return Err(FtaError::Parse {
                                line,
                                message: "dangling escape in quoted name".to_string(),
                            });
                        };
                        name.push(match esc {
                            '"' => '"',
                            '\\' => '\\',
                            'n' => '\n',
                            'r' => '\r',
                            other => {
                                return Err(FtaError::Parse {
                                    line,
                                    message: format!("unknown escape `\\{other}` in quoted name"),
                                })
                            }
                        });
                    }
                    c => name.push(c),
                }
            }
        } else {
            let end = s
                .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '-'))
                .unwrap_or(s.len());
            if end == 0 {
                return Err(FtaError::Parse {
                    line,
                    message: format!("expected a name at {s:?}"),
                });
            }
            Ok((s[..end].to_string(), &s[end..]))
        }
    }

    fn expect_empty(rest: &str, line: usize) -> Result<()> {
        if rest.trim().is_empty() {
            Ok(())
        } else {
            Err(FtaError::Parse {
                line,
                message: format!("unexpected trailing input: {:?}", rest.trim()),
            })
        }
    }

    fn parse_leaf(rest: &str, line: usize) -> Result<(String, Option<f64>)> {
        let (name, rest) = take_name(rest, line)?;
        let rest = rest.trim();
        if rest.is_empty() {
            return Ok((name, None));
        }
        let p = rest.strip_prefix("p=").ok_or(FtaError::Parse {
            line,
            message: format!("expected `p=<value>`, found {rest:?}"),
        })?;
        let value: f64 = p.trim().parse().map_err(|_| FtaError::Parse {
            line,
            message: format!("invalid probability literal {p:?}"),
        })?;
        Ok((name, Some(value)))
    }

    fn parse_gate(lhs: &str, rhs: &str, line: usize) -> Result<(String, GateSpec)> {
        let (name, lhs_rest) = take_name(lhs, line)?;
        expect_empty(lhs_rest, line)?;
        let rhs = rhs.trim();
        let open = rhs.find('(').ok_or(FtaError::Parse {
            line,
            message: format!("expected gate form after :=, found {rhs:?}"),
        })?;
        if !rhs.ends_with(')') {
            return Err(FtaError::Parse {
                line,
                message: "gate definition must end with `)`".to_string(),
            });
        }
        let head = rhs[..open].trim();
        let body = &rhs[open + 1..rhs.len() - 1];
        let spec = match head {
            "and" => GateSpec::And(parse_name_list(body, line)?),
            "or" => GateSpec::Or(parse_name_list(body, line)?),
            "kofn" => {
                let (k_str, list) = body.split_once(';').ok_or(FtaError::Parse {
                    line,
                    message: "kofn needs the form kofn(k; a, b, …)".to_string(),
                })?;
                let k: usize = k_str.trim().parse().map_err(|_| FtaError::Parse {
                    line,
                    message: format!("invalid threshold {k_str:?}"),
                })?;
                GateSpec::KOfN(k, parse_name_list(list, line)?)
            }
            "inhibit" => {
                let (cause, cond) = split_top_level(body, "|").ok_or(FtaError::Parse {
                    line,
                    message: "inhibit needs the form inhibit(cause | condition)".to_string(),
                })?;
                let (cause, r1) = take_name(cause, line)?;
                expect_empty(r1, line)?;
                let (cond, r2) = take_name(cond, line)?;
                expect_empty(r2, line)?;
                GateSpec::Inhibit(cause, cond)
            }
            other => {
                return Err(FtaError::Parse {
                    line,
                    message: format!("unknown gate type {other:?}"),
                })
            }
        };
        Ok((name, spec))
    }

    fn parse_name_list(body: &str, line: usize) -> Result<Vec<String>> {
        let mut out = Vec::new();
        for part in split_top_level_commas(body) {
            let (name, rest) = take_name(&part, line)?;
            expect_empty(rest, line)?;
            out.push(name);
        }
        if out.is_empty() {
            return Err(FtaError::Parse {
                line,
                message: "gate needs at least one input".to_string(),
            });
        }
        Ok(out)
    }

    fn split_top_level_commas(s: &str) -> Vec<String> {
        let mut parts = Vec::new();
        let mut current = String::new();
        let mut in_quote = false;
        let mut escaped = false;
        for c in s.chars() {
            if escaped {
                escaped = false;
                current.push(c);
                continue;
            }
            match c {
                '\\' if in_quote => {
                    escaped = true;
                    current.push(c);
                }
                '"' => {
                    in_quote = !in_quote;
                    current.push(c);
                }
                ',' if !in_quote => {
                    parts.push(std::mem::take(&mut current));
                }
                _ => current.push(c),
            }
        }
        if !current.trim().is_empty() || !parts.is_empty() {
            parts.push(current);
        }
        parts.into_iter().filter(|p| !p.trim().is_empty()).collect()
    }
}
