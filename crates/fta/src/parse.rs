//! Plain-text fault-tree format (Galileo-flavoured).
//!
//! Lets models live in version-controlled files next to the analysis code.
//! Line-oriented, `#` comments, names either bare identifiers or quoted
//! strings:
//!
//! ```text
//! tree Collision
//!
//! basic "OHV ignores signal" p=0.01
//! basic SignalOutOfOrder    p=1e-4
//! basic SignalNotActivated  p=1e-5
//! cond  "OHV present"       p=0.001
//!
//! SignalNotOn := or(SignalOutOfOrder, SignalNotActivated)
//! Critical    := inhibit(SignalNotOn | "OHV present")
//! Collision   := or("OHV ignores signal", Critical)
//!
//! top Collision
//! ```
//!
//! Gate forms: `and(a, b, …)`, `or(a, b, …)`, `kofn(k; a, b, …)`,
//! `inhibit(cause | condition)`. Definitions may reference gates defined
//! later in the file; cycles are rejected.
//!
//! Quoted names may contain anything: `\"`, `\\`, `\n`, and `\r` escape
//! the delimiter, backslash, and line breaks, and the statement keywords
//! (`tree`/`top`/`basic`/`cond`) are legal node names when quoted.
//!
//! [`to_text`] emits this format; `parse(to_text(t))` reproduces the tree
//! (up to leaf ordering, which the writer preserves).
//!
//! # How the parser reads
//!
//! [`parse`] reads the text once, line by line, and scans each line in
//! place, finding delimiters eight bytes at a time (every delimiter is
//! ASCII, so a byte test never splits a UTF-8 character). A name is a
//! slice borrowed from the text; only a quoted name with escapes is
//! decoded into a new string. Each name is interned once into a symbol
//! table that later becomes the tree's name index, so every occurrence
//! of a name is hashed once, with std's randomly seeded hasher since the
//! keys come from the input. A gate stores its inputs as symbols in one
//! shared argument array; a reference to a gate defined further down is
//! a symbol still pending. When every line is read, the leaves are
//! created in declaration order and the gates in depth-first order of
//! their references, by an explicit walk rather than recursion, so
//! chains of any depth parse.
//!
//! Errors and their line numbers are those of the line-at-a-time parser
//! this one replaced (`tests/parse_roundtrip.rs` keeps it as the
//! reference both are checked against): syntax errors first, in line
//! order, then the tree builder's errors in creation order, then the
//! `top` checks.

use crate::tree::{check_probability, FaultTree, GateKind, NodeId, NodeKind};
use crate::{FtaError, Result};
use std::borrow::Cow;
use std::collections::HashMap;

/// Parses a fault tree from its textual representation.
///
/// # Errors
///
/// [`FtaError::Parse`] with a line number for syntax problems,
/// [`FtaError::CyclicTree`] for recursive gate definitions, plus the usual
/// structural errors (duplicate names, bad thresholds, missing `top`).
pub fn parse(text: &str) -> Result<FaultTree> {
    // Every line declares at most one node: sizing the tables by the
    // line count spares their growth rehashes.
    let mut decls = Declarations::with_capacity(text.bytes().filter(|&b| b == b'\n').count() + 1);
    let mut lines = 0;
    for (lineno, raw) in text.lines().enumerate() {
        lines = lineno + 1;
        decls.read_line(raw, lines)?;
    }
    decls.build(lines)
}

/// A leaf statement: `basic`/`cond`, the name's symbol and the optional
/// probability.
struct LeafDecl {
    symbol: usize,
    condition: bool,
    probability: Option<f64>,
}

/// A gate definition: its name's symbol, kind, inputs (a range of
/// [`Declarations::args`]) and line.
struct GateDecl {
    symbol: usize,
    kind: GateKind,
    args: std::ops::Range<usize>,
    line: usize,
}

/// Everything one read of the text declares, names interned.
#[derive(Default)]
struct Declarations<'a> {
    tree_name: Option<Cow<'a, str>>,
    top: Option<(Cow<'a, str>, usize)>,
    /// Symbol → name.
    names: Vec<Cow<'a, str>>,
    /// Name → symbol, as `NodeId(symbol)` until [`build`](Self::build)
    /// turns each symbol into its node's id and hands the table to the
    /// tree as its name index, so a name is hashed once per occurrence.
    /// Keys come from the text, so the table keeps std's randomly seeded
    /// hasher.
    symbols: HashMap<String, NodeId>,
    leaves: Vec<LeafDecl>,
    gates: Vec<GateDecl>,
    /// Every gate's input symbols, back to back.
    args: Vec<usize>,
}

impl<'a> Declarations<'a> {
    fn with_capacity(lines: usize) -> Self {
        Self {
            names: Vec::with_capacity(lines),
            symbols: HashMap::with_capacity(lines),
            ..Self::default()
        }
    }

    fn intern(&mut self, name: Cow<'a, str>) -> usize {
        if let Some(symbol) = self.symbols.get(name.as_ref()) {
            return symbol.0;
        }
        let symbol = self.names.len();
        self.symbols
            .insert(name.as_ref().to_owned(), NodeId(symbol));
        self.names.push(name);
        symbol
    }

    /// [`intern`](Self::intern) for a name being declared, which is
    /// usually new: its key is made up front, so a new name is hashed
    /// once.
    fn declare(&mut self, name: Cow<'a, str>) -> usize {
        let next = self.names.len();
        let symbol = self
            .symbols
            .entry(name.as_ref().to_owned())
            .or_insert(NodeId(next))
            .0;
        if symbol == next {
            self.names.push(name);
        }
        symbol
    }

    /// Reads one line (without its line break).
    fn read_line(&mut self, raw: &'a str, line: usize) -> Result<()> {
        let (code, walrus) = scan_line(raw);
        let stmt = code.trim();
        if stmt.is_empty() {
            return Ok(());
        }
        if let Some(rest) = stmt.strip_prefix("tree ") {
            let (name, rest) = take_name(rest, line)?;
            expect_empty(rest, line)?;
            self.tree_name = Some(name);
        } else if let Some(rest) = stmt.strip_prefix("top ") {
            let (name, rest) = take_name(rest, line)?;
            expect_empty(rest, line)?;
            self.top = Some((name, line));
        } else if let Some(rest) = stmt.strip_prefix("basic ") {
            self.read_leaf(rest, false, line)?;
        } else if let Some(rest) = stmt.strip_prefix("cond ") {
            self.read_leaf(rest, true, line)?;
        } else if let Some(at) = walrus {
            // `scan_line` indexes the raw line, `stmt` starts after its
            // leading whitespace, which holds no `:=`.
            let at = at - (code.len() - code.trim_start().len());
            self.read_gate(&stmt[..at], &stmt[at + 2..], line)?;
        } else {
            return Err(FtaError::Parse {
                line,
                message: format!("unrecognized statement: {stmt:?}"),
            });
        }
        Ok(())
    }

    fn read_leaf(&mut self, rest: &'a str, condition: bool, line: usize) -> Result<()> {
        let (name, rest) = take_name(rest, line)?;
        let rest = rest.trim();
        let probability = if rest.is_empty() {
            None
        } else {
            let p = rest.strip_prefix("p=").ok_or_else(|| FtaError::Parse {
                line,
                message: format!("expected `p=<value>`, found {rest:?}"),
            })?;
            Some(p.trim().parse().map_err(|_| FtaError::Parse {
                line,
                message: format!("invalid probability literal {p:?}"),
            })?)
        };
        let symbol = self.declare(name);
        self.leaves.push(LeafDecl {
            symbol,
            condition,
            probability,
        });
        Ok(())
    }

    fn read_gate(&mut self, lhs: &'a str, rhs: &'a str, line: usize) -> Result<()> {
        let (name, lhs_rest) = take_name(lhs, line)?;
        expect_empty(lhs_rest, line)?;
        let rhs = rhs.trim();
        let open = rhs.find('(').ok_or_else(|| FtaError::Parse {
            line,
            message: format!("expected gate form after :=, found {rhs:?}"),
        })?;
        if !rhs.ends_with(')') {
            return Err(FtaError::Parse {
                line,
                message: "gate definition must end with `)`".to_string(),
            });
        }
        let body = &rhs[open + 1..rhs.len() - 1];
        let start = self.args.len();
        let kind = match rhs[..open].trim() {
            "and" => {
                self.read_inputs(body, line)?;
                GateKind::And
            }
            "or" => {
                self.read_inputs(body, line)?;
                GateKind::Or
            }
            "kofn" => {
                let (k_str, list) = body.split_once(';').ok_or_else(|| FtaError::Parse {
                    line,
                    message: "kofn needs the form kofn(k; a, b, …)".to_string(),
                })?;
                let k = k_str.trim().parse().map_err(|_| FtaError::Parse {
                    line,
                    message: format!("invalid threshold {k_str:?}"),
                })?;
                self.read_inputs(list, line)?;
                GateKind::KOfN(k)
            }
            "inhibit" => {
                let at = find_unquoted(body, b'|').ok_or_else(|| FtaError::Parse {
                    line,
                    message: "inhibit needs the form inhibit(cause | condition)".to_string(),
                })?;
                let (cause, r1) = take_name(&body[..at], line)?;
                expect_empty(r1, line)?;
                let (cond, r2) = take_name(&body[at + 1..], line)?;
                expect_empty(r2, line)?;
                let cause = self.intern(cause);
                let cond = self.intern(cond);
                self.args.extend([cause, cond]);
                GateKind::Inhibit
            }
            other => {
                return Err(FtaError::Parse {
                    line,
                    message: format!("unknown gate type {other:?}"),
                })
            }
        };
        let symbol = self.declare(name);
        self.gates.push(GateDecl {
            symbol,
            kind,
            args: start..self.args.len(),
            line,
        });
        Ok(())
    }

    /// Reads a comma-separated input list onto [`args`](Self::args);
    /// blank entries are skipped, and at least one input is required.
    ///
    /// Each entry is read from where the previous one ended: a name (a
    /// bare name stops before any comma, a quoted one holds no comma
    /// outside its quotes), then blanks up to the comma or the end. Only
    /// an entry with more after its name looks for its comma, to report
    /// the rest of that entry.
    fn read_inputs(&mut self, body: &'a str, line: usize) -> Result<()> {
        let start = self.args.len();
        let mut rest = body.trim_start();
        while !rest.is_empty() {
            if let Some(next) = rest.strip_prefix(',') {
                rest = next.trim_start();
                continue;
            }
            // A bare-name error shows the entry, not the rest of the list.
            let (name, tail) = take_name(rest, line).map_err(|e| {
                if rest.starts_with('"') {
                    e
                } else {
                    expected_name(entry(rest), line)
                }
            })?;
            let symbol = self.intern(name);
            self.args.push(symbol);
            let tail = tail.trim_start();
            rest = match tail.strip_prefix(',') {
                Some(next) => next.trim_start(),
                None if tail.is_empty() => tail,
                None => return expect_empty(entry(tail), line),
            };
        }
        if self.args.len() == start {
            return Err(FtaError::Parse {
                line,
                message: "gate needs at least one input".to_string(),
            });
        }
        Ok(())
    }

    /// Creates the tree: leaves in declaration order, then every gate
    /// after the gates it references, in declaration order otherwise.
    /// `lines` is the text's line count (the line of a missing `top`).
    ///
    /// Each node runs the checks of the [`FaultTree`] builder method that
    /// would create it, in the same order; the name check reads which
    /// symbols already have a node instead of a name index.
    fn build(self, lines: usize) -> Result<FaultTree> {
        let name = match &self.tree_name {
            Some(name) => name.to_string(),
            None => "fault-tree".to_string(),
        };
        let mut ft = FaultTree::new(name);
        ft.reserve(self.leaves.len() + self.gates.len());
        let mut node_of: Vec<Option<NodeId>> = vec![None; self.names.len()];
        for leaf in &self.leaves {
            if let Some(p) = leaf.probability {
                check_probability(&self.names[leaf.symbol], p)?;
            }
            let kind = if leaf.condition {
                NodeKind::Condition {
                    probability: leaf.probability,
                }
            } else {
                NodeKind::BasicEvent {
                    probability: leaf.probability,
                }
            };
            self.create(&mut ft, &mut node_of, leaf.symbol, kind)?;
        }

        // The last definition of a name is the one references reach.
        let mut gate_of: Vec<Option<usize>> = vec![None; self.names.len()];
        for (i, gate) in self.gates.iter().enumerate() {
            gate_of[gate.symbol] = Some(i);
        }
        const UNVISITED: u8 = 0;
        const VISITING: u8 = 1;
        const DONE: u8 = 2;
        let mut state = vec![UNVISITED; self.gates.len()];
        // Depth-first walk: (gate, next input to resolve).
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in 0..self.gates.len() {
            if state[root] == DONE {
                continue;
            }
            state[root] = VISITING;
            stack.push((root, 0));
            while let Some((g, next)) = stack.last_mut() {
                let gate = &self.gates[*g];
                let args = &self.args[gate.args.clone()];
                if let Some(&r) = args.get(*next) {
                    *next += 1;
                    match gate_of[r] {
                        Some(j) if state[j] == DONE => {}
                        Some(j) if state[j] == VISITING => {
                            return Err(FtaError::CyclicTree {
                                via: self.names[self.gates[j].symbol].to_string(),
                            });
                        }
                        Some(j) => {
                            state[j] = VISITING;
                            stack.push((j, 0));
                        }
                        None if node_of[r].is_none() => {
                            return Err(FtaError::Parse {
                                line: gate.line,
                                message: format!(
                                    "gate {:?} references undeclared node {:?}",
                                    self.names[gate.symbol], self.names[r]
                                ),
                            });
                        }
                        None => {}
                    }
                    continue;
                }
                let inputs: Vec<NodeId> = args
                    .iter()
                    .map(|&r| node_of[r].expect("inputs are created first"))
                    .collect();
                ft.check_gate(&self.names[gate.symbol], gate.kind, &inputs)?;
                let kind = NodeKind::Gate {
                    kind: gate.kind,
                    inputs,
                };
                self.create(&mut ft, &mut node_of, gate.symbol, kind)?;
                state[*g] = DONE;
                stack.pop();
            }
        }

        let (top, top_line) = self.top.ok_or(FtaError::Parse {
            line: lines.max(1),
            message: "missing `top <name>` statement".to_string(),
        })?;
        let top_id = self
            .symbols
            .get(top.as_ref())
            .and_then(|symbol| node_of[symbol.0])
            .ok_or_else(|| FtaError::Parse {
                line: top_line,
                message: format!("top references unknown node {top:?}"),
            })?;
        // Every symbol is a declared node or a resolved reference to one.
        let mut names = self.symbols;
        for id in names.values_mut() {
            *id = node_of[id.0].expect("every name has its node");
        }
        ft.set_name_index(names);
        ft.set_root(top_id)?;
        Ok(ft)
    }

    /// Creates the node of `symbol` unless its name is taken.
    fn create(
        &self,
        ft: &mut FaultTree,
        node_of: &mut [Option<NodeId>],
        symbol: usize,
        kind: NodeKind,
    ) -> Result<()> {
        if node_of[symbol].is_some() {
            return Err(FtaError::DuplicateName {
                name: self.names[symbol].to_string(),
            });
        }
        node_of[symbol] = Some(ft.push_unnamed(self.names[symbol].to_string(), kind));
        Ok(())
    }
}

/// Index of the first byte at or after `from` that is one of `set`, or
/// `bytes.len()`. Eight bytes are tested at a time: a byte equal to
/// `b` is a zero byte of the word xor `b`, which the classic
/// `(x − 0x01…) & !x & 0x80…` test flags. Borrows can flag a byte above a
/// true zero byte too, never below one, so the lowest flag is exact.
fn find_byte<const N: usize>(bytes: &[u8], from: usize, set: [u8; N]) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let mut i = from;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let mut flags = 0;
        for b in set {
            let x = word ^ (LO * u64::from(b));
            flags |= x.wrapping_sub(LO) & !x & HI;
        }
        if flags != 0 {
            return i + (flags.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while let Some(b) = bytes.get(i) {
        if set.contains(b) {
            return i;
        }
        i += 1;
    }
    bytes.len().max(from)
}

/// Index of the `"` that closes a quoted name whose text starts at
/// `from`, skipping escaped characters, or `bytes.len()` (or past it)
/// if the quote is not closed.
fn closing_quote(bytes: &[u8], mut from: usize) -> usize {
    loop {
        from = find_byte(bytes, from, [b'"', b'\\']);
        match bytes.get(from) {
            Some(b'\\') => from += 2,
            _ => return from,
        }
    }
}

/// One scan of a raw line under the quote rules (`"` toggles a quoted
/// name, `\` escapes the next character inside one): the text before
/// the first `#` outside quotes, and the byte index of the first `:=`
/// outside quotes in that text.
fn scan_line(line: &str) -> (&str, Option<usize>) {
    let bytes = line.as_bytes();
    let mut walrus = None;
    let mut i = 0;
    loop {
        i = find_byte(bytes, i, [b'"', b'#', b':']);
        match bytes.get(i) {
            None => return (line, walrus),
            Some(b'#') => return (&line[..i], walrus),
            Some(b':') => {
                if walrus.is_none() && bytes.get(i + 1) == Some(&b'=') {
                    walrus = Some(i);
                }
                i += 1;
            }
            Some(_) => i = closing_quote(bytes, i + 1) + 1,
        }
    }
}

/// Byte index of the first `delim` outside quoted names.
fn find_unquoted(s: &str, delim: u8) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut i = 0;
    loop {
        i = find_byte(bytes, i, [b'"', delim]);
        match bytes.get(i) {
            None => return None,
            Some(b'"') => i = closing_quote(bytes, i + 1) + 1,
            Some(_) => return Some(i),
        }
    }
}

/// Reads a (possibly quoted) name from the front of `s`; returns the name
/// and the remaining string. A bare name is borrowed from `s`; a quoted
/// one too unless it holds escapes ([`quote`] emits `\"`, `\\`, `\n`,
/// `\r`), which are decoded into a new string.
fn take_name(s: &str, line: usize) -> Result<(Cow<'_, str>, &str)> {
    let s = s.trim_start();
    let Some(rest) = s.strip_prefix('"') else {
        let end = bare_name_len(s);
        if end == 0 {
            return Err(expected_name(s, line));
        }
        return Ok((Cow::Borrowed(&s[..end]), &s[end..]));
    };
    let bytes = rest.as_bytes();
    let mut decoded: Option<String> = None;
    // Start of the run of plain characters not yet copied to `decoded`.
    let mut run = 0;
    let mut i = 0;
    loop {
        i = find_byte(bytes, i, [b'"', b'\\']);
        match bytes.get(i) {
            None => {
                return Err(FtaError::Parse {
                    line,
                    message: "unterminated quoted name".to_string(),
                })
            }
            Some(b'"') => {
                let name = match decoded {
                    None => Cow::Borrowed(&rest[..i]),
                    Some(mut name) => {
                        name.push_str(&rest[run..i]);
                        Cow::Owned(name)
                    }
                };
                return Ok((name, &rest[i + 1..]));
            }
            Some(b'\\') => {
                let Some(esc) = rest[i + 1..].chars().next() else {
                    return Err(FtaError::Parse {
                        line,
                        message: "dangling escape in quoted name".to_string(),
                    });
                };
                let name = decoded.get_or_insert_with(String::new);
                name.push_str(&rest[run..i]);
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
                i += 1 + esc.len_utf8();
                run = i;
            }
            Some(_) => unreachable!("find_byte stops at a quote or a backslash"),
        }
    }
}

/// Length in bytes of the bare name (alphanumerics, `_` and `-`) that
/// starts `s`.
fn bare_name_len(s: &str) -> usize {
    let bytes = s.as_bytes();
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' {
            i += 1;
        } else if b.is_ascii() {
            break;
        } else {
            match s[i..].chars().next() {
                Some(c) if c.is_alphanumeric() => i += c.len_utf8(),
                _ => break,
            }
        }
    }
    i
}

fn expected_name(s: &str, line: usize) -> FtaError {
    FtaError::Parse {
        line,
        message: format!("expected a name at {s:?}"),
    }
}

/// The entry of an input list that starts `s`: up to the first comma
/// outside quoted names.
fn entry(s: &str) -> &str {
    &s[..find_unquoted(s, b',').unwrap_or(s.len())]
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

/// Serializes a fault tree to the textual format accepted by [`parse`].
///
/// # Errors
///
/// [`FtaError::NoRoot`] if the tree has no root.
pub fn to_text(tree: &FaultTree) -> Result<String> {
    use std::fmt::Write as _;
    let root = tree.root()?;
    let mut out = String::new();
    let _ = writeln!(out, "tree {}", quote(tree.name()));
    let _ = writeln!(out);
    for &leaf in tree.leaves() {
        let node = tree.node(leaf);
        let keyword = if node.is_condition() { "cond" } else { "basic" };
        match node.probability() {
            Some(p) => {
                let _ = writeln!(out, "{keyword} {} p={p}", quote(node.name()));
            }
            None => {
                let _ = writeln!(out, "{keyword} {}", quote(node.name()));
            }
        }
    }
    let _ = writeln!(out);
    for (_, node) in tree.iter() {
        if let NodeKind::Gate { kind, inputs } = node.kind() {
            let args: Vec<String> = inputs.iter().map(|&i| quote(tree.node(i).name())).collect();
            let rhs = match kind {
                GateKind::And => format!("and({})", args.join(", ")),
                GateKind::Or => format!("or({})", args.join(", ")),
                GateKind::KOfN(k) => format!("kofn({k}; {})", args.join(", ")),
                GateKind::Inhibit => format!("inhibit({} | {})", args[0], args[1]),
            };
            let _ = writeln!(out, "{} := {rhs}", quote(node.name()));
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "top {}", quote(tree.node(root).name()));
    Ok(out)
}

fn quote(name: &str) -> String {
    // Statement keywords must be quoted even when they look bare: a gate
    // line `top := or(…)` would otherwise dispatch as a `top` statement.
    const STATEMENT_KEYWORDS: [&str; 4] = ["tree", "top", "basic", "cond"];
    let bare = !name.is_empty()
        && !STATEMENT_KEYWORDS.contains(&name)
        && name
            .chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '-');
    if bare {
        name.to_string()
    } else {
        let mut out = String::with_capacity(name.len() + 2);
        out.push('"');
        for c in name.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcs;

    const ELBTUNNEL_SNIPPET: &str = r#"
# Fig. 2 of the paper, with made-up probabilities.
tree Collision

basic "OHV ignores signal" p=0.01
basic SignalOutOfOrder    p=1e-4
basic SignalNotActivated  p=1e-5

SignalNotOn := or(SignalOutOfOrder, SignalNotActivated)
Collision   := or("OHV ignores signal", SignalNotOn)

top Collision
"#;

    #[test]
    fn parses_paper_snippet() {
        let ft = parse(ELBTUNNEL_SNIPPET).unwrap();
        assert_eq!(ft.name(), "Collision");
        assert_eq!(ft.leaves().len(), 3);
        let mcs = mcs::bottom_up(&ft).unwrap();
        assert_eq!(mcs.len(), 3);
        let pm = ft.stored_probabilities().unwrap();
        let p = crate::quant::rare_event(&mcs, &pm).unwrap();
        assert!((p - 0.01011).abs() < 1e-12);
    }

    #[test]
    fn forward_references_are_resolved() {
        let text = r#"
tree t
Top := or(Later, A)
Later := and(B, C)
basic A p=0.1
basic B p=0.2
basic C p=0.3
top Top
"#;
        let ft = parse(text).unwrap();
        assert_eq!(mcs::bottom_up(&ft).unwrap().len(), 2);
    }

    #[test]
    fn detects_cycles() {
        let text = "\ntree t\nA := or(B)\nB := or(A)\nbasic X\ntop A\n";
        assert!(matches!(parse(text), Err(FtaError::CyclicTree { .. })));
    }

    #[test]
    fn kofn_and_inhibit_forms() {
        let text = r#"
basic A p=0.1
basic B p=0.1
basic C p=0.1
cond Running p=0.8
Voter := kofn(2; A, B, C)
Top := inhibit(Voter | Running)
top Top
"#;
        let ft = parse(text).unwrap();
        let mcs = mcs::bottom_up(&ft).unwrap();
        assert_eq!(mcs.len(), 3);
        assert!(mcs.iter().all(|cs| cs.order() == 3)); // 2 failures + condition
        let cond_leaf = ft.node_by_name("Running").unwrap();
        assert!(ft.node(cond_leaf).is_condition());
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let err = parse("tree t\nbogus statement\n").unwrap_err();
        match err {
            FtaError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
        let err = parse("basic A p=oops\ntop A\n").unwrap_err();
        assert!(matches!(err, FtaError::Parse { line: 1, .. }));
    }

    #[test]
    fn missing_top_is_an_error() {
        assert!(matches!(
            parse("basic A p=0.5\n"),
            Err(FtaError::Parse { .. })
        ));
    }

    #[test]
    fn undeclared_reference_is_an_error() {
        let err = parse("G := or(Ghost)\ntop G\n").unwrap_err();
        match err {
            FtaError::Parse { message, .. } => assert!(message.contains("Ghost")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn quoted_names_with_spaces_and_hash() {
        let text = "basic \"a # strange, name\" p=0.5\nT := or(\"a # strange, name\")\ntop T\n";
        let ft = parse(text).unwrap();
        assert!(ft.node_by_name("a # strange, name").is_some());
    }

    #[test]
    fn round_trip_preserves_semantics() {
        let ft = parse(ELBTUNNEL_SNIPPET).unwrap();
        let text = to_text(&ft).unwrap();
        let back = parse(&text).unwrap();
        assert_eq!(back.name(), ft.name());
        assert_eq!(back.leaves().len(), ft.leaves().len());
        assert_eq!(mcs::bottom_up(&back).unwrap(), mcs::bottom_up(&ft).unwrap());
        assert_eq!(
            back.stored_probabilities().unwrap(),
            ft.stored_probabilities().unwrap()
        );
    }

    /// Regression: a gate named like a statement keyword used to be
    /// emitted bare, so `top := or(…)` re-parsed as a `top` statement
    /// (a syntax error at best). [`quote`] now quotes the keywords.
    #[test]
    fn keyword_named_gates_round_trip() {
        for keyword in ["tree", "top", "basic", "cond"] {
            let mut ft = FaultTree::new("kw");
            let a = ft.basic_event_with_probability("a", 0.1).unwrap();
            let b = ft.basic_event_with_probability("b", 0.2).unwrap();
            let g = ft.or_gate(keyword, [a, b]).unwrap();
            let root = ft.and_gate("root", [g, a]).unwrap();
            ft.set_root(root).unwrap();
            let back = parse(&to_text(&ft).unwrap()).unwrap();
            assert_eq!(back, ft, "keyword {keyword:?}");
        }
    }

    /// Regression: names containing `"`, `\`, newlines, the `:=` marker,
    /// or the inhibit `|` separator used to be unrepresentable (no
    /// escaping; `split_once` was not quote-aware).
    #[test]
    fn adversarial_names_round_trip() {
        let names = [
            "quote \" inside",
            "back\\slash",
            "line\nbreak",
            "carriage\rreturn",
            "walrus := here",
            "pipe | here",
            "comma, semi; paren ) close",
            "# not a comment",
        ];
        let mut ft = FaultTree::new("adversarial \" tree \\ name");
        let leaves: Vec<NodeId> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                ft.basic_event_with_probability(format!("{n} #{i}"), 0.01 * (i + 1) as f64)
                    .unwrap()
            })
            .collect();
        let cond = ft.condition_with_probability("cond | \"x\"", 0.5).unwrap();
        let v = ft
            .k_of_n_gate("kofn; gate", 2, leaves[..4].to_vec())
            .unwrap();
        let inh = ft.inhibit_gate("inhibit | gate", v, cond).unwrap();
        let rest = ft.or_gate("or := gate", leaves[4..].to_vec()).unwrap();
        let root = ft.or_gate("root \"|\" gate", [inh, rest]).unwrap();
        ft.set_root(root).unwrap();
        let back = parse(&to_text(&ft).unwrap()).unwrap();
        assert_eq!(back, ft);
    }

    #[test]
    fn unknown_escape_is_a_parse_error() {
        let err = parse("basic \"a\\qb\" p=0.1\ntop \"a\\qb\"\n").unwrap_err();
        assert!(matches!(err, FtaError::Parse { line: 1, .. }), "{err:?}");
    }

    #[test]
    fn round_trip_with_all_gate_kinds() {
        let mut ft = FaultTree::new("mixed");
        let a = ft.basic_event_with_probability("a", 0.1).unwrap();
        let b = ft.basic_event_with_probability("b", 0.2).unwrap();
        let c = ft.basic_event_with_probability("c", 0.3).unwrap();
        let cond = ft.condition_with_probability("env ok", 0.9).unwrap();
        let v = ft.k_of_n_gate("v", 2, [a, b, c]).unwrap();
        let i = ft.inhibit_gate("i", v, cond).unwrap();
        let and = ft.and_gate("both", [i, a]).unwrap();
        ft.set_root(and).unwrap();
        let back = parse(&to_text(&ft).unwrap()).unwrap();
        assert_eq!(mcs::bottom_up(&back).unwrap(), mcs::bottom_up(&ft).unwrap());
    }
}
