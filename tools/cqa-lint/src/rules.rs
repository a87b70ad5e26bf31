//! The invariant rules.
//!
//! Every rule returns [`Finding`]s. The flagship rules
//! (`no-panic-in-request-path`, `no-alloc-in-hot-path`, `rng-flow`) are
//! *transitive*: they run as reachability queries over the conservative
//! workspace call graph in [`crate::callgraph`], seeded from the server's
//! request-path files and the marked hot-path sampling regions, so a
//! panicking or allocating helper two crates away is found at its
//! definition site with the call chain in the message. The remaining rules
//! work directly on the token view from [`crate::lexer`].
//!
//! A finding on line `L` is dropped when line `L` or `L-1` carries a
//! `// cqa-lint: allow(<rule>): <reason>` comment; the reason clause is
//! mandatory (`suppression-needs-reason` polices it) so each suppression
//! is a reviewable artifact. Rationale for each rule lives in
//! `docs/ANALYSIS.md`.

use crate::callgraph::{FnId, Graph, Seed};
use crate::lexer::{Lexed, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Rule identifiers, as used in `allow(...)` suppressions and CLI output.
pub const NO_PANIC: &str = "no-panic-in-request-path";
pub const NO_ALLOC: &str = "no-alloc-in-hot-path";
pub const PROTOCOL_SYNC: &str = "protocol-doc-sync";
pub const OPAQUE: &str = "opaque-call";
pub const RNG_FLOW: &str = "rng-flow";
pub const SUPPRESSION: &str = "suppression-needs-reason";
pub const LOCK_ORDER: &str = "lock-order";
pub const NO_BLOCKING: &str = "no-blocking-while-locked";
pub const GUARD_FAULT: &str = "no-guard-across-fault-point";

/// Every rule name, for validating `allow(...)` suppressions.
pub const ALL_RULES: [&str; 9] = [
    NO_PANIC,
    NO_ALLOC,
    PROTOCOL_SYNC,
    OPAQUE,
    RNG_FLOW,
    SUPPRESSION,
    LOCK_ORDER,
    NO_BLOCKING,
    GUARD_FAULT,
];

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired (one of the `pub const` rule names).
    pub rule: &'static str,
    /// Repo-relative file the finding is in.
    pub file: String,
    /// 1-based line (0 for whole-file findings like a missing doc entry).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// True when line `line` (or the line above it) carries
/// `cqa-lint: allow(<rule>)`.
fn suppressed(lexed: &Lexed, line: u32, rule: &str) -> bool {
    let marker = format!("cqa-lint: allow({rule})");
    [line, line.saturating_sub(1)]
        .iter()
        .any(|l| lexed.comment_on(*l).is_some_and(|c| c.contains(&marker)))
}

pub(crate) fn push(
    out: &mut Vec<Finding>,
    lexed: &Lexed,
    rule: &'static str,
    file: &str,
    line: u32,
    message: String,
) {
    if !suppressed(lexed, line, rule) {
        out.push(Finding { rule, file: file.to_owned(), line, message });
    }
}

// ---------------------------------------------------------------------------
// Rule: no-panic-in-request-path (transitive)
// ---------------------------------------------------------------------------

/// Which effect a reachability pass is hunting.
#[derive(Clone, Copy, PartialEq)]
enum Effect {
    Panic,
    Alloc,
}

/// Runs a reachability query from `seeds` and reports every panic/alloc
/// effect site in the reached set, plus every opaque call the graph could
/// not see through. Seed functions may be restricted to line ranges (the
/// marked hot-path regions); transitively reached functions count in full.
fn emit_reach(
    g: &Graph<'_>,
    lexed: &[Lexed],
    seeds: &[Seed],
    effect: Effect,
    rule: &'static str,
    out: &mut Vec<Finding>,
) {
    let parent = g.reach(seeds);
    let seed_ranges: BTreeMap<FnId, &Option<Vec<(u32, u32)>>> =
        seeds.iter().map(|(id, r)| (*id, r)).collect();
    for &id in parent.keys() {
        let facts = &g.facts[id.0][id.1];
        let is_seed = seed_ranges.contains_key(&id);
        let in_scope = |line: u32| match seed_ranges.get(&id) {
            Some(Some(ranges)) => ranges.iter().any(|(a, b)| (*a..=*b).contains(&line)),
            _ => true,
        };
        let rel = &g.files[id.0].rel;
        let via = |line: u32| {
            if is_seed {
                String::new()
            } else {
                let _ = line;
                format!(" (reachable via {})", g.path_to(&parent, id))
            }
        };
        let sites = match effect {
            Effect::Panic => &facts.panics,
            Effect::Alloc => &facts.allocs,
        };
        for s in sites.iter().filter(|s| in_scope(s.line)) {
            let msg = match effect {
                Effect::Panic => format!(
                    "{} can panic a request thread; return a structured protocol error instead{}",
                    s.what,
                    via(s.line)
                ),
                Effect::Alloc => {
                    format!("{} allocates inside a hot-path region{}", s.what, via(s.line))
                }
            };
            push(out, &lexed[id.0], rule, rel, s.line, msg);
        }
        for s in facts.opaques.iter().filter(|s| in_scope(s.line)) {
            push(
                out,
                &lexed[id.0],
                OPAQUE,
                rel,
                s.line,
                format!(
                    "opaque call {} through a closure/fn pointer — the call graph cannot verify {rule} past it{}",
                    s.what,
                    via(s.line)
                ),
            );
        }
    }
}

/// Transitive panic freedom for the server's request path: every function
/// defined in the request-path files is a seed, and every panic site
/// (std `unwrap`/`expect`, `panic!`-family macros) *reachable* from a seed
/// is a finding — a panic anywhere in the closure unwinds a worker or
/// connection thread and silently drops the request instead of producing
/// the structured protocol error the client can act on. Slice/map indexing
/// is flagged in the seed files themselves (`v[i]` panics on a bad index;
/// use `.get()`).
pub fn no_panic(g: &Graph<'_>, lexed: &[Lexed], request_files: &[&str]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut seeds: Vec<Seed> = Vec::new();
    for (fi, file) in g.files.iter().enumerate() {
        if !request_files.contains(&file.rel.as_str()) {
            continue;
        }
        for (ni, f) in file.fns.iter().enumerate() {
            seeds.push(((fi, ni), None));
            for &line in &f.index_sites {
                push(
                    &mut out,
                    &lexed[fi],
                    NO_PANIC,
                    &file.rel,
                    line,
                    "indexing with [] can panic a request thread; use .get() and shed the error"
                        .to_owned(),
                );
            }
        }
    }
    emit_reach(g, lexed, &seeds, Effect::Panic, NO_PANIC, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Rule: no-alloc-in-hot-path (transitive)
// ---------------------------------------------------------------------------

/// Inclusive line ranges bracketed by `// cqa-lint: hot-path begin` /
/// `// cqa-lint: hot-path end` comments. An unclosed `begin` extends to
/// the end of the file (and is itself reported by the caller via
/// [`hot_path_regions`]' second return value).
pub fn hot_path_regions(lexed: &Lexed) -> (Vec<(u32, u32)>, Option<u32>) {
    let mut regions = Vec::new();
    let mut open: Option<u32> = None;
    for (line, text) in &lexed.comments {
        if text.contains("cqa-lint: hot-path begin") {
            open = Some(*line);
        } else if text.contains("cqa-lint: hot-path end") {
            if let Some(start) = open.take() {
                regions.push((start, *line));
            }
        }
    }
    (regions, open)
}

/// Transitive allocation freedom for the marked sampling regions: every
/// function overlapping a `hot-path` region is a seed (restricted to the
/// region's lines), and every allocation site reachable from one is a
/// finding. The four scheme sampling loops run per *sample* (millions of
/// iterations per query), so a stray `clone()` two modules away is a
/// silent orders-of-magnitude regression that no unit test fails on.
pub fn no_alloc(g: &Graph<'_>, lexed: &[Lexed]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut seeds: Vec<Seed> = Vec::new();
    for (fi, file) in g.files.iter().enumerate() {
        let (regions, unclosed) = hot_path_regions(&lexed[fi]);
        if let Some(line) = unclosed {
            push(
                &mut out,
                &lexed[fi],
                NO_ALLOC,
                &file.rel,
                line,
                "hot-path region is never closed (missing `// cqa-lint: hot-path end`)".to_owned(),
            );
        }
        if regions.is_empty() {
            continue;
        }
        for (ni, f) in file.fns.iter().enumerate() {
            let end = f.end_line.max(f.line);
            if regions.iter().any(|(a, b)| f.line <= *b && end >= *a) {
                seeds.push(((fi, ni), Some(regions.clone())));
            }
        }
    }
    emit_reach(g, lexed, &seeds, Effect::Alloc, NO_ALLOC, &mut out);
    out
}

/// Seeds shared by `rng-flow`: hot-path regions plus every estimator
/// function (the DKLR planners and Monte-Carlo loops in `crates/core`).
fn sampling_seeds(g: &Graph<'_>, lexed: &[Lexed], estimator_files: &[&str]) -> Vec<Seed> {
    let mut seeds: Vec<Seed> = Vec::new();
    for (fi, file) in g.files.iter().enumerate() {
        if estimator_files.contains(&file.rel.as_str()) {
            for ni in 0..file.fns.len() {
                seeds.push(((fi, ni), None));
            }
            continue;
        }
        let (regions, _) = hot_path_regions(&lexed[fi]);
        if regions.is_empty() {
            continue;
        }
        for (ni, f) in file.fns.iter().enumerate() {
            let end = f.end_line.max(f.line);
            if regions.iter().any(|(a, b)| f.line <= *b && end >= *a) {
                seeds.push(((fi, ni), Some(regions.clone())));
            }
        }
    }
    seeds
}

// ---------------------------------------------------------------------------
// Rule: rng-flow
// ---------------------------------------------------------------------------

/// Ambient entropy sources that would make runs irreproducible.
const AMBIENT_ENTROPY: [&str; 5] =
    ["thread_rng", "OsRng", "from_entropy", "getrandom", "SystemRandom"];

/// Every RNG reaching a sampling loop must flow from the seeded root
/// `Mt64` (constructed once per query from the request seed, `fork()`ed at
/// scheme boundaries). Two ways to break that, both flagged: an ambient
/// entropy source anywhere in production code, and a fresh
/// `Mt64::new`/`from_key` construction inside the sampling flow (reachable
/// from an estimator function or a hot-path region), which would decouple
/// the samples from the request seed and make reruns diverge.
pub fn rng_flow(
    g: &Graph<'_>,
    lexed: &[Lexed],
    stripped: &[Vec<Tok>],
    estimator_files: &[&str],
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, toks) in stripped.iter().enumerate() {
        for t in toks {
            if t.kind == TokKind::Ident && AMBIENT_ENTROPY.contains(&t.text.as_str()) {
                push(
                    &mut out,
                    &lexed[fi],
                    RNG_FLOW,
                    &g.files[fi].rel,
                    t.line,
                    format!(
                        "ambient entropy source `{}` breaks run reproducibility; all randomness must flow from the seeded root Mt64",
                        t.text
                    ),
                );
            }
        }
    }
    let seeds = sampling_seeds(g, lexed, estimator_files);
    let parent = g.reach(&seeds);
    let seed_set: BTreeSet<FnId> = seeds.iter().map(|(id, _)| *id).collect();
    for &id in parent.keys() {
        let facts = &g.facts[id.0][id.1];
        for s in &facts.rng_ctors {
            let via = if seed_set.contains(&id) {
                String::new()
            } else {
                format!(" (reachable via {})", g.path_to(&parent, id))
            };
            push(
                &mut out,
                &lexed[id.0],
                RNG_FLOW,
                &g.files[id.0].rel,
                s.line,
                format!(
                    "{} constructs a fresh RNG inside the sampling flow{via}; thread the seeded root Mt64 (or fork() it at the scheme boundary) instead",
                    s.what
                ),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: suppression-needs-reason
// ---------------------------------------------------------------------------

const ALLOW_MARKER: &str = "cqa-lint: allow(";

/// Every `cqa-lint: allow(rule)` suppression must name a known rule and
/// carry a justification clause — `// cqa-lint: allow(rule): <reason>`.
/// A bare suppression is itself a finding (and this rule is not
/// suppressible: an `allow(suppression-needs-reason)` would defeat it).
pub fn suppression_hygiene(lexed: &Lexed, file: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    for (line, text) in &lexed.comments {
        // Doc comments describe the syntax; they are never suppressions.
        if text.starts_with("///") || text.starts_with("//!") {
            continue;
        }
        let mut rest = text.as_str();
        while let Some(pos) = rest.find(ALLOW_MARKER) {
            rest = &rest[pos + ALLOW_MARKER.len()..];
            let Some(close) = rest.find(')') else {
                out.push(Finding {
                    rule: SUPPRESSION,
                    file: file.to_owned(),
                    line: *line,
                    message: "malformed suppression: missing `)` after `allow(`".to_owned(),
                });
                break;
            };
            let rule_name = rest[..close].trim();
            rest = &rest[close + 1..];
            if !ALL_RULES.contains(&rule_name) {
                out.push(Finding {
                    rule: SUPPRESSION,
                    file: file.to_owned(),
                    line: *line,
                    message: format!("suppression names unknown rule {rule_name:?}"),
                });
                continue;
            }
            if rule_name == SUPPRESSION {
                out.push(Finding {
                    rule: SUPPRESSION,
                    file: file.to_owned(),
                    line: *line,
                    message: "suppression-needs-reason cannot be suppressed".to_owned(),
                });
                continue;
            }
            let after = rest.trim_start();
            let has_reason = after.starts_with(':')
                && !after[1..].trim_start_matches([':', ' ']).trim().is_empty();
            if !has_reason {
                out.push(Finding {
                    rule: SUPPRESSION,
                    file: file.to_owned(),
                    line: *line,
                    message: format!(
                        "suppression for `{rule_name}` lacks a justification; write `// cqa-lint: allow({rule_name}): <reason>`"
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: protocol-doc-sync
// ---------------------------------------------------------------------------

/// Wire keys nested payloads document but `protocol.rs` does not build:
/// the flat stats fields assembled in `metrics.rs`. Their shape is covered
/// by the server's metrics tests; listing them here keeps the reverse
/// check exact instead of fuzzy.
pub const DOC_ONLY_KEYS: [&str; 3] = ["cache_hits", "cache_misses", "cache_canonical_rekeys"];

fn is_wire_key(s: &str) -> bool {
    !s.is_empty()
        && s.bytes().next().is_some_and(|b| b.is_ascii_lowercase() || b == b'_')
        && s.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// Extracts the wire field names `protocol.rs` reads or writes: literals
/// in `("key", value)` serialization pairs and literals passed to the
/// `get`/`req_*` accessors.
pub fn protocol_code_keys(toks: &[Tok]) -> BTreeSet<String> {
    const ACCESSORS: [&str; 5] = ["get", "req_str", "req_f64", "req_u64", "req_bool"];
    let mut keys = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Str || !is_wire_key(&t.text) {
            continue;
        }
        let prev_open = i > 0 && toks[i - 1].is_punct('(');
        if !prev_open {
            continue;
        }
        let pair_key = toks.get(i + 1).is_some_and(|n| n.is_punct(','));
        let accessor_arg = i >= 2
            && toks[i - 2].kind == TokKind::Ident
            && ACCESSORS.contains(&toks[i - 2].text.as_str());
        if pair_key || accessor_arg {
            keys.insert(t.text.clone());
        }
    }
    keys
}

/// Extracts the documented wire keys from `docs/PROTOCOL.md`: every
/// `"key":` occurrence (JSON examples and inline code alike).
pub fn protocol_doc_keys(doc: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    let bytes = doc.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len()
                && (bytes[j].is_ascii_lowercase() || bytes[j].is_ascii_digit() || bytes[j] == b'_')
            {
                j += 1;
            }
            if j > start && bytes.get(j) == Some(&b'"') {
                let mut k = j + 1;
                while k < bytes.len() && (bytes[k] == b' ' || bytes[k] == b'\t') {
                    k += 1;
                }
                if bytes.get(k) == Some(&b':') {
                    keys.insert(doc[start..j].to_owned());
                }
            }
            i = j;
        }
        i += 1;
    }
    keys
}

/// Compares the code and doc key sets. `protocol.rs` and `PROTOCOL.md`
/// must agree exactly (modulo [`DOC_ONLY_KEYS`]): a field the doc misses
/// strands client authors; a field the code misses means the doc promises
/// something the server will never send.
pub fn protocol_sync(
    code_keys: &BTreeSet<String>,
    doc_keys: &BTreeSet<String>,
    code_file: &str,
    doc_file: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for key in code_keys {
        if !doc_keys.contains(key) {
            out.push(Finding {
                rule: PROTOCOL_SYNC,
                file: doc_file.to_owned(),
                line: 0,
                message: format!(
                    "wire field {key:?} is used in {code_file} but never documented (expected a {:?} occurrence)",
                    format!("\"{key}\":")
                ),
            });
        }
    }
    for key in doc_keys {
        if !code_keys.contains(key) && !DOC_ONLY_KEYS.contains(&key.as_str()) {
            out.push(Finding {
                rule: PROTOCOL_SYNC,
                file: code_file.to_owned(),
                line: 0,
                message: format!(
                    "documented wire field {key:?} does not appear in {code_file} (stale doc, or add it to DOC_ONLY_KEYS if it moved into a nested payload)"
                ),
            });
        }
    }
    out
}

/// Extracts the wire error-kind names from `protocol.rs`: the string
/// literals inside the body of `fn from_name`, which is the exhaustive
/// wire-name → `ErrorKind` parse table (the `name()` direction holds the
/// same literals, so either would do; `from_name` is the one a stale doc
/// row would silently disagree with).
pub fn protocol_error_kinds(toks: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("fn") || !toks.get(i + 1).is_some_and(|n| n.is_ident("from_name")) {
            continue;
        }
        // Skip to the body's opening brace, then collect string literals
        // to the matching close.
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('{') {
            j += 1;
        }
        let mut depth = 0usize;
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Str => {
                    out.insert(toks[j].text.clone());
                }
                _ => {}
            }
            j += 1;
        }
    }
    out
}

/// Extracts the documented error kinds from `docs/PROTOCOL.md`: the
/// backticked first-column names of every markdown table row under a
/// heading that mentions errors. Tables in other sections (the request
/// and stats field tables) are ignored.
pub fn protocol_doc_error_kinds(doc: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut in_error_section = false;
    for line in doc.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('#') {
            in_error_section = trimmed.to_ascii_lowercase().contains("error");
            continue;
        }
        if !in_error_section || !trimmed.starts_with('|') {
            continue;
        }
        // First cell of the row; header and separator rows are not
        // backticked names and fall through.
        let Some(cell) = trimmed.trim_start_matches('|').split('|').next() else { continue };
        let cell = cell.trim();
        if let Some(name) = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`')) {
            if is_wire_key(name) {
                out.insert(name.to_owned());
            }
        }
    }
    out
}

/// Compares the error kinds `protocol.rs` parses against the error table
/// in `PROTOCOL.md`, both ways: a kind the doc misses leaves client
/// authors guessing whether to retry; a doc row the code cannot produce
/// promises an error the server will never send.
pub fn error_table_sync(
    code_kinds: &BTreeSet<String>,
    doc_kinds: &BTreeSet<String>,
    code_file: &str,
    doc_file: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for kind in code_kinds {
        if !doc_kinds.contains(kind) {
            out.push(Finding {
                rule: PROTOCOL_SYNC,
                file: doc_file.to_owned(),
                line: 0,
                message: format!(
                    "error kind {kind:?} is parsed by {code_file} but missing from the error \
                     table in {doc_file}"
                ),
            });
        }
    }
    for kind in doc_kinds {
        if !code_kinds.contains(kind) {
            out.push(Finding {
                rule: PROTOCOL_SYNC,
                file: code_file.to_owned(),
                line: 0,
                message: format!(
                    "documented error kind {kind:?} does not appear in ErrorKind::from_name in \
                     {code_file} (stale doc row)"
                ),
            });
        }
    }
    out
}
