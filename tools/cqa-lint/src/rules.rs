//! The invariant rules.
//!
//! Every rule returns [`Finding`]s. The flagship rules
//! (`no-panic-in-request-path`, `rng-flow`) are *transitive*: they run as
//! reachability queries over the conservative workspace call graph in
//! [`crate::callgraph`], seeded from the server's request-path files and
//! the sampling files, so a panicking helper or a fresh RNG two crates
//! away is found at its definition site with the call chain in the
//! message. The remaining rules work directly on the token view from
//! [`crate::lexer`].
//!
//! A finding on line `L` is dropped when line `L` or `L-1` carries a
//! `// cqa-lint: allow(<rule>): <reason>` comment; the reason clause is
//! mandatory (`suppression-needs-reason` polices it) so each suppression
//! is a reviewable artifact. Rationale for each rule lives in
//! `docs/ANALYSIS.md`.

use crate::callgraph::{FnId, Graph};
use crate::lexer::{Lexed, Tok, TokKind};
use std::fmt;

/// Rule identifiers, as used in `allow(...)` suppressions and CLI output.
pub const NO_PANIC: &str = "no-panic-in-request-path";
pub const OPAQUE: &str = "opaque-call";
pub const RNG_FLOW: &str = "rng-flow";
pub const SUPPRESSION: &str = "suppression-needs-reason";
pub const NO_WAIT: &str = "no-wait-under-guard";

/// Every rule name, for validating `allow(...)` suppressions.
pub const ALL_RULES: [&str; 5] = [NO_PANIC, OPAQUE, RNG_FLOW, SUPPRESSION, NO_WAIT];

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired (one of the `pub const` rule names).
    pub rule: &'static str,
    /// Repo-relative file the finding is in.
    pub file: String,
    /// 1-based line.
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

/// Runs a reachability query from `seeds` and reports every panic site in
/// the reached set, plus every opaque call the graph could not see
/// through.
fn emit_reach(g: &Graph<'_>, lexed: &[Lexed], seeds: &[FnId], out: &mut Vec<Finding>) {
    let parent = g.reach(seeds);
    for &id in parent.keys() {
        let facts = &g.facts[id.0][id.1];
        if facts.panics.is_empty() && facts.opaques.is_empty() {
            continue;
        }
        let rel = &g.files[id.0].rel;
        let via = if seeds.contains(&id) {
            String::new()
        } else {
            format!(" (reachable via {})", g.path_to(&parent, id))
        };
        for s in &facts.panics {
            let msg = format!(
                "{} can panic a request thread; return a structured protocol error instead{via}",
                s.what
            );
            push(out, &lexed[id.0], NO_PANIC, rel, s.line, msg);
        }
        for s in &facts.opaques {
            push(
                out,
                &lexed[id.0],
                OPAQUE,
                rel,
                s.line,
                format!(
                    "opaque call {} through a closure/fn pointer — the call graph cannot verify {NO_PANIC} past it{via}",
                    s.what
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
    let mut seeds: Vec<FnId> = Vec::new();
    for (fi, file) in g.files.iter().enumerate() {
        if !request_files.contains(&file.rel.as_str()) {
            continue;
        }
        for (ni, f) in file.fns.iter().enumerate() {
            seeds.push((fi, ni));
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
    emit_reach(g, lexed, &seeds, &mut out);
    out
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
/// from a function of `sampling_files`), which would decouple the samples
/// from the request seed and make reruns diverge.
pub fn rng_flow(
    g: &Graph<'_>,
    lexed: &[Lexed],
    stripped: &[Vec<Tok>],
    sampling_files: &[&str],
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
    let seeds: Vec<FnId> = g
        .files
        .iter()
        .enumerate()
        .filter(|(_, file)| sampling_files.contains(&file.rel.as_str()))
        .flat_map(|(fi, file)| (0..file.fns.len()).map(move |ni| (fi, ni)))
        .collect();
    let parent = g.reach(&seeds);
    for &id in parent.keys() {
        let facts = &g.facts[id.0][id.1];
        for s in &facts.rng_ctors {
            let via = if seeds.contains(&id) {
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
