//! A hand-rolled item parser over the [`crate::lexer`] token stream.
//!
//! The call-graph rules need more structure than raw tokens: which function
//! a token belongs to, what an `impl` block's self type is, what a call
//! site's receiver is, and what types the receiver chain walks through.
//! This module recovers exactly that much structure — fn items (including
//! trait methods and functions nested in bodies), impl blocks with
//! self-type and trait tracking, struct field types, parameter and `let`
//! types, call sites (method / path / free / macro), slice-indexing sites,
//! lock acquisitions, and fault-point and blocking sites — while
//! deliberately *not* building a full AST. Anything it cannot classify it records
//! conservatively (an unknown receiver, an opaque callee) rather than
//! guessing; `rustc` has already accepted the code, so unparseable input is
//! tolerated, never fatal.

use crate::lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Guard-producing lock-acquisition methods (the parking_lot shim and the
/// std locks share these names). All of them take no arguments, which is
/// how `rwlock.read()` is told apart from `io::Read::read(&mut buf)`.
const LOCK_METHODS: [&str; 6] = ["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// The non-`try_` acquisition methods: the ones that can block (and so
/// participate in deadlock cycles; a `try_*` acquisition cannot wait).
const LOCK_METHODS_BLOCKING: [&str; 3] = ["lock", "read", "write"];

/// Result adapters that pass the guard through as the expression value:
/// `let g = m.lock().unwrap_or_else(PoisonError::into_inner);` still binds
/// the guard.
const GUARD_ADAPTERS: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];

/// Method calls that block the calling thread regardless of arguments:
/// channel receives and line/buffer I/O.
const BLOCKING_METHODS_ANY_ARGS: [&str; 6] =
    ["recv", "recv_timeout", "read_line", "write_all", "read_exact", "connect"];

/// Method calls that block only in their no-argument form
/// (`JoinHandle::join()`, `Write::flush()`, `TcpListener::accept()` —
/// `Vec::join(sep)` takes an argument and merely allocates).
const BLOCKING_METHODS_NO_ARGS: [&str; 3] = ["join", "flush", "accept"];

/// Keywords that can directly precede `(` or `[` without being a call or
/// an indexing expression.
const KEYWORDS: [&str; 28] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "let", "fn", "impl", "struct", "enum", "trait", "mod", "use", "pub", "where", "move", "ref",
    "mut", "unsafe", "dyn", "static", "const",
];

/// How a method call's receiver was written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `self.f.g.m(…)` — the field chain after `self` (empty for `self.m()`).
    SelfChain(Vec<String>),
    /// `x.f.m(…)` — a variable, then a (possibly empty) field chain.
    Var(String, Vec<String>),
    /// Anything else (a chained call result, a literal, a parenthesized
    /// expression): the receiver's type is not recoverable from tokens.
    Unknown,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    /// `recv.name(…)`.
    Method { name: String, recv: Receiver, line: u32 },
    /// `Qualifier::name(…)` — `qualifier` is the last path segment before
    /// the function name (a type, module, or `Self`).
    Path { qualifier: String, name: String, line: u32 },
    /// `name(…)` with no qualifier or receiver.
    Free { name: String, line: u32 },
    /// `name!(…)` / `name![…]` / `name!{…}`.
    Macro { name: String, line: u32 },
}

impl Call {
    /// The source line of the call.
    pub fn line(&self) -> u32 {
        match self {
            Call::Method { line, .. }
            | Call::Path { line, .. }
            | Call::Free { line, .. }
            | Call::Macro { line, .. } => *line,
        }
    }
}

/// One lock-guard acquisition and the line range its guard is modeled live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSpan {
    /// Normalized lock identity (see `lock_identity`): the receiver chain
    /// with `self` replaced by the impl type and argument groups collapsed —
    /// `SynopsisCache.shard(…)`, `PLAN`, `slowlog(…)`.
    pub lock: String,
    /// The identity roots in a lowercase local variable: it must not unify
    /// with same-named receivers in other functions.
    pub local: bool,
    /// Line of the acquisition call.
    pub acquire_line: u32,
    /// Last line the guard is modeled held (`acquire_line` for statement
    /// temporaries).
    pub end_line: u32,
    /// `lock`/`read`/`write` can wait for the lock; `try_*` cannot, so a
    /// `try_*` acquisition can hold a guard but never *be* the blocked side
    /// of a deadlock (mirrors the runtime detector, which only instruments
    /// blocking acquires).
    pub blocking: bool,
}

/// One parsed function (free fn, inherent/trait method, or fn nested in a
/// body).
#[derive(Debug, Clone, Default)]
pub struct FnItem {
    /// The function's own name.
    pub name: String,
    /// Self type when defined inside `impl T` / `impl Tr for T` / `trait T`.
    pub self_ty: Option<String>,
    /// Trait name when defined inside `impl Tr for T` or `trait Tr`.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Line of the body's closing brace (0 for bodyless declarations).
    pub end_line: u32,
    /// Parameter name → terminal type ident (see [`terminal_type`]).
    pub params: BTreeMap<String, String>,
    /// Generic parameter → first trait bound ident (`S: Sampler` → `Sampler`).
    pub generics: BTreeMap<String, String>,
    /// `let` locals with a directly annotated or ctor-inferred type.
    pub locals: BTreeMap<String, String>,
    /// `let x = self.f.g;` — locals bound to a field chain, resolved
    /// against the struct table at graph-build time.
    pub local_chains: BTreeMap<String, Vec<String>>,
    /// Every binding name in scope (params, `let`s, `for` patterns) —
    /// a free "call" on one of these is a closure/fn-pointer invocation,
    /// not a named function.
    pub bindings: BTreeSet<String>,
    /// Every call site in the body, in source order.
    pub calls: Vec<Call>,
    /// Lock-guard acquisitions with their modeled live ranges.
    pub lock_spans: Vec<LockSpan>,
    /// Locals bound to a closure literal (`let f = |x| …`): a free "call"
    /// on one of these runs code already attributed to this fn body, so it
    /// is resolved, not opaque.
    pub closure_bindings: BTreeSet<String>,
    /// Lines with a postfix `?` operator — each is an implicit
    /// `From::from` call on the error path.
    pub question_lines: Vec<u32>,
    /// `fault_point!(Point)` sites: (the macro argument's text, line).
    pub fault_sites: Vec<(String, u32)>,
    /// Call sites shaped like thread-blocking operations (channel recv,
    /// `join()`, file/socket I/O, `sleep`), pre-filtered by argument shape;
    /// the call graph decides which ones actually leave the workspace.
    pub blocking_sites: Vec<Call>,
    /// Lines with a `[`-indexing expression.
    pub index_sites: Vec<u32>,
}

/// A parsed source file: functions plus the struct field-type table.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Repo-relative path.
    pub rel: String,
    pub fns: Vec<FnItem>,
    /// struct name → field name → terminal type ident.
    pub structs: BTreeMap<String, BTreeMap<String, String>>,
}

/// Parses one (already `cfg(test)`-stripped) token stream.
pub fn parse_file(rel: &str, toks: &[Tok]) -> ParsedFile {
    let mut out = ParsedFile { rel: rel.to_owned(), ..ParsedFile::default() };
    walk_items(toks, 0, toks.len(), None, None, &mut out);
    out
}

fn is_keyword(name: &str) -> bool {
    KEYWORDS.contains(&name)
}

/// Index just past the group opened by the bracket at `open` (`(`/`[`/`{`),
/// treating the three bracket kinds as one nesting family. Never panics:
/// an unbalanced stream returns `end`.
fn skip_group(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < end {
        match toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    end
}

/// Index just past a generic parameter list opening with `<` at `open`.
/// Understands that `->` is an arrow (its `>` does not close angles) and
/// that `>>` is two closers.
fn skip_angles(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < end {
        match toks[i].kind {
            TokKind::Punct('<') => depth += 1,
            // `->`: the `-` precedes the `>`; not an angle closer.
            TokKind::Punct('>') if !(i > 0 && toks[i - 1].is_punct('-')) => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                i = skip_group(toks, i, end);
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    end
}

/// The "terminal type" of a type token sequence: the most informative
/// single ident the rules can key resolution on. `&'a AdmissiblePair` →
/// `AdmissiblePair`; `Vec<u32>` → `Vec`; `&mut Mt64` → `Mt64`;
/// `impl FnOnce() + Send` → `FnOnce`; `Box<dyn Fn()>` → `Box`.
pub fn terminal_type(toks: &[Tok]) -> Option<String> {
    let mut i = 0;
    let mut last_top: Option<&str> = None;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Ident => {
                let t = toks[i].text.as_str();
                if t == "impl" || t == "dyn" {
                    // The first bound names the capability; later `+ Send`
                    // bounds are auxiliary.
                    for t2 in &toks[i + 1..] {
                        if t2.kind == TokKind::Ident && !matches!(t2.text.as_str(), "mut" | "ref") {
                            return Some(t2.text.clone());
                        }
                    }
                    return None;
                }
                if !matches!(t, "mut" | "ref" | "const") {
                    last_top = Some(t);
                }
            }
            TokKind::Punct('<') => {
                i = skip_angles(toks, i, toks.len());
                continue;
            }
            TokKind::Punct('(') | TokKind::Punct('[') => {
                i = skip_group(toks, i, toks.len());
                continue;
            }
            TokKind::Punct('+') => break, // `A + Send`: keep the first bound
            _ => {}
        }
        i += 1;
    }
    last_top.map(str::to_owned)
}

/// Walks a token range for item declarations, collecting fns and structs.
/// `self_ty`/`trait_name` carry the enclosing impl/trait context.
fn walk_items(
    toks: &[Tok],
    start: usize,
    end: usize,
    self_ty: Option<&str>,
    trait_name: Option<&str>,
    out: &mut ParsedFile,
) {
    let mut i = start;
    while i < end {
        match &toks[i].kind {
            // Skip attributes wholesale: their contents are not code.
            TokKind::Punct('#') if toks.get(i + 1).is_some_and(|t| t.is_punct('[')) => {
                i = skip_group(toks, i + 1, end);
            }
            TokKind::Ident if toks[i].text == "fn" => {
                i = parse_fn(toks, i, end, self_ty, trait_name, out);
            }
            TokKind::Ident if toks[i].text == "impl" => {
                i = parse_impl(toks, i, end, out);
            }
            TokKind::Ident if toks[i].text == "trait" => {
                // Treat `trait X { … }` like `impl X`: default method bodies
                // are real code, and `X` doubles as trait and self type.
                let name = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident).map(|t| &t.text);
                let Some(name) = name.cloned() else {
                    i += 1;
                    continue;
                };
                let mut j = i + 2;
                while j < end && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    if toks[j].is_punct('<') {
                        j = skip_angles(toks, j, end);
                    } else {
                        j += 1;
                    }
                }
                if j < end && toks[j].is_punct('{') {
                    let body_end = skip_group(toks, j, end);
                    walk_items(toks, j + 1, body_end - 1, Some(&name), Some(&name), out);
                    i = body_end;
                } else {
                    i = j + 1;
                }
            }
            TokKind::Ident if toks[i].text == "struct" => {
                i = parse_struct(toks, i, end, out);
            }
            // Enum/union payloads look like fields but are not; skip the
            // whole item body.
            TokKind::Ident if toks[i].text == "enum" || toks[i].text == "union" => {
                let mut j = i + 1;
                while j < end && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    j += 1;
                }
                i = if j < end && toks[j].is_punct('{') { skip_group(toks, j, end) } else { j + 1 };
            }
            TokKind::Punct('{') => {
                // A plain block (e.g. a `mod m { … }` body reaches here via
                // its brace): recurse with the same context.
                let body_end = skip_group(toks, i, end);
                walk_items(toks, i + 1, body_end - 1, self_ty, trait_name, out);
                i = body_end;
            }
            _ => i += 1,
        }
    }
}

/// Parses an `impl` block header and recurses into its body.
fn parse_impl(toks: &[Tok], at: usize, end: usize, out: &mut ParsedFile) -> usize {
    let mut i = at + 1;
    if i < end && toks[i].is_punct('<') {
        i = skip_angles(toks, i, end);
    }
    // First path: the trait when `for` follows, else the self type.
    let mut first: Vec<Tok> = Vec::new();
    let mut second: Vec<Tok> = Vec::new();
    let mut saw_for = false;
    while i < end && !toks[i].is_punct('{') && !toks[i].is_punct(';') {
        if toks[i].is_ident("where") {
            // The where clause adds nothing to name resolution.
            while i < end && !toks[i].is_punct('{') && !toks[i].is_punct(';') {
                i += 1;
            }
            break;
        }
        if toks[i].is_ident("for") {
            saw_for = true;
            i += 1;
            continue;
        }
        if toks[i].is_punct('<') {
            i = skip_angles(toks, i, end);
            continue;
        }
        if saw_for { &mut second } else { &mut first }.push(toks[i].clone());
        i += 1;
    }
    let (trait_toks, ty_toks) = if saw_for { (Some(&first), &second) } else { (None, &first) };
    let self_ty = terminal_type(ty_toks);
    let trait_name = trait_toks.and_then(|t| terminal_type(t));
    if i < end && toks[i].is_punct('{') {
        let body_end = skip_group(toks, i, end);
        walk_items(toks, i + 1, body_end - 1, self_ty.as_deref(), trait_name.as_deref(), out);
        body_end
    } else {
        i + 1
    }
}

/// Parses `struct Name { field: Type, … }` into the field-type table.
fn parse_struct(toks: &[Tok], at: usize, end: usize, out: &mut ParsedFile) -> usize {
    let Some(name) = toks.get(at + 1).filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone())
    else {
        return at + 1;
    };
    let mut i = at + 2;
    if i < end && toks[i].is_punct('<') {
        i = skip_angles(toks, i, end);
    }
    while i < end && toks[i].is_ident("where") {
        while i < end && !toks[i].is_punct('{') && !toks[i].is_punct(';') {
            i += 1;
        }
    }
    // Tuple struct `struct X(…);` or unit struct `struct X;`: no named
    // fields to record.
    if i >= end || !toks[i].is_punct('{') {
        return if i < end && toks[i].is_punct('(') { skip_group(toks, i, end) } else { i + 1 };
    }
    let body_end = skip_group(toks, i, end);
    let mut fields = BTreeMap::new();
    let mut j = i + 1;
    while j < body_end - 1 {
        // Field shape: [attrs] [pub[(…)]] name : Type ,|}
        if toks[j].is_punct('#') && toks.get(j + 1).is_some_and(|t| t.is_punct('[')) {
            j = skip_group(toks, j + 1, body_end);
            continue;
        }
        if toks[j].is_ident("pub") {
            j += 1;
            if j < body_end && toks[j].is_punct('(') {
                j = skip_group(toks, j, body_end);
            }
            continue;
        }
        if toks[j].kind == TokKind::Ident && toks.get(j + 1).is_some_and(|t| t.is_punct(':')) {
            let fname = toks[j].text.clone();
            let ty_start = j + 2;
            let mut k = ty_start;
            while k < body_end - 1 {
                match toks[k].kind {
                    TokKind::Punct(',') => break,
                    TokKind::Punct('<') => k = skip_angles(toks, k, body_end),
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                        k = skip_group(toks, k, body_end)
                    }
                    _ => k += 1,
                }
            }
            if let Some(ty) = terminal_type(&toks[ty_start..k]) {
                fields.insert(fname, ty);
            }
            j = k + 1;
            continue;
        }
        j += 1;
    }
    out.structs.entry(name).or_default().extend(fields);
    body_end
}

/// Parses one `fn` item starting at the `fn` keyword; returns the index
/// just past it. Nested fns are parsed recursively as their own items and
/// excluded from the outer body scan.
fn parse_fn(
    toks: &[Tok],
    at: usize,
    end: usize,
    self_ty: Option<&str>,
    trait_name: Option<&str>,
    out: &mut ParsedFile,
) -> usize {
    let Some(name_tok) = toks.get(at + 1).filter(|t| t.kind == TokKind::Ident) else {
        return at + 1;
    };
    let mut f = FnItem {
        name: name_tok.text.clone(),
        self_ty: self_ty.map(str::to_owned),
        trait_name: trait_name.map(str::to_owned),
        line: toks[at].line,
        ..FnItem::default()
    };
    let mut i = at + 2;
    if i < end && toks[i].is_punct('<') {
        let close = skip_angles(toks, i, end);
        parse_generics(&toks[i + 1..close.saturating_sub(1).max(i + 1)], &mut f);
        i = close;
    }
    if i >= end || !toks[i].is_punct('(') {
        out.fns.push(f);
        return i;
    }
    let params_end = skip_group(toks, i, end);
    parse_params(&toks[i + 1..params_end.saturating_sub(1).max(i + 1)], self_ty, &mut f);
    i = params_end;
    // Return type / where clause: skip to the body or a bodyless `;`.
    while i < end && !toks[i].is_punct('{') && !toks[i].is_punct(';') {
        match toks[i].kind {
            TokKind::Punct('<') => i = skip_angles(toks, i, end),
            TokKind::Punct('(') | TokKind::Punct('[') => i = skip_group(toks, i, end),
            _ => i += 1,
        }
    }
    if i >= end || toks[i].is_punct(';') {
        out.fns.push(f);
        return i + 1;
    }
    let body_end = skip_group(toks, i, end);
    f.end_line = toks[body_end.saturating_sub(1).min(toks.len() - 1)].line;
    scan_body(toks, i + 1, body_end - 1, end, &mut f, out);
    out.fns.push(f);
    body_end
}

/// Records `T: Bound` pairs from a generic parameter list (angle brackets
/// already stripped).
fn parse_generics(toks: &[Tok], f: &mut FnItem) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !is_keyword(&toks[i].text)
        {
            // First non-lifetime bound ident.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct(',') {
                if toks[j].kind == TokKind::Ident {
                    f.generics.insert(toks[i].text.clone(), toks[j].text.clone());
                    break;
                }
                j += 1;
            }
        }
        match toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                i = skip_group(toks, i, toks.len())
            }
            _ => i += 1,
        }
    }
}

/// Splits a parameter list at top-level commas and records `name → type`.
fn parse_params(toks: &[Tok], self_ty: Option<&str>, f: &mut FnItem) {
    let mut seg_start = 0;
    let mut i = 0;
    let mut segments: Vec<(usize, usize)> = Vec::new();
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(',') => {
                segments.push((seg_start, i));
                seg_start = i + 1;
                i += 1;
            }
            TokKind::Punct('<') => i = skip_angles(toks, i, toks.len()),
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                i = skip_group(toks, i, toks.len())
            }
            _ => i += 1,
        }
    }
    segments.push((seg_start, toks.len()));
    for (s, e) in segments {
        let seg = &toks[s..e];
        if seg.iter().any(|t| t.is_ident("self")) && !seg.iter().any(|t| t.is_punct(':')) {
            // `self` / `&self` / `&mut self`: typed as the impl target.
            if let Some(ty) = self_ty {
                f.params.insert("self".to_owned(), ty.to_owned());
            }
            continue;
        }
        let Some(colon) = seg.iter().position(|t| t.is_punct(':')) else { continue };
        // Binding name: the last ident before the colon (skips `mut`).
        let name = seg[..colon]
            .iter()
            .rev()
            .find(|t| t.kind == TokKind::Ident && t.text != "mut")
            .map(|t| t.text.clone());
        let (Some(name), Some(ty)) = (name, terminal_type(&seg[colon + 1..])) else { continue };
        f.bindings.insert(name.clone());
        f.params.insert(name, ty);
    }
}

/// Scans a fn body for lets, calls, indexing, locks, and fault points.
/// `outer_end` bounds nested-item recursion.
fn scan_body(
    toks: &[Tok],
    start: usize,
    end: usize,
    outer_end: usize,
    f: &mut FnItem,
    out: &mut ParsedFile,
) {
    let mut i = start;
    while i < end {
        let t = &toks[i];
        match &t.kind {
            TokKind::Punct('#') if toks.get(i + 1).is_some_and(|t2| t2.is_punct('[')) => {
                i = skip_group(toks, i + 1, end);
                continue;
            }
            // A nested fn item: parse separately, exclude from this body.
            TokKind::Ident if t.text == "fn" => {
                i = parse_fn(toks, i, outer_end.min(end), None, None, out);
                continue;
            }
            TokKind::Ident if t.text == "let" => {
                scan_let(toks, i, end, f);
            }
            // `for x in …` binds `x`; a later `x()` is a closure call.
            TokKind::Ident if t.text == "for" => {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t2| t2.is_ident("mut")) {
                    j += 1;
                }
                if let (Some(name), Some(kw)) = (toks.get(j), toks.get(j + 1)) {
                    if name.kind == TokKind::Ident && !is_keyword(&name.text) && kw.is_ident("in") {
                        f.bindings.insert(name.text.clone());
                    }
                }
            }
            TokKind::Ident if !is_keyword(&t.text) => {
                let next = toks.get(i + 1);
                if next.is_some_and(|n| n.is_punct('!')) {
                    let after = toks.get(i + 2);
                    if after.is_some_and(|n| n.is_punct('(') || n.is_punct('[') || n.is_punct('{'))
                    {
                        f.calls.push(Call::Macro { name: t.text.clone(), line: t.line });
                        if t.text == "fault_point" {
                            let close = skip_group(toks, i + 2, end);
                            // `close` is one past the `)`.
                            let arg: String = toks[i + 3..close.saturating_sub(1).max(i + 3)]
                                .iter()
                                .map(|a| a.text.as_str())
                                .collect();
                            f.fault_sites.push((arg, t.line));
                        }
                    }
                } else if next.is_some_and(|n| n.is_punct('(')) {
                    scan_call(toks, i, f);
                    // A no-argument acquisition method on a receiver chain
                    // is a lock acquisition (`io::Read::read` takes a
                    // buffer, so the empty-paren shape disambiguates).
                    if LOCK_METHODS.contains(&t.text.as_str())
                        && i > 0
                        && toks[i - 1].is_punct('.')
                        && toks.get(i + 2).is_some_and(|n| n.is_punct(')'))
                    {
                        scan_lock(toks, i, end, f);
                    }
                } else if next.is_some_and(|n| n.is_punct('[')) {
                    f.index_sites.push(t.line);
                }
            }
            // Postfix `?`: an implicit `From::from` on the error path. The
            // preceding token distinguishes it from a `?Sized` bound.
            TokKind::Punct('?')
                if i > start
                    && (matches!(toks[i - 1].kind, TokKind::Punct(')') | TokKind::Punct(']'))
                        || (toks[i - 1].kind == TokKind::Ident
                            && !is_keyword(&toks[i - 1].text))) =>
            {
                f.question_lines.push(t.line);
            }
            // Indexing a call/index result: `f()[i]`, `m[k][j]`.
            TokKind::Punct(')') | TokKind::Punct(']')
                if toks.get(i + 1).is_some_and(|n| n.is_punct('[')) =>
            {
                f.index_sites.push(toks[i + 1].line);
            }
            _ => {}
        }
        i += 1;
    }
}

/// Handles one `let` statement starting at the `let` keyword: records the
/// binding's type (annotated, ctor-inferred, or chain).
fn scan_let(toks: &[Tok], at: usize, end: usize, f: &mut FnItem) {
    let mut i = at + 1;
    if i < end && toks[i].is_ident("mut") {
        i += 1;
    }
    let Some(name_tok) = toks.get(i).filter(|t| t.kind == TokKind::Ident) else { return };
    if is_keyword(&name_tok.text) {
        return; // `let (a, b) = …` destructuring is not tracked
    }
    let name = name_tok.text.clone();
    i += 1;
    // Only a direct `name :` or `name =` is a plain binding; anything else
    // (`let Some(x) = …`, `let S { a } = …`) is a pattern we don't track.
    if !(i < end && (toks[i].is_punct(':') || toks[i].is_punct('='))) {
        return;
    }
    f.bindings.insert(name.clone());
    if toks[i].is_punct(':') {
        // Annotated: read the type up to `=` or `;`.
        let ty_start = i + 1;
        let mut k = ty_start;
        while k < end && !toks[k].is_punct('=') && !toks[k].is_punct(';') {
            match toks[k].kind {
                TokKind::Punct('<') => k = skip_angles(toks, k, end),
                TokKind::Punct('(') | TokKind::Punct('[') => k = skip_group(toks, k, end),
                _ => k += 1,
            }
        }
        if let Some(ty) = terminal_type(&toks[ty_start..k]) {
            f.locals.insert(name, ty);
        }
        return;
    }
    if i >= end || !toks[i].is_punct('=') {
        return;
    }
    let rhs = i + 1;
    // `let f = |x| …;` / `let f = move || …;` — a closure literal bound to
    // a local: calls through it stay inside this body.
    {
        let mut c = rhs;
        if toks.get(c).is_some_and(|t| t.is_ident("move")) {
            c += 1;
        }
        if toks.get(c).is_some_and(|t| t.is_punct('|')) {
            f.closure_bindings.insert(name.clone());
        }
    }
    // `let x = self.f.g;` (optionally `&`-prefixed): a field chain.
    let mut j = rhs;
    while j < end && toks[j].is_punct('&') {
        j += 1;
    }
    if toks.get(j).is_some_and(|t| t.is_ident("self")) {
        let mut chain = vec!["self".to_owned()];
        let mut k = j + 1;
        while k + 1 < end
            && toks[k].is_punct('.')
            && toks[k + 1].kind == TokKind::Ident
            && !toks.get(k + 2).is_some_and(|t| t.is_punct('('))
        {
            chain.push(toks[k + 1].text.clone());
            k += 2;
        }
        if chain.len() > 1 && toks.get(k).is_some_and(|t| t.is_punct(';')) {
            f.local_chains.insert(name, chain);
            return;
        }
    }
    // `let x = Type::ctor(…);` — take the last capitalized path segment.
    let mut k = rhs;
    let mut last_type: Option<String> = None;
    while k + 2 < end
        && toks[k].kind == TokKind::Ident
        && toks[k + 1].is_punct(':')
        && toks[k + 2].is_punct(':')
    {
        if toks[k].text.chars().next().is_some_and(char::is_uppercase) {
            last_type = Some(toks[k].text.clone());
        }
        k += 3;
    }
    if let Some(ty) = last_type {
        if toks.get(k).is_some_and(|t| t.kind == TokKind::Ident)
            && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
        {
            f.locals.insert(name, ty);
        }
    }
}

/// Classifies the call whose name ident sits at `at` (followed by `(`).
fn scan_call(toks: &[Tok], at: usize, f: &mut FnItem) {
    let t = &toks[at];
    let prev = at.checked_sub(1).map(|p| &toks[p]);
    // Path call `Qualifier::name(`.
    if at >= 3 && toks[at - 1].is_punct(':') && toks[at - 2].is_punct(':') {
        if toks[at - 3].kind == TokKind::Ident {
            let call = Call::Path {
                qualifier: toks[at - 3].text.clone(),
                name: t.text.clone(),
                line: t.line,
            };
            if t.text == "sleep" {
                f.blocking_sites.push(call.clone());
            }
            f.calls.push(call);
        }
        // `<T as Tr>::name(` and similar: qualifier unrecoverable; treat
        // as a free call so name-level resolution still applies.
        else {
            f.calls.push(Call::Free { name: t.text.clone(), line: t.line });
        }
        return;
    }
    // Method call `recv.name(`.
    if prev.is_some_and(|p| p.is_punct('.')) {
        let recv = receiver_chain(toks, at - 1);
        let call = Call::Method { name: t.text.clone(), recv, line: t.line };
        if BLOCKING_METHODS_ANY_ARGS.contains(&t.text.as_str())
            || (BLOCKING_METHODS_NO_ARGS.contains(&t.text.as_str())
                && toks.get(at + 2).is_some_and(|n| n.is_punct(')')))
        {
            f.blocking_sites.push(call.clone());
        }
        f.calls.push(call);
        return;
    }
    // Declaration heads (`fn name(`) were consumed by the item parser;
    // anything else ident-then-paren is a free call or a tuple-struct
    // literal — the resolver distinguishes by name.
    if prev.is_none_or(|p| {
        !(p.kind == TokKind::Ident && matches!(p.text.as_str(), "fn" | "struct" | "enum" | "union"))
    }) {
        let call = Call::Free { name: t.text.clone(), line: t.line };
        if t.text == "sleep" {
            f.blocking_sites.push(call.clone());
        }
        f.calls.push(call);
    }
}

/// Walks a receiver chain backwards from the `.` before a method name.
fn receiver_chain(toks: &[Tok], dot: usize) -> Receiver {
    // Collect `ident (. ident)*` going left; anything else ends the chain.
    let mut names: Vec<String> = Vec::new();
    let mut i = dot;
    loop {
        if i == 0 || !toks[i].is_punct('.') {
            break;
        }
        let Some(pt) = i.checked_sub(1).map(|p| &toks[p]) else { break };
        if pt.kind != TokKind::Ident || is_keyword(&pt.text) {
            // `foo().bar(` / `x?.bar(` / `(e).bar(` / `[a][0].bar(`:
            // receiver type not recoverable.
            return Receiver::Unknown;
        }
        names.push(pt.text.clone());
        // Is there another `.` to the left of this ident?
        match i.checked_sub(2).map(|p| &toks[p]) {
            Some(p2) if p2.is_punct('.') => i -= 2,
            // A further path/call shape to the left (`a().b.c(`): unknown.
            Some(p2) if p2.is_punct(')') || p2.is_punct(']') || p2.is_punct('?') => {
                return Receiver::Unknown;
            }
            _ => {
                names.reverse();
                let first = names.remove(0);
                return if first == "self" {
                    Receiver::SelfChain(names)
                } else {
                    Receiver::Var(first, names)
                };
            }
        }
    }
    Receiver::Unknown
}

/// Records a lock acquisition (`recv.lock()` et al., name ident at `at`)
/// as a [`LockSpan`], modeling how long the guard stays alive.
fn scan_lock(toks: &[Tok], at: usize, end: usize, f: &mut FnItem) {
    let Some((chain, chain_start)) = receiver_text(toks, at - 1) else { return };
    // `stdout().lock()` & co are backed by std's ReentrantMutex: they can
    // neither self-deadlock nor be poisoned, so they are not part of the
    // lock discipline (and would otherwise hold for a CLI's whole `main`).
    if ["stdout(…)", "stderr(…)", "stdin(…)"].iter().any(|s| chain.ends_with(s)) {
        return;
    }
    let (lock, local) = lock_identity(&chain, f.self_ty.as_deref());
    let acquire_line = toks[at].line;
    let blocking = LOCK_METHODS_BLOCKING.contains(&toks[at].text.as_str());
    // Step past `()` and any guard-preserving poison adapters
    // (`.unwrap_or_else(PoisonError::into_inner)` still yields the guard).
    let mut j = skip_group(toks, at + 1, end);
    while toks.get(j).is_some_and(|t| t.is_punct('.'))
        && toks
            .get(j + 1)
            .is_some_and(|t| t.kind == TokKind::Ident && GUARD_ADAPTERS.contains(&t.text.as_str()))
        && toks.get(j + 2).is_some_and(|t| t.is_punct('('))
    {
        j = skip_group(toks, j + 2, end);
    }
    // A guard is long-lived only when the whole expression is let-bound:
    // `let [mut] g = RECV.lock()[.adapter(…)];`. Anything else — a
    // statement temporary, a deref-assign, a further `.method()` on the
    // guard — dies with its statement and is modeled as one line.
    let end_line = match let_binding_before(toks, chain_start) {
        Some(name) if toks.get(j).is_some_and(|t| t.is_punct(';')) => {
            guard_extent(toks, j, end, &name, f.end_line.max(acquire_line))
        }
        _ => acquire_line,
    };
    f.lock_spans.push(LockSpan { lock, local, acquire_line, end_line, blocking });
}

/// Renders the receiver chain left of the `.` at `dot` as text, collapsing
/// argument/index groups: `self.shard(key).lock()` → `self.shard(…)`.
/// Returns the chain and the token index where it starts.
fn receiver_text(toks: &[Tok], dot: usize) -> Option<(String, usize)> {
    if !toks.get(dot)?.is_punct('.') {
        return None;
    }
    let mut parts: Vec<String> = Vec::new(); // collected right-to-left
    let mut pos = dot; // the element to classify ends at pos - 1
    loop {
        let last = pos.checked_sub(1)?;
        match &toks[last].kind {
            TokKind::Punct(c @ (')' | ']')) => {
                let open = matching_open(toks, last)?;
                parts.push(if *c == ')' { "(…)".to_owned() } else { "[…]".to_owned() });
                pos = open;
                // The group must be a call/index suffix of the element to
                // its left; a bare parenthesized expression roots the chain.
                let glued = pos.checked_sub(1).map(|p| &toks[p]).is_some_and(|p| {
                    (p.kind == TokKind::Ident && !is_keyword(&p.text))
                        || p.is_punct(')')
                        || p.is_punct(']')
                });
                if !glued {
                    break;
                }
            }
            TokKind::Ident if !is_keyword(&toks[last].text) => {
                parts.push(toks[last].text.clone());
                pos = last;
                if pos >= 1 && toks[pos - 1].is_punct('.') {
                    parts.push(".".to_owned());
                    pos -= 1;
                    continue;
                }
                if pos >= 2 && toks[pos - 1].is_punct(':') && toks[pos - 2].is_punct(':') {
                    parts.push("::".to_owned());
                    pos -= 2;
                    continue;
                }
                break;
            }
            _ => return None,
        }
    }
    if parts.is_empty() {
        return None;
    }
    parts.reverse();
    Some((parts.concat(), pos))
}

/// Token index of the opener matching the closer at `close`, treating the
/// three bracket kinds as one nesting family (like [`skip_group`]).
fn matching_open(toks: &[Tok], close: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = close;
    loop {
        match toks[i].kind {
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth += 1,
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        i = i.checked_sub(1)?;
    }
}

/// Normalizes a receiver chain into a lock identity. `self` roots resolve
/// through the impl type (`self.shard(…)` inside `impl SynopsisCache` →
/// `SynopsisCache.shard(…)`); ALL_CAPS statics, `::`-qualified paths, and
/// accessor calls (`slowlog(…)`) are global identities. A lowercase
/// variable root stays function-local (`local = true`): the same variable
/// name in two functions need not be the same lock.
fn lock_identity(chain: &str, self_ty: Option<&str>) -> (String, bool) {
    if chain == "self" || chain.starts_with("self.") {
        let ty = self_ty.unwrap_or("self");
        return (format!("{ty}{}", &chain[4..]), false);
    }
    let root_end = chain.find(['.', '(', '[']).unwrap_or(chain.len());
    let root = &chain[..root_end];
    let global = chain.contains("::")
        || chain[root_end..].starts_with('(')
        || (root.chars().any(|c| c.is_ascii_uppercase())
            && root.chars().all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit()));
    (chain.to_owned(), !global)
}

/// When the tokens immediately before `start` are `let [mut] <name> =`,
/// returns the binding name. (An annotated `let g: Guard<'_> = …` is not
/// recognized and degrades to a temporary — documented unsoundness.)
fn let_binding_before(toks: &[Tok], start: usize) -> Option<String> {
    let eq = start.checked_sub(1)?;
    if !toks[eq].is_punct('=') {
        return None;
    }
    let name_i = eq.checked_sub(1)?;
    let name = &toks[name_i];
    if name.kind != TokKind::Ident || is_keyword(&name.text) {
        return None;
    }
    let mut k = name_i.checked_sub(1)?;
    if toks[k].is_ident("mut") {
        k = k.checked_sub(1)?;
    }
    toks[k].is_ident("let").then(|| name.text.clone())
}

/// Scans forward from the `;` ending a `let <name> = …lock…;` statement to
/// the point where the guard dies: an explicit `drop(<name>)`, the closer
/// of the enclosing block, or the end of the function body.
fn guard_extent(toks: &[Tok], from: usize, end: usize, name: &str, body_end_line: u32) -> u32 {
    let mut depth = 0isize;
    let mut k = from;
    while k < end {
        match toks[k].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return toks[k].line;
                }
            }
            TokKind::Ident
                if toks[k].text == "drop"
                    && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                    && toks.get(k + 2).is_some_and(|t| t.is_ident(name))
                    && toks.get(k + 3).is_some_and(|t| t.is_punct(')')) =>
            {
                return toks[k].line;
            }
            _ => {}
        }
        k += 1;
    }
    body_end_line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse(src: &str) -> ParsedFile {
        let lexed = lexer::lex(src);
        let stripped = lexer::strip_cfg_test(&lexed.toks);
        parse_file("test.rs", &stripped)
    }

    fn fn_named<'a>(p: &'a ParsedFile, name: &str) -> &'a FnItem {
        p.fns.iter().find(|f| f.name == name).unwrap_or_else(|| panic!("no fn {name}: {p:#?}"))
    }

    #[test]
    fn free_fn_and_method_with_self_type() {
        let p = parse(
            "fn free(a: u32) {} \
             struct S { pair: Pair } \
             impl S { fn m(&self, rng: &mut Mt64) { self.pair.go(rng); helper(); } }",
        );
        assert_eq!(fn_named(&p, "free").self_ty, None);
        let m = fn_named(&p, "m");
        assert_eq!(m.self_ty.as_deref(), Some("S"));
        assert_eq!(m.params.get("rng").map(String::as_str), Some("Mt64"));
        assert_eq!(p.structs["S"]["pair"], "Pair");
        assert!(m.calls.iter().any(|c| matches!(
            c,
            Call::Method { name, recv: Receiver::SelfChain(chain), .. }
                if name == "go" && chain == &["pair".to_owned()]
        )));
        assert!(m.calls.iter().any(|c| matches!(c, Call::Free { name, .. } if name == "helper")));
    }

    #[test]
    fn trait_impl_records_trait_name() {
        let p = parse("impl Sampler for Nat<'_> { fn sample(&mut self) -> f64 { 0.0 } }");
        let s = fn_named(&p, "sample");
        assert_eq!(s.trait_name.as_deref(), Some("Sampler"));
        assert_eq!(s.self_ty.as_deref(), Some("Nat"));
    }

    #[test]
    fn generic_bounds_are_recorded() {
        let p = parse("fn run<S: Sampler, T>(s: &mut S) { s.sample(); }");
        let f = fn_named(&p, "run");
        assert_eq!(f.generics.get("S").map(String::as_str), Some("Sampler"));
        assert_eq!(f.params.get("s").map(String::as_str), Some("S"));
    }

    #[test]
    fn nested_generics_do_not_break_item_boundaries() {
        // `>>` closing two levels, and a fn following it.
        let p = parse("fn a(x: Vec<Box<u8>>) -> Option<Vec<u8>> { x.len() } fn b() {}");
        assert_eq!(fn_named(&p, "a").params.get("x").map(String::as_str), Some("Vec"));
        assert!(p.fns.iter().any(|f| f.name == "b"));
    }

    #[test]
    fn path_calls_and_macros() {
        let p = parse("fn f() { Vec::with_capacity(4); format!(\"x\"); g::h::go(1); }");
        let f = fn_named(&p, "f");
        assert!(f.calls.iter().any(|c| matches!(
            c,
            Call::Path { qualifier, name, .. } if qualifier == "Vec" && name == "with_capacity"
        )));
        assert!(f.calls.iter().any(|c| matches!(c, Call::Macro { name, .. } if name == "format")));
        assert!(f.calls.iter().any(|c| matches!(
            c,
            Call::Path { qualifier, name, .. } if qualifier == "h" && name == "go"
        )));
    }

    #[test]
    fn closures_attribute_calls_to_the_enclosing_fn() {
        let p = parse("fn f(v: &[u32]) { v.iter().map(|x| helper(*x)).count(); }");
        let f = fn_named(&p, "f");
        assert!(f.calls.iter().any(|c| matches!(c, Call::Free { name, .. } if name == "helper")));
    }

    #[test]
    fn nested_fns_are_separate_items() {
        let p = parse("fn outer() { fn inner() { alloc(); } inner(); }");
        assert!(fn_named(&p, "inner")
            .calls
            .iter()
            .any(|c| matches!(c, Call::Free { name, .. } if name == "alloc")));
        let outer = fn_named(&p, "outer");
        assert!(!outer
            .calls
            .iter()
            .any(|c| matches!(c, Call::Free { name, .. } if name == "alloc")));
        assert!(outer
            .calls
            .iter()
            .any(|c| matches!(c, Call::Free { name, .. } if name == "inner")));
    }

    #[test]
    fn let_type_inference() {
        let p = parse(
            "struct D { pair: Pair } \
             impl D { fn f(&self) { \
               let a: Vec<u32> = make(); \
               let d = SymbolicDraw::new(1); \
               let pair = self.pair; \
               d.go(); pair.check(); } }",
        );
        let f = fn_named(&p, "f");
        assert_eq!(f.locals.get("a").map(String::as_str), Some("Vec"));
        assert_eq!(f.locals.get("d").map(String::as_str), Some("SymbolicDraw"));
        assert_eq!(f.local_chains.get("pair"), Some(&vec!["self".to_owned(), "pair".to_owned()]));
        assert!(f.calls.iter().any(|c| matches!(
            c,
            Call::Method { name, recv: Receiver::Var(v, _), .. } if name == "go" && v == "d"
        )));
    }

    #[test]
    fn indexing_sites_are_found_and_array_types_are_not() {
        let p = parse("fn f(v: &[u32], i: usize) -> u32 { let _a: [u8; 2] = [0, 1]; v[i] }");
        let f = fn_named(&p, "f");
        assert_eq!(f.index_sites.len(), 1);
    }

    #[test]
    fn bindings_cover_params_lets_and_for_patterns() {
        let p = parse("fn f(cb: impl Fn()) { let g = make(); for job in jobs() { job(); cb(); } }");
        let f = fn_named(&p, "f");
        for b in ["cb", "g", "job"] {
            assert!(f.bindings.contains(b), "missing binding {b}: {:?}", f.bindings);
        }
        // `let Some(x) = …` is a pattern, not a binding named `Some`.
        let p = parse("fn g(o: Option<u32>) { if let Some(x) = o { use_it(x); } }");
        assert!(!fn_named(&p, "g").bindings.contains("Some"));
    }

    #[test]
    fn raw_identifiers_parse_as_fns() {
        let p = parse("fn r#match() { r#fn(); }");
        // The lexer strips the r# fence, so the names are the bare idents.
        assert!(p.fns.iter().any(|f| f.name == "match"));
    }

    #[test]
    fn unbalanced_input_does_not_panic() {
        for src in ["fn f(", "impl X { fn g(", "struct S { a: ", "fn f() { a.b(", "fn f<T"] {
            let _ = parse(src);
        }
    }

    fn span<'a>(p: &'a ParsedFile, fn_name: &str, lock: &str) -> &'a LockSpan {
        fn_named(p, fn_name)
            .lock_spans
            .iter()
            .find(|s| s.lock == lock)
            .unwrap_or_else(|| panic!("no span {lock}: {:#?}", fn_named(p, fn_name).lock_spans))
    }

    #[test]
    fn let_bound_guard_lives_to_fn_end() {
        let p = parse(
            "impl Cache { fn get(&self) {\n\
               let mut shard = self.shard(key).lock();\n\
               shard.touch();\n\
             } }",
        );
        let s = span(&p, "get", "Cache.shard(…)");
        assert!((!s.local && s.blocking), "{s:?}");
        assert_eq!((s.acquire_line, s.end_line), (2, 4));
    }

    #[test]
    fn adapter_chain_and_static_identity() {
        let p = parse(
            "fn arm() {\n\
               let guard = PLAN.lock().unwrap_or_else(PoisonError::into_inner);\n\
               guard.touch();\n\
               drop(guard);\n\
               after();\n\
             }",
        );
        let s = span(&p, "arm", "PLAN");
        assert!(!s.local);
        assert_eq!((s.acquire_line, s.end_line), (2, 4), "ends at drop(guard)");
    }

    #[test]
    fn block_scoped_guard_ends_at_block_close() {
        // Mirrors crates/chaos `trigger()`: the guard lives inside a block
        // expression; the sleep after the block runs lock-free.
        let p = parse(
            "fn trigger() {\n\
               let fired = {\n\
                 let guard = PLAN.lock();\n\
                 guard.check()\n\
               };\n\
               sleep_ms(fired);\n\
             }",
        );
        let s = span(&p, "trigger", "PLAN");
        assert_eq!((s.acquire_line, s.end_line), (3, 5));
    }

    #[test]
    fn temporaries_and_try_acquisitions() {
        let p = parse(
            "impl M { fn stats(&self) -> usize {\n\
               self.entries.lock().len()\n\
             }\n\
             fn probe(&self) {\n\
               let g = self.entries.try_lock();\n\
               g.use_it();\n\
             } }",
        );
        let s = span(&p, "stats", "M.entries");
        assert_eq!((s.acquire_line, s.end_line), (2, 2), "temporary is one line");
        let t = span(&p, "probe", "M.entries");
        assert!(!t.blocking, "try_lock cannot block");
        assert_eq!(t.end_line, 7);
    }

    #[test]
    fn local_variable_locks_do_not_unify_and_io_read_is_not_a_lock() {
        let p = parse(
            "fn a(m: &Mutex) { let g = m.lock(); g.touch(); }\n\
             fn b(r: &mut File) { r.read(&mut buf).ok(); }",
        );
        let s = span(&p, "a", "m");
        assert!(s.local);
        assert!(fn_named(&p, "b").lock_spans.is_empty(), "read(&mut buf) takes an argument");
    }

    #[test]
    fn closure_bindings_are_recorded() {
        let p = parse("fn f() { let enc = |x: u32| go(x); let h = move || enc(1); h(); }");
        let f = fn_named(&p, "f");
        assert!(f.closure_bindings.contains("enc") && f.closure_bindings.contains("h"));
        assert!(!f.closure_bindings.contains("x"));
    }

    #[test]
    fn question_sites_but_not_sized_bounds() {
        let p = parse(
            "fn f(s: &str) -> Result<u32, E> { let v = s.parse()?; Ok(v) }\n\
             fn g<T: ?Sized>(t: &T) {}",
        );
        assert_eq!(fn_named(&p, "f").question_lines, vec![1]);
        assert!(fn_named(&p, "g").question_lines.is_empty());
    }

    #[test]
    fn fault_and_blocking_sites() {
        let p = parse(
            "fn f(rx: &Receiver, v: &[String]) {\n\
               fault_point!(DemoParse);\n\
               let _ = rx.recv();\n\
               thread::sleep(ms());\n\
               let _j = v.join(\",\");\n\
               h.join();\n\
             }",
        );
        let f = fn_named(&p, "f");
        assert_eq!(f.fault_sites, vec![("DemoParse".to_owned(), 2)]);
        let lines: Vec<u32> = f.blocking_sites.iter().map(Call::line).collect();
        assert_eq!(lines, vec![3, 4, 6], "Vec::join(sep) is not blocking: {:?}", f.blocking_sites);
    }
}
