//! A conservative workspace call graph over [`crate::parser`] output.
//!
//! Resolution is name- and type-directed, never sound in the
//! rustc sense but safe for linting because every ambiguity widens the
//! graph instead of narrowing it:
//!
//! - A method call whose receiver type is known resolves to that type's
//!   inherent methods; if the type is a trait (a generic bound or `dyn`),
//!   to every workspace `impl` of the trait plus its default methods.
//! - A method call whose receiver type is *unknown* resolves to the union
//!   of all same-named workspace methods — unless the name is a std
//!   panic method (`unwrap`, `expect`), which is taken as the std panic
//!   directly, or a common std container/iterator method (`iter`,
//!   `clone`, `push`, …), which is taken as the std one. That keeps
//!   workspace methods that happen to share a std name (`Parser::expect`,
//!   the JSON reader's `self.expect(b'"')`) from being misread as
//!   `Option::expect`, while an `.unwrap()` on an arbitrary expression
//!   still counts as a panic site.
//! - A free call on a known *binding* (param, `let`, `for` pattern) is a
//!   closure or fn-pointer invocation the graph cannot see through: an
//!   **opaque call**, surfaced to the rules instead of silently dropped.
//!
//! Three blind spots have been closed since PR 5: a closure bound to a
//! local and invoked in the same body is resolved (its calls are
//! attributed to the enclosing fn), `?` edges into every workspace `From`
//! impl (the desugared `From::from` on the error path), and every local,
//! parameter, or guard binding whose type has a workspace `Drop` impl now
//! synthesizes an implicit `T::drop` edge at its scope end, so panic and
//! lockflow reachability sees destructors. The remaining
//! blind spots are documented in `docs/ANALYSIS.md`: operator overloads
//! and calls through closure *values* built in one function and invoked
//! in another.

use crate::parser::{Call, FnItem, ParsedFile, Receiver};
use std::collections::{BTreeMap, VecDeque};

/// Identifies a function as (file index, fn index) into the parsed set.
pub type FnId = (usize, usize);

/// Methods on std types that panic on bad input. Only consulted when the
/// receiver does not resolve to a workspace method of the same name.
const STD_PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];

/// Method names so dominated by std containers/iterators that an
/// *unknown*-receiver call is assumed to be the std one rather than
/// unioned over same-named workspace methods. Without this, every
/// `foo().iter()` or `v.push(x)` in the workspace would edge into each
/// workspace method named `iter` or `push`. Known-receiver calls still
/// resolve to workspace methods of these names.
const STD_METHODS: [&str; 34] = [
    "clone",
    "to_string",
    "to_owned",
    "to_vec",
    "collect",
    "push",
    "push_str",
    "insert",
    "extend",
    "reserve",
    "repeat",
    "join",
    "concat",
    "into_boxed_slice",
    "iter",
    "iter_mut",
    "into_iter",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "next",
    "first",
    "last",
    "contains",
    "contains_key",
    "keys",
    "values",
    "as_str",
    "as_bytes",
    "map",
    "min",
    "max",
    "trim",
];

/// Macros that unconditionally panic when reached.
const PANIC_MACROS: [&str; 4] = ["panic", "todo", "unimplemented", "unreachable"];

/// The workspace's seeded RNG type and its root constructors. `fork` is
/// the sanctioned derivation and is not listed.
pub const RNG_TYPE: &str = "Mt64";
pub const RNG_ROOT_CTORS: [&str; 2] = ["new", "from_key"];

/// One effect site inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    pub line: u32,
    /// What the site does, e.g. "`.unwrap()`" or "`format!`".
    pub what: String,
}

/// Per-function analysis facts.
#[derive(Debug, Default)]
pub struct FnFacts {
    /// Workspace callees, with the call line (lockflow keeps the edges
    /// leaving a held-guard span).
    pub edges: Vec<(FnId, u32)>,
    /// Sites that can panic (std methods and panic macros).
    pub panics: Vec<Site>,
    /// Free calls through bindings — dynamic dispatch the graph cannot
    /// resolve.
    pub opaques: Vec<Site>,
    /// Root-RNG constructions (`Mt64::new` / `Mt64::from_key`).
    pub rng_ctors: Vec<Site>,
    /// Sites that block the calling thread (channel recv, `join()`,
    /// file/socket I/O, `sleep`) after call-graph filtering: a candidate
    /// that resolves to a non-shim workspace method is an ordinary edge.
    pub blocking: Vec<Site>,
}

/// The workspace call graph plus per-function facts.
pub struct Graph<'a> {
    pub files: &'a [ParsedFile],
    /// facts[file][fn], parallel to `files[_].fns`.
    pub facts: Vec<Vec<FnFacts>>,
    /// Merged struct field tables: type name → field → type.
    structs: BTreeMap<&'a str, BTreeMap<&'a str, &'a str>>,
    /// (self type, method name) → candidate fns.
    methods: BTreeMap<(&'a str, &'a str), Vec<FnId>>,
    /// method name → every fn with a self type of that name.
    by_method_name: BTreeMap<&'a str, Vec<FnId>>,
    /// free fn name → candidate fns.
    free_fns: BTreeMap<&'a str, Vec<FnId>>,
    /// trait name → self types implementing it.
    trait_impls: BTreeMap<&'a str, Vec<&'a str>>,
}

impl<'a> Graph<'a> {
    /// Builds the graph and computes per-function facts.
    pub fn build(files: &'a [ParsedFile]) -> Graph<'a> {
        let mut g = Graph {
            files,
            facts: Vec::new(),
            structs: BTreeMap::new(),
            methods: BTreeMap::new(),
            by_method_name: BTreeMap::new(),
            free_fns: BTreeMap::new(),
            trait_impls: BTreeMap::new(),
        };
        for (fi, file) in files.iter().enumerate() {
            for (name, fields) in &file.structs {
                let slot = g.structs.entry(name).or_default();
                for (fname, fty) in fields {
                    slot.insert(fname, fty);
                }
            }
            for (ni, f) in file.fns.iter().enumerate() {
                let id = (fi, ni);
                match &f.self_ty {
                    Some(ty) => {
                        g.methods.entry((ty, &f.name)).or_default().push(id);
                        g.by_method_name.entry(&f.name).or_default().push(id);
                    }
                    None => g.free_fns.entry(&f.name).or_default().push(id),
                }
                if let (Some(tr), Some(ty)) = (&f.trait_name, &f.self_ty) {
                    if tr != ty {
                        let impls = g.trait_impls.entry(tr).or_default();
                        if !impls.contains(&ty.as_str()) {
                            impls.push(ty);
                        }
                    }
                }
            }
        }
        let facts: Vec<Vec<FnFacts>> = files
            .iter()
            .enumerate()
            .map(|(fi, file)| file.fns.iter().map(|f| g.fn_facts(fi, f)).collect())
            .collect();
        g.facts = facts;
        g
    }

    pub fn fn_item(&self, id: FnId) -> &'a FnItem {
        &self.files[id.0].fns[id.1]
    }

    /// `Type::method` display name for messages.
    pub fn display(&self, id: FnId) -> String {
        let f = self.fn_item(id);
        match &f.self_ty {
            Some(ty) => format!("{ty}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// Walks `start.f1.f2…` through the merged struct tables.
    fn walk_fields(&self, start: &str, fields: &[String]) -> Option<&'a str> {
        let mut ty: &str = self.structs.get(start).map(|_| start)?;
        let mut out: Option<&'a str> = None;
        for fld in fields {
            let next = *self.structs.get(ty)?.get(fld.as_str())?;
            out = Some(next);
            ty = next;
        }
        out
    }

    /// The terminal type of a variable in `f`, if recoverable. Generic
    /// params resolve to their first trait bound.
    fn var_type(&self, f: &FnItem, name: &str) -> Option<String> {
        let base = f.params.get(name).or_else(|| f.locals.get(name)).cloned()?;
        // `s: S` with `S: Sampler` → the bound is the usable type.
        Some(f.generics.get(&base).cloned().unwrap_or(base))
    }

    /// The receiver's terminal type, if recoverable.
    fn receiver_type(&self, f: &FnItem, recv: &Receiver) -> Option<String> {
        match recv {
            Receiver::SelfChain(fields) => {
                let ty = f.self_ty.as_deref()?;
                if fields.is_empty() {
                    Some(ty.to_owned())
                } else {
                    self.walk_fields(ty, fields).map(str::to_owned)
                }
            }
            Receiver::Var(v, fields) => {
                let base = self.var_type(f, v)?;
                if fields.is_empty() {
                    Some(base)
                } else {
                    self.walk_fields(&base, fields).map(str::to_owned)
                }
            }
            Receiver::Unknown => None,
        }
    }

    /// Workspace candidates for `ty::name`: inherent methods, trait
    /// defaults, and — when `ty` is a trait — every impl's method.
    fn method_candidates(&self, ty: &str, name: &str) -> Vec<FnId> {
        let mut out: Vec<FnId> = self.methods.get(&(ty, name)).cloned().unwrap_or_default();
        if let Some(impls) = self.trait_impls.get(ty) {
            for imp in impls {
                if let Some(ids) = self.methods.get(&(imp, name)) {
                    out.extend(ids.iter().copied());
                }
            }
        }
        out
    }

    /// Computes the facts for one function body.
    fn fn_facts(&self, _fi: usize, f: &FnItem) -> FnFacts {
        let mut facts = FnFacts::default();
        for call in &f.calls {
            match call {
                Call::Macro { name, line } => {
                    if PANIC_MACROS.contains(&name.as_str()) {
                        facts.panics.push(Site { line: *line, what: format!("{name}!") });
                    }
                }
                Call::Method { name, recv, line } => {
                    let cands = match self.receiver_type(f, recv) {
                        Some(ty) => self.method_candidates(&ty, name),
                        // Unknown receiver: std names win (see the module
                        // docs), otherwise union over all same-named
                        // workspace methods.
                        None if STD_PANIC_METHODS.contains(&name.as_str())
                            || STD_METHODS.contains(&name.as_str()) =>
                        {
                            Vec::new()
                        }
                        None => self.by_method_name.get(name.as_str()).cloned().unwrap_or_default(),
                    };
                    if !cands.is_empty() {
                        facts.edges.extend(cands.into_iter().map(|id| (id, *line)));
                    } else if STD_PANIC_METHODS.contains(&name.as_str()) {
                        facts.panics.push(Site { line: *line, what: format!(".{name}()") });
                    }
                }
                Call::Path { qualifier, name, line } => {
                    let q: &str = match qualifier.as_str() {
                        "Self" => f.self_ty.as_deref().unwrap_or("Self"),
                        q => q,
                    };
                    if q == RNG_TYPE
                        && RNG_ROOT_CTORS.contains(&name.as_str())
                        && f.self_ty.as_deref() != Some(RNG_TYPE)
                    {
                        facts.rng_ctors.push(Site { line: *line, what: format!("{q}::{name}") });
                    }
                    let cands = self.method_candidates(q, name);
                    if !cands.is_empty() {
                        facts.edges.extend(cands.into_iter().map(|id| (id, *line)));
                    } else if let Some(ids) = self.free_fns.get(name.as_str()) {
                        // Module-qualified free fn (`cqa_query::parse(…)`).
                        facts.edges.extend(ids.iter().map(|id| (*id, *line)));
                    }
                }
                Call::Free { name, line } => {
                    if f.closure_bindings.contains(name.as_str()) {
                        // `let cb = |…| …; cb();` — the closure literal was
                        // built in this very body, so its calls are already
                        // attributed to this fn: the invocation is
                        // resolved, not opaque.
                    } else if f.bindings.contains(name.as_str()) {
                        facts.opaques.push(Site { line: *line, what: format!("{name}(…)") });
                    } else if let Some(ids) = self.free_fns.get(name.as_str()) {
                        facts.edges.extend(ids.iter().map(|id| (*id, *line)));
                    }
                    // Anything else (`Some(…)`, `Ok(…)`, std free fns,
                    // tuple-struct literals) is assumed effect-free.
                }
            }
        }
        // `?` desugars to `From::from` on the error path: edge into every
        // workspace `From` impl. The concrete error type is not recoverable
        // from tokens, so this fans out conservatively, like every other
        // ambiguity.
        if !f.question_lines.is_empty() {
            let from_ids = self.method_candidates("From", "from");
            for &line in &f.question_lines {
                facts.edges.extend(from_ids.iter().map(|id| (*id, line)));
            }
        }
        // Thread-blocking candidates (pre-filtered by shape in the parser).
        // A receiver resolving to a non-shim workspace method of the same
        // name is an ordinary call; everything else — std
        // (`JoinHandle::join`), a shim primitive (crossbeam's
        // `Receiver::recv`), or an unresolvable receiver — really blocks.
        for call in &f.blocking_sites {
            match call {
                Call::Method { name, recv, line } => {
                    let ws = self
                        .receiver_type(f, recv)
                        .map(|ty| self.method_candidates(&ty, name))
                        .unwrap_or_default();
                    if !ws.iter().any(|id| !self.files[id.0].rel.starts_with("shims/")) {
                        facts.blocking.push(Site { line: *line, what: format!(".{name}()") });
                    }
                }
                Call::Path { qualifier, name, line } => {
                    facts.blocking.push(Site { line: *line, what: format!("{qualifier}::{name}") });
                }
                Call::Free { name, line } => {
                    if !f.bindings.contains(name.as_str()) {
                        facts.blocking.push(Site { line: *line, what: format!("{name}(…)") });
                    }
                }
                Call::Macro { .. } => {}
            }
        }
        // Implicit destructors: a local, parameter, or lock-guard binding
        // whose type has a workspace `Drop` impl runs `T::drop` when its
        // scope (or guard span) ends. The token scan cannot see that call,
        // so synthesize the edge here — this is what lets panic and
        // lockflow reachability into destructor bodies.
        if f.end_line > 0 {
            let mut drop_sites: Vec<(String, u32)> = Vec::new();
            for ty in f.params.values().chain(f.locals.values()) {
                drop_sites.push((ty.clone(), f.end_line));
            }
            for span in &f.lock_spans {
                // When the guard's receiver roots in a local variable or
                // parameter, the root's type may carry a workspace guard
                // with a `Drop` impl.
                let root = span.recv.split(['.', '(']).next().unwrap_or_default();
                if root != "self" {
                    if let Some(ty) = self.var_type(f, root) {
                        drop_sites.push((ty, span.end_line));
                    }
                }
            }
            for (ty, line) in drop_sites {
                if let Some(ids) = self.methods.get(&(ty.as_str(), "drop")) {
                    for id in ids.clone() {
                        if self.fn_item(id).trait_name.as_deref() == Some("Drop") {
                            facts.edges.push((id, line));
                        }
                    }
                }
            }
        }
        facts
    }

    /// BFS over the graph from `seeds`. Returns reached fn → parent (seeds
    /// map to themselves), for path reconstruction. Each seed's callees
    /// are claimed before the next seed is entered, so a callee that is
    /// also a later seed reports the path through the earlier one.
    pub fn reach(&self, seeds: &[FnId]) -> BTreeMap<FnId, FnId> {
        let mut parent: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for id in seeds {
            parent.entry(*id).or_insert(*id);
            for (callee, _) in &self.facts[id.0][id.1].edges {
                if !parent.contains_key(callee) {
                    parent.insert(*callee, *id);
                    queue.push_back(*callee);
                }
            }
        }
        while let Some(id) = queue.pop_front() {
            for (callee, _) in &self.facts[id.0][id.1].edges {
                if !parent.contains_key(callee) {
                    parent.insert(*callee, id);
                    queue.push_back(*callee);
                }
            }
        }
        parent
    }

    /// Human-readable call path from a seed to `id`, e.g.
    /// "handle_line → run_query → resolve".
    pub fn path_to(&self, parent: &BTreeMap<FnId, FnId>, id: FnId) -> String {
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(&p) = parent.get(&cur) {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
            if chain.len() > 24 {
                break; // defensive: a cycle in the parent map
            }
        }
        chain.reverse();
        chain.iter().map(|&n| self.display(n)).collect::<Vec<_>>().join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lexer, parser};

    fn build(files: &[(&str, &str)]) -> Vec<ParsedFile> {
        files
            .iter()
            .map(|(rel, src)| {
                let lexed = lexer::lex(src);
                parser::parse_file(rel, &lexer::strip_cfg_test(&lexed.toks))
            })
            .collect()
    }

    fn id_of(g: &Graph<'_>, name: &str) -> FnId {
        for (fi, file) in g.files.iter().enumerate() {
            for (ni, f) in file.fns.iter().enumerate() {
                if f.name == name {
                    return (fi, ni);
                }
            }
        }
        panic!("no fn {name}");
    }

    #[test]
    fn cross_file_panic_is_reachable() {
        let files = build(&[
            ("a.rs", "pub fn entry(x: Option<u32>) -> u32 { helper(x) }"),
            ("b.rs", "pub fn helper(x: Option<u32>) -> u32 { x.unwrap() }"),
        ]);
        let g = Graph::build(&files);
        let reached = g.reach(&[id_of(&g, "entry")]);
        let h = id_of(&g, "helper");
        assert!(reached.contains_key(&h));
        assert_eq!(g.facts[h.0][h.1].panics.len(), 1);
        assert_eq!(g.path_to(&reached, h), "entry → helper");
    }

    #[test]
    fn field_typed_receiver_resolves_to_workspace_method() {
        let files = build(&[(
            "a.rs",
            "struct Pair; impl Pair { fn go(&self) { other(); } } \
             struct S { pair: Pair } \
             impl S { fn run(&self) { self.pair.go(); } } \
             fn other() {}",
        )]);
        let g = Graph::build(&files);
        let reached = g.reach(&[id_of(&g, "run")]);
        assert!(reached.contains_key(&id_of(&g, "go")));
        assert!(reached.contains_key(&id_of(&g, "other")));
    }

    #[test]
    fn implicit_drop_edge_reaches_destructor_body() {
        // No explicit call to `drop` anywhere: the edge is synthesized at
        // `entry`'s scope end because a local's type has a workspace
        // `Drop` impl, and reachability continues into the destructor.
        let files = build(&[(
            "a.rs",
            "struct Guard; \
             impl Drop for Guard { fn drop(&mut self) { cleanup(); } } \
             fn cleanup() {} \
             fn entry() { let g: Guard = make(); use_it(&g); } \
             fn make() -> Guard { Guard } \
             fn use_it(_g: &Guard) {}",
        )]);
        let g = Graph::build(&files);
        let reached = g.reach(&[id_of(&g, "entry")]);
        assert!(reached.contains_key(&id_of(&g, "drop")), "implicit Drop edge missing");
        assert!(reached.contains_key(&id_of(&g, "cleanup")), "destructor body not traversed");
    }

    #[test]
    fn inherent_drop_method_is_not_an_implicit_edge() {
        // Only a `Drop` *trait* impl runs at scope end; an inherent method
        // that happens to be named `drop` must not be pulled in.
        let files = build(&[(
            "a.rs",
            "struct Plain; \
             impl Plain { fn drop(&mut self) { never_runs(); } } \
             fn never_runs() {} \
             fn entry() { let p: Plain = make(); use_it(&p); } \
             fn make() -> Plain { Plain } \
             fn use_it(_p: &Plain) {}",
        )]);
        let g = Graph::build(&files);
        let reached = g.reach(&[id_of(&g, "entry")]);
        assert!(!reached.contains_key(&id_of(&g, "never_runs")), "inherent drop pulled in");
    }

    #[test]
    fn workspace_expect_is_not_a_std_panic() {
        // `self.expect(…)` resolves to the workspace method; the panic
        // inside it is still found transitively, but the call site itself
        // is an edge, not a panic effect.
        let files = build(&[(
            "a.rs",
            "struct P; impl P { fn expect(&self, b: u8) {} fn parse(&self) { self.expect(1); } }",
        )]);
        let g = Graph::build(&files);
        let p = id_of(&g, "parse");
        assert!(g.facts[p.0][p.1].panics.is_empty());
        assert_eq!(g.facts[p.0][p.1].edges.len(), 1);
    }

    #[test]
    fn unknown_receiver_unwrap_is_a_panic_site() {
        let files = build(&[("a.rs", "fn f() { foo().unwrap(); }")]);
        let g = Graph::build(&files);
        let f = id_of(&g, "f");
        assert_eq!(g.facts[f.0][f.1].panics.len(), 1);
    }

    #[test]
    fn generic_bound_resolves_to_all_impls() {
        let files = build(&[(
            "a.rs",
            "trait Sampler { fn sample(&mut self); } \
             struct A; impl Sampler for A { fn sample(&mut self) { helper(); } } \
             struct B; impl Sampler for B { fn sample(&mut self) {} } \
             fn drive<S: Sampler>(s: &mut S) { s.sample(); } \
             fn helper() {}",
        )]);
        let g = Graph::build(&files);
        let reached = g.reach(&[id_of(&g, "drive")]);
        assert!(
            reached.contains_key(&id_of(&g, "helper")),
            "impl A's body must be reachable through the bound"
        );
    }

    #[test]
    fn binding_call_is_opaque() {
        let files = build(&[("a.rs", "fn pump(rx: Receiver) { for job in rx.iter() { job(); } }")]);
        let g = Graph::build(&files);
        let f = id_of(&g, "pump");
        assert_eq!(g.facts[f.0][f.1].opaques.len(), 1);
        assert!(g.facts[f.0][f.1].opaques[0].what.contains("job"));
    }

    #[test]
    fn same_fn_closure_is_resolved_not_opaque() {
        let files =
            build(&[("a.rs", "fn f() { let cb = |x: u32| go(x); cb(1); } fn go(x: u32) {}")]);
        let g = Graph::build(&files);
        let f = id_of(&g, "f");
        assert!(g.facts[f.0][f.1].opaques.is_empty(), "{:?}", g.facts[f.0][f.1].opaques);
        // The closure body's call to `go` is attributed to `f`.
        assert!(g.reach(&[f]).contains_key(&id_of(&g, "go")));
    }

    #[test]
    fn question_mark_edges_into_workspace_from_impls() {
        let files = build(&[(
            "a.rs",
            "fn f(s: &str) -> Result<u32, E> { let v = inner(s)?; Ok(v) }\n\
             fn inner(s: &str) -> Result<u32, X> { Ok(1) }\n\
             struct E; struct X;\n\
             impl From<X> for E { fn from(x: X) -> E { panic!(\"conv\") } }",
        )]);
        let g = Graph::build(&files);
        let reached = g.reach(&[id_of(&g, "f")]);
        let from = id_of(&g, "from");
        assert!(reached.contains_key(&from), "? must edge into From impls");
        assert_eq!(g.facts[from.0][from.1].panics.len(), 1);
    }

    #[test]
    fn blocking_sites_survive_only_without_a_workspace_resolution() {
        let files = build(&[
            (
                "a.rs",
                "struct Q; impl Q { fn recv(&self) {} }\n\
                 fn ours(q: &Q) { q.recv(); }\n\
                 fn std_join(h: JoinHandle) { h.join(); }",
            ),
            (
                "shims/x/src/lib.rs",
                "struct Rx; impl Rx { fn recv(&self) {} } fn sh(r: &Rx) { r.recv(); }",
            ),
        ]);
        let g = Graph::build(&files);
        let ours = id_of(&g, "ours");
        assert!(g.facts[ours.0][ours.1].blocking.is_empty(), "resolved to workspace Q::recv");
        let j = id_of(&g, "std_join");
        assert_eq!(g.facts[j.0][j.1].blocking.len(), 1);
        // A receiver resolving only into a shim still blocks: the shim is
        // the primitive layer, not workspace code.
        let sh = id_of(&g, "sh");
        assert_eq!(g.facts[sh.0][sh.1].blocking.len(), 1);
    }

    #[test]
    fn rng_root_ctor_is_recorded_outside_impl_mt64() {
        let files = build(&[(
            "a.rs",
            "fn bad(seed: u64) { let _r = Mt64::new(seed); } \
             struct Mt64; impl Mt64 { fn new(s: u64) -> Mt64 { Mt64 } \
             fn fork(&mut self) -> Mt64 { Mt64::from_key(0) } fn from_key(k: u64) -> Mt64 { Mt64 } }",
        )]);
        let g = Graph::build(&files);
        let b = id_of(&g, "bad");
        assert_eq!(g.facts[b.0][b.1].rng_ctors.len(), 1);
        let fork = id_of(&g, "fork");
        assert!(g.facts[fork.0][fork.1].rng_ctors.is_empty(), "fork derivation is sanctioned");
    }
}
