//! A conservative workspace call graph over [`crate::parser`] output.
//!
//! Resolution is name- and type-directed, never sound in the rustc sense;
//! where it is ambiguous it widens the graph rather than narrowing it
//! (the one narrowing is listed with the blind spots below):
//!
//! - A method call on `self` or on a parameter or local with a written or
//!   constructor-inferred type resolves to that type's inherent methods;
//!   if the type is a trait (`dyn Tr`, `impl Tr`), to every workspace
//!   `impl` of the trait plus its default methods.
//! - A method call on any other receiver — a field chain, a call result —
//!   is *unknown* and resolves to the union of all same-named workspace
//!   methods, unless the name is a common std method (`iter`, `clone`,
//!   `push`, `unwrap`, `expect`, …), which is taken as the std one. That
//!   keeps workspace methods that happen to share a std name
//!   (`Parser::expect`, the JSON reader's `self.expect(b'"')`) from being
//!   reached through every `.expect()` on an `Option`.
//! - A free call on a known *binding* (param, `let`, `for` pattern) is a
//!   closure or fn-pointer invocation: it adds no edge. A closure literal's
//!   body is attributed to the function that writes it, so its calls are
//!   already that function's edges.
//!
//! `?` edges into every workspace `From` impl (the desugared `From::from`
//! on the error path), and every local, parameter, or guard binding whose
//! type has a workspace `Drop` impl synthesizes an implicit `T::drop` edge
//! at its scope end, so lockflow reachability sees destructors. The
//! remaining blind spots are documented in `docs/ANALYSIS.md`: operator
//! overloads, calls through closure *values* built in one function and
//! invoked in another, and method calls on a value of a generic parameter
//! type (`s: S`), which resolve to nothing.

use crate::parser::{Call, FnItem, ParsedFile, Receiver};
use std::collections::{BTreeMap, VecDeque};

/// Identifies a function as (file index, fn index) into the parsed set.
pub type FnId = (usize, usize);

/// Method names so dominated by std containers/iterators that an
/// *unknown*-receiver call is assumed to be the std one rather than
/// unioned over same-named workspace methods. Without this, every
/// `foo().iter()` or `v.push(x)` in the workspace would edge into each
/// workspace method named `iter` or `push`. Known-receiver calls still
/// resolve to workspace methods of these names.
const STD_METHODS: [&str; 36] = [
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
    "unwrap",
    "expect",
];

/// One blocking site inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    pub line: u32,
    /// What the site does, e.g. "`.recv()`" or "`thread::sleep`".
    pub what: String,
}

/// Per-function analysis facts.
#[derive(Debug, Default)]
pub struct FnFacts {
    /// Workspace callees, with the call line (lockflow keeps the edges
    /// leaving a held-guard span).
    pub edges: Vec<(FnId, u32)>,
    /// Sites that block the calling thread (channel recv, `join()`,
    /// file/socket I/O, `sleep`) after call-graph filtering: a candidate
    /// that resolves to a workspace method is an ordinary edge.
    pub blocking: Vec<Site>,
}

/// The workspace call graph plus per-function facts.
pub struct Graph<'a> {
    pub files: &'a [ParsedFile],
    /// facts[file][fn], parallel to `files[_].fns`.
    pub facts: Vec<Vec<FnFacts>>,
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
            methods: BTreeMap::new(),
            by_method_name: BTreeMap::new(),
            free_fns: BTreeMap::new(),
            trait_impls: BTreeMap::new(),
        };
        for (fi, file) in files.iter().enumerate() {
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
        let facts: Vec<Vec<FnFacts>> =
            files.iter().map(|file| file.fns.iter().map(|f| g.fn_facts(f)).collect()).collect();
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

    /// The type of a parameter or local of `f`, if recoverable.
    fn var_type(&self, f: &FnItem, name: &str) -> Option<String> {
        f.params.get(name).or_else(|| f.locals.get(name)).cloned()
    }

    /// The receiver's type, if recoverable.
    fn receiver_type(&self, f: &FnItem, recv: &Receiver) -> Option<String> {
        match recv {
            Receiver::SelfValue => f.self_ty.clone(),
            Receiver::Var(v) => self.var_type(f, v),
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
    fn fn_facts(&self, f: &FnItem) -> FnFacts {
        let mut facts = FnFacts::default();
        for call in &f.calls {
            match call {
                Call::Method { name, recv, line } => {
                    let cands = match self.receiver_type(f, recv) {
                        Some(ty) => self.method_candidates(&ty, name),
                        // Unknown receiver: std names win (see the module
                        // docs), otherwise union over all same-named
                        // workspace methods.
                        None if STD_METHODS.contains(&name.as_str()) => Vec::new(),
                        None => self.by_method_name.get(name.as_str()).cloned().unwrap_or_default(),
                    };
                    facts.edges.extend(cands.into_iter().map(|id| (id, *line)));
                }
                Call::Path { qualifier, name, line } => {
                    let q: &str = match qualifier.as_str() {
                        "Self" => f.self_ty.as_deref().unwrap_or("Self"),
                        q => q,
                    };
                    let cands = self.method_candidates(q, name);
                    if !cands.is_empty() {
                        facts.edges.extend(cands.into_iter().map(|id| (id, *line)));
                    } else if let Some(ids) = self.free_fns.get(name.as_str()) {
                        // Module-qualified free fn (`cqa_query::parse(…)`).
                        facts.edges.extend(ids.iter().map(|id| (*id, *line)));
                    }
                }
                Call::Free { name, line } => {
                    // A call through a binding adds no edge (see the module
                    // docs); anything else unresolved (`Some(…)`, `Ok(…)`,
                    // std free fns, tuple-struct literals) is assumed
                    // effect-free.
                    if !f.bindings.contains(name.as_str()) {
                        if let Some(ids) = self.free_fns.get(name.as_str()) {
                            facts.edges.extend(ids.iter().map(|id| (*id, *line)));
                        }
                    }
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
        // A receiver resolving to a workspace method of the same name is an
        // ordinary call; everything else — std (`JoinHandle::join`,
        // `mpsc::Receiver::recv`), a crate outside the workspace, or an
        // unresolvable receiver — really blocks.
        for call in &f.blocking_sites {
            match call {
                Call::Method { name, recv, line } => {
                    let ws = self
                        .receiver_type(f, recv)
                        .map(|ty| self.method_candidates(&ty, name))
                        .unwrap_or_default();
                    if ws.is_empty() {
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
            }
        }
        // Implicit destructors: a local, parameter, or lock-guard binding
        // whose type has a workspace `Drop` impl runs `T::drop` when its
        // scope (or guard span) ends. The token scan cannot see that call,
        // so synthesize the edge here — this is what lets lockflow
        // reachability into destructor bodies.
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
            .map(|(rel, src)| parser::parse_file(rel, &lexer::strip_cfg_test(&lexer::lex(src))))
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
    fn cross_file_callee_is_reachable() {
        let files = build(&[
            ("a.rs", "pub fn entry(x: Option<u32>) -> u32 { helper(x) }"),
            ("b.rs", "pub fn helper(x: Option<u32>) -> u32 { x.unwrap() }"),
        ]);
        let g = Graph::build(&files);
        let reached = g.reach(&[id_of(&g, "entry")]);
        let h = id_of(&g, "helper");
        assert!(reached.contains_key(&h));
        assert_eq!(g.path_to(&reached, h), "entry → helper");
    }

    #[test]
    fn field_chain_receiver_falls_back_to_same_named_methods() {
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
    fn unknown_receiver_expect_is_std_not_a_workspace_method() {
        // `self.expect(…)` resolves to the workspace method; an `.expect()`
        // on an unknown receiver is taken as `Option`/`Result`'s and must
        // not fan out to every workspace method named `expect`.
        let files = build(&[(
            "a.rs",
            "struct P; impl P { fn expect(&self, b: u8) {} fn parse(&self) { self.expect(1); } } \
             fn f() { foo().expect(\"x\"); foo().unwrap(); }",
        )]);
        let g = Graph::build(&files);
        let p = id_of(&g, "parse");
        assert_eq!(g.facts[p.0][p.1].edges.len(), 1);
        let f = id_of(&g, "f");
        assert!(g.facts[f.0][f.1].edges.is_empty(), "{:?}", g.facts[f.0][f.1].edges);
    }

    #[test]
    fn binding_call_adds_no_edge() {
        // `job` is a `for` binding, not the free fn of the same name.
        let files = build(&[(
            "a.rs",
            "fn pump(rx: Receiver) { for job in rx.iter() { job(); } } fn job() {}",
        )]);
        let g = Graph::build(&files);
        let f = id_of(&g, "pump");
        assert!(g.facts[f.0][f.1].edges.is_empty(), "{:?}", g.facts[f.0][f.1].edges);
    }

    #[test]
    fn same_fn_closure_body_is_attributed_to_the_fn() {
        let files =
            build(&[("a.rs", "fn f() { let cb = |x: u32| go(x); cb(1); } fn go(x: u32) {}")]);
        let g = Graph::build(&files);
        let f = id_of(&g, "f");
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
    }

    #[test]
    fn blocking_sites_survive_only_without_a_workspace_resolution() {
        let files = build(&[(
            "a.rs",
            "struct Q; impl Q { fn recv(&self) {} }\n\
             fn ours(q: &Q) { q.recv(); }\n\
             fn std_join(h: JoinHandle) { h.join(); }",
        )]);
        let g = Graph::build(&files);
        let ours = id_of(&g, "ours");
        assert!(g.facts[ours.0][ours.1].blocking.is_empty(), "resolved to workspace Q::recv");
        let j = id_of(&g, "std_join");
        assert_eq!(g.facts[j.0][j.1].blocking.len(), 1);
    }
}
