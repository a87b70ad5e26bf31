//! Canonical forms for conjunctive queries.
//!
//! Two CQs that differ only in variable names and atom order have the same
//! homomorphisms into every database, hence byte-identical `(H, B)`
//! synopses — so a synopsis cache keyed on literal query text misses
//! exactly the repeats that generated workloads (SQG, DQG) produce. This
//! module computes a *canonical form*: a deterministic representative of a
//! query's α-equivalence class, with a stable textual rendering and an FNV
//! fingerprint suitable as a cache key.
//!
//! The canonical form is obtained by a canonical labeling of the query's
//! atom/variable incidence structure:
//!
//! 1. **Initial coloring.** Head variables are pinned by their head
//!    positions (the head is an ordered tuple: `Q(x, y)` and `Q(y, x)`
//!    answer with transposed tuples, so head order is semantics). All
//!    existential variables start in one color class.
//! 2. **Iterative refinement.** Each variable's color is refined by the
//!    sorted multiset of its occurrences — (relation, argument position,
//!    surrounding term pattern rendered with current colors) — until the
//!    partition stabilizes, exactly the 1-dimensional Weisfeiler–Leman
//!    step specialized to hypergraph incidences.
//! 3. **Individualization.** If a color class with several variables
//!    remains, each member is individualized in turn and the refinement
//!    recursed; the lexicographically smallest resulting encoding wins.
//!    Siblings whose transposition is an automorphism of the colored query
//!    are pruned (they provably lead to the same minimum), which collapses
//!    the factorial blow-up on fully symmetric queries to a linear walk.
//!
//! Finally variables are renamed `x0, x1, …` by color rank, atoms are
//! sorted by their canonical encoding, and *exact duplicate atoms are
//! dropped* (CQ bodies are sets: `R(x, y), R(x, y)` ≡ `R(x, y)`).
//!
//! ```
//! use cqa_query::parse;
//! use cqa_storage::{ColumnType::*, Schema};
//!
//! let schema = Schema::builder()
//!     .relation("employee", &[("id", Int), ("name", Str), ("dept", Str)], Some(1))
//!     .relation("dept", &[("dname", Str), ("floor", Int)], Some(1))
//!     .build();
//!
//! // The same query, written with shuffled atoms and renamed variables.
//! let a = parse(&schema, "Q(n) :- employee(i, n, d), dept(d, 2)")?;
//! let b = parse(&schema, "Q(who) :- dept(where, 2), employee(badge, who, where)")?;
//! assert_eq!(a.canonical_form(), b.canonical_form());
//! assert_eq!(a.canonical_fingerprint(), b.canonical_fingerprint());
//!
//! // Projection order is semantics, so it changes the canonical form.
//! let c = parse(&schema, "Q(d, n) :- employee(i, n, d)")?;
//! let d = parse(&schema, "Q(n, d) :- employee(i, n, d)")?;
//! assert_ne!(c.canonical_fingerprint(), d.canonical_fingerprint());
//! # Ok::<(), cqa_common::CqaError>(())
//! ```

use crate::ast::{Atom, ConjunctiveQuery, Term, VarId};
use crate::parser::{lex, Tok};
use cqa_common::{fnv1a64, CqaError, Mt64, Result};
use cqa_storage::{RelId, Value};

/// A term of a canonical atom: a canonically numbered variable or a
/// constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CanonicalTerm {
    /// Variable `x<n>` in the canonical numbering.
    Var(u32),
    /// A constant value, unchanged by canonicalization.
    Const(Value),
}

/// An atom of a canonical query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalAtom {
    /// The relation.
    pub rel: RelId,
    /// Canonical terms, one per column.
    pub terms: Vec<CanonicalTerm>,
}

/// The canonical representative of a query's α-equivalence class.
///
/// Two queries produce equal `CanonicalQuery` values (and hence equal
/// [`fingerprint`](CanonicalQuery::fingerprint)s) iff they are the same CQ
/// up to variable renaming, body-atom order, and duplicate body atoms. The
/// query's display name is deliberately *not* part of the form.
///
/// Built by [`ConjunctiveQuery::canonical_form`]; see the [module
/// docs](self) for the construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalQuery {
    head: Vec<u32>,
    atoms: Vec<CanonicalAtom>,
    num_vars: u32,
    fingerprint: u64,
}

impl CanonicalQuery {
    /// Answer variables, in head order, as canonical variable numbers.
    pub fn head(&self) -> &[u32] {
        &self.head
    }

    /// Body atoms, sorted by canonical encoding, duplicates removed.
    pub fn atoms(&self) -> &[CanonicalAtom] {
        &self.atoms
    }

    /// Number of distinct variables occurring in the body.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// FNV-1a fingerprint of the injective byte encoding of this form.
    ///
    /// Equal for α-equivalent queries by construction; distinct canonical
    /// forms collide only with ordinary 64-bit-hash probability.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// A stable, schema-independent rendering: variables are `x0, x1, …`,
    /// relations are `r<id>`, e.g. `Q(x0) :- r1(x0, 2), r4(x0, x1)`.
    pub fn text(&self) -> String {
        let term = |t: &CanonicalTerm| match t {
            CanonicalTerm::Var(v) => format!("x{v}"),
            CanonicalTerm::Const(c) => c.to_string(),
        };
        let mut s = String::from("Q(");
        s.push_str(&self.head.iter().map(|v| format!("x{v}")).collect::<Vec<_>>().join(", "));
        s.push_str(") :- ");
        let atoms: Vec<String> = self
            .atoms
            .iter()
            .map(|a| {
                format!("r{}({})", a.rel.0, a.terms.iter().map(term).collect::<Vec<_>>().join(", "))
            })
            .collect();
        s.push_str(&atoms.join(", "));
        s
    }

    /// The injective byte encoding the fingerprint hashes: every field is
    /// length- or tag-prefixed, so distinct canonical forms encode to
    /// distinct byte strings.
    fn encode(head: &[u32], atoms: &[CanonicalAtom]) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + atoms.len() * 16);
        out.extend_from_slice(&(head.len() as u32).to_be_bytes());
        for &v in head {
            out.extend_from_slice(&v.to_be_bytes());
        }
        out.extend_from_slice(&(atoms.len() as u32).to_be_bytes());
        for atom in atoms {
            out.extend_from_slice(&encode_atom(atom));
        }
        out
    }
}

/// Injective byte encoding of one canonical atom.
fn encode_atom(atom: &CanonicalAtom) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + atom.terms.len() * 5);
    out.extend_from_slice(&atom.rel.0.to_be_bytes());
    for t in &atom.terms {
        match t {
            CanonicalTerm::Var(v) => {
                out.push(0);
                out.extend_from_slice(&v.to_be_bytes());
            }
            CanonicalTerm::Const(Value::Int(i)) => {
                out.push(1);
                // Flip the sign bit so byte order matches numeric order.
                out.extend_from_slice(&((*i as u64) ^ (1 << 63)).to_be_bytes());
            }
            CanonicalTerm::Const(Value::Str(s)) => {
                out.push(2);
                out.extend_from_slice(&(s.len() as u32).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
    out
}

impl ConjunctiveQuery {
    /// Computes the canonical representative of this query's α-equivalence
    /// class. See the [module docs](self) for the algorithm; cost is one
    /// color refinement (linear in occurrences per round) for typical
    /// queries, with automorphism-pruned branching on symmetric ones.
    pub fn canonical_form(&self) -> CanonicalQuery {
        Canonicalizer::new(self).run()
    }

    /// Shorthand for `self.canonical_form().fingerprint()`.
    pub fn canonical_fingerprint(&self) -> u64 {
        self.canonical_form().fingerprint()
    }
}

/// The canonical-labeling search state over one query.
struct Canonicalizer<'a> {
    q: &'a ConjunctiveQuery,
    /// Distinct variables occurring in the body (head ⊆ body by safety).
    occurring: Vec<VarId>,
    /// Dense index into `occurring` for each original var id (usize::MAX
    /// for variables that never occur — they carry no semantics).
    dense: Vec<usize>,
}

impl<'a> Canonicalizer<'a> {
    fn new(q: &'a ConjunctiveQuery) -> Self {
        let mut seen = vec![false; q.num_vars()];
        for atom in &q.atoms {
            for v in atom.vars() {
                seen[v.idx()] = true;
            }
        }
        let occurring: Vec<VarId> =
            (0..q.num_vars() as u32).map(VarId).filter(|v| seen[v.idx()]).collect();
        let mut dense = vec![usize::MAX; q.num_vars()];
        for (i, v) in occurring.iter().enumerate() {
            dense[v.idx()] = i;
        }
        Canonicalizer { q, occurring, dense }
    }

    fn run(&self) -> CanonicalQuery {
        let n = self.occurring.len();
        // Initial colors: head variables are singletons keyed by their
        // (sorted) head positions; existential variables share one class.
        let mut keys: Vec<Vec<u8>> = vec![Vec::new(); n];
        for (i, v) in self.occurring.iter().enumerate() {
            let positions: Vec<usize> =
                self.q.head.iter().enumerate().filter(|(_, h)| *h == v).map(|(p, _)| p).collect();
            let key = &mut keys[i];
            key.push(if positions.is_empty() { 1 } else { 0 });
            for p in positions {
                key.extend_from_slice(&(p as u32).to_be_bytes());
            }
        }
        let colors = rank_by_key(&keys);
        let (_, best) = self.search(colors);
        best
    }

    /// Refines `colors`, then either finishes (discrete partition) or
    /// branches over the first ambiguous class. Returns the minimal
    /// encoding and the canonical query achieving it.
    #[expect(
        clippy::expect_used,
        reason = "the target cell is non-singleton by the branch above, so at least one \
                  candidate was explored"
    )]
    fn search(&self, mut colors: Vec<u32>) -> (Vec<u8>, CanonicalQuery) {
        self.refine(&mut colors);
        let Some(cell) = self.first_non_singleton(&colors) else {
            let q = self.build(&colors);
            return (CanonicalQuery::encode(&q.head, &q.atoms), q);
        };
        let mut best: Option<(Vec<u8>, CanonicalQuery)> = None;
        let mut explored: Vec<usize> = Vec::new();
        for &v in &cell {
            // An explored sibling whose transposition with `v` is an
            // automorphism reaches the same minimum; skip the branch.
            if explored.iter().any(|&u| self.swap_is_automorphism(u, v, &colors)) {
                continue;
            }
            explored.push(v);
            let mut branch = colors.iter().map(|&c| c * 2 + 1).collect::<Vec<u32>>();
            branch[v] -= 1; // individualize: v sorts just below its class
            let cand = self.search(branch);
            best = match best {
                Some(b) if b.0 <= cand.0 => Some(b),
                _ => Some(cand),
            };
        }
        best.expect("non-singleton cell has at least one branch")
    }

    /// One-dimensional Weisfeiler–Leman refinement until stable.
    fn refine(&self, colors: &mut Vec<u32>) {
        let n = self.occurring.len();
        loop {
            let distinct = colors.iter().max().map_or(0, |m| m + 1);
            if distinct as usize == n {
                return; // discrete
            }
            let mut sigs: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n];
            // Occurrence signature: for every atom, its pattern rendered
            // with current colors; a variable collects (pattern, position)
            // for each of its occurrences.
            for atom in &self.q.atoms {
                let pattern = self.atom_pattern(atom, colors);
                for (pos, t) in atom.terms.iter().enumerate() {
                    if let Term::Var(v) = t {
                        let mut occ = pattern.clone();
                        occ.extend_from_slice(&(pos as u32).to_be_bytes());
                        sigs[self.dense[v.idx()]].push(occ);
                    }
                }
            }
            let keys: Vec<Vec<u8>> = (0..n)
                .map(|i| {
                    let mut key = colors[i].to_be_bytes().to_vec();
                    let mut occ = std::mem::take(&mut sigs[i]);
                    occ.sort_unstable();
                    for o in occ {
                        key.extend_from_slice(&(o.len() as u32).to_be_bytes());
                        key.extend_from_slice(&o);
                    }
                    key
                })
                .collect();
            let next = rank_by_key(&keys);
            if next == *colors {
                return;
            }
            *colors = next;
        }
    }

    /// The atom's term pattern under a coloring (constants verbatim,
    /// variables by color).
    fn atom_pattern(&self, atom: &Atom, colors: &[u32]) -> Vec<u8> {
        let canon = CanonicalAtom {
            rel: atom.rel,
            terms: atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => CanonicalTerm::Var(colors[self.dense[v.idx()]]),
                    Term::Const(c) => CanonicalTerm::Const(c.clone()),
                })
                .collect(),
        };
        encode_atom(&canon)
    }

    /// Members (dense indices) of the smallest-colored class of size > 1.
    fn first_non_singleton(&self, colors: &[u32]) -> Option<Vec<usize>> {
        let distinct = colors.iter().max().map_or(0, |m| m + 1);
        for c in 0..distinct {
            let members: Vec<usize> = (0..colors.len()).filter(|&i| colors[i] == c).collect();
            if members.len() > 1 {
                return Some(members);
            }
        }
        None
    }

    /// Whether exchanging variables `u` and `v` (dense indices, same
    /// color) maps the body-atom multiset to itself.
    fn swap_is_automorphism(&self, u: usize, v: usize, _colors: &[u32]) -> bool {
        let swap = |t: &Term| -> CanonicalTerm {
            match t {
                Term::Var(w) => {
                    let i = self.dense[w.idx()];
                    let i = if i == u {
                        v
                    } else if i == v {
                        u
                    } else {
                        i
                    };
                    CanonicalTerm::Var(i as u32)
                }
                Term::Const(c) => CanonicalTerm::Const(c.clone()),
            }
        };
        let ident = |t: &Term| -> CanonicalTerm {
            match t {
                Term::Var(w) => CanonicalTerm::Var(self.dense[w.idx()] as u32),
                Term::Const(c) => CanonicalTerm::Const(c.clone()),
            }
        };
        let encode_with = |f: &dyn Fn(&Term) -> CanonicalTerm| -> Vec<Vec<u8>> {
            let mut atoms: Vec<Vec<u8>> = self
                .q
                .atoms
                .iter()
                .map(|a| {
                    encode_atom(&CanonicalAtom {
                        rel: a.rel,
                        terms: a.terms.iter().map(f).collect(),
                    })
                })
                .collect();
            atoms.sort_unstable();
            atoms
        };
        encode_with(&swap) == encode_with(&ident)
    }

    /// Builds the canonical query from a discrete coloring: variables are
    /// renamed by color, atoms sorted, exact duplicates dropped.
    fn build(&self, colors: &[u32]) -> CanonicalQuery {
        let canon_var = |v: VarId| colors[self.dense[v.idx()]];
        let head: Vec<u32> = self.q.head.iter().map(|&v| canon_var(v)).collect();
        let mut atoms: Vec<CanonicalAtom> = self
            .q
            .atoms
            .iter()
            .map(|a| CanonicalAtom {
                rel: a.rel,
                terms: a
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => CanonicalTerm::Var(canon_var(*v)),
                        Term::Const(c) => CanonicalTerm::Const(c.clone()),
                    })
                    .collect(),
            })
            .collect();
        atoms.sort_unstable_by_key(encode_atom);
        atoms.dedup();
        let fingerprint = fnv1a64(&CanonicalQuery::encode(&head, &atoms));
        CanonicalQuery { head, atoms, num_vars: self.occurring.len() as u32, fingerprint }
    }
}

/// Ranks byte keys: equal keys share a rank, ranks follow sort order.
#[expect(
    clippy::expect_used,
    reason = "every key searched for was inserted into `sorted` two lines up"
)]
fn rank_by_key(keys: &[Vec<u8>]) -> Vec<u32> {
    let mut sorted: Vec<&Vec<u8>> = keys.iter().collect();
    sorted.sort_unstable();
    sorted.dedup();
    keys.iter().map(|k| sorted.binary_search(&k).expect("key is present") as u32).collect()
}

/// Rewrites a query in the surface syntax with shuffled body-atom order
/// and fresh variable names — an α-equivalent variant with different
/// literal text.
///
/// This is the load-generator side of canonicalization: `cqa-cli
/// bench-serve --permute-queries` uses it to issue structurally identical
/// queries under ever-changing spellings, so a literal-text cache key
/// misses while the canonical key hits. Works purely on the text (no
/// schema needed); errors on text that is not a well-formed CQ.
///
/// ```
/// use cqa_common::Mt64;
/// let mut rng = Mt64::new(7);
/// let p = cqa_query::permute_query_text("Q(n) :- emp(i, n, d), dept(d, 2)", &mut rng).unwrap();
/// assert_ne!(p, "Q(n) :- emp(i, n, d), dept(d, 2)");
/// assert!(p.starts_with("Q("));
/// ```
pub fn permute_query_text(text: &str, rng: &mut Mt64) -> Result<String> {
    let toks = lex(text)?;
    let mut pos = 0usize;
    let next = |pos: &mut usize| -> Result<Tok> {
        let t = toks
            .get(*pos)
            .cloned()
            .ok_or_else(|| CqaError::Parse("unexpected end of query".into()))?;
        *pos += 1;
        Ok(t)
    };
    let expect = |pos: &mut usize, want: Tok| -> Result<()> {
        let got = next(pos)?;
        if got == want {
            Ok(())
        } else {
            Err(CqaError::Parse(format!("expected {want:?}, got {got:?}")))
        }
    };

    // Head: name '(' vars? ')' ':-'.
    let name = match next(&mut pos)? {
        Tok::Ident(n) => n,
        t => return Err(CqaError::Parse(format!("expected query name, got {t:?}"))),
    };
    expect(&mut pos, Tok::LParen)?;
    let mut head: Vec<String> = Vec::new();
    if toks.get(pos) == Some(&Tok::RParen) {
        pos += 1;
    } else {
        loop {
            match next(&mut pos)? {
                Tok::Ident(v) => head.push(v),
                t => return Err(CqaError::Parse(format!("head terms must be variables: {t:?}"))),
            }
            match next(&mut pos)? {
                Tok::Comma => continue,
                Tok::RParen => break,
                t => return Err(CqaError::Parse(format!("expected ',' or ')', got {t:?}"))),
            }
        }
    }
    expect(&mut pos, Tok::ColonDash)?;

    // Body: rel '(' term (',' term)* ')' atoms. Terms keep their lexed
    // form; identifiers at term positions are variables.
    let mut atoms: Vec<(String, Vec<Tok>)> = Vec::new();
    loop {
        let rel = match next(&mut pos)? {
            Tok::Ident(n) => n,
            t => return Err(CqaError::Parse(format!("expected relation name, got {t:?}"))),
        };
        expect(&mut pos, Tok::LParen)?;
        let mut terms = Vec::new();
        loop {
            match next(&mut pos)? {
                t @ (Tok::Ident(_) | Tok::Int(_) | Tok::Str(_)) => terms.push(t),
                t => return Err(CqaError::Parse(format!("expected term, got {t:?}"))),
            }
            match next(&mut pos)? {
                Tok::Comma => continue,
                Tok::RParen => break,
                t => return Err(CqaError::Parse(format!("expected ',' or ')', got {t:?}"))),
            }
        }
        atoms.push((rel, terms));
        match toks.get(pos) {
            Some(Tok::Comma) => pos += 1,
            None => break,
            Some(t) => return Err(CqaError::Parse(format!("expected ',' or end, got {t:?}"))),
        }
    }

    // Fresh names: variable k (in first-occurrence order) becomes
    // `pv<perm[k]>` for a random permutation, and atoms are shuffled.
    let mut vars: Vec<String> = Vec::new();
    let mut note = |v: &str| {
        if !vars.iter().any(|w| w == v) {
            vars.push(v.to_owned());
        }
    };
    for v in &head {
        note(v);
    }
    for (_, terms) in &atoms {
        for t in terms {
            if let Tok::Ident(v) = t {
                note(v);
            }
        }
    }
    let mut perm: Vec<usize> = (0..vars.len()).collect();
    rng.shuffle(&mut perm);
    #[expect(
        clippy::expect_used,
        reason = "`note` collected every head and body identifier into `vars` above"
    )]
    let rename = |v: &str| -> String {
        let k = vars.iter().position(|w| w == v).expect("variable was collected");
        format!("pv{}", perm[k])
    };
    rng.shuffle(&mut atoms);

    #[expect(
        clippy::unreachable,
        reason = "the body loop above keeps only identifier, integer and string tokens as terms"
    )]
    let term_text = |t: &Tok| -> String {
        match t {
            Tok::Ident(v) => rename(v),
            Tok::Int(i) => i.to_string(),
            Tok::Str(s) => format!("'{s}'"),
            other => unreachable!("non-term token {other:?} in term position"),
        }
    };
    let body: Vec<String> = atoms
        .iter()
        .map(|(rel, terms)| {
            format!("{rel}({})", terms.iter().map(term_text).collect::<Vec<_>>().join(", "))
        })
        .collect();
    Ok(format!(
        "{name}({}) :- {}",
        head.iter().map(|v| rename(v)).collect::<Vec<_>>().join(", "),
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use cqa_storage::ColumnType::*;
    use cqa_storage::Schema;

    fn schema() -> Schema {
        Schema::builder()
            .relation("r", &[("a", Int), ("b", Int)], Some(1))
            .relation("s", &[("c", Int), ("d", Str)], Some(1))
            .relation("t", &[("e", Int)], Some(1))
            .build()
    }

    fn fp(s: &Schema, q: &str) -> u64 {
        parse(s, q).unwrap().canonical_fingerprint()
    }

    #[test]
    fn alpha_equivalent_queries_share_a_form() {
        let s = schema();
        let a = parse(&s, "Q(x) :- r(x, y), s(y, 'hi')").unwrap();
        let b = parse(&s, "P(k) :- s(m, 'hi'), r(k, m)").unwrap();
        assert_eq!(a.canonical_form(), b.canonical_form());
        assert_eq!(a.canonical_fingerprint(), b.canonical_fingerprint());
    }

    #[test]
    fn query_name_is_not_part_of_the_form() {
        let s = schema();
        assert_eq!(fp(&s, "Q() :- t(x)"), fp(&s, "Zebra() :- t(x)"));
    }

    #[test]
    fn head_order_is_semantics() {
        let s = schema();
        assert_ne!(fp(&s, "Q(a, b) :- r(a, b)"), fp(&s, "Q(b, a) :- r(a, b)"));
    }

    #[test]
    fn constants_distinguish_queries() {
        let s = schema();
        assert_ne!(fp(&s, "Q() :- r(x, 1)"), fp(&s, "Q() :- r(x, 2)"));
        assert_ne!(fp(&s, "Q() :- s(x, 'a')"), fp(&s, "Q() :- s(x, 'b')"));
        assert_ne!(fp(&s, "Q() :- r(x, 1)"), fp(&s, "Q() :- r(x, y)"));
    }

    #[test]
    fn relations_distinguish_queries() {
        let s = schema();
        assert_ne!(fp(&s, "Q() :- r(x, y)"), fp(&s, "Q() :- s(x, y)"));
    }

    #[test]
    fn duplicate_atoms_collapse() {
        let s = schema();
        assert_eq!(fp(&s, "Q() :- r(x, y), r(x, y)"), fp(&s, "Q() :- r(x, y)"));
        // Same relation with *different* variables does not collapse.
        assert_ne!(fp(&s, "Q() :- r(x, y), r(y, x)"), fp(&s, "Q() :- r(x, y)"));
    }

    #[test]
    fn join_structure_is_preserved() {
        let s = schema();
        // x joined across atoms vs. two independent atoms.
        assert_ne!(fp(&s, "Q() :- r(x, y), s(x, w)"), fp(&s, "Q() :- r(x, y), s(z, w)"));
    }

    #[test]
    fn symmetric_queries_canonicalize_fast_and_consistently() {
        let s = schema();
        // 12 fully interchangeable existential variables: factorial
        // branching without automorphism pruning.
        let many = |names: &[&str]| {
            let body = names.iter().map(|n| format!("t({n})")).collect::<Vec<_>>().join(", ");
            format!("Q() :- {body}")
        };
        let a = many(&["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"]);
        let b = many(&["l", "k", "j", "i", "h", "g", "f", "e", "d", "c", "b", "a"]);
        assert_eq!(fp(&s, &a), fp(&s, &b));
        // All those atoms are α-duplicates of each other.
        let c = parse(&s, &a).unwrap().canonical_form();
        assert_eq!(c.atoms().len(), 12);
        assert_eq!(c.num_vars(), 12);
    }

    #[test]
    fn cyclic_symmetry_is_resolved_consistently() {
        let s = schema();
        // A 3-cycle of r-atoms: rotations are automorphisms, and every
        // variable looks locally identical.
        let a = fp(&s, "Q() :- r(x, y), r(y, z), r(z, x)");
        let b = fp(&s, "Q() :- r(z, x), r(x, y), r(y, z)");
        let c = fp(&s, "Q() :- r(b, c), r(a, b), r(c, a)");
        assert_eq!(a, b);
        assert_eq!(a, c);
        // The 3-cycle differs from the 2-cycle plus self-loop.
        assert_ne!(a, fp(&s, "Q() :- r(x, y), r(y, x), r(z, z)"));
    }

    #[test]
    fn text_rendering_is_stable_and_readable() {
        let s = schema();
        let a = parse(&s, "Q(x) :- r(x, y), s(y, 'hi')").unwrap().canonical_form();
        let b = parse(&s, "P(k) :- s(m, 'hi'), r(k, m)").unwrap().canonical_form();
        assert_eq!(a.text(), b.text());
        assert_eq!(a.text(), "Q(x0) :- r0(x0, x1), r1(x1, 'hi')");
    }

    #[test]
    fn unused_head_names_do_not_change_the_form() {
        let s = schema();
        // Same query via the AST with an extra never-used variable name.
        let q1 = ConjunctiveQuery::new(
            "Q",
            vec![VarId(0)],
            vec![Atom { rel: s.rel_id("t").unwrap(), terms: vec![Term::Var(VarId(0))] }],
            vec!["x".into()],
        )
        .unwrap();
        let q2 = ConjunctiveQuery::new(
            "Q",
            vec![VarId(0)],
            vec![Atom { rel: s.rel_id("t").unwrap(), terms: vec![Term::Var(VarId(0))] }],
            vec!["x".into(), "ghost".into()],
        )
        .unwrap();
        assert_eq!(q1.canonical_fingerprint(), q2.canonical_fingerprint());
    }

    #[test]
    fn permuted_text_stays_alpha_equivalent() {
        let s = schema();
        let text = "Q(x, w) :- r(x, y), s(y, 'hi'), r(x, w), t(9)";
        let base = parse(&s, text).unwrap();
        let mut rng = Mt64::new(3);
        let mut distinct_texts = std::collections::HashSet::new();
        for _ in 0..20 {
            let permuted = permute_query_text(text, &mut rng).unwrap();
            distinct_texts.insert(permuted.clone());
            let q = parse(&s, &permuted).unwrap();
            assert_eq!(
                q.canonical_fingerprint(),
                base.canonical_fingerprint(),
                "permutation changed the query: {permuted}"
            );
        }
        assert!(distinct_texts.len() > 5, "permuter barely varies the text");
    }

    #[test]
    fn permuter_rejects_garbage() {
        let mut rng = Mt64::new(1);
        for bad in ["", "Q(x)", "Q(x) :- ", "Q(1) :- r(x, y)", "Q(x) :- r(x", "r(x, y)"] {
            assert!(permute_query_text(bad, &mut rng).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn permuter_preserves_boolean_and_constants() {
        let mut rng = Mt64::new(5);
        let p = permute_query_text("Q() :- s(x, 'a b'), r(x, -3)", &mut rng).unwrap();
        assert!(p.contains("'a b'"), "{p}");
        assert!(p.contains("-3"), "{p}");
        assert!(p.starts_with("Q()"), "{p}");
    }
}
