//! Homomorphism enumeration: the join engine.
//!
//! [`for_each_hom`] streams every homomorphism `h` from a CQ to a database,
//! delivering both the variable binding and the per-atom fact provenance
//! (`h(Q)` as row indices). The synopsis builder groups these by the head
//! tuple `h(x̄)` to form the paper's `syn_{Σ,Q}(D)` in a single pass —
//! functionally the paper's one-SQL-query preprocessing (§5).
//!
//! **Plan.** A greedy bound-first atom order: repeatedly take the atom with
//! the most bound positions, ties towards the smaller table. Each step
//! looks its candidates up in the [`PosIndex`] on the positions bound
//! before it (constants and earlier variables); a step with nothing bound
//! reads the index on no columns, i.e. scans.
//!
//! **Kernel.** `Engine::plan` resolves everything a step needs once:
//! where each key datum comes from (a constant, a variable bound earlier,
//! or a column of the parent step's row), which column pairs a row must
//! agree on, and which variables a row binds. The step fetches its index
//! `Arc` from the database cache the first time it is probed, never again,
//! and never for a step no candidate reaches (building an index is the
//! dearest thing a short query does). Which variables are bound at a given
//! depth is fixed by the plan, so a candidate binds by overwriting and
//! nothing is ever undone. No heap operation happens per candidate or per
//! partial binding, only per plan step and per homomorphism the caller
//! materializes.
//!
//! Three things keep a candidate that leads nowhere cheap; almost every
//! candidate is one. **Filtered probes:** a lookup of a key the index does
//! not hold, which is most lookups on a plan that meets its selective
//! constant late, usually stops at the index's Bloom filter, a few bytes
//! per key that stay in cache, before its slot table. **Deferred binds:**
//! a step writes into the binding only the variables a key two or more
//! steps below reads. The next step's key reads the parent row directly,
//! and every other variable is filled at emission from the rows in
//! `facts`. **Lookahead:** `Engine::step`
//! walks its candidate slice in chunks of `LOOKAHEAD` rows. For each chunk
//! it first reads the columns the child key takes from every row, then
//! checks every row and resolves the row's child lookup, and only then do
//! the rows descend one by one with their resolved slices. The reads and
//! lookups of a chunk do not depend on each other, so their cache misses
//! overlap instead of running one after another.
//!
//! None changes the emission order: a filtered probe returns the same
//! (empty) slice, rows still descend in slice order, depth first, and each
//! homomorphism is handed over with the same binding and facts, because a
//! deferred variable's value is a function of the rows in `facts`. The
//! lookahead only moves row and index reads earlier. The `work` counter
//! and its deadline poll still count candidates in descent order.
//!
//! **Why the plan is frozen.** The synopsis encoding, the noise generator
//! and every seeded answer downstream consume homomorphisms in emission
//! order, and `tests/golden_emission.rs` pins that order. A
//! cardinality-based atom order would enumerate far fewer partial bindings,
//! but it reorders the output, so it waits for a change that re-pins the
//! digests and the benchmark's query list together.

use crate::ast::{ConjunctiveQuery, Term, VarId};
use cqa_common::{CqaError, Deadline, Result};
use cqa_storage::{Database, Datum, PosIndex, RelId};
use std::cell::OnceCell;
use std::collections::HashSet;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Limits on an evaluation run.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Stop after this many homomorphisms (`None` = unlimited; `Some(0)`
    /// delivers none).
    pub max_homs: Option<usize>,
    /// Abort with [`CqaError::TimedOut`] past this deadline.
    pub deadline: Deadline,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { max_homs: None, deadline: Deadline::none() }
    }
}

/// A materialized homomorphism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hom {
    /// `binding[v]` is the image of variable `v`.
    pub binding: Vec<Datum>,
    /// `facts[i]` is the row (in `q.atoms[i].rel`) the `i`-th atom maps to.
    pub facts: Vec<u32>,
}

const POLL_INTERVAL: u64 = 4096;

/// Candidate rows per lookahead chunk: the child lookups of this many rows
/// are resolved before the first of them descends.
const LOOKAHEAD: usize = 16;

/// Where one lookup-key datum comes from.
#[derive(Clone, Copy)]
enum KeySrc {
    Const(Datum),
    /// A variable bound before the parent step (or seeded).
    Var(VarId),
    /// A column of the parent step's candidate row.
    Row(usize),
}

/// One plan step: an atom and how to find and unify its rows.
struct Step {
    atom: usize,
    rel: RelId,
    cols: Vec<u16>,
    index: OnceCell<Arc<PosIndex>>,
    key: Vec<KeySrc>,
    /// Column pairs a row must agree on: a variable repeated in the atom.
    checks: Vec<(usize, usize)>,
    /// Variables bound here that a key two or more steps below reads.
    binds: Vec<(usize, VarId)>,
}

/// A variable no lookup key reads from the binding: it is filled at
/// emission from column `col` of the row that atom `atom` maps to.
struct Deferred {
    atom: usize,
    rel: RelId,
    col: usize,
    var: VarId,
}

/// Per-run mutable state, kept apart from the plan so a step can iterate
/// a row slice borrowed from its index while deeper steps mutate this.
struct State {
    binding: Vec<Datum>,
    facts: Vec<u32>,
    key: Vec<Datum>,
    emitted: usize,
    work: u64,
}

struct Engine<'a> {
    db: &'a Database,
    steps: Vec<Step>,
    deferred: Vec<Deferred>,
    opts: EvalOptions,
}

impl<'a> Engine<'a> {
    /// Computes the greedy plan and resolves its constants. Returns `None`
    /// when the result is empty for a static reason: a constant the
    /// database has never seen, or a seed giving one variable two values.
    fn plan(
        db: &'a Database,
        q: &ConjunctiveQuery,
        seed: &[(VarId, Datum)],
        opts: EvalOptions,
    ) -> Option<(Self, State)> {
        let mut binding = vec![Datum::Int(0); q.num_vars()];
        let mut bound: Vec<bool> = vec![false; q.num_vars()];
        for &(v, d) in seed {
            if bound[v.idx()] && binding[v.idx()] != d {
                return None;
            }
            binding[v.idx()] = d;
            bound[v.idx()] = true;
        }

        let n = q.atoms.len();
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut steps: Vec<Step> = Vec::with_capacity(n);
        // The step and column that bind each variable.
        let mut bound_at: Vec<Option<(usize, usize)>> = vec![None; q.num_vars()];
        while !remaining.is_empty() {
            #[expect(
                clippy::expect_used,
                reason = "the enclosing while-loop guard guarantees `remaining` is non-empty"
            )]
            let (pick_pos, _) = remaining
                .iter()
                .enumerate()
                .map(|(pos, &ai)| {
                    let atom = &q.atoms[ai];
                    let bound_count = atom
                        .terms
                        .iter()
                        .filter(|t| match t {
                            Term::Const(_) => true,
                            Term::Var(v) => bound[v.idx()],
                        })
                        .count();
                    let size = db.table(atom.rel).len();
                    // Higher bound_count first, then smaller table.
                    (pos, (std::cmp::Reverse(bound_count), size))
                })
                .min_by_key(|&(_, key)| key)
                .expect("remaining non-empty");
            let ai = remaining.swap_remove(pick_pos);
            let atom = &q.atoms[ai];
            let mut cols = Vec::new();
            let mut key = Vec::new();
            let mut checks = Vec::new();
            let mut binds = Vec::new();
            let mut first_col: Vec<(VarId, usize)> = Vec::new();
            for (i, t) in atom.terms.iter().enumerate() {
                match t {
                    Term::Const(c) => {
                        cols.push(i as u16);
                        key.push(KeySrc::Const(db.lookup_value(c)?));
                    }
                    Term::Var(v) => {
                        if let Some(&(_, j)) = first_col.iter().find(|&&(w, _)| w == *v) {
                            // Repeats of a variable inside one atom are checked
                            // against its first column, not put in the index
                            // key, so the key stays free of duplicate columns.
                            checks.push((i, j));
                            continue;
                        }
                        first_col.push((*v, i));
                        if bound[v.idx()] {
                            cols.push(i as u16);
                            // A variable the step just above binds is read
                            // from that step's candidate row, which lets a
                            // chunk's child keys be built before any of its
                            // rows is bound.
                            key.push(match bound_at[v.idx()] {
                                Some((s, col)) if s + 1 == steps.len() => KeySrc::Row(col),
                                _ => KeySrc::Var(*v),
                            });
                        } else {
                            bound_at[v.idx()] = Some((steps.len(), i));
                            binds.push((i, *v));
                        }
                    }
                }
            }
            for v in atom.vars() {
                bound[v.idx()] = true;
            }
            steps.push(Step {
                atom: ai,
                rel: atom.rel,
                cols,
                index: OnceCell::new(),
                key,
                checks,
                binds,
            });
        }

        // Only what a key still reads from the binding is bound as a step
        // descends; every other variable waits for emission.
        let read: HashSet<VarId> = steps
            .iter()
            .flat_map(|s| &s.key)
            .filter_map(|src| match *src {
                KeySrc::Var(v) => Some(v),
                _ => None,
            })
            .collect();
        let mut deferred = Vec::new();
        for step in &mut steps {
            let (now, later): (Vec<_>, Vec<_>) =
                step.binds.iter().partition(|(_, v)| read.contains(v));
            step.binds = now;
            deferred.extend(later.into_iter().map(|(col, var)| Deferred {
                atom: step.atom,
                rel: step.rel,
                col,
                var,
            }));
        }

        let key_cap = steps.iter().map(|s| s.key.len()).max().unwrap_or(0);
        let state = State {
            binding,
            facts: vec![0; n],
            key: Vec::with_capacity(key_cap),
            emitted: 0,
            work: 0,
        };
        Some((Engine { db, steps, deferred, opts }, state))
    }

    /// Runs the plan from its first step.
    fn run<F>(&self, st: &mut State, f: &mut F) -> Result<ControlFlow<()>>
    where
        F: FnMut(&[Datum], &[u32]) -> ControlFlow<()>,
    {
        match self.steps.first() {
            Some(first) => {
                let rows = self.probe(first, &[], &st.binding, &mut st.key);
                self.step(0, rows, st, f)
            }
            None => Ok(self.emit(st, f)),
        }
    }

    /// `step`'s candidate rows under the current binding, where `parent`
    /// is the candidate row of the step above (empty for the first step).
    /// Fetches the step's index `Arc` the first time the step is probed.
    fn probe<'s>(
        &'s self,
        step: &'s Step,
        parent: &[Datum],
        binding: &[Datum],
        key: &mut Vec<Datum>,
    ) -> &'s [u32] {
        key.clear();
        for src in &step.key {
            key.push(match *src {
                KeySrc::Const(d) => d,
                KeySrc::Var(v) => binding[v.idx()],
                KeySrc::Row(i) => parent[i],
            });
        }
        step.index.get_or_init(|| self.db.index(step.rel, &step.cols)).get(key)
    }

    /// Walks the candidate rows of step `depth` in chunks of [`LOOKAHEAD`]:
    /// first the child-key columns of every row in the chunk are read, then
    /// every row is checked and its child lookup resolved, then the rows
    /// descend one by one, in slice order.
    fn step<F>(
        &self,
        depth: usize,
        cands: &[u32],
        st: &mut State,
        f: &mut F,
    ) -> Result<ControlFlow<()>>
    where
        F: FnMut(&[Datum], &[u32]) -> ControlFlow<()>,
    {
        let Some(step) = self.steps.get(depth) else {
            return Ok(ControlFlow::Continue(()));
        };
        let child = self.steps.get(depth + 1);
        let table = self.db.table(step.rel);
        for chunk in cands.chunks(LOOKAHEAD) {
            if let Some(child) = child {
                // Read the columns the child key takes from each row first,
                // in a loop short enough that all the chunk's row misses
                // are in flight together; the probes below then find the
                // rows in cache. Safe Rust has no prefetch, so the read is
                // kept alive with `black_box`.
                for &row_id in chunk {
                    let row = table.row(row_id);
                    for src in &child.key {
                        if let KeySrc::Row(i) = *src {
                            std::hint::black_box(row[i]);
                        }
                    }
                }
            }
            // `None`: nothing below this row, because it fails a check or
            // its child lookup is empty. The child's row slices are
            // independent of each other, so their probes overlap.
            let mut below: [Option<&[u32]>; LOOKAHEAD] = [None; LOOKAHEAD];
            for (&row_id, slot) in chunk.iter().zip(&mut below) {
                let row = table.row(row_id);
                if !step.checks.iter().all(|&(i, j)| row[i] == row[j]) {
                    continue;
                }
                *slot = match child {
                    Some(child) => Some(self.probe(child, row, &st.binding, &mut st.key))
                        .filter(|rows| !rows.is_empty()),
                    None => Some(&[]),
                };
            }
            for (&row_id, slot) in chunk.iter().zip(below) {
                st.work += 1;
                if st.work.is_multiple_of(POLL_INTERVAL) && self.opts.deadline.expired() {
                    return Err(CqaError::TimedOut { phase: "query evaluation", samples: 0 });
                }
                let Some(rows) = slot else { continue };
                let row = table.row(row_id);
                for &(i, v) in &step.binds {
                    st.binding[v.idx()] = row[i];
                }
                st.facts[step.atom] = row_id;
                let flow = match child {
                    Some(_) => self.step(depth + 1, rows, st, f)?,
                    None => self.emit(st, f),
                };
                if flow.is_break() {
                    return Ok(ControlFlow::Break(()));
                }
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    /// Fills the deferred variables from the rows in `st.facts` and hands
    /// the homomorphism to the callback.
    fn emit<F>(&self, st: &mut State, f: &mut F) -> ControlFlow<()>
    where
        F: FnMut(&[Datum], &[u32]) -> ControlFlow<()>,
    {
        for d in &self.deferred {
            st.binding[d.var.idx()] = self.db.table(d.rel).row(st.facts[d.atom])[d.col];
        }
        st.emitted += 1;
        let flow = f(&st.binding, &st.facts);
        if self.opts.max_homs.is_some_and(|max| st.emitted >= max) {
            return ControlFlow::Break(());
        }
        flow
    }
}

/// Streams every homomorphism from `q` to `db`.
///
/// The callback receives the full variable binding (indexed by [`VarId`])
/// and the per-atom fact rows; returning `ControlFlow::Break` stops the
/// enumeration early.
pub fn for_each_hom<F>(
    db: &Database,
    q: &ConjunctiveQuery,
    opts: EvalOptions,
    mut f: F,
) -> Result<()>
where
    F: FnMut(&[Datum], &[u32]) -> ControlFlow<()>,
{
    for_each_hom_seeded(db, q, &[], opts, &mut f)
}

/// Like [`for_each_hom`] but with some variables pre-bound.
pub fn for_each_hom_seeded<F>(
    db: &Database,
    q: &ConjunctiveQuery,
    seed: &[(VarId, Datum)],
    opts: EvalOptions,
    f: &mut F,
) -> Result<()>
where
    F: FnMut(&[Datum], &[u32]) -> ControlFlow<()>,
{
    if opts.max_homs == Some(0) {
        return Ok(());
    }
    if let Some((engine, mut state)) = Engine::plan(db, q, seed, opts) {
        // An early break from the callback is a normal outcome here.
        let _ = engine.run(&mut state, f)?;
    }
    Ok(())
}

/// Materializes all homomorphisms (use only when the count is manageable).
pub fn homomorphisms(db: &Database, q: &ConjunctiveQuery, opts: EvalOptions) -> Result<Vec<Hom>> {
    let mut out = Vec::new();
    for_each_hom(db, q, opts, |binding, facts| {
        out.push(Hom { binding: binding.to_vec(), facts: facts.to_vec() });
        ControlFlow::Continue(())
    })?;
    Ok(out)
}

/// The distinct answers `Q(D)` (§2): projections of the homomorphisms onto
/// the head variables.
pub fn answers(db: &Database, q: &ConjunctiveQuery) -> Result<Vec<Vec<Datum>>> {
    let mut seen: HashSet<Vec<Datum>> = HashSet::new();
    let mut out = Vec::new();
    for_each_hom(db, q, EvalOptions::default(), |binding, _| {
        let t: Vec<Datum> = q.head.iter().map(|v| binding[v.idx()]).collect();
        if seen.insert(t.clone()) {
            out.push(t);
        }
        ControlFlow::Continue(())
    })?;
    Ok(out)
}

/// True iff `t̄ ∈ Q(D)`: some homomorphism maps the head to `t̄`.
pub fn is_answer(db: &Database, q: &ConjunctiveQuery, t: &[Datum]) -> Result<bool> {
    assert_eq!(t.len(), q.head.len(), "tuple arity must match the head");
    let mut seed: Vec<(VarId, Datum)> = Vec::with_capacity(t.len());
    for (&v, &d) in q.head.iter().zip(t) {
        // Repeated head variables must agree.
        if let Some(&(_, prev)) = seed.iter().find(|&&(w, _)| w == v) {
            if prev != d {
                return Ok(false);
            }
            continue;
        }
        seed.push((v, d));
    }
    let mut found = false;
    for_each_hom_seeded(db, q, &seed, EvalOptions::default(), &mut |_, _| {
        found = true;
        ControlFlow::Break(())
    })?;
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use cqa_storage::ColumnType::*;
    use cqa_storage::{Schema, Value};

    /// The paper's Example 1.1 plus a department relation for joins.
    fn db() -> Database {
        let schema = Schema::builder()
            .relation("employee", &[("id", Int), ("name", Str), ("dept", Str)], Some(1))
            .relation("dept", &[("dname", Str), ("floor", Int)], Some(1))
            .foreign_key("employee", &["dept"], "dept", &["dname"])
            .build();
        let mut db = Database::new(schema);
        for (id, name, dept) in
            [(1, "Bob", "HR"), (1, "Bob", "IT"), (2, "Alice", "IT"), (2, "Tim", "IT")]
        {
            db.insert_named("employee", &[Value::Int(id), Value::str(name), Value::str(dept)])
                .unwrap();
        }
        for (dname, floor) in [("HR", 1), ("IT", 2)] {
            db.insert_named("dept", &[Value::str(dname), Value::Int(floor)]).unwrap();
        }
        db
    }

    #[test]
    fn enumerates_all_homomorphisms() {
        let db = db();
        let q = parse(db.schema(), "Q(x, n, d) :- employee(x, n, d)").unwrap();
        let homs = homomorphisms(&db, &q, EvalOptions::default()).unwrap();
        assert_eq!(homs.len(), 4);
    }

    #[test]
    fn constant_filters_apply() {
        let db = db();
        let q = parse(db.schema(), "Q(x) :- employee(x, n, 'IT')").unwrap();
        let homs = homomorphisms(&db, &q, EvalOptions::default()).unwrap();
        assert_eq!(homs.len(), 3);
        let ans = answers(&db, &q).unwrap();
        assert_eq!(ans.len(), 2); // ids 1 and 2
    }

    #[test]
    fn join_produces_cross_relation_matches() {
        let db = db();
        let q = parse(db.schema(), "Q(n, f) :- employee(x, n, d), dept(d, f)").unwrap();
        let homs = homomorphisms(&db, &q, EvalOptions::default()).unwrap();
        assert_eq!(homs.len(), 4);
        let ans = answers(&db, &q).unwrap();
        // (Bob,1), (Bob,2), (Alice,2), (Tim,2)
        assert_eq!(ans.len(), 4);
    }

    #[test]
    fn provenance_rows_reconstruct_the_image() {
        let db = db();
        let q = parse(db.schema(), "Q() :- employee(x, n, d), dept(d, f)").unwrap();
        for_each_hom(&db, &q, EvalOptions::default(), |binding, facts| {
            // The dept atom's row must actually contain the binding of d.
            let dept_rel = db.schema().rel_id("dept").unwrap();
            let drow = db.table(dept_rel).row(facts[1]);
            let d_var = q.atoms[0].terms[2].clone();
            if let Term::Var(v) = d_var {
                assert_eq!(drow[0], binding[v.idx()]);
            }
            ControlFlow::Continue(())
        })
        .unwrap();
    }

    #[test]
    fn repeated_variable_in_atom_requires_equality() {
        let schema = Schema::builder().relation("p", &[("a", Int), ("b", Int)], None).build();
        let mut db = Database::new(schema);
        db.insert_named("p", &[Value::Int(1), Value::Int(1)]).unwrap();
        db.insert_named("p", &[Value::Int(1), Value::Int(2)]).unwrap();
        let q = parse(db.schema(), "Q(x) :- p(x, x)").unwrap();
        let ans = answers(&db, &q).unwrap();
        assert_eq!(ans, vec![vec![Datum::Int(1)]]);
    }

    #[test]
    fn unknown_string_constant_yields_empty_result() {
        let db = db();
        let q = parse(db.schema(), "Q(x) :- employee(x, n, 'Payroll')").unwrap();
        assert!(homomorphisms(&db, &q, EvalOptions::default()).unwrap().is_empty());
    }

    #[test]
    fn boolean_query_same_department_example() {
        // The paper's Example 1.1 query: do employees 1 and 2 work in the
        // same department? True in the full (inconsistent) database.
        let db = db();
        let q = parse(db.schema(), "Q() :- employee(1, n1, d), employee(2, n2, d)").unwrap();
        let homs = homomorphisms(&db, &q, EvalOptions::default()).unwrap();
        // (1,Bob,IT) joins with (2,Alice,IT) and (2,Tim,IT).
        assert_eq!(homs.len(), 2);
    }

    #[test]
    fn is_answer_checks_membership() {
        let db = db();
        let q = parse(db.schema(), "Q(x, d) :- employee(x, n, d)").unwrap();
        let it = db.lookup_value(&Value::str("IT")).unwrap();
        let hr = db.lookup_value(&Value::str("HR")).unwrap();
        assert!(is_answer(&db, &q, &[Datum::Int(1), it]).unwrap());
        assert!(!is_answer(&db, &q, &[Datum::Int(2), hr]).unwrap());
    }

    #[test]
    fn is_answer_with_repeated_head_vars() {
        let db = db();
        let q = parse(db.schema(), "Q(x, x) :- employee(x, n, d)").unwrap();
        assert!(is_answer(&db, &q, &[Datum::Int(1), Datum::Int(1)]).unwrap());
        assert!(!is_answer(&db, &q, &[Datum::Int(1), Datum::Int(2)]).unwrap());
    }

    #[test]
    fn max_homs_limits_enumeration() {
        let db = db();
        let q = parse(db.schema(), "Q(x) :- employee(x, n, d)").unwrap();
        let homs = homomorphisms(&db, &q, EvalOptions { max_homs: Some(2), ..Default::default() })
            .unwrap();
        assert_eq!(homs.len(), 2);
    }

    #[test]
    fn max_homs_zero_delivers_none() {
        let db = db();
        let q = parse(db.schema(), "Q(x) :- employee(x, n, d)").unwrap();
        let opts = EvalOptions { max_homs: Some(0), ..Default::default() };
        let mut calls = 0;
        for_each_hom(&db, &q, opts, |_, _| {
            calls += 1;
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(calls, 0);
        assert!(homomorphisms(&db, &q, opts).unwrap().is_empty());
    }

    #[test]
    fn callback_break_stops_early() {
        let db = db();
        let q = parse(db.schema(), "Q(x) :- employee(x, n, d)").unwrap();
        let mut count = 0;
        for_each_hom(&db, &q, EvalOptions::default(), |_, _| {
            count += 1;
            ControlFlow::Break(())
        })
        .unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn cartesian_product_when_disconnected() {
        let db = db();
        let q = parse(db.schema(), "Q() :- employee(x, n, d), dept(e, f)").unwrap();
        let homs = homomorphisms(&db, &q, EvalOptions::default()).unwrap();
        assert_eq!(homs.len(), 4 * 2);
    }

    #[test]
    fn expired_deadline_stops_a_long_enumeration() {
        // A disconnected product visits 100 + 100·100 candidates, more than
        // one poll interval.
        let schema = Schema::builder()
            .relation("p", &[("a", Int)], None)
            .relation("q", &[("b", Int)], None)
            .build();
        let mut db = Database::new(schema);
        for i in 0..100 {
            db.insert_named("p", &[Value::Int(i)]).unwrap();
            db.insert_named("q", &[Value::Int(i)]).unwrap();
        }
        let q = parse(db.schema(), "Q() :- p(x), q(y)").unwrap();
        const { assert!(100 + 100 * 100 > POLL_INTERVAL) };

        let expired = Deadline::after(std::time::Duration::ZERO);
        let opts = EvalOptions { deadline: expired, ..Default::default() };
        let mut calls = 0usize;
        let err = for_each_hom(&db, &q, opts, |_, _| {
            calls += 1;
            ControlFlow::Continue(())
        })
        .unwrap_err();
        assert!(
            matches!(err, CqaError::TimedOut { phase: "query evaluation", samples: 0 }),
            "{err:?}"
        );
        assert!(calls < 100 * 100, "the poll fired after {calls} homomorphisms");

        let homs = homomorphisms(&db, &q, EvalOptions::default()).unwrap();
        assert_eq!(homs.len(), 100 * 100);
    }

    #[test]
    fn self_join_enumerates_pairs() {
        let db = db();
        let q = parse(db.schema(), "Q(x, y) :- employee(x, n1, d), employee(y, n2, d)").unwrap();
        let homs = homomorphisms(&db, &q, EvalOptions::default()).unwrap();
        // HR: 1 pair; IT: 3×3 pairs.
        assert_eq!(homs.len(), 1 + 9);
    }
}
