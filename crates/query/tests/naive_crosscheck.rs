//! Cross-checks the optimized join engine against a naive reference
//! evaluator on randomized queries and databases.
//!
//! The reference enumerates the full cartesian product of candidate rows
//! per atom and filters — hopeless for real data, perfect as an oracle.
//! Beyond the set of homomorphisms, the engine's emission order is checked
//! for prefix closure: a run stopped after `k` homomorphisms emits exactly
//! the first `k` of the unlimited run, each with every variable bound.

use cqa_common::Mt64;
use cqa_query::{for_each_hom, homomorphisms, Atom, ConjunctiveQuery, EvalOptions, Term, VarId};
use cqa_storage::{ColumnType::*, Database, Datum, RelId, Schema, Value};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// Naive evaluation: nested loops over every row combination.
fn naive_homs(db: &Database, q: &ConjunctiveQuery) -> BTreeSet<(Vec<Datum>, Vec<u32>)> {
    fn rec(
        db: &Database,
        q: &ConjunctiveQuery,
        depth: usize,
        binding: &mut Vec<Option<Datum>>,
        rows: &mut Vec<u32>,
        out: &mut BTreeSet<(Vec<Datum>, Vec<u32>)>,
    ) {
        if depth == q.atoms.len() {
            let b: Vec<Datum> = binding.iter().map(|o| o.expect("safe query")).collect();
            out.insert((b, rows.clone()));
            return;
        }
        let atom = &q.atoms[depth];
        let table = db.table(atom.rel);
        for i in 0..table.len() as u32 {
            let row = table.row(i);
            let saved = binding.clone();
            let mut ok = true;
            for (pos, t) in atom.terms.iter().enumerate() {
                match t {
                    Term::Const(v) => {
                        if db.lookup_value(v) != Some(row[pos]) {
                            ok = false;
                            break;
                        }
                    }
                    Term::Var(v) => match binding[v.idx()] {
                        Some(d) if d != row[pos] => {
                            ok = false;
                            break;
                        }
                        Some(_) => {}
                        None => binding[v.idx()] = Some(row[pos]),
                    },
                }
            }
            if ok {
                rows.push(i);
                rec(db, q, depth + 1, binding, rows, out);
                rows.pop();
            }
            *binding = saved;
        }
    }
    let mut out = BTreeSet::new();
    let mut binding = vec![None; q.num_vars()];
    rec(db, q, 0, &mut binding, &mut Vec::new(), &mut out);
    out
}

fn random_db(rng: &mut Mt64) -> Database {
    let schema = Schema::builder()
        .relation("r", &[("a", Int), ("b", Int)], Some(1))
        .relation("s", &[("c", Int), ("d", Int), ("e", Int)], Some(1))
        .relation("t", &[("f", Int)], None)
        .build();
    let mut db = Database::new(schema);
    let n = 2 + rng.index(8);
    for _ in 0..n {
        db.insert_named("r", &[Value::Int(rng.below(4) as i64), Value::Int(rng.below(4) as i64)])
            .unwrap();
        db.insert_named(
            "s",
            &[
                Value::Int(rng.below(4) as i64),
                Value::Int(rng.below(4) as i64),
                Value::Int(rng.below(4) as i64),
            ],
        )
        .unwrap();
        db.insert_named("t", &[Value::Int(rng.below(4) as i64)]).unwrap();
    }
    db
}

/// Like [`random_db`], plus `w(k, x, i)`: 40–80 distinct rows over 2–3 key
/// values,
/// so a scan of `w` and a lookup on its key both return slices longer
/// than the join engine's 16-row lookahead chunk.
fn random_chunked_db(rng: &mut Mt64) -> Database {
    let small = random_db(rng);
    let schema = Schema::builder()
        .relation("r", &[("a", Int), ("b", Int)], Some(1))
        .relation("s", &[("c", Int), ("d", Int), ("e", Int)], Some(1))
        .relation("t", &[("f", Int)], None)
        .relation("w", &[("k", Int), ("x", Int), ("i", Int)], Some(1))
        .build();
    let mut db = Database::new(schema);
    for (rel, _) in small.schema().iter() {
        let table = small.table(rel);
        for row in 0..table.len() as u32 {
            db.insert_datums(rel, table.row(row));
        }
    }
    let keys = 2 + rng.below(2);
    let rows = 40 + rng.index(41);
    let w = db.schema().rel_id("w").unwrap();
    while db.table(w).len() < rows {
        let row = [rng.below(keys), rng.below(4), rng.below(12)].map(|v| Value::Int(v as i64));
        db.insert(w, &row).unwrap();
    }
    db
}

/// A random CQ over `db`'s schema; each atom is over `favored`, when
/// given, with probability ½.
fn random_query(rng: &mut Mt64, db: &Database, favored: Option<RelId>) -> ConjunctiveQuery {
    let schema = db.schema();
    let n_atoms = 1 + rng.index(3);
    // Up to 4 variables shared freely across positions; occasional consts.
    let n_vars = 1 + rng.index(4);
    let var_names: Vec<String> = (0..n_vars).map(|i| format!("v{i}")).collect();
    let mut atoms = Vec::new();
    for _ in 0..n_atoms {
        let rel = match favored {
            Some(rel) if rng.bernoulli(0.5) => rel,
            _ => RelId(rng.index(schema.len()) as u32),
        };
        let arity = schema.relation(rel).arity();
        let terms: Vec<Term> = (0..arity)
            .map(|_| {
                if rng.bernoulli(0.2) {
                    Term::Const(Value::Int(rng.below(4) as i64))
                } else {
                    Term::Var(VarId(rng.index(n_vars) as u32))
                }
            })
            .collect();
        atoms.push(Atom { rel, terms });
    }
    // Head: the variables that occur in the body (safety), maybe projected.
    let mut body_vars: Vec<VarId> = Vec::new();
    for a in &atoms {
        for v in a.vars() {
            if !body_vars.contains(&v) {
                body_vars.push(v);
            }
        }
    }
    // Some queries have no variables at all (all constants): skip those by
    // retrying at the call site.
    let k = if body_vars.is_empty() { 0 } else { rng.index(body_vars.len() + 1) };
    let head: Vec<VarId> = body_vars.into_iter().take(k).collect();
    ConjunctiveQuery::new("Q", head, atoms, var_names).expect("safe by construction")
}

/// Every body variable is bound to the value its atoms' rows hold.
fn assert_bound_by_rows(db: &Database, q: &ConjunctiveQuery, binding: &[Datum], facts: &[u32]) {
    for (atom, &row) in q.atoms.iter().zip(facts) {
        let row = db.table(atom.rel).row(row);
        for (pos, t) in atom.terms.iter().enumerate() {
            if let Term::Var(v) = t {
                assert_eq!(binding[v.idx()], row[pos], "{} unbound", q.display(db.schema()));
            }
        }
    }
}

/// The join engine visits each step's candidates in ascending row order,
/// depth first, so its output is sorted by the fact rows taken in plan
/// order: some order of the atoms makes the sequence strictly increasing.
fn assert_plan_ordered(db: &Database, q: &ConjunctiveQuery, homs: &[(Vec<Datum>, Vec<u32>)]) {
    fn orders(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for shorter in orders(n - 1) {
            for at in 0..n {
                let mut order = shorter.clone();
                order.insert(at, n - 1);
                out.push(order);
            }
        }
        out
    }
    let sorted_under = |order: &Vec<usize>| {
        let key = |facts: &[u32]| order.iter().map(|&i| facts[i]).collect::<Vec<u32>>();
        homs.windows(2).all(|w| key(&w[0].1) < key(&w[1].1))
    };
    assert!(
        orders(q.atoms.len()).iter().any(sorted_under),
        "emission order of {} follows no atom order",
        q.display(db.schema())
    );
}

/// The engine's homomorphisms equal the naive reference's as a set, and
/// for every `k` in `1..=n` a run capped at `k` emits exactly the first `k`
/// of the unlimited run.
fn check_against_reference(db: &Database, q: &ConjunctiveQuery) {
    let full: Vec<(Vec<Datum>, Vec<u32>)> = homomorphisms(db, q, EvalOptions::default())
        .unwrap()
        .into_iter()
        .map(|h| (h.binding, h.facts))
        .collect();
    let fast: BTreeSet<(Vec<Datum>, Vec<u32>)> = full.iter().cloned().collect();
    let slow = naive_homs(db, q);
    assert_eq!(
        fast,
        slow,
        "engines disagree on {} over {} facts",
        q.display(db.schema()),
        db.fact_count()
    );
    for (binding, facts) in &full {
        assert_bound_by_rows(db, q, binding, facts);
    }
    assert_plan_ordered(db, q, &full);
    for k in 1..=full.len() {
        let mut seen = 0;
        let opts = EvalOptions { max_homs: Some(k), ..Default::default() };
        for_each_hom(db, q, opts, |binding, facts| {
            let (b, f) = &full[seen];
            assert!(
                b.as_slice() == binding && f.as_slice() == facts,
                "capped run {k} diverges at homomorphism {seen} of {}",
                q.display(db.schema())
            );
            seen += 1;
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(seen, k, "capped run of {}", q.display(db.schema()));
    }
}

#[test]
fn optimized_engine_matches_naive_reference() {
    let mut rng = Mt64::new(123456);
    let mut checked = 0;
    while checked < 150 {
        let db = random_db(&mut rng);
        let q = random_query(&mut rng, &db, None);
        // The naive oracle assumes every variable gets bound (safe query
        // whose vars all occur); random queries may leave declared vars
        // unused — normalize by skipping those.
        let used: BTreeSet<VarId> = q.body_vars();
        if used.len() != q.num_vars() {
            continue;
        }
        check_against_reference(&db, &q);
        checked += 1;
    }
}

#[test]
fn long_candidate_slices_keep_order_and_prefixes() {
    let mut rng = Mt64::new(271828);
    let mut checked = 0;
    let mut crossed = 0;
    while checked < 500 {
        let db = random_chunked_db(&mut rng);
        let w = db.schema().rel_id("w").unwrap();
        let q = random_query(&mut rng, &db, Some(w));
        let used: BTreeSet<VarId> = q.body_vars();
        if used.len() != q.num_vars() {
            continue;
        }
        // The prefix check costs n²/2 emissions; products of two or three
        // `w` atoms reach thousands of homomorphisms, so skip the largest.
        let n = naive_homs(&db, &q).len();
        if n > 2000 {
            continue;
        }
        if n > 16 && q.atoms.iter().any(|a| a.rel == w) {
            crossed += 1;
        }
        check_against_reference(&db, &q);
        checked += 1;
    }
    assert!(crossed >= 30, "only {crossed} queries emit past one chunk over `w`");
}

#[test]
fn engine_agrees_on_answers_too() {
    let mut rng = Mt64::new(654321);
    let mut checked = 0;
    while checked < 60 {
        let db = random_db(&mut rng);
        let q = random_query(&mut rng, &db, None);
        let used: BTreeSet<VarId> = q.body_vars();
        if used.len() != q.num_vars() || q.head.is_empty() {
            continue;
        }
        let fast: BTreeSet<Vec<Datum>> = cqa_query::answers(&db, &q).unwrap().into_iter().collect();
        let slow: BTreeSet<Vec<Datum>> = naive_homs(&db, &q)
            .into_iter()
            .map(|(b, _)| q.head.iter().map(|v| b[v.idx()]).collect())
            .collect();
        assert_eq!(fast, slow, "answers disagree on {}", q.display(db.schema()));
        checked += 1;
    }
}
