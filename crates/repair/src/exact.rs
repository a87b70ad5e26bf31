//! Exact consistent query answering by repair enumeration.
//!
//! These are the reference implementations of the problems `RelativeFreq`
//! and `CQA` (§2): exponential-time brute force over `rep(D, Σ)`, used only
//! as ground truth in tests and in the accuracy experiments.

use crate::enumerate::{repair_to_database, RepairIter};
use cqa_common::Result;
use cqa_query::{answers, is_answer, ConjunctiveQuery};
use cqa_storage::{Database, Datum};
use std::collections::HashMap;

/// Default cap on the number of repairs the exact baseline will enumerate.
pub const DEFAULT_REPAIR_LIMIT: u128 = 2_000_000;

/// The exact relative frequency `R_{D,Σ,Q}(t̄)`: the fraction of repairs in
/// which `t̄` is an answer to `Q`.
///
/// Fails with `CqaError::TooLarge` when the instance has more than `limit`
/// repairs.
pub fn relative_frequency_exact(
    db: &Database,
    q: &ConjunctiveQuery,
    t: &[Datum],
    limit: u128,
) -> Result<f64> {
    let mut total: u64 = 0;
    let mut hits: u64 = 0;
    for repair in RepairIter::new(db, limit)? {
        let rdb = repair_to_database(db, &repair);
        total += 1;
        // Datum encodings agree between db and rdb because repair facts are
        // re-inserted in block order; translate via values to be safe.
        let tv: Vec<_> = t.iter().map(|&d| db.resolve(d)).collect();
        let td: Option<Vec<Datum>> = tv.iter().map(|v| rdb.lookup_value(v)).collect();
        if let Some(td) = td {
            if is_answer(&rdb, q, &td)? {
                hits += 1;
            }
        }
    }
    Ok(hits as f64 / total as f64)
}

/// The exact answer set `ans_{D,Σ}(Q)`: every tuple with positive relative
/// frequency, paired with that frequency.
pub fn consistent_answers_exact(
    db: &Database,
    q: &ConjunctiveQuery,
    limit: u128,
) -> Result<Vec<(Vec<Datum>, f64)>> {
    let mut counts: HashMap<Vec<Datum>, u64> = HashMap::new();
    let mut total: u64 = 0;
    for repair in RepairIter::new(db, limit)? {
        let rdb = repair_to_database(db, &repair);
        total += 1;
        for t in answers(&rdb, q)? {
            // Translate the answer tuple back into the original database's
            // datum encoding so callers can compare tuples across repairs.
            let tv: Vec<_> = t.iter().map(|&d| rdb.resolve(d)).collect();
            #[expect(
                clippy::expect_used,
                reason = "every answer value of a repair is a value of `db`"
            )]
            let td: Vec<Datum> = tv
                .iter()
                .map(|v| db.lookup_value(v).expect("answer values come from db"))
                .collect();
            *counts.entry(td).or_default() += 1;
        }
    }
    let mut out: Vec<(Vec<Datum>, f64)> =
        counts.into_iter().map(|(t, c)| (t, c as f64 / total as f64)).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// The classical certain-answer test: is `t̄` an answer in *every* repair?
/// Provided for completeness — the paper's refined approach replaces this
/// boolean verdict with the relative frequency.
pub fn certain_answer_exact(
    db: &Database,
    q: &ConjunctiveQuery,
    t: &[Datum],
    limit: u128,
) -> Result<bool> {
    Ok((relative_frequency_exact(db, q, t, limit)? - 1.0).abs() < f64::EPSILON)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::parse;
    use cqa_storage::ColumnType::*;
    use cqa_storage::{Schema, Value};

    fn example_db() -> Database {
        let schema = Schema::builder()
            .relation("employee", &[("id", Int), ("name", Str), ("dept", Str)], Some(1))
            .build();
        let mut db = Database::new(schema);
        for (id, name, dept) in
            [(1, "Bob", "HR"), (1, "Bob", "IT"), (2, "Alice", "IT"), (2, "Tim", "IT")]
        {
            db.insert_named("employee", &[Value::Int(id), Value::str(name), Value::str(dept)])
                .unwrap();
        }
        db
    }

    #[test]
    fn example_1_1_frequency_is_one_half() {
        // "This query is true only in two repairs" out of four → 50% (§1).
        let db = example_db();
        let q = parse(db.schema(), "Q() :- employee(1, n1, d), employee(2, n2, d)").unwrap();
        let f = relative_frequency_exact(&db, &q, &[], 100).unwrap();
        assert!((f - 0.5).abs() < 1e-12);
        assert!(!certain_answer_exact(&db, &q, &[], 100).unwrap());
    }

    #[test]
    fn name_frequencies_reflect_block_structure() {
        let db = example_db();
        // Q(n) :- employee(2, n, d): Alice in half the repairs, Tim in half.
        let q = parse(db.schema(), "Q(n) :- employee(2, n, d)").unwrap();
        let ans = consistent_answers_exact(&db, &q, 100).unwrap();
        assert_eq!(ans.len(), 2);
        for (_, f) in ans {
            assert!((f - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn certain_answer_in_every_repair() {
        let db = example_db();
        // Bob is employee 1's name in every repair.
        let q = parse(db.schema(), "Q(n) :- employee(1, n, d)").unwrap();
        let bob = db.lookup_value(&Value::str("Bob")).unwrap();
        assert!(certain_answer_exact(&db, &q, &[bob], 100).unwrap());
    }

    #[test]
    fn tuple_with_unknown_value_has_zero_frequency() {
        let mut db = example_db();
        let zoe = db.intern_value(&Value::str("Zoe"));
        let q = parse(db.schema(), "Q(n) :- employee(1, n, d)").unwrap();
        let f = relative_frequency_exact(&db, &q, &[zoe], 100).unwrap();
        assert_eq!(f, 0.0);
    }

    #[test]
    fn consistent_database_frequencies_are_binary() {
        let schema = Schema::builder().relation("r", &[("k", Int), ("v", Int)], Some(1)).build();
        let mut db = Database::new(schema);
        db.insert_named("r", &[Value::Int(1), Value::Int(10)]).unwrap();
        let q = parse(db.schema(), "Q(v) :- r(k, v)").unwrap();
        let ans = consistent_answers_exact(&db, &q, 100).unwrap();
        assert_eq!(ans, vec![(vec![Datum::Int(10)], 1.0)]);
    }

    #[test]
    fn respects_the_limit() {
        let db = example_db();
        let q = parse(db.schema(), "Q(n) :- employee(1, n, d)").unwrap();
        assert!(relative_frequency_exact(&db, &q, &[Datum::Int(0)], 2).is_err());
    }
}
