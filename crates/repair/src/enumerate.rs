//! Enumeration of all repairs (small instances only).

use cqa_common::{CqaError, Result};
use cqa_storage::{Database, FactRef, RelId};

/// All blocks of a database as `(relation, rows)` pairs, in a fixed order.
pub(crate) fn all_blocks(db: &Database) -> Vec<(RelId, Vec<u32>)> {
    let mut out = Vec::new();
    for (rel, _) in db.schema().iter() {
        let blocks = db.blocks(rel);
        for (_, rows) in blocks.iter() {
            out.push((rel, rows.to_vec()));
        }
    }
    out
}

/// The exact repair count if it fits in `u128`.
pub fn repair_count_checked(db: &Database) -> Option<u128> {
    let mut total: u128 = 1;
    for (_, rows) in all_blocks(db) {
        total = total.checked_mul(rows.len() as u128)?;
    }
    Some(total)
}

/// Iterates every repair of a database as a set of facts (one per block).
///
/// The iteration order is the odometer order over blocks; each item is the
/// chosen facts in block order.
pub struct RepairIter {
    blocks: Vec<(RelId, Vec<u32>)>,
    /// Current choice per block; `None` once exhausted.
    counters: Option<Vec<usize>>,
    started: bool,
}

impl RepairIter {
    /// Creates an iterator, refusing instances with more than `limit`
    /// repairs.
    pub fn new(db: &Database, limit: u128) -> Result<Self> {
        let count = repair_count_checked(db)
            .ok_or_else(|| CqaError::TooLarge("repair count exceeds u128".into()))?;
        if count > limit {
            return Err(CqaError::TooLarge(format!("{count} repairs exceeds limit {limit}")));
        }
        let blocks = all_blocks(db);
        let counters = if blocks.iter().any(|(_, rows)| rows.is_empty()) {
            None // an empty block means no repairs (cannot happen for real data)
        } else {
            Some(vec![0; blocks.len()])
        };
        Ok(RepairIter { blocks, counters, started: false })
    }

    fn current(&self) -> Option<Vec<FactRef>> {
        let counters = self.counters.as_ref()?;
        Some(
            self.blocks
                .iter()
                .zip(counters)
                .map(|((rel, rows), &c)| FactRef { rel: *rel, row: rows[c] })
                .collect(),
        )
    }

    fn advance(&mut self) {
        let Some(counters) = self.counters.as_mut() else { return };
        for (c, (_, rows)) in counters.iter_mut().zip(&self.blocks) {
            *c += 1;
            if *c < rows.len() {
                return;
            }
            *c = 0;
        }
        self.counters = None;
    }
}

impl Iterator for RepairIter {
    type Item = Vec<FactRef>;

    fn next(&mut self) -> Option<Vec<FactRef>> {
        if self.started {
            self.advance();
        } else {
            self.started = true;
            // The empty database has exactly one repair: the empty one.
        }
        self.current()
    }
}

/// Materializes a repair as a standalone consistent [`Database`] over the
/// same schema (sharing the string dictionary contents by re-insertion).
pub fn repair_to_database(db: &Database, repair: &[FactRef]) -> Database {
    let mut out = Database::new(db.schema().clone());
    for &f in repair {
        let values: Vec<_> = db.fact(f).iter().map(|&d| db.resolve(d)).collect();
        #[expect(
            clippy::expect_used,
            reason = "a repair's facts come from `db`, which has the same schema"
        )]
        out.insert(f.rel, &values).expect("repair facts are schema-valid");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_storage::ColumnType::*;
    use cqa_storage::{is_consistent, Schema, Value};

    /// The paper's Example 1.1: two blocks of two facts → four repairs.
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
    fn example_1_1_has_four_repairs() {
        let db = example_db();
        assert_eq!(repair_count_checked(&db), Some(4));
        let repairs: Vec<_> = RepairIter::new(&db, 1000).unwrap().collect();
        assert_eq!(repairs.len(), 4);
        // All repairs are distinct.
        let mut sorted: Vec<Vec<FactRef>> = repairs
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.sort();
                r
            })
            .collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn every_repair_is_consistent_and_maximal() {
        let db = example_db();
        for repair in RepairIter::new(&db, 1000).unwrap() {
            // One fact per block: 2 facts in this instance.
            assert_eq!(repair.len(), 2);
            let rdb = repair_to_database(&db, &repair);
            assert!(is_consistent(&rdb));
            assert_eq!(rdb.fact_count(), 2);
        }
    }

    #[test]
    fn consistent_database_has_one_repair_itself() {
        let schema = Schema::builder().relation("r", &[("k", Int), ("v", Int)], Some(1)).build();
        let mut db = Database::new(schema);
        db.insert_named("r", &[Value::Int(1), Value::Int(10)]).unwrap();
        db.insert_named("r", &[Value::Int(2), Value::Int(20)]).unwrap();
        assert_eq!(repair_count_checked(&db), Some(1));
        let repairs: Vec<_> = RepairIter::new(&db, 10).unwrap().collect();
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0].len(), 2);
    }

    #[test]
    fn limit_is_enforced() {
        let db = example_db();
        assert!(matches!(RepairIter::new(&db, 3), Err(CqaError::TooLarge(_))));
    }

    #[test]
    fn empty_database_has_the_empty_repair() {
        let schema = Schema::builder().relation("r", &[("k", Int)], Some(1)).build();
        let db = Database::new(schema);
        let repairs: Vec<_> = RepairIter::new(&db, 10).unwrap().collect();
        assert_eq!(repairs, vec![Vec::<FactRef>::new()]);
    }

    #[test]
    fn repair_count_matches_log_space_count() {
        let db = example_db();
        let exact = repair_count_checked(&db).unwrap() as f64;
        assert!((db.repair_count().value() - exact).abs() < 1e-9);
    }
}
