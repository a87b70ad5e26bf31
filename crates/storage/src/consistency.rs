//! Consistency checking w.r.t. a set of primary keys.
//!
//! `D |= Σ` iff no block has more than one fact (§2). The noise generator
//! relies on these helpers to verify its pre/post-conditions.

use crate::database::{Database, FactRef};
use crate::schema::RelId;

/// A primary-key violation: a block with more than one fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The relation whose key is violated.
    pub rel: RelId,
    /// The conflicting facts (all members of one block), ≥ 2 of them.
    pub facts: Vec<FactRef>,
}

/// True iff the database satisfies every primary key.
pub fn is_consistent(db: &Database) -> bool {
    db.schema()
        .iter()
        .all(|(rel, def)| def.key_len.is_none() || db.blocks(rel).non_singleton_count() == 0)
}

/// All violations, one per conflicting block.
pub fn violations(db: &Database) -> Vec<Violation> {
    let mut out = Vec::new();
    for (rel, def) in db.schema().iter() {
        if def.key_len.is_none() {
            continue;
        }
        let blocks = db.blocks(rel);
        for (_, rows) in blocks.iter() {
            if rows.len() > 1 {
                out.push(Violation {
                    rel,
                    facts: rows.iter().map(|&row| FactRef { rel, row }).collect(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType::*, Schema};
    use crate::value::Value;

    fn db_with(rows: &[(i64, &str)]) -> Database {
        let schema = Schema::builder().relation("r", &[("k", Int), ("v", Str)], Some(1)).build();
        let mut db = Database::new(schema);
        let r = db.schema().rel_id("r").unwrap();
        for &(k, v) in rows {
            db.insert(r, &[Value::Int(k), Value::str(v)]).unwrap();
        }
        db
    }

    #[test]
    fn consistent_database_has_no_violations() {
        let db = db_with(&[(1, "a"), (2, "b"), (3, "c")]);
        assert!(is_consistent(&db));
        assert!(violations(&db).is_empty());
    }

    #[test]
    fn conflicting_block_is_detected() {
        let db = db_with(&[(1, "a"), (1, "b"), (2, "c")]);
        assert!(!is_consistent(&db));
        let v = violations(&db);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].facts.len(), 2);
    }

    #[test]
    fn keyless_relations_are_always_consistent() {
        let schema = Schema::builder().relation("r", &[("a", Int)], None).build();
        let mut db = Database::new(schema);
        let r = db.schema().rel_id("r").unwrap();
        db.insert(r, &[Value::Int(1)]).unwrap();
        db.insert(r, &[Value::Int(1)]).unwrap(); // duplicate: set semantics
        db.insert(r, &[Value::Int(2)]).unwrap();
        assert!(is_consistent(&db));
    }

    #[test]
    fn empty_database_is_consistent() {
        let db = db_with(&[]);
        assert!(is_consistent(&db));
    }
}
