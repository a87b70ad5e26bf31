//! Property tests: the flat [`PosIndex`] answers every lookup exactly like a
//! reference `HashMap<Vec<Datum>, Vec<u32>>` index and like a filter over
//! the table, and its Bloom filter never drops a present key.
//!
//! Rows are inserted as raw datums, so one column mixes `Datum::Int(n)` and
//! `Datum::Str(StrId(n))` with the same payloads: a lookup must never
//! return the rows of the other variant.

use cqa_storage::{ColumnType, Database, Datum, RelId, Schema, StrId};
use proptest::prelude::*;
use std::collections::HashMap;

/// Column lists to index: none (the scan index), single columns, and
/// multi-column keys in and out of position order.
const COLUMN_SETS: &[&[u16]] =
    &[&[], &[0], &[1], &[2], &[0, 1], &[2, 0], &[1, 2], &[0, 1, 2], &[2, 1, 0]];

/// Even codes are integers, odd codes strings, with colliding payloads.
fn datum(code: i64) -> Datum {
    if code % 2 == 0 {
        Datum::Int(code / 2)
    } else {
        Datum::Str(StrId((code / 2) as u32))
    }
}

fn database(rows: &[Vec<i64>]) -> Database {
    let schema = Schema::builder()
        .relation(
            "r",
            &[("a", ColumnType::Int), ("b", ColumnType::Int), ("c", ColumnType::Int)],
            None,
        )
        .build();
    let mut db = Database::new(schema);
    for row in rows {
        let datums: Vec<Datum> = row.iter().map(|&c| datum(c)).collect();
        db.insert_datums(RelId(0), &datums);
    }
    db
}

/// Every key of `width` datums over the codes `0..10`, present or not.
fn all_keys(width: usize) -> Vec<Vec<Datum>> {
    (0..width).fold(vec![Vec::new()], |keys, _| {
        keys.iter()
            .flat_map(|k| {
                (0..10).map(move |c| {
                    let mut k = k.clone();
                    k.push(datum(c));
                    k
                })
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_agrees_with_reference_map_and_table_filter(
        rows in prop::collection::vec(prop::collection::vec(0i64..8, 3), 0..120),
        which in 0usize..9,
    ) {
        let cols = COLUMN_SETS[which];
        let db = database(&rows);
        let table = db.table(RelId(0));
        let project = |r: u32| -> Vec<Datum> {
            cols.iter().map(|&c| table.row(r)[c as usize]).collect()
        };
        let mut reference: HashMap<Vec<Datum>, Vec<u32>> = HashMap::new();
        for r in 0..table.len() as u32 {
            reference.entry(project(r)).or_default().push(r);
        }

        let ix = db.index(RelId(0), cols);
        prop_assert_eq!(ix.columns(), cols);
        prop_assert_eq!(ix.distinct_keys(), reference.len());
        // Codes 8 and 9 never occur in a row, so absent keys of both
        // variants are probed along with the present ones.
        for key in all_keys(cols.len()) {
            let got = ix.get(&key);
            let filtered: Vec<u32> =
                (0..table.len() as u32).filter(|&r| project(r) == key).collect();
            prop_assert_eq!(got, filtered.as_slice());
            prop_assert_eq!(got, reference.get(&key).map_or(&[][..], |v| v.as_slice()));
            prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "rows must ascend");
        }
    }

    /// Wide values give hundreds of distinct keys, so the index's filter
    /// spans many words, and random probes are mostly absent keys.
    #[test]
    fn filtered_lookups_agree_with_a_table_scan(
        rows in prop::collection::vec(prop::collection::vec(0i64..4000, 3), 0..400),
        probes in prop::collection::vec(prop::collection::vec(0i64..4000, 3), 64),
        which in 0usize..9,
    ) {
        let cols = COLUMN_SETS[which];
        let db = database(&rows);
        let table = db.table(RelId(0));
        let project = |row: &[Datum]| -> Vec<Datum> {
            cols.iter().map(|&c| row[c as usize]).collect()
        };
        let ix = db.index(RelId(0), cols);
        let probes = probes.iter().map(|p| p.iter().map(|&c| datum(c)).collect::<Vec<_>>());
        let present = (0..table.len() as u32).map(|r| table.row(r).to_vec());
        for key in probes.chain(present).map(|row| project(&row)) {
            let scanned: Vec<u32> =
                (0..table.len() as u32).filter(|&r| project(table.row(r)) == key).collect();
            prop_assert_eq!(ix.get(&key), scanned.as_slice());
        }
    }
}

#[test]
fn int_and_string_with_equal_payloads_never_alias() {
    let db = database(&[vec![2, 0, 0], vec![3, 0, 0], vec![2, 1, 1]]);
    let ix = db.index(RelId(0), &[0]);
    assert_eq!(ix.get(&[Datum::Int(1)]), &[0, 2]);
    assert_eq!(ix.get(&[Datum::Str(StrId(1))]), &[1]);
    assert_eq!(ix.get(&[Datum::Int(0)]), &[] as &[u32]);
    assert_eq!(ix.get(&[Datum::Str(StrId(0))]), &[] as &[u32]);
}

#[test]
fn empty_table_index_has_no_keys() {
    let db = database(&[]);
    for cols in COLUMN_SETS {
        let ix = db.index(RelId(0), cols);
        assert_eq!(ix.distinct_keys(), 0);
        assert!(ix.get(&vec![Datum::Int(0); cols.len()]).is_empty());
    }
}
