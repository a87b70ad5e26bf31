//! Certain answers (frequency one in every repair) agree with the
//! approximate relative frequencies the schemes estimate.

use cqa::common::Mt64;
use cqa::prelude::*;

#[test]
fn certain_answers_match_frequency_one() {
    // cqa::synopsis::certain on a database with certain and uncertain
    // tuples — checked against the approximate frequencies.
    let schema = Schema::builder()
        .relation("r", &[("k", ColumnType::Int), ("v", ColumnType::Int)], Some(1))
        .build();
    let mut db = Database::new(schema);
    // Key 1 is clean (certain value 10); key 2 conflicted.
    db.insert_named("r", &[Value::Int(1), Value::Int(10)]).unwrap();
    db.insert_named("r", &[Value::Int(2), Value::Int(20)]).unwrap();
    db.insert_named("r", &[Value::Int(2), Value::Int(30)]).unwrap();
    let q = parse(db.schema(), "Q(v) :- r(k, v)").unwrap();
    let certain = cqa::synopsis::certain_answers(&db, &q).unwrap();
    assert_eq!(certain, vec![vec![Datum::Int(10)]]);
    let mut rng = Mt64::new(5);
    let res = apx_cqa(&db, &q, Scheme::Natural, 0.05, 0.1, &Budget::unbounded(), &mut rng).unwrap();
    for te in &res.answers {
        let is_certain = certain.contains(&te.tuple);
        if is_certain {
            assert!(te.frequency > 0.9);
        } else {
            assert!(te.frequency < 0.7);
        }
    }
}
