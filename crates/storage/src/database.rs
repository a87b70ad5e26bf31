//! The database type: schema + interner + tables + lazy caches.
//!
//! Caches (block metadata and hash indices) are built on demand behind a
//! `parking_lot::RwLock` so query evaluation works on `&Database`, and are
//! invalidated wholesale on mutation (the noise generator is the only
//! mutating consumer after initial load, and it mutates in one burst).

use crate::block::RelationBlocks;
use crate::interner::Interner;
use crate::schema::{ColumnType, RelId, Schema};
use crate::table::Table;
use crate::value::{Datum, Value};
use cqa_common::{CqaError, LogNum, Result};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// A global reference to a fact: relation + row index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactRef {
    /// Relation of the fact.
    pub rel: RelId,
    /// Row index within the relation's table.
    pub row: u32,
}

/// A hash index over a set of column positions of one relation:
/// projected key → matching row indices, ascending.
///
/// The layout is flat, with no heap object per key:
///
/// * `keys` holds the distinct projected keys back to back, `cols.len()`
///   datums each, in key-id order;
/// * `slots` is an open-addressing table (linear probing, load ≤ ½) of
///   key ids, `EMPTY` where free;
/// * `offsets`/`rows` are a CSR array: key id `k` owns
///   `rows[offsets[k]..offsets[k + 1]]`.
///
/// For `n` rows and `k` distinct keys over `c` columns that is
/// `16·c·k + 4·n + 4·(k + 1) + 4·slots` bytes, with `slots ≤ max(16, 4k)`;
/// building it adds `4·(n + k)` transient bytes. A lookup is one hash, a
/// short probe and a borrowed slice. The index on no columns is a single
/// key owning every row, which is how the join engine scans a relation.
#[derive(Debug)]
pub struct PosIndex {
    cols: Vec<u16>,
    keys: Vec<Datum>,
    slots: Vec<u32>,
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

const EMPTY: u32 = u32::MAX;

/// Multiplicative hash of a projected key; the table takes its high bits.
fn hash_key(key: impl Iterator<Item = Datum>) -> u64 {
    key.fold(0u64, |h, d| {
        let x = match d {
            Datum::Int(i) => i as u64,
            Datum::Str(s) => u64::from(s.0) ^ 0x5bd1_e995_0000_0000,
        };
        (h.rotate_left(26) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    })
}

impl PosIndex {
    /// Two passes over the table: the first gives every row its key id
    /// (ids in first-seen order, keys appended to `keys`) and counts each
    /// key's rows; the second scatters row ids into their key's CSR run in
    /// ascending order.
    fn build(table: &Table, cols: &[u16]) -> Self {
        let mut ix = PosIndex {
            cols: cols.to_vec(),
            keys: Vec::new(),
            slots: vec![EMPTY; 16],
            offsets: Vec::new(),
            rows: Vec::new(),
        };
        let mut key_of = Vec::with_capacity(table.len());
        let mut counts: Vec<u32> = Vec::new();
        for (_, row) in table.iter() {
            let key = cols.iter().map(|&c| row[c as usize]);
            let id = match ix.find(key.clone()) {
                Ok(id) => id,
                Err(slot) => {
                    let id = counts.len() as u32;
                    ix.slots[slot] = id;
                    ix.keys.extend(key);
                    counts.push(0);
                    if 2 * counts.len() > ix.slots.len() {
                        ix.rehash(2 * ix.slots.len(), counts.len());
                    }
                    id
                }
            };
            counts[id as usize] += 1;
            key_of.push(id);
        }
        ix.keys.shrink_to_fit();
        ix.offsets.reserve_exact(counts.len() + 1);
        ix.offsets.push(0);
        let mut end = 0;
        for c in &mut counts {
            // `counts` becomes each key's next free position in `rows`.
            (*c, end) = (end, end + *c);
            ix.offsets.push(end);
        }
        ix.rows = vec![0; key_of.len()];
        for (row, &id) in key_of.iter().enumerate() {
            ix.rows[counts[id as usize] as usize] = row as u32;
            counts[id as usize] += 1;
        }
        ix
    }

    /// Re-inserts the first `key_count` key ids into `len` empty slots.
    fn rehash(&mut self, len: usize, key_count: usize) {
        self.slots = vec![EMPTY; len];
        for id in 0..key_count as u32 {
            // Keys are distinct, so each finds an empty slot.
            if let Err(slot) = self.find(self.key(id).iter().copied()) {
                self.slots[slot] = id;
            }
        }
    }

    /// The key id of `key`, or the empty slot where it would go.
    fn find(&self, key: impl Iterator<Item = Datum> + Clone) -> std::result::Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut s = (hash_key(key.clone()) >> shift) as usize;
        loop {
            match self.slots[s] {
                EMPTY => return Err(s),
                id if self.key(id).iter().copied().eq(key.clone()) => return Ok(id),
                _ => s = (s + 1) & mask,
            }
        }
    }

    fn key(&self, id: u32) -> &[Datum] {
        let w = self.cols.len();
        &self.keys[id as usize * w..(id as usize + 1) * w]
    }

    /// Rows whose projection on the indexed columns equals `key`, in
    /// ascending row order.
    pub fn get(&self, key: &[Datum]) -> &[u32] {
        debug_assert_eq!(key.len(), self.cols.len());
        match self.find(key.iter().copied()) {
            Ok(id) => {
                let k = id as usize;
                &self.rows[self.offsets[k] as usize..self.offsets[k + 1] as usize]
            }
            Err(_) => &[],
        }
    }

    /// The indexed column positions.
    pub fn columns(&self) -> &[u16] {
        &self.cols
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.offsets.len() - 1
    }
}

#[derive(Default)]
struct Caches {
    blocks: HashMap<RelId, Arc<RelationBlocks>>,
    indices: HashMap<(RelId, Vec<u16>), Arc<PosIndex>>,
}

/// An in-memory relational database over a fixed schema.
pub struct Database {
    schema: Arc<Schema>,
    interner: Interner,
    tables: Vec<Table>,
    caches: RwLock<Caches>,
}

impl Clone for Database {
    fn clone(&self) -> Self {
        Database {
            schema: Arc::clone(&self.schema),
            interner: self.interner.clone(),
            tables: self.tables.clone(),
            caches: RwLock::new(Caches::default()),
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("relations", &self.schema.len())
            .field("facts", &self.fact_count())
            .finish_non_exhaustive()
    }
}

impl Database {
    /// An empty database over `schema`.
    pub fn new(schema: Schema) -> Self {
        let tables = schema.relations().iter().map(|r| Table::new(r.arity())).collect();
        Database {
            schema: Arc::new(schema),
            interner: Interner::new(),
            tables,
            caches: RwLock::new(Caches::default()),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The string dictionary.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The table of a relation.
    pub fn table(&self, rel: RelId) -> &Table {
        &self.tables[rel.idx()]
    }

    /// Total number of facts across all relations.
    pub fn fact_count(&self) -> usize {
        self.tables.iter().map(Table::len).sum()
    }

    /// The row of a fact.
    pub fn fact(&self, f: FactRef) -> &[Datum] {
        self.table(f.rel).row(f.row)
    }

    fn invalidate(&mut self) {
        self.caches.get_mut().blocks.clear();
        self.caches.get_mut().indices.clear();
    }

    /// Interns a value into its datum form (interning strings as needed).
    pub fn intern_value(&mut self, v: &Value) -> Datum {
        match v {
            Value::Int(i) => Datum::Int(*i),
            Value::Str(s) => Datum::Str(self.interner.intern(s)),
        }
    }

    /// Resolves a datum of this database back into a value.
    pub fn resolve(&self, d: Datum) -> Value {
        match d {
            Datum::Int(i) => Value::Int(i),
            Datum::Str(id) => Value::Str(self.interner.resolve(id).to_owned()),
        }
    }

    /// Looks up the datum form of a value without interning; `None` when
    /// the value cannot occur in this database (unknown string).
    pub fn lookup_value(&self, v: &Value) -> Option<Datum> {
        match v {
            Value::Int(i) => Some(Datum::Int(*i)),
            Value::Str(s) => self.interner.get(s).map(Datum::Str),
        }
    }

    /// Type-checks and inserts a fact given as values. Returns `true` when
    /// the fact is new (set semantics).
    pub fn insert(&mut self, rel: RelId, values: &[Value]) -> Result<bool> {
        let def = self.schema.relation(rel);
        if values.len() != def.arity() {
            return Err(CqaError::ArityMismatch {
                relation: def.name.clone(),
                expected: def.arity(),
                got: values.len(),
            });
        }
        for (i, (v, c)) in values.iter().zip(&def.columns).enumerate() {
            let ok = matches!(
                (v, c.ty),
                (Value::Int(_), ColumnType::Int) | (Value::Str(_), ColumnType::Str)
            );
            if !ok {
                return Err(CqaError::TypeMismatch {
                    relation: def.name.clone(),
                    column: def.columns[i].name.clone(),
                    detail: format!("value {v} does not match column type {:?}", c.ty),
                });
            }
        }
        let row: Vec<Datum> = values.iter().map(|v| self.intern_value(v)).collect();
        Ok(self.insert_datums(rel, &row))
    }

    /// Inserts a fact by name: `db.insert_named("employee", &[...])`.
    pub fn insert_named(&mut self, rel: &str, values: &[Value]) -> Result<bool> {
        let id = self.schema.require(rel)?;
        self.insert(id, values)
    }

    /// Inserts a pre-encoded row (datums must come from this database's
    /// interner). Returns `true` when the fact is new.
    pub fn insert_datums(&mut self, rel: RelId, row: &[Datum]) -> bool {
        let inserted = self.tables[rel.idx()].insert(row).is_some();
        if inserted {
            self.invalidate();
        }
        inserted
    }

    /// Block metadata for a relation (cached).
    pub fn blocks(&self, rel: RelId) -> Arc<RelationBlocks> {
        if let Some(b) = self.caches.read().blocks.get(&rel) {
            return Arc::clone(b);
        }
        let key_len = self.schema.relation(rel).key_len;
        let built = Arc::new(RelationBlocks::compute(self.table(rel), key_len));
        let mut w = self.caches.write();
        Arc::clone(w.blocks.entry(rel).or_insert(built))
    }

    /// A hash index on the given column positions of a relation (cached).
    pub fn index(&self, rel: RelId, cols: &[u16]) -> Arc<PosIndex> {
        let key = (rel, cols.to_vec());
        if let Some(ix) = self.caches.read().indices.get(&key) {
            return Arc::clone(ix);
        }
        let built = Arc::new(PosIndex::build(self.table(rel), cols));
        let mut w = self.caches.write();
        Arc::clone(w.indices.entry(key).or_insert(built))
    }

    /// `|rep(D, Σ)|` in log space: the product of all block sizes (§2).
    pub fn repair_count(&self) -> LogNum {
        let mut total = LogNum::ONE;
        for (rel, _) in self.schema.iter() {
            let blocks = self.blocks(rel);
            for (_, rows) in blocks.iter() {
                total = total * LogNum::from_count(rows.len() as u64);
            }
        }
        total
    }

    /// Pretty-prints a tuple of datums.
    pub fn fmt_tuple(&self, t: &[Datum]) -> String {
        let vals: Vec<String> = t.iter().map(|&d| self.resolve(d).to_string()).collect();
        format!("({})", vals.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType::*;

    fn employee_db() -> Database {
        let schema = Schema::builder()
            .relation("employee", &[("id", Int), ("name", Str), ("dept", Str)], Some(1))
            .build();
        let mut db = Database::new(schema);
        let e = db.schema().rel_id("employee").unwrap();
        for (id, name, dept) in
            [(1, "Bob", "HR"), (1, "Bob", "IT"), (2, "Alice", "IT"), (2, "Tim", "IT")]
        {
            db.insert(e, &[Value::Int(id), Value::str(name), Value::str(dept)]).unwrap();
        }
        db
    }

    #[test]
    fn insert_and_count() {
        let db = employee_db();
        assert_eq!(db.fact_count(), 4);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut db = employee_db();
        let e = db.schema().rel_id("employee").unwrap();
        let added = db.insert(e, &[Value::Int(1), Value::str("Bob"), Value::str("HR")]).unwrap();
        assert!(!added);
        assert_eq!(db.fact_count(), 4);
    }

    #[test]
    fn type_errors_are_reported() {
        let mut db = employee_db();
        let e = db.schema().rel_id("employee").unwrap();
        let err = db.insert(e, &[Value::str("one"), Value::str("Bob"), Value::str("HR")]);
        assert!(matches!(err, Err(CqaError::TypeMismatch { .. })));
        let err = db.insert(e, &[Value::Int(1)]);
        assert!(matches!(err, Err(CqaError::ArityMismatch { .. })));
    }

    #[test]
    fn example_1_1_repair_count_is_four() {
        // 2 blocks of size 2 → 4 repairs, as in the paper's Example 1.1.
        let db = employee_db();
        assert!((db.repair_count().value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn blocks_are_cached_and_invalidated() {
        let mut db = employee_db();
        let e = db.schema().rel_id("employee").unwrap();
        let b1 = db.blocks(e);
        let b2 = db.blocks(e);
        assert!(Arc::ptr_eq(&b1, &b2));
        db.insert(e, &[Value::Int(3), Value::str("Zoe"), Value::str("HR")]).unwrap();
        let b3 = db.blocks(e);
        assert!(!Arc::ptr_eq(&b1, &b3));
        assert_eq!(b3.block_count(), 3);
    }

    #[test]
    fn index_lookup_finds_matching_rows() {
        let db = employee_db();
        let e = db.schema().rel_id("employee").unwrap();
        let it = db.lookup_value(&Value::str("IT")).unwrap();
        let ix = db.index(e, &[2]);
        assert_eq!(ix.get(&[it]).len(), 3);
        let hr = db.lookup_value(&Value::str("HR")).unwrap();
        assert_eq!(ix.get(&[hr]).len(), 1);
    }

    #[test]
    fn lookup_value_misses_unknown_strings() {
        let db = employee_db();
        assert!(db.lookup_value(&Value::str("Payroll")).is_none());
        assert!(db.lookup_value(&Value::Int(999)).is_some());
    }

    #[test]
    fn resolve_roundtrips() {
        let mut db = employee_db();
        let v = Value::str("R&D");
        let d = db.intern_value(&v);
        assert_eq!(db.resolve(d), v);
    }

    #[test]
    fn clone_is_deep_for_tables() {
        let db = employee_db();
        let mut db2 = db.clone();
        let e = db2.schema().rel_id("employee").unwrap();
        db2.insert(e, &[Value::Int(9), Value::str("New"), Value::str("HR")]).unwrap();
        assert_eq!(db.fact_count(), 4);
        assert_eq!(db2.fact_count(), 5);
    }
}
