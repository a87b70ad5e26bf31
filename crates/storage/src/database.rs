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
/// * `filter` is a blocked Bloom filter over the distinct keys: a
///   power-of-two array of `u64` words, at least 16 bits per key, where
///   each key sets two bits of one word, all three picked from its hash;
/// * `keys` holds the distinct projected keys back to back, `cols.len()`
///   datums each, in key-id order;
/// * `slots` is an open-addressing table (linear probing, load ≤ ½) of
///   key ids, `EMPTY` where free;
/// * `offsets`/`rows` are a CSR array: key id `k` owns
///   `rows[offsets[k]..offsets[k + 1]]`.
///
/// For `n` rows and `k` distinct keys over `c` columns that is
/// `16·c·k + 4·n + 4·(k + 1) + 4·slots + 8·words` bytes, with
/// `slots ≤ max(16, 4k)` and `words = slots / 8`: the filter is `2·k`
/// bytes rounded up to a power-of-two count of words, at least two.
/// Building it adds `4·(n + k)` transient bytes.
///
/// A lookup is one hash and one read of a filter word. A key whose two
/// bits are not both set returns empty there, without touching `slots`,
/// `keys`, `offsets` or `rows`. All but about 1% of absent keys stop so,
/// at 2–4 bytes per key that stay in cache where the 8–16 of `slots` miss.
/// A key that passes costs a short probe and a borrowed slice. The index
/// on no columns is a single key owning every row, which is how the join
/// engine scans a relation.
#[derive(Debug)]
pub struct PosIndex {
    cols: Vec<u16>,
    filter: Vec<u64>,
    keys: Vec<Datum>,
    slots: Vec<u32>,
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

const EMPTY: u32 = u32::MAX;

/// Multiplicative hash of a projected key. The slot table takes its high
/// bits; the filter takes its top 12 bits for the two bit positions and
/// the bits below those for the word.
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
    /// (ids in first-seen order, keys appended to `keys` and their bits
    /// set in `filter`) and counts each key's rows; the second scatters
    /// row ids into their key's CSR run in ascending order.
    fn build(table: &Table, cols: &[u16]) -> Self {
        let mut ix = PosIndex {
            cols: cols.to_vec(),
            filter: vec![0; 2],
            keys: Vec::new(),
            slots: vec![EMPTY; 16],
            offsets: Vec::new(),
            rows: Vec::new(),
        };
        let mut key_of = Vec::with_capacity(table.len());
        let mut counts: Vec<u32> = Vec::new();
        for (_, row) in table.iter() {
            let key = cols.iter().map(|&c| row[c as usize]);
            let h = hash_key(key.clone());
            let id = match ix.find(h, key.clone()) {
                Ok(id) => id,
                Err(slot) => {
                    let id = counts.len() as u32;
                    ix.slots[slot] = id;
                    ix.add_to_filter(h);
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

    /// Re-inserts the first `key_count` key ids into `len` empty slots and
    /// a filter of `len / 8` words.
    fn rehash(&mut self, len: usize, key_count: usize) {
        self.slots = vec![EMPTY; len];
        self.filter = vec![0; len / 8];
        for id in 0..key_count as u32 {
            let h = hash_key(self.key(id).iter().copied());
            // Keys are distinct, so each finds an empty slot.
            if let Err(slot) = self.find(h, self.key(id).iter().copied()) {
                self.slots[slot] = id;
            }
            self.add_to_filter(h);
        }
    }

    /// The filter word of hash `h` and the two bits a key sets in it.
    fn filter_bits(&self, h: u64) -> (usize, u64) {
        let word = (h >> (52 - self.filter.len().trailing_zeros())) as usize;
        (word & (self.filter.len() - 1), (1 << (h >> 58)) | (1 << ((h >> 52) & 63)))
    }

    fn add_to_filter(&mut self, h: u64) {
        let (word, bits) = self.filter_bits(h);
        self.filter[word] |= bits;
    }

    /// False when no key of hash `h` is in the index.
    fn may_contain(&self, h: u64) -> bool {
        let (word, bits) = self.filter_bits(h);
        self.filter[word] & bits == bits
    }

    /// The key id of `key` (whose hash is `h`), or the empty slot where it
    /// would go.
    fn find(
        &self,
        h: u64,
        key: impl Iterator<Item = Datum> + Clone,
    ) -> std::result::Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut s = (h >> (64 - self.slots.len().trailing_zeros())) as usize;
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
        let h = hash_key(key.iter().copied());
        if !self.may_contain(h) {
            return &[];
        }
        match self.find(h, key.iter().copied()) {
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
    use crate::value::StrId;
    use std::collections::HashSet;

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
    fn filter_passes_every_present_key_and_few_absent_ones() {
        // 5000 rows: 5000 distinct keys on `[0]` and `[0, 1]`, 1000 on
        // `[1]`. The probes are 20,000 integer and string keys, of which
        // 1000 are present on `[1]` and none on the other two.
        let schema = Schema::builder().relation("r", &[("a", Int), ("b", Int)], None).build();
        let mut db = Database::new(schema);
        for i in 0..5000 {
            db.insert_datums(RelId(0), &[Datum::Int(3 * i), Datum::Int(i % 1000)]);
        }
        let probes: Vec<[Datum; 2]> = (0..10_000)
            .flat_map(|i| {
                [
                    [Datum::Int(3 * i + 1), Datum::Int(i)],
                    [Datum::Str(StrId(i as u32)), Datum::Str(StrId(i as u32))],
                ]
            })
            .collect();
        let table = db.table(RelId(0));
        for cols in [&[0u16][..], &[1], &[0, 1]] {
            let ix = db.index(RelId(0), cols);
            let project =
                |row: &[Datum]| -> Vec<Datum> { cols.iter().map(|&c| row[c as usize]).collect() };
            let passes = |key: &[Datum]| ix.may_contain(hash_key(key.iter().copied()));
            let present: HashSet<Vec<Datum>> = table.iter().map(|(_, row)| project(row)).collect();
            assert!(present.iter().all(|key| passes(key)), "{cols:?}: a present key fails");
            let absent: Vec<Vec<Datum>> =
                probes.iter().map(|p| project(p)).filter(|key| !present.contains(key)).collect();
            let rate = absent.iter().filter(|key| passes(key)).count() as f64 / absent.len() as f64;
            assert!(absent.len() >= 19_000, "{cols:?}: {} absent keys", absent.len());
            assert!(rate <= 0.05, "{cols:?}: {rate:.4} of absent keys pass the filter");
        }
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
