//! Key-equal blocks.
//!
//! For a relation `R` with `key(R) = {1..m}`, the facts sharing a key value
//! form a *block* (§2); a repair keeps exactly one fact per block. This
//! module computes, for every row, the `(bid, tid, kcnt)` triple that the
//! paper's SQL rewriting produces with
//! `dense_rank() OVER (ORDER BY key)`,
//! `row_number() OVER (PARTITION BY key ORDER BY non-key)`, and
//! `count(*) OVER (PARTITION BY key)` (Appendix C). `tid` is 0-based here.

use crate::table::Table;
use crate::value::Datum;

/// Block metadata for one relation.
#[derive(Debug, Clone)]
pub struct RelationBlocks {
    /// Per row: `(bid, tid)`.
    row_block: Vec<(u32, u32)>,
    /// Per block: its rows, ordered by `tid`.
    blocks: Vec<Vec<u32>>,
}

impl RelationBlocks {
    /// Computes the blocks of `table` under a key of length `key_len`
    /// (`None` = no key constraint = singleton blocks).
    pub fn compute(table: &Table, key_len: Option<usize>) -> Self {
        let n = table.len();
        match key_len {
            None => {
                // Every fact is its own block (keyΣ(α) is the whole tuple).
                let row_block = (0..n as u32).map(|i| (i, 0)).collect();
                let blocks = (0..n as u32).map(|i| vec![i]).collect();
                RelationBlocks { row_block, blocks }
            }
            Some(m) => {
                debug_assert!(m >= 1 && m <= table.arity());
                // Sort row indices by (key, non-key): groups key-equal rows
                // together (dense_rank) and orders within each group by the
                // non-key suffix (row_number ORDER BY non-key).
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_unstable_by(|&a, &b| table.row(a).cmp(table.row(b)));
                let mut row_block = vec![(0u32, 0u32); n];
                let mut blocks: Vec<Vec<u32>> = Vec::new();
                let mut prev_key: Option<&[Datum]> = None;
                for &row in &order {
                    let key = &table.row(row)[..m];
                    let same = prev_key.is_some_and(|p| p == key);
                    if !same {
                        blocks.push(Vec::new());
                        prev_key = Some(key);
                    }
                    let bid = (blocks.len() - 1) as u32;
                    #[expect(
                        clippy::expect_used,
                        reason = "the first iteration always pushes (prev_key is None), so \
                                  `blocks` is non-empty here"
                    )]
                    let block = blocks.last_mut().expect("just pushed");
                    let tid = block.len() as u32;
                    block.push(row);
                    row_block[row as usize] = (bid, tid);
                }
                RelationBlocks { row_block, blocks }
            }
        }
    }

    /// `(bid, tid)` of a row.
    #[inline]
    pub fn of_row(&self, row: u32) -> (u32, u32) {
        self.row_block[row as usize]
    }

    /// The `bid` of a row.
    #[inline]
    pub fn bid(&self, row: u32) -> u32 {
        self.row_block[row as usize].0
    }

    /// Number of blocks.
    #[inline]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The rows of block `bid`, ordered by `tid`.
    #[inline]
    pub fn block_rows(&self, bid: u32) -> &[u32] {
        &self.blocks[bid as usize]
    }

    /// Size (`kcnt`) of block `bid`.
    #[inline]
    pub fn block_size(&self, bid: u32) -> u32 {
        self.blocks[bid as usize].len() as u32
    }

    /// `kcnt` of the block containing `row`.
    #[inline]
    pub fn kcnt(&self, row: u32) -> u32 {
        self.block_size(self.bid(row))
    }

    /// Iterates all blocks as `(bid, rows)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> {
        self.blocks.iter().enumerate().map(|(i, rows)| (i as u32, rows.as_slice()))
    }

    /// Number of non-singleton blocks — the blocks that actually carry
    /// uncertainty; singleton blocks contribute a factor 1 to `|rep(D,Σ)|`.
    pub fn non_singleton_count(&self) -> usize {
        self.blocks.iter().filter(|b| b.len() > 1).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::StrId;

    /// The running example of the paper (Example 1.1): Employee(id,name,dept)
    /// with key {id} and facts (1,Bob,HR) (1,Bob,IT) (2,Alice,IT) (2,Tim,IT).
    fn example_1_1() -> Table {
        let mut t = Table::new(3);
        // Strings interned by hand: Bob=0, HR=1, IT=2, Alice=3, Tim=4.
        let s = |i: u32| Datum::Str(StrId(i));
        t.insert(&[Datum::Int(1), s(0), s(1)]).unwrap();
        t.insert(&[Datum::Int(1), s(0), s(2)]).unwrap();
        t.insert(&[Datum::Int(2), s(3), s(2)]).unwrap();
        t.insert(&[Datum::Int(2), s(4), s(2)]).unwrap();
        t
    }

    #[test]
    fn example_1_1_has_two_blocks_of_two() {
        let t = example_1_1();
        let b = RelationBlocks::compute(&t, Some(1));
        assert_eq!(b.block_count(), 2);
        assert_eq!(b.block_size(0), 2);
        assert_eq!(b.block_size(1), 2);
        assert_eq!(b.non_singleton_count(), 2);
        // Rows 0,1 share key 1; rows 2,3 share key 2.
        assert_eq!(b.bid(0), b.bid(1));
        assert_eq!(b.bid(2), b.bid(3));
        assert_ne!(b.bid(0), b.bid(2));
        // tids are distinct within a block.
        assert_ne!(b.of_row(0).1, b.of_row(1).1);
    }

    #[test]
    fn kcnt_matches_block_size() {
        let t = example_1_1();
        let b = RelationBlocks::compute(&t, Some(1));
        for row in 0..4 {
            assert_eq!(b.kcnt(row), 2);
        }
    }

    #[test]
    fn keyless_relation_has_singleton_blocks() {
        let t = example_1_1();
        let b = RelationBlocks::compute(&t, None);
        assert_eq!(b.block_count(), 4);
        for bid in 0..4 {
            assert_eq!(b.block_size(bid), 1);
        }
        assert_eq!(b.non_singleton_count(), 0);
    }

    #[test]
    fn full_tuple_key_gives_singleton_blocks() {
        // With key = all columns, distinct facts never share a key.
        let t = example_1_1();
        let b = RelationBlocks::compute(&t, Some(3));
        assert_eq!(b.block_count(), 4);
    }

    #[test]
    fn block_rows_are_consistent_with_row_block() {
        let t = example_1_1();
        let b = RelationBlocks::compute(&t, Some(1));
        for (bid, rows) in b.iter() {
            for (tid, &row) in rows.iter().enumerate() {
                assert_eq!(b.of_row(row), (bid, tid as u32));
            }
        }
    }

    #[test]
    fn composite_key_groups_by_prefix() {
        let mut t = Table::new(3);
        t.insert(&[Datum::Int(1), Datum::Int(1), Datum::Int(10)]);
        t.insert(&[Datum::Int(1), Datum::Int(1), Datum::Int(20)]);
        t.insert(&[Datum::Int(1), Datum::Int(2), Datum::Int(30)]);
        let b = RelationBlocks::compute(&t, Some(2));
        assert_eq!(b.block_count(), 2);
        assert_eq!(b.block_size(b.bid(0)), 2);
        assert_eq!(b.block_size(b.bid(2)), 1);
    }

    #[test]
    fn empty_table_has_no_blocks() {
        let t = Table::new(2);
        let b = RelationBlocks::compute(&t, Some(1));
        assert_eq!(b.block_count(), 0);
    }
}
