//! Admissible pairs: the integer-encoded `(H, B)` the schemes operate on.
//!
//! Per §5, the approximation schemes are oblivious to the syntactic shape
//! of facts, so a synopsis is encoded with integer identifiers: a block is
//! a local index `0..B` with a size (`kcnt`), and a fact is a
//! `(block, tid)` pair with `tid < kcnt`. An image `H ∈ H` is a sorted set
//! of such pairs, at most one per block (an image is consistent w.r.t. Σ by
//! construction).
//!
//! The key numerical fact exploited throughout: although `|db(B)|` and
//! `|S•|` are astronomically large, the algorithms only ever need
//!
//! * `1/|db(B_{H_i})|` — a product of at most `|Q|` reciprocals of small
//!   block sizes, and
//! * `|S•|/|db(B)| = Σ_i 1/|db(B_{H_i})|`,
//!
//! both exactly representable as `f64`. Log-space [`LogNum`]s are exposed
//! for reporting the raw magnitudes.

use cqa_common::{AliasTable, CqaError, LogNum, Result};

/// One encoded fact of an image: the `tid`-th fact of a local block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ImageAtom {
    /// Local block index (into the pair's block-size table).
    pub block: u32,
    /// Position of the fact within the block (`0 ≤ tid < kcnt`).
    pub tid: u32,
}

/// An admissible pair `(H, B)` (§4.1): a non-empty set of images over a
/// non-empty set of blocks.
///
/// Images are stored deduplicated and in a canonical (lexicographic)
/// order — the paper's "arbitrary ordering `H₁, …, Hₙ`" that the symbolic
/// samplers and the coverage algorithm rely on.
///
/// Layout: the images' atoms are one flat vector in that order; image `i`
/// ends at offset `ends[i]` and starts where image `i − 1` ends. One
/// allocation holds the whole of `H`, and the `u32` offsets bound
/// `Σᵢ |Hᵢ|` below `2³²`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissiblePair {
    atoms: Vec<ImageAtom>,
    ends: Vec<u32>,
    block_sizes: Vec<u32>,
}

impl AdmissiblePair {
    /// Validates and canonicalizes an admissible pair.
    ///
    /// Each image is a list of `(block, tid)` pairs; they are sorted,
    /// checked for per-block uniqueness, deduplicated across images, and
    /// ordered lexicographically.
    pub fn new(images: Vec<Vec<(u32, u32)>>, block_sizes: Vec<u32>) -> Result<Self> {
        if images.is_empty() {
            return Err(CqaError::InvalidSynopsis("H must be non-empty".into()));
        }
        if block_sizes.is_empty() {
            return Err(CqaError::InvalidSynopsis("B must be non-empty".into()));
        }
        if block_sizes.contains(&0) {
            return Err(CqaError::InvalidSynopsis("blocks must be non-empty".into()));
        }
        let mut canon: Vec<Vec<ImageAtom>> = Vec::with_capacity(images.len());
        for img in images {
            if img.is_empty() {
                return Err(CqaError::InvalidSynopsis("images must be non-empty".into()));
            }
            let mut atoms: Vec<ImageAtom> =
                img.into_iter().map(|(block, tid)| ImageAtom { block, tid }).collect();
            atoms.sort_unstable();
            atoms.dedup();
            for w in atoms.windows(2) {
                if w[0].block == w[1].block {
                    return Err(CqaError::InvalidSynopsis(format!(
                        "image uses two facts of block {} (inconsistent w.r.t. Σ)",
                        w[0].block
                    )));
                }
            }
            for a in &atoms {
                let size = *block_sizes.get(a.block as usize).ok_or_else(|| {
                    CqaError::InvalidSynopsis(format!("block {} out of range", a.block))
                })?;
                if a.tid >= size {
                    return Err(CqaError::InvalidSynopsis(format!(
                        "tid {} out of range for block {} of size {size}",
                        a.tid, a.block
                    )));
                }
            }
            canon.push(atoms);
        }
        canon.sort();
        canon.dedup();
        let mut ends = Vec::with_capacity(canon.len());
        let mut atoms = Vec::with_capacity(canon.iter().map(Vec::len).sum());
        for img in canon {
            atoms.extend(img);
            ends.push(
                u32::try_from(atoms.len())
                    .map_err(|_| CqaError::InvalidSynopsis("more than 2^32 image atoms".into()))?,
            );
        }
        Ok(AdmissiblePair { atoms, ends, block_sizes })
    }

    /// Number of images `|H|`.
    #[inline]
    pub fn num_images(&self) -> usize {
        self.ends.len()
    }

    /// Number of blocks `|B|`.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.block_sizes.len()
    }

    /// The `i`-th image (canonical order).
    #[inline]
    pub fn image(&self, i: usize) -> &[ImageAtom] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.atoms[start as usize..self.ends[i] as usize]
    }

    /// All images.
    pub fn images(&self) -> impl Iterator<Item = &[ImageAtom]> {
        (0..self.num_images()).map(|i| self.image(i))
    }

    /// Size (`kcnt`) of a block.
    #[inline]
    pub fn block_size(&self, block: u32) -> u32 {
        self.block_sizes[block as usize]
    }

    /// All block sizes.
    #[inline]
    pub fn block_sizes(&self) -> &[u32] {
        &self.block_sizes
    }

    /// `Σᵢ |Hᵢ|` — the total number of image atoms, a proxy for `||H||`.
    pub fn total_image_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// `|db(B)|` in log space: the product of block sizes.
    pub fn log_db_b(&self) -> LogNum {
        self.block_sizes.iter().map(|&s| LogNum::from_count(s as u64)).product()
    }

    /// `1 / |db(B_{H_i})|`: the probability that a uniform `I ∈ db(B)`
    /// contains image `i`. A product of ≤ `|Q|` reciprocal block sizes, so
    /// exactly representable in `f64`.
    pub fn inv_db_bh(&self, i: usize) -> f64 {
        self.image(i).iter().map(|a| 1.0 / self.block_size(a.block) as f64).product()
    }

    /// `|S•| / |db(B)| = Σᵢ 1/|db(B_{H_i})|` (can exceed 1: the symbolic
    /// space is larger than the natural one whenever images overlap).
    pub fn s_ratio(&self) -> f64 {
        (0..self.num_images()).map(|i| self.inv_db_bh(i)).sum()
    }

    /// The weights `|I^i| ∝ 1/|db(B_{H_i})|` for drawing the image index of
    /// a symbolic sample, prepared as an O(1) alias table.
    pub fn image_alias(&self) -> AliasTable {
        let w: Vec<f64> = (0..self.num_images()).map(|i| self.inv_db_bh(i)).collect();
        AliasTable::new(&w)
    }

    /// True iff image `i` is contained in the database `I ∈ db(B)` encoded
    /// by `chosen`, where `chosen[b]` is the tid kept from block `b`.
    #[inline]
    pub fn image_contained(&self, i: usize, chosen: &[u32]) -> bool {
        self.image(i).iter().all(|a| chosen[a.block as usize] == a.tid)
    }

    /// A lower bound on `R(H,B)` (from the proof of Lemma 4.3):
    /// `R ≥ max_i 1/|db(B_{H_i})|`.
    pub fn ratio_lower_bound(&self) -> f64 {
        (0..self.num_images()).map(|i| self.inv_db_bh(i)).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The synopsis of the paper's Example 1.1 Boolean query: two blocks of
    /// size 2; the query is witnessed by two images (Bob-IT with Alice-IT,
    /// Bob-IT with Tim-IT).
    pub(crate) fn example_pair() -> AdmissiblePair {
        AdmissiblePair::new(vec![vec![(0, 1), (1, 0)], vec![(0, 1), (1, 1)]], vec![2, 2]).unwrap()
    }

    #[test]
    fn construction_and_counts() {
        let p = example_pair();
        assert_eq!(p.num_images(), 2);
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.total_image_atoms(), 4);
        assert!((p.log_db_b().value() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_images_are_merged() {
        let p = AdmissiblePair::new(
            vec![vec![(0, 0)], vec![(0, 0)], vec![(1, 0), (0, 0)], vec![(0, 0), (1, 0)]],
            vec![2, 2],
        )
        .unwrap();
        assert_eq!(p.num_images(), 2);
    }

    #[test]
    fn images_are_canonically_ordered() {
        let a = AdmissiblePair::new(vec![vec![(1, 0)], vec![(0, 0)]], vec![2, 2]).unwrap();
        let b = AdmissiblePair::new(vec![vec![(0, 0)], vec![(1, 0)]], vec![2, 2]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn inconsistent_image_is_rejected() {
        let err = AdmissiblePair::new(vec![vec![(0, 0), (0, 1)]], vec![2]);
        assert!(matches!(err, Err(CqaError::InvalidSynopsis(_))));
    }

    #[test]
    fn out_of_range_tid_is_rejected() {
        assert!(AdmissiblePair::new(vec![vec![(0, 5)]], vec![2]).is_err());
        assert!(AdmissiblePair::new(vec![vec![(3, 0)]], vec![2]).is_err());
    }

    #[test]
    fn empty_components_are_rejected() {
        assert!(AdmissiblePair::new(vec![], vec![2]).is_err());
        assert!(AdmissiblePair::new(vec![vec![(0, 0)]], vec![]).is_err());
        assert!(AdmissiblePair::new(vec![vec![]], vec![2]).is_err());
    }

    #[test]
    fn example_ratios() {
        let p = example_pair();
        // Each image fixes both blocks: 1/db(B_H) = 1/4.
        assert!((p.inv_db_bh(0) - 0.25).abs() < 1e-12);
        // |S•|/|db(B)| = 1/4 + 1/4 = 1/2; |S•| = 2.
        assert!((p.s_ratio() - 0.5).abs() < 1e-12);
        assert!((p.ratio_lower_bound() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn image_containment() {
        let p = example_pair();
        // chosen = [tid of block 0, tid of block 1]
        assert!(p.image_contained(0, &[1, 0]));
        assert!(!p.image_contained(0, &[0, 0]));
        assert!(p.image_contained(1, &[1, 1]));
    }

    #[test]
    fn alias_table_has_one_entry_per_image() {
        let p = example_pair();
        assert_eq!(p.image_alias().len(), 2);
    }

    #[test]
    fn s_ratio_can_exceed_one() {
        // Two single-atom images in a block of size 2, plus a second block:
        // weights 1/2 + 1/2 + ... make the symbolic space comparable to the
        // natural one; with three images it exceeds it.
        let p = AdmissiblePair::new(vec![vec![(0, 0)], vec![(0, 1)], vec![(1, 0)]], vec![2, 2])
            .unwrap();
        assert!(p.s_ratio() > 1.0);
    }
}
