//! Samplers 1–3: the randomized procedures the Monte-Carlo estimators are
//! parameterized with (§4.2), and the [`SamplingKernel`] all four schemes
//! sample through.
//!
//! Every sampler takes an admissible pair `(H, B)` and outputs a number in
//! `[0, 1]`; a sampler is *r-good* when `E[Sample] = R(H, B) · r` and the
//! expectation is polynomially bounded away from zero. The three samplers:
//!
//! * [`NaturalSampler`] draws `I ∈ db(B)` uniformly and reports whether
//!   some image is contained — 1-good (Lemma 4.3).
//! * [`KlSampler`] draws `(i, I)` from the symbolic space `S•` and reports
//!   whether no earlier image is contained — `|db(B)|/|S•|`-good
//!   (Lemma 4.5, Karp–Luby).
//! * [`KlmSampler`] draws the same way and reports `1/k` where `k` is the
//!   number of contained images — same goodness, lower variance but every
//!   sample counts all contained images (Lemma 4.7, Karp–Luby–Madras).
//!
//! Sampling `(i, I)` uniformly from `S•` uses the factorization
//! `Pr[i] = |I^i|/|S•| ∝ 1/|db(B_{H_i})|` (an O(1) alias-table draw)
//! followed by a uniform draw of the unforced blocks.
//!
//! # The sampling kernel
//!
//! The schemes differ only in their inner loop: draw a database, then ask
//! whether any image, any image earlier than `i`, or how many images are
//! contained in it (Cover asks about one uniformly probed image). A
//! [`SamplingKernel`] is the pair compiled for exactly these questions,
//! built once per scheme run:
//!
//! * **Lane draws.** Only blocks with more than one fact are drawn. Each
//!   takes its tid from a 16-bit *lane* of an MT19937-64 output, so one
//!   output serves four blocks. A lane `r` is turned into a tid of a block
//!   of `n` facts by Lemire's multiply-and-reject (arXiv 1805.10941): with
//!   `t = 2¹⁶ mod n` prepared when the kernel is built, `r` is accepted
//!   iff `(r·n) mod 2¹⁶ ≥ t`, and then the tid is `(r·n) >> 16`. Each tid
//!   is accepted for exactly `⌊2¹⁶/n⌋` lane values, so every draw is
//!   exactly uniform; a rejected lane is followed by the next one. A block
//!   of more than 256 facts takes as many lanes at once as keep its
//!   rejection probability below 2⁻⁸ (two up to 2²⁴ facts, three above),
//!   through the same routine. Lanes are taken from the top of each
//!   output, and the lanes an output has left when the database is
//!   complete are dropped.
//! * **Dropped atoms.** A one-fact block always keeps fact 0, so an atom
//!   on it holds in every database and is dropped from its image; an
//!   image left with no atoms is contained in every database.
//! * **Flat images.** The remaining atoms of all images sit in one vector
//!   in canonical order. [`SamplingKernel::force`] and Cover's
//!   single-image test, [`SamplingKernel::contained`], read one image's
//!   slice.
//! * **Bit masks.** The questions about many images are answered 64
//!   images at a time. Images `64w..64w + 64` form word `w`. For each
//!   block that word's images touch, the kernel keeps, per tid, the mask
//!   of the word's images that agree with that tid: those with that atom
//!   on the block and those with no atom on it. The word's images that a
//!   database contains are the AND of one mask per touched block, read at
//!   the block's drawn tid, so a question reads no more masks than a scan
//!   of the images reads atoms. The masks of a (word, block) start at the
//!   smallest tid the word mentions on it, and a tid outside them reads
//!   one more mask, of the word's images without an atom on the block.
//!   Where the mentioned tids spread out, a (word, block) is cut into
//!   several such *runs*, each with at least half of its tids mentioned,
//!   so the kernel keeps at most three masks per atom however large the
//!   blocks are. A word whose images have no atoms left keeps one run of
//!   one mask, of them all. A build sorts each word's atoms by
//!   (block, tid) in one scratch vector and cuts them into runs; it keeps
//!   no map per word.
//!
//! Filing images under a pivot fact, so that a query visits only the
//! images whose pivot was drawn, was built and measured before the masks:
//! on perfbench's offline-grid it was no faster than a flat scan of the
//! images' atoms. The masks still visit every (word, touched block), but
//! one read tests up to 64 images.
//!
//! **The random stream.** A database costs one generator output per four
//! multi-fact blocks of at most 256 facts, instead of one per block.
//! Estimates therefore differ from a draw per block with
//! [`Mt64::below_with`], but they are a deterministic function of the
//! seed, and the offline driver, the server and every thread count sample
//! through this one kernel, so they agree bit for bit. The alias table's
//! draws (a column through `below_with`, a coin through
//! [`Mt64::next_f64`]) and Cover's probe (through `below_with`) are as
//! before. The masks consume nothing: they answer exactly what a scan of
//! the images answers.
//!
//! **Measured** on a 2-core 2.0 GHz Xeon VM, against one output per block
//! through `below_with` and a scan of every image's atoms. A Natural
//! sample of a one-image pair over four multi-fact blocks took 16 ns
//! against 24 ns (its draw 10 ns against 16 ns); over one or two blocks
//! it took the same 11–13 ns as before. A 200-image pair over 100 blocks
//! drew a database in 0.24 µs against 0.41 µs, and drew and counted its
//! contained images in 0.45 µs against 0.98 µs. Building the kernel of a
//! one-image, four-block pair takes about 150 ns against 100 ns, and of
//! the 200-image pair 7.8 µs against 2.3 µs. perfbench's offline-grid ran
//! 1.44× the scheme runs per second, in the median of 10 alternating
//! pairs.
//!
//! # One loop per phase
//!
//! Everything a sample runs is `#[inline(always)]`: [`Sampler::sample`],
//! the kernel's draws and containment tests, [`SymbolicDraw::draw`], the
//! alias draw and [`Mt64::next_u64`], and the estimators' per-sample budget
//! check. Each phase of the estimators (the stopping rule, the variance
//! pairs, the final loop and Cover's probe loop) therefore compiles to one
//! monomorphized loop. Its only calls are the generator's refill, once per
//! 312 outputs, and the deadline's clock read, once per 4096 samples.

use cqa_common::{AliasTable, Mt64};
use cqa_synopsis::{AdmissiblePair, ImageAtom};

/// A randomized procedure producing values in `[0, 1]` whose expectation
/// determines `R(H, B)` through the factor [`Sampler::r_factor`].
pub trait Sampler {
    /// Draws one sample.
    fn sample(&mut self, rng: &mut Mt64) -> f64;

    /// The `r` of r-goodness: `E[sample] = R(H, B) · r`.
    fn r_factor(&self) -> f64;
}

/// Bits of a generator output that one draw attempt of a block of at most
/// 256 facts takes.
const LANE_BITS: u32 = 16;

/// A block size prepared for Lemire's multiply-and-reject draw from the
/// top bits of a generator output; see the module docs.
#[derive(Debug, Clone, Copy)]
struct LaneDraw {
    /// The block size `n ≥ 2`.
    n: u32,
    /// Bits one attempt takes, `w`: the fewest whole lanes with
    /// `n ≤ 2^(w − 8)`, so that an attempt is rejected with probability
    /// below 2⁻⁸.
    width: u32,
    /// `(2^w mod n) · 2^(64 − w)`: the threshold `t` aligned as the low
    /// word of [`Self::accept`]'s product is.
    threshold: u64,
}

impl LaneDraw {
    /// Prepares a block of `n ≥ 2` facts for attempts of whole lanes of
    /// `lane_bits` bits each.
    fn new(n: u32, lane_bits: u32) -> Self {
        debug_assert!(n >= 2, "a one-fact block is never drawn");
        let mut width = lane_bits;
        while u64::from(n) << 8 > 1 << width {
            width += lane_bits;
        }
        let threshold = ((1u64 << width) % u64::from(n)) << (64 - width);
        LaneDraw { n, width, threshold }
    }

    /// One attempt: `top` holds `w` random bits `r` at its top and zeros
    /// below, so the 128-bit product `top · n` is `r·n · 2^(64 − w)`. Its
    /// high word is the tid `(r·n) >> w`, and its low word is
    /// `(r·n) mod 2^w` aligned like the threshold.
    #[inline(always)]
    fn accept(&self, top: u64) -> Option<u32> {
        let m = u128::from(top) * u128::from(self.n);
        // The high word is below `n`, a `u32`.
        ((m as u64) >= self.threshold).then_some((m >> 64) as u32)
    }
}

/// The masks one word keeps for one block. They follow the masks of the
/// run before in the kernel's mask vector: tid `lo + k` reads the run's
/// mask `k` for `k < len`, and every other tid reads its mask `len`.
#[derive(Debug, Clone, Copy)]
struct MaskRun {
    block: u32,
    lo: u32,
    /// At most 128: a run keeps at least half of its tids mentioned, and
    /// a word mentions at most 64 tids of a block.
    len: u16,
    /// Whether this is its word's last run.
    word_end: bool,
}

/// An admissible pair compiled for sampling; see the module docs.
///
/// Databases live in caller-owned `chosen` buffers of
/// [`Self::num_blocks`] zeros, where `chosen[b]` is the tid kept from
/// block `b`. The kernel never writes a one-fact block's slot, and no
/// answer depends on what such a slot holds.
#[derive(Debug)]
pub struct SamplingKernel {
    num_blocks: usize,
    /// The blocks with more than one fact, in block order, with their
    /// sizes prepared for lane draws.
    draws: Vec<(u32, LaneDraw)>,
    /// Image `i`'s atoms on multi-fact blocks are
    /// `atoms[atom_start[i]..atom_start[i + 1]]`.
    atom_start: Vec<u32>,
    atoms: Vec<ImageAtom>,
    /// Every word's runs, word by word; each word has one at least.
    runs: Vec<MaskRun>,
    masks: Vec<u64>,
}

impl SamplingKernel {
    /// Compiles `pair` in `O(|B| + Σᵢ|Hᵢ| log |Q|)`.
    pub fn new(pair: &AdmissiblePair) -> Self {
        let sizes = pair.block_sizes();
        let draws = (0u32..)
            .zip(sizes)
            .filter(|&(_, &s)| s > 1)
            .map(|(b, &s)| (b, LaneDraw::new(s, LANE_BITS)))
            .collect();
        let mut atom_start = Vec::with_capacity(pair.num_images() + 1);
        let mut atoms = Vec::with_capacity(pair.total_image_atoms());
        atom_start.push(0);
        for image in pair.images() {
            atoms.extend(image.iter().filter(|a| sizes[a.block as usize] > 1));
            // Fits in u32: the pair's own offsets are u32.
            atom_start.push(atoms.len() as u32);
        }
        let (runs, masks) = compile_masks(&atom_start, &atoms);
        SamplingKernel { num_blocks: sizes.len(), draws, atom_start, atoms, runs, masks }
    }

    /// Length of a `chosen` buffer: `|B|`.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// `|H|`.
    pub fn num_images(&self) -> usize {
        self.atom_start.len() - 1
    }

    /// Draws `I ∈ db(B)` uniformly into `chosen`, from lanes of as few
    /// generator outputs as the blocks need.
    #[inline(always)]
    pub fn draw_database(&self, rng: &mut Mt64, chosen: &mut [u32]) {
        // The unused bits of the last output sit at the top of `bits`;
        // `left` counts them.
        let (mut bits, mut left) = (0u64, 0u32);
        for (b, draw) in &self.draws {
            chosen[*b as usize] = loop {
                if left < draw.width {
                    bits = rng.next_u64();
                    left = 64;
                }
                let top = bits & !(u64::MAX >> draw.width);
                // `width < 64`: at most three lanes.
                bits <<= draw.width;
                left -= draw.width;
                if let Some(tid) = draw.accept(top) {
                    break tid;
                }
            };
        }
    }

    /// Overwrites `chosen` with the facts of image `i`, so that it is
    /// contained.
    #[inline(always)]
    pub fn force(&self, i: usize, chosen: &mut [u32]) {
        for a in self.image(i) {
            chosen[a.block as usize] = a.tid;
        }
    }

    /// True iff image `j` is contained in `chosen`: a branch-free AND of
    /// `chosen[a.block] == a.tid` over its atoms.
    #[inline(always)]
    pub fn contained(&self, j: usize, chosen: &[u32]) -> bool {
        self.image(j).iter().fold(true, |all, a| all & (chosen[a.block as usize] == a.tid))
    }

    /// True iff some image is contained in `chosen`.
    #[inline(always)]
    pub fn any_contained(&self, chosen: &[u32]) -> bool {
        self.word_hits(chosen).any(|hits| hits != 0)
    }

    /// True iff some image `j < i` is contained in `chosen`.
    #[inline(always)]
    pub fn contained_before(&self, i: usize, chosen: &[u32]) -> bool {
        self.word_hits(chosen).take(i.div_ceil(64)).enumerate().any(|(w, hits)| {
            // Word `w` holds `i − 64w ≥ 1` images before `i`.
            hits & (u64::MAX >> 64usize.saturating_sub(i - 64 * w)) != 0
        })
    }

    /// The number of images contained in `chosen`.
    #[inline(always)]
    pub fn count_contained(&self, chosen: &[u32]) -> usize {
        self.word_hits(chosen).map(|hits| hits.count_ones() as usize).sum()
    }

    /// Per word in order, the bits of its images contained in `chosen`.
    #[inline(always)]
    fn word_hits<'a>(&'a self, chosen: &'a [u32]) -> WordHits<'a> {
        WordHits { runs: self.runs.iter(), masks: &self.masks, at: 0, chosen }
    }

    /// Image `i`'s atoms on multi-fact blocks.
    #[inline(always)]
    fn image(&self, i: usize) -> &[ImageAtom] {
        &self.atoms[self.atom_start[i] as usize..self.atom_start[i + 1] as usize]
    }
}

/// The iterator of [`SamplingKernel::word_hits`]: ANDs one mask per run
/// and yields at each word's last run.
struct WordHits<'a> {
    runs: std::slice::Iter<'a, MaskRun>,
    masks: &'a [u64],
    /// Where the next run's masks start.
    at: usize,
    chosen: &'a [u32],
}

impl Iterator for WordHits<'_> {
    type Item = u64;

    #[inline(always)]
    fn next(&mut self) -> Option<u64> {
        let mut hits = u64::MAX;
        for run in self.runs.by_ref() {
            let k = self.chosen[run.block as usize].wrapping_sub(run.lo).min(u32::from(run.len));
            hits &= self.masks[self.at + k as usize];
            self.at += usize::from(run.len) + 1;
            if run.word_end {
                return Some(hits);
            }
        }
        None
    }
}

/// The kernel's word-major masks (`runs`, `masks`) over the images that
/// `atom_start` delimits in `atoms`.
///
/// Each word's atoms are sorted by `(block, tid)` in one scratch vector
/// and cut into runs: a run of a block starts at the smallest tid not yet
/// covered and takes each next mentioned tid while it keeps at least half
/// of its tids mentioned. A run of `c` mentioned tids thus stores at most
/// `2c + 1` masks. A mask has no bits past the word's last image, and a
/// word whose images have no atoms gets one run of one mask, on block 0,
/// that holds them all.
fn compile_masks(atom_start: &[u32], atoms: &[ImageAtom]) -> (Vec<MaskRun>, Vec<u64>) {
    let images = atom_start.len() - 1;
    let mut runs = Vec::with_capacity(atoms.len().max(1));
    // Most runs hold one tid, and so two masks.
    let mut masks = Vec::with_capacity(2 * atoms.len().max(1));
    // `(block, tid, image bit)` of one word's atoms.
    let mut sorted = Vec::new();
    for first in (0..images).step_by(64) {
        let last = images.min(first + 64);
        let word = u64::MAX >> (64 - (last - first));
        sorted.clear();
        for (bit, i) in (first..last).enumerate() {
            let image = &atoms[atom_start[i] as usize..atom_start[i + 1] as usize];
            sorted.extend(image.iter().map(|a| (a.block, a.tid, bit)));
        }
        sorted.sort_unstable();
        let word_start = runs.len();
        let mut rest = &sorted[..];
        while let Some(&(block, lo, _)) = rest.first() {
            // `hi` is the run's last tid and `mentioned` its distinct tids;
            // an image has one atom per block at most, so `mentioned ≤ 64`.
            let (mut end, mut hi, mut mentioned) = (0, lo, 1);
            for &(b, tid, _) in rest {
                if b != block {
                    break;
                }
                if tid != hi {
                    if tid - lo >= 2 * (mentioned + 1) {
                        break;
                    }
                    (hi, mentioned) = (tid, mentioned + 1);
                }
                end += 1;
            }
            let (run, tail) = rest.split_at(end);
            rest = tail;
            // The word's images without an atom in this run agree with
            // every tid.
            let agree = word & !run.iter().fold(0u64, |bits, &(_, _, bit)| bits | 1 << bit);
            let at = masks.len();
            masks.resize(at + (hi - lo) as usize + 2, agree);
            for &(_, tid, bit) in run {
                masks[at + (tid - lo) as usize] |= 1 << bit;
            }
            // `hi − lo < 2 · 64`.
            runs.push(MaskRun { block, lo, len: (hi - lo + 1) as u16, word_end: false });
        }
        if runs.len() == word_start {
            masks.push(word);
            runs.push(MaskRun { block: 0, lo: 0, len: 0, word_end: false });
        }
        if let Some(run) = runs.last_mut() {
            run.word_end = true;
        }
    }
    (runs, masks)
}

/// Sampler 1: uniform over the natural space `db(B)`.
pub struct NaturalSampler {
    kernel: SamplingKernel,
    chosen: Vec<u32>,
}

impl NaturalSampler {
    /// Prepares a sampler for `pair`.
    pub fn new(pair: &AdmissiblePair) -> Self {
        let kernel = SamplingKernel::new(pair);
        NaturalSampler { chosen: vec![0; kernel.num_blocks()], kernel }
    }
}

impl Sampler for NaturalSampler {
    #[inline(always)]
    fn sample(&mut self, rng: &mut Mt64) -> f64 {
        self.kernel.draw_database(rng, &mut self.chosen);
        if self.kernel.any_contained(&self.chosen) {
            1.0
        } else {
            0.0
        }
    }

    fn r_factor(&self) -> f64 {
        1.0
    }
}

/// Shared machinery for drawing `(i, I)` uniformly from the symbolic space
/// `S• = {(i, I) | I ∈ I^i}`: a [`SamplingKernel`], the alias table of
/// image weights `|I^i| / |S•|`, and the drawn database.
pub struct SymbolicDraw {
    kernel: SamplingKernel,
    alias: AliasTable,
    chosen: Vec<u32>,
}

impl SymbolicDraw {
    /// Compiles `pair`'s kernel and alias table.
    pub fn new(pair: &AdmissiblePair) -> Self {
        let kernel = SamplingKernel::new(pair);
        SymbolicDraw { chosen: vec![0; kernel.num_blocks()], kernel, alias: pair.image_alias() }
    }

    /// Draws `(i, I)`: the image index is returned, the database `I` is
    /// left in the internal `chosen` buffer.
    #[inline(always)]
    pub fn draw(&mut self, rng: &mut Mt64) -> usize {
        let i = self.alias.sample(rng);
        self.kernel.draw_database(rng, &mut self.chosen);
        // Force the facts of H_i: every I ∈ I^i contains them, and the
        // remaining blocks stay uniform, so (i, I) is uniform on S•.
        self.kernel.force(i, &mut self.chosen);
        i
    }

    /// True iff image `j` is contained in the last drawn database.
    #[inline(always)]
    pub fn contains(&self, j: usize) -> bool {
        self.kernel.contained(j, &self.chosen)
    }

    /// The chosen database from the last [`Self::draw`].
    #[inline]
    pub fn chosen(&self) -> &[u32] {
        &self.chosen
    }
}

/// Sampler 2 (`SampleKL`): 1 iff no image *earlier in the canonical order*
/// is contained in `I`.
pub struct KlSampler {
    draw: SymbolicDraw,
    r: f64,
}

impl KlSampler {
    /// Prepares a sampler for `pair`.
    pub fn new(pair: &AdmissiblePair) -> Self {
        KlSampler { draw: SymbolicDraw::new(pair), r: 1.0 / pair.s_ratio() }
    }
}

impl Sampler for KlSampler {
    #[inline(always)]
    fn sample(&mut self, rng: &mut Mt64) -> f64 {
        let i = self.draw.draw(rng);
        if self.draw.kernel.contained_before(i, &self.draw.chosen) {
            0.0
        } else {
            1.0
        }
    }

    fn r_factor(&self) -> f64 {
        self.r
    }
}

/// Sampler 3 (`SampleKLM`): `1/k` where `k = |{j : H_j ⊆ I}| ≥ 1`.
pub struct KlmSampler {
    draw: SymbolicDraw,
    r: f64,
}

impl KlmSampler {
    /// Prepares a sampler for `pair`.
    pub fn new(pair: &AdmissiblePair) -> Self {
        KlmSampler { draw: SymbolicDraw::new(pair), r: 1.0 / pair.s_ratio() }
    }
}

impl Sampler for KlmSampler {
    #[inline(always)]
    fn sample(&mut self, rng: &mut Mt64) -> f64 {
        let _ = self.draw.draw(rng);
        let k = self.draw.kernel.count_contained(&self.draw.chosen);
        debug_assert!(k >= 1, "the drawn image must be contained");
        1.0 / k as f64
    }

    fn r_factor(&self) -> f64 {
        self.r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_common::RunningStats;
    use cqa_synopsis::exact_ratio_enumerate;

    fn example_pair() -> AdmissiblePair {
        AdmissiblePair::new(vec![vec![(0, 1), (1, 0)], vec![(0, 1), (1, 1)]], vec![2, 2]).unwrap()
    }

    fn overlap_pair() -> AdmissiblePair {
        // Overlapping images over three blocks of mixed sizes.
        AdmissiblePair::new(
            vec![vec![(0, 0)], vec![(0, 0), (1, 1)], vec![(1, 1), (2, 2)], vec![(2, 0)]],
            vec![2, 3, 4],
        )
        .unwrap()
    }

    /// Over every value of an attempt's `width` bits, whether each tid of
    /// `0..n` is accepted exactly `⌊2^w/n⌋` times and exactly `2^w mod n`
    /// values are rejected.
    fn exactly_uniform(n: u32, width: u32, accept: impl Fn(u64) -> Option<u32>) -> bool {
        let mut counts = vec![0u64; n as usize];
        let mut rejected = 0u64;
        for r in 0..1u64 << width {
            match accept(r << (64 - width)) {
                Some(tid) => counts[tid as usize] += 1,
                None => rejected += 1,
            }
        }
        let (all, n) = (1u64 << width, u64::from(n));
        counts.iter().all(|&c| c == all / n) && rejected == all % n
    }

    #[test]
    fn one_lane_draws_are_exactly_uniform() {
        for n in 2..=256 {
            let draw = LaneDraw::new(n, LANE_BITS);
            assert_eq!(draw.width, LANE_BITS, "a block of {n} facts takes one lane");
            assert!(exactly_uniform(n, draw.width, |top| draw.accept(top)), "n = {n}");
        }
    }

    /// The seeded failing case of the test above: without the threshold
    /// test, one tid of three gets one lane value more than the others.
    #[test]
    fn accepting_every_lane_is_not_uniform() {
        let every = |top: u64| Some(((u128::from(top) * 3) >> 64) as u32);
        assert!(!exactly_uniform(3, LANE_BITS, every));
    }

    /// Blocks beyond one lane's range take as many lanes as keep the
    /// rejection probability below 2⁻⁸, through the same routine. At
    /// reduced lane widths every attempt value can be enumerated.
    #[test]
    fn wide_blocks_take_several_lanes() {
        let widths = [
            (256, 16),
            (257, 32),
            (70_000, 32),
            (1 << 24, 32),
            ((1 << 24) + 1, 48),
            (u32::MAX, 48),
        ];
        for (n, width) in widths {
            assert_eq!(LaneDraw::new(n, LANE_BITS).width, width, "n = {n}");
        }
        for lane_bits in [2, 3, 4] {
            for n in [2, 3, 5, 70, 255, 256, 257, 1000, 1001] {
                let draw = LaneDraw::new(n, lane_bits);
                assert!(
                    u64::from(n) << 8 <= 1 << draw.width && draw.width.is_multiple_of(lane_bits)
                );
                assert!(exactly_uniform(n, draw.width, |top| draw.accept(top)), "n = {n}");
            }
        }
    }

    #[test]
    fn wide_block_draws_stay_in_range() {
        let pair =
            AdmissiblePair::new(vec![vec![(0, 5), (2, 1)]], vec![70_000, 3, u32::MAX, 1]).unwrap();
        let kernel = SamplingKernel::new(&pair);
        let mut rng = Mt64::new(8);
        let mut chosen = vec![0; 4];
        let mut beyond_one_lane = [false; 2];
        for _ in 0..20_000 {
            kernel.draw_database(&mut rng, &mut chosen);
            assert!(chosen[0] < 70_000 && chosen[1] < 3 && chosen[2] < u32::MAX, "{chosen:?}");
            assert_eq!(chosen[3], 0, "a one-fact block is never drawn");
            beyond_one_lane[0] |= chosen[0] >= 1 << 16;
            beyond_one_lane[1] |= chosen[2] >= 1 << 31;
        }
        assert_eq!(beyond_one_lane, [true; 2]);
    }

    /// Four blocks of at most 256 facts read one output, a lane each from
    /// the top. Powers of two are never rejected, and take the top bits of
    /// their lane.
    #[test]
    fn four_small_blocks_share_one_output() {
        let pair = AdmissiblePair::new(vec![vec![(0, 0)]], vec![2, 4, 1, 8, 16]).unwrap();
        let kernel = SamplingKernel::new(&pair);
        let (mut rng, mut raw) = (Mt64::new(3), Mt64::new(3));
        let mut chosen = vec![0; 5];
        for _ in 0..1000 {
            kernel.draw_database(&mut rng, &mut chosen);
            let x = raw.next_u64();
            let lanes = [x >> 63, (x >> 46) & 3, 0, (x >> 29) & 7, (x >> 12) & 15];
            assert_eq!(chosen, lanes.map(|l| l as u32));
        }
        assert_eq!(rng.next_u64(), raw.next_u64());
    }

    /// A word whose images all lie on one-fact blocks keeps one mask of
    /// them all, and the words after it are tested as usual.
    #[test]
    fn images_on_one_fact_blocks_only_are_always_contained() {
        // Word 0: 64 distinct sets of the one-fact blocks 0–6, which sort
        // before the three images on blocks 7 and 8 that form word 1.
        let mut images: Vec<Vec<(u32, u32)>> = (1..=64u32)
            .map(|set| (0..7).filter(|b| set >> b & 1 == 1).map(|b| (b, 0)).collect())
            .collect();
        images.extend([vec![(7, 0)], vec![(7, 1), (8, 2)], vec![(8, 0)]]);
        let mut sizes = vec![1; 7];
        sizes.extend([3, 3]);
        let pair = AdmissiblePair::new(images, sizes).unwrap();
        let kernel = SamplingKernel::new(&pair);
        for (tids, later) in [([0, 0], 2), ([1, 2], 1), ([2, 1], 0)] {
            let mut chosen = vec![0; 9];
            chosen[7..].copy_from_slice(&tids);
            assert!(kernel.any_contained(&chosen));
            assert_eq!(kernel.count_contained(&chosen), 64 + later, "{tids:?}");
            assert!(!kernel.contained_before(0, &chosen) && kernel.contained_before(1, &chosen));
            assert_eq!((0..67).filter(|&j| kernel.contained(j, &chosen)).count(), 64 + later);
        }
    }

    fn empirical_mean<S: Sampler>(mut s: S, n: usize, seed: u64) -> f64 {
        let mut rng = Mt64::new(seed);
        let mut stats = RunningStats::new();
        for _ in 0..n {
            let x = s.sample(&mut rng);
            assert!((0.0..=1.0).contains(&x), "sample {x} out of [0,1]");
            stats.push(x);
        }
        stats.mean()
    }

    /// E[sample] · (1/r) should equal R(H,B) for every sampler — the
    /// r-goodness lemmas 4.3, 4.5, 4.7.
    fn check_r_good(pair: &AdmissiblePair, seed: u64) {
        let exact = exact_ratio_enumerate(pair, 1_000_000).unwrap();
        let n = 200_000;
        let nat = empirical_mean(NaturalSampler::new(pair), n, seed);
        assert!((nat - exact).abs() < 0.01, "natural mean {nat} vs R {exact}");

        let kl_mean = empirical_mean(KlSampler::new(pair), n, seed + 1);
        let kl_est = kl_mean / KlSampler::new(pair).r_factor();
        assert!((kl_est - exact).abs() < 0.01, "KL estimate {kl_est} vs R {exact}");

        let klm_mean = empirical_mean(KlmSampler::new(pair), n, seed + 2);
        let klm_est = klm_mean / KlmSampler::new(pair).r_factor();
        assert!((klm_est - exact).abs() < 0.01, "KLM estimate {klm_est} vs R {exact}");
    }

    #[test]
    fn samplers_are_r_good_on_example() {
        check_r_good(&example_pair(), 11);
    }

    #[test]
    fn samplers_are_r_good_on_overlapping_images() {
        check_r_good(&overlap_pair(), 12);
    }

    #[test]
    fn samplers_are_r_good_on_random_pairs() {
        let mut rng = Mt64::new(77);
        for round in 0..5 {
            // Small random pair; reuse the synopsis crate's generator shape.
            let nblocks = 2 + rng.index(3);
            let sizes: Vec<u32> = (0..nblocks).map(|_| 2 + rng.below(3) as u32).collect();
            let nimages = 1 + rng.index(4);
            let images: Vec<Vec<(u32, u32)>> = (0..nimages)
                .map(|_| {
                    let natoms = 1 + rng.index(2);
                    rng.sample_indices(nblocks, natoms)
                        .into_iter()
                        .map(|b| (b as u32, rng.below(sizes[b] as u64) as u32))
                        .collect()
                })
                .collect();
            let pair = AdmissiblePair::new(images, sizes).unwrap();
            check_r_good(&pair, 100 + round);
        }
    }

    #[test]
    fn kl_and_klm_have_the_same_expectation() {
        let pair = overlap_pair();
        let kl = empirical_mean(KlSampler::new(&pair), 300_000, 5);
        let klm = empirical_mean(KlmSampler::new(&pair), 300_000, 6);
        assert!((kl - klm).abs() < 0.01, "KL {kl} vs KLM {klm}");
    }

    #[test]
    fn klm_variance_is_no_larger_than_kl() {
        // The variance-reduction claim of §4.2: Var[SampleKLM] ≤ Var[SampleKL]
        // (both have the same mean; KLM replaces an indicator with its
        // conditional expectation).
        let pair = overlap_pair();
        let mut rng = Mt64::new(42);
        let mut kl = KlSampler::new(&pair);
        let mut klm = KlmSampler::new(&pair);
        let mut s_kl = RunningStats::new();
        let mut s_klm = RunningStats::new();
        for _ in 0..200_000 {
            s_kl.push(kl.sample(&mut rng));
            s_klm.push(klm.sample(&mut rng));
        }
        assert!(
            s_klm.variance() <= s_kl.variance() + 0.005,
            "KLM variance {} vs KL {}",
            s_klm.variance(),
            s_kl.variance()
        );
    }

    #[test]
    fn natural_sampler_hits_iff_some_image_contained() {
        // With a single image covering every block, the natural sampler's
        // positive rate is exactly 1/|db(B)|.
        let pair = AdmissiblePair::new(vec![vec![(0, 0), (1, 0)]], vec![3, 3]).unwrap();
        let mean = empirical_mean(NaturalSampler::new(&pair), 200_000, 9);
        assert!((mean - 1.0 / 9.0).abs() < 0.01);
    }

    #[test]
    fn symbolic_draw_always_contains_drawn_image() {
        let pair = overlap_pair();
        let mut draw = SymbolicDraw::new(&pair);
        let mut rng = Mt64::new(3);
        for _ in 0..10_000 {
            let i = draw.draw(&mut rng);
            assert!(pair.image_contained(i, draw.chosen()));
        }
    }

    #[test]
    fn symbolic_draw_index_distribution_matches_weights() {
        let pair = overlap_pair();
        let mut draw = SymbolicDraw::new(&pair);
        let mut rng = Mt64::new(4);
        let n = 300_000;
        let mut counts = vec![0usize; pair.num_images()];
        for _ in 0..n {
            counts[draw.draw(&mut rng)] += 1;
        }
        let total: f64 = (0..pair.num_images()).map(|i| pair.inv_db_bh(i)).sum();
        for (i, &c) in counts.iter().enumerate() {
            let expect = pair.inv_db_bh(i) / total;
            let got = c as f64 / n as f64;
            assert!((got - expect).abs() < 0.01, "image {i}: {got} vs {expect}");
        }
    }
}
