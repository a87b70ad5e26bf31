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
//! * **Draw plan.** Only blocks with more than one fact are drawn, each
//!   with its divisor prepared as a [`Below`].
//! * **Dropped atoms.** A one-fact block always keeps fact 0, so an atom
//!   on it holds in every database and is dropped from its image; an
//!   image left with no atoms is contained in every database.
//! * **Flat images.** The remaining atoms of all images sit in one vector
//!   in canonical order, and a containment test is a branch-free AND over
//!   one image's slice.
//!
//! Filing images under a pivot fact, so that a query visits only the
//! images whose pivot was drawn, was built and measured: on perfbench's
//! offline-grid it was no faster than this flat scan, so it was left out.
//!
//! **The random stream is unchanged.** [`Mt64::below`]`(1)` returns 0
//! without consuming an output, so skipping one-fact blocks draws nothing
//! less; [`Mt64::below_with`] returns exactly `below(n)` from the same
//! outputs; [`Mt64`] tempers its outputs a block of 312 at a time, but
//! they are the same outputs in the same order; and the alias table and
//! Cover's probe draw through `below_with` too. Every estimate, sample
//! count and planned `N` is therefore bit-identical to a plain scan over
//! all blocks and all images with the reference generator.
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

use cqa_common::{AliasTable, Below, Mt64};
use cqa_synopsis::{AdmissiblePair, ImageAtom};

/// A randomized procedure producing values in `[0, 1]` whose expectation
/// determines `R(H, B)` through the factor [`Sampler::r_factor`].
pub trait Sampler {
    /// Draws one sample.
    fn sample(&mut self, rng: &mut Mt64) -> f64;

    /// The `r` of r-goodness: `E[sample] = R(H, B) · r`.
    fn r_factor(&self) -> f64;

    /// Display name.
    fn name(&self) -> &'static str;

    /// Zero-contribution draws so far: natural-space misses and KL draws
    /// discarded because an earlier image was contained. Feeds the
    /// `core_samples_rejected_total` observability counter; samplers
    /// without a rejection notion report 0.
    fn rejected(&self) -> u64 {
        0
    }
}

/// An admissible pair compiled for sampling; see the module docs.
///
/// Databases live in caller-owned `chosen` buffers of
/// [`Self::num_blocks`] zeros, where `chosen[b]` is the tid kept from
/// block `b`. The kernel never writes or reads a one-fact block's slot.
#[derive(Debug)]
pub struct SamplingKernel {
    num_blocks: usize,
    /// The blocks with more than one fact, in block order.
    draw_blocks: Vec<u32>,
    /// Their sizes, prepared for [`Mt64::below_with`].
    draw_sizes: Vec<Below>,
    /// Image `i`'s atoms on multi-fact blocks are
    /// `atoms[atom_start[i]..atom_start[i + 1]]`.
    atom_start: Vec<u32>,
    atoms: Vec<ImageAtom>,
}

impl SamplingKernel {
    /// Compiles `pair` in `O(|B| + Σᵢ|Hᵢ|)`.
    pub fn new(pair: &AdmissiblePair) -> Self {
        let sizes = pair.block_sizes();
        let (draw_blocks, draw_sizes) = (0u32..)
            .zip(sizes)
            .filter(|&(_, &s)| s > 1)
            .map(|(b, &s)| (b, Below::new(u64::from(s))))
            .unzip();
        let mut atom_start = Vec::with_capacity(pair.num_images() + 1);
        let mut atoms = Vec::with_capacity(pair.total_image_atoms());
        atom_start.push(0);
        for image in pair.images() {
            atoms.extend(image.iter().filter(|a| sizes[a.block as usize] > 1));
            // Fits in u32: the pair's own offsets are u32.
            atom_start.push(atoms.len() as u32);
        }
        SamplingKernel { num_blocks: sizes.len(), draw_blocks, draw_sizes, atom_start, atoms }
    }

    /// Length of a `chosen` buffer: `|B|`.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// `|H|`.
    pub fn num_images(&self) -> usize {
        self.atom_start.len() - 1
    }

    /// Draws `I ∈ db(B)` uniformly into `chosen`.
    #[inline(always)]
    pub fn draw_database(&self, rng: &mut Mt64, chosen: &mut [u32]) {
        for (&b, size) in self.draw_blocks.iter().zip(&self.draw_sizes) {
            chosen[b as usize] = rng.below_with(size) as u32;
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
        holds(self.image(j), chosen)
    }

    /// True iff some image is contained in `chosen`.
    #[inline(always)]
    pub fn any_contained(&self, chosen: &[u32]) -> bool {
        images(&self.atom_start, &self.atoms).any(|image| holds(image, chosen))
    }

    /// True iff some image `j < i` is contained in `chosen`.
    #[inline(always)]
    pub fn contained_before(&self, i: usize, chosen: &[u32]) -> bool {
        images(&self.atom_start[..=i], &self.atoms).any(|image| holds(image, chosen))
    }

    /// The number of images contained in `chosen`.
    #[inline(always)]
    pub fn count_contained(&self, chosen: &[u32]) -> usize {
        images(&self.atom_start, &self.atoms).map(|image| usize::from(holds(image, chosen))).sum()
    }

    /// Image `i`'s atoms on multi-fact blocks.
    #[inline(always)]
    fn image(&self, i: usize) -> &[ImageAtom] {
        &self.atoms[self.atom_start[i] as usize..self.atom_start[i + 1] as usize]
    }
}

/// The images whose atom ranges `offsets` delimits, in order. Walking the
/// offsets pairwise spares the two index checks per image that
/// [`SamplingKernel::image`] makes.
#[inline(always)]
fn images<'a>(offsets: &'a [u32], atoms: &'a [ImageAtom]) -> impl Iterator<Item = &'a [ImageAtom]> {
    offsets.windows(2).map(|w| &atoms[w[0] as usize..w[1] as usize])
}

/// True iff every atom of `image` holds in `chosen`: a branch-free AND.
#[inline(always)]
fn holds(image: &[ImageAtom], chosen: &[u32]) -> bool {
    image.iter().fold(true, |all, a| all & (chosen[a.block as usize] == a.tid))
}

/// Sampler 1: uniform over the natural space `db(B)`.
pub struct NaturalSampler {
    kernel: SamplingKernel,
    chosen: Vec<u32>,
    rejected: u64,
}

impl NaturalSampler {
    /// Prepares a sampler for `pair`.
    pub fn new(pair: &AdmissiblePair) -> Self {
        let kernel = SamplingKernel::new(pair);
        NaturalSampler { chosen: vec![0; kernel.num_blocks()], kernel, rejected: 0 }
    }
}

impl Sampler for NaturalSampler {
    #[inline(always)]
    fn sample(&mut self, rng: &mut Mt64) -> f64 {
        self.kernel.draw_database(rng, &mut self.chosen);
        if self.kernel.any_contained(&self.chosen) {
            1.0
        } else {
            self.rejected += 1;
            0.0
        }
    }

    fn r_factor(&self) -> f64 {
        1.0
    }

    fn name(&self) -> &'static str {
        "SampleNatural"
    }

    fn rejected(&self) -> u64 {
        self.rejected
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
    rejected: u64,
}

impl KlSampler {
    /// Prepares a sampler for `pair`.
    pub fn new(pair: &AdmissiblePair) -> Self {
        KlSampler { draw: SymbolicDraw::new(pair), r: 1.0 / pair.s_ratio(), rejected: 0 }
    }
}

impl Sampler for KlSampler {
    #[inline(always)]
    fn sample(&mut self, rng: &mut Mt64) -> f64 {
        let i = self.draw.draw(rng);
        if self.draw.kernel.contained_before(i, &self.draw.chosen) {
            self.rejected += 1;
            0.0
        } else {
            1.0
        }
    }

    fn r_factor(&self) -> f64 {
        self.r
    }

    fn name(&self) -> &'static str {
        "SampleKL"
    }

    fn rejected(&self) -> u64 {
        self.rejected
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

    fn name(&self) -> &'static str {
        "SampleKLM"
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
