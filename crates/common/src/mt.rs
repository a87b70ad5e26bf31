//! MT19937-64: the 64-bit Mersenne Twister of Matsumoto & Nishimura.
//!
//! The paper's implementation uses the Mersenne Twister for every random
//! choice made by the approximation schemes (§5, citing Matsumoto &
//! Nishimura 1998). We implement the 64-bit reference algorithm directly so
//! the samplers in `cqa-core` draw from the same generator family, and we
//! validate the implementation against the published reference output
//! (`mt19937-64.out.txt`) in the tests below.
//!
//! **Block tempering.** Each refill regenerates the 312 state words and
//! tempers all of them, in order, into a second buffer, so
//! [`Mt64::next_u64`] is a load and an index bump. The reference tempers one
//! word per call; the outputs are the same words in the same order, which
//! the tests check against a copy of the per-word reference.

/// State size of MT19937-64.
const NN: usize = 312;
const MM: usize = 156;
const MATRIX_A: u64 = 0xB502_6F5A_A966_19E9;
/// Most significant 33 bits.
const UM: u64 = 0xFFFF_FFFF_8000_0000;
/// Least significant 31 bits.
const LM: u64 = 0x7FFF_FFFF;

/// `(x >> 1) ^ mag01[x & 1]` of the reference, with the table lookup
/// replaced by a mask so the refill loops vectorize.
#[inline(always)]
fn twist(x: u64) -> u64 {
    (x >> 1) ^ ((x & 1).wrapping_neg() & MATRIX_A)
}

/// The MT19937-64 tempering transform of one state word.
#[inline(always)]
fn temper(mut x: u64) -> u64 {
    x ^= (x >> 29) & 0x5555_5555_5555_5555;
    x ^= (x << 17) & 0x71D6_7FFF_EDA6_0000;
    x ^= (x << 37) & 0xFFF7_EEE0_0000_0000;
    x ^ (x >> 43)
}

/// A 64-bit Mersenne Twister pseudo-random number generator.
///
/// Deterministic, seedable, and cheap to fork (via [`Mt64::fork`]) so every
/// benchmark worker can own an independent stream derived from one master
/// seed.
#[derive(Clone)]
pub struct Mt64 {
    words: Box<Words>,
    /// The next output is `words.out[mti]`; `NN` means a refill is due.
    mti: usize,
}

/// The generator's state and the tempered outputs of its last refill.
#[derive(Clone)]
struct Words {
    mt: [u64; NN],
    out: [u64; NN],
}

impl std::fmt::Debug for Mt64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mt64").field("mti", &self.mti).finish_non_exhaustive()
    }
}

impl Mt64 {
    /// Creates a generator from a single 64-bit seed (`init_genrand64`).
    pub fn new(seed: u64) -> Self {
        let mut words = Box::new(Words { mt: [0; NN], out: [0; NN] });
        let mt = &mut words.mt;
        mt[0] = seed;
        for i in 1..NN {
            mt[i] = 6_364_136_223_846_793_005u64
                .wrapping_mul(mt[i - 1] ^ (mt[i - 1] >> 62))
                .wrapping_add(i as u64);
        }
        Mt64 { words, mti: NN }
    }

    /// Creates a generator from an array seed (`init_by_array64`).
    pub fn from_key(key: &[u64]) -> Self {
        let mut rng = Self::new(19_650_218);
        let mt = &mut rng.words.mt;
        let mut i: usize = 1;
        let mut j: usize = 0;
        let mut k = NN.max(key.len());
        while k > 0 {
            mt[i] = (mt[i]
                ^ (mt[i - 1] ^ (mt[i - 1] >> 62)).wrapping_mul(3_935_559_000_370_003_845))
            .wrapping_add(key[j])
            .wrapping_add(j as u64);
            i += 1;
            j += 1;
            if i >= NN {
                mt[0] = mt[NN - 1];
                i = 1;
            }
            if j >= key.len() {
                j = 0;
            }
            k -= 1;
        }
        k = NN - 1;
        while k > 0 {
            mt[i] = (mt[i]
                ^ (mt[i - 1] ^ (mt[i - 1] >> 62)).wrapping_mul(2_862_933_555_777_941_757))
            .wrapping_sub(i as u64);
            i += 1;
            if i >= NN {
                mt[0] = mt[NN - 1];
                i = 1;
            }
            k -= 1;
        }
        mt[0] = 1 << 63;
        rng
    }

    /// Derives an independent child generator; used to hand each benchmark
    /// worker or scenario its own stream from one master seed.
    pub fn fork(&mut self) -> Self {
        Self::from_key(&[self.next_u64(), self.next_u64(), self.next_u64(), 0x9E37_79B9])
    }

    /// Regenerates the state and tempers the next 312 outputs into
    /// `words.out`. Kept out of line so the inlined [`Self::next_u64`]
    /// stays a load.
    #[inline(never)]
    fn refill(&mut self) {
        let Words { mt, out } = &mut *self.words;
        for i in 0..(NN - MM) {
            let x = (mt[i] & UM) | (mt[i + 1] & LM);
            mt[i] = mt[i + MM] ^ twist(x);
        }
        for i in (NN - MM)..(NN - 1) {
            let x = (mt[i] & UM) | (mt[i + 1] & LM);
            mt[i] = mt[i + MM - NN] ^ twist(x);
        }
        let x = (mt[NN - 1] & UM) | (mt[0] & LM);
        mt[NN - 1] = mt[MM - 1] ^ twist(x);
        for (o, &x) in out.iter_mut().zip(mt.iter()) {
            *o = temper(x);
        }
    }

    /// The next raw 64-bit output (`genrand64_int64`).
    #[inline(always)]
    pub fn next_u64(&mut self) -> u64 {
        // Binding the index here, rather than rereading `mti` after the
        // call, lets the compiler see it is in bounds.
        let i = if self.mti < NN {
            self.mti
        } else {
            self.refill();
            0
        };
        self.mti = i + 1;
        self.words.out[i]
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision
    /// (`genrand64_real2`).
    #[inline(always)]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// A uniform integer in `0..n`. `n` must be non-zero.
    ///
    /// Uses rejection sampling over the top bits so the result is exactly
    /// uniform (no modulo bias).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0) is meaningless");
        if n == 1 {
            return 0;
        }
        // Power of two: mask directly.
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        // Rejection zone: largest multiple of n that fits in u64.
        let zone = u64::MAX - (u64::MAX % n + 1) % n;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % n;
            }
        }
    }

    /// A uniform integer in `0..n` for the `n` that `b` was prepared from:
    /// exactly [`Self::below`]`(n)`, drawing the same outputs, with the
    /// rejection zone computed once by [`Below::new`] instead of on every
    /// call. Always inlined: the alias table's column draw and Cover's
    /// probe call it once per sample. (The sampling kernel draws its blocks
    /// from 16-bit lanes of [`Self::next_u64`] instead, four to an output.)
    #[inline(always)]
    pub fn below_with(&mut self, b: &Below) -> u64 {
        // Only powers of two accept every output.
        if b.zone == u64::MAX {
            return self.next_u64() & (b.n - 1);
        }
        if b.zone == 0 {
            return 0;
        }
        loop {
            let v = self.next_u64();
            if v <= b.zone {
                return v % b.n;
            }
        }
    }

    /// A uniform `usize` index in `0..n`. `n` must be non-zero.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// A uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        match (hi - lo).checked_add(1) {
            Some(n) => lo + self.below(n),
            // `[0, u64::MAX]`: every output is in range.
            None => self.next_u64(),
        }
    }

    /// A Bernoulli draw with success probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (k ≤ n), in random order.
    ///
    /// Uses Floyd's algorithm: O(k) expected work regardless of `n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut chosen: std::collections::HashSet<usize> =
            std::collections::HashSet::with_capacity(k * 2);
        let mut out = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.index(j + 1);
            let pick = if chosen.contains(&t) { j } else { t };
            chosen.insert(pick);
            out.push(pick);
        }
        self.shuffle(&mut out);
        out
    }
}

/// A divisor prepared for repeated [`Mt64::below_with`] draws.
///
/// [`Mt64::below`] derives its rejection zone, the largest multiple of `n`
/// that fits in a `u64`, with two divisions per call. An alias table draws
/// its column, and Cover its probe, from one `n` millions of times, so each
/// prepares it once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Below {
    n: u64,
    /// Largest accepted raw output: `u64::MAX` exactly when `n ≥ 2` is a
    /// power of two, and 0 when `n == 1`, where no output is drawn at all.
    zone: u64,
}

impl Below {
    /// Prepares `n` for [`Mt64::below_with`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "below(0) is meaningless");
        let zone = if n == 1 { 0 } else { u64::MAX - (u64::MAX % n + 1) % n };
        Below { n, zone }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator as it was before block tempering: regenerate the state
    /// in place, then temper one word per output.
    struct Reference {
        mt: [u64; NN],
        mti: usize,
    }

    impl Reference {
        /// Starts from `rng`'s seeded state; `rng` must not have drawn yet.
        fn of(rng: &Mt64) -> Self {
            assert_eq!(rng.mti, NN, "the reference starts before the first refill");
            Reference { mt: rng.words.mt, mti: NN }
        }

        fn next_u64(&mut self) -> u64 {
            let mag01 = [0u64, MATRIX_A];
            if self.mti >= NN {
                let mt = &mut self.mt;
                for i in 0..NN {
                    let x = (mt[i] & UM) | (mt[(i + 1) % NN] & LM);
                    mt[i] = mt[(i + MM) % NN] ^ (x >> 1) ^ mag01[(x & 1) as usize];
                }
                self.mti = 0;
            }
            let mut x = self.mt[self.mti];
            self.mti += 1;
            x ^= (x >> 29) & 0x5555_5555_5555_5555;
            x ^= (x << 17) & 0x71D6_7FFF_EDA6_0000;
            x ^= (x << 37) & 0xFFF7_EEE0_0000_0000;
            x ^= x >> 43;
            x
        }
    }

    /// Five refills and a partial block of outputs, from two seedings.
    #[test]
    fn block_tempering_matches_the_per_output_reference() {
        for mut rng in [Mt64::new(5489), Mt64::from_key(&[0x12345, 0x23456, 0x34567, 0x45678])] {
            let mut reference = Reference::of(&rng);
            for i in 0..5 * NN + 7 {
                assert_eq!(rng.next_u64(), reference.next_u64(), "mismatch at output {i}");
            }
        }
    }

    /// A clone taken mid-block and a fork continue exactly as the reference
    /// does.
    #[test]
    fn clone_and_fork_continue_the_reference_stream() {
        let mut rng = Mt64::new(2024);
        let mut reference = Reference::of(&rng);
        for _ in 0..NN + 100 {
            assert_eq!(rng.next_u64(), reference.next_u64());
        }
        let mut copy = rng.clone();
        for i in 0..4 * NN {
            let want = reference.next_u64();
            assert_eq!(rng.next_u64(), want, "original at output {i}");
            assert_eq!(copy.next_u64(), want, "clone at output {i}");
        }
        let mut child = rng.fork();
        let key = [reference.next_u64(), reference.next_u64(), reference.next_u64(), 0x9E37_79B9];
        let mut child_reference = Reference::of(&Mt64::from_key(&key));
        for i in 0..4 * NN {
            assert_eq!(child.next_u64(), child_reference.next_u64(), "fork at output {i}");
            assert_eq!(rng.next_u64(), reference.next_u64(), "parent after fork at output {i}");
        }
    }

    /// First values of the published reference output of mt19937-64.c when
    /// seeded with `init_by_array64({0x12345, 0x23456, 0x34567, 0x45678})`.
    #[test]
    fn matches_reference_vectors() {
        let mut rng = Mt64::from_key(&[0x12345, 0x23456, 0x34567, 0x45678]);
        let expected: [u64; 10] = [
            7266447313870364031,
            4946485549665804864,
            16945909448695747420,
            16394063075524226720,
            4873882236456199058,
            14877448043947020171,
            6740343660852211943,
            13857871200353263164,
            5249110015610582907,
            10205081126064480383,
        ];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(rng.next_u64(), e, "mismatch at output {i}");
        }
    }

    #[test]
    fn single_seed_is_deterministic() {
        let mut a = Mt64::new(5489);
        let mut b = Mt64::new(5489);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Mt64::new(1);
        let mut b = Mt64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Mt64::new(42);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = Mt64::new(7);
        let n = 10u64;
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            let v = rng.below(n);
            assert!(v < n);
            counts[v as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10_000; allow generous slack.
            assert!((9_000..11_000).contains(&c), "bucket count {c} out of range");
        }
    }

    #[test]
    fn below_one_is_zero() {
        let mut rng = Mt64::new(3);
        assert_eq!(rng.below(1), 0);
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut rng = Mt64::new(11);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            match rng.range_inclusive(2, 5) {
                2 => lo_seen = true,
                5 => hi_seen = true,
                v => assert!((2..=5).contains(&v)),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    /// The full range, where `hi - lo + 1` wraps to 0, is one raw output;
    /// every narrower range keeps drawing through `below`.
    #[test]
    fn range_inclusive_full_range_is_the_raw_output() {
        let mut rng = Mt64::new(13);
        let mut raw = rng.clone();
        for _ in 0..1000 {
            assert_eq!(rng.range_inclusive(0, u64::MAX), raw.next_u64());
        }
        assert_eq!(rng.range_inclusive(1, u64::MAX), 1 + raw.below(u64::MAX));
        assert_eq!(rng.range_inclusive(0, u64::MAX - 1), raw.below(u64::MAX));
        assert_eq!(rng.range_inclusive(3, 9), 3 + raw.below(7));
    }

    #[test]
    fn sample_indices_distinct_and_complete() {
        let mut rng = Mt64::new(9);
        for k in 0..=20 {
            let s = rng.sample_indices(20, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k);
            assert!(s.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = Mt64::new(123);
        let mut b = a.fork();
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Mt64::new(77);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
