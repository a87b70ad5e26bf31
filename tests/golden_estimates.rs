//! Golden digests of every scheme's estimates on the validation workload.
//!
//! The samplers and the coverage algorithm consume the Mersenne Twister in
//! a fixed order, so "the sampling code did not change its answers" is a
//! property of the bits: the same draws yield the same estimates, sample
//! counts and planned iteration counts. For every TPC-H and TPC-DS
//! validation CQ over the small noised instance of `golden_emission.rs`,
//! this test runs all four schemes under two seeds on every synopsis entry
//! of at most `MAX_IMAGES` images and pins an FNV-1a digest of `(estimate bits, samples, planned_n)` per
//! scheme and seed. A third input is a hand-built pair with one-fact blocks
//! and an image that lies only on one-fact blocks, the shape whose draws
//! and containment tests a sampling kernel may skip.
//!
//! A faster sampler that keeps the random stream keeps every digest; one
//! that changes the stream must re-pin them on purpose.

use cqa::noise::{add_oblivious_noise, NoiseSpec};
use cqa::prelude::*;
use cqa::synopsis::AdmissiblePair;

const SEEDS: [u64; 2] = [11, 12];
const EPS: f64 = 0.5;
/// Entries with more images are left out: KL and KLM cost `O(|H|)` per
/// sample. Entries of 65–100 images are kept so that the sampling kernel's
/// containment masks of two 64-image words, the second partial, are pinned.
const MAX_IMAGES: usize = 100;
const DELTA: f64 = 0.25;

/// FNV-1a, 64-bit: stable across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One digest per `(seed, scheme)`, in `SEEDS` × `ALL_SCHEMES` order. Every
/// run gets its own generator keyed by seed, pair index and scheme, so one
/// diverging run shows up in its own scheme's digest only.
fn digests(pairs: &[AdmissiblePair]) -> Vec<u64> {
    // A deterministic cap: no wall-clock deadline, so a capped run is a
    // reproducible `TimedOut`, digested as such.
    let budget = Budget { max_samples: 500_000, ..Budget::unbounded() };
    let mut out = Vec::new();
    for seed in SEEDS {
        for (k, scheme) in ALL_SCHEMES.into_iter().enumerate() {
            let mut h = Fnv::new();
            for (p, pair) in pairs.iter().enumerate() {
                let mut rng = Mt64::from_key(&[seed, p as u64, k as u64]);
                match approx_relative_frequency(pair, scheme, EPS, DELTA, &budget, &mut rng) {
                    Ok(o) => {
                        h.u64(o.estimate.to_bits());
                        h.u64(o.samples);
                        h.u64(o.planned_n);
                    }
                    Err(CqaError::TimedOut { .. }) => h.u64(u64::MAX),
                    Err(e) => panic!("{scheme} on pair {p}: {e}"),
                }
            }
            out.push(h.0);
        }
    }
    out
}

fn noisy(base: &Database) -> Database {
    let mut rng = Mt64::new(14);
    add_oblivious_noise(base, NoiseSpec { p: 0.3, lmin: 2, umax: 3 }, &mut rng).expect("noise").0
}

/// The synopsis entries' pairs of at most `MAX_IMAGES` images, over all
/// queries, in build order.
fn validation_pairs(db: &Database, queries: &[(String, ConjunctiveQuery)]) -> Vec<AdmissiblePair> {
    let mut pairs = Vec::new();
    for (_, q) in queries {
        let syn = build_synopses(db, q, BuildOptions::default()).expect("builds");
        pairs.extend(
            syn.entries.into_iter().map(|e| e.pair).filter(|p| p.num_images() <= MAX_IMAGES),
        );
    }
    pairs
}

#[test]
fn tpch_validation_estimates_are_pinned() {
    let db = noisy(&cqa::tpch::generate(cqa::tpch::TpchConfig { scale: 0.0005, seed: 42 }));
    let queries = cqa::tpch::validation_queries(db.schema()).expect("queries parse");
    let got = digests(&validation_pairs(&db, &queries));
    assert_eq!(
        got,
        [
            0x4f92_847f_8785_8997,
            0x106f_0abd_86a7_6737,
            0xbd77_5758_6371_0976,
            0x8337_3980_c191_dd50,
            0x7e31_0c7c_9377_9877,
            0xf992_5c8b_298a_a562,
            0x07e5_b5a4_0a19_0a93,
            0x8509_6234_5611_3206,
        ],
        "TPC-H estimates changed: {got:#018x?}"
    );
}

#[test]
fn tpcds_validation_estimates_are_pinned() {
    let db = noisy(&cqa::tpcds::generate(cqa::tpcds::TpcdsConfig { scale: 0.0005, seed: 42 }));
    let queries = cqa::tpcds::validation_queries(db.schema()).expect("queries parse");
    let got = digests(&validation_pairs(&db, &queries));
    assert_eq!(
        got,
        [
            0x1f17_5623_49b0_a503,
            0x121e_05b2_bfb4_6207,
            0xa589_212c_bd87_8074,
            0xc07e_3425_ae6c_6cd0,
            0x0d2d_bb14_8841_1e55,
            0xec91_33e4_f623_3c65,
            0xfe5f_bfcd_ef96_e0d9,
            0x447f_ef28_c61a_9979,
        ],
        "TPC-DS estimates changed: {got:#018x?}"
    );
}

#[test]
fn one_fact_block_estimates_are_pinned() {
    // Blocks 0 and 2 hold one fact each. Image [(0,0),(2,0)] lies only on
    // them, so it is contained in every database; it sorts between the
    // other images, so KL sees it both as an earlier and as a later image.
    let pair = AdmissiblePair::new(
        vec![
            vec![(0, 0), (1, 2)],
            vec![(0, 0), (2, 0)],
            vec![(1, 1), (3, 0)],
            vec![(2, 0), (3, 1), (4, 3)],
            vec![(4, 0)],
        ],
        vec![1, 3, 1, 2, 5],
    )
    .unwrap();
    let got = digests(&[pair]);
    assert_eq!(
        got,
        [
            0xcfa1_e07e_5c57_1940,
            0xaee0_4ce8_08d0_3bb6,
            0x4cce_a4c2_be13_a680,
            0xa2b3_41fc_4adb_ca69,
            0xcfa1_e07e_5c57_1940,
            0x019b_f565_ec99_869f,
            0x2c92_a73d_42af_7804,
            0xa2b3_41fc_4adb_ca69,
        ],
        "one-fact-block estimates changed: {got:#018x?}"
    );
}
