//! Property-based tests over the core data structures and invariants.

use cqa::common::{AliasTable, Below, LogNum, Mt64};
use cqa::core::SamplingKernel;
use cqa::prelude::*;
use cqa::synopsis::{exact_ratio_enumerate, exact_ratio_inclusion_exclusion, AdmissiblePair};
use proptest::prelude::*;

/// Strategy: a random admissible pair with small blocks.
fn admissible_pair() -> impl Strategy<Value = AdmissiblePair> {
    // Block sizes 1..=4, 1..=5 blocks; 1..=5 images of 1..=3 atoms.
    (prop::collection::vec(1u32..=4, 1..=5), proptest::num::u64::ANY).prop_map(|(sizes, seed)| {
        let mut rng = Mt64::new(seed);
        let nblocks = sizes.len();
        let nimages = 1 + rng.index(5);
        let images: Vec<Vec<(u32, u32)>> = (0..nimages)
            .map(|_| {
                let natoms = 1 + rng.index(nblocks.min(3));
                rng.sample_indices(nblocks, natoms)
                    .into_iter()
                    .map(|b| (b as u32, rng.below(sizes[b] as u64) as u32))
                    .collect()
            })
            .collect();
        AdmissiblePair::new(images, sizes).expect("construction is valid by design")
    })
}

/// Strategy: an admissible pair in the shapes the sampling kernel treats
/// specially — several one-fact blocks (block 0 always is one), images
/// sharing facts (tids lean to 0), and with probability ½ an image
/// that lies only on one-fact blocks and so is contained in every database.
fn kernel_pair() -> impl Strategy<Value = AdmissiblePair> {
    proptest::num::u64::ANY.prop_map(|seed| {
        let mut rng = Mt64::new(seed);
        let nblocks = 2 + rng.index(6);
        let sizes: Vec<u32> =
            (0..nblocks).map(|b| if b == 0 { 1 } else { [1, 1, 2, 3, 5][rng.index(5)] }).collect();
        let mut images: Vec<Vec<(u32, u32)>> = (0..1 + rng.index(10))
            .map(|_| {
                let natoms = 1 + rng.index(nblocks.min(3));
                rng.sample_indices(nblocks, natoms)
                    .into_iter()
                    .map(|b| (b as u32, rng.below(u64::from(sizes[b].min(2))) as u32))
                    .collect()
            })
            .collect();
        if rng.bernoulli(0.5) {
            let ones = (0..nblocks as u32).filter(|&b| sizes[b as usize] == 1);
            images.push(ones.take(1 + rng.index(2)).map(|b| (b, 0)).collect());
        }
        AdmissiblePair::new(images, sizes).expect("construction is valid by design")
    })
}

/// Whether `below_with(&Below::new(n))` and `below(n)` agree on 8 draws
/// from two copies of one generator, and leave both at the same position.
fn below_with_matches(seed: u64, n: u64) -> bool {
    let mut a = Mt64::new(seed);
    let mut b = a.clone();
    let prepared = Below::new(n);
    (0..8).all(|_| a.below(n) == b.below_with(&prepared)) && a.next_u64() == b.next_u64()
}

#[test]
fn mt_below_with_is_below_at_the_edges() {
    let powers = (0..64).map(|k| 1u64 << k);
    let edges = [(1 << 32) - 1, 1 << 32, (1 << 32) + 1, u64::MAX - 1, u64::MAX];
    for n in (1..=4096).chain(powers).chain(edges) {
        for seed in [1, 2, 3] {
            assert!(below_with_matches(seed, n), "below_with({n}) differs from below({n})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The two independent exact algorithms agree on any admissible pair.
    #[test]
    fn exact_algorithms_agree(pair in admissible_pair()) {
        let a = exact_ratio_enumerate(&pair, 10_000_000).unwrap();
        let b = exact_ratio_inclusion_exclusion(&pair).unwrap();
        prop_assert!((a - b).abs() < 1e-9, "enumerate {a} vs incl-excl {b}");
    }

    /// R(H,B) obeys the Lemma 4.3 lower bound and never exceeds 1.
    #[test]
    fn ratio_bounds(pair in admissible_pair()) {
        let r = exact_ratio_enumerate(&pair, 10_000_000).unwrap();
        prop_assert!(r <= 1.0 + 1e-12);
        prop_assert!(r >= pair.ratio_lower_bound() - 1e-12);
        // And the union bound from above: R ≤ Σ 1/|db(B_{H_i})| = s_ratio.
        prop_assert!(r <= pair.s_ratio() + 1e-12);
    }

    /// Every scheme's estimate is finite, lands in [0,1] and within a loose
    /// band of the exact ratio, across arbitrary shapes, at a fixed
    /// (0.2, 0.25) and at a drawn point of the (ε, δ) domain. This is the
    /// estimator-domain check: a divisor that reaches zero or a probability
    /// scaled past 1 fails it. The tight ε-band is checked statistically in
    /// the core crate.
    #[test]
    fn schemes_are_sane_on_arbitrary_pairs(
        pair in admissible_pair(),
        seed in 0u64..1000,
        eps in 0.1f64..0.9,
        delta in 0.05f64..0.95,
    ) {
        let exact = exact_ratio_enumerate(&pair, 10_000_000).unwrap();
        for (eps, delta) in [(0.2, 0.25), (eps, delta)] {
            for scheme in ALL_SCHEMES {
                let mut rng = Mt64::new(seed);
                let out = approx_relative_frequency(
                    &pair, scheme, eps, delta, &Budget::unbounded(), &mut rng,
                ).unwrap();
                prop_assert!(out.estimate.is_finite(), "{scheme}: {}", out.estimate);
                prop_assert!((0.0..=1.0).contains(&out.estimate));
                prop_assert!(
                    (out.estimate - exact).abs() <= 2.5 * eps * exact + 1e-9,
                    "{scheme} at ε={eps}, δ={delta}: {} vs exact {exact}", out.estimate
                );
            }
        }
    }

    /// Log-space arithmetic matches plain arithmetic in the range where
    /// plain arithmetic works.
    #[test]
    fn lognum_matches_f64(a in 1e-3f64..1e3, b in 1e-3f64..1e3) {
        let (la, lb) = (LogNum::from_value(a), LogNum::from_value(b));
        prop_assert!(((la * lb).value() - a * b).abs() / (a * b) < 1e-12);
        prop_assert!(((la / lb).value() - a / b).abs() / (a / b) < 1e-12);
        prop_assert!((la.add(lb).value() - (a + b)).abs() / (a + b) < 1e-12);
        prop_assert!((la.ratio(lb) - a / b).abs() / (a / b) < 1e-12);
    }

    /// `Mt64::below` stays in range for arbitrary moduli.
    #[test]
    fn mt_below_in_range(seed in proptest::num::u64::ANY, n in 1u64..=u64::MAX) {
        let mut rng = Mt64::new(seed);
        for _ in 0..16 {
            prop_assert!(rng.below(n) < n);
        }
    }

    /// `below_with(&Below::new(n))` is `below(n)`: the same values from the
    /// same outputs, leaving the generator at the same position.
    #[test]
    fn mt_below_with_is_below(seed in proptest::num::u64::ANY, n in 1u64..=u64::MAX) {
        prop_assert!(below_with_matches(seed, n));
    }

    /// The sampling kernel answers every containment question exactly as a
    /// scan over `AdmissiblePair::image_contained` does, on databases drawn
    /// the ways the schemes draw them and on arbitrary ones.
    #[test]
    fn kernel_queries_match_brute_force(pair in kernel_pair(), seed in proptest::num::u64::ANY) {
        let kernel = SamplingKernel::new(&pair);
        let h = pair.num_images();
        let mut rng = Mt64::new(seed);
        let mut chosen = vec![0u32; kernel.num_blocks()];
        for round in 0..48 {
            let drawn = match round % 3 {
                0 => {
                    kernel.draw_database(&mut rng, &mut chosen);
                    None
                }
                1 => {
                    let i = rng.index(h);
                    kernel.draw_database(&mut rng, &mut chosen);
                    kernel.force(i, &mut chosen);
                    Some(i)
                }
                _ => {
                    for (slot, &size) in chosen.iter_mut().zip(pair.block_sizes()) {
                        *slot = rng.below(u64::from(size)) as u32;
                    }
                    None
                }
            };
            let hit: Vec<bool> = (0..h).map(|j| pair.image_contained(j, &chosen)).collect();
            if let Some(i) = drawn {
                prop_assert!(hit[i], "the drawn image {i} is not contained");
            }
            prop_assert_eq!(kernel.any_contained(&chosen), hit.contains(&true));
            prop_assert_eq!(kernel.count_contained(&chosen), hit.iter().filter(|&&c| c).count());
            for i in 0..=h {
                prop_assert_eq!(kernel.contained_before(i, &chosen), hit[..i].contains(&true));
            }
            for (j, &c) in hit.iter().enumerate() {
                prop_assert_eq!(kernel.contained(j, &chosen), c);
            }
        }
    }

    /// Alias tables never emit a zero-weight category.
    #[test]
    fn alias_respects_support(seed in proptest::num::u64::ANY,
                              mask in 1u8..15) {
        let weights: Vec<f64> =
            (0..4).map(|i| if mask & (1 << i) != 0 { 1.0 } else { 0.0 }).collect();
        let table = AliasTable::new(&weights);
        let mut rng = Mt64::new(seed);
        for _ in 0..64 {
            let k = table.sample(&mut rng);
            prop_assert!(weights[k] > 0.0, "sampled zero-weight category {k}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random small databases: blocks partition the rows of each relation,
    /// and the repair count is the product of block sizes.
    #[test]
    fn blocks_partition_and_count(rows in prop::collection::vec((0i64..4, 0i64..4), 1..12)) {
        let schema = Schema::builder()
            .relation("r", &[("k", ColumnType::Int), ("v", ColumnType::Int)], Some(1))
            .build();
        let mut db = Database::new(schema);
        for (k, v) in rows {
            db.insert_named("r", &[Value::Int(k), Value::Int(v)]).unwrap();
        }
        let rel = db.schema().rel_id("r").unwrap();
        let blocks = db.blocks(rel);
        let n = db.table(rel).len();
        // Partition: every row appears in exactly one block.
        let mut seen = vec![false; n];
        for (_, rows) in blocks.iter() {
            for &row in rows {
                prop_assert!(!seen[row as usize], "row {row} in two blocks");
                seen[row as usize] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
        // Count: product of block sizes.
        let product: f64 = blocks.iter().map(|(_, r)| r.len() as f64).product();
        prop_assert!((db.repair_count().value() - product).abs() < 1e-9);
    }

    /// The synopsis-based exact frequency equals the repair-enumeration
    /// frequency on random small databases (Lemma 4.1(3), property form).
    #[test]
    fn lemma_41_randomized(rows_r in prop::collection::vec((0i64..3, 0i64..3), 1..8),
                           rows_s in prop::collection::vec((0i64..3, 0i64..3), 1..8)) {
        let schema = Schema::builder()
            .relation("r", &[("k", ColumnType::Int), ("a", ColumnType::Int)], Some(1))
            .relation("s", &[("k", ColumnType::Int), ("b", ColumnType::Int)], Some(1))
            .build();
        let mut db = Database::new(schema);
        for (k, a) in rows_r {
            db.insert_named("r", &[Value::Int(k), Value::Int(a)]).unwrap();
        }
        for (k, b) in rows_s {
            db.insert_named("s", &[Value::Int(k), Value::Int(b)]).unwrap();
        }
        let q = parse(db.schema(), "Q(a) :- r(k, a), s(a, b)").unwrap();
        let syn = build_synopses(&db, &q, BuildOptions::default()).unwrap();
        let exact = consistent_answers_exact(&db, &q, 2_000_000).unwrap();
        prop_assert_eq!(syn.output_size(), exact.len());
        for (t, f) in &exact {
            let entry = syn.get(t).expect("tuple has a synopsis");
            let r = exact_ratio_enumerate(&entry.pair, 10_000_000).unwrap();
            prop_assert!((r - f).abs() < 1e-9, "synopsis {r} vs repairs {f}");
        }
    }
}

/// An α-renaming plus atom shuffle of `q`: semantically the same CQ,
/// structurally rearranged.
fn alpha_variant(q: &ConjunctiveQuery, rng: &mut Mt64) -> ConjunctiveQuery {
    use cqa::query::{Atom, Term, VarId};
    let n = q.num_vars();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut perm);
    let map = |v: VarId| VarId(perm[v.idx()]);
    let mut atoms: Vec<Atom> = q
        .atoms
        .iter()
        .map(|a| Atom {
            rel: a.rel,
            terms: a
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => Term::Var(map(*v)),
                    Term::Const(c) => Term::Const(c.clone()),
                })
                .collect(),
        })
        .collect();
    rng.shuffle(&mut atoms);
    let head = q.head.iter().map(|&v| map(v)).collect();
    // Fresh display names (they are not part of the canonical form).
    let names = (0..n).map(|i| format!("w{i}_{}", rng.below(100))).collect();
    ConjunctiveQuery::new("Q_variant", head, atoms, names).expect("renaming preserves safety")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Canonicalization is invariant under variable renaming and atom
    /// reordering, both at the AST level and through the text permuter.
    #[test]
    fn canonical_form_is_alpha_invariant(
        joins in 0usize..=3,
        constants in 0usize..=2,
        seed in proptest::num::u64::ANY,
    ) {
        let db = cqa::tpch::generate(cqa::tpch::TpchConfig::tiny());
        let mut rng = Mt64::new(seed);
        let spec = cqa::qgen::SqgSpec { joins, constants, proj_fraction: 1.0 };
        let Ok(q) = cqa::qgen::sqg(&db, spec, &mut rng) else {
            return Ok(()); // this draw had no valid query; other cases cover it
        };
        let form = q.canonical_form();
        for _ in 0..4 {
            let variant = alpha_variant(&q, &mut rng);
            prop_assert_eq!(variant.canonical_form(), form.clone());
            prop_assert_eq!(variant.canonical_fingerprint(), form.fingerprint());
        }
        // The text-level permuter (what `bench-serve --permute-queries`
        // issues) round-trips to the same fingerprint.
        let text = q.display(db.schema()).to_string();
        let permuted = cqa::query::permute_query_text(&text, &mut rng).unwrap();
        let reparsed = parse(db.schema(), &permuted).unwrap();
        prop_assert_eq!(reparsed.canonical_fingerprint(), form.fingerprint());
    }
}

/// No spurious fingerprint collisions across a corpus of SQG queries:
/// equal fingerprints always mean equal canonical forms.
#[test]
fn canonical_fingerprints_are_injective_on_an_sqg_corpus() {
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;
    let db = cqa::tpch::generate(cqa::tpch::TpchConfig::tiny());
    let mut rng = Mt64::new(20210621);
    let mut by_fp: HashMap<u64, cqa::query::CanonicalQuery> = HashMap::new();
    let mut corpus = 0usize;
    for joins in 0..=3usize {
        for constants in 0..=2usize {
            for _ in 0..30 {
                let spec = cqa::qgen::SqgSpec { joins, constants, proj_fraction: 1.0 };
                let Ok(q) = cqa::qgen::sqg(&db, spec, &mut rng) else { continue };
                corpus += 1;
                let form = q.canonical_form();
                match by_fp.entry(form.fingerprint()) {
                    Entry::Occupied(e) => assert_eq!(
                        e.get(),
                        &form,
                        "fingerprint {:#x} collides across distinct canonical forms:\n  {}\n  {}",
                        form.fingerprint(),
                        e.get().text(),
                        form.text(),
                    ),
                    Entry::Vacant(e) => {
                        e.insert(form);
                    }
                }
            }
        }
    }
    assert!(corpus >= 200, "corpus too small: {corpus}");
    assert!(by_fp.len() >= 50, "too few distinct shapes: {}", by_fp.len());
}
