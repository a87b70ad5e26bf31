//! The preprocessing step: building `syn_{Σ,Q}(D)` in one pass.
//!
//! The paper computes all synopses with a single SQL query `Q^rew` that
//! tags each joined fact with `(rid, bid, tid, kcnt)` window-function
//! metadata, then folds the result rows into encoded synopses in linear
//! time (§5, Appendix C). Here the join engine plays the role of `Q^rew`:
//! each homomorphism arrives with per-atom fact provenance, the storage
//! layer supplies the identical `(bid, tid, kcnt)` metadata, and we fold
//! exactly as the paper describes — checking `h(Q) |= Σ` by requiring that
//! atoms sharing a `(rid, bid)` agree on `tid`, then grouping by the head
//! tuple `h(x̄)`.

use crate::admissible::AdmissiblePair;
use cqa_common::{Deadline, Result, Stopwatch};
use cqa_obs::Span;
use cqa_query::{for_each_hom, ConjunctiveQuery, EvalOptions};
use cqa_storage::{Database, Datum, RelId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::ControlFlow;
use std::time::Duration;

/// A fact identified globally by relation, block and position-in-block.
type GlobalAtom = (RelId, u32, u32); // (rel, bid, tid)
/// A block identified globally.
type GlobalBlock = (RelId, u32); // (rel, bid)

/// Limits for synopsis construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildOptions {
    /// Abort when exceeded.
    pub deadline: Option<Deadline>,
    /// Refuse queries with more than this many homomorphisms (`None` =
    /// unlimited). Guards the noise/query generators against pathological
    /// candidates.
    pub max_homs: Option<usize>,
}

/// One tuple's synopsis: `(t̄, (H, B))`, with `R_{D,Σ,Q}(t̄) > 0`
/// guaranteed (Lemma 4.1(4): the tuple appears iff `H ≠ ∅`).
#[derive(Debug, Clone)]
pub struct SynopsisEntry {
    /// The candidate answer `t̄` (empty for Boolean queries).
    pub tuple: Vec<Datum>,
    /// The encoded `(Σ,Q)`-synopsis of `D` for `t̄`.
    pub pair: AdmissiblePair,
    /// The global identity of each local block (for diagnostics and the
    /// noise generator, which must find the underlying facts again).
    pub global_blocks: Vec<GlobalBlock>,
}

/// The full `enc(syn_{Σ,Q}(D))`: every candidate answer with positive
/// relative frequency, paired with its encoded synopsis.
#[derive(Debug, Clone)]
pub struct SynopsisSet {
    /// Entries ordered by tuple.
    pub entries: Vec<SynopsisEntry>,
    /// `|⋃ᵢ Hᵢ|`: the homomorphic size of `Q` w.r.t. `D` — the number of
    /// distinct *consistent* homomorphic images across all tuples (§6.1).
    pub hom_size: usize,
    /// Total homomorphisms enumerated, including inconsistent ones.
    pub total_homs: usize,
    /// Wall time of the preprocessing step (the paper's Figure 3 metric).
    pub build_time: Duration,
}

impl SynopsisSet {
    /// The output size `|syn_{Σ,Q}(D)| = |Q(D)|` restricted to tuples with
    /// positive frequency (§6.1).
    pub fn output_size(&self) -> usize {
        self.entries.len()
    }

    /// The balance of `Q` w.r.t. `D` (§6.1): the inverse of the average
    /// number of images per synopsis, `|syn| / |⋃ᵢ Hᵢ|` — close to 1 when
    /// synopses are small, close to 0 when few tuples own many images.
    /// Boolean queries with a non-empty answer have balance `1/|H|` by this
    /// formula; the paper treats them as balance 0.
    pub fn balance(&self) -> f64 {
        if self.hom_size == 0 {
            return 0.0;
        }
        self.entries.len() as f64 / self.hom_size as f64
    }

    /// Looks up the entry of a tuple.
    pub fn get(&self, tuple: &[Datum]) -> Option<&SynopsisEntry> {
        self.entries.iter().find(|e| e.tuple == tuple)
    }
}

/// Builds the synopsis of every candidate answer in one pass (§5).
pub fn build_synopses(
    db: &Database,
    q: &ConjunctiveQuery,
    opts: BuildOptions,
) -> Result<SynopsisSet> {
    let sw = Stopwatch::start();
    let mut build_span = cqa_obs::span(Span::SynopsisBuild);

    // Per-relation block metadata, fetched once per distinct relation.
    let mut rel_blocks: HashMap<RelId, std::sync::Arc<cqa_storage::RelationBlocks>> =
        HashMap::new();
    for atom in &q.atoms {
        rel_blocks.entry(atom.rel).or_insert_with(|| db.blocks(atom.rel));
    }

    // Group consistent images by head tuple. BTreeMap gives deterministic
    // entry order.
    let mut groups: BTreeMap<Vec<Datum>, HashSet<Box<[GlobalAtom]>>> = BTreeMap::new();
    let mut all_images: HashSet<Box<[GlobalAtom]>> = HashSet::new();
    let mut total_homs = 0usize;

    let eval_opts = EvalOptions {
        max_homs: opts.max_homs,
        deadline: opts.deadline.unwrap_or_else(Deadline::none),
    };

    // Phase 1: homomorphism enumeration + consistency check + image dedup.
    let mut enum_span = cqa_obs::span(Span::SynopsisEnumerateHoms);
    for_each_hom(db, q, eval_opts, |binding, facts| {
        total_homs += 1;
        // Encode the image and check h(Q) |= Σ: atoms that share a block
        // must map to the same fact.
        let mut image: Vec<GlobalAtom> = Vec::with_capacity(q.atoms.len());
        for (atom, &row) in q.atoms.iter().zip(facts) {
            let blocks = &rel_blocks[&atom.rel];
            let (bid, tid) = blocks.of_row(row);
            image.push((atom.rel, bid, tid));
        }
        image.sort_unstable();
        image.dedup();
        let consistent =
            image.windows(2).all(|w| !(w[0].0 == w[1].0 && w[0].1 == w[1].1 && w[0].2 != w[1].2));
        if consistent {
            let tuple: Vec<Datum> = q.head.iter().map(|v| binding[v.idx()]).collect();
            let boxed: Box<[GlobalAtom]> = image.into_boxed_slice();
            all_images.insert(boxed.clone());
            groups.entry(tuple).or_default().insert(boxed);
        }
        ControlFlow::Continue(())
    })?;
    enum_span.set_args(total_homs as u64, all_images.len() as u64);
    drop(enum_span);

    let hom_size = all_images.len();

    // Phase 2: per-tuple block grouping and integer encoding.
    let mut encode_span = cqa_obs::span_args(Span::SynopsisEncodeGroups, groups.len() as u64, 0);
    let mut entries = Vec::with_capacity(groups.len());
    for (tuple, images) in groups {
        let mut block_set: BTreeSet<GlobalBlock> = BTreeSet::new();
        for img in &images {
            for &(rel, bid, _) in img.iter() {
                block_set.insert((rel, bid));
            }
        }
        let global_blocks: Vec<GlobalBlock> = block_set.into_iter().collect();
        let local: HashMap<GlobalBlock, u32> =
            global_blocks.iter().enumerate().map(|(i, &b)| (b, i as u32)).collect();
        let block_sizes: Vec<u32> =
            global_blocks.iter().map(|&(rel, bid)| rel_blocks[&rel].block_size(bid)).collect();
        // Deterministic image order for reproducible encoding.
        let mut images: Vec<Box<[GlobalAtom]>> = images.into_iter().collect();
        images.sort();
        let encoded: Vec<Vec<(u32, u32)>> = images
            .iter()
            .map(|img| img.iter().map(|&(rel, bid, tid)| (local[&(rel, bid)], tid)).collect())
            .collect();
        let pair = AdmissiblePair::new(encoded, block_sizes)?;
        entries.push(SynopsisEntry { tuple, pair, global_blocks });
    }
    encode_span.set_args(entries.len() as u64, hom_size as u64);
    drop(encode_span);
    build_span.set_args(total_homs as u64, entries.len() as u64);

    Ok(SynopsisSet { entries, hom_size, total_homs, build_time: sw.elapsed() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::parse;
    use cqa_storage::ColumnType::*;
    use cqa_storage::{Schema, Value};

    /// The paper's Example 1.1 database.
    fn example_db() -> Database {
        let schema = Schema::builder()
            .relation("employee", &[("id", Int), ("name", Str), ("dept", Str)], Some(1))
            .build();
        let mut db = Database::new(schema);
        for (id, name, dept) in
            [(1, "Bob", "HR"), (1, "Bob", "IT"), (2, "Alice", "IT"), (2, "Tim", "IT")]
        {
            db.insert_named("employee", &[Value::Int(id), Value::str(name), Value::str(dept)])
                .unwrap();
        }
        db
    }

    #[test]
    fn boolean_example_synopsis() {
        let db = example_db();
        let q = parse(db.schema(), "Q() :- employee(1, n1, d), employee(2, n2, d)").unwrap();
        let syn = build_synopses(&db, &q, BuildOptions::default()).unwrap();
        // One candidate answer (the empty tuple), two witnessing images.
        assert_eq!(syn.output_size(), 1);
        assert_eq!(syn.hom_size, 2);
        let entry = &syn.entries[0];
        assert!(entry.tuple.is_empty());
        assert_eq!(entry.pair.num_images(), 2);
        assert_eq!(entry.pair.num_blocks(), 2);
        assert_eq!(entry.pair.block_sizes(), &[2, 2]);
    }

    #[test]
    fn non_boolean_synopses_group_by_tuple() {
        let db = example_db();
        let q = parse(db.schema(), "Q(n) :- employee(2, n, d)").unwrap();
        let syn = build_synopses(&db, &q, BuildOptions::default()).unwrap();
        // Alice and Tim each witnessed by one image over the id-2 block.
        assert_eq!(syn.output_size(), 2);
        assert_eq!(syn.hom_size, 2);
        for e in &syn.entries {
            assert_eq!(e.pair.num_images(), 1);
            assert_eq!(e.pair.num_blocks(), 1);
            assert_eq!(e.pair.block_sizes(), &[2]);
        }
        assert!((syn.balance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inconsistent_images_are_dropped() {
        let db = example_db();
        // employee(2, n1, d1), employee(2, n2, d2) with n1≠n2 would need two
        // facts from the same block → only the diagonal (same fact twice)
        // homomorphisms survive the consistency check.
        let q =
            parse(db.schema(), "Q(n1, n2) :- employee(2, n1, d1), employee(2, n2, d2)").unwrap();
        let syn = build_synopses(&db, &q, BuildOptions::default()).unwrap();
        // 4 homomorphisms total, only (Alice,Alice) and (Tim,Tim) are
        // consistent.
        assert_eq!(syn.total_homs, 4);
        assert_eq!(syn.output_size(), 2);
        for e in &syn.entries {
            assert_eq!(e.tuple[0], e.tuple[1]);
        }
    }

    #[test]
    fn empty_query_result_gives_empty_set() {
        let db = example_db();
        let q = parse(db.schema(), "Q(n) :- employee(9, n, d)").unwrap();
        let syn = build_synopses(&db, &q, BuildOptions::default()).unwrap();
        assert_eq!(syn.output_size(), 0);
        assert_eq!(syn.hom_size, 0);
        assert_eq!(syn.balance(), 0.0);
    }

    #[test]
    fn singleton_blocks_appear_with_kcnt_one() {
        let db = example_db();
        // Join with the consistent part: employee 1's 'Bob' name.
        let q = parse(db.schema(), "Q(d) :- employee(1, 'Bob', d)").unwrap();
        let syn = build_synopses(&db, &q, BuildOptions::default()).unwrap();
        assert_eq!(syn.output_size(), 2); // HR and IT
        for e in &syn.entries {
            assert_eq!(e.pair.block_sizes(), &[2]); // the id-1 block
        }
    }

    #[test]
    fn get_finds_entry_by_tuple() {
        let db = example_db();
        let q = parse(db.schema(), "Q(n) :- employee(2, n, d)").unwrap();
        let syn = build_synopses(&db, &q, BuildOptions::default()).unwrap();
        let alice = db.lookup_value(&Value::str("Alice")).unwrap();
        assert!(syn.get(&[alice]).is_some());
        assert!(syn.get(&[Datum::Int(0)]).is_none());
    }

    #[test]
    fn global_blocks_map_back_to_database_blocks() {
        let db = example_db();
        let q = parse(db.schema(), "Q() :- employee(1, n1, d), employee(2, n2, d)").unwrap();
        let syn = build_synopses(&db, &q, BuildOptions::default()).unwrap();
        let entry = &syn.entries[0];
        let rel = db.schema().rel_id("employee").unwrap();
        for (i, &(r, bid)) in entry.global_blocks.iter().enumerate() {
            assert_eq!(r, rel);
            assert_eq!(db.blocks(rel).block_size(bid), entry.pair.block_sizes()[i]);
        }
    }

    #[test]
    fn max_homs_is_enforced_as_a_guard() {
        let db = example_db();
        let q = parse(db.schema(), "Q(n) :- employee(x, n, d)").unwrap();
        let syn =
            build_synopses(&db, &q, BuildOptions { max_homs: Some(2), deadline: None }).unwrap();
        assert!(syn.total_homs <= 2);
    }
}
