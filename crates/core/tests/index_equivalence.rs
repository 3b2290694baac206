//! Equivalence tests for the dense subgraph index and the parallel join.
//!
//! 1. **Index ≡ linear scan** — probing the flat per-size /
//!    position-bucket / twig-sorted storage must surface exactly the
//!    handles a naive scan over every inserted subgraph's registration
//!    predicate (size match, position within `[pos − ∆′, pos + ∆′]`, twig
//!    among the probe's keys) selects, for all three window policies and
//!    τ ∈ {0, 1, 3}.
//! 2. **Parallel ≡ sequential** — batched bounded-channel verification at
//!    the machine's default thread count returns the sequential result.
//! 3. **Twig filter has no false negatives** — for every (probe node,
//!    layer), the filtered probe visits the same handle sequence as a
//!    filter-free scan of the dumped bucket, and reports a bucket read
//!    whenever the layer holds one of the node's twig keys: over random
//!    collections under every window policy, 1-, 5- and 20-label
//!    alphabets, labels at the packing limit, a layer grown past several
//!    filter resizes, restored indexes and compacted shards.

use partsj::{
    build_subgraphs, cuts_for, default_verify_threads, max_min_size, partsj_join_parallel,
    partsj_join_with, select_cuts, BucketDump, PartSjConfig, SubgraphIndex, TwigKeys, WindowPolicy,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use tsj_datagen::{grow_tree, random_edit_script, swissprot_like, ShapeProfile};
use tsj_shard::{ShardConfig, ShardedIndex};
use tsj_tree::{BinaryTree, Label, NodeId, Tree};

fn random_tree(seed: u64, size: usize, labels: u32, deepen: f64) -> Tree {
    let profile = ShapeProfile {
        max_fanout: 4,
        max_depth: 12,
        deepen_prob: deepen,
    };
    grow_tree(&mut StdRng::seed_from_u64(seed), size, labels, &profile)
}

/// One recorded registration: everything the naive reference needs to
/// decide whether a probe should surface the handle.
struct RefEntry {
    handle: u32,
    tree_size: u32,
    position: u32,
    half_width: u32,
    twig: u64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The dense index surfaces exactly the handles a linear scan over
    /// all inserted subgraphs selects.
    #[test]
    fn probe_equals_linear_scan(seed in any::<u64>()) {
        for window in [WindowPolicy::Safe, WindowPolicy::Tight, WindowPolicy::PaperAbsolute] {
            for tau in [0u32, 1, 3] {
                let delta = 2 * tau as usize + 1;
                let mut rng = StdRng::seed_from_u64(seed ^ (tau as u64) << 3 ^ window as u64);
                let trees: Vec<Tree> = (0..6)
                    .map(|_| {
                        let size = rng.gen_range(delta.max(2)..delta + 30);
                        random_tree(rng.gen(), size, 5, rng.gen_range(0.0..0.6))
                    })
                    .collect();

                let mut index = SubgraphIndex::new(tau, window);
                let mut reference: Vec<RefEntry> = Vec::new();
                for (i, tree) in trees.iter().enumerate() {
                    if tree.len() < delta {
                        continue;
                    }
                    let binary = BinaryTree::from_tree(tree);
                    let gamma = max_min_size(&binary, delta);
                    let cuts = select_cuts(&binary, delta, gamma);
                    let sgs =
                        build_subgraphs(&binary, &tree.postorder_numbers(), &cuts, i as u32);
                    let base = index.len() as u32;
                    for (k, sg) in sgs.iter().enumerate() {
                        reference.push(RefEntry {
                            handle: base + k as u32,
                            tree_size: tree.len() as u32,
                            position: index.position_of(sg),
                            half_width: index.window_half_width(sg.ordinal),
                            twig: sg.twig,
                        });
                    }
                    index.insert_tree(tree.len() as u32, sgs);
                }

                // Probe with every node of every tree over the full
                // symmetric size window (the streaming/R×S superset).
                for tree in &trees {
                    let binary = BinaryTree::from_tree(tree);
                    let posts = tree.postorder_numbers();
                    let size = tree.len() as u32;
                    for node in binary.node_ids() {
                        let label = binary.label(node);
                        let left = binary
                            .left(node)
                            .map_or(Label::EPSILON, |c| binary.label(c));
                        let right = binary
                            .right(node)
                            .map_or(Label::EPSILON, |c| binary.label(c));
                        let keys = TwigKeys::new(label, left, right);
                        let position = index.probe_position(posts[node.index()], size);
                        for n in size.saturating_sub(tau).max(1)..=size + tau {
                            let mut got: Vec<u32> = Vec::new();
                            if let Some(layer) = index.layer_id(n) {
                                index.layer(layer).probe(position, &keys, |h| got.push(h));
                            }
                            got.sort_unstable();
                            let mut expected: Vec<u32> = reference
                                .iter()
                                .filter(|e| {
                                    e.tree_size == n
                                        && position >= e.position.saturating_sub(e.half_width)
                                        && position <= e.position + e.half_width
                                        && keys.as_slice().contains(&e.twig)
                                })
                                .map(|e| e.handle)
                                .collect();
                            expected.sort_unstable();
                            prop_assert_eq!(
                                got,
                                expected,
                                "window {:?}, tau {}, probe size {}",
                                window,
                                tau,
                                n
                            );
                        }
                    }
                }
            }
        }
    }

    /// Batched parallel verification at the default (machine-sized)
    /// thread count reproduces the sequential join exactly.
    #[test]
    fn parallel_equals_sequential_at_default_threads(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trees: Vec<Tree> = Vec::new();
        for i in 0..80 {
            if i >= 2 && rng.gen_bool(0.5) {
                let base = rng.gen_range(0..trees.len());
                let edits = rng.gen_range(0..4usize);
                let (edited, _) = random_edit_script(&trees[base], edits, &mut rng, 5);
                trees.push(edited);
            } else {
                let size = rng.gen_range(3..20usize);
                trees.push(random_tree(rng.gen(), size, 5, rng.gen_range(0.0..0.6)));
            }
        }
        let threads = default_verify_threads();
        for tau in [0u32, 1, 2] {
            let config = PartSjConfig::default();
            let seq = partsj_join_with(&trees, tau, &config);
            let par = partsj_join_parallel(&trees, tau, &config, threads);
            prop_assert_eq!(&seq.pairs, &par.pairs, "tau {}, threads {}", tau, threads);
            prop_assert_eq!(seq.stats.candidates, par.stats.candidates);
            prop_assert_eq!(seq.stats.prefilter_skips, par.stats.prefilter_skips);
        }
    }
}

/// The bucket-size rule of `PostorderLayer::probe`: a sorted prefix of at
/// most this many postings is scanned linearly, a longer one is
/// binary-searched per key. Mirrors `LINEAR_SCAN_MAX` in the index.
const LINEAR_SCAN_MAX: usize = 16;

/// The handles a filter-free probe of one dumped bucket visits, in order:
/// the sorted prefix (one linear pass, or each key's run in key order),
/// then the unsorted tail.
fn reference_probe(bucket: &BucketDump, keys: &[u64]) -> Vec<u32> {
    let (sorted, tail) = bucket.postings.split_at(bucket.sorted_len as usize);
    let mut visited = Vec::new();
    if sorted.len() <= LINEAR_SCAN_MAX {
        visited.extend(sorted.iter().filter(|p| keys.contains(&p.0)).map(|p| p.1));
    } else {
        for &key in keys {
            let start = sorted.partition_point(|p| p.0 < key);
            visited.extend(
                sorted[start..]
                    .iter()
                    .take_while(|p| p.0 == key)
                    .map(|p| p.1),
            );
        }
    }
    visited.extend(tail.iter().filter(|p| keys.contains(&p.0)).map(|p| p.1));
    visited
}

fn twig_keys(binary: &BinaryTree, node: NodeId) -> TwigKeys {
    let label_of = |child: Option<NodeId>| child.map_or(Label::EPSILON, |c| binary.label(c));
    TwigKeys::new(
        binary.label(node),
        label_of(binary.left(node)),
        label_of(binary.right(node)),
    )
}

/// Probe outcomes over every (node, layer) pair of a check.
#[derive(Debug, Default, PartialEq, Eq)]
struct FilterTally {
    probes: u64,
    /// Probes that passed the twig filter.
    reads: u64,
    /// Probes whose layer holds at least one of the node's twig keys.
    present: u64,
}

/// Probes every node of every tree in `probes` against every layer of
/// `index` whose size is within `size_window` of the tree's (`u32::MAX`:
/// every layer), and checks the filtered probe against
/// [`reference_probe`] on `index.dump()`: same handles, same order, and a
/// bucket read whenever the layer holds one of the keys.
fn assert_filter_exact(index: &SubgraphIndex, probes: &[Tree], size_window: u32) -> FilterTally {
    let dump = index.dump();
    let layer_twigs: Vec<HashSet<u64>> = dump
        .layers
        .iter()
        .map(|layer| {
            layer
                .buckets
                .iter()
                .flat_map(|b| b.postings.iter().map(|p| p.0))
                .collect()
        })
        .collect();
    let mut tally = FilterTally::default();
    for tree in probes {
        let binary = BinaryTree::from_tree(tree);
        let posts = tree.postorder_numbers();
        let size = tree.len() as u32;
        for node in binary.node_ids() {
            let keys = twig_keys(&binary, node);
            let position = index.probe_position(posts[node.index()], size);
            for &(n, layer) in &dump.size_layers {
                if n.abs_diff(size) > size_window {
                    continue;
                }
                let mut got = Vec::new();
                let read = index.layer(layer).probe(position, &keys, |h| got.push(h));
                let expected = dump.layers[layer as usize]
                    .buckets
                    .get(position as usize)
                    .map_or_else(Vec::new, |b| reference_probe(b, keys.as_slice()));
                assert_eq!(got, expected, "size layer {n}, position {position}");
                let present = keys
                    .as_slice()
                    .iter()
                    .any(|k| layer_twigs[layer as usize].contains(k));
                assert!(
                    read || !present,
                    "false negative: size layer {n} holds a key of {:?}",
                    keys.as_slice()
                );
                tally.probes += 1;
                tally.reads += u64::from(read);
                tally.present += u64::from(present);
            }
        }
    }
    tally
}

/// Indexes `trees` (those with at least `δ = 2τ + 1` nodes) the way the
/// joins do.
fn index_of(trees: &[Tree], tau: u32, window: WindowPolicy) -> SubgraphIndex {
    let mut index = SubgraphIndex::new(tau, window);
    for (i, tree) in trees.iter().enumerate() {
        if tree.len() > 2 * tau as usize {
            index.insert_tree(tree.len() as u32, subgraphs_of(tree, i as u32, tau));
        }
    }
    index
}

/// The `δ = 2τ + 1` subgraphs of `tree` (at least `δ` nodes) as
/// container tree `id`.
fn subgraphs_of(tree: &Tree, id: u32, tau: u32) -> Vec<partsj::Subgraph> {
    let delta = 2 * tau as usize + 1;
    let binary = BinaryTree::from_tree(tree);
    let cuts = cuts_for(
        &binary,
        delta,
        PartSjConfig::default().partitioning,
        u64::from(id),
    );
    build_subgraphs(&binary, &tree.postorder_numbers(), &cuts, id)
}

fn random_collection(seed: u64, count: usize, labels: u32, tau: u32) -> Vec<Tree> {
    let delta = 2 * tau as usize + 1;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let size = rng.gen_range(delta.max(2)..delta + 30);
            random_tree(rng.gen(), size, labels, rng.gen_range(0.0..0.6))
        })
        .collect()
}

/// `tree` with label `ℓ` renamed to `MAX_LABELS + 1 − ℓ`: the top of the
/// 21-bit range `pack_twig` packs.
fn relabel_to_top(tree: &Tree) -> Tree {
    let flat: Vec<(Label, Option<u32>)> = tree
        .flatten()
        .into_iter()
        .map(|(label, parent)| (Label::from_raw(Label::MAX_LABELS + 1 - label.raw()), parent))
        .collect();
    Tree::from_flattened(&flat).expect("relabelling keeps the tree valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The filtered probe equals the filter-free scan on random
    /// collections under every window policy and a 5- and a 20-label
    /// alphabet, before and after `restore(dump())`; the restored index
    /// reads exactly the same buckets.
    #[test]
    fn filtered_probe_equals_reference_scan(seed in any::<u64>()) {
        for window in [WindowPolicy::Safe, WindowPolicy::Tight, WindowPolicy::PaperAbsolute] {
            for tau in [0u32, 1, 3] {
                for labels in [5u32, 20] {
                    let trees = random_collection(seed ^ u64::from(tau) << 8 ^ u64::from(labels), 10, labels, tau);
                    let index = index_of(&trees[..8], tau, window);
                    let tally = assert_filter_exact(&index, &trees, u32::MAX);
                    prop_assert!(tally.reads >= tally.present);
                    let restored = SubgraphIndex::restore(index.dump()).expect("dump restores");
                    prop_assert_eq!(assert_filter_exact(&restored, &trees, u32::MAX), tally);
                }
            }
        }
    }
}

/// With one label every twig key of a probe node is one of four, and the
/// layers hold them: the filter passes every probe that should, and the
/// visit sequences still match.
#[test]
fn single_label_alphabet_stays_exact() {
    for tau in [1u32, 2] {
        let trees = random_collection(11, 40, 1, tau);
        let tally = assert_filter_exact(
            &index_of(&trees[..30], tau, WindowPolicy::Safe),
            &trees,
            u32::MAX,
        );
        assert!(tally.present > 0);
        assert!(tally.reads >= tally.present);
    }
}

/// Labels at the top of the 21-bit packing range hash like any others.
#[test]
fn labels_near_the_packing_limit_stay_exact() {
    let trees: Vec<Tree> = random_collection(12, 30, 20, 2)
        .iter()
        .map(relabel_to_top)
        .collect();
    assert!(trees.iter().any(|t| t
        .preorder_labels()
        .contains(&Label::from_raw(Label::MAX_LABELS))));
    let tally = assert_filter_exact(
        &index_of(&trees[..24], 2, WindowPolicy::Tight),
        &trees,
        u32::MAX,
    );
    assert!(tally.present > 0);
}

/// One size layer grown from an empty filter past several doublings
/// (its first filter holds 32 subgraphs; this layer ends near 1200),
/// checked after every batch of inserts and once restored.
#[test]
fn layer_grown_past_filter_resizes_stays_exact() {
    let tau = 1;
    let profile = ShapeProfile {
        max_fanout: 4,
        max_depth: 12,
        deepen_prob: 0.3,
    };
    let mut rng = StdRng::seed_from_u64(13);
    let trees: Vec<Tree> = (0..400)
        .map(|_| grow_tree(&mut rng, 24, 8, &profile))
        .collect();
    let probes = &trees[..6];
    let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
    for (batch, chunk) in trees.chunks(40).enumerate() {
        for (k, tree) in chunk.iter().enumerate() {
            let id = (batch * 40 + k) as u32;
            index.insert_tree(24, subgraphs_of(tree, id, tau));
        }
        assert_filter_exact(&index, probes, u32::MAX);
    }
    assert_eq!(index.distinct_sizes(), 1);
    assert!(index.len() > 1000, "{} subgraphs", index.len());
    let restored = SubgraphIndex::restore(index.dump()).expect("dump restores");
    assert_eq!(
        assert_filter_exact(&restored, probes, u32::MAX),
        assert_filter_exact(&index, probes, u32::MAX)
    );
}

/// Compaction rebuilds a shard's index, filter included, from its live
/// trees only.
#[test]
fn compacted_shards_stay_exact() {
    let tau = 2;
    let trees: Vec<Tree> = swissprot_like(260, 14)
        .into_iter()
        .filter(|t| t.len() > 2 * tau as usize)
        .take(240)
        .collect();
    let mut index = ShardedIndex::new(
        tau,
        WindowPolicy::Safe,
        &ShardConfig {
            shards: 3,
            min_dead_postings: 32,
            ..ShardConfig::default()
        },
    );
    for (i, tree) in trees.iter().enumerate() {
        index.insert_tree(
            i as u32,
            tree.len() as u32,
            subgraphs_of(tree, i as u32, tau),
        );
    }
    for i in 0..160 {
        index.remove_tree(i);
    }
    assert!(index.compactions() > 0);
    let probes: Vec<Tree> = trees.iter().step_by(8).cloned().collect();
    for s in 0..index.shard_count() {
        assert_filter_exact(index.shard_index(s), &probes, u32::MAX);
    }
}

/// Within the joins' size windows, the filter lets through at most 1.5×
/// the probes whose layer truly holds a key: on a Swissprot-like catalog
/// at τ = 2 and a synthetic near-duplicate collection at τ = 3, each
/// probed with unseen trees and with members of the collection.
#[test]
fn filter_reads_track_true_key_probes() {
    let synthetic = |n, seed| {
        tsj_datagen::synthetic(
            n,
            &tsj_datagen::SyntheticParams {
                avg_size: 60,
                ..Default::default()
            },
            seed,
        )
    };
    for (name, catalog, fresh, tau) in [
        (
            "swissprot",
            swissprot_like(1500, 15),
            swissprot_like(60, 16),
            2u32,
        ),
        ("synthetic", synthetic(600, 17), synthetic(30, 18), 3),
    ] {
        let index = index_of(&catalog, tau, WindowPolicy::Safe);
        let probes: Vec<Tree> = fresh
            .into_iter()
            .chain(catalog.iter().step_by(25).cloned())
            .collect();
        let tally = assert_filter_exact(&index, &probes, tau);
        assert!(
            2 * tally.reads <= 3 * tally.present,
            "{name}: {} bucket reads for {} probes with a key present (of {})",
            tally.reads,
            tally.present,
            tally.probes
        );
    }
}
