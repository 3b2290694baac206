//! Micro-benchmarks of the two-layer subgraph index (§3.4): insertion of
//! a partitioned tree and per-node probes under the three window policies.
//! Probe cost is the core of PartSJ's candidate-generation bars.
//!
//! The `safe`/`tight`/`paper` probe series index 200 mutants of one base
//! tree and probe one of them, so nearly every probe hits. The `mixed`
//! series probes a tree against an index of an unrelated synthetic
//! collection, where most (node, size layer) probes find none of the
//! node's twig keys in the layer: the case the per-layer twig filter
//! short-circuits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use partsj::{
    build_subgraphs, max_min_size, select_cuts, MatchCache, MatchSemantics, SubgraphIndex,
    TwigKeys, WindowPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use tsj_datagen::{grow_tree, mutate, synthetic, ShapeProfile, SyntheticParams};
use tsj_tree::{BinaryTree, Label, Tree};

fn sample_trees(count: usize, size: usize, seed: u64) -> Vec<Tree> {
    let profile = ShapeProfile {
        max_fanout: 4,
        max_depth: 12,
        deepen_prob: 0.3,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let base = grow_tree(&mut rng, size, 20, &profile);
    (0..count)
        .map(|_| mutate(&base, 0.05, &mut rng, 20))
        .collect()
}

fn build_index(trees: &[Tree], tau: u32, window: WindowPolicy) -> (SubgraphIndex, Vec<BinaryTree>) {
    let delta = 2 * tau as usize + 1;
    let mut index = SubgraphIndex::new(tau, window);
    let binaries: Vec<BinaryTree> = trees.iter().map(BinaryTree::from_tree).collect();
    for (i, (tree, binary)) in trees.iter().zip(&binaries).enumerate() {
        if tree.len() < delta {
            continue;
        }
        let gamma = max_min_size(binary, delta);
        let cuts = select_cuts(binary, delta, gamma);
        let sgs = build_subgraphs(binary, &tree.postorder_numbers(), &cuts, i as u32);
        index.insert_tree(tree.len() as u32, sgs);
    }
    (index, binaries)
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("index/insert_tree");
    for tau in [1u32, 3, 5] {
        let trees = sample_trees(1, 80, 7);
        let tree = &trees[0];
        let binary = BinaryTree::from_tree(tree);
        let delta = 2 * tau as usize + 1;
        let gamma = max_min_size(&binary, delta);
        let cuts = select_cuts(&binary, delta, gamma);
        let posts = tree.postorder_numbers();
        group.bench_with_input(BenchmarkId::new("tau", tau), &tau, |bench, &tau| {
            bench.iter(|| {
                let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
                let sgs = build_subgraphs(&binary, &posts, &cuts, 0);
                index.insert_tree(tree.len() as u32, sgs);
                black_box(index.len())
            })
        });
    }
    group.finish();
}

/// One probe of every node of `probe_tree` against the size layers
/// `[size − τ, size]` of `index`, in the production shape: size layers
/// resolved once per tree, twig keys once per node, match scratch
/// reused. Returns the number of matched handles.
fn probe_all_nodes(index: &SubgraphIndex, probe_tree: &Tree, tau: u32) -> u64 {
    let probe_bin = BinaryTree::from_tree(probe_tree);
    let posts = probe_tree.postorder_numbers();
    let size = probe_tree.len() as u32;
    let mut hits = 0u64;
    let layers: Vec<_> = (size.saturating_sub(tau)..=size)
        .filter_map(|n| index.layer_id(n))
        .collect();
    let mut match_cache = MatchCache::new();
    for node in probe_bin.node_ids() {
        let label = probe_bin.label(node);
        let left = probe_bin
            .left(node)
            .map_or(Label::EPSILON, |ch| probe_bin.label(ch));
        let right = probe_bin
            .right(node)
            .map_or(Label::EPSILON, |ch| probe_bin.label(ch));
        let keys = TwigKeys::new(label, left, right);
        match_cache.begin_node();
        let pos = index.probe_position(posts[node.index()], size);
        for &layer in &layers {
            index.layer(layer).probe(pos, &keys, |handle| {
                if index.matches_at(
                    handle,
                    &probe_bin,
                    node,
                    MatchSemantics::Exact,
                    &mut match_cache,
                ) {
                    hits += 1;
                }
            });
        }
    }
    hits
}

fn bench_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("index/probe_all_nodes");
    let tau = 3u32;
    let trees = sample_trees(200, 60, 9);
    for (name, window) in [
        ("safe", WindowPolicy::Safe),
        ("tight", WindowPolicy::Tight),
        ("paper", WindowPolicy::PaperAbsolute),
    ] {
        let (index, _) = build_index(&trees, tau, window);
        group.bench_function(name, |bench| {
            bench.iter(|| black_box(probe_all_nodes(&index, &trees[0], tau)))
        });
    }
    // Miss-heavy: 2000 unrelated synthetic trees (average size 60, half
    // in near-duplicate clusters), probed with a tree of another seed.
    let params = SyntheticParams {
        avg_size: 60,
        ..SyntheticParams::default()
    };
    let (index, _) = build_index(&synthetic(2000, &params, 9), tau, WindowPolicy::Safe);
    let probe_tree = synthetic(1, &params, 10).remove(0);
    group.bench_function("mixed", |bench| {
        bench.iter(|| black_box(probe_all_nodes(&index, &probe_tree, tau)))
    });
    group.finish();
}

criterion_group!(benches, bench_insert, bench_probe);
criterion_main!(benches);
