//! Micro-benchmarks of the distance kernels: Zhang–Shasha left/right
//! decompositions, the τ-bounded exact kernel, the RTED-inspired dynamic
//! choice, and banded vs full string edit distance. These are the
//! per-pair costs that dominate the verification bars of Figures 10/12/14.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use tsj_datagen::{grow_tree, random_edit_script, ShapeProfile};
use tsj_ted::{
    sed, sed_with, sed_within, sed_within_with, tree_distance, tree_distance_within, CostModel,
    PreparedTree, SedScratch, Strategy, TedEngine, TedTree, TedWorkspace,
};
use tsj_tree::Tree;

fn tree_of_shape(seed: u64, size: usize, deepen: f64) -> Tree {
    let profile = ShapeProfile {
        max_fanout: 4,
        max_depth: 40,
        deepen_prob: deepen,
    };
    grow_tree(&mut StdRng::seed_from_u64(seed), size, 12, &profile)
}

fn bench_ted_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("ted/size");
    for size in [20usize, 40, 80, 160] {
        let a = tree_of_shape(1, size, 0.3);
        let b = tree_of_shape(2, size, 0.3);
        let (ta, tb) = (TedTree::new(&a), TedTree::new(&b));
        let mut ws = TedWorkspace::new();
        group.bench_with_input(BenchmarkId::new("zhang_shasha", size), &size, |bench, _| {
            bench.iter(|| {
                black_box(tree_distance(
                    black_box(&ta),
                    black_box(&tb),
                    &CostModel::UNIT,
                    &mut ws,
                ))
            })
        });
    }
    group.finish();
}

/// The τ-bounded kernel on a 160-node near-duplicate pair (three random
/// edits apart, the verify leaf's typical input), next to the unbounded
/// DP on the same pair. `large` (τ = 1000) prunes nothing and must cost
/// no more than `zhang_shasha`.
fn bench_ted_bounded(c: &mut Criterion) {
    let mut group = c.benchmark_group("ted/bounded");
    let a = tree_of_shape(1, 160, 0.3);
    let (b, _) = random_edit_script(&a, 3, &mut StdRng::seed_from_u64(7), 12);
    let (ta, tb) = (TedTree::new(&a), TedTree::new(&b));
    let mut ws = TedWorkspace::new();
    group.bench_function("zhang_shasha", |bench| {
        bench.iter(|| {
            black_box(tree_distance(
                black_box(&ta),
                black_box(&tb),
                &CostModel::UNIT,
                &mut ws,
            ))
        })
    });
    for (name, tau) in [("1", 1u32), ("3", 3), ("5", 5), ("large", 1000)] {
        group.bench_function(name, |bench| {
            bench.iter(|| {
                black_box(tree_distance_within(
                    black_box(&ta),
                    black_box(&tb),
                    tau,
                    &mut ws,
                ))
            })
        });
    }
    group.finish();
}

/// Decomposition choice on skewed trees, through the engine's verify
/// entry point: `within` at τ = 5 runs the bounded kernel on the chosen
/// side. Bench input for the `hybrid.rs` keep-or-delete decision.
fn bench_ted_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("ted/strategy");
    // Deep right-leaning combs penalize the left decomposition; the
    // dynamic strategy should track the better side.
    let a = tree_of_shape(3, 80, 0.8);
    let b = tree_of_shape(4, 80, 0.8);
    for (name, strategy) in [
        ("left", Strategy::Left),
        ("right", Strategy::Right),
        ("dynamic", Strategy::Dynamic),
    ] {
        group.bench_function(name, |bench| {
            let mut engine = TedEngine::new(CostModel::UNIT, strategy);
            bench.iter(|| black_box(engine.distance_trees(black_box(&a), black_box(&b))))
        });
    }
    let (near, _) = random_edit_script(&a, 3, &mut StdRng::seed_from_u64(8), 12);
    let (pa, pn) = (PreparedTree::new(&a), PreparedTree::new(&near));
    for (name, strategy) in [
        ("bounded_left", Strategy::Left),
        ("bounded_right", Strategy::Right),
        ("bounded_dynamic", Strategy::Dynamic),
    ] {
        group.bench_function(name, |bench| {
            let mut engine = TedEngine::new(CostModel::UNIT, strategy);
            bench.iter(|| black_box(engine.within(black_box(&pa), black_box(&pn), 5)))
        });
    }
    group.finish();
}

fn bench_sed(c: &mut Criterion) {
    let mut group = c.benchmark_group("sed");
    let a = tree_of_shape(5, 120, 0.2).preorder_labels();
    let b = tree_of_shape(6, 120, 0.2).preorder_labels();
    group.bench_function("full", |bench| {
        bench.iter(|| black_box(sed(black_box(&a), black_box(&b))))
    });
    // `_scratch` rows reuse one set of DP row buffers across iterations —
    // the join's steady state, isolating the kernel from the allocator.
    let mut scratch = SedScratch::new();
    group.bench_function("full_scratch", |bench| {
        bench.iter(|| black_box(sed_with(black_box(&a), black_box(&b), &mut scratch)))
    });
    for tau in [1u32, 3, 5] {
        group.bench_with_input(BenchmarkId::new("banded", tau), &tau, |bench, &tau| {
            bench.iter(|| black_box(sed_within(black_box(&a), black_box(&b), tau)))
        });
        let mut scratch = SedScratch::new();
        group.bench_with_input(
            BenchmarkId::new("banded_scratch", tau),
            &tau,
            |bench, &tau| {
                bench.iter(|| {
                    black_box(sed_within_with(
                        black_box(&a),
                        black_box(&b),
                        tau,
                        &mut scratch,
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ted_sizes,
    bench_ted_bounded,
    bench_ted_strategies,
    bench_sed
);
criterion_main!(benches);
