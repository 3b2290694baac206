//! Equivalence of the τ-bounded kernel with the unbounded Zhang–Shasha
//! oracle: `tree_distance_within(a, b, τ) == (zs(a, b) ≤ τ).then_some(zs(a, b))`
//! for every τ, on both the natural and the mirrored decomposition.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsj_datagen::{grow_tree, random_edit_script, ShapeProfile};
use tsj_ted::{
    tree_distance, tree_distance_within, CostModel, PreparedTree, TedEngine, TedTree, TedWorkspace,
};
use tsj_tree::{parse_bracket, LabelInterner, Tree};

fn random_tree(rng: &mut StdRng, min_size: usize, max_size: usize, labels: u32) -> Tree {
    let size = rng.gen_range(min_size..=max_size);
    let profile = ShapeProfile {
        max_fanout: 4,
        max_depth: 12,
        deepen_prob: rng.gen_range(0.0..0.8),
    };
    grow_tree(rng, size, labels, &profile)
}

/// Checks the bounded kernel against the oracle for τ in `0..=10`, at
/// `τ = max(|a|, |b|) − 1` (the largest τ that still prunes) and for τ
/// at or above both tree sizes, on both decompositions. One workspace
/// is shared by every call, so stale cells from earlier (differently
/// sized) computations are part of what is checked.
fn assert_matches_oracle(a: &Tree, b: &Tree, ws: &mut TedWorkspace) {
    let largest = a.len().max(b.len()) as u32;
    let taus = (0..=10u32).chain([largest - 1, largest, largest + 1, 1000]);
    for (ta, tb) in [
        (TedTree::new(a), TedTree::new(b)),
        (TedTree::mirrored(a), TedTree::mirrored(b)),
    ] {
        let exact = tree_distance(&ta, &tb, &CostModel::UNIT, ws);
        for tau in taus.clone() {
            let want = (exact <= tau).then_some(exact);
            let got = tree_distance_within(&ta, &tb, tau, ws);
            assert_eq!(
                got,
                want,
                "τ = {}, |a| = {}, |b| = {}, TED = {}",
                tau,
                a.len(),
                b.len(),
                exact
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Unrelated random trees, sizes close enough that the size check
    /// rarely decides the pair alone.
    #[test]
    fn bounded_matches_oracle_on_random_pairs(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_tree(&mut rng, 1, 24, 4);
        let b = random_tree(&mut rng, a.len().saturating_sub(4).max(1), a.len() + 4, 4);
        let mut ws = TedWorkspace::new();
        assert_matches_oracle(&a, &b, &mut ws);
        assert_matches_oracle(&b, &a, &mut ws);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Near-duplicates: a random tree of up to 160 nodes against the
    /// result of a random edit script of up to 12 operations, so the
    /// distance straddles every τ in `0..=10`.
    #[test]
    fn bounded_matches_oracle_on_near_duplicates(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_tree(&mut rng, 1, 160, 8);
        let k = rng.gen_range(0..=12usize);
        let (b, _) = random_edit_script(&a, k, &mut rng, 8);
        let mut ws = TedWorkspace::new();
        assert_matches_oracle(&a, &b, &mut ws);
    }
}

fn parse(specs: &[&str]) -> Vec<Tree> {
    let mut labels = LabelInterner::new();
    specs
        .iter()
        .map(|s| parse_bracket(s, &mut labels).unwrap())
        .collect()
}

#[test]
fn single_node_trees() {
    let trees = parse(&["{a}", "{b}", "{a{b}}", "{b{a}{c}}"]);
    let mut ws = TedWorkspace::new();
    for a in &trees {
        for b in &trees {
            assert_matches_oracle(a, b, &mut ws);
        }
    }
    let (a, b) = (TedTree::new(&trees[0]), TedTree::new(&trees[1]));
    assert_eq!(tree_distance_within(&a, &a, 0, &mut ws), Some(0));
    assert_eq!(tree_distance_within(&a, &b, 0, &mut ws), None);
    assert_eq!(tree_distance_within(&a, &b, 1, &mut ws), Some(1));
}

#[test]
fn tau_at_or_above_tree_size_returns_the_exact_distance() {
    // A path against a star of the same size: TED exceeds the size, so
    // even τ = |T| must report `None` while τ = TED reports the distance.
    let trees = parse(&["{a{b{c{d{e}}}}}", "{a{b}{c}{d}{e}}"]);
    let (a, b) = (TedTree::new(&trees[0]), TedTree::new(&trees[1]));
    let mut ws = TedWorkspace::new();
    let exact = tree_distance(&a, &b, &CostModel::UNIT, &mut ws);
    assert!(exact > 5, "path vs star should cost more than its size");
    assert_eq!(tree_distance_within(&a, &b, 5, &mut ws), None);
    assert_eq!(tree_distance_within(&a, &b, exact, &mut ws), Some(exact));
    assert_eq!(tree_distance_within(&a, &b, u32::MAX, &mut ws), Some(exact));
}

#[test]
fn engine_within_agrees_with_distance_for_every_strategy() {
    let mut rng = StdRng::seed_from_u64(7);
    let trees: Vec<Tree> = (0..12).map(|_| random_tree(&mut rng, 20, 40, 6)).collect();
    let prepared: Vec<PreparedTree> = trees.iter().map(PreparedTree::new).collect();
    for strategy in [
        tsj_ted::Strategy::Left,
        tsj_ted::Strategy::Right,
        tsj_ted::Strategy::Dynamic,
    ] {
        let mut exact = TedEngine::new(CostModel::UNIT, strategy);
        let mut bounded = TedEngine::new(CostModel::UNIT, strategy);
        for a in &prepared {
            for b in &prepared {
                let d = exact.distance(a, b);
                for tau in [0, 3, 10, 25] {
                    assert_eq!(
                        bounded.distance_within(a, b, tau),
                        (d <= tau).then_some(d),
                        "{strategy:?} τ = {tau}"
                    );
                }
            }
        }
    }
}
