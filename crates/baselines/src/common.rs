//! Shared join plumbing: size-ordered nested loop with a sliding size
//! window, split-phase timing, and exact-TED verification.
//!
//! Both baselines (and the brute-force ground truth) follow the same outer
//! structure the paper describes in §1/§2: iterate tree pairs in a nested
//! loop, prune with the size filter (`||T1|−|T2|| ≤ τ`, footnote 5), apply
//! a method-specific filter, and verify surviving candidates with exact
//! TED. Sorting by size turns the size filter into a sliding window, so
//! only `O(window)` pairs are touched per probe tree.

use std::time::Instant;
use tsj_ted::{JoinOutcome, JoinStats, PreparedTree, TedBuildScratch, TedEngine, TreeIdx};
use tsj_tree::Tree;

/// Probe order and sizes for a size-sorted self-join.
#[derive(Debug)]
pub struct SizeOrder {
    /// Tree indices sorted by ascending tree size (ties by index).
    pub order: Vec<TreeIdx>,
    /// `sizes[i]` = size of tree `i` (original indexing).
    pub sizes: Vec<u32>,
}

impl SizeOrder {
    /// Computes the ascending size order of `trees`.
    pub fn new(trees: &[Tree]) -> SizeOrder {
        let sizes: Vec<u32> = trees.iter().map(|t| t.len() as u32).collect();
        let mut order: Vec<TreeIdx> = (0..trees.len() as TreeIdx).collect();
        order.sort_by_key(|&i| (sizes[i as usize], i));
        SizeOrder { order, sizes }
    }
}

/// Runs a filter-and-verify self-join.
///
/// `prepare` is called once (timed as candidate generation) to build the
/// method's per-tree structures `T`; `filter` then decides, for a pair that
/// already passed the size window, whether it becomes a candidate.
/// Candidates are verified with the τ-bounded exact TED of
/// [`TedEngine::within`] (dynamic strategy) — the same leaf PartSJ's
/// verify chain ends in, so method comparisons measure the filters.
pub fn filter_verify_join<T, P, F>(
    trees: &[Tree],
    tau: u32,
    prepare: P,
    mut filter: F,
) -> JoinOutcome
where
    P: FnOnce() -> T,
    F: FnMut(&T, usize, usize) -> bool,
{
    let mut stats = JoinStats::default();

    let setup_start = Instant::now();
    let prep_data = prepare();
    let ordering = SizeOrder::new(trees);
    // One set of build temporaries across the whole collection.
    let mut build = TedBuildScratch::default();
    let prepared: Vec<PreparedTree> = trees
        .iter()
        .map(|t| PreparedTree::new_with(t, &mut build))
        .collect();
    stats.candidate_time += setup_start.elapsed();

    let mut engine = TedEngine::unit();
    let mut pairs = Vec::new();
    let mut candidates: Vec<TreeIdx> = Vec::new();
    let mut window_start = 0usize;

    for (pos, &probe) in ordering.order.iter().enumerate() {
        let probe_size = ordering.sizes[probe as usize];

        let cand_start = Instant::now();
        candidates.clear();
        while ordering.sizes[ordering.order[window_start] as usize] + tau < probe_size {
            window_start += 1;
        }
        for &other in &ordering.order[window_start..pos] {
            stats.pairs_examined += 1;
            if filter(&prep_data, probe as usize, other as usize) {
                candidates.push(other);
            }
        }
        stats.candidates += candidates.len() as u64;
        stats.candidate_time += cand_start.elapsed();

        let verify_start = Instant::now();
        for &other in &candidates {
            let (p, o) = (&prepared[probe as usize], &prepared[other as usize]);
            if engine.within(p, o, tau).is_some() {
                pairs.push((other, probe));
            }
        }
        stats.verify_time += verify_start.elapsed();
    }

    stats.ted_calls = engine.computations();
    JoinOutcome::new(pairs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_tree::{parse_bracket, LabelInterner};

    fn collection(specs: &[&str]) -> Vec<Tree> {
        let mut labels = LabelInterner::new();
        specs
            .iter()
            .map(|s| parse_bracket(s, &mut labels).unwrap())
            .collect()
    }

    #[test]
    fn size_order_sorts_ascending() {
        let trees = collection(&["{a{b}{c}}", "{a}", "{a{b}}"]);
        let ordering = SizeOrder::new(&trees);
        assert_eq!(ordering.order, vec![1, 2, 0]);
        assert_eq!(ordering.sizes, vec![3, 1, 2]);
    }

    #[test]
    fn pass_through_filter_finds_all_close_pairs() {
        let trees = collection(&["{a{b}}", "{a{b}}", "{a{c}}", "{z{y}{x}{w}{v}}"]);
        let outcome = filter_verify_join(&trees, 1, || (), |_, _, _| true);
        assert_eq!(outcome.pairs, vec![(0, 1), (0, 2), (1, 2)]);
        // The size window must exclude the 5-node tree vs 2-node trees.
        assert_eq!(outcome.stats.pairs_examined, 3);
    }

    #[test]
    fn rejecting_filter_yields_nothing() {
        let trees = collection(&["{a}", "{a}", "{a}"]);
        let outcome = filter_verify_join(&trees, 2, || (), |_, _, _| false);
        assert!(outcome.pairs.is_empty());
        assert_eq!(outcome.stats.candidates, 0);
        assert_eq!(outcome.stats.ted_calls, 0);
        assert_eq!(outcome.stats.pairs_examined, 3);
    }

    #[test]
    fn window_respects_tau() {
        // Sizes 1, 3, 5: with tau=1 no pair is examined; tau=2 adjacent.
        let trees = collection(&["{a}", "{a{b}{c}}", "{a{b}{c}{d}{e}}"]);
        let t1 = filter_verify_join(&trees, 1, || (), |_, _, _| true);
        assert_eq!(t1.stats.pairs_examined, 0);
        let t2 = filter_verify_join(&trees, 2, || (), |_, _, _| true);
        assert_eq!(t2.stats.pairs_examined, 2);
    }
}
