//! The sharded batch self-join: Algorithm 1 with **parallel candidate
//! generation**.
//!
//! The sequential join interleaves probing and indexing — tree `T_i`
//! probes the index state left by trees processed before it — which pins
//! candidate generation to one core. This module de-interleaves the two:
//!
//! 1. **Build** (parallel): every δ-partitionable tree is partitioned and
//!    its subgraphs inserted into the [`ShardedIndex`] — shards ingest
//!    concurrently since each owns disjoint size classes.
//! 2. **Probe** (parallel): probing trees fan out over scoped worker
//!    threads, each probing the now-frozen shards covering
//!    `[|T_i| − τ, |T_i|]`. A surfaced container tree `T_j` is admitted
//!    only if its processing **rank** (position in the ascending
//!    `(size, index)` order) precedes `T_i`'s — exactly the set of trees
//!    the sequential join had indexed when `T_i` probed, so the candidate
//!    set per tree is *identical* and every unordered pair is still
//!    considered exactly once.
//! 3. **Verify**: candidate batches stream over the bounded channel to
//!    the same verifier pool as [`partsj::partsj_join_parallel`] — one
//!    [`partsj::VerifyEngine`] filter chain per worker in front of exact
//!    TED.
//!
//! Result pairs are bit-identical to [`partsj::partsj_join`] for every
//! shard count and thread count (asserted across the property suite).

use crate::index::{balanced_map_for, ShardConfig, ShardedIndex};
use crossbeam::channel;
use partsj::join::PartSjDetail;
use partsj::partition::cuts_for;
use partsj::probe::{CandidateSink, ProbeCounters};
use partsj::subgraph::{build_subgraphs, Subgraph};
use partsj::{LayerId, MatchCache, PartSjConfig, VerifyData, VerifyEngine};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use tsj_ted::{JoinOutcome, JoinStats, TreeIdx};
use tsj_tree::{BinaryTree, FxHashMap, Tree};

/// Probe trees claimed per cursor bump — small enough to balance the
/// skew of ascending-size order, large enough to amortize the atomic.
const CLAIM_CHUNK: usize = 4;

/// Admits a container tree only if it precedes the probing tree in
/// processing rank (and is not already a candidate of this probe).
struct RankSink<'a> {
    stamp: &'a mut [TreeIdx],
    marker: TreeIdx,
    rank: &'a [u32],
    my_rank: u32,
    candidates: &'a mut Vec<TreeIdx>,
}

impl CandidateSink for RankSink<'_> {
    #[inline]
    fn admit(&mut self, tree: TreeIdx) -> bool {
        self.rank[tree as usize] < self.my_rank && self.stamp[tree as usize] != self.marker
    }

    #[inline]
    fn accept(&mut self, tree: TreeIdx) {
        self.stamp[tree as usize] = self.marker;
        self.candidates.push(tree);
    }
}

/// Sharded PartSJ self-join with the default shard configuration.
pub fn sharded_join(
    trees: &[Tree],
    tau: u32,
    config: &PartSjConfig,
    shard_cfg: &ShardConfig,
) -> JoinOutcome {
    sharded_join_detailed(trees, tau, config, shard_cfg).0
}

/// Sharded PartSJ self-join, also returning the probe instrumentation
/// (the same [`PartSjDetail`] the sequential join reports).
pub fn sharded_join_detailed(
    trees: &[Tree],
    tau: u32,
    config: &PartSjConfig,
    shard_cfg: &ShardConfig,
) -> (JoinOutcome, PartSjDetail) {
    let delta = 2 * tau as usize + 1;
    let mut stats = JoinStats::default();
    let mut detail = PartSjDetail::default();
    let total_start = Instant::now();

    let probe_threads = shard_cfg.resolved_probe_threads();
    let verify_threads = shard_cfg.resolved_verify_threads();

    // Shared read-only preprocessing.
    let binaries: Vec<BinaryTree> = trees.iter().map(BinaryTree::from_tree).collect();
    let general_posts: Vec<Vec<u32>> = trees.iter().map(Tree::postorder_numbers).collect();
    let data: Vec<VerifyData> = VerifyData::batch_for_config(trees, &config.verify);
    let mut order: Vec<TreeIdx> = (0..trees.len() as TreeIdx).collect();
    order.sort_by_key(|&i| (trees[i as usize].len(), i));
    let mut rank: Vec<u32> = vec![0; trees.len()];
    for (r, &i) in order.iter().enumerate() {
        rank[i as usize] = r as u32;
    }

    // Build phase: partition every δ-partitionable tree (fanned out over
    // scoped threads), then bulk-load the shards.
    let mut lists = build_subgraph_lists(
        trees,
        &binaries,
        &general_posts,
        delta,
        config,
        probe_threads,
    );
    let mut small_by_size: FxHashMap<u32, Vec<TreeIdx>> = FxHashMap::default();
    let mut items: Vec<(TreeIdx, u32, Vec<Subgraph>)> = Vec::new();
    // Walk in processing order so shard-local insertion order (and the
    // small side lists) match the sequential join's.
    for &i in &order {
        let size = trees[i as usize].len() as u32;
        match lists[i as usize].take() {
            Some(subgraphs) => {
                detail.subgraphs_built += subgraphs.len() as u64;
                items.push((i, size, subgraphs));
            }
            None => small_by_size.entry(size).or_default().push(i),
        }
    }
    // Batch joins never remove trees: skip the compaction replay log
    // (halves build memory, moves instead of cloning every posting).
    let mut index = ShardedIndex::new(tau, config.window, shard_cfg).without_replay();
    if config.adaptive.balanced_shards {
        // Routing moves postings between shards, never changes which
        // exist — results stay bit-identical to the hash map.
        index
            .set_shard_map(balanced_map_for(&items, index.shard_count()))
            .expect("empty index accepts a validated map");
    }
    index.insert_all(items, probe_threads > 1);
    detail.index_registrations = index.live_postings();

    let parallel = probe_threads > 1 && trees.len() >= config.parallel_fallback;
    if !parallel {
        // Inline probe + verify (still sharded — same index, same rank
        // filter — just no thread pools).
        let mut verify = VerifyEngine::new(tau, config);
        let mut pairs: Vec<(TreeIdx, TreeIdx)> = Vec::new();
        let mut stamp: Vec<TreeIdx> = vec![TreeIdx::MAX; trees.len()];
        let mut caches: Vec<MatchCache> = (0..index.shard_count())
            .map(|_| MatchCache::new())
            .collect();
        let mut shard_scratch: Vec<usize> = Vec::new();
        let mut layer_scratch: Vec<LayerId> = Vec::new();
        let mut candidates: Vec<TreeIdx> = Vec::new();
        let mut counters = ProbeCounters::default();
        let mut candidate_time = total_start.elapsed();

        for &i in &order {
            let probe_start = Instant::now();
            let size_i = trees[i as usize].len() as u32;
            let lo = size_i.saturating_sub(tau).max(1);
            candidates.clear();
            detail.small_tree_candidates += admit_small(
                &small_by_size,
                lo,
                size_i,
                &rank,
                i,
                &mut stamp,
                &mut candidates,
            );
            let mut sink = RankSink {
                stamp: &mut stamp,
                marker: i,
                rank: &rank,
                my_rank: rank[i as usize],
                candidates: &mut candidates,
            };
            index.probe_tree(
                &binaries[i as usize],
                &general_posts[i as usize],
                size_i,
                lo,
                size_i,
                config.matching,
                &mut caches,
                &mut shard_scratch,
                &mut layer_scratch,
                &mut counters,
                &mut sink,
            );
            stats.candidates += candidates.len() as u64;
            candidate_time += probe_start.elapsed();

            let verify_start = Instant::now();
            for &j in &candidates {
                if verify.check(&data[i as usize], &data[j as usize]).is_some() {
                    pairs.push((j, i));
                }
            }
            stats.verify_time += verify_start.elapsed();
        }
        detail.probes = counters.probes;
        detail.match_attempts = counters.match_attempts;
        detail.matches = counters.matches;
        stats.pairs_examined = stats.candidates;
        stats.candidate_time = candidate_time;
        verify.fold_into(&mut stats);
        return (JoinOutcome::new(pairs, stats), detail);
    }

    // Parallel probe + verify: probe workers claim trees off a shared
    // cursor and stream candidate batches to the verifier pool.
    let batch_size = config.verify_batch.max(1);
    let (tx, rx) = channel::bounded::<Vec<(TreeIdx, TreeIdx)>>(verify_threads * 4);
    let cursor = AtomicUsize::new(0);
    let index_ref = &index;
    let (pairs, candidates_total, small_candidates, counters, engines, probe_wall) =
        crossbeam::scope(|scope| {
            let verifiers: Vec<_> = (0..verify_threads)
                .map(|_| {
                    let rx = rx.clone();
                    let data = &data;
                    scope.spawn(move |_| {
                        // One filter-chain engine per verify worker.
                        let mut verify = VerifyEngine::new(tau, config);
                        let mut found = Vec::new();
                        while let Ok(batch) = rx.recv() {
                            for (i, j) in batch {
                                let (i, j) = (i as usize, j as usize);
                                if verify.check(&data[i], &data[j]).is_some() {
                                    found.push((j as TreeIdx, i as TreeIdx));
                                }
                            }
                        }
                        (found, verify)
                    })
                })
                .collect();
            drop(rx);

            let probers: Vec<_> = (0..probe_threads)
                .map(|_| {
                    let tx = tx.clone();
                    let cursor = &cursor;
                    let order = &order;
                    let rank = &rank;
                    let binaries = &binaries;
                    let general_posts = &general_posts;
                    let small_by_size = &small_by_size;
                    scope.spawn(move |_| {
                        let mut stamp: Vec<TreeIdx> = vec![TreeIdx::MAX; trees.len()];
                        let mut caches: Vec<MatchCache> = (0..index_ref.shard_count())
                            .map(|_| MatchCache::new())
                            .collect();
                        let mut shard_scratch: Vec<usize> = Vec::new();
                        let mut layer_scratch: Vec<LayerId> = Vec::new();
                        let mut candidates: Vec<TreeIdx> = Vec::new();
                        let mut counters = ProbeCounters::default();
                        let mut batch: Vec<(TreeIdx, TreeIdx)> = Vec::with_capacity(batch_size);
                        let mut candidates_total = 0u64;
                        let mut small_candidates = 0u64;
                        loop {
                            let start = cursor.fetch_add(CLAIM_CHUNK, Ordering::Relaxed);
                            if start >= order.len() {
                                break;
                            }
                            for &i in &order[start..(start + CLAIM_CHUNK).min(order.len())] {
                                let size_i = trees[i as usize].len() as u32;
                                let lo = size_i.saturating_sub(tau).max(1);
                                candidates.clear();
                                small_candidates += admit_small(
                                    small_by_size,
                                    lo,
                                    size_i,
                                    rank,
                                    i,
                                    &mut stamp,
                                    &mut candidates,
                                );
                                let mut sink = RankSink {
                                    stamp: &mut stamp,
                                    marker: i,
                                    rank,
                                    my_rank: rank[i as usize],
                                    candidates: &mut candidates,
                                };
                                index_ref.probe_tree(
                                    &binaries[i as usize],
                                    &general_posts[i as usize],
                                    size_i,
                                    lo,
                                    size_i,
                                    config.matching,
                                    &mut caches,
                                    &mut shard_scratch,
                                    &mut layer_scratch,
                                    &mut counters,
                                    &mut sink,
                                );
                                candidates_total += candidates.len() as u64;
                                for &j in &candidates {
                                    batch.push((i, j));
                                    if batch.len() >= batch_size {
                                        let full = std::mem::replace(
                                            &mut batch,
                                            Vec::with_capacity(batch_size),
                                        );
                                        tx.send(full).expect("verifier pool alive");
                                    }
                                }
                            }
                        }
                        if !batch.is_empty() {
                            tx.send(batch).expect("verifier pool alive");
                        }
                        (candidates_total, small_candidates, counters)
                    })
                })
                .collect();
            drop(tx);

            let mut candidates_total = 0u64;
            let mut small_candidates = 0u64;
            let mut counters = ProbeCounters::default();
            for prober in probers {
                let (c, s, k) = prober.join().expect("probe worker panicked");
                candidates_total += c;
                small_candidates += s;
                counters += k;
            }
            // Probe side done: everything after this instant is pure
            // verification drain.
            let probe_wall = total_start.elapsed();

            let mut pairs = Vec::new();
            let mut engines = Vec::new();
            for verifier in verifiers {
                let (found, engine) = verifier.join().expect("verifier panicked");
                pairs.extend(found);
                engines.push(engine);
            }
            (
                pairs,
                candidates_total,
                small_candidates,
                counters,
                engines,
                probe_wall,
            )
        })
        .expect("sharded join scope");

    detail.probes = counters.probes;
    detail.match_attempts = counters.match_attempts;
    detail.matches = counters.matches;
    detail.small_tree_candidates = small_candidates;
    stats.candidates = candidates_total;
    stats.pairs_examined = candidates_total;
    for engine in &engines {
        engine.fold_into(&mut stats);
    }
    // Probe and verify overlap; wall time until the probe workers drained
    // counts as candidate generation, the verifier-drain tail as verify —
    // the same attribution as `partsj::partsj_join_parallel`.
    stats.candidate_time = probe_wall;
    stats.verify_time = total_start.elapsed().saturating_sub(probe_wall);
    (JoinOutcome::new(pairs, stats), detail)
}

/// Admits the side-listed small trees of sizes `[lo, hi]` that precede
/// probe `i` in rank; returns how many were admitted.
fn admit_small(
    small_by_size: &FxHashMap<u32, Vec<TreeIdx>>,
    lo: u32,
    hi: u32,
    rank: &[u32],
    i: TreeIdx,
    stamp: &mut [TreeIdx],
    candidates: &mut Vec<TreeIdx>,
) -> u64 {
    let my_rank = rank[i as usize];
    let mut admitted = 0;
    for n in lo..=hi {
        if let Some(list) = small_by_size.get(&n) {
            for &j in list {
                if rank[j as usize] < my_rank && stamp[j as usize] != i {
                    stamp[j as usize] = i;
                    candidates.push(j);
                    admitted += 1;
                }
            }
        }
    }
    admitted
}

/// Partitions every δ-partitionable tree into its subgraph list (`None`
/// for side-listed small trees), fanning the per-tree work out over
/// `threads` scoped workers. Shared by both batch joins and
/// `tsj-catalog`'s freeze — `delta = 2τ + 1` and the `binaries`/
/// `general_posts` slices must be index-aligned with `trees`.
pub fn build_subgraph_lists(
    trees: &[Tree],
    binaries: &[BinaryTree],
    general_posts: &[Vec<u32>],
    delta: usize,
    config: &PartSjConfig,
    threads: usize,
) -> Vec<Option<Vec<Subgraph>>> {
    let build_one = |i: usize| -> Option<Vec<Subgraph>> {
        if trees[i].len() < delta {
            return None;
        }
        let cuts = cuts_for(&binaries[i], delta, config.partitioning, i as u64);
        Some(build_subgraphs(
            &binaries[i],
            &general_posts[i],
            &cuts,
            i as TreeIdx,
        ))
    };
    if threads <= 1 || trees.len() < 2 * threads {
        return (0..trees.len()).map(build_one).collect();
    }
    let mut lists: Vec<Option<Vec<Subgraph>>> = vec![None; trees.len()];
    let chunk = trees.len().div_ceil(threads);
    crossbeam::scope(|scope| {
        for (c, slot) in lists.chunks_mut(chunk).enumerate() {
            let base = c * chunk;
            scope.spawn(move |_| {
                for (off, out) in slot.iter_mut().enumerate() {
                    *out = build_one(base + off);
                }
            });
        }
    })
    .expect("partition scope");
    lists
}
