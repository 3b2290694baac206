//! The shared candidate-generation probe loop.
//!
//! Every index consumer — the batch join ([`crate::join`]), the parallel
//! variant ([`crate::parallel`]), the bipartite join ([`crate::rs_join`]),
//! the streaming join ([`crate::streaming`]) and similarity search
//! ([`crate::search`]) — runs the same inner loop of Algorithm 1: walk the
//! probing tree's LC-RS nodes, compute the up-to-four [`TwigKeys`] once
//! per node, probe every size layer of the resolved window, and match
//! surfaced subgraphs at the node. What differs is only *bookkeeping*:
//! how a consumer deduplicates container trees and where it records
//! accepted candidates. [`probe_tree_nodes`] owns the loop;
//! [`CandidateSink`] abstracts the bookkeeping.
//!
//! Centralizing the loop keeps the hoisting discipline of PR 2 (size
//! layers resolved once per tree, twig keys once per node, match verdicts
//! memoized per node across layers) in exactly one place — and lets the
//! sharded index (`tsj-shard`) drive the identical loop against each
//! shard's private [`SubgraphIndex`].

use crate::config::MatchSemantics;
use crate::index::{LayerId, MatchCache, SubgraphIndex, TwigKeys};
use tsj_ted::TreeIdx;
use tsj_tree::{BinaryTree, Label, NodeId, Tree};

/// Reusable probe-tree preparation: one LC-RS representation and one
/// general-postorder array, rebuilt in place per probing tree. All
/// buffers are grow-only, so a serving or join loop that prepares a
/// stream of probes through one scratch allocates nothing once the
/// buffers fit the largest tree seen.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    binary: Option<BinaryTree>,
    posts: Vec<u32>,
    walk: Vec<(NodeId, usize)>,
}

impl ProbeScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> ProbeScratch {
        ProbeScratch::default()
    }

    /// Prepares `tree` for probing, returning its LC-RS form and its
    /// 1-based general-postorder numbers (the two hoisted inputs of
    /// [`probe_tree_nodes`]). Results are valid until the next call.
    pub fn prepare(&mut self, tree: &Tree) -> (&BinaryTree, &[u32]) {
        match &mut self.binary {
            Some(binary) => binary.rebuild_from(tree),
            None => self.binary = Some(BinaryTree::from_tree(tree)),
        }
        tree.postorder_numbers_into(&mut self.posts, &mut self.walk);
        (self.binary.as_ref().expect("prepared above"), &self.posts)
    }
}

/// Consumer-side bookkeeping for one probing tree.
///
/// `admit` is the cheap pre-match gate (stamp/alive/order checks) applied
/// to every surfaced handle *before* the component walk; `accept` records
/// a successful subgraph match (stamp the pair, push the candidate).
pub trait CandidateSink {
    /// Whether `tree` is still an interesting container for the current
    /// probe — `false` skips the match attempt entirely (already a
    /// candidate, removed from a dynamic index, or filtered by the
    /// caller's processing order).
    fn admit(&mut self, tree: TreeIdx) -> bool;

    /// Called once per newly matched container tree (a subgraph of `tree`
    /// embeds at the current probe node).
    fn accept(&mut self, tree: TreeIdx);
}

/// Probe-side work counters, accumulated across calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounters {
    /// Index probes issued (node × populated size-layer combinations).
    pub probes: u64,
    /// Subgraph match attempts (admitted handles surfaced by the index).
    pub match_attempts: u64,
    /// Match attempts that succeeded.
    pub matches: u64,
    /// Probes that passed the layer's twig-presence filter and went on to
    /// read a position bucket (at most `probes`).
    pub bucket_reads: u64,
}

impl std::ops::AddAssign for ProbeCounters {
    fn add_assign(&mut self, other: ProbeCounters) {
        self.probes += other.probes;
        self.match_attempts += other.match_attempts;
        self.matches += other.matches;
        self.bucket_reads += other.bucket_reads;
    }
}

/// The container-size window a probe of `size` nodes must visit at
/// threshold `tau`: `[max(size − τ, 1), size + τ]`. Every consumer —
/// batch joins, point queries, the frozen catalog and the cluster
/// router — derives its probed size classes from this one definition,
/// so candidate generation cannot drift between entry points.
#[inline]
pub fn window_of(size: u32, tau: u32) -> (u32, u32) {
    (size.saturating_sub(tau).max(1), size + tau)
}

/// Resolves the populated size layers of `[lo, hi]` into `out` (cleared
/// first). Resolve once per probing tree; every node then walks the same
/// slice instead of re-querying the size map.
#[inline]
pub fn resolve_layers(index: &SubgraphIndex, lo: u32, hi: u32, out: &mut Vec<LayerId>) {
    out.clear();
    out.extend((lo..=hi).filter_map(|n| index.layer_id(n)));
}

/// Probes every node of `binary` against the resolved `layer_window` of
/// `index` — one full iteration of Algorithm 1's inner loop.
///
/// `posts` maps node ids to 1-based *general-tree* postorder numbers
/// ([`tsj_tree::Tree::postorder_numbers`]) and `probe_size` is the probing
/// tree's node count (both feed [`SubgraphIndex::probe_position`]).
/// `cache` memoizes per-node match verdicts; it is reset per node here,
/// so a caller-owned cache can be reused across trees.
#[allow(clippy::too_many_arguments)] // one hot loop, all parts hoisted by callers
pub fn probe_tree_nodes<S: CandidateSink>(
    index: &SubgraphIndex,
    layer_window: &[LayerId],
    binary: &BinaryTree,
    posts: &[u32],
    probe_size: u32,
    matching: MatchSemantics,
    cache: &mut MatchCache,
    counters: &mut ProbeCounters,
    sink: &mut S,
) {
    if layer_window.is_empty() {
        return;
    }
    for node in binary.node_ids() {
        let label = binary.label(node);
        let left = binary
            .left(node)
            .map_or(Label::EPSILON, |c| binary.label(c));
        let right = binary
            .right(node)
            .map_or(Label::EPSILON, |c| binary.label(c));
        let keys = TwigKeys::new(label, left, right);
        cache.begin_node();
        let position = index.probe_position(posts[node.index()], probe_size);
        for &layer in layer_window {
            counters.probes += 1;
            let read = index.layer(layer).probe(position, &keys, |handle| {
                let tree = index.tree_of(handle);
                if !sink.admit(tree) {
                    return;
                }
                counters.match_attempts += 1;
                if index.matches_at(handle, binary, node, matching, cache) {
                    counters.matches += 1;
                    sink.accept(tree);
                }
            });
            counters.bucket_reads += u64::from(read);
        }
    }
}

/// The ubiquitous sink: a stamp array deduplicates container trees per
/// probing tree (stamp value = probe marker) and accepted candidates are
/// pushed to a list. Used by the batch, streaming and bipartite joins;
/// consumers with extra bookkeeping (batched channel sends, order
/// filters, liveness checks) wrap their own [`CandidateSink`].
#[derive(Debug)]
pub struct StampSink<'a> {
    /// `stamp[j] == marker` ⇔ tree `j` is already a candidate of the
    /// current probe.
    pub stamp: &'a mut [TreeIdx],
    /// Marker of the current probing tree (any value unique to it).
    pub marker: TreeIdx,
    /// Accepted candidates, in discovery order.
    pub candidates: &'a mut Vec<TreeIdx>,
}

impl CandidateSink for StampSink<'_> {
    #[inline]
    fn admit(&mut self, tree: TreeIdx) -> bool {
        self.stamp[tree as usize] != self.marker
    }

    #[inline]
    fn accept(&mut self, tree: TreeIdx) {
        self.stamp[tree as usize] = self.marker;
        self.candidates.push(tree);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PartSjConfig, WindowPolicy};
    use crate::partition::cuts_for;
    use crate::subgraph::build_subgraphs;
    use tsj_tree::{parse_bracket, LabelInterner, Tree};

    fn probe_candidates(index: &SubgraphIndex, tree: &Tree, lo: u32, hi: u32) -> Vec<TreeIdx> {
        probe_counted(index, tree, lo, hi).0
    }

    fn probe_counted(
        index: &SubgraphIndex,
        tree: &Tree,
        lo: u32,
        hi: u32,
    ) -> (Vec<TreeIdx>, ProbeCounters) {
        let binary = BinaryTree::from_tree(tree);
        let posts = tree.postorder_numbers();
        let mut layers = Vec::new();
        resolve_layers(index, lo, hi, &mut layers);
        let mut stamp = vec![TreeIdx::MAX; 16];
        let mut candidates = Vec::new();
        let mut sink = StampSink {
            stamp: &mut stamp,
            marker: 7,
            candidates: &mut candidates,
        };
        let mut cache = MatchCache::new();
        let mut counters = ProbeCounters::default();
        probe_tree_nodes(
            index,
            &layers,
            &binary,
            &posts,
            tree.len() as u32,
            MatchSemantics::Exact,
            &mut cache,
            &mut counters,
            &mut sink,
        );
        assert!(counters.match_attempts >= counters.matches);
        assert!(counters.bucket_reads <= counters.probes);
        candidates.sort_unstable();
        (candidates, counters)
    }

    /// An index over `sources`, one tree id per source, at `tau`.
    fn index_over(sources: &[&str], tau: u32, labels: &mut LabelInterner) -> SubgraphIndex {
        let config = PartSjConfig::default();
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        for (i, src) in sources.iter().enumerate() {
            let tree = parse_bracket(src, labels).unwrap();
            let binary = BinaryTree::from_tree(&tree);
            let cuts = cuts_for(&binary, 2 * tau as usize + 1, config.partitioning, i as u64);
            let sgs = build_subgraphs(&binary, &tree.postorder_numbers(), &cuts, i as TreeIdx);
            index.insert_tree(tree.len() as u32, sgs);
        }
        index
    }

    #[test]
    fn disjoint_alphabets_read_no_bucket() {
        let mut labels = LabelInterner::new();
        let tau = 1;
        let index = index_over(
            &[
                "{a{b{c}{d}}{e}{f}}",
                "{a{b}{c{d}{e}}{f}}",
                "{b{a}{c}{d{e}{f}}}",
            ],
            tau,
            &mut labels,
        );
        let probe = parse_bracket("{p{q{r}{s}}{t}{u}}", &mut labels).unwrap();
        let n = probe.len() as u32;
        let (found, counters) = probe_counted(&index, &probe, n - tau, n + tau);
        assert!(found.is_empty());
        assert!(counters.probes > 0);
        assert_eq!(counters.bucket_reads, 0, "{counters:?}");
        // The index's own trees do read buckets.
        let own = parse_bracket("{a{b{c}{d}}{e}{f}}", &mut labels).unwrap();
        let (found, counters) = probe_counted(&index, &own, n - tau, n + tau);
        assert!(found.contains(&0));
        assert!(counters.bucket_reads > 0);
    }

    #[test]
    fn counters_add_field_by_field() {
        let mut total = ProbeCounters {
            probes: 1,
            match_attempts: 2,
            matches: 3,
            bucket_reads: 4,
        };
        total += total;
        assert_eq!(
            total,
            ProbeCounters {
                probes: 2,
                match_attempts: 4,
                matches: 6,
                bucket_reads: 8,
            }
        );
    }

    #[test]
    fn stamp_sink_dedups_and_collects() {
        let mut labels = LabelInterner::new();
        let tau = 1;
        let index = index_over(
            &["{a{b}{c}{d}}", "{a{b}{c}{e}}", "{z{y}{x}{w}}"],
            tau,
            &mut labels,
        );
        let probe = parse_bracket("{a{b}{c}{d}}", &mut labels).unwrap();
        let n = probe.len() as u32;
        let found = probe_candidates(&index, &probe, n.saturating_sub(tau).max(1), n + tau);
        // Tree 0 is identical, tree 1 one rename away: both share subgraphs.
        assert!(found.contains(&0));
        assert!(found.contains(&1));
        // Deduplicated: each candidate appears once.
        let mut dedup = found.clone();
        dedup.dedup();
        assert_eq!(found, dedup);
    }

    #[test]
    fn empty_window_probes_nothing() {
        let mut labels = LabelInterner::new();
        let index = SubgraphIndex::new(1, WindowPolicy::Safe);
        let probe = parse_bracket("{a{b}}", &mut labels).unwrap();
        assert!(probe_candidates(&index, &probe, 1, 3).is_empty());
    }
}
