//! The on-the-fly two-layer subgraph index (§3.4), in dense,
//! cache-friendly storage.
//!
//! Subgraphs are first grouped by their container tree's size `n` (the
//! inverted size index `I_n` of Algorithm 1), then by *postorder group*
//! (layer 1) and finally by *label twig* (layer 2). The logical structure
//! is the paper's; the physical layout is flat:
//!
//! * **Size layer.** `I_n` is one [`PostorderLayer`] per distinct
//!   container size, resolved through a single small hash map — once per
//!   *probing tree* (via [`SubgraphIndex::layer_id`]), not once per
//!   node×size as a nested-map design would.
//! * **Postorder layer.** Position keys are bounded by the container tree
//!   size (plus the window half-width), so the layer is a flat `Vec` of
//!   position buckets indexed directly by key — no hashing. Subgraph `s_k`
//!   with window half-width `∆′` (policy-dependent, see `WindowPolicy`) is
//!   registered under every key in `[pos_k − ∆′, pos_k + ∆′]`, where
//!   `pos_k` is the subgraph root's *general-tree* postorder position — as
//!   a suffix (`n − p_k`, edit-stable and provably sound) or absolute
//!   (`p_k`, the paper's literal text) coordinate. A probe node with
//!   position `p` reads exactly one bucket: index `p`.
//! * **Label twig layer.** A bucket is a compact array of
//!   `(twig, handle)` postings kept sorted by packed root twig
//!   `(ℓ, ℓ_left, ℓ_right)` (`ε` for bridges and absences). A probe with
//!   twig `(ℓ, ℓ_l, ℓ_r)` matches up to four keys — `ℓℓ_lℓ_r`, `ℓℓ_lε`,
//!   `ℓεℓ_r`, `ℓεε`, the keys whose subgraphs can still embed at the node
//!   (precomputed once per node as [`TwigKeys`]). Small buckets are
//!   scanned linearly in one pass over contiguous memory; large buckets
//!   binary-search each key's posting run.
//! * **Twig-presence filter.** Each layer also keeps a blocked Bloom
//!   filter over the root twigs of every subgraph it holds, at any
//!   position. A probe tests its keys' filter bits (hashed once per node
//!   in [`TwigKeys`]) before it touches the bucket, and returns at once
//!   when no key can be present: most (node, size layer) probes are such
//!   misses. A present key always tests present, so every probe visits
//!   exactly the handles, in exactly the order, that the bucket scan
//!   alone would. The filter is sized from the layer's content (at least
//!   16 bits per subgraph, rounded up to a power of two), doubled and
//!   rebuilt as the layer grows, and rebuilt by
//!   [`SubgraphIndex::restore`]; it is never serialized.
//!
//! The index owns the subgraph pool in struct-of-arrays form: per-handle
//! metadata ([`SubgraphMeta`]) in one `Vec`, component shapes *interned*
//! into a deduplicated table (`Component`), and all component nodes
//! flattened into a single [`SgNode`] arena, so `probe → matches_at`
//! walks contiguous memory instead of chasing one boxed slice per
//! subgraph.
//!
//! Interning is what makes verification scale on near-duplicate
//! collections — the workload similarity joins exist for: structurally
//! identical subgraphs from different container trees share one
//! [`ComponentId`], and the probe loop memoizes match verdicts per
//! component in a [`MatchCache`], so a component surfaced by `k` trees at
//! a node is walked once, not `k` times.

use crate::config::{MatchSemantics, WindowPolicy};
use crate::subgraph::{nodes_match_at, SgNode, Subgraph, TreeIdx};
use tsj_tree::{pack_twig, BinaryTree, FxHashMap, Label, NodeId, Side};

/// Handle into the index's subgraph pool.
pub type SubgraphHandle = u32;

/// Handle to a resolved per-size [`PostorderLayer`]. Plain data (no
/// borrow), so consumers can cache the layer ids of a probe window in a
/// scratch buffer that survives index insertions.
pub type LayerId = u32;

/// Buckets at or below this size are scanned linearly (one pass matching
/// all twig keys at once); larger buckets binary-search per key.
const LINEAR_SCAN_MAX: usize = 16;

/// One registration: a subgraph handle filed under its packed root twig.
#[derive(Debug, Clone, Copy)]
struct Posting {
    twig: u64,
    handle: SubgraphHandle,
}

/// Twig-presence filter bits per subgraph registered in a layer (the
/// lower bound; the word count is rounded up to a power of two).
const FILTER_BITS_PER_SUBGRAPH: usize = 16;

/// Smallest filter, in 64-bit words: one cache line.
const FILTER_MIN_WORDS: usize = 8;

/// Bits set per key within its filter word. With four, the probes that
/// pass the filter were 1.05× the probes whose layer truly holds a key
/// on a 4000-tree, 160-node, τ = 5 synthetic self-join, and 1.10× on a
/// 20k-tree Swissprot-like τ = 2 catalog; two bits let 1.23× and 1.52×
/// through.
const FILTER_BITS_PER_KEY: u64 = 4;

/// Where one twig key lands in a [`TwigFilter`] of any size: the high
/// half of its hash picks the word (masked to the filter's power-of-two
/// word count), the low 24 bits pick up to four bits within that word. It
/// depends on the key alone, so a probe node computes it once and reuses
/// it against every layer and every shard.
#[derive(Debug, Clone, Copy)]
struct FilterSlot {
    word: u32,
    bits: u64,
}

impl FilterSlot {
    #[inline]
    fn of(twig: u64) -> FilterSlot {
        FilterSlot::from_hash(twig_hash(twig))
    }

    #[inline]
    fn from_hash(h: u64) -> FilterSlot {
        FilterSlot {
            word: (h >> 32) as u32,
            bits: (0..FILTER_BITS_PER_KEY).fold(0, |bits, i| bits | 1 << ((h >> (6 * i)) & 63)),
        }
    }
}

/// A twig key's filter hash: splitmix64's finalizer, since packed twigs
/// differ mostly in their low bits.
#[inline]
fn twig_hash(twig: u64) -> u64 {
    let mut h = twig;
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// A layer's twig-presence filter: a blocked Bloom filter (one 64-bit
/// word per key) over the root twigs of every subgraph registered in the
/// layer. No false negatives: a key that was inserted always tests
/// present.
#[derive(Debug)]
struct TwigFilter {
    /// Power-of-two length, at least [`FILTER_MIN_WORDS`].
    words: Vec<u64>,
    /// [`twig_hash`] of every inserted subgraph's root twig: the sizing
    /// count, and what a resize re-masks (one entry per subgraph, not one
    /// per posting).
    hashes: Vec<u64>,
}

impl Default for TwigFilter {
    fn default() -> TwigFilter {
        TwigFilter::from_twigs(Vec::new())
    }
}

impl TwigFilter {
    /// A filter over `twigs`, one per subgraph.
    fn from_twigs(twigs: Vec<u64>) -> TwigFilter {
        let mut filter = TwigFilter {
            words: Vec::new(),
            hashes: twigs.into_iter().map(twig_hash).collect(),
        };
        filter.rebuild();
        filter
    }

    /// Resizes to the current subgraph count and sets every twig's bits.
    fn rebuild(&mut self) {
        let words = (self.hashes.len() * FILTER_BITS_PER_SUBGRAPH)
            .div_ceil(64)
            .next_power_of_two()
            .max(FILTER_MIN_WORDS);
        self.words = vec![0; words];
        for &h in &self.hashes {
            TwigFilter::set(&mut self.words, FilterSlot::from_hash(h));
        }
    }

    #[inline]
    fn set(words: &mut [u64], slot: FilterSlot) {
        let mask = words.len() - 1;
        words[slot.word as usize & mask] |= slot.bits;
    }

    /// Adds one subgraph's root twig, doubling and rebuilding the filter
    /// once it holds fewer than [`FILTER_BITS_PER_SUBGRAPH`] bits per
    /// subgraph.
    fn insert(&mut self, twig: u64) {
        let h = twig_hash(twig);
        self.hashes.push(h);
        if self.hashes.len() * FILTER_BITS_PER_SUBGRAPH > self.words.len() * 64 {
            self.rebuild();
        } else {
            TwigFilter::set(&mut self.words, FilterSlot::from_hash(h));
        }
    }

    /// Whether any of `keys` may have been inserted.
    #[inline]
    fn may_contain_any(&self, keys: &TwigKeys) -> bool {
        let mask = self.words.len() - 1;
        keys.slots[..keys.len as usize]
            .iter()
            .any(|slot| self.words[slot.word as usize & mask] & slot.bits == slot.bits)
    }
}

/// The up-to-four packed twig keys a probe node can match (§3.4),
/// deduplicated, specific-first, with their twig-filter slots. Compute
/// once per node and reuse across the node's whole size window.
#[derive(Debug, Clone, Copy)]
pub struct TwigKeys {
    keys: [u64; 4],
    slots: [FilterSlot; 4],
    len: u8,
}

impl TwigKeys {
    /// Keys for a probe node with `label` and child labels `left`/`right`
    /// (`ε` for missing children): `ℓℓ_lℓ_r`, `ℓℓ_lε`, `ℓεℓ_r`, `ℓεε`,
    /// skipping duplicates when the node itself has `ε` children.
    #[inline]
    pub fn new(label: Label, left: Label, right: Label) -> TwigKeys {
        let mut keys = [pack_twig(label, left, right); 4];
        let mut len = 1u8;
        if right != Label::EPSILON {
            keys[len as usize] = pack_twig(label, left, Label::EPSILON);
            len += 1;
        }
        if left != Label::EPSILON {
            keys[len as usize] = pack_twig(label, Label::EPSILON, right);
            len += 1;
            if right != Label::EPSILON {
                keys[len as usize] = pack_twig(label, Label::EPSILON, Label::EPSILON);
                len += 1;
            }
        }
        TwigKeys {
            keys,
            slots: keys.map(FilterSlot::of),
            len,
        }
    }

    /// The deduplicated keys, most-specific first.
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        &self.keys[..self.len as usize]
    }

    #[inline]
    fn contains(&self, twig: u64) -> bool {
        // len ≤ 4: a branch-light linear check beats anything fancier.
        self.as_slice().contains(&twig)
    }
}

/// Unsorted postings tolerated at the end of a bucket before `register`
/// merges them into the twig-sorted prefix. Registration is an O(1)
/// amortized push instead of a per-posting memmove (which would make the
/// build quadratic in bucket size on duplicate-heavy collections), while
/// probes pay at most this many extra linearly-scanned entries: 32
/// 16-byte [`Posting`]s, 512 B or 8 cache lines.
///
/// In practice the tail is most of the bucket. On the 4000-tree,
/// 160-node, τ = 5 synthetic self-join index, 90.6% of postings sit in
/// unsorted tails (mean bucket 17.4 postings, mean tail 15.8), so nearly
/// every probe is a linear scan and the sorted-prefix binary search
/// serves almost none. Sorting earlier would change the handle visit
/// order, and with it the match-attempt counts the equivalence suites
/// pin, so this bound and [`LINEAR_SCAN_MAX`] stay as they are; the
/// layer's twig filter is what spares most probes the scan.
const TAIL_MAX: usize = 32;

/// One position bucket: a twig-sorted prefix plus a short unsorted tail
/// of recent registrations.
#[derive(Debug, Default)]
struct Bucket {
    postings: Vec<Posting>,
    /// Length of the twig-sorted prefix; `postings[sorted_len..]` is the
    /// tail, in insertion order.
    sorted_len: u32,
}

/// One size class `I_n`: a flat vector of position buckets plus the
/// twig-presence filter over all of them.
#[derive(Debug, Default)]
pub struct PostorderLayer {
    buckets: Vec<Bucket>,
    filter: TwigFilter,
}

impl PostorderLayer {
    /// Registers `handle` under `twig` at every position key in
    /// `[lo, hi]`.
    fn register(&mut self, lo: u32, hi: u32, twig: u64, handle: SubgraphHandle) {
        self.filter.insert(twig);
        if self.buckets.len() <= hi as usize {
            self.buckets.resize_with(hi as usize + 1, Bucket::default);
        }
        for bucket in &mut self.buckets[lo as usize..=hi as usize] {
            bucket.postings.push(Posting { twig, handle });
            if bucket.postings.len() - bucket.sorted_len as usize > TAIL_MAX {
                // The stable sort merges the two runs (sorted prefix +
                // tail) in ~O(len); stability keeps equal-twig postings
                // in insertion (ascending-handle) order.
                bucket.postings.sort_by_key(|p| p.twig);
                bucket.sorted_len = bucket.postings.len() as u32;
            }
        }
    }

    /// Calls `visit` for every handle filed under `position` whose twig is
    /// one of `keys`. Returns whether the probe passed the layer's twig
    /// filter; `false` means no key is anywhere in the layer and no
    /// bucket was read.
    #[inline]
    pub fn probe<F: FnMut(SubgraphHandle)>(
        &self,
        position: u32,
        keys: &TwigKeys,
        mut visit: F,
    ) -> bool {
        if !self.filter.may_contain_any(keys) {
            return false;
        }
        let Some(bucket) = self.buckets.get(position as usize) else {
            return true;
        };
        let sorted = &bucket.postings[..bucket.sorted_len as usize];
        if sorted.len() <= LINEAR_SCAN_MAX {
            for posting in sorted {
                if keys.contains(posting.twig) {
                    visit(posting.handle);
                }
            }
        } else {
            for &key in keys.as_slice() {
                let start = sorted.partition_point(|p| p.twig < key);
                for posting in &sorted[start..] {
                    if posting.twig != key {
                        break;
                    }
                    visit(posting.handle);
                }
            }
        }
        for posting in &bucket.postings[bucket.sorted_len as usize..] {
            if keys.contains(posting.twig) {
                visit(posting.handle);
            }
        }
        true
    }

    /// Total postings across all buckets (diagnostics).
    pub fn postings(&self) -> usize {
        self.buckets.iter().map(|b| b.postings.len()).sum()
    }
}

/// Id of an interned component shape: subgraphs with identical
/// `(incoming side, preorder node slice)` share one id, whatever their
/// container tree.
pub type ComponentId = u32;

/// Plain-data image of one position bucket (see [`IndexDump`]):
/// `(twig, handle)` postings in stored order plus the sorted-prefix
/// length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketDump {
    /// Postings as `(packed twig, subgraph handle)` pairs, verbatim —
    /// probe visit order (and therefore candidate order) depends on it.
    pub postings: Vec<(u64, SubgraphHandle)>,
    /// Length of the twig-sorted prefix; the rest is the unsorted tail.
    pub sorted_len: u32,
}

/// Plain-data image of one size class's postorder layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerDump {
    /// Position buckets, indexed directly by position key.
    pub buckets: Vec<BucketDump>,
}

/// Plain-data image of one interned component shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentDump {
    /// Arena offset of the component's first node.
    pub start: u32,
    /// Number of component nodes (≥ 1).
    pub len: u32,
    /// Incoming side tag: 0 = none, 1 = left, 2 = right.
    pub incoming: u8,
}

/// A [`SubgraphIndex`] flattened into plain owned data — everything a
/// byte-level serializer ([`tsj-catalog`]'s snapshot format) needs, with
/// no private types and no behavior. Produced by
/// [`SubgraphIndex::dump`], consumed by [`SubgraphIndex::restore`];
/// `restore(dump())` reproduces the index bit-identically (probe visit
/// order included).
///
/// [`tsj-catalog`]: https://docs.rs/tsj-catalog
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDump {
    /// The threshold the index registered windows for.
    pub tau: u32,
    /// The window policy the index was built under.
    pub window: WindowPolicy,
    /// `(container size, layer id)` pairs, ascending by size.
    pub size_layers: Vec<(u32, LayerId)>,
    /// Layer images, indexed by layer id.
    pub layers: Vec<LayerDump>,
    /// Per-handle metadata, indexed by subgraph handle.
    pub metas: Vec<SubgraphMeta>,
    /// Interned component shapes, indexed by [`ComponentId`].
    pub components: Vec<ComponentDump>,
    /// The flattened component-node arena.
    pub arena: Vec<SgNode>,
    /// Total bucket registrations (cross-checked against the layers on
    /// restore).
    pub registrations: u64,
}

/// An interned component shape: an incoming side plus a contiguous run of
/// the node arena.
#[derive(Debug, Clone, Copy)]
struct Component {
    /// Arena offset of the component nodes.
    start: u32,
    /// Component size (number of nodes). A component can span a whole
    /// tree (δ = 1 at τ = 0), so this must not be narrower than a tree
    /// size.
    len: u32,
    /// Incoming side: 0 = none (tree root), 1 = left, 2 = right.
    incoming: u8,
}

impl Component {
    #[inline]
    fn incoming_side(&self) -> Option<Side> {
        match self.incoming {
            1 => Some(Side::Left),
            2 => Some(Side::Right),
            _ => None,
        }
    }
}

/// Per-handle metadata: the stamp-dedup key (container tree) and the
/// interned component shape, in 12 contiguous bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubgraphMeta {
    /// Container tree index within the joined collection.
    pub tree: TreeIdx,
    /// Interned component shape.
    pub component: ComponentId,
    /// 1-based ordinal `k` in greedy-discovery order; the paper's `s_k`.
    pub ordinal: u16,
}

/// Caller-owned probe scratch: memoized per-node match verdicts (indexed
/// by [`ComponentId`]) plus the match walk stack. Call
/// [`MatchCache::begin_node`] when moving to the next probe node;
/// verdicts stay valid across the node's whole size window, so a
/// component surfaced by many size layers or container trees is walked
/// once.
#[derive(Debug, Default)]
pub struct MatchCache {
    /// 0 = unknown, 1 = mismatch, 2 = match.
    verdicts: Vec<u8>,
    touched: Vec<ComponentId>,
    stack: Vec<NodeId>,
}

impl MatchCache {
    /// An empty cache.
    pub fn new() -> MatchCache {
        MatchCache::default()
    }

    /// Forgets the previous probe node's verdicts (O(components actually
    /// matched there), not O(all components)).
    pub fn begin_node(&mut self) {
        for &c in &self.touched {
            self.verdicts[c as usize] = 0;
        }
        self.touched.clear();
    }
}

/// Two-layer inverted index over the subgraphs of already-processed trees.
#[derive(Debug)]
pub struct SubgraphIndex {
    tau: u32,
    window: WindowPolicy,
    /// `I_n`: size → slot in `layers`.
    by_size: FxHashMap<u32, LayerId>,
    layers: Vec<PostorderLayer>,
    /// Subgraph pool, struct-of-arrays: per-instance metadata, interned
    /// component shapes, and the flattened node arena.
    metas: Vec<SubgraphMeta>,
    components: Vec<Component>,
    arena: Vec<SgNode>,
    /// Interning table: `(incoming, nodes) → ComponentId`.
    interned: FxHashMap<(u8, Box<[SgNode]>), ComponentId>,
    /// Total bucket registrations (a subgraph appears in `2∆′ + 1`
    /// buckets).
    registrations: u64,
}

impl SubgraphIndex {
    /// Creates an empty index for threshold `tau` under `window`.
    pub fn new(tau: u32, window: WindowPolicy) -> SubgraphIndex {
        SubgraphIndex {
            tau,
            window,
            by_size: FxHashMap::default(),
            layers: Vec::new(),
            metas: Vec::new(),
            components: Vec::new(),
            arena: Vec::new(),
            interned: FxHashMap::default(),
            registrations: 0,
        }
    }

    /// The position key of a subgraph under the active policy.
    fn subgraph_position(&self, sg: &Subgraph) -> u32 {
        match self.window {
            WindowPolicy::PaperAbsolute => sg.root_post,
            WindowPolicy::Tight | WindowPolicy::Safe => sg.suffix,
        }
    }

    /// The position key of a probe node with 1-based *general-tree*
    /// postorder `p` in a probing tree of size `probe_size`.
    pub fn probe_position(&self, p: u32, probe_size: u32) -> u32 {
        match self.window {
            WindowPolicy::PaperAbsolute => p,
            WindowPolicy::Tight | WindowPolicy::Safe => probe_size - p,
        }
    }

    /// Window half-width `∆′` for subgraph ordinal `k` (1-based).
    fn half_width(&self, ordinal: u16) -> u32 {
        match self.window {
            WindowPolicy::Safe => self.tau,
            WindowPolicy::Tight | WindowPolicy::PaperAbsolute => {
                self.tau - (ordinal as u32 / 2).min(self.tau)
            }
        }
    }

    /// Inserts all subgraphs of a processed tree of size `tree_size`.
    pub fn insert_tree(&mut self, tree_size: u32, subgraphs: Vec<Subgraph>) {
        let layer_id = *self.by_size.entry(tree_size).or_insert_with(|| {
            self.layers.push(PostorderLayer::default());
            (self.layers.len() - 1) as LayerId
        });
        for sg in subgraphs {
            let position = self.subgraph_position(&sg);
            let dw = self.half_width(sg.ordinal);
            let handle = self.metas.len() as SubgraphHandle;
            let incoming = match sg.incoming {
                None => 0u8,
                Some(Side::Left) => 1,
                Some(Side::Right) => 2,
            };
            // Intern the component shape: near-duplicate collections
            // repeat the same shapes across trees, and every repeat
            // shares one arena run and one memoizable ComponentId. The
            // node box is moved into the key, so the common already-
            // interned case allocates nothing.
            let component = match self.interned.entry((incoming, sg.nodes)) {
                std::collections::hash_map::Entry::Occupied(slot) => *slot.get(),
                std::collections::hash_map::Entry::Vacant(slot) => {
                    let id = self.components.len() as ComponentId;
                    self.components.push(Component {
                        start: self.arena.len() as u32,
                        len: slot.key().1.len() as u32,
                        incoming,
                    });
                    self.arena.extend_from_slice(&slot.key().1);
                    slot.insert(id);
                    id
                }
            };
            self.metas.push(SubgraphMeta {
                tree: sg.tree,
                component,
                ordinal: sg.ordinal,
            });
            let lo = position.saturating_sub(dw);
            let hi = position + dw;
            self.layers[layer_id as usize].register(lo, hi, sg.twig, handle);
            self.registrations += u64::from(hi - lo + 1);
        }
    }

    /// Resolves the layer of size class `tree_size`, if any trees of that
    /// size have been indexed. Resolve once per probing tree and probe the
    /// returned id for every node — this hoists the size-map lookup out of
    /// the node loop.
    #[inline]
    pub fn layer_id(&self, tree_size: u32) -> Option<LayerId> {
        self.by_size.get(&tree_size).copied()
    }

    /// The layer behind a [`LayerId`] returned by
    /// [`SubgraphIndex::layer_id`].
    #[inline]
    pub fn layer(&self, id: LayerId) -> &PostorderLayer {
        &self.layers[id as usize]
    }

    /// Container tree of a surfaced handle — the stamp-dedup key, readable
    /// without touching the component arena.
    #[inline]
    pub fn tree_of(&self, handle: SubgraphHandle) -> TreeIdx {
        self.metas[handle as usize].tree
    }

    /// Matches a surfaced handle at `node` of the probing tree.
    ///
    /// The first attempt for a component walks its contiguous arena slice;
    /// the verdict is memoized in `cache` and replayed for every further
    /// handle sharing the shape until [`MatchCache::begin_node`] — crucial
    /// on near-duplicate collections where one shape recurs across many
    /// container trees.
    #[inline]
    pub fn matches_at(
        &self,
        handle: SubgraphHandle,
        binary: &BinaryTree,
        node: NodeId,
        semantics: MatchSemantics,
        cache: &mut MatchCache,
    ) -> bool {
        let component = self.metas[handle as usize].component;
        if cache.verdicts.len() < self.components.len() {
            cache.verdicts.resize(self.components.len(), 0);
        }
        match cache.verdicts[component as usize] {
            2 => true,
            1 => false,
            _ => {
                let c = &self.components[component as usize];
                let nodes = &self.arena[c.start as usize..c.start as usize + c.len as usize];
                let matched = nodes_match_at(
                    nodes,
                    c.incoming_side(),
                    binary,
                    node,
                    semantics,
                    &mut cache.stack,
                );
                cache.verdicts[component as usize] = if matched { 2 } else { 1 };
                cache.touched.push(component);
                matched
            }
        }
    }

    /// Number of distinct interned component shapes (≤ [`len`]).
    ///
    /// [`len`]: SubgraphIndex::len
    pub fn distinct_components(&self) -> usize {
        self.components.len()
    }

    /// Component size (node count) of a surfaced handle.
    pub fn component_size(&self, handle: SubgraphHandle) -> usize {
        self.components[self.metas[handle as usize].component as usize].len as usize
    }

    /// Probes for subgraphs of trees with exactly `tree_size` nodes that
    /// may embed at a node with postorder position key `position` (already
    /// converted via [`SubgraphIndex::probe_position`]) and twig labels
    /// `(label, left, right)` (`ε` for missing children).
    ///
    /// Calls `visit` for every handle in the up-to-four twig groups. This
    /// is the convenience form; hot loops should resolve
    /// [`SubgraphIndex::layer_id`] once per tree and [`TwigKeys::new`]
    /// once per node, then call [`PostorderLayer::probe`].
    pub fn probe<F: FnMut(SubgraphHandle)>(
        &self,
        tree_size: u32,
        position: u32,
        label: Label,
        left: Label,
        right: Label,
        visit: F,
    ) {
        if let Some(id) = self.layer_id(tree_size) {
            self.layer(id)
                .probe(position, &TwigKeys::new(label, left, right), visit);
        }
    }

    /// Resolves a handle to its metadata.
    #[inline]
    pub fn subgraph_meta(&self, handle: SubgraphHandle) -> &SubgraphMeta {
        &self.metas[handle as usize]
    }

    /// Number of subgraphs stored.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Total `(position, twig)` bucket registrations.
    pub fn registrations(&self) -> u64 {
        self.registrations
    }

    /// The configured window policy.
    pub fn window(&self) -> WindowPolicy {
        self.window
    }

    /// The threshold the index registers windows for. A dynamic wrapper
    /// (e.g. `tsj-shard`'s compaction) rebuilds replacement indexes with
    /// the same `(tau, window)` pair.
    pub fn tau(&self) -> u32 {
        self.tau
    }

    /// Number of distinct container-size classes currently indexed.
    pub fn distinct_sizes(&self) -> usize {
        self.by_size.len()
    }

    /// The distinct container-size classes currently indexed, in
    /// arbitrary order. Shard wrappers use this to validate that a
    /// restored shard only holds size classes it actually owns.
    pub fn size_classes(&self) -> impl Iterator<Item = u32> + '_ {
        self.by_size.keys().copied()
    }

    /// `∆′` as exposed for diagnostics and tests.
    pub fn window_half_width(&self, ordinal: u16) -> u32 {
        self.half_width(ordinal)
    }

    /// Extracts the index's dense storage as plain data — the snapshot
    /// form `tsj-catalog` serializes. Size classes are emitted in
    /// ascending size order so the dump (and therefore the snapshot
    /// bytes) is deterministic; layer ids are preserved verbatim, so
    /// [`SubgraphIndex::restore`] reproduces the exact probe behavior,
    /// posting order included.
    pub fn dump(&self) -> IndexDump {
        let mut size_layers: Vec<(u32, LayerId)> =
            self.by_size.iter().map(|(&n, &l)| (n, l)).collect();
        size_layers.sort_unstable();
        IndexDump {
            tau: self.tau,
            window: self.window,
            size_layers,
            layers: self
                .layers
                .iter()
                .map(|layer| LayerDump {
                    buckets: layer
                        .buckets
                        .iter()
                        .map(|bucket| BucketDump {
                            postings: bucket.postings.iter().map(|p| (p.twig, p.handle)).collect(),
                            sorted_len: bucket.sorted_len,
                        })
                        .collect(),
                })
                .collect(),
            metas: self.metas.clone(),
            components: self
                .components
                .iter()
                .map(|c| ComponentDump {
                    start: c.start,
                    len: c.len,
                    incoming: c.incoming,
                })
                .collect(),
            arena: self.arena.clone(),
            registrations: self.registrations,
        }
    }

    /// Rebuilds an index from a [`SubgraphIndex::dump`] image, validating
    /// every cross-reference (layer ids, handles, component arena runs,
    /// sorted-prefix order, registration count) so corrupted snapshot
    /// data surfaces as an error instead of an out-of-bounds panic later.
    /// The component interning table is reconstructed, so the restored
    /// index accepts further [`SubgraphIndex::insert_tree`] calls.
    pub fn restore(dump: IndexDump) -> Result<SubgraphIndex, String> {
        let IndexDump {
            tau,
            window,
            size_layers,
            layers,
            metas,
            components,
            arena,
            registrations,
        } = dump;
        if size_layers.len() != layers.len() {
            return Err(format!(
                "{} size classes but {} layers",
                size_layers.len(),
                layers.len()
            ));
        }
        let mut by_size = FxHashMap::default();
        let mut layer_seen = vec![false; layers.len()];
        for &(size, layer) in &size_layers {
            let slot = layer_seen
                .get_mut(layer as usize)
                .ok_or_else(|| format!("size {size} maps to out-of-range layer {layer}"))?;
            if *slot {
                return Err(format!("layer {layer} referenced by two size classes"));
            }
            *slot = true;
            if by_size.insert(size, layer).is_some() {
                return Err(format!("size class {size} appears twice"));
            }
        }
        for (id, c) in components.iter().enumerate() {
            let end = (c.start as usize)
                .checked_add(c.len as usize)
                .filter(|&end| end <= arena.len() && c.len > 0);
            if end.is_none() {
                return Err(format!(
                    "component {id} spans arena [{}, {}+{}) of {}",
                    c.start,
                    c.start,
                    c.len,
                    arena.len()
                ));
            }
            if c.incoming > 2 {
                return Err(format!("component {id} has incoming tag {}", c.incoming));
            }
        }
        for (handle, meta) in metas.iter().enumerate() {
            if meta.component as usize >= components.len() {
                return Err(format!(
                    "handle {handle} references component {} of {}",
                    meta.component,
                    components.len()
                ));
            }
        }
        let mut total_postings = 0u64;
        let mut restored_layers = Vec::with_capacity(layers.len());
        // `seen_in[h] == layer id + 1` once handle `h`'s twig went into
        // that layer's filter (a subgraph has one posting per window
        // position, but one filter entry).
        let mut seen_in = vec![0u32; metas.len()];
        for (layer_id, layer) in layers.into_iter().enumerate() {
            let mut buckets = Vec::with_capacity(layer.buckets.len());
            let mut twigs = Vec::new();
            for (pos, bucket) in layer.buckets.into_iter().enumerate() {
                if bucket.sorted_len as usize > bucket.postings.len() {
                    return Err(format!(
                        "layer {layer_id} bucket {pos}: sorted prefix {} exceeds {} postings",
                        bucket.sorted_len,
                        bucket.postings.len()
                    ));
                }
                let prefix = &bucket.postings[..bucket.sorted_len as usize];
                if prefix.windows(2).any(|w| w[0].0 > w[1].0) {
                    return Err(format!(
                        "layer {layer_id} bucket {pos}: sorted prefix out of twig order"
                    ));
                }
                let mut postings = Vec::with_capacity(bucket.postings.len());
                for (twig, handle) in bucket.postings {
                    if handle as usize >= metas.len() {
                        return Err(format!(
                            "layer {layer_id} bucket {pos}: posting handle {handle} of {}",
                            metas.len()
                        ));
                    }
                    if seen_in[handle as usize] != layer_id as u32 + 1 {
                        seen_in[handle as usize] = layer_id as u32 + 1;
                        twigs.push(twig);
                    }
                    postings.push(Posting { twig, handle });
                }
                total_postings += postings.len() as u64;
                buckets.push(Bucket {
                    postings,
                    sorted_len: bucket.sorted_len,
                });
            }
            restored_layers.push(PostorderLayer {
                buckets,
                filter: TwigFilter::from_twigs(twigs),
            });
        }
        if total_postings != registrations {
            return Err(format!(
                "registration count {registrations} disagrees with {total_postings} stored postings"
            ));
        }
        let restored_components: Vec<Component> = components
            .iter()
            .map(|c| Component {
                start: c.start,
                len: c.len,
                incoming: c.incoming,
            })
            .collect();
        let mut interned: FxHashMap<(u8, Box<[SgNode]>), ComponentId> = FxHashMap::default();
        for (id, c) in restored_components.iter().enumerate() {
            let nodes: Box<[SgNode]> =
                arena[c.start as usize..c.start as usize + c.len as usize].into();
            interned.entry((c.incoming, nodes)).or_insert(id as u32);
        }
        Ok(SubgraphIndex {
            tau,
            window,
            by_size,
            layers: restored_layers,
            metas,
            components: restored_components,
            arena,
            interned,
            registrations,
        })
    }

    /// Position key a subgraph is centered on (diagnostics and tests).
    pub fn position_of(&self, sg: &Subgraph) -> u32 {
        self.subgraph_position(sg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{max_min_size, select_cuts};
    use crate::subgraph::build_subgraphs;
    use tsj_tree::{parse_bracket, BinaryTree, LabelInterner};

    fn subgraphs_of(
        input: &str,
        tau: u32,
    ) -> (tsj_tree::Tree, BinaryTree, Vec<Subgraph>, LabelInterner) {
        let mut labels = LabelInterner::new();
        let tree = parse_bracket(input, &mut labels).unwrap();
        let binary = BinaryTree::from_tree(&tree);
        let delta = 2 * tau as usize + 1;
        let gamma = max_min_size(&binary, delta);
        let cuts = select_cuts(&binary, delta, gamma);
        let sgs = build_subgraphs(&binary, &tree.postorder_numbers(), &cuts, 0);
        (tree, binary, sgs, labels)
    }

    #[test]
    fn window_half_widths() {
        let index = SubgraphIndex::new(2, WindowPolicy::Tight);
        // ∆′ = τ − ⌊k/2⌋ with τ = 2: k=1 → 2, k=2 → 1, k=3 → 1, k=4 → 0, k=5 → 0.
        assert_eq!(index.window_half_width(1), 2);
        assert_eq!(index.window_half_width(2), 1);
        assert_eq!(index.window_half_width(3), 1);
        assert_eq!(index.window_half_width(4), 0);
        assert_eq!(index.window_half_width(5), 0);
        let safe = SubgraphIndex::new(2, WindowPolicy::Safe);
        for k in 1..=5 {
            assert_eq!(safe.window_half_width(k), 2);
        }
    }

    #[test]
    fn twig_keys_dedup() {
        let (l, a, b) = (Label::from_raw(1), Label::from_raw(2), Label::from_raw(3));
        let e = Label::EPSILON;
        assert_eq!(TwigKeys::new(l, a, b).as_slice().len(), 4);
        assert_eq!(
            TwigKeys::new(l, a, e).as_slice(),
            &[pack_twig(l, a, e), pack_twig(l, e, e)]
        );
        assert_eq!(
            TwigKeys::new(l, e, b).as_slice(),
            &[pack_twig(l, e, b), pack_twig(l, e, e)]
        );
        assert_eq!(TwigKeys::new(l, e, e).as_slice(), &[pack_twig(l, e, e)]);
    }

    #[test]
    fn insert_and_probe_own_tree() {
        let tau = 1;
        let (tree, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let general_post = tree.postorder_numbers();
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Tight);
        let n = binary.len() as u32;
        index.insert_tree(n, sgs.clone());
        assert_eq!(index.len(), 3);

        // Probing each subgraph root with its own twig must surface it.
        for sg in &sgs {
            let root = sg.root;
            let left = binary
                .left(root)
                .map_or(Label::EPSILON, |c| binary.label(c));
            let right = binary
                .right(root)
                .map_or(Label::EPSILON, |c| binary.label(c));
            let position = index.probe_position(general_post[root.index()], n);
            let mut found = false;
            index.probe(n, position, binary.label(root), left, right, |h| {
                if index.subgraph_meta(h).ordinal == sg.ordinal {
                    found = true;
                }
            });
            assert!(found, "subgraph {} not found by self-probe", sg.ordinal);
        }
    }

    #[test]
    fn fast_path_agrees_with_probe_wrapper() {
        let tau = 2;
        let (tree, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let general_post = tree.postorder_numbers();
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        let n = binary.len() as u32;
        index.insert_tree(n, sgs);
        let layer = index.layer(index.layer_id(n).unwrap());
        for node in binary.node_ids() {
            let label = binary.label(node);
            let left = binary
                .left(node)
                .map_or(Label::EPSILON, |c| binary.label(c));
            let right = binary
                .right(node)
                .map_or(Label::EPSILON, |c| binary.label(c));
            let position = index.probe_position(general_post[node.index()], n);
            let mut wrapper = Vec::new();
            index.probe(n, position, label, left, right, |h| wrapper.push(h));
            let mut fast = Vec::new();
            let keys = TwigKeys::new(label, left, right);
            layer.probe(position, &keys, |h| fast.push(h));
            wrapper.sort_unstable();
            fast.sort_unstable();
            assert_eq!(wrapper, fast);
        }
    }

    #[test]
    fn matches_at_agrees_with_subgraph_matches() {
        use crate::subgraph::subgraph_matches;
        let tau = 1;
        let (_, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        index.insert_tree(binary.len() as u32, sgs.clone());
        let mut cache = MatchCache::new();
        for node in binary.node_ids() {
            cache.begin_node();
            for (h, sg) in sgs.iter().enumerate() {
                assert_eq!(
                    index.matches_at(
                        h as SubgraphHandle,
                        &binary,
                        node,
                        MatchSemantics::Exact,
                        &mut cache
                    ),
                    subgraph_matches(sg, &binary, node),
                    "handle {h} at node {node}"
                );
            }
        }
    }

    #[test]
    fn interning_shares_components_across_trees() {
        // Inserting the same tree's subgraphs twice (as two container
        // trees) must not grow the distinct component table.
        let tau = 1;
        let (tree, binary, _, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let delta = 2 * tau as usize + 1;
        let gamma = max_min_size(&binary, delta);
        let cuts = select_cuts(&binary, delta, gamma);
        let posts = tree.postorder_numbers();
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        index.insert_tree(
            binary.len() as u32,
            build_subgraphs(&binary, &posts, &cuts, 0),
        );
        let (pool, distinct) = (index.len(), index.distinct_components());
        index.insert_tree(
            binary.len() as u32,
            build_subgraphs(&binary, &posts, &cuts, 1),
        );
        assert_eq!(index.len(), 2 * pool);
        assert_eq!(index.distinct_components(), distinct);
        // A memoized verdict must agree with a fresh one.
        let mut cache = MatchCache::new();
        cache.begin_node();
        let node = binary.root();
        for h in 0..index.len() as u32 {
            let first = index.matches_at(h, &binary, node, MatchSemantics::Exact, &mut cache);
            let again = index.matches_at(h, &binary, node, MatchSemantics::Exact, &mut cache);
            assert_eq!(first, again);
        }
    }

    #[test]
    fn probe_wrong_size_is_empty() {
        let tau = 1;
        let (_, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Tight);
        let n = binary.len() as u32;
        index.insert_tree(n, sgs);
        assert!(index.layer_id(n + 5).is_none());
        let mut count = 0;
        index.probe(
            n + 5,
            0,
            Label::from_raw(1),
            Label::EPSILON,
            Label::EPSILON,
            |_| count += 1,
        );
        assert_eq!(count, 0);
    }

    #[test]
    fn probe_past_bucket_range_is_empty() {
        let tau = 1;
        let (_, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        let n = binary.len() as u32;
        index.insert_tree(n, sgs);
        let layer = index.layer(index.layer_id(n).unwrap());
        let mut count = 0;
        // A position far beyond any registered key indexes past the bucket
        // vector; must be silently empty, not panic.
        layer.probe(
            10_000,
            &TwigKeys::new(Label::from_raw(1), Label::EPSILON, Label::EPSILON),
            |_| count += 1,
        );
        assert_eq!(count, 0);
    }

    #[test]
    fn registrations_count_window_entries() {
        let tau = 1;
        let (_, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        // k=1: ∆′=1 → 3 entries; k=2: ∆′=0 → 1; k=3: ∆′=0 → 1. Total 5.
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Tight);
        index.insert_tree(binary.len() as u32, sgs.clone());
        assert_eq!(index.registrations(), 5);
        let layer = index.layer(index.layer_id(binary.len() as u32).unwrap());
        assert_eq!(layer.postings(), 5);

        let mut safe = SubgraphIndex::new(tau, WindowPolicy::Safe);
        safe.insert_tree(binary.len() as u32, sgs);
        // Safe: every subgraph gets 2τ+1 = 3 entries (minus clamping at 0).
        assert!(safe.registrations() >= 7, "{}", safe.registrations());
    }

    #[test]
    fn twig_key_dedup_probes_each_group_once() {
        // A probe with ε children must not visit the same group twice.
        let tau = 0;
        let (_, binary, sgs, _) = subgraphs_of("{a}", tau);
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Tight);
        let n = binary.len() as u32;
        index.insert_tree(n, sgs);
        let mut visits = 0;
        let root_label = binary.label(binary.root());
        index.probe(n, 0, root_label, Label::EPSILON, Label::EPSILON, |_| {
            visits += 1
        });
        assert_eq!(visits, 1);
    }

    #[test]
    fn large_buckets_binary_search_path() {
        // Push one bucket past LINEAR_SCAN_MAX and check both lookup paths
        // surface the same postings.
        let tau = 0;
        let (_, binary, sgs, _) = subgraphs_of("{a{b}{c}}", tau);
        let n = binary.len() as u32;
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        let copies = LINEAR_SCAN_MAX + TAIL_MAX + 16;
        for _ in 0..copies {
            index.insert_tree(n, sgs.clone());
        }
        let layer = index.layer(index.layer_id(n).unwrap());
        let sg = &sgs[0];
        let position = index.position_of(sg);
        let bucket = &layer.buckets[position as usize];
        assert!(
            bucket.sorted_len as usize > LINEAR_SCAN_MAX,
            "sorted prefix {} must exceed the linear-scan cutoff",
            bucket.sorted_len
        );
        assert!(
            bucket.postings.len() > bucket.sorted_len as usize,
            "an unsorted tail must be present to exercise the tail scan"
        );
        let root = binary.root();
        let left = binary
            .left(root)
            .map_or(Label::EPSILON, |c| binary.label(c));
        let right = binary
            .right(root)
            .map_or(Label::EPSILON, |c| binary.label(c));
        let keys = TwigKeys::new(binary.label(root), left, right);
        let mut hits = 0;
        layer.probe(position, &keys, |_| hits += 1);
        assert_eq!(hits, copies);
    }

    #[test]
    fn dump_restore_round_trips_bit_identically() {
        let tau = 1;
        let (tree, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        let n = binary.len() as u32;
        index.insert_tree(n, sgs.clone());
        // A second size class plus enough duplicates to build a sorted
        // prefix and a tail in at least one bucket.
        for _ in 0..(TAIL_MAX + 8) {
            index.insert_tree(n, sgs.clone());
        }
        let dump = index.dump();
        let restored = SubgraphIndex::restore(dump.clone()).expect("valid dump restores");
        assert_eq!(restored.dump(), dump, "dump→restore→dump is a fixpoint");
        assert_eq!(restored.len(), index.len());
        assert_eq!(restored.registrations(), index.registrations());
        assert_eq!(restored.distinct_components(), index.distinct_components());
        // Every probe surfaces the same handles in the same order.
        let posts = tree.postorder_numbers();
        let layer_a = index.layer(index.layer_id(n).unwrap());
        let layer_b = restored.layer(restored.layer_id(n).unwrap());
        for node in binary.node_ids() {
            let left = binary
                .left(node)
                .map_or(Label::EPSILON, |c| binary.label(c));
            let right = binary
                .right(node)
                .map_or(Label::EPSILON, |c| binary.label(c));
            let keys = TwigKeys::new(binary.label(node), left, right);
            let position = index.probe_position(posts[node.index()], n);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            layer_a.probe(position, &keys, |h| a.push(h));
            layer_b.probe(position, &keys, |h| b.push(h));
            assert_eq!(a, b, "probe order must survive the round trip");
        }
        // The restored interning table still dedups further inserts.
        let mut grown = SubgraphIndex::restore(index.dump()).unwrap();
        let distinct = grown.distinct_components();
        grown.insert_tree(n, sgs);
        assert_eq!(grown.distinct_components(), distinct);
    }

    #[test]
    fn restore_rejects_corrupt_dumps() {
        let tau = 1;
        let (_, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        index.insert_tree(binary.len() as u32, sgs);
        let good = index.dump();
        assert!(SubgraphIndex::restore(good.clone()).is_ok());

        let mut bad = good.clone();
        bad.size_layers[0].1 = 99;
        assert!(SubgraphIndex::restore(bad).is_err(), "layer out of range");

        let mut bad = good.clone();
        bad.metas[0].component = 99;
        assert!(
            SubgraphIndex::restore(bad).is_err(),
            "component out of range"
        );

        let mut bad = good.clone();
        bad.components[0].len = bad.arena.len() as u32 + 1;
        assert!(SubgraphIndex::restore(bad).is_err(), "arena overrun");

        let mut bad = good.clone();
        for layer in &mut bad.layers {
            for bucket in &mut layer.buckets {
                for posting in &mut bucket.postings {
                    posting.1 = 1_000;
                }
            }
        }
        assert!(SubgraphIndex::restore(bad).is_err(), "handle out of range");

        let mut bad = good.clone();
        bad.registrations += 1;
        assert!(
            SubgraphIndex::restore(bad).is_err(),
            "registration mismatch"
        );

        let mut bad = good;
        bad.layers.push(LayerDump {
            buckets: Vec::new(),
        });
        assert!(SubgraphIndex::restore(bad).is_err(), "orphan layer");
    }

    #[test]
    fn twig_filter_doubles_with_its_layer_and_survives_restore() {
        let tau = 1;
        let (_, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let n = binary.len() as u32;
        let mut index = SubgraphIndex::new(tau, WindowPolicy::Safe);
        let words =
            |index: &SubgraphIndex| index.layer(index.layer_id(n).unwrap()).filter.words.len();
        let mut sizes = vec![];
        for _ in 0..200 {
            index.insert_tree(n, sgs.clone());
            if sizes.last() != Some(&words(&index)) {
                sizes.push(words(&index));
            }
        }
        // 600 subgraphs at 16 bits each: 8 → 16 → 32 → 64 → 128 → 256 words.
        assert_eq!(sizes, [8, 16, 32, 64, 128, 256]);
        let layer = index.layer(index.layer_id(n).unwrap());
        assert_eq!(layer.filter.hashes.len(), index.len());
        for sg in &sgs {
            let slot = FilterSlot::of(sg.twig);
            let word = layer.filter.words[slot.word as usize & (layer.filter.words.len() - 1)];
            assert_eq!(word & slot.bits, slot.bits, "twig {:x} missing", sg.twig);
        }
        let restored = SubgraphIndex::restore(index.dump()).unwrap();
        let again = restored.layer(restored.layer_id(n).unwrap());
        assert_eq!(again.filter.words, layer.filter.words);
    }

    #[test]
    fn paper_absolute_uses_raw_postorder() {
        let tau = 1;
        let (_, binary, sgs, _) = subgraphs_of("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}", tau);
        let index = SubgraphIndex::new(tau, WindowPolicy::PaperAbsolute);
        for sg in &sgs {
            assert_eq!(index.position_of(sg), sg.root_post);
        }
        assert_eq!(index.probe_position(7, binary.len() as u32), 7);
        let tight = SubgraphIndex::new(tau, WindowPolicy::Tight);
        for sg in &sgs {
            assert_eq!(tight.position_of(sg), sg.suffix);
        }
    }
}
