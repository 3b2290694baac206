//! The Zhang–Shasha tree edit distance dynamic program.
//!
//! This is the classic O(n²)-space algorithm ("Simple fast algorithms for
//! the editing distance between trees", SIAM J. Comput. 1989, reference
//! \[29] of the paper): for every pair of keyroots, a forest-distance matrix
//! is filled; tree distances of nested relevant subtrees are memoized in a
//! full `n₁ × n₂` table. Worst-case time is O(n₁²·n₂²) but for realistic
//! shapes it behaves like the O(n³) algorithms the paper builds on.
//!
//! Matrices live in a reusable [`TedWorkspace`] so joins that verify
//! millions of candidate pairs do not allocate per pair (workhorse-buffer
//! pattern from the performance guide).

use crate::cost::CostModel;
use crate::ted_tree::TedTree;

/// Reusable scratch matrices for [`tree_distance`].
///
/// Create once per thread and pass to every distance computation.
#[derive(Debug, Default)]
pub struct TedWorkspace {
    /// Tree-distance table, `(n1+1) × (n2+1)`, row-major.
    td: Vec<u32>,
    /// Forest-distance table for the current keyroot pair.
    fd: Vec<u32>,
}

impl TedWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }
}

#[inline]
fn min3(a: u32, b: u32, c: u32) -> u32 {
    a.min(b).min(c)
}

/// Computes the exact tree edit distance between two preprocessed trees.
///
/// Both trees must be preprocessed the same way (both [`TedTree::new`] or
/// both [`TedTree::mirrored`]); mixing decompositions silently computes the
/// distance between one tree and the mirror of the other.
pub fn tree_distance(a: &TedTree, b: &TedTree, costs: &CostModel, ws: &mut TedWorkspace) -> u32 {
    let n1 = a.len();
    let n2 = b.len();
    let td_stride = n2 + 1;
    ws.td.clear();
    ws.td.resize((n1 + 1) * td_stride, 0);
    // Forest matrix is at most (n1+1) x (n2+1) for the root keyroot pair.
    ws.fd.clear();
    ws.fd.resize((n1 + 1) * (n2 + 1), 0);

    for &k1 in a.keyroots() {
        for &k2 in b.keyroots() {
            forest_distance(a, b, k1, k2, costs, &mut ws.fd, &mut ws.td, td_stride);
        }
    }
    ws.td[n1 * td_stride + n2]
}

/// Fills the forest-distance matrix for keyroot pair `(i, j)`, recording
/// tree distances for all node pairs whose relevant forests are prefixes.
#[allow(clippy::too_many_arguments)]
fn forest_distance(
    a: &TedTree,
    b: &TedTree,
    i: usize,
    j: usize,
    costs: &CostModel,
    fd: &mut [u32],
    td: &mut [u32],
    td_stride: usize,
) {
    let l1 = a.lld(i);
    let l2 = b.lld(j);
    let m = i - l1 + 1; // number of nodes in the left relevant forest
    let n = j - l2 + 1;
    let fs = n + 1; // forest matrix stride

    fd[0] = 0;
    for x in 1..=m {
        fd[x * fs] = fd[(x - 1) * fs] + costs.delete;
    }
    for y in 1..=n {
        fd[y] = fd[y - 1] + costs.insert;
    }

    for x in 1..=m {
        let node_i = l1 + x - 1;
        let row = x * fs;
        let prev_row = row - fs;
        for y in 1..=n {
            let node_j = l2 + y - 1;
            if a.lld(node_i) == l1 && b.lld(node_j) == l2 {
                // Both prefixes are whole trees rooted at node_i / node_j.
                let rename = costs.rename(a.label(node_i), b.label(node_j));
                let d = min3(
                    fd[prev_row + y] + costs.delete,
                    fd[row + y - 1] + costs.insert,
                    fd[prev_row + y - 1] + rename,
                );
                fd[row + y] = d;
                td[node_i * td_stride + node_j] = d;
            } else {
                // Split off the complete subtrees rooted at node_i/node_j
                // and look their distance up in the memo table.
                let p = a.lld(node_i) - l1; // forest prefix before subtree(node_i)
                let q = b.lld(node_j) - l2;
                fd[row + y] = min3(
                    fd[prev_row + y] + costs.delete,
                    fd[row + y - 1] + costs.insert,
                    fd[p * fs + q] + td[node_i * td_stride + node_j],
                );
            }
        }
    }
}

/// τ-bounded exact unit-cost tree edit distance: `Some(d)` iff
/// `TED(a, b) = d ≤ tau` (with `d` exact), `None` otherwise.
///
/// The same Zhang–Shasha recurrences as [`tree_distance`], restricted to
/// the cells an edit script of cost `≤ τ` can pass through. Unit costs
/// only: every pruning rule counts insertions and deletions as 1 each
/// ([`crate::TedEngine`] falls back to the unbounded DP for other cost
/// models). Both trees must be preprocessed the same way, as for
/// [`tree_distance`].
///
/// # Pruning
///
/// Postorder numbers are 1-based; a forest-distance cell `(x, y)` of
/// keyroot pair `(k₁, k₂)` compares the prefix forests `a[l₁ .. i]` and
/// `b[l₂ .. j]` with `l = lld(k)`, `i = l₁ + x − 1`, `j = l₂ + y − 1`.
///
/// 1. **Size check.** Every operation changes the size by at most one,
///    so `||a| − |b|| > τ` returns `None` before any DP.
/// 2. **Band.** A forest-distance cell is at least `|x − y|` (the unmatched
///    surplus of the larger forest must be inserted or deleted), so only
///    cells with `|x − y| ≤ τ` are computed.
/// 3. **Postorder window.** Let `M` be a mapping of cost `≤ τ`. Mappings
///    preserve postorder, so the mapped nodes among `a[1 .. i]` are
///    matched exactly with the mapped nodes among `b[1 .. j]` whenever
///    `(i, j) ∈ M`; the rest of both prefixes is deleted or inserted,
///    hence `cost(M) ≥ |i − j|`. The same count holds for every cell
///    on `M`'s derivation inside keyroot pair `(k₁, k₂)`: the nodes left
///    of the pair's subtrees (postorder `< l₁` resp. `< l₂`) match only
///    each other, and the derivation cell's forests match only each
///    other. So cells with `|i − j| > τ` — equivalently
///    `|(l₁ − l₂) + (x − y)| > τ` — are skipped too, and a keyroot pair
///    with `|l₁ − l₂| > τ` is skipped whole (its window is empty).
///
/// The surviving cells of a keyroot pair form a diagonal band
/// `x − y ∈ [−neg, dhi]` that always contains the diagonal. Where the
/// band is narrower than the matrix, the forest matrix is stored skewed
/// along it and the tree-distance memo `td` keeps only `|i − j| ≤ τ`;
/// `td` starts at `τ + 1` everywhere.
///
/// # Soundness of the capped DP
///
/// Write `v` for a cell's true value and `v'` for the computed one; a
/// skipped cell or memo entry reads as `τ + 1`.
///
/// * **Never too low.** Every `v'` satisfies `v' ≥ min(v, τ + 1)`. Skipped
///   band cells have `v ≥ |x − y| ≥ τ + 1`; unwritten memo entries read
///   `τ + 1`; a computed cell is a minimum of `input + w` terms with
///   `w ≥ 0`, and `min(u + w, τ + 1) = min(min(u, τ + 1) + w, τ + 1)`,
///   so the invariant propagates. (A skipped cell may drop a true term;
///   dropping terms only raises a minimum.)
/// * **Never too high on an optimal script.** If `TED(a, b) ≤ τ`, every
///   cell and memo entry on the optimal mapping's derivation lies inside
///   the band and window (rules 2 and 3) of a keyroot pair that was not
///   skipped, so by induction along the derivation each is computed at
///   most at its cost there, and the root is at most `TED(a, b)`.
///
/// Together: the root reads exactly `TED(a, b)` when that is `≤ τ`, and
/// some value `≥ τ + 1` otherwise.
///
/// When `τ ≥ max(|a|, |b|)` no cell can be pruned, and the unbounded
/// [`tree_distance`] runs instead, so the bounded kernel is never slower
/// than the unbounded one.
pub fn tree_distance_within(
    a: &TedTree,
    b: &TedTree,
    tau: u32,
    ws: &mut TedWorkspace,
) -> Option<u32> {
    let n1 = a.len();
    let n2 = b.len();
    let t = tau as usize;
    if n1.abs_diff(n2) > t {
        return None;
    }
    if t >= n1.max(n2) {
        let d = tree_distance(a, b, &CostModel::UNIT, ws);
        return (d <= tau).then_some(d);
    }
    // td[i][j] lives at td_row(i) + j: a band of |i − j| ≤ τ per row, or
    // the full row when the band would be wider.
    let td = if 2 * t + 1 < n2 + 1 {
        Layout {
            row_step: 2 * t,
            base0: t,
        }
    } else {
        Layout {
            row_step: n2 + 1,
            base0: 0,
        }
    };
    ws.td.clear();
    ws.td.resize((n1 + 1) * (td.row_step + 1), tau + 1);
    // Every keyroot pair's forest matrix fits: a full layout needs at
    // most (n1 + 1)(n2 + 1) cells, a skewed one (rows ≤ n1 of stride
    // ≤ n2, offset ≤ τ + 1) at most τ + 2 more. Stale cells are never
    // read, so the buffer is only grown, not cleared.
    let fd_len = (n1 + 1) * (n2 + 1) + t + 2;
    if ws.fd.len() < fd_len {
        ws.fd.resize(fd_len, 0);
    }

    for &k1 in a.keyroots() {
        let l1 = a.lld(k1);
        for &k2 in b.keyroots() {
            if l1.abs_diff(b.lld(k2)) <= t {
                banded_forest_distance(a, b, (k1, k2), t, &mut ws.fd, &mut ws.td, td);
            }
        }
    }
    let d = ws.td[td.base(n1) + n2];
    (d <= tau).then_some(d)
}

/// Row addressing of a (possibly skewed) matrix: cell `(x, y)` lives at
/// `base(x) + y`. A skewed layout (`base0 > 0`) stores each row's band
/// contiguously; `row_step` is the distance between consecutive rows'
/// `y = 0` positions.
#[derive(Debug, Clone, Copy)]
struct Layout {
    row_step: usize,
    base0: usize,
}

impl Layout {
    #[inline]
    fn base(self, x: usize) -> usize {
        x * self.row_step + self.base0
    }
}

/// [`forest_distance`] restricted to the band and postorder window of
/// [`tree_distance_within`], unit costs.
///
/// When the window is narrower than the forest, the matrix is stored
/// skewed: cell `(x, y)` lives at `x·(width + 2) + (y − x + dhi + 1)`, so
/// each row holds exactly its window plus one pad cell on either side
/// (read as `τ + 1` by the next cell or row). Otherwise rows are stored
/// whole, as in [`forest_distance`]. Every read lands in a cell written
/// earlier in this call.
fn banded_forest_distance(
    a: &TedTree,
    b: &TedTree,
    (k1, k2): (usize, usize),
    t: usize,
    fd: &mut [u32],
    td: &mut [u32],
    td_layout: Layout,
) {
    let cap = t as u32 + 1;
    let l1 = a.lld(k1);
    let l2 = b.lld(k2);
    let m = k1 - l1 + 1;
    let n = k2 - l2 + 1;
    // Window on d = x − y: [−neg, dhi], intersecting |d| ≤ τ with
    // |(l1 − l2) + d| ≤ τ. Both bounds are in [0, τ].
    let dhi = t - l1.saturating_sub(l2);
    let neg = t - l2.saturating_sub(l1);
    let width = dhi + neg + 1;
    let layout = if width < n {
        Layout {
            row_step: width + 1,
            base0: dhi + 1,
        }
    } else {
        Layout {
            row_step: n + 1,
            base0: 0,
        }
    };
    // Rows past n + dhi have an empty window.
    let rows = m.min(n + dhi);

    for y in 0..=n.min(neg + 1) {
        fd[layout.base(0) + y] = y as u32;
    }
    for x in 1..=rows.min(dhi + 1) {
        fd[layout.base(x)] = x as u32;
    }

    for x in 1..=rows {
        let node_i = l1 + x - 1;
        let lo = x.saturating_sub(dhi).max(1);
        let hi = n.min(x + neg);
        let row = layout.base(x);
        let prev = row - layout.row_step;
        if lo > 1 {
            fd[row + lo - 1] = cap;
        }
        if hi < n {
            fd[row + hi + 1] = cap;
        }
        let p = a.lld(node_i) - l1; // forest prefix before subtree(node_i)
        let prefix_row = layout.base(p);
        let label_i = a.label(node_i);
        let td_row = td_layout.base(node_i);
        // The cell to the left, carried in a register rather than
        // reloaded from the row just written.
        let mut left = fd[row + lo - 1];
        for y in lo..=hi {
            let node_j = l2 + y - 1;
            let q = b.lld(node_j) - l2;
            let del = fd[prev + y] + 1;
            let ins = left + 1;
            let d = if p == 0 && q == 0 {
                // Both prefixes are whole trees rooted at node_i / node_j.
                let rename = u32::from(label_i != b.label(node_j));
                let d = del.min(ins).min(fd[prev + y - 1] + rename);
                td[td_row + node_j] = d;
                d
            } else {
                // cell(p, q) is readable iff p − q lies in the window.
                let prefix = if (q + dhi).wrapping_sub(p) < width {
                    fd[prefix_row + q]
                } else {
                    cap
                };
                del.min(ins).min(prefix + td[td_row + node_j])
            };
            fd[row + y] = d;
            left = d;
        }
    }
}

/// One-shot Zhang–Shasha distance between two [`tsj_tree::Tree`]s with
/// unit costs. Prefer [`crate::TedEngine`] when computing many distances.
pub fn zhang_shasha(a: &tsj_tree::Tree, b: &tsj_tree::Tree) -> u32 {
    let ta = TedTree::new(a);
    let tb = TedTree::new(b);
    let mut ws = TedWorkspace::new();
    tree_distance(&ta, &tb, &CostModel::UNIT, &mut ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_tree::{parse_bracket, LabelInterner, Tree};

    fn pair(a: &str, b: &str) -> (Tree, Tree) {
        let mut labels = LabelInterner::new();
        (
            parse_bracket(a, &mut labels).unwrap(),
            parse_bracket(b, &mut labels).unwrap(),
        )
    }

    fn dist(a: &str, b: &str) -> u32 {
        let (ta, tb) = pair(a, b);
        zhang_shasha(&ta, &tb)
    }

    #[test]
    fn identical_trees_have_distance_zero() {
        assert_eq!(dist("{a{b}{c{d}}}", "{a{b}{c{d}}}"), 0);
        assert_eq!(dist("{x}", "{x}"), 0);
    }

    #[test]
    fn single_rename() {
        assert_eq!(dist("{a{b}{c}}", "{a{b}{z}}"), 1);
        assert_eq!(dist("{a}", "{b}"), 1);
    }

    #[test]
    fn single_insert_delete() {
        assert_eq!(dist("{a{b}}", "{a{b}{c}}"), 1);
        assert_eq!(dist("{a{b}{c}}", "{a{b}}"), 1);
        // Deleting an inner node splices its children upward: one op.
        assert_eq!(dist("{a{m{b}{c}}}", "{a{b}{c}}"), 1);
    }

    #[test]
    fn classic_zhang_shasha_example() {
        // The worked example from the original ZS paper:
        // d({f{d{a}{c{b}}}{e}}, {f{c{d{a}{b}}}{e}}) = 2.
        assert_eq!(dist("{f{d{a}{c{b}}}{e}}", "{f{c{d{a}{b}}}{e}}"), 2);
    }

    #[test]
    fn paper_figure3_distance_is_three() {
        // §2 of the paper: "It is easy to verify that TED(T1, T2) = 3" for
        // T1 = {1{2}{1{3}}} and T2 = {1{2{1}{3}}}.
        assert_eq!(dist("{1{2}{1{3}}}", "{1{2{1}{3}}}"), 3);
    }

    #[test]
    fn disjoint_trees_cost_everything() {
        // No shared labels: cheapest script renames min(n,m) nodes when the
        // shapes line up, plus size-difference insertions.
        assert_eq!(dist("{a}", "{b{c}{d}}"), 3); // 1 rename + 2 inserts
        assert_eq!(dist("{a{b}}", "{x{y}}"), 2);
    }

    #[test]
    fn distance_to_empty_like_leaf() {
        // Tree vs its root alone: delete every other node.
        assert_eq!(dist("{a{b{c}}{d}}", "{a}"), 3);
    }

    #[test]
    fn sibling_shift() {
        // Moving a subtree between siblings requires delete + insert.
        assert_eq!(dist("{r{a{x}}{b}}", "{r{a}{b{x}}}"), 2);
    }

    #[test]
    fn mirrored_pair_gives_same_distance() {
        let cases = [
            ("{f{d{a}{c{b}}}{e}}", "{f{c{d{a}{b}}}{e}}"),
            ("{1{2}{1{3}}}", "{1{2{1}{3}}}"),
            ("{a{b{c}{d}{e}}{f}}", "{a{f}{b{e}{d}{c}}}"),
            ("{r{a{x}}{b}}", "{r{a}{b{x}}}"),
        ];
        for (sa, sb) in cases {
            let (ta, tb) = pair(sa, sb);
            let left = {
                let (pa, pb) = (TedTree::new(&ta), TedTree::new(&tb));
                tree_distance(&pa, &pb, &CostModel::UNIT, &mut TedWorkspace::new())
            };
            let right = {
                let (pa, pb) = (TedTree::mirrored(&ta), TedTree::mirrored(&tb));
                tree_distance(&pa, &pb, &CostModel::UNIT, &mut TedWorkspace::new())
            };
            assert_eq!(
                left, right,
                "left/right decomposition disagree on {sa} vs {sb}"
            );
        }
    }

    #[test]
    fn workspace_reuse_is_sound() {
        let mut ws = TedWorkspace::new();
        let (t1, t2) = pair("{f{d{a}{c{b}}}{e}}", "{f{c{d{a}{b}}}{e}}");
        let (t3, t4) = pair("{a}", "{b{c}{d}}");
        let (p1, p2) = (TedTree::new(&t1), TedTree::new(&t2));
        let (p3, p4) = (TedTree::new(&t3), TedTree::new(&t4));
        // Interleave differently-sized computations through one workspace.
        assert_eq!(tree_distance(&p1, &p2, &CostModel::UNIT, &mut ws), 2);
        assert_eq!(tree_distance(&p3, &p4, &CostModel::UNIT, &mut ws), 3);
        assert_eq!(tree_distance(&p1, &p2, &CostModel::UNIT, &mut ws), 2);
        assert_eq!(tree_distance(&p1, &p1, &CostModel::UNIT, &mut ws), 0);
    }

    #[test]
    fn weighted_costs_respected() {
        let (ta, tb) = pair("{a{b}}", "{a{c}}");
        let costs = CostModel {
            insert: 1,
            delete: 1,
            relabel: 5,
        };
        let mut ws = TedWorkspace::new();
        let d = tree_distance(&TedTree::new(&ta), &TedTree::new(&tb), &costs, &mut ws);
        // Rename would cost 5; delete b + insert c costs 2.
        assert_eq!(d, 2);
    }
}
