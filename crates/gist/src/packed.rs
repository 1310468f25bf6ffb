//! A static, cache-linear 3D R-tree packed into flat arrays.
//!
//! [`PackedRTree`] is the bulk-load-only counterpart of [`RTree3D`]: the same
//! Sort-Tile-Recursive packing, but the result is laid out as parallel
//! structure-of-arrays lanes instead of a graph of per-node entry `Vec`s.
//! Item boxes live in one contiguous slab ordered by STR tile, node boxes in
//! another, and every node addresses its children as a `[start, end)` range —
//! so a range query is a walk over contiguous `f64`/`i64` lanes with **zero
//! heap allocation per query** (traversal recurses to the tree height, which
//! is logarithmic in the item count).
//!
//! This is the query structure behind the S2T voting hot path
//! (`hermes-s2t`'s `SegmentArena` index) and the packed base of the
//! ReTraTree's sub-chunk leaf indexes. It intentionally supports no
//! insertion or deletion: dynamic callers layer a small [`RTree3D`] delta on
//! top and rebuild the packed base on reorganisation.
//!
//! [`RTree3D`]: crate::RTree3D

use hermes_trajectory::{Mbb, TimeInterval, Timestamp};

/// Node fanout of the packed tree. Matches the GiST node capacity so packed
/// and incremental trees have comparable shapes.
const NODE_CAP: usize = 16;

/// Gap between two closed intervals along one axis (0 when they overlap).
///
/// Shared between the tree's ball traversal and the per-segment candidate
/// filter in `hermes-s2t`: the pruning-exactness argument of the voting hot
/// path requires both levels to compute the *same* lower bound, so there is
/// exactly one implementation. Written as two subtractions and two selects
/// (no branches — interval gaps are coin-flip data to a branch predictor):
/// exactly one of `b_min - a_max` / `a_min - b_max` is positive when the
/// intervals are disjoint, both are `<= 0.0` when they overlap, and equal
/// finite operands subtract to `+0.0` — so the selected value is identical
/// to the branchy three-case form, bit for bit.
#[inline]
pub fn axis_gap(a_min: f64, a_max: f64, b_min: f64, b_max: f64) -> f64 {
    let lo = b_min - a_max;
    let hi = a_min - b_max;
    let g = if lo > hi { lo } else { hi };
    if g > 0.0 {
        g
    } else {
        0.0
    }
}

/// One level-by-level packed node: its bounding lanes live in the `n*` arrays
/// of the tree at the node's index.
#[derive(Debug, Clone, Copy)]
struct NodeRef {
    /// First child (node index for internal nodes, item index for leaves).
    start: u32,
    /// One past the last child.
    end: u32,
    /// True when the children are items, not nodes.
    leaf: bool,
}

/// One ball-candidate query, prepared once per traversal: the query box with
/// its exact `i64` temporal bounds, and the squared radius.
struct BallQuery {
    x0: f64,
    x1: f64,
    y0: f64,
    y1: f64,
    t0: i64,
    t1: i64,
    r2: f64,
}

/// A static 3D R-tree over values of type `V`, keyed by spatio-temporal
/// boxes, stored as flat parallel arrays.
///
/// Bounds are blocked by axis kind: the temporal bounds of item/node `i`
/// live in one `[t_min, t_max]` pair (a single 16-byte read) and the spatial
/// bounds in one `[x_min, x_max, y_min, y_max]` block (32 bytes). Traversals
/// test time first — on trajectory workloads it is the most selective axis —
/// so the common rejected candidate touches exactly one cache line.
#[derive(Clone)]
pub struct PackedRTree<V> {
    // Item slabs, in STR-tile order. `values[i]` is keyed by the box
    // `(ixy[i], it[i])`.
    it: Vec<[i64; 2]>,
    ixy: Vec<[f64; 4]>,
    values: Vec<V>,
    // Node slabs. Leaves come first, then each internal level, root last.
    nt: Vec<[i64; 2]>,
    nxy: Vec<[f64; 4]>,
    nodes: Vec<NodeRef>,
    root: usize,
    height: usize,
}

impl<V> PackedRTree<V> {
    /// An empty tree (no items, no nodes; every query is a no-op).
    pub fn empty() -> Self {
        PackedRTree {
            it: Vec::new(),
            ixy: Vec::new(),
            values: Vec::new(),
            nt: Vec::new(),
            nxy: Vec::new(),
            nodes: Vec::new(),
            root: 0,
            height: 0,
        }
    }

    /// Bulk-loads the tree with Sort-Tile-Recursive packing over the box
    /// centers (x, then y, then t) — the same tiling discipline as
    /// [`RTree3D::bulk_load`](crate::RTree3D::bulk_load), flattened into the
    /// blocked slabs.
    pub fn bulk_load(mut items: Vec<(Mbb, V)>) -> Self {
        if items.is_empty() {
            return Self::empty();
        }

        // Recursive STR tiling over the item slice; leaves are emitted as
        // `[start, end)` ranges over the final (sorted-in-place) order.
        fn tile<V>(
            items: &mut [(Mbb, V)],
            offset: usize,
            dim: usize,
            leaf_cap: usize,
            out: &mut Vec<(usize, usize)>,
        ) {
            if items.len() <= leaf_cap {
                out.push((offset, offset + items.len()));
                return;
            }
            if dim >= 3 {
                let mut at = 0usize;
                while at < items.len() {
                    let end = (at + leaf_cap).min(items.len());
                    out.push((offset + at, offset + end));
                    at = end;
                }
                return;
            }
            let center = |b: &Mbb| -> f64 {
                match dim {
                    0 => (b.x_min + b.x_max) / 2.0,
                    1 => (b.y_min + b.y_max) / 2.0,
                    _ => (b.t_min.as_secs_f64() + b.t_max.as_secs_f64()) / 2.0,
                }
            };
            items.sort_by(|a, b| {
                center(&a.0)
                    .partial_cmp(&center(&b.0))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let leaves_needed = items.len().div_ceil(leaf_cap);
            let slabs = (leaves_needed as f64).powf(1.0 / (3 - dim) as f64).ceil() as usize;
            let slab_size = items.len().div_ceil(slabs.max(1));
            let mut at = 0usize;
            while at < items.len() {
                let end = (at + slab_size).min(items.len());
                tile(&mut items[at..end], offset + at, dim + 1, leaf_cap, out);
                at = end;
            }
        }

        let mut leaf_ranges: Vec<(usize, usize)> = Vec::new();
        tile(&mut items, 0, 0, NODE_CAP, &mut leaf_ranges);

        let n = items.len();
        let mut tree = PackedRTree {
            it: Vec::with_capacity(n),
            ixy: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
            nt: Vec::new(),
            nxy: Vec::new(),
            nodes: Vec::new(),
            root: 0,
            height: 1,
        };
        for (mbb, value) in items {
            tree.it.push([mbb.t_min.millis(), mbb.t_max.millis()]);
            tree.ixy.push([mbb.x_min, mbb.x_max, mbb.y_min, mbb.y_max]);
            tree.values.push(value);
        }

        // Leaf nodes: bounds of their item ranges.
        let mut level: Vec<usize> = Vec::with_capacity(leaf_ranges.len());
        for (start, end) in leaf_ranges {
            let idx = tree.push_node(NodeRef {
                start: start as u32,
                end: end as u32,
                leaf: true,
            });
            tree.set_node_bounds_from_items(idx, start, end);
            level.push(idx);
        }
        // Internal levels until one root remains.
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(NODE_CAP));
            for chunk in level.chunks(NODE_CAP) {
                let idx = tree.push_node(NodeRef {
                    start: chunk[0] as u32,
                    end: (chunk[chunk.len() - 1] + 1) as u32,
                    leaf: false,
                });
                tree.set_node_bounds_from_nodes(idx, chunk[0], chunk[chunk.len() - 1] + 1);
                next.push(idx);
            }
            level = next;
            tree.height += 1;
        }
        tree.root = level[0];
        tree
    }

    fn push_node(&mut self, node: NodeRef) -> usize {
        self.nodes.push(node);
        self.nt.push([0, 0]);
        self.nxy.push([0.0; 4]);
        self.nodes.len() - 1
    }

    fn set_node_bounds_from_items(&mut self, node: usize, start: usize, end: usize) {
        let mut xy = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut t = [i64::MAX, i64::MIN];
        for i in start..end {
            xy[0] = xy[0].min(self.ixy[i][0]);
            xy[1] = xy[1].max(self.ixy[i][1]);
            xy[2] = xy[2].min(self.ixy[i][2]);
            xy[3] = xy[3].max(self.ixy[i][3]);
            t[0] = t[0].min(self.it[i][0]);
            t[1] = t[1].max(self.it[i][1]);
        }
        self.nxy[node] = xy;
        self.nt[node] = t;
    }

    fn set_node_bounds_from_nodes(&mut self, node: usize, start: usize, end: usize) {
        let mut xy = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut t = [i64::MAX, i64::MIN];
        for i in start..end {
            xy[0] = xy[0].min(self.nxy[i][0]);
            xy[1] = xy[1].max(self.nxy[i][1]);
            xy[2] = xy[2].min(self.nxy[i][2]);
            xy[3] = xy[3].max(self.nxy[i][3]);
            t[0] = t[0].min(self.nt[i][0]);
            t[1] = t[1].max(self.nt[i][1]);
        }
        self.nxy[node] = xy;
        self.nt[node] = t;
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Height of the packed tree (0 when empty, 1 for a single leaf).
    pub fn height(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            self.height
        }
    }

    /// Visits every item index whose box intersects the query box. The
    /// visitor receives the *item index* into this tree's lanes — use
    /// [`PackedRTree::value`] and the `item_*` accessors, or the convenience
    /// wrappers below. Allocation-free.
    #[inline]
    pub fn for_each_intersecting_idx(&self, query: &Mbb, mut visit: impl FnMut(usize)) {
        if self.is_empty() {
            return;
        }
        let qx0 = query.x_min;
        let qx1 = query.x_max;
        let qy0 = query.y_min;
        let qy1 = query.y_max;
        let qt0 = query.t_min.millis();
        let qt1 = query.t_max.millis();
        self.visit_box(self.root, qx0, qx1, qy0, qy1, qt0, qt1, &mut visit);
    }

    #[allow(clippy::too_many_arguments)]
    fn visit_box(
        &self,
        node: usize,
        qx0: f64,
        qx1: f64,
        qy0: f64,
        qy1: f64,
        qt0: i64,
        qt1: i64,
        visit: &mut impl FnMut(usize),
    ) {
        let n = self.nodes[node];
        let (start, end) = (n.start as usize, n.end as usize);
        if n.leaf {
            for i in start..end {
                let t = self.it[i];
                if qt0 <= t[1] && t[0] <= qt1 {
                    let xy = self.ixy[i];
                    if qx0 <= xy[1] && xy[0] <= qx1 && qy0 <= xy[3] && xy[2] <= qy1 {
                        visit(i);
                    }
                }
            }
        } else {
            for c in start..end {
                let t = self.nt[c];
                if qt0 <= t[1] && t[0] <= qt1 {
                    let xy = self.nxy[c];
                    if qx0 <= xy[1] && xy[0] <= qx1 && qy0 <= xy[3] && xy[2] <= qy1 {
                        self.visit_box(c, qx0, qx1, qy0, qy1, qt0, qt1, visit);
                    }
                }
            }
        }
    }

    /// Visits every value whose box intersects `query` (allocation-free).
    pub fn for_each_intersecting<'a>(&'a self, query: &Mbb, mut visit: impl FnMut(&'a V)) {
        self.for_each_intersecting_idx(query, |i| visit(&self.values[i]));
    }

    /// Visits every item whose lifespan intersects `query`'s lifespan **and**
    /// whose minimum spatial (x/y) distance to `query` is at most `radius`.
    /// The visitor receives the item index plus the **squared spatial gap**
    /// between the item's box and the query box, so distance-kernel callers
    /// can use it as a free lower bound on the true distance.
    ///
    /// This is the candidate query of a distance-cutoff kernel (the S2T
    /// voting ball): it prunes strictly more than intersecting with the
    /// radius-inflated box — a per-axis inflate admits corner candidates up
    /// to `√2·radius` away, the Euclidean gap test here rejects them, at the
    /// node level as well as the item level. Items are visited in ascending
    /// index order within a leaf and leaves in depth-first child order, so
    /// the visit sequence is a deterministic function of the tree and the
    /// query. Allocation-free.
    #[inline]
    pub fn for_each_ball_candidate_idx(
        &self,
        query: &Mbb,
        radius: f64,
        mut visit: impl FnMut(usize, f64),
    ) {
        if self.is_empty() {
            return;
        }
        let q = BallQuery {
            x0: query.x_min,
            x1: query.x_max,
            y0: query.y_min,
            y1: query.y_max,
            t0: query.t_min.millis(),
            t1: query.t_max.millis(),
            r2: radius * radius,
        };
        self.visit_ball(self.root, &q, &mut visit);
    }

    /// One node of the ball traversal: the temporal test on the exact `i64`
    /// bounds, then `axis_gap` against the ball, for items (leaves) or
    /// children (internal nodes) alike.
    fn visit_ball(&self, node: usize, q: &BallQuery, visit: &mut impl FnMut(usize, f64)) {
        let n = self.nodes[node];
        let (start, end) = (n.start as usize, n.end as usize);
        if n.leaf {
            for i in start..end {
                let t = self.it[i];
                if q.t0 <= t[1] && t[0] <= q.t1 {
                    let xy = self.ixy[i];
                    let gx = axis_gap(xy[0], xy[1], q.x0, q.x1);
                    let gy = axis_gap(xy[2], xy[3], q.y0, q.y1);
                    let gap2 = gx * gx + gy * gy;
                    if gap2 <= q.r2 {
                        visit(i, gap2);
                    }
                }
            }
        } else {
            for c in start..end {
                let t = self.nt[c];
                if q.t0 <= t[1] && t[0] <= q.t1 {
                    let xy = self.nxy[c];
                    let gx = axis_gap(xy[0], xy[1], q.x0, q.x1);
                    let gy = axis_gap(xy[2], xy[3], q.y0, q.y1);
                    if gx * gx + gy * gy <= q.r2 {
                        self.visit_ball(c, q, visit);
                    }
                }
            }
        }
    }

    /// Visits every value whose lifespan intersects the temporal window
    /// (spatially unbounded) — the packed counterpart of
    /// [`RTree3D::query_temporal`](crate::RTree3D::query_temporal).
    #[inline]
    pub fn for_each_temporal_overlap<'a>(&'a self, w: &TimeInterval, mut visit: impl FnMut(&'a V)) {
        if self.is_empty() {
            return;
        }
        let qt0 = w.start.millis();
        let qt1 = w.end.millis();
        self.visit_temporal(self.root, qt0, qt1, &mut visit);
    }

    fn visit_temporal<'a>(
        &'a self,
        node: usize,
        qt0: i64,
        qt1: i64,
        visit: &mut impl FnMut(&'a V),
    ) {
        let n = self.nodes[node];
        let (start, end) = (n.start as usize, n.end as usize);
        if n.leaf {
            for i in start..end {
                if qt0 <= self.it[i][1] && self.it[i][0] <= qt1 {
                    visit(&self.values[i]);
                }
            }
        } else {
            for c in start..end {
                if qt0 <= self.nt[c][1] && self.nt[c][0] <= qt1 {
                    self.visit_temporal(c, qt0, qt1, visit);
                }
            }
        }
    }

    /// All values whose lifespan intersects `w`, collected (convenience over
    /// [`PackedRTree::for_each_temporal_overlap`]).
    pub fn query_temporal(&self, w: &TimeInterval) -> Vec<&V> {
        let mut out = Vec::new();
        self.for_each_temporal_overlap(w, |v| out.push(v));
        out
    }

    /// All values whose box intersects `mbb`, collected.
    pub fn query_intersecting(&self, mbb: &Mbb) -> Vec<&V> {
        let mut out = Vec::new();
        self.for_each_intersecting(mbb, |v| out.push(v));
        out
    }

    /// The value stored at item index `i` (STR-tile order).
    #[inline]
    pub fn value(&self, i: usize) -> &V {
        &self.values[i]
    }

    /// The box of item `i`, reassembled from the slabs.
    pub fn item_mbb(&self, i: usize) -> Mbb {
        let xy = self.ixy[i];
        Mbb::new(
            xy[0],
            xy[1],
            xy[2],
            xy[3],
            Timestamp(self.it[i][0]),
            Timestamp(self.it[i][1]),
        )
    }

    /// Iterates over `(mbb, value)` in item-lane order.
    pub fn iter(&self) -> impl Iterator<Item = (Mbb, &V)> + '_ {
        (0..self.values.len()).map(move |i| (self.item_mbb(i), &self.values[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RTree3D;

    fn boxy(x0: f64, x1: f64, y0: f64, y1: f64, t0: i64, t1: i64) -> Mbb {
        Mbb::new(x0, x1, y0, y1, Timestamp(t0), Timestamp(t1))
    }

    /// A deterministic pseudo-random box cloud (SplitMix64-style mixing so
    /// the shape is irregular without a datagen dependency).
    fn cloud(n: usize, seed: u64) -> Vec<(Mbb, usize)> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        (0..n)
            .map(|i| {
                let x = next() * 1_000.0;
                let y = next() * 1_000.0;
                let t = (next() * 1_000_000.0) as i64;
                let w = next() * 30.0;
                let h = next() * 30.0;
                let d = (next() * 30_000.0) as i64;
                (boxy(x, x + w, y, y + h, t, t + d), i)
            })
            .collect()
    }

    #[test]
    fn matches_rtree3d_on_box_queries() {
        let items = cloud(500, 0xC0FFEE);
        let packed = PackedRTree::bulk_load(items.clone());
        let reference = RTree3D::bulk_load(items.clone());
        assert_eq!(packed.len(), 500);
        assert!(packed.height() >= 2);

        for q in [
            boxy(0.0, 200.0, 0.0, 200.0, 0, 300_000),
            boxy(400.0, 600.0, 100.0, 900.0, 500_000, 700_000),
            boxy(-50.0, -1.0, 0.0, 1_000.0, 0, 1_000_000),
            boxy(0.0, 1_000.0, 0.0, 1_000.0, 0, 2_000_000),
        ] {
            let mut a: Vec<usize> = packed.query_intersecting(&q).into_iter().copied().collect();
            let mut b: Vec<usize> = reference
                .query_intersecting(&q)
                .into_iter()
                .copied()
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "query {q}");
        }
    }

    #[test]
    fn matches_rtree3d_on_temporal_queries() {
        let items = cloud(300, 42);
        let packed = PackedRTree::bulk_load(items.clone());
        let reference = RTree3D::bulk_load(items.clone());
        for (t0, t1) in [(0i64, 100_000i64), (250_000, 400_000), (999_999, 999_999)] {
            let w = TimeInterval::new(Timestamp(t0), Timestamp(t1));
            let mut a: Vec<usize> = packed.query_temporal(&w).into_iter().copied().collect();
            let mut b: Vec<usize> = reference.query_temporal(&w).into_iter().copied().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "window {t0}..{t1}");
        }
    }

    #[test]
    fn brute_force_agreement_on_small_sets() {
        for n in [0usize, 1, 2, 15, 16, 17, 100] {
            let items = cloud(n, n as u64 + 7);
            let packed = PackedRTree::bulk_load(items.clone());
            assert_eq!(packed.len(), n);
            let q = boxy(100.0, 600.0, 100.0, 600.0, 100_000, 600_000);
            let mut got: Vec<usize> = packed.query_intersecting(&q).into_iter().copied().collect();
            got.sort_unstable();
            let mut want: Vec<usize> = items
                .iter()
                .filter(|(b, _)| b.intersects(&q))
                .map(|(_, v)| *v)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn empty_query_box_matches_nothing() {
        let packed = PackedRTree::bulk_load(cloud(64, 3));
        assert_eq!(packed.query_intersecting(&Mbb::empty()).len(), 0);
        let empty: PackedRTree<usize> = PackedRTree::bulk_load(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.height(), 0);
        assert_eq!(
            empty
                .query_intersecting(&boxy(0.0, 1.0, 0.0, 1.0, 0, 1))
                .len(),
            0
        );
        assert_eq!(
            empty
                .query_temporal(&TimeInterval::new(Timestamp(0), Timestamp(1)))
                .len(),
            0
        );
    }

    #[test]
    fn ball_candidates_match_brute_force_gap_test() {
        fn gap(a_min: f64, a_max: f64, b_min: f64, b_max: f64) -> f64 {
            if a_max < b_min {
                b_min - a_max
            } else if b_max < a_min {
                a_min - b_max
            } else {
                0.0
            }
        }
        let items = cloud(400, 0xBA11);
        let packed = PackedRTree::bulk_load(items.clone());
        let q = boxy(300.0, 360.0, 300.0, 360.0, 200_000, 500_000);
        for radius in [0.0, 25.0, 120.0, 2_000.0] {
            let mut got: Vec<usize> = Vec::new();
            packed.for_each_ball_candidate_idx(&q, radius, |i, gap2| {
                assert!(gap2 >= 0.0 && gap2 <= radius * radius + 1e-9);
                got.push(*packed.value(i));
            });
            got.sort_unstable();
            let mut want: Vec<usize> = items
                .iter()
                .filter(|(b, _)| {
                    let temporal = q.t_min <= b.t_max && b.t_min <= q.t_max;
                    let gx = gap(b.x_min, b.x_max, q.x_min, q.x_max);
                    let gy = gap(b.y_min, b.y_max, q.y_min, q.y_max);
                    temporal && gx * gx + gy * gy <= radius * radius
                })
                .map(|(_, v)| *v)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "radius {radius}");
            // And every ball candidate intersects the radius-inflated box.
            let inflated = q.inflate(radius, 0);
            for &v in &got {
                assert!(items[v].0.intersects(&inflated));
            }
        }
    }

    #[test]
    fn iter_round_trips_items() {
        let items = cloud(40, 9);
        let packed = PackedRTree::bulk_load(items.clone());
        let mut got: Vec<usize> = packed.iter().map(|(_, v)| *v).collect();
        got.sort_unstable();
        assert_eq!(got, (0..40).collect::<Vec<_>>());
        for (mbb, &v) in packed.iter() {
            assert_eq!(items[v].0, mbb);
        }
        for i in 0..packed.len() {
            assert_eq!(packed.item_mbb(i), items[*packed.value(i)].0);
        }
    }
}
