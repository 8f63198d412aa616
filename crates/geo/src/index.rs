//! Packed static spatial index over road networks.
//!
//! The paper's city-scale evaluation (Figure 7a) covers 164.8 km; the
//! crowd-sourced workload the ROADMAP targets needs every fleet trip
//! map-matched against a country-scale network (10⁵–10⁶ polyline
//! segments) and gradient-map tiles served by bounding-box query. A
//! linear scan over the segment list is O(n) per fix; this module
//! provides the sublinear substrate:
//!
//! * a build-once, flatbush-style packed R-tree (private to this module):
//!   item AABBs are sorted by the Hilbert value of their centers,
//!   grouped into fixed-fanout nodes, and packed level-by-level into
//!   one flat `Vec`. No pointers, no per-query allocation — queries
//!   walk the tree through caller-owned [`QueryScratch`].
//! * [`SegmentIndex`] — the R-tree specialised to line segments with
//!   exact closed-form point-to-segment projection at the leaves.
//! * [`EdgeIndex`] — the R-tree over a [`RoadNetwork`]'s whole-edge
//!   AABBs (bounding-box retrieval for tiles).
//! * [`NetworkIndex`] — an [`EdgeIndex`] plus a [`SegmentIndex`] over
//!   every centerline segment (nearest-edge / nearest-arc queries).
//!
//! Warm queries are allocation-free: the traversal stacks live in
//! [`QueryScratch`] and retain their capacity across calls, which the
//! `geo_index` experiment asserts with the counting allocator.

use crate::network::RoadNetwork;
use gradest_math::Vec2;

/// An axis-aligned bounding box in the local planar frame (metres).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum x (west edge).
    pub min_x: f64,
    /// Minimum y (south edge).
    pub min_y: f64,
    /// Maximum x (east edge).
    pub max_x: f64,
    /// Maximum y (north edge).
    pub max_y: f64,
}

impl Aabb {
    /// An inverted box that unions to any other box.
    const EMPTY: Aabb = Aabb {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    /// The box spanning two corner points (in any order).
    pub fn of_corners(a: Vec2, b: Vec2) -> Aabb {
        Aabb { min_x: a.x.min(b.x), min_y: a.y.min(b.y), max_x: a.x.max(b.x), max_y: a.y.max(b.y) }
    }

    /// The smallest box containing both operands.
    fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Whether the two boxes overlap (closed intervals).
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min_x <= other.max_x
            && self.max_x >= other.min_x
            && self.min_y <= other.max_y
            && self.max_y >= other.min_y
    }

    /// Center point of the box.
    fn center(&self) -> Vec2 {
        Vec2::new(0.5 * (self.min_x + self.max_x), 0.5 * (self.min_y + self.max_y))
    }

    /// Squared distance from `p` to the nearest point of the box
    /// (0 when `p` is inside).
    fn dist_sq(&self, p: Vec2) -> f64 {
        let dx = (self.min_x - p.x).max(0.0).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(0.0).max(p.y - self.max_y);
        dx * dx + dy * dy
    }
}

/// Tree fanout: children per internal node. 16 keeps the tree shallow
/// (10⁶ leaves → 5 levels) while the per-node child sweep still fits a
/// fixed-size candidate buffer on the nearest-query stack frame.
const NODE_SIZE: usize = 16;

/// Hilbert-curve order: centers are quantized to a 2¹⁶ × 2¹⁶ grid over
/// the data bounds before computing curve positions.
const HILBERT_ORDER: u32 = 16;

// A curve position has two bits per level, so it fits the upper half
// of the packed `d << 32 | id` sort key, and the levels split into
// whole nibbles for the table walk.
const _: () = assert!(2 * HILBERT_ORDER <= 32 && HILBERT_ORDER.is_multiple_of(4));

/// One level of the curve walk, indexed by `state << 2 | x_bit << 1 |
/// y_bit`: `digit << 2 | next_state`. The state is the frame the levels
/// above left behind (bit 0: axes swapped, bit 1: both axes
/// complemented); in that frame the level's quadrant digit is
/// `3·rx ^ ry`, and a level with `ry = 0` swaps the axes, complementing
/// both first when `rx = 1`.
const HILBERT_STEP: [u8; 16] = {
    let mut table = [0u8; 16];
    let mut i = 0;
    while i < 16 {
        let (state, x_bit, y_bit) = (i >> 2, (i >> 1) & 1, i & 1);
        let flip = state >> 1;
        let (rx, ry) = if state & 1 == 1 { (y_bit, x_bit) } else { (x_bit, y_bit) };
        let (rx, ry) = (rx ^ flip, ry ^ flip);
        let next = if ry == 0 { state ^ 1 ^ (rx << 1) } else { state };
        table[i] = (((3 * rx) ^ ry) << 2 | next) as u8;
        i += 1;
    }
    table
};

/// [`HILBERT_STEP`] composed four levels deep, indexed by
/// `state << 8 | x_nibble << 4 | y_nibble`: the nibble's four digits
/// (eight bits of curve position) `<< 2 | next_state`.
const HILBERT_NIBBLE: [u16; 1024] = {
    let mut table = [0u16; 1024];
    let mut i = 0;
    while i < 1024 {
        let (mut state, x, y) = (i >> 8, (i >> 4) & 0xF, i & 0xF);
        let mut digits = 0;
        let mut bit = 4;
        while bit > 0 {
            bit -= 1;
            let step = HILBERT_STEP[state << 2 | ((x >> bit) & 1) << 1 | ((y >> bit) & 1)] as usize;
            digits = digits << 2 | step >> 2;
            state = step & 3;
        }
        table[i] = (digits << 2 | state) as u16;
        i += 1;
    }
    table
};

/// Hilbert curve position of quantized cell `(x, y)` on the
/// `2^HILBERT_ORDER` grid: four [`HILBERT_NIBBLE`] lookups, from the
/// top nibble down. Bits above the grid are ignored.
fn hilbert_d(x: u32, y: u32) -> u64 {
    let mut d = 0u64;
    let mut state = 0usize;
    for nibble in (0..HILBERT_ORDER / 4).rev() {
        let shift = 4 * nibble;
        let cell = (((x >> shift) & 0xF) << 4 | ((y >> shift) & 0xF)) as usize;
        // In range: state < 4 and cell < 256.
        let step = HILBERT_NIBBLE[state << 8 | cell];
        d = d << 8 | u64::from(step >> 2);
        state = usize::from(step & 3);
    }
    d
}

/// Reusable traversal state for [`SegmentIndex`], [`EdgeIndex`] and
/// [`NetworkIndex`] queries.
///
/// Holds the bounding-box stack and the nearest-query priority stack;
/// both retain capacity across queries, so a warm query allocates
/// nothing. One scratch per querying thread.
///
/// The scratch also remembers the segment its last
/// [`SegmentIndex::nearest`] query returned. The next nearest query
/// starts its branch-and-bound from that segment's exact distance to
/// the new point instead of from +∞, so a walk of nearby points (the
/// fixes of one trip) prunes most of the tree from the first pop. The
/// hint only narrows the search: every hit equals the hit of a fresh
/// scratch, bit for bit, whichever index the hint came from.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    /// (level, index-within-level) stack for bbox traversal.
    stack: Vec<(u32, u32)>,
    /// (min dist², level, index) stack for nearest traversal.
    near: Vec<(f64, u32, u32)>,
    /// Segment id the last nearest query returned.
    last: Option<u32>,
    /// Nodes the nearest queries popped, counted for the tests.
    #[cfg(test)]
    popped: usize,
}

impl QueryScratch {
    /// Creates an empty scratch (stacks grow on first query).
    pub fn new() -> Self {
        QueryScratch::default()
    }
}

/// A packed, build-once static R-tree over item bounding boxes.
///
/// Built bottom-up from a Hilbert sort of the item AABB centers:
/// leaves land in curve order (spatially coherent), every
/// `NODE_SIZE` consecutive boxes get one parent, and all levels pack
/// into a single flat `Vec` (leaves first, root last). The tree is
/// immutable after `PackedRtree::build`; queries are read-only and
/// allocation-free through a caller [`QueryScratch`].
#[derive(Debug, Clone)]
struct PackedRtree {
    /// All node boxes: level 0 (leaves, Hilbert order) through the root.
    boxes: Vec<Aabb>,
    /// Leaf slot → original item id.
    ids: Vec<u32>,
    /// Offset of each level's first box inside `boxes`.
    level_offsets: Vec<usize>,
    /// Node count per level; `level_counts[0] == ids.len()`.
    level_counts: Vec<usize>,
    /// Bounds of the whole item set.
    bounds: Aabb,
}

impl PackedRtree {
    /// Builds the tree over `items` (item id = slice position).
    ///
    /// Bulk load: quantize each AABB center onto a 2¹⁶ grid spanning
    /// the data bounds, sort by Hilbert curve position (ties broken by
    /// id, so the build is deterministic), then pack parent levels.
    /// Building allocates; queries never do.
    ///
    /// The sort runs on one `u64` per item, `d << 32 | id`: the curve
    /// position has 32 bits, so these keys order exactly as the
    /// `(d, id)` pairs do.
    fn build(items: &[Aabb]) -> PackedRtree {
        let bounds = items.iter().fold(Aabb::EMPTY, |acc, b| acc.union(b));
        let mut keys: Vec<u64> = grid_cells(items, &bounds)
            .zip(0u32..)
            .map(|((qx, qy), id)| hilbert_d(qx, qy) << 32 | u64::from(id))
            .collect();
        keys.sort_unstable();
        PackedRtree::pack(items, bounds, keys.iter().map(|&key| key as u32))
    }

    /// Packs the tree from its leaf order: `leaf_ids` lists the item ids
    /// in Hilbert order, every `NODE_SIZE` consecutive boxes of a level
    /// get one parent, and the levels go into one flat `Vec`.
    fn pack(
        items: &[Aabb],
        bounds: Aabb,
        leaf_ids: impl ExactSizeIterator<Item = u32>,
    ) -> PackedRtree {
        let n = leaf_ids.len();
        if n == 0 {
            return PackedRtree {
                boxes: Vec::new(),
                ids: Vec::new(),
                level_offsets: Vec::new(),
                level_counts: Vec::new(),
                bounds: Aabb::EMPTY,
            };
        }
        // Level sizes bottom-up until a single root.
        let mut level_counts = vec![n];
        while *level_counts.last().unwrap_or(&1) > 1 {
            let prev = *level_counts.last().unwrap_or(&1);
            level_counts.push(prev.div_ceil(NODE_SIZE));
        }
        let mut level_offsets = Vec::with_capacity(level_counts.len());
        let mut acc = 0usize;
        for &c in &level_counts {
            level_offsets.push(acc);
            acc += c;
        }
        let mut boxes = vec![Aabb::EMPTY; acc];
        let mut ids = Vec::with_capacity(n);
        for (slot, id) in leaf_ids.enumerate() {
            boxes[slot] = items[id as usize];
            ids.push(id);
        }
        // Pack parents: each groups NODE_SIZE children of the level below.
        for lvl in 1..level_counts.len() {
            let child_off = level_offsets[lvl - 1]; // lint:allow(hot-index) lvl >= 1 by the loop range
            let child_n = level_counts[lvl - 1]; // lint:allow(hot-index) lvl >= 1 by the loop range
            let off = level_offsets[lvl];
            for i in 0..level_counts[lvl] {
                let lo = i * NODE_SIZE;
                let hi = (lo + NODE_SIZE).min(child_n);
                let mut b = Aabb::EMPTY;
                for c in lo..hi {
                    // lint:allow(hot-index) c < child_n, and child_off + child_n <= boxes.len()
                    b = b.union(&boxes[child_off + c]);
                }
                boxes[off + i] = b; // lint:allow(hot-index) i < level_counts[lvl] inside this level's span
            }
        }
        PackedRtree { boxes, ids, level_offsets, level_counts, bounds }
    }

    /// Number of indexed items.
    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the tree is empty.
    fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Bounds of the indexed items ([`Aabb::EMPTY`] when empty).
    fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// The box of node `idx` at `level` (0 = leaves).
    fn node(&self, level: usize, idx: usize) -> &Aabb {
        let off = self.level_offsets[level];
        // lint:allow(hot-index) idx < level_counts[level]; offsets partition `boxes` by level
        &self.boxes[off + idx]
    }

    /// Item ids whose boxes intersect `query`, as a lazy iterator
    /// driving a depth-first traversal through `scratch` (no
    /// allocation on a warm scratch). Order is traversal order, not
    /// sorted.
    fn query_bbox<'t, 's>(
        &'t self,
        query: Aabb,
        scratch: &'s mut QueryScratch,
    ) -> BboxIter<'t, 's> {
        scratch.stack.clear();
        if !self.is_empty() {
            let top = self.level_counts.len() - 1;
            scratch.stack.push((top as u32, 0));
        }
        BboxIter { tree: self, query, stack: &mut scratch.stack }
    }

    /// Nearest item to `p` by branch-and-bound: internal nodes are
    /// pruned on box distance, leaves are ranked by the caller's exact
    /// metric `leaf_dist_sq(id)` (squared distance). Returns the best
    /// `(id, dist_sq)`, or `None` when empty. Ties resolve to the
    /// first leaf reached, which the Hilbert packing makes
    /// deterministic for a given build.
    ///
    /// `bound`, when given, is the exact distance of some item: the
    /// search starts with it as the best distance, so it only prunes,
    /// and the first leaf at or under it is accepted (later ones must
    /// beat the best strictly, as without a bound). `None` if no leaf
    /// is at or under the bound.
    fn nearest_with<F>(
        &self,
        p: Vec2,
        scratch: &mut QueryScratch,
        bound: Option<f64>,
        mut leaf_dist_sq: F,
    ) -> Option<(u32, f64)>
    where
        F: FnMut(u32) -> f64,
    {
        if self.is_empty() {
            return None;
        }
        let stack = &mut scratch.near;
        stack.clear();
        let top = self.level_counts.len() - 1;
        stack.push((0.0, top as u32, 0));
        let mut best: Option<(u32, f64)> = None;
        let mut best_d = bound.unwrap_or(f64::INFINITY);
        // A bound is a real item's distance, so a leaf that ties it is
        // accepted; without one, +∞ is no item and is never accepted.
        let mut tie_ok = bound.is_some();
        while let Some((d, lvl, idx)) = stack.pop() {
            #[cfg(test)]
            {
                scratch.popped += 1;
            }
            if d > best_d {
                continue;
            }
            let lvl = lvl as usize;
            let idx = idx as usize;
            if lvl == 0 {
                let id = self.ids[idx];
                let dl = leaf_dist_sq(id);
                if dl < best_d || (tie_ok && dl <= best_d) {
                    best_d = dl;
                    best = Some((id, dl));
                    tie_ok = false;
                }
                continue;
            }
            let child_lvl = lvl - 1;
            let lo = idx * NODE_SIZE;
            let hi = (lo + NODE_SIZE).min(self.level_counts[child_lvl]);
            // Rank the children so the closest is popped first: a good
            // early best tightens the prune for every later pop.
            let mut cand: [(f64, u32); NODE_SIZE] = [(0.0, 0); NODE_SIZE];
            let mut m = 0usize;
            for c in lo..hi {
                let dc = self.node(child_lvl, c).dist_sq(p);
                if dc <= best_d {
                    cand[m] = (dc, c as u32);
                    m += 1;
                }
            }
            let live = &mut cand[..m];
            // Insertion sort ascending (≤ NODE_SIZE entries, no alloc).
            for i in 1..live.len() {
                let mut j = i;
                // lint:allow(hot-index) j > 0 on the left of && bounds j - 1
                while j > 0 && live[j - 1].0 > live[j].0 {
                    live.swap(j - 1, j);
                    j -= 1;
                }
            }
            // Push farthest first so the nearest child is on top.
            for k in (0..live.len()).rev() {
                let (dc, c) = live[k];
                stack.push((dc, child_lvl as u32, c));
            }
        }
        best
    }
}

/// Each item's center quantized onto the 2¹⁶ × 2¹⁶ Hilbert grid over
/// `bounds`, in item order. Degenerate spans (all centers on one
/// line/point) quantize to cell 0 on that axis, and a NaN coordinate
/// to 0; the sort then falls back to id order.
fn grid_cells<'a>(items: &'a [Aabb], bounds: &Aabb) -> impl Iterator<Item = (u32, u32)> + 'a {
    let w = bounds.max_x - bounds.min_x;
    let h = bounds.max_y - bounds.min_y;
    let side = f64::from((1u32 << HILBERT_ORDER) - 1);
    let sx = if w > 0.0 { side / w } else { 0.0 };
    let sy = if h > 0.0 { side / h } else { 0.0 };
    let (min_x, min_y) = (bounds.min_x, bounds.min_y);
    items.iter().map(move |b| {
        let c = b.center();
        (((c.x - min_x) * sx) as u32, ((c.y - min_y) * sy) as u32)
    })
}

/// Lazy bounding-box query over a packed R-tree (see
/// [`SegmentIndex::query_bbox`] and [`EdgeIndex::edges_in_bbox`]).
/// Borrows the caller's scratch stack, so iteration allocates nothing
/// once the stack is warm.
#[derive(Debug)]
pub struct BboxIter<'t, 's> {
    tree: &'t PackedRtree,
    query: Aabb,
    stack: &'s mut Vec<(u32, u32)>,
}

impl Iterator for BboxIter<'_, '_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while let Some((lvl, idx)) = self.stack.pop() {
            let lvl = lvl as usize;
            let idx = idx as usize;
            if !self.tree.node(lvl, idx).intersects(&self.query) {
                continue;
            }
            if lvl == 0 {
                return Some(self.tree.ids[idx]);
            }
            let child_lvl = lvl - 1;
            let lo = idx * NODE_SIZE;
            let hi = (lo + NODE_SIZE).min(self.tree.level_counts[child_lvl]);
            for c in lo..hi {
                self.stack.push((child_lvl as u32, c as u32));
            }
        }
        None
    }
}

/// One indexable line segment: endpoints, owning edge, and the edge
/// arc length at the segment start.
///
/// Raw segments (rather than [`crate::Polyline`]s) are the build input
/// so callers — the oracle property tests in particular — can index
/// degenerate geometry (zero-length, collinear runs) that `Polyline`
/// construction rejects; a zero-length segment projects as a point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Vec2,
    /// End point.
    pub b: Vec2,
    /// Index of the owning network edge.
    pub edge: u32,
    /// Arc length along the owning edge at `a`, metres.
    pub s0: f64,
}

/// Result of a nearest query against a segment set: the winning
/// segment, its owning edge, and the exact projection of the query
/// point onto it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentHit {
    /// Index of the winning segment in build order.
    pub segment: usize,
    /// Owning network edge index.
    pub edge: usize,
    /// Arc length of the projection along the owning edge, metres.
    pub s: f64,
    /// The projected (snapped) point.
    pub point: Vec2,
    /// Distance from the query point to `point`, metres.
    pub dist_m: f64,
}

/// Exact closed-form projection of `p` onto segment `a→b`: returns the
/// clamped parameter `t ∈ [0, 1]` and the squared distance. Zero-length
/// segments project to `a` (`t = 0`).
#[inline]
pub fn project_point_segment(p: Vec2, a: Vec2, b: Vec2) -> (f64, f64) {
    let dx = b.x - a.x;
    let dy = b.y - a.y;
    let len2 = dx * dx + dy * dy;
    let t = if len2 > 0.0 {
        (((p.x - a.x) * dx + (p.y - a.y) * dy) / len2).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let cx = a.x + t * dx;
    let cy = a.y + t * dy;
    let ex = p.x - cx;
    let ey = p.y - cy;
    (t, ex * ex + ey * ey)
}

/// A packed R-tree over line segments with exact point-to-segment
/// projection at the leaves. Segment data is stored as structure-of-
/// arrays so the leaf distance sweep reads contiguous memory.
#[derive(Debug, Clone)]
pub struct SegmentIndex {
    tree: PackedRtree,
    ax: Vec<f64>,
    ay: Vec<f64>,
    bx: Vec<f64>,
    by: Vec<f64>,
    edge: Vec<u32>,
    s0: Vec<f64>,
}

impl SegmentIndex {
    /// Builds the index over `segments` (ids = slice positions).
    pub fn build(segments: &[Segment]) -> SegmentIndex {
        let mut boxes = Vec::with_capacity(segments.len());
        let mut ax = Vec::with_capacity(segments.len());
        let mut ay = Vec::with_capacity(segments.len());
        let mut bx = Vec::with_capacity(segments.len());
        let mut by = Vec::with_capacity(segments.len());
        let mut edge = Vec::with_capacity(segments.len());
        let mut s0 = Vec::with_capacity(segments.len());
        for s in segments {
            boxes.push(Aabb::of_corners(s.a, s.b));
            ax.push(s.a.x);
            ay.push(s.a.y);
            bx.push(s.b.x);
            by.push(s.b.y);
            edge.push(s.edge);
            s0.push(s.s0);
        }
        SegmentIndex { tree: PackedRtree::build(&boxes), ax, ay, bx, by, edge, s0 }
    }

    /// Number of indexed segments.
    pub fn len(&self) -> usize {
        self.edge.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.edge.is_empty()
    }

    /// Bounds of the indexed segments.
    pub fn bounds(&self) -> Aabb {
        self.tree.bounds()
    }

    /// Endpoints of segment `id` in build order.
    fn seg_points(&self, id: usize) -> (Vec2, Vec2) {
        (Vec2::new(self.ax[id], self.ay[id]), Vec2::new(self.bx[id], self.by[id]))
    }

    /// Exact nearest segment to `p` (branch-and-bound over the tree,
    /// closed-form projection at the leaves). Allocation-free on a
    /// warm scratch. Returns `None` when empty, and at once (clearing
    /// the scratch's hint) for a point with a NaN or infinite
    /// coordinate, which no segment is at a finite distance from.
    ///
    /// The search starts from the exact distance of the segment this
    /// scratch returned last (see [`QueryScratch`]); the hit is the one
    /// a fresh scratch returns.
    pub fn nearest(&self, p: Vec2, scratch: &mut QueryScratch) -> Option<SegmentHit> {
        if !p.is_finite() {
            scratch.last = None;
            return None;
        }
        let leaf_dist_sq = |id: u32| {
            let (a, b) = self.seg_points(id as usize);
            project_point_segment(p, a, b).1
        };
        // The bound only removes nodes from the search, and those left
        // are visited in the unbounded order. Every node that holds a
        // nearest leaf stays (a box is never farther than a segment
        // inside it), so the first nearest leaf reached is the
        // unbounded search's, tie included. A hint out of range or at a
        // non-finite distance is not used, and a bounded search that
        // accepts nothing reruns unbounded.
        let bound = scratch
            .last
            .filter(|&id| (id as usize) < self.len())
            .map(leaf_dist_sq)
            .filter(|d| d.is_finite());
        let mut found = self.tree.nearest_with(p, scratch, bound, leaf_dist_sq);
        if found.is_none() && bound.is_some() {
            found = self.tree.nearest_with(p, scratch, None, leaf_dist_sq);
        }
        scratch.last = found.map(|(id, _)| id);
        let (id, _) = found?;
        Some(self.hit_for(p, id as usize))
    }

    /// The fully-resolved hit for the winning segment (projection is
    /// recomputed once — cheaper than carrying it through the search).
    fn hit_for(&self, p: Vec2, id: usize) -> SegmentHit {
        let (a, b) = self.seg_points(id);
        let (t, d2) = project_point_segment(p, a, b);
        let seg_len = (b - a).norm();
        SegmentHit {
            segment: id,
            edge: self.edge[id] as usize,
            s: self.s0[id] + t * seg_len,
            point: a.lerp(b, t),
            dist_m: d2.sqrt(),
        }
    }

    /// Segment ids whose AABBs intersect `query` (traversal order).
    pub fn query_bbox<'t, 's>(
        &'t self,
        query: Aabb,
        scratch: &'s mut QueryScratch,
    ) -> BboxIter<'t, 's> {
        self.tree.query_bbox(query, scratch)
    }
}

/// Flattens a network's edge centerlines into raw [`Segment`]s, in
/// edge order then vertex order — the build input for the segment
/// half of a [`NetworkIndex`] and for brute-force oracles.
pub fn network_segments(net: &RoadNetwork) -> Vec<Segment> {
    let mut out = Vec::new();
    for (ei, e) in net.edges().iter().enumerate() {
        let line = e.road.centerline();
        let pts = line.points();
        let cum = line.cumulative_lengths();
        for j in 0..pts.len().saturating_sub(1) {
            out.push(Segment {
                a: pts[j],
                b: pts[j + 1], // lint:allow(hot-index) j < pts.len() - 1 by the loop bound
                edge: ei as u32,
                s0: cum[j],
            });
        }
    }
    out
}

/// The packed R-tree over a [`RoadNetwork`]'s whole-edge AABBs (item
/// id = edge index): which edges a box touches, the one question a tile
/// asks. The edge half of a [`NetworkIndex`], and on its own all the
/// ingestion server builds.
///
/// # Example
///
/// ```
/// use gradest_geo::generate::city_network;
/// use gradest_geo::index::{EdgeIndex, QueryScratch};
///
/// let net = city_network(7);
/// let index = EdgeIndex::build(&net);
/// let mut scratch = QueryScratch::new();
/// let all = index.edges_in_bbox(index.bounds(), &mut scratch).count();
/// assert_eq!(all, net.edge_count());
/// ```
#[derive(Debug, Clone)]
pub struct EdgeIndex {
    tree: PackedRtree,
}

impl EdgeIndex {
    /// Builds the tree over each edge's centerline AABB.
    pub fn build(net: &RoadNetwork) -> EdgeIndex {
        let mut boxes = Vec::with_capacity(net.edge_count());
        for e in net.edges() {
            let mut b = Aabb::EMPTY;
            for p in e.road.centerline().points() {
                b = b.union(&Aabb::of_corners(*p, *p));
            }
            boxes.push(b);
        }
        EdgeIndex { tree: PackedRtree::build(&boxes) }
    }

    /// Bounds of the whole network.
    pub fn bounds(&self) -> Aabb {
        self.tree.bounds()
    }

    /// Edge indices whose AABBs intersect `query`, as a lazy iterator
    /// reusing caller scratch (traversal order; no allocation warm).
    pub fn edges_in_bbox<'t, 's>(
        &'t self,
        query: Aabb,
        scratch: &'s mut QueryScratch,
    ) -> BboxIter<'t, 's> {
        self.tree.query_bbox(query, scratch)
    }
}

/// The spatial index of a whole [`RoadNetwork`]: an [`EdgeIndex`]
/// (bounding-box retrieval) plus a [`SegmentIndex`] over every
/// centerline segment (exact nearest queries).
///
/// # Example
///
/// ```
/// use gradest_geo::generate::city_network;
/// use gradest_geo::index::{NetworkIndex, QueryScratch};
///
/// let net = city_network(7);
/// let index = NetworkIndex::build(&net);
/// let mut scratch = QueryScratch::new();
/// let p = net.nodes()[0];
/// let hit = index.nearest_s_on_network(p, &mut scratch).unwrap();
/// assert!(hit.dist_m < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct NetworkIndex {
    edges: EdgeIndex,
    segments: SegmentIndex,
}

impl NetworkIndex {
    /// Builds both trees from the network's edge centerlines.
    pub fn build(net: &RoadNetwork) -> NetworkIndex {
        NetworkIndex {
            edges: EdgeIndex::build(net),
            segments: SegmentIndex::build(&network_segments(net)),
        }
    }

    /// Number of indexed centerline segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of indexed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.tree.len()
    }

    /// Bounds of the whole network.
    pub fn bounds(&self) -> Aabb {
        self.edges.bounds()
    }

    /// Index of the network edge nearest to `p` (exact: ranked by
    /// point-to-segment projection distance), or `None` for an empty
    /// network.
    pub fn nearest_edge(&self, p: Vec2, scratch: &mut QueryScratch) -> Option<usize> {
        self.segments.nearest(p, scratch).map(|h| h.edge)
    }

    /// Exact nearest point on the network: the winning edge, the arc
    /// length of the projection along it, the snapped point, and the
    /// snap distance. Allocation-free on a warm scratch.
    pub fn nearest_s_on_network(&self, p: Vec2, scratch: &mut QueryScratch) -> Option<SegmentHit> {
        self.segments.nearest(p, scratch)
    }

    /// [`EdgeIndex::edges_in_bbox`] over the network's edge half.
    pub fn edges_in_bbox<'t, 's>(
        &'t self,
        query: Aabb,
        scratch: &'s mut QueryScratch,
    ) -> BboxIter<'t, 's> {
        self.edges.edges_in_bbox(query, scratch)
    }
}

/// A [`NetworkIndex`] lends its edge half, so a function over
/// `impl Into<&EdgeIndex>` ([`crate::tile::edges_in_tile_into`]) takes
/// either index.
impl<'a> From<&'a NetworkIndex> for &'a EdgeIndex {
    fn from(index: &'a NetworkIndex) -> &'a EdgeIndex {
        &index.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::city_network;

    fn brute_nearest(segs: &[Segment], p: Vec2) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, s) in segs.iter().enumerate() {
            let (_, d2) = project_point_segment(p, s.a, s.b);
            if best.map(|(_, bd)| d2 < bd).unwrap_or(true) {
                best = Some((i, d2));
            }
        }
        best
    }

    fn grid_segments(n: usize) -> Vec<Segment> {
        // n horizontal unit segments on staggered rows.
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64 * 10.0;
                let y = (i / 10) as f64 * 7.0;
                Segment { a: Vec2::new(x, y), b: Vec2::new(x + 6.0, y), edge: i as u32, s0: 0.0 }
            })
            .collect()
    }

    #[test]
    fn empty_tree_yields_nothing() {
        let idx = SegmentIndex::build(&[]);
        let mut scratch = QueryScratch::new();
        assert!(idx.nearest(Vec2::ZERO, &mut scratch).is_none());
        let q = Aabb::of_corners(Vec2::new(-1.0, -1.0), Vec2::new(1.0, 1.0));
        assert_eq!(idx.query_bbox(q, &mut scratch).count(), 0);
        assert!(idx.is_empty());
    }

    #[test]
    fn single_segment_projects_exactly() {
        let segs = [Segment { a: Vec2::ZERO, b: Vec2::new(10.0, 0.0), edge: 3, s0: 5.0 }];
        let idx = SegmentIndex::build(&segs);
        let mut scratch = QueryScratch::new();
        let hit = idx.nearest(Vec2::new(4.0, 2.0), &mut scratch).unwrap();
        assert_eq!(hit.edge, 3);
        assert!((hit.s - 9.0).abs() < 1e-12, "s = {}", hit.s);
        assert!((hit.dist_m - 2.0).abs() < 1e-12);
        assert!((hit.point - Vec2::new(4.0, 0.0)).norm() < 1e-12);
        // Beyond the end: clamps to b.
        let hit = idx.nearest(Vec2::new(14.0, 3.0), &mut scratch).unwrap();
        assert!((hit.s - 15.0).abs() < 1e-12);
        assert!((hit.dist_m - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_length_segment_projects_as_point() {
        let p = Vec2::new(2.0, 2.0);
        let segs = [Segment { a: p, b: p, edge: 0, s0: 1.0 }];
        let idx = SegmentIndex::build(&segs);
        let mut scratch = QueryScratch::new();
        let hit = idx.nearest(Vec2::new(5.0, 6.0), &mut scratch).unwrap();
        assert!((hit.dist_m - 5.0).abs() < 1e-12);
        assert_eq!(hit.s, 1.0);
        assert_eq!(hit.point, p);
    }

    #[test]
    fn nearest_matches_brute_force_on_grid() {
        let segs = grid_segments(250);
        let idx = SegmentIndex::build(&segs);
        let mut scratch = QueryScratch::new();
        for k in 0..200 {
            let p = Vec2::new((k * 7 % 113) as f64 - 10.0, (k * 13 % 97) as f64 - 5.0);
            let hit = idx.nearest(p, &mut scratch).unwrap();
            let (_, bd2) = brute_nearest(&segs, p).unwrap();
            assert!(
                (hit.dist_m - bd2.sqrt()).abs() < 1e-9,
                "query {p:?}: tree {} vs brute {}",
                hit.dist_m,
                bd2.sqrt()
            );
        }
    }

    #[test]
    fn bbox_query_matches_linear_filter() {
        let segs = grid_segments(250);
        let idx = SegmentIndex::build(&segs);
        let mut scratch = QueryScratch::new();
        let q = Aabb::of_corners(Vec2::new(5.0, 3.0), Vec2::new(55.0, 60.0));
        let mut got: Vec<u32> = idx.query_bbox(q, &mut scratch).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = segs
            .iter()
            .enumerate()
            .filter(|(_, s)| Aabb::of_corners(s.a, s.b).intersects(&q))
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn network_index_snaps_onto_edges() {
        let net = city_network(42);
        let idx = NetworkIndex::build(&net);
        assert_eq!(idx.edge_count(), net.edge_count());
        assert!(idx.segment_count() > net.edge_count());
        let mut scratch = QueryScratch::new();
        // A point on an edge centerline snaps to that edge at ~0 dist.
        for (ei, e) in net.edges().iter().enumerate().step_by(17) {
            let mid = e.road.point_at(e.road.length() * 0.5);
            let hit = idx.nearest_s_on_network(mid, &mut scratch).unwrap();
            assert!(hit.dist_m < 1e-6, "edge {ei} snap dist {}", hit.dist_m);
            assert_eq!(hit.edge, ei);
            assert!((hit.s - e.road.length() * 0.5).abs() < 1.0);
        }
    }

    #[test]
    fn network_bbox_returns_local_edges() {
        let net = city_network(42);
        let idx = NetworkIndex::build(&net);
        let mut scratch = QueryScratch::new();
        let c = net.nodes()[0];
        let q = Aabb::of_corners(c - Vec2::new(600.0, 600.0), c + Vec2::new(600.0, 600.0));
        let hits: Vec<u32> = idx.edges_in_bbox(q, &mut scratch).collect();
        assert!(!hits.is_empty());
        // Every returned edge's box really intersects; every edge with an
        // endpoint inside is returned.
        for &h in &hits {
            let e = &net.edges()[h as usize];
            let mut b = Aabb::EMPTY;
            for p in e.road.centerline().points() {
                b = b.union(&Aabb::of_corners(*p, *p));
            }
            assert!(b.intersects(&q));
        }
        for (ei, e) in net.edges().iter().enumerate() {
            let start = e.road.point_at(0.0);
            let inside = start.x >= q.min_x
                && start.x <= q.max_x
                && start.y >= q.min_y
                && start.y <= q.max_y;
            if inside {
                assert!(hits.contains(&(ei as u32)), "edge {ei} missing from bbox result");
            }
        }
    }

    /// The bit-by-bit curve walk the tables replace, as the release
    /// build runs it: the complement wraps, so a cell past the grid
    /// (the center of an inverted box) keeps only its low 16 bits.
    fn hilbert_d_loop(mut x: u32, mut y: u32) -> u64 {
        let n: u32 = 1 << HILBERT_ORDER;
        let mut d: u64 = 0;
        let mut s = n >> 1;
        while s > 0 {
            let rx: u32 = u32::from(x & s > 0);
            let ry: u32 = u32::from(y & s > 0);
            d += (s as u64) * (s as u64) * ((3 * rx) ^ ry) as u64;
            if ry == 0 {
                if rx == 1 {
                    x = (n - 1).wrapping_sub(x);
                    y = (n - 1).wrapping_sub(y);
                }
                std::mem::swap(&mut x, &mut y);
            }
            s >>= 1;
        }
        d
    }

    /// The build with the loop key and a sort of `(d, id)` pairs.
    fn reference_build(items: &[Aabb]) -> PackedRtree {
        let bounds = items.iter().fold(Aabb::EMPTY, |acc, b| acc.union(b));
        let mut order: Vec<(u64, u32)> = grid_cells(items, &bounds)
            .zip(0u32..)
            .map(|((qx, qy), id)| (hilbert_d_loop(qx, qy), id))
            .collect();
        order.sort_unstable();
        PackedRtree::pack(items, bounds, order.iter().map(|&(_, id)| id))
    }

    fn box_bits(b: &Aabb) -> [u64; 4] {
        [b.min_x.to_bits(), b.min_y.to_bits(), b.max_x.to_bits(), b.max_y.to_bits()]
    }

    fn assert_same_tree(got: &PackedRtree, want: &PackedRtree) {
        assert_eq!(got.ids, want.ids);
        assert_eq!(got.level_offsets, want.level_offsets);
        assert_eq!(got.level_counts, want.level_counts);
        assert_eq!(box_bits(&got.bounds), box_bits(&want.bounds));
        let bits = |t: &PackedRtree| t.boxes.iter().map(box_bits).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want));
    }

    /// One raw box: four coordinates and a selector for the non-finite
    /// shape.
    type RawBox = (f64, f64, f64, f64, u8);

    /// `n` boxes of one shape: 0 general, 1 centers repeated from the
    /// first three boxes, 2 every center on one horizontal line, 3
    /// every box on one point, 4 NaN or ±∞ in some coordinates (boxes
    /// may come out inverted).
    fn shaped_boxes(raw: &[RawBox], n: usize, shape: u8) -> Vec<Aabb> {
        let corners =
            |&(ax, ay, bx, by, _): &RawBox| Aabb::of_corners(Vec2::new(ax, ay), Vec2::new(bx, by));
        (0..n)
            .map(|i| match shape {
                1 => corners(&raw[i % 3]),
                2 => Aabb { min_y: 7.0, max_y: 7.0, ..corners(&raw[i]) },
                3 => corners(&raw[0]),
                4 => {
                    let (ax, ay, bx, by, k) = raw[i];
                    let mut b = Aabb { min_x: ax, min_y: ay, max_x: bx, max_y: by };
                    match k {
                        0 => b.min_x = f64::NAN,
                        1 => b.max_y = f64::INFINITY,
                        2 => b.min_x = f64::NEG_INFINITY,
                        3 => b.min_y = f64::INFINITY,
                        4 => (b.max_x, b.max_y) = (f64::NAN, f64::NEG_INFINITY),
                        _ => {}
                    }
                    b
                }
                _ => corners(&raw[i]),
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn build_equals_the_reference_build(
            size in 0usize..5,
            shape in 0u8..5,
            raw in proptest::collection::vec(
                (-1e3..1e3f64, -1e3..1e3f64, -1e3..1e3f64, -1e3..1e3f64, 0u8..12),
                257,
            ),
        ) {
            let n = [0, 1, 16, 17, 257][size];
            let items = shaped_boxes(&raw, n, shape);
            assert_same_tree(&PackedRtree::build(&items), &reference_build(&items));
        }
    }

    #[test]
    fn the_table_key_equals_the_loop() {
        let top = 1u32 << HILBERT_ORDER;
        let block = 256u32;
        let (far, centre) = (top - block, top / 2 - block / 2);
        for (x0, y0) in [(0, 0), (far, 0), (0, far), (far, far), (centre, centre)] {
            for x in x0..x0 + block {
                for y in y0..y0 + block {
                    assert_eq!(hilbert_d(x, y), hilbert_d_loop(x, y), "cell ({x}, {y})");
                }
            }
        }
        // Random cells on the grid, and the same draws over the whole
        // u32 range, whose bits above the grid both ignore.
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200_000 {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let (x, y) = ((s >> 32) as u32, s as u32 ^ (s >> 17) as u32);
            for (x, y) in [(x & (top - 1), y & (top - 1)), (x, y)] {
                assert_eq!(hilbert_d(x, y), hilbert_d_loop(x, y), "cell ({x}, {y})");
            }
        }
    }

    #[test]
    fn hilbert_is_locality_preservingish() {
        // Adjacent cells differ by a bounded curve step near the origin.
        assert_eq!(hilbert_d(0, 0), 0);
        let d1 = hilbert_d(1, 0);
        let d2 = hilbert_d(0, 1);
        assert_ne!(d1, d2);
        assert!(d1 < 4 && d2 < 4, "first quadrant cells come first: {d1} {d2}");
    }

    #[test]
    fn a_seeded_walk_pops_at_most_half_the_nodes() {
        // GPS-like fixes every 12 m along a city route, ±3 m off the
        // centerline: each query seeded by the previous hit, against
        // the same query from a fresh scratch. The bound mostly saves
        // stack traffic: about as many nodes are expanded and as many
        // leaves evaluated either way, but far fewer children are
        // pushed and popped.
        let net = city_network(13);
        let idx = NetworkIndex::build(&net);
        let segs = &idx.segments;
        let route = net.route_between(3, 77, |r| r.length()).unwrap();
        let mut walked = QueryScratch::new();
        let (mut fresh_popped, mut queries) = (0usize, 0usize);
        let mut s = 0.0;
        while s <= route.length() {
            let off = if queries % 2 == 0 { 3.0 } else { -3.0 };
            let p = route.point_at(s) + Vec2::new(off, 0.5 * off);
            let mut fresh = QueryScratch::new();
            let want = segs.nearest(p, &mut fresh);
            assert_eq!(segs.nearest(p, &mut walked), want, "fix at s = {s}");
            fresh_popped += fresh.popped;
            s += 12.0;
            queries += 1;
        }
        assert!(queries > 100, "{queries} fixes");
        let seeded_popped = walked.popped;
        assert!(
            2 * seeded_popped <= fresh_popped,
            "nodes popped: {seeded_popped} seeded vs {fresh_popped} fresh, {queries} fixes"
        );
    }

    #[test]
    fn a_non_finite_point_pops_no_node() {
        let net = city_network(13);
        let idx = NetworkIndex::build(&net);
        let segs = &idx.segments;
        let on_road = net.nodes()[0];
        for bad in [
            Vec2::new(f64::INFINITY, 0.0),
            Vec2::new(0.0, f64::NEG_INFINITY),
            Vec2::new(f64::NAN, 1.0),
            Vec2::new(f64::NAN, f64::NAN),
        ] {
            let mut scratch = QueryScratch::new();
            assert!(segs.nearest(on_road, &mut scratch).is_some());
            let popped = scratch.popped;
            assert_eq!(segs.nearest(bad, &mut scratch), None, "query {bad:?}");
            assert_eq!(scratch.popped, popped, "query {bad:?} walked the tree");
            assert_eq!(scratch.last, None, "query {bad:?} kept the hint");
        }
    }

    #[test]
    fn build_is_deterministic() {
        let segs = grid_segments(100);
        let a = SegmentIndex::build(&segs);
        let b = SegmentIndex::build(&segs);
        let mut sa = QueryScratch::new();
        let mut sb = QueryScratch::new();
        for k in 0..50 {
            let p = Vec2::new((k * 3) as f64, (k * 5 % 31) as f64);
            assert_eq!(a.nearest(p, &mut sa), b.nearest(p, &mut sb));
        }
    }
}
