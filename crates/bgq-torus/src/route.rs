//! Routing on the 5D torus.
//!
//! Two routing modes matter to PAMI (paper sections II.B and III.E):
//!
//! * **Deterministic (dimension-ordered)** routing delivers all packets of a
//!   (source, destination) pair over the same path, so packets arrive in
//!   injection order. Eager messages and rendezvous headers use it so that
//!   MPI matching sees sends in order.
//! * **Dynamic** routing lets packets take any minimal path; the data
//!   packets of a rendezvous transfer use it for bandwidth. Only its hop
//!   count and path diversity matter to the models here.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU16, AtomicUsize, Ordering};

use crate::coords::{Coords, Dir, TorusShape, ALL_DIMS};

/// The deterministic dimension-ordered route from `src` to `dst`: the exact
/// sequence of directed hops, correcting A first, then B, … then E, each
/// dimension taking the shorter way around (ties to "+").
pub fn det_route(shape: TorusShape, src: Coords, dst: Coords) -> Vec<Dir> {
    let mut hops = Vec::new();
    for dim in ALL_DIMS {
        let delta = shape.min_delta(src, dst, dim);
        let dir = Dir { dim, plus: delta >= 0 };
        for _ in 0..delta.unsigned_abs() {
            hops.push(dir);
        }
    }
    hops
}

/// The first hop of the deterministic route from `src` to `dst`, and the
/// node it lands on — `None` when already at the destination — without
/// materializing the whole route.
pub fn next_hop(shape: TorusShape, src: Coords, dst: Coords) -> Option<(Dir, Coords)> {
    for dim in ALL_DIMS {
        let delta = shape.min_delta(src, dst, dim);
        if delta != 0 {
            let dir = Dir { dim, plus: delta >= 0 };
            return Some((dir, shape.neighbor(src, dir)));
        }
    }
    None
}

/// Dense class index of the first dimension-ordered hop from `src` toward
/// `dst`: `0` when the nodes coincide, else `1 + Dir::index()` of the first
/// hop. Traffic sharing a class leaves `src` on the same physical link, so
/// senders flushing several coalescing buckets at once (`pami::aggr`) order
/// the flush by class — frames that share the first link go out
/// back-to-back, the TRAM-style first-hop grouping.
pub fn first_hop_class(shape: TorusShape, src: Coords, dst: Coords) -> u8 {
    match next_hop(shape, src, dst) {
        None => 0,
        Some((dir, _)) => 1 + dir.index() as u8,
    }
}

/// Minimal hop count between two nodes.
pub fn hop_distance(shape: TorusShape, src: Coords, dst: Coords) -> u32 {
    ALL_DIMS
        .iter()
        .map(|&d| shape.min_delta(src, dst, d).unsigned_abs())
        .sum()
}

/// Walk a route from `src`, returning the node reached (sanity tool for the
/// router and for fabric tests).
pub fn walk(shape: TorusShape, src: Coords, route: &[Dir]) -> Coords {
    route.iter().fold(src, |c, &dir| shape.neighbor(c, dir))
}

/// Number of distinct minimal paths between two nodes (multinomial of the
/// per-dimension hop counts) — the path diversity dynamic routing can
/// exploit. Saturates at `u64::MAX`.
pub fn minimal_path_count(shape: TorusShape, src: Coords, dst: Coords) -> u64 {
    let deltas: Vec<u64> = ALL_DIMS
        .iter()
        .map(|&d| shape.min_delta(src, dst, d).unsigned_abs() as u64)
        .filter(|&d| d > 0)
        .collect();
    let total: u64 = deltas.iter().sum();
    // multinomial(total; d1, d2, ...) computed incrementally.
    let mut count: u64 = 1;
    let mut n = 0u64;
    for d in deltas {
        for k in 1..=d {
            n += 1;
            count = count.saturating_mul(n) / k;
        }
    }
    debug_assert!(total == n);
    count.max(1)
}

/// The ten neighbors of a node, one per directed link — Figure 5's message
/// rate benchmark spreads peers across all ten links, and Table 3 adds
/// neighbors one link at a time. Neighbors may coincide for extents ≤ 2;
/// the returned list preserves link order and may contain duplicates, which
/// callers dedupe if they need distinct nodes.
pub fn link_neighbors(shape: TorusShape, src: Coords) -> Vec<Coords> {
    Dir::all().iter().map(|&d| shape.neighbor(src, d)).collect()
}

/// Link-health table: one bit per directed link, marking torus links the
/// RAS layer has declared dead. BG/Q's network unit kept exactly this kind
/// of state — the link-level retry hardware escalated a persistently failing
/// link to a RAS event, and the torus routed around it until a service
/// action replaced the optical module.
///
/// Concurrency: readers ([`LinkHealth::is_up`], [`healthy_route`]) are
/// lock-free `Relaxed` loads on the hot path; [`LinkHealth::kill`] is rare
/// (a RAS event) and uses `fetch_or`. A cheap global `any_down` counter lets
/// the fault-free fast path skip the per-node mask entirely.
pub struct LinkHealth {
    shape: TorusShape,
    /// Per-node bitmask over the ten [`Dir::index`] values; a set bit means
    /// the outgoing link in that direction is dead.
    down: Vec<AtomicU16>,
    /// Number of directed links currently marked down (both directions of a
    /// killed physical link count). Zero ⇒ every route is healthy.
    down_count: AtomicUsize,
    /// Monotonic change counter: bumps on every kill *and* every revive, so
    /// cached routes invalidate even when the down count returns to a value
    /// it held before.
    change_epoch: AtomicUsize,
}

impl LinkHealth {
    /// All links up.
    pub fn new(shape: TorusShape) -> Self {
        let n = shape.num_nodes();
        LinkHealth {
            shape,
            down: (0..n).map(|_| AtomicU16::new(0)).collect(),
            down_count: AtomicUsize::new(0),
            change_epoch: AtomicUsize::new(0),
        }
    }

    /// The shape this table covers.
    pub fn shape(&self) -> TorusShape {
        self.shape
    }

    /// Fast check: is *any* link in the machine down? `false` means every
    /// deterministic route is valid and no per-hop checks are needed.
    pub fn any_down(&self) -> bool {
        self.down_count.load(Ordering::Relaxed) != 0
    }

    /// Monotonic health epoch: bumps every time a directed link goes down
    /// or comes back up. Route caches compare epochs to know when to
    /// recompute.
    pub fn epoch(&self) -> usize {
        self.change_epoch.load(Ordering::Relaxed)
    }

    /// Is the outgoing link of `node` in direction `dir` up?
    pub fn is_up(&self, node: Coords, dir: Dir) -> bool {
        let idx = self.shape.node_index(node);
        self.down[idx].load(Ordering::Relaxed) & (1 << dir.index()) == 0
    }

    /// Kill the physical link between `node` and its `dir` neighbor: both
    /// the outgoing link and the neighbor's reverse link go down. Returns
    /// `true` if this call newly killed the link (idempotent).
    pub fn kill(&self, node: Coords, dir: Dir) -> bool {
        let peer = self.shape.neighbor(node, dir);
        let a = self.mark(node, dir);
        let b = self.mark(peer, dir.reverse());
        a || b
    }

    /// Revive the physical link between `node` and its `dir` neighbor — the
    /// service action that replaces a failed module. Both directions come
    /// back up. Returns `true` if this call newly revived the link
    /// (idempotent).
    pub fn revive(&self, node: Coords, dir: Dir) -> bool {
        let peer = self.shape.neighbor(node, dir);
        let a = self.unmark(node, dir);
        let b = self.unmark(peer, dir.reverse());
        a || b
    }

    fn mark(&self, node: Coords, dir: Dir) -> bool {
        let idx = self.shape.node_index(node);
        let bit = 1u16 << dir.index();
        let prev = self.down[idx].fetch_or(bit, Ordering::Relaxed);
        if prev & bit == 0 {
            self.down_count.fetch_add(1, Ordering::Relaxed);
            self.change_epoch.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn unmark(&self, node: Coords, dir: Dir) -> bool {
        let idx = self.shape.node_index(node);
        let bit = 1u16 << dir.index();
        let prev = self.down[idx].fetch_and(!bit, Ordering::Relaxed);
        if prev & bit != 0 {
            self.down_count.fetch_sub(1, Ordering::Relaxed);
            self.change_epoch.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Every dead directed link, as `(node, dir)` pairs in node order.
    pub fn downed_links(&self) -> Vec<(Coords, Dir)> {
        let mut out = Vec::new();
        if !self.any_down() {
            return out;
        }
        for (idx, mask) in self.down.iter().enumerate() {
            let mask = mask.load(Ordering::Relaxed);
            if mask == 0 {
                continue;
            }
            let node = self.shape.coords_of(idx);
            for dir in Dir::all() {
                if mask & (1 << dir.index()) != 0 {
                    out.push((node, dir));
                }
            }
        }
        out
    }

    /// Does `route`, walked from `src`, cross only healthy links?
    pub fn route_is_healthy(&self, src: Coords, route: &[Dir]) -> bool {
        if !self.any_down() {
            return true;
        }
        let mut at = src;
        for &dir in route {
            if !self.is_up(at, dir) {
                return false;
            }
            at = self.shape.neighbor(at, dir);
        }
        true
    }
}

/// A route from `src` to `dst` that crosses only healthy links, or `None`
/// if the dead links disconnect the pair.
///
/// Fast path: with every link up (or the deterministic route untouched by
/// the failures) this is exactly [`det_route`] — reroutes must not perturb
/// fault-free paths, so MPI ordering on healthy node pairs is preserved.
/// Otherwise a breadth-first search over up links finds a shortest healthy
/// detour; among equal-length candidates the lowest [`Dir::index`] wins at
/// every node, so the reroute is deterministic too (rerouted traffic still
/// arrives in order).
pub fn healthy_route(
    shape: TorusShape,
    src: Coords,
    dst: Coords,
    health: &LinkHealth,
) -> Option<Vec<Dir>> {
    let det = det_route(shape, src, dst);
    if health.route_is_healthy(src, &det) {
        return Some(det);
    }
    if src == dst {
        return Some(Vec::new());
    }
    // BFS from src over healthy links. Predecessor array keyed by node
    // index stores the (prev node index, dir taken) pair.
    let n = shape.num_nodes();
    let mut prev: Vec<Option<(usize, Dir)>> = vec![None; n];
    let src_idx = shape.node_index(src);
    let dst_idx = shape.node_index(dst);
    let mut queue = VecDeque::new();
    queue.push_back(src_idx);
    // Mark src visited with a self-loop sentinel.
    prev[src_idx] = Some((src_idx, Dir::all()[0]));
    'bfs: while let Some(at_idx) = queue.pop_front() {
        let at = shape.coords_of(at_idx);
        for dir in Dir::all() {
            if !health.is_up(at, dir) {
                continue;
            }
            let next = shape.neighbor(at, dir);
            let next_idx = shape.node_index(next);
            if prev[next_idx].is_some() {
                continue;
            }
            prev[next_idx] = Some((at_idx, dir));
            if next_idx == dst_idx {
                break 'bfs;
            }
            queue.push_back(next_idx);
        }
    }
    prev[dst_idx]?;
    // Walk predecessors back from dst.
    let mut hops = Vec::new();
    let mut at = dst_idx;
    while at != src_idx {
        let (p, dir) = prev[at].expect("predecessor chain broken");
        hops.push(dir);
        at = p;
    }
    hops.reverse();
    debug_assert_eq!(walk(shape, src, &hops), dst);
    Some(hops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_route_reaches_destination() {
        let shape = TorusShape::new([4, 3, 2, 5, 2]);
        let src = Coords([0, 0, 0, 0, 0]);
        let dst = Coords([3, 2, 1, 4, 1]);
        let route = det_route(shape, src, dst);
        assert_eq!(walk(shape, src, &route), dst);
        assert_eq!(route.len() as u32, hop_distance(shape, src, dst));
    }

    #[test]
    fn det_route_is_dimension_ordered() {
        let shape = TorusShape::new([4, 4, 4, 4, 2]);
        let route = det_route(shape, Coords([0; 5]), Coords([2, 3, 1, 0, 1]));
        // Dimension indices along the route must be non-decreasing.
        let idxs: Vec<usize> = route.iter().map(|d| d.dim.index()).collect();
        assert!(idxs.windows(2).all(|w| w[0] <= w[1]), "route {idxs:?}");
    }

    #[test]
    fn det_route_takes_short_way_around() {
        let shape = TorusShape::new([8, 1, 1, 1, 1]);
        let route = det_route(shape, Coords([0; 5]), Coords([7, 0, 0, 0, 0]));
        assert_eq!(route.len(), 1);
        assert!(!route[0].plus);
    }

    #[test]
    fn hop_distance_zero_for_self() {
        let shape = TorusShape::new([3, 3, 3, 3, 3]);
        let c = Coords([1, 2, 0, 1, 2]);
        assert_eq!(hop_distance(shape, c, c), 0);
        assert!(det_route(shape, c, c).is_empty());
    }

    #[test]
    fn first_hop_class_matches_route_head() {
        let shape = TorusShape::new([4, 3, 2, 5, 2]);
        let src = Coords([1, 0, 1, 2, 0]);
        for dst in shape.iter() {
            let class = first_hop_class(shape, src, dst);
            let route = det_route(shape, src, dst);
            match route.first() {
                None => assert_eq!(class, 0, "self maps to class 0"),
                Some(&dir) => assert_eq!(class, 1 + dir.index() as u8, "dst {dst:?}"),
            }
        }
        // Destinations sharing a first hop share a class; the two directions
        // of one dimension do not.
        let plus = first_hop_class(shape, Coords([0; 5]), Coords([1, 0, 0, 0, 0]));
        let plus_far = first_hop_class(shape, Coords([0; 5]), Coords([1, 2, 1, 0, 1]));
        let minus = first_hop_class(shape, Coords([0; 5]), Coords([3, 0, 0, 0, 0]));
        assert_eq!(plus, plus_far);
        assert_ne!(plus, minus);
    }

    #[test]
    fn next_hop_walks_to_root() {
        let s = TorusShape::new([4, 2, 2, 1, 1]);
        let mut at = Coords([3, 1, 1, 0, 0]);
        let root = Coords([0; 5]);
        let mut hops = 0;
        while let Some((_, next)) = next_hop(s, at, root) {
            at = next;
            hops += 1;
            assert!(hops <= 10);
        }
        assert_eq!(at, root);
    }

    #[test]
    fn minimal_path_count_multinomial() {
        let shape = TorusShape::new([8, 8, 1, 1, 1]);
        // 2 hops in A, 1 in B: 3!/2!1! = 3 minimal paths.
        assert_eq!(
            minimal_path_count(shape, Coords([0; 5]), Coords([2, 1, 0, 0, 0])),
            3
        );
        // Single dimension: exactly one minimal path.
        assert_eq!(
            minimal_path_count(shape, Coords([0; 5]), Coords([3, 0, 0, 0, 0])),
            1
        );
        // Self: one (empty) path.
        assert_eq!(minimal_path_count(shape, Coords([0; 5]), Coords([0; 5])), 1);
    }

    #[test]
    fn link_neighbors_has_ten_entries_distinct_on_big_torus() {
        let shape = TorusShape::new([4, 4, 4, 4, 4]);
        let n = link_neighbors(shape, Coords([1, 1, 1, 1, 1]));
        assert_eq!(n.len(), 10);
        let mut dedup = n.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 10, "all ten link peers distinct on 4^5");
        for peer in n {
            assert_eq!(hop_distance(shape, Coords([1, 1, 1, 1, 1]), peer), 1);
        }
    }

    #[test]
    fn link_health_starts_all_up() {
        let shape = TorusShape::new([3, 3, 2, 2, 2]);
        let health = LinkHealth::new(shape);
        assert!(!health.any_down());
        assert!(health.downed_links().is_empty());
        for node in shape.iter() {
            for dir in Dir::all() {
                assert!(health.is_up(node, dir));
            }
        }
    }

    #[test]
    fn kill_marks_both_directions_idempotently() {
        let shape = TorusShape::new([4, 2, 2, 1, 1]);
        let health = LinkHealth::new(shape);
        let node = Coords([1, 0, 0, 0, 0]);
        let dir = Dir { dim: ALL_DIMS[0], plus: true };
        assert!(health.kill(node, dir));
        assert!(!health.kill(node, dir), "second kill is a no-op");
        assert!(health.any_down());
        assert!(!health.is_up(node, dir));
        let peer = shape.neighbor(node, dir);
        assert!(!health.is_up(peer, dir.reverse()));
        assert_eq!(health.downed_links().len(), 2);
    }

    #[test]
    fn healthy_route_matches_det_route_when_clean() {
        let shape = TorusShape::new([4, 3, 2, 2, 2]);
        let health = LinkHealth::new(shape);
        let src = Coords([0, 0, 0, 0, 0]);
        let dst = Coords([3, 2, 1, 1, 1]);
        assert_eq!(
            healthy_route(shape, src, dst, &health),
            Some(det_route(shape, src, dst))
        );
    }

    #[test]
    fn healthy_route_detours_around_dead_link() {
        let shape = TorusShape::new([4, 4, 1, 1, 1]);
        let health = LinkHealth::new(shape);
        let src = Coords([0; 5]);
        let dst = Coords([2, 0, 0, 0, 0]);
        // Kill the first hop of the deterministic route (A+ out of src).
        let det = det_route(shape, src, dst);
        health.kill(src, det[0]);
        let route = healthy_route(shape, src, dst, &health).expect("detour exists");
        assert_eq!(walk(shape, src, &route), dst);
        assert!(health.route_is_healthy(src, &route));
        assert_ne!(route, det);
        // Detour is a shortest healthy path: around the dead A+ link the
        // best option is A- the long way (2 hops) or B± sidestep (4 hops);
        // going A- twice on a ring of 4 reaches [2,...] in 2 hops.
        assert_eq!(route.len(), 2);
    }

    #[test]
    fn healthy_route_is_deterministic() {
        let shape = TorusShape::new([3, 3, 3, 1, 1]);
        let health = LinkHealth::new(shape);
        let src = Coords([0; 5]);
        let dst = Coords([1, 1, 1, 0, 0]);
        health.kill(src, Dir { dim: ALL_DIMS[0], plus: true });
        let a = healthy_route(shape, src, dst, &health).unwrap();
        let b = healthy_route(shape, src, dst, &health).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn healthy_route_none_when_disconnected() {
        // A 2x1x1x1x1 "torus" has a single physical link (both wrap
        // directions land on the same neighbor); killing every outgoing
        // direction of src disconnects the pair.
        let shape = TorusShape::new([2, 1, 1, 1, 1]);
        let health = LinkHealth::new(shape);
        let src = Coords([0; 5]);
        let dst = Coords([1, 0, 0, 0, 0]);
        for dir in Dir::all() {
            health.kill(src, dir);
        }
        assert_eq!(healthy_route(shape, src, dst, &health), None);
    }

    #[test]
    fn healthy_route_self_is_empty_even_with_faults() {
        let shape = TorusShape::new([2, 2, 1, 1, 1]);
        let health = LinkHealth::new(shape);
        let c = Coords([1, 0, 0, 0, 0]);
        for dir in Dir::all() {
            health.kill(c, dir);
        }
        assert_eq!(healthy_route(shape, c, c, &health), Some(Vec::new()));
    }

    #[test]
    fn symmetric_distance() {
        let shape = TorusShape::new([5, 4, 3, 2, 2]);
        let a = Coords([4, 1, 2, 0, 1]);
        let b = Coords([0, 3, 0, 1, 0]);
        assert_eq!(hop_distance(shape, a, b), hop_distance(shape, b, a));
    }
}
