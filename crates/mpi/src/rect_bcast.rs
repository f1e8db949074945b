//! The multicolor rectangle broadcast (paper Figure 10).
//!
//! "To improve broadcast performance, by up to a factor of nearly 10, we
//! also implemented a 10-color rectangle broadcast, where the root sends
//! data to all the remaining nodes in the 5D torus via 10 edge disjoint
//! spanning trees." The buffer is striped into ten slices; slice *c*
//! travels down spanning tree *c* (built by [`bgq_torus::trees`] with a
//! rotated dimension order and the *c*-th directed link leading): every
//! node leader receives the slice from its parent's leader and forwards it
//! to its children's leaders, over the geometry's software point-to-point
//! ([`Geometry::post_recv`] / [`Geometry::send_sw`]). That is the leader
//! half; the node around it — the root shares its buffer with its leader,
//! the other tasks copy from theirs — is [`pami::coll::broadcast_with`]'s.

use bgq_hw::{Counter, MemRegion};
use bgq_torus::trees::TreeKind;
use bgq_torus::{Coords, SpanningTree};
use pami::coll::{self, Class};
use pami::{Context, Geometry};

/// Name of the rectangle broadcast in [`crate::Comm::algorithms_query`] —
/// a *layered* algorithm the MPI layer lists beside PAMI's built-ins. It
/// runs only through [`Mpi::bcast_rect`], never by auto-selection.
///
/// [`Mpi::bcast_rect`]: crate::mpi::Mpi
pub const ALG_RECT_BCAST: &str = "rect-bcast";

/// Whether the rectangle broadcast can run on `geom`: more than one node,
/// and the nodes form a rectangle (no classroute needed). Elsewhere
/// [`Mpi::bcast_rect`] falls back to the generic broadcast.
///
/// [`Mpi::bcast_rect`]: crate::mpi::Mpi
pub(crate) fn available(geom: &Geometry) -> bool {
    geom.nodes().len() > 1 && geom.node_rect().is_some()
}

/// Number of colors (directed links out of a node).
const COLORS: usize = 10;

/// Byte range of slice `color` when striping `len` bytes over ten trees.
fn slice_bounds(len: usize, color: usize) -> (usize, usize) {
    (len * color / COLORS, len * (color + 1) / COLORS)
}

/// The leader half ([`pami::coll::BroadcastBody`]): for each color in
/// turn, receive its slice into its place in `dst` from the tree parent's
/// leader (the root's node has it already), then send it from there to the
/// children's leaders. A leader never waits on a child, so taking the
/// colors in order cannot deadlock. Empty slices send nothing.
pub(crate) fn leader_half(
    geom: &Geometry,
    ctx: &Context,
    seq: u64,
    root_rank: usize,
    src: Option<(&MemRegion, usize)>,
    dst: (&MemRegion, usize),
    len: usize,
) {
    let machine = ctx.machine();
    let shape = machine.shape();
    let rect = geom.node_rect().expect("rectangle checked by caller");
    let root = shape.coords_of(machine.task_node(geom.topology().task_at(root_rank)) as usize);
    let here = shape.coords_of(ctx.node() as usize);
    let leader_of = |node: Coords| {
        let leader = geom.group(shape.node_index(node) as u32).leader;
        geom.rank_of(leader).expect("a node leader is a member")
    };
    // A leader that is not the root takes its own copy, like any member.
    if let Some((region, offset)) = src {
        if !(region.same_region(dst.0) && offset == dst.1) {
            dst.0.copy_from(dst.1, region, offset, len);
        }
    }
    let (got, sent) = (Counter::new(), Counter::new());
    for color in 0..COLORS {
        let (lo, hi) = slice_bounds(len, color);
        if lo == hi {
            continue;
        }
        let tree = SpanningTree::build(shape, rect, root, TreeKind::Colored(color as u8));
        let tag = coll::tag(seq, Class::Broadcast, color);
        if let Some(parent) = tree.parent_of(here) {
            geom.post_recv(ctx, leader_of(parent), tag, dst.0, dst.1 + lo, hi - lo, &got);
            ctx.advance_until(|| got.is_complete());
        }
        for child in tree.children_of(here) {
            geom.send_sw(ctx, leader_of(child), tag, dst.0, dst.1 + lo, hi - lo, &sent);
        }
    }
    ctx.advance_until(|| sent.is_complete());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_bounds_cover_exactly() {
        for len in [0, 1, 9, 10, 11, 4096, 1 << 20] {
            let mut total = 0;
            let mut prev_hi = 0;
            for c in 0..COLORS {
                let (lo, hi) = slice_bounds(len, c);
                assert_eq!(lo, prev_hi, "slices contiguous");
                assert!(hi >= lo);
                total += hi - lo;
                prev_hi = hi;
            }
            assert_eq!(total, len, "slices cover the buffer for len {len}");
        }
    }
}
