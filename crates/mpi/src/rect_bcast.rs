//! The multicolor rectangle broadcast (paper Figure 10).
//!
//! "To improve broadcast performance, by up to a factor of nearly 10, we
//! also implemented a 10-color rectangle broadcast, where the root sends
//! data to all the remaining nodes in the 5D torus via 10 edge disjoint
//! spanning trees." The buffer is striped into ten slices; slice *c*
//! travels down spanning tree *c* (built by [`bgq_torus::trees`] with a
//! rotated dimension order and the *c*-th directed link leading), with
//! every node-leader forwarding each slice to its children in that tree as
//! soon as the slice has landed in its own receive buffer. Intra-node, the
//! usual shared-address scheme applies: peers copy from the leader's
//! buffer through the global virtual address space.

use std::collections::HashMap;
use std::sync::Arc;

use bgq_hw::{Counter, MemRegion};
use bgq_torus::{Coords, SpanningTree, TorusShape};
use pami::geometry::BoardEntry;
use pami::{Context, Endpoint, Geometry, PayloadSource, Recv, SendArgs};
use parking_lot::Mutex;

/// Dispatch id used by rectangle-broadcast tree traffic.
pub const DISPATCH_RECT: u16 = 0x0020;

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

const SLOT_RECT_ROOT: u32 = 0x5000_0000;
const SLOT_RECT_RESULT: u32 = 0x5000_0001;

/// Everything a leader needs to deposit and forward slices.
struct ReadyCtx {
    region: MemRegion,
    base: usize,
    trees: Arc<Vec<SpanningTree>>,
    geometry: Arc<Geometry>,
    my_coords: Coords,
    seq: u64,
    root_node: u32,
    /// Local-completion counter over all forwards from this node.
    forwards: Counter,
}

#[derive(Default)]
struct RectOpState {
    ready: Option<Arc<ReadyCtx>>,
    /// Slices that arrived before the local call published the buffer.
    staged: Vec<(u8, u64, u64, MemRegion)>,
    /// Bytes landed in the destination buffer.
    received: u64,
}

#[derive(Default)]
struct RectOp {
    state: Mutex<RectOpState>,
}

#[derive(Default)]
struct RectStore {
    /// In-flight ops keyed by (node, geometry, sequence) — the store is
    /// machine-wide shared state standing in for per-node memory, so the
    /// node index must be part of the key.
    ops: Mutex<HashMap<(u32, u32, u64), Arc<RectOp>>>,
}

fn store_of(ctx: &Context) -> Arc<RectStore> {
    ctx.machine().shared_state("mpi.rect.store", RectStore::default)
}

fn op_of(store: &RectStore, node: u32, geom: u32, seq: u64) -> Arc<RectOp> {
    Arc::clone(store.ops.lock().entry((node, geom, seq)).or_default())
}

/// Byte range of slice `color` when striping `len` bytes over ten trees.
fn slice_bounds(len: u64, color: usize) -> (u64, u64) {
    let lo = len * color as u64 / COLORS as u64;
    let hi = len * (color as u64 + 1) / COLORS as u64;
    (lo, hi)
}

fn pack_rect_meta(geom: u32, seq: u64, root_node: u32, color: u8, off: u64, slen: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(33);
    v.extend_from_slice(&geom.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(&root_node.to_le_bytes());
    v.push(color);
    v.extend_from_slice(&off.to_le_bytes());
    v.extend_from_slice(&slen.to_le_bytes());
    v
}

fn unpack_rect_meta(m: &bytes::Bytes) -> (u32, u64, u32, u8, u64, u64) {
    assert!(m.len() >= 33, "malformed rect-broadcast metadata");
    (
        u32::from_le_bytes(m[..4].try_into().unwrap()),
        u64::from_le_bytes(m[4..12].try_into().unwrap()),
        u32::from_le_bytes(m[12..16].try_into().unwrap()),
        m[16],
        u64::from_le_bytes(m[17..25].try_into().unwrap()),
        u64::from_le_bytes(m[25..33].try_into().unwrap()),
    )
}

/// Register the rectangle-broadcast dispatch on a context (done by
/// [`crate::mpi::Mpi::init`]).
pub(crate) fn register_dispatch(ctx: &Arc<Context>) {
    ctx.set_dispatch(
        DISPATCH_RECT,
        Arc::new(|ctx: &Context, msg: &pami::IncomingMsg, _first: &[u8]| {
            let (geom, seq, _root_node, color, off, slen) = unpack_rect_meta(&msg.metadata);
            debug_assert_eq!(msg.len, slen);
            let store = store_of(ctx);
            let op = op_of(&store, ctx.node(), geom, seq);
            let ready = op.state.lock().ready.clone();
            match ready {
                Some(r) => {
                    // Deposit straight into the leader's buffer; forward on
                    // completion.
                    let op2 = Arc::clone(&op);
                    Recv::Into {
                        region: r.region.clone(),
                        offset: r.base + off as usize,
                        on_complete: Box::new(move |ctx2, _result| {
                            finish_slice(ctx2, &op2, &r, color, off, slen);
                        }),
                    }
                }
                None => {
                    // The local collective call has not happened yet: stage.
                    let staging = MemRegion::zeroed(slen as usize);
                    let stage2 = staging.clone();
                    let op2 = Arc::clone(&op);
                    Recv::Into {
                        region: staging,
                        offset: 0,
                        on_complete: Box::new(move |ctx2, _result| {
                            let ready_now = {
                                let mut st = op2.state.lock();
                                match st.ready.clone() {
                                    Some(r) => Some(r),
                                    None => {
                                        st.staged.push((color, off, slen, stage2.clone()));
                                        None
                                    }
                                }
                            };
                            if let Some(r) = ready_now {
                                r.region.copy_from(
                                    r.base + off as usize,
                                    &stage2,
                                    0,
                                    slen as usize,
                                );
                                finish_slice(ctx2, &op2, &r, color, off, slen);
                            }
                        }),
                    }
                }
            }
        }),
    );
}

/// A slice has fully landed in this leader's buffer: count it and forward
/// it to this node's children in the slice's tree.
fn finish_slice(ctx: &Context, op: &Arc<RectOp>, r: &Arc<ReadyCtx>, color: u8, off: u64, slen: u64) {
    op.state.lock().received += slen;
    forward_slice(ctx, r, color, off, slen);
}

fn forward_slice(ctx: &Context, r: &Arc<ReadyCtx>, color: u8, off: u64, slen: u64) {
    if slen == 0 {
        return;
    }
    let shape = ctx.machine().shape();
    let tree = &r.trees[color as usize];
    for child in tree.children_of(r.my_coords) {
        let child_node = shape.node_index(child) as u32;
        let leader = r.geometry.group(child_node).leader;
        r.forwards.add_expected(slen);
        ctx.send(SendArgs {
            dest: Endpoint::of_task(leader),
            dispatch: DISPATCH_RECT,
            metadata: pack_rect_meta(r.geometry.id(), r.seq, r.root_node, color, off, slen),
            payload: PayloadSource::Region {
                region: r.region.clone(),
                offset: r.base + off as usize,
                len: slen as usize,
            },
            local_done: Some(r.forwards.clone()),
        }).unwrap();
    }
}

fn local_barrier(geom: &Geometry, ctx: &Context) {
    let group = geom.group(ctx.node());
    if group.tasks.len() == 1 {
        return;
    }
    let generation = group.barrier.arrive();
    ctx.advance_until(|| group.barrier.is_released(generation));
}

fn trees_for(
    ctx: &Context,
    geom: &Arc<Geometry>,
    shape: TorusShape,
    root_node: u32,
) -> Arc<Vec<SpanningTree>> {
    let key = format!("mpi.rect.trees.{}.{}", geom.id(), root_node);
    let rect = geom.node_rect().expect("rectangle checked by caller");
    let root = shape.coords_of(root_node as usize);
    ctx.machine().shared_state(&key, || {
        (0..COLORS as u8)
            .map(|c| SpanningTree::build(shape, rect, root, bgq_torus::trees::TreeKind::Colored(c)))
            .collect::<Vec<_>>()
    })
}

/// The broadcast body ([`pami::coll::BroadcastBody`]): stripe over ten
/// spanning trees. Runs inside [`pami::coll::broadcast_with`], with the
/// sequence number already consumed and trivial cases already handled.
pub(crate) fn rect_broadcast_body(
    geom: &Geometry,
    ctx: &Context,
    seq: u64,
    root_rank: usize,
    region: &MemRegion,
    offset: usize,
    len: usize,
) {
    let geom = Geometry::lookup(ctx.machine(), geom.id())
        .expect("rect broadcast runs on a registered geometry");
    let geom = &geom;
    let machine = ctx.machine();
    let shape = machine.shape();
    let node = ctx.node();
    let group = geom.group(node);
    let me = ctx.task();
    let root_task = geom.topology().task_at(root_rank);
    let root_node = machine.task_node(root_task);
    let is_leader = me == group.leader;

    // Root shares its buffer with its node leader if it is not the leader.
    if me == root_task && !is_leader {
        group.board.post(
            seq,
            SLOT_RECT_ROOT,
            BoardEntry::Region { region: region.clone(), offset, len },
        );
    }
    local_barrier(geom, ctx);

    if is_leader {
        let store = store_of(ctx);
        let op = op_of(&store, node, geom.id(), seq);
        let trees = trees_for(ctx, geom, shape, root_node);
        let ready = Arc::new(ReadyCtx {
            region: region.clone(),
            base: offset,
            trees,
            geometry: Arc::clone(geom),
            my_coords: shape.coords_of(node as usize),
            seq,
            root_node,
            forwards: Counter::new(),
        });
        let staged = {
            let mut st = op.state.lock();
            st.ready = Some(Arc::clone(&ready));
            if node == root_node {
                // The data is (or will be, via the board) local.
                if me != root_task {
                    let entry = group.board.get(seq, SLOT_RECT_ROOT).expect("root posted");
                    let (r, o, l) = match entry {
                        BoardEntry::Region { region, offset, len } => (region, offset, len),
                        _ => unreachable!(),
                    };
                    assert_eq!(l, len);
                    region.copy_from(offset, &r, o, len);
                }
                st.received = len as u64;
            }
            std::mem::take(&mut st.staged)
        };
        if node == root_node {
            // Root leader seeds every tree.
            for color in 0..COLORS {
                let (lo, hi) = slice_bounds(len as u64, color);
                forward_slice(ctx, &ready, color as u8, lo, hi - lo);
            }
        }
        // Slices that raced in before we published.
        for (color, off, slen, staging) in staged {
            region.copy_from(offset + off as usize, &staging, 0, slen as usize);
            finish_slice(ctx, &op, &ready, color, off, slen);
        }
        // Drive until all bytes landed and all forwards have left.
        ctx.advance_until(|| {
            op.state.lock().received >= len as u64 && ready.forwards.is_complete()
        });
        group.board.post(
            seq,
            SLOT_RECT_RESULT,
            BoardEntry::Region { region: region.clone(), offset, len },
        );
        store.ops.lock().remove(&(node, geom.id(), seq));
    }
    local_barrier(geom, ctx);
    if !is_leader && me != root_task {
        let entry = loop {
            if let Some(e) = group.board.get(seq, SLOT_RECT_RESULT) {
                break e;
            }
            if ctx.advance() == 0 {
                std::thread::yield_now();
            }
        };
        let (r, o, _) = match entry {
            BoardEntry::Region { region, offset, len } => (region, offset, len),
            _ => unreachable!(),
        };
        region.copy_from(offset, &r, o, len);
    }
    local_barrier(geom, ctx);
    if is_leader {
        group.board.clear_seq(seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_bounds_cover_exactly() {
        for len in [0u64, 1, 9, 10, 11, 4096, 1 << 20] {
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

    #[test]
    fn rect_meta_round_trips() {
        let m = bytes::Bytes::from(pack_rect_meta(7, 99, 3, 9, 1 << 40, 12345));
        assert_eq!(unpack_rect_meta(&m), (7, 99, 3, 9, 1 << 40, 12345));
    }
}
