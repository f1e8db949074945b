//! Collective operations over geometries.
//!
//! Each operation has two paths:
//!
//! * **Hardware** (`hw-collnet-*`): the classroute path of the paper. One
//!   leader per node talks to the collective network; the tasks sharing a
//!   node coordinate through the L2 local barrier and the shared-address
//!   board — peers post their buffers and read the leader's directly
//!   through the global virtual address space, the scheme of Figures 3–4
//!   (parallel local math for allreduce, master-injects/peers-copy for
//!   broadcast).
//! * **Software** (`sw-binomial-*`): binomial trees over PAMI point-to-point
//!   sends — what non-rectangular (or deoptimized) communicators fall back
//!   to, and the baseline the hardware path is measured against.
//!
//! Auto-selection is one function, [`select`]: the collective network
//! while the geometry holds a classroute, software otherwise, the GI
//! barrier always. The `*_named` variants force an algorithm by its name
//! ([`names`]) — the one forcing door; forcing a hardware algorithm on a
//! geometry without a classroute panics inside the algorithm.
//! [`crate::geometry::Geometry::algorithms_query`] lists every algorithm
//! with its availability on a geometry (PAMI's
//! `PAMI_Geometry_algorithms_query`).
//!
//! All operations are blocking and *collective*: every member task must
//! call them in the same order. Progress is made by advancing the calling
//! context, so they compose with commthreads and other traffic.

use bgq_collnet::{CollContribution, CollOp, CollOutput, DataType};
use bgq_hw::{Counter, MemRegion};
use bgq_upc::{Histogram, Stamp, Upc};

use crate::context::Context;
use crate::geometry::{BoardEntry, Geometry, NodeGroup};

/// The collective operation an algorithm implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollKind {
    Barrier,
    Broadcast,
    Allreduce,
    Reduce,
    Gather,
    Scatter,
    Allgather,
    Alltoall,
}

/// One row of an algorithms query — what `PAMI_Geometry_algorithms_query`
/// returns per geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgInfo {
    pub name: &'static str,
    pub kind: CollKind,
    /// Whether the algorithm can run on the queried geometry right now.
    pub available: bool,
}

/// The leader half of a broadcast, `(geom, ctx, seq, root_rank, src, dst,
/// len)`: what each node's leader runs inside [`broadcast_with`] to leave
/// the `len` bytes in its own buffer `dst`. `src` is the root's buffer on
/// the root's node (the leader's own when it is the root) and `None` on
/// every other node; the node's other tasks copy from `dst` afterwards.
pub type BroadcastBody =
    fn(&Geometry, &Context, u64, usize, Option<(&MemRegion, usize)>, (&MemRegion, usize), usize);

/// What a software-collective message carries: the middle field of its
/// [`tag`].
#[derive(Debug, Clone, Copy)]
pub enum Class {
    /// A broadcast tree's payload; step: the tree (0, or a multicolor
    /// broadcast's color).
    Broadcast,
    /// A binomial reduce's partial result; step: the tree level.
    Reduce,
    /// A binomial gather's subtree; step: the tree level.
    Gather,
    /// A binomial scatter's subtree; step: the tree level.
    Scatter,
    /// A ring allgather's block; step: the ring step.
    Allgather,
    /// A pairwise alltoall's block; step: the exchange step.
    Alltoall,
    /// A streaming allreduce's partial going up the chain; step: the
    /// segment.
    ChainUp,
    /// A streaming allreduce's result coming down the chain; step: the
    /// segment.
    ChainDown,
}

/// Bits of a [`tag`] below the sequence number: 4 of class, 28 of step.
const STEP_BITS: u32 = 28;

/// The tag of one software-collective message — the one place its layout
/// is written. Sequence number, class and step each own their bits, so
/// two messages between the same pair of tasks share a tag only when all
/// three agree (a posted receive matches exactly on geometry, tag and
/// source: [`Geometry::post_recv`]).
/// The sequence number keeps its low 32 bits.
///
/// # Panics
/// If `step` does not fit its 28 bits.
pub fn tag(seq: u64, class: Class, step: usize) -> u64 {
    assert!(step < 1 << STEP_BITS, "collective step {step} overflows its tag field");
    seq << 32 | (class as u64) << STEP_BITS | step as u64
}

/// `coll.*` telemetry probes — per-phase timing of the collective paths
/// (the UPC-style breakdown the paper uses to attribute Figure 6/7 latency
/// to local math vs. network contribution vs. result copy). One instance
/// per [`crate::machine::Machine`], registered at build so repeated
/// collectives share probes instead of growing the telemetry registry.
pub(crate) struct CollProbes {
    pub(crate) barriers: bgq_upc::Counter,
    pub(crate) broadcasts: bgq_upc::Counter,
    pub(crate) allreduces: bgq_upc::Counter,
    pub(crate) reduces: bgq_upc::Counter,
    pub(crate) gathers: bgq_upc::Counter,
    pub(crate) scatters: bgq_upc::Counter,
    pub(crate) allgathers: bgq_upc::Counter,
    pub(crate) alltoalls: bgq_upc::Counter,
    /// End-to-end latency per operation, all algorithms.
    pub(crate) barrier_ns: Histogram,
    pub(crate) bcast_ns: Histogram,
    pub(crate) allreduce_ns: Histogram,
    pub(crate) reduce_ns: Histogram,
    /// Hardware-allreduce phases: the parallel local combine over this
    /// task's slice (Figure 3) and the leader's pipelined network
    /// contribution (Figure 4).
    pub(crate) allreduce_local_ns: Histogram,
    pub(crate) allreduce_network_ns: Histogram,
    /// Hardware-broadcast network phase (leader inject / leader receive).
    pub(crate) bcast_network_ns: Histogram,
}

impl CollProbes {
    pub(crate) fn new(upc: &Upc) -> CollProbes {
        CollProbes {
            barriers: upc.counter("coll.barriers"),
            broadcasts: upc.counter("coll.broadcasts"),
            allreduces: upc.counter("coll.allreduces"),
            reduces: upc.counter("coll.reduces"),
            gathers: upc.counter("coll.gathers"),
            scatters: upc.counter("coll.scatters"),
            allgathers: upc.counter("coll.allgathers"),
            alltoalls: upc.counter("coll.alltoalls"),
            barrier_ns: upc.histogram("coll.barrier_ns"),
            bcast_ns: upc.histogram("coll.bcast_ns"),
            allreduce_ns: upc.histogram("coll.allreduce_ns"),
            reduce_ns: upc.histogram("coll.reduce_ns"),
            allreduce_local_ns: upc.histogram("coll.allreduce.local_ns"),
            allreduce_network_ns: upc.histogram("coll.allreduce.network_ns"),
            bcast_network_ns: upc.histogram("coll.bcast.network_ns"),
        }
    }

    /// The call counter of `kind`, with the latency histogram and trace
    /// span name of the four kinds that are timed.
    fn of(&self, kind: CollKind) -> (&bgq_upc::Counter, Option<(&Histogram, &'static str)>) {
        match kind {
            CollKind::Barrier => (&self.barriers, Some((&self.barrier_ns, "coll.barrier"))),
            CollKind::Broadcast => (&self.broadcasts, Some((&self.bcast_ns, "coll.broadcast"))),
            CollKind::Allreduce => {
                (&self.allreduces, Some((&self.allreduce_ns, "coll.allreduce")))
            }
            CollKind::Reduce => (&self.reduces, Some((&self.reduce_ns, "coll.reduce"))),
            CollKind::Gather => (&self.gathers, None),
            CollKind::Scatter => (&self.scatters, None),
            CollKind::Allgather => (&self.allgathers, None),
            CollKind::Alltoall => (&self.alltoalls, None),
        }
    }
}

/// Element size used by reductions (the collective network combines 64-bit
/// words).
pub const ELEM: usize = 8;

/// Pipeline slice for long hardware allreduce/broadcast contributions
/// (Figure 4's "each process operates on a slice of buffers").
pub const PIPELINE_SLICE: usize = 64 * 1024;

const SLOT_ROOT: u32 = 0x4000_0000;
const SLOT_NODEBUF: u32 = 0x4000_0001;
const SLOT_RESULT: u32 = 0x4000_0002;

// ---------------------------------------------------------------------------
// The algorithm list and auto-selection
// ---------------------------------------------------------------------------

/// Names of the built-in algorithms (stable; `*_named` forcing and tests
/// refer to these).
pub mod names {
    pub const GI_BARRIER: &str = "gi-barrier";
    pub const COLLNET_BARRIER: &str = "collnet-barrier";
    pub const HW_BCAST: &str = "hw-collnet-bcast";
    pub const SW_BCAST: &str = "sw-binomial-bcast";
    pub const HW_ALLREDUCE: &str = "hw-collnet-allreduce";
    pub const SW_ALLREDUCE: &str = "sw-binomial-allreduce";
    pub const SW_REDUCE: &str = "sw-binomial-reduce";
    pub const SW_GATHER: &str = "sw-binomial-gather";
    pub const SW_SCATTER: &str = "sw-binomial-scatter";
    pub const SW_ALLGATHER: &str = "sw-ring-allgather";
    pub const SW_ALLTOALL: &str = "sw-pairwise-alltoall";
    pub const STREAM_ALLREDUCE: &str = "sw-stream-allreduce";
}

fn always(_: &Geometry) -> bool {
    true
}

fn routed(geom: &Geometry) -> bool {
    geom.route().is_some()
}

fn chain(geom: &Geometry) -> bool {
    geom.size() >= 2
}

/// Whether an algorithm can run on a geometry right now.
type Available = fn(&Geometry) -> bool;

/// Every built-in algorithm with its availability; the classroute-backed
/// rows answer with route presence, so `optimize` / `deoptimize` flip them
/// live.
pub(crate) const ALGORITHMS: [(&str, CollKind, Available); 12] = [
    (names::GI_BARRIER, CollKind::Barrier, always),
    (names::COLLNET_BARRIER, CollKind::Barrier, routed),
    (names::HW_BCAST, CollKind::Broadcast, routed),
    (names::SW_BCAST, CollKind::Broadcast, always),
    (names::HW_ALLREDUCE, CollKind::Allreduce, routed),
    (names::SW_ALLREDUCE, CollKind::Allreduce, always),
    (names::STREAM_ALLREDUCE, CollKind::Allreduce, chain),
    (names::SW_REDUCE, CollKind::Reduce, always),
    (names::SW_GATHER, CollKind::Gather, always),
    (names::SW_SCATTER, CollKind::Scatter, always),
    (names::SW_ALLGATHER, CollKind::Allgather, always),
    (names::SW_ALLTOALL, CollKind::Alltoall, always),
];

/// Auto-selection: the algorithm an unforced `kind` call runs on `geom`
/// right now, and the one place that is decided. The collective network
/// while the geometry holds a classroute; otherwise the binomial broadcast
/// and the streaming chain allreduce (the binomial one on a geometry of one
/// member, where no chain exists). The GI barrier always — the paper chose
/// it over the collective-network barrier for latency — and the one
/// software algorithm of every other kind.
pub fn select(kind: CollKind, geom: &Geometry) -> &'static str {
    match kind {
        CollKind::Barrier => names::GI_BARRIER,
        CollKind::Broadcast if routed(geom) => names::HW_BCAST,
        CollKind::Broadcast => names::SW_BCAST,
        CollKind::Allreduce if routed(geom) => names::HW_ALLREDUCE,
        CollKind::Allreduce if chain(geom) => names::STREAM_ALLREDUCE,
        CollKind::Allreduce => names::SW_ALLREDUCE,
        CollKind::Reduce => names::SW_REDUCE,
        CollKind::Gather => names::SW_GATHER,
        CollKind::Scatter => names::SW_SCATTER,
        CollKind::Allgather => names::SW_ALLGATHER,
        CollKind::Alltoall => names::SW_ALLTOALL,
    }
}


/// The shell every collective runs in: count the call, take the
/// geometry's next sequence number — every member consumes one per call,
/// trivial or not, which is what keeps their calls matched — and run
/// `body` on it. A timed kind then records its latency and a trace span
/// of `bytes`.
fn run(geom: &Geometry, ctx: &Context, kind: CollKind, bytes: usize, body: impl FnOnce(u64)) {
    let machine = ctx.machine();
    let (calls, timed) = machine.coll_probes().of(kind);
    calls.incr();
    let start = Stamp::now();
    body(geom.next_seq(ctx.task()));
    if let Some((latency, span)) = timed {
        latency.record_since(start);
        machine.telemetry().trace_span(span, start, bytes as u64);
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

/// The buffer a member of `group` posted under `slot` before a local
/// barrier the caller has since passed.
fn posted(group: &NodeGroup, seq: u64, slot: u32) -> (MemRegion, usize) {
    match group.board.get(seq, slot) {
        Some(BoardEntry { region, offset, .. }) => (region, offset),
        None => panic!("board slot {slot:#x} not posted before the local barrier"),
    }
}

/// The peers-copy tail of a node collective (Figure 4): the leader posts
/// its result buffer `dst`, and after the local barrier every other task
/// that does not already hold the result copies it straight out of the
/// leader's buffer (global VA). The second barrier keeps that buffer
/// alive until all have copied; then the leader clears the board.
fn peers_copy(
    geom: &Geometry,
    ctx: &Context,
    seq: u64,
    holds: bool,
    dst: (&MemRegion, usize),
    len: usize,
) {
    let group = geom.group(ctx.node());
    let is_leader = ctx.task() == group.leader;
    if is_leader {
        let result = BoardEntry { region: dst.0.clone(), offset: dst.1, len };
        group.board.post(seq, SLOT_RESULT, result);
    }
    local_barrier(geom, ctx);
    if !is_leader && !holds {
        let (src, src_off) = posted(group, seq, SLOT_RESULT);
        dst.0.copy_from(dst.1, &src, src_off, len);
    }
    local_barrier(geom, ctx);
    if is_leader {
        group.board.clear_seq(seq);
    }
}

/// The span of relative rank `relative`'s subtree in a binomial tree rooted
/// at relative rank 0: its lowest set bit (at the root, the power of two
/// at or above `n`). The subtree is ranks `relative..relative + span` cut
/// at `n`, the children are `relative + m` for the powers of two `m` below
/// the span, and the parent is `relative − span`.
fn subtree_span(relative: usize, n: usize) -> usize {
    if relative == 0 {
        n.next_power_of_two()
    } else {
        1 << relative.trailing_zeros()
    }
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

/// Barrier over the geometry: L2 local barrier on each node bracketing a GI
/// barrier across the nodes (paper section IV.B) — what [`select`] names on
/// every geometry.
pub fn barrier(geom: &Geometry, ctx: &Context) {
    barrier_named(geom, ctx, select(CollKind::Barrier, geom))
}

/// Barrier through a named algorithm (ablation hook: the paper chose
/// [`names::GI_BARRIER`] over [`names::COLLNET_BARRIER`] for latency; the
/// latter needs an optimized geometry).
///
/// # Panics
/// If no barrier algorithm is named `name`.
pub fn barrier_named(geom: &Geometry, ctx: &Context, name: &str) {
    run(geom, ctx, CollKind::Barrier, geom.size(), |_| {
        if geom.size() > 1 {
            match name {
                names::GI_BARRIER => gi_barrier(geom, ctx),
                names::COLLNET_BARRIER => collnet_barrier(geom, ctx),
                name => panic!("no barrier algorithm named {name:?}"),
            }
        }
    })
}

/// GI-network barrier body: local barrier, leader arrives at the GI wire,
/// local barrier.
fn gi_barrier(geom: &Geometry, ctx: &Context) {
    let group = geom.group(ctx.node());
    local_barrier(geom, ctx);
    if ctx.task() == group.leader && geom.nodes().len() > 1 {
        let phase = geom.gi().arrive();
        ctx.advance_until(|| geom.gi().is_released(phase));
    }
    local_barrier(geom, ctx);
}

/// Collective-network barrier body: a zero-payload contribution over the
/// classroute. Panics (leader only, multi-node only) when the geometry has
/// no route.
fn collnet_barrier(geom: &Geometry, ctx: &Context) {
    let group = geom.group(ctx.node());
    local_barrier(geom, ctx);
    if ctx.task() == group.leader && geom.nodes().len() > 1 {
        let route = geom
            .route()
            .expect("collnet-barrier requires an optimized geometry");
        let machine = ctx.machine();
        let done = Counter::new();
        done.add_expected(1);
        machine.collnet().contribute(
            &route,
            machine.shape().coords_of(ctx.node() as usize),
            CollContribution::Barrier {
                output: Some(CollOutput {
                    region: MemRegion::zeroed(0),
                    offset: 0,
                    counter: Some(done.clone()),
                }),
            },
        );
        ctx.advance_until(|| done.is_complete());
    }
    local_barrier(geom, ctx);
}

// ---------------------------------------------------------------------------
// Broadcast
// ---------------------------------------------------------------------------

/// Broadcast `len` bytes at (`region`, `offset`) from geometry rank
/// `root_rank` to the same place on every member (the algorithm [`select`]
/// names).
pub fn broadcast(
    geom: &Geometry,
    ctx: &Context,
    root_rank: usize,
    region: &MemRegion,
    offset: usize,
    len: usize,
) {
    broadcast_named(geom, ctx, select(CollKind::Broadcast, geom), root_rank, region, offset, len)
}

/// Broadcast through a named algorithm.
///
/// # Panics
/// If no broadcast algorithm is named `name`.
pub fn broadcast_named(
    geom: &Geometry,
    ctx: &Context,
    name: &str,
    root_rank: usize,
    region: &MemRegion,
    offset: usize,
    len: usize,
) {
    match name {
        names::HW_BCAST => {
            // Every member fails on a geometry without a route, not only
            // the leaders that would contribute.
            assert!(geom.route().is_some(), "hw path requires a classroute");
            broadcast_with(geom, ctx, hw_broadcast, root_rank, region, offset, len)
        }
        names::SW_BCAST => run(geom, ctx, CollKind::Broadcast, len, |seq| {
            if geom.size() > 1 && len > 0 {
                sw_broadcast(geom, ctx, seq, root_rank, region, offset, len)
            }
        }),
        name => panic!("no broadcast algorithm named {name:?}"),
    }
}

/// Broadcast with `leader` as every node leader's network phase, inside
/// the one node scheme of Figure 4: a root that is not its node's leader
/// shares its buffer with the leader, the leaders run `leader`, and the
/// other tasks copy the result out of their leader's buffer. This is how
/// `hw-collnet-bcast` runs, and how a layer above brings its own network
/// phase (the MPI rectangle broadcast) and keeps sequencing,
/// `coll.broadcasts` and `coll.bcast_ns`.
pub fn broadcast_with(
    geom: &Geometry,
    ctx: &Context,
    leader: BroadcastBody,
    root_rank: usize,
    region: &MemRegion,
    offset: usize,
    len: usize,
) {
    run(geom, ctx, CollKind::Broadcast, len, |seq| {
        if geom.size() == 1 || len == 0 {
            return;
        }
        let group = geom.group(ctx.node());
        let me = ctx.task();
        let root_task = geom.topology().task_at(root_rank);
        let on_root_node = ctx.machine().task_node(root_task) == ctx.node();
        if me == root_task && me != group.leader {
            let root = BoardEntry { region: region.clone(), offset, len };
            group.board.post(seq, SLOT_ROOT, root);
        }
        local_barrier(geom, ctx);
        if me == group.leader {
            let shared = (on_root_node && me != root_task).then(|| posted(group, seq, SLOT_ROOT));
            let src = match &shared {
                Some((root_region, root_offset)) => Some((root_region, *root_offset)),
                None => on_root_node.then_some((region, offset)),
            };
            leader(geom, ctx, seq, root_rank, src, (region, offset), len);
        }
        peers_copy(geom, ctx, seq, me == root_task, (region, offset), len);
    })
}

/// `hw-collnet-bcast`'s leader half: in pipeline slices, the root's
/// leader injects the buffer into the collective network and every other
/// leader contributes an empty slot of the same length; the network
/// writes each slice into every leader's `dst`.
fn hw_broadcast(
    geom: &Geometry,
    ctx: &Context,
    _seq: u64,
    _root_rank: usize,
    src: Option<(&MemRegion, usize)>,
    dst: (&MemRegion, usize),
    len: usize,
) {
    let route = geom.route().expect("hw path requires a classroute");
    let machine = ctx.machine();
    let net_start = Stamp::now();
    let coords = machine.shape().coords_of(ctx.node() as usize);
    let done = Counter::new();
    done.add_expected(len as u64);
    for at in (0..len).step_by(PIPELINE_SLICE) {
        let chunk = (len - at).min(PIPELINE_SLICE);
        let data = src.map(|(region, offset)| {
            let mut data = vec![0u8; chunk];
            region.read(offset + at, &mut data);
            data
        });
        machine.collnet().contribute(
            &route,
            coords,
            CollContribution::Broadcast {
                data,
                len: chunk,
                output: Some(CollOutput {
                    region: dst.0.clone(),
                    offset: dst.1 + at,
                    counter: Some(done.clone()),
                }),
            },
        );
    }
    ctx.advance_until(|| done.is_complete());
    machine.coll_probes().bcast_network_ns.record_since(net_start);
    machine.telemetry().trace_span("coll.bcast.network", net_start, len as u64);
}

/// `sw-binomial-bcast`: every member receives from its binomial parent
/// and forwards to its children.
fn sw_broadcast(
    geom: &Geometry,
    ctx: &Context,
    seq: u64,
    root_rank: usize,
    region: &MemRegion,
    offset: usize,
    len: usize,
) {
    let n = geom.size();
    let rank = geom.rank_of(ctx.task()).expect("caller is a member");
    let relative = (rank + n - root_rank) % n;
    let span = subtree_span(relative, n);
    let tag = tag(seq, Class::Broadcast, 0);
    let done = Counter::new();
    if relative != 0 {
        geom.post_recv(ctx, (relative - span + root_rank) % n, tag, region, offset, len, &done);
        ctx.advance_until(|| done.is_complete());
    }
    let mut mask = span >> 1;
    while mask > 0 {
        if relative + mask < n {
            let child = (relative + mask + root_rank) % n;
            geom.send_sw(ctx, child, tag, region, offset, len, &done);
        }
        mask >>= 1;
    }
    ctx.advance_until(|| done.is_complete());
}

// ---------------------------------------------------------------------------
// Allreduce / Reduce
// ---------------------------------------------------------------------------

/// Allreduce `count` 8-byte elements from (`src`) into (`dst`) on every
/// member (the algorithm [`select`] names).
#[allow(clippy::too_many_arguments)]
pub fn allreduce(
    geom: &Geometry,
    ctx: &Context,
    src: (&MemRegion, usize),
    dst: (&MemRegion, usize),
    count: usize,
    op: CollOp,
    dtype: DataType,
) {
    let name = select(CollKind::Allreduce, geom);
    allreduce_named(geom, ctx, name, src, dst, count, op, dtype)
}

/// Allreduce through a named algorithm.
///
/// # Panics
/// If no allreduce algorithm is named `name`.
#[allow(clippy::too_many_arguments)]
pub fn allreduce_named(
    geom: &Geometry,
    ctx: &Context,
    name: &str,
    src: (&MemRegion, usize),
    dst: (&MemRegion, usize),
    count: usize,
    op: CollOp,
    dtype: DataType,
) {
    run(geom, ctx, CollKind::Allreduce, count * ELEM, |seq| {
        if count == 0 {
            return;
        }
        if geom.size() == 1 {
            return dst.0.copy_from(dst.1, src.0, src.1, count * ELEM);
        }
        match name {
            names::HW_ALLREDUCE => hw_allreduce(geom, ctx, seq, src, dst, count, op, dtype),
            names::SW_ALLREDUCE => {
                sw_reduce_bcast(geom, ctx, seq, None, src, dst, count, op, dtype)
            }
            names::STREAM_ALLREDUCE => {
                sw_stream_allreduce(geom, ctx, seq, src, dst, count, op, dtype)
            }
            name => panic!("no allreduce algorithm named {name:?}"),
        }
    })
}

/// Reduce to `root_rank` over the binomial tree: the result lands in `dst`
/// on the root; other members' `dst` is untouched.
///
/// There is no hardware reduce: the collective network would deliver at
/// the route root, so (as the real library does for mismatched roots)
/// arbitrary-root reduces go through the tree.
#[allow(clippy::too_many_arguments)]
pub fn reduce(
    geom: &Geometry,
    ctx: &Context,
    root_rank: usize,
    src: (&MemRegion, usize),
    dst: (&MemRegion, usize),
    count: usize,
    op: CollOp,
    dtype: DataType,
) {
    run(geom, ctx, CollKind::Reduce, count * ELEM, |seq| {
        if count == 0 {
            return;
        }
        if geom.size() == 1 {
            return dst.0.copy_from(dst.1, src.0, src.1, count * ELEM);
        }
        sw_reduce_bcast(geom, ctx, seq, Some(root_rank), src, dst, count, op, dtype)
    })
}

/// Split `count` elements into `parts` contiguous ranges; returns the
/// element range of `part`.
fn partition(count: usize, parts: usize, part: usize) -> (usize, usize) {
    (count * part / parts, count * (part + 1) / parts)
}

#[allow(clippy::too_many_arguments)]
fn hw_allreduce(
    geom: &Geometry,
    ctx: &Context,
    seq: u64,
    src: (&MemRegion, usize),
    dst: (&MemRegion, usize),
    count: usize,
    op: CollOp,
    dtype: DataType,
) {
    let route = geom.route().expect("hw path requires a classroute");
    let machine = ctx.machine();
    let node = ctx.node();
    let group = geom.group(node);
    let me = ctx.task();
    let is_leader = me == group.leader;
    let ppn = group.tasks.len();
    let len = count * ELEM;
    let slot = group.slot_of(me);

    // Every member publishes its input; the leader publishes the node
    // accumulation buffer.
    group.board.post(seq, slot, BoardEntry { region: src.0.clone(), offset: src.1, len });
    if is_leader && ppn > 1 {
        let nodebuf = MemRegion::zeroed(len);
        group.board.post(seq, SLOT_NODEBUF, BoardEntry { region: nodebuf, offset: 0, len });
    }
    local_barrier(geom, ctx);

    // Parallel local math: each member combines everyone's input over its
    // slice of elements and deposits into the node buffer (Figure 3).
    let local_start = Stamp::now();
    let node_src: (MemRegion, usize) = if ppn > 1 {
        let (buf, buf_off) = posted(group, seq, SLOT_NODEBUF);
        let (lo, hi) = partition(count, ppn, slot as usize);
        if hi > lo {
            let byte_lo = lo * ELEM;
            let bytes = (hi - lo) * ELEM;
            let mut acc = vec![0u8; bytes];
            let (r0, o0) = posted(group, seq, 0);
            r0.read(o0 + byte_lo, &mut acc);
            let mut contrib = vec![0u8; bytes];
            for p in 1..ppn as u32 {
                let (rp, op_) = posted(group, seq, p);
                rp.read(op_ + byte_lo, &mut contrib);
                bgq_collnet::combine(op, dtype, &mut acc, &contrib);
            }
            buf.write(buf_off + byte_lo, &acc);
        }
        local_barrier(geom, ctx);
        let probes = machine.coll_probes();
        probes.allreduce_local_ns.record_since(local_start);
        machine.telemetry().trace_span("coll.allreduce.local", local_start, len as u64);
        (buf, buf_off)
    } else {
        (src.0.clone(), src.1)
    };

    if is_leader {
        let net_start = Stamp::now();
        let coords = machine.shape().coords_of(node as usize);
        let done = Counter::new();
        done.add_expected(len as u64);
        // Pipelined network contributions, in slice order (Figure 4: "the
        // ordering of injection is maintained across all the masters").
        for at in (0..len).step_by(PIPELINE_SLICE) {
            let mut data = vec![0u8; (len - at).min(PIPELINE_SLICE)];
            node_src.0.read(node_src.1 + at, &mut data);
            machine.collnet().contribute(
                &route,
                coords,
                CollContribution::Allreduce {
                    op,
                    dtype,
                    data,
                    output: CollOutput {
                        region: dst.0.clone(),
                        offset: dst.1 + at,
                        counter: Some(done.clone()),
                    },
                },
            );
        }
        ctx.advance_until(|| done.is_complete());
        let probes = machine.coll_probes();
        probes.allreduce_network_ns.record_since(net_start);
        machine.telemetry().trace_span("coll.allreduce.network", net_start, len as u64);
    }
    peers_copy(geom, ctx, seq, false, dst, len);
}

/// Software fallback: binomial reduce to a root, then (for allreduce)
/// binomial broadcast of the result. `root_rank: None` means allreduce.
#[allow(clippy::too_many_arguments)]
fn sw_reduce_bcast(
    geom: &Geometry,
    ctx: &Context,
    seq: u64,
    root_rank: Option<usize>,
    src: (&MemRegion, usize),
    dst: (&MemRegion, usize),
    count: usize,
    op: CollOp,
    dtype: DataType,
) {
    let n = geom.size();
    let rank = geom.rank_of(ctx.task()).expect("caller is a member");
    let root = root_rank.unwrap_or(0);
    let relative = (rank + n - root) % n;
    let len = count * ELEM;

    // Binomial reduce toward relative rank 0: the children's partials land
    // in one scratch region and fold into this member's input in child
    // order, and the result goes to the parent.
    let mut acc = vec![0u8; len];
    src.0.read(src.1, &mut acc);
    let span = subtree_span(relative, n);
    let level = |mask: usize| tag(seq, Class::Reduce, mask.trailing_zeros() as usize);
    let children = (0..usize::BITS)
        .map(|bit| 1usize << bit)
        .take_while(|&mask| mask < span && relative + mask < n);
    let scratch = MemRegion::zeroed(children.clone().count() * len);
    let done = Counter::new();
    for (i, mask) in children.enumerate() {
        let child = (relative + mask + root) % n;
        geom.post_recv(ctx, child, level(mask), &scratch, i * len, len, &done);
    }
    ctx.advance_until(|| done.is_complete());
    for partial in scratch.to_vec().chunks_exact(len) {
        bgq_collnet::combine(op, dtype, &mut acc, partial);
    }
    if relative != 0 {
        let parent = (relative - span + root) % n;
        geom.send_sw(ctx, parent, level(span), &MemRegion::from_vec(acc), 0, len, &done);
        ctx.advance_until(|| done.is_complete());
    } else {
        dst.0.write(dst.1, &acc);
    }
    // Allreduce: the root broadcasts the result.
    if root_rank.is_none() {
        sw_broadcast(geom, ctx, seq, root, dst.0, dst.1, len);
    }
}

/// Segment size of the streaming chain allreduce. Small enough that a
/// long vector pipelines (rank 0 is filling segment `s+1` while the tail
/// of the chain still reduces segment `s`), large enough to amortize the
/// per-message header.
pub const STREAM_SEGMENT: usize = 4096;

/// Streaming chain allreduce (SHArP-style in-network reduction, done in
/// software): the buffer is cut into [`STREAM_SEGMENT`]-byte segments and
/// each segment flows up the rank chain 0 → 1 → … → n−1, every hop folding
/// its own contribution into the partial (per-hop partial reduction), then
/// back down the chain as the full result. Segments pipeline: hop `r` works
/// on segment `s` while hop `r−1` already forwards segment `s+1`, so the
/// latency of a long vector approaches one traversal plus `n` segment
/// times rather than `n · len`.
#[allow(clippy::too_many_arguments)]
fn sw_stream_allreduce(
    geom: &Geometry,
    ctx: &Context,
    seq: u64,
    src: (&MemRegion, usize),
    dst: (&MemRegion, usize),
    count: usize,
    op: CollOp,
    dtype: DataType,
) {
    let n = geom.size();
    let rank = geom.rank_of(ctx.task()).expect("caller is a member");
    let len = count * ELEM;
    let nseg = len.div_ceil(STREAM_SEGMENT);
    let segment = |seg: usize| (seg * STREAM_SEGMENT, STREAM_SEGMENT.min(len - seg * STREAM_SEGMENT));
    // One completion counter covers every send this rank issues across both
    // directions; segments stay in flight back-to-back and we drain once.
    let (sent, got) = (Counter::new(), Counter::new());

    // Reduce sweep up the chain: each upstream partial lands in one
    // scratch segment and folds into this rank's own. Rank n−1 completes
    // each segment in `dst` and immediately starts it back down,
    // overlapping the two sweeps.
    let upstream = MemRegion::zeroed(if rank > 0 { STREAM_SEGMENT.min(len) } else { 0 });
    let mut folded = vec![0u8; upstream.len()];
    for seg in 0..nseg {
        let (up, down) = (tag(seq, Class::ChainUp, seg), tag(seq, Class::ChainDown, seg));
        let (off, seg_len) = segment(seg);
        let mut part = vec![0u8; seg_len];
        src.0.read(src.1 + off, &mut part);
        if rank > 0 {
            geom.post_recv(ctx, rank - 1, up, &upstream, 0, seg_len, &got);
            ctx.advance_until(|| got.is_complete());
            upstream.read(0, &mut folded[..seg_len]);
            bgq_collnet::combine(op, dtype, &mut part, &folded[..seg_len]);
        }
        if rank < n - 1 {
            geom.send_sw(ctx, rank + 1, up, &MemRegion::from_vec(part), 0, seg_len, &sent);
        } else {
            dst.0.write(dst.1 + off, &part);
            geom.send_sw(ctx, rank - 1, down, dst.0, dst.1 + off, seg_len, &sent);
        }
    }

    // Broadcast sweep back down: the finished segment from the right
    // neighbor lands in `dst` and is forwarded left from there.
    if rank < n - 1 {
        for seg in 0..nseg {
            let down = tag(seq, Class::ChainDown, seg);
            let (off, seg_len) = segment(seg);
            geom.post_recv(ctx, rank + 1, down, dst.0, dst.1 + off, seg_len, &got);
            ctx.advance_until(|| got.is_complete());
            if rank > 0 {
                geom.send_sw(ctx, rank - 1, down, dst.0, dst.1 + off, seg_len, &sent);
            }
        }
    }

    ctx.advance_until(|| sent.is_complete());
}

// ---------------------------------------------------------------------------
// Gather / Scatter / Allgather / Alltoall (software algorithms)
// ---------------------------------------------------------------------------
//
// The paper lists hardware acceleration of these as future work ("we would
// like to explore performance optimizations for other collective operations
// such as all-to-all, scatter and gather"); PAMI ships software algorithms
// over point-to-point, which is what these are: binomial gather/scatter, a
// ring allgather, and pairwise-exchange alltoall, all flat over the
// geometry's ranks.

/// Gather `blk` bytes from every member's (`src`) into rank `root`'s `dst`
/// (laid out by rank). Binomial tree: log₂(n) rounds, each parent
/// accumulating its subtree's contiguous relative block.
pub fn gather(
    geom: &Geometry,
    ctx: &Context,
    root_rank: usize,
    src: (&MemRegion, usize),
    dst: (&MemRegion, usize),
    blk: usize,
) {
    run(geom, ctx, CollKind::Gather, 0, |seq| {
        let n = geom.size();
        let rank = geom.rank_of(ctx.task()).expect("caller is a member");
        let relative = (rank + n - root_rank) % n;
        let span = subtree_span(relative, n);
        let level = |mask: usize| tag(seq, Class::Gather, mask.trailing_zeros() as usize);
        // My subtree's blocks, relative block x at (x − relative)·blk.
        let subtree = span.min(n - relative);
        // Each child's subtree lands at its place in `accum`.
        let accum = MemRegion::zeroed(subtree * blk);
        accum.copy_from(0, src.0, src.1, blk);
        let done = Counter::new();
        let mut mask = 1usize;
        while mask < span && relative + mask < n {
            let child = (relative + mask + root_rank) % n;
            let len = mask.min(n - relative - mask) * blk;
            geom.post_recv(ctx, child, level(mask), &accum, mask * blk, len, &done);
            mask <<= 1;
        }
        ctx.advance_until(|| done.is_complete());
        if relative == 0 {
            // Unrotate: relative block x belongs to absolute rank (x+root)%n.
            for x in 0..n {
                dst.0.copy_from(dst.1 + (x + root_rank) % n * blk, &accum, x * blk, blk);
            }
            return;
        }
        let parent = (relative - span + root_rank) % n;
        geom.send_sw(ctx, parent, level(span), &accum, 0, subtree * blk, &done);
        ctx.advance_until(|| done.is_complete());
    })
}

/// Scatter `blk` bytes per rank from `root`'s `src` (laid out by rank) into
/// every member's `dst`. Binomial: the inverse of [`gather`].
pub fn scatter(
    geom: &Geometry,
    ctx: &Context,
    root_rank: usize,
    src: (&MemRegion, usize),
    dst: (&MemRegion, usize),
    blk: usize,
) {
    run(geom, ctx, CollKind::Scatter, 0, |seq| {
        let n = geom.size();
        let rank = geom.rank_of(ctx.task()).expect("caller is a member");
        let relative = (rank + n - root_rank) % n;
        let span = subtree_span(relative, n);
        let level = |mask: usize| tag(seq, Class::Scatter, mask.trailing_zeros() as usize);
        // My subtree's blocks, relative block x at (x − relative)·blk: the
        // root rotates its buffer, everyone else receives from its parent.
        let accum = MemRegion::zeroed(span.min(n - relative) * blk);
        let done = Counter::new();
        if relative == 0 {
            for x in 0..n {
                accum.copy_from(x * blk, src.0, src.1 + (x + root_rank) % n * blk, blk);
            }
        } else {
            let parent = (relative - span + root_rank) % n;
            geom.post_recv(ctx, parent, level(span), &accum, 0, accum.len(), &done);
            ctx.advance_until(|| done.is_complete());
        }
        let mut mask = span >> 1;
        while mask > 0 {
            let child = relative + mask;
            if child < n {
                let len = mask.min(n - child) * blk;
                geom.send_sw(ctx, (child + root_rank) % n, level(mask), &accum, mask * blk, len, &done);
            }
            mask >>= 1;
        }
        ctx.advance_until(|| done.is_complete());
        dst.0.copy_from(dst.1, &accum, 0, blk);
    })
}

/// Allgather: every member contributes `blk` bytes and receives all `n`
/// blocks, rank-ordered, via the ring algorithm (n−1 steps, each member
/// forwarding the newest block to its right neighbor).
pub fn allgather(
    geom: &Geometry,
    ctx: &Context,
    src: (&MemRegion, usize),
    dst: (&MemRegion, usize),
    blk: usize,
) {
    run(geom, ctx, CollKind::Allgather, 0, |seq| {
        let n = geom.size();
        let rank = geom.rank_of(ctx.task()).expect("caller is a member");
        dst.0.copy_from(dst.1 + rank * blk, src.0, src.1, blk);
        let (right, left) = ((rank + 1) % n, (rank + n - 1) % n);
        // Step s forwards the block that originated s ranks to my left and
        // takes in the one from s + 1 ranks, into its place in `dst`. Every
        // step is posted before the first send, with a counter of its own
        // that its send shares.
        let block = |step: usize| dst.1 + (rank + n - step) % n * blk;
        let steps: Vec<(u64, Counter)> = (0..n - 1)
            .map(|step| (tag(seq, Class::Allgather, step), Counter::new()))
            .collect();
        for (step, (tag, done)) in steps.iter().enumerate() {
            geom.post_recv(ctx, left, *tag, dst.0, block(step + 1), blk, done);
        }
        for (step, (tag, done)) in steps.iter().enumerate() {
            geom.send_sw(ctx, right, *tag, dst.0, block(step), blk, done);
            ctx.advance_until(|| done.is_complete());
        }
    })
}

/// Alltoall: member `i`'s block `j` (at `j·blk` in `src`) lands at block
/// `i` of member `j`'s `dst`. Pairwise exchange over n−1 steps (plus the
/// local block copy) — the pattern whose aggregate bandwidth the 5D torus
/// bisection accelerates (the paper's FFT motivation).
pub fn alltoall(
    geom: &Geometry,
    ctx: &Context,
    src: (&MemRegion, usize),
    dst: (&MemRegion, usize),
    blk: usize,
) {
    run(geom, ctx, CollKind::Alltoall, 0, |seq| {
        let n = geom.size();
        let rank = geom.rank_of(ctx.task()).expect("caller is a member");
        dst.0.copy_from(dst.1 + rank * blk, src.0, src.1 + rank * blk, blk);
        // Every step's block is posted into its place in `dst` before the
        // first send, and one counter covers every receive and send.
        let done = Counter::new();
        for step in 1..n {
            let from = (rank + n - step) % n;
            let tag = tag(seq, Class::Alltoall, step);
            geom.post_recv(ctx, from, tag, dst.0, dst.1 + from * blk, blk, &done);
        }
        for step in 1..n {
            let to = (rank + step) % n;
            let tag = tag(seq, Class::Alltoall, step);
            geom.send_sw(ctx, to, tag, src.0, src.1 + to * blk, blk, &done);
        }
        ctx.advance_until(|| done.is_complete());
    })
}
