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
use bgq_mu::PayloadSource;
use bgq_upc::{Histogram, Stamp, Upc};

use crate::context::Context;
use crate::geometry::{BoardEntry, Geometry};

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

/// A broadcast body, `(geom, ctx, seq, root_rank, region, offset, len)`:
/// what [`broadcast_with`] runs once it has consumed the sequence number
/// and handled the trivial cases.
pub type BroadcastBody = fn(&Geometry, &Context, u64, usize, &MemRegion, usize, usize);

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

fn local_barrier(geom: &Geometry, ctx: &Context) {
    let group = geom.group(ctx.node());
    if group.tasks.len() == 1 {
        return;
    }
    let generation = group.barrier.arrive();
    ctx.advance_until(|| group.barrier.is_released(generation));
}

fn entry_region(entry: BoardEntry) -> (MemRegion, usize, usize) {
    match entry {
        BoardEntry::Region { region, offset, len } => (region, offset, len),
        BoardEntry::Data(_) => panic!("expected a region board entry"),
    }
}

fn wait_board(geom: &Geometry, ctx: &Context, seq: u64, slot: u32) -> BoardEntry {
    let group = geom.group(ctx.node());
    loop {
        if let Some(e) = group.board.get(seq, slot) {
            return e;
        }
        if ctx.advance() == 0 {
            std::thread::yield_now();
        }
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
    let machine = ctx.machine();
    let probes = machine.coll_probes();
    probes.barriers.incr();
    let start = Stamp::now();
    // Consume a sequence number to keep collective ordering aligned even
    // though the barrier itself never touches the board.
    geom.next_seq(ctx.task());
    if geom.size() > 1 {
        match name {
            names::GI_BARRIER => gi_barrier(geom, ctx),
            names::COLLNET_BARRIER => collnet_barrier(geom, ctx),
            name => panic!("no barrier algorithm named {name:?}"),
        }
    }
    probes.barrier_ns.record_since(start);
    machine.telemetry().trace_span("coll.barrier", start, geom.size() as u64);
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
                    wakeup: None,
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
    let body: BroadcastBody = match name {
        names::HW_BCAST => hw_broadcast,
        names::SW_BCAST => sw_broadcast,
        name => panic!("no broadcast algorithm named {name:?}"),
    };
    broadcast_with(geom, ctx, body, root_rank, region, offset, len)
}

/// Broadcast through `body` — the shell every broadcast runs in, which is
/// how a layer above (the MPI rectangle broadcast) brings its own
/// algorithm and keeps sequencing, `coll.broadcasts` and `coll.bcast_ns`.
pub fn broadcast_with(
    geom: &Geometry,
    ctx: &Context,
    body: BroadcastBody,
    root_rank: usize,
    region: &MemRegion,
    offset: usize,
    len: usize,
) {
    let machine = ctx.machine();
    let probes = machine.coll_probes();
    probes.broadcasts.incr();
    let start = Stamp::now();
    // Consume the sequence number even for trivial cases (MPI_Bcast of zero
    // bytes is a no-op but collective ordering must stay aligned).
    let seq = geom.next_seq(ctx.task());
    if geom.size() > 1 && len > 0 {
        body(geom, ctx, seq, root_rank, region, offset, len);
    }
    probes.bcast_ns.record_since(start);
    machine.telemetry().trace_span("coll.broadcast", start, len as u64);
}

fn hw_broadcast(
    geom: &Geometry,
    ctx: &Context,
    seq: u64,
    root_rank: usize,
    region: &MemRegion,
    offset: usize,
    len: usize,
) {
    let route = geom.route().expect("hw path requires a classroute");
    let machine = ctx.machine();
    let node = ctx.node();
    let group = geom.group(node);
    let me = ctx.task();
    let root_task = geom.topology().task_at(root_rank);
    let root_node = machine.task_node(root_task);
    let is_leader = me == group.leader;

    // A non-leader root shares its buffer so the leader can inject from it.
    if me == root_task && !is_leader {
        group.board.post(
            seq,
            SLOT_ROOT,
            BoardEntry::Region { region: region.clone(), offset, len },
        );
    }
    local_barrier(geom, ctx);

    if is_leader {
        let net_start = Stamp::now();
        let coords = machine.shape().coords_of(node as usize);
        let done = Counter::new();
        done.add_expected(len as u64);
        if node == root_node {
            // Master injects; data comes from the root's buffer (its own,
            // or read through the global VA from the posted region).
            let (src_region, src_off) = if me == root_task {
                (region.clone(), offset)
            } else {
                let (r, o, l) = entry_region(wait_board(geom, ctx, seq, SLOT_ROOT));
                assert_eq!(l, len, "root posted a different length");
                (r, o)
            };
            let mut sent = 0usize;
            while sent < len {
                let chunk = (len - sent).min(PIPELINE_SLICE);
                let mut data = vec![0u8; chunk];
                src_region.read(src_off + sent, &mut data);
                machine.collnet().contribute(
                    &route,
                    coords,
                    CollContribution::Broadcast {
                        data: Some(data),
                        len: chunk,
                        output: Some(CollOutput {
                            region: region.clone(),
                            offset: offset + sent,
                            counter: Some(done.clone()),
                            wakeup: None,
                        }),
                    },
                );
                sent += chunk;
            }
        } else {
            let mut recvd = 0usize;
            while recvd < len {
                let chunk = (len - recvd).min(PIPELINE_SLICE);
                machine.collnet().contribute(
                    &route,
                    coords,
                    CollContribution::Broadcast {
                        data: None,
                        len: chunk,
                        output: Some(CollOutput {
                            region: region.clone(),
                            offset: offset + recvd,
                            counter: Some(done.clone()),
                            wakeup: None,
                        }),
                    },
                );
                recvd += chunk;
            }
        }
        ctx.advance_until(|| done.is_complete());
        let probes = machine.coll_probes();
        probes.bcast_network_ns.record_since(net_start);
        machine.telemetry().trace_span("coll.bcast.network", net_start, len as u64);
        group.board.post(
            seq,
            SLOT_RESULT,
            BoardEntry::Region { region: region.clone(), offset, len },
        );
    }
    local_barrier(geom, ctx);
    if !is_leader && me != root_task {
        // Peers copy straight out of the master's buffer (global VA).
        let (src, src_off, _) = entry_region(wait_board(geom, ctx, seq, SLOT_RESULT));
        region.copy_from(offset, &src, src_off, len);
    }
    local_barrier(geom, ctx);
    if is_leader {
        group.board.clear_seq(seq);
    }
}

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
    let tag = seq << 8;

    // Find the reception point.
    let mut mask = 1usize;
    while mask < n {
        if relative & mask != 0 {
            let parent = (relative - mask + root_rank) % n;
            let data = geom.recv_sw(ctx, parent, tag);
            assert_eq!(data.len(), len, "sw broadcast length mismatch");
            region.write(offset, &data);
            break;
        }
        mask <<= 1;
    }
    if relative == 0 {
        mask = n.next_power_of_two();
    }
    // Forward down the tree.
    mask >>= 1;
    let done = Counter::new();
    while mask > 0 {
        if relative & (mask - 1) == 0 && relative + mask < n {
            let child = (relative + mask + root_rank) % n;
            done.add_expected(len.max(1) as u64);
            geom.send_sw(
                ctx,
                child,
                tag,
                PayloadSource::Region { region: region.clone(), offset, len },
                Some(done.clone()),
            );
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
    let machine = ctx.machine();
    let probes = machine.coll_probes();
    probes.allreduces.incr();
    let start = Stamp::now();
    let seq = geom.next_seq(ctx.task());
    if count > 0 {
        if geom.size() == 1 {
            dst.0.copy_from(dst.1, src.0, src.1, count * ELEM);
        } else {
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
        }
    }
    probes.allreduce_ns.record_since(start);
    machine.telemetry().trace_span("coll.allreduce", start, (count * ELEM) as u64);
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
    let machine = ctx.machine();
    let probes = machine.coll_probes();
    probes.reduces.incr();
    let start = Stamp::now();
    let seq = geom.next_seq(ctx.task());
    if count > 0 {
        if geom.size() == 1 {
            dst.0.copy_from(dst.1, src.0, src.1, count * ELEM);
        } else {
            sw_reduce_bcast(geom, ctx, seq, Some(root_rank), src, dst, count, op, dtype);
        }
    }
    probes.reduce_ns.record_since(start);
    machine.telemetry().trace_span("coll.reduce", start, (count * ELEM) as u64);
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
    group.board.post(
        seq,
        slot,
        BoardEntry::Region { region: src.0.clone(), offset: src.1, len },
    );
    let _nodebuf = if ppn > 1 {
        let buf = MemRegion::zeroed(len);
        if is_leader {
            group.board.post(
                seq,
                SLOT_NODEBUF,
                BoardEntry::Region { region: buf.clone(), offset: 0, len },
            );
        }
        Some(buf)
    } else {
        None
    };
    local_barrier(geom, ctx);

    // Parallel local math: each member combines everyone's input over its
    // slice of elements and deposits into the node buffer (Figure 3).
    let local_start = Stamp::now();
    let node_src: (MemRegion, usize) = if ppn > 1 {
        let (buf, buf_off, _) = entry_region(wait_board(geom, ctx, seq, SLOT_NODEBUF));
        let (lo, hi) = partition(count, ppn, slot as usize);
        if hi > lo {
            let byte_lo = lo * ELEM;
            let bytes = (hi - lo) * ELEM;
            let mut acc = vec![0u8; bytes];
            let (r0, o0, _) = entry_region(
                group.board.get(seq, 0).expect("slot 0 posted before barrier"),
            );
            r0.read(o0 + byte_lo, &mut acc);
            let mut contrib = vec![0u8; bytes];
            for p in 1..ppn as u32 {
                let (rp, op_, _) = entry_region(
                    group.board.get(seq, p).expect("all slots posted before barrier"),
                );
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
        let mut sent = 0usize;
        while sent < len {
            let chunk = (len - sent).min(PIPELINE_SLICE);
            let mut data = vec![0u8; chunk];
            node_src.0.read(node_src.1 + sent, &mut data);
            machine.collnet().contribute(
                &route,
                coords,
                CollContribution::Allreduce {
                    op,
                    dtype,
                    data,
                    output: CollOutput {
                        region: dst.0.clone(),
                        offset: dst.1 + sent,
                        counter: Some(done.clone()),
                        wakeup: None,
                    },
                },
            );
            sent += chunk;
        }
        ctx.advance_until(|| done.is_complete());
        let probes = machine.coll_probes();
        probes.allreduce_network_ns.record_since(net_start);
        machine.telemetry().trace_span("coll.allreduce.network", net_start, len as u64);
        group.board.post(
            seq,
            SLOT_RESULT,
            BoardEntry::Region { region: dst.0.clone(), offset: dst.1, len },
        );
    }
    local_barrier(geom, ctx);
    if !is_leader {
        let (r, o, _) = entry_region(wait_board(geom, ctx, seq, SLOT_RESULT));
        dst.0.copy_from(dst.1, &r, o, len);
    }
    local_barrier(geom, ctx);
    if is_leader {
        group.board.clear_seq(seq);
    }
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

    // Binomial reduce toward relative rank 0.
    let mut acc = vec![0u8; len];
    src.0.read(src.1, &mut acc);
    let mut mask = 1usize;
    let mut level = 0u64;
    let mut sent = false;
    while mask < n {
        let tag = (seq << 8) | (1 << 4) | level;
        if relative & mask != 0 {
            let parent = (relative - mask + root) % n;
            let done = Counter::new();
            done.add_expected(len.max(1) as u64);
            let send_region = MemRegion::from_vec(acc.clone());
            geom.send_sw(
                ctx,
                parent,
                tag,
                PayloadSource::Region { region: send_region, offset: 0, len },
                Some(done.clone()),
            );
            ctx.advance_until(|| done.is_complete());
            sent = true;
            break;
        }
        let partner = relative + mask;
        if partner < n {
            let data = geom.recv_sw(ctx, (partner + root) % n, tag);
            assert_eq!(data.len(), len);
            bgq_collnet::combine(op, dtype, &mut acc, &data);
        }
        mask <<= 1;
        level += 1;
    }

    match root_rank {
        Some(_) => {
            // Reduce: result at the root only.
            if relative == 0 {
                dst.0.write(dst.1, &acc);
            }
            let _ = sent;
        }
        None => {
            // Allreduce: root broadcasts the result.
            if relative == 0 {
                dst.0.write(dst.1, &acc);
            }
            sw_broadcast(geom, ctx, seq, root, dst.0, dst.1, len);
        }
    }
}

/// Segment size of the streaming chain allreduce. Small enough that a
/// long vector pipelines (rank 0 is filling segment `s+1` while the tail
/// of the chain still reduces segment `s`), large enough to amortize the
/// per-message header.
pub const STREAM_SEGMENT: usize = 4096;

/// Tag for a streaming-allreduce segment. Streaming owns class nibble 6;
/// the segment index lives *above* the class nibble (bit 8 up) and the
/// sequence number above that, so concurrent segments between the same
/// pair of ranks never collide in the `recv_sw` store — unlike the
/// binomial layout, whose 4-bit level field would wrap at 16 segments.
/// Bit 0 separates the reduce (up) and broadcast (down) directions.
fn stream_tag(seq: u64, seg: usize, down: bool) -> u64 {
    (seq << 32) | ((seg as u64) << 8) | (6 << 4) | u64::from(down)
}

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
    // One completion counter covers every send this rank issues across both
    // directions; segments stay in flight back-to-back and we drain once.
    let sent = Counter::new();
    let mut expected = 0u64;
    let send_seg = |dst_rank: usize, tag: u64, data: Vec<u8>| {
        let seg_len = data.len();
        let region = MemRegion::from_vec(data);
        geom.send_sw(
            ctx,
            dst_rank,
            tag,
            PayloadSource::Region { region, offset: 0, len: seg_len },
            Some(sent.clone()),
        );
        seg_len as u64
    };

    // Reduce sweep up the chain. Rank n−1 completes each segment and
    // immediately starts it back down, overlapping the two sweeps.
    for seg in 0..nseg {
        let off = seg * STREAM_SEGMENT;
        let seg_len = STREAM_SEGMENT.min(len - off);
        let mut part = vec![0u8; seg_len];
        src.0.read(src.1 + off, &mut part);
        if rank > 0 {
            let upstream = geom.recv_sw(ctx, rank - 1, stream_tag(seq, seg, false));
            assert_eq!(upstream.len(), seg_len, "streaming segment length mismatch");
            bgq_collnet::combine(op, dtype, &mut part, &upstream);
        }
        if rank < n - 1 {
            expected += send_seg(rank + 1, stream_tag(seq, seg, false), part);
        } else {
            dst.0.write(dst.1 + off, &part);
            if n > 1 {
                expected += send_seg(rank - 1, stream_tag(seq, seg, true), part);
            }
        }
    }

    // Broadcast sweep back down: receive the finished segment from the
    // right neighbor, land it, forward left.
    if rank < n - 1 {
        for seg in 0..nseg {
            let off = seg * STREAM_SEGMENT;
            let result = geom.recv_sw(ctx, rank + 1, stream_tag(seq, seg, true));
            dst.0.write(dst.1 + off, &result);
            if rank > 0 {
                expected += send_seg(rank - 1, stream_tag(seq, seg, true), result);
            }
        }
    }

    sent.add_expected(expected);
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
    ctx.machine().coll_probes().gathers.incr();
    let seq = geom.next_seq(ctx.task());
    if geom.size() == 1 {
        dst.0.copy_from(dst.1, src.0, src.1, blk);
        return;
    }
    sw_gather(geom, ctx, seq, root_rank, src, dst, blk)
}

fn sw_gather(
    geom: &Geometry,
    ctx: &Context,
    seq: u64,
    root_rank: usize,
    src: (&MemRegion, usize),
    dst: (&MemRegion, usize),
    blk: usize,
) {
    let n = geom.size();
    let rank = geom.rank_of(ctx.task()).expect("caller is a member");
    let relative = (rank + n - root_rank) % n;

    // Accumulate my subtree's blocks (relative block x at offset x·blk).
    let mut subtree = 1usize;
    {
        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                break;
            }
            if relative + mask < n {
                subtree += (n - relative - mask).min(mask);
            }
            mask <<= 1;
        }
    }
    let accum = MemRegion::zeroed(subtree * blk);
    accum.copy_from(0, src.0, src.1, blk);

    let mut mask = 1usize;
    let mut level = 0u64;
    loop {
        let tag = (seq << 8) | (2 << 4) | level;
        if relative & mask != 0 {
            // Send my accumulated subtree to my parent and stop.
            let parent = (relative - mask + root_rank) % n;
            let done = Counter::new();
            done.add_expected((subtree * blk).max(1) as u64);
            geom.send_sw(
                ctx,
                parent,
                tag,
                PayloadSource::Region { region: accum.clone(), offset: 0, len: subtree * blk },
                Some(done.clone()),
            );
            ctx.advance_until(|| done.is_complete());
            break;
        }
        if mask >= n {
            break;
        }
        let child = relative + mask;
        if child < n {
            let child_blocks = (n - child).min(mask);
            let data = geom.recv_sw(ctx, (child + root_rank) % n, tag);
            assert_eq!(data.len(), child_blocks * blk, "gather subtree size");
            accum.write((child - relative) * blk, &data);
        }
        mask <<= 1;
        level += 1;
    }

    if relative == 0 {
        // Unrotate: relative block x belongs to absolute rank (x+root)%n.
        for x in 0..n {
            let abs = (x + root_rank) % n;
            let mut tmp = vec![0u8; blk];
            accum.read(x * blk, &mut tmp);
            dst.0.write(dst.1 + abs * blk, &tmp);
        }
    }
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
    ctx.machine().coll_probes().scatters.incr();
    let seq = geom.next_seq(ctx.task());
    if geom.size() == 1 {
        dst.0.copy_from(dst.1, src.0, src.1, blk);
        return;
    }
    sw_scatter(geom, ctx, seq, root_rank, src, dst, blk)
}

fn sw_scatter(
    geom: &Geometry,
    ctx: &Context,
    seq: u64,
    root_rank: usize,
    src: (&MemRegion, usize),
    dst: (&MemRegion, usize),
    blk: usize,
) {
    let n = geom.size();
    let rank = geom.rank_of(ctx.task()).expect("caller is a member");
    let relative = (rank + n - root_rank) % n;

    // Receive my subtree's blocks from my parent (root starts with all,
    // rotated so relative block x is at x·blk).
    #[allow(clippy::needless_late_init)] // else-branch assigns inside a loop and returns
    let accum;
    let mut recv_mask = n.next_power_of_two();
    if relative == 0 {
        let buf = MemRegion::zeroed(n * blk);
        for x in 0..n {
            let abs = (x + root_rank) % n;
            let mut tmp = vec![0u8; blk];
            src.0.read(src.1 + abs * blk, &mut tmp);
            buf.write(x * blk, &tmp);
        }
        accum = buf;
    } else {
        let mut mask = 1usize;
        let mut level = 0u64;
        while mask < n {
            if relative & mask != 0 {
                let parent = (relative - mask + root_rank) % n;
                let tag = (seq << 8) | (3 << 4) | level;
                let data = geom.recv_sw(ctx, parent, tag);
                let buf = MemRegion::from_vec(data);
                recv_mask = mask;
                accum = buf;
                // Forward sub-blocks to my children below.
                scatter_forward(geom, ctx, seq, root_rank, relative, recv_mask, &accum, blk);
                dst.0.copy_from(dst.1, &accum, 0, blk);
                return;
            }
            mask <<= 1;
            level += 1;
        }
        unreachable!("non-root rank has a set bit");
    }
    scatter_forward(geom, ctx, seq, root_rank, relative, recv_mask, &accum, blk);
    dst.0.copy_from(dst.1, &accum, 0, blk);
}

/// Send each child its slice of `accum` (which holds relative blocks
/// [relative, relative + extent)).
#[allow(clippy::too_many_arguments)] // mirrors the recursive scatter state
fn scatter_forward(
    geom: &Geometry,
    ctx: &Context,
    seq: u64,
    root_rank: usize,
    relative: usize,
    top_mask: usize,
    accum: &MemRegion,
    blk: usize,
) {
    let n = geom.size();
    let done = Counter::new();
    let mut mask = top_mask >> 1;
    while mask > 0 {
        let child = relative + mask;
        if child < n {
            let child_blocks = (n - child).min(mask);
            let level = mask.trailing_zeros() as u64;
            let tag = (seq << 8) | (3 << 4) | level;
            done.add_expected((child_blocks * blk).max(1) as u64);
            geom.send_sw(
                ctx,
                (child + root_rank) % n,
                tag,
                PayloadSource::Region {
                    region: accum.clone(),
                    offset: (child - relative) * blk,
                    len: child_blocks * blk,
                },
                Some(done.clone()),
            );
        }
        mask >>= 1;
    }
    ctx.advance_until(|| done.is_complete());
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
    ctx.machine().coll_probes().allgathers.incr();
    let seq = geom.next_seq(ctx.task());
    let rank = geom.rank_of(ctx.task()).expect("caller is a member");
    dst.0.copy_from(dst.1 + rank * blk, src.0, src.1, blk);
    if geom.size() == 1 {
        return;
    }
    sw_allgather(geom, ctx, seq, dst, blk)
}

/// Ring allgather body (the caller has already deposited its own block).
fn sw_allgather(geom: &Geometry, ctx: &Context, seq: u64, dst: (&MemRegion, usize), blk: usize) {
    let n = geom.size();
    let rank = geom.rank_of(ctx.task()).expect("caller is a member");
    let right = (rank + 1) % n;
    let left = (rank + n - 1) % n;
    for step in 0..n - 1 {
        let tag = (seq << 8) | (4 << 4) | step as u64;
        // Forward the block that originated `step` ranks to my left.
        let outgoing = (rank + n - step) % n;
        let done = Counter::new();
        done.add_expected(blk.max(1) as u64);
        geom.send_sw(
            ctx,
            right,
            tag,
            PayloadSource::Region { region: dst.0.clone(), offset: dst.1 + outgoing * blk, len: blk },
            Some(done.clone()),
        );
        let data = geom.recv_sw(ctx, left, tag);
        assert_eq!(data.len(), blk);
        let incoming = (rank + n - step - 1) % n;
        dst.0.write(dst.1 + incoming * blk, &data);
        ctx.advance_until(|| done.is_complete());
    }
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
    ctx.machine().coll_probes().alltoalls.incr();
    let seq = geom.next_seq(ctx.task());
    let rank = geom.rank_of(ctx.task()).expect("caller is a member");
    dst.0.copy_from(dst.1 + rank * blk, src.0, src.1 + rank * blk, blk);
    if geom.size() == 1 {
        return;
    }
    sw_alltoall(geom, ctx, seq, src, dst, blk)
}

/// Pairwise-exchange alltoall body (the caller has already copied the local
/// block).
fn sw_alltoall(
    geom: &Geometry,
    ctx: &Context,
    seq: u64,
    src: (&MemRegion, usize),
    dst: (&MemRegion, usize),
    blk: usize,
) {
    let n = geom.size();
    let rank = geom.rank_of(ctx.task()).expect("caller is a member");
    for step in 1..n {
        let to = (rank + step) % n;
        let from = (rank + n - step) % n;
        let tag = (seq << 8) | (5 << 4) | step as u64;
        let done = Counter::new();
        done.add_expected(blk.max(1) as u64);
        geom.send_sw(
            ctx,
            to,
            tag,
            PayloadSource::Region { region: src.0.clone(), offset: src.1 + to * blk, len: blk },
            Some(done.clone()),
        );
        let data = geom.recv_sw(ctx, from, tag);
        assert_eq!(data.len(), blk);
        dst.0.write(dst.1 + from * blk, &data);
        ctx.advance_until(|| done.is_complete());
    }
}
