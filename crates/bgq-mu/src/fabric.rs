//! The MU fabric: every node's MU plus packet delivery between them.
//!
//! A [`MuFabric`] owns one simulated MU per node. Software (a PAMI context)
//! allocates an exclusive reception FIFO with its message-id lane
//! ([`MuFabric::alloc_rec_fifo`]), injects [`Descriptor`]s on that lane,
//! and pumps progress;
//! the fabric executes descriptors — fragmenting payload into ≤512-byte
//! packets for memory-FIFO traffic, copying directly into destination
//! regions for puts, and serving a remote get at its target the moment the
//! request arrives. As on the MU, nothing sits between injection and the
//! wire, and `bgq-mu` spawns no thread: a descriptor executes, and its
//! packets are deposited, on the thread that injects it
//! ([`MuFabric::inject`], [`MuFabric::send_short`]); a get's put-back
//! executes on the thread that delivers the request, minting from the
//! target node's own lane, and no software on the target runs for it.
//!
//! ## One delivery pipeline
//!
//! Every memory-FIFO message — short packet, eager train, aggregated
//! frame, rendezvous RTS, channel offer — reaches a reception FIFO through
//! one function, `deliver_message`, in four stages. The tiers differ in
//! what the [`FifoHeader`] and the payload *say*, never in which code moves
//! them:
//!
//! ```text
//!  send_short ─┐
//!  inject ─────┼─► 1 FRAME ──► 2 RELIABILITY ──► 3 DEPOSIT ──► 4 COMPLETION
//!  serve_get ──┘
//!
//!  1 one message id, one `packet_of()` constructor (the only `MuPacket`
//!    literal, the only CRC stamp), one sampled `mu.*` accounting site;
//!    `fragments()` cuts a message that goes through whole, a held-back
//!    one is cut by its `link::Message`'s frame windows
//!  2 only under a fault plan, only between distinct nodes: one call,
//!    `link::Reliability::admit`, takes the channel's one lock, draws the
//!    channel sequence numbers and says how many packets, from the first,
//!    pass every die. If all do, it unlocks and they go on to 3 on this
//!    thread; else it keeps the lock, `deliver_frames` → 3 lands the
//!    packets ahead of the loss under it, and the message joins the
//!    selective-repeat queue in `link.rs` whole, as one `Message`, before
//!    any other sender can draw; `link.rs` calls `deliver_frames` back for
//!    each run of the rest that crosses in order
//!  3 `deposit()`, once per run of packets that went through, straight
//!    into the reception FIFO on this thread (`deliver` for one packet,
//!    `deliver_batch` for a train — a property of the data, never of the
//!    tier)
//!  4 the injection counter is credited here for packets that went
//!    through, by `link.rs`'s cumulative ack for queued ones
//! ```
//!
//! One-sided descriptors (direct put, remote get, rmw) never touch a
//! reception FIFO; they share stage 2 (same `admit`, same split) and
//! `deliver_frames`, which applies them to destination memory — a run of
//! a put's windows as one copy, an rmw under the striped lock of the word
//! it names, its only path. A remote get's request, once delivered, has its
//! target execute the put-back it carries (`serve_get`) from the target's
//! own lane. A request delivered by `link.rs` arrives under its channel's
//! `tx` lock, and a put-back takes the reverse channel's locks, so those
//! put-backs wait in a per-thread list until the `link.rs` call that
//! delivered them returns, and are served then in arrival order.
//!
//! With a [`FaultPlan`] installed ([`MuFabricBuilder::fault_plan`]), lost
//! frames retransmit with exponential backoff under
//! [`MuFabric::pump_links`]; killed links force torus reroutes; and
//! exhausted retry budgets fail completion counters with a typed
//! [`bgq_hw::DeliveryFault`] instead of hanging pollers (see
//! [`crate::link`]). A packet that rides a reliable channel carries the
//! channel's link sequence number and a CRC-32C stamp; a lossless packet
//! carries neither (both fields zero).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use bgq_torus::packet::{packets_for, MAX_PAYLOAD_BYTES};
use bgq_torus::{Dir, TorusShape};
use bgq_upc::{Counter, Upc};

use crate::descriptor::{Descriptor, FifoHeader, PayloadSource, XferKind};
use crate::faults::{FaultInjector, FaultPlan};
use crate::fifo::{FifoTable, MsgIdLane, RecFifo, RecFifoId, REC_FIFOS_PER_NODE, SYS_LANE};
use crate::link::{Admit, Channel, Delivery, Message, RasCounters, RasEvent, RasRing, Reliability};
use crate::packet::{MuPacket, PacketPayload};
use crate::rmw::RmwLocks;

// Message ids are minted by per-lane [`MsgIdLane`]s: `node << 40 | lane <<
// 30 | seq`, where the lane is the sending context's reception FIFO id (or
// the reserved lane a node serves remote gets from,
// [`crate::fifo::SYS_LANE`]). Each lane owns its sequence counter, so the
// send hot path never touches a shared per-node atomic and ids from
// different lanes can never collide.

/// Sampling period of the per-message `mu.fifo_messages` /
/// `mu.packets_injected` / `mu.packets_received` probe updates: one
/// message in every `MU_PACKET_COUNTER_SAMPLE` (deterministically, by the
/// low bits of its lane-local sequence number) accounts for the whole
/// sample window, so the counters stay rate-exact while the hot path pays
/// the probe cost only once per window. `mu.packets_dropped` and
/// `mu.payload_copies` stay per-event exact — drops are rare and copies
/// are a correctness assertion in tests. Must be a power of two.
pub const MU_PACKET_COUNTER_SAMPLE: u64 = 16;

/// Capacity of the RAS event ring; the oldest events drop past it (and
/// are counted — see [`MuFabric::ras_events`]).
const RAS_RING_CAPACITY: usize = 1024;

thread_local! {
    /// Put-backs of remote-get requests that `link.rs` delivered on this
    /// thread under a channel lock, each with the node that serves it,
    /// waiting for that call to return ([`MuFabric::serve_put_backs`]).
    /// One list per thread, reused, so serving a get allocates nothing.
    static PUT_BACKS: RefCell<VecDeque<(u32, Descriptor)>> =
        const { RefCell::new(VecDeque::new()) };
}

/// Deterministic sample gate: lane-local message sequence numbers increment
/// by one, so masking the low bits of the message id hits exactly one
/// message per [`MU_PACKET_COUNTER_SAMPLE`] window on every lane.
#[inline]
fn counter_sample_hit(msg_id: u64) -> bool {
    msg_id & (MU_PACKET_COUNTER_SAMPLE - 1) == 0
}

/// Per-node MU telemetry probes (`mu.*` layer), registered on the fabric's
/// [`Upc`] registry. These replaced the old bespoke `NodeStats` snapshot
/// struct: each field is a live `bgq-upc` counter handle — read one with
/// `.value()`, or aggregate all nodes through `Upc::snapshot()`. With the
/// `telemetry` feature off every field is a zero-sized no-op.
pub struct MuCounters {
    /// Memory-FIFO messages sent from this node.
    pub fifo_messages: Counter,
    /// Memory-FIFO packets created at injection on this node.
    pub packets_injected: Counter,
    /// Memory-FIFO packets delivered *to* this node.
    pub packets_received: Counter,
    /// Packets (frames) dropped in the fabric. Zero on a lossless run;
    /// incremented by the fault injector's `Drop` fate under a
    /// [`FaultPlan`] — the first thing to check on real MU hardware, and
    /// now the first thing to check in a chaos run.
    pub packets_dropped: Counter,
    /// Direct-put bytes written into this node's memory.
    pub put_bytes_in: Counter,
    /// Remote-get requests serviced by this node.
    pub remote_gets_serviced: Counter,
    /// Descriptors executed on behalf of this node.
    pub descriptors_executed: Counter,
    /// Payload copies performed on this node: receive-side deposits out of
    /// the reception FIFO, plus source-side per-packet DMA staging when an
    /// injection counter demands it. The zero-copy eager path does exactly
    /// one per packet.
    pub payload_copies: Counter,
}

impl MuCounters {
    fn new(upc: &Upc) -> Self {
        MuCounters {
            fifo_messages: upc.counter("mu.fifo_messages"),
            packets_injected: upc.counter("mu.packets_injected"),
            packets_received: upc.counter("mu.packets_received"),
            packets_dropped: upc.counter("mu.packets_dropped"),
            put_bytes_in: upc.counter("mu.put_bytes_in"),
            remote_gets_serviced: upc.counter("mu.remote_gets_serviced"),
            descriptors_executed: upc.counter("mu.descriptors_executed"),
            payload_copies: upc.counter("mu.payload_copies"),
        }
    }
}

pub(crate) struct NodeMu {
    /// Lock-free reception-FIFO table sized to the hardware limit (272):
    /// delivery, polling, and handle lookup are plain atomic loads.
    pub rec: FifoTable<RecFifo>,
    /// The lane the put-backs of the remote gets this node serves mint
    /// their ids from.
    pub sys_lane: MsgIdLane,
    /// `mu.*` telemetry probes for this node.
    pub counters: MuCounters,
}

pub(crate) struct FabricInner {
    pub shape: TorusShape,
    pub nodes: Vec<NodeMu>,
    pub rec_fifo_capacity: usize,
    /// `ras.*` probes — registered even without a fault plan so the report
    /// schema is stable (they just stay zero).
    pub ras: Arc<RasCounters>,
    /// RAS event ring.
    pub ring: Arc<RasRing>,
    /// The reliability layer; present iff a fault plan was installed.
    pub reliability: Option<Reliability>,
    /// Striped per-word locks making rmw descriptors atomic.
    pub rmw_locks: RmwLocks,
}

/// Configures and builds a [`MuFabric`].
pub struct MuFabricBuilder {
    shape: TorusShape,
    rec_fifo_capacity: usize,
    telemetry: Upc,
    fault_plan: Option<FaultPlan>,
}

impl MuFabricBuilder {
    /// Ring capacity of each reception FIFO before overflow (default 512).
    pub fn rec_fifo_capacity(mut self, cap: usize) -> Self {
        self.rec_fifo_capacity = cap;
        self
    }

    /// Register the fabric's `mu.*` probes on a shared telemetry registry
    /// (PAMI's `Machine` passes its own so one snapshot covers every
    /// layer). Defaults to a private registry.
    pub fn telemetry(mut self, upc: Upc) -> Self {
        self.telemetry = upc;
        self
    }

    /// Install a fault plan: inter-node traffic moves through reliable
    /// link-level channels and the plan's drops/corruption/kills apply.
    /// Panics on an invalid plan (`FaultPlan::validate`) — builder
    /// misuse, not a runtime condition.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Build the fabric.
    pub fn build(self) -> MuFabric {
        let nodes: Vec<NodeMu> = (0..self.shape.num_nodes())
            .map(|node| NodeMu {
                rec: FifoTable::new(REC_FIFOS_PER_NODE),
                sys_lane: MsgIdLane::new(node as u32, SYS_LANE),
                counters: MuCounters::new(&self.telemetry),
            })
            .collect();
        let ras = Arc::new(RasCounters::new(&self.telemetry));
        let ring = Arc::new(RasRing::new(RAS_RING_CAPACITY));
        let reliability = self.fault_plan.map(|plan| {
            plan.validate().expect("invalid fault plan");
            Reliability::new(
                FaultInjector::new(plan, self.shape),
                self.shape,
                Arc::clone(&ras),
                Arc::clone(&ring),
                nodes.iter().map(|n| n.counters.packets_dropped.clone()).collect(),
            )
        });
        let inner = Arc::new(FabricInner {
            shape: self.shape,
            nodes,
            rec_fifo_capacity: self.rec_fifo_capacity,
            ras,
            ring,
            reliability,
            rmw_locks: RmwLocks::new(),
        });
        MuFabric { inner }
    }
}

/// Handle to the MU fabric; clones share the fabric.
#[derive(Clone)]
pub struct MuFabric {
    pub(crate) inner: Arc<FabricInner>,
}

impl MuFabric {
    /// Start building a fabric over `shape`.
    pub fn builder(shape: TorusShape) -> MuFabricBuilder {
        MuFabricBuilder {
            shape,
            rec_fifo_capacity: 512,
            telemetry: Upc::new(),
            fault_plan: None,
        }
    }

    /// The torus shape.
    pub fn shape(&self) -> TorusShape {
        self.inner.shape
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.inner.nodes.len()
    }

    fn node(&self, id: u32) -> &NodeMu {
        &self.inner.nodes[id as usize]
    }

    /// Allocate an exclusive reception FIFO on `node`, together with the
    /// message-id lane its owner sends from (the lane's id is the FIFO's,
    /// so no two owners on a node share one); `None` when the node's 272
    /// are exhausted. A mutex serializes the id claim (allocation is not a
    /// hot path).
    pub fn alloc_rec_fifo(&self, node: u32) -> Option<(RecFifoId, MsgIdLane)> {
        let n = self.node(node);
        let id = n.rec.claim()?;
        n.rec.publish(id, Arc::new(RecFifo::new(self.inner.rec_fifo_capacity)));
        Some((RecFifoId(id), MsgIdLane::new(node, id)))
    }

    /// Direct handle to a reception FIFO (contexts cache this).
    pub fn rec_fifo(&self, node: u32, id: RecFifoId) -> Arc<RecFifo> {
        Arc::clone(self.node(node).rec.get(id.0))
    }

    /// The injection door: execute `desc` now, on the calling thread, with
    /// its message id minted from `lane` — the caller's own (each context
    /// owns one). When this returns the descriptor has moved: its packets
    /// sit in the destination's reception FIFO, a put's bytes in the
    /// window, a get's data pulled back by the put-back its target
    /// executed, an rmw applied — or, under a fault plan, the frames that
    /// did not cross wait in their channel's retransmit queue.
    /// Per-destination order is the order of the calls.
    pub fn inject(&self, src_node: u32, lane: &MsgIdLane, desc: Descriptor) {
        self.node(src_node).counters.descriptors_executed.incr();
        self.execute_from(src_node, desc, lane);
    }

    /// Short-tier send on the caller's lane: the whole message — header,
    /// metadata and payload — is one inline packet, built and delivered
    /// right here. No descriptor, no region registration, no staging: the
    /// pipeline with one fragment. It takes the same lane as
    /// [`MuFabric::inject`], so the two interleave in call order.
    ///
    /// `local_done` (if any) is credited synchronously with the payload
    /// length ([`Descriptor::ZERO_LEN_CREDIT`] for empty payloads) unless
    /// the packet had to join a reliable channel's retransmit queue, in
    /// which case the counter keeps its ack-or-typed-fault semantics.
    pub fn send_short(
        &self,
        src_node: u32,
        lane: &MsgIdLane,
        hdr: FifoHeader,
        payload: bytes::Bytes,
        local_done: Option<bgq_hw::Counter>,
    ) {
        debug_assert!(payload.len() <= MAX_PAYLOAD_BYTES, "short tier is one packet");
        let payload = PayloadSource::Immediate(payload);
        self.deliver_message(src_node, lane, hdr, payload, local_done);
    }

    /// Pull the next packet from a reception FIFO (owning context only).
    #[cfg(test)]
    pub(crate) fn poll_rec(&self, node: u32, fifo: RecFifoId) -> Option<MuPacket> {
        self.node(node).rec.get(fifo.0).poll()
    }

    /// Record `n` receive-side payload copies on `node` (contexts deposit
    /// packet payloads into destination memory and flush the count once per
    /// `advance` call).
    pub fn note_payload_copies(&self, node: u32, n: u64) {
        self.node(node).counters.payload_copies.add(n);
    }

    /// Live `mu.*` telemetry probes for `node`. Read a single probe with
    /// `.value()`; aggregate across nodes via the registry passed to
    /// [`MuFabricBuilder::telemetry`]. All zeros when the `telemetry`
    /// feature is off.
    pub fn counters(&self, node: u32) -> &MuCounters {
        &self.node(node).counters
    }

    // ---- the delivery pipeline -------------------------------------------

    /// Execute one descriptor on behalf of `src_node` — "the MU hardware":
    /// perform the data movement the descriptor asks for. `lane` is the
    /// message-id mint of whoever injected it (a context's own, or the
    /// serving node's for a put-back, keeping the hot path free of shared
    /// per-node sequence state). Does *not* bump `descriptors_executed` —
    /// callers count.
    fn execute_from(&self, src_node: u32, desc: Descriptor, lane: &MsgIdLane) {
        let credit = desc.completion_credit();
        let Descriptor { dst_node, src_context, payload, kind, inj_counter, .. } = desc;
        match kind {
            XferKind::MemoryFifo { rec_fifo, src_task, dispatch, metadata } => {
                let hdr =
                    FifoHeader { dst_node, rec_fifo, src_context, src_task, dispatch, metadata };
                self.deliver_message(src_node, lane, hdr, payload, inj_counter);
            }
            kind => self.deliver_one_sided(src_node, dst_node, kind, payload, inj_counter, credit),
        }
    }

    /// The reliable channel a `src_node → dst_node` transfer rides: present
    /// iff a fault plan is installed and the transfer crosses a link
    /// (self-sends never do).
    #[inline]
    fn reliable_channel(&self, src_node: u32, dst_node: u32) -> Option<(&Reliability, &Channel)> {
        let rel = self.inner.reliability.as_ref()?;
        (dst_node != src_node).then(|| (rel, rel.channel(src_node, dst_node)))
    }

    /// The one way a memory-FIFO message reaches a reception FIFO — the
    /// four stages drawn in the module docs. Telemetry updates land on the
    /// calling thread's own stripe, so contexts flooding from different
    /// threads never bounce a counter cache line.
    fn deliver_message(
        &self,
        src_node: u32,
        lane: &MsgIdLane,
        hdr: FifoHeader,
        payload: PayloadSource,
        inj_counter: Option<bgq_hw::Counter>,
    ) {
        // 1. Frame.
        let msg_id = lane.next();
        let msg_len = payload.len() as u32;
        let npackets = packets_for(payload.len()) as u64;
        let total_credit = if msg_len == 0 { Descriptor::ZERO_LEN_CREDIT } else { msg_len as u64 };
        // The sender asked for a completion signal, and the MU's contract
        // is that the counter fires only once the source buffer has been
        // read — so a region payload is read now, one packet slice at a
        // time (counted as per-packet copies on the *source* node), and
        // the buffer is genuinely reusable when the counter fires. With no
        // counter no correct program can observe *when* the MU reads the
        // buffer: packets carry zero-copy windows into the source region
        // and the one payload copy happens at the receiver's deposit.
        let stage = inj_counter.is_some() && matches!(payload, PayloadSource::Region { .. });
        if stage {
            self.node(src_node).counters.payload_copies.add(npackets);
        }
        if counter_sample_hit(msg_id) {
            let src = &self.node(src_node).counters;
            src.fifo_messages.add(MU_PACKET_COUNTER_SAMPLE);
            src.packets_injected.add(npackets * MU_PACKET_COUNTER_SAMPLE);
            let dst = &self.node(hdr.dst_node).counters;
            dst.packets_received.add(npackets * MU_PACKET_COUNTER_SAMPLE);
        }

        // 2. Reliability (only under a fault plan, only across a link):
        // the packets ahead of the first failing die go through.
        let channel = self.reliable_channel(src_node, hdr.dst_node);
        let admit = channel.map(|(rel, ch)| rel.admit(ch, npackets));
        let base_seq = admit.as_ref().map(|a| a.base_seq);
        if admit.as_ref().is_some_and(|a| a.through < npackets) {
            // Held back from the first failing die on: the message goes to
            // the retransmit queue whole, read once if it must be staged.
            let payload =
                if stage { PayloadSource::Immediate(payload.into_bytes()) } else { payload };
            let packet = Delivery::Packet { hdr, msg_id, msg_len };
            let seq = base_seq.unwrap_or(0);
            let msg = Message::new(seq, npackets, packet, payload, total_credit, inj_counter);
            self.cut_through(channel, admit, msg);
            return;
        }

        // 3. Deposit. The last packet takes the header itself;
        // earlier ones clone it (a refcount bump on the metadata).
        let mut frags = fragments(payload, stage);
        let (dst_node, rec_fifo) = (hdr.dst_node, hdr.rec_fifo);
        let mut hdr = Some(hdr);
        self.deposit(dst_node, rec_fifo, npackets, |i| {
            let (offset, payload) = frags.next().expect("one fragment per packet");
            let hdr = if i + 1 == npackets { hdr.take() } else { hdr.clone() };
            let hdr = hdr.expect("the header outlives its packets");
            let seq = base_seq.map(|s| s.wrapping_add(i));
            self.packet_of(hdr, src_node, msg_id, msg_len, offset, payload, seq)
        });

        // 4. Completion: the source buffer is no longer referenced.
        if let Some(c) = inj_counter {
            c.delivered(total_credit);
        }
    }

    /// A message [`Reliability::admit`] held back from frame `through` on:
    /// under the channel lock `admit` kept, its frames ahead of that land
    /// now, as one delivery, and are credited at once; the message joins
    /// the retransmit queue for the rest, whose cumulative acks credit them.
    fn cut_through(
        &self,
        channel: Option<(&Reliability, &Channel)>,
        admit: Option<Admit<'_>>,
        msg: Message,
    ) {
        let (Some((rel, ch)), Some(admit)) = (channel, admit) else {
            unreachable!("only a reliable channel holds frames back");
        };
        let through = admit.through;
        if through > 0 {
            self.deliver_frames(ch.src, ch.dst, &msg, 0..through);
            if let Some(c) = &msg.inj_counter {
                c.delivered(msg.credit_of(0..through));
            }
        }
        rel.enqueue(ch, admit, msg, &self.frame_deposit());
        self.serve_put_backs();
    }

    /// Serve a remote get at its target `node`: execute the put-back the
    /// request carried, here, on the delivering thread, from the node's
    /// own lane — the MU answers a get in hardware, with no software on
    /// the target involved. Kept out of line: `execute_from` re-enters
    /// itself through here, and with the cycle inlined the `pamibench`
    /// workloads that never issue a get read 4–5% lower (EXPERIMENTS.md,
    /// "A remote get is served as it arrives").
    #[inline(never)]
    fn serve_get(&self, node: u32, put_back: Descriptor) {
        let n = self.node(node);
        n.counters.remote_gets_serviced.incr();
        n.counters.descriptors_executed.incr();
        self.execute_from(node, put_back, &n.sys_lane);
    }

    /// Serve the put-backs `link.rs` delivered on this thread, oldest
    /// first, until none is left: one served here may queue a request
    /// whose delivery adds another.
    fn serve_put_backs(&self) {
        while let Some((node, put_back)) = PUT_BACKS.with(|q| q.borrow_mut().pop_front()) {
            self.serve_get(node, put_back);
        }
    }

    /// Build one packet and stamp its CRC — the only `MuPacket` literal
    /// and the only CRC site in the fabric. A packet is numbered and
    /// stamped iff it rides a reliable channel (`channel_seq`: any fault
    /// plan, clean or hostile). On a fabric with no plan nothing can touch
    /// a packet in flight and nothing downstream reads either field, so
    /// both stay zero ("unstamped").
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn packet_of(
        &self,
        hdr: FifoHeader,
        src_node: u32,
        msg_id: u64,
        msg_len: u32,
        offset: u32,
        payload: PacketPayload,
        channel_seq: Option<u64>,
    ) -> MuPacket {
        let FifoHeader { src_context, src_task, dispatch, metadata, .. } = hdr;
        let mut pkt = MuPacket {
            src_node,
            src_context,
            src_task,
            dispatch,
            metadata,
            msg_id,
            msg_len,
            offset,
            link_seq: channel_seq.unwrap_or(0),
            crc: 0,
            payload,
        };
        if channel_seq.is_some() {
            pkt.crc = pkt.compute_crc();
        }
        pkt
    }

    /// Every reception-FIFO deposit funnels through here, straight into
    /// the FIFO — a single `deliver` for a one-packet message, one ring
    /// claim and one wakeup for a whole train. `make` is called once per
    /// packet index, in ascending order.
    #[inline]
    fn deposit(
        &self,
        dst_node: u32,
        rec_fifo: RecFifoId,
        npackets: u64,
        mut make: impl FnMut(u64) -> MuPacket,
    ) {
        let fifo = self.node(dst_node).rec.get(rec_fifo.0);
        if npackets == 1 {
            fifo.deliver(make(0));
        } else {
            fifo.deliver_batch(npackets, make);
        }
    }

    /// A direct put, remote get or rmw: no reception FIFO, but the same
    /// reliability stage — one `admit`, whose passing prefix lands as one
    /// delivery action (a put as a single copy, however many windows it
    /// spans).
    fn deliver_one_sided(
        &self,
        src_node: u32,
        dst_node: u32,
        kind: XferKind,
        payload: PayloadSource,
        inj_counter: Option<bgq_hw::Counter>,
        total_credit: u64,
    ) {
        // Frame: a put crosses a faulty link as ≤512-byte windows, each its
        // own unit of loss and retransmission; a get or an atomic is one
        // frame (the channel's sequence dedup gives a retransmitted atomic
        // exactly-once application for free).
        let channel = self.reliable_channel(src_node, dst_node);
        let frames = match kind {
            XferKind::DirectPut { .. } => packets_for(payload.len()) as u64,
            _ => 1,
        };
        let admit = channel.map(|(rel, ch)| rel.admit(ch, frames));
        let base_seq = admit.as_ref().map_or(0, |a| a.base_seq);
        let msg =
            Message::new(base_seq, frames, delivery_of(kind), payload, total_credit, inj_counter);
        if admit.as_ref().is_some_and(|a| a.through < frames) {
            self.cut_through(channel, admit, msg);
            return;
        }
        match msg.delivery {
            // Delivered once and dropped: the request hands its put-back
            // over instead of the clone a queued request must make.
            Delivery::Get(desc) => self.serve_get(dst_node, *desc),
            _ => self.deliver_frames(src_node, dst_node, &msg, 0..frames),
        }
        if let Some(c) = msg.inj_counter {
            c.delivered(total_credit);
        }
    }

    /// [`MuFabric::deliver_frames`] as the deposit closure `link.rs` is
    /// handed.
    fn frame_deposit(&self) -> impl Fn(&Channel, &Message, Range<u64>) + '_ {
        move |ch, msg, frames| self.deliver_frames(ch.src, ch.dst, msg, frames)
    }

    /// Deliver frames `frames` of `msg` at the destination — the data
    /// crossed the wire — as one action: a run of packets as one
    /// `deposit`, a run of put windows as one copy. Does not credit the
    /// source completion counter (for queued frames the cumulative ack
    /// does). It borrows the message because a queued one stays queued
    /// until acked; the clones below are refcount bumps.
    fn deliver_frames(&self, src_node: u32, dst_node: u32, msg: &Message, frames: Range<u64>) {
        let dst = self.node(dst_node);
        match &msg.delivery {
            Delivery::Packet { hdr, msg_id, msg_len } => {
                let first = frames.start;
                self.deposit(dst_node, hdr.rec_fifo, frames.end - first, |i| {
                    let bytes = msg.window(first + i..first + i + 1);
                    let offset = bytes.start as u32;
                    let payload = window(&msg.payload, bytes);
                    let seq = Some(msg.seq(first + i));
                    self.packet_of(hdr.clone(), src_node, *msg_id, *msg_len, offset, payload, seq)
                });
            }
            Delivery::Put { dst_region, dst_offset, rec_counter } => {
                let bytes = msg.window(frames.clone());
                let len = bytes.len();
                let at = dst_offset + bytes.start;
                match &msg.payload {
                    PayloadSource::Immediate(data) => dst_region.write(at, &data[bytes]),
                    PayloadSource::Region { region, offset, .. } => {
                        dst_region.copy_from(at, region, offset + bytes.start, len);
                    }
                }
                dst.counters.put_bytes_in.add(len as u64);
                if let Some(c) = rec_counter {
                    c.delivered(msg.credit_of(frames));
                }
            }
            // Delivered under the channel's lock (only a queued request
            // comes here), which the put-back must not run inside; the
            // request stays queued until acked, so it lends a copy.
            Delivery::Get(desc) => {
                PUT_BACKS.with(|q| q.borrow_mut().push_back((dst_node, (**desc).clone())));
            }
            Delivery::Rmw(req) => {
                // Exactly-once under retransmission: the channel's receive
                // verdict discards duplicate sequence numbers before this
                // runs, so a frame applies at most once.
                let prior = self.inner.rmw_locks.apply(req);
                if let Some(r) = &req.reply {
                    r.region.write(r.offset, &prior.to_le_bytes());
                }
            }
        }
    }

    // ---- reliability layer (active iff a fault plan is installed) ------

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.inner.reliability.as_ref().map(|r| r.injector.plan())
    }

    /// Whether the reliability layer is active.
    pub fn reliable(&self) -> bool {
        self.inner.reliability.is_some()
    }

    /// The `ras.*` probes. Always present so the report schema is stable;
    /// all zero without a fault plan.
    pub fn ras_counters(&self) -> &RasCounters {
        &self.inner.ras
    }

    /// Snapshot of the RAS event ring (oldest first) and how many events
    /// overflowed out of it.
    pub fn ras_events(&self) -> (Vec<RasEvent>, u64) {
        self.inner.ring.snapshot()
    }

    /// Administratively kill the physical link out of `node` in direction
    /// `dir` (both directions go down) — the RAS analogue of pulling an
    /// optical module. Requires a fault plan (programmer contract: the
    /// lossless fabric has no health table). Returns `false` if the link
    /// was already down.
    pub fn kill_link(&self, node: u32, dir: Dir) -> bool {
        let rel = self.inner.reliability.as_ref();
        rel.expect("kill_link requires a fault plan (MuFabricBuilder::fault_plan)")
            .set_link(node, dir, false)
    }

    /// Administratively revive the physical link out of `node` in direction
    /// `dir` (both directions come back up) — the RAS analogue of reseating
    /// the optical module [`MuFabric::kill_link`] pulled. Requires a fault
    /// plan. Returns `false` if the link was not down.
    pub fn revive_link(&self, node: u32, dir: Dir) -> bool {
        let rel = self.inner.reliability.as_ref();
        rel.expect("revive_link requires a fault plan (MuFabricBuilder::fault_plan)")
            .set_link(node, dir, true)
    }

    /// Clear a dead (src, dst) reliable channel so traffic can flow again
    /// after the underlying failure was repaired — the persistent-channel
    /// renegotiation hook. Returns `false` without a fault plan, for
    /// self-sends, or if the channel was not dead. Frames failed by the
    /// kill stay failed — revival is forward-looking only.
    pub fn revive_channel(&self, src_node: u32, dst_node: u32) -> bool {
        let rel = self.inner.reliability.as_ref();
        src_node != dst_node && rel.is_some_and(|r| r.revive_channel(src_node, dst_node))
    }

    /// Whether `node` has no frames queued or awaiting retry in its
    /// reliable channels (lock-free; contexts use it in their idle check).
    pub fn links_idle(&self, node: u32) -> bool {
        self.inner.reliability.as_ref().is_none_or(|r| r.idle(node))
    }

    /// Pump `node`'s reliable channels: transmit queued frames, fire RTO
    /// retransmissions. Each call advances the node's link-pump tick (the
    /// retry protocol's clock). Returns frames delivered. No-op without a
    /// fault plan.
    pub fn pump_links(&self, node: u32, budget: usize) -> usize {
        let Some(rel) = self.inner.reliability.as_ref() else { return 0 };
        let done = rel.pump(node, budget, &self.frame_deposit());
        self.serve_put_backs();
        done
    }
}

/// A one-sided descriptor's delivery action.
fn delivery_of(kind: XferKind) -> Delivery {
    match kind {
        XferKind::DirectPut { dst_region, dst_offset, rec_counter } => {
            Delivery::Put { dst_region, dst_offset, rec_counter }
        }
        XferKind::RemoteGet { payload: desc } => Delivery::Get(desc),
        XferKind::Rmw(req) => Delivery::Rmw(req),
        XferKind::MemoryFifo { .. } => unreachable!("memory-FIFO messages take deliver_message"),
    }
}

/// Bytes `bytes` of a payload as a packet payload: a refcounted slice of
/// an immediate payload, a zero-copy window into a region.
fn window(payload: &PayloadSource, bytes: Range<usize>) -> PacketPayload {
    match payload {
        PayloadSource::Immediate(data) => PacketPayload::Inline(data.slice(bytes)),
        PayloadSource::Region { region, offset, .. } => PacketPayload::Region {
            region: region.clone(),
            offset: offset + bytes.start,
            len: bytes.len(),
        },
    }
}

/// Cut a payload into its ≤512-byte packet fragments, `(message offset,
/// fragment)` in order — the only place [`MAX_PAYLOAD_BYTES`] chunking is
/// written. An empty payload is one empty fragment (a zero-byte message is
/// still one packet). `stage` reads a region payload out now (the DMA read
/// a completion counter promises); otherwise region fragments are
/// zero-copy windows into the source. A one-fragment immediate payload is
/// moved, not sliced: no refcount traffic on the short tier.
fn fragments(
    mut payload: PayloadSource,
    stage: bool,
) -> impl Iterator<Item = (u32, PacketPayload)> {
    let len = payload.len();
    (0..packets_for(len)).map(move |i| {
        let off = i * MAX_PAYLOAD_BYTES;
        let chunk = (len - off).min(MAX_PAYLOAD_BYTES);
        let fragment = match &mut payload {
            PayloadSource::Immediate(data) if chunk == len => {
                PacketPayload::Inline(std::mem::take(data))
            }
            PayloadSource::Region { region, offset, .. } if stage => {
                let at = *offset + off;
                PacketPayload::Inline(bytes::Bytes::init_with(chunk, |buf| region.read(at, buf)))
            }
            payload => window(payload, off..off + chunk),
        };
        (off as u32, fragment)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_hw::Counter;
    use bgq_hw::MemRegion;
    use bytes::Bytes;

    fn small_fabric() -> MuFabric {
        MuFabric::builder(TorusShape::new([2, 2, 1, 1, 1])).build()
    }

    /// A direct put of `payload` into `dst` at `at`, on node `to`.
    fn put(
        to: u32,
        payload: PayloadSource,
        (dst, at): (&MemRegion, usize),
        rec_counter: Option<Counter>,
        inj_counter: Option<Counter>,
    ) -> Descriptor {
        let kind = XferKind::DirectPut { dst_region: dst.clone(), dst_offset: at, rec_counter };
        Descriptor { dst_node: to, src_context: 0, payload, kind, inj_counter }
    }

    /// A remote get served by node `from`, which injects `put_back`.
    fn get(from: u32, put_back: Descriptor) -> Descriptor {
        let kind = XferKind::RemoteGet { payload: Box::new(put_back) };
        let payload = PayloadSource::Immediate(Bytes::new());
        Descriptor { dst_node: from, src_context: 0, payload, kind, inj_counter: None }
    }

    /// Inject `desc` from `src` on a lane of its own.
    fn execute(fabric: &MuFabric, src: u32, desc: Descriptor) {
        fabric.inject(src, &fabric.alloc_rec_fifo(src).unwrap().1, desc);
    }

    fn memfifo_desc(dst: u32, fifo: RecFifoId, payload: PayloadSource) -> Descriptor {
        let (dst_node, rec_fifo, metadata) = (dst, fifo, Bytes::new());
        let hdr = FifoHeader { dst_node, rec_fifo, src_context: 0, src_task: 0, dispatch: 7, metadata };
        Descriptor::fifo(hdr, payload, None)
    }

    #[test]
    fn memory_fifo_message_fragments_and_reassembles() {
        let fabric = small_fabric();
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        let data: Vec<u8> = (0..1300).map(|i| (i % 251) as u8).collect();
        let region = MemRegion::from_vec(data.clone());
        execute(&fabric, 0, memfifo_desc(1, rec, PayloadSource::Region { region, offset: 0, len: 1300 }));
        // 1300 bytes → 3 packets (512+512+276).
        let out = MemRegion::zeroed(1300);
        let mut count = 0;
        while let Some(p) = fabric.poll_rec(1, rec) {
            assert!(
                p.payload.view().is_empty(),
                "region payload stays in source memory until deposited"
            );
            assert_eq!(p.msg_len, 1300);
            assert_eq!(p.dispatch, 7);
            assert!(p.link_seq == 0 && p.crc == 0, "no plan: unnumbered, unstamped");
            let off = p.offset as usize;
            p.payload.deposit(&out, off);
            count += 1;
        }
        assert_eq!(count, 3);
        assert_eq!(out.to_vec(), data);
        if cfg!(feature = "telemetry") {
            // Per-message probes are sampled: the first message on a lane
            // (sequence 0) accounts for a whole MU_PACKET_COUNTER_SAMPLE
            // window.
            assert_eq!(
                fabric.counters(1).packets_received.value(),
                3 * MU_PACKET_COUNTER_SAMPLE
            );
            assert_eq!(
                fabric.counters(0).packets_injected.value(),
                3 * MU_PACKET_COUNTER_SAMPLE
            );
            assert_eq!(fabric.counters(0).fifo_messages.value(), MU_PACKET_COUNTER_SAMPLE);
        }
    }

    #[test]
    fn region_eager_with_counter_stages_and_completes_at_injection() {
        // With a completion counter the MU reads the source buffer at
        // injection: local completion never depends on receiver progress,
        // and the buffer is genuinely reusable once the counter fires.
        let fabric = small_fabric();
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        let region = MemRegion::from_vec(vec![7u8; 1000]);
        let local_done = Counter::new();
        local_done.add_expected(1000);
        let mut desc = memfifo_desc(
            1,
            rec,
            PayloadSource::Region { region: region.clone(), offset: 0, len: 1000 },
        );
        desc.inj_counter = Some(local_done.clone());
        execute(&fabric, 0, desc);
        assert!(
            local_done.is_complete(),
            "sender completion must not wait for receiver deposits"
        );
        // The buffer-reuse contract: overwriting the source after the
        // counter fires must not corrupt the in-flight message.
        region.fill(0, 1000, 0xEE);
        let dst = MemRegion::zeroed(1000);
        let mut count = 0;
        while let Some(p) = fabric.poll_rec(1, rec) {
            assert!(!p.payload.view().is_empty(), "DMA staged the bytes at injection");
            let off = p.offset as usize;
            p.payload.deposit(&dst, off);
            count += 1;
        }
        assert_eq!(count, 2);
        assert_eq!(dst.to_vec(), vec![7u8; 1000]);
        // The per-packet DMA reads are counted on the source node.
        if cfg!(feature = "telemetry") {
            assert_eq!(fabric.counters(0).payload_copies.value(), 2);
        }
    }

    #[test]
    fn region_eager_without_counter_is_zero_copy_until_deposit() {
        // With no completion counter there is no synchronization edge, so
        // the read of the source buffer is deferred to the receiver's
        // deposit: packets carry windows, not bytes — zero source-side
        // copies.
        let fabric = small_fabric();
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        let data: Vec<u8> = (0..1000).map(|i| (i % 201) as u8).collect();
        let region = MemRegion::from_vec(data.clone());
        execute(&fabric, 0, memfifo_desc(1, rec, PayloadSource::Region { region, offset: 0, len: 1000 }));
        assert_eq!(
            fabric.counters(0).payload_copies.value(),
            0,
            "no staging on the source node"
        );
        let dst = MemRegion::zeroed(1000);
        while let Some(p) = fabric.poll_rec(1, rec) {
            assert!(p.payload.view().is_empty(), "bytes still live in source memory");
            let off = p.offset as usize;
            p.payload.deposit(&dst, off);
        }
        assert_eq!(dst.to_vec(), data);
    }

    #[test]
    fn msg_ids_keep_node_bits_clean_of_sequence_overflow() {
        use crate::fifo::{LANE_SEQ_MASK, LANE_SHIFT};
        let fabric = small_fabric();
        let (own, lane) = fabric.alloc_rec_fifo(3).unwrap();
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        // Start the lane three messages short of the wrap and send an eager
        // train of two-packet messages across it.
        lane.msg_seq.store(LANE_SEQ_MASK - 2, std::sync::atomic::Ordering::Relaxed);
        for i in 0..6u8 {
            let train = PayloadSource::Immediate(Bytes::from(vec![i; 1000]));
            fabric.inject(3, &lane, memfifo_desc(1, rec, train));
        }
        let mut seqs = Vec::new();
        for i in 0..6u8 {
            let (a, b) = (fabric.poll_rec(1, rec).unwrap(), fabric.poll_rec(1, rec).unwrap());
            assert_eq!((a.payload.view()[0], b.payload.view()[0]), (i, i), "in-order arrival");
            assert_eq!(a.msg_id, b.msg_id, "one id per message");
            assert_eq!(a.msg_id >> 40, 3, "sequence wrap must not leak into node bits");
            assert_eq!((a.msg_id >> LANE_SHIFT) & 0x3ff, own.0 as u64, "on the sender's lane");
            seqs.push(a.msg_id & LANE_SEQ_MASK);
        }
        let m = LANE_SEQ_MASK;
        assert_eq!(seqs, [m - 2, m - 1, m, 0, 1, 2], "distinct ids across the wrap");
        assert!(fabric.poll_rec(1, rec).is_none());
    }

    #[test]
    fn fifo_routed_messages_mint_ids_on_their_own_lane() {
        // Two allocations on one node: each mints on its own lane, whose id
        // is its reception FIFO's.
        let fabric = small_fabric();
        let owners: Vec<_> = (0..2).map(|_| fabric.alloc_rec_fifo(0).unwrap()).collect();
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        for (_, lane) in &owners {
            fabric.inject(0, lane, memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::new())));
        }
        let a = fabric.poll_rec(1, rec).unwrap();
        let b = fabric.poll_rec(1, rec).unwrap();
        let lane_of = |id: u64| (id >> crate::fifo::LANE_SHIFT) & 0x3ff;
        assert_ne!(owners[0].0, owners[1].0);
        assert_eq!(lane_of(a.msg_id), owners[0].0 .0 as u64, "first owner's FIFO id");
        assert_eq!(lane_of(b.msg_id), owners[1].0 .0 as u64, "second owner's FIFO id");
        assert_ne!(a.msg_id, b.msg_id, "same per-lane seq (0), distinct lanes");
    }

    #[test]
    fn zero_byte_message_delivers_one_packet() {
        let fabric = small_fabric();
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        execute(&fabric, 0, memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::new())));
        let p = fabric.poll_rec(1, rec).expect("one packet");
        assert_eq!(p.msg_len, 0);
        assert!(p.is_first() && p.is_last());
        assert!(fabric.poll_rec(1, rec).is_none());
    }

    #[test]
    fn direct_put_writes_destination_and_counters() {
        let fabric = small_fabric();
        let src = MemRegion::from_vec((0..100).collect());
        let dst = MemRegion::zeroed(100);
        let inj = Counter::new();
        let rec = Counter::new();
        inj.add_expected(50);
        rec.add_expected(50);
        let payload = PayloadSource::Region { region: src, offset: 10, len: 50 };
        execute(&fabric, 0, put(1, payload, (&dst, 25), Some(rec.clone()), Some(inj.clone())));
        assert!(inj.is_complete());
        assert!(rec.is_complete());
        assert_eq!(&dst.to_vec()[25..75], &(10..60).collect::<Vec<u8>>()[..]);
        if cfg!(feature = "telemetry") {
            assert_eq!(fabric.counters(1).put_bytes_in.value(), 50);
        }
    }

    #[test]
    fn remote_get_round_trip_pulls_data_back() {
        let fabric = small_fabric();
        // Node 0 wants 64 bytes out of node 1's memory.
        let remote = MemRegion::from_vec((100..164).collect());
        let local = MemRegion::zeroed(64);
        let done = Counter::new();
        done.add_expected(64);
        let payload = PayloadSource::Region { region: remote, offset: 0, len: 64 };
        execute(&fabric, 0, get(1, put(0, payload, (&local, 0), Some(done.clone()), None)));
        // Node 1 served the get inside `inject`: nothing of it is left to run.
        assert!(done.is_complete(), "the data landed before inject returned");
        assert_eq!(local.to_vec(), (100..164).collect::<Vec<u8>>());
        if cfg!(feature = "telemetry") {
            assert_eq!(fabric.counters(1).remote_gets_serviced.value(), 1);
            assert_eq!(fabric.counters(1).descriptors_executed.value(), 1, "the put-back");
        }
    }

    #[test]
    fn injection_order_is_arrival_order() {
        // A descriptor moves inside `inject` — nothing pumps below — so the
        // calls' order is the arrival order: eager trains and short packets
        // alike, on one lane.
        let fabric = small_fabric();
        let (_, lane) = fabric.alloc_rec_fifo(0).unwrap();
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        for i in 0..20u8 {
            if i % 2 == 0 {
                let train = PayloadSource::Immediate(Bytes::from(vec![i; 1000]));
                fabric.inject(0, &lane, memfifo_desc(1, rec, train));
            } else {
                let hdr = short_hdr(rec, 7, b"");
                fabric.send_short(0, &lane, hdr, Bytes::from(vec![i]), None);
            }
        }
        for i in 0..20u8 {
            for _ in 0..if i % 2 == 0 { 2 } else { 1 } {
                let p = fabric.poll_rec(1, rec).expect("packet");
                assert_eq!(p.payload.view()[0], i, "in-order delivery");
            }
        }
        assert!(fabric.poll_rec(1, rec).is_none());
    }

    #[test]
    fn fifo_allocation_is_per_node_and_bounded() {
        let fabric = small_fabric();
        for _ in 0..REC_FIFOS_PER_NODE {
            assert!(fabric.alloc_rec_fifo(0).is_some());
        }
        assert!(fabric.alloc_rec_fifo(0).is_none(), "node 0 exhausted");
        assert!(fabric.alloc_rec_fifo(1).is_some(), "node 1 unaffected");
    }

    #[test]
    fn self_send_loops_back() {
        let fabric = small_fabric();
        let rec = fabric.alloc_rec_fifo(0).unwrap().0;
        execute(&fabric, 0, memfifo_desc(0, rec, PayloadSource::Immediate(Bytes::from_static(b"self"))));
        let p = fabric.poll_rec(0, rec).unwrap();
        assert_eq!(p.payload.view(), b"self");
        assert_eq!(p.src_node, 0);
    }

    // ---- reliability-layer tests ---------------------------------------

    use crate::faults::RetryConfig;
    use crate::link::RasEventKind;
    use bgq_hw::DeliveryFault;

    fn reliable_fabric(plan: FaultPlan) -> MuFabric {
        MuFabric::builder(TorusShape::new([2, 2, 1, 1, 1])).fault_plan(plan).build()
    }

    /// Pump node 0's links until `done` completes (success or fault).
    fn pump_until_complete(fabric: &MuFabric, done: &Counter) {
        for _ in 0..10_000 {
            if done.is_complete() {
                return;
            }
            fabric.pump_links(0, usize::MAX);
        }
        panic!("counter never completed: retry protocol stalled");
    }

    #[test]
    fn clean_fault_plan_stays_synchronous_and_stamps_crc() {
        let fabric = reliable_fabric(FaultPlan::new().seed(7));
        assert!(fabric.reliable());
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        execute(&fabric, 0, memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from_static(b"hello"))));
        // No pump_links needed: a fault-free frame delivers synchronously,
        // exactly like the lossless path.
        let p = fabric.poll_rec(1, rec).expect("synchronous delivery");
        assert_eq!(p.payload.view(), b"hello");
        assert_ne!(p.crc, 0, "CRC stamped");
        assert!(p.verify_crc());
        assert!(fabric.links_idle(0));
        let ras = fabric.ras_counters();
        assert_eq!(ras.retransmits.value(), 0);
        assert_eq!(ras.crc_errors.value(), 0);
    }

    #[test]
    fn drops_recover_via_retransmit_exactly_once() {
        let fabric = reliable_fabric(
            FaultPlan::new()
                .seed(42)
                .drop_rate(0.25)
                .retry(RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 4, retry_budget: 64 }),
        );
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        let data: Vec<u8> = (0..4096).map(|i| (i % 239) as u8).collect();
        let done = Counter::new();
        done.add_expected(4096);
        let mut desc = memfifo_desc(
            1,
            rec,
            PayloadSource::Region {
                region: MemRegion::from_vec(data.clone()),
                offset: 0,
                len: 4096,
            },
        );
        desc.inj_counter = Some(done.clone());
        execute(&fabric, 0, desc);
        pump_until_complete(&fabric, &done);
        assert!(done.is_ok(), "all frames eventually acked");
        // Exactly-once: every packet arrives once, reassembly is complete.
        let out = MemRegion::zeroed(4096);
        let mut count = 0;
        while let Some(p) = fabric.poll_rec(1, rec) {
            assert!(p.verify_crc());
            let off = p.offset as usize;
            p.payload.deposit(&out, off);
            count += 1;
        }
        assert_eq!(count, 8, "8 packets, no duplicates");
        assert_eq!(out.to_vec(), data);
        if cfg!(feature = "telemetry") {
            let ras = fabric.ras_counters();
            assert!(ras.retransmits.value() > 0, "a 25% drop rate must cost retransmits");
            assert!(
                fabric.counters(0).packets_dropped.value() > 0,
                "mu.packets_dropped is live under an injector"
            );
        }
        let (events, _) = fabric.ras_events();
        assert!(events.iter().any(|e| e.kind == RasEventKind::PacketDropped));
        assert!(events.iter().any(|e| e.kind == RasEventKind::Retransmit));
    }

    #[test]
    fn corruption_counts_crc_errors_and_recovers() {
        let fabric = reliable_fabric(
            FaultPlan::new()
                .seed(3)
                .corrupt_rate(0.3)
                .retry(RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 4, retry_budget: 64 }),
        );
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        let done = Counter::new();
        done.add_expected(2048);
        let mut desc =
            memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(vec![5u8; 2048])));
        desc.inj_counter = Some(done.clone());
        execute(&fabric, 0, desc);
        pump_until_complete(&fabric, &done);
        assert!(done.is_ok());
        let mut count = 0;
        while fabric.poll_rec(1, rec).is_some() {
            count += 1;
        }
        assert_eq!(count, 4);
        if cfg!(feature = "telemetry") {
            assert!(fabric.ras_counters().crc_errors.value() > 0);
        }
        // The event ring is functional regardless of the telemetry feature.
        let (events, _) = fabric.ras_events();
        assert!(events.iter().any(|e| e.kind == RasEventKind::CrcError));
    }

    #[test]
    fn retry_budget_exhaustion_fails_with_timeout_not_a_hang() {
        // Every link drops every frame: the channel must die after the
        // budget, failing the counter with Timeout instead of spinning.
        let fabric = reliable_fabric(
            FaultPlan::new()
                .seed(1)
                .drop_rate(1.0)
                .retry(RetryConfig { window: 4, rto_ticks: 1, rto_max_ticks: 2, retry_budget: 3 }),
        );
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        let done = Counter::new();
        done.add_expected(100);
        let mut desc = memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(vec![9u8; 100])));
        desc.inj_counter = Some(done.clone());
        execute(&fabric, 0, desc);
        pump_until_complete(&fabric, &done);
        assert_eq!(done.fault(), Some(DeliveryFault::Timeout));
        assert!(done.is_complete(), "failed counters still read complete");
        assert!(fabric.poll_rec(1, rec).is_none(), "nothing was delivered");
        assert!(fabric.links_idle(0), "dead channel holds no pending frames");
        if cfg!(feature = "telemetry") {
            assert!(fabric.ras_counters().delivery_failures.value() > 0);
        }
        let (events, _) = fabric.ras_events();
        assert!(events.iter().any(|e| e.kind == RasEventKind::DeliveryFailure));
        // A later transfer on the dead channel fails immediately.
        let late = Counter::new();
        late.add_expected(4);
        let mut desc2 = memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(vec![0u8; 4])));
        desc2.inj_counter = Some(late.clone());
        execute(&fabric, 0, desc2);
        assert_eq!(late.fault(), Some(DeliveryFault::Timeout));
    }

    #[test]
    fn killed_link_reroutes_and_still_delivers() {
        let fabric = reliable_fabric(FaultPlan::new().seed(5));
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        // Kill the link det_route would use for 0 -> 1.
        let shape = TorusShape::new([2, 2, 1, 1, 1]);
        let hops = bgq_torus::det_route(shape, shape.coords_of(0), shape.coords_of(1));
        assert_eq!(hops.len(), 1, "nodes 0 and 1 are torus neighbors");
        assert!(fabric.kill_link(0, hops[0]));
        assert!(!fabric.kill_link(0, hops[0]), "second kill is a no-op");
        if cfg!(feature = "telemetry") {
            assert_eq!(fabric.ras_counters().link_down.value(), 2, "both directions down");
        }
        let done = Counter::new();
        done.add_expected(64);
        let mut desc = memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(vec![3u8; 64])));
        desc.inj_counter = Some(done.clone());
        execute(&fabric, 0, desc);
        pump_until_complete(&fabric, &done);
        assert!(done.is_ok(), "delivered via the detour");
        let p = fabric.poll_rec(1, rec).expect("rerouted packet");
        assert_eq!(p.payload.view(), &[3u8; 64][..]);
        if cfg!(feature = "telemetry") {
            assert!(fabric.ras_counters().reroutes.value() >= 1);
        }
        let (events, _) = fabric.ras_events();
        assert!(events.iter().any(|e| e.kind == RasEventKind::Reroute));
    }

    #[test]
    fn kill_schedule_fires_on_nth_crossing() {
        let shape = TorusShape::new([2, 2, 1, 1, 1]);
        let first = bgq_torus::det_route(shape, shape.coords_of(0), shape.coords_of(1))[0];
        // The 2nd frame over the link takes it down; the frame is lost and
        // must be retransmitted over the detour.
        let fabric = reliable_fabric(
            FaultPlan::new()
                .seed(9)
                .kill_link_at(0, first, 2)
                .retry(RetryConfig { window: 4, rto_ticks: 1, rto_max_ticks: 2, retry_budget: 8 }),
        );
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        let done = Counter::new();
        done.add_expected(1024);
        let mut desc =
            memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(vec![8u8; 1024])));
        desc.inj_counter = Some(done.clone());
        execute(&fabric, 0, desc);
        pump_until_complete(&fabric, &done);
        assert!(done.is_ok());
        let mut count = 0;
        while let Some(p) = fabric.poll_rec(1, rec) {
            assert!(p.verify_crc());
            count += 1;
        }
        assert_eq!(count, 2, "both packets delivered exactly once");
        if cfg!(feature = "telemetry") {
            let ras = fabric.ras_counters();
            assert_eq!(ras.link_down.value(), 2);
            assert!(ras.reroutes.value() >= 1);
        }
        let (events, _) = fabric.ras_events();
        assert!(events.iter().any(|e| e.kind == RasEventKind::LinkDown));
        assert!(events.iter().any(|e| e.kind == RasEventKind::Reroute));
    }

    #[test]
    fn unreachable_destination_fails_with_unreachable() {
        let fabric = reliable_fabric(FaultPlan::new().seed(2));
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        // Sever every usable link out of node 0 (dims C/D/E have size 1).
        for dir in bgq_torus::ALL_DIMS.iter().flat_map(|&d| {
            [bgq_torus::Dir { dim: d, plus: true }, bgq_torus::Dir { dim: d, plus: false }]
        }) {
            fabric.kill_link(0, dir);
        }
        let done = Counter::new();
        done.add_expected(8);
        let mut desc = memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(vec![0u8; 8])));
        desc.inj_counter = Some(done.clone());
        execute(&fabric, 0, desc);
        pump_until_complete(&fabric, &done);
        assert_eq!(done.fault(), Some(DeliveryFault::Unreachable));
    }

    #[test]
    fn direct_put_and_remote_get_survive_drops() {
        let fabric = reliable_fabric(
            FaultPlan::new()
                .seed(13)
                .drop_rate(0.3)
                .retry(RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 4, retry_budget: 64 }),
        );
        let src = MemRegion::from_vec((0..200).map(|i| (i % 97) as u8).collect());
        let dst = MemRegion::zeroed(200);
        let recd = Counter::new();
        recd.add_expected(200);
        let payload = PayloadSource::Region { region: src.clone(), offset: 0, len: 200 };
        execute(&fabric, 0, put(1, payload, (&dst, 0), Some(recd.clone()), None));
        pump_until_complete(&fabric, &recd);
        assert!(recd.is_ok());
        assert_eq!(dst.to_vec(), src.to_vec());
        // Remote get: node 0 pulls from node 1 over the same lossy fabric.
        let remote = MemRegion::from_vec(vec![4u8; 64]);
        let local = MemRegion::zeroed(64);
        let got = Counter::new();
        got.add_expected(64);
        let payload = PayloadSource::Region { region: remote, offset: 0, len: 64 };
        execute(&fabric, 0, get(1, put(0, payload, (&local, 0), Some(got.clone()), None)));
        for _ in 0..10_000 {
            if got.is_complete() {
                break;
            }
            fabric.pump_links(0, usize::MAX);
            fabric.pump_links(1, usize::MAX);
        }
        assert!(got.is_ok(), "remote get completed under loss");
        assert_eq!(local.to_vec(), vec![4u8; 64]);
    }

    #[test]
    fn crossed_gets_under_loss_complete_from_two_threads() {
        // Nodes 0 and 1 each pull 2 000 × 4 KiB out of the other under 30%
        // drop, each driven by a thread of its own. A put-back runs on the
        // thread that delivers its request, so every channel has two
        // senders — its node's own thread and the peer's, serving gets —
        // and put-backs the peer queued wait for this node's pump. Neither
        // thread may deadlock the other, and every byte lands once.
        const GETS: usize = 2_000;
        const LEN: usize = 4096;
        let retry = RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 4, retry_budget: 1_000 };
        let fabric = reliable_fabric(FaultPlan::new().seed(17).drop_rate(0.3).retry(retry));
        let memory: Vec<MemRegion> = (0..2u8)
            .map(|n| MemRegion::from_vec((0..GETS * LEN).map(|i| (i % 251) as u8 ^ n).collect()))
            .collect();
        let locals: Vec<MemRegion> = (0..2).map(|_| MemRegion::zeroed(GETS * LEN)).collect();
        let dones: Vec<Counter> = (0..2).map(|_| Counter::new()).collect();
        for done in &dones {
            done.add_expected((GETS * LEN) as u64);
        }
        let (finished, watchdog) = std::sync::mpsc::channel();
        for node in 0..2u32 {
            let (fabric, dones, finished) = (fabric.clone(), dones.clone(), finished.clone());
            let remote = memory[1 - node as usize].clone();
            let local = locals[node as usize].clone();
            std::thread::spawn(move || {
                let lane = fabric.alloc_rec_fifo(node).unwrap().1;
                let done = &dones[node as usize];
                for i in 0..GETS {
                    let (region, offset) = (remote.clone(), i * LEN);
                    let payload = PayloadSource::Region { region, offset, len: LEN };
                    let put_back = put(node, payload, (&local, i * LEN), Some(done.clone()), None);
                    fabric.inject(node, &lane, get(1 - node, put_back));
                    fabric.pump_links(node, usize::MAX);
                }
                while !dones.iter().all(Counter::is_complete) {
                    fabric.pump_links(node, usize::MAX);
                }
                finished.send(node).unwrap();
            });
        }
        for _ in 0..2 {
            let timeout = std::time::Duration::from_secs(20);
            watchdog.recv_timeout(timeout).expect("crossed gets deadlocked or stalled");
        }
        assert!(dones.iter().all(Counter::is_ok), "no channel gave up");
        assert_eq!(locals[0].to_vec(), memory[1].to_vec());
        assert_eq!(locals[1].to_vec(), memory[0].to_vec());
        if cfg!(feature = "telemetry") {
            assert_eq!(fabric.counters(0).remote_gets_serviced.value(), GETS as u64);
            assert_eq!(fabric.counters(1).remote_gets_serviced.value(), GETS as u64);
        }
    }

    #[test]
    fn two_lanes_share_a_lossy_channel_from_two_threads() {
        // Two lanes on node 0 each put 2 000 × 4 KiB into node 1 under 30%
        // drop, each from a thread of its own that also pumps node 0: two
        // real senders admitting and queueing on the 0 → 1 channel while
        // the other pumps it. Every byte lands once and no counter faults.
        const PUTS: usize = 2_000;
        const LEN: usize = 4096;
        let retry = RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 4, retry_budget: 1_000 };
        let fabric = reliable_fabric(FaultPlan::new().seed(23).drop_rate(0.3).retry(retry));
        let sources: Vec<MemRegion> = (0..2u8)
            .map(|l| MemRegion::from_vec((0..PUTS * LEN).map(|i| (i % 251) as u8 ^ l).collect()))
            .collect();
        let targets: Vec<MemRegion> = (0..2).map(|_| MemRegion::zeroed(PUTS * LEN)).collect();
        // Per lane: the source counter (credited by acks) and the
        // destination counter (credited by deposits; a second deposit of
        // any window would wrap it).
        let counters: Vec<[Counter; 2]> = (0..2).map(|_| [Counter::new(), Counter::new()]).collect();
        counters.iter().flatten().for_each(|c| c.add_expected((PUTS * LEN) as u64));
        let (finished, watchdog) = std::sync::mpsc::channel();
        for l in 0..2 {
            let (fabric, finished) = (fabric.clone(), finished.clone());
            let (source, target) = (sources[l].clone(), targets[l].clone());
            let [inj, rec] = counters[l].clone();
            std::thread::spawn(move || {
                let lane = fabric.alloc_rec_fifo(0).unwrap().1;
                for i in 0..PUTS {
                    let (region, offset) = (source.clone(), i * LEN);
                    let payload = PayloadSource::Region { region, offset, len: LEN };
                    let (rec, inj) = (Some(rec.clone()), Some(inj.clone()));
                    fabric.inject(0, &lane, put(1, payload, (&target, i * LEN), rec, inj));
                    fabric.pump_links(0, usize::MAX);
                }
                while !inj.is_complete() {
                    fabric.pump_links(0, usize::MAX);
                }
                finished.send(l).unwrap();
            });
        }
        for _ in 0..2 {
            let timeout = std::time::Duration::from_secs(20);
            watchdog.recv_timeout(timeout).expect("two senders on one channel stalled");
        }
        assert!(counters.iter().flatten().all(Counter::is_ok), "each credited exactly, none failed");
        for (target, source) in targets.iter().zip(&sources) {
            assert_eq!(target.to_vec(), source.to_vec());
        }
        if cfg!(feature = "telemetry") {
            assert_eq!(fabric.counters(1).put_bytes_in.value(), (2 * PUTS * LEN) as u64);
        }
    }

    #[test]
    fn chaos_runs_replay_deterministically_per_seed() {
        type RunSig = ((u64, u64, u64), Vec<(RasEventKind, u32, u32)>);
        let run = |seed: u64| -> RunSig {
            let fabric = reliable_fabric(
                FaultPlan::new().seed(seed).drop_rate(0.2).corrupt_rate(0.1).retry(
                    RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 4, retry_budget: 64 },
                ),
            );
            let rec = fabric.alloc_rec_fifo(1).unwrap().0;
            for i in 0..5u8 {
                let done = Counter::new();
                done.add_expected(1024);
                let mut desc = memfifo_desc(
                    1,
                    rec,
                    PayloadSource::Immediate(Bytes::from(vec![i; 1024])),
                );
                desc.inj_counter = Some(done.clone());
                execute(&fabric, 0, desc);
                pump_until_complete(&fabric, &done);
                assert!(done.is_ok());
            }
            let ras = fabric.ras_counters();
            let counters = (
                ras.retransmits.value(),
                ras.crc_errors.value(),
                fabric.counters(0).packets_dropped.value(),
            );
            // The event ring is functional with telemetry compiled out, so
            // the replay assertion stays meaningful in every build mode.
            let (events, _) = fabric.ras_events();
            let sig = events.iter().map(|e| (e.kind, e.src_node, e.dst_node)).collect();
            (counters, sig)
        };
        let a = run(1234);
        let b = run(1234);
        assert_eq!(a, b, "same seed, same fault history");
        assert!(
            a.1.iter().any(|&(k, _, _)| k == RasEventKind::Retransmit),
            "the scenario actually exercised retransmits"
        );
        if cfg!(feature = "telemetry") {
            assert!(a.0 .0 > 0, "retransmit counter moved");
        }
    }

    #[test]
    fn self_sends_bypass_the_reliability_layer() {
        let fabric = reliable_fabric(FaultPlan::new().seed(6).drop_rate(1.0));
        let rec = fabric.alloc_rec_fifo(0).unwrap().0;
        execute(&fabric, 0, memfifo_desc(0, rec, PayloadSource::Immediate(Bytes::from_static(b"loop"))));
        let p = fabric.poll_rec(0, rec).expect("self-sends never traverse links");
        assert_eq!(p.payload.view(), b"loop");
        assert!(fabric.links_idle(0));
    }

    /// A header from context 3 of task 2 on node 0 to `rec` on node 1.
    fn short_hdr(rec: RecFifoId, dispatch: u16, metadata: &'static [u8]) -> FifoHeader {
        FifoHeader {
            dst_node: 1,
            rec_fifo: rec,
            src_context: 3,
            src_task: 2,
            dispatch,
            metadata: Bytes::from_static(metadata),
        }
    }

    #[test]
    fn short_send_is_one_inline_packet_with_synchronous_completion() {
        let fabric = small_fabric();
        let (_, lane) = fabric.alloc_rec_fifo(0).unwrap();
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        let done = Counter::new();
        done.add_expected(5);
        let hello = Bytes::from_static(b"hello");
        fabric.send_short(0, &lane, short_hdr(rec, 9, b"md"), hello.clone(), Some(done.clone()));
        assert!(done.is_complete(), "short-tier completion is synchronous");
        let p = fabric.poll_rec(1, rec).unwrap();
        assert_eq!(p.src_context, 3);
        assert_eq!(p.dispatch, 9);
        assert_eq!(&p.metadata[..], b"md");
        assert_eq!(p.payload.view(), b"hello");
        assert_eq!(p.msg_len, 5);
        assert_eq!(p.offset, 0);
        assert!(p.link_seq == 0 && p.crc == 0, "the lossless short packet goes unstamped");
        assert!(fabric.poll_rec(1, rec).is_none(), "exactly one packet");
        // The eager twin: no plan, no channel, no stamp.
        execute(&fabric, 0, memfifo_desc(1, rec, PayloadSource::Immediate(hello)));
        let p = fabric.poll_rec(1, rec).unwrap();
        assert!(p.link_seq == 0 && p.crc == 0, "the lossless eager packet goes unstamped");
    }

    #[test]
    fn short_packet_carries_its_origin_in_the_header() {
        // The source task is a header field, not a metadata prefix: the
        // metadata arrives as the sender's bytes, and empty metadata as
        // `Bytes::new()`.
        let fabric = small_fabric();
        let (_, lane) = fabric.alloc_rec_fifo(0).unwrap();
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        fabric.send_short(0, &lane, short_hdr(rec, 4, b""), Bytes::from_static(b"x"), None);
        fabric.send_short(0, &lane, short_hdr(rec, 4, b"meta"), Bytes::new(), None);
        let empty = fabric.poll_rec(1, rec).unwrap();
        assert_eq!((empty.src_node, empty.src_task, empty.src_context), (0, 2, 3));
        assert_eq!(empty.metadata, Bytes::new());
        let meta = fabric.poll_rec(1, rec).unwrap();
        assert_eq!(meta.src_task, 2);
        assert_eq!(&meta.metadata[..], b"meta", "no prefix to strip");
    }

    #[test]
    fn short_send_keeps_flag_through_reliable_channel() {
        let fabric = reliable_fabric(FaultPlan::new().seed(7));
        let (_, lane) = fabric.alloc_rec_fifo(0).unwrap();
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        let done = Counter::new();
        done.add_expected(4);
        let shrt = Bytes::from_static(b"shrt");
        fabric.send_short(0, &lane, short_hdr(rec, 5, b""), shrt, Some(done.clone()));
        assert!(done.is_complete());
        let p = fabric.poll_rec(1, rec).unwrap();
        assert_eq!(p.payload.view(), b"shrt");
        assert!(p.crc != 0 && p.verify_crc(), "channel packets are stamped, short or not");
    }

    #[test]
    fn hostile_plan_admits_clear_messages_through_and_queues_the_rest() {
        // The one admission rule under real dice: a message whose every die
        // passes delivers synchronously, exactly like a clean plan; the
        // rest queue under the same sequence numbers and the pump recovers
        // them. Same seed, same split, every message exactly once.
        let fabric = reliable_fabric(FaultPlan::new().seed(77).drop_rate(0.2).retry(RetryConfig {
            window: 8,
            rto_ticks: 1,
            rto_max_ticks: 4,
            retry_budget: 64,
        }));
        let (_, lane) = fabric.alloc_rec_fifo(0).unwrap();
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        let (mut through, mut queued) = (0, 0);
        for i in 0..64u8 {
            let done = Counter::new();
            done.add_expected(1);
            let byte = Bytes::from(vec![i]);
            fabric.send_short(0, &lane, short_hdr(rec, 1, b""), byte, Some(done.clone()));
            if done.is_complete() {
                through += 1;
            } else {
                queued += 1;
                pump_until_complete(&fabric, &done);
            }
            assert!(done.is_ok());
            // Drain the channel so the next message meets no backlog and
            // the split depends on the dice alone.
            while !fabric.links_idle(0) {
                fabric.pump_links(0, usize::MAX);
            }
        }
        assert!(through > 0 && queued > 0, "both outcomes exercised ({through}/{queued})");
        for i in 0..64u8 {
            let p = fabric.poll_rec(1, rec).expect("every message arrives");
            assert_eq!(p.payload.view(), &[i], "in order, exactly once");
            assert_eq!(p.link_seq, i as u64, "queued or not, one sequence space");
        }
        assert!(fabric.poll_rec(1, rec).is_none());
    }

    /// A hostile plan whose first failing die among the first `n` frames of
    /// the 0 → 1 channel is a data die of frame `k`, `2 ≤ k < n`: the
    /// earliest seed from 1 up, and its `k`. One frame per pump visit, so a
    /// call returns having transmitted exactly one queued frame.
    fn plan_losing_frame(n: u64) -> (FaultPlan, u64) {
        let shape = TorusShape::new([2, 2, 1, 1, 1]);
        let (src, dst) = (shape.coords_of(0), shape.coords_of(1));
        let route = bgq_torus::det_route(shape, src, dst);
        assert_eq!(route.len(), 1, "nodes 0 and 1 are torus neighbors");
        let fwd = crate::faults::link_id(0, route[0]);
        let rev = crate::faults::link_id(1, route[0].reverse());
        let retry = RetryConfig { window: 1, rto_ticks: 1, rto_max_ticks: 4, retry_budget: 64 };
        (1..)
            .find_map(|seed| {
                let plan = FaultPlan::new().seed(seed).drop_rate(0.05).corrupt_rate(0.05);
                let dice = FaultInjector::new(plan.clone(), shape);
                let lost = |lid, seq| dice.decide(lid, seq, 0) != crate::faults::Fate::Pass;
                let k = (0..n).find(|&seq| lost(fwd, seq) || lost(rev, seq))?;
                (k >= 2 && lost(fwd, k)).then(|| (plan.retry(retry), k))
            })
            .expect("some seed splits the message")
    }

    /// Frames queued on the 0 → 1 channel.
    fn queued(fabric: &MuFabric) -> usize {
        let rel = fabric.inner.reliability.as_ref().expect("a fault plan");
        rel.channel(0, 1).tx.lock().frames.len()
    }

    #[test]
    fn split_message_delivers_the_prefix_now_and_queues_the_tail() {
        // A 2 KiB eager message: packets 0..k are deposited, as one train,
        // before `inject` returns; packets k..4 wait for the pump.
        const LEN: usize = 2048;
        let (plan, k) = plan_losing_frame(4);
        let fabric = reliable_fabric(plan);
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
        let done = Counter::new();
        done.add_expected(LEN as u64);
        let mut desc = memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(data.clone())));
        desc.inj_counter = Some(done.clone());
        execute(&fabric, 0, desc);
        let tail = LEN as u64 - k * 512;
        assert_eq!(done.outstanding(), tail, "the prefix is credited once, on return");
        assert_eq!(queued(&fabric), 4 - k as usize);
        let out = MemRegion::zeroed(LEN);
        let mut seqs = Vec::new();
        let drain = |seqs: &mut Vec<u64>| {
            while let Some(p) = fabric.poll_rec(1, rec) {
                assert!(p.verify_crc());
                p.payload.deposit(&out, p.offset as usize);
                seqs.push(p.link_seq);
            }
        };
        drain(&mut seqs);
        assert_eq!(seqs, (0..k).collect::<Vec<_>>(), "exactly the prefix, in order");
        pump_until_complete(&fabric, &done);
        drain(&mut seqs);
        assert!(done.is_ok() && done.outstanding() == 0, "credited exactly the full length");
        assert_eq!(seqs, (0..4).collect::<Vec<_>>(), "every packet once, in order");
        assert_eq!(out.to_vec(), data);

        // A 16 KiB put: the windows ahead of frame k land as one copy, the
        // other 32 − k queue.
        const PUT: usize = 16 * 1024;
        let (plan, k) = plan_losing_frame(32);
        let fabric = reliable_fabric(plan);
        let src = MemRegion::from_vec((0..PUT).map(|i| (i % 253) as u8).collect());
        let dst = MemRegion::zeroed(PUT);
        let (inj, recd) = (Counter::new(), Counter::new());
        inj.add_expected(PUT as u64);
        recd.add_expected(PUT as u64);
        let payload = PayloadSource::Region { region: src.clone(), offset: 0, len: PUT };
        execute(&fabric, 0, put(1, payload, (&dst, 0), Some(recd.clone()), Some(inj.clone())));
        let at = k as usize * 512;
        if cfg!(feature = "telemetry") {
            assert_eq!(fabric.counters(1).put_bytes_in.value(), at as u64);
        }
        assert_eq!(inj.outstanding(), (PUT - at) as u64);
        assert_eq!(recd.outstanding(), (PUT - at) as u64);
        assert_eq!(queued(&fabric), 32 - k as usize);
        let landed = dst.to_vec();
        assert_eq!(landed[..at], src.to_vec()[..at]);
        assert!(landed[at..].iter().all(|&b| b == 0), "nothing past the first loss yet");
        pump_until_complete(&fabric, &recd);
        pump_until_complete(&fabric, &inj);
        assert!(inj.is_ok() && inj.outstanding() == 0);
        assert!(recd.is_ok() && recd.outstanding() == 0);
        assert_eq!(dst.to_vec(), src.to_vec());
        assert!(fabric.links_idle(0));
    }

    #[test]
    fn revived_link_and_channel_carry_traffic_again() {
        let fabric = MuFabric::builder(TorusShape::new([2, 1, 1, 1, 1]))
            .fault_plan(FaultPlan::new().seed(1))
            .build();
        let rec = fabric.alloc_rec_fifo(1).unwrap().0;
        let xp = bgq_torus::Dir { dim: bgq_torus::Dim::A, plus: true };
        let xm = bgq_torus::Dir { dim: bgq_torus::Dim::A, plus: false };
        // Sever every route from node 0 to node 1 (a 2-node torus only has
        // the two A-dimension links).
        assert!(fabric.kill_link(0, xp));
        assert!(fabric.kill_link(0, xm));
        let doomed = Counter::new();
        doomed.add_expected(3);
        let mut desc =
            memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from_static(b"die")));
        desc.inj_counter = Some(doomed.clone());
        execute(&fabric, 0, desc);
        assert_eq!(
            doomed.fault(),
            Some(DeliveryFault::Unreachable),
            "no healthy route must fail the counter, not hang it"
        );
        // Repair: both links back up, then clear the dead channel.
        assert!(fabric.revive_link(0, xp));
        assert!(fabric.revive_link(0, xm));
        assert!(!fabric.revive_link(0, xp), "already up");
        assert!(fabric.revive_channel(0, 1), "channel was dead");
        assert!(!fabric.revive_channel(0, 1), "already alive");
        let ok = Counter::new();
        ok.add_expected(3);
        let mut desc =
            memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from_static(b"yay")));
        desc.inj_counter = Some(ok.clone());
        execute(&fabric, 0, desc);
        assert!(ok.is_ok(), "revived channel delivers again");
        let p = fabric.poll_rec(1, rec).unwrap();
        assert_eq!(p.payload.view(), b"yay");
        let (events, _) = fabric.ras_events();
        assert!(events.iter().any(|e| e.kind == RasEventKind::LinkRevived));
        assert!(events.iter().any(|e| e.kind == RasEventKind::ChannelRevived));
    }
}
