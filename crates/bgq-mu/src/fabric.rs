//! The MU fabric: every node's MU plus packet delivery between them.
//!
//! A [`MuFabric`] owns one simulated MU per node. Software (a PAMI context)
//! allocates exclusive FIFOs, injects [`Descriptor`]s, and pumps progress;
//! the fabric executes descriptors — fragmenting payload into ≤512-byte
//! packets for memory-FIFO traffic, copying directly into destination
//! regions for puts, and bouncing remote-gets to the destination's system
//! FIFO. An injection FIFO is drained by its owning context's `advance`
//! and by nothing else, and `bgq-mu` spawns no thread: a descriptor
//! executes, and its packets are deposited, on the thread that called
//! `send` (short tier, `execute_now`) or `advance` (everything queued).
//!
//! ## One delivery pipeline
//!
//! Every memory-FIFO message — short envelope, eager train, aggregated
//! frame, rendezvous RTS, channel offer — reaches a reception FIFO through
//! one function, `deliver_message`, in four stages. The tiers differ in
//! what the [`FifoHeader`] and the payload *say*, never in which code moves
//! them:
//!
//! ```text
//!  send_short ─────────┐
//!  pump_inj_handle/sys ┼─► 1 FRAME ──► 2 RELIABILITY ──► 3 TRANSPORT ──► 4 COMPLETION
//!  execute_now ────────┘                                   + DEPOSIT
//!
//!  1 one message id, one `fragments()` iterator (the only ≤512-byte
//!    chunking loop), one `packet_of()` constructor (the only `MuPacket`
//!    literal, the only CRC stamp), one sampled `mu.*` accounting site
//!  2 only under a fault plan, only between distinct nodes: one call,
//!    `link::Reliability::admit`, draws the channel sequence numbers and
//!    says how many packets, from the first, pass every die: those go on
//!    to 3 on this thread, the rest join the selective-repeat queue in
//!    `link.rs`, which calls back into `deliver_body` → 3 as each crosses
//!  3 `deposit()`, once for the packets that went through: the installed
//!    `Transport` if any, else straight into the reception FIFO (`deliver`
//!    for one packet, `deliver_batch` for a train — a property of the
//!    data, never of the tier)
//!  4 the injection counter is credited here for packets that went
//!    through, by `link.rs`'s cumulative ack for queued ones
//! ```
//!
//! One-sided descriptors (direct put, remote get, rmw) never touch a
//! reception FIFO; they share stage 2 (same `admit`, same split) and
//! `deliver_body`, which applies them to destination memory — a put's
//! passing windows as one copy, an rmw under the striped lock of the word
//! it names, its only path.
//!
//! With a [`FaultPlan`] installed ([`MuFabricBuilder::fault_plan`]), lost
//! frames retransmit with exponential backoff under
//! [`MuFabric::pump_links`]; killed links force torus reroutes; and
//! exhausted retry budgets fail completion counters with a typed
//! [`bgq_hw::DeliveryFault`] instead of hanging pollers (see
//! [`crate::link`]). A packet that rides a reliable channel carries the
//! channel's link sequence number and a CRC-32C stamp; a lossless packet
//! carries neither (both fields zero).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bgq_torus::packet::{packets_for, MAX_PAYLOAD_BYTES};
use bgq_torus::{Dir, TorusShape};
use bgq_upc::{Counter, Upc};

use crate::descriptor::{Descriptor, FifoHeader, PayloadSource, XferKind};
use crate::faults::{FaultInjector, FaultPlan};
use crate::fifo::{
    FifoAllocator, FifoTable, InjFifo, InjFifoId, MsgIdLane, RecFifo, RecFifoId,
    INJ_FIFOS_PER_NODE, REC_FIFOS_PER_NODE,
};
use crate::link::{Channel, FrameBody, RasCounters, RasEvent, RasRing, Reliability};
use crate::packet::{MuPacket, PacketPayload};
use crate::rmw::RmwLocks;
use crate::transport::Transport;

// Message ids are minted by per-lane [`MsgIdLane`]s: `node << 40 | lane <<
// 30 | seq`, where the lane is the injection FIFO the message went through
// (or a reserved software lane — see [`crate::fifo::SYS_LANE`] /
// [`crate::fifo::NODE_LANE`]). Each lane owns its sequence counter, so the
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
    /// Lock-free FIFO tables sized to the hardware limits (544/272):
    /// delivery, polling, and handle lookup are plain atomic loads.
    pub inj: FifoTable<InjFifo>,
    pub rec: FifoTable<RecFifo>,
    pub allocator: FifoAllocator,
    /// System injection FIFO: remote-get payload descriptors land here for
    /// this node to execute.
    pub sys_inj: Arc<InjFifo>,
    /// Fallback message-id lane ([`crate::fifo::NODE_LANE`]) for
    /// descriptors executed without an injection FIFO (`execute_now`).
    /// FIFO-routed messages mint from their own FIFO's lane instead.
    pub msg_lane: MsgIdLane,
    /// `mu.*` telemetry probes for this node.
    pub counters: MuCounters,
}

pub(crate) struct FabricInner {
    pub shape: TorusShape,
    pub nodes: Vec<NodeMu>,
    pub inj_fifo_capacity: usize,
    pub rec_fifo_capacity: usize,
    /// `ras.*` probes — registered even without a fault plan so the report
    /// schema is stable (they just stay zero).
    pub ras: Arc<RasCounters>,
    /// RAS event ring.
    pub ring: Arc<RasRing>,
    /// The reliability layer; present iff a fault plan was installed.
    pub reliability: Option<Reliability>,
    /// The packet transport seam ([`crate::transport`]): `None` keeps the
    /// synchronous deposit path (one branch of overhead); `Some` routes
    /// every reception-FIFO deposit through the installed transport (the
    /// co-simulation's DES-scheduled delivery).
    pub transport: Option<Arc<dyn Transport>>,
    /// Striped per-word locks making rmw descriptors atomic.
    pub rmw_locks: RmwLocks,
}

/// Configures and builds a [`MuFabric`].
pub struct MuFabricBuilder {
    shape: TorusShape,
    inj_fifo_capacity: usize,
    rec_fifo_capacity: usize,
    telemetry: Upc,
    fault_plan: Option<FaultPlan>,
    transport: Option<Arc<dyn Transport>>,
}

impl MuFabricBuilder {
    /// Ring capacity of each injection FIFO before overflow (default 128).
    pub fn inj_fifo_capacity(mut self, cap: usize) -> Self {
        self.inj_fifo_capacity = cap;
        self
    }

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
    /// Panics on an invalid plan ([`FaultPlan::validate`]) — builder
    /// misuse, not a runtime condition.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Install a packet transport ([`crate::transport::Transport`]): every
    /// reception-FIFO deposit is handed to it instead of being performed
    /// synchronously. The co-simulation harness installs a DES-scheduled
    /// transport here; without one the fabric behaves exactly as before.
    pub fn transport(mut self, transport: Arc<dyn Transport>) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Build the fabric.
    pub fn build(self) -> MuFabric {
        let nodes: Vec<NodeMu> = (0..self.shape.num_nodes())
            .map(|node| NodeMu {
                inj: FifoTable::new(INJ_FIFOS_PER_NODE),
                rec: FifoTable::new(REC_FIFOS_PER_NODE),
                allocator: FifoAllocator::default(),
                sys_inj: Arc::new(InjFifo::new(
                    self.inj_fifo_capacity,
                    node as u32,
                    crate::fifo::SYS_LANE,
                )),
                msg_lane: MsgIdLane::new(node as u32, crate::fifo::NODE_LANE),
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
                self.transport.clone(),
                nodes.iter().map(|n| n.counters.packets_dropped.clone()).collect(),
            )
        });
        let inner = Arc::new(FabricInner {
            shape: self.shape,
            nodes,
            inj_fifo_capacity: self.inj_fifo_capacity,
            rec_fifo_capacity: self.rec_fifo_capacity,
            ras,
            ring,
            reliability,
            transport: self.transport,
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
            inj_fifo_capacity: 128,
            rec_fifo_capacity: 512,
            telemetry: Upc::new(),
            fault_plan: None,
            transport: None,
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

    /// Install an observer invoked on every RAS event recorded by the
    /// reliability layer (retransmits, link kills, delivery failures, …) —
    /// the RAS→software feedback hook. Set at most once, before traffic
    /// flows; later calls are ignored. The callback runs on the thread that
    /// detected the event, possibly while link-channel locks are held: it
    /// must be cheap and must not call back into the fabric.
    pub fn set_ras_observer(&self, observer: crate::link::RasObserver) {
        self.inner.ring.set_observer(observer);
    }

    /// Allocate `count` exclusive injection FIFOs on `node`; `None` when the
    /// node's 544 are exhausted.
    ///
    /// The allocator mutex serializes the id claim (allocation is not a hot
    /// path); the claimed slots are then published into the lock-free table,
    /// race-free because ranges are disjoint.
    pub fn alloc_inj_fifos(&self, node: u32, count: u16) -> Option<Vec<InjFifoId>> {
        let n = self.node(node);
        let range = n.allocator.alloc_inj(count)?;
        for id in range.clone() {
            // The FIFO id doubles as its message-id lane, so everything the
            // owning context needs to send — queue and msg-id mint — lives
            // in this one exclusively-owned structure.
            n.inj.publish(id, Arc::new(InjFifo::new(self.inner.inj_fifo_capacity, node, id)));
        }
        Some(range.map(InjFifoId).collect())
    }

    /// Allocate `count` exclusive reception FIFOs on `node`.
    pub fn alloc_rec_fifos(&self, node: u32, count: u16) -> Option<Vec<RecFifoId>> {
        let n = self.node(node);
        let range = n.allocator.alloc_rec(count)?;
        for id in range.clone() {
            n.rec.publish(id, Arc::new(RecFifo::new(self.inner.rec_fifo_capacity)));
        }
        Some(range.map(RecFifoId).collect())
    }

    /// Direct handle to a reception FIFO (contexts cache this).
    pub fn rec_fifo(&self, node: u32, id: RecFifoId) -> Arc<RecFifo> {
        Arc::clone(self.node(node).rec.get(id.0))
    }

    /// Direct handle to an injection FIFO.
    pub fn inj_fifo(&self, node: u32, id: InjFifoId) -> Arc<InjFifo> {
        Arc::clone(self.node(node).inj.get(id.0))
    }

    /// Handle to a node's *system* injection FIFO (contexts cache it to
    /// observe remote-get backlog without going through the fabric).
    pub fn sys_fifo(&self, node: u32) -> Arc<InjFifo> {
        Arc::clone(&self.node(node).sys_inj)
    }

    /// Queue a descriptor on an injection FIFO the caller holds a handle
    /// to (contexts cache their exclusive FIFO handles). Nothing moves
    /// until the owner pumps the FIFO ([`MuFabric::pump_inj_handle`]).
    pub fn inject_handle(&self, fifo: &InjFifo, desc: Descriptor) {
        fifo.queue.push(desc);
    }

    /// Execute a descriptor immediately in the calling thread, bypassing
    /// the injection queues — persistent-channel posts and channel offers.
    /// Message ids come from the node's fallback lane.
    pub fn execute_now(&self, src_node: u32, desc: Descriptor) {
        let src = self.node(src_node);
        src.counters.descriptors_executed.incr();
        self.execute_from(src_node, desc, &src.msg_lane);
    }

    /// Short-tier send on a caller-owned injection FIFO: the whole message
    /// — metadata and payload — is one inline packet envelope, built and
    /// delivered right here. No descriptor, no region registration, no
    /// staging: the pipeline with one fragment. The caller must have
    /// established ordering first ([`InjFifo::is_quiescent`]) — bypassing
    /// a non-empty queue would overtake earlier eager traffic.
    ///
    /// `local_done` (if any) is credited synchronously with the payload
    /// length ([`Descriptor::ZERO_LEN_CREDIT`] for empty payloads) unless
    /// the envelope had to join a reliable channel's retransmit queue, in
    /// which case the counter keeps its ack-or-typed-fault semantics.
    pub fn send_short(
        &self,
        src_node: u32,
        fifo: &InjFifo,
        hdr: FifoHeader,
        payload: bytes::Bytes,
        local_done: Option<bgq_hw::Counter>,
    ) {
        debug_assert!(payload.len() <= MAX_PAYLOAD_BYTES, "short tier is one packet");
        let payload = PayloadSource::Immediate(payload);
        self.deliver_message(src_node, &fifo.lane, hdr, payload, local_done);
    }

    /// Drain up to `budget` descriptors from an injection FIFO the caller
    /// owns (contexts call this from `advance`); returns descriptors
    /// executed. Message ids come from the FIFO's own lane, and the
    /// per-node `descriptors_executed` counter is updated once for the
    /// whole pump rather than per descriptor.
    pub fn pump_inj_handle(&self, node: u32, fifo: &InjFifo, budget: usize) -> usize {
        let mut done = 0;
        while done < budget {
            // Empty pre-check before the `inflight` bracket: an advance
            // loop sweeps every FIFO the context owns, and on an idle FIFO
            // the sweep must cost emptiness loads, not a SeqCst RMW. Racing
            // a producer here is benign — we skip the round exactly as a
            // bracketed pop returning `None` would.
            if fifo.queue.is_empty() {
                break;
            }
            // Bracket the pop-execute window in `inflight` so the short
            // tier's queue-bypass stays ordered: the bypasser only skips
            // the queue when `is_quiescent()` — and if it observes the
            // queue empty after our pop (release store, acquired by its
            // emptiness check), this increment is already visible, so it
            // falls back to the queued path instead of overtaking a
            // descriptor that is mid-execution.
            fifo.inflight.fetch_add(1, Ordering::SeqCst);
            match fifo.queue.pop() {
                Some(desc) => {
                    self.execute_from(node, desc, &fifo.lane);
                    fifo.inflight.fetch_sub(1, Ordering::Release);
                    done += 1;
                }
                None => {
                    fifo.inflight.fetch_sub(1, Ordering::Release);
                    break;
                }
            }
        }
        if done > 0 {
            self.node(node).counters.descriptors_executed.add(done as u64);
        }
        done
    }

    /// Execute up to `budget` system-FIFO descriptors (remote-get service).
    /// Counters are batched per call, not per descriptor.
    pub fn pump_sys(&self, node: u32, budget: usize) -> usize {
        let sys = Arc::clone(&self.node(node).sys_inj);
        let mut done = 0;
        while done < budget {
            match sys.queue.pop() {
                Some(desc) => {
                    self.execute_from(node, desc, &sys.lane);
                    done += 1;
                }
                None => break,
            }
        }
        if done > 0 {
            let c = &self.node(node).counters;
            c.remote_gets_serviced.add(done as u64);
            c.descriptors_executed.add(done as u64);
        }
        done
    }

    /// Pull the next packet from a reception FIFO (owning context only).
    pub fn poll_rec(&self, node: u32, fifo: RecFifoId) -> Option<MuPacket> {
        self.node(node).rec.get(fifo.0).poll()
    }

    /// Record `n` receive-side payload copies on `node` (contexts deposit
    /// packet payloads into destination memory and flush the count once per
    /// `advance` call). `pin` stripes the counter by the caller's context
    /// id so concurrent contexts never share a counter cell.
    pub fn note_payload_copies(&self, node: u32, pin: usize, n: u64) {
        self.node(node).counters.payload_copies.add_pinned(pin, n);
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
    /// message-id mint of whoever injected it (the FIFO pump paths pass
    /// their FIFO's own, keeping the hot path free of shared per-node
    /// sequence state). Does *not* bump `descriptors_executed` — pump
    /// callers batch it.
    fn execute_from(&self, src_node: u32, desc: Descriptor, lane: &MsgIdLane) {
        let credit = desc.completion_credit();
        let Descriptor { dst_node, src_context, payload, kind, inj_counter, .. } = desc;
        match kind {
            XferKind::MemoryFifo { rec_fifo, dispatch, metadata } => {
                let hdr = FifoHeader { dst_node, rec_fifo, src_context, dispatch, metadata };
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
    /// four stages drawn in the module docs. Telemetry updates are pinned
    /// to the sending context's stripe, so contexts flooding from different
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
        let pin = hdr.src_context as usize;
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
            self.node(src_node).counters.payload_copies.add_pinned(pin, npackets);
        }
        if counter_sample_hit(msg_id) {
            let src = &self.node(src_node).counters;
            src.fifo_messages.add_pinned(pin, MU_PACKET_COUNTER_SAMPLE);
            src.packets_injected.add_pinned(pin, npackets * MU_PACKET_COUNTER_SAMPLE);
            let dst = &self.node(hdr.dst_node).counters;
            dst.packets_received.add_pinned(pin, npackets * MU_PACKET_COUNTER_SAMPLE);
        }
        let mut frags = fragments(payload, stage);

        // 2. Reliability (only under a fault plan, only across a link):
        // the packets ahead of the first failing die go through.
        let channel = self.reliable_channel(src_node, hdr.dst_node);
        let admit = channel.map(|(rel, ch)| rel.admit(ch, npackets));
        let through = admit.map_or(npackets, |a| a.through);

        // 3. Transport + deposit. The last packet takes the header itself;
        // earlier ones clone it (a refcount bump on the metadata).
        let (dst_node, rec_fifo) = (hdr.dst_node, hdr.rec_fifo);
        let mut hdr = Some(hdr);
        if through > 0 {
            self.deposit(src_node, dst_node, rec_fifo, through, |i| {
                let (offset, payload) = frags.next().expect("one fragment per packet");
                let hdr = if i + 1 == npackets { hdr.take() } else { hdr.clone() };
                let hdr = hdr.expect("the header outlives its packets");
                let seq = admit.map(|a| a.base_seq + i);
                self.packet_of(hdr, src_node, msg_id, msg_len, offset, payload, seq)
            });
        }

        // 4. Completion: the source buffer is no longer referenced.
        if through == npackets {
            if let Some(c) = inj_counter {
                c.delivered(total_credit);
            }
            return;
        }
        // The packets from the first failing die on join the retransmit
        // queue and are credited as their acks arrive; the full packets
        // ahead of them are credited now.
        let (Some((rel, ch)), Some(admit), Some(hdr)) = (channel, admit, hdr) else {
            unreachable!("only a reliable channel holds packets back");
        };
        if let Some(c) = &inj_counter {
            c.delivered(through * MAX_PAYLOAD_BYTES as u64);
        }
        let bodies = frags.map(move |(offset, payload)| {
            let credit = if msg_len == 0 { total_credit } else { payload.len() as u64 };
            let hdr = hdr.clone();
            (credit, FrameBody::Packet { hdr, msg_id, msg_len, offset, payload })
        });
        rel.enqueue(ch, admit.base_seq + through, inj_counter, bodies, &self.frame_deposit());
    }

    /// Build one packet and stamp its CRC — the only `MuPacket` literal
    /// and the only CRC site in the fabric. A packet is numbered and
    /// stamped iff it rides a reliable channel (`channel_seq`: any fault
    /// plan, clean or hostile). On a fabric with no plan nothing can touch
    /// a packet in flight and nothing downstream reads either field, so
    /// both stay zero, which reads as "unstamped" to
    /// [`MuPacket::verify_crc`].
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
        let FifoHeader { src_context, dispatch, metadata, .. } = hdr;
        let mut pkt = MuPacket {
            src_node,
            src_context,
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

    /// Every reception-FIFO deposit funnels through here: the installed
    /// [`Transport`] (which may schedule the deposit on its own clock), or
    /// straight into the FIFO — a single `deliver` for a one-packet
    /// message, one ring claim and one wakeup for a whole train. `make` is
    /// called once per packet index, in ascending order.
    #[inline]
    fn deposit(
        &self,
        src_node: u32,
        dst_node: u32,
        rec_fifo: RecFifoId,
        npackets: u64,
        mut make: impl FnMut(u64) -> MuPacket,
    ) {
        let fifo = self.node(dst_node).rec.get(rec_fifo.0);
        match &self.inner.transport {
            Some(t) => t.deliver(src_node, dst_node, rec_fifo, fifo, npackets, &mut make),
            None if npackets == 1 => fifo.deliver(make(0)),
            None => fifo.deliver_batch(npackets, make),
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
        let through = admit.map_or(frames, |a| a.through);
        if through == frames {
            self.deliver_body(src_node, dst_node, 0, total_credit, &whole_body(kind, payload));
            if let Some(c) = inj_counter {
                c.delivered(total_credit);
            }
            return;
        }
        let (Some((rel, ch)), Some(admit)) = (channel, admit) else {
            unreachable!("only a reliable channel holds frames back");
        };
        let first_seq = admit.base_seq + through;
        let XferKind::DirectPut { dst_region, dst_offset, rec_counter } = kind else {
            let body = std::iter::once((total_credit, whole_body(kind, payload)));
            rel.enqueue(ch, first_seq, inj_counter, body, &self.frame_deposit());
            return;
        };
        // The windows ahead of the first failing die land now, as one; the
        // rest queue.
        let at = through as usize * MAX_PAYLOAD_BYTES;
        let (head, tail) = split_payload(payload, at);
        if at > 0 {
            let put = FrameBody::Put {
                dst_region: dst_region.clone(),
                dst_offset,
                payload: head,
                rec_counter: rec_counter.clone(),
            };
            self.deliver_body(src_node, dst_node, admit.base_seq, at as u64, &put);
            if let Some(c) = &inj_counter {
                c.delivered(at as u64);
            }
        }
        let empty = tail.is_empty();
        let windows = fragments(tail, false).map(move |(offset, payload)| {
            let credit = if empty { total_credit } else { payload.len() as u64 };
            let put = FrameBody::Put {
                dst_region: dst_region.clone(),
                dst_offset: dst_offset + at + offset as usize,
                payload,
                rec_counter: rec_counter.clone(),
            };
            (credit, put)
        });
        rel.enqueue(ch, first_seq, inj_counter, windows, &self.frame_deposit());
    }

    /// [`MuFabric::deliver_body`] as the deposit closure `link.rs` is handed.
    fn frame_deposit(&self) -> impl Fn(&Channel, u64, u64, &FrameBody) + '_ {
        move |ch, seq, credit, body| self.deliver_body(ch.src, ch.dst, seq, credit, body)
    }

    /// Perform one frame body's delivery action at the destination — the
    /// data crossed the wire — without crediting the source completion
    /// counter (for queued frames that happens when the cumulative ack
    /// arrives). It borrows the body because a queued frame stays queued
    /// until acked, and the clones below are refcount bumps.
    fn deliver_body(&self, src_node: u32, dst_node: u32, seq: u64, credit: u64, body: &FrameBody) {
        let dst = self.node(dst_node);
        match body {
            FrameBody::Packet { hdr, msg_id, msg_len, offset, payload } => {
                let (h, p) = (hdr.clone(), payload.clone());
                let mut pkt =
                    Some(self.packet_of(h, src_node, *msg_id, *msg_len, *offset, p, Some(seq)));
                self.deposit(src_node, dst_node, hdr.rec_fifo, 1, |_| {
                    pkt.take().expect("one frame, one packet")
                });
            }
            FrameBody::Put { dst_region, dst_offset, payload, rec_counter } => {
                payload.deposit(dst_region, *dst_offset);
                dst.counters.put_bytes_in.add(payload.len() as u64);
                if let Some(c) = rec_counter {
                    c.delivered(credit);
                }
            }
            FrameBody::Get { desc } => {
                dst.sys_inj.queue.push((**desc).clone());
            }
            FrameBody::Rmw(req) => {
                // Exactly-once under retransmission: the channel's receive
                // verdict discards duplicate sequence numbers before this
                // runs, so a frame body applies at most once.
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
        let rel = self.inner.reliability.as_ref();
        rel.map_or(0, |r| r.pump(node, budget, &self.frame_deposit()))
    }
}

/// A one-sided descriptor as a single delivery action over its whole
/// payload.
fn whole_body(kind: XferKind, payload: PayloadSource) -> FrameBody {
    match kind {
        XferKind::DirectPut { dst_region, dst_offset, rec_counter } => {
            FrameBody::Put { dst_region, dst_offset, payload: payload.into(), rec_counter }
        }
        XferKind::RemoteGet { payload: desc } => FrameBody::Get { desc },
        XferKind::Rmw(req) => FrameBody::Rmw(req),
        XferKind::MemoryFifo { .. } => unreachable!("memory-FIFO messages take deliver_message"),
    }
}

/// A payload cut at byte `at`: the window before it (zero-copy) and the
/// payload from it on.
fn split_payload(payload: PayloadSource, at: usize) -> (PacketPayload, PayloadSource) {
    match payload {
        PayloadSource::Immediate(data) => {
            (PacketPayload::Inline(data.slice(..at)), PayloadSource::Immediate(data.slice(at..)))
        }
        PayloadSource::Region { region, offset, len } => (
            PacketPayload::Region { region: region.clone(), offset, len: at },
            PayloadSource::Region { region, offset: offset + at, len: len - at },
        ),
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
            PayloadSource::Immediate(data) => PacketPayload::Inline(data.slice(off..off + chunk)),
            PayloadSource::Region { region, offset, .. } if stage => {
                let at = *offset + off;
                PacketPayload::Inline(bytes::Bytes::init_with(chunk, |buf| region.read(at, buf)))
            }
            PayloadSource::Region { region, offset, .. } => {
                PacketPayload::Region { region: region.clone(), offset: *offset + off, len: chunk }
            }
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

    fn memfifo_desc(dst: u32, fifo: RecFifoId, payload: PayloadSource) -> Descriptor {
        Descriptor {
            dst_node: dst,
            dst_context: 0,
            src_context: 0,
            routing: bgq_torus::Routing::Deterministic,
            payload,
            kind: XferKind::MemoryFifo {
                rec_fifo: fifo,
                dispatch: 7,
                metadata: Bytes::new(),
            },
            inj_counter: None,
        }
    }

    #[test]
    fn memory_fifo_message_fragments_and_reassembles() {
        let fabric = small_fabric();
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let data: Vec<u8> = (0..1300).map(|i| (i % 251) as u8).collect();
        let region = MemRegion::from_vec(data.clone());
        fabric.execute_now(
            0,
            memfifo_desc(1, rec, PayloadSource::Region { region, offset: 0, len: 1300 }),
        );
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
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let region = MemRegion::from_vec(vec![7u8; 1000]);
        let local_done = Counter::new();
        local_done.add_expected(1000);
        let mut desc = memfifo_desc(
            1,
            rec,
            PayloadSource::Region { region: region.clone(), offset: 0, len: 1000 },
        );
        desc.inj_counter = Some(local_done.clone());
        fabric.execute_now(0, desc);
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
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let data: Vec<u8> = (0..1000).map(|i| (i % 201) as u8).collect();
        let region = MemRegion::from_vec(data.clone());
        fabric.execute_now(
            0,
            memfifo_desc(1, rec, PayloadSource::Region { region, offset: 0, len: 1000 }),
        );
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
        let fabric = small_fabric();
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        // Force the fallback lane's sequence counter near the wrap boundary.
        fabric.inner.nodes[0]
            .msg_lane
            .msg_seq
            .store(crate::fifo::LANE_SEQ_MASK, Ordering::Relaxed);
        for _ in 0..2 {
            fabric.execute_now(0, memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::new())));
        }
        let a = fabric.poll_rec(1, rec).unwrap();
        let b = fabric.poll_rec(1, rec).unwrap();
        assert_eq!(a.msg_id >> 40, 0, "node 0 in high bits");
        assert_eq!(b.msg_id >> 40, 0, "sequence wrap must not leak into node bits");
        assert_ne!(a.msg_id, b.msg_id);
        // Both ids sit on the NODE fallback lane (execute_now bypasses
        // injection FIFOs).
        let lane_of = |id: u64| (id >> crate::fifo::LANE_SHIFT) & 0x3ff;
        assert_eq!(lane_of(a.msg_id), crate::fifo::NODE_LANE as u64);
        assert_eq!(lane_of(b.msg_id), crate::fifo::NODE_LANE as u64);
    }

    #[test]
    fn fifo_routed_messages_mint_ids_on_their_own_lane() {
        let fabric = small_fabric();
        let inj = fabric.alloc_inj_fifos(0, 2).unwrap();
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        for &f in &inj {
            let f = fabric.inj_fifo(0, f);
            fabric.inject_handle(&f, memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::new())));
            assert_eq!(fabric.pump_inj_handle(0, &f, usize::MAX), 1);
        }
        let a = fabric.poll_rec(1, rec).unwrap();
        let b = fabric.poll_rec(1, rec).unwrap();
        let lane_of = |id: u64| (id >> crate::fifo::LANE_SHIFT) & 0x3ff;
        assert_eq!(lane_of(a.msg_id), inj[0].0 as u64, "first message on FIFO 0's lane");
        assert_eq!(lane_of(b.msg_id), inj[1].0 as u64, "second message on FIFO 1's lane");
        assert_ne!(a.msg_id, b.msg_id, "same per-lane seq (0), distinct lanes");
    }

    #[test]
    fn zero_byte_message_delivers_one_packet() {
        let fabric = small_fabric();
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        fabric.execute_now(0, memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::new())));
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
        fabric.execute_now(
            0,
            Descriptor {
                dst_node: 1,
                dst_context: 0,
                src_context: 0,
                routing: bgq_torus::Routing::Dynamic,
                payload: PayloadSource::Region { region: src, offset: 10, len: 50 },
                kind: XferKind::DirectPut {
                    dst_region: dst.clone(),
                    dst_offset: 25,
                    rec_counter: Some(rec.clone()),
                },
                inj_counter: Some(inj.clone()),
            },
        );
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
        let put_back = Descriptor {
            dst_node: 0,
            dst_context: 0,
            src_context: 0,
            routing: bgq_torus::Routing::Dynamic,
            payload: PayloadSource::Region { region: remote, offset: 0, len: 64 },
            kind: XferKind::DirectPut {
                dst_region: local.clone(),
                dst_offset: 0,
                rec_counter: Some(done.clone()),
            },
            inj_counter: None,
        };
        fabric.execute_now(
            0,
            Descriptor {
                dst_node: 1,
                dst_context: 0,
                src_context: 0,
                routing: bgq_torus::Routing::Deterministic,
                payload: PayloadSource::Immediate(Bytes::new()),
                kind: XferKind::RemoteGet { payload: Box::new(put_back) },
                inj_counter: None,
            },
        );
        assert!(!done.is_complete(), "no data until node 1 services the get");
        assert_eq!(fabric.pump_sys(1, 16), 1);
        assert!(done.is_complete());
        assert_eq!(local.to_vec(), (100..164).collect::<Vec<u8>>());
        if cfg!(feature = "telemetry") {
            assert_eq!(fabric.counters(1).remote_gets_serviced.value(), 1);
        }
    }

    #[test]
    fn inject_then_pump_preserves_order() {
        let fabric = small_fabric();
        let inj = fabric.inj_fifo(0, fabric.alloc_inj_fifos(0, 1).unwrap()[0]);
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        for i in 0..20u8 {
            fabric.inject_handle(
                &inj,
                memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(vec![i]))),
            );
        }
        assert!(fabric.poll_rec(1, rec).is_none(), "nothing moves until pumped");
        assert_eq!(fabric.pump_inj_handle(0, &inj, usize::MAX), 20);
        for i in 0..20u8 {
            let p = fabric.poll_rec(1, rec).expect("packet");
            assert_eq!(p.payload.view()[0], i, "in-order delivery");
        }
    }

    #[test]
    fn pump_budget_limits_descriptors() {
        let fabric = small_fabric();
        let inj = fabric.inj_fifo(0, fabric.alloc_inj_fifos(0, 1).unwrap()[0]);
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        for _ in 0..10 {
            fabric.inject_handle(&inj, memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::new())));
        }
        assert_eq!(fabric.pump_inj_handle(0, &inj, 3), 3);
        assert_eq!(fabric.pump_inj_handle(0, &inj, 100), 7);
    }

    #[test]
    fn fifo_allocation_is_per_node_and_bounded() {
        let fabric = small_fabric();
        assert!(fabric.alloc_inj_fifos(0, 544).is_some());
        assert!(fabric.alloc_inj_fifos(0, 1).is_none(), "node 0 exhausted");
        assert!(fabric.alloc_inj_fifos(1, 32).is_some(), "node 1 unaffected");
        assert!(fabric.alloc_rec_fifos(0, 272).is_some());
        assert!(fabric.alloc_rec_fifos(0, 1).is_none());
    }

    #[test]
    fn self_send_loops_back() {
        let fabric = small_fabric();
        let rec = fabric.alloc_rec_fifos(0, 1).unwrap()[0];
        fabric.execute_now(
            0,
            memfifo_desc(0, rec, PayloadSource::Immediate(Bytes::from_static(b"self"))),
        );
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
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        fabric.execute_now(
            0,
            memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from_static(b"hello"))),
        );
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
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
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
        fabric.execute_now(0, desc);
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
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let done = Counter::new();
        done.add_expected(2048);
        let mut desc =
            memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(vec![5u8; 2048])));
        desc.inj_counter = Some(done.clone());
        fabric.execute_now(0, desc);
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
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let done = Counter::new();
        done.add_expected(100);
        let mut desc = memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(vec![9u8; 100])));
        desc.inj_counter = Some(done.clone());
        fabric.execute_now(0, desc);
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
        fabric.execute_now(0, desc2);
        assert_eq!(late.fault(), Some(DeliveryFault::Timeout));
    }

    #[test]
    fn killed_link_reroutes_and_still_delivers() {
        let fabric = reliable_fabric(FaultPlan::new().seed(5));
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
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
        fabric.execute_now(0, desc);
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
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let done = Counter::new();
        done.add_expected(1024);
        let mut desc =
            memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(vec![8u8; 1024])));
        desc.inj_counter = Some(done.clone());
        fabric.execute_now(0, desc);
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
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
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
        fabric.execute_now(0, desc);
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
        fabric.execute_now(
            0,
            Descriptor {
                dst_node: 1,
                dst_context: 0,
                src_context: 0,
                routing: bgq_torus::Routing::Dynamic,
                payload: PayloadSource::Region { region: src.clone(), offset: 0, len: 200 },
                kind: XferKind::DirectPut {
                    dst_region: dst.clone(),
                    dst_offset: 0,
                    rec_counter: Some(recd.clone()),
                },
                inj_counter: None,
            },
        );
        pump_until_complete(&fabric, &recd);
        assert!(recd.is_ok());
        assert_eq!(dst.to_vec(), src.to_vec());
        // Remote get: node 0 pulls from node 1 over the same lossy fabric.
        let remote = MemRegion::from_vec(vec![4u8; 64]);
        let local = MemRegion::zeroed(64);
        let got = Counter::new();
        got.add_expected(64);
        fabric.execute_now(
            0,
            Descriptor {
                dst_node: 1,
                dst_context: 0,
                src_context: 0,
                routing: bgq_torus::Routing::Deterministic,
                payload: PayloadSource::Immediate(Bytes::new()),
                kind: XferKind::RemoteGet {
                    payload: Box::new(Descriptor {
                        dst_node: 0,
                        dst_context: 0,
                        src_context: 0,
                        routing: bgq_torus::Routing::Dynamic,
                        payload: PayloadSource::Region { region: remote, offset: 0, len: 64 },
                        kind: XferKind::DirectPut {
                            dst_region: local.clone(),
                            dst_offset: 0,
                            rec_counter: Some(got.clone()),
                        },
                        inj_counter: None,
                    }),
                },
                inj_counter: None,
            },
        );
        for _ in 0..10_000 {
            if got.is_complete() {
                break;
            }
            fabric.pump_links(0, usize::MAX);
            fabric.pump_sys(1, 16);
            fabric.pump_links(1, usize::MAX);
        }
        assert!(got.is_ok(), "remote get completed under loss");
        assert_eq!(local.to_vec(), vec![4u8; 64]);
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
            let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
            for i in 0..5u8 {
                let done = Counter::new();
                done.add_expected(1024);
                let mut desc = memfifo_desc(
                    1,
                    rec,
                    PayloadSource::Immediate(Bytes::from(vec![i; 1024])),
                );
                desc.inj_counter = Some(done.clone());
                fabric.execute_now(0, desc);
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
        let rec = fabric.alloc_rec_fifos(0, 1).unwrap()[0];
        fabric.execute_now(
            0,
            memfifo_desc(0, rec, PayloadSource::Immediate(Bytes::from_static(b"loop"))),
        );
        let p = fabric.poll_rec(0, rec).expect("self-sends never traverse links");
        assert_eq!(p.payload.view(), b"loop");
        assert!(fabric.links_idle(0));
    }

    /// A header from context 3 of node 0 to `rec` on node 1.
    fn short_hdr(rec: RecFifoId, dispatch: u16, metadata: &'static [u8]) -> FifoHeader {
        FifoHeader {
            dst_node: 1,
            rec_fifo: rec,
            src_context: 3,
            dispatch,
            metadata: Bytes::from_static(metadata),
        }
    }

    #[test]
    fn short_send_is_one_inline_packet_with_synchronous_completion() {
        let fabric = small_fabric();
        let inj = fabric.inj_fifo(0, fabric.alloc_inj_fifos(0, 1).unwrap()[0]);
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let done = Counter::new();
        done.add_expected(5);
        let hello = Bytes::from_static(b"hello");
        fabric.send_short(0, &inj, short_hdr(rec, 9, b"md"), hello.clone(), Some(done.clone()));
        assert!(done.is_complete(), "short-tier completion is synchronous");
        let p = fabric.poll_rec(1, rec).unwrap();
        assert_eq!(p.src_context, 3);
        assert_eq!(p.dispatch, 9);
        assert_eq!(&p.metadata[..], b"md");
        assert_eq!(p.payload.view(), b"hello");
        assert_eq!(p.msg_len, 5);
        assert_eq!(p.offset, 0);
        assert!(p.link_seq == 0 && p.crc == 0, "the lossless short envelope goes unstamped");
        assert!(fabric.poll_rec(1, rec).is_none(), "exactly one packet");
        // The eager twin: no plan, no channel, no stamp.
        fabric.execute_now(0, memfifo_desc(1, rec, PayloadSource::Immediate(hello)));
        let p = fabric.poll_rec(1, rec).unwrap();
        assert!(p.link_seq == 0 && p.crc == 0, "the lossless eager packet goes unstamped");
    }

    #[test]
    fn short_send_keeps_flag_through_reliable_channel() {
        let fabric = reliable_fabric(FaultPlan::new().seed(7));
        let inj = fabric.inj_fifo(0, fabric.alloc_inj_fifos(0, 1).unwrap()[0]);
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let done = Counter::new();
        done.add_expected(4);
        let shrt = Bytes::from_static(b"shrt");
        fabric.send_short(0, &inj, short_hdr(rec, 5, b""), shrt, Some(done.clone()));
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
        let inj = fabric.inj_fifo(0, fabric.alloc_inj_fifos(0, 1).unwrap()[0]);
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let (mut through, mut queued) = (0, 0);
        for i in 0..64u8 {
            let done = Counter::new();
            done.add_expected(1);
            let byte = Bytes::from(vec![i]);
            fabric.send_short(0, &inj, short_hdr(rec, 1, b""), byte, Some(done.clone()));
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
        rel.channel(0, 1).tx.lock().queue.len()
    }

    #[test]
    fn split_message_delivers_the_prefix_now_and_queues_the_tail() {
        // A 2 KiB eager message: packets 0..k are deposited, as one train,
        // before `execute_now` returns; packets k..4 wait for the pump.
        const LEN: usize = 2048;
        let (plan, k) = plan_losing_frame(4);
        let fabric = reliable_fabric(plan);
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
        let done = Counter::new();
        done.add_expected(LEN as u64);
        let mut desc = memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(data.clone())));
        desc.inj_counter = Some(done.clone());
        fabric.execute_now(0, desc);
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
        fabric.execute_now(
            0,
            Descriptor {
                dst_node: 1,
                dst_context: 0,
                src_context: 0,
                routing: bgq_torus::Routing::Dynamic,
                payload: PayloadSource::Region { region: src.clone(), offset: 0, len: PUT },
                kind: XferKind::DirectPut {
                    dst_region: dst.clone(),
                    dst_offset: 0,
                    rec_counter: Some(recd.clone()),
                },
                inj_counter: Some(inj.clone()),
            },
        );
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
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
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
        fabric.execute_now(0, desc);
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
        fabric.execute_now(0, desc);
        assert!(ok.is_ok(), "revived channel delivers again");
        let p = fabric.poll_rec(1, rec).unwrap();
        assert_eq!(p.payload.view(), b"yay");
        let (events, _) = fabric.ras_events();
        assert!(events.iter().any(|e| e.kind == RasEventKind::LinkRevived));
        assert!(events.iter().any(|e| e.kind == RasEventKind::ChannelRevived));
    }
}
