//! Link-level reliability: per-(source, destination) retransmit channels,
//! the `ras.*` counter family, and the RAS event ring.
//!
//! BG/Q's serdes links run a hardware link-level protocol — CRC per packet,
//! sliding-window retransmit on CRC failure, and a RAS event when a link
//! retries persistently or dies. This module is the software model of that
//! layer for the simulated fabric: when a [`crate::faults::FaultPlan`] is
//! installed, traffic between distinct nodes moves as [`Frame`]s through a
//! per-(src, dst) [`Channel`] that delivers in order, retransmits lost or
//! corrupted frames with exponential backoff, reroutes around killed links,
//! and — when the retry budget runs out — fails the outstanding transfers'
//! completion counters with a typed [`DeliveryFault`] instead of hanging
//! whoever is polling them.
//!
//! The retransmit protocol is **selective repeat**: the
//! sender works a window of frames rather than only the oldest one, the
//! receiver accepts out-of-order arrivals into a bounded reorder buffer
//! ([`RxState`]) and answers each with a selective ack, and a cumulative
//! ack covering every in-order-delivered frame retires whole prefixes of
//! the queue at once. A selective ack for a later frame doubles as SACK
//! information: any earlier frame the sender knows to be lost is
//! retransmitted immediately (`ras.sack_retransmits`) instead of waiting
//! out its RTO.
//!
//! Deliberate modeling choices, documented because they bound what the
//! model can show:
//!
//! * **Acks are frames too, and they can be lost.** An ack crosses the
//!   reverse route and rolls the same per-link fate
//!   dice as data; a lost ack leaves the sender's frame in
//!   [`FrameState::AckWait`] until an RTO-driven probe re-elicits a
//!   cumulative ack (the receiver discards the duplicate data). Ack
//!   crossings do not advance kill schedules, so kill-at-Nth-frame plans
//!   count data frames only.
//! * **The reorder buffer is sender-resident.** The simulation's "wire" is
//!   a function call, so an out-of-order frame's body stays in the sender's
//!   queue ([`FrameState::SackHeld`]) and is deposited at the destination
//!   when the sequence gap fills; the receiver tracks only the held
//!   sequence numbers ([`HeldRing`], one bit each), bounded by the plan's
//!   reorder capacity. Arrivals beyond the high-water mark are refused
//!   (drop-newest, `RasEventKind::ReorderEvict`) and retransmitted later.
//! * **Faults fire on the links of the route.** A frame's fate is decided
//!   per crossed link (first bad link wins), so longer routes really are
//!   more exposed, but there is no per-hop buffering — a frame is either
//!   delivered whole or lost whole.
//!
//! This module owns the whole layer — data structures, bookkeeping and
//! the channel state machine. The fabric ([`crate::fabric`]) enters it at
//! three points: [`Reliability::admit`] (the pipeline's one admission
//! decision: how many of a message's frames, counted from the first, cross
//! straight through — every one ahead of the first failing die),
//! [`Reliability::enqueue`] (the rest, onto the retransmit queue) and
//! [`Reliability::pump`]; what "delivering a frame" does at the
//! destination is handed in as a [`Deposit`] closure, so this module never
//! touches a reception FIFO.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use bgq_hw::{Counter as HwCounter, DeliveryFault, MemRegion};
use bgq_torus::{healthy_route, Coords, Dir, LinkHealth, TorusShape};
use bgq_upc::{Counter, Upc};
use parking_lot::Mutex;

use crate::descriptor::{Descriptor, FifoHeader, RmwRequest};
use crate::faults::{link_id, Fate, FaultInjector};
use crate::packet::PacketPayload;
use crate::transport::Transport;

/// `ras.*` telemetry probes — the reliability layer's RAS event counters,
/// registered on the fabric's shared [`Upc`] so `pamistat` exports them
/// alongside `mu.*`. All no-ops with the `telemetry` feature off.
pub struct RasCounters {
    /// Frames that arrived with a failing CRC and were discarded.
    pub crc_errors: Counter,
    /// Frame retransmissions (every attempt beyond the first).
    pub retransmits: Counter,
    /// Directed links declared dead by kill schedules or
    /// [`crate::fabric::MuFabric::kill_link`] (both directions of a
    /// physical link count).
    pub link_down: Counter,
    /// Channels that switched to a non-deterministic route around dead
    /// links.
    pub reroutes: Counter,
    /// Transfers whose completion counters were failed with a
    /// [`DeliveryFault`] (retry budget exhausted or destination
    /// unreachable).
    pub delivery_failures: Counter,
    /// Retransmissions triggered by SACK information (a later frame's ack
    /// revealed an earlier frame missing) rather than an RTO expiry.
    pub sack_retransmits: Counter,
    /// Frames accepted out of order into a receiver reorder buffer
    /// (cumulative occupancy, the selective-repeat reorder pressure
    /// signal).
    pub reorder_depth: Counter,
}

impl RasCounters {
    pub(crate) fn new(upc: &Upc) -> Self {
        RasCounters {
            crc_errors: upc.counter("ras.crc_errors"),
            retransmits: upc.counter("ras.retransmits"),
            link_down: upc.counter("ras.link_down"),
            reroutes: upc.counter("ras.reroutes"),
            delivery_failures: upc.counter("ras.delivery_failures"),
            sack_retransmits: upc.counter("ras.sack_retransmits"),
            reorder_depth: upc.counter("ras.reorder_depth"),
        }
    }
}

/// What a [`RasEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RasEventKind {
    /// A frame was silently dropped by the fabric.
    PacketDropped,
    /// A frame arrived corrupted and was discarded.
    CrcError,
    /// A frame was retransmitted.
    Retransmit,
    /// A directed link went down (`detail` = link id).
    LinkDown,
    /// A channel rerouted around dead links (`detail` = new hop count).
    Reroute,
    /// A transfer failed permanently (`detail` = fault discriminant).
    DeliveryFailure,
    /// A directed link came back up after a service action (`detail` =
    /// link id).
    LinkRevived,
    /// A dead channel was administratively cleared so traffic (e.g. a
    /// persistent-channel renegotiation) can flow again (`detail` = the
    /// fault discriminant that had killed it).
    ChannelRevived,
    /// A frame was retransmitted because SACK information showed it
    /// missing, without waiting out its RTO (`detail` = frame sequence).
    SackRetransmit,
    /// An out-of-order arrival was refused because the receiver's reorder
    /// buffer hit its high-water mark (`detail` = frame sequence).
    ReorderEvict,
}

impl RasEventKind {
    /// Stable lower-case name (used by `pamistat` and the chaos bench).
    pub fn as_str(&self) -> &'static str {
        match self {
            RasEventKind::PacketDropped => "packet_dropped",
            RasEventKind::CrcError => "crc_error",
            RasEventKind::Retransmit => "retransmit",
            RasEventKind::LinkDown => "link_down",
            RasEventKind::Reroute => "reroute",
            RasEventKind::DeliveryFailure => "delivery_failure",
            RasEventKind::LinkRevived => "link_revived",
            RasEventKind::ChannelRevived => "channel_revived",
            RasEventKind::SackRetransmit => "sack_retransmit",
            RasEventKind::ReorderEvict => "reorder_evict",
        }
    }
}

/// One entry in the RAS event ring.
#[derive(Clone, Debug)]
pub struct RasEvent {
    /// Source-node link-pump tick when the event fired.
    pub tick: u64,
    /// What happened.
    pub kind: RasEventKind,
    /// Source node of the affected channel.
    pub src_node: u32,
    /// Destination node of the affected channel.
    pub dst_node: u32,
    /// Kind-specific detail (frame sequence, link id, hop count, …).
    pub detail: u64,
}

/// Observer invoked synchronously for every RAS event as it is recorded.
///
/// This is the RAS→software feedback hook: `Machine` installs one that
/// fires endpoint failover when a channel dies `Unreachable`. Observers
/// run on the control plane (record time, under no ring lock) and must be
/// cheap and non-reentrant into the link layer.
pub type RasObserver = Arc<dyn Fn(&RasEvent) + Send + Sync>;

/// Bounded RAS event ring: newest events win, the drop count is kept so an
/// operator can tell the ring overflowed. The control plane (RAS) is off
/// the data path, so a mutex is fine here.
pub struct RasRing {
    inner: Mutex<RingInner>,
    capacity: usize,
    observer: OnceLock<RasObserver>,
}

struct RingInner {
    events: VecDeque<RasEvent>,
    dropped: u64,
}

impl RasRing {
    pub(crate) fn new(capacity: usize) -> Self {
        RasRing {
            inner: Mutex::new(RingInner { events: VecDeque::new(), dropped: 0 }),
            capacity: capacity.max(1),
            observer: OnceLock::new(),
        }
    }

    /// Install the event observer. Set-once: later calls are ignored, so a
    /// machine's failover hook cannot be silently displaced.
    pub(crate) fn set_observer(&self, obs: RasObserver) {
        let _ = self.observer.set(obs);
    }

    /// Append an event, evicting the oldest past capacity.
    pub fn record(&self, ev: RasEvent) {
        if let Some(obs) = self.observer.get() {
            obs(&ev);
        }
        let mut g = self.inner.lock();
        if g.events.len() == self.capacity {
            g.events.pop_front();
            g.dropped += 1;
        }
        g.events.push_back(ev);
    }

    /// Copy out the ring (oldest first) and the overflow drop count.
    pub fn snapshot(&self) -> (Vec<RasEvent>, u64) {
        let g = self.inner.lock();
        (g.events.iter().cloned().collect(), g.dropped)
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// Whether no event has been recorded (and none dropped).
    pub fn is_empty(&self) -> bool {
        let g = self.inner.lock();
        g.events.is_empty() && g.dropped == 0
    }
}

/// What delivering a frame does at the destination.
pub(crate) enum FrameBody {
    /// One memory-FIFO packet: the message header (what every packet of
    /// the message says) plus this fragment.
    Packet { hdr: FifoHeader, msg_id: u64, msg_len: u32, offset: u32, payload: PacketPayload },
    /// One window of a direct put (≤512 bytes under a fault plan, the whole
    /// payload on the lossless fabric).
    Put {
        dst_region: MemRegion,
        dst_offset: usize,
        payload: PacketPayload,
        rec_counter: Option<HwCounter>,
    },
    /// A remote-get request carrying the payload descriptor the
    /// destination injects on our behalf.
    Get { desc: Box<Descriptor> },
    /// A remote atomic, applied at the destination on delivery; the prior
    /// value is written to the requester's reply slot. The channel's
    /// duplicate suppression makes a retransmitted rmw apply exactly once.
    Rmw(RmwRequest),
}

/// Transmission state of a queued frame (selective repeat tracks this per
/// frame, not just for the queue front).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FrameState {
    /// Not yet transmitted at the current attempt.
    Queued,
    /// Transmitted and lost (dropped, corrupted, or refused by a full
    /// reorder buffer); waiting out the RTO that started at this tick.
    Lost { since: u64 },
    /// Data delivered in order at the receiver, but the cumulative ack was
    /// lost; an RTO-driven probe (the receiver discards the duplicate)
    /// re-elicits it, started at this tick.
    AckWait { since: u64 },
    /// Data sitting in the receiver's reorder buffer (selectively acked,
    /// out of order). No retransmit timer: the frame retires when the
    /// sequence gap ahead of it fills and a cumulative ack covers it.
    SackHeld,
}

/// One frame in a channel: a unit of link-level (re)transmission.
pub(crate) struct Frame {
    /// Channel-local sequence number (fate-hash input, receiver tracking).
    pub seq: u64,
    /// Transmission attempt, 0-based.
    pub attempt: u32,
    /// Where the frame is in the transmit state machine.
    pub state: FrameState,
    /// RTO-driven retransmissions consumed by this frame (counts against
    /// the retry budget; SACK-driven fast retransmits are free — they are
    /// evidence the path works).
    pub retries: u32,
    /// This frame's current retransmit timeout in ticks (per-frame
    /// exponential backoff).
    pub rto: u64,
    /// Bytes credited to `inj_counter` when the frame is acknowledged.
    pub credit: u64,
    /// Source-side completion counter share.
    pub inj_counter: Option<HwCounter>,
    /// The delivery action.
    pub body: FrameBody,
}

impl Frame {
    /// Fail every completion counter this frame carries (including the
    /// counters buried in a remote-get's payload descriptor) — called when
    /// the channel dies so pollers see completion-with-fault instead of a
    /// hang. Returns how many counters were newly failed.
    pub(crate) fn fail(&self, fault: DeliveryFault) -> u64 {
        let mut failed = 0;
        if let Some(c) = &self.inj_counter {
            failed += c.fail(fault) as u64;
        }
        failed + fail_body(&self.body, fault)
    }
}

/// Fail the destination-side counters a frame body carries.
pub(crate) fn fail_body(body: &FrameBody, fault: DeliveryFault) -> u64 {
    match body {
        FrameBody::Put { rec_counter: Some(c), .. } => c.fail(fault) as u64,
        FrameBody::Get { desc } => fail_descriptor(desc, fault),
        _ => 0,
    }
}

/// Recursively fail the counters a descriptor carries.
pub(crate) fn fail_descriptor(desc: &Descriptor, fault: DeliveryFault) -> u64 {
    let mut failed = 0;
    if let Some(c) = &desc.inj_counter {
        failed += c.fail(fault) as u64;
    }
    match &desc.kind {
        crate::descriptor::XferKind::DirectPut { rec_counter: Some(c), .. } => {
            failed += c.fail(fault) as u64;
        }
        crate::descriptor::XferKind::RemoteGet { payload } => {
            failed += fail_descriptor(payload, fault);
        }
        _ => {}
    }
    failed
}

/// A healthy route, precomputed into exactly what the per-frame hot path
/// needs: forward hops with their link ids resolved (for kill schedules
/// and fate dice) and the reverse-route link ids (for ack dice under
/// selective repeat). Built once per route computation so crossing a
/// frame does no coordinate arithmetic and no allocation — the cached
/// copy is shared out of [`TxState`] by refcount.
pub(crate) struct RoutePlan {
    /// Forward per-hop state: (link id, coords of the hop's tail, dir).
    pub hops: Vec<(crate::faults::LinkId, Coords, Dir)>,
    /// Reverse-route link ids, destination back to source, in ack
    /// crossing order.
    pub rev_lids: Vec<crate::faults::LinkId>,
    /// Per-link dice salts ([`crate::faults::FaultInjector::link_salt`])
    /// for the forward hops, in `hops` order — the fate peek combines
    /// each with the packet's seq salt in one finalizer.
    pub fwd_salts: Vec<u64>,
    /// Dice salts for `rev_lids`, in the same order.
    pub rev_salts: Vec<u64>,
}

/// Mutable transmit half of a channel, guarded by the channel mutex.
pub(crate) struct TxState {
    /// Frames awaiting transmission/ack, in sequence order. Selective
    /// repeat works up to a window of them per pump visit.
    pub queue: VecDeque<Frame>,
    /// Cached healthy route; `None` = recompute before next transmission.
    pub route: Option<Arc<RoutePlan>>,
    /// [`LinkHealth::epoch`] the cached route was computed at; a newer
    /// epoch invalidates the cache.
    pub route_epoch: usize,
    /// Set when the channel failed permanently; new frames fail on push.
    pub dead: Option<DeliveryFault>,
}

/// What the receiver said about one arriving data frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RxVerdict {
    /// In-order: deposit now (the pump then drains consecutive
    /// [`FrameState::SackHeld`] successors).
    Deliver,
    /// Out of order: entered the reorder buffer, selectively acked.
    Sacked,
    /// Duplicate of a frame already in the reorder buffer; re-acked.
    DupSacked,
    /// Duplicate of an already-delivered frame; discarded and the
    /// cumulative ack re-sent.
    Duplicate,
    /// Reorder buffer at its high-water mark (or the frame is too far
    /// ahead of the window): refused, drop-newest.
    Refused,
}

/// The receiver's reorder buffer: which sequences it holds out of order,
/// one bit per slot of a ring indexed by `seq mod slots`. Every held
/// sequence lies in `[next_expected, next_expected + capacity]`
/// ([`RxState::accept`] refuses anything further ahead), and the ring has
/// at least `capacity + 1` slots, so no two held sequences share a bit.
pub(crate) struct HeldRing {
    words: Box<[u64]>,
    /// `slots - 1`; `slots` is a power of two, so the index survives the
    /// wrap of a `u64` sequence.
    mask: u64,
    len: usize,
}

impl HeldRing {
    fn new(capacity: usize) -> Self {
        let slots = (capacity + 1).next_power_of_two().max(64);
        HeldRing { words: vec![0; slots / 64].into(), mask: slots as u64 - 1, len: 0 }
    }

    /// `seq`'s word index and bit.
    fn slot(&self, seq: u64) -> (usize, u64) {
        let s = seq & self.mask;
        ((s >> 6) as usize, 1 << (s & 63))
    }

    fn contains(&self, seq: u64) -> bool {
        let (w, bit) = self.slot(seq);
        self.words[w] & bit != 0
    }

    fn insert(&mut self, seq: u64) {
        let (w, bit) = self.slot(seq);
        debug_assert!(self.words[w] & bit == 0, "held sequences never share a slot");
        self.words[w] |= bit;
        self.len += 1;
    }

    /// Forget `seq`; returns whether it was held.
    fn remove(&mut self, seq: u64) -> bool {
        let (w, bit) = self.slot(seq);
        let held = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        self.len -= held as usize;
        held
    }

    /// Sequences held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Keep only the held sequences at or after `to`, given that every
    /// held sequence is at or after `from`.
    fn retain_from(&mut self, from: u64, to: u64) {
        let stale = to.wrapping_sub(from).min(self.mask + 1);
        for i in 0..stale {
            if self.len == 0 {
                return;
            }
            self.remove(from.wrapping_add(i));
        }
    }
}

/// Receive half of a channel: the selective-repeat reorder tracking for
/// the (src, dst) flow. Bounded memory: only sequence numbers are held —
/// the frame bodies stay in the sender's queue ([`FrameState::SackHeld`])
/// until the gap fills. Locked after `tx`, never before.
pub(crate) struct RxState {
    /// Next in-order sequence the receiver will deposit.
    pub next_expected: u64,
    /// Out-of-order sequences currently held in the reorder buffer.
    pub held: HeldRing,
    /// Reorder-buffer high-water mark in frames.
    pub capacity: usize,
}

impl RxState {
    fn new(capacity: usize) -> Self {
        RxState { next_expected: 0, held: HeldRing::new(capacity), capacity }
    }

    /// Classify one arriving data frame. `Deliver` advances
    /// `next_expected`; the caller deposits the body and then drains
    /// consecutive buffered successors with [`RxState::drain_next`].
    pub(crate) fn accept(&mut self, seq: u64) -> RxVerdict {
        let rel = seq.wrapping_sub(self.next_expected);
        if rel >= 1 << 63 {
            return RxVerdict::Duplicate;
        }
        if rel == 0 {
            // A frame that was sacked earlier (but whose selective ack was
            // lost) can be retransmitted and arrive in order; drop the now
            // stale buffer entry so it doesn't pin capacity.
            self.held.remove(seq);
            self.next_expected = self.next_expected.wrapping_add(1);
            return RxVerdict::Deliver;
        }
        if rel as usize > self.capacity {
            return RxVerdict::Refused;
        }
        if self.held.contains(seq) {
            return RxVerdict::DupSacked;
        }
        if self.held.len() >= self.capacity {
            return RxVerdict::Refused;
        }
        self.held.insert(seq);
        RxVerdict::Sacked
    }

    /// Release `seq` from the reorder buffer if it is the next in-order
    /// sequence; returns whether the caller should deposit its body.
    pub(crate) fn drain_next(&mut self, seq: u64) -> bool {
        if seq == self.next_expected && self.held.remove(seq) {
            self.next_expected = self.next_expected.wrapping_add(1);
            return true;
        }
        false
    }

    /// Fast-forward past sequences that were admitted straight through
    /// without touching this state: the oldest unacked queued frame is the
    /// oldest sequence the receiver could still be missing.
    pub(crate) fn sync_to(&mut self, oldest_unacked: u64) {
        let rel = oldest_unacked.wrapping_sub(self.next_expected);
        if rel > 0 && rel < 1 << 63 {
            self.held.retain_from(self.next_expected, oldest_unacked);
            self.next_expected = oldest_unacked;
        }
    }
}

/// A reliable link-level channel for one (source node, destination node)
/// pair — the analogue of the BG/Q send unit's per-link retransmission
/// FIFO, lifted to route granularity.
pub(crate) struct Channel {
    pub src: u32,
    pub dst: u32,
    /// Next frame sequence number to assign. Atomic (not under `tx`):
    /// [`Reliability::admit`] draws a message's sequence numbers before it
    /// knows whether the channel lock will be needed at all.
    next_seq: AtomicU64,
    /// Lock-free mirror of [`TxState::dead`] (the authoritative flag,
    /// written under the lock). Lets the fast path skip dead channels
    /// without acquiring the mutex; a racing kill at worst lets one
    /// in-flight frame deliver, which is indistinguishable from the frame
    /// having crossed just before the kill.
    dead_hint: std::sync::atomic::AtomicBool,
    /// Lock-free mirror of "the queue is non-empty". Admission checks it
    /// so straight-through sends never overtake frames still queued from
    /// a fault episode — one relaxed load when clean.
    backlog_hint: std::sync::atomic::AtomicBool,
    /// The deterministic route in hot-path form, built lazily once per
    /// channel. Valid whenever every link is up (then it is exactly the
    /// route `ensure_route` would cache); read lock-free by
    /// [`Reliability::admit`]'s dice peek, so the send path under a
    /// hostile plan never takes the channel mutex for a passing message.
    fair_plan: OnceLock<Arc<RoutePlan>>,
    pub tx: Mutex<TxState>,
    /// Receiver-side reorder tracking. Lock order: `tx` before `rx`,
    /// always.
    pub rx: Mutex<RxState>,
}

impl Channel {
    fn new(src: u32, dst: u32, reorder_capacity: usize) -> Self {
        Channel {
            src,
            dst,
            next_seq: AtomicU64::new(0),
            dead_hint: std::sync::atomic::AtomicBool::new(false),
            backlog_hint: std::sync::atomic::AtomicBool::new(false),
            fair_plan: OnceLock::new(),
            tx: Mutex::new(TxState {
                queue: VecDeque::new(),
                route: None,
                route_epoch: 0,
                dead: None,
            }),
            rx: Mutex::new(RxState::new(reorder_capacity.max(1))),
        }
    }

    /// Lock-free liveness probe (see `dead_hint`).
    fn seems_alive(&self) -> bool {
        !self.dead_hint.load(Ordering::Acquire)
    }

    /// Lock-free backlog probe (see `backlog_hint`).
    fn has_backlog(&self) -> bool {
        self.backlog_hint.load(Ordering::Relaxed)
    }

    /// Publish whether the transmit queue is non-empty; called with the
    /// `tx` lock held whenever the emptiness changes.
    fn publish_backlog(&self, on: bool) {
        self.backlog_hint.store(on, Ordering::Release);
    }
}

/// Machines up to this many nodes use the dense one-level channel table
/// (n² `OnceLock<Channel>` slots ≈ a few MB at the threshold); larger
/// machines fall back to lazily-allocated per-source rows so an idle
/// source costs one pointer.
const FLAT_CHANNEL_TABLE_MAX_NODES: usize = 128;

/// Storage for the per-(src, dst) channels.
///
/// The send path looks a channel up once per message, so
/// the lookup cost is on the message-rate critical path under a fault
/// plan. The dense [`ChannelTable::Flat`] form resolves it with a single
/// index + one lock-free `OnceLock` read — no chained row lookup, no
/// hashing, no refcount traffic.
enum ChannelTable {
    /// One `src * n + dst`-indexed slab (small machines — the common bench
    /// and test shape).
    Flat(Box<[OnceLock<Channel>]>),
    /// Per-source rows allocated on first use (large machines, where a
    /// dense n² slab would waste memory on never-used pairs).
    Rows(Vec<OnceLock<Box<[OnceLock<Channel>]>>>),
}

/// Everything the reliability layer owns, hung off the fabric when a fault
/// plan is installed.
pub(crate) struct Reliability {
    /// Compiled fault plan.
    pub injector: FaultInjector,
    /// Which links are alive (shared with the torus router).
    pub health: LinkHealth,
    /// `ras.*` probes (shared with the fabric's registry).
    pub ras: Arc<RasCounters>,
    /// RAS event ring.
    pub ring: Arc<RasRing>,
    /// `true` when the plan injects nothing: [`Reliability::admit`] then
    /// has zero dice to roll (frames still carry CRC and sequence numbers,
    /// so the fault-free protocol overhead is real and measurable).
    clean: bool,
    shape: TorusShape,
    /// The fabric's transport seam, charged one control frame per ack.
    transport: Option<Arc<dyn Transport>>,
    /// Each source node's `mu.packets_dropped` probe (handles onto the
    /// fabric's per-node counters), bumped on a `Drop` fate.
    dropped: Vec<Counter>,
    /// The (src, dst) channel table; see [`ChannelTable`].
    channels: ChannelTable,
    /// Per-source-node link-pump tick.
    ticks: Vec<AtomicU64>,
    /// Per-source-node count of frames queued across its channels (lock
    /// free idle check for `advance`).
    pending: Vec<AtomicUsize>,
}

/// The pipeline's deposit step, handed in by the fabric: perform one frame
/// body's delivery action at the destination — `(channel, seq, credit,
/// body)`. Called with the channel's `tx` lock held; it must not take
/// another channel's lock (the fabric's never does).
pub(crate) type Deposit<'a> = &'a dyn Fn(&Channel, u64, u64, &FrameBody);

/// What [`Reliability::admit`] decided for a message's `n` frames, which
/// own the sequence numbers `base_seq..base_seq + n`. Nothing can touch
/// the first `through` of them or their acks: the caller deposits those
/// now, on the sending thread, without the channel lock. The rest — from
/// the first frame with a failing die on — go to [`Reliability::enqueue`]
/// under `base_seq + through`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Admit {
    pub base_seq: u64,
    pub through: u64,
}

/// How an arrival leaves the sender's scan: move to the next frame,
/// restart from the (new) queue front after a cumulative ack retired a
/// prefix, or rescan because a SACK re-queued earlier frames for immediate
/// retransmission.
enum Arrival {
    Advance,
    Restart,
    FastRetransmit,
}

/// Ack wire cost charged to the transport seam when an ack crosses the
/// reverse route: sequence number + SACK bitmap + CRC, no payload.
const ACK_WIRE_BYTES: u64 = 32;

impl Reliability {
    pub(crate) fn new(
        injector: FaultInjector,
        shape: TorusShape,
        ras: Arc<RasCounters>,
        ring: Arc<RasRing>,
        transport: Option<Arc<dyn Transport>>,
        dropped: Vec<Counter>,
    ) -> Self {
        let num_nodes = dropped.len();
        let channels = if num_nodes <= FLAT_CHANNEL_TABLE_MAX_NODES {
            ChannelTable::Flat((0..num_nodes * num_nodes).map(|_| OnceLock::new()).collect())
        } else {
            ChannelTable::Rows((0..num_nodes).map(|_| OnceLock::new()).collect())
        };
        Reliability {
            clean: injector.plan().is_clean(),
            injector,
            health: LinkHealth::new(shape),
            ras,
            ring,
            shape,
            transport,
            dropped,
            channels,
            ticks: (0..num_nodes).map(|_| AtomicU64::new(0)).collect(),
            pending: (0..num_nodes).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// The channel from `src` to `dst`, created on first use. On the dense
    /// table this is one index plus one lock-free `OnceLock` read.
    pub(crate) fn channel(&self, src: u32, dst: u32) -> &Channel {
        let cap = self.injector.reorder_capacity();
        let n = self.pending.len();
        match &self.channels {
            ChannelTable::Flat(slab) => {
                slab[src as usize * n + dst as usize].get_or_init(|| Channel::new(src, dst, cap))
            }
            ChannelTable::Rows(rows) => {
                let row =
                    rows[src as usize].get_or_init(|| (0..n).map(|_| OnceLock::new()).collect());
                row[dst as usize].get_or_init(|| Channel::new(src, dst, cap))
            }
        }
    }

    /// All channels sourced at `node` (pump order: destination index).
    fn channels_of(&self, node: u32) -> impl Iterator<Item = &Channel> {
        let n = self.pending.len();
        let row: &[OnceLock<Channel>] = match &self.channels {
            ChannelTable::Flat(slab) => &slab[node as usize * n..(node as usize + 1) * n],
            ChannelTable::Rows(rows) => rows[node as usize].get().map_or(&[], |row| &row[..]),
        };
        row.iter().filter_map(OnceLock::get)
    }

    /// Current link-pump tick of `node`.
    fn tick(&self, node: u32) -> u64 {
        self.ticks[node as usize].load(Ordering::Relaxed)
    }

    /// Frame-retired accounting.
    fn sub_pending(&self, node: u32, n: usize) {
        self.pending[node as usize].fetch_sub(n, Ordering::Release);
    }

    /// Whether `node` has no frames awaiting transmission or retry.
    pub(crate) fn idle(&self, node: u32) -> bool {
        self.pending[node as usize].load(Ordering::Acquire) == 0
    }

    // ---- admission ------------------------------------------------------

    /// The pipeline's one admission decision: draw the sequence numbers of
    /// a message's `n` frames and say how many, from the first, cross
    /// straight through — none unless the channel is alive, has no backlog
    /// to overtake and every link is up (so the route is the deterministic
    /// one), else every frame ahead of the first with a failing
    /// first-attempt die (all `n` under a clean plan: zero dice). The dice
    /// are pure functions of (link, seq, attempt), so peeking consumes
    /// nothing: queued frames re-roll the same dice in the pump. The
    /// liveness and backlog hints race a concurrent fault episode by at
    /// most one in-flight message, indistinguishable from it having
    /// crossed just before.
    pub(crate) fn admit(&self, ch: &Channel, n: u64) -> Admit {
        let base_seq = ch.next_seq.fetch_add(n, Ordering::Relaxed);
        let through = if ch.seems_alive() && !ch.has_backlog() && !self.health.any_down() {
            self.dice_through(ch, base_seq, n)
        } else {
            0
        };
        // Synchronous delivery doubles as the ack.
        self.charge_acks(ch, through);
        Admit { base_seq, through }
    }

    /// How many of frames `base..base + n`, from the first, cross the
    /// deterministic route untouched on the first attempt with their acks:
    /// every forward hop and every reverse (ack) hop must come up `Pass` —
    /// the threshold form of exactly the `decide` calls the pump would
    /// make. Kill schedules must count every crossing, so under a plan
    /// with one no frame passes a peek.
    fn dice_through(&self, ch: &Channel, base: u64, n: u64) -> u64 {
        if self.clean {
            return n;
        }
        if self.injector.has_kills() {
            return 0;
        }
        let pass = self.injector.pass_threshold();
        let plan = self.fair_plan(ch);
        let first_loss = (base..base + n).position(|seq| {
            let ss = FaultInjector::seq_salt(seq, 0);
            let mut hops = plan.fwd_salts.iter().chain(&plan.rev_salts);
            hops.any(|&ls| FaultInjector::draw(ls, ss) < pass)
        });
        first_loss.map_or(n, |k| k as u64)
    }

    /// Queue the frames of a message that [`Reliability::admit`] did not
    /// let through — `(credit, body)` in message order, numbered from
    /// `first_seq` (its `base_seq + through`) — then pump the channel. A
    /// dead channel fails their counters with its fault instead of
    /// queueing into a black hole.
    pub(crate) fn enqueue(
        &self,
        ch: &Channel,
        first_seq: u64,
        inj_counter: Option<HwCounter>,
        bodies: impl Iterator<Item = (u64, FrameBody)>,
        deposit: Deposit<'_>,
    ) {
        let rto = self.injector.retry().rto_ticks;
        let frames = bodies.zip(first_seq..).map(|((credit, body), seq)| Frame {
            seq,
            attempt: 0,
            state: FrameState::Queued,
            retries: 0,
            rto,
            credit,
            inj_counter: inj_counter.clone(),
            body,
        });
        let mut guard = ch.tx.lock();
        let tx: &mut TxState = &mut guard;
        if let Some(fault) = tx.dead {
            let failed: u64 = frames.map(|f| f.fail(fault)).sum();
            self.ras.delivery_failures.add(failed);
            self.ring.record(RasEvent {
                tick: self.tick(ch.src),
                kind: RasEventKind::DeliveryFailure,
                src_node: ch.src,
                dst_node: ch.dst,
                detail: fault as u64,
            });
            return;
        }
        let before = tx.queue.len();
        for frame in frames {
            // A concurrent sender's draw may have reached the queue first:
            // insert in sequence order, which the pump relies on.
            let pos = tx.queue.partition_point(|f| f.seq < frame.seq);
            tx.queue.insert(pos, frame);
        }
        self.pending[ch.src as usize].fetch_add(tx.queue.len() - before, Ordering::Release);
        ch.publish_backlog(true);
        self.pump_channel(ch, tx, self.tick(ch.src), usize::MAX, deposit);
    }

    // ---- the channel state machine ----------------------------------------

    /// Pump `node`'s channels: transmit queued frames, fire RTO
    /// retransmissions. Each call advances the node's link-pump tick (the
    /// retry protocol's clock). Returns frames deposited.
    pub(crate) fn pump(&self, node: u32, budget: usize, deposit: Deposit<'_>) -> usize {
        if self.idle(node) {
            return 0;
        }
        let now = self.ticks[node as usize].fetch_add(1, Ordering::Relaxed) + 1;
        let mut done = 0;
        for ch in self.channels_of(node) {
            if done >= budget {
                break;
            }
            done += self.pump_channel(ch, &mut ch.tx.lock(), now, budget - done, deposit);
        }
        done
    }

    /// Selective repeat over one channel: work up to a window of frames
    /// per visit. Each transmission rolls per-link fates on the forward
    /// route; each arrival gets a verdict from the receiver's reorder
    /// state and an ack that rolls the reverse route's dice (see the module
    /// docs for the modeling choices). Blocked frames are skipped, so a
    /// lost frame at the front never head-of-line-blocks the rest of the
    /// window. `now` is the node's link-pump tick; `budget` caps deposits.
    fn pump_channel(
        &self,
        ch: &Channel,
        tx: &mut TxState,
        now: u64,
        budget: usize,
        deposit: Deposit<'_>,
    ) -> usize {
        if tx.dead.is_some() {
            return 0;
        }
        let retry = self.injector.retry();
        let mut done = 0usize;
        // `sent` counts transmissions this visit; the retry window bounds
        // it (acks are immediate in-process, so the window is a per-tick
        // transmission bound rather than an in-flight bound).
        let mut sent = 0usize;
        // Catch the reorder cursor up past anything admitted straight
        // through, which never touches it.
        if let Some(front) = tx.queue.front() {
            ch.rx.lock().sync_to(front.seq);
        }
        let mut rescan = true;
        while rescan && done < budget && sent < retry.window {
            rescan = false;
            let mut idx = 0usize;
            while idx < tx.queue.len() && idx < retry.window && done < budget && sent < retry.window
            {
                let (state, seq, attempt) = {
                    let f = &tx.queue[idx];
                    (f.state, f.seq, f.attempt)
                };
                match state {
                    // Parked at the receiver; retires via cumulative ack
                    // when the gap ahead of it fills.
                    FrameState::SackHeld => idx += 1,
                    FrameState::Lost { since } | FrameState::AckWait { since } => {
                        let (rto, retries) = {
                            let f = &tx.queue[idx];
                            (f.rto, f.retries)
                        };
                        if now.saturating_sub(since) < rto {
                            idx += 1;
                            continue;
                        }
                        if retries + 1 > retry.retry_budget {
                            self.kill_channel(ch, tx, DeliveryFault::Timeout, now);
                            return done;
                        }
                        self.ras.retransmits.incr();
                        self.record(ch, RasEventKind::Retransmit, now, seq);
                        let f = &mut tx.queue[idx];
                        f.retries += 1;
                        f.rto = rto.saturating_mul(2).min(retry.rto_max_ticks);
                        f.attempt += 1;
                        f.state = FrameState::Queued;
                        // Same index re-examined: the frame transmits now.
                    }
                    FrameState::Queued => {
                        let Some(route) = self.ensure_route(ch, tx, now) else {
                            return done;
                        };
                        sent += 1;
                        let lost = match self.cross_links(ch, &route, seq, attempt, now) {
                            (Fate::Pass, _) => false,
                            (Fate::Drop, link_died) => {
                                self.dropped[ch.src as usize].incr();
                                self.record(ch, RasEventKind::PacketDropped, now, seq);
                                if link_died {
                                    tx.route = None;
                                }
                                true
                            }
                            (Fate::Corrupt, _) => {
                                self.ras.crc_errors.incr();
                                self.record(ch, RasEventKind::CrcError, now, seq);
                                true
                            }
                        };
                        if lost {
                            tx.queue[idx].state = FrameState::Lost { since: now };
                            idx += 1;
                            continue;
                        }
                        let ack = self.ack_crosses(ch, &route, seq, attempt);
                        match self.arrival(ch, tx, idx, seq, now, ack, &mut done, deposit) {
                            Arrival::Advance => idx += 1,
                            Arrival::Restart => idx = 0,
                            Arrival::FastRetransmit => {
                                rescan = true;
                                idx += 1;
                            }
                        }
                    }
                }
            }
        }
        if tx.dead.is_none() {
            ch.publish_backlog(!tx.queue.is_empty());
        }
        done
    }

    /// Process one data-frame arrival at the receiver: classify it against
    /// the reorder state, deposit what became deliverable, and apply the
    /// (possibly lost) ack to the sender's queue. Returns how the caller's
    /// scan should continue.
    #[allow(clippy::too_many_arguments)]
    fn arrival(
        &self,
        ch: &Channel,
        tx: &mut TxState,
        idx: usize,
        seq: u64,
        now: u64,
        ack: bool,
        done: &mut usize,
        deposit: Deposit<'_>,
    ) -> Arrival {
        let verdict = ch.rx.lock().accept(seq);
        match verdict {
            RxVerdict::Deliver => {
                // The data crossed in order: deposit it now, then drain
                // the consecutive run of buffered successors it unblocked.
                let mut cum;
                let mut j = idx;
                loop {
                    let f = &mut tx.queue[j];
                    deposit(ch, f.seq, f.credit, &f.body);
                    f.state = FrameState::AckWait { since: now };
                    *done += 1;
                    cum = f.seq;
                    j += 1;
                    match tx.queue.get(j) {
                        Some(next)
                            if next.state == FrameState::SackHeld
                                && ch.rx.lock().drain_next(next.seq) => {}
                        _ => break,
                    }
                }
                if ack {
                    self.retire_through(ch, tx, cum);
                    Arrival::Restart
                } else {
                    // Ack lost: the delivered frames stay queued in
                    // AckWait until an RTO probe re-elicits the
                    // cumulative ack.
                    Arrival::Advance
                }
            }
            RxVerdict::Sacked => {
                self.ras.reorder_depth.incr();
                if !ack {
                    // The selective ack was lost: the sender cannot know
                    // the receiver holds the data, so the frame must be
                    // retried (the receiver will answer the duplicate).
                    tx.queue[idx].state = FrameState::Lost { since: now };
                    return Arrival::Advance;
                }
                tx.queue[idx].state = FrameState::SackHeld;
                // SACK fast retransmit: the selective ack proves later
                // data crossed, so earlier lost frames needn't wait out
                // their RTO. These retransmits are free — they do not
                // count against the retry budget.
                let mut any = false;
                for j in 0..idx {
                    let f = &mut tx.queue[j];
                    if matches!(f.state, FrameState::Lost { .. }) {
                        f.state = FrameState::Queued;
                        f.attempt += 1;
                        let fseq = f.seq;
                        any = true;
                        self.ras.retransmits.incr();
                        self.ras.sack_retransmits.incr();
                        self.record(ch, RasEventKind::SackRetransmit, now, fseq);
                    }
                }
                if any {
                    Arrival::FastRetransmit
                } else {
                    Arrival::Advance
                }
            }
            RxVerdict::DupSacked => {
                // Receiver already holds it; the re-sent selective ack
                // settles the frame (or is lost again).
                tx.queue[idx].state =
                    if ack { FrameState::SackHeld } else { FrameState::Lost { since: now } };
                Arrival::Advance
            }
            RxVerdict::Duplicate => {
                // The receiver delivered this data earlier (the ack was
                // lost); the probe re-elicits the cumulative ack.
                tx.queue[idx].state = FrameState::AckWait { since: now };
                if ack {
                    let cum = ch.rx.lock().next_expected.wrapping_sub(1);
                    self.retire_through(ch, tx, cum);
                    Arrival::Restart
                } else {
                    Arrival::Advance
                }
            }
            RxVerdict::Refused => {
                // Reorder buffer at its high-water mark: drop-newest. Not
                // a wire fault, so no retry-budget charge.
                self.record(ch, RasEventKind::ReorderEvict, now, seq);
                tx.queue[idx].state = FrameState::Lost { since: now };
                Arrival::Advance
            }
        }
    }

    /// Retire every frame the cumulative ack through `cum` covers: pop the
    /// queue prefix and credit the source completion counters — the
    /// pipeline's completion stage for queued frames. All popped frames
    /// have already been deposited at the destination.
    fn retire_through(&self, ch: &Channel, tx: &mut TxState, cum: u64) {
        let mut n = 0;
        while let Some(front) = tx.queue.front() {
            if cum.wrapping_sub(front.seq) >= 1 << 63 {
                break;
            }
            let frame = tx.queue.pop_front().expect("front exists");
            // The frame's data was delivered (its seq is behind the
            // receive cursor) even if a probe left it Lost/Queued;
            // only SackHeld bodies are still undelivered, and those sit
            // above the cursor by construction.
            debug_assert!(
                !matches!(frame.state, FrameState::SackHeld),
                "cumulative ack never covers a reorder-buffered frame"
            );
            if let Some(c) = &frame.inj_counter {
                c.delivered(frame.credit);
            }
            n += 1;
        }
        if n > 0 {
            self.sub_pending(ch.src, n);
        }
    }

    /// Record a RAS event on `ch` at tick `now`.
    fn record(&self, ch: &Channel, kind: RasEventKind, now: u64, detail: u64) {
        self.ring.record(RasEvent { tick: now, kind, src_node: ch.src, dst_node: ch.dst, detail });
    }

    // ---- routes and link crossings ------------------------------------------

    /// The channel's deterministic route in hot-path form, built once and
    /// read lock-free. Only meaningful while every link is up — exactly
    /// when `healthy_route` returns the deterministic route, so this is
    /// the same plan `ensure_route` would cache under the lock.
    fn fair_plan<'a>(&self, ch: &'a Channel) -> &'a Arc<RoutePlan> {
        ch.fair_plan.get_or_init(|| {
            let src_c = self.shape.coords_of(ch.src as usize);
            let dst_c = self.shape.coords_of(ch.dst as usize);
            let route = bgq_torus::det_route(self.shape, src_c, dst_c);
            Arc::new(self.build_route_plan(src_c, dst_c, &route))
        })
    }

    /// Resolve a route's coordinate arithmetic and dice keys once, into
    /// exactly what the per-frame hot path needs.
    fn build_route_plan(&self, src_c: Coords, dst_c: Coords, route: &[Dir]) -> RoutePlan {
        let shape = self.shape;
        let mut hops = Vec::with_capacity(route.len());
        let mut fwd_salts = Vec::with_capacity(route.len());
        let mut at = src_c;
        for &dir in route {
            let lid = link_id(shape.node_index(at) as u32, dir);
            hops.push((lid, at, dir));
            fwd_salts.push(self.injector.link_salt(lid));
            at = shape.neighbor(at, dir);
        }
        let mut rev_lids = Vec::with_capacity(route.len());
        let mut rev_salts = Vec::with_capacity(route.len());
        let mut rat = dst_c;
        for &dir in route.iter().rev() {
            let back = dir.reverse();
            let lid = link_id(shape.node_index(rat) as u32, back);
            rev_lids.push(lid);
            rev_salts.push(self.injector.link_salt(lid));
            rat = shape.neighbor(rat, back);
        }
        RoutePlan { hops, rev_lids, fwd_salts, rev_salts }
    }

    /// Make sure `tx` holds a route computed at the current health epoch.
    /// Kills the channel (`Unreachable`) and returns `None` when no
    /// healthy route exists.
    fn ensure_route(&self, ch: &Channel, tx: &mut TxState, now: u64) -> Option<Arc<RoutePlan>> {
        let epoch = self.health.epoch();
        if tx.route.is_none() || tx.route_epoch != epoch {
            let shape = self.shape;
            let src_c = shape.coords_of(ch.src as usize);
            let dst_c = shape.coords_of(ch.dst as usize);
            let Some(route) = healthy_route(shape, src_c, dst_c, &self.health) else {
                self.kill_channel(ch, tx, DeliveryFault::Unreachable, now);
                return None;
            };
            if self.health.any_down() && route != bgq_torus::det_route(shape, src_c, dst_c) {
                self.ras.reroutes.incr();
                self.record(ch, RasEventKind::Reroute, now, route.len() as u64);
            }
            // Resolve the coordinate arithmetic once: the hot path crosses
            // frames (and their acks) against the precomputed link ids and
            // dice salts only.
            tx.route = Some(Arc::new(self.build_route_plan(src_c, dst_c, &route)));
            tx.route_epoch = epoch;
        }
        tx.route.clone()
    }

    /// Walk the route's links with one data frame; kill schedules and
    /// per-link fates apply, first bad link wins. Returns the frame's fate
    /// and whether a kill schedule fired (cached route invalidated by the
    /// caller).
    fn cross_links(
        &self,
        ch: &Channel,
        route: &RoutePlan,
        seq: u64,
        attempt: u32,
        now: u64,
    ) -> (Fate, bool) {
        // Kill schedules are rare; hoist the probe so schedule-free plans
        // pay one branch per frame instead of a map lookup per hop.
        let check_kills = self.injector.has_kills();
        for &(lid, at, dir) in &route.hops {
            if check_kills && self.injector.note_crossing(lid) {
                if self.health.kill(at, dir) {
                    self.ras.link_down.add(2);
                    self.record(ch, RasEventKind::LinkDown, now, lid);
                }
                return (Fate::Drop, true);
            }
            match self.injector.decide(lid, seq, attempt) {
                Fate::Pass => {}
                f => return (f, false),
            }
        }
        (Fate::Pass, false)
    }

    /// Roll the per-link fate dice for an ack crossing the reverse route
    /// (destination back to source). Ack crossings never advance kill
    /// schedules — kill-at-Nth-frame plans count data frames only — but
    /// they reuse the same deterministic dice keyed by the reverse link
    /// ids, so replay stays bit-for-bit per seed. A passing ack is charged
    /// to the transport seam as a control frame.
    fn ack_crosses(&self, ch: &Channel, route: &RoutePlan, seq: u64, attempt: u32) -> bool {
        if !self.clean {
            for &lid in &route.rev_lids {
                // Loss of either kind forces the sender to probe.
                if self.injector.decide(lid, seq, attempt) != Fate::Pass {
                    return false;
                }
            }
        }
        self.charge_acks(ch, 1);
        true
    }

    /// Charge `n` acks crossing `ch`'s reverse route to the transport seam
    /// as control frames (free on the synchronous fabric).
    fn charge_acks(&self, ch: &Channel, n: u64) {
        if let Some(t) = &self.transport {
            for _ in 0..n {
                t.deliver_control(ch.dst, ch.src, ACK_WIRE_BYTES);
            }
        }
    }

    // ---- channel and link life cycle ----------------------------------------

    /// Permanently fail a channel: mark it dead, fail every queued frame's
    /// completion counters with `fault`, and record the RAS event. Pollers
    /// of those counters observe completion-with-fault, never a hang.
    fn kill_channel(&self, ch: &Channel, tx: &mut TxState, fault: DeliveryFault, now: u64) {
        tx.dead = Some(fault);
        ch.dead_hint.store(true, Ordering::Release);
        ch.publish_backlog(false);
        let failed: u64 = tx.queue.iter().map(|f| f.fail(fault)).sum();
        let n = tx.queue.len();
        tx.queue.clear();
        // Frames parked in the receiver's reorder buffer died with the
        // channel (their bodies were still in the queue above).
        ch.rx.lock().held.clear();
        if n > 0 {
            self.sub_pending(ch.src, n);
        }
        self.ras.delivery_failures.add(failed);
        self.record(ch, RasEventKind::DeliveryFailure, now, fault as u64);
    }

    /// Clear a dead (src, dst) channel so traffic can flow again after the
    /// underlying failure was repaired: fresh retransmit state, route
    /// recomputed at the current health epoch on next use. Returns `false`
    /// if the channel was not dead. Frames failed by the kill stay failed.
    pub(crate) fn revive_channel(&self, src_node: u32, dst_node: u32) -> bool {
        let ch = self.channel(src_node, dst_node);
        let mut tx = ch.tx.lock();
        let Some(fault) = tx.dead.take() else { return false };
        tx.route = None;
        // The kill cleared the receiver's reorder buffer; the cursor
        // re-syncs to the next queued frame on the first pump visit.
        debug_assert_eq!(ch.rx.lock().held.len(), 0);
        ch.dead_hint.store(false, Ordering::Release);
        self.record(ch, RasEventKind::ChannelRevived, self.tick(src_node), fault as u64);
        true
    }

    /// Take the physical link out of `node` in direction `dir` down
    /// (`up == false`) or back up, both directions at once. Returns whether
    /// the link's state changed. `ras.link_down` stays monotonic (it counts
    /// down *events*); recovery is visible through the `LinkRevived` event,
    /// `LinkHealth::down_count`, and the health epoch bump that invalidates
    /// cached routes.
    pub(crate) fn set_link(&self, node: u32, dir: Dir, up: bool) -> bool {
        let at = self.shape.coords_of(node as usize);
        let changed = if up { self.health.revive(at, dir) } else { self.health.kill(at, dir) };
        if changed {
            if !up {
                self.ras.link_down.add(2);
            }
            self.ring.record(RasEvent {
                tick: self.tick(node),
                kind: if up { RasEventKind::LinkRevived } else { RasEventKind::LinkDown },
                src_node: node,
                dst_node: self.shape.node_index(self.shape.neighbor(at, dir)) as u32,
                detail: link_id(node, dir),
            });
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use bytes::Bytes;

    #[test]
    fn ras_ring_caps_and_counts_drops() {
        let ring = RasRing::new(3);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.record(RasEvent {
                tick: i,
                kind: RasEventKind::Retransmit,
                src_node: 0,
                dst_node: 1,
                detail: i,
            });
        }
        let (events, dropped) = ring.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(dropped, 2);
        assert_eq!(events[0].detail, 2, "oldest surviving event");
        assert_eq!(events[2].detail, 4, "newest event");
        assert_eq!(ring.len(), 3);
        assert!(!ring.is_empty());
    }

    #[test]
    fn event_kind_names_are_stable() {
        assert_eq!(RasEventKind::CrcError.as_str(), "crc_error");
        assert_eq!(RasEventKind::LinkDown.as_str(), "link_down");
        assert_eq!(RasEventKind::Reroute.as_str(), "reroute");
        assert_eq!(RasEventKind::Retransmit.as_str(), "retransmit");
        assert_eq!(RasEventKind::PacketDropped.as_str(), "packet_dropped");
        assert_eq!(RasEventKind::DeliveryFailure.as_str(), "delivery_failure");
        assert_eq!(RasEventKind::SackRetransmit.as_str(), "sack_retransmit");
        assert_eq!(RasEventKind::ReorderEvict.as_str(), "reorder_evict");
    }

    fn rx(next_expected: u64, capacity: usize) -> RxState {
        RxState { next_expected, ..RxState::new(capacity) }
    }

    #[test]
    fn rx_accepts_in_order_and_buffers_gaps() {
        let mut r = rx(0, 4);
        assert_eq!(r.accept(0), RxVerdict::Deliver);
        assert_eq!(r.next_expected, 1);
        // Gap: 2 and 3 buffered out of order, selectively acked.
        assert_eq!(r.accept(2), RxVerdict::Sacked);
        assert_eq!(r.accept(3), RxVerdict::Sacked);
        assert_eq!(r.accept(2), RxVerdict::DupSacked, "re-arrival of a held frame");
        // Gap fills: 1 delivers, then the drain releases 2 and 3 in order.
        assert_eq!(r.accept(1), RxVerdict::Deliver);
        assert!(r.drain_next(2));
        assert!(r.drain_next(3));
        assert!(!r.drain_next(4), "nothing buffered at 4");
        assert_eq!(r.next_expected, 4);
        assert_eq!(r.held.len(), 0);
    }

    #[test]
    fn rx_discards_duplicates_of_delivered_frames() {
        let mut r = rx(0, 4);
        assert_eq!(r.accept(0), RxVerdict::Deliver);
        assert_eq!(r.accept(0), RxVerdict::Duplicate, "retransmit probe after lost ack");
        assert_eq!(r.next_expected, 1, "duplicates do not advance the cursor");
    }

    #[test]
    fn rx_refuses_past_high_water_mark() {
        let mut r = rx(0, 2);
        assert_eq!(r.accept(1), RxVerdict::Sacked);
        assert_eq!(r.accept(2), RxVerdict::Sacked);
        assert_eq!(r.accept(3), RxVerdict::Refused, "buffer full: drop-newest");
        assert_eq!(r.accept(100), RxVerdict::Refused, "far beyond the window");
        assert_eq!(r.held.len(), 2);
        // 65 shares held 1's slot in the 64-slot ring; past the window, it
        // is refused, never mistaken for a re-arrival.
        assert_eq!(r.accept(65), RxVerdict::Refused);
    }

    #[test]
    fn rx_sequences_wrap_around_u64() {
        let near_max = u64::MAX - 1;
        let mut r = rx(near_max, 4);
        assert_eq!(r.accept(near_max), RxVerdict::Deliver);
        assert_eq!(r.accept(0), RxVerdict::Sacked, "post-wrap seq buffers across the wrap");
        assert_eq!(r.accept(u64::MAX), RxVerdict::Deliver);
        assert!(r.drain_next(0), "drain follows the wrap");
        assert_eq!(r.next_expected, 1);
        assert_eq!(r.accept(u64::MAX), RxVerdict::Duplicate, "pre-wrap seq is behind");
    }

    #[test]
    fn rx_sync_fast_forwards_and_prunes() {
        let mut r = rx(0, 8);
        assert_eq!(r.accept(2), RxVerdict::Sacked);
        assert_eq!(r.accept(7), RxVerdict::Sacked);
        r.sync_to(5);
        assert_eq!(r.next_expected, 5);
        assert_eq!(r.held.len(), 1, "stale held seq pruned, 7 kept");
        assert_eq!(r.accept(7), RxVerdict::DupSacked);
        r.sync_to(3);
        assert_eq!(r.next_expected, 5, "sync never moves backwards");
        // A jump past a whole ring's worth of slots forgets everything.
        r.sync_to(5 + 1000);
        assert_eq!(r.held.len(), 0);
        assert_eq!(r.accept(1006), RxVerdict::Sacked, "no stale bit left behind");
    }

    #[test]
    fn held_ring_slots_never_alias_inside_the_window() {
        // Capacity 64 needs 65 slots, so the ring is 128 wide: the
        // sequences the receiver may hold at once, `next_expected ..=
        // next_expected + 64`, never share a bit.
        let mut r = rx(u64::MAX - 40, 64);
        assert_eq!(r.held.mask, 127);
        let held: Vec<u64> = (1..=64).map(|i| r.next_expected.wrapping_add(i)).collect();
        for &s in &held {
            assert_eq!(r.accept(s), RxVerdict::Sacked);
        }
        assert_eq!(r.held.len(), 64);
        assert_eq!(r.accept(r.next_expected.wrapping_add(65)), RxVerdict::Refused);
        assert_eq!(r.accept(r.next_expected), RxVerdict::Deliver);
        for &s in &held {
            assert!(r.drain_next(s), "{s} drains in order across the wrap");
        }
        assert_eq!(r.held.len(), 0);
    }

    fn put_desc(rec_counter: Option<HwCounter>) -> Descriptor {
        use crate::descriptor::{PayloadSource, XferKind};
        Descriptor {
            dst_node: 0,
            dst_context: 0,
            src_context: 0,
            routing: bgq_torus::Routing::Dynamic,
            payload: PayloadSource::Immediate(Bytes::new()),
            kind: XferKind::DirectPut {
                dst_region: MemRegion::zeroed(8),
                dst_offset: 0,
                rec_counter,
            },
            inj_counter: None,
        }
    }

    #[test]
    fn frame_fail_fails_nested_counters() {
        let inj = HwCounter::new();
        let rec = HwCounter::new();
        inj.add_expected(8);
        rec.add_expected(8);
        let frame = Frame {
            seq: 0,
            attempt: 0,
            state: FrameState::Queued,
            retries: 0,
            rto: 4,
            credit: 8,
            inj_counter: Some(inj.clone()),
            body: FrameBody::Get { desc: Box::new(put_desc(Some(rec.clone()))) },
        };
        assert_eq!(frame.fail(DeliveryFault::Timeout), 2);
        assert_eq!(inj.fault(), Some(DeliveryFault::Timeout));
        assert_eq!(rec.fault(), Some(DeliveryFault::Timeout));
        assert!(inj.is_complete() && rec.is_complete());
        // Idempotent: already-failed counters don't double count.
        assert_eq!(frame.fail(DeliveryFault::Aborted), 0);
    }

    fn reliability(nodes: u16) -> Reliability {
        let shape = TorusShape::new([nodes, 1, 1, 1, 1]);
        let upc = Upc::new();
        Reliability::new(
            FaultInjector::new(FaultPlan::new(), shape),
            shape,
            Arc::new(RasCounters::new(&upc)),
            Arc::new(RasRing::new(16)),
            None,
            (0..nodes).map(|_| upc.counter("mu.packets_dropped")).collect(),
        )
    }

    #[test]
    fn channel_table_rows_fallback_above_flat_threshold() {
        let n = (FLAT_CHANNEL_TABLE_MAX_NODES + 8) as u32;
        let r = reliability(n as u16);
        assert!(matches!(r.channels, ChannelTable::Rows(_)));
        let a = r.channel(3, n - 1);
        let b = r.channel(3, n - 1);
        assert!(std::ptr::eq(a, b), "channel is created once");
        assert_eq!(r.channels_of(3).count(), 1);
        assert_eq!(r.channels_of(4).count(), 0);
    }

    #[test]
    fn clean_plan_admits_through_until_a_backlog_or_a_dead_link() {
        let r = reliability(2);
        let ch = r.channel(0, 1);
        assert!(std::ptr::eq(ch, r.channel(0, 1)), "channel is created once");
        assert_eq!(r.channels_of(0).count(), 1);
        assert_eq!(r.channels_of(1).count(), 0);
        // Zero dice to roll: straight through, numbers drawn in order.
        assert_eq!(r.admit(ch, 3), Admit { base_seq: 0, through: 3 });
        assert_eq!(r.admit(ch, 1), Admit { base_seq: 3, through: 1 });
        assert!(r.idle(0));
        // A down link anywhere sends everything to the queue, which needs
        // the pump (and a reroute) to move.
        let dir = bgq_torus::det_route(r.shape, r.shape.coords_of(0), r.shape.coords_of(1))[0];
        assert!(r.set_link(0, dir, false));
        let Admit { base_seq, through } = r.admit(ch, 2);
        assert_eq!(through, 0, "a down link must queue");
        assert_eq!(base_seq, 4, "queued or not, one sequence space");
        let deposited = std::cell::Cell::new(0);
        let bodies = (0..2).map(|_| {
            let desc = Box::new(put_desc(None));
            (1, FrameBody::Get { desc })
        });
        r.enqueue(ch, base_seq, None, bodies, &|_, _, _, _| deposited.set(deposited.get() + 1));
        assert_eq!(deposited.get(), 2, "enqueue pumps: the detour delivers at once");
        assert!(r.idle(0), "both frames acked and retired");
        assert!(!ch.has_backlog());
    }
}
