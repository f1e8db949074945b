//! Link-level reliability: per-(source, destination) retransmit channels,
//! the `ras.*` counter family, and the RAS event ring.
//!
//! BG/Q's serdes links run a hardware link-level protocol — CRC per packet,
//! sliding-window retransmit on CRC failure, and a RAS event when a link
//! retries persistently or dies. This module is the software model of that
//! layer for the simulated fabric: when a [`crate::faults::FaultPlan`] is
//! installed, traffic between distinct nodes moves as frames through a
//! per-(src, dst) `Channel` that delivers in order, retransmits lost or
//! corrupted frames with exponential backoff, reroutes around killed links,
//! and — when the retry budget runs out — fails the outstanding transfers'
//! completion counters with a typed [`DeliveryFault`] instead of hanging
//! whoever is polling them.
//!
//! The retransmit protocol is **selective repeat**: the
//! sender works a window of frames rather than only the oldest one, the
//! receiver accepts out-of-order arrivals into a bounded reorder buffer
//! (`RxState`) and answers each with a selective ack, and a cumulative
//! ack covering every in-order-delivered frame retires whole prefixes of
//! the queue at once. A selective ack for a later frame doubles as SACK
//! information: any earlier frame the sender knows to be lost is
//! retransmitted immediately (`ras.sack_retransmits`) instead of waiting
//! out its RTO.
//!
//! Each channel has **one lock**, like the BG/Q link's retry unit, which
//! numbers and queues packets one at a time. Under it a sender draws its
//! frames' sequence numbers, the receive cursor moves past the frames that
//! cross at admission, and the rest join the retransmit queue before any
//! other sender can draw or pump: no sequence number is ever drawn without
//! being either past the cursor or queued.
//!
//! Deliberate modeling choices, documented because they bound what the
//! model can show:
//!
//! * **Acks are frames too, and they can be lost.** An ack crosses the
//!   reverse route and rolls the same per-link fate
//!   dice as data; a lost ack leaves the sender's frame in
//!   `FrameState::AckWait` until an RTO-driven probe re-elicits a
//!   cumulative ack (the receiver discards the duplicate data). Ack
//!   crossings do not advance kill schedules, so kill-at-Nth-frame plans
//!   count data frames only.
//! * **The reorder buffer is sender-resident.** The simulation's "wire" is
//!   a function call, so an out-of-order frame's data stays with its
//!   message in the sender's queue (`FrameState::SackHeld`) and is
//!   deposited at the destination when the sequence gap fills; the
//!   receiver tracks only the held sequence numbers (`HeldRing`, one bit
//!   each), bounded by the plan's reorder capacity. Arrivals beyond the
//!   high-water mark are refused (drop-newest,
//!   [`RasEventKind::ReorderEvict`]) and retransmitted later.
//! * **Faults fire on the links of the route.** A frame's fate is decided
//!   per crossed link (first bad link wins), so longer routes really are
//!   more exposed, but there is no per-hop buffering — a frame is either
//!   delivered whole or lost whole.
//!
//! This module owns the whole layer — data structures, bookkeeping and
//! the channel state machine. The fabric ([`crate::fabric`]) enters it at
//! three points: `Reliability::admit` (the pipeline's one admission
//! decision: how many of a message's frames, counted from the first, cross
//! straight through — every one ahead of the first failing die),
//! `Reliability::enqueue` (the rest, onto the retransmit queue, under the
//! lock `admit` kept) and `Reliability::pump`.
//!
//! The retransmit queue holds **messages, not frames**: a queued
//! `Message` stores its delivery, payload and completion counter once,
//! and each of its queued frames adds only its protocol state (a `Frame`
//! in `TxState::frames`). Every protocol decision and every RAS event is
//! per frame; delivery and crediting are per message. A run of frames the
//! receiver takes in order is delivered as "frames `a..b` of message `m`"
//! — one `Deposit` call handed in by the fabric, so this module never
//! touches a reception FIFO — and a cumulative ack credits each message
//! it retires frames of with one counter update.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use bgq_hw::{Counter as HwCounter, DeliveryFault, MemRegion};
use bgq_torus::packet::MAX_PAYLOAD_BYTES;
use bgq_torus::{healthy_route, Coords, Dir, LinkHealth, TorusShape};
use bgq_upc::{Counter, Upc};
use parking_lot::{Mutex, MutexGuard};

use crate::descriptor::{Descriptor, FifoHeader, PayloadSource, RmwRequest};
use crate::faults::{link_id, Fate, FaultInjector};

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

/// Bounded RAS event ring: newest events win, the drop count is kept so an
/// operator can tell the ring overflowed. The control plane (RAS) is off
/// the data path, so a mutex is fine here.
pub(crate) struct RasRing {
    inner: Mutex<RingInner>,
    capacity: usize,
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
        }
    }

    /// Append an event, evicting the oldest past capacity.
    pub fn record(&self, ev: RasEvent) {
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
}

/// What delivering a message's frames does at the destination. Stored
/// once per message, however many frames it spans.
pub(crate) enum Delivery {
    /// Memory-FIFO packets: the message header (what every packet of the
    /// message says); frame `i` is the packet at message offset `i * 512`.
    Packet { hdr: FifoHeader, msg_id: u64, msg_len: u32 },
    /// A direct put: frame `i` is the payload's window from `i * 512`,
    /// landing at `dst_offset + i * 512` of `dst_region`.
    Put { dst_region: MemRegion, dst_offset: usize, rec_counter: Option<HwCounter> },
    /// A remote-get request carrying the payload descriptor the
    /// destination injects on our behalf.
    Get(Box<Descriptor>),
    /// A remote atomic, applied at the destination on delivery; the prior
    /// value is written to the requester's reply slot. The channel's
    /// duplicate suppression makes a retransmitted rmw apply exactly once.
    Rmw(RmwRequest),
}

/// One transfer as the reliability layer holds it: its delivery, its
/// payload and its source completion counter, each stored once, over
/// frames `0..frames` numbered from `base_seq`. The frames ahead of its
/// first failing die cross at admission; the rest wait in
/// [`TxState::frames`] until cumulative acks retire them.
pub(crate) struct Message {
    /// Channel sequence number of frame 0.
    base_seq: u64,
    /// Frames the message spans.
    frames: u64,
    /// The delivery action.
    pub delivery: Delivery,
    /// The payload; frame `i` carries its bytes from `i * 512`.
    pub payload: PayloadSource,
    /// Completion credit of the whole message: the payload length, or
    /// [`Descriptor::ZERO_LEN_CREDIT`] for an empty one.
    credit: u64,
    /// Source-side completion counter.
    pub inj_counter: Option<HwCounter>,
    /// Frames `0..retired` are delivered and credited: the ones that
    /// crossed at admission, then each run a cumulative ack retired.
    retired: u64,
}

impl Message {
    pub(crate) fn new(
        base_seq: u64,
        frames: u64,
        delivery: Delivery,
        payload: PayloadSource,
        credit: u64,
        inj_counter: Option<HwCounter>,
    ) -> Self {
        Message { base_seq, frames, delivery, payload, credit, inj_counter, retired: 0 }
    }

    /// Channel sequence number of frame `i`.
    pub(crate) fn seq(&self, i: u64) -> u64 {
        self.base_seq.wrapping_add(i)
    }

    /// The payload bytes frames `frames` carry.
    pub(crate) fn window(&self, frames: Range<u64>) -> Range<usize> {
        let len = self.payload.len();
        let at = |i: u64| (i as usize * MAX_PAYLOAD_BYTES).min(len);
        at(frames.start)..at(frames.end)
    }

    /// Completion credit of frames `frames`: their bytes, or the whole
    /// message's credit for all of it (an empty payload still credits).
    pub(crate) fn credit_of(&self, frames: Range<u64>) -> u64 {
        if frames.start == 0 && frames.end == self.frames {
            return self.credit;
        }
        self.window(frames).len() as u64
    }

    /// Fail every completion counter this message carries (including the
    /// counters buried in a remote-get's payload descriptor) — called when
    /// the channel dies so pollers see completion-with-fault instead of a
    /// hang. Returns how many counters were newly failed.
    pub(crate) fn fail(&self, fault: DeliveryFault) -> u64 {
        let inj = self.inj_counter.as_ref().map_or(0, |c| c.fail(fault) as u64);
        inj + match &self.delivery {
            Delivery::Put { rec_counter: Some(c), .. } => c.fail(fault) as u64,
            Delivery::Get(desc) => fail_descriptor(desc, fault),
            _ => 0,
        }
    }
}

/// Transmission state of a queued frame (selective repeat tracks this per
/// frame, not just for the queue front).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FrameState {
    /// Not yet transmitted at the current attempt.
    Queued,
    /// Transmitted and lost (dropped, corrupted, or — `refused` — turned
    /// away by a full reorder buffer); waiting out the RTO that started at
    /// tick `since`.
    Lost { since: u64, refused: bool },
    /// Data delivered in order at the receiver, but the cumulative ack was
    /// lost; an RTO-driven probe (the receiver discards the duplicate)
    /// re-elicits it, started at this tick.
    AckWait { since: u64 },
    /// Data sitting in the receiver's reorder buffer (selectively acked,
    /// out of order). No retransmit timer: the frame retires when the
    /// sequence gap ahead of it fills and a cumulative ack covers it.
    SackHeld,
}

/// One queued frame's protocol state: the unit of link-level
/// (re)transmission. What it carries belongs to its [`Message`].
pub(crate) struct Frame {
    /// Channel-local sequence number (fate-hash input, receiver tracking).
    pub seq: u64,
    /// Transmission attempt, 0-based.
    pub attempt: u32,
    /// Where the frame is in the transmit state machine.
    pub state: FrameState,
    /// RTO-driven retransmissions consumed by this frame (counts against
    /// the retry budget; SACK-driven fast retransmits and retries after a
    /// refusal are free — evidence the path works).
    pub retries: u32,
    /// This frame's current retransmit timeout in ticks (per-frame
    /// exponential backoff).
    pub rto: u64,
}

/// Whether sequence `a` comes before `b` in the channel's wrapping
/// sequence space: every queued or held sequence lies within far less
/// than half of it of every other.
fn seq_before(a: u64, b: u64) -> bool {
    (a.wrapping_sub(b) as i64) < 0
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
/// needs: forward hops with their link ids looked up (for kill schedules
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

/// A channel's whole mutable state, guarded by its one mutex.
pub(crate) struct TxState {
    /// Next frame sequence number to draw.
    next_seq: u64,
    /// The receiver's reorder tracking.
    rx: RxState,
    /// Frames awaiting transmission/ack, in sequence order. Selective
    /// repeat works up to a window of them per pump visit.
    pub frames: VecDeque<Frame>,
    /// The messages those frames belong to, in sequence order; one leaves
    /// when the cumulative ack covers its last frame.
    pub msgs: VecDeque<Message>,
    /// How many of `frames` are [`FrameState::Lost`]: a SACK has nothing
    /// to fast-retransmit while it is 0.
    lost: usize,
    /// Cached healthy route; `None` = recompute before next transmission.
    pub route: Option<Arc<RoutePlan>>,
    /// [`LinkHealth::epoch`] the cached route was computed at; a newer
    /// epoch invalidates the cache.
    pub route_epoch: usize,
    /// Set when the channel failed permanently; new frames fail on push.
    pub dead: Option<DeliveryFault>,
}

impl TxState {
    /// Move frame `idx` to `state`, keeping `lost` in step.
    fn set_state(&mut self, idx: usize, state: FrameState) {
        let lost = |s: FrameState| matches!(s, FrameState::Lost { .. }) as usize;
        let f = &mut self.frames[idx];
        self.lost = self.lost + lost(state) - lost(f.state);
        f.state = state;
    }

    /// Index in `msgs` of the message frame `seq` belongs to.
    fn msg_of(&self, seq: u64) -> usize {
        self.msgs.partition_point(|m| !seq_before(seq, m.base_seq)) - 1
    }

    /// Deliver queued frames `start..end`, which the receiver just took in
    /// order, and the run of reorder-buffered successors that releases:
    /// deposit them and leave them awaiting the cumulative ack. Returns
    /// the end of the run.
    fn deliver_from(
        &mut self,
        ch: &Channel,
        start: usize,
        mut end: usize,
        now: u64,
        deposit: Deposit<'_>,
    ) -> usize {
        while self
            .frames
            .get(end)
            .is_some_and(|f| f.state == FrameState::SackHeld && self.rx.drain_next(f.seq))
        {
            end += 1;
        }
        if end > start {
            self.deposit_run(ch, start..end, deposit);
            for f in self.frames.range_mut(start..end) {
                f.state = FrameState::AckWait { since: now };
            }
        }
        end
    }

    /// Deliver the queued frames `run` — sequences the receiver took in
    /// order — with one `deposit` call per stretch of consecutive frames of
    /// one message. The run skips the sequences that crossed at admission
    /// (they are not queued), so a stretch ends at a gap as well as at a
    /// message boundary.
    fn deposit_run(&self, ch: &Channel, run: Range<usize>, deposit: Deposit<'_>) {
        let mut idx = run.start;
        while idx < run.end {
            let msg = &self.msgs[self.msg_of(self.frames[idx].seq)];
            let a = self.frames[idx].seq.wrapping_sub(msg.base_seq);
            let mut b = a + 1;
            while b < msg.frames
                && idx + ((b - a) as usize) < run.end
                && self.frames[idx + (b - a) as usize].seq == msg.seq(b)
            {
                b += 1;
            }
            deposit(ch, msg, a..b);
            idx += (b - a) as usize;
        }
    }
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
}

/// Receive half of a channel: the selective-repeat reorder tracking for
/// the (src, dst) flow. Bounded memory: only sequence numbers are held —
/// the frames' data stays in the sender's queue ([`FrameState::SackHeld`])
/// until the gap fills.
pub(crate) struct RxState {
    /// Next in-order sequence the receiver will deposit. Every sequence
    /// below it was deposited — by the pump, or at admission — or failed
    /// with its channel. With the transmit queue empty it is the next
    /// sequence to draw.
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
    /// `next_expected`; the caller deposits the frame and then drains
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
            self.next_expected = seq.wrapping_add(1);
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
    /// sequence; returns whether the caller should deposit that frame.
    pub(crate) fn drain_next(&mut self, seq: u64) -> bool {
        if seq == self.next_expected && self.held.remove(seq) {
            self.next_expected = seq.wrapping_add(1);
            return true;
        }
        false
    }
}

/// A reliable link-level channel for one (source node, destination node)
/// pair — the analogue of the BG/Q send unit's per-link retransmission
/// FIFO, lifted to route granularity.
pub(crate) struct Channel {
    pub src: u32,
    pub dst: u32,
    /// Everything that changes: the sequence counter, both halves of the
    /// protocol and the cached route. Admission, queueing and the pump
    /// all run under it.
    pub tx: Mutex<TxState>,
}

impl Channel {
    fn new(src: u32, dst: u32, reorder_capacity: usize) -> Self {
        Channel {
            src,
            dst,
            tx: Mutex::new(TxState {
                next_seq: 0,
                rx: RxState::new(reorder_capacity.max(1)),
                frames: VecDeque::new(),
                msgs: VecDeque::new(),
                lost: 0,
                route: None,
                route_epoch: 0,
                dead: None,
            }),
        }
    }
}

/// One source node's channels, indexed by destination.
type ChannelRow = Box<[OnceLock<Channel>]>;

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
    /// Each source node's `mu.packets_dropped` probe (handles onto the
    /// fabric's per-node counters), bumped on a `Drop` fate.
    dropped: Vec<Counter>,
    /// The (src, dst) channels: one row per source node, allocated on the
    /// source's first send, so an idle source costs one pointer and a
    /// large machine never pays for the n² pairs it does not use. A
    /// lookup is two lock-free `OnceLock` reads.
    channels: Box<[OnceLock<ChannelRow>]>,
    /// Per-source-node link-pump tick.
    ticks: Vec<AtomicU64>,
    /// Per-source-node count of frames queued across its channels (lock
    /// free idle check for `advance`).
    pending: Vec<AtomicUsize>,
}

/// The pipeline's deposit step, handed in by the fabric: deliver frames
/// `a..b` of a message at the destination — `(channel, message, a..b)`.
/// Called with the channel's lock held; it must not take another
/// channel's lock (the fabric's never does).
pub(crate) type Deposit<'a> = &'a dyn Fn(&Channel, &Message, Range<u64>);

/// What [`Reliability::admit`] decided for a message's `n` frames, which
/// own the sequence numbers `base_seq..base_seq + n`. Nothing can touch
/// the first `through` of them or their acks: the caller deposits those
/// now, on the sending thread. When all `n` pass, the channel is already
/// unlocked. Otherwise `Admit` keeps the channel's lock: the caller lands
/// the prefix under it and hands it to [`Reliability::enqueue`] with the
/// rest — from the first frame with a failing die on — so no other sender
/// draws or pumps in between.
pub(crate) struct Admit<'a> {
    pub base_seq: u64,
    pub through: u64,
    /// The channel's lock, held iff `through < n`.
    held: Option<MutexGuard<'a, TxState>>,
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

impl Reliability {
    pub(crate) fn new(
        injector: FaultInjector,
        shape: TorusShape,
        ras: Arc<RasCounters>,
        ring: Arc<RasRing>,
        dropped: Vec<Counter>,
    ) -> Self {
        let num_nodes = dropped.len();
        Reliability {
            clean: injector.plan().is_clean(),
            injector,
            health: LinkHealth::new(shape),
            ras,
            ring,
            shape,
            dropped,
            channels: (0..num_nodes).map(|_| OnceLock::new()).collect(),
            ticks: (0..num_nodes).map(|_| AtomicU64::new(0)).collect(),
            pending: (0..num_nodes).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// The channel from `src` to `dst`, created on first use.
    pub(crate) fn channel(&self, src: u32, dst: u32) -> &Channel {
        let n = self.channels.len();
        let new_row = || (0..n).map(|_| OnceLock::new()).collect();
        let row = self.channels[src as usize].get_or_init(new_row);
        let cap = self.injector.reorder_capacity();
        row[dst as usize].get_or_init(|| Channel::new(src, dst, cap))
    }

    /// All channels sourced at `node` (pump order: destination index).
    fn channels_of(&self, node: u32) -> impl Iterator<Item = &Channel> {
        let row = self.channels[node as usize].get().map_or(&[][..], |row| &row[..]);
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

    /// The pipeline's one admission decision, under the channel's lock:
    /// draw the sequence numbers of a message's `n` frames and say how
    /// many, from the first, cross straight through — none unless the
    /// channel is alive, has no queued frame to overtake and every link is
    /// up (so the route is the deterministic one), else every frame ahead
    /// of the first with a failing first-attempt die (all `n` under a clean
    /// plan: zero dice). The dice are pure functions of (link, seq,
    /// attempt), so peeking consumes nothing: queued frames re-roll the
    /// same dice in the pump. The receive cursor moves past the frames let
    /// through; with the queue empty it stands at `base_seq`, and the
    /// assert holds that.
    pub(crate) fn admit<'a>(&self, ch: &'a Channel, n: u64) -> Admit<'a> {
        let mut tx = ch.tx.lock();
        let base_seq = tx.next_seq;
        tx.next_seq = base_seq.wrapping_add(n);
        let through = if tx.dead.is_none() && tx.frames.is_empty() && !self.health.any_down() {
            self.dice_through(ch, &mut tx, base_seq, n)
        } else {
            0
        };
        if through > 0 {
            assert_eq!(tx.rx.next_expected, base_seq, "admission overtook queued frames");
            tx.rx.next_expected = base_seq.wrapping_add(through);
        }
        Admit { base_seq, through, held: (through < n).then_some(tx) }
    }

    /// How many of frames `base..base + n`, from the first, cross the
    /// deterministic route untouched on the first attempt with their acks:
    /// every forward hop and every reverse (ack) hop must come up `Pass` —
    /// the threshold form of exactly the `decide` calls the pump would
    /// make. Kill schedules must count every crossing, so under a plan
    /// with one no frame passes a peek. Called with every link up, so the
    /// channel's cached route is the deterministic one.
    fn dice_through(&self, ch: &Channel, tx: &mut TxState, base: u64, n: u64) -> u64 {
        if self.clean {
            return n;
        }
        if self.injector.has_kills() {
            return 0;
        }
        let pass = self.injector.pass_threshold();
        let Some(plan) = self.ensure_route(ch, tx, self.tick(ch.src)) else { return 0 };
        let first_loss = (0..n).position(|i| {
            let ss = FaultInjector::seq_salt(base.wrapping_add(i), 0);
            let mut hops = plan.fwd_salts.iter().chain(&plan.rev_salts);
            hops.any(|&ls| FaultInjector::draw(ls, ss) < pass)
        });
        first_loss.map_or(n, |k| k as u64)
    }

    /// Queue frames `admit.through..` of `msg` — the ones
    /// [`Reliability::admit`] held back — under the lock it kept, then pump
    /// the channel. The message is stored once; each queued frame adds only
    /// its protocol state. A dead channel fails the message's counters with
    /// its fault instead of queueing into a black hole.
    pub(crate) fn enqueue(
        &self,
        ch: &Channel,
        admit: Admit<'_>,
        mut msg: Message,
        deposit: Deposit<'_>,
    ) {
        let through = admit.through;
        let mut guard = admit.held.expect("a held-back message keeps its channel locked");
        let tx: &mut TxState = &mut guard;
        if let Some(fault) = tx.dead {
            self.ras.delivery_failures.add(msg.fail(fault));
            self.ring.record(RasEvent {
                tick: self.tick(ch.src),
                kind: RasEventKind::DeliveryFailure,
                src_node: ch.src,
                dst_node: ch.dst,
                detail: fault as u64,
            });
            return;
        }
        msg.retired = through;
        let rto = self.injector.retry().rto_ticks;
        tx.frames.extend((through..msg.frames).map(|i| Frame {
            seq: msg.seq(i),
            attempt: 0,
            state: FrameState::Queued,
            retries: 0,
            rto,
        }));
        let queued = (msg.frames - through) as usize;
        tx.msgs.push_back(msg);
        self.pending[ch.src as usize].fetch_add(queued, Ordering::Release);
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
        // `sent` counts transmissions this visit; the retry window bounds
        // it (acks are immediate in-process, so the window is a per-tick
        // transmission bound rather than an in-flight bound).
        let mut sent = 0usize;
        let mut done = 0;
        // One route plan per visit, computed again only when a kill
        // schedule drops the cached one or the health epoch moves.
        let mut route: Option<Arc<RoutePlan>> = None;
        let mut rescan = true;
        while rescan && done < budget && sent < retry.window {
            rescan = false;
            let mut idx = 0usize;
            while idx < tx.frames.len()
                && idx < retry.window
                && done < budget
                && sent < retry.window
            {
                let Frame { seq, attempt, state, retries, rto } = tx.frames[idx];
                match state {
                    // Parked at the receiver; retires via cumulative ack
                    // when the gap ahead of it fills.
                    FrameState::SackHeld => idx += 1,
                    FrameState::Lost { since, .. } | FrameState::AckWait { since } => {
                        if now.saturating_sub(since) < rto {
                            idx += 1;
                            continue;
                        }
                        // A refusal is the receiver's congestion, not a
                        // wire fault: it backs off like a loss but is not
                        // charged to the retry budget.
                        let charged = !matches!(state, FrameState::Lost { refused: true, .. });
                        if charged && retries + 1 > retry.retry_budget {
                            self.kill_channel(ch, tx, DeliveryFault::Timeout, now);
                            return done;
                        }
                        self.ras.retransmits.incr();
                        self.record(ch, RasEventKind::Retransmit, now, seq);
                        tx.set_state(idx, FrameState::Queued);
                        let f = &mut tx.frames[idx];
                        f.retries += charged as u32;
                        f.rto = rto.saturating_mul(2).min(retry.rto_max_ticks);
                        f.attempt += 1;
                        // Same index re-examined: the frame transmits now.
                    }
                    FrameState::Queued => {
                        if route.is_none() || tx.route_epoch != self.health.epoch() {
                            route = self.ensure_route(ch, tx, now);
                        }
                        let Some(plan) = route.as_deref() else {
                            return done;
                        };
                        sent += 1;
                        let (fate, link_died) = self.cross_links(ch, plan, seq, attempt, now);
                        match fate {
                            Fate::Pass => {}
                            Fate::Drop => {
                                self.dropped[ch.src as usize].incr();
                                self.record(ch, RasEventKind::PacketDropped, now, seq);
                            }
                            Fate::Corrupt => {
                                self.ras.crc_errors.incr();
                                self.record(ch, RasEventKind::CrcError, now, seq);
                            }
                        }
                        if fate != Fate::Pass {
                            if link_died {
                                tx.route = None;
                                route = None;
                            }
                            tx.set_state(idx, FrameState::Lost { since: now, refused: false });
                            idx += 1;
                            continue;
                        }
                        let ack = self.ack_crosses(plan, seq, attempt);
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
        match tx.rx.accept(seq) {
            RxVerdict::Deliver => {
                // The data crossed in order, and so did the consecutive run
                // of buffered successors it unblocked.
                let end = tx.deliver_from(ch, idx, idx + 1, now, deposit);
                *done += end - idx;
                if ack {
                    self.retire_through(ch, tx, tx.frames[end - 1].seq);
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
                    tx.set_state(idx, FrameState::Lost { since: now, refused: false });
                    return Arrival::Advance;
                }
                tx.set_state(idx, FrameState::SackHeld);
                // SACK fast retransmit: the selective ack proves later
                // data crossed, so earlier lost frames needn't wait out
                // their RTO. These retransmits are free — they do not
                // count against the retry budget.
                let mut any = false;
                for j in 0..idx {
                    if tx.lost == 0 {
                        break;
                    }
                    if matches!(tx.frames[j].state, FrameState::Lost { .. }) {
                        tx.set_state(j, FrameState::Queued);
                        let f = &mut tx.frames[j];
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
                let state = if ack {
                    FrameState::SackHeld
                } else {
                    FrameState::Lost { since: now, refused: false }
                };
                tx.set_state(idx, state);
                Arrival::Advance
            }
            RxVerdict::Duplicate => {
                // The receiver delivered this data earlier (the ack was
                // lost); the probe re-elicits the cumulative ack.
                tx.set_state(idx, FrameState::AckWait { since: now });
                if ack {
                    let cum = tx.rx.next_expected.wrapping_sub(1);
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
                tx.set_state(idx, FrameState::Lost { since: now, refused: true });
                Arrival::Advance
            }
        }
    }

    /// Retire every frame the cumulative ack through `cum` covers: pop the
    /// queue prefix and credit each message's retired frames to its source
    /// completion counter in one update — the pipeline's completion stage
    /// for queued frames. All popped frames have already been deposited at
    /// the destination.
    fn retire_through(&self, ch: &Channel, tx: &mut TxState, cum: u64) {
        let mut n = 0;
        while let Some(front) = tx.frames.front() {
            if seq_before(cum, front.seq) {
                break;
            }
            // The frame's data was delivered (its seq is behind the
            // receive cursor) even if a probe left it Lost/Queued;
            // only SackHeld frames are still undelivered, and those sit
            // above the cursor by construction.
            debug_assert!(
                front.state != FrameState::SackHeld,
                "cumulative ack never covers a reorder-buffered frame"
            );
            let frame = tx.frames.pop_front().expect("front exists");
            tx.lost -= matches!(frame.state, FrameState::Lost { .. }) as usize;
            n += 1;
        }
        if n == 0 {
            return;
        }
        self.sub_pending(ch.src, n);
        // The popped frames are the oldest queued ones: the unretired
        // prefix of the oldest messages.
        let mut left = n as u64;
        while left > 0 {
            let msg = tx.msgs.front_mut().expect("every queued frame has its message");
            let k = left.min(msg.frames - msg.retired);
            if let Some(c) = &msg.inj_counter {
                c.delivered(msg.credit_of(msg.retired..msg.retired + k));
            }
            msg.retired += k;
            left -= k;
            if msg.retired == msg.frames {
                tx.msgs.pop_front();
            }
        }
    }

    /// Record a RAS event on `ch` at tick `now`.
    fn record(&self, ch: &Channel, kind: RasEventKind, now: u64, detail: u64) {
        self.ring.record(RasEvent { tick: now, kind, src_node: ch.src, dst_node: ch.dst, detail });
    }

    // ---- routes and link crossings ------------------------------------------

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
    /// ids, so replay stays bit-for-bit per seed.
    fn ack_crosses(&self, route: &RoutePlan, seq: u64, attempt: u32) -> bool {
        if !self.clean {
            for &lid in &route.rev_lids {
                // Loss of either kind forces the sender to probe.
                if self.injector.decide(lid, seq, attempt) != Fate::Pass {
                    return false;
                }
            }
        }
        true
    }

    // ---- channel and link life cycle ----------------------------------------

    /// Permanently fail a channel: mark it dead, fail every queued frame's
    /// completion counters with `fault`, and record the RAS event. Pollers
    /// of those counters observe completion-with-fault, never a hang.
    fn kill_channel(&self, ch: &Channel, tx: &mut TxState, fault: DeliveryFault, now: u64) {
        tx.dead = Some(fault);
        let failed: u64 = tx.msgs.iter().map(|m| m.fail(fault)).sum();
        let n = tx.frames.len();
        tx.frames.clear();
        tx.msgs.clear();
        tx.lost = 0;
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
        // Every sequence drawn and not yet delivered when the channel died,
        // or drawn since, failed: the receiver forgets the frames it held
        // and its cursor passes them all.
        tx.rx.held.clear();
        tx.rx.next_expected = tx.next_seq;
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
    use crate::faults::{FaultPlan, RetryConfig};
    use bytes::Bytes;

    #[test]
    fn ras_ring_caps_and_counts_drops() {
        let ring = RasRing::new(3);
        assert_eq!(ring.snapshot().0.len(), 0);
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
            src_context: 0,
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
        let get = Delivery::Get(Box::new(put_desc(Some(rec.clone()))));
        let msg =
            Message::new(0, 1, get, PayloadSource::Immediate(Bytes::new()), 1, Some(inj.clone()));
        assert_eq!(msg.fail(DeliveryFault::Timeout), 2);
        assert_eq!(inj.fault(), Some(DeliveryFault::Timeout));
        assert_eq!(rec.fault(), Some(DeliveryFault::Timeout));
        assert!(inj.is_complete() && rec.is_complete());
        // Idempotent: already-failed counters don't double count.
        assert_eq!(msg.fail(DeliveryFault::Aborted), 0);
    }

    fn reliability(nodes: u16) -> Reliability {
        reliability_under(nodes, FaultPlan::new())
    }

    fn reliability_under(nodes: u16, plan: FaultPlan) -> Reliability {
        let shape = TorusShape::new([nodes, 1, 1, 1, 1]);
        let upc = Upc::new();
        Reliability::new(
            FaultInjector::new(plan, shape),
            shape,
            Arc::new(RasCounters::new(&upc)),
            Arc::new(RasRing::new(16)),
            (0..nodes).map(|_| upc.counter("mu.packets_dropped")).collect(),
        )
    }

    /// A `len`-byte put from sequence `base_seq` on: one frame per 512
    /// bytes.
    fn put_msg(
        base_seq: u64,
        len: usize,
        inj: Option<HwCounter>,
        rec: Option<HwCounter>,
    ) -> Message {
        let frames = bgq_torus::packet::packets_for(len) as u64;
        let put =
            Delivery::Put { dst_region: MemRegion::zeroed(len), dst_offset: 0, rec_counter: rec };
        let payload = PayloadSource::Immediate(Bytes::from(vec![7; len]));
        Message::new(base_seq, frames, put, payload, len as u64, inj)
    }

    /// Take down the deterministic route's first link out of node 0.
    fn down_first_link(r: &Reliability) {
        let dir = bgq_torus::det_route(r.shape, r.shape.coords_of(0), r.shape.coords_of(1))[0];
        assert!(r.set_link(0, dir, false));
    }

    #[test]
    fn channel_table_rows_fallback_above_flat_threshold() {
        // One table for every machine size: a row per source, allocated on
        // its first channel. Checked at the smallest machine and at one
        // past where a dense n² table used to stop.
        for n in [2u32, 136] {
            let r = reliability(n as u16);
            let a = r.channel(0, n - 1);
            let b = r.channel(0, n - 1);
            assert!(std::ptr::eq(a, b), "channel is created once");
            assert_eq!((a.src, a.dst), (0, n - 1));
            assert_eq!(r.channels_of(0).count(), 1);
            assert_eq!(r.channels_of(1).count(), 0);
            assert!(r.channels[1].get().is_none(), "an idle source has no row");
        }
    }

    #[test]
    fn clean_plan_admits_through_until_a_backlog_or_a_dead_link() {
        let r = reliability(2);
        let ch = r.channel(0, 1);
        assert!(std::ptr::eq(ch, r.channel(0, 1)), "channel is created once");
        assert_eq!(r.channels_of(0).count(), 1);
        assert_eq!(r.channels_of(1).count(), 0);
        // Zero dice to roll: straight through, numbers drawn in order, and
        // the channel unlocked again.
        let shape = |a: Admit| (a.base_seq, a.through, a.held.is_some());
        assert_eq!(shape(r.admit(ch, 3)), (0, 3, false));
        assert_eq!(shape(r.admit(ch, 1)), (3, 1, false));
        assert_eq!(ch.tx.lock().rx.next_expected, 4, "the cursor passed every frame");
        assert!(r.idle(0));
        // A down link anywhere sends everything to the queue, which needs
        // the pump (and a reroute) to move.
        down_first_link(&r);
        let admit = r.admit(ch, 2);
        assert_eq!(admit.through, 0, "a down link must queue");
        assert_eq!(admit.base_seq, 4, "queued or not, one sequence space");
        assert!(ch.tx.try_lock().is_none(), "held back, the channel stays locked");
        let deposited = std::cell::Cell::new(0);
        let msg = put_msg(admit.base_seq, 1024, None, None);
        r.enqueue(ch, admit, msg, &|_, _, frames| {
            deposited.set(deposited.get() + frames.end - frames.start)
        });
        assert_eq!(deposited.get(), 2, "enqueue pumps: the detour delivers at once");
        assert!(r.idle(0), "both frames acked and retired");
        assert!(ch.tx.lock().frames.is_empty());
    }

    #[test]
    fn retransmit_queue_wraps_the_sequence_space() {
        // A 4-frame message numbered across the wrap of the u64 sequence
        // space, queued behind a down link: it must keep its order, land
        // every frame once and credit its counter exactly.
        let r = reliability(2);
        let ch = r.channel(0, 1);
        let start = u64::MAX - 2;
        {
            let mut tx = ch.tx.lock();
            tx.next_seq = start;
            tx.rx.next_expected = start;
        }
        down_first_link(&r);
        let admit = r.admit(ch, 4);
        assert_eq!((admit.base_seq, admit.through), (start, 0));
        let inj = HwCounter::new();
        inj.add_expected(2048);
        let seqs = std::cell::RefCell::new(Vec::new());
        let msg = put_msg(start, 2048, Some(inj.clone()), None);
        r.enqueue(ch, admit, msg, &|_, m, frames| {
            seqs.borrow_mut().extend(frames.map(|i| m.seq(i)))
        });
        assert_eq!(*seqs.borrow(), [u64::MAX - 2, u64::MAX - 1, u64::MAX, 0]);
        assert!(inj.is_ok() && inj.outstanding() == 0, "credited exactly once, in full");
        assert!(r.idle(0));
        assert_eq!(ch.tx.lock().rx.next_expected, 1);
    }

    /// A plan under which, on the 0 → 1 channel, the forward die of
    /// sequence `lost` fails at attempt 0 and every other die of
    /// `from..from + 6` passes at attempts 0 and 1: the earliest such seed
    /// from 1 up.
    fn plan_losing_once(from: u64, lost: u64) -> FaultPlan {
        let shape = TorusShape::new([2, 1, 1, 1, 1]);
        let route = bgq_torus::det_route(shape, shape.coords_of(0), shape.coords_of(1));
        let (fwd, rev) = (link_id(0, route[0]), link_id(1, route[0].reverse()));
        (1..)
            .map(|seed| FaultPlan::new().seed(seed).drop_rate(0.2))
            .find(|plan| {
                let dice = FaultInjector::new(plan.clone(), shape);
                let passes = |lid, seq, attempt| dice.decide(lid, seq, attempt) == Fate::Pass;
                (from..from + 6).all(|seq| {
                    (0..2).all(|attempt| {
                        let lost_here = seq == lost && attempt == 0;
                        passes(fwd, seq, attempt) != lost_here && passes(rev, seq, attempt)
                    })
                })
            })
            .expect("some seed loses exactly that die")
    }

    #[test]
    fn a_refused_frame_is_not_charged_to_the_retry_budget() {
        // A 6-frame put from sequence 10 on, behind a one-frame reorder
        // buffer with no retry budget at all. Frame 10 is lost; 11 parks
        // in the buffer and SACK-retransmits 10 for free; 12..16 arrive
        // too far ahead and are refused. The wire lost one frame and the
        // SACK recovered it, so the refusals' retransmits must not kill
        // the channel: every frame lands once and the counter completes.
        let retry = RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 8, retry_budget: 0 };
        let plan = plan_losing_once(10, 10).retry(retry).reorder_capacity(1);
        let r = reliability_under(2, plan);
        let ch = r.channel(0, 1);
        {
            let mut tx = ch.tx.lock();
            tx.next_seq = 10;
            tx.rx.next_expected = 10;
        }
        let landed = std::cell::RefCell::new(vec![0u32; 16]);
        let land = |_: &Channel, m: &Message, frames: Range<u64>| {
            frames.for_each(|i| landed.borrow_mut()[m.seq(i) as usize] += 1);
        };
        let inj = HwCounter::new();
        inj.add_expected(3072);
        let admit = r.admit(ch, 6);
        assert_eq!((admit.base_seq, admit.through), (10, 0), "frame 10's die fails");
        r.enqueue(ch, admit, put_msg(10, 3072, Some(inj.clone()), None), &land);
        while !r.idle(0) {
            r.pump(0, usize::MAX, &land);
        }
        assert_eq!(ch.tx.lock().dead, None, "refusals alone never exhaust the budget");
        assert_eq!(landed.borrow()[10..], [1; 6], "every frame, once");
        assert!(inj.is_ok() && inj.outstanding() == 0);
        let (events, _) = r.ring.snapshot();
        let count = |kind| events.iter().filter(|e| e.kind == kind).count();
        assert_eq!(count(RasEventKind::SackRetransmit), 1);
        assert_eq!(count(RasEventKind::ReorderEvict), 4, "12..16 refused once each");
    }

    #[test]
    fn a_message_retired_across_several_acks_credits_exactly_its_bytes() {
        // Behind a down link each frame crosses and retires on its own
        // cumulative ack: three partial credits that sum to the message.
        let r = reliability(2);
        let ch = r.channel(0, 1);
        down_first_link(&r);
        let admit = r.admit(ch, 3);
        let inj = HwCounter::new();
        inj.add_expected(1300);
        let seen = std::cell::RefCell::new(Vec::new());
        let msg = put_msg(admit.base_seq, 1300, Some(inj.clone()), None);
        r.enqueue(ch, admit, msg, &|_, _, _| seen.borrow_mut().push(inj.outstanding()));
        assert_eq!(*seen.borrow(), [1300, 788, 276], "outstanding at each frame's deposit");
        assert!(inj.is_ok() && inj.outstanding() == 0);
        assert!(r.channel(0, 1).tx.lock().msgs.is_empty(), "the message left with its last frame");
    }

    #[test]
    fn a_kill_fails_each_counter_once() {
        // Two queued puts share one source counter and have a destination
        // counter each; the channel dies with frames of both queued.
        let retry = RetryConfig { window: 64, rto_ticks: 1, rto_max_ticks: 2, retry_budget: 8 };
        let r = reliability_under(2, FaultPlan::new().seed(5).drop_rate(1.0).retry(retry));
        let ch = r.channel(0, 1);
        let inj = HwCounter::new();
        let recs = [HwCounter::new(), HwCounter::new()];
        for rec in &recs {
            inj.add_expected(1024);
            rec.add_expected(1024);
            let admit = r.admit(ch, 2);
            assert_eq!(admit.through, 0, "every die fails");
            let msg = put_msg(admit.base_seq, 1024, Some(inj.clone()), Some(rec.clone()));
            r.enqueue(ch, admit, msg, &|_, _, _| panic!("nothing crosses"));
        }
        assert_eq!(ch.tx.lock().frames.len(), 4);
        // No route left: the next retransmission finds the destination
        // unreachable.
        for dim_plus in [true, false] {
            r.set_link(0, Dir { dim: bgq_torus::Dim::A, plus: dim_plus }, false);
        }
        while !r.idle(0) {
            r.pump(0, usize::MAX, &|_, _, _| panic!("nothing crosses"));
        }
        assert_eq!(inj.fault(), Some(DeliveryFault::Unreachable));
        assert!(recs.iter().all(|rec| rec.fault() == Some(DeliveryFault::Unreachable)));
        if cfg!(feature = "telemetry") {
            assert_eq!(r.ras.delivery_failures.value(), 3, "counters, not frames or messages");
        }
        let (events, _) = r.ring.snapshot();
        let failures = events.iter().filter(|e| e.kind == RasEventKind::DeliveryFailure);
        assert_eq!(failures.count(), 1, "one channel death");
    }

    /// A plan under which, of the first 32 frames of the 0 → 1 channel at
    /// attempt 0, exactly one die fails: the forward die of frame `k < 31`,
    /// whose second attempt then crosses with its ack. The earliest such
    /// seed from 1 up, and its `k`.
    fn plan_losing_only_window() -> (FaultPlan, u64) {
        let shape = TorusShape::new([2, 1, 1, 1, 1]);
        let route = bgq_torus::det_route(shape, shape.coords_of(0), shape.coords_of(1));
        let fwd = link_id(0, route[0]);
        let rev = link_id(1, route[0].reverse());
        (1..)
            .find_map(|seed| {
                let plan = FaultPlan::new().seed(seed).drop_rate(0.01).corrupt_rate(0.01);
                let dice = FaultInjector::new(plan.clone(), shape);
                let lost = |lid, seq, attempt| dice.decide(lid, seq, attempt) != Fate::Pass;
                let fwd_lost: Vec<u64> = (0..32).filter(|&seq| lost(fwd, seq, 0)).collect();
                let k = *fwd_lost.first()?;
                let clean = fwd_lost.len() == 1
                    && k < 31
                    && (0..32).all(|seq| !lost(rev, seq, 0))
                    && !lost(fwd, k, 1)
                    && !lost(rev, k, 1);
                clean.then_some((plan, k))
            })
            .expect("some seed loses exactly one window")
    }

    #[test]
    fn a_queued_put_tail_lands_as_one_deposit() {
        // Window k of a 32-window put is lost on its way out; the windows
        // after it cross and wait in the reorder buffer, and the SACK
        // retransmit of k releases all of them: one deposit of 32 − k
        // frames, not 32 − k deposits.
        let (plan, k) = plan_losing_only_window();
        let r = reliability_under(2, plan);
        let ch = r.channel(0, 1);
        let admit = r.admit(ch, 32);
        assert_eq!((admit.base_seq, admit.through), (0, k), "the windows ahead of k cross");
        let (inj, rec) = (HwCounter::new(), HwCounter::new());
        inj.add_expected(16 * 1024);
        let calls = std::cell::RefCell::new(Vec::new());
        let msg = put_msg(0, 16 * 1024, Some(inj.clone()), Some(rec));
        r.enqueue(ch, admit, msg, &|_, _, frames| {
            calls.borrow_mut().push((frames.start, frames.end))
        });
        assert_eq!(*calls.borrow(), [(k, 32)], "frames k..32 in one call");
        assert_eq!(inj.outstanding(), k * 512, "acks credit the queued frames, not the prefix");
        assert!(r.idle(0));
        let (events, _) = r.ring.snapshot();
        let count = |kind| events.iter().filter(|e| e.kind == kind).count();
        let losses = count(RasEventKind::PacketDropped) + count(RasEventKind::CrcError);
        assert_eq!((losses, count(RasEventKind::SackRetransmit)), (1, 1));
        assert_eq!(count(RasEventKind::Retransmit), 0, "no RTO fired");
        if cfg!(feature = "telemetry") {
            assert_eq!(r.ras.reorder_depth.value(), 32 - k - 1);
            assert_eq!(r.ras.sack_retransmits.value(), 1);
        }
    }
}
