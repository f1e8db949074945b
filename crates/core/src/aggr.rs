//! `pami::aggr` — destination-aware small-message aggregation.
//!
//! The paper's own accounting says per-message *software* overhead, not
//! wire bytes, bounds fine-grained message rate: every small send pays one
//! header, one injection, one packet, one reception-FIFO pop. This module
//! amortizes that cost the way TRAM and combining networks do — merge
//! traffic that shares a path. Sends below the aggregation cutoff destined
//! for the same endpoint append into a per-destination *coalescing bucket*;
//! a full bucket (or an aged or explicitly flushed one) is injected as one
//! multi-message MU packet train ([`bgq_mu::batch`]) under the internal
//! `DISPATCH_AGGR` dispatch id. The receiving context
//! unbatches and dispatches each record through its handler memo.
//!
//! Correctness invariants, argued in DESIGN.md §15:
//!
//! * **Per-(src,dst) ordering** — a bucket's frame travels the same
//!   message-id lane (and, under a fault plan, the same selective-repeat
//!   channel) as direct sends to that destination, and the send path
//!   *conflict-flushes* a destination's bucket before any non-aggregated
//!   send to it, so records never overtake or lag neighbouring traffic.
//!   Frame cut order is frame injection order: emission runs under the
//!   aggregator lock.
//! * **Exactly-once under faults** — a frame is one message (a short-tier
//!   packet when it fits, an eager train reassembled before unbatching
//!   otherwise); the reliability layer retransmits or fails *frames*,
//!   never records, and unbatching is deterministic, so each record is
//!   delivered exactly once iff its frame is.
//!
//! Flush policy (the state machine): a bucket opens on first append and is
//! cut by whichever trigger fires first — **fill** (the frame's byte budget
//! is reached), **age** (the oldest record has waited `age_us` on the
//! advance clock), **explicit** ([`crate::Context::flush_aggr`]), or
//! **conflict** (a non-aggregated send targets the bucket's destination).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use bgq_mu::batch;
use bgq_upc::{Histogram, Upc};
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::endpoint::Endpoint;

/// Aggregation-layer tuning. Installed machine-wide with
/// [`crate::MachineBuilder::aggregation`]; every context then owns one
/// `Aggregator`.
#[derive(Debug, Clone, Copy)]
pub struct AggrConfig {
    /// Payloads at or below this many bytes aggregate: the bottom rung of
    /// the machine's [`crate::StaticPolicy`] ladder. Default 128 — the
    /// short-tier cutoff.
    pub cutoff: usize,
    /// Frame payload budget in bytes, 64 ..= one short-tier packet
    /// ([`bgq_torus::packet::MAX_PAYLOAD_BYTES`], the default): a frame
    /// rides the short tier whole. [`crate::MachineBuilder::aggregation`]
    /// rejects anything larger — multi-packet frames lost more to the eager
    /// train's per-packet cost than they won back in batch depth
    /// (EXPERIMENTS.md) and were removed.
    pub max_frame: usize,
    /// Age bound: the oldest buffered record waits at most this many
    /// microseconds before `advance` cuts the bucket. A liveness bound for
    /// straggler records, not a latency promise — latency-sensitive small
    /// sends belong on the short tier (a machine built without
    /// aggregation). Default 100 µs: tight enough
    /// that a stalled stream drains within the advance cadence, loose
    /// enough that a flood's buckets cut on fill, not on the clock (a
    /// lapsing deadline also knocks every advance off its idle fast path).
    pub age_us: u64,
    /// Bucket by destination *node* instead of destination endpoint:
    /// frames land on the node's lead context, which dispatches its own
    /// records inline and fans the rest out over the node's shared-memory
    /// mailboxes. Fewer, fuller buckets (the TRAM intermediate-bucket
    /// shape) at the price of one mailbox hop for non-lead records and a
    /// weaker ordering story (see DESIGN.md §15). Default off.
    pub node_buckets: bool,
}

impl Default for AggrConfig {
    fn default() -> Self {
        AggrConfig { cutoff: 128, max_frame: 512, age_us: 100, node_buckets: false }
    }
}

/// Why a bucket was cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushCause {
    /// The frame byte budget was reached.
    Fill,
    /// The age bound expired on the advance clock.
    Age,
    /// [`crate::Context::flush_aggr`] was called.
    Explicit,
    /// A non-aggregated send targeted the bucket's destination and must
    /// not overtake the buffered records.
    Conflict,
}

/// A cut bucket, ready to inject: one short-tier packet train.
pub(crate) struct Frame {
    /// Destination endpoint of the frame itself (the bucket key; in
    /// node-bucket mode, the node's lead endpoint).
    pub dest: Endpoint,
    /// Number of records in the payload.
    pub count: u16,
    /// Packed record train ([`bgq_mu::batch`] layout).
    pub payload: Bytes,
    /// Why the bucket was cut. Counted into `aggr.flush_*` at cut time;
    /// kept on the frame for tests and future per-cause emit decisions.
    #[allow(dead_code)]
    pub cause: FlushCause,
}

struct Bucket {
    buf: BytesMut,
    count: u16,
    /// Aggregator-clock ns when the first record landed — the age-bound
    /// reference and the added-latency measurement origin.
    opened_ns: u64,
}

/// Bucket-map hasher: one multiply-mix per written word. The keys are peer
/// endpoints — small, trusted, already well-distributed — so SipHash's
/// flood resistance buys nothing here while its setup cost lands on every
/// aggregated send.
#[derive(Default)]
struct EndpointHasher(u64);

impl EndpointHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for EndpointHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Fold the multiply's high-bit entropy back down: hashbrown takes
        // both its group index and control byte from this word.
        self.0 ^ (self.0 >> 29)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }
}

struct AggrState {
    /// Open buckets, keyed by frame destination endpoint.
    buckets: HashMap<Endpoint, Bucket, BuildHasherDefault<EndpointHasher>>,
}

/// `aggr.*` telemetry. Zero-sized no-ops with the `telemetry` feature off.
pub(crate) struct AggrProbes {
    /// Records appended into buckets (send side).
    pub batched: bgq_upc::Counter,
    /// Frames cut (mean batch size = `aggr.batched_msgs / aggr.frames`).
    pub frames: bgq_upc::Counter,
    /// Frame payload bytes cut.
    pub frame_bytes: bgq_upc::Counter,
    /// Flushes by cause.
    pub flush_fill: bgq_upc::Counter,
    pub flush_age: bgq_upc::Counter,
    pub flush_explicit: bgq_upc::Counter,
    pub flush_conflict: bgq_upc::Counter,
    /// Records that arrived in frames and were dispatched (receive side).
    pub unbatched: bgq_upc::Counter,
    /// Node-bucket records forwarded to a sibling context's mailbox.
    pub forwarded: bgq_upc::Counter,
    /// Eligible sends whose record would not fit a frame (oversize
    /// metadata); they fall back to the direct short path.
    pub oversize: bgq_upc::Counter,
    /// Sender-side latency a flush adds to its *oldest* record: bucket
    /// open → cut. The rate-vs-latency tradeoff, measured.
    pub added_latency_ns: Histogram,
}

impl AggrProbes {
    fn new(upc: &Upc) -> AggrProbes {
        AggrProbes {
            batched: upc.counter("aggr.batched_msgs"),
            frames: upc.counter("aggr.frames"),
            frame_bytes: upc.counter("aggr.frame_bytes"),
            flush_fill: upc.counter("aggr.flush_fill"),
            flush_age: upc.counter("aggr.flush_age"),
            flush_explicit: upc.counter("aggr.flush_explicit"),
            flush_conflict: upc.counter("aggr.flush_conflict"),
            unbatched: upc.counter("aggr.unbatched"),
            forwarded: upc.counter("aggr.forwarded"),
            oversize: upc.counter("aggr.oversize_fallback"),
            added_latency_ns: upc.histogram("aggr.added_latency_ns"),
        }
    }
}

/// Per-context aggregation state: the coalescing buckets plus their flush
/// machinery. Appends and flushes serialize on one mutex; frame *emission*
/// runs under it too (the `emit` callbacks), so frames cut for one
/// destination are injected in cut order — the ordering argument needs
/// nothing else from callers.
pub(crate) struct Aggregator {
    cfg: AggrConfig,
    /// `cfg.age_us`, pre-scaled to ns.
    age_ns: u64,
    /// Clock origin: bucket-open times and deadlines are ns since here.
    epoch: Instant,
    state: Mutex<AggrState>,
    /// Buffered records across all buckets. Read lock-free by the advance
    /// fast path and quiescence probes.
    pending: AtomicUsize,
    /// Earliest open bucket's age deadline (aggregator-clock ns),
    /// `u64::MAX` when nothing is buffered. Only mutated under the state
    /// lock. May run *early* — a fill/conflict cut leaves it stale until
    /// the next `flush_due` recomputes — but never late: every bucket open
    /// min-merges its deadline in. Read lock-free by [`Aggregator::due_now`].
    deadline_ns: AtomicU64,
    /// Cut counter driving the 1-in-16 latency-histogram sample. Only
    /// touched under the state lock.
    lat_tick: AtomicU64,
    pub(crate) probes: AggrProbes,
}

impl Aggregator {
    pub(crate) fn new(cfg: AggrConfig, upc: &Upc) -> Aggregator {
        Aggregator {
            cfg,
            age_ns: cfg.age_us.saturating_mul(1000),
            epoch: Instant::now(),
            state: Mutex::new(AggrState { buckets: HashMap::default() }),
            pending: AtomicUsize::new(0),
            deadline_ns: AtomicU64::new(u64::MAX),
            lat_tick: AtomicU64::new(0),
            probes: AggrProbes::new(upc),
        }
    }

    pub(crate) fn config(&self) -> &AggrConfig {
        &self.cfg
    }

    /// Buffered records across all buckets (lock-free).
    #[inline]
    pub(crate) fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Whether the advance clock owes this aggregator an age flush:
    /// records are buffered and the earliest deadline has lapsed. One
    /// atomic load plus one clock read; the idle case (`pending == 0`)
    /// skips the clock entirely, which is what keeps a context with a
    /// quiet aggregator on its advance fast path.
    #[inline]
    pub(crate) fn due_now(&self) -> bool {
        self.pending.load(Ordering::Acquire) > 0
            && self.now_ns() >= self.deadline_ns.load(Ordering::Relaxed)
    }

    fn fresh_bucket(&self) -> Bucket {
        Bucket { buf: BytesMut::with_capacity(self.cfg.max_frame), count: 0, opened_ns: 0 }
    }

    /// Whether a record of this shape can ride a frame at all.
    #[inline]
    pub(crate) fn record_fits(&self, meta_len: usize, payload_len: usize) -> bool {
        batch::record_size(self.cfg.node_buckets, meta_len, payload_len) <= self.cfg.max_frame
    }

    fn cut(&self, bucket: &mut Bucket, dest: Endpoint, cause: FlushCause) -> Frame {
        // The bucket keeps its buffer: the frame is its one copy.
        let count = std::mem::take(&mut bucket.count);
        let payload = Bytes::copy_from_slice(&bucket.buf);
        bucket.buf.clear();
        // Same single-writer-under-lock pattern as `append`.
        self.pending
            .store(self.pending.load(Ordering::Relaxed) - count as usize, Ordering::Release);
        self.probes.frames.incr();
        self.probes.frame_bytes.add(payload.len() as u64);
        // One striped-counter add per frame instead of one per record: the
        // count is exact once every open bucket has been flushed, which is
        // the only point (post-drain) the benches and tests read it.
        self.probes.batched.add(u64::from(count));
        match cause {
            FlushCause::Fill => self.probes.flush_fill.incr(),
            FlushCause::Age => self.probes.flush_age.incr(),
            FlushCause::Explicit => self.probes.flush_explicit.incr(),
            FlushCause::Conflict => self.probes.flush_conflict.incr(),
        }
        if bgq_upc::ENABLED {
            // Sampled 1-in-16: the histogram is statistical, and the clock
            // read it needs is a measurable slice of the per-frame cut cost.
            // All cut callers hold the state lock, so the plain load+store
            // tick is race-free.
            let tick = self.lat_tick.load(Ordering::Relaxed);
            self.lat_tick.store(tick.wrapping_add(1), Ordering::Relaxed);
            if tick & 15 == 0 {
                self.probes.added_latency_ns.record(self.now_ns().saturating_sub(bucket.opened_ns));
            }
        }
        Frame { dest, count, payload, cause }
    }

    /// Append one record to `key`'s bucket, emitting any frame the append
    /// cuts (the bucket that could not fit the record, and/or the bucket
    /// the record filled to the brim). `dest` is the record's own endpoint
    /// — recorded per record only in node-bucket (addressed) mode. Returns
    /// whether this append *opened* a bucket (started a fresh age
    /// deadline) — the caller's cue to wake a parked commthread;
    /// subsequent appends move no deadline and need no wakeup.
    ///
    /// The caller must have checked [`Aggregator::record_fits`].
    pub(crate) fn append(
        &self,
        key: Endpoint,
        dest: Endpoint,
        dispatch: u16,
        metadata: &[u8],
        payload: &[u8],
        mut emit: impl FnMut(Frame),
    ) -> bool {
        let addressed = self.cfg.node_buckets;
        let rec = batch::record_size(addressed, metadata.len(), payload.len());
        let mut st = self.state.lock();
        let bucket = st.buckets.entry(key).or_insert_with(|| self.fresh_bucket());
        if bucket.buf.len() + rec > self.cfg.max_frame {
            let frame = self.cut(bucket, key, FlushCause::Fill);
            emit(frame);
        }
        let opened = bucket.count == 0;
        if opened {
            // Bucket open: start the age clock and pull the shared
            // deadline down to it (still under the state lock, so the
            // lock-free readers only ever see at-or-before-true values).
            bucket.opened_ns = self.now_ns();
            self.deadline_ns.fetch_min(bucket.opened_ns + self.age_ns, Ordering::Release);
        }
        batch::push_record(
            &mut bucket.buf,
            addressed.then_some((dest.task, dest.context)),
            dispatch,
            metadata,
            payload,
        );
        bucket.count += 1;
        // Writers of `pending` all hold the state lock, so a plain
        // load+store publishes without the locked-RMW round trip; lock-free
        // readers (flush_conflict, quiescence) still see a release-ordered
        // value.
        self.pending.store(self.pending.load(Ordering::Relaxed) + 1, Ordering::Release);
        // No record smaller than the bare header fits any more: cut now
        // instead of waiting for the age bound.
        if bucket.buf.len() + batch::record_size(addressed, 0, 0) > self.cfg.max_frame {
            let frame = self.cut(bucket, key, FlushCause::Fill);
            emit(frame);
        }
        opened
    }

    /// Cut `key`'s bucket, if open, before a non-aggregated send to the
    /// same destination (ordering). Returns whether a frame was emitted.
    pub(crate) fn flush_conflict(&self, key: Endpoint, mut emit: impl FnMut(Frame)) -> bool {
        if self.pending() == 0 {
            return false;
        }
        let mut st = self.state.lock();
        match st.buckets.get_mut(&key) {
            Some(bucket) if bucket.count > 0 => {
                let frame = self.cut(bucket, key, FlushCause::Conflict);
                emit(frame);
                true
            }
            _ => false,
        }
    }

    /// Cut every bucket whose oldest record has aged past the bound, in
    /// destination order. Recomputes the shared age deadline over whatever
    /// stays open — which also heals the stale-early value fill/conflict
    /// cuts leave behind. Returns frames emitted.
    pub(crate) fn flush_due(&self, mut emit: impl FnMut(Frame)) -> usize {
        if self.pending() == 0 {
            return 0;
        }
        let now = self.now_ns();
        let mut st = self.state.lock();
        let mut due: Vec<Endpoint> = st
            .buckets
            .iter()
            .filter(|(_, b)| b.count > 0 && now.saturating_sub(b.opened_ns) >= self.age_ns)
            .map(|(&k, _)| k)
            .collect();
        due.sort_unstable();
        let mut emitted = 0;
        for key in due {
            // Cut-and-remove: an idle destination should not keep a map
            // entry (or its buffer) alive forever.
            if let Some(mut bucket) = st.buckets.remove(&key) {
                let frame = self.cut(&mut bucket, key, FlushCause::Age);
                emit(frame);
                emitted += 1;
            }
        }
        let next = st
            .buckets
            .values()
            .filter(|b| b.count > 0)
            .map(|b| b.opened_ns + self.age_ns)
            .min()
            .unwrap_or(u64::MAX);
        self.deadline_ns.store(next, Ordering::Release);
        emitted
    }

    /// Cut every open bucket now ([`crate::Context::flush_aggr`]), in
    /// destination order.
    pub(crate) fn flush_all(&self, mut emit: impl FnMut(Frame)) -> usize {
        if self.pending() == 0 {
            return 0;
        }
        let mut st = self.state.lock();
        let mut keys: Vec<Endpoint> =
            st.buckets.iter().filter(|(_, b)| b.count > 0).map(|(&k, _)| k).collect();
        keys.sort_unstable();
        let mut emitted = 0;
        for key in keys {
            if let Some(mut bucket) = st.buckets.remove(&key) {
                let frame = self.cut(&mut bucket, key, FlushCause::Explicit);
                emit(frame);
                emitted += 1;
            }
        }
        self.deadline_ns.store(u64::MAX, Ordering::Release);
        emitted
    }
}

/// Frame header carried as the frame packet's metadata: record
/// count (u16 LE) + addressing mode (u8, 1 = node-bucket records carry
/// their own endpoint).
pub(crate) fn frame_header(count: u16, addressed: bool) -> [u8; 3] {
    let c = count.to_le_bytes();
    [c[0], c[1], addressed as u8]
}

/// Parse a frame header back into (count, addressed).
pub(crate) fn open_frame_header(body: &[u8]) -> (u16, bool) {
    assert!(body.len() >= 3, "malformed aggregated-frame header");
    (u16::from_le_bytes([body[0], body[1]]), body[2] != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_mu::batch::{walk_records, RecordView};

    fn ep(task: u32) -> Endpoint {
        Endpoint { task, context: 0 }
    }

    /// `f` of every record of `frame`, decoded by the receive path's walker.
    fn walk<T>(frame: &Frame, addressed: bool, f: impl Fn(RecordView) -> T) -> Vec<T> {
        let mut out = Vec::new();
        walk_records(&frame.payload, frame.count, addressed, |r| out.push(f(r)));
        out
    }

    #[test]
    fn frame_header_round_trips() {
        assert_eq!(open_frame_header(&frame_header(7, false)), (7, false));
        assert_eq!(open_frame_header(&frame_header(65535, true)), (65535, true));
    }

    #[test]
    fn append_cuts_on_fill() {
        let upc = Upc::new();
        let a = Aggregator::new(
            AggrConfig { cutoff: 64, max_frame: 100, age_us: 1000, node_buckets: false },
            &upc,
        );
        let mut frames = Vec::new();
        // 6-byte header + 24-byte payload = 30 bytes/record: the 4th
        // append (120 > 100) cuts the first three.
        for i in 0..4u8 {
            a.append(ep(1), ep(1), 5, b"", &[i; 24], |f| frames.push(f));
        }
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].count, 3);
        assert_eq!(frames[0].cause, FlushCause::Fill);
        assert_eq!(a.pending(), 1, "the record that forced the cut stays buffered");
        let payloads = walk(&frames[0], false, |r| r.payload.to_vec());
        assert_eq!(payloads.len(), 3);
        assert_eq!(payloads[2], [2u8; 24]);
    }

    #[test]
    fn exact_fill_cuts_immediately() {
        let upc = Upc::new();
        let a = Aggregator::new(
            AggrConfig { cutoff: 64, max_frame: 60, age_us: 1000, node_buckets: false },
            &upc,
        );
        let mut frames = Vec::new();
        // Two 30-byte records fill the 60-byte frame to the brim: the
        // second append cuts without waiting for a third.
        a.append(ep(1), ep(1), 5, b"", &[0; 24], |f| frames.push(f));
        assert!(frames.is_empty());
        a.append(ep(1), ep(1), 5, b"", &[1; 24], |f| frames.push(f));
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].count, 2);
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn conflict_flush_targets_one_bucket() {
        let upc = Upc::new();
        let a = Aggregator::new(AggrConfig::default(), &upc);
        let mut frames = Vec::new();
        a.append(ep(1), ep(1), 5, b"", b"aa", |f| frames.push(f));
        a.append(ep(2), ep(2), 5, b"", b"bb", |f| frames.push(f));
        assert!(a.flush_conflict(ep(1), |f| frames.push(f)));
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].dest, ep(1));
        assert_eq!(frames[0].cause, FlushCause::Conflict);
        assert_eq!(a.pending(), 1, "destination 2's bucket is untouched");
        assert!(!a.flush_conflict(ep(1), |_| panic!("nothing left for dest 1")));
    }

    #[test]
    fn age_flush_respects_bound_and_orders_by_destination() {
        let upc = Upc::new();
        let a = Aggregator::new(
            AggrConfig { cutoff: 64, max_frame: 512, age_us: 0, node_buckets: false },
            &upc,
        );
        let mut frames = Vec::new();
        // age_us = 0: everything is due at once, and leaves in endpoint
        // order whatever the append order.
        a.append(ep(3), ep(3), 5, b"", b"x", |f| frames.push(f));
        a.append(ep(1), ep(1), 5, b"", b"y", |f| frames.push(f));
        let n = a.flush_due(|f| frames.push(f));
        assert_eq!(n, 2);
        assert_eq!(frames[0].dest, ep(1), "lower endpoint first");
        assert_eq!(frames[1].dest, ep(3));
        assert!(frames.iter().all(|f| f.cause == FlushCause::Age));
        assert_eq!(a.pending(), 0);
        // A long bound keeps fresh records buffered.
        let a = Aggregator::new(
            AggrConfig { age_us: 10_000_000, ..AggrConfig::default() },
            &upc,
        );
        a.append(ep(1), ep(1), 5, b"", b"z", |_| panic!("no cut on append"));
        assert_eq!(a.flush_due(|_| panic!("not due yet")), 0);
        assert_eq!(a.pending(), 1);
    }

    #[test]
    fn due_now_tracks_the_age_deadline() {
        let upc = Upc::new();
        let a = Aggregator::new(
            AggrConfig { age_us: 10_000_000, ..AggrConfig::default() },
            &upc,
        );
        assert!(!a.due_now(), "nothing buffered");
        let opened = a.append(ep(1), ep(1), 5, b"", b"x", |_| panic!("no cut"));
        assert!(opened, "first record opens the bucket");
        let opened = a.append(ep(1), ep(1), 5, b"", b"y", |_| panic!("no cut"));
        assert!(!opened, "second record rides the open bucket");
        assert!(!a.due_now(), "deadline far in the future");
        let a = Aggregator::new(AggrConfig { age_us: 0, ..AggrConfig::default() }, &upc);
        a.append(ep(1), ep(1), 5, b"", b"x", |_| panic!("no cut"));
        assert!(a.due_now(), "a zero age bound is immediately due");
        let mut frames = Vec::new();
        a.flush_due(|f| frames.push(f));
        assert_eq!(frames.len(), 1);
        assert!(!a.due_now(), "drained");
    }

    #[test]
    fn flush_all_drains_everything() {
        let upc = Upc::new();
        let a = Aggregator::new(AggrConfig::default(), &upc);
        let mut frames = Vec::new();
        for t in 0..5u32 {
            a.append(ep(t), ep(t), 2, b"m", b"pp", |f| frames.push(f));
        }
        assert_eq!(a.flush_all(|f| frames.push(f)), 5);
        assert_eq!(frames.len(), 5);
        assert!(frames.iter().all(|f| f.count == 1 && f.cause == FlushCause::Explicit));
        assert_eq!(a.pending(), 0);
        assert_eq!(a.flush_all(|_| panic!("already empty")), 0);
    }

    #[test]
    fn node_bucket_records_carry_addresses() {
        let upc = Upc::new();
        let a = Aggregator::new(AggrConfig { node_buckets: true, ..Default::default() }, &upc);
        let lead = ep(4);
        let mut frames = Vec::new();
        a.append(lead, Endpoint { task: 4, context: 1 }, 9, b"", b"one", |f| frames.push(f));
        a.append(lead, Endpoint { task: 5, context: 0 }, 9, b"", b"two", |f| frames.push(f));
        a.flush_all(|f| frames.push(f));
        assert_eq!(frames.len(), 1);
        assert_eq!(walk(&frames[0], true, |r| r.dest), [Some((4, 1)), Some((5, 0))]);
    }

    #[test]
    fn record_fits_accounts_for_mode_header() {
        let upc = Upc::new();
        let a = Aggregator::new(
            AggrConfig { max_frame: 20, node_buckets: false, ..Default::default() },
            &upc,
        );
        assert!(a.record_fits(0, 14)); // 6 + 14 = 20
        assert!(!a.record_fits(0, 15));
        let a = Aggregator::new(
            AggrConfig { max_frame: 20, node_buckets: true, ..Default::default() },
            &upc,
        );
        assert!(a.record_fits(0, 8)); // 12 + 8 = 20
        assert!(!a.record_fits(0, 9));
    }
}
