//! Reception FIFOs and message-id lanes, with BG/Q's per-node limit.
//!
//! "BG/Q architecture provides an extensive array of 544 MU injection FIFOs
//! (32 per core) and 272 MU reception FIFOs (16 per core)" — enough that
//! PAMI can give every context *exclusive* FIFOs, "thereby eliminating any
//! need for locking and critical section protection" (paper section III.E).
//! Here a descriptor executes on the thread that injects it, as the MU
//! moves one the moment it is written, so nothing is ever queued for
//! injection: what a context needs to send is only a [`MsgIdLane`] of its
//! own. The fabric hands one out with each reception FIFO (`FifoTable`
//! enforces the limit of 272), so a context's lane id is its reception
//! FIFO's id. Reception FIFOs are the lockless [`WorkQueue`] from `bgq-hw`,
//! with many remote producers and the one owning context as consumer. A
//! remote get needs no FIFO at its target: the fabric executes its put-back
//! as the request arrives, minting from the node's reserved lane.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bgq_hw::{WakeupRegion, WorkQueue};
use parking_lot::Mutex;

use crate::packet::MuPacket;

/// MU reception FIFOs per node (17 cores × 16).
pub const REC_FIFOS_PER_NODE: usize = 272;

/// Bits of a message id that hold the per-lane sequence number. The id
/// layout is `node << 40 | lane << 30 | seq`, where `lane` identifies the
/// message-id source (a context's reception FIFO id, or the lane a node
/// serves remote gets from) — so every lane mints ids from its *own*
/// atomic and two lanes can never collide, which is what lets contexts
/// send without touching a shared per-node sequence counter.
pub(crate) const LANE_SHIFT: u32 = 30;

/// Mask for the per-lane sequence bits (ids recycle after 2^30 messages per
/// lane, by which point no packet of the old message can still be in
/// flight).
pub(crate) const LANE_SEQ_MASK: u64 = (1u64 << LANE_SHIFT) - 1;

/// Reserved lane id the put-backs of the remote gets a node serves mint
/// from; context lanes are reception FIFO ids, all below
/// [`REC_FIFOS_PER_NODE`].
pub(crate) const SYS_LANE: u16 = 1022;

/// A message-id mint: composes `node | lane` high bits (fixed at creation)
/// with a private sequence counter. Each context owns one, handed out with
/// its reception FIFO ([`crate::MuFabric::alloc_rec_fifo`]), so the send
/// hot path touches only state owned by the injecting context — no
/// cross-context cache-line bouncing on a shared per-node counter. The
/// counter is atomic because an application thread and a commthread may
/// drive one context at once.
///
/// A lane recycles its ids after 2^30 messages. A message's id is live only
/// until it is deposited (lossless) or acked or failed (lossy, within
/// `retry_budget` × `rto_max_ticks` pumps), far shorter than a wrap takes.
pub struct MsgIdLane {
    /// `node << 40 | lane << 30`, precomputed.
    base: u64,
    /// Next sequence number (tests force near-wrap values).
    pub(crate) msg_seq: AtomicU64,
}

impl MsgIdLane {
    /// A lane for `node`. `lane` must fit in 10 bits (reception FIFO ids
    /// are 0..272; 1022 serves remote gets).
    pub(crate) fn new(node: u32, lane: u16) -> Self {
        debug_assert!(lane < 1024, "lane must fit in 10 bits");
        MsgIdLane {
            base: ((node as u64) << 40) | ((lane as u64) << LANE_SHIFT),
            msg_seq: AtomicU64::new(0),
        }
    }

    /// Mint the next message id on this lane.
    #[inline]
    pub(crate) fn next(&self) -> u64 {
        self.base | (self.msg_seq.fetch_add(1, Ordering::Relaxed) & LANE_SEQ_MASK)
    }
}

/// Identifier of a reception FIFO within its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecFifoId(pub u16);

/// A reception FIFO plus its optional wakeup region (commthreads park on it
/// while the FIFO is empty).
pub struct RecFifo {
    /// Delivered packets.
    pub queue: WorkQueue<MuPacket>,
    /// Set at most once, when the owning context attaches itself; read
    /// lock-free on every delivery.
    wakeup: OnceLock<WakeupRegion>,
}

impl RecFifo {
    /// A standalone FIFO of the given capacity.
    pub(crate) fn new(capacity: usize) -> Self {
        RecFifo {
            queue: WorkQueue::with_capacity(capacity),
            wakeup: OnceLock::new(),
        }
    }

    /// Attach a wakeup region; subsequent deliveries touch it. A FIFO is
    /// owned by exactly one context, so the region is set at most once —
    /// later calls are ignored, keeping the delivery-side read lock-free.
    pub fn set_wakeup(&self, region: WakeupRegion) {
        let _ = self.wakeup.set(region);
    }

    /// Deliver a packet (fabric side): enqueue and wake any watcher. The
    /// touch is skipped — one atomic load — while no waiter is subscribed,
    /// so a polling-mode receiver never pays the epoch RMW per packet.
    pub(crate) fn deliver(&self, packet: MuPacket) {
        self.queue.push(packet);
        if let Some(w) = self.wakeup.get() {
            if w.has_watchers() {
                w.touch();
            }
        }
    }

    /// Deliver `n` packets produced by `make` in one ring claim
    /// ([`WorkQueue::push_batch_with`]) with a single wakeup touch — the
    /// whole-message delivery path: an N-packet message costs one atomic
    /// claim and one wakeup, not N of each.
    pub(crate) fn deliver_batch<F>(&self, n: u64, make: F)
    where
        F: FnMut(u64) -> MuPacket,
    {
        self.queue.push_batch_with(n, make);
        if let Some(w) = self.wakeup.get() {
            if w.has_watchers() {
                w.touch();
            }
        }
    }

    /// Pull the next packet (owning context only).
    pub fn poll(&self) -> Option<MuPacket> {
        self.queue.pop()
    }

    /// Pull up to `max` packets into `out` in one consumer transaction
    /// ([`WorkQueue::pop_batch`]): all ready packets are claimed with a
    /// single head publish and a single bound advance, so the drain side
    /// touches the producer-shared cachelines once per batch instead of
    /// once per packet — the receive mirror of `RecFifo::deliver_batch`.
    pub fn poll_batch(&self, max: usize, out: &mut Vec<MuPacket>) -> usize {
        self.queue.pop_batch(max, out)
    }

    /// Whether the FIFO currently holds no packets.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// Fixed-size, lock-free table of a node's reception FIFOs.
///
/// The MU's FIFO count is a hardware constant (272 reception per node),
/// so the table is a fixed array of slots published
/// with [`OnceLock`]: allocation writes a slot exactly once (slot indices
/// come from [`FifoTable::claim`], whose mutex is not on the hot path),
/// after which every lookup — packet delivery, `poll_rec`, handle
/// caching — is a plain atomic load with no lock and no refcount traffic.
pub(crate) struct FifoTable<T> {
    slots: Box<[OnceLock<Arc<T>>]>,
    /// The next unclaimed slot.
    next: Mutex<u16>,
}

impl<T> FifoTable<T> {
    /// A table with `capacity` (hardware-limit) slots, all unallocated.
    pub fn new(capacity: usize) -> Self {
        FifoTable { slots: (0..capacity).map(|_| OnceLock::new()).collect(), next: Mutex::new(0) }
    }

    /// Claim the next slot id; `None` once all `capacity` are taken.
    pub fn claim(&self) -> Option<u16> {
        let mut next = self.next.lock();
        let id = *next;
        if id as usize == self.slots.len() {
            return None;
        }
        *next += 1;
        Some(id)
    }

    /// Shared handle to an allocated FIFO.
    ///
    /// # Panics
    /// If `id` was never allocated (software addressing a FIFO it does not
    /// own — the hardware would raise a fatal interrupt).
    #[inline]
    pub fn get(&self, id: u16) -> &Arc<T> {
        self.slots[id as usize]
            .get()
            .expect("FIFO id addressed before allocation")
    }

    /// Publish a freshly allocated FIFO at `id`. Caller must own `id` via
    /// the allocator; each slot is written exactly once.
    pub(crate) fn publish(&self, id: u16, fifo: Arc<T>) {
        if self.slots[id as usize].set(fifo).is_err() {
            panic!("FIFO slot {id} allocated twice");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn allocator_enforces_limits() {
        let t: FifoTable<u32> = FifoTable::new(4);
        assert_eq!((0..4).map(|_| t.claim()).collect::<Vec<_>>(), [0, 1, 2, 3].map(Some));
        assert_eq!(t.claim(), None);
    }

    #[test]
    fn msg_id_lanes_never_collide_across_lanes() {
        // Two lanes on the same node, same sequence numbers: ids differ.
        let a = MsgIdLane::new(3, 0);
        let b = MsgIdLane::new(3, 1);
        let ids: Vec<u64> = (0..4).map(|_| a.next()).chain((0..4).map(|_| b.next())).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "no collisions across lanes");
        for id in &ids {
            assert_eq!(id >> 40, 3, "node bits intact");
        }
        // Sequence wrap stays inside the lane bits.
        let c = MsgIdLane::new(5, SYS_LANE);
        c.msg_seq.store(LANE_SEQ_MASK, Ordering::Relaxed);
        let x = c.next();
        let y = c.next();
        assert_eq!(x >> 40, 5);
        assert_eq!(y >> 40, 5, "wrap must not leak into node bits");
        assert_ne!(x, y);
        assert_eq!((x >> LANE_SHIFT) & 0x3ff, SYS_LANE as u64);
    }

    #[test]
    fn default_allocator_matches_hardware_counts() {
        // Every reception FIFO id the node can hand out is a context lane,
        // and none of them reaches the lane remote gets are served from.
        let t: FifoTable<RecFifo> = FifoTable::new(REC_FIFOS_PER_NODE);
        let last = (0..REC_FIFOS_PER_NODE).map(|_| t.claim().unwrap()).last();
        assert_eq!(last, Some(271));
        assert!(last.unwrap() < SYS_LANE);
        assert_eq!(t.claim(), None);
    }

    #[test]
    fn rec_fifo_delivery_touches_wakeup() {
        let region = bgq_hw::WakeupRegion::new();
        // A subscribed waiter is what makes delivery touch the region —
        // with nobody watching, delivery skips the wakeup entirely.
        let mut waiter = bgq_hw::Waiter::new();
        waiter.subscribe(&region);
        let fifo = RecFifo::new(16);
        fifo.set_wakeup(region.clone());
        assert!(fifo.is_empty());
        fifo.deliver(MuPacket {
            src_node: 0,
            src_context: 0,
            src_task: 0,
            dispatch: 1,
            metadata: Bytes::new(),
            msg_id: 1,
            msg_len: 0,
            offset: 0,
            link_seq: 0,
            crc: 0,
            payload: crate::packet::PacketPayload::Inline(Bytes::new()),
        });
        assert_eq!(region.epoch(), 1);
        assert!(fifo.poll().is_some());
        assert!(fifo.poll().is_none());
    }

    #[test]
    fn unwatched_delivery_skips_the_wakeup() {
        // Polling-mode receivers (no parked waiter) must not pay the epoch
        // RMW per packet: delivery without a subscriber leaves the region
        // untouched.
        let region = bgq_hw::WakeupRegion::new();
        let fifo = RecFifo::new(16);
        fifo.set_wakeup(region.clone());
        fifo.deliver_batch(2, |i| MuPacket {
            src_node: 0,
            src_context: 0,
            src_task: 0,
            dispatch: 1,
            metadata: Bytes::new(),
            msg_id: 4,
            msg_len: 8,
            offset: i as u32 * 8,
            link_seq: i,
            crc: 0,
            payload: crate::packet::PacketPayload::Inline(Bytes::new()),
        });
        assert_eq!(region.epoch(), 0, "no watcher, no touch");
        assert!(fifo.poll().is_some());
    }

    #[test]
    fn batch_delivery_touches_wakeup_once() {
        let region = bgq_hw::WakeupRegion::new();
        let mut waiter = bgq_hw::Waiter::new();
        waiter.subscribe(&region);
        let fifo = RecFifo::new(16);
        fifo.set_wakeup(region.clone());
        fifo.deliver_batch(3, |i| MuPacket {
            src_node: 0,
            src_context: 0,
            src_task: 0,
            dispatch: 1,
            metadata: Bytes::new(),
            msg_id: 9,
            msg_len: 1300,
            offset: i as u32 * 512,
            link_seq: i,
            crc: 0,
            payload: crate::packet::PacketPayload::Inline(Bytes::new()),
        });
        assert_eq!(region.epoch(), 1, "one wakeup for the whole message");
        for _ in 0..3 {
            assert!(fifo.poll().is_some());
        }
        assert!(fifo.poll().is_none());
    }

    #[test]
    fn fifo_table_publishes_lock_free() {
        let t: FifoTable<u32> = FifoTable::new(8);
        t.publish(0, Arc::new(10));
        t.publish(1, Arc::new(11));
        assert_eq!(**t.get(0), 10);
        assert_eq!(**t.get(1), 11);
    }

    #[test]
    #[should_panic(expected = "allocated twice")]
    fn fifo_table_rejects_double_publish() {
        let t: FifoTable<u32> = FifoTable::new(2);
        t.publish(0, Arc::new(1));
        t.publish(0, Arc::new(2));
    }

    #[test]
    #[should_panic(expected = "before allocation")]
    fn fifo_table_rejects_unallocated_lookup() {
        let t: FifoTable<u32> = FifoTable::new(2);
        let _ = t.get(1);
    }
}
