//! The PAMI lockless queue (paper section III.B).
//!
//! "One of the supported L2 Atomics operations is *bounded increment*. This
//! combines an atomic load-and-increment with a compare against bounds,
//! enabling atomic allocation of elements to a fixed-sized array used to
//! implement a fast scalable queue. This fixed-sized array is enhanced with
//! an overflow queue to handle cases when the array is full. The overflow
//! queue is accessed through mutexes."
//!
//! [`WorkQueue`] is that structure: any number of producers `push` work into
//! a fixed ring whose slots are claimed with a single
//! [`BoundedCounter::bounded_increment`]; exactly one consumer (the thread
//! advancing the owning PAMI context) `pop`s. When the ring is full,
//! producers divert to a `parking_lot::Mutex`-guarded overflow list, and stay
//! diverted until the consumer has drained it — that keeps each producer's
//! items in FIFO order, which is what MPI ordering requires of the handoff
//! path.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;

use crate::l2::{BoundedCounter, L2Counter};

struct Slot<T> {
    /// Lap/readiness protocol: `seq == pos` means free for the producer that
    /// claimed `pos`; `seq == pos + 1` means the value is ready for the
    /// consumer; the consumer then sets `seq = pos + capacity` to free the
    /// slot for the next lap.
    seq: AtomicU64,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Multi-producer / single-consumer lockless queue with mutex-guarded
/// overflow, as used for PAMI context work handoff and shared-memory packet
/// queues.
///
/// Guarantees:
/// * per-producer FIFO: two pushes by the same thread are popped in push
///   order;
/// * lock-free fast path: a push that finds ring space performs one bounded
///   increment plus one slot write;
/// * the consumer never blocks: [`WorkQueue::pop`] returns `None` when the
///   queue is empty *or* when the head item has been claimed but not yet
///   written (the producer was preempted mid-publish) — callers are advance
///   loops that simply come back.
///
/// Exactly one thread may call [`WorkQueue::pop`] (and the other consumer
/// methods); this is the same contract the paper's context-advance rule
/// imposes and it is asserted in debug builds.
pub struct WorkQueue<T> {
    slots: Box<[Slot<T>]>,
    capacity: u64,
    /// Producer cursor: claimed via bounded increment, bound maintained at
    /// `head + capacity` by the consumer.
    tail: BoundedCounter,
    /// Consumer cursor; written only by the consumer.
    head: CachePadded<AtomicU64>,
    overflow: Mutex<VecDeque<T>>,
    /// True from the first overflow push until the consumer drains the
    /// overflow list; while set, all producers divert to the overflow so
    /// per-producer ordering is preserved.
    overflow_active: CachePadded<AtomicBool>,
    /// Total pushes that took the overflow (mutex) path, for ablation
    /// benches comparing lockless vs locked behaviour. The total push
    /// count is *derived* (`tail` claims + this), not maintained — the
    /// push fast path carries no accounting RMW of its own.
    overflow_pushes: L2Counter,
}

unsafe impl<T: Send> Send for WorkQueue<T> {}
unsafe impl<T: Send> Sync for WorkQueue<T> {}

impl<T> WorkQueue<T> {
    /// Create a queue whose lockless ring holds `capacity` items
    /// (`capacity` must be ≥ 1; it is rounded up to a power of two so the
    /// slot index is a mask).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two() as u64;
        let slots = (0..capacity)
            .map(|i| Slot {
                seq: AtomicU64::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            slots,
            capacity,
            tail: BoundedCounter::new(0, capacity),
            head: CachePadded::new(AtomicU64::new(0)),
            overflow: Mutex::new(VecDeque::new()),
            overflow_active: CachePadded::new(AtomicBool::new(false)),
            overflow_pushes: L2Counter::new(0),
        }
    }

    /// Ring capacity (after power-of-two rounding).
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Push an item; wait-free unless the ring is full, in which case the
    /// item takes the mutex-guarded overflow path. Returns `true` if the
    /// lockless fast path was used.
    pub fn push(&self, item: T) -> bool {
        if self.overflow_active.load(Ordering::Acquire) {
            self.push_overflow(item);
            return false;
        }
        match self.tail.bounded_increment() {
            Some(pos) => {
                let slot = &self.slots[(pos & (self.capacity - 1)) as usize];
                debug_assert_eq!(slot.seq.load(Ordering::Acquire), pos);
                unsafe { (*slot.value.get()).write(item) };
                slot.seq.store(pos + 1, Ordering::Release);
                true
            }
            None => {
                self.push_overflow(item);
                false
            }
        }
    }

    /// Push `n` items produced by `make(i)` (for `i` in `0..n`), claiming as
    /// many ring slots as possible with a *single* bounded-increment
    /// ([`BoundedCounter::bounded_add`]) instead of one per item. Items that
    /// do not fit the ring divert to the overflow list, in order. Returns how
    /// many items took the lockless ring path.
    ///
    /// This is the MU's message-delivery primitive: all packets of a message
    /// are claimed in one atomic transaction, so an N-packet eager message
    /// costs one claim rather than N.
    pub fn push_batch_with<F>(&self, n: u64, mut make: F) -> usize
    where
        F: FnMut(u64) -> T,
    {
        if n == 0 {
            return 0;
        }
        let mut next = 0u64;
        if !self.overflow_active.load(Ordering::Acquire) {
            if let Some(range) = self.tail.bounded_add(n) {
                for pos in range {
                    let slot = &self.slots[(pos & (self.capacity - 1)) as usize];
                    debug_assert_eq!(slot.seq.load(Ordering::Acquire), pos);
                    unsafe { (*slot.value.get()).write(make(next)) };
                    slot.seq.store(pos + 1, Ordering::Release);
                    next += 1;
                }
            }
        }
        let ring = next as usize;
        if next < n {
            let mut ovf = self.overflow.lock();
            // Same flag-under-lock protocol as `push_overflow`; the ring
            // prefix was claimed at earlier positions than anything a later
            // push can claim, so draining ring-before-overflow preserves
            // per-producer FIFO order across the split.
            self.overflow_active.store(true, Ordering::Release);
            while next < n {
                ovf.push_back(make(next));
                next += 1;
            }
            self.overflow_pushes.store_add(n - ring as u64);
        }
        ring
    }

    /// Batch push from an exact-size iterator; see
    /// [`WorkQueue::push_batch_with`]. Returns how many items took the
    /// lockless ring path.
    pub fn push_batch<I>(&self, items: I) -> usize
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut items = items.into_iter();
        let n = items.len() as u64;
        self.push_batch_with(n, |_| items.next().expect("iterator shorter than len()"))
    }

    fn push_overflow(&self, item: T) {
        let mut ovf = self.overflow.lock();
        // Set the flag while holding the lock so the consumer's
        // drain-then-clear (also under the lock) cannot miss this item.
        self.overflow_active.store(true, Ordering::Release);
        ovf.push_back(item);
        self.overflow_pushes.store_add(1);
    }

    /// Pop the next item (single consumer only). Returns `None` when the
    /// queue is empty or the head item is still being written.
    pub fn pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head & (self.capacity - 1)) as usize];
        if slot.seq.load(Ordering::Acquire) == head + 1 {
            let value = unsafe { (*slot.value.get()).assume_init_read() };
            slot.seq.store(head + self.capacity, Ordering::Release);
            self.head.store(head + 1, Ordering::Release);
            // Free the slot for producers `capacity` ahead.
            self.tail.advance_bound(1);
            return Some(value);
        }
        if self.tail.value() > head {
            // Claimed but not yet published; try again on the next advance.
            return None;
        }
        if self.overflow_active.load(Ordering::Acquire) {
            let mut ovf = self.overflow.lock();
            if self.tail.value() > head {
                // Re-check under the lock: a producer claims its batch's
                // ring prefix *before* pushing the overflow suffix (and
                // before taking this lock), so holding the lock makes that
                // claim visible. Ring items precede overflow items in
                // per-producer order — drain the ring first, come back.
                return None;
            }
            let item = ovf.pop_front();
            if ovf.is_empty() {
                self.overflow_active.store(false, Ordering::Release);
            }
            return item;
        }
        None
    }

    /// Pop up to `max` items into `out` (single consumer only). All
    /// consecutive ready ring slots are consumed with one head store and one
    /// bound advance, then the overflow list is drained (under its mutex) if
    /// the ring is exhausted. Returns the number of items appended to `out`.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<T>) -> usize {
        if max == 0 {
            return 0;
        }
        let head = self.head.load(Ordering::Relaxed);
        let mut k = 0u64;
        while (k as usize) < max {
            let pos = head + k;
            let slot = &self.slots[(pos & (self.capacity - 1)) as usize];
            if slot.seq.load(Ordering::Acquire) != pos + 1 {
                break;
            }
            out.push(unsafe { (*slot.value.get()).assume_init_read() });
            slot.seq.store(pos + self.capacity, Ordering::Release);
            k += 1;
        }
        if k > 0 {
            self.head.store(head + k, Ordering::Release);
            self.tail.advance_bound(k);
        }
        let mut popped = k as usize;
        if popped < max {
            if self.tail.value() > head + k {
                // Head slot claimed but not yet published; come back later.
                return popped;
            }
            if self.overflow_active.load(Ordering::Acquire) {
                let mut ovf = self.overflow.lock();
                if self.tail.value() > head + k {
                    // Same re-check as `pop`: a claim made before the
                    // overflow push would make draining the overflow here
                    // reorder one producer's batch (ring prefix after
                    // overflow suffix). Prefer the ring; retry next call.
                    return popped;
                }
                while popped < max {
                    match ovf.pop_front() {
                        Some(item) => {
                            out.push(item);
                            popped += 1;
                        }
                        None => break,
                    }
                }
                if ovf.is_empty() {
                    self.overflow_active.store(false, Ordering::Release);
                }
            }
        }
        popped
    }

    /// Whether both the ring and the overflow list are (momentarily) empty.
    pub fn is_empty(&self) -> bool {
        let head = self.head.load(Ordering::Acquire);
        self.tail.value() == head && !self.overflow_active.load(Ordering::Acquire)
    }

    /// Approximate number of queued items (ring claims plus overflow).
    pub fn len(&self) -> usize {
        let ring = self
            .tail
            .value()
            .saturating_sub(self.head.load(Ordering::Acquire)) as usize;
        let ovf = if self.overflow_active.load(Ordering::Acquire) {
            self.overflow.lock().len()
        } else {
            0
        };
        ring + ovf
    }

    /// How many pushes have taken the overflow (mutex) path so far.
    pub fn overflow_pushes(&self) -> u64 {
        self.overflow_pushes.load()
    }

    /// Total pushes observed. Derived, not counted: every ring push claims
    /// exactly one `tail` position (a monotone counter that never rewinds)
    /// and every diverted push increments `overflow_pushes`, so the sum is
    /// the push total with zero cost on the push fast path.
    pub fn total_pushes(&self) -> u64 {
        self.tail.value() + self.overflow_pushes()
    }
}

impl<T> Drop for WorkQueue<T> {
    fn drop(&mut self) {
        // Drain any published-but-unpopped ring items so their destructors
        // run; overflow drains via VecDeque's own drop.
        while let Some(item) = self.pop() {
            drop(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_single_producer() {
        let q = WorkQueue::with_capacity(8);
        for i in 0..8 {
            assert!(q.push(i));
        }
        for i in 0..8 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_engages_when_ring_full_and_preserves_order() {
        let q = WorkQueue::with_capacity(4);
        for i in 0..4 {
            assert!(q.push(i), "ring path for {i}");
        }
        for i in 4..10 {
            assert!(!q.push(i), "overflow path for {i}");
        }
        assert_eq!(q.overflow_pushes(), 6);
        for i in 0..10 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        // Overflow drained: pushes go lockless again.
        assert!(q.push(99));
        assert_eq!(q.pop(), Some(99));
    }

    #[test]
    fn wraps_around_many_laps() {
        let q = WorkQueue::with_capacity(4);
        for lap in 0..100u64 {
            for i in 0..4 {
                assert!(q.push(lap * 4 + i));
            }
            for i in 0..4 {
                assert_eq!(q.pop(), Some(lap * 4 + i));
            }
        }
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_ring_and_overflow() {
        let q = WorkQueue::with_capacity(2);
        assert_eq!(q.len(), 0);
        q.push(1u32);
        q.push(2);
        q.push(3); // overflow
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drop_releases_queued_items() {
        let live = Arc::new(AtomicU64::new(0));
        struct Tracked(Arc<AtomicU64>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        {
            let q = WorkQueue::with_capacity(4);
            for _ in 0..6 {
                live.fetch_add(1, Ordering::SeqCst);
                q.push(Tracked(Arc::clone(&live)));
            }
            drop(q);
        }
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn push_batch_fits_ring() {
        let q = WorkQueue::with_capacity(8);
        assert_eq!(q.push_batch((0..5u64).collect::<Vec<_>>()), 5);
        assert_eq!(q.overflow_pushes(), 0);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(16, &mut out), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.pop_batch(16, &mut out), 0);
    }

    #[test]
    fn push_batch_splits_across_ring_and_overflow_in_order() {
        let q = WorkQueue::with_capacity(4);
        // 7 items into a 4-slot ring: 4 lockless, 3 overflow.
        assert_eq!(q.push_batch((0..7u64).collect::<Vec<_>>()), 4);
        assert_eq!(q.overflow_pushes(), 3);
        assert_eq!(q.len(), 7);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(7, &mut out), 7);
        assert_eq!(out, (0..7).collect::<Vec<_>>());
        // Overflow drained: next batch is lockless again.
        assert_eq!(q.push_batch((10..12u64).collect::<Vec<_>>()), 2);
    }

    #[test]
    fn pop_batch_respects_max_and_mixes_with_pop() {
        let q = WorkQueue::with_capacity(8);
        q.push_batch((0..6u64).collect::<Vec<_>>());
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(2, &mut out), 2);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop_batch(8, &mut out), 3);
        assert_eq!(out, vec![0, 1, 3, 4, 5]);
        assert!(q.is_empty());
    }

    #[test]
    fn push_batch_while_overflow_active_keeps_order() {
        let q = WorkQueue::with_capacity(2);
        q.push(0u64);
        q.push(1);
        q.push(2); // engages overflow
        assert_eq!(q.push_batch((3..6u64).collect::<Vec<_>>()), 0, "diverts while overflow active");
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(16, &mut out), 6);
        assert_eq!(out, (0..6).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn push_batch_wraps_many_laps() {
        let q = WorkQueue::with_capacity(4);
        let mut out = Vec::new();
        for lap in 0..200u64 {
            assert_eq!(q.push_batch((lap * 3..lap * 3 + 3).collect::<Vec<_>>()), 3);
            out.clear();
            assert_eq!(q.pop_batch(4, &mut out), 3);
            assert_eq!(out, vec![lap * 3, lap * 3 + 1, lap * 3 + 2]);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn batch_drop_releases_queued_items() {
        let live = Arc::new(AtomicU64::new(0));
        struct Tracked(Arc<AtomicU64>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        {
            let q = WorkQueue::with_capacity(4);
            let n = 7u64;
            live.fetch_add(n, Ordering::SeqCst);
            q.push_batch_with(n, |_| Tracked(Arc::clone(&live)));
            drop(q);
        }
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn mpsc_batched_producers_preserve_per_producer_order() {
        const PRODUCERS: u64 = 4;
        const BATCHES: u64 = 4000;
        const BATCH: u64 = 5;
        let q = Arc::new(WorkQueue::with_capacity(32));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for b in 0..BATCHES {
                    let base = b * BATCH;
                    q.push_batch_with(BATCH, |i| (p, base + i));
                }
            }));
        }
        let mut next = vec![0u64; PRODUCERS as usize];
        let mut received = 0u64;
        let mut out = Vec::new();
        while received < PRODUCERS * BATCHES * BATCH {
            out.clear();
            if q.pop_batch(16, &mut out) == 0 {
                std::hint::spin_loop();
                continue;
            }
            for &(p, i) in &out {
                assert_eq!(next[p as usize], i, "producer {p} order violated");
                next[p as usize] += 1;
                received += 1;
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(q.is_empty());
        assert_eq!(q.total_pushes(), PRODUCERS * BATCHES * BATCH);
    }

    /// Pin the single-producer/single-consumer fast path — the shape every
    /// context-owned injection FIFO sees after context sharding (one
    /// producer: the owning context's `send`; one consumer: its `advance`).
    /// With a ring large enough to never fill, every push must take the
    /// lockless path (zero overflow pushes) while a concurrent consumer
    /// drains in strict FIFO order.
    #[test]
    fn spsc_fast_path_never_overflows_and_stays_ordered() {
        const ITEMS: u64 = 4096;
        let q = Arc::new(WorkQueue::<u64>::with_capacity(ITEMS as usize));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..ITEMS {
                    assert!(q.push(i), "ring has space; push {i} must be lockless");
                }
            })
        };
        let mut next = 0u64;
        let mut out = Vec::new();
        while next < ITEMS {
            out.clear();
            if q.pop_batch(64, &mut out) == 0 {
                std::hint::spin_loop();
                continue;
            }
            for &v in &out {
                assert_eq!(v, next, "SPSC order violated");
                next += 1;
            }
        }
        producer.join().unwrap();
        assert!(q.is_empty());
        assert_eq!(q.overflow_pushes(), 0, "SPSC fast path must never take the mutex");
        assert_eq!(q.total_pushes(), ITEMS);
    }

    #[test]
    fn mpsc_all_items_arrive_in_per_producer_order() {
        const PRODUCERS: u64 = 6;
        const PER: u64 = 20_000;
        let q = Arc::new(WorkQueue::with_capacity(64));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER {
                    q.push((p, i));
                }
            }));
        }
        let mut next = vec![0u64; PRODUCERS as usize];
        let mut received = 0u64;
        while received < PRODUCERS * PER {
            if let Some((p, i)) = q.pop() {
                assert_eq!(
                    next[p as usize], i,
                    "producer {p} items must arrive in order"
                );
                next[p as usize] += 1;
                received += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(q.is_empty());
        assert_eq!(q.total_pushes(), PRODUCERS * PER);
    }
}
