//! Requests and request allocation.
//!
//! MPI hands applications integer-like request handles; the library maps
//! them back to internal objects. The paper optimizes two aspects
//! reproduced here:
//!
//! * **Thread-private request pools** — "we extended request allocators by
//!   creating thread private pools to minimize locking overheads". The
//!   [`RequestAllocator`] either has one shared (locked) slab or a sharded
//!   set of slabs indexed by thread, and a slab *is* a pool: a released
//!   request object goes back on its free list, counter and all, so a
//!   steady-state `isend`/`irecv` allocates nothing.
//! * **The two-phase waitall** — phase one converts handles to objects
//!   ("tens of processor cycles per request": here an index and a
//!   generation compare, overlapped with the completion-counter loads);
//!   incomplete requests go to a poll list for phase two. See
//!   [`crate::mpi::Mpi::waitall`].

use std::sync::atomic::{AtomicI32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::Poll;

use bgq_hw::Counter;
use parking_lot::Mutex;

use crate::types::Status;

/// Internal request object. Every request completes through its byte
/// counter: PAMI credits a send's as the payload leaves the buffer, and a
/// receive's is armed with one unit that `RequestInner::complete_with`
/// credits after it has stored the status.
pub struct RequestInner {
    counter: Counter,
    /// Receive status: relaxed stores published by the counter credit's
    /// release, read after its acquire.
    source: AtomicI32,
    tag: AtomicI32,
    len: AtomicUsize,
}

impl RequestInner {
    /// A fresh request, not registered with any allocator, that completes
    /// once `credit` has been credited on its counter.
    pub fn armed(credit: u64) -> Arc<RequestInner> {
        let req = RequestInner {
            counter: Counter::new(),
            source: AtomicI32::new(0),
            tag: AtomicI32::new(0),
            len: AtomicUsize::new(0),
        };
        req.arm(credit);
        Arc::new(req)
    }

    /// (Re-)arm for a new operation: no status yet, `credit` outstanding.
    fn arm(&self, credit: u64) {
        self.set_status(Status::none());
        self.counter.add_expected(credit);
    }

    fn set_status(&self, status: Status) {
        self.source.store(status.source, Ordering::Relaxed);
        self.tag.store(status.tag, Ordering::Relaxed);
        self.len.store(status.len, Ordering::Relaxed);
    }

    /// The completion counter (a send hands a clone to PAMI as its
    /// `local_done`).
    pub fn counter(&self) -> &Counter {
        &self.counter
    }

    /// Whether the operation has completed — or failed for good: a counter
    /// carrying a [`bgq_hw::DeliveryFault`] reads complete so that poll
    /// loops terminate.
    pub fn is_complete(&self) -> bool {
        self.counter.is_complete()
    }

    /// The status of a completed request ([`Status::none`] for a send).
    pub fn status(&self) -> Status {
        Status {
            source: self.source.load(Ordering::Relaxed),
            tag: self.tag.load(Ordering::Relaxed),
            len: self.len.load(Ordering::Relaxed),
        }
    }

    /// Completer side of a receive: record the status, then credit the
    /// unit the request was armed with.
    pub(crate) fn complete_with(&self, status: Status) {
        self.set_status(status);
        self.counter.delivered(1);
    }

    /// Whether the object can serve another operation: nobody else holds
    /// it or its counter (a retransmit queue, a parked rendezvous source,
    /// a waiter), and the counter finished clean — a fault can never be
    /// cleared, so a failed request is dropped, not pooled.
    fn recyclable(self: &Arc<Self>) -> bool {
        Arc::strong_count(self) == 1 && !self.counter.is_shared() && self.counter.is_ok()
    }
}

/// An MPI request handle: an opaque integer the library resolves back to
/// its object — keeping the resolve step honest is what makes the
/// two-phase waitall measurable.
///
/// Layout: `generation << 32 | slot index << 8 | shard`. The slot's
/// generation counts its releases, so a handle stops resolving the moment
/// its request is released and stays dead when the slot is handed out
/// again; it wraps after 2³² reuses of one slot, at which point a handle
/// kept across exactly that many would alias (MPI forbids using a freed
/// request at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request(pub(crate) u64);

const SHARD_BITS: u32 = 8;
const INDEX_BITS: u32 = 24;

impl Request {
    fn new(generation: u32, index: usize, shard: usize) -> Request {
        Request((generation as u64) << 32 | (index as u64) << SHARD_BITS | shard as u64)
    }

    fn shard(self) -> usize {
        (self.0 & ((1 << SHARD_BITS) - 1)) as usize
    }

    fn index(self) -> usize {
        (self.0 >> SHARD_BITS & ((1 << INDEX_BITS) - 1)) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

struct Slot {
    /// Bumped by every release. A free slot's generation has therefore not
    /// been issued yet: no handle matches a free slot.
    generation: u32,
    /// The live request's object or, in a free slot, a released one kept
    /// for the slot's next user (`None` if it was not recyclable).
    inner: Option<Arc<RequestInner>>,
}

/// One slab of requests: slots, and the indices of the free ones. It grows
/// to the peak live count and is never pre-sized.
#[derive(Default)]
struct Slab {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl Slab {
    /// The object behind a handle of its slot's current generation — a
    /// live request's, by the invariant on [`Slot::generation`].
    fn get(&self, req: Request) -> Option<&Arc<RequestInner>> {
        let slot = self.slots.get(req.index())?;
        if slot.generation == req.generation() {
            slot.inner.as_ref()
        } else {
            None
        }
    }

    fn release(&mut self, req: Request) -> bool {
        let Some(inner) = self.get(req) else { return false };
        let keep = inner.recyclable();
        let slot = &mut self.slots[req.index()];
        slot.generation = slot.generation.wrapping_add(1);
        if !keep {
            slot.inner = None;
        }
        self.free.push(req.index() as u32);
        true
    }
}

/// Allocates request handles and resolves them.
pub struct RequestAllocator {
    /// One shared slab behind its lock (classic), or several picked by
    /// thread id (thread-optimized thread-private pools).
    shards: Vec<Mutex<Slab>>,
}

impl RequestAllocator {
    /// A shared single-pool allocator (classic flavor).
    pub fn shared() -> RequestAllocator {
        Self::sharded(1)
    }

    /// A sharded allocator (thread-optimized flavor): each thread works in
    /// its own shard, so concurrent allocation rarely contends.
    pub fn sharded(shards: usize) -> RequestAllocator {
        assert!(shards <= 1 << SHARD_BITS, "a handle has {SHARD_BITS} shard bits");
        RequestAllocator { shards: (0..shards.max(1)).map(|_| Mutex::default()).collect() }
    }

    fn shard_for_thread(&self) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        // Cheap thread identity: hash the address of a thread-local.
        thread_local! {
            static MARKER: u8 = const { 0 };
        }
        let addr = MARKER.with(|m| m as *const u8 as usize);
        (addr >> 4) % self.shards.len()
    }

    /// Register a request armed with `credit` (see
    /// [`RequestInner::armed`]), returning its handle and its object — a
    /// pooled one when the calling thread's shard has one. The shard and
    /// slot are encoded in the handle so resolution does not search.
    pub fn insert(&self, credit: u64) -> (Request, Arc<RequestInner>) {
        let shard = self.shard_for_thread();
        let mut slab = self.shards[shard].lock();
        let index = match slab.free.pop() {
            Some(index) => index as usize,
            None => {
                assert!(slab.slots.len() < 1 << INDEX_BITS, "request slab full");
                slab.slots.push(Slot { generation: 0, inner: None });
                slab.slots.len() - 1
            }
        };
        let slot = &mut slab.slots[index];
        let inner = match &slot.inner {
            Some(pooled) => {
                pooled.arm(credit);
                Arc::clone(pooled)
            }
            None => Arc::clone(slot.inner.insert(RequestInner::armed(credit))),
        };
        (Request::new(slot.generation, index, shard), inner)
    }

    /// Resolve a handle ("the hash function that converts request IDs to
    /// request object pointers"). Does not remove. A holder must drop the
    /// object before releasing the handle, or the object is not pooled.
    pub fn resolve(&self, req: Request) -> Option<Arc<RequestInner>> {
        self.shards.get(req.shard())?.lock().get(req).cloned()
    }

    /// Whether `req` has completed, without taking a reference to its
    /// object; `None` for a handle that does not resolve.
    pub fn is_complete(&self, req: Request) -> Option<bool> {
        Some(self.shards.get(req.shard())?.lock().get(req)?.is_complete())
    }

    /// `MPI_Test` under one lock hold: if `req` has completed, release it
    /// and return its status. `None` for a handle that does not resolve.
    pub fn test(&self, req: Request) -> Option<Poll<Status>> {
        let mut slab = self.shards.get(req.shard())?.lock();
        let inner = slab.get(req)?;
        if !inner.is_complete() {
            return Some(Poll::Pending);
        }
        let status = inner.status();
        slab.release(req);
        Some(Poll::Ready(status))
    }

    /// Retire a request: its handle stops resolving and its object goes
    /// back to the pool (or is dropped, see `RequestInner::recyclable`).
    /// `false` for a handle that does not resolve.
    pub fn release(&self, req: Request) -> bool {
        self.shards.get(req.shard()).is_some_and(|slab| slab.lock().release(req))
    }

    /// Live request count (diagnostics/leak tests).
    pub fn live(&self) -> usize {
        self.shards
            .iter()
            .map(|slab| {
                let slab = slab.lock();
                slab.slots.len() - slab.free.len()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_request_completes_with_its_counter() {
        let inner = RequestInner::armed(8);
        assert!(!inner.is_complete());
        inner.counter().delivered(8);
        assert!(inner.is_complete());
        assert_eq!(inner.status(), Status::none());
    }

    #[test]
    fn receive_request_completes_with_status() {
        let inner = RequestInner::armed(1);
        assert!(!inner.is_complete());
        inner.complete_with(Status { source: 2, tag: 9, len: 16 });
        assert!(inner.is_complete());
        assert_eq!(inner.status(), Status { source: 2, tag: 9, len: 16 });
    }

    #[test]
    fn allocator_insert_resolve_release() {
        let alloc = RequestAllocator::shared();
        let (r, _) = alloc.insert(1);
        assert!(alloc.resolve(r).is_some());
        assert_eq!(alloc.is_complete(r), Some(false));
        assert_eq!(alloc.test(r), Some(Poll::Pending));
        assert_eq!(alloc.live(), 1);
        assert!(alloc.release(r));
        assert!(alloc.resolve(r).is_none());
        assert_eq!(alloc.is_complete(r), None);
        assert_eq!(alloc.test(r), None);
        assert!(!alloc.release(r), "released twice");
        assert_eq!(alloc.live(), 0);
    }

    #[test]
    fn test_releases_a_complete_request_and_pools_its_object() {
        let alloc = RequestAllocator::shared();
        let (r, inner) = alloc.insert(1);
        inner.complete_with(Status { source: 3, tag: 4, len: 5 });
        let first = Arc::as_ptr(&inner);
        drop(inner);
        assert_eq!(alloc.test(r), Some(Poll::Ready(Status { source: 3, tag: 4, len: 5 })));
        assert_eq!(alloc.live(), 0);
        // The slot and the object come back, re-armed, under a new handle.
        let (r2, inner2) = alloc.insert(64);
        assert_ne!(r2, r);
        assert_eq!(Arc::as_ptr(&inner2), first);
        assert!(!inner2.is_complete());
        assert_eq!(inner2.counter().outstanding(), 64);
        assert_eq!(inner2.status(), Status::none());
        assert!(alloc.resolve(r).is_none(), "the old handle stays dead");
    }

    #[test]
    fn an_object_still_held_or_unfinished_is_not_pooled() {
        let alloc = RequestAllocator::shared();
        // Held by someone else (a waiter, the posted queue).
        let (r, held) = alloc.insert(1);
        held.complete_with(Status::none());
        assert!(alloc.release(r));
        let (r, inner) = alloc.insert(1);
        assert!(!Arc::ptr_eq(&held, &inner));
        // Its counter held by someone else (a descriptor in flight), who
        // must not be able to touch the slot's next request.
        let in_flight = inner.counter().clone();
        in_flight.delivered(1);
        drop(inner);
        assert!(alloc.release(r));
        let (r, inner) = alloc.insert(1);
        in_flight.add_expected(7);
        assert_eq!(inner.counter().outstanding(), 1);
        // Released before it completed: not re-armed on top of a stale
        // count.
        drop(inner);
        assert!(alloc.release(r));
        let (_, inner) = alloc.insert(1);
        assert_eq!(inner.counter().outstanding(), 1);
    }

    #[test]
    fn handle_fields_round_trip_and_generation_wraps() {
        let r = Request::new(u32::MAX, (1 << INDEX_BITS) - 1, 255);
        assert_eq!((r.generation(), r.index(), r.shard()), (u32::MAX, (1 << INDEX_BITS) - 1, 255));
        // One slot, started a few releases short of the wrap: every handle
        // it issues across the wrap is new, and none but the latest
        // resolves.
        let alloc = RequestAllocator::shared();
        let (r, _) = alloc.insert(1);
        alloc.release(r);
        alloc.shards[0].lock().slots[0].generation = u32::MAX - 2;
        let mut seen = Vec::new();
        for _ in 0..6 {
            let (r, inner) = alloc.insert(1);
            assert_eq!(r.index(), 0);
            assert!(!seen.contains(&r));
            assert!(seen.iter().all(|old| alloc.resolve(*old).is_none()));
            inner.complete_with(Status::none());
            drop(inner);
            assert!(alloc.release(r));
            seen.push(r);
        }
        assert_eq!(seen[2].generation(), u32::MAX);
        assert_eq!(seen[3].generation(), 0, "wrapped");
    }

    #[test]
    fn sharded_allocator_spreads_threads() {
        let alloc = Arc::new(RequestAllocator::sharded(4));
        let mut handles = Vec::new();
        std::thread::scope(|s| {
            let mut joins = Vec::new();
            for _ in 0..4 {
                let alloc = Arc::clone(&alloc);
                joins.push(s.spawn(move || {
                    (0..100).map(|_| alloc.insert(1).0).collect::<Vec<_>>()
                }));
            }
            for j in joins {
                handles.extend(j.join().unwrap());
            }
        });
        assert_eq!(alloc.live(), 400);
        // Every handle resolves regardless of which thread asks.
        for h in &handles {
            assert!(alloc.resolve(*h).is_some());
        }
        // Handles are unique.
        let mut sorted: Vec<u64> = handles.iter().map(|h| h.0).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 400);
    }
}
