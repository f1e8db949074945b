//! The "low overhead L2 atomic mutex".
//!
//! Where the paper's MPI layer must serialize (most prominently the matched
//! receive queue, section IV.A), it uses a mutex built directly on L2
//! atomics rather than a kernel futex: a ticket lock whose ticket dispenser
//! is an L2 `load-increment` and whose serving counter is a plain L2 word.
//! Fairness (FIFO grant order) falls out of the ticket discipline, which is
//! what keeps wildcard-receive serialization cheap under contention.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::utils::CachePadded;

/// A fair ticket lock built from two (simulated) L2 atomic words.
///
/// Taking it is the one read-modify-write: `lock` draws a ticket with an
/// L2 `load-increment`, `try_lock` claims the ticket being served with one
/// compare-and-swap. Releasing it is a plain release store of the next
/// ticket to serve, because only the holder ever writes `now_serving`.
///
/// The plain `L2TicketMutex` (`T = ()`) brackets short critical sections
/// over structures the lock does not own (a context's user lock, the
/// classic MPI library's global lock). [`L2TicketMutex::with`] puts the
/// protected structure *inside* the lock, as `parking_lot::Mutex` does, so
/// the one holder reaches it through the guard and no second lock is
/// needed to make that access safe — the MPI receive queues live there.
#[derive(Debug, Default)]
pub struct L2TicketMutex<T = ()> {
    next_ticket: CachePadded<AtomicU64>,
    now_serving: CachePadded<AtomicU64>,
    data: UnsafeCell<T>,
}

// SAFETY: the ticket discipline admits one holder at a time (`lock` returns
// only when `now_serving` reaches the caller's own ticket; `try_lock` only
// by taking the ticket being served), and `data` is reachable solely
// through that holder's guard, whose borrows of it end before the guard's
// drop passes the lock on with a release store of `now_serving + 1` (only
// the holder writes that word, so a store loses no update) that the next
// holder's acquire load pairs with. So `&L2TicketMutex<T>` shared between
// threads hands `T` from one thread to the next, never to two at once:
// `T: Send` is what that needs, exactly as for `std::sync::Mutex`.
unsafe impl<T: Send> Sync for L2TicketMutex<T> {}

/// RAII guard returned by [`L2TicketMutex::lock`]; releases on drop and
/// dereferences to the protected data.
#[must_use = "dropping the guard immediately releases the mutex"]
pub struct L2TicketGuard<'a, T = ()> {
    mutex: &'a L2TicketMutex<T>,
    /// The guard lends out `&T` / `&mut T`, so it is `Sync` only if `T` is
    /// — the mutex reference alone would make it `Sync` for any `T: Send`.
    lends: PhantomData<&'a mut T>,
}

impl L2TicketMutex {
    /// Create an unlocked mutex protecting nothing but a critical section.
    pub const fn new() -> Self {
        Self::with(())
    }
}

impl<T> L2TicketMutex<T> {
    /// Create an unlocked mutex around `data`.
    pub const fn with(data: T) -> Self {
        Self {
            next_ticket: CachePadded::new(AtomicU64::new(0)),
            now_serving: CachePadded::new(AtomicU64::new(0)),
            data: UnsafeCell::new(data),
        }
    }

    /// Acquire the lock, spinning briefly then yielding — the commthread
    /// design means hold times are tens of cycles, so a short spin almost
    /// always suffices, but yielding keeps oversubscribed hosts live.
    pub fn lock(&self) -> L2TicketGuard<'_, T> {
        let ticket = self.next_ticket.fetch_add(1, Ordering::AcqRel);
        let mut spins = 0u32;
        while self.now_serving.load(Ordering::Acquire) != ticket {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        L2TicketGuard { mutex: self, lends: PhantomData }
    }

    /// Try to acquire without waiting. Succeeds only when no one holds the
    /// lock *and* no earlier ticket is pending.
    pub fn try_lock(&self) -> Option<L2TicketGuard<'_, T>> {
        let serving = self.now_serving.load(Ordering::Acquire);
        match self.next_ticket.compare_exchange(
            serving,
            serving + 1,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Some(L2TicketGuard { mutex: self, lends: PhantomData }),
            Err(_) => None,
        }
    }
}

impl<T> Deref for L2TicketGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: a guard exists only while its thread holds the lock, so
        // nothing else can reach `data` until the guard drops; the borrow
        // cannot outlive the guard.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T> DerefMut for L2TicketGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as for `deref`, and `&mut self` makes this the only
        // borrow made through the one guard there is.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T> Drop for L2TicketGuard<'_, T> {
    fn drop(&mut self) {
        // The holder is `now_serving`'s only writer: a load and a release
        // store pass the lock on without a locked instruction.
        let serving = self.mutex.now_serving.load(Ordering::Relaxed);
        self.mutex.now_serving.store(serving + 1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_unlock_cycles() {
        let m = L2TicketMutex::new();
        for _ in 0..100 {
            let g = m.lock();
            drop(g);
        }
        assert!(m.try_lock().is_some(), "every guard released the lock");
    }

    #[test]
    fn try_lock_fails_while_held() {
        let m = L2TicketMutex::new();
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn guards_the_data_it_carries() {
        const THREADS: usize = 8;
        const ITERS: usize = 5000;
        // A plain (non-atomic) counter inside the lock: a broken exclusion
        // would lose increments.
        let m = Arc::new(L2TicketMutex::with(0u64));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..ITERS {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), (THREADS * ITERS) as u64);
        assert!(m.try_lock().is_some_and(|mut g| {
            *g += 1;
            *g == (THREADS * ITERS) as u64 + 1
        }));
    }

    #[test]
    fn try_lock_and_lock_exclude_each_other() {
        const ITERS: u64 = 20_000;
        // Two threads only ever `try_lock` (the advance state's pattern:
        // give up and come back) and two queue with `lock`; the store that
        // releases the lock must hand it on to both kinds.
        let m = L2TicketMutex::with(0u64);
        std::thread::scope(|s| {
            for t in 0..4 {
                let m = &m;
                s.spawn(move || {
                    for _ in 0..ITERS {
                        if t % 2 == 0 {
                            let mut g = loop {
                                match m.try_lock() {
                                    Some(g) => break g,
                                    None => std::thread::yield_now(),
                                }
                            };
                            *g += 1;
                        } else {
                            *m.lock() += 1;
                        }
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 4 * ITERS);
        assert!(m.try_lock().is_some(), "every guard released the lock");
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        const THREADS: usize = 8;
        const ITERS: usize = 5000;
        let m = Arc::new(L2TicketMutex::new());
        // A deliberately non-atomic counter: races would lose increments.
        struct RacyCell(std::cell::UnsafeCell<u64>);
        // SAFETY: test-only; every access is bracketed by the mutex under test.
        unsafe impl Send for RacyCell {}
        unsafe impl Sync for RacyCell {}
        let counter = Arc::new(RacyCell(std::cell::UnsafeCell::new(0u64)));
        struct SendPtr(Arc<RacyCell>);
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let m = Arc::clone(&m);
            let c = SendPtr(Arc::clone(&counter));
            handles.push(std::thread::spawn(move || {
                for _ in 0..ITERS {
                    let _g = m.lock();
                    unsafe { *c.0 .0.get() += 1 };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(unsafe { *counter.0.get() }, (THREADS * ITERS) as u64);
    }
}
