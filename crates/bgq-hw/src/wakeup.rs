//! The BG/Q wakeup unit.
//!
//! "The main purpose of the wakeup unit is to increase application
//! performance by avoiding software polling. ... The thread can be put into
//! a wait via a special instruction until a desired event occurs." (paper
//! section II.A). PAMI programs the unit to watch the shared-memory region
//! containing a context's work queue: commthreads execute the PPC `wait`
//! instruction and consume no resources until a producer stores into the
//! watched region.
//!
//! The simulation keeps the same programming model: a [`WakeupRegion`]
//! stands for one watched range of memory; writers call
//! [`WakeupRegion::touch`] after storing to the memory it covers; a
//! [`Waiter`] subscribed to one or more regions parks in [`Waiter::wait`]
//! until any of them has been touched since it last looked.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

#[derive(Default)]
struct WaiterInner {
    /// Event count; incremented by every touch on a subscribed region.
    pending: Mutex<u64>,
    cv: Condvar,
}

#[derive(Default)]
struct RegionInner {
    /// Monotone count of touches, readable without subscribing.
    epoch: AtomicU64,
    /// Number of entries in `watchers`, maintained under the `watchers`
    /// lock but readable without it — producers on the MU fast path skip
    /// the lock entirely when nobody is subscribed.
    watcher_count: AtomicUsize,
    watchers: Mutex<Vec<Arc<WaiterInner>>>,
}

/// A watched memory region. Cloning shares the underlying watch —
/// producers each hold a clone.
#[derive(Clone, Default)]
pub struct WakeupRegion {
    inner: Arc<RegionInner>,
}

impl WakeupRegion {
    /// A new region, untouched and watched by nobody.
    pub fn new() -> Self {
        Self::default()
    }

    /// Signal that memory covered by this region has been written. Wakes
    /// every subscribed [`Waiter`]. Cheap when nobody is subscribed: one
    /// atomic increment and one atomic load — the watcher lock is only
    /// touched when a waiter is actually registered, keeping the MU
    /// packet-delivery fast path lock-free.
    pub fn touch(&self) {
        self.inner.epoch.fetch_add(1, Ordering::AcqRel);
        if self.inner.watcher_count.load(Ordering::Acquire) == 0 {
            // A touch racing a concurrent subscribe counts as happening
            // before it — subscriptions never observe earlier touches.
            return;
        }
        let watchers = self.inner.watchers.lock();
        for w in watchers.iter() {
            let mut pending = w.pending.lock();
            *pending += 1;
            w.cv.notify_all();
        }
    }

    /// Number of touches so far; pollable without a subscription.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Whether any [`Waiter`] is currently subscribed — one atomic load.
    /// Per-event producers (MU packet delivery) consult this to skip
    /// [`WakeupRegion::touch`] entirely when nobody could observe it; the
    /// race against a concurrent subscribe is the same "touches from
    /// before the subscription are not observed" contract `touch` itself
    /// documents.
    #[inline]
    pub fn has_watchers(&self) -> bool {
        self.inner.watcher_count.load(Ordering::Acquire) > 0
    }
}

/// A thread-side handle that can suspend until subscribed regions are
/// touched — the analogue of configuring the wakeup unit's WAC registers and
/// executing the PPC `wait` instruction.
pub struct Waiter {
    inner: Arc<WaiterInner>,
    /// Touches consumed so far; `wait` returns once `pending > consumed`.
    consumed: u64,
    subscriptions: Vec<WakeupRegion>,
}

impl Default for Waiter {
    fn default() -> Self {
        Self::new()
    }
}

impl Waiter {
    /// Create a waiter with no subscriptions.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(WaiterInner::default()),
            consumed: 0,
            subscriptions: Vec::new(),
        }
    }

    /// Start watching `region`. Touches from before the subscription are not
    /// observed.
    pub fn subscribe(&mut self, region: &WakeupRegion) {
        let mut watchers = region.inner.watchers.lock();
        watchers.push(Arc::clone(&self.inner));
        region
            .inner
            .watcher_count
            .store(watchers.len(), Ordering::Release);
        drop(watchers);
        self.subscriptions.push(region.clone());
    }

    /// Suspend until any subscribed region is touched (or has been touched
    /// since the last `wait`). Returns the number of events
    /// consumed (≥ 1).
    pub fn wait(&mut self) -> u64 {
        let mut pending = self.inner.pending.lock();
        while *pending == self.consumed {
            self.inner.cv.wait(&mut pending);
        }
        let events = *pending - self.consumed;
        self.consumed = *pending;
        events
    }

    /// Like [`Waiter::wait`] but gives up after `timeout`; returns the number
    /// of events consumed (0 on timeout). Commthreads use a timeout so that
    /// shutdown and priority changes are always observed.
    pub fn wait_timeout(&mut self, timeout: Duration) -> u64 {
        let mut pending = self.inner.pending.lock();
        if *pending == self.consumed {
            let _ = self.inner.cv.wait_for(&mut pending, timeout);
        }
        let events = *pending - self.consumed;
        self.consumed = *pending;
        events
    }
}

impl Drop for Waiter {
    fn drop(&mut self) {
        for region in &self.subscriptions {
            let mut watchers = region.inner.watchers.lock();
            watchers.retain(|w| !Arc::ptr_eq(w, &self.inner));
            region
                .inner
                .watcher_count
                .store(watchers.len(), Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn touch_increments_epoch() {
        let region = WakeupRegion::new();
        assert_eq!(region.epoch(), 0);
        region.touch();
        region.touch();
        assert_eq!(region.epoch(), 2);
    }

    #[test]
    fn wait_returns_after_touch() {
        let region = WakeupRegion::new();
        let mut waiter = Waiter::new();
        waiter.subscribe(&region);
        let r2 = region.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            r2.touch();
        });
        let events = waiter.wait();
        assert_eq!(events, 1);
        t.join().unwrap();
    }

    #[test]
    fn pre_wait_touches_are_not_lost() {
        let region = WakeupRegion::new();
        let mut waiter = Waiter::new();
        waiter.subscribe(&region);
        region.touch();
        region.touch();
        // Both touches happened before wait; wait must not block.
        let start = Instant::now();
        assert_eq!(waiter.wait(), 2);
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn wait_timeout_expires_without_events() {
        let region = WakeupRegion::new();
        let mut waiter = Waiter::new();
        waiter.subscribe(&region);
        assert_eq!(waiter.wait_timeout(Duration::from_millis(10)), 0);
    }

    #[test]
    fn multiple_regions_any_touch_wakes() {
        let a = WakeupRegion::new();
        let b = WakeupRegion::new();
        let mut waiter = Waiter::new();
        waiter.subscribe(&a);
        waiter.subscribe(&b);
        let b2 = b.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            b2.touch();
        });
        assert_eq!(waiter.wait(), 1);
        t.join().unwrap();
    }

    #[test]
    fn unsubscribed_waiter_does_not_leak_notifications() {
        let region = WakeupRegion::new();
        {
            let mut waiter = Waiter::new();
            waiter.subscribe(&region);
            drop(waiter);
        }
        // Touch after drop must not panic or deliver to a dead waiter.
        region.touch();
        assert_eq!(region.epoch(), 1);
    }

    #[test]
    fn many_producers_one_waiter_sees_all_events() {
        const PRODUCERS: usize = 4;
        const TOUCHES: u64 = 1000;
        let region = WakeupRegion::new();
        let mut waiter = Waiter::new();
        waiter.subscribe(&region);
        let mut handles = Vec::new();
        for _ in 0..PRODUCERS {
            let r = region.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..TOUCHES {
                    r.touch();
                }
            }));
        }
        let mut seen = 0;
        while seen < (PRODUCERS as u64) * TOUCHES {
            seen += waiter.wait();
        }
        assert_eq!(seen, (PRODUCERS as u64) * TOUCHES);
        for h in handles {
            h.join().unwrap();
        }
    }
}
