//! The BG/Q L2 atomic unit.
//!
//! Each BG/Q node exposes atomic operations on arbitrary 8-byte-aligned
//! words, implemented inside the L2 cache slices. Software reaches them
//! through aliased addresses; the operation is encoded in unused address
//! bits. The operations relevant to PAMI are reproduced here on top of
//! `AtomicU64`. The crucial property carried over from the hardware is that
//! every operation is a *single* atomic round trip — there is no
//! compare-and-swap retry loop visible to the caller except where the
//! hardware itself loops ([`BoundedCounter::bounded_increment`] maps to a
//! single hardware op and is implemented with one `fetch_update`).

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::utils::CachePadded;

/// A 64-bit word serviced by the (simulated) L2 atomic unit.
///
/// Mirrors the BG/Q "L2 atomic" operation set on a single counter word:
/// load-increment, load-decrement, load-clear, store, store-add, store-max.
/// Each counter is cache-padded, as the real words would live in distinct L2
/// lines to avoid slice contention.
#[derive(Debug, Default)]
pub struct L2Counter {
    word: CachePadded<AtomicU64>,
}

impl L2Counter {
    /// Create a counter holding `value`.
    pub fn new(value: u64) -> Self {
        Self {
            word: CachePadded::new(AtomicU64::new(value)),
        }
    }

    /// Plain atomic load.
    #[inline]
    pub fn load(&self) -> u64 {
        self.word.load(Ordering::Acquire)
    }

    /// BG/Q `load-increment`: returns the value *before* the increment.
    #[inline]
    pub fn load_increment(&self) -> u64 {
        self.word.fetch_add(1, Ordering::AcqRel)
    }

    /// BG/Q `load-decrement`: returns the value *before* the decrement.
    #[inline]
    pub fn load_decrement(&self) -> u64 {
        self.word.fetch_sub(1, Ordering::AcqRel)
    }

    /// BG/Q `load-clear`: returns the previous value and zeroes the word.
    #[inline]
    pub fn load_clear(&self) -> u64 {
        self.word.swap(0, Ordering::AcqRel)
    }

    /// Plain atomic store.
    #[inline]
    pub fn store(&self, value: u64) {
        self.word.store(value, Ordering::Release)
    }

    /// BG/Q `store-add`: adds `delta` without returning a value.
    #[inline]
    pub fn store_add(&self, delta: u64) {
        self.word.fetch_add(delta, Ordering::AcqRel);
    }

    /// BG/Q `store-add` with a signed delta (used by messaging byte counters
    /// which the MU decrements as packets arrive).
    #[inline]
    pub fn store_add_signed(&self, delta: i64) {
        if delta >= 0 {
            self.word.fetch_add(delta as u64, Ordering::AcqRel);
        } else {
            self.word.fetch_sub(delta.unsigned_abs(), Ordering::AcqRel);
        }
    }

    /// BG/Q `store-max`: keeps the maximum of the current value and `value`.
    #[inline]
    pub fn store_max(&self, value: u64) {
        self.word.fetch_max(value, Ordering::AcqRel);
    }

    /// BG/Q `store-or`: bitwise OR (used for flag words).
    #[inline]
    pub fn store_or(&self, bits: u64) {
        self.word.fetch_or(bits, Ordering::AcqRel);
    }
}

/// Sentinel the BG/Q hardware returns when a bounded operation fails.
///
/// The real unit returns `0x8000_0000_0000_0000` from a bounded
/// load-increment whose value has reached its bound; the Rust API surfaces
/// that case as `None`, but the constant is kept public because protocol
/// code sizes its windows around it in the original library.
pub const L2_BOUNDED_FAIL: u64 = 0x8000_0000_0000_0000;

/// A counter with a *bounded increment* operation — the primitive PAMI uses
/// to allocate slots in fixed-size lockless queues.
///
/// `bounded_increment` atomically performs "if `counter < bound { counter +=
/// 1; return old }` else fail" as one operation. The bound itself is a second
/// L2 word that the (single) consumer advances as it frees slots.
#[derive(Debug)]
pub struct BoundedCounter {
    value: CachePadded<AtomicU64>,
    bound: CachePadded<AtomicU64>,
}

impl BoundedCounter {
    /// Create a counter at `value` that may be incremented while strictly
    /// below `bound`.
    pub fn new(value: u64, bound: u64) -> Self {
        Self {
            value: CachePadded::new(AtomicU64::new(value)),
            bound: CachePadded::new(AtomicU64::new(bound)),
        }
    }

    /// Atomically claim the next value if it is below the current bound.
    ///
    /// Returns the claimed (pre-increment) value, or `None` if the counter
    /// has reached its bound — the software must then fall back (PAMI pushes
    /// to the mutex-guarded overflow queue).
    #[inline]
    pub fn bounded_increment(&self) -> Option<u64> {
        // The hardware evaluates value/bound as one transaction; a CAS loop
        // against a racing *bound advance* can only turn failure into
        // success, never the reverse, so fetch_update preserves semantics.
        let bound = self.bound.load(Ordering::Acquire);
        self.value
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                if v < bound {
                    Some(v + 1)
                } else {
                    None
                }
            })
            .ok()
    }

    /// Atomically claim up to `n` consecutive values below the current bound.
    ///
    /// Generalizes [`BoundedCounter::bounded_increment`] to a batch: one
    /// `fetch_update` claims `min(n, bound − value)` slots and returns the
    /// claimed range, or `None` when no slot is free (or `n == 0`). Like the
    /// single-slot op, a racing bound advance can only turn failure into
    /// success, so pre-loading the bound preserves the hardware's
    /// one-transaction semantics.
    #[inline]
    pub fn bounded_add(&self, n: u64) -> Option<std::ops::Range<u64>> {
        if n == 0 {
            return None;
        }
        let bound = self.bound.load(Ordering::Acquire);
        self.value
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                if v < bound {
                    Some(v + n.min(bound - v))
                } else {
                    None
                }
            })
            .ok()
            .map(|start| start..(start + n.min(bound - start)))
    }

    /// Current counter value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }

    /// Current bound.
    #[inline]
    pub fn bound(&self) -> u64 {
        self.bound.load(Ordering::Acquire)
    }

    /// Raise the bound by `delta` slots (consumer side, after freeing slots).
    #[inline]
    pub fn advance_bound(&self, delta: u64) {
        self.bound.fetch_add(delta, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn load_increment_returns_previous() {
        let c = L2Counter::new(7);
        assert_eq!(c.load_increment(), 7);
        assert_eq!(c.load(), 8);
    }

    #[test]
    fn load_decrement_returns_previous() {
        let c = L2Counter::new(3);
        assert_eq!(c.load_decrement(), 3);
        assert_eq!(c.load(), 2);
    }

    #[test]
    fn load_clear_zeroes() {
        let c = L2Counter::new(55);
        assert_eq!(c.load_clear(), 55);
        assert_eq!(c.load(), 0);
    }

    #[test]
    fn store_max_keeps_maximum() {
        let c = L2Counter::new(10);
        c.store_max(4);
        assert_eq!(c.load(), 10);
        c.store_max(19);
        assert_eq!(c.load(), 19);
    }

    #[test]
    fn store_add_signed_decrements() {
        let c = L2Counter::new(100);
        c.store_add_signed(-30);
        assert_eq!(c.load(), 70);
        c.store_add_signed(5);
        assert_eq!(c.load(), 75);
    }

    #[test]
    fn store_or_sets_bits() {
        let c = L2Counter::new(0b0001);
        c.store_or(0b0110);
        assert_eq!(c.load(), 0b0111);
    }

    #[test]
    fn bounded_increment_respects_bound() {
        let b = BoundedCounter::new(0, 3);
        assert_eq!(b.bounded_increment(), Some(0));
        assert_eq!(b.bounded_increment(), Some(1));
        assert_eq!(b.bounded_increment(), Some(2));
        assert_eq!(b.bounded_increment(), None);
        b.advance_bound(1);
        assert_eq!(b.bounded_increment(), Some(3));
        assert_eq!(b.bounded_increment(), None);
    }

    #[test]
    fn bounded_add_claims_partial_batches() {
        let b = BoundedCounter::new(0, 5);
        assert_eq!(b.bounded_add(3), Some(0..3));
        // Only two slots left: the claim is truncated, not failed.
        assert_eq!(b.bounded_add(4), Some(3..5));
        assert_eq!(b.bounded_add(1), None);
        assert_eq!(b.bounded_add(0), None);
        b.advance_bound(2);
        assert_eq!(b.bounded_add(10), Some(5..7));
        assert_eq!(b.value(), 7);
    }

    #[test]
    fn bounded_add_concurrent_claims_are_disjoint_and_exhaustive() {
        const THREADS: usize = 8;
        const BOUND: u64 = 4096;
        let b = Arc::new(BoundedCounter::new(0, BOUND));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                // Mix batch sizes per thread to exercise truncation.
                let n = 1 + (t as u64 % 5);
                while let Some(r) = b.bounded_add(n) {
                    got.extend(r);
                }
                got
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..BOUND).collect::<Vec<_>>());
        assert_eq!(b.value(), BOUND);
    }

    #[test]
    fn bounded_increment_concurrent_never_exceeds_bound() {
        const THREADS: usize = 8;
        const BOUND: u64 = 1000;
        let b = Arc::new(BoundedCounter::new(0, BOUND));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let mut claimed = Vec::new();
                while let Some(v) = b.bounded_increment() {
                    claimed.push(v);
                }
                claimed
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        // Every value in [0, BOUND) claimed exactly once, none beyond.
        assert_eq!(all, (0..BOUND).collect::<Vec<_>>());
        assert_eq!(b.value(), BOUND);
    }

    #[test]
    fn concurrent_load_increment_is_a_valid_ticket_source() {
        const THREADS: usize = 4;
        const PER: usize = 2000;
        let c = Arc::new(L2Counter::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                (0..PER).map(|_| c.load_increment()).collect::<Vec<_>>()
            }));
        }
        let mut tickets: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        tickets.sort_unstable();
        assert_eq!(tickets, (0..(THREADS * PER) as u64).collect::<Vec<_>>());
    }
}
