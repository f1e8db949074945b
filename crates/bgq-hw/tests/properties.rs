//! Property-based tests of the L2-atomic primitives, the lockless queue and
//! the CRC-32C kernels.

use bgq_hw::{crc32c, BoundedCounter, Counter, L2Counter, WorkQueue};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequential push/pop against a model VecDeque: the queue is a FIFO
    /// regardless of ring capacity and overflow engagement.
    #[test]
    fn workqueue_matches_vecdeque_model(
        capacity in 1usize..32,
        ops in proptest::collection::vec(proptest::option::weighted(0.6, 0u8..255), 1..300),
    ) {
        let q: WorkQueue<u8> = WorkQueue::with_capacity(capacity);
        let mut model = std::collections::VecDeque::new();
        for op in ops {
            match op {
                Some(v) => {
                    q.push(v);
                    model.push_back(v);
                }
                None => {
                    prop_assert_eq!(q.pop(), model.pop_front());
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
        // Drain the rest.
        while let Some(v) = model.pop_front() {
            prop_assert_eq!(q.pop(), Some(v));
        }
        prop_assert_eq!(q.pop(), None);
    }

    /// The kernel the CPU picks, the portable kernel (called directly, so
    /// the fallback is exercised on a host that never dispatches to it) and
    /// an incremental fold over arbitrary splits all agree, at any start
    /// alignment and any length up to four packet payloads.
    #[test]
    fn crc32c_kernels_agree_over_alignments_and_splits(
        bytes in proptest::collection::vec(any::<u8>(), 0..2056),
        align in 0usize..8,
        cuts in proptest::collection::vec(0usize..2049, 0..4),
        seed in any::<u32>(),
    ) {
        let data = &bytes[align.min(bytes.len())..];
        let want = crc32c::update_portable(seed, data);
        prop_assert_eq!(crc32c::update(seed, data), want);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
        cuts.sort_unstable();
        let (mut hw, mut portable, mut from) = (seed, seed, 0);
        for cut in cuts.into_iter().chain([data.len()]) {
            hw = crc32c::update(hw, &data[from..cut]);
            portable = crc32c::update_portable(portable, &data[from..cut]);
            from = cut;
        }
        prop_assert_eq!(hw, want);
        prop_assert_eq!(portable, want);
    }

    /// Bounded increments never exceed the bound, and claims are dense.
    #[test]
    fn bounded_counter_claims_are_dense(bound in 0u64..200, extra in 1u64..50) {
        let c = BoundedCounter::new(0, bound);
        let mut claimed = Vec::new();
        for _ in 0..bound + extra {
            if let Some(v) = c.bounded_increment() {
                claimed.push(v);
            }
        }
        prop_assert_eq!(claimed.len() as u64, bound);
        for (i, v) in claimed.iter().enumerate() {
            prop_assert_eq!(*v, i as u64);
        }
        prop_assert!(c.bounded_increment().is_none());
        // Raising the bound reopens exactly the new slots.
        c.advance_bound(extra);
        let mut more = 0;
        while c.bounded_increment().is_some() {
            more += 1;
        }
        prop_assert_eq!(more, extra);
    }

    /// Batched push/pop against the same VecDeque model: `push_batch` and
    /// `pop_batch` interleaved with single-item operations preserve FIFO
    /// order and lose nothing, across ring capacities small enough to force
    /// the overflow path mid-batch.
    #[test]
    fn workqueue_batch_matches_vecdeque_model(
        capacity in 1usize..24,
        ops in proptest::collection::vec(0u8..4, 1..200),
        seq0 in 0u32..1000,
    ) {
        let mut seq = seq0;
        let q: WorkQueue<u32> = WorkQueue::with_capacity(capacity);
        let mut model = std::collections::VecDeque::new();
        for op in ops {
            match op {
                0 => {
                    q.push(seq);
                    model.push_back(seq);
                    seq += 1;
                }
                1 => {
                    // Batch push, size chosen to straddle the ring capacity.
                    let n = (seq as usize % (capacity + 3)) + 1;
                    let items: Vec<u32> = (seq..seq + n as u32).collect();
                    q.push_batch(items.clone());
                    model.extend(items);
                    seq += n as u32;
                }
                2 => {
                    prop_assert_eq!(q.pop(), model.pop_front());
                }
                _ => {
                    let max = (seq as usize % 7) + 1;
                    let mut got = Vec::new();
                    q.pop_batch(max, &mut got);
                    let mut want = Vec::new();
                    for _ in 0..max {
                        match model.pop_front() {
                            Some(v) => want.push(v),
                            None => break,
                        }
                    }
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        let mut rest = Vec::new();
        q.pop_batch(usize::MAX, &mut rest);
        prop_assert_eq!(rest, model.into_iter().collect::<Vec<_>>());
        prop_assert!(q.is_empty());
    }

    /// L2 counter arithmetic is a plain register under sequential use.
    #[test]
    fn l2_counter_sequential_semantics(start in 0u64..1000, deltas in proptest::collection::vec(0i64..100, 0..50)) {
        let c = L2Counter::new(start);
        let mut model = start;
        for d in deltas {
            if d % 3 == 0 {
                prop_assert_eq!(c.load_increment(), model);
                model += 1;
            } else if d % 3 == 1 {
                c.store_add(d as u64);
                model += d as u64;
            } else {
                c.store_max(d as u64);
                model = model.max(d as u64);
            }
            prop_assert_eq!(c.load(), model);
        }
    }

    /// Completion counters balance: armed == delivered ⇒ complete, with
    /// any interleaving of arms and deliveries that never over-delivers.
    #[test]
    fn counter_balances(chunks in proptest::collection::vec(1u64..1000, 1..20)) {
        let c = Counter::new();
        let total: u64 = chunks.iter().sum();
        c.add_expected(total);
        let mut delivered = 0;
        for ch in &chunks {
            prop_assert!(!c.is_complete() || delivered == total);
            c.delivered(*ch);
            delivered += ch;
        }
        prop_assert!(c.is_complete());
    }
}

/// Concurrent MPSC with mixed single and batched producers, drained by a
/// batching consumer: nothing lost, duplicated, or reordered per producer,
/// with capacities that force batches to straddle the ring/overflow split.
#[test]
fn workqueue_mixed_batch_producers_preserve_order() {
    for capacity in [1usize, 3, 16, 128] {
        let q: std::sync::Arc<WorkQueue<(u8, u32)>> =
            std::sync::Arc::new(WorkQueue::with_capacity(capacity));
        const PRODUCERS: u8 = 4;
        const PER: u32 = 4000;
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = std::sync::Arc::clone(&q);
                s.spawn(move || {
                    let mut i = 0u32;
                    while i < PER {
                        if (i / 7).is_multiple_of(2) {
                            // Batch of up to 5 (clipped at PER).
                            let n = 5.min(PER - i);
                            let batch: Vec<(u8, u32)> =
                                (i..i + n).map(|k| (p, k)).collect();
                            q.push_batch(batch);
                            i += n;
                        } else {
                            q.push((p, i));
                            i += 1;
                        }
                    }
                });
            }
            let mut next = [0u32; PRODUCERS as usize];
            let mut seen = 0usize;
            let mut buf = Vec::new();
            while seen < PRODUCERS as usize * PER as usize {
                buf.clear();
                q.pop_batch(64, &mut buf);
                if buf.is_empty() {
                    std::thread::yield_now();
                    continue;
                }
                for &(p, i) in &buf {
                    assert_eq!(
                        next[p as usize], i,
                        "producer {p} reordered (cap {capacity})"
                    );
                    next[p as usize] += 1;
                    seen += 1;
                }
            }
        });
        assert!(q.is_empty());
    }
}

/// Concurrent MPSC: whatever interleaving the scheduler produces, nothing
/// is lost, duplicated, or reordered per producer (randomized capacities
/// force the overflow path).
#[test]
fn workqueue_concurrent_never_loses_items() {
    for capacity in [1usize, 2, 8, 64] {
        let q: std::sync::Arc<WorkQueue<(u8, u32)>> =
            std::sync::Arc::new(WorkQueue::with_capacity(capacity));
        const PRODUCERS: u8 = 3;
        const PER: u32 = 5000;
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = std::sync::Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..PER {
                        q.push((p, i));
                    }
                });
            }
            let mut next = [0u32; PRODUCERS as usize];
            let mut seen = 0;
            while seen < PRODUCERS as usize * PER as usize {
                if let Some((p, i)) = q.pop() {
                    assert_eq!(next[p as usize], i, "producer {p} reordered (cap {capacity})");
                    next[p as usize] += 1;
                    seen += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
        assert!(q.is_empty());
    }
}
