//! Integration tests for the telemetry primitives: concurrent counter
//! aggregation (property), histogram bucket boundaries at 2^k−1 / 2^k /
//! 2^k+1, and trace-ring wraparound with drop-oldest semantics and
//! monotonic merged timestamps.
//!
//! All tests are gated on the `telemetry` feature; the no-op build has
//! nothing to check beyond "it compiles", which the workspace build covers.
#![cfg(feature = "telemetry")]

use bgq_upc::{bucket_index, Upc};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Concurrent adds from many threads (some sharing a counter handle,
    /// some holding distinct instances of the same name) aggregate exactly:
    /// the striped cells lose no updates and the snapshot sums instances.
    #[test]
    fn concurrent_counter_aggregation(
        threads in 1usize..8,
        adds_per_thread in 1usize..400,
        step in 1u64..5,
    ) {
        let upc = Upc::new();
        let shared = Arc::new(upc.counter("prop.shared"));
        let mut handles = Vec::new();
        for _ in 0..threads {
            let shared = shared.clone();
            let own = upc.counter("prop.instanced");
            handles.push(std::thread::spawn(move || {
                for _ in 0..adds_per_thread {
                    shared.add(step);
                    own.add(step);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let expect = threads as u64 * adds_per_thread as u64 * step;
        prop_assert_eq!(shared.value(), expect);
        let snap = upc.snapshot();
        prop_assert_eq!(snap.counter("prop.shared"), expect);
        prop_assert_eq!(snap.counter("prop.instanced"), expect);
        prop_assert_eq!(snap.layer_total("prop"), 2 * expect);
    }

    /// Histogram count/sum/max survive concurrent recording exactly.
    #[test]
    fn concurrent_histogram_totals(
        threads in 1usize..6,
        records in 1usize..300,
    ) {
        let upc = Upc::new();
        let h = Arc::new(upc.histogram("prop.lat"));
        let mut handles = Vec::new();
        for t in 0..threads {
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..records {
                    h.record((t * records + i) as u64);
                }
            }));
        }
        for th in handles {
            th.join().unwrap();
        }
        let n = (threads * records) as u64;
        prop_assert_eq!(h.count(), n);
        prop_assert_eq!(h.sum(), n * (n - 1) / 2);
        prop_assert_eq!(h.max(), n - 1);
    }
}

/// Values at 2^k−1, 2^k, 2^k+1 land in the documented buckets, and the
/// summary's quantile walk respects the observed max.
#[test]
fn histogram_bucket_boundaries() {
    let upc = Upc::new();
    let h = upc.histogram("bounds");
    for k in 1..64u32 {
        let v = 1u64 << k;
        h.record(v - 1);
        h.record(v);
        h.record(v + 1);
    }
    h.record(0);
    h.record(1);
    // Bucket 0: just the value 0. Bucket 1: just the value 1 (2^1 - 1 = 1).
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 1);
    for k in 2..64u32 {
        let v = 1u64 << k;
        // 2^k-1 falls in bucket k; 2^k and 2^k+1 fall in bucket k+1.
        assert_eq!(bucket_index(v - 1), k as usize);
        assert_eq!(bucket_index(v), k as usize + 1);
        assert_eq!(bucket_index(v + 1), k as usize + 1);
    }
    assert_eq!(bucket_index(u64::MAX), 64);
    assert_eq!(h.count(), 3 * 63 + 2);
    assert_eq!(h.max(), (1u64 << 63) + 1);
    let s = h.summary();
    assert!(s.p50 <= s.p99 && s.p99 <= s.max);
}

#[test]
fn histogram_quantiles_on_known_distribution() {
    let upc = Upc::new();
    let h = upc.histogram("q");
    for v in 1..=1000u64 {
        h.record(v);
    }
    let s = h.summary();
    assert_eq!(s.count, 1000);
    assert_eq!(s.sum, 1000 * 1001 / 2);
    assert_eq!(s.max, 1000);
    // Linear interpolation within the power-of-two bucket: for a uniform
    // distribution the quantiles are (near-)exact instead of landing on
    // the bucket's upper edge (511 / 1023 with the old walk).
    assert!((498..=502).contains(&s.p50), "p50 = {}", s.p50);
    assert!((988..=992).contains(&s.p99), "p99 = {}", s.p99);
}

/// Interpolated quantiles stay inside the target bucket and monotone, and
/// never land below the bucket's lower bound the way naive rounding could.
#[test]
fn histogram_quantiles_interpolate_within_bucket() {
    let upc = Upc::new();
    let h = upc.histogram("interp");
    // All mass in one bucket [2048, 4095]: uniform fill.
    for v in 2048..4096u64 {
        h.record(v);
    }
    let s = h.summary();
    assert!((3060..=3080).contains(&s.p50), "p50 = {}", s.p50);
    assert!((4060..=4095).contains(&s.p99), "p99 = {}", s.p99);
    assert!(s.p50 <= s.p99 && s.p99 <= s.max);
    // A single-value histogram reports that value (hi clamped by max).
    let one = upc.histogram("one");
    one.record(7);
    assert_eq!((one.summary().p50, one.summary().p99), (7, 7));
}

/// Pinned-stripe counters: exact totals under concurrent writers sharing a
/// pin, and distinct pins do not lose updates.
#[test]
fn counter_pinned_stripes_are_exact() {
    let upc = Upc::new();
    let c = upc.counter("pinned");
    std::thread::scope(|s| {
        for pin in 0..4usize {
            let c = c.clone();
            s.spawn(move || {
                for _ in 0..10_000 {
                    c.incr_pinned(pin);
                }
            });
        }
        // Two extra writers hammering the same pin (RMW keeps it exact).
        for _ in 0..2 {
            let c = c.clone();
            s.spawn(move || {
                for _ in 0..10_000 {
                    c.add_pinned(1, 1);
                }
            });
        }
    });
    assert_eq!(c.value(), 60_000);
}

/// A thread's ring capacity: what survives of a burst far larger than any
/// ring.
fn ring_capacity(upc: &Upc) -> usize {
    for i in 0..1u64 << 16 {
        upc.trace_span("probe", upc.stamp(), i);
    }
    upc.trace_events().len()
}

/// Wraparound drops the oldest events: after pushing `3*cap` spans into a
/// ring of capacity `cap`, exactly the newest `cap` survive, in order, and
/// the merged timeline is timestamp-monotonic.
#[test]
fn trace_ring_wraparound_drop_oldest() {
    let cap = ring_capacity(&Upc::new());
    assert!(cap.is_power_of_two() && cap < 1 << 16, "ring capacity {cap}");
    let upc = Upc::new();
    let total = 3 * cap as u64;
    for i in 0..total {
        // Distinct args identify events; timestamps come from the real clock
        // and are non-decreasing because one thread records sequentially.
        upc.trace_span("wrap", upc.stamp(), i);
    }
    let events = upc.trace_events();
    assert_eq!(events.len(), cap, "ring keeps exactly `cap` newest events");
    let args: Vec<u64> = events.iter().map(|e| e.arg).collect();
    let expect: Vec<u64> = (total - cap as u64..total).collect();
    assert_eq!(args, expect, "oldest dropped, newest retained in order");
    for w in events.windows(2) {
        assert!(w[0].ts_ns <= w[1].ts_ns, "merged timeline is monotonic");
    }
}

/// Events recorded from several threads merge into one monotonic timeline
/// with per-thread ids, and spans keep their start/duration pairing.
#[test]
fn trace_merge_across_threads_is_monotonic() {
    let upc = Upc::new();
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let upc = upc.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..20u64 {
                let st = upc.stamp();
                std::thread::yield_now();
                upc.trace_span("work", st, t * 100 + i);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let events = upc.trace_events();
    assert_eq!(events.len(), 80);
    for w in events.windows(2) {
        assert!(w[0].ts_ns <= w[1].ts_ns);
    }
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort();
    tids.dedup();
    assert_eq!(tids.len(), 4, "one ring per recording thread");
    let json = upc.chrome_trace_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""));
}

/// Ring overflow is observable from the report alone: every lapped event
/// increments the aggregate `upc.trace_dropped` counter, and the counter
/// appears in `report_json()` (the `telemetry.json` body) even when zero.
#[test]
fn trace_dropped_surfaces_in_report() {
    let cap = ring_capacity(&Upc::new());
    let upc = Upc::new();
    let total = 4 * cap as u64;
    for i in 0..total {
        upc.trace_span("drop", upc.stamp(), i);
    }
    let snap = upc.snapshot();
    let expect = total - cap as u64;
    assert_eq!(
        snap.counter("upc.trace_dropped"),
        expect,
        "every lapped slot counts as one dropped event"
    );
    let json = snap.report_json();
    assert!(
        json.contains(&format!("\"upc.trace_dropped\": {expect}")),
        "drop counter is in the report JSON: {json}"
    );

    // Another thread's ring is its own: events that fit it drop nothing.
    let upc2 = upc.clone();
    std::thread::spawn(move || {
        for i in 0..32u64 {
            upc2.trace_span("keep", upc2.stamp(), i);
        }
    })
    .join()
    .unwrap();
    assert_eq!(
        upc.snapshot().counter("upc.trace_dropped"),
        expect,
        "a second thread's ring does not lap the first's"
    );

    // And a fresh registry that never overflows still reports the counter,
    // pinned at zero, so dashboards can rely on its presence.
    let quiet = Upc::new();
    quiet.trace_span("once", quiet.stamp(), 1);
    assert!(quiet.report_json().contains("\"upc.trace_dropped\": 0"));
}

/// The report JSON carries every registered name with aggregated values.
#[test]
fn report_json_round_trip_shape() {
    let upc = Upc::new();
    let a = upc.counter("mu.packets_injected");
    let b = upc.counter("mu.packets_injected"); // second instance, same name
    let c = upc.counter("ctx.sends_eager");
    a.add(3);
    b.add(4);
    c.incr();
    upc.histogram("coll.barrier_ns").record(1500);
    let json = upc.report_json();
    assert!(json.contains("\"mu.packets_injected\": 7"));
    assert!(json.contains("\"ctx.sends_eager\": 1"));
    assert!(json.contains("\"coll.barrier_ns\""));
    let snap = upc.snapshot();
    assert_eq!((snap.layer_total("mu"), snap.layer_total("ctx")), (7, 1));
}

/// `mu.packets_dropped` is *live*, not a registered-but-never-incremented
/// name: running a transfer through a fault-injected fabric whose counters
/// are registered on this Upc makes the drop count move, and the `ras.*`
/// family lands in the same report.
#[test]
fn mu_packets_dropped_counter_is_live_under_fault_injection() {
    use bgq_mu::{
        Descriptor, FaultPlan, MuFabric, PayloadSource, RetryConfig, XferKind,
    };
    use bgq_torus::TorusShape;

    let upc = Upc::new();
    let fabric = MuFabric::builder(TorusShape::new([2, 1, 1, 1, 1]))
        .telemetry(upc.clone())
        .fault_plan(
            FaultPlan::new()
                .seed(42)
                .drop_rate(0.25)
                .retry(RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 4, retry_budget: 64 }),
        )
        .build();
    let rec = fabric.alloc_rec_fifo(1).unwrap().0;
    let done = bgq_hw::Counter::new();
    done.add_expected(4096);
    let (_, lane) = fabric.alloc_rec_fifo(0).unwrap();
    fabric.inject(
        0,
        &lane,
        Descriptor {
            dst_node: 1,
            src_context: 0,
            payload: PayloadSource::Region {
                region: bgq_hw::MemRegion::from_vec(vec![7u8; 4096]),
                offset: 0,
                len: 4096,
            },
            kind: XferKind::MemoryFifo {
                rec_fifo: rec,
                src_task: 0,
                dispatch: 7,
                metadata: bytes::Bytes::new(),
            },
            inj_counter: Some(done.clone()),
        },
    );
    for _ in 0..10_000 {
        if done.is_complete() {
            break;
        }
        fabric.pump_links(0, usize::MAX);
    }
    assert!(done.is_ok(), "transfer must complete despite injected drops");

    let snap = upc.snapshot();
    assert!(
        snap.counter("mu.packets_dropped") > 0,
        "mu.packets_dropped must be incremented by the fault injector, got {}",
        snap.counter("mu.packets_dropped")
    );
    assert!(
        snap.counter("ras.retransmits") > 0,
        "recovery from drops costs retransmits"
    );
    assert!(snap.layer_total("ras") > 0, "ras.* family is registered");
    let json = snap.report_json();
    assert!(json.contains("\"mu.packets_dropped\""), "drop counter is in the report: {json}");
    assert!(json.contains("\"ras.retransmits\""), "ras family is in the report: {json}");
}
