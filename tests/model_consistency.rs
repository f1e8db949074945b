//! The orderings the paper's collective figures rest on, checked in the
//! timing models. Point-to-point software cost is not modeled by
//! calibration: `bgq_netsim::p2p` composes it from exact counts (held to
//! the stack in `crates/bench/tests/counts.rs`) and host unit costs.

use pami_repro::bgq_netsim::{coll, MachineParams};

#[test]
fn modeled_latency_orderings_match_paper() {
    let p = MachineParams::default();
    for nodes in [64usize, 512, 2048] {
        for ppn in [1usize, 4, 16] {
            // Barrier is the cheapest collective; allreduce adds combine
            // cost.
            assert!(
                coll::barrier_latency(&p, nodes, ppn) < coll::allreduce_latency(&p, nodes, ppn),
                "nodes={nodes} ppn={ppn}"
            );
        }
        // Figure 6: more processes per node cost the barrier its local
        // L2 phase (2.7 / 4.0 / 4.2 µs at 2048 nodes).
        let barrier = [1usize, 4, 16].map(|ppn| coll::barrier_latency(&p, nodes, ppn));
        assert!(barrier[0] < barrier[1] && barrier[1] < barrier[2], "nodes={nodes}");
        // Figure 7: the allreduce stays within the paper's 0.5 µs band
        // across ppn (5.5 / 5.0 / 5.3 µs at 2048 nodes).
        let allreduce = [1usize, 4, 16].map(|ppn| coll::allreduce_latency(&p, nodes, ppn));
        let spread = allreduce.iter().copied().fold(f64::MIN, f64::max)
            - allreduce.iter().copied().fold(f64::MAX, f64::min);
        assert!(spread <= 0.5e-6, "nodes={nodes}: {allreduce:?}");
    }
}

#[test]
fn modeled_throughput_never_exceeds_hardware() {
    let p = MachineParams::default();
    for size in [4096usize, 1 << 16, 1 << 20, 1 << 23] {
        for ppn in [1usize, 4, 16] {
            assert!(coll::allreduce_throughput(&p, 2048, ppn, size) <= p.link_payload_bw);
            assert!(coll::broadcast_throughput(&p, 2048, ppn, size) <= p.link_payload_bw);
            assert!(
                coll::rect_broadcast_throughput(&p, 2048, ppn, size)
                    <= 10.0 * p.link_payload_bw
            );
            // The 10-color algorithm never loses to the single tree.
            assert!(
                coll::rect_broadcast_throughput(&p, 2048, ppn, size)
                    >= 0.9 * coll::broadcast_throughput(&p, 2048, ppn, size),
                "size={size} ppn={ppn}"
            );
        }
    }
}

#[test]
fn modeled_peak_sizes_shift_down_with_ppn() {
    // The L2-spill knee moves to smaller buffers as PPN grows — the core
    // scaling insight of Figures 8/9.
    let p = MachineParams::default();
    let peak_size = |ppn: usize| -> usize {
        (13..=25)
            .map(|e| 1usize << e)
            .max_by(|&a, &b| {
                coll::allreduce_throughput(&p, 2048, ppn, a)
                    .total_cmp(&coll::allreduce_throughput(&p, 2048, ppn, b))
            })
            .unwrap()
    };
    let p1 = peak_size(1);
    let p4 = peak_size(4);
    let p16 = peak_size(16);
    assert!(p1 >= p4 && p4 >= p16, "peaks {p1} {p4} {p16}");
    assert!(p16 <= 1 << 20, "ppn16 peaks at or below 1MB");
}
