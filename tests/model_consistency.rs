//! The orderings the paper's evaluation rests on, checked in the timing
//! models. The functional stack's half is held as exact counts in
//! `crates/bench/tests/counts.rs` (`mpi_half_round_trip_is_pamis_plus_a_match`)
//! and its time as `pamibench` rows.

use pami_repro::bgq_netsim::{coll, p2p, MachineParams};

#[test]
fn modeled_latency_orderings_match_paper() {
    let p = MachineParams::default();
    // PAMI beats MPI; immediate beats queued.
    let imm = p2p::pami_send_immediate_latency(&p, 0);
    let send = p2p::pami_send_latency(&p, 0);
    let classic = p2p::mpi_latency(
        &p,
        p2p::MpiLatencyConfig { thread_optimized: false, thread_multiple: false, commthreads: false },
        0,
    );
    assert!(imm < send && send < classic);
    // Barrier is the cheapest collective; allreduce adds combine cost.
    for nodes in [64usize, 512, 2048] {
        for ppn in [1usize, 4, 16] {
            assert!(
                coll::barrier_latency(&p, nodes, ppn) < coll::allreduce_latency(&p, nodes, ppn),
                "nodes={nodes} ppn={ppn}"
            );
        }
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
