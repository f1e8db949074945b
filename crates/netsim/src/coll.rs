//! Collective models at machine scale: Figures 6–10.
//!
//! Latency figures (6, 7) time a signal round trip over the actual
//! classroute spanning tree of the node count. Throughput figures (8, 9,
//! 10) use a closed-form pipeline expression (serialization plus
//! store-and-forward depth) combined with the `memsys` working-set model
//! that produces the high-PPN falloffs.

use bgq_torus::packet::MAX_PAYLOAD_BYTES;
use bgq_torus::{Coords, Rectangle, SpanningTree, TorusShape, TreeKind, ALL_DIMS};

use crate::config::MachineParams;
use crate::memsys;

/// The classroute tree over an `nodes`-node partition (root at the
/// low corner, canonical dimension order).
pub(crate) fn world_tree(nodes: usize) -> SpanningTree {
    let shape = TorusShape::for_nodes(nodes);
    SpanningTree::build(
        shape,
        Rectangle::full(shape),
        Coords([0; 5]),
        TreeKind::DimOrdered(ALL_DIMS),
    )
}

/// An up-then-down signal round trip over `tree` (a GI barrier, or a
/// one-element combine): signals combine up from every leaf at once and a
/// release broadcasts down. With a constant per-hop latency `hop` and no
/// contention, the deepest leaf sets both halves: `2 × max_depth × hop`.
fn signal_round_trip(tree: &SpanningTree, hop: f64) -> f64 {
    2.0 * tree.max_depth() as f64 * hop
}

/// Wire time of one full packet (payload granularity of the pipelines).
fn packet_time(params: &MachineParams) -> f64 {
    MAX_PAYLOAD_BYTES as f64 / params.link_payload_bw
}

// ---------------------------------------------------------------------------
// Figure 6 — MPI_Barrier latency
// ---------------------------------------------------------------------------

/// Modeled `MPI_Barrier` latency (s) on `nodes` nodes at `ppn` processes
/// per node: GI round trip over the classroute tree plus the L2 local
/// barrier and call overhead.
pub fn barrier_latency(params: &MachineParams, nodes: usize, ppn: usize) -> f64 {
    let tree = world_tree(nodes);
    params.coll_sw_base
        + signal_round_trip(&tree, params.gi_hop_latency)
        + params.local_barrier(ppn)
}

// ---------------------------------------------------------------------------
// Figure 7 — MPI_Allreduce (one double) latency
// ---------------------------------------------------------------------------

/// Modeled single-element `MPI_Allreduce` latency (s): a combine round
/// trip over the classroute tree plus injection/polling software, with the
/// parallel local math hiding part of the software cost at ppn > 1.
pub fn allreduce_latency(params: &MachineParams, nodes: usize, ppn: usize) -> f64 {
    let tree = world_tree(nodes);
    let round_trip = signal_round_trip(&tree, params.collective_hop_latency);
    let hidden = params.allreduce_parallel_hide * (1.0 - 1.0 / ppn as f64);
    params.coll_sw_base
        + round_trip
        + params.allreduce_sw
        - hidden
        + 0.5 * params.local_barrier(ppn)
}

// ---------------------------------------------------------------------------
// Throughput pipelines (Figures 8–10)
// ---------------------------------------------------------------------------

/// Closed-form completion time of a packet-pipelined broadcast of `size`
/// bytes down `tree`: serialization plus store-and-forward depth.
fn pipeline_time(params: &MachineParams, tree: &SpanningTree, size: f64) -> f64 {
    let st = packet_time(params);
    let slices = (size / MAX_PAYLOAD_BYTES as f64).ceil();
    slices * st + tree.max_depth() as f64 * (params.hop_latency + st)
}

/// Combine-then-broadcast (allreduce) pipeline time: roughly twice the
/// depth term (up and down) on top of the serialization.
fn combine_pipeline_time(params: &MachineParams, tree: &SpanningTree, size: f64) -> f64 {
    let st = packet_time(params);
    let slices = (size / MAX_PAYLOAD_BYTES as f64).ceil();
    slices * st
        + 2.0 * tree.max_depth() as f64 * (params.collective_hop_latency + st)
}

/// Figure 8: `MPI_Allreduce` throughput (B/s) for `size`-byte buffers on
/// `nodes` nodes at `ppn` processes.
pub fn allreduce_throughput(params: &MachineParams, nodes: usize, ppn: usize, size: usize) -> f64 {
    let tree = world_tree(nodes);
    let size_f = size as f64;
    let t_net = combine_pipeline_time(params, &tree, size_f);
    // Local work: the parallel local math reads every process's input and
    // writes the node buffer, then peers copy the result out.
    let ws = memsys::allreduce_working_set(size_f, ppn);
    let local_bytes = (ppn as f64 + 1.0) * size_f + memsys::fanout_bytes(size_f, ppn);
    let t_local = local_bytes / memsys::copy_bw(params, ws);
    let t = t_net.max(t_local) + params.coll_sw_base + params.allreduce_sw;
    size_f / t
}

/// Figure 9: collective-network `MPI_Bcast` throughput (B/s).
pub fn broadcast_throughput(params: &MachineParams, nodes: usize, ppn: usize, size: usize) -> f64 {
    let tree = world_tree(nodes);
    let size_f = size as f64;
    let t_net = pipeline_time(params, &tree, size_f);
    let ws = memsys::broadcast_working_set(size_f, ppn);
    let t_local = memsys::fanout_bytes(size_f, ppn) / memsys::copy_bw(params, ws);
    let t = t_net.max(t_local) + params.coll_sw_base;
    size_f / t
}

/// Figure 10: the 10-color rectangle broadcast throughput (B/s). Each of
/// the ten edge-disjoint trees streams a tenth of the buffer, so the
/// network term divides by ten (at ~94% protocol efficiency); the
/// intra-node copy term is unchanged and becomes the bottleneck at high
/// PPN.
pub fn rect_broadcast_throughput(
    params: &MachineParams,
    nodes: usize,
    ppn: usize,
    size: usize,
) -> f64 {
    let shape = TorusShape::for_nodes(nodes);
    let rect = Rectangle::full(shape);
    let size_f = size as f64;
    // The slowest color bounds the network term.
    let st = packet_time(params);
    let slice = size_f / 10.0;
    let t_net = (0..10u8)
        .map(|c| {
            let tree = SpanningTree::build(shape, rect, Coords([0; 5]), TreeKind::Colored(c));
            let slices = (slice / MAX_PAYLOAD_BYTES as f64).ceil();
            // 94% protocol efficiency on the aggressive multi-tree path.
            slices * st / 0.94 + tree.max_depth() as f64 * (params.hop_latency + st)
        })
        .fold(0.0f64, f64::max);
    let ws = memsys::broadcast_working_set(size_f, ppn);
    let t_local = memsys::fanout_bytes(size_f, ppn) / memsys::copy_bw(params, ws);
    let t = t_net.max(t_local) + params.coll_sw_base;
    size_f / t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> MachineParams {
        MachineParams::default()
    }

    const MB: usize = 1024 * 1024;
    const KB: usize = 1024;

    #[test]
    fn signal_round_trip_on_a_line() {
        // A line of 5 from the end node: depth 4 up + 4 down = 8 hops.
        let shape = TorusShape::new([5, 1, 1, 1, 1]);
        let tree = SpanningTree::build(
            shape,
            Rectangle::full(shape),
            Coords([0; 5]),
            TreeKind::DimOrdered(ALL_DIMS),
        );
        let t = signal_round_trip(&tree, 10e-9);
        assert!((t - 8.0 * 10e-9).abs() < 1e-12, "got {t}");
    }

    #[test]
    fn figure6_barrier_latencies() {
        let params = p();
        // Paper: 2.7 / 4.0 / 4.2 µs at ppn 1/4/16 on 2048 nodes.
        let b1 = barrier_latency(&params, 2048, 1);
        let b4 = barrier_latency(&params, 2048, 4);
        let b16 = barrier_latency(&params, 2048, 16);
        assert!((b1 - 2.7e-6).abs() / 2.7e-6 < 0.15, "ppn1 {b1}");
        assert!((b4 - 4.0e-6).abs() / 4.0e-6 < 0.15, "ppn4 {b4}");
        assert!((b16 - 4.2e-6).abs() / 4.2e-6 < 0.15, "ppn16 {b16}");
        assert!(b1 < b4 && b4 < b16);
        // Logarithmic-ish growth in node count.
        assert!(barrier_latency(&params, 32, 1) < b1);
        assert!(b1 / barrier_latency(&params, 32, 1) < 4.0);
    }

    #[test]
    fn figure7_allreduce_latencies() {
        let params = p();
        // Paper: 5.5 / 5.0 / 5.3 µs at ppn 1/4/16 — flat within ~1 µs and
        // a few µs above barrier.
        let a1 = allreduce_latency(&params, 2048, 1);
        let a4 = allreduce_latency(&params, 2048, 4);
        let a16 = allreduce_latency(&params, 2048, 16);
        for (got, want) in [(a1, 5.5e-6), (a4, 5.0e-6), (a16, 5.3e-6)] {
            assert!((got - want).abs() / want < 0.20, "got {got}, want {want}");
        }
        assert!(a1 > barrier_latency(&params, 2048, 1));
        let spread = [a1, a4, a16];
        let max = spread.iter().cloned().fold(f64::MIN, f64::max);
        let min = spread.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min < 1.5e-6, "latency roughly flat across ppn");
    }

    #[test]
    fn figure8_allreduce_throughput_peaks_and_falloff() {
        let params = p();
        // ppn=1 peaks near 8 MB at ≈95% of 1.8 GB/s.
        let t8 = allreduce_throughput(&params, 2048, 1, 8 * MB);
        assert!(t8 > 0.92 * 1.8e9 * 0.92, "ppn1 8MB {t8}");
        assert!(t8 < 1.8e9);
        // ppn=4 peaks near 2 MB, then falls once spilled.
        let t4_peak = allreduce_throughput(&params, 2048, 4, 2 * MB);
        let t4_spill = allreduce_throughput(&params, 2048, 4, 8 * MB);
        assert!(t4_peak > 0.85 * 1.8e9, "ppn4 2MB {t4_peak}");
        assert!(t4_spill < t4_peak, "spill must reduce throughput");
        // ppn=16 peaks near 512 KB.
        let t16_peak = allreduce_throughput(&params, 2048, 16, 512 * KB);
        let t16_spill = allreduce_throughput(&params, 2048, 16, 4 * MB);
        assert!(t16_peak > 0.80 * 1.8e9, "ppn16 512KB {t16_peak}");
        assert!(t16_spill < 0.6 * t16_peak, "ppn16 falls hard after spill");
        // Small messages are latency-bound (rising curve).
        assert!(allreduce_throughput(&params, 2048, 1, 8 * KB) < 0.5 * t8);
    }

    #[test]
    fn figure9_broadcast_throughput() {
        let params = p();
        // ppn=1: ≈96% of payload peak at 32 MB.
        let t1 = broadcast_throughput(&params, 2048, 1, 32 * MB);
        assert!(t1 > 0.94 * 1.8e9, "ppn1 32MB {t1}");
        // ppn=4 peak near 4 MB stays ≈ network peak.
        let t4 = broadcast_throughput(&params, 2048, 4, 4 * MB);
        assert!(t4 > 0.90 * 1.8e9, "ppn4 4MB {t4}");
        // ppn=16: peak near 1 MB; large sizes drop below the peak.
        let t16_peak = broadcast_throughput(&params, 2048, 16, MB);
        let t16_large = broadcast_throughput(&params, 2048, 16, 16 * MB);
        assert!(t16_peak > 0.90 * 1.8e9, "ppn16 1MB {t16_peak}");
        assert!(t16_large < 0.7 * t16_peak, "ppn16 16MB {t16_large}");
    }

    #[test]
    fn figure10_rect_broadcast() {
        let params = p();
        // ppn=1: ≈16.9 GB/s — close to ten links' worth.
        let t1 = rect_broadcast_throughput(&params, 2048, 1, 32 * MB);
        assert!((t1 - 16.9e9).abs() / 16.9e9 < 0.08, "ppn1 {t1}");
        // Nearly 10× the single-tree broadcast.
        let single = broadcast_throughput(&params, 2048, 1, 32 * MB);
        assert!(t1 / single > 8.5, "ratio {:.2}", t1 / single);
        // ppn=4/16: copy-rate limited, well below ppn=1.
        let t4 = rect_broadcast_throughput(&params, 2048, 4, 4 * MB);
        let t16 = rect_broadcast_throughput(&params, 2048, 16, MB);
        assert!(t4 < t1 && t16 < t4, "copy limits: {t1} {t4} {t16}");
        assert!(t4 > 1.8e9, "still beats a single tree at ppn=4");
    }

    #[test]
    fn latency_grows_with_node_count() {
        let params = p();
        let mut prev = 0.0;
        for nodes in [32usize, 128, 512, 2048] {
            let b = barrier_latency(&params, nodes, 1);
            assert!(b > prev);
            prev = b;
        }
    }
}

#[cfg(test)]
mod projection_tests {
    use super::*;

    /// The paper's introduction projects barrier < 9 µs and allreduce
    /// < 12 µs on 96 racks (96×1024 nodes); the models must land inside.
    #[test]
    fn ninety_six_rack_projection() {
        let p = MachineParams::default();
        let nodes = 96 * 1024;
        for ppn in [1usize, 16] {
            let b = barrier_latency(&p, nodes, ppn);
            let a = allreduce_latency(&p, nodes, ppn);
            assert!(b < 9e-6, "barrier {b} at ppn {ppn}");
            assert!(a < 12e-6, "allreduce {a} at ppn {ppn}");
            assert!(b > barrier_latency(&p, 2048, ppn), "grows with scale");
        }
    }
}
