//! Property-based checks of the timing models: monotonicity and physical
//! bounds must hold for *any* configuration, not just the paper's points.

use bgq_netsim::{coll, p2p, MachineParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Latency models grow (weakly) with node count and PPN and are always
    /// positive.
    #[test]
    fn latency_monotone_in_scale(exp in 3u32..11, ppn_idx in 0usize..3) {
        let p = MachineParams::default();
        let ppn = [1usize, 4, 16][ppn_idx];
        let nodes = 1usize << exp;
        let b = coll::barrier_latency(&p, nodes, ppn);
        let b2 = coll::barrier_latency(&p, nodes * 2, ppn);
        prop_assert!(b > 0.0 && b2 >= b);
        let a = coll::allreduce_latency(&p, nodes, ppn);
        prop_assert!(a > b, "allreduce beats barrier?");
        prop_assert!(coll::barrier_latency(&p, nodes, 16) >= coll::barrier_latency(&p, nodes, 1));
    }

    /// Throughput models are positive, bounded by hardware, and weakly
    /// increasing in message size until the working-set knee.
    #[test]
    fn throughput_bounded_by_links(exp in 10u32..25, ppn_idx in 0usize..3) {
        let p = MachineParams::default();
        let ppn = [1usize, 4, 16][ppn_idx];
        let size = 1usize << exp;
        let ar = coll::allreduce_throughput(&p, 2048, ppn, size);
        let bc = coll::broadcast_throughput(&p, 2048, ppn, size);
        let rc = coll::rect_broadcast_throughput(&p, 2048, ppn, size);
        prop_assert!(ar > 0.0 && ar <= p.link_payload_bw);
        prop_assert!(bc > 0.0 && bc <= p.link_payload_bw);
        prop_assert!(rc > 0.0 && rc <= 10.0 * p.link_payload_bw);
        // The striped broadcast never loses to the single tree.
        prop_assert!(rc >= 0.9 * bc);
    }

    /// All-to-all bandwidth grows with torus dimensionality for a fixed
    /// node count (power-of-two shapes).
    #[test]
    fn alltoall_prefers_dimensions(split in 0u32..4) {
        let p = MachineParams::default();
        // 256 nodes split over 1+split dimensions vs all five.
        let mut flat = [1u16; 5];
        let per = 256f64.powf(1.0 / (1 + split) as f64).round() as u16;
        let mut rem = 256usize;
        for slot in flat.iter_mut().take(split as usize + 1) {
            let take = per.min(rem as u16).max(1);
            *slot = take;
            rem /= take as usize;
        }
        flat[0] = (flat[0] as usize * rem.max(1)) as u16;
        let lowdim = bgq_torus::TorusShape::new(flat);
        let fivedim = bgq_torus::TorusShape::new([4, 4, 4, 2, 2]);
        prop_assume!(lowdim.num_nodes() == 256);
        let low = p2p::alltoall_node_bandwidth(&p, lowdim);
        let five = p2p::alltoall_node_bandwidth(&p, fivedim);
        prop_assert!(five >= low * 0.99, "5D {five} vs {}D {low}", split + 1);
    }
}
