//! Property-based tests of torus geometry, routing, and spanning trees.

use bgq_torus::packet::{packets_for, wire_bytes_for, HEADER_BYTES, MAX_PAYLOAD_BYTES};
use bgq_torus::route::{det_route, hop_distance, walk};
use bgq_torus::trees::{SpanningTree, TreeKind};
use bgq_torus::{Coords, Rectangle, TorusShape, ALL_DIMS};
use proptest::prelude::*;

fn arb_shape() -> impl Strategy<Value = TorusShape> {
    (1u16..6, 1u16..6, 1u16..4, 1u16..4, 1u16..3)
        .prop_map(|(a, b, c, d, e)| TorusShape::new([a, b, c, d, e]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// node_index and coords_of are inverse bijections.
    #[test]
    fn rank_coordinate_bijection(shape in arb_shape()) {
        let mut seen = std::collections::HashSet::new();
        for i in 0..shape.num_nodes() {
            let c = shape.coords_of(i);
            prop_assert!(shape.contains(c));
            prop_assert_eq!(shape.node_index(c), i);
            prop_assert!(seen.insert(c));
        }
    }

    /// Deterministic routes terminate at the destination with minimal
    /// length and dimension-ordered hops.
    #[test]
    fn det_route_is_minimal_and_ordered(shape in arb_shape(), seed in any::<u64>()) {
        let n = shape.num_nodes();
        let src = shape.coords_of((seed % n as u64) as usize);
        let dst = shape.coords_of(((seed >> 16) % n as u64) as usize);
        let route = det_route(shape, src, dst);
        prop_assert_eq!(walk(shape, src, &route), dst);
        prop_assert_eq!(route.len() as u32, hop_distance(shape, src, dst));
        let idxs: Vec<usize> = route.iter().map(|d| d.dim.index()).collect();
        prop_assert!(idxs.windows(2).all(|w| w[0] <= w[1]));
        // Distance is symmetric and within the diameter.
        prop_assert_eq!(hop_distance(shape, src, dst), hop_distance(shape, dst, src));
        prop_assert!(hop_distance(shape, src, dst) <= shape.diameter());
    }

    /// Every rectangle's member indexing is a bijection.
    #[test]
    fn rectangle_member_bijection(shape in arb_shape(), seed in any::<u64>()) {
        let lo = shape.coords_of((seed % shape.num_nodes() as u64) as usize);
        let hi = shape.coords_of(((seed >> 20) % shape.num_nodes() as u64) as usize);
        let (mut l, mut h) = (lo.0, hi.0);
        for d in 0..5 {
            if l[d] > h[d] {
                std::mem::swap(&mut l[d], &mut h[d]);
            }
        }
        let rect = Rectangle::new(Coords(l), Coords(h));
        for (i, c) in rect.iter().enumerate() {
            prop_assert!(rect.contains(c));
            prop_assert_eq!(rect.member_index(c), i);
            prop_assert_eq!(rect.member_coords(i), c);
        }
        let members: Vec<Coords> = rect.iter().collect();
        prop_assert_eq!(Rectangle::exactly_covers(&members), Some(rect));
    }

    /// Every tree kind spans its rectangle: unique root, acyclic parent
    /// chains, single-hop edges.
    #[test]
    fn spanning_trees_span(shape in arb_shape(), color in 0u8..10, seed in any::<u64>()) {
        let rect = Rectangle::full(shape);
        let root = shape.coords_of((seed % shape.num_nodes() as u64) as usize);
        for kind in [TreeKind::DimOrdered(ALL_DIMS), TreeKind::Colored(color)] {
            let tree = SpanningTree::build(shape, rect, root, kind);
            prop_assert_eq!(tree.num_nodes(), rect.num_nodes());
            let mut reached = 0;
            for c in rect.iter() {
                let mut cur = c;
                let mut hops = 0;
                while let Some(p) = tree.parent_of(cur) {
                    prop_assert_eq!(hop_distance(shape, cur, p), 1);
                    cur = p;
                    hops += 1;
                    prop_assert!(hops <= tree.num_nodes());
                }
                prop_assert_eq!(cur, root);
                reached += 1;
            }
            prop_assert_eq!(reached, rect.num_nodes());
            prop_assert_eq!(tree.bfs_order().len(), rect.num_nodes());
        }
    }

    /// Packetization arithmetic: counts and wire bytes are consistent.
    #[test]
    fn packetization_consistent(len in 0usize..4_000_000) {
        let pkts = packets_for(len);
        prop_assert!(pkts >= 1);
        prop_assert!(pkts * MAX_PAYLOAD_BYTES >= len);
        if len > 0 {
            prop_assert!((pkts - 1) * MAX_PAYLOAD_BYTES < len);
        }
        let wire = wire_bytes_for(len);
        prop_assert!(wire >= len + HEADER_BYTES);
        prop_assert!(wire >= pkts * HEADER_BYTES);
        // Efficiency never exceeds the 512/544 hardware bound.
        if len > 0 {
            let eff = len as f64 / wire as f64;
            prop_assert!(eff <= 512.0 / 544.0 + 1e-12);
        }
    }

    /// Coordinate neighbors: ten applications of reverse directions return
    /// to the start.
    #[test]
    fn neighbor_reverse_round_trip(shape in arb_shape(), seed in any::<u64>()) {
        let src = shape.coords_of((seed % shape.num_nodes() as u64) as usize);
        for dir in bgq_torus::Dir::all() {
            let there = shape.neighbor(src, dir);
            let back = shape.neighbor(there, dir.reverse());
            prop_assert_eq!(back, src);
        }
    }
}
