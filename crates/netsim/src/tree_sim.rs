//! Event-driven propagation over spanning trees.
//!
//! [`signal_round_trip`] times a GI barrier or a one-element combine:
//! signals combine *up* the tree (each node fires once all children have)
//! and a release broadcasts *down*; the result is the wall time of the full
//! round trip. It runs on the [`crate::des`] engine over real
//! [`SpanningTree`]s, so irregular shapes (deep 2×…, shallow 8×8×…) are
//! timed faithfully.

use bgq_torus::{Coords, SpanningTree};

use crate::des::Engine;

#[derive(Debug, Clone, PartialEq)]
enum Ev {
    /// Up-phase: a node's subtree is complete.
    UpReady(u32),
    /// Down-phase: release arrival at a node.
    Down(u32),
}

fn index_of(tree: &SpanningTree, c: Coords) -> u32 {
    tree.rect().member_index(c) as u32
}

/// Simulate an up-then-down signal round trip (the GI barrier): returns the
/// time from all leaves firing at t=0 to the last node receiving the
/// release. `hop` is the per-hop propagation latency.
pub(crate) fn signal_round_trip(tree: &SpanningTree, hop: f64) -> f64 {
    let n = tree.num_nodes();
    let mut missing: Vec<usize> = vec![0; n];
    let mut parent: Vec<Option<u32>> = vec![None; n];
    for c in tree.bfs_order() {
        let i = index_of(tree, c) as usize;
        missing[i] = tree.children_of(c).len();
        parent[i] = tree.parent_of(c).map(|p| index_of(tree, p));
    }
    let children: Vec<Vec<u32>> = tree
        .bfs_order()
        .iter()
        .map(|c| tree.children_of(*c).iter().map(|ch| index_of(tree, *ch)).collect())
        .collect();
    // bfs_order() is root-first but indices are member indices; build a
    // member-indexed children table.
    let mut child_table: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (c, kids) in tree.bfs_order().into_iter().zip(children) {
        child_table[index_of(tree, c) as usize] = kids;
    }

    let mut engine: Engine<Ev> = Engine::new();
    // Leaves are up-ready immediately.
    for c in tree.bfs_order() {
        let i = index_of(tree, c) as usize;
        if missing[i] == 0 {
            engine.schedule(0.0, Ev::UpReady(i as u32));
        }
    }
    let root = index_of(tree, tree.root());
    let mut last_down: f64 = 0.0;
    engine.drive(|t, ev, out| match ev {
        Ev::UpReady(i) => {
            if i == root {
                out.push((t, Ev::Down(i)));
            } else if let Some(p) = parent[i as usize] {
                missing[p as usize] -= 1;
                if missing[p as usize] == 0 {
                    out.push((t + hop, Ev::UpReady(p)));
                }
            }
        }
        Ev::Down(i) => {
            last_down = last_down.max(t);
            for &ch in &child_table[i as usize] {
                out.push((t + hop, Ev::Down(ch)));
            }
        }
    });
    last_down
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_torus::{Rectangle, TorusShape, TreeKind, ALL_DIMS};

    fn line_tree(len: u16) -> (TorusShape, SpanningTree) {
        let shape = TorusShape::new([len, 1, 1, 1, 1]);
        let rect = Rectangle::full(shape);
        let tree = SpanningTree::build(shape, rect, Coords([0; 5]), TreeKind::DimOrdered(ALL_DIMS));
        (shape, tree)
    }

    #[test]
    fn signal_round_trip_on_a_line() {
        // A line of 5 from the end node: depth 4 up + 4 down = 8 hops.
        let (_s, tree) = line_tree(5);
        let t = signal_round_trip(&tree, 10e-9);
        assert!((t - 8.0 * 10e-9).abs() < 1e-12, "got {t}");
    }

    #[test]
    fn signal_round_trip_single_node_is_free() {
        let (_s, tree) = line_tree(1);
        assert_eq!(signal_round_trip(&tree, 10e-9), 0.0);
    }

    #[test]
    fn deeper_trees_take_longer() {
        let (_s, t8) = line_tree(8);
        let (_s, t16) = line_tree(16);
        let a = signal_round_trip(&t8, 10e-9);
        let b = signal_round_trip(&t16, 10e-9);
        assert!(b > a);
    }
}
