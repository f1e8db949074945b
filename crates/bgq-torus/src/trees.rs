//! Spanning trees over rectangular node sets.
//!
//! Two tree families drive BG/Q collectives:
//!
//! * The **dimension-ordered tree** is the shape a classroute gives the
//!   embedded collective network over a rectangle: packets combine up the
//!   tree to the root and broadcast down it.
//! * The **colored trees** behind the "10-color rectangle broadcast"
//!   (paper Figure 10, algorithm from the CCMI work \[15\]): the root
//!   stripes a broadcast over up to ten spanning trees, each leading with a
//!   different directed link (A+, A−, …, E−), so the aggregate bandwidth
//!   approaches ten links' worth (≈18 GB/s peak).
//!
//! Colored trees rotate the dimension order by the color and, when the
//! rectangle spans a dimension's full torus extent, run *unidirectional*
//! chains with wraparound — the "+" and "−" colors of a dimension then use
//! disjoint directed links along it. (The full edge-disjointness proof of
//! \[15\] involves a finer link schedule; what this reproduction preserves
//! is the tree structure, the striping, and the aggregate-bandwidth
//! property the paper measures.)

use crate::coords::{Coords, Dim, TorusShape, ALL_DIMS, NUM_DIMS};
use crate::rect::Rectangle;

/// Which tree family to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// Classroute-style tree correcting dimensions in the given order, with
    /// bidirectional chains inside the rectangle.
    DimOrdered([Dim; NUM_DIMS]),
    /// Rectangle-broadcast tree for `color` ∈ 0..10. Color `c` rotates the
    /// dimension order to start at dimension `c % 5`; colors 0–4 run "+"
    /// chains, colors 5–9 run "−" chains (with wraparound where the
    /// rectangle spans the torus).
    Colored(u8),
}

/// Maximum number of colors (directed links out of a node).
pub(crate) const NUM_COLORS: u8 = 10;

/// A rooted spanning tree over the members of a [`Rectangle`].
#[derive(Debug, Clone)]
pub struct SpanningTree {
    rect: Rectangle,
    root: Coords,
    /// Parent member-index per member; `None` at the root.
    parents: Vec<Option<u32>>,
    /// Children member-indices per member.
    children: Vec<Vec<u32>>,
    /// Hop depth per member.
    depth: Vec<u16>,
}

impl SpanningTree {
    /// Build a spanning tree of `rect` rooted at `root`.
    ///
    /// `shape` supplies torus extents so full-extent dimensions of colored
    /// trees can wrap.
    ///
    /// # Panics
    /// If `root` is outside `rect`, or a colored tree's color ≥ 10.
    pub fn build(shape: TorusShape, rect: Rectangle, root: Coords, kind: TreeKind) -> Self {
        assert!(rect.contains(root), "tree root {root} outside rectangle");
        let (order, plus) = match kind {
            TreeKind::DimOrdered(order) => (order, true),
            TreeKind::Colored(color) => {
                assert!(color < NUM_COLORS, "color {color} out of range");
                let start = (color % 5) as usize;
                let mut order = [Dim::A; NUM_DIMS];
                for (i, slot) in order.iter_mut().enumerate() {
                    *slot = ALL_DIMS[(start + i) % NUM_DIMS];
                }
                (order, color < 5)
            }
        };
        let wrap = matches!(kind, TreeKind::Colored(_));

        let n = rect.num_nodes();
        let mut parents = vec![None; n];
        let mut children = vec![Vec::new(); n];
        let mut depth = vec![0u16; n];

        for (idx, c) in rect.iter().enumerate() {
            if c == root {
                continue;
            }
            let parent = Self::parent_coords(shape, rect, root, c, &order, plus, wrap);
            let pidx = rect.member_index(parent) as u32;
            parents[idx] = Some(pidx);
            children[pidx as usize].push(idx as u32);
        }
        // Depths via BFS from the root.
        let root_idx = rect.member_index(root);
        let mut queue = std::collections::VecDeque::from([root_idx as u32]);
        while let Some(i) = queue.pop_front() {
            for &ch in &children[i as usize] {
                depth[ch as usize] = depth[i as usize] + 1;
                queue.push_back(ch);
            }
        }
        SpanningTree { rect, root, parents, children, depth }
    }

    /// The parent of `c`: step back along the *last* (in `order`) dimension
    /// where `c` differs from the root — the inverse of the dimension-
    /// ordered path root → c.
    fn parent_coords(
        shape: TorusShape,
        rect: Rectangle,
        root: Coords,
        c: Coords,
        order: &[Dim; NUM_DIMS],
        plus: bool,
        wrap: bool,
    ) -> Coords {
        let last_diff = order
            .iter()
            .rev()
            .find(|&&d| c.get(d) != root.get(d))
            .copied()
            .expect("non-root node differs somewhere");
        let e = shape.extent(last_diff);
        let full_extent = rect.extent(last_diff) == e;
        let x = c.get(last_diff);
        let r = root.get(last_diff);
        let px = if wrap && full_extent {
            // Unidirectional chain around the ring: with "+" chains the root
            // reaches offset k via k "+"-hops, so the parent sits one step
            // "-" of us (and vice versa).
            if plus {
                (x + e - 1) % e
            } else {
                (x + 1) % e
            }
        } else {
            // Bidirectional chain within the box, stepping toward the root.
            if x > r {
                x - 1
            } else {
                x + 1
            }
        };
        c.with(last_diff, px)
    }

    /// Root coordinates.
    pub fn root(&self) -> Coords {
        self.root
    }

    /// The rectangle this tree spans.
    pub fn rect(&self) -> Rectangle {
        self.rect
    }

    /// Member count.
    pub fn num_nodes(&self) -> usize {
        self.parents.len()
    }

    /// Parent of `c`; `None` at the root.
    pub fn parent_of(&self, c: Coords) -> Option<Coords> {
        self.parents[self.rect.member_index(c)].map(|i| self.rect.member_coords(i as usize))
    }

    /// Children of `c`.
    pub fn children_of(&self, c: Coords) -> Vec<Coords> {
        self.children[self.rect.member_index(c)]
            .iter()
            .map(|&i| self.rect.member_coords(i as usize))
            .collect()
    }

    /// Deepest leaf depth — the latency-determining height of the tree.
    pub fn max_depth(&self) -> u16 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Members in BFS (root-first) order — the delivery order of a
    /// down-tree broadcast.
    pub fn bfs_order(&self) -> Vec<Coords> {
        let mut out = Vec::with_capacity(self.num_nodes());
        let mut queue = std::collections::VecDeque::from([self.rect.member_index(self.root) as u32]);
        while let Some(i) = queue.pop_front() {
            out.push(self.rect.member_coords(i as usize));
            queue.extend(self.children[i as usize].iter().copied());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hops from `c` up to the root, walked through `parent_of`.
    fn depth(tree: &SpanningTree, c: Coords) -> u16 {
        std::iter::successors(Some(c), |&at| tree.parent_of(at)).count() as u16 - 1
    }

    fn assert_spanning(shape: TorusShape, tree: &SpanningTree) {
        // Every node reaches the root through finitely many parents.
        for c in tree.rect.iter() {
            let mut cur = c;
            let mut steps = 0;
            while let Some(p) = tree.parent_of(cur) {
                // Every parent edge is a single torus hop.
                assert_eq!(crate::route::hop_distance(shape, cur, p), 1);
                cur = p;
                steps += 1;
                assert!(steps <= tree.num_nodes(), "cycle detected at {c}");
            }
            assert_eq!(cur, tree.root());
        }
        // BFS covers all members exactly once.
        let order = tree.bfs_order();
        assert_eq!(order.len(), tree.num_nodes());
    }

    #[test]
    fn dim_ordered_tree_spans_box() {
        let shape = TorusShape::new([4, 3, 2, 2, 2]);
        let rect = Rectangle::full(shape);
        let root = Coords([1, 1, 0, 0, 0]);
        let tree = SpanningTree::build(shape, rect, root, TreeKind::DimOrdered(ALL_DIMS));
        assert_spanning(shape, &tree);
        assert_eq!(tree.parent_of(root), None);
    }

    #[test]
    fn dim_ordered_depth_is_manhattan_distance() {
        let shape = TorusShape::new([5, 5, 1, 1, 1]);
        let rect = Rectangle::full(shape);
        let root = Coords([2, 2, 0, 0, 0]);
        let tree = SpanningTree::build(shape, rect, root, TreeKind::DimOrdered(ALL_DIMS));
        for c in rect.iter() {
            let manhattan: u16 = (0..5)
                .map(|d| (c.0[d] as i32 - root.0[d] as i32).unsigned_abs() as u16)
                .sum();
            assert_eq!(depth(&tree, c), manhattan, "at {c}");
        }
        assert_eq!(tree.max_depth(), 4, "the corners are 2 + 2 hops out");
    }

    #[test]
    fn all_ten_colors_span_the_full_torus() {
        let shape = TorusShape::new([3, 3, 2, 2, 2]);
        let rect = Rectangle::full(shape);
        let root = Coords([0, 0, 0, 0, 0]);
        for color in 0..NUM_COLORS {
            let tree = SpanningTree::build(shape, rect, root, TreeKind::Colored(color));
            assert_spanning(shape, &tree);
        }
    }

    #[test]
    fn opposite_colors_use_opposite_directed_links() {
        // On a full-torus rectangle, every chain of a "+" color travels only
        // "+" directed links (and "−" colors only "−" links) along
        // dimensions with extent ≥ 3, so the ± color pair of a dimension
        // never contends for a directed link there — the disjointness the
        // 10-color aggregate bandwidth relies on.
        let shape = TorusShape::new([4, 4, 4, 4, 2]);
        let rect = Rectangle::full(shape);
        let root = Coords([0, 0, 0, 0, 0]);
        for color in 0..NUM_COLORS {
            let tree = SpanningTree::build(shape, rect, root, TreeKind::Colored(color));
            let expect_plus = color < 5;
            for c in rect.iter() {
                let Some(p) = tree.parent_of(c) else { continue };
                // The edge travels parent -> child; find its directed link.
                let dir = crate::coords::Dir::all()
                    .into_iter()
                    .find(|&d| shape.neighbor(p, d) == c)
                    .expect("parent edge is one hop");
                if shape.extent(dir.dim) >= 3 {
                    assert_eq!(
                        dir.plus, expect_plus,
                        "color {color} edge {p}->{c} travels {dir}"
                    );
                }
            }
        }
    }

    #[test]
    fn wrap_chains_have_depth_up_to_extent_minus_one() {
        let shape = TorusShape::new([6, 1, 1, 1, 1]);
        let rect = Rectangle::full(shape);
        let root = Coords([0; 5]);
        let plus = SpanningTree::build(shape, rect, root, TreeKind::Colored(0));
        // "+"-chain: node at coordinate k has depth k.
        for k in 0..6u16 {
            assert_eq!(depth(&plus, Coords([k, 0, 0, 0, 0])), k);
        }
        let minus = SpanningTree::build(shape, rect, root, TreeKind::Colored(5));
        for k in 1..6u16 {
            assert_eq!(depth(&minus, Coords([k, 0, 0, 0, 0])), 6 - k);
        }
    }

    #[test]
    fn sub_rectangle_tree_stays_inside() {
        let shape = TorusShape::new([8, 8, 1, 1, 1]);
        let rect = Rectangle::new(Coords([2, 3, 0, 0, 0]), Coords([5, 6, 0, 0, 0]));
        let root = Coords([3, 4, 0, 0, 0]);
        let tree = SpanningTree::build(shape, rect, root, TreeKind::DimOrdered(ALL_DIMS));
        assert_spanning(shape, &tree);
        for c in tree.bfs_order() {
            assert!(rect.contains(c));
        }
    }

    #[test]
    #[should_panic(expected = "outside rectangle")]
    fn root_outside_rect_panics() {
        let shape = TorusShape::new([4, 4, 1, 1, 1]);
        let rect = Rectangle::new(Coords([0, 0, 0, 0, 0]), Coords([1, 1, 0, 0, 0]));
        SpanningTree::build(shape, rect, Coords([3, 3, 0, 0, 0]), TreeKind::DimOrdered(ALL_DIMS));
    }
}
