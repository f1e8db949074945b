//! Rectangular node subsets.
//!
//! The BG/Q collective network accelerates operations on `MPI_COMM_WORLD`
//! *and* on sub-communicators whose nodes form contiguous rectangles (lines,
//! planes, cubes, …) — classroutes can only be programmed over such sets.
//! [`Rectangle`] is that set: an inclusive lo/hi corner box inside a torus
//! shape.

use crate::coords::{Coords, Dim, TorusShape, ALL_DIMS, NUM_DIMS};

/// A contiguous rectangular subset of the torus, inclusive of both corners.
///
/// Rectangles never wrap around the torus edge: classroute link programming
/// in this model requires `lo[d] <= hi[d]` in every dimension. (Hardware
/// classroutes have the same practical restriction for user partitions.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rectangle {
    /// Lower corner (inclusive).
    pub lo: Coords,
    /// Upper corner (inclusive).
    pub hi: Coords,
}

impl Rectangle {
    /// Build a rectangle, validating corner ordering.
    ///
    /// # Panics
    /// If any `lo[d] > hi[d]`.
    pub fn new(lo: Coords, hi: Coords) -> Self {
        for d in ALL_DIMS {
            assert!(
                lo.get(d) <= hi.get(d),
                "rectangle corners out of order in {d}: {} > {}",
                lo.get(d),
                hi.get(d)
            );
        }
        Rectangle { lo, hi }
    }

    /// The rectangle covering an entire torus shape.
    pub fn full(shape: TorusShape) -> Self {
        let mut hi = [0u16; NUM_DIMS];
        for (d, h) in hi.iter_mut().enumerate() {
            *h = shape.0[d] - 1;
        }
        Rectangle { lo: Coords([0; NUM_DIMS]), hi: Coords(hi) }
    }

    /// Extent (node count) along `dim`.
    pub fn extent(&self, dim: Dim) -> u16 {
        self.hi.get(dim) - self.lo.get(dim) + 1
    }

    /// Total nodes in the rectangle.
    pub fn num_nodes(&self) -> usize {
        ALL_DIMS.iter().map(|&d| self.extent(d) as usize).product()
    }

    /// Whether `c` lies inside.
    pub fn contains(&self, c: Coords) -> bool {
        ALL_DIMS
            .iter()
            .all(|&d| self.lo.get(d) <= c.get(d) && c.get(d) <= self.hi.get(d))
    }

    /// Number of dimensions with extent > 1 (0 = single node, 1 = line,
    /// 2 = plane, 3 = cube, …).
    pub fn dimensionality(&self) -> usize {
        ALL_DIMS.iter().filter(|&&d| self.extent(d) > 1).count()
    }

    /// Iterate the member coordinates in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = Coords> + '_ {
        let lo = self.lo;
        let hi = self.hi;
        let counts: Vec<usize> = ALL_DIMS.iter().map(|&d| self.extent(d) as usize).collect();
        let total = self.num_nodes();
        (0..total).map(move |mut i| {
            let mut c = [0u16; NUM_DIMS];
            for d in (0..NUM_DIMS).rev() {
                let e = counts[d];
                c[d] = lo.0[d] + (i % e) as u16;
                i /= e;
            }
            debug_assert!(c.iter().zip(hi.0.iter()).all(|(&x, &h)| x <= h));
            Coords(c)
        })
    }

    /// The member index (0..num_nodes) of `c` within the rectangle, in the
    /// same lexicographic order as [`Rectangle::iter`].
    ///
    /// # Panics
    /// If `c` is outside the rectangle.
    pub fn member_index(&self, c: Coords) -> usize {
        assert!(self.contains(c), "coords {c} outside rectangle");
        let mut idx = 0usize;
        for d in 0..NUM_DIMS {
            let e = self.extent(Dim::from_index(d)) as usize;
            idx = idx * e + (c.0[d] - self.lo.0[d]) as usize;
        }
        idx
    }

    /// Inverse of [`Rectangle::member_index`].
    pub fn member_coords(&self, index: usize) -> Coords {
        assert!(index < self.num_nodes(), "member index out of range");
        let mut rem = index;
        let mut c = [0u16; NUM_DIMS];
        for d in (0..NUM_DIMS).rev() {
            let e = self.extent(Dim::from_index(d)) as usize;
            c[d] = self.lo.0[d] + (rem % e) as u16;
            rem /= e;
        }
        Coords(c)
    }

    /// The smallest rectangle containing every coordinate in `coords`;
    /// `None` for an empty slice.
    pub(crate) fn bounding(coords: &[Coords]) -> Option<Rectangle> {
        let first = *coords.first()?;
        let mut lo = first.0;
        let mut hi = first.0;
        for c in &coords[1..] {
            for d in 0..NUM_DIMS {
                lo[d] = lo[d].min(c.0[d]);
                hi[d] = hi[d].max(c.0[d]);
            }
        }
        Some(Rectangle { lo: Coords(lo), hi: Coords(hi) })
    }

    /// Whether `coords` is *exactly* a rectangle (its bounding box contains
    /// no extra nodes). This is the test PAMI applies before trying to give
    /// a communicator a classroute.
    pub fn exactly_covers(coords: &[Coords]) -> Option<Rectangle> {
        let rect = Self::bounding(coords)?;
        if rect.num_nodes() != coords.len() {
            return None;
        }
        // Bounding box of n distinct coords with matching count covers them
        // iff all coords are distinct; verify.
        let mut sorted = coords.to_vec();
        sorted.sort();
        sorted.dedup();
        (sorted.len() == coords.len()).then_some(rect)
    }
}

/// An axial range: the nodes reachable from `origin` walking along one
/// dimension. The paper's "axial topology" stores communicator membership
/// for such sets in O(1) space; this is the geometric object behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxialRange {
    /// Starting coordinate.
    pub origin: Coords,
    /// The dimension the range extends along.
    pub dim: Dim,
    /// Number of nodes in the range (≥ 1), extending in "+".
    pub len: u16,
}

impl AxialRange {
    /// Member coordinates, with wraparound inside `shape`.
    pub fn iter(&self, shape: TorusShape) -> impl Iterator<Item = Coords> + '_ {
        let e = shape.extent(self.dim);
        let origin = self.origin;
        let dim = self.dim;
        (0..self.len).map(move |i| {
            let x = (origin.get(dim) + i) % e;
            origin.with(dim, x)
        })
    }

    /// Whether `c` is a member (inside `shape`).
    pub fn contains(&self, shape: TorusShape, c: Coords) -> bool {
        for d in ALL_DIMS {
            if d != self.dim && c.get(d) != self.origin.get(d) {
                return false;
            }
        }
        let e = shape.extent(self.dim) as i32;
        let delta = (c.get(self.dim) as i32 - self.origin.get(self.dim) as i32).rem_euclid(e);
        (delta as u16) < self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: [u16; 5], hi: [u16; 5]) -> Rectangle {
        Rectangle::new(Coords(lo), Coords(hi))
    }

    #[test]
    fn counts_and_membership() {
        let r = rect([1, 1, 0, 0, 0], [2, 3, 0, 0, 0]);
        assert_eq!(r.num_nodes(), 2 * 3);
        assert!(r.contains(Coords([2, 2, 0, 0, 0])));
        assert!(!r.contains(Coords([0, 2, 0, 0, 0])));
        assert_eq!(r.dimensionality(), 2);
    }

    #[test]
    fn iter_matches_member_index() {
        let r = rect([0, 1, 0, 2, 0], [1, 2, 0, 4, 1]);
        for (i, c) in r.iter().enumerate() {
            assert_eq!(r.member_index(c), i);
            assert_eq!(r.member_coords(i), c);
        }
    }

    #[test]
    fn full_covers_shape() {
        let shape = TorusShape::new([2, 3, 2, 1, 2]);
        let r = Rectangle::full(shape);
        assert_eq!(r.num_nodes(), shape.num_nodes());
        for c in shape.iter() {
            assert!(r.contains(c));
        }
    }

    #[test]
    fn exactly_covers_accepts_rectangles_rejects_irregular() {
        let r = rect([0, 0, 0, 0, 0], [1, 1, 0, 0, 0]);
        let members: Vec<Coords> = r.iter().collect();
        assert_eq!(Rectangle::exactly_covers(&members), Some(r));
        // Remove one node: no longer a rectangle.
        let broken = &members[..3];
        assert_eq!(Rectangle::exactly_covers(broken), None);
        // Duplicate coordinates are not a rectangle either.
        let dup = vec![members[0], members[0], members[1], members[2]];
        assert_eq!(Rectangle::exactly_covers(&dup), None);
    }

    #[test]
    #[should_panic(expected = "corners out of order")]
    fn reversed_corners_panic() {
        rect([2, 0, 0, 0, 0], [1, 0, 0, 0, 0]);
    }

    #[test]
    fn axial_range_wraps() {
        let shape = TorusShape::new([4, 2, 1, 1, 1]);
        let ax = AxialRange {
            origin: Coords([3, 1, 0, 0, 0]),
            dim: Dim::A,
            len: 3,
        };
        let members: Vec<Coords> = ax.iter(shape).collect();
        assert_eq!(
            members,
            vec![
                Coords([3, 1, 0, 0, 0]),
                Coords([0, 1, 0, 0, 0]),
                Coords([1, 1, 0, 0, 0]),
            ]
        );
        for m in &members {
            assert!(ax.contains(shape, *m));
        }
        assert!(!ax.contains(shape, Coords([2, 1, 0, 0, 0])));
        assert!(!ax.contains(shape, Coords([3, 0, 0, 0, 0])));
    }
}
