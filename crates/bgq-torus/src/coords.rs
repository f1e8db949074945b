//! Dimensions, directed links, coordinates, and torus shapes.

use std::fmt;

/// Number of torus dimensions on BG/Q.
pub(crate) const NUM_DIMS: usize = 5;

/// Number of directed links out of a node.
pub(crate) const NUM_DIRS: usize = 2 * NUM_DIMS;

/// A torus dimension. BG/Q labels them A through E.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dim {
    A,
    B,
    C,
    D,
    E,
}

/// All dimensions in canonical (A..E) order.
pub const ALL_DIMS: [Dim; NUM_DIMS] = [Dim::A, Dim::B, Dim::C, Dim::D, Dim::E];

impl Dim {
    /// Index of this dimension (A=0 … E=4).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Dimension from an index.
    ///
    /// # Panics
    /// If `i >= 5`.
    pub(crate) fn from_index(i: usize) -> Dim {
        ALL_DIMS[i]
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", ["A", "B", "C", "D", "E"][self.index()])
    }
}

/// A directed link: a dimension plus a "+" or "−" direction. BG/Q notation
/// writes these A+, A−, …, E+, E−.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dir {
    /// The dimension the link travels along.
    pub dim: Dim,
    /// True for the "+" direction.
    pub plus: bool,
}

impl Dir {
    /// All ten directed links in (A+, A−, B+, …, E−) order.
    pub fn all() -> [Dir; NUM_DIRS] {
        let mut out = [Dir { dim: Dim::A, plus: true }; NUM_DIRS];
        for (i, d) in ALL_DIMS.iter().enumerate() {
            out[2 * i] = Dir { dim: *d, plus: true };
            out[2 * i + 1] = Dir { dim: *d, plus: false };
        }
        out
    }

    /// Stable index 0..10 of this directed link.
    pub fn index(self) -> usize {
        2 * self.dim.index() + usize::from(!self.plus)
    }

    /// The opposite direction on the same dimension.
    pub fn reverse(self) -> Dir {
        Dir { dim: self.dim, plus: !self.plus }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.dim, if self.plus { "+" } else { "-" })
    }
}

/// Coordinates of a node in the 5D torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Coords(pub [u16; NUM_DIMS]);

impl Coords {
    /// Coordinate along `dim`.
    #[inline]
    pub fn get(self, dim: Dim) -> u16 {
        self.0[dim.index()]
    }

    /// Replace the coordinate along `dim`.
    #[inline]
    pub fn with(mut self, dim: Dim, value: u16) -> Coords {
        self.0[dim.index()] = value;
        self
    }
}

impl fmt::Display for Coords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<{},{},{},{},{}>",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4]
        )
    }
}

/// The shape (extent per dimension) of a torus or torus partition.
///
/// The full BG/Q design point is 16×16×16×32×2 = 262144 nodes (96-rack
/// systems use a subset); test systems are much smaller. Shapes with extent
/// 1 in some dimensions degenerate gracefully (a 2048-node partition might
/// be 8×8×8×4×... any rectangular factorization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TorusShape(pub [u16; NUM_DIMS]);

impl TorusShape {
    /// A shape from per-dimension extents.
    ///
    /// # Panics
    /// If any extent is zero.
    pub fn new(extents: [u16; NUM_DIMS]) -> Self {
        assert!(
            extents.iter().all(|&e| e > 0),
            "torus extents must be positive, got {extents:?}"
        );
        TorusShape(extents)
    }

    /// Factor `nodes` into a compact 5D shape (used by tests and the timing
    /// simulator when only a node count is given). Greedily splits powers of
    /// small primes across dimensions, largest extents first.
    pub fn for_nodes(nodes: usize) -> Self {
        assert!(nodes > 0, "cannot shape a zero-node torus");
        let mut remaining = nodes;
        let mut extents = [1u16; NUM_DIMS];
        let mut dim = 0;
        // Peel factors, round-robin over dimensions for near-cubic shapes.
        let mut factor = 2usize;
        while remaining > 1 {
            if remaining.is_multiple_of(factor) {
                remaining /= factor;
                extents[dim] = extents[dim].saturating_mul(factor as u16);
                dim = (dim + 1) % NUM_DIMS;
            } else {
                factor += 1;
                if factor * factor > remaining {
                    // remaining is prime
                    extents[dim] = extents[dim].saturating_mul(remaining as u16);
                    break;
                }
            }
        }
        let shape = TorusShape(extents);
        debug_assert_eq!(shape.num_nodes(), nodes);
        shape
    }

    /// Extent along `dim`.
    #[inline]
    pub fn extent(self, dim: Dim) -> u16 {
        self.0[dim.index()]
    }

    /// Total node count.
    pub fn num_nodes(self) -> usize {
        self.0.iter().map(|&e| e as usize).product()
    }

    /// Whether `c` lies inside the shape.
    pub fn contains(self, c: Coords) -> bool {
        c.0.iter().zip(self.0.iter()).all(|(&x, &e)| x < e)
    }

    /// Row-major (A slowest, E fastest) node index of `c`.
    ///
    /// # Panics
    /// If `c` is outside the shape.
    pub fn node_index(self, c: Coords) -> usize {
        assert!(self.contains(c), "coords {c} outside shape {:?}", self.0);
        let mut idx = 0usize;
        for d in 0..NUM_DIMS {
            idx = idx * self.0[d] as usize + c.0[d] as usize;
        }
        idx
    }

    /// Inverse of [`TorusShape::node_index`].
    ///
    /// # Panics
    /// If `index >= num_nodes()`.
    pub fn coords_of(self, index: usize) -> Coords {
        assert!(index < self.num_nodes(), "node index {index} out of range");
        let mut rem = index;
        let mut c = [0u16; NUM_DIMS];
        for d in (0..NUM_DIMS).rev() {
            let e = self.0[d] as usize;
            c[d] = (rem % e) as u16;
            rem /= e;
        }
        Coords(c)
    }

    /// The neighbor of `c` across directed link `dir`, with torus wraparound.
    pub fn neighbor(self, c: Coords, dir: Dir) -> Coords {
        let e = self.extent(dir.dim);
        let x = c.get(dir.dim);
        let nx = if dir.plus {
            (x + 1) % e
        } else {
            (x + e - 1) % e
        };
        c.with(dir.dim, nx)
    }

    /// Signed minimal hop displacement from `a` to `b` along `dim`
    /// (positive means the "+" direction is shortest; ties choose "+",
    /// matching the deterministic router).
    pub(crate) fn min_delta(self, a: Coords, b: Coords, dim: Dim) -> i32 {
        let e = self.extent(dim) as i32;
        let raw = (b.get(dim) as i32 - a.get(dim) as i32).rem_euclid(e);
        if raw * 2 <= e {
            raw
        } else {
            raw - e
        }
    }

    /// Iterate over every coordinate in the shape, in node-index order.
    pub fn iter(self) -> impl Iterator<Item = Coords> {
        (0..self.num_nodes()).map(move |i| self.coords_of(i))
    }

    /// The largest minimal hop count between any two nodes (network
    /// diameter) — what bounds worst-case point-to-point latency.
    pub fn diameter(self) -> u32 {
        self.0.iter().map(|&e| (e / 2) as u32).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_round_trip_indices() {
        for (i, d) in ALL_DIMS.iter().enumerate() {
            assert_eq!(d.index(), i);
            assert_eq!(Dim::from_index(i), *d);
        }
    }

    #[test]
    fn dirs_enumerate_ten_links() {
        let dirs = Dir::all();
        assert_eq!(dirs.len(), NUM_DIRS);
        for (i, d) in dirs.iter().enumerate() {
            assert_eq!(d.index(), i);
            assert_eq!(d.reverse().reverse(), *d);
        }
    }

    #[test]
    fn node_index_round_trips() {
        let shape = TorusShape::new([2, 3, 4, 5, 2]);
        for i in 0..shape.num_nodes() {
            assert_eq!(shape.node_index(shape.coords_of(i)), i);
        }
    }

    #[test]
    fn neighbor_wraps_around() {
        let shape = TorusShape::new([4, 1, 1, 1, 1]);
        let origin = Coords([0, 0, 0, 0, 0]);
        let minus = shape.neighbor(origin, Dir { dim: Dim::A, plus: false });
        assert_eq!(minus.get(Dim::A), 3);
        let plus = shape.neighbor(Coords([3, 0, 0, 0, 0]), Dir { dim: Dim::A, plus: true });
        assert_eq!(plus.get(Dim::A), 0);
    }

    #[test]
    fn neighbor_extent_one_is_self() {
        let shape = TorusShape::new([1, 1, 1, 1, 1]);
        let c = Coords([0; 5]);
        for dir in Dir::all() {
            assert_eq!(shape.neighbor(c, dir), c);
        }
    }

    #[test]
    fn min_delta_prefers_short_way_around() {
        let shape = TorusShape::new([8, 1, 1, 1, 1]);
        let a = Coords([0, 0, 0, 0, 0]);
        let b = Coords([6, 0, 0, 0, 0]);
        assert_eq!(shape.min_delta(a, b, Dim::A), -2);
        let c = Coords([3, 0, 0, 0, 0]);
        assert_eq!(shape.min_delta(a, c, Dim::A), 3);
        // Exactly half: ties go "+".
        let d = Coords([4, 0, 0, 0, 0]);
        assert_eq!(shape.min_delta(a, d, Dim::A), 4);
    }

    #[test]
    fn for_nodes_factorizations_preserve_count() {
        for n in [1usize, 2, 32, 48, 512, 2048, 96 * 1024] {
            assert_eq!(TorusShape::for_nodes(n).num_nodes(), n, "n={n}");
        }
    }

    #[test]
    fn diameter_of_2048_node_machine_is_small() {
        let shape = TorusShape::for_nodes(2048);
        // 5D keeps the farthest node close; the paper's point about 5
        // dimensions reducing maximum hops.
        assert!(shape.diameter() <= 16, "diameter {}", shape.diameter());
    }

    #[test]
    #[should_panic(expected = "outside shape")]
    fn node_index_out_of_shape_panics() {
        let shape = TorusShape::new([2, 2, 2, 2, 2]);
        shape.node_index(Coords([2, 0, 0, 0, 0]));
    }

    #[test]
    fn iter_visits_every_node_once() {
        let shape = TorusShape::new([2, 2, 3, 1, 2]);
        let all: Vec<Coords> = shape.iter().collect();
        assert_eq!(all.len(), shape.num_nodes());
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }
}
