//! The Blue Gene/Q 5D torus: geometry, routing, packet format, and link
//! constants.
//!
//! BG/Q nodes are connected by a five-dimensional torus whose dimensions are
//! labeled A, B, C, D, E, each link moving 2 GB/s of raw data per direction
//! (1.8 GB/s of application payload once the 32-byte packet header, packet
//! consistency checks, and protocol packets are accounted for). This crate
//! is the pure-math substrate shared by the functional messaging stack
//! (`bgq-mu`, `bgq-collnet`, `pami`) and the timing simulator
//! (`bgq-netsim`):
//!
//! * [`coords`] — dimensions, directed links, coordinates, torus shapes and
//!   the rank ↔ coordinate mapping.
//! * [`rect`] — contiguous rectangular subsets of the machine (the node sets
//!   classroutes can be built over) and axial node ranges.
//! * [`route`] — deterministic dimension-ordered routing (which is what
//!   gives eager messages their MPI-ordering guarantee) and minimal-path hop
//!   counts.
//! * [`packet`] — the 32-byte-header / 512-byte-payload packet format and
//!   per-message packetization arithmetic.
//! * [`trees`] — spanning trees over rectangles: the dimension-ordered tree
//!   used by classroutes and the ten rotated ("10-color") trees used by the
//!   rectangle broadcast of Figure 10.

#![forbid(unsafe_code)]

pub mod coords;
pub mod packet;
pub mod rect;
pub mod route;
pub mod trees;

pub use coords::{Coords, Dim, Dir, TorusShape, ALL_DIMS};
pub use packet::{HEADER_BYTES, MAX_PAYLOAD_BYTES};
pub use rect::Rectangle;
pub use route::{det_route, healthy_route, hop_distance, LinkHealth};
pub use trees::{SpanningTree, TreeKind};

/// Number of torus links out of a node (5 dimensions × 2 directions).
pub const LINKS_PER_NODE: usize = 10;
