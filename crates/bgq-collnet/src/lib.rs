//! The Blue Gene/Q collective network and global-interrupt barrier.
//!
//! Unlike BG/L and BG/P, the BG/Q collective network is *embedded in the 5D
//! torus*: programming a **classroute** tells each router which down-tree
//! links feed its combine logic and which up-tree link carries the result,
//! giving hardware barrier / broadcast / reduce / allreduce over
//! `MPI_COMM_WORLD` and over contiguous rectangular sub-communicators. The
//! collectives are RDMA-capable — operand data is read from and results
//! written to memory directly (paper sections II.B and III.D).
//!
//! This crate reproduces those facilities functionally:
//!
//! * [`ops`] — the combine operations the routers implement (integer and
//!   floating-point add/min/max, plus bitwise ops).
//! * [`classroute`] — classroute allocation against the 16-routes-per-node
//!   hardware limit (minus system-reserved routes): the scarcity that forces
//!   PAMI's optimize/deoptimize scheme.
//! * [`combiner`] — the collective engine: every participating node
//!   contributes its operand slice; the network combines and RDMA-writes
//!   the result into each node's destination buffer, decrementing its
//!   reception counter.
//! * [`gi`] — the global-interrupt barrier: a few-microsecond,
//!   zero-payload synchronization across a classroute.

#![forbid(unsafe_code)]

pub mod classroute;
pub mod combiner;
pub mod gi;
pub mod ops;

pub use classroute::{ClassRoute, ClassRouteError, ClassRouteId, ClassRouteManager,
    NUM_CLASSROUTES, SYSTEM_RESERVED_ROUTES};
pub use combiner::{CollContribution, CollNet, CollOutput};
pub use gi::{GiBarrier, GiPhase};
pub use ops::{combine, CollOp, DataType, ELEM_BYTES};
