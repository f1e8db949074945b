//! An MPI-flavoured messaging layer over PAMI — the reproduction of the
//! paper's "pamid" MPICH2 device (section IV).
//!
//! This is not a full MPI implementation; it is the part of MPI the paper
//! measures, built the way the paper builds it:
//!
//! * **Two library flavors** ([`LibFlavor`]): the *classic* library takes a
//!   global lock around every call; the *thread-optimized* library uses
//!   thread-private request pools, lock-free handoff to PAMI contexts, and
//!   an L2-atomic mutex only around the shared receive queue. Table 2's
//!   four-way comparison falls out of these two flavors crossed with the
//!   thread level and commthreads on/off.
//! * **Matching** ([`matching`]): the serial MPICH-style posted/unexpected
//!   queue pair under one low-overhead L2 ticket mutex — including
//!   `ANY_SOURCE`/`ANY_TAG` wildcards, whose serializing effect Figure 5
//!   measures.
//! * **Context hashing**: the source context is picked by hashing
//!   (destination rank, communicator), the destination context by hashing
//!   (source rank, communicator), so a (sender, receiver, communicator)
//!   triple always uses one ordered channel while different destinations
//!   spread across contexts.
//! * **Two-phase waitall** ([`mpi::Mpi::waitall`]): request handles are
//!   resolved (the "hash" phase, overlapped with the completion-counter
//!   cache misses) and only the incomplete ones are polled.
//! * **Collectives** ([`comm::Comm`]): GI + L2 barrier, shared-address
//!   broadcast and allreduce over classroutes, the 10-color rectangle
//!   broadcast, and the MPIX optimize/deoptimize extensions.

//! # Example
//!
//! ```
//! use pami::Machine;
//! use pami_mpi::{MemRegion, Mpi, MpiConfig};
//!
//! let machine = Machine::with_nodes(2).build();
//! machine.run(|env| {
//!     let mpi = Mpi::init(&env.machine, env.task, MpiConfig::default());
//!     env.machine.task_barrier();
//!     let world = mpi.world().clone();
//!     let buf = MemRegion::zeroed(8);
//!     if world.rank() == 0 {
//!         buf.write_i64(0, 42);
//!         mpi.send(&buf, 0, 8, 1, 0, &world);
//!     } else {
//!         let status = mpi.recv(&buf, 0, 8, 0, 0, &world);
//!         assert_eq!(status.len, 8);
//!         assert_eq!(buf.read_i64(0), 42);
//!     }
//!     mpi.barrier(&world);
//! });
//! ```

#![forbid(unsafe_code)]

pub mod comm;
pub mod matching;
pub mod mpi;
pub mod rect_bcast;
pub mod request;
pub mod types;

pub use comm::Comm;
pub use mpi::{Mpi, MpiConfig};
pub use request::Request;
pub use types::{LibFlavor, Status, Tag, ThreadLevel, ANY_SOURCE, ANY_TAG};

// Buffer/selector types the API traffics in.
pub use bgq_hw::MemRegion;
pub use pami::{CollOp, DataType};
// One-sided RMA surface for MPI-3 RMA-style layering: the typed argument
// structs ride through unchanged so an MPI window layer can hand them to
// the PAMI context underneath.
pub use pami::{GetArgs, MemSlot, PutArgs, RmwArgs, RmwOp, WindowRef};
