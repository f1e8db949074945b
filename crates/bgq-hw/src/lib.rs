//! Simulated Blue Gene/Q node-level hardware: the L2 atomic unit, the wakeup
//! unit, registered memory regions and the link-CRC kernel.
//!
//! The Blue Gene/Q compute chip implements atomic operations (load-increment,
//! store-add, bounded-increment, ...) directly in the L2 cache, reachable
//! through aliased addresses. PAMI builds all of its lockless machinery on
//! those operations. This crate reproduces that toolbox in portable Rust:
//!
//! * L2 atomics — the atomic operations themselves ([`L2Counter`],
//!   [`BoundedCounter`]) with the exact semantics PAMI relies on,
//!   including the *bounded increment* used to claim slots in fixed-size
//!   queues.
//! * [`mutex`] — the "low overhead L2 atomic mutex" (a ticket lock built from
//!   two L2 counters) that PAMI/MPI use to serialize the receive queue.
//! * [`queue`] — the lockless multi-producer/single-consumer array queue with
//!   a mutex-guarded overflow list, exactly the structure described in
//!   section III.B of the paper.
//! * [`wakeup`] — the wakeup unit: threads wait on watched memory regions and
//!   are woken by stores to those regions, instead of polling.
//! * [`memory`] — registered communication buffers ([`memory::MemRegion`])
//!   that the simulated MU reads and writes like RDMA hardware. A region
//!   handle is also the CNK global virtual address: any process on a node
//!   that holds one reads its peer's memory directly, with no translation
//!   table in between.
//! * [`crc32c`] — the link-CRC kernel: the CPU's CRC-32C instruction where
//!   there is one, a table-driven fallback where there is not.
//!
//! This is the only crate in the workspace that may contain `unsafe`; every
//! other crate is `#![forbid(unsafe_code)]`.

pub mod counter;
pub mod crc32c;
mod l2;
pub mod memory;
pub mod mutex;
pub mod queue;
pub mod wakeup;

pub use counter::{Counter, DeliveryFault};
pub use l2::{BoundedCounter, L2Counter};
pub use memory::MemRegion;
pub use mutex::L2TicketMutex;
pub use queue::WorkQueue;
pub use wakeup::{WakeupRegion, Waiter};
