//! The Blue Gene/Q Message Unit (MU).
//!
//! The MU moves data between node memory and the 5D torus. Software
//! initiates every transfer by writing a 64-byte *descriptor* into one of
//! the node's 544 injection FIFOs; depending on the packet type the data is
//! delivered into one of 272 reception FIFOs (**memory FIFO** packets,
//! consumed by software) or written straight into destination memory
//! (**RDMA write** / *direct put*), with **RDMA read** / *remote get*
//! packets carrying a payload descriptor that the destination MU injects on
//! the requester's behalf (paper section II.C).
//!
//! The simulation models them as follows:
//!
//! * [`descriptor::Descriptor`] — what software injects; payload comes from
//!   a registered [`bgq_hw::MemRegion`] or from immediate bytes
//!   (`PAMI_Send_immediate`'s copy-through path).
//! * [`fifo`] — reception FIFOs with the per-node limit of 272, each handed
//!   out with the message-id lane its owner sends from: the exclusive,
//!   lock-free partition PAMI gives every context.
//! * [`fabric::MuFabric`] — the nodes plus delivery: executing a descriptor
//!   fragments payload into ≤512-byte packets, pushes memory-FIFO packets
//!   into the destination reception FIFO (waking its wakeup region), applies
//!   direct puts to destination memory and decrements reception counters,
//!   and queues remote-get payload descriptors on the destination's system
//!   FIFO. A descriptor executes when it is injected, on the
//!   injecting thread, as the hardware MU starts moving data the moment one
//!   is written; the receive side's asynchrony comes from commthreads
//!   calling `advance` (the `pami` crate), never from a thread of this
//!   crate's own.
//!
//! Ordering: a context injects on its one lane and each descriptor has
//! moved before its injection returns, so memory-FIFO packets from one
//! context to one destination arrive in injection order — the property MPI
//! matching relies on. Direct-put payload takes the
//! dynamically-routed path and completes out of order; completion is
//! observed only through reception counters, never packet order.

#![forbid(unsafe_code)]

pub mod batch;
pub mod crc;
pub mod descriptor;
pub mod fabric;
pub mod faults;
pub mod fifo;
pub mod json;
pub mod link;
pub mod packet;
mod rmw;

pub use batch::{push_record, record_size};
pub use bgq_hw::{Counter, DeliveryFault};
pub use descriptor::{
    Descriptor, FifoHeader, PayloadSource, RmwOp, RmwReply, RmwRequest, XferKind,
};
pub use fabric::{MuFabric, MuFabricBuilder, MU_PACKET_COUNTER_SAMPLE};
pub use faults::{FaultPlan, FaultRates, LinkFault, RetryConfig};
pub use link::{RasCounters, RasEvent, RasEventKind};
pub use fifo::{MsgIdLane, RecFifo, RecFifoId, REC_FIFOS_PER_NODE};
pub use packet::{MuPacket, PacketPayload};
