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
//! The simulation keeps all of those moving parts:
//!
//! * [`descriptor::Descriptor`] — what software injects; payload comes from
//!   a registered [`bgq_hw::MemRegion`] or from immediate bytes
//!   (`PAMI_Send_immediate`'s copy-through path).
//! * [`fifo`] — injection and reception FIFOs with the per-node 544/272
//!   resource accounting that lets PAMI give every context an exclusive,
//!   lock-free partition.
//! * [`fabric::MuFabric`] — the nodes plus delivery: executing a descriptor
//!   fragments payload into ≤512-byte packets, pushes memory-FIFO packets
//!   into the destination reception FIFO (waking its wakeup region), applies
//!   direct puts to destination memory and decrements reception counters,
//!   and queues remote-get payload descriptors on the destination's system
//!   injection FIFO. Descriptors execute when the owning context
//!   advances: the hardware MU's message engines run asynchronously to the
//!   cores, and here that asynchrony comes from commthreads calling
//!   `advance` (the `pami` crate), never from a thread of this crate's own.
//!
//! Ordering: one (source context → destination) pair always uses the same
//! injection FIFO (PAMI pins it by destination) and packets of a FIFO are
//! executed in order, so memory-FIFO packets arrive in injection order —
//! the property MPI matching relies on. Direct-put payload takes the
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
pub mod transport;

pub use batch::{push_record, record_size, BatchRecord, RecordIter};
pub use bgq_hw::{Counter, DeliveryFault};
pub use descriptor::{
    Descriptor, FifoHeader, PayloadSource, RmwOp, RmwReply, RmwRequest, XferKind,
};
pub use fabric::{MuCounters, MuFabric, MuFabricBuilder, MU_PACKET_COUNTER_SAMPLE};
pub use faults::{Fate, FaultInjector, FaultPlan, FaultPlanError, FaultRates, LinkFault, RetryConfig};
pub use link::{RasCounters, RasEvent, RasEventKind, RasObserver, RasRing};
pub use packet::packet_crc;
pub use transport::Transport;
pub use fifo::{
    FifoAllocator, FifoTable, InjFifo, InjFifoId, MsgIdLane, RecFifo, RecFifoId,
    INJ_FIFOS_PER_NODE, LANE_SEQ_MASK, LANE_SHIFT, NODE_LANE, REC_FIFOS_PER_NODE, SYS_LANE,
};
pub use packet::{MuPacket, PacketPayload};
