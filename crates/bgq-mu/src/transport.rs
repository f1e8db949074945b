//! The fabric/transport seam: who moves packets into reception FIFOs.
//!
//! The default fabric delivers memory-FIFO packets *synchronously* — the
//! sending thread deposits straight into the destination's [`RecFifo`] —
//! which is the right model for wall-clock benchmarks (software cost is
//! what the paper measures; the lossless torus adds nothing observable).
//! Co-simulation wants the opposite: packet delivery scheduled as
//! discrete-event-simulation events on a *virtual* clock, with `bgq-netsim`
//! supplying per-hop link timing, so that a million virtual endpoints can
//! share a few OS threads without wall-clock delivery order leaking into
//! the experiment.
//!
//! [`Transport`] is that seam. A fabric built without one
//! (`transport: None`) keeps today's synchronous path bit for bit — the
//! hot-path cost of the seam is a single branch on an `Option` that is
//! `None` in every benchmark gate. A fabric built with
//! [`crate::fabric::MuFabricBuilder::transport`] hands every reception-FIFO
//! deposit — the third stage of the fabric's one delivery pipeline, so
//! every tier and every reliable-channel frame arrival alike — to the
//! transport, which may deposit immediately, or buffer and schedule —
//! whatever its clock says.
//!
//! Direct puts and remote-get bounces stay synchronous: they model DMA into
//! registered memory, observable only through reception counters, and the
//! co-simulation's virtual timing applies to the message path.

use std::sync::Arc;

use crate::fifo::{RecFifo, RecFifoId};
use crate::packet::MuPacket;

/// A packet transport: receives every reception-FIFO deposit the fabric
/// would have performed synchronously.
///
/// Implementations must be thread-safe — sends come from every advancing
/// context. The `make` closure builds the `i`-th packet of one fragmented
/// message and must be called exactly once per `i`, in ascending order
/// (packets are intentionally not `Clone`; building on demand keeps
/// the zero-copy Region windows refcounted, not duplicated). A transport
/// that buffers packets MUST eventually deposit every one of them into
/// `fifo` (via [`RecFifo::deliver`] / [`RecFifo::deliver_batch`]) exactly
/// once and in `i` order — the in-order contract MPI matching relies on.
pub trait Transport: Send + Sync {
    /// Accept one fragmented message: `npackets` packets from `src_node`
    /// bound for `rec_fifo` (= `fifo`) on `dst_node`.
    fn deliver(
        &self,
        src_node: u32,
        dst_node: u32,
        rec_fifo: RecFifoId,
        fifo: &Arc<RecFifo>,
        npackets: u64,
        make: &mut dyn FnMut(u64) -> MuPacket,
    );

    /// Account one link-layer control frame (a selective-repeat ack/SACK of
    /// `bytes` on the wire) crossing from `src_node` to `dst_node`. Control
    /// frames carry no packets — nothing is deposited — but a scheduling
    /// transport should charge their wire time on its clock so
    /// co-simulated chaos runs see the protocol's reverse-path cost.
    /// Default: free, matching the synchronous fabric's in-process acks.
    fn deliver_control(&self, src_node: u32, dst_node: u32, bytes: u64) {
        let _ = (src_node, dst_node, bytes);
    }
}
