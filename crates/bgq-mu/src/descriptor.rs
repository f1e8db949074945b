//! Injection descriptors — the 64-byte structures software writes to start
//! a transfer.

use bgq_hw::Counter;
use bgq_hw::MemRegion;
use bytes::Bytes;

use crate::fifo::RecFifoId;

/// Where a descriptor's payload bytes come from.
#[derive(Debug, Clone)]
pub enum PayloadSource {
    /// Payload already copied into the descriptor — the
    /// `PAMI_Send_immediate` path ("copies application payload into an
    /// internal buffer"), bounded by one packet.
    Immediate(Bytes),
    /// Payload read out of a registered region, like the real MU DMA-ing
    /// from physical memory.
    Region {
        /// Source region.
        region: MemRegion,
        /// Byte offset of the payload within `region`.
        offset: usize,
        /// Payload length.
        len: usize,
    },
}

impl PayloadSource {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            PayloadSource::Immediate(b) => b.len(),
            PayloadSource::Region { len, .. } => *len,
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the payload as contiguous bytes (one copy for the region
    /// path — the DMA read; zero for immediate).
    pub fn into_bytes(self) -> Bytes {
        match self {
            PayloadSource::Immediate(b) => b,
            region => region.to_bytes(),
        }
    }

    /// [`PayloadSource::into_bytes`] on a borrowed payload (an immediate
    /// payload costs a refcount bump; a region is read straight into the
    /// new buffer).
    pub fn to_bytes(&self) -> Bytes {
        match self {
            PayloadSource::Immediate(b) => b.clone(),
            PayloadSource::Region { region, offset, len } => {
                Bytes::init_with(*len, |buf| region.read(*offset, buf))
            }
        }
    }
}

/// Atomic read-modify-write operation carried by an [`RmwRequest`]. All
/// operations act on a 64-bit little-endian word in the target window and
/// return the prior value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmwOp {
    /// `*target += operand`; returns the pre-add value.
    FetchAdd,
    /// `if *target == compare { *target = operand }`; returns the prior
    /// value (success iff prior == compare).
    CompareSwap,
    /// `*target = min(*target, operand)`; returns the prior value.
    Min,
    /// `*target = max(*target, operand)`; returns the prior value.
    Max,
}

/// Where the prior value of an rmw is written back (8 bytes, little
/// endian) — the caller-supplied result slot.
#[derive(Debug, Clone)]
pub struct RmwReply {
    /// Local region the prior value lands in.
    pub region: MemRegion,
    /// Byte offset of the 8-byte slot within `region`.
    pub offset: usize,
}

/// A remote atomic — the one value the descriptor ([`XferKind::Rmw`]) and,
/// under a fault plan, the link frame carry.
#[derive(Debug, Clone)]
pub struct RmwRequest {
    /// Target region backing the window.
    pub dst_region: MemRegion,
    /// Byte offset of the 8-byte word within the region.
    pub dst_offset: usize,
    /// The atomic operation.
    pub op: RmwOp,
    /// Operand (addend / swap value / min-max candidate).
    pub operand: u64,
    /// Comparand for [`RmwOp::CompareSwap`]; ignored otherwise.
    pub compare: u64,
    /// Optional slot the prior value is written to.
    pub reply: Option<RmwReply>,
}

/// What a memory-FIFO message says about itself — the header every one of
/// its packets carries. Short, eager, aggregated-frame, rendezvous-RTS and
/// channel-offer messages differ only in these values (and in their
/// payload), never in which code moves them.
#[derive(Debug, Clone)]
pub struct FifoHeader {
    /// Destination node index.
    pub dst_node: u32,
    /// Reception FIFO on the destination node.
    pub rec_fifo: RecFifoId,
    /// Source context offset stamped into packets.
    pub src_context: u16,
    /// Originating task stamped into packets (a node hosts several tasks,
    /// so the source node alone does not name the sender).
    pub src_task: u32,
    /// Active-message dispatch identifier.
    pub dispatch: u16,
    /// Protocol metadata delivered with the message.
    pub metadata: Bytes,
}

/// The transfer type a descriptor requests.
#[derive(Debug, Clone)]
pub enum XferKind {
    /// Memory-FIFO message: payload lands as packets in the destination's
    /// reception FIFO for software to dispatch.
    MemoryFifo {
        /// Reception FIFO on the destination node.
        rec_fifo: RecFifoId,
        /// Originating task stamped into packets.
        src_task: u32,
        /// Active-message dispatch identifier.
        dispatch: u16,
        /// Protocol metadata delivered with the message.
        metadata: Bytes,
    },
    /// RDMA write: payload lands directly in destination memory; the
    /// destination reception counter (if any) is decremented by the byte
    /// count. No reception-FIFO traffic, no destination CPU involvement.
    DirectPut {
        /// Destination region (a handle the initiator obtained through the
        /// protocol's memory-region exchange).
        dst_region: MemRegion,
        /// Byte offset within the destination region.
        dst_offset: usize,
        /// Reception counter armed by the destination.
        rec_counter: Option<Counter>,
    },
    /// RDMA read: carries a payload descriptor that the destination MU
    /// executes the moment the request arrives, on the delivering thread
    /// and with no software on the destination involved — usually a
    /// [`XferKind::DirectPut`] aimed back at the requester (the rendezvous
    /// "remote get").
    RemoteGet {
        /// Descriptor for the destination to execute.
        payload: Box<Descriptor>,
    },
    /// Remote atomic: executes the request's `op` atomically against an
    /// 8-byte word in a registered window on the target node and writes
    /// the prior value to the caller's reply slot.
    Rmw(RmwRequest),
}

/// A complete injection descriptor.
#[derive(Debug, Clone)]
pub struct Descriptor {
    /// Destination node index within the partition.
    pub dst_node: u32,
    /// Source context offset stamped into packets.
    pub src_context: u16,
    /// Payload to move.
    pub payload: PayloadSource,
    /// Transfer type.
    pub kind: XferKind,
    /// Injection counter decremented (by payload length) once this
    /// descriptor has been fully executed — the sender-side completion
    /// signal. Zero-length transfers decrement by [`Descriptor::ZERO_LEN_CREDIT`].
    pub inj_counter: Option<Counter>,
}

impl Descriptor {
    /// Completion credit charged for zero-byte transfers so counters still
    /// move (the hardware equivalent counts descriptors, not bytes, for
    /// empty messages).
    pub const ZERO_LEN_CREDIT: u64 = 1;

    /// A memory-FIFO message's descriptor: `hdr` says where it goes and
    /// what each of its packets carries.
    pub fn fifo(hdr: FifoHeader, payload: PayloadSource, inj_counter: Option<Counter>) -> Self {
        let FifoHeader { dst_node, rec_fifo, src_context, src_task, dispatch, metadata } = hdr;
        let kind = XferKind::MemoryFifo { rec_fifo, src_task, dispatch, metadata };
        Descriptor { dst_node, src_context, payload, kind, inj_counter }
    }

    /// Completion credit for this descriptor's payload.
    pub(crate) fn completion_credit(&self) -> u64 {
        let len = self.payload.len() as u64;
        if len == 0 {
            Self::ZERO_LEN_CREDIT
        } else {
            len
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_payload_round_trips() {
        let p = PayloadSource::Immediate(Bytes::from_static(b"hello"));
        assert_eq!(p.len(), 5);
        assert_eq!(&p.to_bytes()[..], b"hello");
    }

    #[test]
    fn region_payload_reads_registered_memory() {
        let region = MemRegion::from_vec((0..64).collect());
        let p = PayloadSource::Region { region, offset: 8, len: 4 };
        assert_eq!(&p.to_bytes()[..], &[8, 9, 10, 11]);
    }

    #[test]
    fn zero_len_descriptor_still_credits_completion() {
        let d = Descriptor {
            dst_node: 0,
            src_context: 0,
            payload: PayloadSource::Immediate(Bytes::new()),
            kind: XferKind::MemoryFifo {
                rec_fifo: RecFifoId(0),
                src_task: 0,
                dispatch: 0,
                metadata: Bytes::new(),
            },
            inj_counter: None,
        };
        assert_eq!(d.completion_credit(), Descriptor::ZERO_LEN_CREDIT);
    }
}
