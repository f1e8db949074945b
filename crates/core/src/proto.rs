//! Protocol plumbing shared by the MU and shared-memory devices: message
//! envelopes, the shared-memory mailbox, and the send argument bundle.
//!
//! Wire format note: MU packets carry a PAMI *envelope* in their metadata —
//! the source task (packets only know the source node, and with multiple
//! processes per node the task must travel with the message) followed by
//! the user's dispatch metadata. Rendezvous RTS messages additionally carry
//! the real dispatch id, total length, and the rendezvous key under an
//! internal dispatch id.

use bgq_hw::{Counter, GlobalAddress, WakeupRegion, WorkQueue};
use bgq_mu::PayloadSource;
use bytes::Bytes;

use crate::endpoint::Endpoint;

/// Internal dispatch id: rendezvous request-to-send.
pub(crate) const DISPATCH_RZV_RTS: u16 = 0xFF00;

/// Internal dispatch id: persistent-channel buffer offer (each side
/// advertises its pre-registered receive window once; all subsequent
/// traffic is fixed-descriptor direct puts with no per-message protocol).
pub(crate) const DISPATCH_CHAN_REQ: u16 = 0xFF01;

/// Internal dispatch id: an aggregated frame — one packet carrying a train
/// of coalesced small active messages ([`crate::aggr`]); the receive path
/// unbatches it and dispatches each record through the handler memo.
pub(crate) const DISPATCH_AGGR: u16 = 0xFF02;

/// First user-forbidden dispatch id; user dispatch ids must be below this.
pub const DISPATCH_INTERNAL_BASE: u16 = 0xFF00;

/// Arguments to [`crate::context::Context::send`].
pub struct SendArgs {
    /// Destination endpoint.
    pub dest: Endpoint,
    /// Active-message dispatch id at the destination (< 0xFF00).
    pub dispatch: u16,
    /// Dispatch metadata delivered with the message header.
    pub metadata: Vec<u8>,
    /// Payload.
    pub payload: PayloadSource,
    /// Local-completion counter: decremented (by the payload's completion
    /// credit) once the payload bytes have left the source buffer.
    pub local_done: Option<Counter>,
}

/// A typed slot in local registered memory — where a get's bytes or an
/// rmw's prior value land. Replaces the bare `(MemRegion, usize)` tuples
/// the one-sided API used to take.
#[derive(Clone)]
pub struct MemSlot {
    /// Local region.
    pub region: bgq_hw::MemRegion,
    /// Byte offset within the region.
    pub offset: usize,
}

impl MemSlot {
    /// `region` at byte offset 0.
    pub fn base(region: bgq_hw::MemRegion) -> Self {
        MemSlot { region, offset: 0 }
    }

    /// `region` at `offset`.
    pub fn at(region: bgq_hw::MemRegion, offset: usize) -> Self {
        MemSlot { region, offset }
    }
}

/// Arguments to [`crate::context::Context::put`] — an RDMA write into a
/// remote window. Mirrors [`SendArgs`].
pub struct PutArgs {
    /// Destination task.
    pub dest_task: u32,
    /// Target location: a registered window key plus byte offset.
    pub window: crate::machine::WindowRef,
    /// Payload to write.
    pub payload: PayloadSource,
    /// Local-completion counter: decremented by the byte count once the
    /// payload has been placed (the window's own reception counter, if
    /// armed, signals the remote side).
    pub local_done: Option<Counter>,
}

/// Arguments to [`crate::context::Context::get`] — an RDMA read out of a
/// remote window.
pub struct GetArgs {
    /// Task whose window is read.
    pub dest_task: u32,
    /// Source location in the remote window.
    pub window: crate::machine::WindowRef,
    /// Local destination slot the bytes land in.
    pub dst: MemSlot,
    /// Bytes to fetch.
    pub len: usize,
    /// Completion counter: decremented by the byte count once the data has
    /// landed locally.
    pub done: Option<Counter>,
}

/// Arguments to [`crate::context::Context::rmw`] — a remote atomic
/// (fetch-add / compare-swap / min / max) against an 8-byte little-endian
/// word in a remote window, returning the prior value.
pub struct RmwArgs {
    /// Task whose window is updated.
    pub dest_task: u32,
    /// The word's location in the remote window.
    pub window: crate::machine::WindowRef,
    /// The atomic operation.
    pub op: bgq_mu::RmwOp,
    /// Operand (addend / swap value / min-max candidate).
    pub operand: u64,
    /// Comparand for [`bgq_mu::RmwOp::CompareSwap`]; ignored otherwise.
    pub compare: u64,
    /// Optional local slot the prior value is written to (8 bytes LE).
    pub result: Option<MemSlot>,
    /// Completion counter: decremented by
    /// [`bgq_mu::Descriptor::ZERO_LEN_CREDIT`] once the atomic has applied
    /// and the prior value (if requested) is in place.
    pub done: Option<Counter>,
}

impl RmwArgs {
    /// A fetch-add of `operand` at `window` on `dest_task`; add result
    /// slot / completion with the struct-update syntax.
    pub fn fetch_add(dest_task: u32, window: crate::machine::WindowRef, operand: u64) -> Self {
        RmwArgs {
            dest_task,
            window,
            op: bgq_mu::RmwOp::FetchAdd,
            operand,
            compare: 0,
            result: None,
            done: None,
        }
    }
}

/// How a shared-memory message carries its payload.
pub enum ShmPayload {
    /// Short path: payload copied into the message (one copy in, one copy
    /// out — the L2-cache bounce the paper's intra-node eager path takes).
    Inline(Bytes),
    /// Large path: a *global virtual address* of the source buffer,
    /// published in the node's CNK translation table; the receiver
    /// resolves it and copies directly from the peer's memory (exactly one
    /// copy). `done` is the sender's completion counter, decremented by
    /// the receiver after the copy.
    GlobalVa {
        /// The published source address.
        addr: GlobalAddress,
        /// Payload length.
        len: usize,
        /// Sender completion, fired by the receiver.
        done: Option<Counter>,
    },
}

impl ShmPayload {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            ShmPayload::Inline(b) => b.len(),
            ShmPayload::GlobalVa { len, .. } => *len,
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A message in a shared-memory mailbox.
pub struct ShmMsg {
    /// Source endpoint.
    pub src: Endpoint,
    /// Dispatch id.
    pub dispatch: u16,
    /// User metadata (no envelope — shm messages carry the task natively).
    pub metadata: Bytes,
    /// Payload.
    pub payload: ShmPayload,
}

/// A context's shared-memory reception queue: the lockless structure "each
/// process owns only one queue to which others atomically write into"
/// (paper section III.F).
pub struct ShmMailbox {
    /// The queue (multi-producer: every peer on the node; single consumer:
    /// the owning context).
    pub queue: WorkQueue<ShmMsg>,
    /// Touched on delivery; the owning context's commthread parks on it.
    pub wakeup: WakeupRegion,
}

impl ShmMailbox {
    pub(crate) fn new(capacity: usize, wakeup: WakeupRegion) -> Self {
        ShmMailbox { queue: WorkQueue::with_capacity(capacity), wakeup }
    }

    /// Deliver a message (peer side): enqueue and wake.
    pub fn deliver(&self, msg: ShmMsg) {
        self.queue.push(msg);
        self.wakeup.touch();
    }
}

/// Envelope/RTS wire helpers.
pub(crate) mod wire {
    use super::*;

    /// Prepend the source task to user metadata.
    pub fn envelope(src_task: u32, user_metadata: &[u8]) -> Bytes {
        Bytes::init_with(4 + user_metadata.len(), |buf| {
            buf[..4].copy_from_slice(&src_task.to_le_bytes());
            buf[4..].copy_from_slice(user_metadata);
        })
    }

    /// Split an envelope back into (source task, user metadata).
    pub fn open_envelope(metadata: &Bytes) -> (u32, Bytes) {
        assert!(metadata.len() >= 4, "malformed PAMI envelope");
        let task = u32::from_le_bytes(metadata[..4].try_into().unwrap());
        (task, metadata.slice(4..))
    }

    /// RTS body: real dispatch, payload length, rendezvous key, then the
    /// user metadata.
    pub fn rts(dispatch: u16, len: u64, key: u64, user_metadata: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(18 + user_metadata.len());
        buf.extend_from_slice(&dispatch.to_le_bytes());
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(user_metadata);
        buf
    }

    /// Parse an RTS body.
    pub fn open_rts(body: &Bytes) -> (u16, u64, u64, Bytes) {
        assert!(body.len() >= 18, "malformed rendezvous RTS");
        let dispatch = u16::from_le_bytes(body[..2].try_into().unwrap());
        let len = u64::from_le_bytes(body[2..10].try_into().unwrap());
        let key = u64::from_le_bytes(body[10..18].try_into().unwrap());
        (dispatch, len, key, body.slice(18..))
    }

    /// Persistent-channel offer body: pairing ordinal, slot size, and the
    /// offering side's receive-window key.
    pub fn chan_req(ordinal: u64, size: u64, mem_key: u64) -> Vec<u8> {
        let mut buf = Vec::with_capacity(24);
        buf.extend_from_slice(&ordinal.to_le_bytes());
        buf.extend_from_slice(&size.to_le_bytes());
        buf.extend_from_slice(&mem_key.to_le_bytes());
        buf
    }

    /// Parse a persistent-channel offer body into (ordinal, size, mem_key).
    pub fn open_chan_req(body: &Bytes) -> (u64, u64, u64) {
        assert!(body.len() >= 24, "malformed persistent-channel offer");
        let ordinal = u64::from_le_bytes(body[..8].try_into().unwrap());
        let size = u64::from_le_bytes(body[8..16].try_into().unwrap());
        let mem_key = u64::from_le_bytes(body[16..24].try_into().unwrap());
        (ordinal, size, mem_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips() {
        let env = wire::envelope(0xDEAD, b"meta");
        assert_eq!(env.len(), 4 + b"meta".len());
        let (task, meta) = wire::open_envelope(&env);
        assert_eq!(task, 0xDEAD);
        assert_eq!(&meta[..], b"meta");
    }

    #[test]
    fn envelope_with_empty_metadata() {
        let env = wire::envelope(7, b"");
        let (task, meta) = wire::open_envelope(&env);
        assert_eq!(task, 7);
        assert!(meta.is_empty());
    }

    #[test]
    fn rts_round_trips() {
        let body = Bytes::from(wire::rts(42, 1 << 33, 0xABCD, b"user"));
        let (dispatch, len, key, meta) = wire::open_rts(&body);
        assert_eq!(dispatch, 42);
        assert_eq!(len, 1 << 33);
        assert_eq!(key, 0xABCD);
        assert_eq!(&meta[..], b"user");
    }

    #[test]
    fn chan_req_round_trips() {
        let body = Bytes::from(wire::chan_req(3, 4096, 0x55AA));
        assert_eq!(wire::open_chan_req(&body), (3, 4096, 0x55AA));
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn truncated_envelope_panics() {
        wire::open_envelope(&Bytes::from_static(b"abc"));
    }

    #[test]
    fn mailbox_delivery_touches_wakeup() {
        let unit = bgq_hw::WakeupUnit::new();
        let region = unit.region();
        let mb = ShmMailbox::new(8, region.clone());
        mb.deliver(ShmMsg {
            src: Endpoint::of_task(3),
            dispatch: 1,
            metadata: Bytes::new(),
            payload: ShmPayload::Inline(Bytes::from_static(b"hi")),
        });
        assert_eq!(region.epoch(), 1);
        let msg = mb.queue.pop().expect("message queued");
        assert_eq!(msg.src.task, 3);
        assert_eq!(msg.payload.len(), 2);
    }
}
