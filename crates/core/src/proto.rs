//! Protocol plumbing shared by the MU and shared-memory devices: internal
//! message bodies, the shared-memory mailbox, the rendezvous source table
//! and the send argument bundle.
//!
//! Wire format note: an MU packet's metadata is the user's dispatch
//! metadata and nothing else. The source task travels in the packet
//! header (`bgq_mu::MuPacket::src_task`) beside the source node and
//! context — with several processes per node the node alone does not name
//! the sender. A rendezvous RTS carries the real dispatch id, total
//! length, and the rendezvous key ahead of the user metadata, under an
//! internal dispatch id, over either transport (reception FIFO off-node,
//! mailbox on-node). The key names a slot, and that slot's generation, in
//! the *sending context's* `RzvSources`; the message's source endpoint
//! names the context. Nothing machine- or node-wide is consulted.

use bgq_hw::{Counter, WakeupRegion, WorkQueue};
use bgq_mu::PayloadSource;
use bytes::Bytes;
use parking_lot::Mutex;

use crate::endpoint::Endpoint;

/// Internal dispatch id: rendezvous request-to-send.
pub(crate) const DISPATCH_RZV_RTS: u16 = 0xFF00;

/// Internal dispatch id: a tagged message — one that can arrive before
/// its receive is posted (a software collective's step, a channel's
/// offer). Every context routes it into its own table of posted receives
/// and early arrivals (`Context::post_tagged`).
pub(crate) const DISPATCH_TAGGED: u16 = 0xFF01;

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

/// A parked rendezvous source: the payload the target pulls and the
/// sender's local-completion counter, credited once the bytes have moved.
pub(crate) struct RzvEntry {
    pub payload: PayloadSource,
    pub local_done: Option<Counter>,
}

/// One context's parked rendezvous sources: a slot vector plus a free
/// list, under the context's own lock. A key is `generation << 32 | slot`;
/// taking a source bumps its slot's generation, so a key is good for
/// exactly one take even after the slot is reused. No hash, and no
/// allocation per send once the vector has grown.
#[derive(Default)]
pub(crate) struct RzvSources {
    slots: Mutex<Slots>,
}

#[derive(Default)]
struct Slots {
    entries: Vec<(u32, Option<RzvEntry>)>,
    free: Vec<u32>,
}

impl RzvSources {
    /// Park `entry` until the target takes it; returns the RTS key.
    pub(crate) fn park(&self, entry: RzvEntry) -> u64 {
        let mut slots = self.slots.lock();
        let slot = match slots.free.pop() {
            Some(slot) => slot,
            None => {
                slots.entries.push((0, None));
                u32::try_from(slots.entries.len() - 1).expect("rendezvous source slots exhausted")
            }
        };
        let (generation, parked) = &mut slots.entries[slot as usize];
        *parked = Some(entry);
        u64::from(*generation) << 32 | u64::from(slot)
    }

    /// Take the source `key` names, freeing its slot.
    ///
    /// # Panics
    /// If `key` was already taken, or never parked here.
    pub(crate) fn take(&self, key: u64) -> RzvEntry {
        let (generation, slot) = ((key >> 32) as u32, key as u32);
        let mut slots = self.slots.lock();
        let entry = match slots.entries.get_mut(slot as usize) {
            Some((current, parked)) if *current == generation => {
                *current = current.wrapping_add(1);
                parked.take()
            }
            _ => None,
        };
        let entry = entry.expect("rendezvous source taken twice or never parked");
        slots.free.push(slot);
        entry
    }

    /// Sources parked and not yet taken.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        let slots = self.slots.lock();
        slots.entries.len() - slots.free.len()
    }
}

/// A message in a shared-memory mailbox.
pub struct ShmMsg {
    /// Source endpoint.
    pub src: Endpoint,
    /// Dispatch id.
    pub dispatch: u16,
    /// User metadata (the source endpoint rides beside it in `src`).
    pub metadata: Bytes,
    /// Payload, copied in by the sender (the L2-cache bounce the paper's
    /// intra-node eager path takes). Empty for an RTS, whose body rides in
    /// `metadata`.
    pub payload: Bytes,
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

/// RTS and tagged-message wire helpers. Each is written once, in place:
/// the RTS into the buffer the packet carries, a tag on the stack.
pub(crate) mod wire {
    use super::*;

    /// RTS body: real dispatch, payload length, rendezvous key, then the
    /// user metadata.
    pub fn rts(dispatch: u16, len: u64, key: u64, user_metadata: &[u8]) -> Bytes {
        Bytes::init_with(18 + user_metadata.len(), |buf| {
            buf[..2].copy_from_slice(&dispatch.to_le_bytes());
            buf[2..10].copy_from_slice(&len.to_le_bytes());
            buf[10..18].copy_from_slice(&key.to_le_bytes());
            buf[18..].copy_from_slice(user_metadata);
        })
    }

    /// Parse an RTS body.
    pub fn open_rts(body: &Bytes) -> (u16, u64, u64, Bytes) {
        assert!(body.len() >= 18, "malformed rendezvous RTS");
        let dispatch = u16::from_le_bytes(body[..2].try_into().unwrap());
        let len = u64::from_le_bytes(body[2..10].try_into().unwrap());
        let key = u64::from_le_bytes(body[10..18].try_into().unwrap());
        (dispatch, len, key, body.slice(18..))
    }

    /// Tagged-message metadata: the tag's space (a geometry id, or the
    /// channels' space), then the tag.
    pub fn tagged(space: u32, tag: u64) -> [u8; 12] {
        let mut meta = [0; 12];
        meta[..4].copy_from_slice(&space.to_le_bytes());
        meta[4..].copy_from_slice(&tag.to_le_bytes());
        meta
    }

    /// Parse tagged-message metadata into (space, tag).
    pub fn open_tagged(meta: &[u8]) -> (u32, u64) {
        assert!(meta.len() >= 12, "malformed tagged-message metadata");
        let space = u32::from_le_bytes(meta[..4].try_into().unwrap());
        (space, u64::from_le_bytes(meta[4..12].try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rts_round_trips() {
        let body = wire::rts(42, 1 << 33, 0xABCD, b"user");
        let (dispatch, len, key, meta) = wire::open_rts(&body);
        assert_eq!(dispatch, 42);
        assert_eq!(len, 1 << 33);
        assert_eq!(key, 0xABCD);
        assert_eq!(&meta[..], b"user");
    }

    #[test]
    fn mailbox_delivery_touches_wakeup() {
        let region = bgq_hw::WakeupRegion::new();
        let mb = ShmMailbox::new(8, region.clone());
        mb.deliver(ShmMsg {
            src: Endpoint::of_task(3),
            dispatch: 1,
            metadata: Bytes::new(),
            payload: Bytes::from_static(b"hi"),
        });
        assert_eq!(region.epoch(), 1);
        let msg = mb.queue.pop().expect("message queued");
        assert_eq!(msg.src.task, 3);
        assert_eq!(msg.payload.len(), 2);
    }

    fn source(len: usize) -> RzvEntry {
        let payload = PayloadSource::Immediate(Bytes::from(vec![7u8; len]));
        RzvEntry { payload, local_done: None }
    }

    #[test]
    fn parked_source_round_trips() {
        let table = RzvSources::default();
        let key = table.park(source(3));
        assert_eq!(table.parked(), 1);
        let entry = table.take(key);
        assert_eq!(entry.payload.len(), 3);
        assert_eq!(table.parked(), 0);
    }

    #[test]
    #[should_panic(expected = "rendezvous source taken twice or never parked")]
    fn second_take_of_a_key_panics() {
        let table = RzvSources::default();
        let key = table.park(source(1));
        table.take(key);
        table.take(key);
    }

    #[test]
    #[should_panic(expected = "rendezvous source taken twice or never parked")]
    fn reused_slot_refuses_its_old_key() {
        let table = RzvSources::default();
        let old = table.park(source(1));
        table.take(old);
        let new = table.park(source(2));
        assert_eq!(new as u32, old as u32, "a freed slot is reused");
        assert_ne!(new, old, "under a new generation");
        table.take(old);
    }

    /// Every 16 KiB rendezvous — on-node through the mailbox, off-node
    /// through the reception FIFO — leaves its sender's table empty once
    /// it completes, and a refused send parks nothing.
    #[test]
    fn sources_are_taken_on_both_transports_and_a_refused_send_parks_none() {
        use crate::{Client, Machine, Recv, SendArgs};
        const LEN: usize = 16 * 1024;
        // Tasks 0 and 1 share node 0; task 2 is on node 1.
        let machine = Machine::with_nodes(2).ppn(2).build();
        let clients: Vec<_> = (0..3).map(|t| Client::create(&machine, t, "rzv", 1)).collect();
        let sink = bgq_hw::MemRegion::zeroed(LEN);
        for client in &clients[1..] {
            let sink = sink.clone();
            client.context(0).set_dispatch(
                1,
                std::sync::Arc::new(move |_, _, _| Recv::Into {
                    region: sink.clone(),
                    offset: 0,
                    on_complete: Box::new(|_, result| result.unwrap()),
                }),
            );
        }
        let sender = clients[0].context(0);
        for dest in [1, 2] {
            let done = Counter::new();
            done.add_expected(LEN as u64);
            let payload = bgq_hw::MemRegion::from_vec(vec![dest as u8; LEN]);
            sender
                .send(SendArgs {
                    dest: Endpoint::of_task(dest),
                    dispatch: 1,
                    metadata: Vec::new(),
                    payload: PayloadSource::Region { region: payload, offset: 0, len: LEN },
                    local_done: Some(done.clone()),
                })
                .unwrap();
            assert_eq!(sender.rzv.parked(), 1, "task {dest}: the source is parked until taken");
            while !done.is_complete() {
                sender.advance();
                clients[dest as usize].context(0).advance();
            }
            assert_eq!(sender.rzv.parked(), 0, "task {dest}: the source was taken");
            assert_eq!(sink.to_vec(), vec![dest as u8; LEN]);
        }
        let refused = sender.send(SendArgs {
            dest: Endpoint { task: 0, context: 1 },
            dispatch: 1,
            metadata: Vec::new(),
            payload: PayloadSource::Immediate(Bytes::from(vec![0u8; LEN])),
            local_done: None,
        });
        assert!(refused.is_err());
        assert_eq!(sender.rzv.parked(), 0, "a refused send parks nothing");
    }
}
