//! Persistent channels — pre-negotiated buffer pairs with zero-matching,
//! fixed-descriptor message passing.
//!
//! The paper's protocol ladder pays a per-message software cost even on
//! its fastest rungs: a protocol decision, a header build, a dispatch
//! lookup at the receiver. Regular communication patterns (halo
//! exchanges, pipelined stencils) send the *same size to the same peer
//! every iteration*, so all of that work can be hoisted out of the loop.
//! A [`PersistentChannel`] does exactly that:
//!
//! 1. **Handshake (once)** — each side registers a double-buffered
//!    receive window and advertises it to the peer over the existing
//!    internal-dispatch lane (`DISPATCH_CHAN_REQ`).
//!    Channels pair in per-peer creation order: the n-th channel this
//!    context opens to a peer binds to the n-th the peer opens back.
//! 2. **Steady state (every message)** — [`PersistentChannel::post`] is a
//!    slot write plus the injection of a *pre-built* direct-put
//!    descriptor: no protocol selection, no matching, no completion
//!    allocation, no metadata. [`PersistentChannel::wait`] arms the
//!    receive counter and copies the slot out once the put lands.
//!
//! The channel is double-buffered (two slots, used alternately), so a
//! peer may run one full step ahead without overwriting data the local
//! side has not consumed yet. The usage contract is the classic
//! persistent-halo loop: each side alternates `post(step)` / `wait(step)`
//! — a side may post step *i+1* before waiting step *i*, but must wait
//! step *i* before posting step *i+2* (the arrival of the peer's message
//! *i+1* implies the peer consumed our message *i*, freeing its slot).
//!
//! Failure behaves like every other transfer: a dead link fails the
//! channel's counters with a typed [`bgq_hw::DeliveryFault`], `post` /
//! `wait` surface it as `Err`, and [`PersistentChannel::renegotiate`]
//! rebuilds the channel (fresh windows, fresh counters, fresh handshake)
//! once the fabric heals — both sides must renegotiate so pairing
//! ordinals stay matched.

use std::sync::Arc;

use bgq_hw::{Counter, MemRegion};
use bgq_mu::{Descriptor, PayloadSource, XferKind};

use crate::context::Context;
use crate::endpoint::Endpoint;
use crate::error::{PamiError, PamiResult};
use crate::machine::MemKey;
use crate::proto::wire;

/// A buffer offer received from a peer (the body of a
/// `DISPATCH_CHAN_REQ` message): the peer's slot size and
/// its registered receive-window key.
#[derive(Debug, Clone, Copy)]
pub struct ChanOffer {
    /// Peer's slot size in bytes.
    pub size: u64,
    /// Peer's receive-window key.
    pub mem_key: MemKey,
}

/// The peer-dependent half of a channel, built lazily once the peer's
/// offer arrives.
struct Bound {
    /// Pre-built direct-put descriptors, one per slot. `post` clones one
    /// and injects it — the entire per-message protocol.
    slots: [Descriptor; 2],
    /// Local staging buffer the descriptors' payloads point into.
    send_region: MemRegion,
}

/// A persistent, fixed-size, double-buffered message channel to one peer
/// endpoint. Created with [`Context::channel`]; see the module docs for
/// the pairing and flow-control contract.
pub struct PersistentChannel {
    ctx: Arc<Context>,
    peer: Endpoint,
    /// Slot size: every message on the channel is exactly this long.
    size: usize,
    /// Pairing ordinal (n-th channel from this context to `peer`).
    ordinal: u64,
    /// Local receive buffer (2 slots) the peer's puts land in.
    recv_region: MemRegion,
    /// Reception counter: armed by `wait`, credited by the peer's puts.
    recv_counter: Counter,
    /// Window key for `recv_region`, advertised to the peer.
    recv_key: MemKey,
    /// Injection counter shared by every `post`: credited when payload
    /// bytes leave `send_region`, failed (typed) when the channel dies.
    send_counter: Counter,
    /// Peer half; `None` until the peer's offer is claimed.
    bound: Option<Bound>,
    /// Next step to post / wait (independent cursors).
    post_step: u64,
    wait_step: u64,
}

impl PersistentChannel {
    /// Register the local receive window and send the offer. Returns
    /// without waiting for the peer: binding completes lazily on first
    /// `post`/`wait`, so a ring of tasks can all open channels before any
    /// of them advances.
    pub(crate) fn create(
        ctx: &Arc<Context>,
        peer: Endpoint,
        size: usize,
    ) -> PamiResult<PersistentChannel> {
        if size == 0 {
            return Err(PamiError::Invalid("persistent channel slot size must be non-zero"));
        }
        let ordinal = ctx.next_chan_ordinal(peer);
        let recv_region = MemRegion::zeroed(2 * size);
        let recv_counter = Counter::new();
        let recv_key =
            ctx.machine().create_window(recv_region.clone(), Some(recv_counter.clone()));
        ctx.send_chan_offer(peer, wire::chan_req(ordinal, size as u64, recv_key.0))?;
        Ok(PersistentChannel {
            ctx: Arc::clone(ctx),
            peer,
            size,
            ordinal,
            recv_region,
            recv_counter,
            recv_key,
            send_counter: Counter::new(),
            bound: None,
            post_step: 0,
            wait_step: 0,
        })
    }

    /// The channel's fixed message size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Complete the handshake if it has not completed yet: claim the
    /// peer's offer (advancing the context until it arrives) and pre-build
    /// the two per-slot descriptors.
    fn ensure_bound(&mut self) -> PamiResult<()> {
        if self.bound.is_some() {
            return Ok(());
        }
        let offer = loop {
            if let Some(offer) = self.ctx.take_chan_offer(self.peer, self.ordinal) {
                break offer;
            }
            if self.ctx.advance() == 0 {
                std::thread::yield_now();
            }
        };
        if offer.size != self.size as u64 {
            return Err(PamiError::Invalid("persistent channel size mismatch with peer"));
        }
        let window = self
            .ctx
            .machine()
            .window(offer.mem_key)
            .ok_or(PamiError::UnknownWindow(offer.mem_key.0))?;
        let send_region = MemRegion::zeroed(2 * self.size);
        let peer_node = self.ctx.machine().task_node(self.peer.task);
        let slots = [0usize, 1].map(|slot| Descriptor {
            dst_node: peer_node,
            src_context: self.ctx.offset(),
            payload: PayloadSource::Region {
                region: send_region.clone(),
                offset: slot * self.size,
                len: self.size,
            },
            kind: XferKind::DirectPut {
                dst_region: window.region.clone(),
                dst_offset: slot * self.size,
                rec_counter: window.counter.clone(),
            },
            inj_counter: Some(self.send_counter.clone()),
        });
        self.bound = Some(Bound { slots, send_region });
        Ok(())
    }

    /// Surface a channel fault as the typed error it carries.
    fn fault_err(&self) -> Option<PamiError> {
        self.send_counter.fault().map(PamiError::from)
    }

    /// Send one message: copy `data` into the current slot and inject its
    /// pre-built descriptor. `data` must be at most [`Self::size`] bytes
    /// (shorter messages leave the slot tail as the previous step wrote
    /// it). Fails fast — without touching the wire — if the channel has
    /// already faulted.
    pub fn post(&mut self, data: &[u8]) -> PamiResult<()> {
        self.ensure_bound()?;
        if let Some(err) = self.fault_err() {
            return Err(err);
        }
        assert!(
            data.len() <= self.size,
            "persistent channel post of {} bytes exceeds slot size {}",
            data.len(),
            self.size
        );
        let slot = (self.post_step % 2) as usize;
        let bound = self.bound.as_ref().expect("ensure_bound succeeded");
        bound.send_region.write(slot * self.size, data);
        self.send_counter.add_expected(self.size as u64);
        self.ctx.inject(bound.slots[slot].clone());
        self.post_step += 1;
        // The put executed inside `inject` (or died trying): a fault raised
        // by it surfaces here, not on the next call.
        if let Some(err) = self.fault_err() {
            return Err(err);
        }
        Ok(())
    }

    /// Receive one message: advance until the peer's put for this step has
    /// landed, then copy the slot into `out` (`out` may be shorter than
    /// the slot). Returns the channel's typed fault instead of hanging if
    /// the channel dies.
    pub fn wait(&mut self, out: &mut [u8]) -> PamiResult<()> {
        self.ensure_bound()?;
        assert!(
            out.len() <= self.size,
            "persistent channel wait into {} bytes exceeds slot size {}",
            out.len(),
            self.size
        );
        self.recv_counter.add_expected(self.size as u64);
        // The counter wraps: if the peer ran ahead and its put landed
        // before we armed, outstanding is `0 - size` wrapped — reading it
        // as signed makes "already delivered" and "just delivered" the
        // same `<= 0` condition.
        let caught_up = |c: &Counter| (c.outstanding() as i64) <= 0;
        let recv = self.recv_counter.clone();
        let send = self.send_counter.clone();
        self.ctx.advance_until(|| {
            caught_up(&recv) || recv.fault().is_some() || send.fault().is_some()
        });
        if !caught_up(&self.recv_counter) {
            if let Some(fault) = self.recv_counter.fault().or(self.send_counter.fault()) {
                return Err(PamiError::from(fault));
            }
        }
        let slot = (self.wait_step % 2) as usize;
        self.recv_region.read(slot * self.size, out);
        self.wait_step += 1;
        Ok(())
    }

    /// Rebuild a faulted channel once the fabric has healed: revive the
    /// underlying link channel if it is still marked dead, discard the old
    /// windows and counters, and run the handshake again under a fresh
    /// pairing ordinal. Both sides must renegotiate (in the same relative
    /// order) for the new ordinals to pair.
    pub fn renegotiate(&mut self) -> PamiResult<()> {
        let machine = self.ctx.machine();
        let peer_node = machine.task_node(self.peer.task);
        // Idempotent: false just means the channel was never (or is no
        // longer) marked dead.
        machine.fabric().revive_channel(self.ctx.node(), peer_node);
        machine.fabric().revive_channel(peer_node, self.ctx.node());
        machine.destroy_window(self.recv_key);
        self.ordinal = self.ctx.next_chan_ordinal(self.peer);
        self.recv_region = MemRegion::zeroed(2 * self.size);
        self.recv_counter = Counter::new();
        self.recv_key =
            machine.create_window(self.recv_region.clone(), Some(self.recv_counter.clone()));
        self.send_counter = Counter::new();
        self.bound = None;
        self.post_step = 0;
        self.wait_step = 0;
        self.ctx
            .send_chan_offer(self.peer, wire::chan_req(self.ordinal, self.size as u64, self.recv_key.0))
    }
}

impl Drop for PersistentChannel {
    fn drop(&mut self) {
        self.ctx.machine().destroy_window(self.recv_key);
    }
}
