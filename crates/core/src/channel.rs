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
//!    receive window and sends the peer a 16-byte offer (slot size,
//!    window key) as a tagged message, tagged with the pairing ordinal in
//!    the channels' own space (`u32::MAX`). Channels pair in per-peer
//!    creation order: the n-th channel this context opens to a peer binds
//!    to the n-th the peer opens back. The first `post` or `wait` posts
//!    the receive for the peer's offer and advances until it lands,
//!    whether it arrived first or not.
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
use bytes::Bytes;

use crate::context::Context;
use crate::endpoint::Endpoint;
use crate::error::{PamiError, PamiResult};
use crate::machine::MemKey;

/// The tag space channel offers are matched in; no geometry may take it
/// as its id.
pub(crate) const CHANNEL_SPACE: u32 = u32::MAX;

/// An offer's bytes: the slot size, then the receive-window key.
const OFFER_LEN: usize = 16;

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
    /// Peer half; `None` until the peer's offer has landed.
    bound: Option<Bound>,
    /// Whether the receive for the peer's offer under `ordinal` is still
    /// to be posted: a channel that is dropped or renegotiated first posts
    /// it into a throwaway region, so the offer cannot stay on the
    /// context's early list.
    offer_unclaimed: bool,
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
        let channel = PersistentChannel {
            ctx: Arc::clone(ctx),
            peer,
            size,
            ordinal,
            recv_region,
            recv_counter,
            recv_key,
            send_counter: Counter::new(),
            bound: None,
            offer_unclaimed: true,
            post_step: 0,
            wait_step: 0,
        };
        channel.offer()?;
        Ok(channel)
    }

    /// The channel's fixed message size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send the peer this side's offer: the slot size and the receive
    /// window's key, tagged with the pairing ordinal.
    fn offer(&self) -> PamiResult<()> {
        let mut body = [0; OFFER_LEN];
        body[..8].copy_from_slice(&(self.size as u64).to_le_bytes());
        body[8..].copy_from_slice(&self.recv_key.0.to_le_bytes());
        let body = PayloadSource::Immediate(Bytes::copy_from_slice(&body));
        self.ctx.send_tagged(self.peer, CHANNEL_SPACE, self.ordinal, body, None)
    }

    /// Complete the handshake if it has not completed yet: receive the
    /// peer's offer (advancing the context until it lands) and pre-build
    /// the two per-slot descriptors.
    fn ensure_bound(&mut self) -> PamiResult<()> {
        if self.bound.is_some() {
            return Ok(());
        }
        let (offer, landed) = (MemRegion::zeroed(OFFER_LEN), Counter::new());
        self.claim_offer(&offer, &landed);
        self.ctx.advance_until(|| landed.is_complete());
        let mut body = [0; OFFER_LEN];
        offer.read(0, &mut body);
        let word = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
        if word(0) != self.size as u64 {
            return Err(PamiError::Invalid("persistent channel size mismatch with peer"));
        }
        let key = MemKey(word(8));
        let window = self.ctx.machine().window(key).ok_or(PamiError::UnknownWindow(key.0))?;
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

    /// Post the receive for the peer's offer under the current ordinal
    /// into `offer`.
    fn claim_offer(&mut self, offer: &MemRegion, landed: &Counter) {
        self.offer_unclaimed = false;
        self.ctx.post_tagged(CHANNEL_SPACE, self.ordinal, self.peer, offer, 0, OFFER_LEN, landed);
    }

    /// Let go of an offer this channel never bound to: its receive goes
    /// into a throwaway region, which takes the offer off the early list
    /// now if it has arrived, and as it lands if it has not.
    fn discard_offer(&mut self) {
        if self.offer_unclaimed {
            self.claim_offer(&MemRegion::zeroed(OFFER_LEN), &Counter::new());
        }
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
        self.discard_offer();
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
        self.offer_unclaimed = true;
        self.post_step = 0;
        self.wait_step = 0;
        self.offer()
    }
}

impl Drop for PersistentChannel {
    fn drop(&mut self) {
        self.ctx.machine().destroy_window(self.recv_key);
        self.discard_offer();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, Machine};

    /// One step each way on a bound pair.
    fn step(a: &mut PersistentChannel, b: &mut PersistentChannel, fill: u8) {
        let mut got = [0; 8];
        a.post(&[fill; 8]).unwrap();
        b.wait(&mut got).unwrap();
        assert_eq!(got, [fill; 8]);
        b.post(&[!fill; 8]).unwrap();
        a.wait(&mut got).unwrap();
        assert_eq!(got, [!fill; 8]);
    }

    /// An offer lands whether it arrives before its channel is opened
    /// (the early list holds it) or after the bind's post, off-node and
    /// on-node, and again after both sides renegotiate in the other
    /// order. Each bind leaves its context's table empty.
    #[test]
    fn offers_land_in_every_order_and_leave_the_table_empty() {
        for (nodes, ppn) in [(2, 1), (1, 2)] {
            let machine = Machine::with_nodes(nodes).ppn(ppn).build();
            let clients: Vec<_> = (0..2).map(|t| Client::create(&machine, t, "chan", 1)).collect();
            let (ctx_a, ctx_b) = (clients[0].context(0), clients[1].context(0));
            let mut a = ctx_a.channel(Endpoint::of_task(1), 8).unwrap();
            ctx_b.advance();
            assert_eq!(ctx_b.tagged_table(), (0, 1), "{nodes}x{ppn}: a's offer waits early");
            let mut b = ctx_b.channel(Endpoint::of_task(0), 8).unwrap();
            a.ensure_bound().unwrap();
            assert_eq!(ctx_a.tagged_table(), (0, 0), "{nodes}x{ppn}: a bound on its post");
            b.ensure_bound().unwrap();
            assert_eq!(ctx_b.tagged_table(), (0, 0), "{nodes}x{ppn}: b bound from early");
            step(&mut a, &mut b, 1);

            b.renegotiate().unwrap();
            ctx_a.advance();
            assert_eq!(ctx_a.tagged_table(), (0, 1), "{nodes}x{ppn}: b's new offer waits early");
            a.renegotiate().unwrap();
            b.ensure_bound().unwrap();
            assert_eq!(ctx_b.tagged_table(), (0, 0), "{nodes}x{ppn}: b rebound on its post");
            a.ensure_bound().unwrap();
            assert_eq!(ctx_a.tagged_table(), (0, 0), "{nodes}x{ppn}: a rebound from early");
            step(&mut a, &mut b, 2);
        }
    }

    /// A channel let go before it binds takes its peer's offer with it:
    /// dropped after the offer landed early, and renegotiated before the
    /// offer of its first ordinal arrived, off-node and on-node.
    #[test]
    fn an_unbound_channel_leaves_no_offer_behind() {
        for (nodes, ppn) in [(2, 1), (1, 2)] {
            let machine = Machine::with_nodes(nodes).ppn(ppn).build();
            let clients: Vec<_> = (0..2).map(|t| Client::create(&machine, t, "chan", 1)).collect();
            let (ctx_a, ctx_b) = (clients[0].context(0), clients[1].context(0));
            let a = ctx_a.channel(Endpoint::of_task(1), 8).unwrap();
            let b = ctx_b.channel(Endpoint::of_task(0), 8).unwrap();
            ctx_b.advance();
            assert_eq!(ctx_b.tagged_table(), (0, 1), "{nodes}x{ppn}: a's offer waits early");
            drop(b);
            ctx_b.advance();
            assert_eq!(ctx_b.tagged_table(), (0, 0), "{nodes}x{ppn}: dropped with b");
            drop(a);
            ctx_a.advance();
            assert_eq!(ctx_a.tagged_table(), (0, 0), "{nodes}x{ppn}: dropped with a");

            let mut a = ctx_a.channel(Endpoint::of_task(1), 8).unwrap();
            a.renegotiate().unwrap();
            assert_eq!(ctx_a.tagged_table(), (1, 0), "{nodes}x{ppn}: waits for b's first offer");
            let mut b = ctx_b.channel(Endpoint::of_task(0), 8).unwrap();
            ctx_a.advance();
            assert_eq!(ctx_a.tagged_table(), (0, 0), "{nodes}x{ppn}: b's first offer discarded");
            b.renegotiate().unwrap();
            step(&mut a, &mut b, 3);
            assert_eq!((ctx_a.tagged_table(), ctx_b.tagged_table()), ((0, 0), (0, 0)));
        }
    }
}
