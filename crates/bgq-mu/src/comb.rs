//! In-network combining for remote atomics — the NYU-Ultracomputer trick
//! generalized to the torus path.
//!
//! Without combining, N nodes hammering one remote counter produce N
//! packets at the root and N serialized memory updates. With the overlay
//! enabled ([`crate::fabric::MuFabricBuilder::combining`]), fetch-add
//! descriptors to the same (window, offset) are intercepted at injection
//! and coalesced at every torus hop on the deterministic route toward the
//! root: each node runs a *combining station*; batches move one hop per
//! link pump, and batches that meet at a station for the same target key
//! merge into one upstream packet. The root applies the combined addend
//! **once** and decombines the prior value by prefix sum — member *i* of a
//! batch observes `prior + Σ operands of members before i`, exactly the
//! value it would have seen under some serial order, so the combined
//! execution stays linearizable.
//!
//! Only fetch-add combines (addition is associative and decombines by
//! prefix sum); compare-swap / min / max descriptors bypass the overlay
//! and execute directly.
//!
//! Reliability: under a fault plan the overlay rolls the same seeded dice
//! the link channels use. A dropped combined packet stays at its station
//! and retransmits on the next pump; an ack-loss duplicate is modeled by a
//! ghost copy that re-arrives and is discarded by the receiving station's
//! seen-set — members are applied exactly once no matter how often the
//! carrier frame crosses the wire. A ghost crosses in the pump right after
//! the one that moved its original, so a station remembers an id for two
//! pump rounds and no longer; without a fault plan there are no ghosts and
//! no set is touched.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use bgq_hw::Counter as HwCounter;
use bgq_hw::MemRegion;
use bgq_torus::route::next_hop;
use bgq_torus::TorusShape;
use bgq_upc::{Counter, Upc};
use parking_lot::Mutex;

use crate::descriptor::{RmwOp, RmwReply};
use crate::faults::{link_id, Fate, FaultInjector};

/// `comb.*` telemetry probes for the combining overlay.
pub struct CombCounters {
    /// Fetch-add requests entering the overlay.
    pub requests: Counter,
    /// Requests absorbed into an existing batch (at the source station or
    /// an intermediate hop) instead of travelling as their own packet.
    pub merged: Counter,
    /// Combined packets crossing a torus hop toward the root.
    pub packets_upstream: Counter,
    /// Aggregated reply packets travelling back down (one per root apply;
    /// the per-hop pending-reply tables fan the priors back out).
    pub packets_downstream: Counter,
    /// Atomic applications performed at the root (one per batch, however
    /// many members it carries).
    pub root_applies: Counter,
    /// Combined packets retransmitted after a seeded drop.
    pub retransmits: Counter,
    /// Duplicate combined packets discarded by a station's seen-set.
    pub dupes_dropped: Counter,
    /// Prior values decombined and written back to requesters.
    pub replies: Counter,
}

impl CombCounters {
    pub(crate) fn new(upc: &Upc) -> Self {
        CombCounters {
            requests: upc.counter("comb.requests"),
            merged: upc.counter("comb.merged"),
            packets_upstream: upc.counter("comb.packets_upstream"),
            packets_downstream: upc.counter("comb.packets_downstream"),
            root_applies: upc.counter("comb.root_applies"),
            retransmits: upc.counter("comb.retransmits"),
            dupes_dropped: upc.counter("comb.dupes_dropped"),
            replies: upc.counter("comb.replies"),
        }
    }
}

/// Striped locks serializing atomic read-modify-writes per (window,
/// offset). Keeps concurrent rmws to *different* hot words independent
/// while making each word's update atomic.
pub(crate) struct RmwLocks {
    stripes: Vec<Mutex<()>>,
}

const RMW_STRIPES: usize = 64;

impl RmwLocks {
    pub(crate) fn new() -> Self {
        RmwLocks { stripes: (0..RMW_STRIPES).map(|_| Mutex::new(())).collect() }
    }

    /// Apply `op` atomically to the 8-byte little-endian word at
    /// `region[offset..offset+8]`; returns the prior value.
    pub(crate) fn apply(
        &self,
        win_key: u64,
        region: &MemRegion,
        offset: usize,
        op: RmwOp,
        operand: u64,
        compare: u64,
    ) -> u64 {
        let stripe = (win_key
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(offset as u64)) as usize
            % RMW_STRIPES;
        let _g = self.stripes[stripe].lock();
        let mut buf = [0u8; 8];
        region.read(offset, &mut buf);
        let prior = u64::from_le_bytes(buf);
        let new = match op {
            RmwOp::FetchAdd => prior.wrapping_add(operand),
            RmwOp::CompareSwap => {
                if prior == compare {
                    operand
                } else {
                    prior
                }
            }
            RmwOp::Min => prior.min(operand),
            RmwOp::Max => prior.max(operand),
        };
        if new != prior {
            region.write(offset, &new.to_le_bytes());
        }
        prior
    }
}

/// One requester's share of a combined batch: its addend, where its prior
/// value goes, and its completion counter — the decombine ("pending
/// reply") record.
struct Member {
    operand: u64,
    reply: Option<RmwReply>,
    done: Option<HwCounter>,
    credit: u64,
}

/// A combined upstream packet: every fetch-add it has absorbed for one
/// (root, window, offset) target, in arrival order (the serialization
/// order the decombined priors present).
struct Batch {
    /// Globally unique id — the receiving station's dedup key.
    id: u64,
    root: u32,
    win_key: u64,
    offset: usize,
    region: MemRegion,
    total: u64,
    members: Vec<Member>,
    /// Retransmission attempt of the *next* hop (dice input).
    attempt: u32,
    /// Freshly arrived: held at the station for one pump round so batches
    /// travelling different branches can meet and merge.
    hold: bool,
    /// Duplicate carrier (the "data arrived, ack lost" replay). Applies
    /// nothing; exists to be discarded by the receiver's seen-set.
    ghost: bool,
}

/// Per-node combining station.
#[derive(Default)]
struct Station {
    batches: Vec<Batch>,
    /// Ids of batches this station accepted in the current pump round
    /// (`[0]`) and the one before (`[1]`) — duplicate carriers of the same
    /// id are discarded (exactly-once). Two generations suffice: a ghost is
    /// created in the pump that moves its original and, skipping the dice
    /// and never held, crosses in the very next one.
    seen: [HashSet<u64>; 2],
}

/// The whole overlay: one station per node plus the global bookkeeping
/// the pump needs.
pub(crate) struct CombState {
    shape: TorusShape,
    stations: Vec<Mutex<Station>>,
    /// Outstanding member requests (submitted, not yet root-applied) —
    /// folded into `links_idle` so quiescence waits for the overlay.
    pending: AtomicU64,
    next_batch: AtomicU64,
    /// One pump at a time; contexts race to it with `try_lock`.
    pump_gate: Mutex<()>,
    pub(crate) counters: CombCounters,
}

impl CombState {
    pub(crate) fn new(shape: TorusShape, upc: &Upc) -> Self {
        CombState {
            shape,
            stations: (0..shape.num_nodes()).map(|_| Mutex::new(Station::default())).collect(),
            pending: AtomicU64::new(0),
            next_batch: AtomicU64::new(0),
            pump_gate: Mutex::new(()),
            counters: CombCounters::new(upc),
        }
    }

    /// Outstanding member requests in the overlay.
    pub(crate) fn pending(&self) -> u64 {
        self.pending.load(Ordering::Acquire)
    }

    /// Enter a fetch-add into the source node's station. Merges into a
    /// batch already waiting for the same (root, window, offset) when one
    /// exists — back-to-back hot-key requests from one node coalesce
    /// before ever crossing a link.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn submit(
        &self,
        src_node: u32,
        root: u32,
        win_key: u64,
        offset: usize,
        region: MemRegion,
        operand: u64,
        reply: Option<RmwReply>,
        done: Option<HwCounter>,
        credit: u64,
    ) {
        self.counters.requests.incr();
        self.pending.fetch_add(1, Ordering::AcqRel);
        let member = Member { operand, reply, done, credit };
        let mut st = self.stations[src_node as usize].lock();
        if let Some(b) = st
            .batches
            .iter_mut()
            .find(|b| !b.ghost && b.root == root && b.win_key == win_key && b.offset == offset)
        {
            b.total = b.total.wrapping_add(operand);
            b.members.push(member);
            self.counters.merged.incr();
            return;
        }
        let id = self.next_batch.fetch_add(1, Ordering::Relaxed);
        st.batches.push(Batch {
            id,
            root,
            win_key,
            offset,
            region,
            total: operand,
            members: vec![member],
            attempt: 0,
            hold: true,
            ghost: false,
        });
    }

    /// Move every travel-ready batch one hop toward its root, merging at
    /// intermediate stations and applying + decombining at the root.
    /// Global (all stations), single-flight via `try_lock`; returns events
    /// performed (hops + applies), 0 when another thread holds the pump or
    /// nothing is in flight.
    pub(crate) fn pump(&self, injector: Option<&FaultInjector>, locks: &RmwLocks) -> usize {
        if self.pending() == 0 {
            return 0;
        }
        let Some(_gate) = self.pump_gate.try_lock() else { return 0 };
        // Phase A: lift travel-ready batches out of their stations; held
        // batches become travel-ready for the next round. Two phases so a
        // batch moves at most one hop per pump regardless of node order.
        let mut moving: Vec<(u32, Batch)> = Vec::new();
        for (node, station) in self.stations.iter().enumerate() {
            let mut st = station.lock();
            if injector.is_some() {
                st.seen.swap(0, 1);
                st.seen[0].clear();
            }
            let mut kept = Vec::with_capacity(st.batches.len());
            for mut b in st.batches.drain(..) {
                if b.hold {
                    b.hold = false;
                    kept.push(b);
                } else {
                    moving.push((node as u32, b));
                }
            }
            st.batches = kept;
        }
        let mut events = 0usize;
        for (at, mut batch) in moving {
            if at == batch.root {
                events += 1;
                if batch.ghost {
                    // A duplicate that chased the batch all the way home
                    // after the original applied; the root station's seen
                    // set absorbed the original id on acceptance, so this
                    // copy was already discarded there. Defensive only.
                    continue;
                }
                self.apply_at_root(batch, locks);
                continue;
            }
            let cur = self.shape.coords_of(at as usize);
            let root = self.shape.coords_of(batch.root as usize);
            let (dir, next_coords) =
                next_hop(self.shape, cur, root).expect("non-root batch has a next hop");
            let next = self.shape.node_index(next_coords) as u32;
            // Seeded link dice: combined packets are subject to the same
            // per-link fates as everything else crossing this hop. Ghosts
            // are the duplicate itself — they always "arrive".
            let mut spawn_ghost = false;
            if let (Some(inj), false) = (injector, batch.ghost) {
                match inj.decide(link_id(at, dir), batch.id, batch.attempt) {
                    Fate::Pass => {}
                    Fate::Delay(_) => {
                        // Held in flight: park at the current station for a
                        // round without burning a retransmission.
                        batch.hold = true;
                        self.stations[at as usize].lock().batches.push(batch);
                        continue;
                    }
                    Fate::Drop => {
                        // Lost outright: retransmit next pump.
                        batch.attempt += 1;
                        self.counters.retransmits.incr();
                        self.stations[at as usize].lock().batches.push(batch);
                        continue;
                    }
                    Fate::Corrupt => {
                        // The data frame made it but its CRC-failed ack did
                        // not: the sender will retransmit a copy the
                        // receiver must recognize and discard — the
                        // exactly-once case combining must get right.
                        spawn_ghost = true;
                    }
                }
            }
            events += 1;
            self.counters.packets_upstream.incr();
            if spawn_ghost {
                self.counters.retransmits.incr();
                self.stations[at as usize].lock().batches.push(Batch {
                    id: batch.id,
                    root: batch.root,
                    win_key: batch.win_key,
                    offset: batch.offset,
                    region: batch.region.clone(),
                    total: batch.total,
                    members: Vec::new(),
                    attempt: batch.attempt + 1,
                    hold: false,
                    ghost: true,
                });
            }
            let mut st = self.stations[next as usize].lock();
            if injector.is_some() {
                if st.seen.iter().any(|ids| ids.contains(&batch.id)) {
                    // Duplicate carrier of a batch this station already
                    // accepted: discard. Its members ride in the accepted
                    // copy, so nothing is lost and nothing double-applies.
                    self.counters.dupes_dropped.incr();
                    continue;
                }
                st.seen[0].insert(batch.id);
            }
            if batch.ghost {
                continue;
            }
            if let Some(b) = st.batches.iter_mut().find(|b| {
                !b.ghost
                    && b.root == batch.root
                    && b.win_key == batch.win_key
                    && b.offset == batch.offset
            }) {
                // Hop-level combining: two upstream packets for the same
                // hot word met at this station and continue as one.
                b.total = b.total.wrapping_add(batch.total);
                self.counters.merged.add(batch.members.len() as u64);
                b.members.append(&mut batch.members);
                continue;
            }
            batch.attempt = 0;
            batch.hold = true;
            st.batches.push(batch);
        }
        events
    }

    /// The root memory module: one atomic apply for the whole batch, then
    /// the decombine — member *i*'s prior is the batch prior plus the
    /// operands of the members ahead of it (prefix sum), which is exactly
    /// the serial execution in member order.
    fn apply_at_root(&self, batch: Batch, locks: &RmwLocks) {
        let prior = locks.apply(
            batch.win_key,
            &batch.region,
            batch.offset,
            RmwOp::FetchAdd,
            batch.total,
            0,
        );
        self.counters.root_applies.incr();
        self.counters.packets_downstream.incr();
        let mut running = prior;
        let n = batch.members.len() as u64;
        for m in batch.members {
            if let Some(r) = &m.reply {
                r.region.write(r.offset, &running.to_le_bytes());
            }
            running = running.wrapping_add(m.operand);
            if let Some(c) = &m.done {
                c.delivered(m.credit);
            }
            self.counters.replies.incr();
        }
        self.pending.fetch_sub(n, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_torus::Coords;

    fn shape() -> TorusShape {
        TorusShape::new([4, 2, 2, 1, 1])
    }

    #[test]
    fn rmw_locks_apply_all_ops() {
        let locks = RmwLocks::new();
        let region = MemRegion::zeroed(8);
        assert_eq!(locks.apply(1, &region, 0, RmwOp::FetchAdd, 5, 0), 0);
        assert_eq!(locks.apply(1, &region, 0, RmwOp::FetchAdd, 3, 0), 5);
        assert_eq!(locks.apply(1, &region, 0, RmwOp::Max, 100, 0), 8);
        assert_eq!(locks.apply(1, &region, 0, RmwOp::Min, 7, 0), 100);
        // CAS success then failure.
        assert_eq!(locks.apply(1, &region, 0, RmwOp::CompareSwap, 42, 7), 7);
        assert_eq!(locks.apply(1, &region, 0, RmwOp::CompareSwap, 9, 7), 42);
        let mut buf = [0u8; 8];
        region.read(0, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 42);
    }

    #[test]
    fn combined_fetch_adds_apply_once_and_decombine_priors() {
        let upc = Upc::new();
        let comb = CombState::new(shape(), &upc);
        let locks = RmwLocks::new();
        let region = MemRegion::zeroed(8);
        let n_nodes = shape().num_nodes() as u32;
        // Every non-root node submits two fetch-adds of 1 to node 0.
        let mut replies = Vec::new();
        for node in 1..n_nodes {
            for _ in 0..2 {
                let slot = MemRegion::zeroed(8);
                comb.submit(
                    node,
                    0,
                    7,
                    0,
                    region.clone(),
                    1,
                    Some(RmwReply { region: slot.clone(), offset: 0 }),
                    None,
                    1,
                );
                replies.push(slot);
            }
        }
        let total = replies.len() as u64;
        let mut guard = 0;
        while comb.pending() > 0 {
            comb.pump(None, &locks);
            guard += 1;
            assert!(guard < 10_000, "combining overlay failed to drain");
        }
        let mut buf = [0u8; 8];
        region.read(0, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), total, "every member applied exactly once");
        // Linearizability: the returned priors are a permutation of 0..total.
        let mut priors: Vec<u64> = replies
            .iter()
            .map(|r| {
                let mut b = [0u8; 8];
                r.read(0, &mut b);
                u64::from_le_bytes(b)
            })
            .collect();
        priors.sort_unstable();
        assert_eq!(priors, (0..total).collect::<Vec<_>>());
        // Merging actually happened: fewer root applies than requests.
        #[cfg(feature = "telemetry")]
        {
            assert!(comb.counters.root_applies.value() < total);
            assert_eq!(comb.counters.requests.value(), total);
        }
    }

    #[test]
    fn stations_remember_ids_for_two_rounds_however_long_the_storm() {
        use crate::faults::FaultPlan;
        const STORMS: u64 = 200;
        let upc = Upc::new();
        let comb = CombState::new(shape(), &upc);
        let locks = RmwLocks::new();
        let plan = FaultPlan::new().seed(5).drop_rate(0.2).corrupt_rate(0.2);
        let inj = FaultInjector::new(plan, shape());
        let region = MemRegion::zeroed(8);
        let senders = shape().num_nodes() as u32 - 1;
        let ids = |s: &Mutex<Station>| s.lock().seen.iter().map(HashSet::len).sum::<usize>();
        let mut remembered = 0;
        for _ in 0..STORMS {
            for node in 1..=senders {
                comb.submit(node, 0, 7, 0, region.clone(), 1, None, None, 1);
            }
            let mut guard = 0;
            while comb.pending() > 0 {
                comb.pump(Some(&inj), &locks);
                remembered = remembered.max(comb.stations.iter().map(ids).sum());
                guard += 1;
                assert!(guard < 10_000, "combining overlay failed to drain");
            }
        }
        let mut buf = [0u8; 8];
        region.read(0, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), STORMS * senders as u64, "exactly once under faults");
        if cfg!(feature = "telemetry") {
            assert!(comb.counters.dupes_dropped.value() > 0, "the plan made duplicates");
        }
        // A batch is accepted by at most one station per pump, and a storm
        // has at most one batch per sender in flight: two generations of
        // that, whatever STORMS is.
        assert!(
            remembered <= 2 * senders as usize,
            "stations remembered {remembered} ids at once over {STORMS} storms"
        );
    }

    #[test]
    fn next_hop_walks_to_root() {
        let s = shape();
        let mut at = Coords([3, 1, 1, 0, 0]);
        let root = Coords([0; 5]);
        let mut hops = 0;
        while let Some((_, next)) = next_hop(s, at, root) {
            at = next;
            hops += 1;
            assert!(hops <= 10);
        }
        assert_eq!(at, root);
    }
}
