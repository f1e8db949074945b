//! The collective combine engine.
//!
//! Functionally, a collective-network operation over a classroute is: every
//! member node contributes an operand (or, for broadcast, the root
//! contributes data and the rest contribute nothing); the routers combine
//! contributions up the tree; the result streams back down and is
//! RDMA-written into each member's destination buffer, decrementing its
//! reception counter. The paper's collectives are "RDMA capable and the
//! data that is being operated upon is directly read from or written to the
//! memory" — no reception-FIFO traffic, no extra copies.
//!
//! [`CollNet`] reproduces exactly that contract. Contributions on the same
//! classroute are matched by arrival order per node (hardware serializes
//! collective ops per route the same way); the last contribution performs
//! the combine-completion: writing results and crediting counters.
//! Long operations are pipelined by issuing one contribution per slice,
//! which is literally what PAMI's long-allreduce does (Figure 4).

use std::collections::HashMap;

use bgq_hw::{Counter, MemRegion};
use bgq_torus::Coords;
use parking_lot::Mutex;

use crate::classroute::ClassRoute;
use crate::ops::{combine, CollOp, DataType};

/// Where one member wants a result delivered.
#[derive(Clone)]
pub struct CollOutput {
    /// Destination region (RDMA write target).
    pub region: MemRegion,
    /// Byte offset within the region.
    pub offset: usize,
    /// Reception counter decremented by the result length (by 1 for
    /// barriers).
    pub counter: Option<Counter>,
}

impl CollOutput {
    /// An output with no counter (tests, simple callers).
    pub fn plain(region: MemRegion, offset: usize) -> Self {
        CollOutput { region, offset, counter: None }
    }

    fn complete(&self, data: Option<&[u8]>, credit: u64) {
        if let Some(d) = data {
            self.region.write(self.offset, d);
        }
        if let Some(c) = &self.counter {
            c.delivered(credit);
        }
    }
}

/// One member node's contribution to a collective operation.
pub enum CollContribution {
    /// Allreduce: contribute `data`, receive the combined result.
    Allreduce {
        /// Combine operation.
        op: CollOp,
        /// Element type.
        dtype: DataType,
        /// This node's operand.
        data: Vec<u8>,
        /// Where the result lands on this node.
        output: CollOutput,
    },
    /// Broadcast: the root contributes `Some(data)`; everyone receiving
    /// passes an output.
    Broadcast {
        /// Payload (root only).
        data: Option<Vec<u8>>,
        /// Payload length (every member must agree).
        len: usize,
        /// Destination (members other than the root; the root may also
        /// receive into place).
        output: Option<CollOutput>,
    },
    /// Barrier: no payload; the output counter (if any) is decremented by 1
    /// at release.
    Barrier {
        /// Completion signal.
        output: Option<CollOutput>,
    },
}

impl CollContribution {
    fn signature(&self) -> OpSignature {
        match self {
            CollContribution::Allreduce { op, dtype, data, .. } => {
                OpSignature::Allreduce(*op, *dtype, data.len())
            }
            CollContribution::Broadcast { len, .. } => OpSignature::Broadcast(*len),
            CollContribution::Barrier { .. } => OpSignature::Barrier,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpSignature {
    Allreduce(CollOp, DataType, usize),
    Broadcast(usize),
    Barrier,
}

struct OpState {
    signature: OpSignature,
    expected: usize,
    received: usize,
    /// Running combine (allreduce) or broadcast payload.
    acc: Option<Vec<u8>>,
    outputs: Vec<CollOutput>,
}

/// The collective network engine for one partition.
///
/// Shared (via clone) by every node driver; one instance per
/// [`crate::classroute::ClassRouteManager`] is typical.
#[derive(Clone, Default)]
pub struct CollNet {
    inner: std::sync::Arc<CollNetInner>,
}

#[derive(Default)]
struct CollNetInner {
    /// In-flight operations keyed by (route id, sequence).
    ops: Mutex<HashMap<(u8, u64), OpState>>,
    /// Next sequence per (route id, member node index within rect).
    seqs: Mutex<HashMap<(u8, usize), u64>>,
}

impl CollNet {
    /// A fresh engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Contribute `node`'s part of the next collective on `route`.
    ///
    /// Calls on one node are matched to calls on the other members in
    /// per-node program order, like the hardware serializes a route. The
    /// contribution completes immediately if this is the last arrival;
    /// completion is observed through the members' counters.
    ///
    /// Returns the operation sequence number (diagnostics).
    ///
    /// # Panics
    /// If `node` is not a member of the route's rectangle, or members
    /// disagree on the operation (different kind/op/length), or a broadcast
    /// has no root payload by the time all members arrived.
    pub fn contribute(&self, route: &ClassRoute, node: Coords, input: CollContribution) -> u64 {
        assert!(
            route.rect.contains(node),
            "node {node} is not a member of classroute {:?}",
            route.id
        );
        let member = route.rect.member_index(node);
        let seq = {
            let mut seqs = self.inner.seqs.lock();
            let s = seqs.entry((route.id.0, member)).or_insert(0);
            let v = *s;
            *s += 1;
            v
        };
        let signature = input.signature();
        let key = (route.id.0, seq);

        let mut ops = self.inner.ops.lock();
        let state = ops.entry(key).or_insert_with(|| OpState {
            signature,
            expected: route.rect.num_nodes(),
            received: 0,
            acc: None,
            outputs: Vec::new(),
        });
        assert_eq!(
            state.signature, signature,
            "classroute {:?} seq {seq}: members disagree on the operation",
            route.id
        );
        state.received += 1;

        match input {
            CollContribution::Allreduce { op, dtype, data, output } => {
                match &mut state.acc {
                    Some(acc) => combine(op, dtype, acc, &data),
                    None => state.acc = Some(data),
                }
                state.outputs.push(output);
            }
            CollContribution::Broadcast { data, output, .. } => {
                if let Some(d) = data {
                    assert!(
                        state.acc.is_none(),
                        "classroute {:?} seq {seq}: two broadcast roots",
                        route.id
                    );
                    state.acc = Some(d);
                }
                if let Some(out) = output {
                    state.outputs.push(out);
                }
            }
            CollContribution::Barrier { output } => {
                if let Some(out) = output {
                    state.outputs.push(out);
                }
            }
        }

        if state.received == state.expected {
            let state = ops.remove(&key).expect("state just inserted");
            drop(ops);
            self.complete(seq, route, state);
        }
        seq
    }

    fn complete(&self, seq: u64, route: &ClassRoute, state: OpState) {
        let (data, credit): (Option<&[u8]>, u64) = match state.signature {
            OpSignature::Allreduce(..) => {
                let acc = state.acc.as_deref().expect("reduction has operands");
                (Some(acc), acc.len().max(1) as u64)
            }
            OpSignature::Broadcast(len) => {
                let acc = state.acc.as_deref().unwrap_or_else(|| {
                    panic!("classroute {:?} seq {seq}: broadcast without a root", route.id)
                });
                assert_eq!(acc.len(), len, "broadcast root length mismatch");
                (Some(acc), len.max(1) as u64)
            }
            OpSignature::Barrier => (None, 1),
        };
        for out in &state.outputs {
            out.complete(data, credit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classroute::ClassRouteManager;
    use crate::ops::elems;
    use bgq_torus::{Rectangle, TorusShape};

    fn route4() -> (ClassRouteManager, ClassRoute) {
        let shape = TorusShape::new([4, 1, 1, 1, 1]);
        let mgr = ClassRouteManager::new(shape);
        let route = mgr.allocate(Rectangle::full(shape), None).unwrap();
        (mgr, route)
    }

    fn node(a: u16) -> Coords {
        Coords([a, 0, 0, 0, 0])
    }

    #[test]
    fn allreduce_sum_of_doubles() {
        let (_mgr, route) = route4();
        let net = CollNet::new();
        let outs: Vec<MemRegion> = (0..4).map(|_| MemRegion::zeroed(16)).collect();
        let counters: Vec<Counter> = (0..4).map(|_| Counter::new()).collect();
        for c in &counters {
            c.add_expected(16);
        }
        for i in 0..4u16 {
            net.contribute(
                &route,
                node(i),
                CollContribution::Allreduce {
                    op: CollOp::Sum,
                    dtype: DataType::Float64,
                    data: elems::from_f64(&[i as f64, 10.0 * i as f64]),
                    output: CollOutput {
                        region: outs[i as usize].clone(),
                        offset: 0,
                        counter: Some(counters[i as usize].clone()),
                    },
                },
            );
        }
        for (out, c) in outs.iter().zip(&counters) {
            assert!(c.is_complete());
            assert_eq!(elems::to_f64(&out.to_vec()), vec![6.0, 60.0]);
        }
    }

    #[test]
    fn broadcast_from_root_reaches_members() {
        let (_mgr, route) = route4();
        let net = CollNet::new();
        let payload = vec![0xAB; 64];
        let outs: Vec<MemRegion> = (0..3).map(|_| MemRegion::zeroed(64)).collect();
        // Non-root members contribute first: nothing completes early.
        for i in 1..4u16 {
            net.contribute(
                &route,
                node(i),
                CollContribution::Broadcast {
                    data: None,
                    len: 64,
                    output: Some(CollOutput::plain(outs[i as usize - 1].clone(), 0)),
                },
            );
        }
        assert!(outs.iter().all(|out| out.to_vec() == vec![0; 64]));
        net.contribute(
            &route,
            node(0),
            CollContribution::Broadcast { data: Some(payload.clone()), len: 64, output: None },
        );
        for out in &outs {
            assert_eq!(out.to_vec(), payload);
        }
    }

    #[test]
    fn barrier_releases_all_counters_only_at_last_arrival() {
        let (_mgr, route) = route4();
        let net = CollNet::new();
        let counters: Vec<Counter> = (0..4).map(|_| Counter::new()).collect();
        for c in &counters {
            c.add_expected(1);
        }
        for i in 0..3u16 {
            net.contribute(
                &route,
                node(i),
                CollContribution::Barrier {
                    output: Some(CollOutput {
                        region: MemRegion::zeroed(0),
                        offset: 0,
                        counter: Some(counters[i as usize].clone()),
                    }),
                },
            );
            assert!(!counters[0].is_complete(), "no release before all arrive");
        }
        net.contribute(
            &route,
            node(3),
            CollContribution::Barrier {
                output: Some(CollOutput {
                    region: MemRegion::zeroed(0),
                    offset: 0,
                    counter: Some(counters[3].clone()),
                }),
            },
        );
        assert!(counters.iter().all(|c| c.is_complete()));
    }

    #[test]
    fn pipelined_slices_complete_in_order_per_route() {
        let (_mgr, route) = route4();
        let net = CollNet::new();
        let out = MemRegion::zeroed(8 * 3);
        // Node 0 contributes all three slices up front (pipelining); the
        // others follow one slice at a time.
        for slice in 0..3usize {
            net.contribute(
                &route,
                node(0),
                CollContribution::Allreduce {
                    op: CollOp::Sum,
                    dtype: DataType::Int64,
                    data: elems::from_i64(&[slice as i64]),
                    output: CollOutput::plain(out.clone(), slice * 8),
                },
            );
        }
        for slice in 0..3usize {
            for i in 1..4u16 {
                net.contribute(
                    &route,
                    node(i),
                    CollContribution::Allreduce {
                        op: CollOp::Sum,
                        dtype: DataType::Int64,
                        data: elems::from_i64(&[slice as i64]),
                        output: CollOutput::plain(MemRegion::zeroed(8), 0),
                    },
                );
            }
        }
        assert_eq!(elems::to_i64(&out.to_vec()), vec![0, 4, 8]);
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn non_member_contribution_panics() {
        let shape = TorusShape::new([4, 2, 1, 1, 1]);
        let mgr = ClassRouteManager::new(shape);
        let rect = Rectangle::new(Coords([0, 0, 0, 0, 0]), Coords([1, 0, 0, 0, 0]));
        let route = mgr.allocate(rect, None).unwrap();
        let net = CollNet::new();
        net.contribute(
            &route,
            Coords([3, 1, 0, 0, 0]),
            CollContribution::Barrier { output: None },
        );
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn mismatched_operations_panic() {
        let shape = TorusShape::new([2, 1, 1, 1, 1]);
        let mgr = ClassRouteManager::new(shape);
        let route = mgr.allocate(Rectangle::full(shape), None).unwrap();
        let net = CollNet::new();
        net.contribute(
            &route,
            node(0),
            CollContribution::Allreduce {
                op: CollOp::Sum,
                dtype: DataType::Int64,
                data: vec![0u8; 8],
                output: CollOutput::plain(MemRegion::zeroed(8), 0),
            },
        );
        net.contribute(&route, node(1), CollContribution::Barrier { output: None });
    }

    #[test]
    fn concurrent_contributions_from_threads() {
        let shape = TorusShape::new([8, 1, 1, 1, 1]);
        let mgr = ClassRouteManager::new(shape);
        let route = std::sync::Arc::new(mgr.allocate(Rectangle::full(shape), None).unwrap());
        let net = CollNet::new();
        const ROUNDS: usize = 50;
        let outs: Vec<MemRegion> = (0..8).map(|_| MemRegion::zeroed(8 * ROUNDS)).collect();
        std::thread::scope(|s| {
            for i in 0..8u16 {
                let net = net.clone();
                let route = std::sync::Arc::clone(&route);
                let out = outs[i as usize].clone();
                s.spawn(move || {
                    for r in 0..ROUNDS {
                        net.contribute(
                            &route,
                            node(i),
                            CollContribution::Allreduce {
                                op: CollOp::Sum,
                                dtype: DataType::Int64,
                                data: elems::from_i64(&[(r + 1) as i64]),
                                output: CollOutput::plain(out.clone(), r * 8),
                            },
                        );
                    }
                });
            }
        });
        for out in &outs {
            let got = elems::to_i64(&out.to_vec());
            let want: Vec<i64> = (1..=ROUNDS as i64).map(|r| r * 8).collect();
            assert_eq!(got, want);
        }
    }
}
