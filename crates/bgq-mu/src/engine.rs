//! MU message engines — who executes injected descriptors.
//!
//! The hardware MU has multiple message engines operating in parallel
//! ("compared to only two on BG/P"), asynchronously with respect to the
//! cores. The simulation offers two faithful stand-ins:
//!
//! * [`EngineMode::Inline`]: descriptors execute when the owning context
//!   pumps its FIFOs from `advance` — fully deterministic, the default for
//!   tests and for latency measurements (where injection software cost is
//!   part of what the paper measures).
//! * [`EngineMode::Threaded`]: `n` engine threads per node drain the node's
//!   injection and system FIFOs in the background, parking on the node's
//!   engine wakeup region when idle — true asynchrony, used to demonstrate
//!   communication/computation overlap.
//!
//! Each injection FIFO is statically owned by one engine thread
//! (`fifo_index % n`), preserving per-FIFO execution order and with it the
//! deterministic-routing delivery order MPI depends on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use bgq_hw::Waiter;

use crate::fabric::{FabricInner, MuFabric};
use crate::fifo::InjFifoId;

/// Who pumps injected descriptors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Contexts execute their own descriptors when they advance.
    Inline,
    /// `n` background engine threads per node.
    Threaded(usize),
}

/// How long an idle engine parks before re-checking for shutdown.
const ENGINE_PARK: Duration = Duration::from_millis(2);

/// Per-engine pump: drain this engine's share of `node`'s FIFOs once.
/// Returns descriptors executed.
fn pump_share(fabric: &MuFabric, node: u32, engine_idx: usize, engines: usize) -> usize {
    let mut done = 0;
    // Engine 0 services the system FIFO (remote gets) and, under a fault
    // plan, the node's link channels (retransmit timers, delayed frames).
    if engine_idx == 0 {
        done += fabric.pump_sys(node, 64);
        done += fabric.pump_links(node, 64);
        done += fabric.pump_transport();
    }
    // Lock-free high-water-mark read of the node's allocated FIFO count.
    let fifo_count = fabric.inner.nodes[node as usize].inj.allocated();
    for f in (engine_idx..fifo_count).step_by(engines) {
        done += fabric.pump_inj(node, InjFifoId(f as u16), 64);
    }
    done
}

/// Spawn `engines_per_node` engine threads for every node of `fabric`.
/// Threads hold only a weak fabric handle: they exit when the last strong
/// handle drops (or when the shutdown flag rises), so dropping the fabric
/// never blocks.
pub(crate) fn spawn_engines(fabric: &MuFabric, engines_per_node: usize) {
    assert!(engines_per_node > 0, "Threaded(0) engines make no progress");
    for node in 0..fabric.num_nodes() as u32 {
        for engine_idx in 0..engines_per_node {
            let weak: Weak<FabricInner> = Arc::downgrade(&fabric.inner);
            let shutdown: Arc<AtomicBool> = Arc::clone(&fabric.inner.shutdown);
            let region = fabric.inner.nodes[node as usize].engine_wakeup.clone();
            std::thread::Builder::new()
                .name(format!("mu-engine-{node}.{engine_idx}"))
                .spawn(move || {
                    let mut waiter = Waiter::new();
                    waiter.subscribe(&region);
                    loop {
                        if shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let Some(inner) = weak.upgrade() else { break };
                        let fabric = MuFabric { inner };
                        let mut worked = 0;
                        // Drain until momentarily idle so bursts complete
                        // without re-parking.
                        loop {
                            let n = pump_share(&fabric, node, engine_idx, engines_per_node);
                            worked += n;
                            if n == 0 {
                                break;
                            }
                        }
                        drop(fabric);
                        if worked == 0 {
                            waiter.wait_timeout(ENGINE_PARK);
                        }
                    }
                })
                .expect("spawn MU engine thread");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_hw::Counter;
    use crate::descriptor::{Descriptor, PayloadSource, XferKind};
    use bgq_hw::MemRegion;
    use bgq_torus::TorusShape;
    use bytes::Bytes;
    use std::time::Instant;

    fn wait_for(cond: impl Fn() -> bool, what: &str) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < Duration::from_secs(10), "timeout: {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn threaded_engines_execute_without_pumping() {
        let fabric = MuFabric::builder(TorusShape::new([2, 1, 1, 1, 1]))
            .engine_mode(EngineMode::Threaded(2))
            .build();
        let inj = fabric.alloc_inj_fifos(0, 4).unwrap();
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        for (i, f) in inj.iter().enumerate() {
            fabric.inject(
                0,
                *f,
                Descriptor {
                    dst_node: 1,
                    dst_context: 0,
                    src_context: 0,
                    routing: bgq_torus::Routing::Deterministic,
                    payload: PayloadSource::Immediate(Bytes::from(vec![i as u8])),
                    kind: XferKind::MemoryFifo {
                        rec_fifo: rec,
                        dispatch: 0,
                        metadata: Bytes::new(),
                    },
                    inj_counter: None,
                },
            );
        }
        // No explicit pump anywhere: engines must deliver all four. Count
        // arrivals by draining the reception FIFO (telemetry-independent).
        let start = Instant::now();
        let mut received = 0;
        while received < 4 {
            if fabric.poll_rec(1, rec).is_some() {
                received += 1;
            } else {
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "timeout: engine delivery"
                );
                std::thread::yield_now();
            }
        }
        if cfg!(feature = "telemetry") {
            // One sampled message per lane, each accounting for a whole
            // sample window.
            assert_eq!(
                fabric.counters(1).packets_received.value(),
                4 * crate::fabric::MU_PACKET_COUNTER_SAMPLE
            );
        }
    }

    #[test]
    fn threaded_engines_service_remote_gets() {
        let fabric = MuFabric::builder(TorusShape::new([2, 1, 1, 1, 1]))
            .engine_mode(EngineMode::Threaded(1))
            .build();
        let remote = MemRegion::from_vec(vec![9u8; 32]);
        let local = MemRegion::zeroed(32);
        let done = Counter::new();
        done.add_expected(32);
        let inj = fabric.alloc_inj_fifos(0, 1).unwrap()[0];
        fabric.inject(
            0,
            inj,
            Descriptor {
                dst_node: 1,
                dst_context: 0,
                src_context: 0,
                routing: bgq_torus::Routing::Deterministic,
                payload: PayloadSource::Immediate(Bytes::new()),
                kind: XferKind::RemoteGet {
                    payload: Box::new(Descriptor {
                        dst_node: 0,
                        dst_context: 0,
                        src_context: 0,
                        routing: bgq_torus::Routing::Dynamic,
                        payload: PayloadSource::Region { region: remote, offset: 0, len: 32 },
                        kind: XferKind::DirectPut {
                            dst_region: local.clone(),
                            dst_offset: 0,
                            rec_counter: Some(done.clone()),
                        },
                        inj_counter: None,
                    }),
                },
                inj_counter: None,
            },
        );
        wait_for(|| done.is_complete(), "remote get serviced by engines");
        assert_eq!(local.to_vec(), vec![9u8; 32]);
    }

    #[test]
    fn dropping_fabric_with_engines_does_not_hang() {
        let fabric = MuFabric::builder(TorusShape::new([2, 1, 1, 1, 1]))
            .engine_mode(EngineMode::Threaded(2))
            .build();
        drop(fabric);
        // Nothing to assert: the test passes by not deadlocking.
    }
}
