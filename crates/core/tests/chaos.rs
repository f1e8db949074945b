//! Seeded chaos tests: the PAMI runtime over a fault-injected fabric.
//!
//! Every test installs a deterministic [`FaultPlan`] through the
//! [`Machine`] builder and drives real PAMI traffic (eager sends,
//! rendezvous sends, collectives) across it. The properties under test are
//! the paper's RAS story, end to end:
//!
//! * **Exactly-once delivery** — drops and corruption cost retransmits,
//!   never duplicates or holes, at both the eager and rendezvous protocol
//!   crossover points.
//! * **Deterministic replay** — the same seed reproduces the same fault
//!   history (`ras.*` counters), so a chaos failure is a unit test, not a
//!   heisenbug.
//! * **Reroute** — killing the link the deterministic route uses moves
//!   traffic to a detour mid-collective; the collective still completes.
//! * **Bounded failure** — an exhausted retry budget fails the transfer's
//!   completion counter with [`DeliveryFault::Timeout`] instead of hanging
//!   `advance`, and the typed initiation surface ([`PamiError`]) rejects
//!   bad arguments without touching the network.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pami::coll::{self, names};
use pami::{
    Client, Context, Counter, DeliveryFault, Endpoint, FaultPlan, Geometry, Machine, MemRegion,
    PamiError, PayloadSource, Recv, RetryConfig, SendArgs, Topology,
};

const DISPATCH: u16 = 3;

fn world_geometry(ctx: &Context) -> Arc<Geometry> {
    let n = ctx.machine().num_tasks() as u32;
    Geometry::create(ctx, 1, Topology::world(n))
}

/// Pattern for message `i` of length `len`: every byte is a function of
/// both, so cross-message mixups and intra-message holes are both visible.
fn pattern(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|b| ((i * 131 + b * 7) % 251) as u8).collect()
}

/// Send `msgs` messages of `len` bytes from task 0 to task 1 across a
/// fault-injected 2-node fabric; assert each arrives exactly once and
/// intact. Returns the fault history (retransmits, crc_errors) so callers
/// can assert the plan actually bit.
fn chaos_exchange(plan: FaultPlan, msgs: usize, len: usize) -> (u64, u64) {
    let machine = chaos_machine(plan, msgs, len);
    let ras = machine.fabric().ras_counters();
    (ras.retransmits.value(), ras.crc_errors.value())
}

/// [`chaos_exchange`], returning the machine so callers can inspect the
/// full RAS state (counters and event ring) after the run.
fn chaos_machine(plan: FaultPlan, msgs: usize, len: usize) -> Arc<Machine> {
    let machine = Machine::with_nodes(2).fault_plan(plan).build();
    let seen = Arc::new(AtomicU64::new(0));
    let seen2 = Arc::clone(&seen);
    machine.run(move |env| {
        let client = Client::create(&env.machine, env.task, "chaos", 1);
        let ctx = client.context(0);
        if env.task == 1 {
            let seen = Arc::clone(&seen2);
            let received: Arc<parking_lot::Mutex<Vec<Option<Vec<u8>>>>> =
                Arc::new(parking_lot::Mutex::new(vec![None; msgs]));
            ctx.set_dispatch(
                DISPATCH,
                Arc::new(move |_ctx, msg, first| {
                    let i = u64::from_le_bytes(msg.metadata[..8].try_into().unwrap()) as usize;
                    if first.len() as u64 == msg.len {
                        let mut slot = received.lock();
                        assert!(slot[i].is_none(), "message {i} delivered twice");
                        assert_eq!(first, &pattern(i, first.len())[..], "message {i} corrupted");
                        slot[i] = Some(first.to_vec());
                        seen.fetch_add(1, Ordering::SeqCst);
                        return Recv::Done;
                    }
                    // Rendezvous path: land the payload, then check it.
                    let region = MemRegion::zeroed(msg.len as usize);
                    let stash = region.clone();
                    let received = Arc::clone(&received);
                    let seen = Arc::clone(&seen);
                    Recv::Into {
                        region,
                        offset: 0,
                        on_complete: Box::new(move |_ctx, result| {
                            result.expect("chaos payload delivery");
                            let bytes = stash.to_vec();
                            let mut slot = received.lock();
                            assert!(slot[i].is_none(), "message {i} delivered twice");
                            assert_eq!(bytes, pattern(i, bytes.len()), "message {i} corrupted");
                            slot[i] = Some(bytes);
                            seen.fetch_add(1, Ordering::SeqCst);
                        }),
                    }
                }),
            );
        }
        env.machine.task_barrier();
        if env.task == 0 {
            let done = Counter::new();
            for i in 0..msgs {
                done.add_expected(len as u64);
                ctx.send(SendArgs {
                    dest: Endpoint::of_task(1),
                    dispatch: DISPATCH,
                    metadata: (i as u64).to_le_bytes().to_vec(),
                    payload: PayloadSource::Region {
                        region: MemRegion::from_vec(pattern(i, len)),
                        offset: 0,
                        len,
                    },
                    local_done: Some(done.clone()),
                })
                .unwrap();
                ctx.advance();
            }
            ctx.advance_until(|| done.is_complete());
            assert!(done.is_ok(), "all sends locally complete: {:?}", done.fault());
            // Keep driving our side until the receiver has everything:
            // retransmits of the tail frames happen on our pump.
            ctx.advance_until(|| seen2.load(Ordering::SeqCst) == msgs as u64);
        } else {
            ctx.advance_until(|| seen2.load(Ordering::SeqCst) == msgs as u64);
        }
    });
    assert_eq!(seen.load(Ordering::SeqCst), msgs as u64);
    machine
}

#[test]
fn exactly_once_under_one_percent_drop_and_corrupt() {
    // Eager-sized messages (2 KiB < the 4 KiB crossover): 5 packets each.
    let plan = FaultPlan::new().seed(1001).drop_rate(0.01).corrupt_rate(0.01);
    chaos_exchange(plan, 48, 2048);
}

#[test]
fn exactly_once_under_five_percent_drop_and_corrupt() {
    let plan = FaultPlan::new().seed(1005).drop_rate(0.05).corrupt_rate(0.05);
    let (retransmits, _) = chaos_exchange(plan, 48, 2048);
    if cfg!(feature = "telemetry") {
        assert!(retransmits > 0, "a 5% fault rate over ~240 packets must cost retransmits");
    }
}

#[test]
fn exactly_once_under_drops_on_the_rendezvous_path() {
    // 32 KiB >> the eager crossover: the payload moves by remote get and
    // its packets cross the same unreliable links.
    let plan = FaultPlan::new().seed(77).drop_rate(0.05);
    let (retransmits, _) = chaos_exchange(plan, 4, 32 * 1024);
    if cfg!(feature = "telemetry") {
        assert!(retransmits > 0);
    }
}

#[test]
fn chaos_replay_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let plan = FaultPlan::new().seed(seed).drop_rate(0.08).corrupt_rate(0.04);
        chaos_exchange(plan, 24, 2048)
    };
    let a = run(4242);
    let b = run(4242);
    assert_eq!(a, b, "same seed, same fault history (retransmits, crc_errors)");
    if cfg!(feature = "telemetry") {
        assert!(a.0 > 0 || a.1 > 0, "the plan must actually inject faults");
    }
}

#[test]
fn link_kill_mid_broadcast_completes_via_reroute() {
    // 4 nodes; the 3rd frame node 0 pushes over its deterministic first
    // hop to node 1 takes the link down. The binomial broadcast's tree
    // edges keep flowing over the detour.
    let shape = bgq_torus::TorusShape::new([2, 2, 1, 1, 1]);
    let first_hop = bgq_torus::det_route(shape, shape.coords_of(0), shape.coords_of(1))[0];
    let plan = FaultPlan::new()
        .seed(9)
        .kill_link_at(0, first_hop, 3)
        .retry(RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 4, retry_budget: 32 });
    let machine = Machine::builder(shape).fault_plan(plan).build();
    let len = 10_000usize;
    let payload: Arc<Vec<u8>> = Arc::new(pattern(0, len));
    let payload2 = Arc::clone(&payload);
    machine.run(move |env| {
        let client = Client::create(&env.machine, env.task, "chaos", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = world_geometry(ctx);
        let region = if env.task == 0 {
            MemRegion::from_vec((*payload2).clone())
        } else {
            MemRegion::zeroed(len)
        };
        coll::broadcast_named(&geom, ctx, names::SW_BCAST, 0, &region, 0, len);
        assert_eq!(region.to_vec(), *payload2, "task {}", env.task);
    });
    if cfg!(feature = "telemetry") {
        let ras = machine.fabric().ras_counters();
        assert_eq!(ras.link_down.value(), 2, "kill schedule fired once, both directions");
        assert!(ras.reroutes.value() >= 1, "at least one channel took the detour");
    }
}

#[test]
fn retry_budget_exhaustion_surfaces_timeout_without_hanging_advance() {
    // Every frame 0 -> 1 is dropped and the budget is tiny: the send must
    // fail its completion counter with Timeout, and advance must go idle
    // instead of spinning on a transfer that can never finish.
    let plan = FaultPlan::new()
        .seed(13)
        .drop_rate(1.0)
        .retry(RetryConfig { window: 4, rto_ticks: 1, rto_max_ticks: 2, retry_budget: 3 });
    let machine = Machine::with_nodes(2).fault_plan(plan).build();
    let failed = Arc::new(AtomicU64::new(0));
    let failed2 = Arc::clone(&failed);
    machine.run(move |env| {
        let client = Client::create(&env.machine, env.task, "chaos", 1);
        let ctx = client.context(0);
        if env.task == 1 {
            ctx.set_dispatch(DISPATCH, Arc::new(|_, _, _| Recv::Done));
        }
        env.machine.task_barrier();
        if env.task == 0 {
            let done = Counter::new();
            done.add_expected(2048);
            ctx.send(SendArgs {
                dest: Endpoint::of_task(1),
                dispatch: DISPATCH,
                metadata: 0u64.to_le_bytes().to_vec(),
                payload: PayloadSource::Region {
                    region: MemRegion::from_vec(pattern(0, 2048)),
                    offset: 0,
                    len: 2048,
                },
                local_done: Some(done.clone()),
            })
            .unwrap();
            // This terminates: the reliability layer fails the counter once
            // the budget is gone, and a failed counter is complete.
            ctx.advance_until(|| done.is_complete());
            assert_eq!(done.fault(), Some(DeliveryFault::Timeout));
            assert_eq!(PamiError::from(done.fault().unwrap()), PamiError::Timeout);
            failed2.fetch_add(1, Ordering::SeqCst);
        } else {
            ctx.advance_until(|| failed2.load(Ordering::SeqCst) == 1);
        }
    });
    assert_eq!(failed.load(Ordering::SeqCst), 1);
    if cfg!(feature = "telemetry") {
        let ras = machine.fabric().ras_counters();
        assert!(ras.delivery_failures.value() >= 1, "the failure is RAS-visible");
    }
}

#[test]
fn initiation_errors_are_typed_and_do_not_touch_the_network() {
    let machine = Machine::with_nodes(2).build();
    machine.run(move |env| {
        let client = Client::create(&env.machine, env.task, "chaos", 1);
        let ctx = client.context(0);
        if env.task == 1 {
            ctx.set_dispatch(DISPATCH, Arc::new(|_, _, _| Recv::Done));
        }
        env.machine.task_barrier();
        if env.task == 0 {
            // Over-long immediate: typed TooLong with the real ceiling.
            let big = vec![0u8; 4096];
            match ctx.send_immediate(Endpoint::of_task(1), DISPATCH, b"", &big) {
                Err(PamiError::TooLong { len, max }) => {
                    assert_eq!(len, 4096);
                    assert!(max < 4096);
                }
                other => panic!("expected TooLong, got {other:?}"),
            }
            // Unknown destination task: typed, not a panic.
            let err = ctx.send_immediate(Endpoint::of_task(99), DISPATCH, b"", b"x").unwrap_err();
            assert_eq!(err, PamiError::UnknownEndpoint { task: 99, context: 0 });
            assert_eq!(err.code(), "PAMI_INVAL");
            assert!(!err.is_delivery());
            // Reserved dispatch range is rejected at initiation.
            let err = ctx.send_immediate(Endpoint::of_task(1), 0xFF00, b"", b"x").unwrap_err();
            assert!(matches!(err, PamiError::Invalid(_)));
            // One-sided against a window that was never created.
            let bogus = pami::MemKey(0xDEAD);
            let err = ctx
                .put(pami::PutArgs {
                    dest_task: 1,
                    window: pami::WindowRef::base(bogus),
                    payload: PayloadSource::Immediate(bytes::Bytes::from(vec![1u8; 8])),
                    local_done: None,
                })
                .unwrap_err();
            assert_eq!(err, PamiError::UnknownWindow(0xDEAD));
            let dst = MemRegion::zeroed(8);
            let err = ctx
                .get(pami::GetArgs {
                    dest_task: 1,
                    window: pami::WindowRef::base(bogus),
                    dst: pami::MemSlot::base(dst),
                    len: 8,
                    done: None,
                })
                .unwrap_err();
            assert_eq!(err, PamiError::UnknownWindow(0xDEAD));
            // Rmw against the same bogus window surfaces the same typed error.
            let err = ctx
                .rmw(pami::RmwArgs::fetch_add(1, pami::WindowRef::base(bogus), 1))
                .unwrap_err();
            assert_eq!(err, PamiError::UnknownWindow(0xDEAD));
        }
        env.machine.task_barrier();
    });
}

// ---------------------------------------------------------------------------
// Short tier under chaos
// ---------------------------------------------------------------------------

#[test]
fn short_tier_exactly_once_under_one_percent_drop() {
    // 64 B payloads ride the short tier (single inline packet envelope);
    // a 1% drop plan forces the reliability layer to retransmit short
    // frames, and every message must still arrive exactly once, intact.
    let plan = FaultPlan::new().seed(2024).drop_rate(0.01);
    let (retransmits, _) = chaos_exchange(plan, 200, 64);
    if cfg!(feature = "telemetry") {
        assert!(retransmits > 0, "1% drop over 200 short frames must cost retransmits");
    }
}

#[test]
fn short_tier_exactly_once_under_drop_and_corrupt() {
    // Corruption on a short frame must be caught by the frame CRC and
    // retransmitted — never dispatched with a damaged payload.
    let plan = FaultPlan::new().seed(2025).drop_rate(0.02).corrupt_rate(0.02);
    chaos_exchange(plan, 200, 32);
}

// ---------------------------------------------------------------------------
// Collective suite under chaos
// ---------------------------------------------------------------------------

/// Run `rounds` summing allreduces (alg as given) on a fault-injected
/// machine and verify every element on every task each round.
fn chaos_allreduce(plan: FaultPlan, alg: &'static str, nodes: usize, ppn: usize, rounds: usize) {
    let machine = Machine::builder(bgq_torus::TorusShape::for_nodes(nodes))
        .ppn(ppn)
        .fault_plan(plan)
        .build();
    let tasks = (nodes * ppn) as i64;
    machine.run(move |env| {
        let client = Client::create(&env.machine, env.task, "chaos", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = world_geometry(ctx);
        if alg == names::HW_ALLREDUCE {
            geom.optimize().expect("world is rectangular");
        }
        for round in 0..rounds {
            let count = 16 + round * 8;
            let mine: Vec<i64> =
                (0..count as i64).map(|i| i * (round as i64 + 1) + env.task as i64).collect();
            let src = MemRegion::from_vec(bgq_collnet::ops::elems::from_i64(&mine));
            let dst = MemRegion::zeroed(count * 8);
            coll::allreduce_named(
                &geom,
                ctx,
                alg,
                (&src, 0),
                (&dst, 0),
                count,
                pami::CollOp::Sum,
                pami::DataType::Int64,
            );
            let got = bgq_collnet::ops::elems::to_i64(&dst.to_vec());
            let base: i64 = (0..tasks).sum();
            for (i, v) in got.iter().enumerate() {
                assert_eq!(
                    *v,
                    i as i64 * (round as i64 + 1) * tasks + base,
                    "round {round} elem {i} on task {}",
                    env.task
                );
            }
        }
    });
}

#[test]
fn sw_allreduce_phases_survive_drop_and_corrupt() {
    // The binomial reduce+broadcast phases ride eager/rendezvous MU
    // traffic: every hop crosses the lossy links and must retransmit to a
    // bit-exact sum.
    let plan = FaultPlan::new().seed(31).drop_rate(0.02).corrupt_rate(0.02);
    chaos_allreduce(plan, names::SW_ALLREDUCE, 4, 1, 3);
}

#[test]
fn hw_allreduce_classroute_survives_drop_and_corrupt() {
    // The classroute HW path: geometry setup, barriers and the
    // shared-address intra-node phase ride the lossy MU fabric even
    // though the combine itself rides the collective network.
    let plan = FaultPlan::new().seed(37).drop_rate(0.02).corrupt_rate(0.02);
    chaos_allreduce(plan, names::HW_ALLREDUCE, 2, 2, 3);
}

#[test]
fn hw_broadcast_classroute_survives_drop_and_corrupt() {
    let plan = FaultPlan::new().seed(41).drop_rate(0.02).corrupt_rate(0.02);
    let machine = Machine::with_nodes(2).ppn(2).fault_plan(plan).build();
    let len = 20_000usize;
    let payload: Arc<Vec<u8>> = Arc::new(pattern(5, len));
    let payload2 = Arc::clone(&payload);
    machine.run(move |env| {
        let client = Client::create(&env.machine, env.task, "chaos", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = world_geometry(ctx);
        geom.optimize().expect("world is rectangular");
        let region = if env.task == 1 {
            MemRegion::from_vec((*payload2).clone())
        } else {
            MemRegion::zeroed(len)
        };
        coll::broadcast_named(&geom, ctx, names::HW_BCAST, 1, &region, 0, len);
        assert_eq!(region.to_vec(), *payload2, "task {}", env.task);
    });
}

// ---------------------------------------------------------------------------
// Selective-repeat edge cases
// ---------------------------------------------------------------------------

#[test]
fn sack_fast_retransmit_recovers_drops_without_rto_stall() {
    // With selective repeat, a dropped frame followed by a delivered
    // successor is re-queued off the SACK feedback — no RTO wait. The run
    // must be exactly-once and the recovery must show up as SACK
    // retransmits, not only timer probes.
    let plan = FaultPlan::new().seed(6001).drop_rate(0.1);
    let machine = chaos_machine(plan, 96, 2048);
    let (events, _) = machine.fabric().ras_events();
    let sacks = events
        .iter()
        .filter(|e| matches!(e.kind, pami::RasEventKind::SackRetransmit))
        .count();
    assert!(sacks > 0, "10% drop over ~480 packets must trigger SACK fast retransmits");
    if cfg!(feature = "telemetry") {
        let ras = machine.fabric().ras_counters();
        assert_eq!(ras.sack_retransmits.value(), sacks as u64, "counter matches the ring");
        assert!(ras.reorder_depth.value() > 0, "gaps must park frames in the reorder buffer");
    }
}

#[test]
fn lost_acks_recover_via_rto_backoff_probes() {
    // Heavy loss hits acks on the reverse path too: a delivered-but-
    // unacknowledged frame sits in AckWait and must be re-probed on the
    // (exponentially backed off) RTO until an ack finally crosses. The
    // receiver sees those probes as duplicates and must dispatch nothing
    // twice — `chaos_machine`'s handler asserts exactly-once delivery.
    let plan = FaultPlan::new()
        .seed(6002)
        .drop_rate(0.3)
        .retry(RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 8, retry_budget: 256 });
    let machine = chaos_machine(plan, 64, 512);
    let (events, _) = machine.fabric().ras_events();
    let rto_probes = events
        .iter()
        .filter(|e| matches!(e.kind, pami::RasEventKind::Retransmit))
        .count();
    assert!(rto_probes > 0, "30% loss must push some frames through the RTO path");
}

#[test]
fn reorder_buffer_high_water_eviction_stays_exactly_once() {
    // A one-slot reorder buffer under a wide sender window: most gaps
    // overflow the buffer, refused frames are evicted (RAS-visible) and
    // must come back as retransmits — never as holes or duplicates.
    let plan = FaultPlan::new()
        .seed(6003)
        .drop_rate(0.15)
        .reorder_capacity(1)
        .retry(RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 8, retry_budget: 256 });
    let machine = chaos_machine(plan, 64, 2048);
    let (events, _) = machine.fabric().ras_events();
    let evictions = events
        .iter()
        .filter(|e| matches!(e.kind, pami::RasEventKind::ReorderEvict))
        .count();
    assert!(evictions > 0, "a 1-slot reorder buffer under 15% drop must refuse frames");
}

#[test]
fn tiny_window_cycles_the_sequence_space_exactly_once() {
    // A 2-frame window over a 200-message stream cycles the transmit
    // window hundreds of times; ordering, exactly-once and SACK state must
    // survive every wrap of the window cursor.
    let plan = FaultPlan::new()
        .seed(6004)
        .drop_rate(0.05)
        .retry(RetryConfig { window: 2, rto_ticks: 1, rto_max_ticks: 4, retry_budget: 64 });
    chaos_exchange(plan, 200, 64);
}
