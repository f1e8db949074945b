//! End-to-end tests of the PAMI runtime: active messages over every
//! protocol path, one-sided operations, commthreads, and collectives.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pami::coll::{self, names};
use pami::{
    AggrConfig, Client, CollOp, CommThreadPool, Context, Counter, DataType, Endpoint, FaultPlan,
    Geometry, Machine, MemRegion, PayloadSource, Protocol, Recv, SendArgs, Topology,
};
use parking_lot::Mutex;

/// (src, metadata, payload) of one delivered message.
type Delivered = (Endpoint, Vec<u8>, Vec<u8>);

/// A sink that collects delivered messages for assertions.
#[derive(Default)]
struct Sink {
    messages: Mutex<Vec<Delivered>>,
    count: AtomicU64,
}

impl Sink {
    fn handler(self: &Arc<Self>) -> pami::context::DispatchFn {
        let sink = Arc::clone(self);
        Arc::new(move |_ctx: &Context, msg: &pami::IncomingMsg, first: &[u8]| {
            if first.len() as u64 == msg.len {
                sink.messages.lock().push((msg.src, msg.metadata.to_vec(), first.to_vec()));
                sink.count.fetch_add(1, Ordering::SeqCst);
                return Recv::Done;
            }
            let region = MemRegion::zeroed(msg.len as usize);
            let sink2 = Arc::clone(&sink);
            let src = msg.src;
            let meta = msg.metadata.to_vec();
            let stash = region.clone();
            Recv::Into {
                region,
                offset: 0,
                on_complete: Box::new(move |_ctx, _result| {
                    sink2.messages.lock().push((src, meta, stash.to_vec()));
                    sink2.count.fetch_add(1, Ordering::SeqCst);
                }),
            }
        })
    }

    fn received(&self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }
}

const DISPATCH: u16 = 1;

#[test]
fn send_immediate_crosses_nodes() {
    let machine = Machine::with_nodes(2).build();
    let c0 = Client::create(&machine, 0, "t", 1);
    let c1 = Client::create(&machine, 1, "t", 1);
    let sink = Arc::new(Sink::default());
    c1.context(0).set_dispatch(DISPATCH, sink.handler());

    c0.context(0)
        .send_immediate(Endpoint::of_task(1), DISPATCH, b"md", b"payload")
        .unwrap();
    c1.context(0).advance_until(|| sink.received() == 1);
    let msgs = sink.messages.lock();
    assert_eq!(msgs[0].0, Endpoint::of_task(0));
    assert_eq!(msgs[0].1, b"md");
    assert_eq!(msgs[0].2, b"payload");
}

#[test]
fn send_immediate_rejects_oversized_payload() {
    let machine = Machine::with_nodes(2).build();
    let c0 = Client::create(&machine, 0, "t", 1);
    let _c1 = Client::create(&machine, 1, "t", 1);
    let big = vec![0u8; 513];
    assert!(c0
        .context(0)
        .send_immediate(Endpoint::of_task(1), DISPATCH, b"", &big)
        .is_err());
}

/// How one scripted message of the cross-tier ordering tests is sent; the
/// static policy picks `send`'s tier from the size.
#[derive(Clone, Copy, PartialEq)]
enum Via {
    /// `send` of 2 KiB: four packets through the injection FIFO.
    Eager,
    /// `send` of 24 B: the short tier, or a bucket append with aggregation on.
    Small,
    /// `send_immediate` of 24 B.
    Immediate,
}

/// Issue `script` from task 0 to task 1 back to back — no `advance` between
/// the calls, so anything queued stays queued while the later calls run —
/// and assert the handler sees the messages in issue order. Runs on the
/// lossless fabric and under a clean fault plan (the reliable channel's
/// straight-through admission).
fn assert_cross_tier_order(aggregation: bool, script: &[Via]) {
    for plan in [None, Some(FaultPlan::new())] {
        let arm = if plan.is_some() { "clean fault plan" } else { "lossless" };
        let mut builder = Machine::with_nodes(2);
        if aggregation {
            builder = builder.aggregation(AggrConfig::default());
        }
        if let Some(plan) = plan {
            builder = builder.fault_plan(plan);
        }
        let machine = builder.build();
        let c0 = Client::create(&machine, 0, "t", 1);
        let c1 = Client::create(&machine, 1, "t", 1);
        let sink = Arc::new(Sink::default());
        c1.context(0).set_dispatch(DISPATCH, sink.handler());
        let dest = Endpoint::of_task(1);
        for (i, via) in script.iter().enumerate() {
            let tag = i as u8;
            if *via == Via::Immediate {
                c0.context(0).send_immediate(dest, DISPATCH, &[tag], &[tag; 24]).unwrap();
                continue;
            }
            let len = if *via == Via::Eager { 2048 } else { 24 };
            c0.context(0)
                .send(SendArgs {
                    dest,
                    dispatch: DISPATCH,
                    metadata: vec![tag],
                    payload: PayloadSource::Immediate(bytes::Bytes::from(vec![tag; len])),
                    local_done: None,
                })
                .unwrap();
        }
        while sink.received() < script.len() as u64 {
            c0.context(0).advance();
            c1.context(0).advance();
        }
        let order: Vec<u8> = sink.messages.lock().iter().map(|m| m.1[0]).collect();
        let issued: Vec<u8> = (0..script.len() as u8).collect();
        assert_eq!(order, issued, "{arm}: per-(src,dst) order across tiers");
    }
}

#[test]
fn send_immediate_does_not_overtake_a_queued_eager_send() {
    assert_cross_tier_order(false, &[Via::Eager, Via::Immediate]);
}

#[test]
fn send_immediate_does_not_overtake_buffered_aggregated_records() {
    assert_cross_tier_order(true, &[Via::Small, Via::Small, Via::Immediate]);
}

#[test]
fn send_immediate_does_not_overtake_a_short_send_queued_behind_the_fifo() {
    // The eager send leaves the FIFO non-quiescent, so the short send
    // queues behind it as a descriptor; the immediate must queue behind
    // both.
    assert_cross_tier_order(false, &[Via::Eager, Via::Small, Via::Immediate]);
}

#[test]
fn select_names_the_rung_send_takes() {
    // What `machine.policy().select(dest, len)` says is what `send` does:
    // at every size around every threshold, with and without the
    // aggregation rung, at the default and at a lowered eager limit, the
    // rung `select` names is the one whose probe the real off-node `send`
    // moves by exactly one — and the payload arrives intact either way.
    const RUNGS: [(Protocol, &str); 4] = [
        (Protocol::Aggregated, "ctx.sends_aggr"),
        (Protocol::Short, "ctx.sends_short"),
        (Protocol::Eager, "ctx.sends_eager"),
        (Protocol::Rendezvous, "ctx.sends_rzv"),
    ];
    for (aggregation, eager_limit) in [(false, 4096), (false, 64), (true, 4096), (true, 64)] {
        let mut builder = Machine::with_nodes(2).eager_limit(eager_limit);
        if aggregation {
            builder = builder.aggregation(AggrConfig { cutoff: 64, ..AggrConfig::default() });
        }
        let machine = builder.build();
        let arm = format!("aggregation {aggregation}, eager_limit {eager_limit}");
        // The ladder is built from the builder's two settings.
        assert_eq!(machine.policy().select(1, 64) == Protocol::Aggregated, aggregation, "{arm}");
        assert_eq!(machine.policy().select(1, 65) == Protocol::Rendezvous, eager_limit == 64, "{arm}");
        let c0 = Client::create(&machine, 0, "t", 1);
        let c1 = Client::create(&machine, 1, "t", 1);
        let sink = Arc::new(Sink::default());
        c1.context(0).set_dispatch(DISPATCH, sink.handler());
        let read = || {
            let snap = machine.telemetry().snapshot();
            RUNGS.map(|(_, probe)| snap.counter(probe))
        };
        for (i, len) in [0usize, 1, 64, 65, 128, 129, 512, 4096, 4097].into_iter().enumerate() {
            let named = machine.policy().select(1, len);
            let data: Vec<u8> = (0..len).map(|b| (b * 7 + i) as u8).collect();
            let before = read();
            c0.context(0)
                .send(SendArgs {
                    dest: Endpoint::of_task(1),
                    dispatch: DISPATCH,
                    metadata: vec![i as u8],
                    payload: PayloadSource::Immediate(bytes::Bytes::from(data.clone())),
                    local_done: None,
                })
                .unwrap();
            c0.context(0).flush_aggr();
            while sink.received() <= i as u64 {
                c0.context(0).advance();
                c1.context(0).advance();
            }
            assert_eq!(sink.messages.lock()[i].2, data, "{arm}: {len} B arrives intact");
            if cfg!(feature = "telemetry") {
                let after = read();
                for (j, (rung, probe)) in RUNGS.into_iter().enumerate() {
                    let moved = after[j] - before[j];
                    assert_eq!(moved, u64::from(rung == named), "{arm}: {probe} at {len} B");
                }
            }
        }
    }
}

#[test]
fn eager_send_multi_packet_reassembles() {
    let machine = Machine::with_nodes(2).build();
    let c0 = Client::create(&machine, 0, "t", 1);
    let c1 = Client::create(&machine, 1, "t", 1);
    let sink = Arc::new(Sink::default());
    c1.context(0).set_dispatch(DISPATCH, sink.handler());

    // 3000 bytes: eager (≤ 4096) but 6 packets.
    let data: Vec<u8> = (0..3000u32).map(|i| (i % 253) as u8).collect();
    let region = MemRegion::from_vec(data.clone());
    let done = Counter::new();
    done.add_expected(3000);
    c0.context(0).send(SendArgs {
        dest: Endpoint::of_task(1),
        dispatch: DISPATCH,
        metadata: vec![7],
        payload: PayloadSource::Region { region, offset: 0, len: 3000 },
        local_done: Some(done.clone()),
    }).unwrap();
    c0.context(0).advance_until(|| done.is_complete());
    c1.context(0).advance_until(|| sink.received() == 1);
    assert_eq!(sink.messages.lock()[0].2, data);
}

/// Task 0 has just called `send` of 2 KiB (eager: a queued descriptor) to
/// task 1 on another node, and nobody has advanced since.
fn queued_eager_send() -> (Arc<Machine>, Arc<Client>, Arc<Client>, Arc<Sink>, Counter) {
    let machine = Machine::with_nodes(2).build();
    let c0 = Client::create(&machine, 0, "t", 1);
    let c1 = Client::create(&machine, 1, "t", 1);
    let sink = Arc::new(Sink::default());
    c1.context(0).set_dispatch(DISPATCH, sink.handler());
    let done = Counter::new();
    done.add_expected(2048);
    c0.context(0)
        .send(SendArgs {
            dest: Endpoint::of_task(1),
            dispatch: DISPATCH,
            metadata: vec![],
            payload: PayloadSource::Immediate(bytes::Bytes::from(vec![9u8; 2048])),
            local_done: Some(done.clone()),
        })
        .unwrap();
    (machine, c0, c1, sink, done)
}

#[test]
fn nothing_moves_until_its_owner_advances() {
    // An injection FIFO is drained by its owning context's `advance` and by
    // nothing else: until task 0 advances, its descriptor has not executed,
    // its counter has not fired and the peer has nothing to dispatch, no
    // matter how long the peer spins.
    let (machine, c0, c1, sink, done) = queued_eager_send();
    let executed = || machine.fabric().counters(0).descriptors_executed.value();
    for _ in 0..100 {
        assert_eq!(c1.context(0).advance(), 0, "nothing has reached the peer");
    }
    assert!(!done.is_complete() && sink.received() == 0);
    assert_eq!(executed(), 0);
    assert!(c0.context(0).advance() > 0, "the owner's advance executes the descriptor");
    assert!(done.is_complete(), "deposited on the thread that called advance");
    if cfg!(feature = "telemetry") {
        assert_eq!(executed(), 1);
    }
    c1.context(0).advance_until(|| sink.received() == 1);
}

#[test]
fn a_context_with_a_queued_descriptor_is_not_quiescent() {
    let (_machine, c0, c1, sink, done) = queued_eager_send();
    assert!(!c0.context(0).is_quiescent(), "a descriptor is queued");
    c0.context(0).advance_until(|| done.is_complete());
    c1.context(0).advance_until(|| sink.received() == 1);
    assert!(c0.context(0).is_quiescent() && c1.context(0).is_quiescent());
}

#[test]
fn eager_region_path_copies_payload_exactly_once() {
    // The zero-copy audit: an eager memory-FIFO message whose source needs
    // no completion signal crosses the fabric with exactly ONE payload copy
    // end-to-end — the receiver's deposit from the source window into the
    // destination buffer. The seed implementation performed two (a
    // whole-message staging copy at injection plus the deposit).
    let machine = Machine::with_nodes(2).build();
    let c0 = Client::create(&machine, 0, "t", 1);
    let c1 = Client::create(&machine, 1, "t", 1);
    let sink = Arc::new(Sink::default());
    c1.context(0).set_dispatch(DISPATCH, sink.handler());

    // Single-packet eager (400 bytes).
    let data: Vec<u8> = (0..400u32).map(|i| (i % 97) as u8).collect();
    c0.context(0).send(SendArgs {
        dest: Endpoint::of_task(1),
        dispatch: DISPATCH,
        metadata: vec![],
        payload: PayloadSource::Region {
            region: MemRegion::from_vec(data.clone()),
            offset: 0,
            len: 400,
        },
        local_done: None,
    }).unwrap();
    while sink.received() < 1 {
        c0.context(0).advance();
        c1.context(0).advance();
    }
    assert_eq!(sink.messages.lock()[0].2, data);
    if cfg!(feature = "telemetry") {
        let src_copies = machine.fabric().counters(0).payload_copies.value();
        let dst_copies = machine.fabric().counters(1).payload_copies.value();
        assert_eq!(src_copies, 0, "no staging copy on the source node");
        assert_eq!(dst_copies, 1, "exactly one deposit copy on the destination");
    }

    // Multi-packet eager (3000 bytes → 6 packets): still one copy per
    // payload byte, all on the destination side.
    let data2: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
    c0.context(0).send(SendArgs {
        dest: Endpoint::of_task(1),
        dispatch: DISPATCH,
        metadata: vec![],
        payload: PayloadSource::Region {
            region: MemRegion::from_vec(data2.clone()),
            offset: 0,
            len: 3000,
        },
        local_done: None,
    }).unwrap();
    while sink.received() < 2 {
        c0.context(0).advance();
        c1.context(0).advance();
    }
    assert_eq!(sink.messages.lock()[1].2, data2);
    if cfg!(feature = "telemetry") {
        let src_copies = machine.fabric().counters(0).payload_copies.value();
        let dst_copies = machine.fabric().counters(1).payload_copies.value();
        assert_eq!(src_copies, 0, "source node never touches payload bytes");
        assert_eq!(dst_copies, 1 + 6, "one deposit per packet, nothing else");
    }
}

#[test]
fn rendezvous_send_pulls_large_payload() {
    let machine = Machine::with_nodes(2).build();
    let c0 = Client::create(&machine, 0, "t", 1);
    let c1 = Client::create(&machine, 1, "t", 1);
    let sink = Arc::new(Sink::default());
    c1.context(0).set_dispatch(DISPATCH, sink.handler());

    let len = 256 * 1024; // well above the 4096 eager limit
    let data: Vec<u8> = (0..len).map(|i| (i % 241) as u8).collect();
    let region = MemRegion::from_vec(data.clone());
    let done = Counter::new();
    done.add_expected(len as u64);
    c0.context(0).send(SendArgs {
        dest: Endpoint::of_task(1),
        dispatch: DISPATCH,
        metadata: vec![],
        payload: PayloadSource::Region { region, offset: 0, len },
        local_done: Some(done.clone()),
    }).unwrap();
    // Both sides must advance: the RTS goes 0→1, the remote get 1→0, the
    // put executes on node 0.
    while sink.received() < 1 || !done.is_complete() {
        c0.context(0).advance();
        c1.context(0).advance();
    }
    assert_eq!(sink.messages.lock()[0].2, data);
    // The payload must have used RDMA: node 1 received put bytes, and no
    // payload packets hit its reception FIFO beyond the RTS.
    if cfg!(feature = "telemetry") {
        assert_eq!(machine.fabric().counters(1).put_bytes_in.value(), len as u64);
        assert_eq!(machine.fabric().counters(0).remote_gets_serviced.value(), 1);
    }
}

#[test]
fn shm_inline_and_global_va_paths() {
    let machine = Machine::with_nodes(1).ppn(2).build();
    let c0 = Client::create(&machine, 0, "t", 1);
    let c1 = Client::create(&machine, 1, "t", 1);
    let sink = Arc::new(Sink::default());
    c1.context(0).set_dispatch(DISPATCH, sink.handler());

    // Inline (short) path.
    c0.context(0).send(SendArgs {
        dest: Endpoint::of_task(1),
        dispatch: DISPATCH,
        metadata: vec![1],
        payload: PayloadSource::Immediate(bytes::Bytes::from_static(b"short")),
        local_done: None,
    }).unwrap();
    // Global-VA (large) path: single copy from the source region.
    let len = 64 * 1024;
    let data: Vec<u8> = (0..len).map(|i| (i % 239) as u8).collect();
    let done = Counter::new();
    done.add_expected(len as u64);
    c0.context(0).send(SendArgs {
        dest: Endpoint::of_task(1),
        dispatch: DISPATCH,
        metadata: vec![2],
        payload: PayloadSource::Region {
            region: MemRegion::from_vec(data.clone()),
            offset: 0,
            len,
        },
        local_done: Some(done.clone()),
    }).unwrap();
    c1.context(0).advance_until(|| sink.received() == 2);
    assert!(done.is_complete(), "receiver copy fires the sender counter");
    let msgs = sink.messages.lock();
    assert_eq!(msgs[0].2, b"short");
    assert_eq!(msgs[1].2, data);
    // No MU traffic for intra-node messages.
    if cfg!(feature = "telemetry") {
        assert_eq!(machine.fabric().counters(0).fifo_messages.value(), 0);
    }
}

#[test]
fn ordering_preserved_per_destination() {
    let machine = Machine::with_nodes(2).build();
    let c0 = Client::create(&machine, 0, "t", 1);
    let c1 = Client::create(&machine, 1, "t", 1);
    let order = Arc::new(Mutex::new(Vec::new()));
    let o2 = Arc::clone(&order);
    c1.context(0).set_dispatch(
        DISPATCH,
        Arc::new(move |_ctx, msg, first| {
            assert_eq!(first.len() as u64, msg.len);
            o2.lock().push(msg.metadata[0]);
            Recv::Done
        }),
    );
    for i in 0..50u8 {
        c0.context(0).send(SendArgs {
            dest: Endpoint::of_task(1),
            dispatch: DISPATCH,
            metadata: vec![i],
            payload: PayloadSource::Immediate(bytes::Bytes::new()),
            local_done: None,
        }).unwrap();
    }
    // Advance both sides until every message delivered (the semantic
    // completion signal — telemetry counters are not progress conditions,
    // they read zero when the feature is compiled out).
    while order.lock().len() < 50 {
        c0.context(0).advance();
        c1.context(0).advance();
    }
    if cfg!(feature = "telemetry") {
        // Per-packet MU counters are sampled 1-in-16 (scaled): 50 messages
        // on one lane hit sequence numbers 0, 16, 32, 48.
        assert_eq!(
            machine.fabric().counters(0).fifo_messages.value(),
            4 * bgq_mu::MU_PACKET_COUNTER_SAMPLE
        );
    }
    assert_eq!(*order.lock(), (0..50).collect::<Vec<u8>>());
}

#[test]
fn one_sided_put_and_get_via_windows() {
    let machine = Machine::with_nodes(2).build();
    let c0 = Client::create(&machine, 0, "t", 1);
    let c1 = Client::create(&machine, 1, "t", 1);

    // Task 1 exposes a window.
    let target = MemRegion::zeroed(128);
    let arrivals = Counter::new();
    arrivals.add_expected(64);
    let key = machine.create_window(target.clone(), Some(arrivals.clone()));

    // Put 64 bytes into it.
    let src = MemRegion::from_vec((0..128).collect());
    let local = Counter::new();
    local.add_expected(64);
    c0.context(0).put(pami::PutArgs {
        dest_task: 1,
        window: pami::WindowRef::at(key, 16),
        payload: PayloadSource::Region { region: src, offset: 32, len: 64 },
        local_done: Some(local.clone()),
    })
    .unwrap();
    c0.context(0).advance_until(|| local.is_complete() && arrivals.is_complete());
    assert_eq!(&target.to_vec()[16..80], &(32..96).collect::<Vec<u8>>()[..]);

    // Get the same bytes back from the window.
    let dst = MemRegion::zeroed(64);
    let got = Counter::new();
    got.add_expected(64);
    c0.context(0)
        .get(pami::GetArgs {
            dest_task: 1,
            window: pami::WindowRef::at(key, 16),
            dst: pami::MemSlot::base(dst.clone()),
            len: 64,
            done: Some(got.clone()),
        })
        .unwrap();
    while !got.is_complete() {
        c0.context(0).advance();
        c1.context(0).advance(); // target node services the remote get
    }
    assert_eq!(dst.to_vec(), (32..96).collect::<Vec<u8>>());
}

#[test]
fn post_handoff_runs_on_advancing_thread() {
    let machine = Machine::with_nodes(1).build();
    let client = Client::create(&machine, 0, "t", 1);
    let ctx = client.context(0);
    let ran = Arc::new(AtomicU64::new(0));
    for i in 0..10 {
        let ran = Arc::clone(&ran);
        ctx.post(Box::new(move |_ctx| {
            ran.fetch_add(i, Ordering::SeqCst);
        }));
    }
    assert_eq!(ran.load(Ordering::SeqCst), 0, "nothing runs before advance");
    ctx.advance_until(|| ran.load(Ordering::SeqCst) == 45);
    if cfg!(feature = "telemetry") {
        assert_eq!(ctx.work_items_run(), 10);
    }
}

#[test]
fn commthreads_make_progress_while_app_thread_sleeps() {
    let machine = Machine::with_nodes(2).build();
    let c0 = Client::create(&machine, 0, "t", 1);
    let c1 = Client::create(&machine, 1, "t", 1);
    let sink = Arc::new(Sink::default());
    c1.context(0).set_dispatch(DISPATCH, sink.handler());

    // Commthreads drive both contexts in the background.
    let pool = CommThreadPool::spawn(
        vec![Arc::clone(c0.context(0)), Arc::clone(c1.context(0))],
        2,
    );
    let done = Counter::new();
    done.add_expected(1);
    // Post the send as a work item — the commthread injects and pumps it.
    let ctx0 = Arc::clone(c0.context(0));
    ctx0.post(Box::new(move |ctx| {
        ctx.send(SendArgs {
            dest: Endpoint::of_task(1),
            dispatch: DISPATCH,
            metadata: vec![],
            payload: PayloadSource::Immediate(bytes::Bytes::new()),
            local_done: None,
        }).unwrap();
    }));
    let start = std::time::Instant::now();
    while sink.received() < 1 {
        assert!(start.elapsed().as_secs() < 10, "commthreads made no progress");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(pool.advances() > 0);
    pool.shutdown();
}

#[test]
fn commthread_pause_stops_progress() {
    let machine = Machine::with_nodes(1).build();
    let client = Client::create(&machine, 0, "t", 1);
    let ctx = client.context(0);
    let pool = CommThreadPool::spawn(vec![Arc::clone(ctx)], 1);
    pool.pause();
    // Give the pause a moment to take effect (the commthread parks).
    std::thread::sleep(std::time::Duration::from_millis(10));
    let ran = Arc::new(AtomicU64::new(0));
    let r2 = Arc::clone(&ran);
    ctx.post(Box::new(move |_| {
        r2.store(1, Ordering::SeqCst);
    }));
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert_eq!(ran.load(Ordering::SeqCst), 0, "paused commthread must not run work");
    pool.resume();
    let start = std::time::Instant::now();
    while ran.load(Ordering::SeqCst) == 0 {
        assert!(start.elapsed().as_secs() < 10, "resume did not restart progress");
        std::thread::yield_now();
    }
    pool.shutdown();
}

#[test]
fn multiple_clients_are_isolated() {
    let machine = Machine::with_nodes(2).build();
    let mpi0 = Client::create(&machine, 0, "MPI", 1);
    let mpi1 = Client::create(&machine, 1, "MPI", 1);
    let upc0 = Client::create(&machine, 0, "UPC", 1);
    let upc1 = Client::create(&machine, 1, "UPC", 1);
    let mpi_sink = Arc::new(Sink::default());
    let upc_sink = Arc::new(Sink::default());
    mpi1.context(0).set_dispatch(DISPATCH, mpi_sink.handler());
    upc1.context(0).set_dispatch(DISPATCH, upc_sink.handler());

    mpi0.context(0)
        .send_immediate(Endpoint::of_task(1), DISPATCH, b"", b"mpi-msg")
        .unwrap();
    upc0.context(0)
        .send_immediate(Endpoint::of_task(1), DISPATCH, b"", b"upc-msg")
        .unwrap();
    mpi1.context(0).advance_until(|| mpi_sink.received() == 1);
    upc1.context(0).advance_until(|| upc_sink.received() == 1);
    assert_eq!(mpi_sink.messages.lock()[0].2, b"mpi-msg");
    assert_eq!(upc_sink.messages.lock()[0].2, b"upc-msg");
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

fn world_geometry(ctx: &Context) -> Arc<Geometry> {
    let n = ctx.machine().num_tasks() as u32;
    Geometry::create(ctx, 1, Topology::world(n))
}

#[test]
fn barrier_synchronizes_all_tasks() {
    let machine = Machine::with_nodes(2).ppn(2).build();
    let flag = AtomicU64::new(0);
    machine.run(|env| {
        let client = Client::create(&env.machine, env.task, "coll", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = world_geometry(ctx);
        coll::barrier(&geom, ctx);
        flag.fetch_add(1, Ordering::SeqCst);
        coll::barrier(&geom, ctx);
        assert_eq!(flag.load(Ordering::SeqCst), 4, "everyone passed the first barrier");
    });
}

fn check_broadcast(alg: &str, nodes: usize, ppn: usize, len: usize) {
    let machine = Machine::with_nodes(nodes).ppn(ppn).build();
    let payload: Arc<Vec<u8>> = Arc::new((0..len).map(|i| (i % 251) as u8).collect());
    machine.run(|env| {
        let client = Client::create(&env.machine, env.task, "coll", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = world_geometry(ctx);
        if alg == names::HW_BCAST {
            geom.optimize().expect("world is rectangular");
        }
        let region = if env.task == 2 {
            MemRegion::from_vec((*payload).clone())
        } else {
            MemRegion::zeroed(len)
        };
        coll::broadcast_named(&geom, ctx, alg, 2, &region, 0, len);
        assert_eq!(region.to_vec(), *payload, "task {}", env.task);
    });
}

#[test]
fn hw_broadcast_multi_node_multi_ppn() {
    check_broadcast(names::HW_BCAST, 2, 2, 100_000);
}

#[test]
fn sw_broadcast_binomial() {
    check_broadcast(names::SW_BCAST, 4, 1, 10_000);
}

#[test]
fn sw_broadcast_large_uses_rendezvous() {
    check_broadcast(names::SW_BCAST, 2, 2, 128 * 1024);
}

fn check_allreduce(alg: &str, nodes: usize, ppn: usize, count: usize) {
    let machine = Machine::with_nodes(nodes).ppn(ppn).build();
    let tasks = (nodes * ppn) as i64;
    machine.run(|env| {
        let client = Client::create(&env.machine, env.task, "coll", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = world_geometry(ctx);
        if alg == names::HW_ALLREDUCE {
            geom.optimize().expect("world is rectangular");
        }
        let mine: Vec<i64> = (0..count as i64).map(|i| i + env.task as i64).collect();
        let src = MemRegion::from_vec(bgq_collnet::ops::elems::from_i64(&mine));
        let dst = MemRegion::zeroed(count * 8);
        coll::allreduce_named(
            &geom,
            ctx,
            alg,
            (&src, 0),
            (&dst, 0),
            count,
            CollOp::Sum,
            DataType::Int64,
        );
        let got = bgq_collnet::ops::elems::to_i64(&dst.to_vec());
        let base: i64 = (0..tasks).sum();
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, i as i64 * tasks + base, "elem {i} on task {}", env.task);
        }
    });
}

#[test]
fn hw_allreduce_short() {
    check_allreduce(names::HW_ALLREDUCE, 2, 2, 4);
}

#[test]
fn hw_allreduce_long_pipelined() {
    // > PIPELINE_SLICE bytes so the leader contributes several slices.
    check_allreduce(names::HW_ALLREDUCE, 2, 2, 20_000);
}

#[test]
fn sw_allreduce_binomial() {
    check_allreduce(names::SW_ALLREDUCE, 4, 1, 64);
}

#[test]
fn hw_and_sw_allreduce_agree() {
    for alg in [names::HW_ALLREDUCE, names::SW_ALLREDUCE] {
        check_allreduce(alg, 2, 1, 16);
    }
}

#[test]
fn reduce_delivers_at_root_only() {
    let machine = Machine::with_nodes(2).ppn(2).build();
    machine.run(|env| {
        let client = Client::create(&env.machine, env.task, "coll", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = world_geometry(ctx);
        let src = MemRegion::from_vec(bgq_collnet::ops::elems::from_i64(&[env.task as i64]));
        let dst = MemRegion::from_vec(bgq_collnet::ops::elems::from_i64(&[-1]));
        coll::reduce(&geom, ctx, 3, (&src, 0), (&dst, 0), 1, CollOp::Sum, DataType::Int64);
        let got = bgq_collnet::ops::elems::to_i64(&dst.to_vec())[0];
        if env.task == 3 {
            assert_eq!(got, 6); // 0 + 1 + 2 + 3
        } else {
            assert_eq!(got, -1, "non-root dst untouched");
        }
    });
}

#[test]
fn optimize_and_deoptimize_rotate_classroutes() {
    let machine = Machine::with_nodes(2).build();
    machine.run(|env| {
        let client = Client::create(&env.machine, env.task, "coll", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = world_geometry(ctx);
        geom.optimize().unwrap();
        assert!(geom.route().is_some());
        coll::barrier(&geom, ctx);
        if env.task == 0 {
            geom.deoptimize();
        }
        coll::barrier(&geom, ctx);
        assert!(geom.route().is_none());
        // Collectives still work over the software path.
        let region = if env.task == 0 {
            MemRegion::from_vec(vec![5u8; 64])
        } else {
            MemRegion::zeroed(64)
        };
        coll::broadcast(&geom, ctx, 0, &region, 0, 64);
        assert_eq!(region.to_vec(), vec![5u8; 64]);
    });
}

#[test]
fn registry_query_matches_use_hw_decision() {
    // The CollRegistry's availability/cost view must reproduce the old
    // `use_hw` logic exactly: hardware entries (cost 10–20) appear only
    // while a classroute is attached, software fallbacks (cost 100) always,
    // and auto-selection therefore flips hw↔sw on optimize()/deoptimize().
    use pami::coll::{names, CollKind};
    let machine = Machine::with_nodes(2).build();
    machine.run(|env| {
        let client = Client::create(&env.machine, env.task, "reg", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = world_geometry(ctx);
        let reg = env.machine.coll_registry();

        let avail = |name: &str| {
            geom.algorithms_query()
                .into_iter()
                .find(|i| i.name == name)
                .map(|i| i.available)
                .unwrap_or_else(|| panic!("{name} not registered"))
        };

        // Unoptimized: software everywhere, hardware unavailable — the old
        // `use_hw == false` branch.
        assert!(!avail(names::HW_BCAST));
        assert!(!avail(names::HW_ALLREDUCE));
        assert!(!avail(names::COLLNET_BARRIER));
        assert!(avail(names::SW_BCAST));
        assert!(avail(names::SW_ALLREDUCE));
        assert!(avail(names::STREAM_ALLREDUCE));
        assert!(avail(names::GI_BARRIER));
        assert_eq!(reg.select(CollKind::Broadcast, &geom).name, names::SW_BCAST);
        // The streaming chain (cost 90) outranks the binomial tree (100) on
        // unrouted geometries.
        assert_eq!(reg.select(CollKind::Allreduce, &geom).name, names::STREAM_ALLREDUCE);
        assert_eq!(reg.select(CollKind::Barrier, &geom).name, names::GI_BARRIER);

        coll::barrier(&geom, ctx);
        geom.optimize().expect("world is rectangular");

        // Optimized: the hardware entries become available and win on cost
        // — the old `use_hw == true` branch.
        assert!(avail(names::HW_BCAST));
        assert!(avail(names::HW_ALLREDUCE));
        assert!(avail(names::COLLNET_BARRIER));
        assert_eq!(reg.select(CollKind::Broadcast, &geom).name, names::HW_BCAST);
        assert_eq!(reg.select(CollKind::Allreduce, &geom).name, names::HW_ALLREDUCE);
        // GI barrier stays cheapest even when the collective network is up,
        // exactly like the pre-registry dispatcher.
        assert_eq!(reg.select(CollKind::Barrier, &geom).name, names::GI_BARRIER);

        // Software-only kinds never grow a hardware entry.
        for kind in [
            CollKind::Reduce,
            CollKind::Gather,
            CollKind::Scatter,
            CollKind::Allgather,
            CollKind::Alltoall,
        ] {
            assert!(
                reg.select(kind, &geom).cost >= 100,
                "{kind:?} has no hardware path"
            );
        }

        coll::barrier(&geom, ctx);
        if env.task == 0 {
            geom.deoptimize();
        }
        coll::barrier(&geom, ctx);
        assert!(!avail(names::HW_BCAST));
        assert_eq!(reg.select(CollKind::Broadcast, &geom).name, names::SW_BCAST);
    });
}

#[test]
fn sub_geometry_collectives() {
    // Odd tasks only: a non-rectangular (strided) geometry → software path.
    let machine = Machine::with_nodes(4).ppn(1).build();
    machine.run(|env| {
        let client = Client::create(&env.machine, env.task, "coll", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let _world = world_geometry(ctx);
        if env.task % 2 == 1 {
            let geom = Geometry::create(
                ctx,
                2,
                Topology::Range { first: 1, count: 2, stride: 2 },
            );
            let src = MemRegion::from_vec(bgq_collnet::ops::elems::from_i64(&[10 * env.task as i64]));
            let dst = MemRegion::zeroed(8);
            coll::allreduce(&geom, ctx, (&src, 0), (&dst, 0), 1, CollOp::Sum, DataType::Int64);
            assert_eq!(bgq_collnet::ops::elems::to_i64(&dst.to_vec())[0], 40);
        }
    });
}

#[test]
fn gather_collects_rank_ordered_blocks() {
    let machine = Machine::with_nodes(4).ppn(1).build();
    machine.run(|env| {
        let client = Client::create(&env.machine, env.task, "coll", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = world_geometry(ctx);
        let blk = 16;
        let src = MemRegion::from_vec(vec![env.task as u8 + 1; blk]);
        let dst = MemRegion::zeroed(4 * blk);
        for root in [0usize, 2] {
            coll::gather(&geom, ctx, root, (&src, 0), (&dst, 0), blk);
            if env.task as usize == root {
                let v = dst.to_vec();
                for r in 0..4usize {
                    assert!(
                        v[r * blk..(r + 1) * blk].iter().all(|&b| b == r as u8 + 1),
                        "root {root}: block {r} wrong"
                    );
                }
            }
        }
    });
}

#[test]
fn scatter_distributes_rank_ordered_blocks() {
    let machine = Machine::with_nodes(4).ppn(1).build();
    machine.run(|env| {
        let client = Client::create(&env.machine, env.task, "coll", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = world_geometry(ctx);
        let blk = 32;
        let src = if env.task == 1 {
            MemRegion::from_vec((0..4u8).flat_map(|r| vec![r * 10; blk]).collect())
        } else {
            MemRegion::zeroed(4 * blk)
        };
        let dst = MemRegion::zeroed(blk);
        coll::scatter(&geom, ctx, 1, (&src, 0), (&dst, 0), blk);
        assert!(
            dst.to_vec().iter().all(|&b| b == env.task as u8 * 10),
            "task {} got wrong block",
            env.task
        );
    });
}

#[test]
fn allgather_ring_delivers_everywhere() {
    let machine = Machine::with_nodes(3).ppn(2).build();
    machine.run(|env| {
        let client = Client::create(&env.machine, env.task, "coll", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = world_geometry(ctx);
        let n = geom.size();
        let blk = 24;
        let src = MemRegion::from_vec(vec![env.task as u8 + 7; blk]);
        let dst = MemRegion::zeroed(n * blk);
        coll::allgather(&geom, ctx, (&src, 0), (&dst, 0), blk);
        let v = dst.to_vec();
        for r in 0..n {
            assert!(
                v[r * blk..(r + 1) * blk].iter().all(|&b| b == r as u8 + 7),
                "task {}: block {r} wrong",
                env.task
            );
        }
    });
}

#[test]
fn alltoall_transposes_blocks() {
    let machine = Machine::with_nodes(4).ppn(1).build();
    machine.run(|env| {
        let client = Client::create(&env.machine, env.task, "coll", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = world_geometry(ctx);
        let n = geom.size();
        let blk = 8;
        let me = env.task as usize;
        // src block j = 100·me + j.
        let src = MemRegion::from_vec(
            (0..n).flat_map(|j| vec![(100 * me + j) as u8; blk]).collect(),
        );
        let dst = MemRegion::zeroed(n * blk);
        coll::alltoall(&geom, ctx, (&src, 0), (&dst, 0), blk);
        let v = dst.to_vec();
        for i in 0..n {
            // dst block i came from rank i's block `me`.
            assert!(
                v[i * blk..(i + 1) * blk].iter().all(|&b| b == (100 * i + me) as u8),
                "task {me}: got wrong block from {i}"
            );
        }
    });
}

#[test]
fn alltoall_large_blocks_over_rendezvous() {
    let machine = Machine::with_nodes(2).ppn(2).build();
    machine.run(|env| {
        let client = Client::create(&env.machine, env.task, "coll", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = world_geometry(ctx);
        let n = geom.size();
        let blk = 32 * 1024; // above the eager limit
        let me = env.task as usize;
        let src = MemRegion::from_vec(
            (0..n).flat_map(|j| vec![(me * n + j) as u8; blk]).collect(),
        );
        let dst = MemRegion::zeroed(n * blk);
        coll::alltoall(&geom, ctx, (&src, 0), (&dst, 0), blk);
        let v = dst.to_vec();
        for i in 0..n {
            assert!(v[i * blk..(i + 1) * blk].iter().all(|&b| b == (i * n + me) as u8));
        }
    });
}

#[test]
fn collnet_barrier_agrees_with_gi_barrier() {
    use std::sync::atomic::AtomicU64 as A64;
    let machine = Machine::with_nodes(4).ppn(1).build();
    let counter = A64::new(0);
    machine.run(|env| {
        let client = Client::create(&env.machine, env.task, "coll", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = world_geometry(ctx);
        geom.optimize().unwrap();
        for round in 1..=5u64 {
            counter.fetch_add(1, Ordering::SeqCst);
            coll::barrier_named(&geom, ctx, names::COLLNET_BARRIER);
            assert_eq!(
                counter.load(Ordering::SeqCst),
                round * 4,
                "collnet barrier released early"
            );
            coll::barrier_named(&geom, ctx, names::GI_BARRIER);
        }
    });
}

#[test]
fn axial_topology_communicator_collectives() {
    // An axial sub-geometry — the paper's O(1)-storage "axial topology" —
    // as a live communicator: the nodes along dimension A through the
    // origin, running a software allreduce.
    use bgq_torus::rect::AxialRange;
    use bgq_torus::{Coords, Dim};
    let machine = Machine::builder(bgq_torus::TorusShape::new([4, 2, 1, 1, 1])).build();
    machine.run(|env| {
        let client = Client::create(&env.machine, env.task, "coll", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let _world = world_geometry(ctx);
        let shape = env.machine.shape();
        let axis = AxialRange { origin: Coords([0; 5]), dim: Dim::A, len: 4 };
        let topo = Topology::Axial { axis, shape, ppn: 1 };
        assert_eq!(topo.storage_bytes(), 0, "axial topology is O(1) storage");
        if topo.contains(env.task) {
            let geom = Geometry::create(ctx, 7, topo.clone());
            assert_eq!(geom.size(), 4);
            let src = MemRegion::from_vec(bgq_collnet::ops::elems::from_i64(&[env.task as i64]));
            let dst = MemRegion::zeroed(8);
            coll::allreduce_named(
                &geom,
                ctx,
                names::SW_ALLREDUCE,
                (&src, 0),
                (&dst, 0),
                1,
                CollOp::Sum,
                DataType::Int64,
            );
            // Axis members are the A-dimension nodes at B=0: tasks 0,2,4,6
            // in this 4x2 shape (node-major with ppn=1).
            let expect: i64 = topo.iter().map(|t| t as i64).sum();
            assert_eq!(bgq_collnet::ops::elems::to_i64(&dst.to_vec())[0], expect);
        }
    });
}
