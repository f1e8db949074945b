//! Stress and failure-injection tests: overflow paths, protocol boundary
//! conditions, resource exhaustion, and contention.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pami::{
    Client, Context, Counter, Endpoint, Machine, MemRegion, PayloadSource, Recv, SendArgs,
    StaticPolicy,
};

fn counting_handler(count: &Arc<AtomicU64>, bytes: &Arc<AtomicU64>) -> pami::context::DispatchFn {
    let count = Arc::clone(count);
    let bytes = Arc::clone(bytes);
    Arc::new(move |_ctx: &Context, msg: &pami::IncomingMsg, first: &[u8]| {
        if first.len() as u64 == msg.len {
            count.fetch_add(1, Ordering::Relaxed);
            bytes.fetch_add(msg.len, Ordering::Relaxed);
            return Recv::Done;
        }
        let region = MemRegion::zeroed(msg.len as usize);
        let count = Arc::clone(&count);
        let bytes = Arc::clone(&bytes);
        let len = msg.len;
        Recv::Into {
            region,
            offset: 0,
            on_complete: Box::new(move |_, _result| {
                count.fetch_add(1, Ordering::Relaxed);
                bytes.fetch_add(len, Ordering::Relaxed);
            }),
        }
    })
}

#[test]
fn reception_fifo_overflow_engages_and_recovers() {
    // Tiny ring: a burst of messages far beyond capacity must all arrive
    // via the overflow queue, in order.
    let machine = Machine::with_nodes(2).rec_fifo_capacity(4).build();
    let c0 = Client::create(&machine, 0, "s", 1);
    let c1 = Client::create(&machine, 1, "s", 1);
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let o2 = Arc::clone(&order);
    c1.context(0).set_dispatch(
        1,
        Arc::new(move |_ctx, msg, _first| {
            o2.lock().push(u32::from_le_bytes(msg.metadata[..4].try_into().unwrap()));
            Recv::Done
        }),
    );
    const N: u32 = 500;
    for i in 0..N {
        c0.context(0).send(SendArgs {
            dest: Endpoint::of_task(1),
            dispatch: 1,
            metadata: i.to_le_bytes().to_vec(),
            payload: PayloadSource::Immediate(bytes::Bytes::new()),
            local_done: None,
        }).unwrap();
    }
    // Drive both sides to delivery (the semantic signal — telemetry
    // counters read zero when the feature is compiled out).
    while order.lock().len() < N as usize {
        c0.context(0).advance();
        c1.context(0).advance();
    }
    if cfg!(feature = "telemetry") {
        // Sampled per-packet counters: 1-in-16 messages counted, scaled by
        // the sample window — N consecutive lane sequences round up to the
        // next full window.
        let sample = bgq_mu::MU_PACKET_COUNTER_SAMPLE;
        assert_eq!(
            machine.fabric().counters(0).fifo_messages.value(),
            (N as u64).div_ceil(sample) * sample
        );
    }
    assert_eq!(*order.lock(), (0..N).collect::<Vec<u32>>(), "overflow preserved order");
}

#[test]
fn eager_rendezvous_boundary_is_exact() {
    let machine = Machine::with_nodes(2).protocol_policy(StaticPolicy::new(1000)).build();
    let c0 = Client::create(&machine, 0, "s", 1);
    let c1 = Client::create(&machine, 1, "s", 1);
    let count = Arc::new(AtomicU64::new(0));
    let bytes = Arc::new(AtomicU64::new(0));
    c1.context(0).set_dispatch(1, counting_handler(&count, &bytes));

    for (len, expect_rzv) in [(999usize, false), (1000, false), (1001, true)] {
        let before_puts = machine.fabric().counters(1).put_bytes_in.value();
        let done = Counter::new();
        done.add_expected(len as u64);
        c0.context(0).send(SendArgs {
            dest: Endpoint::of_task(1),
            dispatch: 1,
            metadata: vec![],
            payload: PayloadSource::Region {
                region: MemRegion::from_vec(vec![7; len]),
                offset: 0,
                len,
            },
            local_done: Some(done.clone()),
        }).unwrap();
        while !done.is_complete() {
            c0.context(0).advance();
            c1.context(0).advance();
        }
        if cfg!(feature = "telemetry") {
            let used_rzv = machine.fabric().counters(1).put_bytes_in.value() > before_puts;
            assert_eq!(used_rzv, expect_rzv, "len {len}: wrong protocol");
        }
    }
    c1.context(0).advance_until(|| count.load(Ordering::Relaxed) == 3);
    assert_eq!(bytes.load(Ordering::Relaxed), 999 + 1000 + 1001);
}

#[test]
fn many_concurrent_rendezvous_transfers() {
    let machine = Machine::with_nodes(2).protocol_policy(StaticPolicy::new(512)).build();
    let c0 = Client::create(&machine, 0, "s", 1);
    let c1 = Client::create(&machine, 1, "s", 1);
    let count = Arc::new(AtomicU64::new(0));
    let bytes = Arc::new(AtomicU64::new(0));
    c1.context(0).set_dispatch(1, counting_handler(&count, &bytes));
    const N: usize = 40;
    const LEN: usize = 8 * 1024;
    let done = Counter::new();
    for i in 0..N {
        done.add_expected(LEN as u64);
        c0.context(0).send(SendArgs {
            dest: Endpoint::of_task(1),
            dispatch: 1,
            metadata: vec![i as u8],
            payload: PayloadSource::Region {
                region: MemRegion::from_vec(vec![i as u8; LEN]),
                offset: 0,
                len: LEN,
            },
            local_done: Some(done.clone()),
        }).unwrap();
    }
    while !(done.is_complete() && count.load(Ordering::Relaxed) == N as u64) {
        c0.context(0).advance();
        c1.context(0).advance();
    }
    assert_eq!(bytes.load(Ordering::Relaxed), (N * LEN) as u64);
    if cfg!(feature = "telemetry") {
        assert_eq!(machine.fabric().counters(1).put_bytes_in.value(), (N * LEN) as u64);
    }
}

#[test]
fn fifo_exhaustion_panics_with_message() {
    // A context takes one reception FIFO and nothing else of the MU's, so
    // the node's 272 reception FIFOs bound it: 272 contexts fit and the
    // 273rd must fail loudly.
    let machine = Machine::with_nodes(1).build();
    let _fits = Client::create(&machine, 0, "greedy", 272);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _one_too_many = Client::create(&machine, 0, "greedy2", 1);
    }));
    let err = result.expect_err("the 273rd context must fail");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("reception FIFOs"), "unhelpful panic: {msg}");
}

#[test]
fn cross_context_endpoints_are_independent_channels() {
    // Two contexts per task: traffic on context 1 flows even while context
    // 0 is never advanced — the "independent communication channels" claim.
    let machine = Machine::with_nodes(2).build();
    let c0 = Client::create(&machine, 0, "s", 2);
    let c1 = Client::create(&machine, 1, "s", 2);
    let got = Arc::new(AtomicU64::new(0));
    let g2 = Arc::clone(&got);
    c1.context(1).set_dispatch(
        1,
        Arc::new(move |_ctx, _msg, _p| {
            g2.fetch_add(1, Ordering::Relaxed);
            Recv::Done
        }),
    );
    for _ in 0..20 {
        c0.context(1).send(SendArgs {
            dest: Endpoint { task: 1, context: 1 },
            dispatch: 1,
            metadata: vec![],
            payload: PayloadSource::Immediate(bytes::Bytes::new()),
            local_done: None,
        }).unwrap();
    }
    // Only advance the two context-1 objects.
    while got.load(Ordering::Relaxed) < 20 {
        c0.context(1).advance();
        c1.context(1).advance();
    }
    assert!(c1.context(0).is_quiescent(), "context 0 untouched");
}

#[test]
fn concurrent_senders_through_one_context_with_lock() {
    // The paper's rule: threads sharing a context for sends must lock it.
    let machine = Machine::with_nodes(2).build();
    let c0 = Arc::new(Client::create(&machine, 0, "s", 1));
    let c1 = Client::create(&machine, 1, "s", 1);
    let got = Arc::new(AtomicU64::new(0));
    let g2 = Arc::clone(&got);
    c1.context(0).set_dispatch(
        1,
        Arc::new(move |_ctx, _msg, _p| {
            g2.fetch_add(1, Ordering::Relaxed);
            Recv::Done
        }),
    );
    const THREADS: usize = 4;
    const PER: usize = 200;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let c0 = Arc::clone(&c0);
            s.spawn(move || {
                let ctx = c0.context(0);
                for _ in 0..PER {
                    let _guard = ctx.lock();
                    ctx.send(SendArgs {
                        dest: Endpoint::of_task(1),
                        dispatch: 1,
                        metadata: vec![],
                        payload: PayloadSource::Immediate(bytes::Bytes::new()),
                        local_done: None,
                    }).unwrap();
                }
            });
        }
        // Main thread drives progress meanwhile.
        while got.load(Ordering::Relaxed) < (THREADS * PER) as u64 {
            c0.context(0).advance();
            c1.context(0).advance();
        }
    });
    assert_eq!(got.load(Ordering::Relaxed), (THREADS * PER) as u64);
}

#[test]
fn zero_and_max_payload_sizes() {
    let machine = Machine::with_nodes(2).build();
    let c0 = Client::create(&machine, 0, "s", 1);
    let c1 = Client::create(&machine, 1, "s", 1);
    let count = Arc::new(AtomicU64::new(0));
    let bytes = Arc::new(AtomicU64::new(0));
    c1.context(0).set_dispatch(1, counting_handler(&count, &bytes));
    // 0 bytes, exactly one packet, one packet + 1, exactly the eager limit.
    for len in [0usize, 512, 513, 4096] {
        let done = Counter::new();
        done.add_expected(len.max(1) as u64);
        c0.context(0).send(SendArgs {
            dest: Endpoint::of_task(1),
            dispatch: 1,
            metadata: vec![],
            payload: PayloadSource::Region {
                region: MemRegion::zeroed(len.max(1)),
                offset: 0,
                len,
            },
            local_done: Some(done.clone()),
        }).unwrap();
        while !done.is_complete() {
            c0.context(0).advance();
            c1.context(0).advance();
        }
    }
    c1.context(0).advance_until(|| count.load(Ordering::Relaxed) == 4);
    assert_eq!(bytes.load(Ordering::Relaxed), (512 + 513 + 4096) as u64);
}

#[test]
fn context_fifo_ownership_under_concurrent_flood() {
    // The context-sharding contract: every context owns an exclusive
    // reception FIFO and the message-id lane that shares its id, and traffic
    // addressed to context i is delivered by context i's advance and no
    // other. Eight context pairs flood concurrently; each message carries
    // its intended destination context in the metadata, and every handler
    // checks the byte against its own offset.
    const CONTEXTS: usize = 8;
    const MSGS: usize = 400;
    let machine = Machine::with_nodes(2).build();
    let sender = Client::create(&machine, 0, "own", CONTEXTS);
    let receiver = Client::create(&machine, 1, "own", CONTEXTS);

    // FIFO allocations are per-node resources: within each client, no two
    // contexts may share a reception FIFO, so none shares a message-id lane
    // (a lane's id is its FIFO's).
    for client in [&sender, &receiver] {
        let mut rec = std::collections::HashSet::new();
        for i in 0..CONTEXTS {
            let ctx = client.context(i);
            assert!(rec.insert(ctx.rec_fifo_id()), "reception FIFO shared by two contexts");
        }
    }

    let got: Vec<Arc<AtomicU64>> =
        (0..CONTEXTS).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let misdelivered = Arc::new(AtomicU64::new(0));
    for (i, g) in got.iter().enumerate() {
        let g = Arc::clone(g);
        let bad = Arc::clone(&misdelivered);
        receiver.context(i).set_dispatch(
            7,
            Arc::new(move |_ctx, msg: &pami::IncomingMsg, _first| {
                if msg.metadata.first() != Some(&(i as u8)) {
                    bad.fetch_add(1, Ordering::Relaxed);
                }
                g.fetch_add(1, Ordering::Relaxed);
                Recv::Done
            }),
        );
    }
    std::thread::scope(|s| {
        for (i, g) in got.iter().enumerate() {
            let stx = Arc::clone(sender.context(i));
            let rtx = Arc::clone(receiver.context(i));
            let g = Arc::clone(g);
            s.spawn(move || {
                for k in 0..MSGS {
                    stx.send(SendArgs {
                        dest: Endpoint { task: 1, context: i as u16 },
                        dispatch: 7,
                        metadata: vec![i as u8],
                        payload: PayloadSource::Immediate(bytes::Bytes::from_static(&[1u8; 8])),
                        local_done: None,
                    }).unwrap();
                    if k % 8 == 0 {
                        stx.advance();
                        rtx.advance();
                    }
                }
                while g.load(Ordering::Relaxed) < MSGS as u64 {
                    stx.advance();
                    rtx.advance();
                }
            });
        }
    });
    assert_eq!(misdelivered.load(Ordering::Relaxed), 0, "cross-context delivery observed");
    for (i, g) in got.iter().enumerate() {
        assert_eq!(g.load(Ordering::Relaxed), MSGS as u64, "context {i} message count");
    }
}
