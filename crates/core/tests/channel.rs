//! Persistent-channel integration tests: the handshake, the steady-state
//! fixed-descriptor exchange (off-node and on-node), the exact short/eager
//! boundary, and renegotiation after a delivery fault.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pami::{
    Client, Endpoint, FaultPlan, Machine, PamiError, PayloadSource, Recv, RetryConfig, SendArgs,
};

/// Pattern for step `i` of length `len`, distinct per direction `dir`.
fn pattern(dir: usize, i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|b| ((dir * 89 + i * 131 + b * 7) % 251) as u8).collect()
}

#[test]
fn short_eager_boundary_is_exact_at_the_cutoff() {
    // Default static policy: 128 B (SHORT_CUTOFF) goes short — one inline
    // packet, `ctx.sends_short` moves; 129 B goes eager —
    // `ctx.sends_eager` moves. Both arrive intact.
    let machine = Machine::with_nodes(2).build();
    let c0 = Client::create(&machine, 0, "t", 1);
    let c1 = Client::create(&machine, 1, "t", 1);
    let got = Arc::new(AtomicU64::new(0));
    let got2 = Arc::clone(&got);
    c1.context(0).set_dispatch(
        1,
        Arc::new(move |_ctx, msg, first| {
            assert_eq!(first.len() as u64, msg.len);
            let expect = pattern(0, msg.len as usize, msg.len as usize);
            assert_eq!(first, &expect[..], "payload intact at len {}", msg.len);
            got2.fetch_add(1, Ordering::SeqCst);
            Recv::Done
        }),
    );
    let counter = |name: &str| machine.telemetry().snapshot().counter(name);
    for (len, probe) in [(128usize, "ctx.sends_short"), (129, "ctx.sends_eager")] {
        let before = counter(probe);
        c0.context(0)
            .send(SendArgs {
                dest: Endpoint::of_task(1),
                dispatch: 1,
                metadata: vec![],
                payload: PayloadSource::Immediate(bytes::Bytes::from(pattern(0, len, len))),
                local_done: None,
            })
            .unwrap();
        let target = got.load(Ordering::SeqCst) + 1;
        while got.load(Ordering::SeqCst) < target {
            c0.context(0).advance();
            c1.context(0).advance();
        }
        if cfg!(feature = "telemetry") {
            assert_eq!(counter(probe), before + 1, "{probe} at len {len}");
        }
    }
    assert_eq!(got.load(Ordering::SeqCst), 2);
}

#[test]
fn send_immediate_shares_the_short_tier_probe() {
    // `send_immediate` is the short tier: off-node immediates take the
    // same single-packet envelope path and the same `ctx.sends_short`
    // probe as policy-selected short sends. On-node (`ppn(2)`: tasks 0 and
    // 1 share node 0) it is the mailbox delivery `send` counts as
    // `ctx.sends_shm`.
    const PROBES: [&str; 2] = ["ctx.sends_short", "ctx.sends_shm"];
    for (ppn, moved) in [(1, [1, 0]), (2, [0, 1])] {
        let machine = Machine::with_nodes(2).ppn(ppn).build();
        let c0 = Client::create(&machine, 0, "t", 1);
        let c1 = Client::create(&machine, 1, "t", 1);
        let got = Arc::new(AtomicU64::new(0));
        let got2 = Arc::clone(&got);
        c1.context(0).set_dispatch(
            1,
            Arc::new(move |_ctx, _msg, first| {
                assert_eq!(first, b"ping");
                got2.fetch_add(1, Ordering::SeqCst);
                Recv::Done
            }),
        );
        let read = || {
            let snap = machine.telemetry().snapshot();
            PROBES.map(|name| snap.counter(name))
        };
        let before = read();
        c0.context(0).send_immediate(Endpoint::of_task(1), 1, b"", b"ping").unwrap();
        c1.context(0).advance_until(|| got.load(Ordering::SeqCst) == 1);
        if cfg!(feature = "telemetry") {
            let after = read();
            let delta = [after[0] - before[0], after[1] - before[1]];
            assert_eq!(delta, moved, "{PROBES:?} at ppn {ppn}");
        }
    }
}

/// Drive a bidirectional persistent-channel exchange for `steps` steps
/// between two already-created channels and verify every payload.
fn exchange(
    a: &mut pami::PersistentChannel,
    b: &mut pami::PersistentChannel,
    size: usize,
    steps: usize,
) {
    let mut buf = vec![0u8; size];
    for i in 0..steps {
        a.post(&pattern(0, i, size)).unwrap();
        b.post(&pattern(1, i, size)).unwrap();
        b.wait(&mut buf).unwrap();
        assert_eq!(buf, pattern(0, i, size), "a->b step {i}");
        a.wait(&mut buf).unwrap();
        assert_eq!(buf, pattern(1, i, size), "b->a step {i}");
    }
}

#[test]
fn persistent_channel_round_trip_off_node() {
    let machine = Machine::with_nodes(2).build();
    let c0 = Client::create(&machine, 0, "t", 1);
    let c1 = Client::create(&machine, 1, "t", 1);
    const SIZE: usize = 96;
    let mut a = c0.context(0).channel(Endpoint::of_task(1), SIZE).unwrap();
    let mut b = c1.context(0).channel(Endpoint::of_task(0), SIZE).unwrap();
    exchange(&mut a, &mut b, SIZE, 20);
    if cfg!(feature = "telemetry") {
        // Zero matching in the steady state: persistent traffic is direct
        // puts into the pre-negotiated windows, not dispatched messages.
        let snap = machine.telemetry().snapshot();
        assert_eq!(snap.counter("ctx.sends_eager"), 0);
        assert_eq!(snap.counter("ctx.sends_rzv"), 0);
    }
}

#[test]
fn persistent_channel_round_trip_on_node() {
    // Two tasks on one node: offers ride the shared-memory mailbox, data
    // moves as local direct puts.
    let machine = Machine::with_nodes(1).ppn(2).build();
    let c0 = Client::create(&machine, 0, "t", 1);
    let c1 = Client::create(&machine, 1, "t", 1);
    const SIZE: usize = 64;
    let mut a = c0.context(0).channel(Endpoint::of_task(1), SIZE).unwrap();
    let mut b = c1.context(0).channel(Endpoint::of_task(0), SIZE).unwrap();
    exchange(&mut a, &mut b, SIZE, 12);
}

#[test]
fn persistent_channel_peer_may_run_a_step_ahead() {
    // Double buffering: the sender may post step i+1 before the receiver
    // waits step i; both slots hold distinct live data.
    let machine = Machine::with_nodes(2).build();
    let c0 = Client::create(&machine, 0, "t", 1);
    let c1 = Client::create(&machine, 1, "t", 1);
    const SIZE: usize = 32;
    let mut a = c0.context(0).channel(Endpoint::of_task(1), SIZE).unwrap();
    let mut b = c1.context(0).channel(Endpoint::of_task(0), SIZE).unwrap();
    a.post(&pattern(0, 0, SIZE)).unwrap();
    a.post(&pattern(0, 1, SIZE)).unwrap();
    let mut buf = [0u8; SIZE];
    b.wait(&mut buf).unwrap();
    assert_eq!(buf.to_vec(), pattern(0, 0, SIZE));
    b.wait(&mut buf).unwrap();
    assert_eq!(buf.to_vec(), pattern(0, 1, SIZE));
}

#[test]
fn persistent_channels_pair_in_creation_order() {
    // Two channels to the same peer: the n-th local channel binds to the
    // n-th remote one, even though all four offers are in flight at once.
    let machine = Machine::with_nodes(2).build();
    let c0 = Client::create(&machine, 0, "t", 1);
    let c1 = Client::create(&machine, 1, "t", 1);
    const SIZE: usize = 16;
    let mut a1 = c0.context(0).channel(Endpoint::of_task(1), SIZE).unwrap();
    let mut a2 = c0.context(0).channel(Endpoint::of_task(1), SIZE).unwrap();
    let mut b1 = c1.context(0).channel(Endpoint::of_task(0), SIZE).unwrap();
    let mut b2 = c1.context(0).channel(Endpoint::of_task(0), SIZE).unwrap();
    a1.post(&pattern(0, 0, SIZE)).unwrap();
    a2.post(&pattern(0, 1, SIZE)).unwrap();
    let mut buf = [0u8; SIZE];
    b1.wait(&mut buf).unwrap();
    assert_eq!(buf.to_vec(), pattern(0, 0, SIZE));
    b2.wait(&mut buf).unwrap();
    assert_eq!(buf.to_vec(), pattern(0, 1, SIZE));
    // And the reverse direction still pairs correctly.
    b1.post(&pattern(1, 0, SIZE)).unwrap();
    b2.post(&pattern(1, 1, SIZE)).unwrap();
    a1.wait(&mut buf).unwrap();
    assert_eq!(buf.to_vec(), pattern(1, 0, SIZE));
    a2.wait(&mut buf).unwrap();
    assert_eq!(buf.to_vec(), pattern(1, 1, SIZE));
}

#[test]
fn persistent_channel_size_mismatch_is_invalid() {
    let machine = Machine::with_nodes(2).build();
    let c0 = Client::create(&machine, 0, "t", 1);
    let c1 = Client::create(&machine, 1, "t", 1);
    let mut a = c0.context(0).channel(Endpoint::of_task(1), 64).unwrap();
    let _b = c1.context(0).channel(Endpoint::of_task(0), 32).unwrap();
    assert!(matches!(a.post(&[0u8; 64]), Err(PamiError::Invalid(_))));
    assert!(matches!(
        c0.context(0).channel(Endpoint::of_task(1), 0),
        Err(PamiError::Invalid(_))
    ));
}

#[test]
fn persistent_channel_renegotiates_after_delivery_fault() {
    // A clean fault plan (reliability layer active, no random faults);
    // kill both of node 0's links mid-stream, watch `post` surface the
    // typed fault, revive the fabric, renegotiate on both sides, and keep
    // going.
    let plan = FaultPlan::new()
        .seed(11)
        .retry(RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 4, retry_budget: 8 });
    let machine = Machine::with_nodes(2).fault_plan(plan).build();
    let c0 = Client::create(&machine, 0, "t", 1);
    let c1 = Client::create(&machine, 1, "t", 1);
    const SIZE: usize = 48;
    let mut a = c0.context(0).channel(Endpoint::of_task(1), SIZE).unwrap();
    let mut b = c1.context(0).channel(Endpoint::of_task(0), SIZE).unwrap();
    exchange(&mut a, &mut b, SIZE, 3);

    // Sever node 0 from the torus: both its A-dimension links die.
    let plus = bgq_torus::Dir { dim: bgq_torus::Dim::A, plus: true };
    let minus = bgq_torus::Dir { dim: bgq_torus::Dim::A, plus: false };
    assert!(machine.fabric().kill_link(0, plus));
    assert!(machine.fabric().kill_link(0, minus));
    let err = a.post(&pattern(0, 99, SIZE)).unwrap_err();
    assert!(
        matches!(err, PamiError::Unreachable | PamiError::Timeout),
        "typed delivery fault, got {err:?}"
    );
    // The channel stays failed without renegotiation.
    assert!(a.post(&pattern(0, 100, SIZE)).is_err());

    // Heal the fabric and rebuild both sides (ordinals stay matched
    // because both renegotiate once, in the same relative order).
    assert!(machine.fabric().revive_link(0, plus));
    assert!(machine.fabric().revive_link(0, minus));
    a.renegotiate().unwrap();
    b.renegotiate().unwrap();
    exchange(&mut a, &mut b, SIZE, 3);
}
