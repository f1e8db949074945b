//! Quickstart: bring up a simulated BG/Q partition, create a PAMI client,
//! and exchange active messages between two tasks.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pami_repro::pami::{Client, Machine, Recv, SendArgs};
use pami_repro::pami::{Endpoint, PayloadSource};

fn main() {
    // A 2-node partition, one process per node.
    let machine = Machine::with_nodes(2).build();
    println!(
        "machine: {} nodes, shape {:?}, {} tasks",
        machine.num_nodes(),
        machine.shape().0,
        machine.num_tasks()
    );

    let received = Arc::new(AtomicU64::new(0));
    let received2 = Arc::clone(&received);

    machine.run(move |env| {
        // Every task creates its side of the "app" client.
        let client = Client::create(&env.machine, env.task, "app", 1);
        let ctx = client.context(0);

        // Task 1 registers an active-message handler on dispatch id 1.
        if env.task == 1 {
            let received = Arc::clone(&received2);
            ctx.set_dispatch(
                1,
                Arc::new(move |_ctx, msg, payload| {
                    println!(
                        "task 1 <- task {}: metadata={:?} payload={:?}",
                        msg.src.task,
                        std::str::from_utf8(&msg.metadata).unwrap(),
                        std::str::from_utf8(payload).unwrap()
                    );
                    received.fetch_add(1, Ordering::SeqCst);
                    Recv::Done
                }),
            );
        }
        // Make sure all endpoints exist before anyone sends.
        env.machine.task_barrier();

        if env.task == 0 {
            // The latency path: payload copied and injected immediately.
            ctx.send_immediate(Endpoint::of_task(1), 1, b"hi", b"ping")
                .expect("fits in one packet");
            // The general path: eager memory-FIFO send.
            ctx.send(SendArgs {
                dest: Endpoint::of_task(1),
                dispatch: 1,
                metadata: b"again".to_vec(),
                payload: PayloadSource::Immediate(bytes::Bytes::from_static(b"pong-me")),
                local_done: None,
            }).unwrap();
            // Drive our own context so the injection FIFO drains; both
            // sides advance until the receiver has dispatched both
            // messages.
            ctx.advance_until(|| received2.load(Ordering::SeqCst) == 2);
        } else {
            // Advance until both messages have been dispatched.
            ctx.advance_until(|| received2.load(Ordering::SeqCst) == 2);
        }
    });

    println!("delivered {} messages", received.load(Ordering::SeqCst));
    assert_eq!(received.load(Ordering::SeqCst), 2);

    // The UPC-style telemetry registry saw the whole exchange; one
    // snapshot covers every layer (`mu.*` here — the report is empty when
    // built with `--no-default-features`).
    let snap = machine.telemetry().snapshot();
    println!(
        "telemetry: {} MU fifo messages, {} packets injected",
        snap.counter("mu.fifo_messages"),
        snap.counter("mu.packets_injected"),
    );
    println!("quickstart OK");
}
