//! A Charm++-flavoured actor runtime in ~150 lines — the "other
//! programming models" PAMI exists to host.
//!
//! Chares (actors) live on tasks, addressed by a global chare id; method
//! invocations are PAMI active messages; commthreads drive delivery in the
//! background, so actors run without any application-level polling. The
//! demo builds a ring of chares that pass a token around, incrementing it,
//! until it has made `LAPS` laps.
//!
//! ```text
//! cargo run --example actor_model
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pami_repro::pami::{Client, CommThreadPool, Context, Endpoint, Machine, Recv};

const TASKS: usize = 4;
const CHARES_PER_TASK: usize = 3;
const LAPS: u64 = 5;
const DISPATCH_INVOKE: u16 = 1;

/// A chare: receives a token value, bumps it, forwards to the next chare.
struct RingChare {
    id: u64,
    next: u64, // global id of the successor
    invocations: AtomicU64,
}

fn chare_task(id: u64) -> u32 {
    (id as usize / CHARES_PER_TASK) as u32
}

fn main() {
    let machine = Machine::with_nodes(TASKS).build();
    let total_chares = (TASKS * CHARES_PER_TASK) as u64;
    let done = Arc::new(AtomicU64::new(0));
    let done2 = Arc::clone(&done);
    let key_cell: Arc<std::sync::OnceLock<pami_repro::pami::MemKey>> =
        Arc::new(std::sync::OnceLock::new());
    let key_cell2 = Arc::clone(&key_cell);
    let tickets = Arc::new(AtomicU64::new(0));
    let tickets2 = Arc::clone(&tickets);

    machine.run(move |env| {
        // The actor runtime gets its own client, independent of anything
        // else (MPI could run alongside on this machine).
        let client = Client::create(&env.machine, env.task, "charm", 1);
        let ctx = Arc::clone(client.context(0));

        // This task's chares.
        let chares: Arc<Vec<RingChare>> = Arc::new(
            (0..CHARES_PER_TASK as u64)
                .map(|i| {
                    let id = env.task as u64 * CHARES_PER_TASK as u64 + i;
                    RingChare {
                        id,
                        next: (id + 1) % total_chares,
                        invocations: AtomicU64::new(0),
                    }
                })
                .collect(),
        );

        // Method dispatch: metadata = [target chare id u64][token u64].
        let done = Arc::clone(&done2);
        let my_chares = Arc::clone(&chares);
        ctx.set_dispatch(
            DISPATCH_INVOKE,
            Arc::new(move |ctx: &Context, msg, _payload| {
                let target = u64::from_le_bytes(msg.metadata[..8].try_into().unwrap());
                let token = u64::from_le_bytes(msg.metadata[8..16].try_into().unwrap());
                let chare = my_chares
                    .iter()
                    .find(|c| c.id == target)
                    .expect("invocation routed to the right task");
                chare.invocations.fetch_add(1, Ordering::Relaxed);
                if token >= LAPS * total_chares {
                    done.store(token, Ordering::Release);
                } else {
                    // Forward to the successor — sending from inside a
                    // handler is the message-driven style.
                    send_invoke(ctx, chare.next, token + 1);
                }
                Recv::Done
            }),
        );
        env.machine.task_barrier();

        // Background progress: one commthread per task drives the ring with
        // no polling in "application" code.
        let pool = CommThreadPool::spawn(vec![Arc::clone(&ctx)], 1);

        if env.task == 0 {
            // Seed the token at chare 0.
            send_invoke(&ctx, 0, 1);
        }
        // Wait for termination (the chares run on commthreads meanwhile).
        let start = std::time::Instant::now();
        while done2.load(Ordering::Acquire) == 0 {
            assert!(start.elapsed().as_secs() < 30, "ring stalled");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let my_invocations: u64 =
            chares.iter().map(|c| c.invocations.load(Ordering::Relaxed)).sum();
        println!(
            "task {}: {} chares handled {} invocations",
            env.task, CHARES_PER_TASK, my_invocations
        );
        assert!(my_invocations >= LAPS, "every task's chares ran");
        pool.shutdown();

        // Second act: a hot-key shared counter. Every task fetch-adds the
        // same word in task 0's window — the seqno/ticket pattern actor
        // runtimes use for global ids — and the priors must come back
        // unique (a permutation of 0..TASKS), the linearizability a plain
        // put could never give.
        let counter_mem = pami_repro::pami::MemRegion::zeroed(8);
        if env.task == 0 {
            let key = env.machine.create_window(counter_mem.clone(), None);
            key_cell2.set(key).unwrap();
        }
        env.machine.task_barrier();
        let key = *key_cell2.get().expect("task 0 published the window key");
        let prior_slot = pami_repro::pami::MemRegion::zeroed(8);
        let got = pami_repro::pami::Counter::new();
        got.add_expected(1);
        ctx.rmw(pami_repro::pami::RmwArgs {
            dest_task: 0,
            window: pami_repro::pami::WindowRef::base(key),
            op: pami_repro::pami::RmwOp::FetchAdd,
            operand: 1,
            compare: 0,
            result: Some(pami_repro::pami::MemSlot::base(prior_slot.clone())),
            done: Some(got.clone()),
        })
        .unwrap();
        ctx.advance_until(|| got.is_complete());
        let my_ticket = prior_slot.read_i64(0) as u64;
        assert!(my_ticket < TASKS as u64, "tickets are dense");
        tickets2.fetch_or(1 << my_ticket, Ordering::SeqCst);
        env.machine.task_barrier();
        if env.task == 0 {
            assert_eq!(counter_mem.read_i64(0) as u64, TASKS as u64, "every rmw applied once");
            println!("hot-key counter reached {TASKS}; each task drew a unique ticket");
        }
        env.machine.task_barrier();
    });

    let token = done.load(Ordering::Acquire);
    assert_eq!(token, LAPS * total_chares);
    // Every ticket 0..TASKS was drawn exactly once — the fetch-adds
    // linearized.
    assert_eq!(tickets.load(Ordering::SeqCst), (1u64 << TASKS) - 1);
    println!("actor_model OK: token made {LAPS} laps over {total_chares} chares (final value {token})");
}

/// Invoke the chare `target` with `token` (an active message to its home
/// task).
fn send_invoke(ctx: &Context, target: u64, token: u64) {
    let mut metadata = Vec::with_capacity(16);
    metadata.extend_from_slice(&target.to_le_bytes());
    metadata.extend_from_slice(&token.to_le_bytes());
    ctx.send(pami_repro::pami::SendArgs {
        dest: Endpoint::of_task(chare_task(target)),
        dispatch: DISPATCH_INVOKE,
        metadata,
        payload: pami_repro::pami::PayloadSource::Immediate(bytes::Bytes::new()),
        local_done: None,
    })
    .unwrap();
}
