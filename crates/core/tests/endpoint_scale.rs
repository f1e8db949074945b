//! O(1)-per-endpoint invariants at co-simulation scale.
//!
//! The bgq-scale harness multiplexes up to a million virtual endpoints
//! onto a handful of real contexts; each client's endpoint table must cost
//! exactly one slot per endpoint it can address (tasks × that client's
//! context count), and the structures keyed by *context count* must not
//! grow with task count at all. These tests pin both properties at 100K
//! registered virtual endpoints, so a table sized by anything but the
//! client's own context count fails fast instead of surfacing as an OOM
//! in the scale bench.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use pami::{Client, Context, Endpoint, Machine, PayloadSource, Recv, SendArgs};

/// Build a machine with `tasks` tasks over `nodes` nodes, one lead context
/// per node, every non-lead task registered as a virtual endpoint aliasing
/// its node's lead. Returns the machine and the lead clients.
fn oversubscribed(nodes: usize, tasks: usize) -> (Arc<Machine>, Vec<Arc<Client>>) {
    assert_eq!(tasks % nodes, 0);
    let ppn = tasks / nodes;
    let machine = Machine::builder(bgq_torus::TorusShape::for_nodes(nodes))
        .oversubscribed_ppn(ppn)
        .build();
    let mut clients = Vec::with_capacity(nodes);
    for node in 0..nodes as u32 {
        let lead = node * ppn as u32;
        let client = Client::create(&machine, lead, "scaletest", 1);
        let ctx = client.context(0);
        for task in lead + 1..lead + ppn as u32 {
            machine.register_virtual_endpoint(task, 0, ctx);
        }
        clients.push(client);
    }
    (machine, clients)
}

#[test]
fn endpoint_table_is_one_slot_per_task_at_scale() {
    // A 1-context client over 100K tasks: exactly 100K slots.
    let (machine, _clients) = oversubscribed(4, 100_000);
    assert_eq!(machine.endpoint_slots(), 100_000, "one slot per endpoint");
}

#[test]
fn endpoint_table_growth_is_linear_not_superlinear() {
    let slots_at = |tasks: usize| oversubscribed(4, tasks).0.endpoint_slots();
    let small = slots_at(10_000);
    let large = slots_at(100_000);
    assert_eq!(
        large,
        small * 10,
        "10x the endpoints must cost exactly 10x the endpoint-table slots"
    );
}

#[test]
fn each_client_table_is_tasks_times_its_context_count() {
    let machine = Machine::with_nodes(2).ppn(4).build();
    assert_eq!(machine.endpoint_slots(), 0, "no client, no table");
    let _one = Client::create(&machine, 0, "one", 1);
    assert_eq!(machine.endpoint_slots(), 8, "8 tasks x 1 context");
    let _wide = Client::create(&machine, 0, "wide", 16);
    assert_eq!(machine.endpoint_slots(), 8 + 8 * 16, "a second table, 8 tasks x 16 contexts");
}

#[test]
fn matching_state_is_per_context_not_per_endpoint() {
    // 100K virtual endpoints funnel into 4 lead contexts; traffic to many
    // distinct virtual endpoints must land in the lead contexts' matching
    // state without any per-endpoint queue growth. Exercise a spread of
    // destinations across the whole task range and verify delivery — the
    // memory claim is pinned by the slot-count tests above; this pins the
    // functional claim that virtual endpoints share their lead's queues.
    const TASKS: usize = 100_000;
    const NODES: usize = 4;
    let (_machine, clients) = oversubscribed(NODES, TASKS);
    let arrived = Arc::new(AtomicU64::new(0));
    for client in &clients {
        let arrived = Arc::clone(&arrived);
        client.context(0).set_dispatch(
            9,
            Arc::new(move |_, _, _| {
                arrived.fetch_add(1, Ordering::Relaxed);
                Recv::Done
            }),
        );
    }
    // One sender (node 0's lead) sprays sends across the task range,
    // including the very last virtual endpoint.
    let sender = clients[0].context(0);
    let msgs: Vec<u32> =
        (0..64u32).map(|i| (i * 1567 + 3) % TASKS as u32).chain([TASKS as u32 - 1]).collect();
    for &dest in &msgs {
        sender
            .send(SendArgs {
                dest: Endpoint::of_task(dest),
                dispatch: 9,
                metadata: Vec::new(),
                payload: PayloadSource::Immediate(Bytes::from_static(&[7u8; 8])),
                local_done: None,
            })
            .expect("send to a virtual endpoint");
    }
    let expected = msgs.len() as u64;
    let mut spins = 0u64;
    while arrived.load(Ordering::Relaxed) < expected {
        for client in &clients {
            client.context(0).advance();
        }
        spins += 1;
        assert!(spins < 1_000_000, "virtual-endpoint delivery stalled");
    }
    assert_eq!(arrived.load(Ordering::Relaxed), expected);
}

#[test]
fn second_client_and_the_last_of_272_contexts_deliver() {
    // Resolution is the same at every client id and every offset: the
    // 272-context client is the machine's second, and its offset 271 —
    // the node's last reception FIFO — is addressed off-node and on-node.
    const WIDE: usize = bgq_mu::REC_FIFOS_PER_NODE;
    let machine = Machine::with_nodes(3).rec_fifo_capacity(8).build();
    let first = Client::create(&machine, 2, "first", 1);
    let wide: Vec<_> = (0..2).map(|task| Client::create(&machine, task, "wide", WIDE)).collect();
    assert_eq!((first.id(), wide[0].id()), (0, 1));
    let arrived = Arc::new(AtomicU64::new(0));
    let lasts: Vec<&Arc<Context>> = wide.iter().map(|c| c.context(WIDE - 1)).collect();
    for ctx in &lasts {
        let arrived = Arc::clone(&arrived);
        ctx.set_dispatch(
            9,
            Arc::new(move |_, _, _| {
                arrived.fetch_add(1, Ordering::Relaxed);
                Recv::Done
            }),
        );
    }
    let last = (WIDE - 1) as u16;
    for task in [1, 0] {
        wide[0]
            .context(0)
            .send_immediate(Endpoint { task, context: last }, 9, b"", b"wide")
            .expect("the last offset of a second client resolves");
    }
    let mut spins = 0u64;
    while arrived.load(Ordering::Relaxed) < 2 {
        for ctx in &lasts {
            ctx.advance();
        }
        spins += 1;
        assert!(spins < 1_000_000, "delivery to offset {last} stalled");
    }
}
