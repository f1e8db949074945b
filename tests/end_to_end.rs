//! Workspace-level integration: a miniature application exercising every
//! layer together — PAMI clients, the MPI layer, sub-communicators,
//! one-sided windows, and both collective paths — on one simulated
//! partition.

use pami_repro::bgq_collnet::ops::elems;
use pami_repro::pami::{coll::names, Counter, Machine, MemKey, MemRegion, PayloadSource};
use pami_repro::pami_mpi::{CollOp, DataType, Mpi, MpiConfig, ANY_SOURCE, ANY_TAG};

const NODES: usize = 4;
const PPN: usize = 2;

#[test]
fn mixed_workload_application() {
    let machine = Machine::with_nodes(NODES).ppn(PPN).build();
    machine.run(|env| {
        let mpi = Mpi::init(&env.machine, env.task, MpiConfig::default());
        // One-sided window per task, exchanged over a world bcast.
        let window = MemRegion::zeroed(64);
        let hits = Counter::new();
        hits.add_expected(8);
        let key = env.machine.create_window(window.clone(), Some(hits.clone()));
        env.machine.task_barrier();

        let world = mpi.world().clone();
        let me = world.rank();
        let n = world.size();

        // Publish every task's key via n broadcasts (bootstrap pattern).
        let keys: Vec<MemKey> = (0..n)
            .map(|r| {
                let buf = MemRegion::zeroed(8);
                if r == me {
                    buf.write_i64(0, key.0 as i64);
                }
                mpi.bcast(&buf, 0, 8, r, &world);
                MemKey(buf.read_i64(0) as u64)
            })
            .collect();

        // Phase 1: one-sided ring put through the PAMI client underneath.
        let right = (me + 1) % n;
        let ctx = mpi.client().context(0);
        let payload = MemRegion::zeroed(8);
        payload.write_i64(0, me as i64 * 11);
        let put_done = Counter::new();
        put_done.add_expected(8);
        ctx.put(pami_repro::pami::PutArgs {
            dest_task: world.task_of(right),
            window: pami_repro::pami::WindowRef::base(keys[right]),
            payload: PayloadSource::Region { region: payload, offset: 0, len: 8 },
            local_done: Some(put_done.clone()),
        })
        .unwrap();
        ctx.advance_until(|| put_done.is_complete() && hits.is_complete());
        let left = (me + n - 1) % n;
        assert_eq!(window.read_i64(0), left as i64 * 11, "ring put landed");

        // Phase 2: split into odd/even halves; allreduce within each.
        let sub = mpi.comm_split(&world, (me % 2) as i32, me as i32).unwrap();
        let src = MemRegion::from_vec(elems::from_i64(&[me as i64]));
        let dst = MemRegion::zeroed(8);
        mpi.allreduce((&src, 0), (&dst, 0), 1, CollOp::Sum, DataType::Int64, &sub);
        let want: i64 = (0..n as i64).filter(|r| (r % 2) == (me as i64 % 2)).sum();
        assert_eq!(elems::to_i64(&dst.to_vec()), vec![want]);

        // Phase 3: wildcard gather at rank 0 over tagged sends.
        if me == 0 {
            let buf = MemRegion::zeroed(8);
            let mut sum = 0i64;
            for _ in 1..n {
                let st = mpi.recv(&buf, 0, 8, ANY_SOURCE, ANY_TAG, &world);
                assert_eq!(st.tag, 500 + st.source);
                sum += buf.read_i64(0);
            }
            assert_eq!(sum, (1..n as i64).map(|r| r * r).sum());
        } else {
            let buf = MemRegion::zeroed(8);
            buf.write_i64(0, (me * me) as i64);
            mpi.send(&buf, 0, 8, 0, 500 + me as i32, &world);
        }

        // Phase 4: hardware vs software collective agreement on world.
        world.optimize().expect("rectangular world");
        for alg in [names::HW_ALLREDUCE, names::SW_ALLREDUCE] {
            let d = MemRegion::zeroed(8);
            mpi.allreduce_named(alg, (&src, 0), (&d, 0), 1, CollOp::Max, DataType::Int64, &world);
            assert_eq!(elems::to_i64(&d.to_vec()), vec![n as i64 - 1]);
        }
        mpi.barrier(&world);
    });
}

#[test]
fn rectangle_broadcast_matches_collnet_broadcast() {
    let machine = Machine::with_nodes(8).build();
    machine.run(|env| {
        let mpi = Mpi::init(&env.machine, env.task, MpiConfig::default());
        env.machine.task_barrier();
        let world = mpi.world().clone();
        world.optimize().unwrap();
        let me = world.rank();
        let len = 100_000;
        let reference: Vec<u8> = (0..len).map(|i| ((i * 7) % 251) as u8).collect();
        // Once through the collective network…
        let a = if me == 0 {
            MemRegion::from_vec(reference.clone())
        } else {
            MemRegion::zeroed(len)
        };
        mpi.bcast(&a, 0, len, 0, &world);
        // …once through the 10-color rectangle algorithm.
        let b = if me == 0 {
            MemRegion::from_vec(reference.clone())
        } else {
            MemRegion::zeroed(len)
        };
        mpi.bcast_rect(&b, 0, len, 0, &world);
        assert_eq!(a.to_vec(), reference);
        assert_eq!(b.to_vec(), reference);
        mpi.barrier(&world);
    });
}

#[test]
fn fifo_budget_supports_many_contexts_per_node() {
    // 16 contexts per task (the 1-ppn configuration of the paper) fits
    // comfortably in the node's 272 reception FIFOs.
    let machine = Machine::with_nodes(2).build();
    machine.run(|env| {
        let client = pami_repro::pami::Client::create(&env.machine, env.task, "many", 16);
        env.machine.task_barrier();
        assert_eq!(client.num_contexts(), 16);
    });
}
