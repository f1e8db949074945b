//! End-to-end tests of the MPI layer: point-to-point with matching and
//! wildcards, both library flavors, commthreads, waitall, communicator
//! management, and collectives including the rectangle broadcast.

use std::sync::Arc;

use bgq_collnet::ops::elems;
use pami::coll::names;
use pami::Machine;
use pami_mpi::{
    CollOp, DataType, LibFlavor, MemRegion, Mpi, MpiConfig, ThreadLevel, ANY_SOURCE, ANY_TAG,
};

fn run_mpi<F>(nodes: usize, ppn: usize, config: MpiConfig, f: F)
where
    F: Fn(&Mpi) + Send + Sync,
{
    let machine = Machine::with_nodes(nodes).ppn(ppn).build();
    machine.run(|env| {
        let mpi = Mpi::init(&env.machine, env.task, config.clone());
        env.machine.task_barrier();
        f(&mpi);
        mpi.barrier(mpi.world());
    });
}

fn ping_pong(mpi: &Mpi) {
    let world = mpi.world().clone();
    let me = world.rank();
    let buf = MemRegion::zeroed(64);
    if me == 0 {
        buf.write(0, b"ping");
        mpi.send(&buf, 0, 4, 1, 7, &world);
        let st = mpi.recv(&buf, 0, 64, 1, 8, &world);
        assert_eq!(st.len, 4);
        assert_eq!(&buf.to_vec()[..4], b"pong");
    } else if me == 1 {
        let st = mpi.recv(&buf, 0, 64, 0, 7, &world);
        assert_eq!(st.len, 4);
        assert_eq!(st.source, 0);
        assert_eq!(st.tag, 7);
        assert_eq!(&buf.to_vec()[..4], b"ping");
        buf.write(0, b"pong");
        mpi.send(&buf, 0, 4, 0, 8, &world);
    }
}

#[test]
fn ping_pong_classic_single() {
    run_mpi(2, 1, MpiConfig::default(), ping_pong);
}

#[test]
fn ping_pong_classic_multiple() {
    run_mpi(
        2,
        1,
        MpiConfig {
            flavor: LibFlavor::Classic,
            thread_level: ThreadLevel::Multiple,
            contexts: 1,
            commthreads: Some(0),
        },
        ping_pong,
    );
}

#[test]
fn ping_pong_threadopt_multiple() {
    run_mpi(
        2,
        1,
        MpiConfig {
            flavor: LibFlavor::ThreadOptimized,
            thread_level: ThreadLevel::Multiple,
            contexts: 2,
            commthreads: Some(0),
        },
        ping_pong,
    );
}

#[test]
fn ping_pong_threadopt_commthreads() {
    run_mpi(2, 1, MpiConfig::thread_optimized(2), ping_pong);
}

#[test]
fn ping_pong_classic_commthreads() {
    // The classic library with commthreads (the slow Table 2 row) must
    // still be correct.
    run_mpi(
        2,
        1,
        MpiConfig {
            flavor: LibFlavor::Classic,
            thread_level: ThreadLevel::Multiple,
            contexts: 1,
            commthreads: Some(1),
        },
        ping_pong,
    );
}

#[test]
fn unexpected_messages_then_matching_recv() {
    run_mpi(2, 1, MpiConfig::default(), |mpi| {
        let world = mpi.world().clone();
        if world.rank() == 0 {
            // Send before the receiver posts: all unexpected.
            let buf = MemRegion::from_vec((0..32).collect());
            for tag in 0..4 {
                mpi.send(&buf, (tag * 8) as usize, 8, 1, tag, &world);
            }
        } else {
            // Give the messages time to land unexpected.
            let probe = std::time::Instant::now();
            while mpi.matcher().unexpected_len() < 4 {
                mpi.advance();
                assert!(probe.elapsed().as_secs() < 10, "unexpected never arrived");
            }
            // Receive in reverse tag order — matching is by tag, not
            // arrival.
            for tag in (0..4).rev() {
                let buf = MemRegion::zeroed(8);
                let st = mpi.recv(&buf, 0, 8, 0, tag, &world);
                assert_eq!(st.len, 8);
                let want: Vec<u8> = ((tag * 8) as u8..(tag * 8 + 8) as u8).collect();
                assert_eq!(buf.to_vec(), want, "tag {tag}");
            }
            assert_eq!(mpi.matcher().unexpected_len(), 0);
        }
    });
}

#[test]
fn wildcard_any_source_any_tag() {
    run_mpi(4, 1, MpiConfig::default(), |mpi| {
        let world = mpi.world().clone();
        let me = world.rank();
        if me == 0 {
            let mut froms = Vec::new();
            for _ in 0..3 {
                let buf = MemRegion::zeroed(8);
                let st = mpi.recv(&buf, 0, 8, ANY_SOURCE, ANY_TAG, &world);
                assert_eq!(st.len, 8);
                assert_eq!(buf.to_vec()[0] as i32, st.source, "payload marks sender");
                assert_eq!(st.tag, 100 + st.source);
                froms.push(st.source);
            }
            froms.sort_unstable();
            assert_eq!(froms, vec![1, 2, 3]);
        } else {
            let buf = MemRegion::from_vec(vec![me as u8; 8]);
            mpi.send(&buf, 0, 8, 0, 100 + me as i32, &world);
        }
    });
}

#[test]
fn large_messages_use_rendezvous() {
    run_mpi(2, 1, MpiConfig::default(), |mpi| {
        let world = mpi.world().clone();
        let len = 512 * 1024;
        if world.rank() == 0 {
            let data: Vec<u8> = (0..len).map(|i| (i % 247) as u8).collect();
            let buf = MemRegion::from_vec(data);
            mpi.send(&buf, 0, len, 1, 5, &world);
        } else {
            let buf = MemRegion::zeroed(len);
            let st = mpi.recv(&buf, 0, len, 0, 5, &world);
            assert_eq!(st.len, len);
            let v = buf.to_vec();
            assert!(v.iter().enumerate().all(|(i, &b)| b == (i % 247) as u8));
            // RDMA delivered the payload.
            if cfg!(feature = "telemetry") {
                let node = mpi.machine().task_node(1);
                assert_eq!(
                    mpi.machine().fabric().counters(node).put_bytes_in.value(),
                    len as u64
                );
            }
        }
    });
}

#[test]
fn isend_irecv_waitall_two_phase() {
    run_mpi(2, 1, MpiConfig::default(), |mpi| {
        let world = mpi.world().clone();
        let me = world.rank();
        const N: usize = 32;
        let peer = 1 - me;
        let send_buf = MemRegion::from_vec(vec![me as u8; N * 16]);
        let recv_buf = MemRegion::zeroed(N * 16);
        let mut reqs = Vec::new();
        for i in 0..N {
            reqs.push(mpi.irecv(&recv_buf, i * 16, 16, peer as i32, i as i32, &world));
        }
        // Barrier so all receives are pre-posted (the Figure 5 discipline).
        mpi.barrier(&world);
        for i in 0..N {
            reqs.push(mpi.isend(&send_buf, i * 16, 16, peer, i as i32, &world));
        }
        let statuses = mpi.waitall(&reqs);
        assert_eq!(statuses.len(), 2 * N);
        for st in &statuses[..N] {
            assert_eq!(st.len, 16);
            assert_eq!(st.source, peer as i32);
        }
        assert!(recv_buf.to_vec().iter().all(|&b| b == peer as u8));
        // Everything was pre-posted: no unexpected messages.
        assert_eq!(mpi.matcher().unexpected_len(), 0);
        if cfg!(feature = "telemetry") {
            assert_eq!(mpi.matcher().unexpected_count(), 0);
            assert_eq!(mpi.matcher().matched_posted_count(), N as u64);
        }
    });
}

#[test]
fn message_ordering_between_pairs() {
    run_mpi(2, 1, MpiConfig::default(), |mpi| {
        let world = mpi.world().clone();
        if world.rank() == 0 {
            let buf = MemRegion::zeroed(8);
            for i in 0..100u64 {
                buf.write(0, &i.to_le_bytes());
                mpi.send(&buf, 0, 8, 1, 3, &world);
            }
        } else {
            let buf = MemRegion::zeroed(8);
            for i in 0..100u64 {
                // Same (src, tag): must arrive in send order.
                mpi.recv(&buf, 0, 8, 0, 3, &world);
                let mut b = [0u8; 8];
                buf.read(0, &mut b);
                assert_eq!(u64::from_le_bytes(b), i, "MPI ordering violated");
            }
        }
    });
}

#[test]
fn collectives_barrier_bcast_allreduce_reduce() {
    run_mpi(2, 2, MpiConfig::default(), |mpi| {
        let world = mpi.world().clone();
        let me = world.rank();
        mpi.barrier(&world);

        // Bcast over the optimized (classroute) path.
        world.optimize().expect("world nodes are rectangular");
        assert!(world.is_optimized());
        let len = 200_000;
        let buf = if me == 1 {
            MemRegion::from_vec((0..len).map(|i| (i % 83) as u8).collect())
        } else {
            MemRegion::zeroed(len)
        };
        mpi.bcast(&buf, 0, len, 1, &world);
        assert!(buf.to_vec().iter().enumerate().all(|(i, &b)| b == (i % 83) as u8));

        // Allreduce.
        let src = MemRegion::from_vec(elems::from_i64(&[me as i64, 2 * me as i64]));
        let dst = MemRegion::zeroed(16);
        mpi.allreduce((&src, 0), (&dst, 0), 2, CollOp::Sum, DataType::Int64, &world);
        assert_eq!(elems::to_i64(&dst.to_vec()), vec![6, 12]);

        // Reduce to rank 2.
        let rdst = MemRegion::from_vec(elems::from_i64(&[-7]));
        mpi.reduce(2, (&src, 0), (&rdst, 0), 1, CollOp::Max, DataType::Int64, &world);
        if me == 2 {
            assert_eq!(elems::to_i64(&rdst.to_vec()), vec![3]);
        } else {
            assert_eq!(elems::to_i64(&rdst.to_vec()), vec![-7]);
        }
    });
}

#[test]
fn sw_and_hw_collectives_agree() {
    run_mpi(2, 2, MpiConfig::default(), |mpi| {
        let world = mpi.world().clone();
        world.optimize().unwrap();
        let me = world.rank() as i64;
        for alg in [names::HW_ALLREDUCE, names::SW_ALLREDUCE] {
            let src = MemRegion::from_vec(elems::from_i64(&[me + 1]));
            let dst = MemRegion::zeroed(8);
            mpi.allreduce_named(alg, (&src, 0), (&dst, 0), 1, CollOp::Sum, DataType::Int64, &world);
            assert_eq!(elems::to_i64(&dst.to_vec()), vec![10], "{alg}");
        }
    });
}

#[test]
fn rectangle_broadcast_delivers_everywhere() {
    run_mpi(8, 2, MpiConfig::default(), |mpi| {
        let world = mpi.world().clone();
        let me = world.rank();
        let len = 400_000; // ~40 KB per color slice
        let buf = if me == 0 {
            MemRegion::from_vec((0..len).map(|i| (i % 101) as u8).collect())
        } else {
            MemRegion::zeroed(len)
        };
        mpi.bcast_rect(&buf, 0, len, 0, &world);
        let v = buf.to_vec();
        assert!(
            v.iter().enumerate().all(|(i, &b)| b == (i % 101) as u8),
            "rank {me} has wrong data"
        );
    });
}

#[test]
fn rectangle_broadcast_nonzero_root() {
    run_mpi(4, 1, MpiConfig::default(), |mpi| {
        let world = mpi.world().clone();
        let me = world.rank();
        let len = 64 * 1024;
        let buf = if me == 3 {
            MemRegion::from_vec(vec![0x5A; len])
        } else {
            MemRegion::zeroed(len)
        };
        mpi.bcast_rect(&buf, 0, len, 3, &world);
        assert_eq!(buf.to_vec(), vec![0x5A; len], "rank {me}");
    });
}

#[test]
fn algorithms_query_tracks_optimize_state() {
    // `MPIX_Comm_algorithms_query` through the registry must reproduce the
    // old `use_hw` decision live: hardware entries flip with
    // optimize()/deoptimize(), the software fallbacks never disappear, and
    // the MPI-layer rectangle broadcast is listed with its own availability
    // (multi-node rectangular communicator, route or not).
    run_mpi(4, 1, MpiConfig::default(), |mpi| {
        let world = mpi.world().clone();
        let find = |name: &str| {
            world
                .algorithms_query()
                .into_iter()
                .find(|i| i.name == name)
                .unwrap_or_else(|| panic!("{name} not in algorithms_query"))
        };
        assert!(!find("hw-collnet-bcast").available);
        assert!(!find("hw-collnet-allreduce").available);
        assert!(find("sw-binomial-bcast").available);
        assert!(find("sw-binomial-allreduce").available);
        assert!(find("gi-barrier").available);
        assert!(
            find("rect-bcast").available,
            "rectangle broadcast only needs a rectangular node set, not a classroute"
        );
        assert!(
            find("rect-bcast").cost > find("sw-binomial-bcast").cost,
            "layered specialist never wins auto-selection"
        );

        mpi.barrier(&world);
        world.optimize().expect("world nodes are rectangular");
        assert!(find("hw-collnet-bcast").available);
        assert!(find("hw-collnet-allreduce").available);
        assert!(find("collnet-barrier").available);
        assert!(
            find("hw-collnet-bcast").cost < find("sw-binomial-bcast").cost,
            "hardware wins auto-selection while the route is attached"
        );

        mpi.barrier(&world);
        if world.rank() == 0 {
            world.deoptimize();
        }
        mpi.barrier(&world);
        assert!(!find("hw-collnet-bcast").available);
        assert!(find("sw-binomial-bcast").available);
    });
}

#[test]
fn comm_split_colors_and_collectives() {
    run_mpi(4, 1, MpiConfig::default(), |mpi| {
        let world = mpi.world().clone();
        let me = world.rank();
        let color = (me % 2) as i32;
        let sub = mpi.comm_split(&world, color, me as i32).expect("defined color");
        assert_eq!(sub.size(), 2);
        assert_eq!(sub.rank(), me / 2);
        // Allreduce within the halves.
        let src = MemRegion::from_vec(elems::from_i64(&[me as i64]));
        let dst = MemRegion::zeroed(8);
        mpi.allreduce((&src, 0), (&dst, 0), 1, CollOp::Sum, DataType::Int64, &sub);
        let want = if color == 0 { 2 } else { 4 }; // 0+2 vs 1+3
        assert_eq!(elems::to_i64(&dst.to_vec()), vec![want]);
    });
}

#[test]
fn comm_split_undefined_color() {
    run_mpi(2, 1, MpiConfig::default(), |mpi| {
        let world = mpi.world().clone();
        let color = if world.rank() == 0 { 0 } else { -1 };
        let sub = mpi.comm_split(&world, color, 0);
        if world.rank() == 0 {
            assert_eq!(sub.expect("rank 0 keeps a comm").size(), 1);
        } else {
            assert!(sub.is_none());
        }
    });
}

#[test]
fn classroute_rotation_between_communicators() {
    run_mpi(2, 1, MpiConfig::default(), |mpi| {
        let world = mpi.world().clone();
        let dup = mpi.comm_dup(&world);
        world.optimize().unwrap();
        // Exhaust the remaining user routes with dups of world's rectangle.
        // (COMM_WORLD's boot route + ours are already placed.)
        if dup.optimize().is_ok() {
            dup.deoptimize();
        }
        mpi.barrier(&world);
        if world.rank() == 0 {
            world.deoptimize();
        }
        mpi.barrier(&world);
        assert!(!world.is_optimized());
        // Collectives still function (software path).
        let src = MemRegion::from_vec(elems::from_i64(&[1]));
        let dst = MemRegion::zeroed(8);
        mpi.allreduce((&src, 0), (&dst, 0), 1, CollOp::Sum, DataType::Int64, &world);
        assert_eq!(elems::to_i64(&dst.to_vec()), vec![2]);
    });
}

#[test]
fn multithreaded_sends_thread_multiple() {
    // MPI_THREAD_MULTIPLE: several threads of one rank send concurrently.
    let machine = Machine::with_nodes(2).build();
    machine.run(|env| {
        let mpi = Arc::new(Mpi::init(
            &env.machine,
            env.task,
            MpiConfig {
                flavor: LibFlavor::ThreadOptimized,
                thread_level: ThreadLevel::Multiple,
                contexts: 4,
                commthreads: Some(0),
            },
        ));
        env.machine.task_barrier();
        let world = mpi.world().clone();
        const PER_THREAD: usize = 20;
        const THREADS: usize = 3;
        if world.rank() == 0 {
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let mpi = Arc::clone(&mpi);
                    let world = world.clone();
                    s.spawn(move || {
                        let buf = MemRegion::from_vec(vec![t as u8; 8]);
                        for i in 0..PER_THREAD {
                            mpi.send(&buf, 0, 8, 1, (t * 1000 + i) as i32, &world);
                        }
                    });
                }
            });
        } else {
            let buf = MemRegion::zeroed(8);
            for t in 0..THREADS {
                for i in 0..PER_THREAD {
                    let st = mpi.recv(&buf, 0, 8, 0, (t * 1000 + i) as i32, &world);
                    assert_eq!(st.len, 8);
                    assert_eq!(buf.to_vec()[0] as usize, t);
                }
            }
        }
        mpi.barrier(&world);
    });
}

#[test]
fn gather_scatter_allgather_alltoall() {
    run_mpi(2, 2, MpiConfig::default(), |mpi| {
        let world = mpi.world().clone();
        let me = world.rank();
        let n = world.size();
        let blk = 16;

        // Gather to rank 1.
        let src = MemRegion::from_vec(vec![me as u8 + 1; blk]);
        let gdst = MemRegion::zeroed(n * blk);
        mpi.gather(1, (&src, 0), (&gdst, 0), blk, &world);
        if me == 1 {
            let v = gdst.to_vec();
            for r in 0..n {
                assert!(v[r * blk..(r + 1) * blk].iter().all(|&b| b == r as u8 + 1));
            }
        }

        // Scatter from rank 1 (reuse the gathered buffer).
        let sdst = MemRegion::zeroed(blk);
        mpi.scatter(1, (&gdst, 0), (&sdst, 0), blk, &world);
        assert!(sdst.to_vec().iter().all(|&b| b == me as u8 + 1));

        // Allgather.
        let agdst = MemRegion::zeroed(n * blk);
        mpi.allgather((&src, 0), (&agdst, 0), blk, &world);
        let v = agdst.to_vec();
        for r in 0..n {
            assert!(v[r * blk..(r + 1) * blk].iter().all(|&b| b == r as u8 + 1));
        }

        // Alltoall.
        let a2a_src = MemRegion::from_vec(
            (0..n).flat_map(|j| vec![(10 * me + j) as u8; blk]).collect(),
        );
        let a2a_dst = MemRegion::zeroed(n * blk);
        mpi.alltoall((&a2a_src, 0), (&a2a_dst, 0), blk, &world);
        let v = a2a_dst.to_vec();
        for i in 0..n {
            assert!(v[i * blk..(i + 1) * blk].iter().all(|&b| b == (10 * i + me) as u8));
        }
    });
}

#[test]
fn sendrecv_exchanges_without_deadlock() {
    run_mpi(2, 1, MpiConfig::default(), |mpi| {
        let world = mpi.world().clone();
        let me = world.rank();
        let peer = 1 - me;
        let send = MemRegion::from_vec(vec![me as u8; 64]);
        let recv = MemRegion::zeroed(64);
        let st = mpi.sendrecv((&send, 0, 64), peer, 9, (&recv, 0, 64), peer as i32, 9, &world);
        assert_eq!(st.source, peer as i32);
        assert_eq!(st.len, 64);
        assert!(recv.to_vec().iter().all(|&b| b == peer as u8));
    });
}

#[test]
fn probe_sees_unexpected_without_consuming() {
    run_mpi(2, 1, MpiConfig::default(), |mpi| {
        let world = mpi.world().clone();
        if world.rank() == 0 {
            let buf = MemRegion::from_vec(vec![3u8; 24]);
            mpi.send(&buf, 0, 24, 1, 42, &world);
        } else {
            let st = mpi.probe(ANY_SOURCE, ANY_TAG, &world);
            assert_eq!(st.source, 0);
            assert_eq!(st.tag, 42);
            assert_eq!(st.len, 24);
            // Probing again still sees it.
            assert!(mpi.iprobe(0, 42, &world).is_some());
            // Now actually receive it.
            let buf = MemRegion::zeroed(24);
            let st2 = mpi.recv(&buf, 0, 24, 0, 42, &world);
            assert_eq!(st2.len, 24);
            assert!(buf.to_vec().iter().all(|&b| b == 3));
            assert!(mpi.iprobe(0, 42, &world).is_none(), "consumed");
        }
    });
}

#[test]
fn mpix_torus_queries() {
    run_mpi(8, 2, MpiConfig::default(), |mpi| {
        let world = mpi.world().clone();
        let me = world.rank();
        let my_coords = world.rank_coords(me);
        // Same-node peers share coordinates.
        let node_peer = me ^ 1;
        assert_eq!(world.rank_coords(node_peer), my_coords);
        assert_eq!(world.rank_distance(me, node_peer), 0);
        // coords→rank gives the node's lowest member.
        let back = world.coords_rank(my_coords).unwrap();
        assert_eq!(back, me & !1);
        // Distances are symmetric and within the diameter.
        for other in 0..world.size() {
            let d = world.rank_distance(me, other);
            assert_eq!(d, world.rank_distance(other, me));
            assert!(d <= mpi.machine().shape().diameter());
        }
    });
}
