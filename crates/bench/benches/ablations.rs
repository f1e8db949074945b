//! Ablations of the design choices DESIGN.md calls out.

use std::collections::VecDeque;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pami_bench::{measure_collective, CollBench};

/// Lockless bounded-increment work queue vs a mutex-guarded deque, under
/// multi-producer contention — the paper's reason for the L2 queue design.
fn queue_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_workqueue");
    g.warm_up_time(std::time::Duration::from_millis(600));
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    const PRODUCERS: usize = 4;
    const PER: usize = 2000;
    g.throughput(Throughput::Elements((PRODUCERS * PER) as u64));
    g.bench_function("lockless_l2_queue_mpsc", |b| {
        b.iter(|| {
            let q: Arc<bgq_hw::WorkQueue<u64>> = Arc::new(bgq_hw::WorkQueue::with_capacity(256));
            std::thread::scope(|s| {
                for p in 0..PRODUCERS {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        for i in 0..PER {
                            q.push((p * PER + i) as u64);
                        }
                    });
                }
                let mut got = 0;
                while got < PRODUCERS * PER {
                    if q.pop().is_some() {
                        got += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        })
    });
    g.bench_function("mutex_deque_mpsc", |b| {
        b.iter(|| {
            let q: Arc<parking_lot::Mutex<VecDeque<u64>>> =
                Arc::new(parking_lot::Mutex::new(VecDeque::new()));
            std::thread::scope(|s| {
                for p in 0..PRODUCERS {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        for i in 0..PER {
                            q.lock().push_back((p * PER + i) as u64);
                        }
                    });
                }
                let mut got = 0;
                while got < PRODUCERS * PER {
                    if q.lock().pop_front().is_some() {
                        got += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        })
    });
    g.finish();
}

/// Shared vs thread-private (sharded) request pools under contention.
fn request_pool_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_request_pools");
    g.warm_up_time(std::time::Duration::from_millis(600));
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    const THREADS: usize = 4;
    const PER: usize = 1000;
    g.throughput(Throughput::Elements((THREADS * PER) as u64));
    for (name, sharded) in [("shared_pool", false), ("thread_private_pools", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let alloc = Arc::new(if sharded {
                    pami_mpi::request::RequestAllocator::sharded(THREADS * 2)
                } else {
                    pami_mpi::request::RequestAllocator::shared()
                });
                std::thread::scope(|s| {
                    for _ in 0..THREADS {
                        let alloc = Arc::clone(&alloc);
                        s.spawn(move || {
                            for _ in 0..PER {
                                let (r, inner) = alloc.insert(1);
                                drop(inner);
                                criterion::black_box(alloc.resolve(r));
                                alloc.release(r);
                            }
                        });
                    }
                });
            })
        });
    }
    g.finish();
}

/// Hardware (classroute) vs software (binomial) collectives — what
/// MPIX_Comm_optimize buys.
fn collective_path_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_hw_vs_sw_collectives");
    g.warm_up_time(std::time::Duration::from_millis(600));
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(4));
    const SIZE: usize = 256 * 1024;
    g.throughput(Throughput::Bytes(SIZE as u64));
    for (name, hw) in [("hw_classroute", true), ("sw_binomial", false)] {
        g.bench_function(format!("allreduce_256KB_8nodes_{name}"), |b| {
            b.iter_custom(|n| {
                measure_collective(
                    8,
                    1,
                    n.max(2) as usize,
                    CollBench::AllreduceBandwidth { size: SIZE, hw },
                ) * n as u32
            })
        });
    }
    g.finish();
}

/// GI-network barrier vs a zero-payload collective-network barrier — why
/// the paper routes MPI_Barrier over the global-interrupt wires.
fn barrier_mechanism_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_barrier_mechanism");
    g.warm_up_time(std::time::Duration::from_millis(600));
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    for (name, alg) in [
        ("gi_network", pami::coll::names::GI_BARRIER),
        ("collective_network", pami::coll::names::COLLNET_BARRIER),
    ] {
        g.bench_function(format!("barrier_8nodes_{name}"), |b| {
            b.iter_custom(|n| {
                pami_bench::measure_barrier_alg(8, n.max(10) as usize, alg) * n as u32
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    queue_ablation,
    request_pool_ablation,
    collective_path_ablation,
    barrier_mechanism_ablation
);
criterion_main!(benches);
