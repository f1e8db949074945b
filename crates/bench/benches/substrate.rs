//! Microbenchmarks of the BG/Q substrate primitives PAMI is built on.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");
    g.warm_up_time(std::time::Duration::from_millis(600));
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));

    // L2 atomic operations.
    let counter = bgq_hw::L2Counter::new(0);
    g.bench_function("l2_load_increment", |b| b.iter(|| counter.load_increment()));
    let bounded = bgq_hw::BoundedCounter::new(0, u64::MAX);
    g.bench_function("l2_bounded_increment", |b| b.iter(|| bounded.bounded_increment()));

    // Ticket mutex vs parking_lot.
    let ticket = bgq_hw::L2TicketMutex::new();
    g.bench_function("l2_ticket_mutex_lock_unlock", |b| b.iter(|| drop(ticket.lock())));
    let pl = parking_lot::Mutex::new(());
    g.bench_function("parking_lot_mutex_lock_unlock", |b| b.iter(|| drop(pl.lock())));

    // The lockless work queue, uncontended push/pop.
    let q: bgq_hw::WorkQueue<u64> = bgq_hw::WorkQueue::with_capacity(1024);
    g.throughput(Throughput::Elements(1));
    g.bench_function("workqueue_push_pop", |b| {
        b.iter(|| {
            q.push(7);
            q.pop().unwrap()
        })
    });

    // Wakeup region touch with no watchers (the common fast path).
    let unit = bgq_hw::WakeupUnit::new();
    let region = unit.region();
    g.bench_function("wakeup_touch_unwatched", |b| b.iter(|| region.touch()));

    // The link-CRC kernel over one full packet payload, two ways. In the
    // fabric every stamp waits for the one before it (the same core builds
    // the next packet), which `chained` reproduces by seeding each
    // checksum with the last; `independent` is what a probe that loops
    // over one buffer reads — the out-of-order core overlaps iterations,
    // so it flatters a latency-bound kernel several times over.
    let packet: Vec<u8> = (0..512u32).map(|i| (i * 7 + 3) as u8).collect();
    g.throughput(Throughput::Bytes(packet.len() as u64));
    let mut state = !0u32;
    g.bench_function("crc32c/512B-chained", |b| {
        b.iter(|| {
            state = bgq_hw::crc32c::update(state, black_box(&packet));
            state
        })
    });
    g.bench_function("crc32c/512B-independent", |b| {
        b.iter(|| bgq_hw::crc32c::update(!0, black_box(&packet)))
    });

    // What the MPI message path does per message with its three building
    // blocks — a completion counter, a staged buffer, a request handle —
    // so the `pamibench` `pami-mpi.*` ledger rows can be reconciled with
    // their parts (EXPERIMENTS.md).
    g.throughput(Throughput::Elements(1));
    g.bench_function("counter/new+clone+drop", |b| {
        b.iter(|| {
            let c = bgq_hw::Counter::new();
            black_box(c.clone()).add_expected(1);
            c
        })
    });
    for len in [64usize, 512] {
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(format!("bytes/copy_from_slice-{len}B"), |b| {
            b.iter(|| bytes::Bytes::copy_from_slice(black_box(&packet[..len])))
        });
    }
    // One region read staged two ways: written in place, or read into a
    // `Vec` that `From<Vec<u8>>` then copies into its own allocation.
    let region = bgq_hw::MemRegion::from_vec(packet.clone());
    g.bench_function("bytes/fill-512B", |b| {
        b.iter(|| bytes::Bytes::init_with(512, |buf| black_box(&region).read(0, buf)))
    });
    g.bench_function("bytes/from_vec-512B", |b| {
        b.iter(|| {
            let mut staged = vec![0u8; 512];
            black_box(&region).read(0, &mut staged);
            bytes::Bytes::from(staged)
        })
    });
    g.throughput(Throughput::Elements(1));
    let requests = pami_mpi::request::RequestAllocator::shared();
    g.bench_function("mpi/request-insert+resolve+release", |b| {
        b.iter(|| {
            let (req, inner) = requests.insert(1);
            inner.counter().delivered(1);
            drop(inner);
            black_box(requests.resolve(req));
            requests.release(req)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
