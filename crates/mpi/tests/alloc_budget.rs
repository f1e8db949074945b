//! A heap-allocation budget for the steady-state MPI message path.
//!
//! Wall-clock gains rot unnoticed on a noisy host; allocation counts do not
//! move at all unless the code does. This runs the `pamibench`
//! `mpi_exchange` step (4 ranks on 2 nodes × 2, 16 × 64 B to every peer,
//! half the receives pre-posted, every fourth `ANY_SOURCE`, one driver
//! thread) under a counting global allocator and asserts a ceiling per
//! call. The one deviation from the workload's step: the messages that will
//! find a posted receive are sent and swept before the ones that will not,
//! so the two kinds of delivery can be told apart.
//!
//! The `unsafe impl GlobalAlloc` below is why this lives in a test file:
//! every crate's `src/` but `bgq-hw`'s forbids `unsafe`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use pami::Machine;
use pami_mpi::{MemRegion, Mpi, MpiConfig, Request, ANY_SOURCE};

/// A phase of the step: its name, how many calls (for the two delivery
/// rows: messages) a step makes in it, and the allocations allowed per
/// call. `request_complete` is polled a varying number of times; a ceiling
/// of zero needs no call count.
const PHASES: [(&str, u64, Option<f64>); 7] = [
    ("other", 0, None),
    ("irecv", MESSAGES, Some(0.0)),
    ("isend", MESSAGES, Some(3.0)),
    ("deliver posted", MESSAGES / 2, Some(0.0)),
    ("deliver unexpected", MESSAGES / 2, Some(2.0)),
    ("request_complete", 0, Some(0.0)),
    ("test", 2 * MESSAGES, Some(0.0)),
];
const OTHER: usize = 0;
const IRECV: usize = 1;
const ISEND: usize = 2;
const DELIVER_POSTED: usize = 3;
const DELIVER_UNEXPECTED: usize = 4;
const REQUEST_COMPLETE: usize = 5;
const TEST: usize = 6;

/// `System`, counting every allocation against the current phase.
struct Counting;

static PHASE: AtomicUsize = AtomicUsize::new(OTHER);
static ALLOCS: [AtomicU64; PHASES.len()] = [const { AtomicU64::new(0) }; PHASES.len()];
/// Allocations aligned beyond what `malloc` gives for free.
static OVER_ALIGNED: [AtomicU64; PHASES.len()] = [const { AtomicU64::new(0) }; PHASES.len()];

impl Counting {
    fn note(layout: Layout) {
        let phase = PHASE.load(Ordering::Relaxed);
        ALLOCS[phase].fetch_add(1, Ordering::Relaxed);
        if layout.align() > 16 {
            OVER_ALIGNED[phase].fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(layout);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` with its allocations charged to `phase`.
fn in_phase<R>(phase: usize, f: impl FnOnce() -> R) -> R {
    PHASE.store(phase, Ordering::Relaxed);
    let out = f();
    PHASE.store(OTHER, Ordering::Relaxed);
    out
}

const NODES: usize = 2;
const PPN: usize = 2;
const RANKS: usize = NODES * PPN;
const PEERS: usize = RANKS - 1;
const MSG_BYTES: usize = 64;
const PER_PEER: usize = 16;
const PREPOSTED: usize = PER_PEER / 2;
const PER_RANK: usize = PEERS * PER_PEER;
/// Messages per step.
const MESSAGES: u64 = (RANKS * PER_RANK) as u64;

struct Rank {
    mpi: Mpi,
    send_buf: MemRegion,
    recv_buf: MemRegion,
    reqs: Vec<Request>,
}

fn peer_of(rank: usize, i: usize) -> usize {
    if i < rank {
        i
    } else {
        i + 1
    }
}

fn slot(peer_idx: usize, k: usize) -> usize {
    (peer_idx * PER_PEER + k) * MSG_BYTES
}

fn tag(src: usize, k: usize) -> i32 {
    (src * PER_PEER + k) as i32
}

fn post_receives(ranks: &mut [Rank], ks: std::ops::Range<usize>) {
    for (r, rank) in ranks.iter_mut().enumerate() {
        for i in 0..PEERS {
            let p = peer_of(r, i);
            for k in ks.clone() {
                let src = if k % 4 == 3 { ANY_SOURCE } else { p as i32 };
                let req = in_phase(IRECV, || {
                    let world = rank.mpi.world();
                    rank.mpi.irecv(&rank.recv_buf, slot(i, k), MSG_BYTES, src, tag(p, k), world)
                });
                rank.reqs.push(req);
            }
        }
    }
}

fn send(ranks: &mut [Rank], step: u64, ks: std::ops::Range<usize>) {
    for (r, rank) in ranks.iter_mut().enumerate() {
        for i in 0..PEERS {
            let p = peer_of(r, i);
            for k in ks.clone() {
                rank.send_buf.write(slot(i, k), &step.to_le_bytes());
                let req = in_phase(ISEND, || {
                    let world = rank.mpi.world();
                    rank.mpi.isend(&rank.send_buf, slot(i, k), MSG_BYTES, p, tag(r, k), world)
                });
                rank.reqs.push(req);
            }
        }
    }
}

fn sweep(ranks: &[Rank], phase: usize) -> usize {
    ranks.iter().map(|r| in_phase(phase, || r.mpi.advance())).sum()
}

fn step(ranks: &mut [Rank], step: u64) {
    post_receives(ranks, 0..PREPOSTED);
    send(ranks, step, 0..PREPOSTED);
    while sweep(ranks, DELIVER_POSTED) > 0 {}
    send(ranks, step, PREPOSTED..PER_PEER);
    while sweep(ranks, DELIVER_UNEXPECTED) > 0 {}
    post_receives(ranks, PREPOSTED..PER_PEER);
    let all_done = |ranks: &[Rank]| {
        ranks.iter().all(|rank| {
            rank.reqs.iter().all(|&q| in_phase(REQUEST_COMPLETE, || rank.mpi.request_complete(q)))
        })
    };
    while !all_done(ranks) {
        sweep(ranks, OTHER);
    }
    for rank in ranks.iter_mut() {
        for req in rank.reqs.drain(..) {
            let status = in_phase(TEST, || rank.mpi.test(req));
            assert!(status.is_some(), "every request is complete by now");
        }
        let got = rank.recv_buf.to_vec();
        for at in (0..PER_RANK * MSG_BYTES).step_by(MSG_BYTES) {
            assert_eq!(got[at..at + 8], step.to_le_bytes(), "step {step}, offset {at}");
        }
    }
}

#[test]
fn steady_state_message_path_stays_inside_its_allocation_budget() {
    const WARM_UP: u64 = 200;
    const MEASURED: u64 = 200;
    let machine = Machine::with_nodes(NODES).ppn(PPN).build();
    let mut ranks: Vec<Rank> = (0..RANKS as u32)
        .map(|t| Rank {
            mpi: Mpi::init(&machine, t, MpiConfig::default()),
            send_buf: MemRegion::zeroed(PER_RANK * MSG_BYTES),
            recv_buf: MemRegion::zeroed(PER_RANK * MSG_BYTES),
            reqs: Vec::with_capacity(2 * PER_RANK),
        })
        .collect();
    for s in 0..WARM_UP {
        step(&mut ranks, s);
    }
    for counter in ALLOCS.iter().chain(&OVER_ALIGNED) {
        counter.store(0, Ordering::Relaxed);
    }
    for s in WARM_UP..WARM_UP + MEASURED {
        step(&mut ranks, s);
    }

    println!("{:<20} {:>12} {:>10} {:>13}", "phase", "allocations", "per call", "over-aligned");
    for (phase, (name, per_step, _)) in PHASES.iter().enumerate() {
        let allocs = ALLOCS[phase].load(Ordering::Relaxed);
        let per_call = match per_step {
            0 => "-".to_string(),
            n => format!("{:.2}", allocs as f64 / (n * MEASURED) as f64),
        };
        let over = OVER_ALIGNED[phase].load(Ordering::Relaxed);
        println!("{name:<20} {allocs:>12} {per_call:>10} {over:>13}");
    }
    for (phase, (name, per_step, ceiling)) in PHASES.iter().enumerate() {
        let allocs = ALLOCS[phase].load(Ordering::Relaxed) as f64;
        if let Some(ceiling) = ceiling {
            let calls = ((*per_step).max(1) * MEASURED) as f64;
            assert!(
                allocs / calls <= *ceiling,
                "{name}: {allocs} allocations over {calls} calls, ceiling {ceiling} per call"
            );
        }
        assert_eq!(
            OVER_ALIGNED[phase].load(Ordering::Relaxed),
            0,
            "{name}: an over-aligned allocation in steady state"
        );
    }
}
