//! Exact counts where wall-clock ratio gates used to stand.
//!
//! A ratio of two timed floods moves with the host's weather and with
//! whichever arm got cheaper last; a count of heap allocations,
//! descriptors, packets, copies or seeded RAS events moves only when the
//! code does. Each test runs one fixed single-driver program, pins the
//! numbers it produces and asserts the inequality the retired gate stood
//! for (DESIGN.md §17 has the table and, per test, the one-line mutation
//! that turns it red). The time half of every property is a `pamibench`
//! row.
//!
//! Telemetry-counter assertions need the `telemetry` feature; allocation
//! and delivery assertions run either way. Allocations are counted per
//! thread, so the tests of this binary run in parallel.
//!
//! The `unsafe impl GlobalAlloc` below is why this lives in a test file:
//! every crate's `src/` but `bgq-hw`'s forbids `unsafe`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use pami::{
    AggrConfig, Client, Context, Counter, Endpoint, FaultPlan, GetArgs, Machine, MachineBuilder,
    MemSlot, PamiResult, PayloadSource, PutArgs, Recv, RetryConfig, RmwArgs, SendArgs,
    StaticPolicy, WindowRef,
};
use pami_mpi::{MemRegion, Mpi, MpiConfig, Request, ANY_SOURCE};

/// `System`, counting every allocation of the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Allocations aligned beyond what `malloc` gives for free.
    static OVER_ALIGNED: Cell<u64> = const { Cell::new(0) };
}

impl Counting {
    fn note(layout: Layout) {
        ALLOCS.with(|c| c.set(c.get() + 1));
        if layout.align() > 16 {
            OVER_ALIGNED.with(|c| c.set(c.get() + 1));
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised thread-local cells without destructors, so it never
// allocates and is valid for the whole life of a thread.
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

/// `(allocations, over-aligned allocations)` `f` made on this thread.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = (ALLOCS.with(Cell::get), OVER_ALIGNED.with(Cell::get));
    let out = f();
    (out, ALLOCS.with(Cell::get) - before.0, OVER_ALIGNED.with(Cell::get) - before.1)
}

// ---------------------------------------------------------------------------
// The flood rig: task 0 sends, one receiver per other node counts, this
// thread drives everyone.
// ---------------------------------------------------------------------------

struct Rig {
    machine: Arc<Machine>,
    sender: Arc<Client>,
    receivers: Vec<Arc<Client>>,
    got: Arc<AtomicU64>,
    /// Allocations made inside `Context::send`.
    send_allocs: u64,
}

impl Rig {
    fn new(builder: MachineBuilder) -> Rig {
        let machine = builder.build();
        let sender = Client::create(&machine, 0, "count", 1);
        let got = Arc::new(AtomicU64::new(0));
        let receivers: Vec<_> = (1..machine.num_tasks() as u32)
            .map(|t| {
                let client = Client::create(&machine, t, "count", 1);
                let got = Arc::clone(&got);
                let sink = MemRegion::zeroed(4096);
                // A payload that arrived whole in the packet buffer is
                // consumed in place; a zero-copy window or a packet train
                // is deposited into `sink`.
                client.context(0).set_dispatch(
                    1,
                    Arc::new(move |_: &Context, msg, first| {
                        let got = Arc::clone(&got);
                        if first.len() as u64 == msg.len {
                            got.fetch_add(1, Ordering::Relaxed);
                            return Recv::Done;
                        }
                        Recv::Into {
                            region: sink.clone(),
                            offset: 0,
                            on_complete: Box::new(move |_, result| {
                                result.unwrap();
                                got.fetch_add(1, Ordering::Relaxed);
                            }),
                        }
                    }),
                );
                client
            })
            .collect();
        Rig { machine, sender, receivers, got, send_allocs: 0 }
    }

    fn send(&mut self, dest: u32, payload: PayloadSource, local_done: Option<Counter>) {
        let dest = Endpoint::of_task(dest);
        let args = SendArgs { dest, dispatch: 1, metadata: Vec::new(), payload, local_done };
        let (sent, allocs, _) = allocs_in(|| self.sender.context(0).send(args));
        sent.unwrap();
        self.send_allocs += allocs;
    }

    fn advance(&self) {
        self.sender.context(0).advance();
        for r in &self.receivers {
            r.context(0).advance();
        }
    }

    /// Advance until `want` messages have arrived, then 64 sweeps more: a
    /// duplicate delivery would push the count past `want`.
    fn drain(&self, want: u64) {
        while self.got.load(Ordering::Relaxed) < want {
            self.advance();
        }
        for _ in 0..64 {
            self.advance();
        }
        assert_eq!(self.got.load(Ordering::Relaxed), want, "every message exactly once");
    }

    /// `msgs` sends of `payload` to task 1, advancing every 16 — the
    /// `flood_short` cadence — then a drain.
    fn flood(&mut self, msgs: u64, payload: &PayloadSource) {
        let before = self.got.load(Ordering::Relaxed);
        for i in 0..msgs {
            self.send(1, payload.clone(), None);
            if i % 16 == 0 {
                self.advance();
            }
        }
        self.drain(before + msgs);
    }
}

/// The named telemetry counters, summed over the machine.
fn counters<const N: usize>(machine: &Machine, names: [&str; N]) -> [u64; N] {
    let snap = machine.telemetry().snapshot();
    names.map(|n| snap.counter(n))
}

fn delta<const N: usize>(after: [u64; N], before: [u64; N]) -> [u64; N] {
    std::array::from_fn(|i| after[i] - before[i])
}

fn immediate(len: usize) -> PayloadSource {
    PayloadSource::Immediate(Bytes::from(vec![0u8; len]))
}

fn region(len: usize) -> PayloadSource {
    PayloadSource::Region { region: MemRegion::zeroed(len), offset: 0, len }
}

/// The pre-ladder policy: no short tier, every small send takes the eager
/// path.
fn forced_eager() -> MachineBuilder {
    Machine::with_nodes(2).protocol_policy(StaticPolicy::with_short(0, 4096))
}

const SENDS: [&str; 3] = ["ctx.sends_short", "ctx.sends_eager", "ctx.sends_rzv"];
const MU: [&str; 3] = ["mu.descriptors_executed", "mu.packets_injected", "mu.payload_copies"];

/// What one steady-state flood did: `SENDS`, `MU`, allocations in `send`.
type FloodCounts = ([u64; 3], [u64; 3], u64);

/// The counts of `msgs` × `payload` after a warm-up flood of the same.
fn flood_counts(rig: &mut Rig, msgs: u64, payload: &PayloadSource) -> FloodCounts {
    let read =
        |rig: &Rig| (counters(&rig.machine, SENDS), counters(&rig.machine, MU), rig.send_allocs);
    rig.flood(msgs, payload);
    let before = read(rig);
    rig.flood(msgs, payload);
    let after = read(rig);
    (delta(after.0, before.0), delta(after.1, before.1), after.2 - before.2)
}

/// Zero every telemetry count when the probes are compiled out.
fn expect(sends: [u64; 3], mu: [u64; 3], send_allocs: u64) -> FloodCounts {
    if cfg!(feature = "telemetry") {
        (sends, mu, send_allocs)
    } else {
        ([0; 3], [0; 3], send_allocs)
    }
}

/// Retired: `msgrate`'s ratio of a 128 B short flood to the same flood
/// forced onto the eager path. What the short tier saves is structural —
/// the descriptor and its trip through the injection FIFO — and neither
/// arm allocates per `send` unless the short arm has to copy a region
/// payload inline. Time half: `flood_short`, `pingpong_short`.
#[test]
fn short_tier_skips_the_descriptor_the_eager_path_pays() {
    const N: u64 = 1024;
    let len = pami::policy::SHORT_CUTOFF;
    // A region payload costs the short arm an inline copy at `send` (one
    // allocation) and the eager arm a zero-copy window, which the receiver
    // deposits (one copy).
    for (payload, inlined, deposited) in [(immediate(len), 0, 0), (region(len), N, N)] {
        let short = flood_counts(&mut Rig::new(Machine::with_nodes(2)), N, &payload);
        let eager = flood_counts(&mut Rig::new(forced_eager()), N, &payload);
        assert_eq!(short, expect([N, 0, 0], [0, N, 0], inlined));
        assert_eq!(eager, expect([0, N, 0], [N, N, deposited], 0));
        if cfg!(feature = "telemetry") {
            assert!(short.1[0] < eager.1[0], "the descriptor is the structural difference");
        }
    }
}

/// Retired: `chaos`'s 5% fair-weather budget. A clean plan (reliability
/// on, no faults) changes no count on either tier, records nothing, and
/// leaves nothing waiting for an ack — the CRC stamp is the only work it
/// adds. Time half: `halo_mixed`.
#[test]
fn clean_fault_plan_changes_no_count() {
    const N: u64 = 1024;
    let clean = || Machine::with_nodes(2).fault_plan(FaultPlan::new().seed(7));
    // (length, `SENDS`, `MU`, allocations in `send` for a region payload —
    // the short tier copies it inline, the eager path sends a window).
    for (len, sends, mu, inlined) in
        [(8, [N, 0, 0], [0, N, 0], N), (2048, [0, N, 0], [N, 4 * N, 4 * N], 0)]
    {
        for (payload, allocs) in [(immediate(len), 0), (region(len), inlined)] {
            let bare = flood_counts(&mut Rig::new(Machine::with_nodes(2)), N, &payload);
            let mut rig = Rig::new(clean());
            assert_eq!(flood_counts(&mut rig, N, &payload), bare);
            assert_eq!(bare, expect(sends, mu, allocs));
            // A short send is complete on return, an eager one as soon as
            // its descriptor is pumped: neither waits for an ack.
            let done = Counter::new();
            done.add_expected(len as u64);
            rig.send(1, immediate(len), Some(done.clone()));
            rig.sender.context(0).advance();
            assert!(done.is_complete() && rig.machine.fabric().links_idle(0));
            assert_eq!(rig.machine.telemetry().snapshot().layer_total("ras"), 0);
            let (events, overflowed) = rig.machine.fabric().ras_events();
            assert!(events.is_empty() && overflowed == 0, "RAS ring stays empty");
        }
    }
    assert_eq!(one_sided_counts(clean()), one_sided_counts(Machine::with_nodes(2)));
}

/// What the one-sided program did: `[ctx.puts, ctx.gets, ctx.rmws]`;
/// `mu.descriptors_executed` while its puts, its gets and its rmws ran;
/// `ONE_SIDED_MU`; allocations inside the `put`, `get` and `rmw` calls.
type OneSidedCounts = ([u64; 3], [u64; 3], [u64; 3], [u64; 3]);

const ONE_SIDED_OPS: u64 = 64;
const ONE_SIDED_LEN: usize = 4096;
const ONE_SIDED_MU: [&str; 3] =
    ["mu.packets_injected", "mu.put_bytes_in", "mu.remote_gets_serviced"];

/// The `rma_mix` family from one driver on two nodes: 64 × 4 KiB `put`,
/// then 64 × 4 KiB `get`, then 64 fetch-adds with a reply slot, each batch
/// advanced to completion before the next.
fn one_sided_counts(builder: MachineBuilder) -> OneSidedCounts {
    let machine = builder.build();
    let me = Client::create(&machine, 0, "count", 1);
    let peer = Client::create(&machine, 1, "count", 1);
    let window = WindowRef::base(machine.create_window(MemRegion::zeroed(ONE_SIDED_LEN), None));
    let (local, prior) = (MemRegion::zeroed(ONE_SIDED_LEN), MemRegion::zeroed(8));
    let done = Counter::new();
    // One batch of `op`: `(descriptors executed, allocations inside the calls)`.
    let batch = |credit: u64, op: &dyn Fn(Counter) -> PamiResult<()>| {
        let [before] = counters(&machine, ["mu.descriptors_executed"]);
        let mut allocs = 0;
        for _ in 0..ONE_SIDED_OPS {
            done.add_expected(credit);
            let (issued, n, _) = allocs_in(|| op(done.clone()));
            issued.unwrap();
            allocs += n;
        }
        while !done.is_complete() {
            me.context(0).advance();
            peer.context(0).advance();
        }
        assert!(done.is_ok());
        let [after] = counters(&machine, ["mu.descriptors_executed"]);
        (after - before, allocs)
    };
    let puts = batch(ONE_SIDED_LEN as u64, &|done| {
        let (region, len) = (local.clone(), ONE_SIDED_LEN);
        let payload = PayloadSource::Region { region, offset: 0, len };
        me.context(0).put(PutArgs { dest_task: 1, window, payload, local_done: Some(done) })
    });
    let gets = batch(ONE_SIDED_LEN as u64, &|done| {
        let dst = MemSlot::base(local.clone());
        let get = GetArgs { dest_task: 1, window, dst, len: ONE_SIDED_LEN, done: Some(done) };
        me.context(0).get(get)
    });
    let rmws = batch(1, &|done| {
        let result = Some(MemSlot::base(prior.clone()));
        let add = RmwArgs::fetch_add(1, window, 1);
        me.context(0).rmw(RmwArgs { result, done: Some(done), ..add })
    });
    assert_eq!(prior.read_i64(0) as u64, ONE_SIDED_OPS - 1, "the last add saw every earlier one");
    (
        counters(&machine, ["ctx.puts", "ctx.gets", "ctx.rmws"]),
        [puts.0, gets.0, rmws.0],
        counters(&machine, ONE_SIDED_MU),
        [puts.1, gets.1, rmws.1],
    )
}

/// ROADMAP item (b′): the one-sided family as counts. A put or an rmw is
/// one descriptor; a get is two — the request, and the put-back the
/// target's system FIFO runs — and none of them is a packet: nothing
/// reaches a reception FIFO. Time half: `rma_mix`.
#[test]
fn one_sided_ops_are_descriptors_not_packets() {
    const N: u64 = ONE_SIDED_OPS;
    let bytes = N * ONE_SIDED_LEN as u64;
    let (calls, descriptors, mu, allocs) = one_sided_counts(Machine::with_nodes(2));
    // A get boxes the put-back descriptor it carries; nothing else allocates.
    assert_eq!(allocs, [0, N, 0]);
    if cfg!(feature = "telemetry") {
        assert_eq!(calls, [N, N, N]);
        assert_eq!(descriptors, [N, 2 * N, N]);
        // Bytes land by put and by put-back; the peer services each get once.
        assert_eq!(mu, [0, 2 * bytes, N]);
    }
}

/// Retired: `chaos`'s 15% hostile budget. The program `chaos` timed — seed
/// 4242, 1% drop + 1% corrupt, 60 000 × 8 B forced onto the eager path —
/// delivers every message exactly once and spends 1.077 retransmits per
/// lost frame, 88% of them SACK-triggered. Time half: `halo_lossy` against
/// `halo_mixed`.
#[test]
fn hostile_plan_history_is_pinned_and_delivers_exactly_once() {
    let retry = RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 8, retry_budget: 64 };
    let plan = FaultPlan::new().seed(4242).drop_rate(0.01).corrupt_rate(0.01).retry(retry);
    let mut rig = Rig::new(forced_eager().fault_plan(plan));
    rig.flood(60_000, &PayloadSource::Immediate(Bytes::from_static(&[0u8; 8])));
    let (retransmits, sack, crc_errors, dropped) = (1343, 1185, 635, 612);
    let (events, overflowed) = rig.machine.fabric().ras_events();
    assert_eq!(events.len() as u64 + overflowed, retransmits + crc_errors + dropped);
    if cfg!(feature = "telemetry") {
        const HISTORY: [&str; 5] = [
            "ras.retransmits",
            "ras.sack_retransmits",
            "ras.crc_errors",
            "mu.packets_dropped",
            "ras.delivery_failures",
        ];
        assert_eq!(counters(&rig.machine, HISTORY), [retransmits, sack, crc_errors, dropped, 0]);
    }
    // Selective repeat resends little more than what was lost.
    assert!(retransmits * 10 <= (crc_errors + dropped) * 11);
}

/// Retired: `msgrate`'s `aggr_gate` ratio. The `scatter_aggr` stream
/// (16–64 B to a seeded random one of 7 peers) with an age bound that
/// cannot fire and one explicit flush, so no count depends on the clock:
/// coalescing sends a tenth of the packets. Time half: `scatter_aggr`.
#[test]
fn aggregation_sends_a_tenth_of_the_packets() {
    const N: u64 = 16_384;
    const AGGR: [&str; 7] = [
        "ctx.sends_aggr",
        "aggr.batched_msgs",
        "aggr.frames",
        "aggr.flush_fill",
        "aggr.flush_explicit",
        "ctx.sends_short",
        "mu.descriptors_executed",
    ];
    let scatter = |builder: MachineBuilder| {
        let mut rig = Rig::new(builder);
        let blob = Bytes::from(vec![0u8; 64]);
        let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..N {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let dest = 1 + ((lcg >> 33) % 7) as u32;
            let len = 16 + ((lcg >> 20) % 49) as usize;
            rig.send(dest, PayloadSource::Immediate(blob.slice(..len)), None);
            if i % 16 == 0 {
                rig.advance();
            }
        }
        rig.sender.context(0).flush_aggr();
        rig.drain(N);
        (counters(&rig.machine, AGGR), rig.send_allocs)
    };
    let never = AggrConfig { age_us: 3_600_000_000, ..AggrConfig::default() };
    let (on, on_allocs) = scatter(Machine::with_nodes(8).aggregation(never));
    let (off, off_allocs) = scatter(Machine::with_nodes(8));
    // A frame buffer per cut frame, plus its growth: 0.37 per message.
    assert_eq!((on_allocs, off_allocs), (6139, 0));
    if cfg!(feature = "telemetry") {
        // One short-tier packet per frame, 10.58 records in each; without
        // aggregation one short-tier packet per message.
        assert_eq!(on, [N, N, 1548, 1541, 7, 0, 0]);
        assert_eq!(off, [0, 0, 0, 0, 0, N, 0]);
        assert!(on[2] * 10 <= off[5]);
    }
}

/// Retired: `msgrate`'s persistent-halo p99/p50 check, and the
/// `persistent_match_events` / `persistent_ladder_sends` it printed and
/// never asserted. A steady-state `post` is one pre-built descriptor: no
/// allocation, no protocol decision, and nothing for the receiver to
/// dispatch or match. Time half: `rma_mix` and `halo_mixed`'s `post`.
#[test]
fn persistent_post_never_matches_or_climbs_the_ladder() {
    const ITERS: u64 = 1000;
    const SIZE: usize = 128;
    const QUIET: [&str; 5] = [
        "ctx.sends_short",
        "ctx.sends_eager",
        "ctx.sends_rzv",
        "ctx.sends_shm",
        "ctx.messages_dispatched",
    ];
    let machine = Machine::with_nodes(2).build();
    let c0 = Client::create(&machine, 0, "halo", 1);
    let c1 = Client::create(&machine, 1, "halo", 1);
    let mut a = c0.context(0).channel(Endpoint::of_task(1), SIZE).unwrap();
    let mut b = c1.context(0).channel(Endpoint::of_task(0), SIZE).unwrap();
    let (data, mut buf) = ([3u8; SIZE], [0u8; SIZE]);
    // One bidirectional exchange; returns the allocations of its two posts.
    let mut step = || {
        let ((), allocs, _) = allocs_in(|| {
            a.post(&data).unwrap();
            b.post(&data).unwrap();
        });
        b.wait(&mut buf).unwrap();
        a.wait(&mut buf).unwrap();
        assert_eq!(buf, data);
        allocs
    };
    // Eight warm-up steps bind both channels and touch both slots.
    for _ in 0..8 {
        step();
    }
    let quiet = counters(&machine, QUIET);
    let [descriptors] = counters(&machine, ["mu.descriptors_executed"]);
    let post_allocs: u64 = (0..ITERS).map(|_| step()).sum();
    assert_eq!(post_allocs, 0, "allocations in {} posts", 2 * ITERS);
    if cfg!(feature = "telemetry") {
        assert_eq!(counters(&machine, QUIET), quiet, "ladder and dispatch counters stand still");
        assert_eq!(machine.telemetry().snapshot().layer_total("match"), 0);
        assert_eq!(counters(&machine, ["mu.descriptors_executed"]), [descriptors + 2 * ITERS]);
    }
}

/// The kill-a-node drill under a clean plan: every field of the contract.
#[test]
fn node_kill_fails_over_to_standby_with_zero_lost_messages() {
    let f = pami_bench::measure_failover_drain(8, FaultPlan::new().seed(4040));
    assert_eq!((f.pre_kill, f.drained, f.lost), (4, 4, 0), "primary gets 4, standby the rest");
    assert!((1..=4).contains(&f.unreachable_faults), "first send trips, failover ends the storm");
    assert_eq!(f.other_faults, 0, "a dead node fails sends as Unreachable, nothing else");
    assert_eq!(f.resolved_task, 2, "failover must remap task 1");
    assert!(f.failover_generation > 0);
    assert!(f.ras_unreachable, "the failover trigger must be RAS-visible");
    assert!(f.primary_step, "pre-kill channel step reaches the primary");
    assert!(f.channel_replayed, "dead post fails, channel follows, standby gets both steps");
}

// ---------------------------------------------------------------------------
// The MPI message path: an allocation budget per call.
//
// The `pamibench` `mpi_exchange` step (4 ranks on 2 nodes × 2, 16 × 64 B to
// every peer, half the receives pre-posted, every fourth `ANY_SOURCE`, one
// driver thread) with a ceiling per call. The one deviation from the
// workload's step: the messages that will find a posted receive are sent
// and swept before the ones that will not, so the two kinds of delivery
// can be told apart.
// ---------------------------------------------------------------------------

/// A phase of the MPI step: its name, how many calls (for the two delivery
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

thread_local! {
    /// `(allocations, over-aligned allocations)` charged to each phase.
    static TALLY: [Cell<(u64, u64)>; PHASES.len()] =
        const { [const { Cell::new((0, 0)) }; PHASES.len()] };
}

/// Run `f` with its allocations charged to `phase`.
fn in_phase<R>(phase: usize, f: impl FnOnce() -> R) -> R {
    let (out, allocs, over) = allocs_in(f);
    TALLY.with(|t| t[phase].set((t[phase].get().0 + allocs, t[phase].get().1 + over)));
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
    TALLY.with(|t| t.iter().for_each(|c| c.set((0, 0))));
    let ((), total, total_over) = allocs_in(|| {
        for s in WARM_UP..WARM_UP + MEASURED {
            step(&mut ranks, s);
        }
    });
    // Whatever no named phase was charged for is "other".
    let mut tally = TALLY.with(|t| t.each_ref().map(Cell::get));
    let named = tally[1..].iter().fold((0, 0), |sum, p| (sum.0 + p.0, sum.1 + p.1));
    tally[OTHER] = (total - named.0, total_over - named.1);

    println!("{:<20} {:>12} {:>10} {:>13}", "phase", "allocations", "per call", "over-aligned");
    for ((name, per_step, _), (allocs, over)) in PHASES.iter().zip(tally) {
        let per_call = match per_step {
            0 => "-".to_string(),
            n => format!("{:.2}", allocs as f64 / (n * MEASURED) as f64),
        };
        println!("{name:<20} {allocs:>12} {per_call:>10} {over:>13}");
    }
    for ((name, per_step, ceiling), (allocs, over)) in PHASES.iter().zip(tally) {
        if let Some(ceiling) = ceiling {
            let calls = ((*per_step).max(1) * MEASURED) as f64;
            assert!(
                allocs as f64 / calls <= *ceiling,
                "{name}: {allocs} allocations over {calls} calls, ceiling {ceiling} per call"
            );
        }
        assert_eq!(over, 0, "{name}: an over-aligned allocation in steady state");
    }
}
