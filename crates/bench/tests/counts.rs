//! Exact counts where wall-clock ratio gates used to stand.
//!
//! A ratio of two timed floods moves with the host's weather and with
//! whichever arm got cheaper last; a count of heap allocations,
//! descriptors, packets, copies or seeded RAS events moves only when the
//! code does. Each test runs one fixed single-driver program, pins the
//! numbers it produces and asserts the inequality the retired gate stood
//! for (TRIALS.md has the table and, per test, the one-line mutation
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
    /// Bytes those allocations asked for.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Allocations aligned beyond what `malloc` gives for free.
    static OVER_ALIGNED: Cell<u64> = const { Cell::new(0) };
}

impl Counting {
    fn note(layout: Layout, bytes: usize) {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + bytes as u64));
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
        Self::note(layout, layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout, layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(layout, new_size);
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

/// Heap bytes `f` asked for on this thread.
fn bytes_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
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
/// the descriptor — and neither
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

/// A rendezvous `send` makes one allocation on either transport: its RTS
/// body, written once into the buffer the packet or mailbox message
/// carries. Parking the source allocates nothing once the sending
/// context's table has grown. Time half: `halo_mixed`'s 16 KiB sends.
#[test]
fn rendezvous_send_allocates_once_on_either_transport() {
    const N: u64 = 256;
    let policy = StaticPolicy::with_short(128, 2048);
    let mut rig = Rig::new(Machine::with_nodes(2).protocol_policy(policy));
    let counts = flood_counts(&mut rig, N, &region(4096));
    // Three descriptors per send — the RTS, the target's remote get and
    // the put-back it carries — and one packet, the RTS.
    assert_eq!(counts, expect([0, 0, N], [3 * N, N, 0], N));
    // On-node the RTS rides the mailbox and the target copies straight out
    // of the parked source: no MU traffic at all.
    let mut rig = Rig::new(Machine::with_nodes(1).ppn(2).protocol_policy(policy));
    let shm_before = counters(&rig.machine, ["ctx.sends_shm"]);
    let counts = flood_counts(&mut rig, N, &region(4096));
    let shm = delta(counters(&rig.machine, ["ctx.sends_shm"]), shm_before);
    assert_eq!(counts, expect([0; 3], [0; 3], N));
    // `flood_counts` floods twice: a warm-up, then the measured flood.
    assert_eq!(shm, [if cfg!(feature = "telemetry") { 2 * N } else { 0 }]);
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
            // Short or eager, a send is complete on return: neither waits
            // for an ack.
            let done = Counter::new();
            done.add_expected(len as u64);
            rig.send(1, immediate(len), Some(done.clone()));
            assert!(done.is_complete() && rig.machine.fabric().links_idle(0));
            assert_eq!(rig.machine.telemetry().snapshot().layer_total("ras"), 0);
            let (events, overflowed) = rig.machine.fabric().ras_events();
            assert!(events.is_empty() && overflowed == 0, "RAS ring stays empty");
        }
    }
    // A one-sided op that passes every die is one delivery action: under a
    // clean plan a 16 KiB put is one copy, not 32 frames.
    for len in [ONE_SIDED_LEN, 4 * ONE_SIDED_LEN] {
        let bare = one_sided_counts(Machine::with_nodes(2), len);
        let plan = one_sided_counts(clean(), len);
        assert_eq!(plan.4, bare.4, "{len} B: allocations inside advance");
        assert_eq!(plan, bare, "{len} B");
    }
}

/// What the one-sided program did: `[ctx.puts, ctx.gets, ctx.rmws]`;
/// `mu.descriptors_executed` while its puts, its gets and its rmws ran;
/// `ONE_SIDED_MU`; allocations inside the `put`, `get` and `rmw` calls;
/// allocations inside `advance` while each batch ran to completion.
type OneSidedCounts = ([u64; 3], [u64; 3], [u64; 3], [u64; 3], [u64; 3]);

const ONE_SIDED_OPS: u64 = 64;
const ONE_SIDED_LEN: usize = 4096;
const ONE_SIDED_MU: [&str; 3] =
    ["mu.packets_injected", "mu.put_bytes_in", "mu.remote_gets_serviced"];

/// The `rma_mix` family from one driver on two nodes: 64 × `len` B `put`,
/// then 64 × `len` B `get`, then 64 fetch-adds with a reply slot, each batch
/// advanced to completion before the next. One op of each kind runs first
/// as a warm-up (channels, routes and queues are built on first use) and
/// is left out of every count.
fn one_sided_counts(builder: MachineBuilder, len: usize) -> OneSidedCounts {
    let machine = builder.build();
    let me = Client::create(&machine, 0, "count", 1);
    let peer = Client::create(&machine, 1, "count", 1);
    let window = WindowRef::base(machine.create_window(MemRegion::zeroed(len), None));
    let (local, prior) = (MemRegion::zeroed(len), MemRegion::zeroed(8));
    let done = Counter::new();
    // `ops` of `op`, then advance to completion: `(descriptors executed,
    // allocations inside the calls, allocations inside advance)`.
    let batch = |ops: u64, credit: u64, op: &dyn Fn(Counter) -> PamiResult<()>| {
        let [before] = counters(&machine, ["mu.descriptors_executed"]);
        let (mut allocs, mut advance_allocs) = (0, 0);
        for _ in 0..ops {
            done.add_expected(credit);
            let (issued, n, _) = allocs_in(|| op(done.clone()));
            issued.unwrap();
            allocs += n;
        }
        while !done.is_complete() {
            let ((), n, _) = allocs_in(|| {
                me.context(0).advance();
                peer.context(0).advance();
            });
            advance_allocs += n;
        }
        assert!(done.is_ok());
        let [after] = counters(&machine, ["mu.descriptors_executed"]);
        (after - before, allocs, advance_allocs)
    };
    let put = |done| {
        let payload = PayloadSource::Region { region: local.clone(), offset: 0, len };
        me.context(0).put(PutArgs { dest_task: 1, window, payload, local_done: Some(done) })
    };
    let get = |done| {
        let dst = MemSlot::base(local.clone());
        me.context(0).get(GetArgs { dest_task: 1, window, dst, len, done: Some(done) })
    };
    let rmw = |addend, done| {
        let result = Some(MemSlot::base(prior.clone()));
        let add = RmwArgs::fetch_add(1, window, addend);
        me.context(0).rmw(RmwArgs { result, done: Some(done), ..add })
    };
    batch(1, len as u64, &put);
    batch(1, len as u64, &get);
    batch(1, 1, &|done| rmw(0, done));
    let calls = counters(&machine, ["ctx.puts", "ctx.gets", "ctx.rmws"]);
    let mu = counters(&machine, ONE_SIDED_MU);
    let puts = batch(ONE_SIDED_OPS, len as u64, &put);
    let gets = batch(ONE_SIDED_OPS, len as u64, &get);
    let rmws = batch(ONE_SIDED_OPS, 1, &|done| rmw(1, done));
    assert_eq!(prior.read_i64(0) as u64, ONE_SIDED_OPS - 1, "the last add saw every earlier one");
    (
        delta(counters(&machine, ["ctx.puts", "ctx.gets", "ctx.rmws"]), calls),
        [puts.0, gets.0, rmws.0],
        delta(counters(&machine, ONE_SIDED_MU), mu),
        [puts.1, gets.1, rmws.1],
        [puts.2, gets.2, rmws.2],
    )
}

/// ROADMAP item (b′): the one-sided family as counts. A put or an rmw is
/// one descriptor; a get is two — the request, and the put-back its
/// target serves as the request arrives — and none of them is a packet:
/// nothing reaches a reception FIFO. Time half: `rma_mix`.
#[test]
fn one_sided_ops_are_descriptors_not_packets() {
    const N: u64 = ONE_SIDED_OPS;
    let bytes = N * ONE_SIDED_LEN as u64;
    let (calls, descriptors, mu, allocs, advance_allocs) =
        one_sided_counts(Machine::with_nodes(2), ONE_SIDED_LEN);
    // A get boxes the put-back descriptor it carries; nothing else allocates.
    assert_eq!(allocs, [0, N, 0]);
    assert_eq!(advance_allocs, [0, 0, 0]);
    if cfg!(feature = "telemetry") {
        assert_eq!(calls, [N, N, N]);
        assert_eq!(descriptors, [N, 2 * N, N]);
        // Bytes land by put and by put-back; the peer services each get once.
        assert_eq!(mu, [0, 2 * bytes, N]);
    }
}

/// Every way a task sends a point-to-point message: summed, one per
/// message whichever rung carried it.
const ALL_SENDS: [&str; 5] =
    ["ctx.sends_short", "ctx.sends_eager", "ctx.sends_rzv", "ctx.sends_shm", "ctx.sends_aggr"];

/// The long vector of the streaming allreduce: sixteen segments.
const LONG: usize = 64 * 1024;

/// Messages sent machine-wide by each operation of `passes[0]` on a world
/// geometry of `nodes` × `ppn` tasks without a classroute, then by each of
/// `passes[1]` after `optimize()`. An operation is `auto <kind>` (the
/// unforced entry point), `… 64 KiB`, or an algorithm name, forced where the
/// kind has a `*_named` door; the rest move 8 B (one element) per block.
fn collective_sends(
    nodes: usize,
    ppn: usize,
    passes: &[Vec<&'static str>; 2],
) -> [Vec<(&'static str, u64)>; 2] {
    use pami::coll::{self, names};
    use pami::{CollOp, DataType, Geometry, Topology};
    let machine = Machine::with_nodes(nodes).ppn(ppn).build();
    let sent = parking_lot::Mutex::new([Vec::new(), Vec::new()]);
    machine.run(|env| {
        let client = Client::create(&env.machine, env.task, "coll", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = Geometry::create(ctx, 1, Topology::world(env.machine.num_tasks() as u32));
        let (src, dst) = (MemRegion::zeroed(geom.size() * LONG), MemRegion::zeroed(geom.size() * LONG));
        let (src, dst) = ((&src, 0), (&dst, 0));
        let (sum, int) = (CollOp::Sum, DataType::Int64);
        let allreduce =
            |name: &str, count| coll::allreduce_named(&geom, ctx, name, src, dst, count, sum, int);
        let run = |op: &str| match op {
            "auto barrier" => coll::barrier(&geom, ctx),
            "auto broadcast" => coll::broadcast(&geom, ctx, 0, src.0, 0, 8),
            "auto allreduce" => coll::allreduce(&geom, ctx, src, dst, 1, sum, int),
            "sw-stream-allreduce 64 KiB" => allreduce(names::STREAM_ALLREDUCE, LONG / 8),
            names::GI_BARRIER | names::COLLNET_BARRIER => coll::barrier_named(&geom, ctx, op),
            names::HW_BCAST | names::SW_BCAST => {
                coll::broadcast_named(&geom, ctx, op, 0, src.0, 0, 8)
            }
            names::HW_ALLREDUCE | names::SW_ALLREDUCE | names::STREAM_ALLREDUCE => allreduce(op, 1),
            names::SW_REDUCE => coll::reduce(&geom, ctx, 0, src, dst, 1, sum, int),
            names::SW_GATHER => coll::gather(&geom, ctx, 0, src, dst, 8),
            names::SW_SCATTER => coll::scatter(&geom, ctx, 0, src, dst, 8),
            names::SW_ALLGATHER => coll::allgather(&geom, ctx, src, dst, 8),
            names::SW_ALLTOALL => coll::alltoall(&geom, ctx, src, dst, 8),
            other => panic!("no collective operation {other:?}"),
        };
        for (pass, ops) in passes.iter().enumerate() {
            if pass == 1 {
                geom.optimize().expect("the world is a rectangle");
            }
            for &op in ops {
                // Nobody sends while the counters are read: every task is
                // parked or past its last send.
                env.machine.task_barrier();
                let before = counters(&env.machine, ALL_SENDS);
                env.machine.task_barrier();
                run(op);
                env.machine.task_barrier();
                if env.task == 0 {
                    let after = counters(&env.machine, ALL_SENDS);
                    sent.lock()[pass].push((op, delta(after, before).iter().sum()));
                }
            }
        }
    });
    sent.into_inner()
}

/// ROADMAP item 3(a), first instalment: what each collective algorithm
/// sends, as a closed form in the member count N. The collective-network
/// and GI algorithms send no point-to-point message; a binomial tree sends
/// N−1, a binomial allreduce two trees, the streaming chain two chains per
/// 4 KiB segment, a ring allgather and a pairwise alltoall N(N−1). An
/// unforced call sends what the algorithm auto-selection names for the
/// geometry's state. TRIALS.md has one red-turning mutation per row.
#[test]
fn collectives_send_closed_form_message_counts() {
    use pami::coll::names;
    for (nodes, ppn) in [(4, 1), (2, 2)] {
        let n = (nodes * ppn) as u64;
        let (tree, two_trees, everyone) = (n - 1, 2 * (n - 1), n * (n - 1));
        // ⌈len / 4096⌉: the chain cuts a vector into 4 KiB segments.
        let segments = LONG.div_ceil(4096) as u64;
        // (operation, unrouted — `None`: it needs a classroute —, routed)
        let table: [(&str, Option<u64>, u64); 16] = [
            ("auto barrier", Some(0), 0),
            (names::GI_BARRIER, Some(0), 0),
            (names::COLLNET_BARRIER, None, 0),
            ("auto broadcast", Some(tree), 0),
            (names::HW_BCAST, None, 0),
            (names::SW_BCAST, Some(tree), tree),
            ("auto allreduce", Some(two_trees), 0),
            (names::HW_ALLREDUCE, None, 0),
            (names::SW_ALLREDUCE, Some(two_trees), two_trees),
            (names::STREAM_ALLREDUCE, Some(two_trees), two_trees),
            ("sw-stream-allreduce 64 KiB", Some(two_trees * segments), two_trees * segments),
            (names::SW_REDUCE, Some(tree), tree),
            (names::SW_GATHER, Some(tree), tree),
            (names::SW_SCATTER, Some(tree), tree),
            (names::SW_ALLGATHER, Some(everyone), everyone),
            (names::SW_ALLTOALL, Some(everyone), everyone),
        ];
        let telemetry = |sends: u64| if cfg!(feature = "telemetry") { sends } else { 0 };
        let unrouted = table.iter().filter_map(|&(op, sends, _)| Some((op, telemetry(sends?))));
        let routed = table.iter().map(|&(op, _, sends)| (op, telemetry(sends)));
        let want: [Vec<_>; 2] = [unrouted.collect(), routed.collect()];
        let passes = want.clone().map(|pass| pass.into_iter().map(|(op, _)| op).collect());
        let got = collective_sends(nodes, ppn, &passes);
        println!("{nodes} nodes × ppn {ppn}: {got:?}");
        assert_eq!(got, want, "{nodes} nodes × ppn {ppn}: [unrouted, routed]");
    }
}

/// Heap bytes each member's thread asked for inside one `op` — a 64 KiB
/// `sw-binomial-bcast` from rank 0, or a ring `allgather` of 64 KiB blocks
/// — on a world geometry of four nodes, after one warm-up call of the
/// same: `(member, bytes, messages received)`.
fn collective_receive_bytes(op: &'static str) -> Vec<(u32, u64, u64)> {
    use pami::coll::{self, names};
    use pami::{Geometry, Topology};
    let machine = Machine::with_nodes(4).build();
    let seen = parking_lot::Mutex::new(Vec::new());
    machine.run(|env| {
        let client = Client::create(&env.machine, env.task, "coll", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = Geometry::create(ctx, 1, Topology::world(env.machine.num_tasks() as u32));
        let n = geom.size();
        let (src, dst) = (MemRegion::zeroed(LONG), MemRegion::zeroed(n * LONG));
        let run = || match op {
            names::SW_BCAST => coll::broadcast_named(&geom, ctx, op, 0, &dst, 0, LONG),
            names::SW_ALLGATHER => coll::allgather(&geom, ctx, (&src, 0), (&dst, 0), LONG),
            other => panic!("no receive-side count for {other:?}"),
        };
        let received = match op {
            names::SW_BCAST => u64::from(env.task != 0),
            _ => n as u64 - 1,
        };
        run();
        env.machine.task_barrier();
        let ((), bytes) = bytes_in(run);
        seen.lock().push((env.task, bytes, received));
    });
    let mut seen = seen.into_inner();
    seen.sort_unstable();
    seen
}

/// A software collective's receive lands in the buffer its caller posted:
/// a receiving member's thread allocates no heap byte per payload byte,
/// only a fixed amount per message (the router's completion closure, a
/// rendezvous pull's counter and descriptors). Measured on a 64 KiB
/// binomial broadcast and a ring allgather of 64 KiB blocks, where a
/// staging region per message would show as a whole byte per byte.
#[test]
fn a_posted_collective_receive_allocates_no_byte_per_payload_byte() {
    use pami::coll::names;
    /// Heap bytes a member may ask for per message it receives.
    const PER_MESSAGE: u64 = 512;
    for op in [names::SW_BCAST, names::SW_ALLGATHER] {
        let seen = collective_receive_bytes(op);
        println!("{op}: (member, heap bytes, messages received) {seen:?}");
        for (member, bytes, received) in seen {
            let payload = received * LONG as u64;
            assert!(
                bytes <= PER_MESSAGE * received.max(1),
                "{op}: member {member} asked for {bytes} heap bytes receiving {payload} payload \
                 bytes ({:.2} per byte)",
                bytes as f64 / payload.max(1) as f64
            );
        }
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

/// The `halo_mixed` step from one driver — under `plan`, `halo_lossy`'s:
/// 4 nodes × 2 tasks on a periodic 2×2×2 grid (the neighbour in dimension
/// `d` of task `t` is `t ^ 1 << d`; dimension 0 stays on the node), each
/// task sending 64 B immediate, 2 KiB and 16 KiB region payloads to its
/// three neighbours per step, the region sends under one local completion
/// counter per task. Every payload opens with its step number, so a
/// receiver sees a lost, duplicated or reordered message as a wrong
/// number. Returns `LOSSY_HISTORY`, the RAS ring's events plus overflow,
/// and the fewest and most sweeps (one `advance` of every task) a step
/// took.
fn halo_history(plan: Option<FaultPlan>, steps: u64) -> ([u64; 6], u64, [u64; 2]) {
    const TASKS: usize = 8;
    const DIMS: usize = 3;
    const SIZES: [usize; 3] = [64, 2048, 16 * 1024];
    let mut builder = Machine::with_nodes(4).ppn(2);
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan);
    }
    let machine = builder.build();
    let clients: Vec<_> =
        (0..TASKS as u32).map(|t| Client::create(&machine, t, "halo", 1)).collect();
    // Per (receiver, dimension, size): messages arrived so far.
    let lane = |t: usize, d: usize, k: usize| (t * DIMS + d) * SIZES.len() + k;
    let arrived: Arc<Vec<AtomicU64>> =
        Arc::new((0..TASKS * DIMS * SIZES.len()).map(|_| AtomicU64::new(0)).collect());
    let bad = Arc::new(AtomicU64::new(0));
    // One arrival on `lane` whose payload opens with `head`.
    let note = {
        let (arrived, bad) = (Arc::clone(&arrived), Arc::clone(&bad));
        move |lane: usize, head: &[u8]| {
            let want = arrived[lane].fetch_add(1, Ordering::Relaxed);
            if head[..8] != want.to_le_bytes() {
                bad.fetch_add(1, Ordering::Relaxed);
            }
        }
    };
    let sinks: Vec<MemRegion> = (0..TASKS * DIMS * SIZES.len())
        .map(|i| MemRegion::zeroed(SIZES[i % SIZES.len()]))
        .collect();
    let sources: Vec<MemRegion> = sinks.iter().map(|s| MemRegion::zeroed(s.len())).collect();
    for (t, client) in clients.iter().enumerate() {
        for k in 0..SIZES.len() {
            let (note, sinks) = (note.clone(), sinks.clone());
            client.context(0).set_dispatch(
                k as u16,
                Arc::new(move |_: &Context, msg, first| {
                    let index = lane(t, (t as u32 ^ msg.src.task).trailing_zeros() as usize, k);
                    if first.len() as u64 == msg.len {
                        note(index, first);
                        return Recv::Done;
                    }
                    let (note, sink) = (note.clone(), sinks[index].clone());
                    Recv::Into {
                        region: sink.clone(),
                        offset: 0,
                        on_complete: Box::new(move |_, result| {
                            result.unwrap();
                            let mut head = [0u8; 8];
                            sink.read(0, &mut head);
                            note(index, &head);
                        }),
                    }
                }),
            );
        }
    }
    let done: Vec<Counter> = (0..TASKS).map(|_| Counter::new()).collect();
    let mut sweeps = [u64::MAX, 0];
    for step in 0..steps {
        for (t, client) in clients.iter().enumerate() {
            let ctx = client.context(0);
            done[t].add_expected((DIMS * (SIZES[1] + SIZES[2])) as u64);
            for d in 0..DIMS {
                let peer = t ^ 1 << d;
                let mut small = [0u8; 64];
                small[..8].copy_from_slice(&step.to_le_bytes());
                ctx.send_immediate(Endpoint::of_task(peer as u32), 0, b"", &small).unwrap();
                for k in 1..SIZES.len() {
                    let source = &sources[lane(peer, d, k)];
                    source.write(0, &step.to_le_bytes());
                    let (region, len) = (source.clone(), SIZES[k]);
                    ctx.send(SendArgs {
                        dest: Endpoint::of_task(peer as u32),
                        dispatch: k as u16,
                        metadata: Vec::new(),
                        payload: PayloadSource::Region { region, offset: 0, len },
                        local_done: Some(done[t].clone()),
                    })
                    .unwrap();
                }
            }
        }
        let step_done = || {
            arrived.iter().all(|a| a.load(Ordering::Relaxed) > step)
                && done.iter().all(Counter::is_complete)
        };
        for sweep in 0.. {
            if step_done() {
                sweeps = [sweeps[0].min(sweep), sweeps[1].max(sweep)];
                break;
            }
            assert!(sweep < 100_000, "step {step} stopped making progress");
            for client in &clients {
                client.context(0).advance();
            }
        }
    }
    // A duplicate would turn up in these sweeps and push a lane past `steps`.
    for _ in 0..64 {
        for client in &clients {
            client.context(0).advance();
        }
    }
    assert!(arrived.iter().all(|a| a.load(Ordering::Relaxed) == steps), "exactly once");
    assert_eq!(bad.load(Ordering::Relaxed), 0, "every lane in step order");
    assert!(done.iter().all(Counter::is_ok), "every region send completed without a fault");
    let (events, overflowed) = machine.fabric().ras_events();
    (counters(&machine, LOSSY_HISTORY), events.len() as u64 + overflowed, sweeps)
}

/// `halo_history` under 1% drop + 1% corrupt, seeded.
fn lossy_halo_history(seed: u64, steps: u64) -> ([u64; 6], u64, [u64; 2]) {
    halo_history(Some(FaultPlan::new().seed(seed).drop_rate(0.01).corrupt_rate(0.01)), steps)
}

const LOSSY_HISTORY: [&str; 6] = [
    "ras.retransmits",
    "ras.sack_retransmits",
    "ras.crc_errors",
    "mu.packets_dropped",
    "ras.reorder_depth",
    "ras.delivery_failures",
];

/// The multi-frame half of the hostile history: `halo_lossy`'s step, where
/// a 2 KiB eager message is 4 frames and a 16 KiB rendezvous put-back 32,
/// so how a message is split between frames that cross at once and frames
/// that queue is visible in every number. 400 steps per seed under 1% drop
/// + 1% corrupt and the default retry shape. Time half: `halo_lossy`.
///
/// Each message is admitted inside the call that initiates it: `send`, or
/// for a rendezvous put-back the get that the receiver's `advance` issues,
/// whose request the sender's node serves on arrival — at once if it
/// crossed, else when the pump that delivered it returns. That fixes where
/// its frames fall in its channel's sequence space.
#[test]
fn lossy_halo_history_is_pinned_and_delivers_exactly_once() {
    // (seed, `LOSSY_HISTORY`, RAS ring events + overflow)
    const PINS: [(u64, [u64; 6], u64); 3] = [
        (1, [6263, 6129, 2549, 2497, 57_102, 0], 11_309),
        (2, [6275, 6117, 2575, 2540, 56_998, 0], 11_390),
        (3, [6374, 6217, 2589, 2584, 58_140, 0], 11_547),
    ];
    let runs = PINS.map(|(seed, ..)| lossy_halo_history(seed, 400));
    for ((seed, history, ring), (got, got_ring, _)) in PINS.into_iter().zip(runs) {
        println!("seed {seed}: {LOSSY_HISTORY:?} = {got:?}, ring {got_ring}");
        assert_eq!(got_ring, ring, "seed {seed}: RAS ring events + overflow");
        if cfg!(feature = "telemetry") {
            assert_eq!(got, history, "seed {seed}");
        }
    }
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
    // Two per frame cut inside `send` (its one payload copy and its header
    // metadata), plus the seven buckets' buffers and two bucket-map
    // growths, once: 0.19 per message. With the probes compiled in, one
    // more: the thread's stripe of `aggr.added_latency_ns`, allocated on
    // its first record.
    assert_eq!((on_allocs, off_allocs), (3091 + u64::from(bgq_upc::ENABLED), 0));
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

/// A descriptor moves when it is injected: an eager send, a rendezvous
/// send (its RTS), a `put`, an `rmw` and a channel `post` each execute
/// exactly one descriptor inside the call, and a `get` two — its request,
/// and the put-back its target serves as the request arrives. Neither
/// side's next `advance` executes any, bar the rendezvous target's, which
/// answers the RTS with a get and its put-back: there is no injection
/// queue and no system FIFO to pump. Time half: `rma_mix`'s
/// `pami.{put,get,rmw}_ns` against its `pami.advance_ns`.
#[test]
fn every_descriptor_moves_inside_its_call() {
    let rig = Rig::new(Machine::with_nodes(2).protocol_policy(StaticPolicy::with_short(128, 1024)));
    let (me, peer) = (rig.sender.context(0), rig.receivers[0].context(0));
    let window = WindowRef::base(rig.machine.create_window(MemRegion::zeroed(4096), None));
    let local = MemRegion::zeroed(4096);
    let region = |len| PayloadSource::Region { region: local.clone(), offset: 0, len };
    let chan = std::cell::RefCell::new(me.channel(Endpoint::of_task(1), 64).unwrap());
    let mut back = peer.channel(Endpoint::of_task(0), 64).unwrap();
    let settle = || {
        while !me.is_quiescent() || !peer.is_quiescent() {
            rig.advance();
        }
    };
    // Once the offers have landed, each end's first post binds it.
    settle();
    back.post(&[0; 64]).unwrap();
    chan.borrow_mut().post(&[0; 64]).unwrap();
    let send = |len| {
        let (dest, metadata, payload) = (Endpoint::of_task(1), Vec::new(), region(len));
        me.send(SendArgs { dest, dispatch: 1, metadata, payload, local_done: None })
    };
    let (dst, len) = (MemSlot::base(local.clone()), 4096);
    // (operation, descriptors inside the call, in the target's advance)
    type Op<'a> = &'a dyn Fn() -> PamiResult<()>;
    let ops: [(&str, u64, u64, Op); 6] = [
        ("eager send", 1, 0, &|| send(512)),
        ("rendezvous send", 1, 2, &|| send(2048)),
        ("put", 1, 0, &|| {
            me.put(PutArgs { dest_task: 1, window, payload: region(len), local_done: None })
        }),
        ("get", 2, 0, &|| {
            me.get(GetArgs { dest_task: 1, window, dst: dst.clone(), len, done: None })
        }),
        ("rmw", 1, 0, &|| me.rmw(RmwArgs::fetch_add(1, window, 1))),
        ("channel post", 1, 0, &|| chan.borrow_mut().post(&[1; 64])),
    ];
    let executed = || counters(&rig.machine, ["mu.descriptors_executed"])[0];
    let telemetry = |n: u64| if cfg!(feature = "telemetry") { n } else { 0 };
    for (name, inside, at_target, op) in ops {
        let before = executed();
        op().unwrap();
        assert_eq!(executed() - before, telemetry(inside), "{name}: descriptors inside the call");
        me.advance();
        let owner = "the owner's advance executes none";
        assert_eq!(executed() - before, telemetry(inside), "{name}: {owner}");
        peer.advance();
        let all = telemetry(inside + at_target);
        assert_eq!(executed() - before, all, "{name}: descriptors in the target's advance");
        settle();
    }
}

/// A lossless off-node rendezvous receive completes inside the `advance`
/// that handles its RTS: the get the receiver injects there has its
/// put-back land before `inject` returns, so the receive's callback runs
/// at once and that `advance` counts one event, the RTS packet. While
/// every pull waited for `advance`'s rendezvous-completion poll it counted
/// 2: the packet, then the poll's completion.
#[test]
fn a_lossless_rendezvous_receive_completes_with_its_rts() {
    let rig = Rig::new(Machine::with_nodes(2).protocol_policy(StaticPolicy::with_short(128, 1024)));
    let (me, peer) = (rig.sender.context(0), rig.receivers[0].context(0));
    let (dest, metadata) = (Endpoint::of_task(1), Vec::new());
    me.send(SendArgs { dest, dispatch: 1, metadata, payload: region(2048), local_done: None })
        .unwrap();
    assert_eq!(peer.advance(), 1, "the RTS packet, and nothing left to poll for");
    assert_eq!(rig.got.load(Ordering::Relaxed), 1, "the receive completed inside that advance");
    assert!(peer.is_quiescent());
}

/// A lossless `halo_mixed` step from one driver takes exactly one sweep
/// of `advance` over the eight tasks: every message is in flight when its
/// call returns, and the sweep dispatches the arrivals and answers each
/// RTS with a get whose put-back the target serves inside that call, so
/// the same `advance` completes the rendezvous receive. Time half:
/// `halo_mixed`.
#[test]
fn a_lossless_halo_step_takes_one_sweep() {
    let (_, _, sweeps) = halo_history(None, 50);
    assert_eq!(sweeps, [1, 1], "fewest and most sweeps a step took");
}

/// The engine of `chaos --soak` / `--replay` on one fixed seed of the
/// soak's plan: its mixed stream splits messages, and the receiver's
/// sequence check finds no message duplicated, reordered or crossed with
/// another's tail.
#[test]
fn chaos_soak_stream_arrives_exactly_once_in_order() {
    let retry = RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 8, retry_budget: 64 };
    let plan = FaultPlan::new().seed(2121).drop_rate(0.01).corrupt_rate(0.01).retry(retry);
    let stats = pami_bench::measure_chaos_rate(plan, 3000);
    assert_eq!(stats.violations, 0);
    if cfg!(feature = "telemetry") {
        assert!(stats.retransmits > 0, "the plan was hostile");
    }
}

/// A ping-pong between tasks 0 and 1 of a two-node machine: one round
/// trip per call.
type PingPong = (Arc<Machine>, Box<dyn FnMut()>);

/// PAMI, 1 B each way: `send_immediate`, or `send` of an immediate payload.
fn pami_ping_pong(immediate: bool) -> PingPong {
    let machine = Machine::with_nodes(2).build();
    let ends = [0, 1].map(|t| Client::create(&machine, t, "pp", 1));
    let got = Arc::new(AtomicU64::new(0));
    for end in &ends {
        let got = Arc::clone(&got);
        end.context(0).set_dispatch(
            1,
            Arc::new(move |_: &Context, _, _| {
                got.fetch_add(1, Ordering::Relaxed);
                Recv::Done
            }),
        );
    }
    let round_trip = move || {
        for (from, to) in [(0, 1), (1, 0)] {
            let want = got.load(Ordering::Relaxed) + 1;
            let ctx = ends[from].context(0);
            let dest = Endpoint::of_task(to as u32);
            if immediate {
                ctx.send_immediate(dest, 1, b"", b"x").unwrap();
            } else {
                let payload = PayloadSource::Immediate(Bytes::from_static(b"x"));
                let metadata = Vec::new();
                ctx.send(SendArgs { dest, dispatch: 1, metadata, payload, local_done: None })
                    .unwrap();
            }
            while got.load(Ordering::Relaxed) < want {
                ctx.advance();
                ends[to].context(0).advance();
            }
        }
    };
    (machine, Box::new(round_trip))
}

/// MPI, 8 B each way: the receiver posts an `irecv`, the sender `send`s,
/// the receiver advances to completion and `test`s.
fn mpi_ping_pong() -> PingPong {
    let machine = Machine::with_nodes(2).build();
    let ends = [0, 1].map(|t| Mpi::init(&machine, t, MpiConfig::default()));
    let bufs = [0, 1].map(|_| MemRegion::zeroed(8));
    let round_trip = move || {
        for (from, to) in [(0, 1), (1, 0)] {
            let (tx, rx) = (&ends[from], &ends[to]);
            let r = rx.irecv(&bufs[to], 0, 8, from as i32, 1, rx.world());
            tx.send(&bufs[from], 0, 8, to, 1, tx.world());
            while !rx.request_complete(r) {
                rx.advance();
            }
            rx.test(r);
        }
    };
    (machine, Box::new(round_trip))
}

/// `ROUND_TRIPS` round trips (after a warm-up of 64, so every sampled
/// packet window is whole) and what `read` and the allocator count over
/// them, divided down to one half. Slot 0 of `read`'s array is for the
/// allocations.
fn per_half_round_trip<const N: usize>(
    (machine, mut round_trip): PingPong,
    read: impl Fn(&Machine) -> [u64; N],
) -> [u64; N] {
    const ROUND_TRIPS: u64 = 1024;
    for _ in 0..64 {
        round_trip();
    }
    let before = read(&machine);
    let ((), allocs, _) = allocs_in(|| (0..ROUND_TRIPS).for_each(|_| round_trip()));
    let mut after = read(&machine);
    after[0] += allocs;
    delta(after, before).map(|n| {
        assert_eq!(n % (2 * ROUND_TRIPS), 0, "a whole number per half round trip");
        n / (2 * ROUND_TRIPS)
    })
}

/// Retired: `tests/model_consistency.rs`'s wall-clock ordering "MPI half
/// round trip > 1.05 × PAMI's" over 600 timed round trips. The ordering is
/// structural — MPI is PAMI's short tier plus a request and a match — so
/// it is held as counts: a 1 B `send_immediate` ping-pong against an 8 B
/// MPI `send` / `irecv` ping-pong on two nodes, per half round trip
/// `[allocations, mu.descriptors_executed, mu.packets_injected, match.*
/// events]`. Time half: `pingpong_short` against `mpi_exchange`.
#[test]
fn mpi_half_round_trip_is_pamis_plus_a_match() {
    let read = |machine: &Machine| {
        let [descriptors, packets] =
            counters(machine, ["mu.descriptors_executed", "mu.packets_injected"]);
        [0, descriptors, packets, machine.telemetry().snapshot().layer_total("match")]
    };
    let pami = per_half_round_trip(pami_ping_pong(true), read);
    let mpi = per_half_round_trip(mpi_ping_pong(), read);
    // Both ride the short tier: no descriptor, one packet. PAMI copies the
    // immediate payload; MPI adds its request and posts and matches the
    // receive.
    let telemetry = |n: [u64; 4]| if cfg!(feature = "telemetry") { n } else { [n[0], 0, 0, 0] };
    assert_eq!(pami, telemetry([1, 0, 1, 0]));
    assert_eq!(mpi, telemetry([2, 0, 1, 2]));
    assert!(mpi.iter().zip(pami).all(|(&m, p)| m >= p) && mpi[0] > pami[0]);
}

/// The counts `bgq_netsim::p2p` composes Tables 1–2 and Figure 5 from,
/// held to the live stack: per half round trip of Table 1's two PAMI calls
/// and of an MPI ping-pong, and per message of a PAMI flood,
/// `[sends, receives, deliveries]` — `ctx.sends_*`, MPI receives posted or
/// matched from the unexpected queue, and `ctx.advance_events`.
#[test]
fn software_counts_are_the_live_stacks() {
    use bgq_netsim::p2p::counts::{DELIVERIES, RECEIVES, SENDS};
    const NAMES: [&str; 8] = [
        "ctx.sends_short",
        "ctx.sends_eager",
        "ctx.sends_rzv",
        "ctx.sends_aggr",
        "ctx.sends_shm",
        "match.posted_queued",
        "match.matched_unexpected",
        "ctx.advance_events",
    ];
    let read = |machine: &Machine| {
        let n = counters(machine, NAMES);
        [0, n[..5].iter().sum(), n[5] + n[6], n[7]]
    };
    let telemetry = |n: [u64; 3]| if cfg!(feature = "telemetry") { n } else { [0; 3] };
    for (call, immediate) in [("send_immediate", true), ("send", false)] {
        let [_, counts @ ..] = per_half_round_trip(pami_ping_pong(immediate), read);
        assert_eq!(counts, telemetry([SENDS, 0, DELIVERIES]), "PAMI {call}");
    }
    let [_, counts @ ..] = per_half_round_trip(mpi_ping_pong(), read);
    assert_eq!(counts, telemetry([SENDS, RECEIVES, DELIVERIES]), "MPI");

    // Figure 5's flood: 8 B sends to one peer at `flood_short`'s cadence.
    const MSGS: u64 = 1024;
    let mut rig = Rig::new(Machine::with_nodes(2));
    let payload = immediate(8);
    rig.flood(64, &payload);
    let before = read(&rig.machine);
    rig.flood(MSGS, &payload);
    let [_, counts @ ..] = delta(read(&rig.machine), before);
    assert_eq!(counts, telemetry([SENDS, 0, DELIVERIES].map(|n| n * MSGS)), "PAMI flood");
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

/// What recovery allocates: the `halo_lossy` step of
/// `lossy_halo_history`, 100 steps of seed 1, counted on the one thread
/// that drives it. A message queued behind a loss is one retransmit-queue
/// entry whose payload is staged, when its counter asks, in one buffer;
/// the frames behind the loss add protocol state to a ring and allocate
/// nothing of their own. When a queued frame owned its own copy of its
/// message's header, counters and staged window, the same run made
/// 20 334 allocations (19 962 with telemetry compiled out). The count
/// includes building the machine; while each of its 8 contexts allocated a
/// set of injection FIFOs and a one-element list of reception FIFO ids, it
/// was 16 more: 19 369 (18 997). While each node queued the gets it served
/// in a system FIFO and small machines kept a dense channel table, it was
/// 19 353 (18 981). While each channel built its deterministic route a
/// second time, for admission's dice peek outside the channel lock, it was
/// 19 350 (18 978).
#[test]
fn lossy_halo_allocations_are_pinned() {
    let ((_, ring, _), allocs, _) = allocs_in(|| lossy_halo_history(1, 100));
    println!("lossy halo, seed 1, 100 steps: {allocs} allocations, ring {ring}");
    assert_eq!(allocs, if cfg!(feature = "telemetry") { 19_302 } else { 18_930 });
}
