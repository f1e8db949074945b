//! The seven workloads. Each drives the default product build through its
//! public API from one driver thread that owns every task's client and
//! advances the contexts round-robin, so a small shared host measures the
//! program and not the scheduler.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pami::context::DispatchFn;
use pami::{Context, IncomingMsg, Machine, Recv};

use crate::gen::{Pool, POOL_ENTRIES, SAMPLE_EVERY};
use crate::trace::{self, now_ns, SpanId};

mod halo;
mod mpi;
mod pingpong;
mod rma;
mod spray;

/// What one timed round did.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundOut {
    /// Operations completed and verified.
    pub ops: u64,
    /// Operations attempted that were not delivered exactly once with the
    /// right bytes (a typed error from the library counts).
    pub failed: u64,
}

/// A workload, set up and ready to run rounds.
pub trait Workload {
    /// The machine, for telemetry snapshots.
    fn machine(&self) -> &Arc<Machine>;

    /// Seconds spent building the machine and the clients alone.
    fn build_s(&self) -> f64;

    /// Run `units` units of work (messages, half round trips or steps) to
    /// completion. Everything in here is inside the timed region,
    /// including the handlers' byte checks.
    fn round(&mut self, units: u64) -> RoundOut;

    /// Every context the workload drives.
    fn contexts(&self) -> Vec<&Arc<Context>>;

    /// Whether the delivered counts are exact, as a number of failures
    /// (see [`settle`]).
    fn miscounted(&mut self) -> u64;

    /// Move the delivery-time samples (ns) collected since the last call.
    fn drain_samples(&mut self, into: &mut Vec<f64>);
}

/// After a round, outside the timed region: advance every context 64 more
/// sweeps and check the delivered counts are exact, so a late duplicate
/// shows as well as a loss. Returns the number of failures.
pub fn settle(w: &mut dyn Workload) -> u64 {
    for _ in 0..64 {
        for ctx in w.contexts() {
            ctx.advance();
        }
    }
    w.miscounted()
}

/// (overflow pushes, total pushes) over the shared-memory mailboxes of
/// every context of `w`, since its machine was built.
pub fn mailbox_pushes(w: &dyn Workload) -> (u64, u64) {
    w.contexts().into_iter().fold((0, 0), |(o, t), c| {
        let q = &c.mailbox().queue;
        (o + q.overflow_pushes(), t + q.total_pushes())
    })
}

/// A workload's fixed description.
pub struct Spec {
    pub name: &'static str,
    /// Units per timed round, sized for about 50 ms on the commit that
    /// introduced the benchmark and frozen since. Rounds are short and many
    /// on purpose: the host's slow spells last from a tenth of a second to
    /// a few seconds, and the median of a few hundred short rounds sits on
    /// the undisturbed level where the median of twenty long ones does not.
    pub units_per_round: u64,
    /// Operations one unit counts for.
    pub ops_per_unit: u64,
    /// Payload sizes the workload sends, for the isolated probes.
    pub size_mix: &'static [usize],
    pub setup: fn(u64) -> Box<dyn Workload>,
}

pub const SPECS: [Spec; 7] = [
    Spec {
        name: "pingpong_short",
        units_per_round: 200_000,
        ops_per_unit: 1,
        size_mix: &[32],
        setup: |seed| Box::new(pingpong::PingPong::setup(seed)),
    },
    Spec {
        name: "flood_short",
        units_per_round: 300_000,
        ops_per_unit: 1,
        size_mix: &[8],
        setup: |seed| Box::new(spray::Spray::setup(seed, &spray::FLOOD)),
    },
    Spec {
        name: "scatter_aggr",
        units_per_round: 400_000,
        ops_per_unit: 1,
        size_mix: &[16, 24, 32, 40, 48, 56, 64],
        setup: |seed| Box::new(spray::Spray::setup(seed, &spray::SCATTER)),
    },
    Spec {
        name: "halo_mixed",
        units_per_round: 400,
        ops_per_unit: halo::MSGS_PER_STEP,
        size_mix: &halo::SIZES,
        setup: |seed| Box::new(halo::Halo::setup(seed, false)),
    },
    Spec {
        name: "halo_lossy",
        units_per_round: 120,
        ops_per_unit: halo::MSGS_PER_STEP,
        size_mix: &halo::SIZES,
        setup: |seed| Box::new(halo::Halo::setup(seed, true)),
    },
    Spec {
        name: "mpi_exchange",
        units_per_round: 240,
        ops_per_unit: mpi::MSGS_PER_STEP,
        size_mix: &[mpi::MSG_BYTES],
        setup: |seed| Box::new(mpi::MpiExchange::setup(seed)),
    },
    Spec {
        name: "rma_mix",
        units_per_round: 7_000,
        ops_per_unit: rma::OPS_PER_STEP,
        size_mix: &[rma::PUT_BYTES, rma::CHAN_BYTES, 8],
        setup: |seed| Box::new(rma::RmaMix::setup(seed)),
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Gives up on a wait that makes no progress, so a lost message ends the
/// round as a failure instead of hanging the run.
pub struct Stall {
    idle_sweeps: u32,
}

impl Stall {
    /// Idle sweeps tolerated. A sweep is tens of nanoseconds; retransmit
    /// timers fire within 64 link-pump ticks, so this is many times the
    /// longest legitimate wait.
    const LIMIT: u32 = 1 << 22;

    pub fn new() -> Stall {
        Stall { idle_sweeps: 0 }
    }

    /// Note one sweep; `true` means stop waiting.
    #[inline]
    pub fn gave_up(&mut self, progressed: bool) -> bool {
        if progressed {
            self.idle_sweeps = 0;
        } else {
            self.idle_sweeps += 1;
        }
        self.idle_sweeps >= Self::LIMIT
    }
}

/// `ctx.advance()` inside an advance span.
#[inline(always)]
pub fn advance(ctx: &Context) -> usize {
    trace::advance_span(|| ctx.advance())
}

/// Seconds since `t0_ns` on the benchmark clock.
pub fn secs_since(t0_ns: u64) -> f64 {
    (now_ns() - t0_ns) as f64 / 1e9
}

/// Receive side of the small-message workloads: the handler every
/// receiving context registers, and the tallies the driver compares its own
/// against when a round ends.
pub struct Sink {
    pool: Pool,
    got: AtomicU64,
    /// Wrapping sum of the pool-entry indices received — with `got`, a
    /// loss and a duplicate cannot cancel out.
    sum: AtomicU64,
    bad: AtomicU64,
    /// Per receiving task, the last entry index seen: entries to one
    /// receiver come from one sender in send order, so indices only move
    /// forward (modulo the pool size).
    last: Vec<AtomicU32>,
    /// Send time of each sampled entry still in flight.
    sent_at: Vec<AtomicU64>,
    samples: Mutex<Vec<u32>>,
}

impl Sink {
    pub fn new(pool: Pool, tasks: usize) -> Arc<Sink> {
        Arc::new(Sink {
            pool,
            got: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            bad: AtomicU64::new(0),
            last: (0..tasks)
                .map(|_| AtomicU32::new(POOL_ENTRIES as u32 - 1))
                .collect(),
            sent_at: (0..POOL_ENTRIES / SAMPLE_EVERY)
                .map(|_| AtomicU64::new(0))
                .collect(),
            samples: Mutex::new(Vec::with_capacity(1 << 16)),
        })
    }

    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Call just before sending entry `j`: one entry in [`SAMPLE_EVERY`]
    /// has its send time noted, and the handler reads the clock at entry.
    #[inline]
    pub fn about_to_send(&self, j: usize) {
        if j.is_multiple_of(SAMPLE_EVERY) {
            self.sent_at[j / SAMPLE_EVERY].store(now_ns(), Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn got(&self) -> u64 {
        self.got.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Byte or order mismatches seen since the last call.
    pub fn take_bad(&self) -> u64 {
        self.bad.swap(0, Ordering::Relaxed)
    }

    pub fn drain_samples(&self, into: &mut Vec<f64>) {
        let mut s = self
            .samples
            .lock()
            .expect("handlers do not panic holding the lock");
        into.extend(s.iter().map(|&ns| f64::from(ns)));
        s.clear();
    }

    #[inline]
    fn on_message(&self, rx_task: u32, msg: &IncomingMsg, first: &[u8]) {
        // The entry index leads the payload (little-endian), so its low
        // byte says whether this is a sampled entry: read the clock at
        // handler entry for those, and only for those.
        let sampled = first
            .first()
            .is_some_and(|b| (*b as usize).is_multiple_of(SAMPLE_EVERY));
        let arrived = if sampled { now_ns() } else { 0 };
        self.got.fetch_add(1, Ordering::Relaxed);
        let Some(j) = self
            .pool
            .identify(first)
            .filter(|_| first.len() as u64 == msg.len)
        else {
            self.bad.fetch_add(1, Ordering::Relaxed);
            return;
        };
        self.sum.fetch_add(j as u64, Ordering::Relaxed);
        let last = self.last[rx_task as usize].swap(j as u32, Ordering::Relaxed) as usize;
        let gap = (j + POOL_ENTRIES - last) % POOL_ENTRIES;
        if gap == 0 || gap > POOL_ENTRIES / 2 {
            self.bad.fetch_add(1, Ordering::Relaxed);
        }
        if sampled {
            let sent = self.sent_at[j / SAMPLE_EVERY].load(Ordering::Relaxed);
            let mut s = self
                .samples
                .lock()
                .expect("handlers do not panic holding the lock");
            if s.len() < s.capacity() {
                s.push(arrived.saturating_sub(sent).min(u64::from(u32::MAX)) as u32);
            }
        }
    }

    /// The dispatch handler: check the bytes, tally, sample.
    pub fn handler(self: &Arc<Sink>) -> DispatchFn {
        let sink = Arc::clone(self);
        Arc::new(move |ctx: &Context, msg: &IncomingMsg, first: &[u8]| {
            trace::span(SpanId::Handler, || sink.on_message(ctx.task(), msg, first));
            Recv::Done
        })
    }
}

/// The sending side's own tallies, compared with the [`Sink`]'s when a
/// round settles.
#[derive(Default)]
pub struct SentTally {
    pub count: u64,
    pub sum: u64,
}

impl SentTally {
    #[inline]
    pub fn note(&mut self, j: usize) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(j as u64);
    }

    /// Failures the tallies show: messages missing or extra, or — counts
    /// equal — a different set of messages. A discrepancy is reported once:
    /// the tally then adopts the sink's view, so the next check starts
    /// clean (a lost message that turns up later is a surplus then).
    pub fn reconcile(&mut self, sink: &Sink) -> u64 {
        let diff = self.count.abs_diff(sink.got());
        let failed = if diff == 0 && self.sum != sink.sum() {
            1
        } else {
            diff
        };
        if failed > 0 {
            self.count = sink.got();
            self.sum = sink.sum();
        }
        failed
    }
}

/// The dispatch id every workload's own messages use.
pub const DISPATCH: u16 = 1;
