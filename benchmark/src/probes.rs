//! Isolated probes: one layer's public function timed alone, on the
//! workload's own size mix. They price a layer without the rest of the
//! stack around it, so a change there can be told from a change elsewhere.

use std::hint::black_box;

use bgq_hw::WorkQueue;
use bgq_mu::batch::{push_record, walk_records};
use bgq_torus::TorusShape;
use bytes::BytesMut;
use pami::Machine;

use crate::trace::now_ns;

/// Mean ns per iteration of `body` over `calls` iterations.
fn per_call(calls: u64, mut body: impl FnMut(u64)) -> f64 {
    let t0 = now_ns();
    for i in 0..calls {
        body(i);
    }
    (now_ns() - t0) as f64 / calls as f64
}

/// A `WorkQueue` push and the pop that takes it back — the pair every
/// `Context::post` and every shared-memory message pays.
pub fn queue_push_pop_ns() -> f64 {
    let q: WorkQueue<u64> = WorkQueue::with_capacity(256);
    per_call(1_000_000, |i| {
        q.push(black_box(i));
        black_box(q.pop());
    })
}

/// One `policy().select` call over the workload's sizes.
pub fn policy_select_ns(machine: &Machine, sizes: &[usize]) -> f64 {
    let policy = machine.policy();
    let peers = machine.num_tasks() as u64;
    per_call(1_000_000, |i| {
        let len = sizes[i as usize % sizes.len()];
        black_box(policy.select((i % peers) as u32, black_box(len)));
    })
}

/// CRC-32C of one 512 B packet payload.
pub fn crc32c_ns_per_512b() -> f64 {
    let packet: Vec<u8> = (0..512u32).map(|i| (i * 31) as u8).collect();
    per_call(200_000, |_| {
        black_box(bgq_mu::crc::crc32c(black_box(&packet)));
    })
}

/// The sizes of `sizes` that fit an aggregated record; 64 B when none do
/// (the workload sends nothing aggregatable, the probe still runs).
fn record_sizes(sizes: &[usize]) -> Vec<usize> {
    let fit: Vec<usize> = sizes.iter().copied().filter(|&s| s <= 128).collect();
    if fit.is_empty() {
        vec![64]
    } else {
        fit
    }
}

const FRAME_BYTES: usize = 512;

/// Pack records of `sizes` (cycled) into single-packet frames, calling
/// `on_full` with each frame as it fills; `n` records in all.
fn pack_frames(sizes: &[usize], n: u64, mut on_full: impl FnMut(BytesMut, u16)) {
    let payload = [0x5Au8; 128];
    let mut frame = BytesMut::with_capacity(FRAME_BYTES);
    let mut count = 0u16;
    for i in 0..n {
        let len = sizes[i as usize % sizes.len()];
        if frame.len() + bgq_mu::record_size(false, 0, len) > FRAME_BYTES {
            on_full(
                std::mem::replace(&mut frame, BytesMut::with_capacity(FRAME_BYTES)),
                count,
            );
            count = 0;
        }
        push_record(&mut frame, None, 1, &[], &payload[..len]);
        count += 1;
    }
}

/// Appending one record to an aggregated frame (frame turnover included).
pub fn batch_push_ns(sizes: &[usize]) -> f64 {
    const RECORDS: u64 = 1_000_000;
    let sizes = record_sizes(sizes);
    let t0 = now_ns();
    pack_frames(&sizes, RECORDS, |frame, _| {
        black_box(frame);
    });
    (now_ns() - t0) as f64 / RECORDS as f64
}

/// Walking one record of a full aggregated frame.
pub fn batch_walk_ns(sizes: &[usize]) -> f64 {
    let mut frames = Vec::new();
    pack_frames(&record_sizes(sizes), 1024, |frame, count| {
        frames.push((frame.freeze(), count))
    });
    let records: u64 = frames.iter().map(|(_, c)| u64::from(*c)).sum();
    let laps = 1_000_000 / records;
    per_call(laps, |_| {
        for (data, count) in &frames {
            walk_records(data, *count, false, |r| {
                black_box(r.payload.len());
            });
        }
    }) / records as f64
}

/// One deterministic dimension-ordered route across the machine's torus.
pub fn det_route_ns(shape: TorusShape) -> f64 {
    let nodes = shape.num_nodes();
    per_call(1_000_000, |i| {
        let src = shape.coords_of(i as usize % nodes);
        let dst = shape.coords_of((i as usize * 7 + 3) % nodes);
        black_box(bgq_torus::route::det_route(shape, src, dst));
    })
}

/// One telemetry snapshot of the whole machine.
pub fn snapshot_ns(machine: &Machine) -> f64 {
    per_call(200, |_| {
        black_box(machine.telemetry().snapshot());
    })
}

/// Nanoseconds of CPU this process has used. Round and set-up times are
/// taken on this clock, not the wall clock: on a shared host the hypervisor
/// takes the virtual CPU away for milliseconds at a time (`steal` in
/// `/proc/stat`), in spells that last minutes, and the guest kernel keeps
/// stolen time off this clock (`CONFIG_PARAVIRT_TIME_ACCOUNTING`), as it
/// does time lost to other processes of the guest. A driver that never
/// sleeps is on the CPU whenever it is allowed to be, so the two clocks
/// agree but for what was taken from it; `driver.off_cpu_share` says how
/// much that was. The process's clock, not the thread's: work moved to
/// another thread is still paid for.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid `struct timespec` for the call to fill in.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock is always there");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Without a CPU-time clock the wall clock has to do.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_ns() -> u64 {
    now_ns()
}

/// The memory witness: a fixed kernel — a dependent chase through a 1 MiB
/// table mixed with xorshift — that touches none of the program under test
/// and takes as long as the caches and the memory behind them let it. Read
/// before and after every round, it says what weather the round was
/// measured in (the harness keeps the quieter half of a run's rounds), and
/// its median tells host drift from a code change: if it moved and the code
/// did not, the host did.
pub struct HostCal {
    table: Vec<u32>,
}

impl HostCal {
    const SLOTS: usize = (1 << 20) / 4;
    // About half a millisecond: 1% of a round.
    const STEPS: usize = 20_000;

    pub fn new() -> HostCal {
        // One cycle through every slot (Sattolo's shuffle), from a fixed
        // seed: the kernel is the same on every run of every commit.
        let mut rng = crate::gen::Rng::new(0x686F_7374, 0);
        let mut table: Vec<u32> = (0..Self::SLOTS as u32).collect();
        for i in (1..Self::SLOTS).rev() {
            table.swap(i, rng.below(i as u64) as usize);
        }
        HostCal { table }
    }

    /// Run the kernel once; returns its wall time in ns.
    pub fn run(&self) -> f64 {
        let t0 = now_ns();
        let (mut at, mut x) = (0usize, 0x9E37_79B9u32);
        for _ in 0..Self::STEPS {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            at = (self.table[at] ^ (x & 1)) as usize % Self::SLOTS;
        }
        black_box((at, x));
        (now_ns() - t0) as f64
    }
}

/// The speed witness: a small message pipeline — a producer fills 64 B
/// slots of a 4 KiB ring (header, payload word, checksum), a consumer
/// checks each slot and dispatches it to one of four handlers that count,
/// sum or touch a 16 KiB table. It is shaped like the short-message path of
/// the program under test (loads, stores, short branches, calls, everything
/// in the first-level cache) and touches none of it, so the host does to it
/// what it does to the program: it takes longer when the core clock drops
/// (this host moves between states some 15% apart for seconds at a time)
/// and when another tenant is busy on the sibling hardware thread (spells of
/// minutes in which every workload runs 5–25% slow). A dependent chain of
/// register arithmetic, which the benchmark used first, sees the clock and
/// not the sibling; scaled by this kernel instead, identical runs in rough
/// weather sat half as far apart (see `NOISE.md`).
///
/// Times are reported on the **reference clock**: scaled to what they would
/// have been had the witness, read right beside them, taken
/// [`RefClock::REF_NS`].
pub struct RefClock;

/// The witness's state, reset to the same contents before every reading.
struct Pipeline {
    ring: [[u8; 64]; Pipeline::SLOTS],
    table: [u32; Pipeline::WORDS],
    counters: [u64; 4],
}

impl Pipeline {
    const SLOTS: usize = 64;
    const WORDS: usize = 4096;
    const BURSTS: u32 = 6000;

    fn new() -> Pipeline {
        Pipeline {
            ring: [[0; 64]; Self::SLOTS],
            table: [0; Self::WORDS],
            counters: [0; 4],
        }
    }

    fn reset(&mut self) {
        for (i, w) in self.table.iter_mut().enumerate() {
            *w = (i as u32).wrapping_mul(2_654_435_761);
        }
        self.counters = [0; 4];
    }

    fn checksum(slot: &[u8; 64]) -> u8 {
        slot[..16].iter().fold(0u8, |c, b| c.wrapping_add(*b))
    }

    #[inline(never)]
    fn count(&mut self, m: &[u8; 64]) -> u64 {
        self.counters[0] += 1;
        u64::from(m[8])
    }

    #[inline(never)]
    fn bump(&mut self, m: &[u8; 64]) -> u64 {
        self.counters[1] += u64::from(m[9]);
        let i = u32::from_le_bytes([m[12], m[13], m[14], m[15]]) as usize % Self::WORDS;
        self.table[i] = self.table[i].wrapping_add(1);
        u64::from(self.table[i])
    }

    #[inline(never)]
    fn sum(&mut self, m: &[u8; 64]) -> u64 {
        self.counters[2] ^= u64::from(m[10]);
        m.chunks_exact(8).fold(0u64, |s, c| {
            s.wrapping_add(u64::from_le_bytes(c.try_into().expect("8 bytes")))
        })
    }

    #[inline(never)]
    fn look_up(&mut self, m: &[u8; 64]) -> u64 {
        self.counters[3] += 3;
        let i = usize::from(m[11]) * 16 % Self::WORDS;
        u64::from(self.table[i] ^ self.table[(i + 7) % Self::WORDS])
    }

    /// `bursts` bursts of one to three messages through the ring, each
    /// consumed before the next burst; the same sequence every time.
    fn run(&mut self, bursts: u32) -> u64 {
        self.reset();
        let (mut x, mut acc) = (0x9E37_79B9u32, 0u64);
        let (mut head, mut tail) = (0usize, 0usize);
        for i in 0..bursts {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            for k in 0..1 + x % 3 {
                let slot = &mut self.ring[head % Self::SLOTS];
                slot[0..4].copy_from_slice(&i.to_le_bytes());
                slot[4] = ((x >> (k * 2)) & 3) as u8;
                let word = u64::from(x).wrapping_mul(0x2545_F491_4F6C_DD1D);
                slot[8..16].copy_from_slice(&word.to_le_bytes());
                slot[63] = Self::checksum(slot);
                head += 1;
            }
            while tail < head {
                let m = self.ring[tail % Self::SLOTS];
                tail += 1;
                if Self::checksum(&m) != m[63] {
                    acc ^= 1;
                    continue;
                }
                acc = acc.wrapping_add(match m[4] {
                    0 => self.count(&m),
                    1 => self.bump(&m),
                    2 => self.sum(&m),
                    _ => self.look_up(&m),
                });
            }
        }
        acc.wrapping_add(self.counters.iter().sum::<u64>())
    }
}

impl RefClock {
    /// The witness's duration on the reference clock. Chosen close to what
    /// this host shows when undisturbed, so reference-clock numbers read
    /// like measured ones; only ratios between runs matter.
    pub const REF_NS: f64 = 215_000.0;

    /// Time the witness once, on the CPU-time clock like everything it
    /// scales; ns. A short untimed pass comes first, so that the reading
    /// does not depend on what the code measured beside it left in the
    /// caches.
    pub fn witness_ns() -> f64 {
        thread_local! {
            static PIPELINE: std::cell::RefCell<Pipeline> = std::cell::RefCell::new(Pipeline::new());
        }
        PIPELINE.with(|p| {
            let mut p = p.borrow_mut();
            black_box(p.run(Pipeline::BURSTS / 8));
            let t0 = cpu_ns();
            black_box(p.run(Pipeline::BURSTS));
            (cpu_ns() - t0) as f64
        })
    }

    /// Run `f` with the witness read before and after; returns `f`'s result
    /// and the factor that turns a time measured inside `f` into
    /// reference-clock time.
    pub fn beside<R>(f: impl FnOnce() -> R) -> (R, f64) {
        let before = Self::witness_ns();
        let r = f();
        let after = Self::witness_ns();
        (r, Self::REF_NS / ((before + after) / 2.0))
    }
}
