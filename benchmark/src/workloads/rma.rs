//! `rma_mix` — the one-sided family no send workload touches: each step
//! every one of four tasks does a 4 KiB `put` to and a 4 KiB `get` from its
//! ring neighbour, four `rmw` fetch-adds on four hot words of task 0
//! (combining off), and one 1 KiB persistent-channel post/wait around the
//! ring. One op is a one-sided operation (seven per task per step); the
//! delivery time is the time of one step.

use std::sync::Arc;

use pami::{
    Client, Context, Counter, Endpoint, GetArgs, Machine, MemRegion, MemSlot, PayloadSource,
    PersistentChannel, PutArgs, RmwArgs, WindowRef,
};

use super::{advance, secs_since, RoundOut, Stall, Workload};
use crate::gen::{fill_body, header, HEADER_BYTES};
use crate::trace::{self, now_ns, SpanId};

const TASKS: usize = 4;
pub const PUT_BYTES: usize = 4096;
pub const CHAN_BYTES: usize = 1024;
const HOT_WORDS: usize = 4;
/// put + get + four rmws + one channel message, per task.
const OPS_PER_TASK: u64 = 7;
pub const OPS_PER_STEP: u64 = TASKS as u64 * OPS_PER_TASK;
/// Every buffer's header is checked each step, its whole body on one step
/// in this many.
const FULL_CHECK_EVERY: u64 = 8;

struct Task {
    client: Arc<Client>,
    /// What this task puts to its right neighbour.
    put_src: MemRegion,
    put_done: Counter,
    /// Where the left neighbour's put lands, with its arrival counter.
    put_win: MemRegion,
    put_arrived: Counter,
    put_key: WindowRef,
    /// What the left neighbour gets from this task.
    get_win: MemRegion,
    get_key: WindowRef,
    /// Where this task's get from its right neighbour lands.
    get_dst: MemRegion,
    get_done: Counter,
    /// The prior values this task's four fetch-adds returned.
    priors: MemRegion,
    rmw_done: Counter,
    /// Channel to the right neighbour (posted on) and to the left (waited
    /// on): the right channel of task `t` pairs with the left of `t + 1`.
    chan_right: PersistentChannel,
    chan_left: PersistentChannel,
    chan_out: Vec<u8>,
    /// Bodies this task must find: the left neighbour's put, the right
    /// neighbour's get window, the left neighbour's channel message.
    want_put: Vec<u8>,
    want_get: Vec<u8>,
    want_chan: Vec<u8>,
}

pub struct RmaMix {
    machine: Arc<Machine>,
    tasks: Vec<Task>,
    hot: MemRegion,
    hot_key: pami::MemKey,
    /// Per hot word, which prior values have been seen this round (the
    /// priors of N fetch-adds of 1 are a permutation of base..base+N).
    seen: Vec<Vec<u64>>,
    seen_base: u64,
    step: u64,
    samples: Vec<f64>,
    scratch: Vec<u8>,
    build_s: f64,
}

fn right(t: usize) -> usize {
    (t + 1) % TASKS
}

fn left(t: usize) -> usize {
    (t + TASKS - 1) % TASKS
}

impl RmaMix {
    pub fn setup(seed: u64) -> RmaMix {
        let t0 = now_ns();
        let machine = Machine::with_nodes(TASKS).build();
        let clients: Vec<_> = (0..TASKS as u32)
            .map(|t| Client::create(&machine, t, "pamibench", 1))
            .collect();
        let build_s = secs_since(t0);

        let hot = MemRegion::zeroed(HOT_WORDS * 8);
        let hot_key = machine.create_window(hot.clone(), None);
        // Tag space: buffer kind × owning task.
        let body =
            |kind: usize, t: usize, len: usize| fill_body(seed, (kind * TASKS + t) as u64, len);
        // Every task opens its right channel first, then its left: channels
        // pair in per-peer creation order, and in a ring of four the two
        // peers are distinct, so right(t) ↔ left(t + 1) is unambiguous.
        let chans: Vec<(PersistentChannel, PersistentChannel)> = clients
            .iter()
            .enumerate()
            .map(|(t, c)| {
                let open = |peer: usize| {
                    c.context(0)
                        .channel(Endpoint::of_task(peer as u32), CHAN_BYTES)
                        .expect("a non-zero slot size is all channel creation checks")
                };
                (open(right(t)), open(left(t)))
            })
            .collect();
        let tasks = clients
            .into_iter()
            .zip(chans)
            .enumerate()
            .map(|(t, (client, (chan_right, chan_left)))| {
                let put_win = MemRegion::zeroed(PUT_BYTES);
                let put_arrived = Counter::new();
                let put_key = machine.create_window(put_win.clone(), Some(put_arrived.clone()));
                let get_win = MemRegion::from_vec(body(1, t, PUT_BYTES));
                let get_key = machine.create_window(get_win.clone(), None);
                Task {
                    client,
                    put_src: MemRegion::from_vec(body(0, t, PUT_BYTES)),
                    put_done: Counter::new(),
                    put_win,
                    put_arrived,
                    put_key: WindowRef::base(put_key),
                    get_win,
                    get_key: WindowRef::base(get_key),
                    get_dst: MemRegion::zeroed(PUT_BYTES),
                    get_done: Counter::new(),
                    priors: MemRegion::zeroed(HOT_WORDS * 8),
                    rmw_done: Counter::new(),
                    chan_right,
                    chan_left,
                    chan_out: body(2, t, CHAN_BYTES),
                    want_put: body(0, left(t), PUT_BYTES),
                    want_get: body(1, right(t), PUT_BYTES),
                    want_chan: body(2, left(t), CHAN_BYTES),
                }
            })
            .collect();
        RmaMix {
            machine,
            tasks,
            hot,
            hot_key,
            seen: Vec::new(),
            seen_base: 0,
            step: 0,
            samples: Vec::with_capacity(1 << 17),
            scratch: vec![0u8; PUT_BYTES],
            build_s,
        }
    }

    /// Initiate task `t`'s put, get, rmws and channel post. Returns the
    /// number of calls that returned a typed error.
    fn initiate(&mut self, t: usize) -> u64 {
        let head = header(self.step, t as u32);
        let put_key = self.tasks[right(t)].put_key;
        let hot_key = self.hot_key;
        let task = &mut self.tasks[t];
        let ctx = task.client.context(0);
        let mut refused = 0;

        task.put_src.write(0, &head);
        task.get_win.write(0, &head);
        task.chan_out[..HEADER_BYTES].copy_from_slice(&head);

        task.put_done.add_expected(PUT_BYTES as u64);
        // The arrival counter of this task's own window: the left
        // neighbour's put may already have landed, in which case the
        // counter (which wraps) comes back to zero here.
        task.put_arrived.add_expected(PUT_BYTES as u64);
        let put = trace::span(SpanId::Put, || {
            ctx.put(PutArgs {
                dest_task: right(t) as u32,
                window: put_key,
                payload: PayloadSource::Region {
                    region: task.put_src.clone(),
                    offset: 0,
                    len: PUT_BYTES,
                },
                local_done: Some(task.put_done.clone()),
            })
        });
        if put.is_err() {
            task.put_done.delivered(PUT_BYTES as u64);
            refused += 1;
        }
        for w in 0..HOT_WORDS {
            task.rmw_done.add_expected(1);
            let rmw = trace::span(SpanId::Rmw, || {
                ctx.rmw(RmwArgs {
                    result: Some(MemSlot::at(task.priors.clone(), w * 8)),
                    done: Some(task.rmw_done.clone()),
                    ..RmwArgs::fetch_add(0, WindowRef::at(hot_key, w * 8), 1)
                })
            });
            if rmw.is_err() {
                task.rmw_done.delivered(1);
                refused += 1;
            }
        }
        let post = trace::span(SpanId::ChannelPost, || task.chan_right.post(&task.chan_out));
        refused + u64::from(post.is_err())
    }

    /// Issue task `t`'s get. Gets go out after every owner has stamped its
    /// window for the step, so what a get reads is known.
    fn initiate_get(&mut self, t: usize) -> u64 {
        let get_key = self.tasks[right(t)].get_key;
        let task = &self.tasks[t];
        task.get_done.add_expected(PUT_BYTES as u64);
        let get = trace::span(SpanId::Get, || {
            task.client.context(0).get(GetArgs {
                dest_task: right(t) as u32,
                window: get_key,
                dst: MemSlot::base(task.get_dst.clone()),
                len: PUT_BYTES,
                done: Some(task.get_done.clone()),
            })
        });
        if get.is_err() {
            task.get_done.delivered(PUT_BYTES as u64);
        }
        u64::from(get.is_err())
    }

    fn all_complete(&self) -> bool {
        self.tasks.iter().all(|t| {
            t.put_done.is_complete()
                && t.put_arrived.is_complete()
                && t.get_done.is_complete()
                && t.rmw_done.is_complete()
        })
    }

    /// Check what task `t` received this step; returns failed operations.
    fn verify(&mut self, t: usize) -> u64 {
        let step = self.step;
        let full = step.is_multiple_of(FULL_CHECK_EVERY);
        let mut failed = 0;
        let task = &mut self.tasks[t];

        let check = |region: &MemRegion, want: &[u8], src: usize, scratch: &mut [u8]| {
            let n = if full { want.len() } else { HEADER_BYTES };
            region.read(0, &mut scratch[..n]);
            let ok = scratch[..HEADER_BYTES] == header(step, src as u32)
                && scratch[HEADER_BYTES..n] == want[HEADER_BYTES..n];
            u64::from(!ok)
        };
        failed += check(&task.put_win, &task.want_put, left(t), &mut self.scratch);
        failed += check(&task.get_dst, &task.want_get, right(t), &mut self.scratch);

        let out = &mut self.scratch[..CHAN_BYTES];
        let waited = trace::span(SpanId::ChannelWait, || task.chan_left.wait(out));
        let n = if full { CHAN_BYTES } else { HEADER_BYTES };
        let chan_ok = waited.is_ok()
            && out[..HEADER_BYTES] == header(step, left(t) as u32)
            && out[HEADER_BYTES..n] == task.want_chan[HEADER_BYTES..n];
        failed += u64::from(!chan_ok);

        for w in 0..HOT_WORDS {
            let prior = task.priors.read_i64(w * 8) as u64;
            let bit = prior.wrapping_sub(self.seen_base);
            let fresh = self.seen[w]
                .get_mut((bit / 64) as usize)
                .is_some_and(|word| {
                    let mask = 1u64 << (bit % 64);
                    let fresh = *word & mask == 0;
                    *word |= mask;
                    fresh
                });
            failed += u64::from(!fresh);
        }
        for c in [
            &mut task.put_done,
            &mut task.get_done,
            &mut task.rmw_done,
            &mut task.put_arrived,
        ] {
            if c.fault().is_some() {
                failed += 1;
                *c = Counter::new();
            }
        }
        failed
    }
}

impl Workload for RmaMix {
    fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    fn build_s(&self) -> f64 {
        self.build_s
    }

    fn round(&mut self, units: u64) -> RoundOut {
        let mut out = RoundOut::default();
        // This round's fetch-adds return priors base..base + units·TASKS on
        // every hot word, each exactly once.
        self.seen_base = self.step * TASKS as u64;
        let words = (units as usize * TASKS).div_ceil(64);
        self.seen = vec![vec![0u64; words]; HOT_WORDS];
        for i in 0..units {
            trace::set_op(self.step);
            let t0 = now_ns();
            let mut failed = 0;
            for t in 0..TASKS {
                failed += self.initiate(t);
            }
            for t in 0..TASKS {
                failed += self.initiate_get(t);
            }
            let mut stall = Stall::new();
            let mut finished = true;
            while !self.all_complete() {
                let n: usize = self
                    .tasks
                    .iter()
                    .map(|t| advance(t.client.context(0)))
                    .sum();
                if stall.gave_up(n > 0) {
                    finished = false;
                    break;
                }
            }
            if !finished {
                out.failed += (units - i) * OPS_PER_STEP;
                for t in &mut self.tasks {
                    for c in [&mut t.put_done, &mut t.get_done, &mut t.rmw_done] {
                        *c = Counter::new();
                    }
                }
                self.step += 1;
                break;
            }
            for t in 0..TASKS {
                failed += self.verify(t);
            }
            if self.samples.len() < self.samples.capacity() {
                self.samples.push((now_ns() - t0) as f64);
            }
            self.step += 1;
            let failed = failed.min(OPS_PER_STEP);
            out.ops += OPS_PER_STEP - failed;
            out.failed += failed;
        }
        out
    }

    fn contexts(&self) -> Vec<&Arc<Context>> {
        self.tasks.iter().map(|t| t.client.context(0)).collect()
    }

    fn miscounted(&mut self) -> u64 {
        // Each hot word must equal the number of fetch-adds ever issued.
        let want = (self.step * TASKS as u64) as i64;
        (0..HOT_WORDS)
            .map(|w| u64::from(self.hot.read_i64(w * 8) != want))
            .sum()
    }

    fn drain_samples(&mut self, into: &mut Vec<f64>) {
        into.append(&mut self.samples);
    }
}
