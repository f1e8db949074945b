//! Remote atomics over the one-sided surface: `Context::rmw`.
//!
//! The properties under test:
//!
//! * **Linearizability** — concurrent fetch-adds against one hot word
//!   return priors that form a permutation of the arithmetic series; the
//!   final value is the sum of the operands.
//! * **Exactly-once under chaos** — a seeded drop+corrupt plan forces
//!   retransmits and duplicate suppression on the rmw path; the counter
//!   still lands on exactly N·K.
//! * **Atomic on memory** — two windows over one region name the same
//!   words, so fetch-adds through both lose no update.
//! * **Operation semantics** — compare-swap, min and max apply their
//!   documented rules and return the prior value.
//! * **Refused at initiation** — a one-sided access outside its window,
//!   or a put or send whose source runs past its region, is an `Err` from
//!   the call, never a panic in someone's `advance`.

use std::sync::{Arc, OnceLock};

use pami::{
    Client, Counter, FaultPlan, GetArgs, Machine, MemKey, MemRegion, MemSlot, PamiError,
    PayloadSource, PutArgs, RmwArgs, RmwOp, SendArgs, WindowRef,
};

/// Run `f(task, ctx, key)` on every task of an `n`-task machine whose task
/// 0 exposes a zeroed 8-byte window; returns (machine, window memory).
fn hot_word_machine(
    n: usize,
    plan: Option<FaultPlan>,
    f: impl Fn(u32, &pami::Context, MemKey) + Send + Sync + Clone + 'static,
) -> (Arc<Machine>, MemRegion) {
    let mut builder = Machine::with_nodes(n);
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan);
    }
    let machine = builder.build();
    let word = MemRegion::zeroed(8);
    let key_cell: Arc<OnceLock<MemKey>> = Arc::new(OnceLock::new());
    let word2 = word.clone();
    let key_cell2 = Arc::clone(&key_cell);
    machine.run(move |env| {
        let client = Client::create(&env.machine, env.task, "rmw", 1);
        let ctx = client.context(0);
        if env.task == 0 {
            let key = env.machine.create_window(word2.clone(), None);
            key_cell2.set(key).unwrap();
        }
        env.machine.task_barrier();
        let key = *key_cell2.get().unwrap();
        f(env.task, ctx, key);
        env.machine.task_barrier();
    });
    (machine, word)
}

/// Issue `k` fetch-adds of 1 from this task against the hot word,
/// collecting each prior; drive the context until all replies land.
fn fetch_add_k(ctx: &pami::Context, key: MemKey, k: usize) -> Vec<u64> {
    let slots: Vec<MemRegion> = (0..k).map(|_| MemRegion::zeroed(8)).collect();
    let done = Counter::new();
    done.add_expected(k as u64);
    for slot in &slots {
        ctx.rmw(RmwArgs {
            dest_task: 0,
            window: WindowRef::base(key),
            op: RmwOp::FetchAdd,
            operand: 1,
            compare: 0,
            result: Some(MemSlot::base(slot.clone())),
            done: Some(done.clone()),
        })
        .unwrap();
    }
    ctx.advance_until(|| done.is_complete());
    slots.iter().map(|s| s.read_i64(0) as u64).collect()
}

/// Priors from every task, flattened, must be a permutation of
/// `0..total` — the defining property of linearizable fetch-add.
fn assert_priors_linearizable(priors: &parking_lot::Mutex<Vec<u64>>, total: u64) {
    let mut all = priors.lock().clone();
    assert_eq!(all.len() as u64, total);
    all.sort_unstable();
    let expect: Vec<u64> = (0..total).collect();
    assert_eq!(all, expect, "priors are a permutation of 0..{total}");
    // Equivalent arithmetic-series check (the ISSUE's acceptance form).
    let sum: u64 = all.iter().sum();
    assert_eq!(sum, total * (total - 1) / 2);
}

#[test]
fn concurrent_fetch_adds_are_linearizable() {
    const N: usize = 8;
    const K: usize = 16;
    let priors: Arc<parking_lot::Mutex<Vec<u64>>> = Arc::default();
    let priors2 = Arc::clone(&priors);
    let (_machine, word) = hot_word_machine(N, None, move |_task, ctx, key| {
        let mine = fetch_add_k(ctx, key, K);
        priors2.lock().extend(mine);
    });
    assert_eq!(word.read_i64(0) as u64, (N * K) as u64, "every add applied once");
    assert_priors_linearizable(&priors, (N * K) as u64);
}

#[test]
fn rmw_is_exactly_once_under_drop_and_corrupt() {
    // 1% drop + 1% corrupt on the reliable rmw path: frames retransmit,
    // duplicates are suppressed by the channel, and the counter still reads
    // exactly N·K with the priors a permutation.
    const N: usize = 4;
    const K: usize = 64;
    let plan = FaultPlan::new().seed(4242).drop_rate(0.01).corrupt_rate(0.01);
    let priors: Arc<parking_lot::Mutex<Vec<u64>>> = Arc::default();
    let priors2 = Arc::clone(&priors);
    let (machine, word) = hot_word_machine(N, Some(plan), move |_task, ctx, key| {
        let mine = fetch_add_k(ctx, key, K);
        priors2.lock().extend(mine);
    });
    assert_eq!(word.read_i64(0) as u64, (N * K) as u64, "exactly once under faults");
    assert_priors_linearizable(&priors, (N * K) as u64);
    if cfg!(feature = "telemetry") {
        let ras = machine.fabric().ras_counters();
        assert!(ras.retransmits.value() > 0, "the plan actually bit");
    }
}

#[test]
fn compare_swap_min_max_semantics() {
    let (_machine, word) = hot_word_machine(2, None, move |task, ctx, key| {
        if task != 1 {
            return;
        }
        let prior = MemRegion::zeroed(8);
        let op = |op: RmwOp, operand: u64, compare: u64| -> u64 {
            let done = Counter::new();
            done.add_expected(1);
            ctx.rmw(RmwArgs {
                dest_task: 0,
                window: WindowRef::base(key),
                op,
                operand,
                compare,
                result: Some(MemSlot::base(prior.clone())),
                done: Some(done.clone()),
            })
            .unwrap();
            ctx.advance_until(|| done.is_complete());
            prior.read_i64(0) as u64
        };
        assert_eq!(op(RmwOp::FetchAdd, 41, 0), 0, "fetch-add returns prior");
        assert_eq!(op(RmwOp::CompareSwap, 100, 41), 41, "matching CAS swaps");
        assert_eq!(op(RmwOp::CompareSwap, 999, 41), 100, "mismatched CAS is a no-op");
        assert_eq!(op(RmwOp::Min, 50, 0), 100, "min(100, 50) keeps 50");
        assert_eq!(op(RmwOp::Min, 80, 0), 50, "higher candidate loses");
        assert_eq!(op(RmwOp::Max, 60, 0), 50, "max(50, 60) takes 60");
        assert_eq!(op(RmwOp::Max, 10, 0), 60, "lower candidate loses");
    });
    assert_eq!(word.read_i64(0), 60, "final value after the op sequence");
}

#[test]
fn offset_rmws_hit_distinct_words() {
    // Two offsets inside one window are independent atomics.
    const N: usize = 4;
    let machine = Machine::with_nodes(N).build();
    let arr = MemRegion::zeroed(16);
    let key_cell: Arc<OnceLock<MemKey>> = Arc::new(OnceLock::new());
    let arr2 = arr.clone();
    let key_cell2 = Arc::clone(&key_cell);
    machine.run(move |env| {
        let client = Client::create(&env.machine, env.task, "rmw", 1);
        let ctx = client.context(0);
        if env.task == 0 {
            key_cell2.set(env.machine.create_window(arr2.clone(), None)).unwrap();
        }
        env.machine.task_barrier();
        let key = *key_cell2.get().unwrap();
        let offset = (env.task as usize % 2) * 8;
        let done = Counter::new();
        done.add_expected(1);
        ctx.rmw(RmwArgs {
            dest_task: 0,
            window: WindowRef::at(key, offset),
            op: RmwOp::FetchAdd,
            operand: 1 + env.task as u64,
            compare: 0,
            result: None,
            done: Some(done.clone()),
        })
        .unwrap();
        ctx.advance_until(|| done.is_complete());
        env.machine.task_barrier();
    });
    // Even tasks (0, 2) hit offset 0: 1 + 3; odd tasks (1, 3) hit 8: 2 + 4.
    assert_eq!(arr.read_i64(0), 4);
    assert_eq!(arr.read_i64(8), 6);
}

#[test]
fn two_windows_over_one_region_lose_no_update() {
    // Task 0 exposes one word through two windows; tasks 1 and 2 hammer it
    // concurrently, one through each. A lossless rmw applies on the
    // initiating thread, so the two threads really do race on the word.
    const ROUNDS: u64 = 300;
    const BATCH: u64 = 64;
    let machine = Machine::with_nodes(3).build();
    let word = MemRegion::zeroed(8);
    let keys: Arc<OnceLock<[MemKey; 2]>> = Arc::new(OnceLock::new());
    let (word2, keys2) = (word.clone(), Arc::clone(&keys));
    machine.run(move |env| {
        let client = Client::create(&env.machine, env.task, "rmw", 1);
        let ctx = client.context(0);
        if env.task == 0 {
            let window = || env.machine.create_window(word2.clone(), None);
            keys2.set([window(), window()]).unwrap();
        }
        env.machine.task_barrier();
        if env.task > 0 {
            let key = keys2.get().unwrap()[env.task as usize - 1];
            for _ in 0..ROUNDS {
                let done = Counter::new();
                done.add_expected(BATCH);
                for _ in 0..BATCH {
                    let add = RmwArgs::fetch_add(0, WindowRef::base(key), 1);
                    ctx.rmw(RmwArgs { done: Some(done.clone()), ..add }).unwrap();
                }
                ctx.advance_until(|| done.is_complete());
            }
        }
        env.machine.task_barrier();
    });
    assert_eq!(word.read_i64(0) as u64, 2 * ROUNDS * BATCH, "an update was lost");
}

#[test]
fn out_of_range_one_sided_ops_are_refused_at_initiation() {
    // Executed, each of these would panic "out of bounds" inside the call,
    // inside the target's `advance` (a get's put-back) or, under a plan
    // with the frame queued at the head of its channel, inside every later
    // pump.
    for plan in [None, Some(FaultPlan::new().seed(7))] {
        // Task 1 shares task 0's node; task 2 is off-node.
        let mut builder = Machine::with_nodes(2).ppn(2);
        if let Some(plan) = plan {
            builder = builder.fault_plan(plan);
        }
        let machine = builder.build();
        let me = Client::create(&machine, 0, "oob", 1);
        let peers: Vec<_> = (1..4).map(|t| Client::create(&machine, t, "oob", 1)).collect();
        for peer in &peers {
            let sink = MemRegion::zeroed(16 * 1024);
            peer.context(0).set_dispatch(
                1,
                Arc::new(move |_: &pami::Context, _, _| pami::Recv::Into {
                    region: sink.clone(),
                    offset: 0,
                    on_complete: Box::new(|_, _| {}),
                }),
            );
        }
        let ctx = me.context(0);
        let key = machine.create_window(MemRegion::zeroed(64), None);
        let local = MemRegion::zeroed(64);
        let refused = Err(PamiError::Invalid("one-sided access outside its window"));
        let payload = PayloadSource::Region { region: local.clone(), offset: 0, len: 8 };
        let window = WindowRef::at(key, 60);
        let put = PutArgs { dest_task: 2, window, payload, local_done: None };
        assert_eq!(ctx.put(put), refused, "put past the window");
        // (window offset, local offset): past the window, past the slot,
        // and an offset whose end does not fit a `usize`.
        for (remote, slot) in [(60, 0), (0, 60), (usize::MAX - 3, 0)] {
            let window = WindowRef::at(key, remote);
            let dst = MemSlot { region: local.clone(), offset: slot };
            let get = GetArgs { dest_task: 2, window, dst: dst.clone(), len: 8, done: None };
            assert_eq!(ctx.get(get), refused, "get at {remote} into {slot}");
            let add = RmwArgs::fetch_add(2, window, 1);
            assert_eq!(ctx.rmw(RmwArgs { result: Some(dst), ..add }), refused, "rmw at {remote}");
        }
        // A source that runs 8 bytes past its region: a put, then a send on
        // the short, eager and rendezvous rungs and on-node.
        let past = |len| PayloadSource::Region { region: MemRegion::zeroed(len), offset: 8, len };
        let unsourced = Err(PamiError::Invalid("payload source outside its region"));
        let window = WindowRef::base(key);
        let put = PutArgs { dest_task: 2, window, payload: past(8), local_done: None };
        assert_eq!(ctx.put(put), unsourced, "put from past its source");
        for (dest, len) in [(2, 8), (2, 2048), (2, 16 * 1024), (1, 2048)] {
            let (dest, payload) = (pami::Endpoint::of_task(dest), past(len));
            let send = SendArgs { dest, dispatch: 1, metadata: Vec::new(), payload, local_done: None };
            assert_eq!(ctx.send(send), unsourced, "{len} B send to {dest:?}");
        }
        assert!(ctx.is_quiescent(), "nothing was queued");
        assert_eq!(ctx.advance(), 0, "nothing to pump");
        for peer in &peers {
            assert_eq!(peer.context(0).advance(), 0, "nothing arrived");
        }
    }
}
