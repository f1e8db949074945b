//! Communication threads.
//!
//! "Communication threads are helper threads that perform background
//! advance on one or more PAMI contexts" (paper section III.C). They are
//! the consumers of the work queues that [`Context::post`] feeds, and they
//! realize the CNK commthread discipline: park in the wakeup unit while
//! their contexts are quiescent (consuming no resources, like the PPC
//! `wait` state), wake on the first posted work item or arriving packet,
//! and get out of the way when application threads want the hardware
//! thread ([`CommThreadPool::pause`] models the voluntary drop to the
//! extended-low priority).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bgq_hw::Waiter;
use bgq_upc::Counter;

use crate::context::Context;

/// How long a parked commthread sleeps before rechecking shutdown/pause.
const PARK_TIMEOUT: Duration = Duration::from_millis(2);

/// `commthread.*` telemetry probes, shared by every thread of a pool.
/// (The companion `commthread.handoff_ns` histogram is recorded in
/// `Context::advance`, where posted work actually runs.)
#[derive(Clone)]
struct CommProbes {
    /// Times a commthread entered the parked (wakeup-wait) state.
    parks: Counter,
    /// Times a commthread returned from a park (timeout or wakeup touch).
    wakeups: Counter,
    /// Advance events processed by the pool's threads.
    advances: Counter,
}

struct PoolShared {
    shutdown: AtomicBool,
    paused: AtomicBool,
    advances: AtomicU64,
    parked_threads: AtomicU64,
}

/// A pool of communication threads advancing a set of contexts.
pub struct CommThreadPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    contexts: Vec<Arc<Context>>,
}

/// Whether commthreads bracket each advance with the context user lock.
///
/// The classic MPI library serializes everything through locks, so its
/// commthreads "must acquire the PAMI context locks to make progress" —
/// which is exactly why Table 2 shows the classic library *slower* with
/// commthreads enabled. The thread-optimized library advances lock-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockDiscipline {
    /// Advance without the context lock (thread-optimized flavor).
    LockFree,
    /// Take the context user lock around every advance (classic flavor).
    ContextLock,
}

impl CommThreadPool {
    /// Spawn `threads` commthreads over `contexts`, distributed round-robin
    /// (thread `i` owns contexts `i, i+threads, …` — exclusive ownership,
    /// so no advance contention).
    ///
    /// # Panics
    /// If `threads == 0` or `contexts` is empty.
    pub fn spawn(contexts: Vec<Arc<Context>>, threads: usize) -> CommThreadPool {
        Self::spawn_with(contexts, threads, LockDiscipline::LockFree)
    }

    /// Spawn with an explicit lock discipline (see [`LockDiscipline`]).
    pub fn spawn_with(
        contexts: Vec<Arc<Context>>,
        threads: usize,
        discipline: LockDiscipline,
    ) -> CommThreadPool {
        assert!(threads > 0, "a commthread pool needs at least one thread");
        assert!(!contexts.is_empty(), "a commthread pool needs contexts to advance");
        let upc = contexts[0].machine().telemetry();
        let probes = CommProbes {
            parks: upc.counter("commthread.parks"),
            wakeups: upc.counter("commthread.wakeups"),
            advances: upc.counter("commthread.advances"),
        };
        let shared = Arc::new(PoolShared {
            shutdown: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            advances: AtomicU64::new(0),
            parked_threads: AtomicU64::new(0),
        });
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let my: Vec<Arc<Context>> =
                contexts.iter().skip(t).step_by(threads).cloned().collect();
            let shared = Arc::clone(&shared);
            let probes = probes.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("commthread-{t}"))
                    .spawn(move || run_commthread(my, shared, probes, discipline))
                    .expect("spawn commthread"),
            );
        }
        CommThreadPool { shared, handles, contexts }
    }

    /// Contexts served by this pool.
    pub fn contexts(&self) -> &[Arc<Context>] {
        &self.contexts
    }

    /// Ask the commthreads to yield the hardware threads (drop to extended
    /// low priority): they stop advancing and park until [`Self::resume`].
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::Release);
    }

    /// Let the commthreads run again.
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::Release);
        // Parked threads notice on their park timeout.
    }

    /// Total advance events the pool has processed.
    pub fn advances(&self) -> u64 {
        self.shared.advances.load(Ordering::Relaxed)
    }

    /// How many of the pool's threads are currently parked in the wakeup
    /// unit (the "consume no resources" state).
    pub fn parked_threads(&self) -> u64 {
        self.shared.parked_threads.load(Ordering::Relaxed)
    }

    /// Stop and join all commthreads (what dropping the pool does).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for CommThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for ctx in &self.contexts {
            ctx.wakeup_region().touch();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn run_commthread(
    contexts: Vec<Arc<Context>>,
    shared: Arc<PoolShared>,
    probes: CommProbes,
    discipline: LockDiscipline,
) {
    // Mark this thread so handoff latencies it measures land in
    // `commthread.handoff_ns` in addition to `ctx.handoff_ns`.
    crate::context::set_commthread_marker(true);
    let mut waiter = Waiter::new();
    for ctx in &contexts {
        waiter.subscribe(ctx.wakeup_region());
    }
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        if shared.paused.load(Ordering::Acquire) {
            // Extended-low priority: completely out of the way.
            shared.parked_threads.fetch_add(1, Ordering::Relaxed);
            waiter.wait_timeout(PARK_TIMEOUT);
            shared.parked_threads.fetch_sub(1, Ordering::Relaxed);
            continue;
        }
        let mut worked = 0usize;
        for ctx in &contexts {
            worked += match discipline {
                LockDiscipline::LockFree => ctx.advance(),
                LockDiscipline::ContextLock => {
                    let _guard = ctx.lock();
                    ctx.advance()
                }
            };
        }
        if worked > 0 {
            shared.advances.fetch_add(worked as u64, Ordering::Relaxed);
            probes.advances.add(worked as u64);
        } else {
            // Nothing to do: enter the wakeup-wait state until a producer
            // touches one of our regions.
            probes.parks.incr();
            shared.parked_threads.fetch_add(1, Ordering::Relaxed);
            waiter.wait_timeout(PARK_TIMEOUT);
            shared.parked_threads.fetch_sub(1, Ordering::Relaxed);
            probes.wakeups.incr();
        }
    }
}
