//! Real (telemetry-on) implementation of the UPC primitives.

use crate::{bucket_index, bucket_upper_bound, HistSummary, Snapshot, TraceEvent, HIST_BUCKETS};
use crossbeam::utils::CachePadded;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of thread-owned stripes per counter and histogram. Each live
/// thread that touches telemetry owns one slot, and with it one stripe of
/// every probe, which it bumps with a plain relaxed load + store (exact,
/// because a stripe has exactly one writer). A thread hands its slot back
/// when it exits; threads beyond `STRIPES` live ones share an overflow cell
/// through an RMW.
const STRIPES: usize = 16;

const DEFAULT_TRACE_CAP: usize = 4096;

// -- thread slots and epoch -------------------------------------------------

/// `SLOT` before the thread's first bump.
const UNASSIGNED: usize = usize::MAX;

/// Slots never handed out yet, then the ones exited threads handed back.
/// Taking and returning a slot under this lock orders the old owner's last
/// store before the new owner's first load of the same stripe.
static SLOTS: Mutex<SlotPool> = Mutex::new(SlotPool { next: 0, free: Vec::new() });

struct SlotPool {
    next: usize,
    free: Vec<usize>,
}

/// Owns the thread's slot; its destructor hands the slot back at thread
/// exit and points later bumps (other TLS destructors) at the overflow cell.
struct SlotGuard(usize);

impl SlotGuard {
    fn acquire() -> Self {
        let mut pool = SLOTS.lock().unwrap_or_else(|e| e.into_inner());
        let slot = match pool.free.pop() {
            Some(slot) => slot,
            None if pool.next < STRIPES => {
                pool.next += 1;
                pool.next - 1
            }
            None => STRIPES,
        };
        SlotGuard(slot)
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        SLOT.set(STRIPES);
        if self.0 < STRIPES {
            SLOTS.lock().unwrap_or_else(|e| e.into_inner()).free.push(self.0);
        }
    }
}

thread_local! {
    /// The hot-path copy of the thread's slot: a `const` cell with no
    /// destructor, so reading it is one thread-local load and stays valid
    /// while other TLS destructors run.
    static SLOT: Cell<usize> = const { Cell::new(UNASSIGNED) };
    static GUARD: SlotGuard = SlotGuard::acquire();
    /// Thread id stamped on trace events: unique for the process's life,
    /// unlike a slot, which a later thread may reuse.
    static TRACE_TID: u64 = NEXT_TRACE_TID.fetch_add(1, Ordering::Relaxed);
}

static NEXT_TRACE_TID: AtomicU64 = AtomicU64::new(0);

/// The calling thread's stripe index, or `STRIPES` for the overflow cell.
#[inline]
fn thread_slot() -> usize {
    let slot = SLOT.get();
    if slot != UNASSIGNED {
        slot
    } else {
        assign_slot()
    }
}

#[cold]
fn assign_slot() -> usize {
    // Fails only once the guard is destroyed, when `SLOT` already reads
    // `STRIPES`; a bump that lands then is counted in the overflow cell.
    let slot = GUARD.try_with(|g| g.0).unwrap_or(STRIPES);
    SLOT.set(slot);
    slot
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[inline]
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// A nanosecond timestamp on the process-global telemetry clock. Grab one
/// where an operation starts, feed it to [`Histogram::record_since`] or
/// [`Upc::trace_span`] where it ends.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    ns: u64,
}

impl Stamp {
    #[inline]
    pub fn now() -> Self {
        Stamp { ns: now_ns() }
    }

    #[inline]
    pub fn ns(&self) -> u64 {
        self.ns
    }

    /// Nanoseconds elapsed since this stamp was taken.
    #[inline]
    pub(crate) fn elapsed_ns(&self) -> u64 {
        now_ns().saturating_sub(self.ns)
    }
}

// -- counters ---------------------------------------------------------------

struct CounterCell {
    stripes: [CachePadded<AtomicU64>; STRIPES],
    overflow: CachePadded<AtomicU64>,
}

impl CounterCell {
    fn new() -> Self {
        CounterCell {
            stripes: std::array::from_fn(|_| CachePadded::new(AtomicU64::new(0))),
            overflow: CachePadded::new(AtomicU64::new(0)),
        }
    }

    fn sum(&self) -> u64 {
        let mut total = self.overflow.load(Ordering::Relaxed);
        for s in &self.stripes {
            total = total.wrapping_add(s.load(Ordering::Relaxed));
        }
        total
    }
}

/// Lock-free event counter: one cache-padded stripe per live thread,
/// aggregated at read time. `add` is a plain relaxed load + store on the
/// calling thread's own stripe — no RMW, no shared line — for the first
/// `STRIPES` live threads in the process.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<CounterCell>,
}

impl Counter {
    #[inline]
    pub fn add(&self, n: u64) {
        match self.cell.stripes.get(thread_slot()) {
            Some(s) => s.store(s.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed),
            None => {
                self.cell.overflow.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Aggregate the stripes. Safe to call concurrently with writers; the
    /// result is exact once writers have quiesced.
    pub fn value(&self) -> u64 {
        self.cell.sum()
    }

    /// What the shared overflow cell holds: bumps from threads that found
    /// no free slot, or ran after handing theirs back.
    #[cfg(test)]
    fn overflow(&self) -> u64 {
        self.cell.overflow.load(Ordering::Relaxed)
    }
}

// -- histograms -------------------------------------------------------------

/// One thread's share of a histogram. The stripe's owner writes it with
/// plain load + store pairs; the overflow stripe takes RMWs.
struct HistStripe {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistStripe {
    fn new() -> Box<CachePadded<Self>> {
        Box::new(CachePadded::new(HistStripe {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }

    fn load_raw(&self) -> RawHist {
        RawHist {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A stripe is allocated on its slot's first `record`, so a histogram
/// nobody records into holds `STRIPES + 1` empty cells and no stripe.
struct HistCell {
    stripes: [OnceLock<Box<CachePadded<HistStripe>>>; STRIPES],
    overflow: OnceLock<Box<CachePadded<HistStripe>>>,
}

impl HistCell {
    fn new() -> Self {
        HistCell { stripes: std::array::from_fn(|_| OnceLock::new()), overflow: OnceLock::new() }
    }

    fn load_raw(&self) -> RawHist {
        let mut raw = RawHist::zero();
        for s in self.stripes.iter().chain([&self.overflow]).filter_map(OnceLock::get) {
            raw.merge(&s.load_raw());
        }
        raw
    }
}

#[derive(Clone)]
struct RawHist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl RawHist {
    fn zero() -> Self {
        RawHist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn merge(&mut self, other: &RawHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Quantile with linear interpolation inside the target bucket.
    ///
    /// The old behaviour returned the bucket's upper bound, so every
    /// reported p50/p99 landed on a power-of-two edge (4095, 16383, …) and
    /// latency gates only moved when a distribution crossed a whole octave.
    /// Interpolating by rank within the bucket (values assumed uniform in
    /// `[lower, min(upper, max)]`) tracks sub-octave shifts; for a uniform
    /// distribution the result is exact.
    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            if *b == 0 {
                continue;
            }
            let next = cum + b;
            if next >= target {
                let lo = crate::bucket_lower_bound(i);
                let hi = bucket_upper_bound(i).min(self.max);
                if hi <= lo {
                    return lo.min(self.max);
                }
                // Rank within the bucket, 1..=b; interpolate across the
                // bucket's value span.
                let pos = (target - cum) as f64 / *b as f64;
                let v = lo as f64 + (hi - lo) as f64 * pos;
                return (v as u64).min(self.max);
            }
            cum = next;
        }
        self.max
    }

    fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum: self.sum,
            max: self.max,
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
        }
    }
}

/// Power-of-two-bucket latency histogram (HDR-style): bucket 0 holds the
/// value 0, bucket `k` holds `[2^(k-1), 2^k-1]`. Recording writes the
/// calling thread's own stripe with plain stores — bucket, count, sum and,
/// when it grew, max — so it is cheap enough for per-operation latencies.
#[derive(Clone)]
pub struct Histogram {
    cell: Arc<HistCell>,
}

impl Histogram {
    #[inline]
    pub fn record(&self, v: u64) {
        let bump = |a: &AtomicU64, n: u64| {
            a.store(a.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed)
        };
        match self.cell.stripes.get(thread_slot()) {
            Some(stripe) => {
                let s = stripe.get_or_init(HistStripe::new);
                bump(&s.buckets[bucket_index(v)], 1);
                bump(&s.count, 1);
                bump(&s.sum, v);
                if v > s.max.load(Ordering::Relaxed) {
                    s.max.store(v, Ordering::Relaxed);
                }
            }
            None => {
                let s = self.cell.overflow.get_or_init(HistStripe::new);
                s.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
                s.count.fetch_add(1, Ordering::Relaxed);
                s.sum.fetch_add(v, Ordering::Relaxed);
                s.max.fetch_max(v, Ordering::Relaxed);
            }
        }
    }

    /// Record the nanoseconds elapsed since `start`.
    #[inline]
    pub fn record_since(&self, start: Stamp) {
        self.record(start.elapsed_ns());
    }

    pub fn count(&self) -> u64 {
        self.cell.load_raw().count
    }

    pub fn sum(&self) -> u64 {
        self.cell.load_raw().sum
    }

    pub fn max(&self) -> u64 {
        self.cell.load_raw().max
    }

    pub fn summary(&self) -> HistSummary {
        self.cell.load_raw().summary()
    }

    /// Records that landed in the shared overflow stripe.
    #[cfg(test)]
    fn overflow(&self) -> u64 {
        self.cell.overflow.get().map_or(0, |s| s.count.load(Ordering::Relaxed))
    }
}

// -- trace rings ------------------------------------------------------------

/// Per-slot seqlock state: 0 = never written, `2n+1` = write `n` in
/// progress, `2n+2` = write `n` complete.
struct TraceSlot {
    seq: AtomicU64,
    words: [AtomicU64; 4],
}

/// Per-thread SPSC ring: the owning thread writes, any thread may read a
/// consistent snapshot. Fixed capacity, drop-oldest (the cursor simply laps).
struct TraceRing {
    tid: u64,
    cap: usize,
    cursor: AtomicU64,
    /// Events overwritten before any reader saw them (cursor laps). The
    /// sum over all rings surfaces as the `upc.trace_dropped` counter so a
    /// truncated trace is detectable from the report alone.
    dropped: AtomicU64,
    slots: Box<[TraceSlot]>,
}

impl TraceRing {
    fn new(tid: u64, cap: usize) -> Self {
        TraceRing {
            tid,
            cap,
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..cap)
                .map(|_| TraceSlot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
    }

    /// Owner-thread-only push. SeqCst on the seq transitions keeps readers
    /// from accepting torn slots; word stores sit between the odd and even
    /// seq stores.
    fn push(&self, words: [u64; 4]) {
        let idx = self.cursor.load(Ordering::Relaxed);
        if idx >= self.cap as u64 {
            // Lapping: the slot we are about to claim still holds the
            // oldest unread event — count it as dropped.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let slot = &self.slots[(idx as usize) & (self.cap - 1)];
        slot.seq.store(2 * idx + 1, Ordering::SeqCst);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::SeqCst);
        }
        slot.seq.store(2 * idx + 2, Ordering::SeqCst);
        self.cursor.store(idx + 1, Ordering::Release);
    }

    /// Read every completed slot, skipping any that are mid-write or get
    /// overwritten while we read them. Returns `(write_index, words)` pairs.
    fn read_all(&self) -> Vec<(u64, [u64; 4])> {
        let mut out = Vec::with_capacity(self.cap.min(64));
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::SeqCst);
            if s1 == 0 || s1 % 2 == 1 {
                continue;
            }
            let words: [u64; 4] = std::array::from_fn(|i| slot.words[i].load(Ordering::SeqCst));
            let s2 = slot.seq.load(Ordering::SeqCst);
            if s1 != s2 {
                continue; // overwritten mid-read
            }
            out.push(((s1 - 2) / 2, words));
        }
        out
    }
}

thread_local! {
    /// Registry-id → ring map for the current thread (tiny, linear scan).
    static THREAD_RINGS: RefCell<Vec<(u64, Arc<TraceRing>)>> = const { RefCell::new(Vec::new()) };
}

// -- registry ---------------------------------------------------------------

static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(1);

struct Inner {
    id: u64,
    trace_cap: usize,
    counters: Mutex<Vec<(&'static str, Arc<CounterCell>)>>,
    histograms: Mutex<Vec<(&'static str, Arc<HistCell>)>>,
    /// Interned event names; events store an index into this table.
    names: Mutex<Vec<&'static str>>,
    rings: Mutex<Vec<Arc<TraceRing>>>,
}

/// The UPC registry: hands out counters/histograms, owns the per-thread
/// trace rings, aggregates everything into [`Snapshot`]s and trace exports.
/// Clones share state; every layer of the stack holds one.
#[derive(Clone)]
pub struct Upc {
    inner: Arc<Inner>,
}

impl Default for Upc {
    fn default() -> Self {
        Self::new()
    }
}

impl Upc {
    /// A registry whose per-thread trace rings hold 4096 events each.
    pub fn new() -> Self {
        Upc {
            inner: Arc::new(Inner {
                id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
                trace_cap: DEFAULT_TRACE_CAP,
                counters: Mutex::new(Vec::new()),
                histograms: Mutex::new(Vec::new()),
                names: Mutex::new(Vec::new()),
                rings: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Register a new counter instance under `name`. Instances registered
    /// under the same name (e.g. one per node) are summed in snapshots.
    pub fn counter(&self, name: &'static str) -> Counter {
        let cell = Arc::new(CounterCell::new());
        self.inner.counters.lock().unwrap().push((name, cell.clone()));
        Counter { cell }
    }

    /// Register a new histogram instance under `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let cell = Arc::new(HistCell::new());
        self.inner
            .histograms
            .lock()
            .unwrap()
            .push((name, cell.clone()));
        Histogram { cell }
    }

    #[inline]
    pub fn stamp(&self) -> Stamp {
        Stamp::now()
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        now_ns()
    }

    fn intern(&self, name: &'static str) -> u64 {
        let mut names = self.inner.names.lock().unwrap();
        if let Some(i) = names.iter().position(|n| std::ptr::eq(*n, name) || *n == name) {
            i as u64
        } else {
            names.push(name);
            (names.len() - 1) as u64
        }
    }

    fn ring(&self) -> Arc<TraceRing> {
        let id = self.inner.id;
        THREAD_RINGS.with(|rings| {
            let mut rings = rings.borrow_mut();
            if let Some((_, r)) = rings.iter().find(|(rid, _)| *rid == id) {
                return r.clone();
            }
            let r = Arc::new(TraceRing::new(TRACE_TID.with(|t| *t), self.inner.trace_cap));
            self.inner.rings.lock().unwrap().push(r.clone());
            rings.push((id, r.clone()));
            r
        })
    }

    /// Record a complete span from `start` to now.
    pub fn trace_span(&self, name: &'static str, start: Stamp, arg: u64) {
        let id = self.intern(name);
        let dur = start.elapsed_ns();
        self.ring().push([id, start.ns(), dur, arg]);
    }

    /// Aggregate every registered counter and histogram, summing instances
    /// that share a name.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        for (name, cell) in self.inner.counters.lock().unwrap().iter() {
            *counters.entry((*name).to_owned()).or_insert(0) += cell.sum();
        }
        // Trace overflow is accounted per-ring; surface the sum so a
        // truncated trace export is detectable from the report alone.
        let dropped: u64 = self
            .inner
            .rings
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.dropped.load(Ordering::Relaxed))
            .sum();
        *counters.entry("upc.trace_dropped".to_owned()).or_insert(0) += dropped;
        let mut hists: BTreeMap<String, RawHist> = BTreeMap::new();
        for (name, cell) in self.inner.histograms.lock().unwrap().iter() {
            hists
                .entry((*name).to_owned())
                .or_insert_with(RawHist::zero)
                .merge(&cell.load_raw());
        }
        Snapshot {
            counters: counters.into_iter().collect(),
            histograms: hists
                .into_iter()
                .map(|(n, raw)| (n, raw.summary()))
                .collect(),
        }
    }

    /// Merge every thread's ring into one timeline sorted by timestamp.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let names: Vec<&'static str> = self.inner.names.lock().unwrap().clone();
        let rings: Vec<Arc<TraceRing>> = self.inner.rings.lock().unwrap().clone();
        let mut events = Vec::new();
        for ring in rings {
            let mut slots = ring.read_all();
            slots.sort_by_key(|(idx, _)| *idx);
            for (_, w) in slots {
                let name = names.get(w[0] as usize).copied().unwrap_or("?");
                events.push(TraceEvent {
                    name,
                    ts_ns: w[1],
                    dur_ns: w[2],
                    tid: ring.tid,
                    arg: w[3],
                });
            }
        }
        events.sort_by(|a, b| a.ts_ns.cmp(&b.ts_ns).then(a.tid.cmp(&b.tid)));
        events
    }

    /// chrome://tracing export of the merged timeline.
    pub fn chrome_trace_json(&self) -> String {
        crate::chrome_trace_json(&self.trace_events())
    }

    /// `pamistat`-style aggregate report.
    pub fn report_json(&self) -> String {
        self.snapshot().report_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by the tests that fill or count on the process-wide slot pool,
    /// so the test harness's parallel threads cannot drain it under them.
    static POOL: Mutex<()> = Mutex::new(());

    /// Short-lived threads, one after another, hand their slots back: twice
    /// `STRIPES` of them never reach the overflow cell, and the sums are
    /// exact. Without the hand-back the threads past the 16th would share
    /// the overflow cell.
    #[test]
    fn sequential_threads_reuse_slots() {
        let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
        let upc = Upc::new();
        let c = upc.counter("seq.count");
        let h = upc.histogram("seq.hist");
        for t in 0..2 * STRIPES as u64 {
            let (c, h) = (c.clone(), h.clone());
            std::thread::spawn(move || {
                c.add(t + 1);
                h.record(t);
            })
            .join()
            .unwrap();
        }
        let n = 2 * STRIPES as u64;
        assert_eq!(c.value(), n * (n + 1) / 2);
        assert_eq!((h.count(), h.sum(), h.max()), (n, n * (n - 1) / 2, n - 1));
        assert_eq!((c.overflow(), h.overflow()), (0, 0));
    }

    /// More live threads than stripes: the ones past the last free slot
    /// share the overflow cell, and nothing is lost.
    #[test]
    fn live_threads_past_stripes_share_overflow() {
        let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
        let upc = Upc::new();
        let c = upc.counter("live.count");
        let threads = STRIPES + 4;
        let both = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    both.wait();
                    for _ in 0..1000 {
                        c.incr();
                    }
                    // Every thread holds its slot until all have bumped.
                    both.wait();
                });
            }
        });
        assert_eq!(c.value(), threads as u64 * 1000);
        assert!(c.overflow() >= 4 * 1000, "overflow {}", c.overflow());
    }

    /// A bump from a TLS destructor that runs after the thread's slot went
    /// back is still counted (in the overflow cell).
    #[test]
    fn late_tls_destructor_bump_is_counted() {
        struct BumpOnExit(Counter);
        impl Drop for BumpOnExit {
            fn drop(&mut self) {
                self.0.incr();
            }
        }
        thread_local! {
            static LATE: RefCell<Option<BumpOnExit>> = const { RefCell::new(None) };
        }
        let upc = Upc::new();
        let c = upc.counter("late.count");
        let c2 = c.clone();
        std::thread::spawn(move || {
            // Registered before the slot guard, so destroyed after it.
            LATE.with(|l| *l.borrow_mut() = Some(BumpOnExit(c2.clone())));
            c2.incr();
        })
        .join()
        .unwrap();
        assert_eq!(c.value(), 2);
    }
}
