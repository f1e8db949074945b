//! Spans the benchmark records around its own calls into the library.
//!
//! Every call is aggregated (count, total, self time, log2 histogram);
//! the spans of one op in [`KEEP_EVERY`] are also kept whole, with parent
//! and op id, and written as a chrome-trace file when the run ends. A
//! span's self time is its duration minus the part its child spans cover
//! (the benchmark's handler runs inside `advance`, a posted send inside
//! that). Nothing here touches the program under test: with tracing off a
//! span is one thread-local flag read and the call itself.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process — one clock for spans,
/// delivery samples and round timing.
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a span wraps. `Driver` is the root span of a round: its self time
/// is everything the benchmark does outside library calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanId {
    Driver,
    Handler,
    Send,
    SendImmediate,
    AdvanceBusy,
    AdvanceIdle,
    Post,
    FlushAggr,
    Put,
    Get,
    Rmw,
    ChannelPost,
    ChannelWait,
    MpiIsend,
    MpiIrecv,
    MpiAdvance,
    MpiTest,
}

pub const SPAN_KINDS: usize = SpanId::MpiTest as usize + 1;

impl SpanId {
    pub const ALL: [SpanId; SPAN_KINDS] = [
        SpanId::Driver,
        SpanId::Handler,
        SpanId::Send,
        SpanId::SendImmediate,
        SpanId::AdvanceBusy,
        SpanId::AdvanceIdle,
        SpanId::Post,
        SpanId::FlushAggr,
        SpanId::Put,
        SpanId::Get,
        SpanId::Rmw,
        SpanId::ChannelPost,
        SpanId::ChannelWait,
        SpanId::MpiIsend,
        SpanId::MpiIrecv,
        SpanId::MpiAdvance,
        SpanId::MpiTest,
    ];

    /// Name in the trace file: layer, then call.
    pub fn name(self) -> &'static str {
        match self {
            SpanId::Driver => "driver.round",
            SpanId::Handler => "driver.handler",
            SpanId::Send => "pami.send",
            SpanId::SendImmediate => "pami.send_immediate",
            SpanId::AdvanceBusy => "pami.advance",
            SpanId::AdvanceIdle => "pami.advance_idle",
            SpanId::Post => "pami.post",
            SpanId::FlushAggr => "pami.flush_aggr",
            SpanId::Put => "pami.put",
            SpanId::Get => "pami.get",
            SpanId::Rmw => "pami.rmw",
            SpanId::ChannelPost => "pami.channel_post",
            SpanId::ChannelWait => "pami.channel_wait",
            SpanId::MpiIsend => "pami-mpi.isend",
            SpanId::MpiIrecv => "pami-mpi.irecv",
            SpanId::MpiAdvance => "pami-mpi.advance",
            SpanId::MpiTest => "pami-mpi.test",
        }
    }
}

/// The spans of one op in this many are kept whole.
pub const KEEP_EVERY: u64 = 256;
/// Ceiling on whole spans held in memory.
pub const MAX_KEPT_SPANS: usize = 1_000_000;

const NO_SPAN: u32 = u32::MAX;

/// Aggregate of every span of one kind.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanStats {
    pub count: u64,
    /// Spans opened directly inside spans of this kind.
    pub children: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Durations by power-of-two bucket (`bgq_upc::bucket_index`).
    pub hist: [u64; bgq_upc::HIST_BUCKETS],
}

impl Default for SpanStats {
    fn default() -> Self {
        SpanStats {
            count: 0,
            children: 0,
            total_ns: 0,
            self_ns: 0,
            hist: [0; bgq_upc::HIST_BUCKETS],
        }
    }
}

/// One span kept whole.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRec {
    pub id: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing kept span.
    pub parent: Option<u32>,
    pub op: u64,
}

struct Frame {
    start_ns: u64,
    child_ns: u64,
    children: u64,
    rec: u32,
}

/// The recorder. One per thread; the benchmark has one driver thread.
#[derive(Default)]
pub struct Tracer {
    stack: Vec<Frame>,
    pub stats: Vec<SpanStats>,
    pub kept: Vec<SpanRec>,
    op: u64,
    keep_op: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            stack: Vec::with_capacity(8),
            stats: vec![SpanStats::default(); SPAN_KINDS],
            kept: Vec::new(),
            op: 0,
            keep_op: false,
        }
    }

    /// Name the op the following spans belong to.
    #[inline]
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
        self.keep_op = op.is_multiple_of(KEEP_EVERY);
    }

    #[inline]
    pub fn enter(&mut self, now: u64) {
        let rec = if self.keep_op && self.kept.len() < MAX_KEPT_SPANS {
            let parent = self.stack.last().map(|f| f.rec).filter(|&r| r != NO_SPAN);
            self.kept.push(SpanRec {
                id: SpanId::Driver,
                start_ns: now,
                end_ns: now,
                parent,
                op: self.op,
            });
            (self.kept.len() - 1) as u32
        } else {
            NO_SPAN
        };
        self.stack.push(Frame {
            start_ns: now,
            child_ns: 0,
            children: 0,
            rec,
        });
    }

    /// Close the innermost span as `id` (an `advance` only knows on return
    /// whether it was productive).
    #[inline]
    pub fn exit(&mut self, id: SpanId, now: u64) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let dur = now.saturating_sub(frame.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
            parent.children += 1;
        }
        let s = &mut self.stats[id as usize];
        s.count += 1;
        s.children += frame.children;
        s.total_ns += dur;
        s.self_ns += dur.saturating_sub(frame.child_ns);
        s.hist[bgq_upc::bucket_index(dur)] += 1;
        if frame.rec != NO_SPAN {
            let rec = &mut self.kept[frame.rec as usize];
            rec.id = id;
            rec.end_ns = now;
        }
    }

    pub fn stat(&self, id: SpanId) -> &SpanStats {
        &self.stats[id as usize]
    }

    /// Sum of every kind's self time — with a root span per round this is
    /// the traced wall time, accounted once.
    pub fn self_total_ns(&self) -> u64 {
        self.stats.iter().map(|s| s.self_ns).sum()
    }
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// Turn span recording on or off (for the calling thread — the driver).
pub fn set_enabled(on: bool) {
    ON.with(|c| c.set(on));
}

#[inline(always)]
pub fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Run `f` inside a span of kind `id`.
#[inline(always)]
pub fn span<R>(id: SpanId, f: impl FnOnce() -> R) -> R {
    span_by(|_| id, f)
}

/// Run `f` inside a span whose kind depends on what `f` returned.
#[inline(always)]
pub fn span_by<R>(id: impl FnOnce(&R) -> SpanId, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    TRACER.with(|t| t.borrow_mut().enter(now_ns()));
    let r = f();
    let id = id(&r);
    TRACER.with(|t| t.borrow_mut().exit(id, now_ns()));
    r
}

/// A context `advance`, split by whether it processed anything.
#[inline(always)]
pub fn advance_span(f: impl FnOnce() -> usize) -> usize {
    span_by(
        |&n| {
            if n > 0 {
                SpanId::AdvanceBusy
            } else {
                SpanId::AdvanceIdle
            }
        },
        f,
    )
}

/// Name the op the following spans belong to (no-op with tracing off).
#[inline(always)]
pub fn set_op(op: u64) {
    if enabled() {
        TRACER.with(|t| t.borrow_mut().set_op(op));
    }
}

/// Open / close the round's root span.
pub fn begin_round() {
    if enabled() {
        TRACER.with(|t| t.borrow_mut().enter(now_ns()));
    }
}

pub fn end_round() {
    if enabled() {
        TRACER.with(|t| t.borrow_mut().exit(SpanId::Driver, now_ns()));
    }
}

/// Take the recorder's contents, leaving it empty.
pub fn take() -> Tracer {
    TRACER.with(|t| std::mem::replace(&mut *t.borrow_mut(), Tracer::new()))
}

/// What one span costs to record, measured on empty spans: `inside` is the
/// part that lands in the span's own duration, `outside` the part that
/// lands in its parent's self time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanCost {
    pub inside_ns: f64,
    pub outside_ns: f64,
}

/// Measure [`SpanCost`] with `n` empty spans under one root.
pub fn calibrate(n: u64) -> SpanCost {
    let saved = take();
    let was = enabled();
    set_enabled(true);
    begin_round();
    for _ in 0..n {
        span(SpanId::Handler, || std::hint::black_box(()));
    }
    end_round();
    set_enabled(was);
    let t = TRACER.with(|t| std::mem::replace(&mut *t.borrow_mut(), saved));
    let inside = t.stat(SpanId::Handler).total_ns as f64 / n as f64;
    let outside = t.stat(SpanId::Driver).self_ns as f64 / n as f64;
    SpanCost {
        inside_ns: inside,
        outside_ns: outside,
    }
}

/// The per-layer ledger of a traced run.
pub struct Ledger<'a> {
    pub tracer: &'a Tracer,
    pub cost: SpanCost,
}

impl Ledger<'_> {
    /// Self time of kind `id` net of what recording its spans (and the
    /// spans opened inside them) cost.
    pub fn net_self_ns(&self, id: SpanId) -> f64 {
        let s = self.tracer.stat(id);
        (s.self_ns as f64
            - s.count as f64 * self.cost.inside_ns
            - s.children as f64 * self.cost.outside_ns)
            .max(0.0)
    }

    /// Mean net self time per call of kind `id`; 0 when never called.
    pub fn mean_self_ns(&self, id: SpanId) -> f64 {
        match self.tracer.stat(id).count {
            0 => 0.0,
            n => self.net_self_ns(id) / n as f64,
        }
    }

    /// (Σ library self time + driver self time) ÷ independently measured
    /// wall time of the traced rounds. 1.0 when no span was lost or
    /// double-counted.
    pub fn closure(&self, wall_ns: u64) -> f64 {
        if wall_ns == 0 {
            return 0.0;
        }
        self.tracer.self_total_ns() as f64 / wall_ns as f64
    }

    /// Share of traced wall time spent outside library calls and handlers.
    pub fn driver_share(&self, wall_ns: u64) -> f64 {
        if wall_ns == 0 {
            return 0.0;
        }
        self.tracer.stat(SpanId::Driver).self_ns as f64 / wall_ns as f64
    }
}

/// Chrome-trace (`chrome://tracing`, Perfetto) JSON of the kept spans plus
/// the per-kind aggregates under `"stats"`.
pub fn chrome_trace_json(tracer: &Tracer) -> String {
    let mut out = String::with_capacity(128 + tracer.kept.len() * 110);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in tracer.kept.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"op\":{},\"parent\":{}}}}}",
            s.id.name(),
            s.start_ns as f64 / 1000.0,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1000.0,
            i,
            s.op,
            s.parent.map_or(-1, i64::from),
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\",\"stats\":{");
    let mut first = true;
    for id in SpanId::ALL {
        let s = tracer.stat(id);
        if s.count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let top = s.hist.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        let _ = write!(
            out,
            "\n\"{}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{},\"log2_hist\":{:?}}}",
            id.name(),
            s.count,
            s.total_ns,
            s.self_ns,
            &s.hist[..top],
        );
    }
    out.push_str("\n}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a tracer with explicit timestamps.
    fn scripted(script: &[(&str, u64, Option<SpanId>)]) -> Tracer {
        let mut t = Tracer::new();
        t.set_op(0);
        for &(what, at, id) in script {
            match what {
                "enter" => t.enter(at),
                _ => t.exit(id.expect("exit names the kind"), at),
            }
        }
        t
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // round [0,100] { advance [10,60] { handler [20,30], handler [30,45] }, send [70,80] }
        let t = scripted(&[
            ("enter", 0, None),
            ("enter", 10, None),
            ("enter", 20, None),
            ("exit", 30, Some(SpanId::Handler)),
            ("enter", 30, None),
            ("exit", 45, Some(SpanId::Handler)),
            ("exit", 60, Some(SpanId::AdvanceBusy)),
            ("enter", 70, None),
            ("exit", 80, Some(SpanId::Send)),
            ("exit", 100, Some(SpanId::Driver)),
        ]);
        assert_eq!(t.stat(SpanId::Handler).count, 2);
        assert_eq!(t.stat(SpanId::Handler).self_ns, 25);
        assert_eq!(t.stat(SpanId::AdvanceBusy).total_ns, 50);
        assert_eq!(
            t.stat(SpanId::AdvanceBusy).self_ns,
            25,
            "two adjacent children removed"
        );
        assert_eq!(t.stat(SpanId::AdvanceBusy).children, 2);
        assert_eq!(t.stat(SpanId::Send).self_ns, 10);
        assert_eq!(
            t.stat(SpanId::Driver).self_ns,
            40,
            "grandchildren are not subtracted twice"
        );
        assert_eq!(t.stat(SpanId::Driver).children, 2);
        assert_eq!(t.self_total_ns(), 100);
    }

    #[test]
    fn kept_spans_carry_parent_and_op() {
        let t = scripted(&[
            ("enter", 0, None),
            ("enter", 5, None),
            ("exit", 9, Some(SpanId::Handler)),
            ("exit", 12, Some(SpanId::AdvanceBusy)),
        ]);
        assert_eq!(
            t.kept,
            vec![
                SpanRec {
                    id: SpanId::AdvanceBusy,
                    start_ns: 0,
                    end_ns: 12,
                    parent: None,
                    op: 0
                },
                SpanRec {
                    id: SpanId::Handler,
                    start_ns: 5,
                    end_ns: 9,
                    parent: Some(0),
                    op: 0
                },
            ]
        );
        // An op that is not the one in KEEP_EVERY is aggregated but not kept.
        let mut t = Tracer::new();
        t.set_op(1);
        t.enter(0);
        t.exit(SpanId::Send, 4);
        assert!(t.kept.is_empty());
        assert_eq!(t.stat(SpanId::Send).count, 1);
    }

    #[test]
    fn ledger_closure_and_net_means() {
        let t = scripted(&[
            ("enter", 0, None),
            ("enter", 100, None),
            ("exit", 200, Some(SpanId::Send)),
            ("enter", 300, None),
            ("exit", 500, Some(SpanId::Send)),
            ("exit", 1000, Some(SpanId::Driver)),
        ]);
        let ledger = Ledger {
            tracer: &t,
            cost: SpanCost {
                inside_ns: 20.0,
                outside_ns: 30.0,
            },
        };
        assert_eq!(ledger.closure(1000), 1.0);
        assert_eq!(ledger.closure(800), 1.25);
        assert_eq!(ledger.driver_share(1000), 0.7);
        // (100 + 200 − 2·20) / 2 calls
        assert_eq!(ledger.mean_self_ns(SpanId::Send), 130.0);
        // The root pays the outside cost of its two children and the inside
        // cost of itself: 700 − 20 − 2·30.
        assert_eq!(ledger.net_self_ns(SpanId::Driver), 620.0);
        assert_eq!(ledger.mean_self_ns(SpanId::Put), 0.0);
    }

    #[test]
    fn chrome_json_lists_spans_and_stats() {
        let t = scripted(&[("enter", 1500, None), ("exit", 4500, Some(SpanId::Put))]);
        let j = chrome_trace_json(&t);
        assert!(j.contains("\"name\":\"pami.put\""));
        assert!(j.contains("\"ts\":1.500") && j.contains("\"dur\":3.000"));
        assert!(j.contains("\"parent\":-1"));
        assert!(j.contains("\"pami.put\":{\"count\":1,\"total_ns\":3000,\"self_ns\":3000"));
        assert!(bgq_mu::json::parse(&j).is_ok(), "trace file is valid JSON");
    }

    #[test]
    fn spans_are_free_of_side_effects_when_off() {
        set_enabled(false);
        let _ = take();
        assert_eq!(span(SpanId::Send, || 7), 7);
        assert_eq!(advance_span(|| 3), 3);
        assert_eq!(take().self_total_ns(), 0);
    }
}
