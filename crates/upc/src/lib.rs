//! `bgq-upc` — a software reconstruction of the BG/Q **Universal Performance
//! Counter** (UPC) unit: the always-on, always-cheap observability substrate
//! the PAMI paper leans on for its entire evaluation (where do cycles go —
//! injection, matching, locking, commthread handoff, collective phases?).
//!
//! Three primitives, all lock-free on the record path:
//!
//! * [`Counter`] — cache-padded cells striped by thread. Each live thread
//!   owns one stripe slot, taken on its first bump and handed back when it
//!   exits, and bumps its stripe with a non-RMW relaxed `load + store` (a
//!   single writer per stripe makes this exact); threads beyond the stripe
//!   count share one overflow cell via `fetch_add`. Reads aggregate at
//!   snapshot time, so the hot path never contends.
//! * [`Histogram`] — HDR-style power-of-two-bucket latency histogram (65
//!   buckets covering the full `u64` range) with p50/p99/max summaries, on
//!   the same thread-owned stripes (each allocated on its first record).
//! * Trace ring — a per-thread SPSC ring buffer of spans (fixed capacity,
//!   drop-oldest) written with a seqlock per slot so a reader on any thread
//!   can merge a consistent timeline and export it as chrome://tracing JSON.
//!
//! Everything hangs off a [`Upc`] registry handle (cheaply cloneable). The
//! whole crate is behind the `telemetry` cargo feature: with it disabled the
//! same API surface is exported but every type is a zero-sized no-op, so
//! probes in the PAMI stack compile away entirely.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Bucket math (always compiled: pure functions, shared by impl and tests)
// ---------------------------------------------------------------------------

/// Number of power-of-two buckets: bucket 0 holds the value 0, bucket `k`
/// (1 ≤ k ≤ 64) holds values in `[2^(k-1), 2^k - 1]`.
pub const HIST_BUCKETS: usize = 65;

/// Map a value to its power-of-two bucket index.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (used when reporting quantiles).
#[cfg(any(feature = "telemetry", test))]
#[inline]
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

/// Inclusive lower bound of a bucket (used for intra-bucket interpolation
/// when reporting quantiles).
#[cfg(any(feature = "telemetry", test))]
#[inline]
pub(crate) fn bucket_lower_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=64 => 1u64 << (i - 1),
        _ => u64::MAX,
    }
}

// ---------------------------------------------------------------------------
// Summary / snapshot types (always compiled; empty under no-op builds)
// ---------------------------------------------------------------------------

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistSummary {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p99: u64,
}

impl HistSummary {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Aggregated view of every registered counter and histogram. Multiple
/// instances registered under the same name (e.g. one per node or per
/// context) are summed into a single entry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, summary)` sorted by name.
    pub histograms: Vec<(String, HistSummary)>,
}

impl Snapshot {
    /// Value of a counter by exact name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Summary of a histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<HistSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
    }

    /// Sum of all counters whose name starts with `prefix` followed by `.`
    /// — the layer convention used across the PAMI stack (`mu.*`, `ctx.*`,
    /// `match.*`, `coll.*`, `commthread.*`).
    pub fn layer_total(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| n.len() > prefix.len() && n.starts_with(prefix) && n.as_bytes()[prefix.len()] == b'.')
            .map(|(_, v)| *v)
            .sum()
    }

    /// Render the `pamistat`-style report JSON (hand-rolled; no serde in the
    /// offline workspace).
    pub fn report_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {}", escape_json(name), v);
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, s)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {:.1}, \"p50\": {}, \"p99\": {}, \"max\": {}}}",
                escape_json(name),
                s.count,
                s.sum,
                s.mean(),
                s.p50,
                s.p99,
                s.max
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Trace events (always compiled)
// ---------------------------------------------------------------------------

/// One merged trace event: a complete span (chrome://tracing `ph: "X"`).
/// Timestamps are nanoseconds from a process-global epoch, so events from
/// different threads interleave on one clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub name: &'static str,
    pub ts_ns: u64,
    pub dur_ns: u64,
    pub tid: u64,
    pub arg: u64,
}

/// Serialize events to chrome://tracing's JSON object format
/// (`chrome://tracing` / Perfetto both load it). Timestamps are microseconds.
fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"v\":{}}}}}",
            escape_json(e.name),
            e.tid,
            e.ts_ns as f64 / 1000.0,
            e.dur_ns as f64 / 1000.0,
            e.arg
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

fn escape_json(s: &str) -> String {
    if s.bytes().all(|b| b != b'"' && b != b'\\' && b >= 0x20) {
        return s.to_owned();
    }
    let mut out = String::with_capacity(s.len() + 4);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Implementation selection
// ---------------------------------------------------------------------------

#[cfg(feature = "telemetry")]
mod enabled;
#[cfg(feature = "telemetry")]
pub use enabled::{Counter, Histogram, Stamp, Upc};

#[cfg(not(feature = "telemetry"))]
mod noop;
#[cfg(not(feature = "telemetry"))]
pub use noop::{Counter, Histogram, Stamp, Upc};

/// True when the crate was compiled with the `telemetry` feature — callers
/// use this to gate value assertions and report emission.
pub const ENABLED: bool = cfg!(feature = "telemetry");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for k in 1..64u32 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v - 1), k as usize, "2^{k}-1");
            assert_eq!(bucket_index(v), k as usize + 1, "2^{k}");
            assert_eq!(bucket_index(v + 1), k as usize + 1, "2^{k}+1");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_cover_index() {
        for i in 0..HIST_BUCKETS {
            let ub = bucket_upper_bound(i);
            assert_eq!(bucket_index(ub), i);
            let lb = bucket_lower_bound(i);
            assert_eq!(bucket_index(lb), i);
            assert!(lb <= ub);
        }
    }

    #[test]
    fn chrome_json_shape() {
        let evs = [TraceEvent {
            name: "barrier",
            ts_ns: 1500,
            dur_ns: 3000,
            tid: 7,
            arg: 2,
        }];
        let j = chrome_trace_json(&evs);
        assert!(j.contains("\"traceEvents\""));
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"ts\":1.500"));
        assert!(j.contains("\"dur\":3.000"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape_json("plain.name"), "plain.name");
        assert_eq!(escape_json("a\"b"), "a\\\"b");
    }
}
