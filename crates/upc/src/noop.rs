//! No-op mirror of the telemetry API, selected when the `telemetry` feature
//! is disabled. Every type is zero-sized and every method is an empty
//! `#[inline(always)]`, so probes in the PAMI stack compile away entirely —
//! the disabled build carries no instrumentation code at all.

use crate::{Snapshot, TraceEvent};

/// Zero-sized stand-in for the telemetry timestamp.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stamp;

impl Stamp {
    #[inline(always)]
    pub fn now() -> Self {
        Stamp
    }

    #[inline(always)]
    pub fn ns(&self) -> u64 {
        0
    }
}

/// Zero-sized no-op counter.
#[derive(Clone, Default)]
pub struct Counter;

impl Counter {
    #[inline(always)]
    pub fn add(&self, _n: u64) {}

    #[inline(always)]
    pub fn incr(&self) {}

    #[inline(always)]
    pub fn value(&self) -> u64 {
        0
    }
}

/// Zero-sized no-op histogram.
#[derive(Clone, Default)]
pub struct Histogram;

impl Histogram {
    #[inline(always)]
    pub fn record(&self, _v: u64) {}

    #[inline(always)]
    pub fn record_since(&self, _start: Stamp) {}

    #[inline(always)]
    pub fn count(&self) -> u64 {
        0
    }

    #[inline(always)]
    pub fn sum(&self) -> u64 {
        0
    }

    #[inline(always)]
    pub fn max(&self) -> u64 {
        0
    }

    #[inline(always)]
    pub fn summary(&self) -> crate::HistSummary {
        crate::HistSummary::default()
    }
}

/// Zero-sized no-op registry.
#[derive(Clone, Default)]
pub struct Upc;

impl Upc {
    #[inline(always)]
    pub fn new() -> Self {
        Upc
    }

    #[inline(always)]
    pub fn counter(&self, _name: &'static str) -> Counter {
        Counter
    }

    #[inline(always)]
    pub fn histogram(&self, _name: &'static str) -> Histogram {
        Histogram
    }

    #[inline(always)]
    pub fn stamp(&self) -> Stamp {
        Stamp
    }

    #[inline(always)]
    pub fn now_ns(&self) -> u64 {
        0
    }

    #[inline(always)]
    pub fn trace_span(&self, _name: &'static str, _start: Stamp, _arg: u64) {}

    #[inline(always)]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }

    #[inline(always)]
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        Vec::new()
    }

    pub fn chrome_trace_json(&self) -> String {
        crate::chrome_trace_json(&[])
    }

    pub fn report_json(&self) -> String {
        Snapshot::default().report_json()
    }
}
