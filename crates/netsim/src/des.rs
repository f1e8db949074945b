//! A minimal discrete-event simulation core.
//!
//! Entities schedule [`Event`]s at absolute times; the engine pops them in
//! time order and hands them to the model's handler, which may schedule
//! more. Time is `f64` seconds. The tree simulation of `coll`'s latency
//! models and `bgq-scale`'s virtual fabric run on this engine.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at `time` carrying a model-defined payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event<T> {
    /// Absolute simulation time (seconds).
    pub time: f64,
    /// Tie-break sequence (FIFO among simultaneous events).
    pub seq: u64,
    /// Model payload.
    pub payload: T,
}

impl<T: PartialEq> Eq for Event<T> {}

impl<T: PartialEq> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: PartialEq> Ord for Event<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (time, seq) through reversal.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The event engine.
pub struct Engine<T> {
    heap: BinaryHeap<Event<T>>,
    now: f64,
    seq: u64,
    processed: u64,
}

impl<T: PartialEq> Default for Engine<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: PartialEq> Engine<T> {
    /// An empty engine at time zero.
    pub fn new() -> Self {
        Engine { heap: BinaryHeap::new(), now: 0.0, seq: 0, processed: 0 }
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedule `payload` at absolute time `time` (must not precede `now`).
    pub fn schedule(&mut self, time: f64, payload: T) {
        debug_assert!(time >= self.now - 1e-15, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Event { time, seq, payload });
    }

    /// Pop the next event, advancing time.
    #[allow(clippy::should_implement_trait)] // not an Iterator: &mut self re-entrancy with run()
    pub fn next(&mut self) -> Option<Event<T>> {
        let ev = self.heap.pop()?;
        self.now = ev.time;
        self.processed += 1;
        Some(ev)
    }

    /// Pop the next event only if it is due at or before `limit`, advancing
    /// time to it. `None` leaves the engine (and its clock) untouched — the
    /// co-simulation pump, which drains events up to a shared virtual "now"
    /// without ever running ahead of it.
    pub fn next_due(&mut self, limit: f64) -> Option<Event<T>> {
        if self.heap.peek()?.time > limit {
            return None;
        }
        self.next()
    }

    /// The time of the earliest pending event, if any (does not advance).
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|ev| ev.time)
    }

    /// Run `handler` until no events remain; returns the final time.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Engine<T>, Event<T>)) -> f64 {
        while let Some(ev) = self.next() {
            handler(self, ev);
        }
        self.now
    }

    /// Whether any events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

// `run` needs to pass `self` to the handler while popping; do it with a
// manual loop instead of borrowing self twice.
impl<T: PartialEq + Clone> Engine<T> {
    /// Like [`Engine::run`] but the handler receives a scheduling callback
    /// (avoids the double borrow for handlers that capture state).
    pub fn drive(&mut self, mut handler: impl FnMut(f64, T, &mut Vec<(f64, T)>)) -> f64 {
        let mut out: Vec<(f64, T)> = Vec::new();
        while let Some(ev) = self.next() {
            out.clear();
            handler(ev.time, ev.payload, &mut out);
            for (t, p) in out.drain(..) {
                self.schedule(t, p);
            }
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(3.0, 3);
        e.schedule(1.0, 1);
        e.schedule(2.0, 2);
        assert_eq!(e.next().unwrap().payload, 1);
        assert_eq!(e.next().unwrap().payload, 2);
        assert_eq!(e.next().unwrap().payload, 3);
        assert!(e.next().is_none());
        assert_eq!(e.now(), 3.0);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(1.0, 10);
        e.schedule(1.0, 11);
        e.schedule(1.0, 12);
        assert_eq!(e.next().unwrap().payload, 10);
        assert_eq!(e.next().unwrap().payload, 11);
        assert_eq!(e.next().unwrap().payload, 12);
    }

    #[test]
    fn drive_cascades_events() {
        // A chain: each event schedules the next until 5.
        let mut e: Engine<u32> = Engine::new();
        e.schedule(0.0, 0);
        let end = e.drive(|t, n, out| {
            if n < 5 {
                out.push((t + 1.0, n + 1));
            }
        });
        assert_eq!(end, 5.0);
        assert_eq!(e.processed(), 6);
    }

    #[test]
    fn next_due_respects_the_limit() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(1.0, 1);
        e.schedule(2.0, 2);
        assert_eq!(e.peek_time(), Some(1.0));
        assert_eq!(e.next_due(0.5), None);
        assert_eq!(e.now(), 0.0, "a declined pop must not advance time");
        assert_eq!(e.next_due(1.0).unwrap().payload, 1);
        assert_eq!(e.now(), 1.0);
        assert_eq!(e.next_due(1.5), None);
        assert_eq!(e.next_due(10.0).unwrap().payload, 2);
        assert_eq!(e.next_due(10.0), None, "empty engine yields nothing");
    }
}
