//! A minimal discrete-event simulation core.
//!
//! Entities schedule [`Event`]s at absolute times; the engine pops them in
//! time order and hands them to the model's handler, which may schedule
//! more. Time is `f64` seconds. The tree simulation of `coll`'s latency
//! models runs on this engine.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at `time` carrying a model-defined payload.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Event<T> {
    /// Absolute simulation time (seconds).
    pub(crate) time: f64,
    /// Tie-break sequence (FIFO among simultaneous events).
    pub(crate) seq: u64,
    /// Model payload.
    pub(crate) payload: T,
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
pub(crate) struct Engine<T> {
    heap: BinaryHeap<Event<T>>,
    now: f64,
    seq: u64,
}

impl<T: PartialEq> Engine<T> {
    /// An empty engine at time zero.
    pub(crate) fn new() -> Self {
        Engine { heap: BinaryHeap::new(), now: 0.0, seq: 0 }
    }

    /// Schedule `payload` at absolute time `time` (must not precede `now`).
    pub(crate) fn schedule(&mut self, time: f64, payload: T) {
        debug_assert!(time >= self.now - 1e-15, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Event { time, seq, payload });
    }

    /// Pop the next event, advancing time.
    #[allow(clippy::should_implement_trait)] // not an Iterator: `drive` schedules while popping
    pub(crate) fn next(&mut self) -> Option<Event<T>> {
        let ev = self.heap.pop()?;
        self.now = ev.time;
        Some(ev)
    }
}

impl<T: PartialEq + Clone> Engine<T> {
    /// Run until no events remain; returns the final time. The handler
    /// receives each event and a scheduling callback (avoids borrowing the
    /// engine twice from handlers that capture state).
    pub(crate) fn drive(&mut self, mut handler: impl FnMut(f64, T, &mut Vec<(f64, T)>)) -> f64 {
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
        assert_eq!(e.now, 3.0);
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
        let mut handled = 0;
        let end = e.drive(|t, n, out| {
            handled += 1;
            if n < 5 {
                out.push((t + 1.0, n + 1));
            }
        });
        assert_eq!(end, 5.0);
        assert_eq!(handled, 6);
    }
}
