//! Reception/injection byte counters.
//!
//! The MU tracks transfer completion through counters in L2 atomic memory:
//! software arms a counter with the expected byte count and the hardware
//! decrements it as packets are sent or delivered; zero means complete.
//! Progress loops poll the counter (or park on a wakeup region covering it)
//! instead of inspecting packets — this is the only completion signal the
//! dynamically-routed direct-put path has.
//!
//! With the RAS reliability layer a counter can also *fail*: when the
//! link-level retry protocol exhausts its budget the transfer will never
//! complete, and polling loops must not hang. A failed counter reports
//! [`Counter::is_complete`] = `true` (so `advance`-until-complete loops
//! terminate) and carries the [`DeliveryFault`] for the completion callback
//! to translate into a typed error.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Why a transfer tracked by a [`Counter`] will never complete. The MU
/// analogue of a RAS fatal-event code attached to a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum DeliveryFault {
    /// Link-level retry budget exhausted (persistent drop/corruption).
    Timeout = 1,
    /// No healthy route to the destination (link(s) killed).
    Unreachable = 2,
    /// Payload failed its CRC check and could not be recovered.
    Corrupt = 3,
    /// The transfer was abandoned for another reason (e.g. teardown).
    Aborted = 4,
}

impl DeliveryFault {
    fn from_u8(v: u8) -> Option<DeliveryFault> {
        match v {
            1 => Some(DeliveryFault::Timeout),
            2 => Some(DeliveryFault::Unreachable),
            3 => Some(DeliveryFault::Corrupt),
            4 => Some(DeliveryFault::Aborted),
            _ => None,
        }
    }
}

/// A shareable completion counter ("hardware" decrements, software polls).
#[derive(Clone, Debug, Default)]
pub struct Counter {
    state: Arc<CounterState>,
}

/// The byte word and its fault flag in one allocation. A counter is made
/// per message (a rendezvous pull, a collective call, every MPI request
/// until its slab pools it), so unlike the long-lived [`crate::L2Counter`]
/// words it is not padded out to an L2 line of its own: that made every
/// `new` a 128-byte-aligned allocation, the refcount shares the word's
/// line either way, and `msgrate`'s multi-context scaling gate — the one
/// multi-threaded poller of these — passes with and without the padding.
#[derive(Debug, Default)]
struct CounterState {
    /// Outstanding bytes; the L2 word the MU decrements.
    word: AtomicU64,
    /// 0 = healthy; otherwise a `DeliveryFault` discriminant. First failure
    /// wins — later deliveries/failures cannot clear it.
    fault: AtomicU8,
}

impl Counter {
    /// A counter armed at zero (already complete).
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm the counter with `bytes` outstanding. Adding (rather than
    /// storing) lets one counter track several descriptors, as PAMI does
    /// for multi-slice transfers.
    pub fn add_expected(&self, bytes: u64) {
        self.state.word.fetch_add(bytes, Ordering::AcqRel);
    }

    /// Hardware side: record `bytes` delivered.
    pub fn delivered(&self, bytes: u64) {
        self.state.word.fetch_sub(bytes, Ordering::AcqRel);
    }

    /// Outstanding byte count.
    pub fn outstanding(&self) -> u64 {
        self.state.word.load(Ordering::Acquire)
    }

    /// RAS side: mark the transfer as permanently failed. First fault wins;
    /// returns `true` if this call recorded the fault.
    pub fn fail(&self, fault: DeliveryFault) -> bool {
        self.state
            .fault
            .compare_exchange(0, fault as u8, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// The recorded delivery fault, if the transfer failed.
    pub fn fault(&self) -> Option<DeliveryFault> {
        DeliveryFault::from_u8(self.state.fault.load(Ordering::Acquire))
    }

    /// Whether polling should stop: every armed byte delivered, *or* the
    /// transfer failed and will never finish.
    pub fn is_complete(&self) -> bool {
        self.outstanding() == 0 || self.fault().is_some()
    }

    /// Completed successfully: all bytes delivered and no fault recorded.
    pub fn is_ok(&self) -> bool {
        self.outstanding() == 0 && self.fault().is_none()
    }

    /// Whether any clone of this counter is alive besides `self` — a
    /// descriptor still in flight, a retry queue, a poller. A pooled owner
    /// (the MPI request slab) re-arms a counter only when this is `false`:
    /// nobody else can then credit or fail the next transfer by mistake.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.state) > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_and_completes() {
        let c = Counter::new();
        assert!(c.is_complete());
        c.add_expected(100);
        assert!(!c.is_complete());
        assert_eq!(c.outstanding(), 100);
        c.delivered(60);
        c.delivered(40);
        assert!(c.is_complete());
        assert!(c.is_ok());
    }

    #[test]
    fn clones_share_state() {
        let c = Counter::new();
        let c2 = c.clone();
        c.add_expected(8);
        c2.delivered(8);
        assert!(c.is_complete());
    }

    #[test]
    fn shared_while_a_clone_lives() {
        let c = Counter::new();
        assert!(!c.is_shared());
        let c2 = c.clone();
        assert!(c.is_shared() && c2.is_shared());
        drop(c2);
        assert!(!c.is_shared());
    }

    #[test]
    fn tracks_multiple_descriptors() {
        let c = Counter::new();
        c.add_expected(10);
        c.add_expected(20);
        c.delivered(25);
        assert_eq!(c.outstanding(), 5);
        c.delivered(5);
        assert!(c.is_complete());
    }

    #[test]
    fn failure_completes_without_delivery() {
        let c = Counter::new();
        c.add_expected(4096);
        assert!(!c.is_complete());
        assert!(c.fail(DeliveryFault::Timeout));
        assert!(c.is_complete(), "failed counter must not hang pollers");
        assert!(!c.is_ok());
        assert_eq!(c.fault(), Some(DeliveryFault::Timeout));
        assert_eq!(c.outstanding(), 4096, "bytes stay outstanding");
    }

    #[test]
    fn first_fault_wins() {
        let c = Counter::new();
        c.add_expected(1);
        assert!(c.fail(DeliveryFault::Unreachable));
        assert!(!c.fail(DeliveryFault::Timeout));
        assert_eq!(c.fault(), Some(DeliveryFault::Unreachable));
        let c2 = c.clone();
        assert_eq!(c2.fault(), Some(DeliveryFault::Unreachable), "clones share fault");
    }
}
