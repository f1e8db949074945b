//! The receive matching engine.
//!
//! The paper kept "the default MPICH2 receive queue algorithm with a low
//! overhead L2 atomic mutex to serialize access to it" because wildcard
//! receives — common in Blue Gene applications — make parallel receive
//! queues painful (section IV.A). That is exactly the structure here: one
//! posted-receive queue plus one unexpected-message queue per rank, inside
//! a single [`L2TicketMutex`] — the queues are the lock's data, so
//! [`MatchEngine::lock`] is the only way to them and the only lock a
//! matching call takes; first-match semantics in queue order implement the
//! MPI ordering rules, including `ANY_SOURCE` / `ANY_TAG`.

use std::collections::VecDeque;
use std::sync::Arc;

use bgq_hw::mutex::L2TicketGuard;
use bgq_hw::{L2TicketMutex, MemRegion};
use bgq_upc::{Counter, Histogram, Upc};
use parking_lot::Mutex;

use crate::request::RequestInner;
use crate::types::{matches, Status, Tag, ANY_SOURCE, ANY_TAG};

/// A posted receive waiting for its message.
pub struct PostedRecv {
    /// Wanted source rank (or [`crate::ANY_SOURCE`]).
    pub src: i32,
    /// Wanted tag (or [`crate::ANY_TAG`]).
    pub tag: Tag,
    /// Communicator id.
    pub comm: u32,
    /// Destination buffer.
    pub buffer: (MemRegion, usize, usize),
    /// Request to complete.
    pub request: Arc<RequestInner>,
}

/// Where an unexpected message's payload is.
pub enum Staged {
    /// The whole message came in its first packet: the bytes, copied out of
    /// the packet buffer — the message's one allocation.
    Whole(Box<[u8]>),
    /// A multi-packet message streaming into a staging region ("a buffer is
    /// allocated to receive the message"); `state` is shared with the
    /// deposit completion callback.
    Streaming {
        /// The staging buffer.
        staging: MemRegion,
        /// Arrival/claim state.
        state: Arc<Mutex<UnexpectedData>>,
    },
}

/// State of a [`Staged::Streaming`] payload.
pub enum UnexpectedData {
    /// Payload still streaming into the staging buffer.
    Arriving,
    /// Fully staged.
    Ready,
    /// A posted receive claimed it mid-arrival; deliver there on arrival.
    Claimed {
        /// The claimant's buffer.
        buffer: (MemRegion, usize, usize),
        /// The claimant's request.
        request: Arc<RequestInner>,
    },
}

/// A message that arrived before its receive was posted.
pub struct Unexpected {
    /// Sender rank within the communicator.
    pub src: i32,
    /// Message tag.
    pub tag: Tag,
    /// Communicator id.
    pub comm: u32,
    /// Payload length.
    pub len: usize,
    /// The payload, or where it is arriving.
    pub data: Staged,
}

/// `match.*` telemetry probes: queue traffic, wildcard pressure, and the
/// depth distributions the paper's section IV.A discussion of parallel
/// receive queues turns on.
struct MatchProbes {
    /// Messages that matched a pre-posted receive (fast path).
    matched_posted: Counter,
    /// Posted receives that matched an already-staged unexpected message.
    matched_unexpected: Counter,
    /// Receives queued on the posted queue (matched nothing at post time).
    posted_queued: Counter,
    /// Messages staged on the unexpected queue.
    unexpected_queued: Counter,
    /// Successful matches whose posted selector used `ANY_SOURCE` or
    /// `ANY_TAG` — the wildcard traffic that forces the single-queue/L2
    /// mutex design.
    wildcard_hits: Counter,
    /// Posted-queue depth observed at each enqueue.
    posted_depth: Histogram,
    /// Unexpected-queue depth observed at each enqueue.
    unexpected_depth: Histogram,
}

impl MatchProbes {
    fn new(upc: &Upc) -> MatchProbes {
        MatchProbes {
            matched_posted: upc.counter("match.matched_posted"),
            matched_unexpected: upc.counter("match.matched_unexpected"),
            posted_queued: upc.counter("match.posted_queued"),
            unexpected_queued: upc.counter("match.unexpected_queued"),
            wildcard_hits: upc.counter("match.wildcard_hits"),
            posted_depth: upc.histogram("match.posted_depth"),
            unexpected_depth: upc.histogram("match.unexpected_depth"),
        }
    }
}

/// The per-rank matching engine.
pub struct MatchEngine {
    /// The L2 atomic mutex serializing queue access, and the queues in it.
    queues: L2TicketMutex<Queues>,
}

/// The two queues and their probes: what [`MatchEngine::lock`] guards.
/// Holding the guard across a match attempt and the enqueue that follows a
/// miss is what keeps match order consistent — the L2 mutex discipline of
/// the paper.
pub struct Queues {
    posted: VecDeque<PostedRecv>,
    unexpected: VecDeque<Unexpected>,
    probes: MatchProbes,
}

impl Default for MatchEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl MatchEngine {
    /// An empty engine with a private telemetry registry (unit tests,
    /// standalone use). Production ranks use
    /// [`MatchEngine::with_telemetry`] so `match.*` probes land in the
    /// machine-wide snapshot.
    pub fn new() -> MatchEngine {
        Self::with_telemetry(&Upc::new())
    }

    /// An empty engine registering its `match.*` probes on `upc`.
    pub fn with_telemetry(upc: &Upc) -> MatchEngine {
        MatchEngine {
            queues: L2TicketMutex::with(Queues {
                posted: VecDeque::new(),
                unexpected: VecDeque::new(),
                probes: MatchProbes::new(upc),
            }),
        }
    }

    /// Take the receive-queue mutex.
    pub fn lock(&self) -> L2TicketGuard<'_, Queues> {
        self.queues.lock()
    }

    /// Posted receives currently queued.
    pub fn posted_len(&self) -> usize {
        self.lock().posted.len()
    }

    /// Unexpected messages currently queued.
    pub fn unexpected_len(&self) -> usize {
        self.lock().unexpected.len()
    }

    /// Messages that matched a pre-posted receive (fast path count).
    /// Telemetry-backed: reads 0 when the `telemetry` feature is off.
    pub fn matched_posted_count(&self) -> u64 {
        self.lock().probes.matched_posted.value()
    }

    /// Messages that had to be staged unexpected. Telemetry-backed: reads
    /// 0 when the `telemetry` feature is off.
    pub fn unexpected_count(&self) -> u64 {
        self.lock().probes.unexpected_queued.value()
    }
}

impl Queues {
    /// Incoming-message side: find the first posted receive matching
    /// (src, tag, comm) and remove it, or `None` (the caller then stages
    /// the message as unexpected with [`Queues::add_unexpected`]).
    pub fn match_posted(&mut self, src: i32, tag: Tag, comm: u32) -> Option<PostedRecv> {
        let idx =
            self.posted.iter().position(|p| p.comm == comm && matches(p.src, p.tag, src, tag))?;
        self.probes.matched_posted.incr();
        let hit = self.posted.remove(idx);
        if let Some(p) = &hit {
            if p.src == ANY_SOURCE || p.tag == ANY_TAG {
                self.probes.wildcard_hits.incr();
            }
        }
        hit
    }

    /// Queue a message that matched nothing.
    pub fn add_unexpected(&mut self, msg: Unexpected) {
        self.probes.unexpected_queued.incr();
        self.unexpected.push_back(msg);
        self.probes.unexpected_depth.record(self.unexpected.len() as u64);
    }

    /// Receive-posting side: find the first unexpected message matching the
    /// selector and remove it, or `None` (the caller then posts the
    /// receive with [`Queues::add_posted`]).
    pub fn match_unexpected(&mut self, src: i32, tag: Tag, comm: u32) -> Option<Unexpected> {
        let idx = self
            .unexpected
            .iter()
            .position(|u| u.comm == comm && matches(src, tag, u.src, u.tag))?;
        self.probes.matched_unexpected.incr();
        if src == ANY_SOURCE || tag == ANY_TAG {
            self.probes.wildcard_hits.incr();
        }
        self.unexpected.remove(idx)
    }

    /// Queue a receive that matched nothing.
    pub fn add_posted(&mut self, recv: PostedRecv) {
        self.probes.posted_queued.incr();
        self.posted.push_back(recv);
        self.probes.posted_depth.record(self.posted.len() as u64);
    }

    /// Probe: the envelope of the first unexpected message matching the
    /// selector, without removing it (`MPI_Probe` support).
    pub fn peek_unexpected(&self, src: i32, tag: Tag, comm: u32) -> Option<Status> {
        self.unexpected
            .iter()
            .find(|u| u.comm == comm && matches(src, tag, u.src, u.tag))
            .map(|u| Status { source: u.src, tag: u.tag, len: u.len })
    }
}

/// Deliver an unexpected message to a posted receive: copy the staged
/// bytes (or arrange delivery on arrival) and complete the request.
pub fn deliver_unexpected(u: Unexpected, buffer: (MemRegion, usize, usize), req: Arc<RequestInner>) {
    assert!(u.len <= buffer.2, "receive buffer too small: {} < {}", buffer.2, u.len);
    let status = Status { source: u.src, tag: u.tag, len: u.len };
    let (staging, state) = match u.data {
        Staged::Whole(bytes) => {
            buffer.0.write(buffer.1, &bytes);
            return req.complete_with(status);
        }
        Staged::Streaming { staging, state } => (staging, state),
    };
    let mut state = state.lock();
    match &*state {
        UnexpectedData::Ready => {
            buffer.0.copy_from(buffer.1, &staging, 0, u.len);
            drop(state);
            req.complete_with(status);
        }
        UnexpectedData::Arriving => {
            *state = UnexpectedData::Claimed { buffer, request: req };
        }
        UnexpectedData::Claimed { .. } => unreachable!("unexpected message claimed twice"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn posted(src: i32, tag: Tag, comm: u32) -> PostedRecv {
        PostedRecv {
            src,
            tag,
            comm,
            buffer: (MemRegion::zeroed(8), 0, 8),
            request: RequestInner::armed(1),
        }
    }

    fn unexpected(src: i32, tag: Tag, comm: u32) -> Unexpected {
        Unexpected { src, tag, comm, len: 4, data: Staged::Whole(Box::new([1, 2, 3, 4])) }
    }

    /// A multi-packet message in `state`, its four bytes in the staging
    /// region.
    fn streaming(state: UnexpectedData) -> (Unexpected, Arc<Mutex<UnexpectedData>>) {
        let state = Arc::new(Mutex::new(state));
        let staging = MemRegion::from_vec(vec![1, 2, 3, 4]);
        let data = Staged::Streaming { staging, state: Arc::clone(&state) };
        (Unexpected { data, ..unexpected(1, 2, 0) }, state)
    }

    #[test]
    fn first_match_in_post_order() {
        let m = MatchEngine::new();
        let mut m = m.lock();
        m.add_posted(posted(crate::ANY_SOURCE, 5, 0));
        m.add_posted(posted(2, 5, 0));
        // A message from 2 with tag 5 must match the wildcard first (it was
        // posted first).
        let hit = m.match_posted(2, 5, 0).expect("match");
        assert_eq!(hit.src, crate::ANY_SOURCE);
        let hit2 = m.match_posted(2, 5, 0).expect("second match");
        assert_eq!(hit2.src, 2);
        assert!(m.match_posted(2, 5, 0).is_none());
    }

    #[test]
    fn communicators_do_not_cross_match() {
        let m = MatchEngine::new();
        let mut m = m.lock();
        m.add_posted(posted(1, 1, 7));
        assert!(m.match_posted(1, 1, 8).is_none());
        assert!(m.match_posted(1, 1, 7).is_some());
    }

    #[test]
    fn unexpected_queue_fifo_per_selector() {
        let m = MatchEngine::new();
        let mut m = m.lock();
        let mut u1 = unexpected(3, 9, 0);
        u1.len = 1;
        m.add_unexpected(u1);
        let mut u2 = unexpected(3, 9, 0);
        u2.len = 2;
        m.add_unexpected(u2);
        assert_eq!(m.match_unexpected(3, 9, 0).unwrap().len, 1, "FIFO");
        assert_eq!(m.match_unexpected(ANY, 9, 0).unwrap().len, 2);
        assert!(m.match_unexpected(3, 9, 0).is_none());
    }

    const ANY: i32 = crate::ANY_SOURCE;

    #[test]
    fn deliver_ready_unexpected_copies_and_completes() {
        for u in [unexpected(1, 2, 0), streaming(UnexpectedData::Ready).0] {
            let buf = MemRegion::zeroed(8);
            let req = RequestInner::armed(1);
            deliver_unexpected(u, (buf.clone(), 2, 6), Arc::clone(&req));
            assert!(req.is_complete());
            assert_eq!(&buf.to_vec()[2..6], &[1, 2, 3, 4]);
            let st = req.status();
            assert_eq!(st.len, 4);
            assert_eq!(st.source, 1);
        }
    }

    #[test]
    fn deliver_arriving_unexpected_claims() {
        let (u, state) = streaming(UnexpectedData::Arriving);
        let req = RequestInner::armed(1);
        deliver_unexpected(u, (MemRegion::zeroed(8), 0, 8), Arc::clone(&req));
        assert!(!req.is_complete(), "claimed, not yet complete");
        assert!(matches!(&*state.lock(), UnexpectedData::Claimed { .. }));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn overflowing_receive_buffer_panics() {
        let mut u = unexpected(1, 2, 0);
        u.len = 16;
        u.data = Staged::Whole(Box::new([0; 16]));
        deliver_unexpected(u, (MemRegion::zeroed(8), 0, 8), RequestInner::armed(1));
    }
}
