//! Property-based tests of the matching engine against a reference model
//! of the MPI matching rules, and of the request slab against a map.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bgq_hw::MemRegion;
use pami_mpi::matching::{MatchEngine, PostedRecv, Staged, Unexpected};
use pami_mpi::request::{RequestAllocator, RequestInner};
use pami_mpi::{Request, ANY_SOURCE, ANY_TAG};
use proptest::prelude::*;

/// A reference model: plain vectors with first-match-in-order semantics.
#[derive(Default)]
struct Model {
    posted: Vec<(i32, i32, u32)>,
    unexpected: Vec<(i32, i32, u32)>,
}

fn matches(want_src: i32, want_tag: i32, src: i32, tag: i32) -> bool {
    (want_src == ANY_SOURCE || want_src == src) && (want_tag == ANY_TAG || want_tag == tag)
}

impl Model {
    fn arrive(&mut self, src: i32, tag: i32, comm: u32) -> Option<usize> {
        let idx = self
            .posted
            .iter()
            .position(|(s, t, c)| *c == comm && matches(*s, *t, src, tag));
        match idx {
            Some(i) => {
                self.posted.remove(i);
                Some(i)
            }
            None => {
                self.unexpected.push((src, tag, comm));
                None
            }
        }
    }

    fn post(&mut self, src: i32, tag: i32, comm: u32) -> Option<usize> {
        let idx = self
            .unexpected
            .iter()
            .position(|(s, t, c)| *c == comm && matches(src, tag, *s, *t));
        match idx {
            Some(i) => {
                self.unexpected.remove(i);
                Some(i)
            }
            None => {
                self.posted.push((src, tag, comm));
                None
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// An incoming message (src, tag, comm).
    Arrive(i32, i32, u32),
    /// A posted receive (src or ANY, tag or ANY, comm).
    Post(i32, i32, u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let src = prop_oneof![Just(ANY_SOURCE), 0i32..4];
    let tag = prop_oneof![Just(ANY_TAG), 0i32..4];
    let comm = 0u32..2;
    prop_oneof![
        (0i32..4, 0i32..4, comm.clone()).prop_map(|(s, t, c)| Op::Arrive(s, t, c)),
        (src, tag, comm).prop_map(|(s, t, c)| Op::Post(s, t, c)),
    ]
}

fn posted(src: i32, tag: i32, comm: u32) -> PostedRecv {
    PostedRecv {
        src,
        tag,
        comm,
        buffer: (MemRegion::zeroed(8), 0, 8),
        request: RequestInner::armed(1),
    }
}

fn unexpected(src: i32, tag: i32, comm: u32) -> Unexpected {
    Unexpected { src, tag, comm, len: 0, data: Staged::Whole(Box::new([])) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary interleavings of arrivals and posts produce exactly the
    /// matches the MPI rules dictate, with identical queue residues.
    #[test]
    fn engine_matches_reference_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let engine = MatchEngine::new();
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Arrive(src, tag, comm) => {
                    let model_hit = model.arrive(src, tag, comm);
                    let mut queues = engine.lock();
                    let engine_hit = queues.match_posted(src, tag, comm);
                    match (model_hit, engine_hit) {
                        (Some(_), Some(hit)) => {
                            prop_assert!(matches(hit.src, hit.tag, src, tag));
                            prop_assert_eq!(hit.comm, comm);
                        }
                        (None, None) => queues.add_unexpected(unexpected(src, tag, comm)),
                        (m, e) => {
                            return Err(TestCaseError::fail(format!(
                                "divergence on arrive: model={m:?} engine_hit={}",
                                e.is_some()
                            )))
                        }
                    }
                }
                Op::Post(src, tag, comm) => {
                    let model_hit = model.post(src, tag, comm);
                    let mut queues = engine.lock();
                    let engine_hit = queues.match_unexpected(src, tag, comm);
                    match (model_hit, engine_hit) {
                        (Some(_), Some(hit)) => {
                            prop_assert!(matches(src, tag, hit.src, hit.tag));
                            prop_assert_eq!(hit.comm, comm);
                        }
                        (None, None) => queues.add_posted(posted(src, tag, comm)),
                        (m, e) => {
                            return Err(TestCaseError::fail(format!(
                                "divergence on post: model={m:?} engine_hit={}",
                                e.is_some()
                            )))
                        }
                    }
                }
            }
            prop_assert_eq!(engine.posted_len(), model.posted.len());
            prop_assert_eq!(engine.unexpected_len(), model.unexpected.len());
        }
    }

    /// A message can match at most one receive and vice versa (conservation:
    /// total matches + residues == total operations).
    #[test]
    fn matching_conserves_messages(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let engine = MatchEngine::new();
        let mut arrivals = 0usize;
        let mut posts = 0usize;
        let mut matched = 0usize;
        for op in ops {
            match op {
                Op::Arrive(src, tag, comm) => {
                    arrivals += 1;
                    let mut queues = engine.lock();
                    match queues.match_posted(src, tag, comm) {
                        Some(_) => matched += 1,
                        None => queues.add_unexpected(unexpected(src, tag, comm)),
                    }
                }
                Op::Post(src, tag, comm) => {
                    posts += 1;
                    let mut queues = engine.lock();
                    match queues.match_unexpected(src, tag, comm) {
                        Some(_) => matched += 1,
                        None => queues.add_posted(posted(src, tag, comm)),
                    }
                }
            }
        }
        prop_assert_eq!(engine.unexpected_len() + matched, arrivals);
        prop_assert_eq!(engine.posted_len() + matched, posts);
    }
}

#[derive(Debug, Clone)]
enum SlabOp {
    Insert,
    /// Resolve the `n`-th handle ever issued (modulo how many there are),
    /// live or long released.
    Resolve(usize),
    /// Release it, completing it first (so its object is pooled) or not.
    Release(usize, bool),
}

fn arb_slab_op() -> impl Strategy<Value = SlabOp> {
    prop_oneof![
        Just(SlabOp::Insert),
        Just(SlabOp::Insert),
        (0usize..1000).prop_map(SlabOp::Resolve),
        (0usize..1000, any::<bool>()).prop_map(|(n, done)| SlabOp::Release(n, done)),
    ]
}

/// Drive `alloc` and a `HashMap` from handle to object address with the
/// same operations: a released handle never resolves again — not after its
/// slot, nor after its pooled object, has gone to a later request — and no
/// handle is ever issued twice.
fn slab_matches_map(alloc: &RequestAllocator, ops: &[SlabOp]) -> Result<(), TestCaseError> {
    let mut model: HashMap<Request, *const RequestInner> = HashMap::new();
    let mut issued: Vec<Request> = Vec::new();
    let mut unique: HashSet<Request> = HashSet::new();
    for op in ops {
        match *op {
            SlabOp::Insert => {
                let (req, inner) = alloc.insert(1);
                prop_assert!(unique.insert(req), "handle {:?} issued twice", req);
                prop_assert!(!inner.is_complete(), "a pooled object comes back armed");
                prop_assert!(
                    !model.values().any(|&live| live == Arc::as_ptr(&inner)),
                    "one object behind two live handles"
                );
                model.insert(req, Arc::as_ptr(&inner));
                issued.push(req);
            }
            SlabOp::Resolve(n) if !issued.is_empty() => {
                let req = issued[n % issued.len()];
                let got = alloc.resolve(req).map(|inner| Arc::as_ptr(&inner));
                prop_assert_eq!(got, model.get(&req).copied());
                prop_assert_eq!(alloc.is_complete(req), model.get(&req).map(|_| false));
            }
            SlabOp::Release(n, done) if !issued.is_empty() => {
                let req = issued[n % issued.len()];
                if done {
                    if let Some(inner) = alloc.resolve(req) {
                        inner.counter().delivered(1);
                    }
                }
                prop_assert_eq!(alloc.release(req), model.remove(&req).is_some());
                prop_assert!(alloc.resolve(req).is_none());
            }
            SlabOp::Resolve(_) | SlabOp::Release(..) => {}
        }
        prop_assert_eq!(alloc.live(), model.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn request_slab_matches_map_model(ops in proptest::collection::vec(arb_slab_op(), 1..300)) {
        slab_matches_map(&RequestAllocator::shared(), &ops)?;
        slab_matches_map(&RequestAllocator::sharded(8), &ops)?;
    }
}
