//! The global-interrupt (GI) barrier network.
//!
//! BG/Q folds the global-interrupt network into the same torus links; it
//! propagates single-bit signals over a classroute in a few hundred
//! nanoseconds per hop, giving whole-machine barriers in ~1 µs of network
//! time. PAMI's `MPI_Barrier` uses it for the inter-node step ("we use the
//! fast L2 atomics and the global interrupt network to provide very
//! low-overhead barrier across the entire machine").
//!
//! [`GiBarrier`] is the functional stand-in: a generation-counted barrier
//! across the member *nodes* of a classroute. `arrive` is non-blocking (it
//! returns a [`GiPhase`] token) so a context can keep advancing while it
//! waits — exactly how the MPI layer drives it.

use std::sync::Arc;

use parking_lot::Mutex;

/// Token returned by [`GiBarrier::arrive`]; pass to
/// [`GiBarrier::is_released`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GiPhase(u64);

struct GiState {
    arrived: usize,
    generation: u64,
}

/// A barrier across the nodes of one classroute.
#[derive(Clone)]
pub struct GiBarrier {
    members: usize,
    state: Arc<Mutex<GiState>>,
}

impl GiBarrier {
    /// A barrier over `members` nodes.
    ///
    /// # Panics
    /// If `members == 0`.
    pub fn new(members: usize) -> Self {
        assert!(members > 0, "a barrier needs at least one member");
        GiBarrier {
            members,
            state: Arc::new(Mutex::new(GiState { arrived: 0, generation: 0 })),
        }
    }

    /// Member count.
    pub fn members(&self) -> usize {
        self.members
    }

    /// Signal this node's arrival; returns the phase to poll. The caller
    /// that completes the barrier releases everyone.
    pub fn arrive(&self) -> GiPhase {
        let mut s = self.state.lock();
        let phase = GiPhase(s.generation);
        s.arrived += 1;
        if s.arrived == self.members {
            s.arrived = 0;
            s.generation += 1;
        }
        phase
    }

    /// Whether the barrier generation `phase` belongs to has been released.
    pub fn is_released(&self, phase: GiPhase) -> bool {
        self.state.lock().generation > phase.0
    }

    /// Completed barrier generations so far.
    pub fn generation(&self) -> u64 {
        self.state.lock().generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_member_releases_immediately() {
        let b = GiBarrier::new(1);
        let p = b.arrive();
        assert!(b.is_released(p));
        assert_eq!(b.generation(), 1);
    }

    #[test]
    fn release_requires_all_members() {
        let b = GiBarrier::new(3);
        let p1 = b.arrive();
        let p2 = b.arrive();
        assert!(!b.is_released(p1));
        assert!(!b.is_released(p2));
        let p3 = b.arrive();
        assert!(b.is_released(p1) && b.is_released(p2) && b.is_released(p3));
    }

    #[test]
    fn generations_do_not_bleed() {
        let b = GiBarrier::new(2);
        b.arrive();
        b.arrive(); // generation 1 released
        let p = b.arrive(); // arrival for generation 2
        assert!(!b.is_released(p), "next generation needs fresh arrivals");
        b.arrive();
        assert!(b.is_released(p));
        assert_eq!(b.generation(), 2);
    }

    #[test]
    fn many_threads_many_rounds() {
        const MEMBERS: usize = 8;
        const ROUNDS: usize = 200;
        let b = GiBarrier::new(MEMBERS);
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..MEMBERS {
                let b = b.clone();
                let hits = Arc::clone(&hits);
                s.spawn(move || {
                    for r in 0..ROUNDS as u64 {
                        let phase = b.arrive();
                        while !b.is_released(phase) {
                            // Yield: a single-core host must let the other
                            // members run.
                            std::thread::yield_now();
                        }
                        // After release of round r, the generation is at
                        // least r+1 — a member can never observe an older
                        // one.
                        assert!(b.generation() > r);
                        hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), (MEMBERS * ROUNDS) as u64);
        assert_eq!(b.generation(), ROUNDS as u64);
    }
}
