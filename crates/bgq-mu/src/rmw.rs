//! The lock that makes an [`RmwRequest`] atomic on the word it names.

use bgq_hw::MemRegion;
use parking_lot::Mutex;

use crate::descriptor::{RmwOp, RmwRequest};

/// Striped locks serializing atomic read-modify-writes per memory word.
/// Keeps concurrent rmws to *different* hot words independent while making
/// each word's update atomic.
pub(crate) struct RmwLocks {
    stripes: Vec<Mutex<()>>,
}

const STRIPE_BITS: u32 = 6;

/// The stripe guarding the word at `region[offset..]`. It is picked from
/// the memory the word lives in — never from the window a requester named
/// it through — so every handle on one region agrees on the lock.
fn stripe_of(region: &MemRegion, offset: usize) -> usize {
    let word = (region.storage_id() as u64).wrapping_add(offset as u64);
    (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (u64::BITS - STRIPE_BITS)) as usize
}

impl RmwLocks {
    pub(crate) fn new() -> Self {
        RmwLocks { stripes: (0..1 << STRIPE_BITS).map(|_| Mutex::new(())).collect() }
    }

    /// Apply `req.op` atomically to the 8-byte little-endian word at
    /// `req.dst_region[req.dst_offset..]`; returns the prior value.
    pub(crate) fn apply(&self, req: &RmwRequest) -> u64 {
        let (region, offset) = (&req.dst_region, req.dst_offset);
        let _g = self.stripes[stripe_of(region, offset)].lock();
        let mut buf = [0u8; 8];
        region.read(offset, &mut buf);
        let prior = u64::from_le_bytes(buf);
        let new = match req.op {
            RmwOp::FetchAdd => prior.wrapping_add(req.operand),
            RmwOp::CompareSwap => {
                if prior == req.compare {
                    req.operand
                } else {
                    prior
                }
            }
            RmwOp::Min => prior.min(req.operand),
            RmwOp::Max => prior.max(req.operand),
        };
        if new != prior {
            region.write(offset, &new.to_le_bytes());
        }
        prior
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmw_locks_apply_all_ops() {
        let locks = RmwLocks::new();
        let region = MemRegion::zeroed(8);
        let apply = |op, operand, compare| {
            let (dst_region, dst_offset) = (region.clone(), 0);
            locks.apply(&RmwRequest { dst_region, dst_offset, op, operand, compare, reply: None })
        };
        assert_eq!(apply(RmwOp::FetchAdd, 5, 0), 0);
        assert_eq!(apply(RmwOp::FetchAdd, 3, 0), 5);
        assert_eq!(apply(RmwOp::Max, 100, 0), 8);
        assert_eq!(apply(RmwOp::Min, 7, 0), 100);
        // CAS success then failure.
        assert_eq!(apply(RmwOp::CompareSwap, 42, 7), 7);
        assert_eq!(apply(RmwOp::CompareSwap, 9, 7), 42);
        let mut buf = [0u8; 8];
        region.read(0, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 42);
    }

    #[test]
    fn two_windows_over_one_region_share_a_lock() {
        // Two windows created over one region hold two handles on the same
        // storage: a word reached through either must map to one mutex, or
        // concurrent fetch-adds on it lose updates.
        let region = MemRegion::zeroed(64);
        let (first, second) = (region.clone(), region.clone());
        let stripes: Vec<usize> = (0..64).step_by(8).map(|at| stripe_of(&first, at)).collect();
        for (word, &stripe) in stripes.iter().enumerate() {
            assert_eq!(stripe_of(&second, word * 8), stripe, "word {word}");
        }
        // Neighbouring words still spread over the stripes.
        assert!(stripes.iter().any(|&s| s != stripes[0]), "stripes {stripes:?}");
    }
}
