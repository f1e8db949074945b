//! Compute Node Kernel (CNK) services.
//!
//! Two CNK facilities matter to PAMI (paper section II.D):
//!
//! 1. **Commthreads** — special pthreads with extended low/high priority
//!    levels, reserved for messaging software, so a commthread runs
//!    uninterrupted during low-level network operations and gets completely
//!    out of the way otherwise. Nothing here models the priority levels:
//!    the commthread pool in the `pami` crate gets "out of the way" by
//!    parking on the wakeup unit.
//!
//! 2. **The global virtual address space** — CNK maintains a translation
//!    table of every process's memory so that any process on a node can read
//!    its peers' buffers, eliminating copies in intra-node collectives.
//!    [`GlobalVa`] is that table: processes publish [`MemRegion`]s under a
//!    [`GlobalAddress`] and peers resolve them directly.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::memory::MemRegion;

/// A node-wide global virtual address: (process rank on node, region id,
/// byte offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalAddress {
    /// Process index within the node (0..ppn).
    pub local_rank: usize,
    /// Region id returned by [`GlobalVa::publish`].
    pub region: u64,
    /// Byte offset within the region.
    pub offset: usize,
}

#[derive(Default)]
struct VaTable {
    regions: HashMap<(usize, u64), MemRegion>,
    next_id: u64,
}

/// The per-node global virtual-address translation table. One instance is
/// shared (via `Arc`) by every simulated process on the node.
#[derive(Clone, Default)]
pub struct GlobalVa {
    table: Arc<RwLock<VaTable>>,
}

impl GlobalVa {
    /// Create an empty table for a node.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish `region` as readable/writable by every process on the node.
    /// Returns the region id half of the [`GlobalAddress`].
    pub fn publish(&self, local_rank: usize, region: MemRegion) -> u64 {
        let mut t = self.table.write();
        let id = t.next_id;
        t.next_id += 1;
        t.regions.insert((local_rank, id), region);
        id
    }

    /// Withdraw a published region (process exit / buffer free).
    pub fn unpublish(&self, local_rank: usize, region: u64) -> bool {
        self.table.write().regions.remove(&(local_rank, region)).is_some()
    }

    /// Resolve a peer's region; `None` if never published or withdrawn.
    pub fn resolve(&self, local_rank: usize, region: u64) -> Option<MemRegion> {
        self.table.read().regions.get(&(local_rank, region)).cloned()
    }

    /// Resolve a full address to (region, offset).
    pub fn resolve_addr(&self, addr: GlobalAddress) -> Option<(MemRegion, usize)> {
        self.resolve(addr.local_rank, addr.region)
            .map(|r| (r, addr.offset))
    }

    /// Number of currently published regions on the node.
    pub fn published_count(&self) -> usize {
        self.table.read().regions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_resolve_round_trip() {
        let va = GlobalVa::new();
        let region = MemRegion::from_vec(vec![7u8; 32]);
        let id = va.publish(3, region.clone());
        let got = va.resolve(3, id).expect("published region resolves");
        assert!(got.same_region(&region));
    }

    #[test]
    fn unpublish_removes() {
        let va = GlobalVa::new();
        let id = va.publish(0, MemRegion::zeroed(8));
        assert!(va.unpublish(0, id));
        assert!(va.resolve(0, id).is_none());
        assert!(!va.unpublish(0, id));
    }

    #[test]
    fn ids_are_unique_across_ranks() {
        let va = GlobalVa::new();
        let a = va.publish(0, MemRegion::zeroed(8));
        let b = va.publish(1, MemRegion::zeroed(8));
        assert_ne!(a, b);
        assert_eq!(va.published_count(), 2);
    }

    #[test]
    fn shared_table_visible_across_clones() {
        let va = GlobalVa::new();
        let va2 = va.clone();
        let id = va.publish(0, MemRegion::zeroed(4));
        assert!(va2.resolve(0, id).is_some());
    }
}
