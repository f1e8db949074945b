//! The per-geometry collective algorithm registry — the reproduction of
//! PAMI's *algorithm lists* (`PAMI_Geometry_algorithms_query`).
//!
//! Every collective algorithm the stack knows — the GI/classroute hardware
//! paths, the shared-address intra-node scheme they ride on, the software
//! binomial/ring/pairwise fallbacks, and layered additions like the MPI
//! rectangle broadcast — registers here as one [`AlgEntry`]: a name, an
//! *availability predicate* over a geometry (the logic the old ad-hoc
//! `use_hw` checks encoded), a *cost hint*, and the executable body. The
//! public collective entry points select the cheapest available entry;
//! forcing (`*_named`) is a lookup by name. Adding an algorithm is a
//! `register` call instead of another `if` in every operation.
//!
//! The registry is machine-wide (one per [`crate::machine::Machine`], like
//! the dispatch tables): availability is evaluated *per geometry* at query
//! and selection time, so one registry serves every communicator.

use std::sync::Arc;

use bgq_collnet::{CollOp, DataType};
use bgq_hw::MemRegion;
use parking_lot::RwLock;

use crate::context::Context;
use crate::geometry::Geometry;

/// The collective operation an algorithm implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollKind {
    Barrier,
    Broadcast,
    Allreduce,
    Reduce,
    Gather,
    Scatter,
    Allgather,
    Alltoall,
}

/// Availability predicate: can this algorithm run on this geometry *right
/// now*? (Classroute-backed entries answer with route presence, so
/// `optimize`/`deoptimize` flips them live.)
pub type AvailFn = Arc<dyn Fn(&Geometry) -> bool + Send + Sync>;

/// Executable body of a barrier algorithm. Every exec receives the
/// already-consumed collective sequence number: the public wrappers own
/// sequencing, probes, and trivial-case handling.
pub type BarrierExec = Arc<dyn Fn(&Geometry, &Context, u64) + Send + Sync>;

/// Broadcast body: `(geom, ctx, seq, root_rank, region, offset, len)`.
pub type BroadcastExec =
    Arc<dyn Fn(&Geometry, &Context, u64, usize, &MemRegion, usize, usize) + Send + Sync>;

/// Allreduce body: `(geom, ctx, seq, src, dst, count, op, dtype)`.
pub type AllreduceExec = Arc<
    dyn Fn(&Geometry, &Context, u64, (&MemRegion, usize), (&MemRegion, usize), usize, CollOp, DataType)
        + Send
        + Sync,
>;

/// Reduce body: `(geom, ctx, seq, root_rank, src, dst, count, op, dtype)`.
pub type ReduceExec = Arc<
    dyn Fn(
            &Geometry,
            &Context,
            u64,
            usize,
            (&MemRegion, usize),
            (&MemRegion, usize),
            usize,
            CollOp,
            DataType,
        ) + Send
        + Sync,
>;

/// Rooted block-move body (gather/scatter):
/// `(geom, ctx, seq, root_rank, src, dst, blk)`.
pub type BlockExec = Arc<
    dyn Fn(&Geometry, &Context, u64, usize, (&MemRegion, usize), (&MemRegion, usize), usize)
        + Send
        + Sync,
>;

/// Unrooted exchange body (allgather/alltoall):
/// `(geom, ctx, seq, src, dst, blk)`.
pub type ExchangeExec = Arc<
    dyn Fn(&Geometry, &Context, u64, (&MemRegion, usize), (&MemRegion, usize), usize)
        + Send
        + Sync,
>;

/// The executable body of an entry, one variant per operation signature.
#[derive(Clone)]
pub enum AlgExec {
    Barrier(BarrierExec),
    Broadcast(BroadcastExec),
    Allreduce(AllreduceExec),
    Reduce(ReduceExec),
    /// Gather/scatter (rooted, `blk` bytes per rank).
    Block(BlockExec),
    /// Allgather/alltoall (unrooted, `blk` bytes per rank).
    Exchange(ExchangeExec),
}

/// One registered collective algorithm.
#[derive(Clone)]
pub struct AlgEntry {
    /// Stable name (`"gi-barrier"`, `"hw-collnet-bcast"`, `"rect-bcast"`…).
    pub name: &'static str,
    /// The operation implemented.
    pub kind: CollKind,
    /// Relative cost hint: among available entries the lowest wins
    /// auto-selection. Hardware paths ship at 10–20, software fallbacks at
    /// 100; layered specialists that should only run when forced register
    /// higher.
    pub cost: u32,
    available: AvailFn,
    exec: AlgExec,
}

impl AlgEntry {
    /// Build an entry (layers above PAMI use this to register their own
    /// algorithms, e.g. MPI's rectangle broadcast).
    pub fn new(name: &'static str, kind: CollKind, cost: u32, available: AvailFn, exec: AlgExec) -> AlgEntry {
        AlgEntry { name, kind, cost, available, exec }
    }

    /// Whether the algorithm can run on `geom` right now.
    pub fn available(&self, geom: &Geometry) -> bool {
        (self.available)(geom)
    }

    /// The executable body.
    pub fn exec(&self) -> &AlgExec {
        &self.exec
    }
}

/// One row of an algorithms query — what `PAMI_Geometry_algorithms_query`
/// returns per geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgInfo {
    pub name: &'static str,
    pub kind: CollKind,
    pub cost: u32,
    /// Whether the entry's availability predicate holds for the queried
    /// geometry.
    pub available: bool,
}

/// The machine-wide registry of collective algorithms.
pub struct CollRegistry {
    entries: RwLock<Vec<Arc<AlgEntry>>>,
}

impl CollRegistry {
    /// An empty registry.
    pub fn new() -> CollRegistry {
        CollRegistry { entries: RwLock::new(Vec::new()) }
    }

    /// A registry pre-populated with every algorithm the core crate ships.
    pub(crate) fn with_builtins() -> CollRegistry {
        let reg = CollRegistry::new();
        super::register_builtins(&reg);
        reg
    }

    /// Register an entry. Idempotent by `(kind, name)`: re-registering an
    /// existing pair is a no-op (layers call this once per context/task).
    /// Returns whether the entry was inserted.
    pub fn register(&self, entry: AlgEntry) -> bool {
        let mut entries = self.entries.write();
        if entries.iter().any(|e| e.kind == entry.kind && e.name == entry.name) {
            return false;
        }
        entries.push(Arc::new(entry));
        true
    }

    /// Every registered entry for `kind`, in registration order.
    pub fn entries(&self, kind: CollKind) -> Vec<Arc<AlgEntry>> {
        self.entries.read().iter().filter(|e| e.kind == kind).cloned().collect()
    }

    /// The algorithms-query: every entry, with its availability evaluated
    /// against `geom` (the `PAMI_Geometry_algorithms_query` analogue).
    pub fn query(&self, geom: &Geometry) -> Vec<AlgInfo> {
        self.entries
            .read()
            .iter()
            .map(|e| AlgInfo {
                name: e.name,
                kind: e.kind,
                cost: e.cost,
                available: e.available(geom),
            })
            .collect()
    }

    /// Auto-selection: the lowest-cost entry of `kind` available on `geom`
    /// (ties broken by registration order).
    ///
    /// # Panics
    /// If no entry of `kind` is available — every operation ships a
    /// software fallback whose predicate is `true`, so this means a
    /// misconfigured registry.
    pub fn select(&self, kind: CollKind, geom: &Geometry) -> Arc<AlgEntry> {
        self.entries
            .read()
            .iter()
            .filter(|e| e.kind == kind && e.available(geom))
            .min_by_key(|e| e.cost)
            .cloned()
            .unwrap_or_else(|| {
                panic!("no available {kind:?} algorithm registered for geometry {}", geom.id())
            })
    }

    /// Forced lookup by name (the `*_named` path). Availability is *not*
    /// checked here — forcing an unavailable algorithm panics inside the
    /// algorithm with its own message; callers that want to fall back
    /// check [`AlgEntry::available`] first.
    ///
    /// # Panics
    /// If no entry of `kind` is registered under `name`.
    pub fn forced(&self, kind: CollKind, name: &str) -> Arc<AlgEntry> {
        self.entries
            .read()
            .iter()
            .find(|e| e.kind == kind && e.name == name)
            .cloned()
            .unwrap_or_else(|| panic!("no {kind:?} algorithm registered under {name:?}"))
    }
}

impl Default for CollRegistry {
    fn default() -> Self {
        Self::new()
    }
}
