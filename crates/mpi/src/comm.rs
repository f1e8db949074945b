//! Communicators and collectives.
//!
//! A [`Comm`] wraps a PAMI [`Geometry`] with MPI-flavoured collectives:
//! `MPI_Barrier` over the GI network plus the L2 local barrier,
//! `MPI_Bcast`/`MPI_Allreduce`/`MPI_Reduce` over the collective network
//! with the shared-address intra-node scheme, the 10-color rectangle
//! broadcast (Figure 10), and the MPIX `comm_optimize`/`comm_deoptimize`
//! extensions that rotate scarce classroutes among an active set of
//! communicators.

use std::sync::Arc;

use bgq_collnet::ClassRouteError;
use bgq_hw::MemRegion;
use pami::coll;
use pami::{CollOp, Context, DataType, Geometry};

use crate::mpi::Mpi;

/// One rank's view of a communicator.
#[derive(Clone)]
pub struct Comm {
    id: u32,
    geometry: Arc<Geometry>,
    rank: usize,
}

impl Comm {
    pub(crate) fn new(id: u32, geometry: Arc<Geometry>, task: u32) -> Comm {
        let rank = geometry
            .rank_of(task)
            .expect("a Comm is only constructed for member tasks");
        Comm { id, geometry, rank }
    }

    /// Communicator id (world = 0).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// This rank within the communicator (`MPI_Comm_rank`).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Member count (`MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.geometry.size()
    }

    /// The underlying geometry.
    pub fn geometry(&self) -> &Arc<Geometry> {
        &self.geometry
    }

    /// Global task of communicator rank `rank`.
    pub fn task_of(&self, rank: usize) -> u32 {
        self.geometry.topology().task_at(rank)
    }

    // ---- MPIX classroute management ---------------------------------------

    /// `MPIX_Comm_optimize`: give this communicator a classroute so its
    /// collectives use the collective network. Fails when the node set is
    /// irregular or all route ids visible to its nodes are taken.
    pub fn optimize(&self) -> Result<(), ClassRouteError> {
        self.geometry.optimize()
    }

    /// `MPIX_Comm_deoptimize`: release the classroute for reuse by another
    /// communicator; collectives fall back to software algorithms.
    pub fn deoptimize(&self) {
        self.geometry.deoptimize()
    }

    /// Whether a classroute is currently attached.
    pub fn is_optimized(&self) -> bool {
        self.geometry.route().is_some()
    }

    /// `MPIX_Comm_algorithms_query`: every collective algorithm the stack
    /// knows, with availability evaluated against this communicator right
    /// now — [`Self::optimize`]/[`Self::deoptimize`] flip the hardware
    /// entries (and the rectangle broadcast) live.
    pub fn algorithms_query(&self) -> Vec<pami::coll::AlgInfo> {
        self.geometry.algorithms_query()
    }

    // ---- collectives (context-explicit, used internally) -------------------

    pub(crate) fn barrier_ctx(&self, ctx: &Arc<Context>) {
        coll::barrier(&self.geometry, ctx);
    }
}

/// Collective operations are methods on [`Mpi`] (they need the rank's
/// progress engine and lock discipline).
impl Mpi {
    /// `MPI_Barrier`.
    pub fn barrier(&self, comm: &Comm) {
        let _g = self.call_guard();
        coll::barrier(comm.geometry(), self.coll_context());
    }

    /// `MPI_Bcast` of `len` bytes at (`buf`, `offset`) from `root`.
    pub fn bcast(&self, buf: &MemRegion, offset: usize, len: usize, root: usize, comm: &Comm) {
        let _g = self.call_guard();
        coll::broadcast(comm.geometry(), self.coll_context(), root, buf, offset, len);
    }

    /// `MPI_Bcast` through a named registry entry (`pami::coll::names`;
    /// benchmark control). Panics if no broadcast is registered under
    /// `name`.
    #[allow(clippy::too_many_arguments)]
    pub fn bcast_named(
        &self,
        name: &str,
        buf: &MemRegion,
        offset: usize,
        len: usize,
        root: usize,
        comm: &Comm,
    ) {
        let _g = self.call_guard();
        coll::broadcast_named(comm.geometry(), self.coll_context(), name, root, buf, offset, len);
    }

    /// The 10-color rectangle broadcast (Figure 10): stripes the buffer
    /// over up to ten edge-disjoint spanning trees of the torus for
    /// aggregate bandwidth approaching ten links.
    pub fn bcast_rect(&self, buf: &MemRegion, offset: usize, len: usize, root: usize, comm: &Comm) {
        let _g = self.call_guard();
        crate::rect_bcast::rect_broadcast(
            comm.geometry(),
            self.coll_context(),
            root,
            buf,
            offset,
            len,
        );
    }

    /// `MPI_Allreduce` of `count` 8-byte elements.
    #[allow(clippy::too_many_arguments)]
    pub fn allreduce(
        &self,
        src: (&MemRegion, usize),
        dst: (&MemRegion, usize),
        count: usize,
        op: CollOp,
        dtype: DataType,
        comm: &Comm,
    ) {
        let _g = self.call_guard();
        coll::allreduce(comm.geometry(), self.coll_context(), src, dst, count, op, dtype);
    }

    /// `MPI_Allreduce` through a named registry entry (e.g.
    /// `pami::coll::names::STREAM_ALLREDUCE` for the streaming chain
    /// pipeline). Panics if no allreduce is registered under `name`.
    #[allow(clippy::too_many_arguments)]
    pub fn allreduce_named(
        &self,
        name: &str,
        src: (&MemRegion, usize),
        dst: (&MemRegion, usize),
        count: usize,
        op: CollOp,
        dtype: DataType,
        comm: &Comm,
    ) {
        let _g = self.call_guard();
        coll::allreduce_named(comm.geometry(), self.coll_context(), name, src, dst, count, op, dtype);
    }

    /// `MPI_Reduce` of `count` 8-byte elements to `root`.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce(
        &self,
        root: usize,
        src: (&MemRegion, usize),
        dst: (&MemRegion, usize),
        count: usize,
        op: CollOp,
        dtype: DataType,
        comm: &Comm,
    ) {
        let _g = self.call_guard();
        coll::reduce(comm.geometry(), self.coll_context(), root, src, dst, count, op, dtype);
    }
}

/// The remaining collective wrappers (software algorithms over PAMI
/// point-to-point — the operations the paper lists as future work for
/// hardware acceleration).
impl Mpi {
    /// `MPI_Gather` of `blk` bytes per rank to `root`.
    #[allow(clippy::too_many_arguments)]
    pub fn gather(
        &self,
        root: usize,
        src: (&MemRegion, usize),
        dst: (&MemRegion, usize),
        blk: usize,
        comm: &Comm,
    ) {
        let _g = self.call_guard();
        coll::gather(comm.geometry(), self.coll_context(), root, src, dst, blk);
    }

    /// `MPI_Scatter` of `blk` bytes per rank from `root`.
    #[allow(clippy::too_many_arguments)]
    pub fn scatter(
        &self,
        root: usize,
        src: (&MemRegion, usize),
        dst: (&MemRegion, usize),
        blk: usize,
        comm: &Comm,
    ) {
        let _g = self.call_guard();
        coll::scatter(comm.geometry(), self.coll_context(), root, src, dst, blk);
    }

    /// `MPI_Allgather` of `blk` bytes per rank.
    pub fn allgather(
        &self,
        src: (&MemRegion, usize),
        dst: (&MemRegion, usize),
        blk: usize,
        comm: &Comm,
    ) {
        let _g = self.call_guard();
        coll::allgather(comm.geometry(), self.coll_context(), src, dst, blk);
    }

    /// `MPI_Alltoall` of `blk` bytes per rank pair.
    pub fn alltoall(
        &self,
        src: (&MemRegion, usize),
        dst: (&MemRegion, usize),
        blk: usize,
        comm: &Comm,
    ) {
        let _g = self.call_guard();
        coll::alltoall(comm.geometry(), self.coll_context(), src, dst, blk);
    }
}

/// MPIX torus-awareness extensions: BG/Q MPI exposed the machine geometry
/// to applications so they could map ranks to the physical torus.
impl Comm {
    /// `MPIX_Rank2torus`: coordinates of the node hosting `rank`.
    pub fn rank_coords(&self, rank: usize) -> bgq_torus::Coords {
        let machine = self.geometry().machine();
        let node = machine.task_node(self.task_of(rank));
        machine.shape().coords_of(node as usize)
    }

    /// `MPIX_Torus2rank`: the lowest communicator rank on the node at
    /// `coords` (or `None` if no member lives there).
    pub fn coords_rank(&self, coords: bgq_torus::Coords) -> Option<usize> {
        let machine = self.geometry().machine();
        let node = machine.shape().node_index(coords) as u32;
        machine
            .node_tasks(node)
            .filter_map(|t| self.geometry().rank_of(t))
            .min()
    }

    /// Torus hop distance between two ranks' nodes — what an application
    /// uses to build locality-aware communication schedules.
    pub fn rank_distance(&self, a: usize, b: usize) -> u32 {
        let machine = self.geometry().machine();
        bgq_torus::hop_distance(machine.shape(), self.rank_coords(a), self.rank_coords(b))
    }
}
