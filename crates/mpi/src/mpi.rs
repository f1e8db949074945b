//! The per-rank MPI library object: init, point-to-point, progress,
//! waitall.

use std::sync::Arc;
use std::task::Poll;

use bgq_hw::{L2TicketMutex, MemRegion};
use bgq_mu::PayloadSource;
use pami::{
    Client, CommThreadPool, Context, Endpoint, Geometry, LockDiscipline, Machine, Recv,
    TaskEnv, Topology,
};
use parking_lot::Mutex;

use crate::comm::Comm;
use crate::matching::{
    deliver_unexpected, MatchEngine, PostedRecv, Staged, Unexpected, UnexpectedData,
};
use crate::request::{Request, RequestAllocator, RequestInner};
use crate::types::{LibFlavor, Status, Tag, ThreadLevel, ANY_SOURCE, ANY_TAG};

/// Dispatch id the MPI layer claims on every context.
pub const DISPATCH_MPI_EAGER: u16 = 0x0010;

/// Configuration for [`Mpi::init`].
#[derive(Debug, Clone)]
pub struct MpiConfig {
    /// Library build (Table 2's classic vs thread-optimized).
    pub flavor: LibFlavor,
    /// Requested thread level.
    pub thread_level: ThreadLevel,
    /// PAMI contexts per rank (parallel communication channels).
    pub contexts: usize,
    /// Commthreads per rank: `None` follows the paper's policy (enabled at
    /// `MPI_THREAD_MULTIPLE`, one per context); `Some(0)` forces off;
    /// `Some(n)` forces `n` (the environment-variable override).
    pub commthreads: Option<usize>,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig {
            flavor: LibFlavor::Classic,
            thread_level: ThreadLevel::Single,
            contexts: 1,
            commthreads: Some(0),
        }
    }
}

impl MpiConfig {
    /// The thread-optimized library at `MPI_THREAD_MULTIPLE` with
    /// commthreads — the paper's message-rate configuration.
    pub fn thread_optimized(contexts: usize) -> MpiConfig {
        MpiConfig {
            flavor: LibFlavor::ThreadOptimized,
            thread_level: ThreadLevel::Multiple,
            contexts,
            commthreads: None,
        }
    }
}

/// State shared between the rank's API object and its dispatch closures.
pub(crate) struct RankShared {
    pub allocator: RequestAllocator,
    pub matcher: MatchEngine,
}

/// One rank's MPI library instance.
pub struct Mpi {
    env: TaskEnv,
    client: Arc<Client>,
    shared: Arc<RankShared>,
    pool: Option<CommThreadPool>,
    flavor: LibFlavor,
    thread_level: ThreadLevel,
    /// The classic build's global lock.
    global_lock: L2TicketMutex,
    world: Comm,
    /// Per-communicator ids this rank has created (split bookkeeping).
    next_user_comm: Mutex<u32>,
}

/// RAII over the classic global lock; a no-op for configurations that elide
/// it.
pub(crate) enum CallGuard<'a> {
    None,
    Global(#[allow(dead_code)] bgq_hw::mutex::L2TicketGuard<'a>),
}

impl Mpi {
    /// `MPI_Init_thread`: build this rank's library instance. Collective —
    /// every task must call it (with an equal `contexts` count) before any
    /// task communicates.
    pub fn init(machine: &Arc<Machine>, task: u32, config: MpiConfig) -> Mpi {
        let client = Client::create(machine, task, "MPI", config.contexts);
        let shared = Arc::new(RankShared {
            allocator: match config.flavor {
                LibFlavor::Classic => RequestAllocator::shared(),
                LibFlavor::ThreadOptimized => RequestAllocator::sharded(8),
            },
            matcher: MatchEngine::with_telemetry(machine.telemetry()),
        });
        for ctx in client.contexts() {
            Self::register_dispatch(ctx, &shared);
            crate::rect_bcast::register_dispatch(ctx);
        }
        // Layer the MPI rectangle broadcast into the machine's collective
        // registry (idempotent across ranks).
        crate::rect_bcast::register_alg(machine);
        // "We use the thread level in the MPI_Init_thread call to determine
        // the level of thread parallelism ... If MPI_THREAD_MULTIPLE is
        // requested, communication threads are automatically enabled."
        let n_commthreads = match config.commthreads {
            Some(n) => n,
            None => {
                if config.thread_level == ThreadLevel::Multiple {
                    config.contexts
                } else {
                    0
                }
            }
        };
        let pool = (n_commthreads > 0).then(|| {
            let discipline = match config.flavor {
                LibFlavor::Classic => LockDiscipline::ContextLock,
                LibFlavor::ThreadOptimized => LockDiscipline::LockFree,
            };
            CommThreadPool::spawn_with(client.contexts().to_vec(), n_commthreads, discipline)
        });
        let env = TaskEnv { machine: Arc::clone(machine), task };
        let geometry = Geometry::create(
            client.context(0),
            0,
            Topology::world(machine.num_tasks() as u32),
        );
        let world = Comm::new(0, geometry, task);
        Mpi {
            env,
            client,
            shared,
            pool,
            flavor: config.flavor,
            thread_level: config.thread_level,
            global_lock: L2TicketMutex::new(),
            world,
            next_user_comm: Mutex::new(1),
        }
    }

    fn register_dispatch(ctx: &Arc<Context>, shared: &Arc<RankShared>) {
        let shared = Arc::clone(shared);
        ctx.set_dispatch(
            DISPATCH_MPI_EAGER,
            Arc::new(move |_ctx: &Context, msg: &pami::IncomingMsg, first: &[u8]| {
                let (src_rank, tag, comm) = unpack_meta(&msg.metadata);
                let len = msg.len as usize;
                // The L2 atomic mutex serializes receive-queue access.
                let mut queues = shared.matcher.lock();
                if let Some(posted) = queues.match_posted(src_rank, tag, comm) {
                    drop(queues);
                    assert!(
                        len <= posted.buffer.2,
                        "message of {len} bytes overflows posted receive of {}",
                        posted.buffer.2
                    );
                    let status = Status { source: src_rank, tag, len };
                    if first.len() == len {
                        posted.buffer.0.write(posted.buffer.1, first);
                        posted.request.complete_with(status);
                        return Recv::Done;
                    }
                    let req = posted.request;
                    return Recv::Into {
                        region: posted.buffer.0,
                        offset: posted.buffer.1,
                        on_complete: Box::new(move |_, _result| req.complete_with(status)),
                    };
                }
                // No match: stage as unexpected ("an entry is created in the
                // unexpected queue, and a buffer is allocated"). A message
                // that is all here is staged in one piece, its bytes the
                // only allocation; the arrival state machine is for
                // messages with packets still to come.
                let mut stage =
                    |data| queues.add_unexpected(Unexpected { src: src_rank, tag, comm, len, data });
                if first.len() == len {
                    stage(Staged::Whole(first.into()));
                    return Recv::Done;
                }
                let staging = MemRegion::zeroed(len);
                let state = Arc::new(Mutex::new(UnexpectedData::Arriving));
                stage(Staged::Streaming { staging: staging.clone(), state: Arc::clone(&state) });
                drop(queues);
                let status = Status { source: src_rank, tag, len };
                let stage2 = staging.clone();
                Recv::Into {
                    region: staging,
                    offset: 0,
                    on_complete: Box::new(move |_, _result| {
                        let mut st = state.lock();
                        match std::mem::replace(&mut *st, UnexpectedData::Ready) {
                            UnexpectedData::Arriving => {}
                            UnexpectedData::Claimed { buffer, request } => {
                                buffer.0.copy_from(buffer.1, &stage2, 0, status.len);
                                request.complete_with(status);
                            }
                            UnexpectedData::Ready => unreachable!("completed twice"),
                        }
                    }),
                }
            }),
        );
    }

    /// The machine.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.env.machine
    }

    /// This rank's global task index.
    pub fn task(&self) -> u32 {
        self.env.task
    }

    /// `MPI_COMM_WORLD`.
    pub fn world(&self) -> &Comm {
        &self.world
    }

    /// The PAMI client underneath (tests, benchmarks).
    pub fn client(&self) -> &Arc<Client> {
        &self.client
    }

    /// Library flavor in use.
    pub fn flavor(&self) -> LibFlavor {
        self.flavor
    }

    /// Whether commthreads are running.
    pub fn has_commthreads(&self) -> bool {
        self.pool.is_some()
    }

    /// The matching engine (benchmark diagnostics).
    pub fn matcher(&self) -> &MatchEngine {
        &self.shared.matcher
    }

    pub(crate) fn call_guard(&self) -> CallGuard<'_> {
        // The classic library takes its global lock on every call unless
        // MPI_THREAD_SINGLE let it disable locking entirely.
        if self.flavor == LibFlavor::Classic && self.thread_level != ThreadLevel::Single {
            CallGuard::Global(self.global_lock.lock())
        } else {
            CallGuard::None
        }
    }

    fn context_for(&self, peer_rank: usize, comm_id: u32) -> &Arc<Context> {
        // "The source PAMI context is computed by hashing the destination
        // rank and communicator id" (and symmetrically at the destination).
        let n = self.client.num_contexts();
        self.client.context((peer_rank + comm_id as usize) % n)
    }

    fn dest_context_offset(&self, my_rank: usize, comm_id: u32) -> u16 {
        let n = self.client.num_contexts();
        ((my_rank + comm_id as usize) % n) as u16
    }

    // ---- point-to-point ---------------------------------------------------

    /// `MPI_Isend`: nonblocking send of `len` bytes at (`buf`, `offset`) to
    /// `dest` rank in `comm`.
    pub fn isend(
        &self,
        buf: &MemRegion,
        offset: usize,
        len: usize,
        dest: usize,
        tag: Tag,
        comm: &Comm,
    ) -> Request {
        let _g = self.call_guard();
        let my_rank = comm.rank();
        let dest_task = comm.task_of(dest);
        let (handle, request) = self.shared.allocator.insert(len.max(1) as u64);
        let counter = request.counter().clone();
        let ctx = self.context_for(dest, comm.id());
        let dest_ep = Endpoint {
            task: dest_task,
            context: self.dest_context_offset(my_rank, comm.id()),
        };
        let metadata = pack_meta(my_rank as i32, tag, comm.id());
        let payload = PayloadSource::Region { region: buf.clone(), offset, len };
        if self.pool.is_some() && self.flavor == LibFlavor::ThreadOptimized {
            // Commthread handoff: "we leveraged parallelism from PAMI
            // contexts to hand off the work in MPI Isends ... to a
            // communication thread."
            ctx.post(Box::new(move |ctx| {
                ctx.send_with(dest_ep, DISPATCH_MPI_EAGER, &metadata, payload, Some(counter))
                    .unwrap();
            }));
        } else {
            ctx.send_with(dest_ep, DISPATCH_MPI_EAGER, &metadata, payload, Some(counter)).unwrap();
        }
        handle
    }

    /// `MPI_Irecv`: nonblocking receive into `len` bytes at (`buf`,
    /// `offset`) from `src` rank (or [`ANY_SOURCE`]) with `tag` (or
    /// [`ANY_TAG`]).
    pub fn irecv(
        &self,
        buf: &MemRegion,
        offset: usize,
        len: usize,
        src: i32,
        tag: Tag,
        comm: &Comm,
    ) -> Request {
        let _g = self.call_guard();
        debug_assert!(src == ANY_SOURCE || (src as usize) < comm.size());
        debug_assert!(tag >= 0 || tag == ANY_TAG);
        let (handle, request) = self.shared.allocator.insert(1);
        let mut queues = self.shared.matcher.lock();
        if let Some(unexpected) = queues.match_unexpected(src, tag, comm.id()) {
            drop(queues);
            deliver_unexpected(unexpected, (buf.clone(), offset, len), request);
        } else {
            queues.add_posted(PostedRecv {
                src,
                tag,
                comm: comm.id(),
                buffer: (buf.clone(), offset, len),
                request,
            });
        }
        handle
    }

    // ---- progress ----------------------------------------------------------

    /// Advance this rank's contexts once (the MPI progress engine).
    pub fn advance(&self) -> usize {
        let mut events = 0;
        for ctx in self.client.contexts() {
            events += if self.flavor == LibFlavor::Classic && self.pool.is_some() {
                // Classic + commthreads: progress requires the context lock.
                let _l = ctx.lock();
                ctx.advance()
            } else {
                ctx.advance()
            };
        }
        events
    }

    /// Non-destructive completion probe (keeps the request live) — what a
    /// poll loop uses between advances.
    pub fn request_complete(&self, req: Request) -> bool {
        self.shared.allocator.is_complete(req).unwrap_or(true)
    }

    /// `MPI_Test`.
    pub fn test(&self, req: Request) -> Option<Status> {
        let _g = self.call_guard();
        match self.shared.allocator.test(req).expect("unknown request") {
            Poll::Ready(status) => Some(status),
            Poll::Pending => None,
        }
    }

    /// `MPI_Wait`.
    pub fn wait(&self, req: Request) -> Status {
        let inner = {
            let _g = self.call_guard();
            self.shared.allocator.resolve(req).expect("unknown request")
        };
        while !inner.is_complete() {
            if self.advance() == 0 {
                std::thread::yield_now();
            }
        }
        let status = inner.status();
        drop(inner);
        let _g = self.call_guard();
        self.shared.allocator.release(req);
        status
    }

    /// `MPI_Waitall` — the two-phase algorithm of section IV.A: phase one
    /// converts every handle to its object (the hash lookups, whose cost
    /// overlaps the completion-flag cache misses) and collects the
    /// incomplete ones; phase two polls only those while driving progress.
    pub fn waitall(&self, reqs: &[Request]) -> Vec<Status> {
        // Phase 1: resolve + first completion check.
        let resolved: Vec<Arc<RequestInner>> = {
            let _g = self.call_guard();
            reqs.iter()
                .map(|r| self.shared.allocator.resolve(*r).expect("unknown request"))
                .collect()
        };
        let mut pending: Vec<usize> =
            (0..resolved.len()).filter(|&i| !resolved[i].is_complete()).collect();
        // Phase 2: poll the pending list.
        while !pending.is_empty() {
            if self.advance() == 0 {
                std::thread::yield_now();
            }
            pending.retain(|&i| !resolved[i].is_complete());
        }
        let statuses = resolved.iter().map(|r| r.status()).collect();
        drop(resolved);
        let _g = self.call_guard();
        for r in reqs {
            self.shared.allocator.release(*r);
        }
        statuses
    }

    /// Blocking `MPI_Send`.
    pub fn send(&self, buf: &MemRegion, offset: usize, len: usize, dest: usize, tag: Tag, comm: &Comm) {
        let r = self.isend(buf, offset, len, dest, tag, comm);
        self.wait(r);
    }

    /// Blocking `MPI_Recv`.
    pub fn recv(
        &self,
        buf: &MemRegion,
        offset: usize,
        len: usize,
        src: i32,
        tag: Tag,
        comm: &Comm,
    ) -> Status {
        let r = self.irecv(buf, offset, len, src, tag, comm);
        self.wait(r)
    }

    // ---- communicator management -------------------------------------------

    /// `MPI_Comm_split`: collective over `comm`; returns this rank's new
    /// communicator (or `None` for color < 0, the `MPI_UNDEFINED` case).
    pub fn comm_split(&self, comm: &Comm, color: i32, key: i32) -> Option<Comm> {
        let seq = comm.geometry().next_seq(self.task());
        // Exchange (rank, color, key) through machine shared state — the
        // stand-in for the allgather MPICH does here.
        let board: Arc<Mutex<std::collections::HashMap<usize, (i32, i32)>>> = self
            .machine()
            .shared_state(&format!("mpi.split.{}.{}", comm.id(), seq), Default::default);
        board.lock().insert(comm.rank(), (color, key));
        // Wait until every member posted.
        let n = comm.size();
        while board.lock().len() < n {
            if self.advance() == 0 {
                std::thread::yield_now();
            }
        }
        let snapshot = board.lock().clone();
        if color < 0 {
            comm.barrier_ctx(self.client.context(0));
            return None;
        }
        // Members of my color, ordered by (key, old rank).
        let mut members: Vec<(i32, usize)> = snapshot
            .iter()
            .filter(|(_, (c, _))| *c == color)
            .map(|(rank, (_, k))| (*k, *rank))
            .collect();
        members.sort_unstable();
        let tasks: Vec<u32> = members.iter().map(|(_, r)| comm.task_of(*r)).collect();
        // Distinct colors in ascending order give a deterministic id.
        let mut colors: Vec<i32> =
            snapshot.values().map(|(c, _)| *c).filter(|c| *c >= 0).collect();
        colors.sort_unstable();
        colors.dedup();
        let color_idx = colors.iter().position(|c| *c == color).unwrap() as u32;
        let new_id = ((comm.id() + 1) << 20) | ((seq as u32 & 0xFFF) << 8) | color_idx;
        let topology = contiguous_or_list(&tasks);
        let geometry = Geometry::create(self.client.context(0), new_id, topology);
        let new_comm = Comm::new(new_id, geometry, self.task());
        comm.barrier_ctx(self.client.context(0));
        {
            let mut next = self.next_user_comm.lock();
            *next = (*next).max(new_id + 1);
        }
        Some(new_comm)
    }

    /// `MPI_Comm_dup`.
    pub fn comm_dup(&self, comm: &Comm) -> Comm {
        self.comm_split(comm, 0, comm.rank() as i32).expect("color 0 is defined")
    }

    /// A context for collective progress (context 0).
    pub(crate) fn coll_context(&self) -> &Arc<Context> {
        self.client.context(0)
    }
}

impl Drop for Mpi {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
    }
}

/// If `tasks` is a contiguous ascending run use O(1) range storage,
/// otherwise an explicit list.
fn contiguous_or_list(tasks: &[u32]) -> Topology {
    if !tasks.is_empty() && tasks.windows(2).all(|w| w[1] == w[0] + 1) {
        Topology::Range { first: tasks[0], count: tasks.len() as u32, stride: 1 }
    } else {
        Topology::List(tasks.to_vec().into())
    }
}

pub(crate) fn pack_meta(src_rank: i32, tag: Tag, comm: u32) -> [u8; 12] {
    let mut v = [0; 12];
    v[..4].copy_from_slice(&src_rank.to_le_bytes());
    v[4..8].copy_from_slice(&tag.to_le_bytes());
    v[8..].copy_from_slice(&comm.to_le_bytes());
    v
}

pub(crate) fn unpack_meta(metadata: &bytes::Bytes) -> (i32, Tag, u32) {
    assert!(metadata.len() >= 12, "malformed MPI envelope");
    (
        i32::from_le_bytes(metadata[..4].try_into().unwrap()),
        i32::from_le_bytes(metadata[4..8].try_into().unwrap()),
        u32::from_le_bytes(metadata[8..12].try_into().unwrap()),
    )
}

impl Mpi {
    /// `MPI_Sendrecv`: simultaneous send and receive (deadlock-free for
    /// exchange patterns like halo swaps).
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &self,
        send: (&MemRegion, usize, usize),
        dest: usize,
        send_tag: Tag,
        recv: (&MemRegion, usize, usize),
        src: i32,
        recv_tag: Tag,
        comm: &Comm,
    ) -> Status {
        let r = self.irecv(recv.0, recv.1, recv.2, src, recv_tag, comm);
        let s = self.isend(send.0, send.1, send.2, dest, send_tag, comm);
        let status = self.wait(r);
        self.wait(s);
        status
    }

    /// `MPI_Iprobe`: nonblocking check whether a matching message has
    /// arrived unexpected. Returns its envelope without receiving it.
    pub fn iprobe(&self, src: i32, tag: Tag, comm: &Comm) -> Option<Status> {
        let _g = self.call_guard();
        self.advance();
        self.shared.matcher.lock().peek_unexpected(src, tag, comm.id())
    }

    /// `MPI_Probe`: block (advancing) until a matching message is
    /// available.
    pub fn probe(&self, src: i32, tag: Tag, comm: &Comm) -> Status {
        loop {
            if let Some(st) = self.iprobe(src, tag, comm) {
                return st;
            }
            if self.advance() == 0 {
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_round_trips() {
        let m = bytes::Bytes::copy_from_slice(&pack_meta(-1, ANY_TAG, 77));
        assert_eq!(unpack_meta(&m), (ANY_SOURCE, ANY_TAG, 77));
        let m = bytes::Bytes::copy_from_slice(&pack_meta(12, 34, 0));
        assert_eq!(unpack_meta(&m), (12, 34, 0));
    }

    /// Two ranks on two nodes, both driven by the calling thread.
    fn two_ranks() -> Vec<Mpi> {
        let machine = Machine::with_nodes(2).build();
        (0..2).map(|task| Mpi::init(&machine, task, MpiConfig::default())).collect()
    }

    #[test]
    fn a_failed_send_completes_is_released_and_is_not_recycled() {
        let mpis = two_ranks();
        let (mpi, world) = (&mpis[0], mpis[0].world());
        // A rendezvous-sized send nobody pulls: incomplete, its counter
        // held by the registration — until the reliability layer gives up.
        let buf = MemRegion::zeroed(1 << 20);
        let failed = mpi.isend(&buf, 0, buf.len(), 1, 0, world);
        assert!(!mpi.request_complete(failed));
        let inner = mpi.shared.allocator.resolve(failed).expect("live");
        assert!(inner.counter().fail(bgq_hw::DeliveryFault::Timeout));
        drop(inner);
        assert!(mpi.request_complete(failed), "a failed send must not hang its waiter");
        assert_eq!(mpi.test(failed), Some(Status::none()));
        assert_eq!(mpi.shared.allocator.live(), 0);
        assert!(mpi.request_complete(failed), "a released handle reads complete");
        // The slot comes back; the poisoned counter (a fault cannot be
        // cleared) does not.
        let next = mpi.isend(&buf, 0, 64, 1, 1, world);
        let inner = mpi.shared.allocator.resolve(next).expect("live");
        assert_eq!(inner.counter().fault(), None);
    }

    #[test]
    #[should_panic(expected = "unknown request")]
    fn testing_a_released_handle_panics() {
        let mpis = two_ranks();
        let req = mpis[0].isend(&MemRegion::zeroed(8), 0, 8, 1, 0, mpis[0].world());
        assert!(mpis[0].test(req).is_some());
        mpis[0].test(req);
    }

    #[test]
    fn contiguous_detection() {
        assert!(matches!(contiguous_or_list(&[3, 4, 5]), Topology::Range { first: 3, count: 3, stride: 1 }));
        assert!(matches!(contiguous_or_list(&[3, 5, 6]), Topology::List(_)));
    }
}
