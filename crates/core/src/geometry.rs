//! Geometries: task groups that collectives run over.
//!
//! A geometry is PAMI's communicator-shaped object: an ordered task set
//! ([`Topology`]) plus the machinery collectives need — per-node groups
//! with a leader, an L2-atomic local barrier and a shared-memory "board"
//! for the shared-address protocols, a GI barrier across the member nodes,
//! and (after [`Geometry::optimize`]) a classroute on the collective
//! network. Classroutes are scarce, so optimize can fail with
//! [`bgq_collnet::ClassRouteError::Exhausted`] until some other geometry
//! [`Geometry::deoptimize`]s — exactly the MPIX scheme of section III.D.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use bgq_collnet::{ClassRoute, ClassRouteError};
use bgq_hw::{Counter, L2Counter, MemRegion};
use bgq_mu::PayloadSource;
use bgq_torus::Rectangle;
use parking_lot::Mutex;

use crate::channel::CHANNEL_SPACE;
use crate::context::Context;
use crate::endpoint::Endpoint;
use crate::machine::Machine;
use crate::topology::Topology;

/// A sense-reversing barrier over the tasks of one node, built on a single
/// L2 load-increment counter — "the local barrier is implemented via the
/// scalable L2 atomic increment operation".
pub struct LocalBarrier {
    members: u64,
    count: L2Counter,
}

impl LocalBarrier {
    /// A barrier over `members` tasks.
    pub fn new(members: usize) -> Self {
        LocalBarrier { members: members as u64, count: L2Counter::new(0) }
    }

    /// Arrive; returns the generation to poll with
    /// [`LocalBarrier::is_released`].
    pub fn arrive(&self) -> u64 {
        let ticket = self.count.load_increment();
        ticket / self.members
    }

    /// Whether generation `generation` has been fully arrived.
    pub fn is_released(&self, generation: u64) -> bool {
        self.count.load() >= (generation + 1) * self.members
    }
}

/// A value posted on a node board: a reference to a member's buffer,
/// readable by peers through the global virtual address space.
#[derive(Clone)]
pub struct BoardEntry {
    /// The buffer.
    pub region: MemRegion,
    /// Payload offset.
    pub offset: usize,
    /// Payload length.
    pub len: usize,
}

/// The per-node coordination board for shared-address collectives: members
/// post buffer references under (sequence, slot) keys and read each
/// other's. Stands in for control structures in CNK shared memory.
#[derive(Default)]
pub struct Board {
    slots: Mutex<HashMap<(u64, u32), BoardEntry>>,
}

impl Board {
    /// Post an entry.
    pub fn post(&self, seq: u64, slot: u32, entry: BoardEntry) {
        let prev = self.slots.lock().insert((seq, slot), entry);
        debug_assert!(prev.is_none(), "board slot ({seq},{slot}) posted twice");
    }

    /// Read an entry if present (clones the handle).
    pub fn get(&self, seq: u64, slot: u32) -> Option<BoardEntry> {
        self.slots.lock().get(&(seq, slot)).cloned()
    }

    /// Drop every entry of `seq` (the leader's cleanup after the closing
    /// barrier).
    pub fn clear_seq(&self, seq: u64) {
        self.slots.lock().retain(|(s, _), _| *s != seq);
    }
}

/// The member tasks of one node, with their leader and local coordination
/// structures.
pub struct NodeGroup {
    /// Member tasks on this node, ascending; index is the "local slot".
    pub tasks: Vec<u32>,
    /// The leader (lowest member task) — the one that talks to the
    /// collective network.
    pub leader: u32,
    /// The L2 local barrier.
    pub barrier: LocalBarrier,
    /// The shared-address coordination board.
    pub board: Board,
}

impl NodeGroup {
    /// The local slot of `task`.
    pub fn slot_of(&self, task: u32) -> u32 {
        self.tasks.iter().position(|&t| t == task).expect("task in its node group") as u32
    }
}

/// A task group plus its collective machinery. Shared (one `Arc`) by every
/// member task; create collectively with [`Geometry::create`].
pub struct Geometry {
    id: u32,
    topology: Topology,
    /// Weak: the members' handles own a geometry, and a communicator
    /// handle must not keep the whole machine alive.
    machine: Weak<Machine>,
    /// Distinct member nodes, ascending; index = GI slot.
    nodes: Vec<u32>,
    groups: HashMap<u32, NodeGroup>,
    gi: bgq_collnet::GiBarrier,
    /// The exact node rectangle, when the member nodes form one.
    node_rect: Option<Rectangle>,
    route: Mutex<Option<Arc<ClassRoute>>>,
    /// Each member's next collective sequence number, by member rank. A
    /// member bumps only its own word, so no collective call takes a lock
    /// wider than its context to number itself.
    seqs: Box<[AtomicU64]>,
}

impl Geometry {
    /// Create (or look up) geometry `id` over `topology` on `ctx`'s
    /// machine. Collective: every member task calls this with the same id
    /// and an equivalent topology before using the geometry, and runs its
    /// collectives on contexts of one offset ([`Geometry::post_recv`]).
    ///
    /// # Panics
    /// For id `u32::MAX`, the tag space persistent channels' offers are
    /// matched in, and when a live geometry `id` has another size.
    pub fn create(ctx: &Context, id: u32, topology: Topology) -> Arc<Geometry> {
        assert_ne!(id, CHANNEL_SPACE, "geometry id {id:#x} is reserved for persistent channels");
        let machine = ctx.machine();
        let size = topology.size();
        let geometry = {
            let mut registry = machine.geometries.lock();
            match registry.get(&id).and_then(Weak::upgrade) {
                Some(live) => live,
                None => {
                    // Forget the geometries whose handles are all gone,
                    // so a split or dup in a loop keeps the map bounded.
                    registry.retain(|_, g| g.strong_count() > 0);
                    let built = Arc::new(Self::build(machine, id, topology));
                    registry.insert(id, Arc::downgrade(&built));
                    built
                }
            }
        };
        assert_eq!(geometry.size(), size, "geometry {id} re-created with a different topology");
        geometry
    }

    fn build(machine: &Arc<Machine>, id: u32, topology: Topology) -> Geometry {
        let size = topology.size();
        let mut node_tasks: HashMap<u32, Vec<u32>> = HashMap::new();
        for task in topology.iter() {
            node_tasks.entry(machine.task_node(task)).or_default().push(task);
        }
        let mut nodes: Vec<u32> = node_tasks.keys().copied().collect();
        nodes.sort_unstable();
        let groups: HashMap<u32, NodeGroup> = node_tasks
            .into_iter()
            .map(|(node, mut tasks)| {
                tasks.sort_unstable();
                let leader = tasks[0];
                let barrier = LocalBarrier::new(tasks.len());
                (node, NodeGroup { tasks, leader, barrier, board: Board::default() })
            })
            .collect();
        let coords: Vec<_> = nodes
            .iter()
            .map(|&n| machine.shape().coords_of(n as usize))
            .collect();
        let node_rect = Rectangle::exactly_covers(&coords);
        let gi = bgq_collnet::GiBarrier::new(nodes.len());
        Geometry {
            id,
            topology,
            machine: Arc::downgrade(machine),
            nodes,
            groups,
            gi,
            node_rect,
            route: Mutex::new(None),
            seqs: (0..size).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Geometry id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The task set.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Member count.
    pub fn size(&self) -> usize {
        self.topology.size()
    }

    /// Member index ("rank within the geometry") of `task`.
    pub fn rank_of(&self, task: u32) -> Option<usize> {
        self.topology.index_of(task)
    }

    /// Distinct member nodes, ascending.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// This geometry's group on `node`.
    pub fn group(&self, node: u32) -> &NodeGroup {
        self.groups.get(&node).expect("node has no members in this geometry")
    }

    /// The GI barrier across member nodes.
    pub fn gi(&self) -> &bgq_collnet::GiBarrier {
        &self.gi
    }

    /// The machine. A geometry is used through the contexts of a live
    /// machine, so the upgrade cannot fail in a correct program. The
    /// upgrade is an atomic RMW on the machine's one strong count, so this
    /// is for setup and queries; the collectives take the machine from
    /// their context instead.
    pub fn machine(&self) -> Arc<Machine> {
        self.machine.upgrade().expect("geometry used after its machine was dropped")
    }

    /// The node rectangle, if the member nodes form one (a prerequisite for
    /// classroute acceleration).
    pub fn node_rect(&self) -> Option<Rectangle> {
        self.node_rect
    }

    /// The classroute, if optimized.
    pub fn route(&self) -> Option<Arc<ClassRoute>> {
        self.route.lock().clone()
    }

    /// Give this geometry a classroute ("optimize the communicator for the
    /// collective network"). Idempotent; any member may call it, typically
    /// all do. Fails when the node set is not rectangular or no route id is
    /// free on every member node.
    pub fn optimize(&self) -> Result<(), ClassRouteError> {
        let mut route = self.route.lock();
        if route.is_some() {
            return Ok(());
        }
        let rect = self.node_rect.ok_or(ClassRouteError::NotRectangular)?;
        let r = self.machine().classroutes().allocate(rect, None)?;
        *route = Some(Arc::new(r));
        Ok(())
    }

    /// Query the collective algorithm list for this geometry — the
    /// `PAMI_Geometry_algorithms_query` analogue. Every built-in algorithm
    /// is returned with its availability evaluated *now*, so the answer
    /// flips live with [`Self::optimize`]/[`Self::deoptimize`].
    pub fn algorithms_query(&self) -> Vec<crate::coll::AlgInfo> {
        crate::coll::ALGORITHMS
            .iter()
            .map(|&(name, kind, available)| crate::coll::AlgInfo {
                name,
                kind,
                available: available(self),
            })
            .collect()
    }

    /// Release the classroute ("deoptimize") so another geometry can use
    /// the id. Collectives fall back to the software algorithms.
    pub fn deoptimize(&self) {
        if let Some(route) = self.route.lock().take() {
            self.machine().classroutes().free(&route);
        }
    }

    /// Next collective sequence number for `task`. Every member consumes
    /// sequence numbers in the same (program) order, which is what matches
    /// their contributions up.
    ///
    /// # Panics
    /// If `task` is not a member.
    pub fn next_seq(&self, task: u32) -> u64 {
        let rank = self.rank_of(task).expect("next_seq of a task outside the geometry");
        self.seqs[rank].fetch_add(1, Ordering::Relaxed)
    }

    // ---- software-collective point-to-point ------------------------------

    /// Send the `len` bytes at (`region`, `offset`) to geometry member
    /// `dst_rank`, tagged `tag` ([`crate::coll::tag`]): the one way a
    /// collective's bytes move between tasks. `done` is armed with the
    /// `len.max(1)` the send's local completion credits; wait on it with
    /// [`Context::advance_until`] before reusing the bytes. The message
    /// goes to the member's context of `ctx`'s offset, as a tagged message
    /// in this geometry's id space.
    #[allow(clippy::too_many_arguments)]
    pub fn send_sw(
        &self,
        ctx: &Context,
        dst_rank: usize,
        tag: u64,
        region: &MemRegion,
        offset: usize,
        len: usize,
        done: &Counter,
    ) {
        done.add_expected(len.max(1) as u64);
        let dest = Endpoint { task: self.topology.task_at(dst_rank), context: ctx.offset() };
        let payload = PayloadSource::Region { region: region.clone(), offset, len };
        ctx.send_tagged(dest, self.id, tag, payload, Some(done.clone()))
            .expect("software-collective send to a geometry member");
    }

    /// Post the receive of the `len`-byte message tagged `tag` from member
    /// `src_rank` into (`region`, `offset`), arming `done` with the
    /// `len.max(1)` its landing credits, as [`Geometry::send_sw`] does. A
    /// message that arrived first is copied off `ctx`'s early list now.
    ///
    /// The post lives on `ctx`, and [`Geometry::send_sw`] addresses the
    /// destination's context of the sender's offset, so every member runs
    /// a geometry's collectives on contexts of one offset (MPI: context 0).
    ///
    /// # Panics
    /// On `ctx`'s advancing thread, when the message is not `len` bytes
    /// or its delivery failed.
    #[allow(clippy::too_many_arguments)]
    pub fn post_recv(
        &self,
        ctx: &Context,
        src_rank: usize,
        tag: u64,
        region: &MemRegion,
        offset: usize,
        len: usize,
        done: &Counter,
    ) {
        let src = Endpoint { task: self.topology.task_at(src_rank), context: ctx.offset() };
        ctx.post_tagged(self.id, tag, src, region, offset, len, done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::policy::{StaticPolicy, SHORT_CUTOFF};

    const TAG: u64 = 7;

    /// Task 0 sends to task 1 over the world geometry, on two nodes, and
    /// this thread drives both.
    struct Pair {
        clients: Vec<Arc<Client>>,
        geom: Arc<Geometry>,
    }

    impl Pair {
        /// A pair whose eager path carries messages up to `eager` bytes.
        fn new(eager: usize) -> Pair {
            let policy = StaticPolicy::with_short(SHORT_CUTOFF, eager);
            let machine = Machine::with_nodes(2).protocol_policy(policy).build();
            let clients: Vec<_> = (0..2).map(|t| Client::create(&machine, t, "geom", 1)).collect();
            let geom = Geometry::create(clients[0].context(0), 1, Topology::world(2));
            Geometry::create(clients[1].context(0), 1, Topology::world(2));
            Pair { clients, geom }
        }

        fn receiver(&self) -> &Context {
            self.clients[1].context(0)
        }

        fn send(&self, payload: &[u8]) {
            let (region, sent) = (MemRegion::from_vec(payload.to_vec()), Counter::new());
            self.geom.send_sw(self.clients[0].context(0), 1, TAG, &region, 0, region.len(), &sent);
            assert!(sent.is_ok(), "a lossless send completes inside its call");
        }

        fn post(&self, region: &MemRegion, done: &Counter) {
            self.geom.post_recv(self.receiver(), 0, TAG, region, 0, region.len(), done);
        }

        /// (posted receives, early arrivals) on the receiving context.
        fn table(&self) -> (usize, usize) {
            self.receiver().tagged_table()
        }

        /// `done` is credited exactly once (a second credit would wrap its
        /// word), `region` holds `payload` and nothing lands there again,
        /// and the receiving context's table is empty.
        fn check(&self, order: &str, region: &MemRegion, done: &Counter, payload: &[u8]) {
            for _ in 0..8 {
                if done.is_complete() {
                    break;
                }
                self.receiver().advance();
            }
            assert!(done.is_ok(), "{order}: credited once ({} outstanding)", done.outstanding());
            assert!(region.to_vec() == payload, "{order}: the bytes land in the posted region");
            region.fill(0, region.len(), 0xEE);
            for _ in 0..8 {
                self.receiver().advance();
            }
            assert!(region.to_vec().iter().all(|&b| b == 0xEE), "{order}: landed twice");
            assert!(done.is_ok(), "{order}: credited twice");
            assert_eq!(self.table(), (0, 0), "{order}: posted table and early list");
        }
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 % 251) as u8).collect()
    }

    /// The four orders a posted receive and its message can meet in,
    /// driven on one thread. The last is what a commthread advancing the
    /// receiving context can make of a collective's post: the message's
    /// reassembly spans two `advance` calls (80 packets, 64 per call), the
    /// post lands between them, and the completed message must go to the
    /// post rather than the early list.
    #[test]
    fn a_posted_receive_lands_once_in_every_arrival_order() {
        let cases: [(&str, usize, usize); 4] = [
            ("post, then arrival", 4096, 2000),
            ("single-packet arrival, then post", 4096, 100),
            ("multi-packet arrival, then post", 4096, 2000),
            ("post mid-reassembly", 64 * 1024, 40 * 1024),
        ];
        for (order, eager, len) in cases {
            let pair = Pair::new(eager);
            let (payload, region, done) = (pattern(len), MemRegion::zeroed(len), Counter::new());
            match order {
                "post, then arrival" => {
                    pair.post(&region, &done);
                    assert_eq!(pair.table(), (1, 0), "{order}: posted");
                    pair.send(&payload);
                }
                "post mid-reassembly" => {
                    pair.send(&payload);
                    pair.receiver().advance();
                    assert!(!pair.receiver().is_quiescent(), "{order}: still reassembling");
                    assert_eq!(pair.table(), (0, 0), "{order}: nothing early yet");
                    pair.post(&region, &done);
                    assert_eq!(pair.table(), (1, 0), "{order}: posted");
                }
                _ => {
                    pair.send(&payload);
                    pair.receiver().advance();
                    assert_eq!(pair.table(), (0, 1), "{order}: early");
                    pair.post(&region, &done);
                }
            }
            pair.check(order, &region, &done, &payload);
        }
    }

    /// 0xFE00 is a user id like any other. A handler registered on it
    /// after the geometry exists gets the user's message only, and the
    /// collective's message still lands in its post.
    #[test]
    fn a_user_handler_on_0xfe00_and_a_collective_do_not_collide() {
        let pair = Pair::new(4096);
        let user = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&user);
        pair.receiver().set_dispatch(
            0xFE00,
            Arc::new(move |_: &Context, _: &crate::IncomingMsg, payload: &[u8]| {
                seen.lock().push(payload.to_vec());
                crate::Recv::Done
            }),
        );
        let (payload, region, done) = (pattern(100), MemRegion::zeroed(100), Counter::new());
        pair.post(&region, &done);
        pair.send(&payload);
        let sender = pair.clients[0].context(0);
        sender.send_immediate(Endpoint::of_task(1), 0xFE00, &[], b"user").unwrap();
        pair.check("a user handler on 0xFE00", &region, &done, &payload);
        assert_eq!(*user.lock(), [b"user".to_vec()], "the user handler gets the user's message");
    }

    /// Each member numbers its own calls: one member's collectives never
    /// move another's sequence, whichever thread makes them, and a member
    /// is found by its rank in an irregular task list.
    #[test]
    fn members_sequences_advance_independently() {
        let machine = Machine::with_nodes(2).ppn(2).build();
        let client = Client::create(&machine, 0, "seq", 1);
        let geom = Geometry::create(client.context(0), 5, Topology::List(Arc::from([3, 0])));
        assert_eq!((geom.next_seq(3), geom.next_seq(3), geom.next_seq(0)), (0, 1, 0));
        std::thread::scope(|s| {
            for task in [0, 3] {
                let geom = &geom;
                s.spawn(move || {
                    let first = geom.next_seq(task);
                    for i in 1..1000 {
                        assert_eq!(geom.next_seq(task), first + i, "task {task}'s own order");
                    }
                });
            }
        });
        assert_eq!((geom.next_seq(3), geom.next_seq(0)), (1002, 1001));
    }

    #[test]
    fn local_barrier_generations() {
        let b = LocalBarrier::new(2);
        let g0 = b.arrive();
        assert_eq!(g0, 0);
        assert!(!b.is_released(g0));
        let g0b = b.arrive();
        assert_eq!(g0b, 0);
        assert!(b.is_released(g0));
        let g1 = b.arrive();
        assert_eq!(g1, 1);
        assert!(!b.is_released(g1));
    }

    #[test]
    fn board_post_get_clear() {
        let board = Board::default();
        let region = MemRegion::from_vec(vec![1, 2, 3]);
        board.post(3, 1, BoardEntry { region: region.clone(), offset: 1, len: 2 });
        assert!(board.get(3, 0).is_none());
        let entry = board.get(3, 1).expect("posted entry");
        assert_eq!((entry.region.to_vec(), entry.offset, entry.len), (vec![1, 2, 3], 1, 2));
        board.post(4, 1, BoardEntry { region, offset: 0, len: 3 });
        board.clear_seq(3);
        assert!(board.get(3, 1).is_none());
        assert!(board.get(4, 1).is_some());
    }
}
