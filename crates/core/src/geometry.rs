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
use std::sync::{Arc, Weak};

use bgq_collnet::{ClassRoute, ClassRouteError};
use bgq_hw::{L2Counter, MemRegion};
use bgq_torus::Rectangle;
use bytes::Bytes;
use parking_lot::Mutex;

use crate::context::{Context, IncomingMsg, Recv};
use crate::machine::Machine;
use crate::proto::SendArgs;
use crate::topology::Topology;

/// Dispatch id geometries claim on every context that participates in
/// collectives (reserved by convention; do not register user handlers on
/// it).
pub const DISPATCH_GEOMETRY: u16 = 0xFE00;

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

/// A value posted on a node board.
#[derive(Clone)]
pub enum BoardEntry {
    /// A reference to a member's buffer, readable by peers through the
    /// global virtual address space.
    Region {
        /// The buffer.
        region: MemRegion,
        /// Payload offset.
        offset: usize,
        /// Payload length.
        len: usize,
    },
    /// Immediate bytes.
    Data(Arc<Vec<u8>>),
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

    /// Entries currently held (diagnostics).
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// Whether the board is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.lock().is_empty()
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

struct GeometryRegistry {
    map: Mutex<HashMap<u32, Arc<Geometry>>>,
}

/// A task group plus its collective machinery. Shared (one `Arc`) by every
/// member task; create collectively with [`Geometry::create`].
pub struct Geometry {
    id: u32,
    topology: Topology,
    /// Weak: the machine's shared-state registry owns every geometry, so a
    /// strong handle here would be a cycle that leaks the whole machine.
    machine: Weak<Machine>,
    /// Distinct member nodes, ascending; index = GI slot.
    nodes: Vec<u32>,
    groups: HashMap<u32, NodeGroup>,
    gi: bgq_collnet::GiBarrier,
    /// The exact node rectangle, when the member nodes form one.
    node_rect: Option<Rectangle>,
    route: Mutex<Option<Arc<ClassRoute>>>,
    /// Per-task next collective sequence number.
    seqs: Mutex<HashMap<u32, u64>>,
    /// Software-collective receive store: (dst task, tag, src task) → data.
    sw_store: Mutex<HashMap<(u32, u64, u32), Vec<u8>>>,
}

impl Geometry {
    /// Create (or look up) geometry `id` over `topology`, attaching the
    /// collective dispatch to `ctx`. Collective: every member task calls
    /// this with the same id and an equivalent topology before using the
    /// geometry.
    pub fn create(ctx: &Context, id: u32, topology: Topology) -> Arc<Geometry> {
        let machine = Arc::clone(ctx.machine());
        let registry = machine.shared_state("pami.geometry.registry", || GeometryRegistry {
            map: Mutex::new(HashMap::new()),
        });
        let geometry = {
            let mut map = registry.map.lock();
            if let Some(existing) = map.get(&id) {
                assert_eq!(
                    existing.topology.size(),
                    topology.size(),
                    "geometry {id} re-created with a different topology"
                );
                Arc::clone(existing)
            } else {
                let g = Arc::new(Self::build(&machine, id, topology));
                map.insert(id, Arc::clone(&g));
                g
            }
        };
        Self::attach_dispatch(ctx, registry);
        geometry
    }

    fn build(machine: &Arc<Machine>, id: u32, topology: Topology) -> Geometry {
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
            seqs: Mutex::new(HashMap::new()),
            sw_store: Mutex::new(HashMap::new()),
        }
    }

    /// Register the geometry message router on `ctx` (idempotent). The
    /// router holds `registry`, so a message finds its geometry there and
    /// never through the machine's shared-state registry.
    fn attach_dispatch(ctx: &Context, registry: Arc<GeometryRegistry>) {
        ctx.set_dispatch(
            DISPATCH_GEOMETRY,
            Arc::new(move |ctx: &Context, msg: &IncomingMsg, first: &[u8]| {
                let (geom_id, tag) = wire_open(&msg.metadata);
                let geometry = registry.map.lock().get(&geom_id).cloned();
                let geometry = geometry.expect("geometry message for unknown id");
                let src = msg.src.task;
                let dst = ctx.task();
                if first.len() as u64 == msg.len {
                    // Whole payload available inline: stash now.
                    geometry.sw_store.lock().insert((dst, tag, src), first.to_vec());
                    return Recv::Done;
                }
                let region = MemRegion::zeroed(msg.len as usize);
                let stash_region = region.clone();
                Recv::Into {
                    region,
                    offset: 0,
                    on_complete: Box::new(move |ctx2: &Context, result| {
                        result.expect("geometry control message failed delivery");
                        geometry
                            .sw_store
                            .lock()
                            .insert((ctx2.task(), tag, src), stash_region.to_vec());
                    }),
                }
            }),
        );
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

    /// The machine. A geometry is only reachable through a context or
    /// the registry of a live machine, so the upgrade cannot fail in a
    /// correct program. The upgrade is an atomic RMW on the machine's one
    /// strong count, so this is for setup and queries; the collectives
    /// take the machine from their context instead.
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
    pub fn next_seq(&self, task: u32) -> u64 {
        let mut seqs = self.seqs.lock();
        let s = seqs.entry(task).or_insert(0);
        let v = *s;
        *s += 1;
        v
    }

    // ---- software-collective point-to-point helpers ----------------------

    /// Send `payload` to geometry member `dst_rank` tagged `tag`
    /// ([`crate::coll::tag`]): the one way a collective's bytes move
    /// between tasks.
    pub fn send_sw(
        &self,
        ctx: &Context,
        dst_rank: usize,
        tag: u64,
        payload: bgq_mu::PayloadSource,
        local_done: Option<bgq_hw::Counter>,
    ) {
        let dest_task = self.topology.task_at(dst_rank);
        ctx.send(SendArgs {
            dest: crate::endpoint::Endpoint::of_task(dest_task),
            dispatch: DISPATCH_GEOMETRY,
            metadata: wire_make(self.id, tag),
            payload,
            local_done,
        })
        .expect("software-collective send to a geometry member");
    }

    /// Receive the message tagged `tag` from geometry member `src_rank`,
    /// advancing `ctx` until it arrives; one that arrived earlier waits in
    /// the geometry's receive store.
    pub fn recv_sw(&self, ctx: &Context, src_rank: usize, tag: u64) -> Vec<u8> {
        let src_task = self.topology.task_at(src_rank);
        let key = (ctx.task(), tag, src_task);
        loop {
            if let Some(data) = self.sw_store.lock().remove(&key) {
                return data;
            }
            if ctx.advance() == 0 {
                std::thread::yield_now();
            }
        }
    }
}

fn wire_make(geom_id: u32, tag: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(12);
    v.extend_from_slice(&geom_id.to_le_bytes());
    v.extend_from_slice(&tag.to_le_bytes());
    v
}

fn wire_open(metadata: &Bytes) -> (u32, u64) {
    assert!(metadata.len() >= 12, "malformed geometry metadata");
    let id = u32::from_le_bytes(metadata[..4].try_into().unwrap());
    let tag = u64::from_le_bytes(metadata[4..12].try_into().unwrap());
    (id, tag)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        board.post(3, 1, BoardEntry::Data(Arc::new(vec![1, 2, 3])));
        assert!(board.get(3, 0).is_none());
        match board.get(3, 1) {
            Some(BoardEntry::Data(d)) => assert_eq!(*d, vec![1, 2, 3]),
            _ => panic!("expected data entry"),
        }
        board.post(4, 1, BoardEntry::Data(Arc::new(vec![9])));
        board.clear_seq(3);
        assert!(board.get(3, 1).is_none());
        assert!(board.get(4, 1).is_some());
        assert_eq!(board.len(), 1);
    }
}
