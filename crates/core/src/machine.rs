//! The simulated BG/Q partition a PAMI job runs on.
//!
//! A [`Machine`] bundles every substrate one partition offers its tasks:
//! the MU fabric, the classroute manager and the collective-network engine
//! (a geometry takes a classroute when it is optimized). It also carries
//! the window table one-sided operations resolve their target in, standing
//! in for the physical addresses real hardware embeds in descriptors
//! (write-once slots read in place, no lock; a destroyed window is
//! tombstoned until the machine drops). It allocates each client's
//! endpoint table, which maps (task, context) to a node's reception FIFO,
//! a shared-memory mailbox and the context's rendezvous source table.
//! Every context of the client holds that table and reads it in place;
//! the machine only hands it out. Every task must create a client with
//! the same context count, and the machine checks it when the client is
//! created.
//!
//! Tasks are laid out node-major: task `t` lives on node `t / ppn` as local
//! rank `t % ppn` — the default BG/Q mapping.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use bgq_collnet::{ClassRouteManager, CollNet};
use bgq_hw::{Counter, MemRegion};
use bgq_mu::{FaultPlan, MuFabric, RecFifoId};
use bgq_torus::TorusShape;
use bgq_upc::Upc;
use parking_lot::Mutex;

use crate::aggr::AggrConfig;
use crate::endpoint::Endpoint;
use crate::error::{PamiError, PamiResult};
use crate::policy::{StaticPolicy, EAGER_CUTOFF, SHORT_CUTOFF};
use crate::proto::{RzvSources, ShmMailbox};

/// Key identifying a registered memory window (one-sided put/get target).
/// Stands in for the RDMA keys/physical addresses the real MU embeds in
/// descriptors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemKey(pub u64);

/// A typed location inside a registered window: the window's key plus a
/// byte offset. The one-sided args structs ([`crate::PutArgs`],
/// [`crate::GetArgs`], [`crate::RmwArgs`]) address remote memory with this
/// instead of a bare `MemKey` + `usize` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowRef {
    /// The registered window ([`Machine::create_window`]).
    pub key: MemKey,
    /// Byte offset within the window.
    pub offset: usize,
}

impl WindowRef {
    /// `key` at byte offset 0.
    pub fn base(key: MemKey) -> Self {
        WindowRef { key, offset: 0 }
    }

    /// The same window at `offset`.
    pub fn at(key: MemKey, offset: usize) -> Self {
        WindowRef { key, offset }
    }
}

/// A registered one-sided window: the target region plus the counter remote
/// puts decrement.
pub struct Window {
    /// Target memory.
    pub region: MemRegion,
    /// Reception counter (remote puts decrement it by bytes written).
    pub counter: Option<Counter>,
}

/// Slots in a [`WindowTable`]'s first chunk; chunk `c` holds
/// `FIRST_CHUNK << c`.
const FIRST_CHUNK: u64 = 64;

/// Chunks a [`WindowTable`] can grow to: `64 × (2^32 − 1)` windows.
const WINDOW_CHUNKS: usize = 32;

/// One minted window and whether it is still live.
struct WindowSlot {
    window: Window,
    live: AtomicBool,
}

/// Every window the machine ever registered, by key: an append-only table
/// of doubling chunks of write-once slots, key `k` in slot `k - 1`. The
/// table mints its own keys, so a slot is set exactly once, by the thread
/// that minted its key, before the key is returned. Resolving a key is an
/// index and two acquire loads (the chunk, then the slot) and borrows the
/// window in place: no lock, no hash, no refcount. Destroying a window
/// clears its `live` flag; keys are never reused, so a destroyed key stays
/// unknown, and the tombstoned window is released with the machine.
struct WindowTable {
    next: AtomicU64,
    chunks: [OnceLock<Box<[OnceLock<WindowSlot>]>>; WINDOW_CHUNKS],
}

impl WindowTable {
    fn new() -> Self {
        WindowTable { next: AtomicU64::new(1), chunks: std::array::from_fn(|_| OnceLock::new()) }
    }

    /// The chunk and index of `key`'s slot: chunk `c` starts at slot
    /// `FIRST_CHUNK × (2^c − 1)`. `None` for key 0 and keys too large to
    /// index.
    fn locate(key: u64) -> Option<(usize, usize)> {
        let n = key.checked_sub(1)?.checked_add(FIRST_CHUNK)?;
        let chunk = n.ilog2() - FIRST_CHUNK.ilog2();
        Some((chunk as usize, (n - (FIRST_CHUNK << chunk)) as usize))
    }

    fn slot(&self, key: u64) -> Option<&WindowSlot> {
        let (chunk, index) = Self::locate(key)?;
        self.chunks.get(chunk)?.get()?[index].get()
    }

    fn insert(&self, window: Window) -> u64 {
        let key = self.next.fetch_add(1, Ordering::Relaxed);
        let (chunk, index) = Self::locate(key).expect("window keys start at 1");
        let slots = self.chunks.get(chunk).expect("window table full").get_or_init(|| {
            (0..FIRST_CHUNK << chunk).map(|_| OnceLock::new()).collect()
        });
        let fresh = slots[index].set(WindowSlot { window, live: AtomicBool::new(true) });
        assert!(fresh.is_ok(), "window key {key} minted twice");
        key
    }

    fn get(&self, key: u64) -> Option<&Window> {
        // `live` only ever goes true → false, so a relaxed read never sees
        // a destroyed window come back; the window itself was published
        // by the slot's acquire.
        self.slot(key).filter(|slot| slot.live.load(Ordering::Relaxed)).map(|slot| &slot.window)
    }

    fn remove(&self, key: u64) -> bool {
        self.slot(key).is_some_and(|slot| slot.live.swap(false, Ordering::Relaxed))
    }
}

/// Where an endpoint physically lives — filled in when its context is
/// created.
pub(crate) struct EndpointAddr {
    pub rec_fifo: RecFifoId,
    pub mailbox: Arc<ShmMailbox>,
    /// The context's rendezvous sources: a target takes the source an RTS
    /// names through the sender's address.
    pub rzv: Arc<RzvSources>,
}

/// One client's endpoint addresses: `num_tasks × contexts` write-once slots
/// at `task * contexts + context`, allocated when the client name is first
/// seen ([`Machine::client`]) and shared by every context of the client.
/// A slot is set when its context (or a virtual endpoint aliasing one) is
/// created and never changes, so resolving an endpoint is one bounds check,
/// one index and one acquire load: no lock, no hash, no refcount.
pub(crate) struct EndpointTable {
    contexts: usize,
    slots: Box<[OnceLock<EndpointAddr>]>,
}

impl EndpointTable {
    fn new(tasks: usize, contexts: usize) -> Self {
        EndpointTable { contexts, slots: (0..tasks * contexts).map(|_| OnceLock::new()).collect() }
    }

    fn slot(&self, dest: Endpoint) -> Option<&OnceLock<EndpointAddr>> {
        let context = usize::from(dest.context);
        if context >= self.contexts {
            // Past the client's count: must not alias the next task's slots.
            return None;
        }
        self.slots.get(dest.task as usize * self.contexts + context)
    }

    /// `dest`'s address; [`PamiError::UnknownEndpoint`] when it was never
    /// created.
    #[inline]
    pub(crate) fn get(&self, dest: Endpoint) -> PamiResult<&EndpointAddr> {
        self.slot(dest)
            .and_then(OnceLock::get)
            .ok_or(PamiError::UnknownEndpoint { task: dest.task, context: dest.context })
    }

    /// Publish `dest`'s address.
    ///
    /// # Panics
    /// If `dest` is outside the table or was already published.
    pub(crate) fn set(&self, dest: Endpoint, addr: EndpointAddr) {
        let slot = self.slot(dest).unwrap_or_else(|| {
            panic!("endpoint {dest} is outside its client's {}-context table", self.contexts)
        });
        assert!(slot.set(addr).is_ok(), "endpoint {dest} registered twice");
    }
}

/// Builds a [`Machine`].
pub struct MachineBuilder {
    shape: TorusShape,
    ppn: usize,
    policy: Option<StaticPolicy>,
    rec_fifo_capacity: usize,
    fault_plan: Option<FaultPlan>,
    telemetry: Option<Upc>,
    aggregation: Option<AggrConfig>,
}

impl MachineBuilder {
    /// Processes per node, 1..=64 (default 1).
    pub fn ppn(mut self, ppn: usize) -> Self {
        assert!((1..=64).contains(&ppn), "BG/Q supports 1..=64 processes per node");
        self.ppn = ppn;
        self
    }

    /// Processes per node without the hardware 64 cap — co-simulation
    /// oversubscription, where thousands of *virtual* endpoints share one
    /// node's FIFOs and mailboxes (see `bgq-scale`). Real-machine builds
    /// should use [`MachineBuilder::ppn`], which keeps the BG/Q limit.
    pub fn oversubscribed_ppn(mut self, ppn: usize) -> Self {
        assert!(
            (1..=1 << 20).contains(&ppn),
            "oversubscribed ppn must be 1..=2^20"
        );
        self.ppn = ppn;
        self
    }

    /// Install an explicit protocol ladder in place of the default one:
    /// [`SHORT_CUTOFF`] and [`EAGER_CUTOFF`], with an aggregation rung when
    /// [`MachineBuilder::aggregation`] is set. The one door to another
    /// ladder, used by tests; a ladder with an aggregation rung needs
    /// [`MachineBuilder::aggregation`] set as well.
    pub fn protocol_policy(mut self, policy: StaticPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Ring capacity of each MU reception FIFO before the overflow path
    /// engages (default 512) — stress tests shrink it to exercise the
    /// mutex-guarded overflow queue.
    pub fn rec_fifo_capacity(mut self, cap: usize) -> Self {
        self.rec_fifo_capacity = cap;
        self
    }

    /// Install a fault plan: the MU fabric routes every off-node transfer
    /// through the link-level reliability layer (CRC + sequence numbers +
    /// retransmit) with faults injected per the plan. This is the only
    /// way a machine gets one.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enable destination-aware small-message aggregation (`pami::aggr`,
    /// default off): sends the ladder routes to [`crate::Protocol::Aggregated`]
    /// append into per-destination coalescing buckets and travel as
    /// multi-record single-packet frames. Installing a config also gives
    /// the machine's ladder its bottom rung: payloads of at most `cutoff`
    /// bytes aggregate. A ladder installed with
    /// [`MachineBuilder::protocol_policy`] is left as given.
    ///
    /// # Panics
    /// If `cfg.cutoff` is 0, or `cfg.max_frame` is outside 64 bytes ..= one
    /// torus packet: multi-packet frames were removed (a measured negative,
    /// DESIGN.md §15), and a larger budget is rejected here rather than
    /// silently clamped.
    pub fn aggregation(mut self, cfg: AggrConfig) -> Self {
        const PACKET: usize = bgq_torus::packet::MAX_PAYLOAD_BYTES;
        assert!(cfg.cutoff >= 1, "aggregation cutoff must be at least 1 byte");
        assert!(cfg.max_frame >= 64, "aggregated frames below 64 bytes cannot amortize anything");
        assert!(
            cfg.max_frame <= PACKET,
            "AggrConfig::max_frame {} exceeds one {PACKET}-byte packet: multi-packet aggregated \
             frames were removed — a frame is one short-tier packet",
            cfg.max_frame
        );
        self.aggregation = Some(cfg);
        self
    }

    /// Share a caller-owned UPC registry instead of creating a fresh one.
    /// Counters registered by several machines under the same name sum in
    /// the snapshot, so one report can cover a multi-machine workload
    /// (`pamistat` uses this to fold a fault-injected side segment into
    /// the main sample's `ras.*` counters).
    pub fn telemetry(mut self, upc: Upc) -> Self {
        self.telemetry = Some(upc);
        self
    }

    /// Build the machine.
    pub fn build(self) -> Arc<Machine> {
        let nodes = self.shape.num_nodes();
        let telemetry = self.telemetry.unwrap_or_default();
        let coll_probes = crate::coll::CollProbes::new(&telemetry);
        // Keep the record cutoff below the frame so at least one record
        // always fits.
        let aggregation = self.aggregation.map(|mut cfg| {
            cfg.cutoff = cfg.cutoff.min(cfg.max_frame / 2);
            cfg
        });
        let policy = self.policy.unwrap_or_else(|| {
            StaticPolicy::with_aggr(
                aggregation.map_or(0, |cfg| cfg.cutoff),
                SHORT_CUTOFF,
                EAGER_CUTOFF,
            )
        });
        assert!(
            !policy.aggregates() || aggregation.is_some(),
            "a protocol ladder with an aggregation rung needs MachineBuilder::aggregation"
        );
        let mut fabric_builder = MuFabric::builder(self.shape)
            .rec_fifo_capacity(self.rec_fifo_capacity)
            .telemetry(telemetry.clone());
        if let Some(plan) = self.fault_plan {
            fabric_builder = fabric_builder.fault_plan(plan);
        }
        let fabric = fabric_builder.build();
        Arc::new(Machine {
            telemetry,
            coll_probes,
            shape: self.shape,
            ppn: self.ppn,
            policy,
            aggregation,
            fabric,
            link_pump: (0..nodes).map(|_| Mutex::new(())).collect(),
            classroutes: ClassRouteManager::new(self.shape),
            collnet: CollNet::new(),
            clients: Mutex::new(Vec::new()),
            windows: WindowTable::new(),
            geometries: Mutex::new(HashMap::new()),
            next_geometry_id: AtomicU32::new(1),
            init_fence: (Mutex::new((0, 0)), parking_lot::Condvar::new()),
        })
    }
}

/// One simulated partition: substrates plus registries, shared by every
/// task thread.
pub struct Machine {
    /// The partition's UPC telemetry registry: every layer (MU fabric,
    /// contexts, commthreads, matching, collectives) registers its probes
    /// here so one snapshot covers the whole stack.
    telemetry: Upc,
    /// Collective-operation probes (`coll.*`), registered once so repeated
    /// collectives don't grow the registry.
    coll_probes: crate::coll::CollProbes,
    shape: TorusShape,
    ppn: usize,
    /// Point-to-point protocol selection: the ladder every context copies
    /// at creation and consults on every two-sided `send`.
    policy: StaticPolicy,
    /// Small-message aggregation config (`pami::aggr`), `None` when the
    /// layer is off. Every context builds its own [`crate::aggr::Aggregator`]
    /// from this at creation.
    aggregation: Option<AggrConfig>,
    pub(crate) fabric: MuFabric,
    /// Per-node guard so only one context at a time pumps the node's link
    /// channels.
    pub(crate) link_pump: Vec<Mutex<()>>,
    classroutes: ClassRouteManager,
    collnet: CollNet,
    /// Client names and endpoint tables, indexed by client id. Touched
    /// only when a client is created and by [`Machine::endpoint_slots`].
    clients: Mutex<Vec<(String, Arc<EndpointTable>)>>,
    /// One-sided windows, looked up in place by every `put`, `get` and
    /// `rmw`.
    windows: WindowTable,
    /// Every live geometry by id, found by [`crate::Geometry::create`] once
    /// per member and never by a message. The members' handles own each
    /// geometry; `create` forgets the dead ones.
    pub(crate) geometries: Mutex<HashMap<u32, Weak<crate::Geometry>>>,
    /// The next id [`Machine::fresh_geometry_id`] hands out; 0 is left to
    /// the world geometry a library creates first.
    next_geometry_id: AtomicU32,
    /// Blocking all-task rendezvous used as an initialization fence.
    init_fence: (Mutex<(usize, u64)>, parking_lot::Condvar),
}

/// What a task thread receives from [`Machine::run`].
#[derive(Clone)]
pub struct TaskEnv {
    /// The machine.
    pub machine: Arc<Machine>,
    /// This thread's global task index.
    pub task: u32,
}

impl Machine {
    /// Start building a machine over an explicit torus shape.
    pub fn builder(shape: TorusShape) -> MachineBuilder {
        MachineBuilder {
            shape,
            ppn: 1,
            policy: None,
            rec_fifo_capacity: 512,
            fault_plan: None,
            telemetry: None,
            aggregation: None,
        }
    }

    /// Convenience: a machine over `nodes` nodes (auto-factored shape).
    pub fn with_nodes(nodes: usize) -> MachineBuilder {
        Self::builder(TorusShape::for_nodes(nodes))
    }

    /// Torus shape of the partition.
    pub fn shape(&self) -> TorusShape {
        self.shape
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.shape.num_nodes()
    }

    /// Processes per node.
    pub fn ppn(&self) -> usize {
        self.ppn
    }

    /// Total tasks (nodes × ppn).
    pub fn num_tasks(&self) -> usize {
        self.num_nodes() * self.ppn
    }

    /// Node hosting `task`.
    #[inline]
    pub fn task_node(&self, task: u32) -> u32 {
        // One process per node is the dominant shape (and every bench's):
        // skip the runtime division, which is on the per-send critical path.
        if self.ppn == 1 { task } else { task / self.ppn as u32 }
    }

    /// `task`'s local rank within its node.
    pub fn task_local_rank(&self, task: u32) -> usize {
        task as usize % self.ppn
    }

    /// The tasks co-located on `node`, in rank order.
    pub fn node_tasks(&self, node: u32) -> std::ops::Range<u32> {
        let first = node * self.ppn as u32;
        first..first + self.ppn as u32
    }

    /// The MU fabric (low-level access for tests and benchmarks).
    pub fn fabric(&self) -> &MuFabric {
        &self.fabric
    }

    /// The machine-wide telemetry registry (`bgq-upc`). Snapshot it for a
    /// `pamistat`-style report over every layer's probes; no-op when the
    /// `telemetry` feature is off.
    pub fn telemetry(&self) -> &Upc {
        &self.telemetry
    }

    /// The machine's `coll.*` probes (shared by every geometry).
    pub(crate) fn coll_probes(&self) -> &crate::coll::CollProbes {
        &self.coll_probes
    }

    /// The point-to-point protocol ladder: what
    /// `machine.policy().select(dest, len)` names is the protocol
    /// [`crate::Context::send`] uses for that send off-node.
    pub fn policy(&self) -> &StaticPolicy {
        &self.policy
    }

    /// The small-message aggregation config (`pami::aggr`), `None` when
    /// the layer is off. The cutoff is already clamped below the frame.
    pub fn aggregation(&self) -> Option<&AggrConfig> {
        self.aggregation.as_ref()
    }

    /// The classroute manager.
    pub fn classroutes(&self) -> &ClassRouteManager {
        &self.classroutes
    }

    /// The collective-network engine.
    pub fn collnet(&self) -> &CollNet {
        &self.collnet
    }

    /// Spawn one thread per task running `f`, and join them all. Panics in
    /// task threads propagate.
    ///
    /// Caveat: propagation happens after *all* tasks finish. If one task
    /// panics while its peers wait on it (a barrier, a receive), the run
    /// hangs rather than failing fast — wrap suspect code in timeouts when
    /// debugging collective protocols.
    pub fn run<F>(self: &Arc<Self>, f: F)
    where
        F: Fn(TaskEnv) + Send + Sync,
    {
        let tasks = self.num_tasks() as u32;
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for task in 0..tasks {
                let env = TaskEnv { machine: Arc::clone(self), task };
                let f = &f;
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("task-{task}"))
                        .spawn_scoped(s, move || f(env))
                        .expect("spawn task thread"),
                );
            }
            for h in handles {
                if let Err(p) = h.join() {
                    std::panic::resume_unwind(p);
                }
            }
        });
    }

    // ---- registries -----------------------------------------------------

    /// The client `name`: its id and endpoint table, allocated with
    /// `contexts` slots per task when the name is first seen. Clients of the
    /// same name on different tasks are the same network instance.
    ///
    /// # Panics
    /// If an earlier task created `name` with a different context count.
    pub(crate) fn client(&self, name: &str, contexts: usize) -> (u16, Arc<EndpointTable>) {
        let mut clients = self.clients.lock();
        if let Some(id) = clients.iter().position(|(seen, _)| seen == name) {
            let table = &clients[id].1;
            assert!(
                table.contexts == contexts,
                "client {name:?} created with {contexts} contexts, but an earlier task \
                 created it with {}: every task must use the same context count",
                table.contexts
            );
            return (id as u16, Arc::clone(table));
        }
        let table = Arc::new(EndpointTable::new(self.num_tasks(), contexts));
        clients.push((name.to_string(), Arc::clone(&table)));
        (clients.len() as u16 - 1, table)
    }

    /// Register a *virtual* endpoint: (`task`, `context`) of `ctx`'s client
    /// resolves to the reception FIFO and mailbox of an existing real
    /// context, `ctx`. The co-simulation harness uses this to multiplex
    /// thousands of simulated ranks onto one advancing context per node —
    /// traffic addressed to the virtual endpoint lands in `ctx`'s queues,
    /// and the scenario demultiplexes by metadata. `ctx` must live on the
    /// node that owns `task` (node-major layout), or delivery timing would
    /// be wrong.
    pub fn register_virtual_endpoint(&self, task: u32, context: u16, ctx: &crate::Context) {
        assert_eq!(
            self.task_node(task),
            ctx.node(),
            "virtual endpoint must alias a context on its own node"
        );
        ctx.publish_as(Endpoint { task, context });
    }

    /// Endpoint-table slots summed over every client (test hook for the
    /// one-slot-per-endpoint-per-client sizing).
    #[doc(hidden)]
    pub fn endpoint_slots(&self) -> usize {
        self.clients.lock().iter().map(|(_, table)| table.slots.len()).sum()
    }

    /// Geometry registry entries, dead ones included until the next
    /// [`crate::Geometry::create`] forgets them (test hook for the
    /// registry's bound).
    #[doc(hidden)]
    pub fn geometry_entries(&self) -> usize {
        self.geometries.lock().len()
    }

    /// A geometry id no earlier call returned, and never 0: a layer that
    /// creates geometries at run time (MPI's `comm_split`) draws its ids
    /// here, so two live geometries can never share one.
    ///
    /// # Panics
    /// When the ids are exhausted: they stop short of `u32::MAX`, the one
    /// id [`crate::Geometry::create`] refuses.
    pub fn fresh_geometry_id(&self) -> u32 {
        let next = |id: u32| id.checked_add(1).filter(|next| *next < u32::MAX);
        let id = self.next_geometry_id.fetch_update(Ordering::Relaxed, Ordering::Relaxed, next);
        id.expect("geometry ids exhausted")
    }

    /// Register a one-sided window; remote tasks address it by the returned
    /// key (the analogue of exchanging `PAMI_Memregion` handles).
    pub fn create_window(&self, region: MemRegion, counter: Option<Counter>) -> MemKey {
        MemKey(self.windows.insert(Window { region, counter }))
    }

    /// Resolve a window key, borrowing the window in place; `None` for a key
    /// never minted or already destroyed.
    #[inline]
    pub fn window(&self, key: MemKey) -> Option<&Window> {
        self.windows.get(key.0)
    }

    /// Destroy a window: its key resolves to nothing from now on. `false`
    /// when the key was never minted or was already destroyed.
    pub fn destroy_window(&self, key: MemKey) -> bool {
        self.windows.remove(key.0)
    }

    /// Block until every task of the machine has called this — the job
    /// launcher's initialization fence. Use it between resource creation
    /// (clients, contexts, windows) and first communication: endpoint
    /// addressing assumes the destination context exists.
    ///
    /// Unlike the messaging barriers this one parks the thread (nothing
    /// needs to be advanced yet during init).
    pub fn task_barrier(&self) {
        let (lock, cv) = &self.init_fence;
        let mut state = lock.lock();
        let generation = state.1;
        state.0 += 1;
        if state.0 == self.num_tasks() {
            state.0 = 0;
            state.1 += 1;
            cv.notify_all();
        } else {
            while state.1 == generation {
                cv.wait(&mut state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_layout_is_node_major() {
        let m = Machine::with_nodes(4).ppn(4).build();
        assert_eq!(m.num_tasks(), 16);
        assert_eq!(m.task_node(0), 0);
        assert_eq!(m.task_node(5), 1);
        assert_eq!(m.task_local_rank(5), 1);
        assert_eq!(m.node_tasks(2), 8..12);
    }

    #[test]
    fn fresh_machine_leaves_every_user_classroute_free() {
        use bgq_collnet::{NUM_CLASSROUTES, SYSTEM_RESERVED_ROUTES};
        let m = Machine::with_nodes(8).build();
        let free = m.classroutes().available_for(bgq_torus::Rectangle::full(m.shape()));
        assert_eq!(free, NUM_CLASSROUTES - SYSTEM_RESERVED_ROUTES, "no route held for nobody");
    }

    #[test]
    fn run_spawns_one_thread_per_task() {
        let m = Machine::with_nodes(2).ppn(3).build();
        let seen = Mutex::new(Vec::new());
        m.run(|env| {
            seen.lock().push(env.task);
        });
        let mut tasks = seen.into_inner();
        tasks.sort_unstable();
        assert_eq!(tasks, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn client_ids_stable_by_name() {
        let m = Machine::with_nodes(1).build();
        let (a, table) = m.client("MPI", 1);
        let (b, _) = m.client("UPC", 1);
        let (a2, table2) = m.client("MPI", 1);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert!(Arc::ptr_eq(&table, &table2), "one table per client name");
    }

    #[test]
    fn windows_register_and_resolve() {
        let m = Machine::with_nodes(1).build();
        let region = MemRegion::zeroed(64);
        let key = m.create_window(region.clone(), None);
        let win = m.window(key).expect("window resolves");
        assert!(win.region.same_region(&region));
        assert!(m.destroy_window(key));
        assert!(m.window(key).is_none(), "a destroyed key is unknown");
        assert!(!m.destroy_window(key), "a destroyed key cannot be destroyed again");
        let next = m.create_window(MemRegion::zeroed(64), None);
        assert_ne!(next, key, "keys are never reused");
        assert!(m.window(key).is_none(), "the destroyed key stays unknown");
    }

    #[test]
    fn window_keys_resolve_on_both_sides_of_chunk_boundaries() {
        let m = Machine::with_nodes(1).build();
        let regions: Vec<MemRegion> = (0..200).map(|_| MemRegion::zeroed(8)).collect();
        for (i, region) in regions.iter().enumerate() {
            assert_eq!(m.create_window(region.clone(), None), MemKey(i as u64 + 1));
        }
        // Chunk 0 holds keys 1..=64, chunk 1 keys 65..=192, chunk 2 from 193.
        for key in [1, 63, 64, 65, 66, 191, 192, 193, 194, 200] {
            let win = m.window(MemKey(key)).unwrap_or_else(|| panic!("key {key} resolves"));
            assert!(win.region.same_region(&regions[key as usize - 1]), "key {key}'s own region");
        }
    }

    #[test]
    fn unminted_keys_resolve_to_nothing() {
        let m = Machine::with_nodes(1).build();
        let key = m.create_window(MemRegion::zeroed(8), None);
        assert_eq!(key, MemKey(1));
        // Key 0, a key too large to index, an unminted key in the allocated
        // first chunk, and one in a chunk never allocated.
        for key in [0, u64::MAX, 2, 1_000] {
            assert!(m.window(MemKey(key)).is_none(), "key {key} was never minted");
            assert!(!m.destroy_window(MemKey(key)), "key {key} cannot be destroyed");
        }
    }

    #[test]
    fn concurrent_minting_publishes_distinct_resolvable_keys() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 300;
        let m = Machine::with_nodes(1).build();
        let (tx, rx) = std::sync::mpsc::channel::<(MemKey, MemRegion)>();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let (m, tx) = (&m, tx.clone());
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        let region = MemRegion::zeroed(8);
                        tx.send((m.create_window(region.clone(), None), region)).unwrap();
                    }
                });
            }
            drop(tx);
            let m = &m;
            s.spawn(move || {
                let mut seen = std::collections::HashSet::new();
                for (key, region) in rx {
                    let win = m.window(key).unwrap_or_else(|| panic!("{key:?} resolves"));
                    assert!(win.region.same_region(&region), "{key:?} resolves to its own region");
                    assert!(seen.insert(key), "{key:?} minted twice");
                }
                // 1 200 keys span chunks 0..=4: four chunk boundaries crossed.
                assert_eq!(seen.len(), THREADS * PER_THREAD);
            });
        });
    }

    #[test]
    #[should_panic(expected = "multi-packet aggregated frames were removed")]
    fn aggregation_rejects_frames_above_one_packet() {
        let cfg = AggrConfig { max_frame: 2048, ..AggrConfig::default() };
        let _ = Machine::with_nodes(2).aggregation(cfg);
    }

    #[test]
    fn run_propagates_panics() {
        let m = Machine::with_nodes(1).ppn(2).build();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run(|env| {
                if env.task == 1 {
                    panic!("task 1 exploded");
                }
            });
        }));
        assert!(result.is_err());
    }
}
