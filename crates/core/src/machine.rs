//! The simulated BG/Q partition a PAMI job runs on.
//!
//! A [`Machine`] bundles every substrate one partition offers its tasks:
//! the MU fabric, per-node wakeup units and CNK global-VA tables, the
//! classroute manager and collective-network engine, the world classroute
//! (COMM_WORLD comes up collective-enabled) and the world GI barrier. It
//! also carries the registries that stand in for things real hardware does
//! with physical addresses and keys: memory windows for one-sided
//! operations, the rendezvous source table, and the endpoint address table
//! that maps (client, task, context) to a node's reception FIFO and
//! shared-memory mailbox.
//!
//! Tasks are laid out node-major: task `t` lives on node `t / ppn` as local
//! rank `t % ppn` — the default BG/Q mapping.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bgq_collnet::{ClassRoute, ClassRouteManager, CollNet, GiBarrier};
use bgq_hw::{Counter, GlobalVa, MemRegion, WakeupUnit};
use bgq_mu::{FaultPlan, MuFabric, PayloadSource, RecFifoId};
use bgq_torus::{Rectangle, TorusShape};
use bgq_upc::Upc;
use parking_lot::{Mutex, RwLock};

use crate::aggr::AggrConfig;
use crate::policy::{StaticPolicy, SHORT_CUTOFF};
use crate::proto::ShmMailbox;

/// Key identifying a registered memory window (one-sided put/get target) or
/// a rendezvous source. Stands in for the RDMA keys/physical addresses the
/// real MU embeds in descriptors.
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
#[derive(Clone)]
pub struct Window {
    /// Target memory.
    pub region: MemRegion,
    /// Reception counter (remote puts decrement it by bytes written).
    pub counter: Option<Counter>,
}

pub(crate) struct RzvEntry {
    pub payload: PayloadSource,
    pub local_done: Option<Counter>,
}

/// Where an endpoint physically lives — filled in when its context is
/// created.
#[derive(Clone)]
pub(crate) struct EndpointAddr {
    pub rec_fifo: RecFifoId,
    pub mailbox: Arc<ShmMailbox>,
}

/// Dense endpoint-address cache sizing. Endpoints are written once (at
/// context creation, [`Machine::register_endpoint`] asserts no re-register)
/// and never removed, so a `OnceLock` slab indexed by
/// `task * ENDPOINT_CTX_SLOTS + context` resolves the send-path lookup with
/// one acquire load — no `RwLock`, no hash, no `Arc` clone. The slab covers
/// the first client and context offsets below [`ENDPOINT_CTX_SLOTS`] on
/// machines up to [`ENDPOINT_CACHE_MAX_TASKS`] tasks; everything else falls
/// back to the registry map.
const ENDPOINT_CACHE_MAX_TASKS: usize = 4096;
/// Beyond [`ENDPOINT_CACHE_MAX_TASKS`] the cache narrows to one context
/// slot per task instead of disappearing: a 100K-endpoint co-simulation
/// pays 16 bytes per endpoint, not 16 slots × 16 bytes — the O(1)
/// per-endpoint budget the scale harness enforces. Above this bound the
/// slab is dropped entirely and everything goes through the registry map.
const ENDPOINT_CACHE_MAX_TASKS_SPARSE: usize = 1 << 20;
/// Context offsets per task covered by the dense cache (16 = one per BG/Q
/// core-thread pair, the paper's max contexts-per-process sweep).
pub(crate) const ENDPOINT_CTX_SLOTS: usize = 16;

/// Machine-level endpoint failover. When the RAS layer reports a channel
/// gave up with [`bgq_mu::DeliveryFault::Unreachable`] (no route — the node
/// is cut off), traffic addressed to that node's tasks re-targets their
/// registered *standby* tasks: [`Machine::resolve_task`] remaps the
/// destination at the top of every send path, and the per-task failover
/// generation lets higher layers ([`crate::PersistentChannel`]) detect the
/// remap and renegotiate against the standby.
///
/// The fair-weather cost is one relaxed load: `generation == 0` means no
/// failover ever fired and every lookup is identity. Only after the first
/// trigger do lookups consult the `active` map.
pub(crate) struct FailoverState {
    /// Standbys registered ahead of time: primary task → standby task.
    standbys: Mutex<HashMap<u32, u32>>,
    /// Failovers that fired: primary task → (standby task, generation at
    /// which the remap took effect).
    active: RwLock<HashMap<u32, (u32, u64)>>,
    /// Global failover generation; 0 = never fired (the zero-cost gate).
    generation: AtomicU64,
    /// Staleness side-table parallel to the machine's endpoint cache: the
    /// `OnceLock` slab is write-once, so a failed-over task's slots are
    /// marked stale here and `endpoint_addr_fast` declines them (checked
    /// only when `generation != 0`, keeping the clean path branch-free).
    slot_stale: Box<[AtomicBool]>,
    cache_slots: usize,
}

impl FailoverState {
    fn new(tasks: usize, cache_slots: usize) -> Self {
        FailoverState {
            standbys: Mutex::new(HashMap::new()),
            active: RwLock::new(HashMap::new()),
            generation: AtomicU64::new(0),
            slot_stale: (0..tasks * cache_slots).map(|_| AtomicBool::new(false)).collect(),
            cache_slots,
        }
    }

    fn register(&self, primary: u32, standby: u32) {
        self.standbys.lock().insert(primary, standby);
    }

    /// Fire failover for `primary` if a standby is registered. Idempotent:
    /// re-triggering an already-active mapping does not bump generations,
    /// so repeated Unreachable events from draining traffic are free.
    fn trigger(&self, primary: u32) -> Option<u32> {
        let standby = *self.standbys.lock().get(&primary)?;
        let mut active = self.active.write();
        if let Some(&(cur, _)) = active.get(&primary) {
            if cur == standby {
                return Some(standby);
            }
        }
        let gen = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        active.insert(primary, (standby, gen));
        drop(active);
        let base = primary as usize * self.cache_slots;
        if let Some(slots) = self.slot_stale.get(base..base + self.cache_slots) {
            for slot in slots {
                slot.store(true, Ordering::Release);
            }
        }
        Some(standby)
    }

    /// Fire failover for every registered primary in `tasks` (one lock of
    /// the standby table, so a node-death event over an oversubscribed
    /// node's 2^20 tasks doesn't take 2^20 locks). Free when no standby
    /// was ever registered.
    fn trigger_range(&self, tasks: std::ops::Range<u32>) {
        let primaries: Vec<u32> = {
            let standbys = self.standbys.lock();
            if standbys.is_empty() {
                return;
            }
            standbys.keys().copied().filter(|t| tasks.contains(t)).collect()
        };
        for primary in primaries {
            self.trigger(primary);
        }
    }

    fn resolve(&self, task: u32) -> u32 {
        if self.generation.load(Ordering::Relaxed) == 0 {
            return task;
        }
        self.active.read().get(&task).map_or(task, |&(standby, _)| standby)
    }

    fn generation_of(&self, task: u32) -> u64 {
        if self.generation.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        self.active.read().get(&task).map_or(0, |&(_, gen)| gen)
    }

    fn slot_is_stale(&self, idx: usize) -> bool {
        self.slot_stale.get(idx).is_some_and(|b| b.load(Ordering::Acquire))
    }
}

/// Builds a [`Machine`].
pub struct MachineBuilder {
    shape: TorusShape,
    ppn: usize,
    eager_limit: usize,
    policy: Option<StaticPolicy>,
    inj_fifos_per_context: u16,
    inj_fifo_capacity: usize,
    rec_fifo_capacity: usize,
    fault_plan: Option<FaultPlan>,
    transport: Option<Arc<dyn bgq_mu::Transport>>,
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
            (1..=ENDPOINT_CACHE_MAX_TASKS_SPARSE).contains(&ppn),
            "oversubscribed ppn must be 1..=2^20"
        );
        self.ppn = ppn;
        self
    }

    /// Install a packet transport on the MU fabric: every reception-FIFO
    /// deposit is handed to it instead of being performed synchronously.
    /// The co-simulation seam — `bgq-scale` installs a DES-clocked
    /// `VirtualFabric` here so delivery order follows virtual link timing.
    pub fn transport(mut self, transport: Arc<dyn bgq_mu::Transport>) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Eager/rendezvous crossover in bytes (default 4096): the top rung of
    /// the machine's [`StaticPolicy`] ladder. The short rung below it is
    /// [`SHORT_CUTOFF`] (or this limit, when smaller).
    pub fn eager_limit(mut self, bytes: usize) -> Self {
        self.eager_limit = bytes;
        self
    }

    /// Install an explicit protocol ladder in place of the one
    /// [`MachineBuilder::eager_limit`] and [`MachineBuilder::aggregation`]
    /// derive. A ladder with an aggregation rung needs
    /// [`MachineBuilder::aggregation`] set as well.
    pub fn protocol_policy(mut self, policy: StaticPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Injection FIFOs reserved per context (default 4); destinations are
    /// pinned across them by hash.
    pub fn inj_fifos_per_context(mut self, n: u16) -> Self {
        assert!(n >= 1);
        self.inj_fifos_per_context = n;
        self
    }

    /// Ring capacities of the MU FIFOs before the overflow path engages
    /// (defaults 128/512) — stress tests shrink these to exercise the
    /// mutex-guarded overflow queues.
    pub fn fifo_capacities(mut self, inj: usize, rec: usize) -> Self {
        self.inj_fifo_capacity = inj;
        self.rec_fifo_capacity = rec;
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
        let coll_registry = crate::coll::CollRegistry::with_builtins();
        // Keep the record cutoff below the frame so at least one record
        // always fits.
        let aggregation = self.aggregation.map(|mut cfg| {
            cfg.cutoff = cfg.cutoff.min(cfg.max_frame / 2);
            cfg
        });
        let policy = self.policy.unwrap_or_else(|| {
            StaticPolicy::with_aggr(
                aggregation.map_or(0, |cfg| cfg.cutoff),
                SHORT_CUTOFF.min(self.eager_limit),
                self.eager_limit,
            )
        });
        assert!(
            !policy.aggregates() || aggregation.is_some(),
            "a protocol ladder with an aggregation rung needs MachineBuilder::aggregation"
        );
        let mut fabric_builder = MuFabric::builder(self.shape)
            .inj_fifo_capacity(self.inj_fifo_capacity)
            .rec_fifo_capacity(self.rec_fifo_capacity)
            .telemetry(telemetry.clone());
        if let Some(plan) = self.fault_plan {
            fabric_builder = fabric_builder.fault_plan(plan);
        }
        if let Some(transport) = self.transport {
            fabric_builder = fabric_builder.transport(transport);
        }
        let fabric = fabric_builder.build();
        let tasks = nodes * self.ppn;
        let cache_slots = if tasks <= ENDPOINT_CACHE_MAX_TASKS {
            ENDPOINT_CTX_SLOTS
        } else if tasks <= ENDPOINT_CACHE_MAX_TASKS_SPARSE {
            1
        } else {
            0
        };
        let failover = Arc::new(FailoverState::new(tasks, cache_slots));
        // A channel that gave up as unreachable fires machine-level
        // endpoint failover for the dead node's tasks.
        {
            let fo = Arc::clone(&failover);
            let ppn = self.ppn as u32;
            fabric.set_ras_observer(Arc::new(move |ev: &bgq_mu::RasEvent| {
                if ev.kind == bgq_mu::RasEventKind::DeliveryFailure
                    && ev.detail == bgq_mu::DeliveryFault::Unreachable as u64
                {
                    fo.trigger_range(ev.dst_node * ppn..(ev.dst_node + 1) * ppn);
                }
            }));
        }
        let classroutes = ClassRouteManager::new(self.shape);
        let world_route = classroutes
            .allocate(Rectangle::full(self.shape), None)
            .expect("fresh machine always has a classroute for COMM_WORLD");
        Arc::new(Machine {
            telemetry,
            coll_probes,
            coll_registry,
            shape: self.shape,
            ppn: self.ppn,
            policy,
            aggregation,
            inj_fifos_per_context: self.inj_fifos_per_context,
            fabric,
            wakeups: (0..nodes).map(|_| WakeupUnit::new()).collect(),
            global_va: (0..nodes).map(|_| GlobalVa::new()).collect(),
            sys_pump: (0..nodes).map(|_| Mutex::new(())).collect(),
            classroutes,
            collnet: CollNet::new(),
            world_route: Arc::new(world_route),
            world_gi: GiBarrier::new(nodes),
            clients: Mutex::new(HashMap::new()),
            endpoints: RwLock::new(HashMap::new()),
            endpoint_cache: (0..tasks * cache_slots).map(|_| OnceLock::new()).collect(),
            cache_slots,
            failover,
            windows: Mutex::new(HashMap::new()),
            rzv: Mutex::new(HashMap::new()),
            next_key: AtomicU64::new(1),
            shared: Mutex::new(HashMap::new()),
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
    /// Per-geometry collective algorithm registry: every barrier/broadcast/
    /// allreduce/… algorithm is a queryable entry with an availability
    /// predicate and a cost hint; geometries select through it.
    coll_registry: crate::coll::CollRegistry,
    shape: TorusShape,
    ppn: usize,
    /// Point-to-point protocol selection: the ladder every context copies
    /// at creation and consults on every two-sided `send`.
    policy: StaticPolicy,
    /// Small-message aggregation config (`pami::aggr`), `None` when the
    /// layer is off. Every context builds its own [`crate::aggr::Aggregator`]
    /// from this at creation.
    aggregation: Option<AggrConfig>,
    pub(crate) inj_fifos_per_context: u16,
    pub(crate) fabric: MuFabric,
    wakeups: Vec<WakeupUnit>,
    global_va: Vec<GlobalVa>,
    /// Per-node guard so only one context at a time services the node's
    /// system FIFO (remote gets) in inline engine mode.
    pub(crate) sys_pump: Vec<Mutex<()>>,
    classroutes: ClassRouteManager,
    collnet: CollNet,
    world_route: Arc<ClassRoute>,
    world_gi: GiBarrier,
    clients: Mutex<HashMap<String, u16>>,
    endpoints: RwLock<HashMap<(u16, u32, u16), EndpointAddr>>,
    /// Lock-free send-path view of `endpoints` (client 0, context offsets
    /// below `cache_slots`): a `task * cache_slots + context` slab.
    endpoint_cache: Box<[OnceLock<EndpointAddr>]>,
    /// Context slots per task in `endpoint_cache`: [`ENDPOINT_CTX_SLOTS`]
    /// up to [`ENDPOINT_CACHE_MAX_TASKS`] tasks, 1 up to
    /// [`ENDPOINT_CACHE_MAX_TASKS_SPARSE`] (context 0 only — the co-sim
    /// envelope), 0 beyond (registry map only).
    cache_slots: usize,
    /// Endpoint failover registry (standbys, active remaps, generations).
    /// `Arc` because the fabric's RAS observer holds a clone — it must
    /// outlive neither and is installed before the machine exists.
    failover: Arc<FailoverState>,
    windows: Mutex<HashMap<u64, Window>>,
    rzv: Mutex<HashMap<u64, RzvEntry>>,
    next_key: AtomicU64,
    /// Named shared state for layers built on PAMI (geometry registries,
    /// MPI node boards, …): the stand-in for structures those layers would
    /// place in CNK shared memory.
    shared: Mutex<HashMap<String, Arc<dyn Any + Send + Sync>>>,
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
            eager_limit: 4096,
            policy: None,
            inj_fifos_per_context: 4,
            inj_fifo_capacity: 128,
            rec_fifo_capacity: 512,
            fault_plan: None,
            transport: None,
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

    /// The per-geometry collective algorithm registry (the analogue of
    /// `PAMI_Geometry_algorithms_query`). Layers above PAMI (MPI's rect
    /// broadcast) register additional entries here.
    pub fn coll_registry(&self) -> &crate::coll::CollRegistry {
        &self.coll_registry
    }

    /// The wakeup unit of `node`.
    pub fn wakeup_unit(&self, node: u32) -> &WakeupUnit {
        &self.wakeups[node as usize]
    }

    /// The CNK global-VA table of `node`.
    pub fn global_va(&self, node: u32) -> &GlobalVa {
        &self.global_va[node as usize]
    }

    /// The classroute manager.
    pub fn classroutes(&self) -> &ClassRouteManager {
        &self.classroutes
    }

    /// The collective-network engine.
    pub fn collnet(&self) -> &CollNet {
        &self.collnet
    }

    /// The COMM_WORLD classroute (always programmed).
    pub fn world_route(&self) -> &Arc<ClassRoute> {
        &self.world_route
    }

    /// The world GI barrier (one slot per node).
    pub fn world_gi(&self) -> &GiBarrier {
        &self.world_gi
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

    /// Numeric id for a client name, allocating on first sight. Clients of
    /// the same name on different tasks are the same network instance.
    pub(crate) fn client_id(&self, name: &str) -> u16 {
        let mut clients = self.clients.lock();
        let next = clients.len() as u16;
        *clients.entry(name.to_string()).or_insert(next)
    }

    pub(crate) fn register_endpoint(
        &self,
        client: u16,
        task: u32,
        context: u16,
        addr: EndpointAddr,
    ) {
        let prev = self.endpoints.write().insert((client, task, context), addr.clone());
        assert!(prev.is_none(), "endpoint ({client},{task},{context}) registered twice");
        // Publish into the dense cache too (write-once by the assert above).
        if client == 0 && (context as usize) < self.cache_slots {
            let idx = task as usize * self.cache_slots + context as usize;
            if let Some(slot) = self.endpoint_cache.get(idx) {
                let _ = slot.set(addr);
            }
        }
    }

    /// Register a *virtual* endpoint: (client, `task`, `context`) resolves
    /// to the reception FIFO and mailbox of an existing real context, `ctx`.
    /// The co-simulation harness uses this to multiplex thousands of
    /// simulated ranks onto one advancing context per node — traffic
    /// addressed to the virtual endpoint lands in `ctx`'s queues, and the
    /// scenario demultiplexes by metadata. `ctx` must live on the node that
    /// owns `task` (node-major layout), or delivery timing would be wrong.
    pub fn register_virtual_endpoint(&self, task: u32, context: u16, ctx: &crate::Context) {
        assert_eq!(
            self.task_node(task),
            ctx.node(),
            "virtual endpoint must alias a context on its own node"
        );
        self.register_endpoint(ctx.client_id(), task, context, ctx.endpoint_addr());
    }

    /// Resolve an endpoint's physical address. `None` when the endpoint
    /// was never created — surfaced to callers as
    /// [`crate::PamiError::UnknownEndpoint`] rather than a panic.
    pub(crate) fn endpoint_addr(
        &self,
        client: u16,
        task: u32,
        context: u16,
    ) -> Option<EndpointAddr> {
        self.endpoints.read().get(&(client, task, context)).cloned()
    }

    /// Lock-free endpoint resolution through the dense cache: one index
    /// computation plus one acquire load, returning a *reference* (no `Arc`
    /// refcount traffic on the sender's hot path). `None` means "not in the
    /// cache" — absent *or* outside the cached (client, context, machine
    /// size) envelope — and callers fall back to [`Machine::endpoint_addr`].
    #[inline]
    pub(crate) fn endpoint_addr_fast(
        &self,
        client: u16,
        task: u32,
        context: u16,
    ) -> Option<&EndpointAddr> {
        if client != 0 || context as usize >= self.cache_slots {
            return None;
        }
        let idx = task as usize * self.cache_slots + context as usize;
        // The slab is write-once, so failover invalidates by side table:
        // a stale slot (its task failed over) declines into the registry
        // path. One relaxed load guards the check in fair weather.
        if self.failover.generation.load(Ordering::Relaxed) != 0
            && self.failover.slot_is_stale(idx)
        {
            return None;
        }
        self.endpoint_cache.get(idx).and_then(OnceLock::get)
    }

    /// Context slots per task in the dense endpoint cache (test hook for
    /// the O(1)-per-endpoint sizing policy).
    #[doc(hidden)]
    pub fn endpoint_cache_geometry(&self) -> (usize, usize) {
        (self.endpoint_cache.len(), self.cache_slots)
    }

    // ---- endpoint failover ----------------------------------------------

    /// Register `standby` as the failover target for `primary`: if the
    /// reliability layer ever reports `primary`'s node unreachable (a
    /// channel died with [`bgq_mu::DeliveryFault::Unreachable`]), sends
    /// addressed to `primary` re-target `standby` from then on. The standby
    /// must be a live task with its own contexts; it is assumed fresh — no
    /// prior persistent-channel history with the peers it inherits.
    pub fn register_standby(&self, primary: u32, standby: u32) {
        let tasks = self.num_tasks() as u32;
        assert!(primary < tasks && standby < tasks, "standby registration out of range");
        assert_ne!(primary, standby, "a task cannot stand by for itself");
        self.failover.register(primary, standby);
    }

    /// Fire failover of `primary` now (operator action / tests — the RAS
    /// observer calls the same path on Unreachable). Returns the standby
    /// traffic was re-targeted to, `None` when no standby is registered.
    pub fn failover(&self, primary: u32) -> Option<u32> {
        self.failover.trigger(primary)
    }

    /// The live task for `task`: itself in fair weather (one relaxed load),
    /// or its standby once failover fired. Send paths call this at the top
    /// so endpoint, node, and FIFO resolution all follow the remap.
    pub fn resolve_task(&self, task: u32) -> u32 {
        self.failover.resolve(task)
    }

    /// Monotone failover generation for `task`: 0 until its first failover,
    /// then the global generation at which its current remap took effect.
    /// [`crate::PersistentChannel`] snapshots this at creation and
    /// renegotiates when it moves.
    pub fn failover_generation(&self, task: u32) -> u64 {
        self.failover.generation_of(task)
    }

    fn fresh_key(&self) -> u64 {
        self.next_key.fetch_add(1, Ordering::Relaxed)
    }

    /// Register a one-sided window; remote tasks address it by the returned
    /// key (the analogue of exchanging `PAMI_Memregion` handles).
    pub fn create_window(&self, region: MemRegion, counter: Option<Counter>) -> MemKey {
        let key = self.fresh_key();
        self.windows.lock().insert(key, Window { region, counter });
        MemKey(key)
    }

    /// Resolve a window key.
    pub fn window(&self, key: MemKey) -> Option<Window> {
        self.windows.lock().get(&key.0).cloned()
    }

    /// Destroy a window.
    pub fn destroy_window(&self, key: MemKey) -> bool {
        self.windows.lock().remove(&key.0).is_some()
    }

    pub(crate) fn rzv_register(&self, payload: PayloadSource, local_done: Option<Counter>) -> u64 {
        let key = self.fresh_key();
        self.rzv.lock().insert(key, RzvEntry { payload, local_done });
        key
    }

    pub(crate) fn rzv_take(&self, key: u64) -> RzvEntry {
        self.rzv
            .lock()
            .remove(&key)
            .expect("rendezvous source looked up twice or never registered")
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

    /// Get-or-create a named piece of machine-wide shared state (the
    /// CNK-shared-memory stand-in higher layers coordinate through).
    pub fn shared_state<T, F>(&self, key: &str, init: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let mut shared = self.shared.lock();
        if let Some(existing) = shared.get(key) {
            return Arc::clone(existing).downcast::<T>().unwrap_or_else(|_| {
                panic!("shared_state key {key:?} requested with two different types")
            });
        }
        let value: Arc<T> = Arc::new(init());
        shared.insert(key.to_string(), Arc::clone(&value) as Arc<dyn Any + Send + Sync>);
        value
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
    fn world_route_covers_machine() {
        let m = Machine::with_nodes(8).build();
        assert_eq!(m.world_route().num_nodes(), 8);
        assert_eq!(m.world_gi().members(), 8);
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
        let a = m.client_id("MPI");
        let b = m.client_id("UPC");
        let a2 = m.client_id("MPI");
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn windows_register_and_resolve() {
        let m = Machine::with_nodes(1).build();
        let region = MemRegion::zeroed(64);
        let key = m.create_window(region.clone(), None);
        let win = m.window(key).expect("window resolves");
        assert!(win.region.same_region(&region));
        assert!(m.destroy_window(key));
        assert!(m.window(key).is_none());
    }

    #[test]
    fn shared_state_returns_same_instance() {
        let m = Machine::with_nodes(1).build();
        let a: Arc<Mutex<u32>> = m.shared_state("x", || Mutex::new(1));
        let b: Arc<Mutex<u32>> = m.shared_state("x", || Mutex::new(99));
        *a.lock() += 1;
        assert_eq!(*b.lock(), 2);
    }

    #[test]
    #[should_panic(expected = "two different types")]
    fn shared_state_type_mismatch_panics() {
        let m = Machine::with_nodes(1).build();
        let _a: Arc<Mutex<u32>> = m.shared_state("x", || Mutex::new(1));
        let _b: Arc<Mutex<String>> = m.shared_state("x", || Mutex::new(String::new()));
    }

    #[test]
    fn endpoint_cache_mirrors_registry() {
        let m = Machine::with_nodes(2).ppn(2).build();
        assert!(m.endpoint_addr_fast(0, 1, 0).is_none(), "nothing registered yet");
        let wake = m.wakeup_unit(0).region();
        let addr = EndpointAddr {
            rec_fifo: m.fabric().alloc_rec_fifos(0, 1).unwrap()[0],
            mailbox: Arc::new(ShmMailbox::new(8, wake)),
        };
        m.register_endpoint(0, 1, 0, addr.clone());
        let fast = m.endpoint_addr_fast(0, 1, 0).expect("dense cache hit");
        let slow = m.endpoint_addr(0, 1, 0).expect("registry hit");
        assert_eq!(fast.rec_fifo, slow.rec_fifo);
        assert!(Arc::ptr_eq(&fast.mailbox, &slow.mailbox));
        // Outside the cached envelope: registry only, fast path declines.
        m.register_endpoint(1, 1, 0, addr.clone());
        assert!(m.endpoint_addr_fast(1, 1, 0).is_none());
        assert!(m.endpoint_addr(1, 1, 0).is_some());
        m.register_endpoint(0, 0, ENDPOINT_CTX_SLOTS as u16, addr);
        assert!(m.endpoint_addr_fast(0, 0, ENDPOINT_CTX_SLOTS as u16).is_none());
        assert!(m.endpoint_addr(0, 0, ENDPOINT_CTX_SLOTS as u16).is_some());
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
