//! PAMI contexts — the unit of thread parallelism.
//!
//! "Messaging operations are initiated and progressed in the context
//! independent of other co-existing contexts" (paper section III.B). Each
//! context owns, exclusively: one MU reception FIFO and the message-id lane
//! it sends every message from (one lane keeps each destination's messages
//! in call order, preserving MPI ordering), a shared-memory mailbox, a
//! lock-free work queue for cross-thread handoff, and a wakeup region
//! commthreads park on.
//!
//! Thread contract, mirrored from the paper: [`Context::advance`] is
//! single-threaded per context — concurrent calls are detected with a
//! `try_lock` and simply make no progress (higher software either pins
//! threads to contexts, posts work with [`Context::post`], or brackets
//! shared use with [`Context::lock`]). Sends are initiated lock-free from
//! any thread: a descriptor executes on the thread that injects it, as the
//! MU starts moving data the moment one is written, and what it deposits
//! lands on MPSC queues.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bgq_hw::{Counter, L2TicketMutex, MemRegion, WakeupRegion, WorkQueue};
use bgq_mu::{
    Descriptor, FifoHeader, MsgIdLane, MuPacket, PayloadSource, RecFifo, RecFifoId, XferKind,
};
use bgq_upc::{Histogram, Stamp, Upc};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::aggr::{Aggregator, Frame};
use crate::endpoint::Endpoint;
use crate::error::{PamiError, PamiResult};
use crate::machine::{EndpointAddr, EndpointTable, Machine};
use crate::policy::{Protocol, StaticPolicy};
use crate::proto::{
    wire, RzvEntry, RzvSources, SendArgs, ShmMailbox, ShmMsg, DISPATCH_AGGR,
    DISPATCH_INTERNAL_BASE, DISPATCH_RZV_RTS, DISPATCH_TAGGED,
};

thread_local! {
    /// Whether the current thread is a commthread-pool worker. Set by
    /// [`crate::commthread::CommThreadPool`]; used to split handoff-latency
    /// telemetry between `ctx.handoff_ns` (any advancing thread) and
    /// `commthread.handoff_ns` (commthread workers only).
    static IS_COMMTHREAD: Cell<bool> = const { Cell::new(false) };
}

/// Mark (or unmark) the calling thread as a commthread-pool worker.
pub(crate) fn set_commthread_marker(on: bool) {
    IS_COMMTHREAD.with(|c| c.set(on));
}

#[inline]
fn on_commthread() -> bool {
    IS_COMMTHREAD.with(|c| c.get())
}

/// Refuse a one-sided access that would run past its region, at initiation:
/// executed, it would panic inside the copy (or, for a get, inside
/// whichever target thread serviced it).
fn within(region: &MemRegion, offset: usize, len: usize) -> PamiResult<()> {
    if region.contains(offset, len) {
        Ok(())
    } else {
        Err(PamiError::Invalid("one-sided access outside its window"))
    }
}

/// Refuse a region payload whose source range runs past its region, at
/// initiation, for the same reason as [`within`].
fn source_within(payload: &PayloadSource) -> PamiResult<()> {
    match payload {
        PayloadSource::Region { region, offset, len } if !region.contains(*offset, *len) => {
            Err(PamiError::Invalid("payload source outside its region"))
        }
        _ => Ok(()),
    }
}

/// Completion callback invoked on the advancing thread. The result is the
/// transfer's delivery outcome — `Ok(())` on success, `Err` when the
/// reliability layer failed the transfer (retry budget exhausted,
/// destination unreachable); the PAMI `pami_event_function` contract.
pub type CompletionFn = Box<dyn FnOnce(&Context, PamiResult<()>) + Send>;

/// Work item accepted by [`Context::post`].
pub type WorkFn = Box<dyn FnOnce(&Context) + Send>;

/// Header information handed to a dispatch handler.
#[derive(Debug, Clone)]
pub struct IncomingMsg {
    /// Originating endpoint.
    pub src: Endpoint,
    /// Dispatch id the sender targeted.
    pub dispatch: u16,
    /// Sender's dispatch metadata.
    pub metadata: Bytes,
    /// Total payload length of the message.
    pub len: u64,
}

/// A dispatch handler's decision about an incoming message.
pub enum Recv {
    /// The handler fully consumed the message from the bytes it was shown
    /// (only legal when those bytes were the whole payload).
    Done,
    /// Deposit the payload into `region` at `offset` and call `on_complete`
    /// once every byte has landed.
    Into {
        /// Destination buffer.
        region: MemRegion,
        /// Byte offset within the buffer.
        offset: usize,
        /// Completion callback (runs on the advancing thread).
        on_complete: CompletionFn,
    },
}

/// An active-message dispatch handler.
///
/// Called on the first packet of each message with the header info and the
/// payload bytes available so far (the whole payload for single-packet
/// messages; empty for rendezvous arrivals). Runs on the advancing thread;
/// it may send, post, and register state, but must not call `advance` or
/// block on communication.
pub type DispatchFn = Arc<dyn Fn(&Context, &IncomingMsg, &[u8]) -> Recv + Send + Sync>;

struct Reassembly {
    region: MemRegion,
    base_offset: usize,
    remaining: usize,
    on_complete: Option<CompletionFn>,
}

/// A rendezvous receive waiting on its reception counter.
struct RzvPending {
    done: Counter,
    on_complete: Option<CompletionFn>,
}

/// The result a rendezvous pull's completed counter reports. A failed
/// counter still reads complete — that is what keeps the step-5 poll (and
/// `advance`) from hanging when the reliability layer gives up on the
/// pull — and its fault becomes the callback's typed result.
fn pull_result(done: &Counter) -> Result<(), PamiError> {
    done.fault().map_or(Ok(()), |fault| Err(PamiError::from(fault)))
}

/// One-entry dispatch-handler memo: (dispatch generation, dispatch id,
/// handler). Lives in the advance state, so it is only ever touched by the
/// single advancing thread.
type HandlerMemo = (u64, u16, DispatchFn);

struct AdvanceState {
    /// Multi-packet eager messages being deposited, keyed by (source node,
    /// message id).
    reassembly: HashMap<(u32, u64), Reassembly>,
    /// Rendezvous receives waiting on their reception counters.
    rzv_pending: Vec<RzvPending>,
    /// Last handler looked up on the receive path. Flood traffic dispatches
    /// the same id back to back; the memo turns the per-message
    /// RwLock + hash + `Arc` clone into one atomic generation check.
    handler_memo: Option<HandlerMemo>,
    /// Reusable buffer for batched reception FIFO drains: packets are
    /// claimed in one queue transaction per advance, not one per packet.
    rec_scratch: Vec<MuPacket>,
}

/// Counter updates accumulated across one `advance` call and flushed once
/// at the end — batched "doorbell" updates instead of a shared-counter RMW
/// per packet.
#[derive(Default)]
struct BatchCounters {
    /// Messages dispatched to handlers (first packets, RTSs, shm messages).
    dispatched: u64,
    /// Receive-side payload copies deposited into destination buffers.
    copies: u64,
}

/// Per-advance budgets: how many items of each kind one `advance` call
/// processes before returning (keeps latency fair across devices).
const WORK_BUDGET: usize = 16;
const LINK_BUDGET: usize = 32;
const RECV_BUDGET: usize = 64;

/// Per-context `ctx.*` telemetry probes (plus the `commthread.handoff_ns`
/// histogram, which is *measured* here — at work execution — even though
/// commthreads are usually the ones draining the queue). Instances register
/// on the machine's [`Upc`]; snapshots sum across contexts. Every field is
/// a zero-sized no-op when the `telemetry` feature is off.
struct CtxProbes {
    /// `advance` calls (including fast-path returns).
    advance_calls: bgq_upc::Counter,
    /// `advance` calls that returned through the lock-free idle fast path.
    idle_fastpath_hits: bgq_upc::Counter,
    /// Events processed across all `advance` calls.
    advance_events: bgq_upc::Counter,
    /// Sends by protocol. The short tier and `send_immediate` share one
    /// probe — they are the same one-packet path.
    sends_short: bgq_upc::Counter,
    /// Sends appended into aggregation buckets (`pami::aggr`).
    sends_aggr: bgq_upc::Counter,
    sends_eager: bgq_upc::Counter,
    sends_rzv: bgq_upc::Counter,
    sends_shm: bgq_upc::Counter,
    puts: bgq_upc::Counter,
    gets: bgq_upc::Counter,
    rmws: bgq_upc::Counter,
    /// First packets (or shm messages / RTSs) dispatched to handlers.
    messages_dispatched: bgq_upc::Counter,
    /// Posted work items executed.
    work_items: bgq_upc::Counter,
    /// Nanoseconds from `Context::post` to the work item running, when the
    /// advancing thread is a commthread-pool worker (the paper's
    /// commthread-handoff cost).
    handoff_ns: Histogram,
    /// Same post→execution latency, measured for *every* advancing thread
    /// (application threads draining their own queue included).
    ctx_handoff_ns: Histogram,
}

impl CtxProbes {
    fn new(upc: &Upc) -> Self {
        CtxProbes {
            advance_calls: upc.counter("ctx.advance_calls"),
            idle_fastpath_hits: upc.counter("ctx.idle_fastpath_hits"),
            advance_events: upc.counter("ctx.advance_events"),
            sends_short: upc.counter("ctx.sends_short"),
            sends_aggr: upc.counter("ctx.sends_aggr"),
            sends_eager: upc.counter("ctx.sends_eager"),
            sends_rzv: upc.counter("ctx.sends_rzv"),
            sends_shm: upc.counter("ctx.sends_shm"),
            puts: upc.counter("ctx.puts"),
            gets: upc.counter("ctx.gets"),
            rmws: upc.counter("ctx.rmws"),
            messages_dispatched: upc.counter("ctx.messages_dispatched"),
            work_items: upc.counter("ctx.work_items"),
            handoff_ns: upc.histogram("commthread.handoff_ns"),
            ctx_handoff_ns: upc.histogram("ctx.handoff_ns"),
        }
    }
}

/// A PAMI communication context.
pub struct Context {
    machine: Arc<Machine>,
    /// The client's endpoint table, shared with every other context of the
    /// client: destinations resolve here, never through the machine.
    endpoints: Arc<EndpointTable>,
    task: u32,
    offset: u16,
    node: u32,
    rec_fifo_id: RecFifoId,
    rec_fifo: Arc<RecFifo>,
    /// The message-id lane every message from this context mints from,
    /// handed out with its reception FIFO and owned here alone.
    lane: MsgIdLane,
    mailbox: Arc<ShmMailbox>,
    /// Sources of this context's rendezvous sends, parked until the target
    /// takes them ([`RzvSources`]).
    pub(crate) rzv: Arc<RzvSources>,
    /// This context's tagged receives and early arrivals ([`TaggedRecvs`]).
    tagged: Mutex<TaggedRecvs>,
    wakeup: WakeupRegion,
    /// Posted work plus its post-time stamp for handoff-latency telemetry
    /// (the stamp is zero-sized with telemetry off).
    work: WorkQueue<(Stamp, WorkFn)>,
    dispatch: RwLock<HashMap<u16, DispatchFn>>,
    /// Bumped by [`Context::set_dispatch`]; invalidates the advance-side
    /// handler memo without the receive path ever taking the dispatch lock.
    dispatch_gen: AtomicU64,
    /// What only the advancing thread touches, behind the L2 ticket lock.
    /// `advance` only ever `try_lock`s it — a loser returns at once — so
    /// the ticket queue never forms and the lock cannot convoy.
    advance_state: L2TicketMutex<AdvanceState>,
    /// Number of in-flight internal obligations (reassembly entries plus
    /// pending rendezvous receives). Stored once per `advance`, from those
    /// two lengths, before the advance lock is released: the advancing
    /// thread is its only writer. Read lock-free by
    /// [`Context::is_quiescent`] and the empty fast path in
    /// [`Context::advance`].
    pending_internal: AtomicUsize,
    /// Persistent-channel pairing ordinals, per peer endpoint: the n-th
    /// channel this context opens to a peer pairs with the n-th channel the
    /// peer opens back (see [`crate::channel::PersistentChannel`]).
    chan_ordinals: Mutex<HashMap<Endpoint, u64>>,
    /// Small-message coalescing buckets (`pami::aggr`), present when the
    /// machine was built with [`crate::MachineBuilder::aggregation`].
    /// Appends run lock-free of the advance state; the age-bound flush
    /// runs inside `advance`.
    aggr: Option<Aggregator>,
    user_lock: L2TicketMutex,
    /// The machine's protocol ladder, copied so `send` selects inline.
    policy: StaticPolicy,
    /// `ctx.*` telemetry probes, registered on the machine's UPC registry.
    probes: CtxProbes,
}

impl Context {
    pub(crate) fn create(
        machine: &Arc<Machine>,
        endpoints: &Arc<EndpointTable>,
        task: u32,
        offset: u16,
    ) -> Arc<Context> {
        let node = machine.task_node(task);
        let wakeup = WakeupRegion::new();
        let (rec_fifo_id, lane) = machine
            .fabric()
            .alloc_rec_fifo(node)
            .unwrap_or_else(|| panic!("node {node} out of MU reception FIFOs"));
        let rec_fifo = machine.fabric().rec_fifo(node, rec_fifo_id);
        rec_fifo.set_wakeup(wakeup.clone());
        let mailbox = Arc::new(ShmMailbox::new(512, wakeup.clone()));
        let ctx = Arc::new(Context {
            machine: Arc::clone(machine),
            endpoints: Arc::clone(endpoints),
            task,
            offset,
            node,
            rec_fifo_id,
            rec_fifo,
            lane,
            mailbox,
            rzv: Arc::default(),
            tagged: Mutex::default(),
            wakeup,
            work: WorkQueue::with_capacity(256),
            dispatch: RwLock::new(HashMap::from([(DISPATCH_TAGGED, Arc::new(route_tagged) as _)])),
            dispatch_gen: AtomicU64::new(0),
            advance_state: L2TicketMutex::with(AdvanceState {
                reassembly: HashMap::new(),
                rzv_pending: Vec::new(),
                handler_memo: None,
                rec_scratch: Vec::with_capacity(RECV_BUDGET),
            }),
            pending_internal: AtomicUsize::new(0),
            chan_ordinals: Mutex::new(HashMap::new()),
            aggr: machine.aggregation().map(|cfg| Aggregator::new(*cfg, machine.telemetry())),
            user_lock: L2TicketMutex::new(),
            policy: *machine.policy(),
            probes: CtxProbes::new(machine.telemetry()),
        });
        ctx.publish_as(ctx.endpoint());
        ctx
    }

    // ---- identity --------------------------------------------------------

    /// The machine.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Owning task.
    pub fn task(&self) -> u32 {
        self.task
    }

    /// Context offset within its client.
    pub fn offset(&self) -> u16 {
        self.offset
    }

    /// The node this context lives on.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// This context's own endpoint.
    pub fn endpoint(&self) -> Endpoint {
        Endpoint { task: self.task, context: self.offset }
    }

    /// Publish this context's reception FIFO, mailbox and rendezvous
    /// sources as `ep`'s address in the client's endpoint table: its own
    /// endpoint at creation, or a virtual endpoint aliasing it
    /// ([`Machine::register_virtual_endpoint`]).
    pub(crate) fn publish_as(&self, ep: Endpoint) {
        let addr = EndpointAddr {
            rec_fifo: self.rec_fifo_id,
            mailbox: Arc::clone(&self.mailbox),
            rzv: Arc::clone(&self.rzv),
        };
        self.endpoints.set(ep, addr);
    }

    /// The wakeup region covering this context's queues (commthreads park
    /// on it; [`Context::post`] and message arrivals touch it).
    pub fn wakeup_region(&self) -> &WakeupRegion {
        &self.wakeup
    }

    /// The context lock exposed to higher software (classic-MPI style
    /// serialization). PAMI itself never takes it.
    pub fn lock(&self) -> bgq_hw::mutex::L2TicketGuard<'_> {
        self.user_lock.lock()
    }

    // ---- dispatch ---------------------------------------------------------

    /// Register the active-message handler for `dispatch`.
    ///
    /// # Panics
    /// If `dispatch` is in the internal range (≥ 0xFF00).
    pub fn set_dispatch(&self, dispatch: u16, handler: DispatchFn) {
        assert!(dispatch < DISPATCH_INTERNAL_BASE, "dispatch id {dispatch:#x} is reserved");
        self.dispatch.write().insert(dispatch, handler);
        // Invalidate any advance-side handler memo.
        self.dispatch_gen.fetch_add(1, Ordering::Release);
    }

    fn handler(&self, dispatch: u16) -> DispatchFn {
        self.dispatch
            .read()
            .get(&dispatch)
            .unwrap_or_else(|| panic!("no handler registered for dispatch {dispatch}"))
            .clone()
    }

    /// Resolve the handler for `dispatch` through the advance state's
    /// one-entry memo. On a hit (same id, same dispatch-table generation)
    /// this is one acquire load — no RwLock, no hash, no `Arc` clone. The
    /// returned reference borrows the memo slot, which only the advancing
    /// thread touches.
    #[inline]
    fn resolve_handler<'a>(&self, memo: &'a mut Option<HandlerMemo>, dispatch: u16) -> &'a DispatchFn {
        let generation = self.dispatch_gen.load(Ordering::Acquire);
        let hit = matches!(memo, Some((g, d, _)) if *g == generation && *d == dispatch);
        if !hit {
            *memo = Some((generation, dispatch, self.handler(dispatch)));
        }
        &memo.as_ref().expect("memo just filled").2
    }

    // ---- initiation --------------------------------------------------------

    /// Post a work function to be executed by whichever thread advances
    /// this context next (commthread handoff). Lock-free; wakes parked
    /// commthreads.
    pub fn post(&self, work: WorkFn) {
        self.work.push((Stamp::now(), work));
        self.wakeup.touch();
    }

    /// Latency-optimized short send: the payload is copied immediately into
    /// the message and moved now by the calling thread
    /// (`PAMI_Send_immediate`). Completes locally before returning. A thin
    /// wrapper over [`Context::send`]'s short arm, so it keeps
    /// per-destination order with every other tier: every tier moves its
    /// message inside the call, so call order is arrival order.
    ///
    /// # Errors
    /// [`PamiError::TooLong`] if `payload` exceeds one packet (512 bytes) —
    /// callers fall back to [`Context::send`]. [`PamiError::Invalid`] for a
    /// reserved dispatch id, [`PamiError::UnknownEndpoint`] when `dest` was
    /// never created.
    pub fn send_immediate(
        &self,
        dest: Endpoint,
        dispatch: u16,
        metadata: &[u8],
        payload: &[u8],
    ) -> PamiResult<()> {
        if payload.len() > bgq_torus::packet::MAX_PAYLOAD_BYTES {
            return Err(PamiError::TooLong {
                len: payload.len(),
                max: bgq_torus::packet::MAX_PAYLOAD_BYTES,
            });
        }
        if dispatch >= DISPATCH_INTERNAL_BASE {
            return Err(PamiError::Invalid("dispatch id in the reserved range"));
        }
        let dest_node = self.machine.task_node(dest.task);
        let addr = self.endpoints.get(dest)?;
        if dest_node == self.node {
            self.probes.sends_shm.incr();
            addr.mailbox.deliver(ShmMsg {
                src: self.endpoint(),
                dispatch,
                metadata: Bytes::copy_from_slice(metadata),
                payload: Bytes::copy_from_slice(payload),
            });
            return Ok(());
        }
        // An immediate must not overtake records already coalescing for
        // the same destination: cut that bucket first (no-op when empty).
        self.flush_aggr_conflict(dest, dest_node);
        // One-packet immediates ARE short-tier sends: the same inline
        // packet, the same arm, the same probe.
        self.probes.sends_short.incr();
        let metadata = Bytes::copy_from_slice(metadata);
        let hdr = self.fifo_header(dest_node, addr.rec_fifo, dispatch, metadata);
        let payload = PayloadSource::Immediate(Bytes::copy_from_slice(payload));
        self.send_short_arm(hdr, payload, None);
        Ok(())
    }

    /// Active-message send. Short messages go eager over the memory-FIFO
    /// path (or the shared-memory inline path on-node); messages above the
    /// eager limit park their source and send an RTS, and the target pulls
    /// the payload (a remote get off-node, one copy out of the source
    /// on-node). `local_done` fires once the payload has left the source
    /// buffer; under a fault plan it can instead *fail* with a
    /// [`bgq_hw::DeliveryFault`] when the reliability layer gives up on the
    /// destination.
    ///
    /// # Errors
    /// [`PamiError::Invalid`] for a reserved dispatch id or a region
    /// payload that runs past its region, [`PamiError::UnknownEndpoint`]
    /// when the destination was never created. Delivery failures are
    /// reported asynchronously through `local_done`, never from this call.
    #[inline]
    pub fn send(&self, args: SendArgs) -> PamiResult<()> {
        let SendArgs { dest, dispatch, metadata, payload, local_done } = args;
        self.send_with(dest, dispatch, &metadata, payload, local_done)
    }

    /// [`Context::send`] with the metadata borrowed: for a layer that
    /// builds a few header bytes on its stack per message (the MPI
    /// envelope) and would otherwise box them in a `Vec` only to hand them
    /// over — the bytes are copied into the message's own buffer either
    /// way (no buffer when there are none).
    ///
    /// # Errors
    /// As for [`Context::send`].
    #[inline]
    pub fn send_with(
        &self,
        dest: Endpoint,
        dispatch: u16,
        metadata: &[u8],
        payload: PayloadSource,
        local_done: Option<Counter>,
    ) -> PamiResult<()> {
        if dispatch >= DISPATCH_INTERNAL_BASE {
            return Err(PamiError::Invalid("dispatch id in the reserved range"));
        }
        self.send_any(dest, dispatch, metadata, payload, local_done)
    }

    /// The routing body of every two-sided send, a user's or a tagged
    /// one ([`Context::send_tagged`]): the mailbox on-node, the protocol
    /// ladder off-node.
    fn send_any(
        &self,
        dest: Endpoint,
        dispatch: u16,
        metadata: &[u8],
        payload: PayloadSource,
        local_done: Option<Counter>,
    ) -> PamiResult<()> {
        source_within(&payload)?;
        let dest_node = self.machine.task_node(dest.task);
        if dest_node == self.node {
            // On-node sends never coalesce: the mailbox is already one hop.
            return self.send_shm(dest, dispatch, metadata, payload, local_done);
        }
        let rec_fifo = self.endpoints.get(dest)?.rec_fifo;
        let len = payload.len();
        let mut proto = self.policy.select(dest.task, len);
        if proto == Protocol::Aggregated {
            // `MachineBuilder::build` refuses an aggregation rung on a
            // machine without the layer.
            let aggr = self.aggr.as_ref().expect("aggregation rung without an aggregator");
            if aggr.record_fits(metadata.len(), len) {
                // Append into the destination's coalescing bucket; any
                // frame the append cuts (fill) is injected here, under the
                // aggregator lock, so frames leave in cut order. The
                // payload is copied out now, so local completion is
                // immediate — same credit rule as the inline shm path.
                self.probes.sends_aggr.incr();
                let key = self.aggr_key(dest, dest_node);
                // Borrow the payload bytes in place: the append copies
                // them into the bucket, so the immediate path needs no
                // refcount round-trip and the region path materializes
                // exactly once.
                let region_copy;
                let payload: &[u8] = match &payload {
                    PayloadSource::Immediate(b) => b,
                    other => {
                        region_copy = other.to_bytes();
                        &region_copy
                    }
                };
                let opened =
                    aggr.append(key, dest, dispatch, metadata, payload, |f| self.send_aggr_frame(f));
                if let Some(c) = local_done {
                    c.delivered(if len == 0 { 1 } else { len as u64 });
                }
                if opened {
                    // First record of a fresh bucket: commthreads park on
                    // the wakeup region, and one of them (or the app's own
                    // advance) must run this bucket's age-bound flush.
                    // Later appends move no deadline and skip the wakeup.
                    self.wakeup.touch();
                }
                return Ok(());
            }
            // Record too big for a frame (oversize metadata): take the
            // direct short path — the aggregation rung, like the short
            // one, never exceeds a packet. The generic conflict flush
            // below keeps it behind the bucket.
            aggr.probes.oversize.incr();
            proto = Protocol::Short;
        }
        // Ordering: a non-aggregated send must not overtake records still
        // coalescing for the same destination — cut that bucket first.
        self.flush_aggr_conflict(dest, dest_node);
        match proto {
            Protocol::Short => {
                self.probes.sends_short.incr();
                let metadata = Bytes::copy_from_slice(metadata);
                let hdr = self.fifo_header(dest_node, rec_fifo, dispatch, metadata);
                self.send_short_arm(hdr, payload, local_done);
            }
            Protocol::Eager => {
                self.probes.sends_eager.incr();
                let metadata = Bytes::copy_from_slice(metadata);
                let hdr = self.fifo_header(dest_node, rec_fifo, dispatch, metadata);
                self.inject(Descriptor::fifo(hdr, payload, local_done));
            }
            Protocol::Rendezvous => {
                // Rendezvous: park the source, send an RTS; the target
                // pulls the payload with a remote get.
                self.probes.sends_rzv.incr();
                let key = self.rzv.park(RzvEntry { payload, local_done });
                let rts = wire::rts(dispatch, len as u64, key, metadata);
                let hdr = self.fifo_header(dest_node, rec_fifo, DISPATCH_RZV_RTS, rts);
                let empty = PayloadSource::Immediate(Bytes::new());
                self.inject(Descriptor::fifo(hdr, empty, None));
            }
            Protocol::Aggregated => unreachable!("aggregated sends return from the append arm"),
        }
        Ok(())
    }

    /// Node of the task a one-sided call targets, refusing a task the
    /// machine does not have: executed, its descriptor would panic inside
    /// the fabric.
    fn target_node(&self, task: u32) -> PamiResult<u32> {
        if (task as usize) < self.machine.num_tasks() {
            Ok(self.machine.task_node(task))
        } else {
            Err(PamiError::UnknownEndpoint { task, context: 0 })
        }
    }

    /// One-sided put into a registered window on another task's node — an
    /// RDMA write. `args.local_done` fires when the source bytes have been
    /// read; the window's own counter fires on the target as bytes land.
    ///
    /// # Errors
    /// [`PamiError::UnknownEndpoint`] when `args.dest_task` is not a task
    /// of the machine; [`PamiError::UnknownWindow`] when `args.window` does
    /// not resolve;
    /// [`PamiError::Invalid`] when the payload would run past its end, or
    /// past the end of its own source region.
    pub fn put(&self, args: crate::proto::PutArgs) -> PamiResult<()> {
        let crate::proto::PutArgs { dest_task, window, payload, local_done } = args;
        let dst_node = self.target_node(dest_task)?;
        let win =
            self.machine.window(window.key).ok_or(PamiError::UnknownWindow(window.key.0))?;
        within(&win.region, window.offset, payload.len())?;
        source_within(&payload)?;
        self.probes.puts.incr();
        let desc = Descriptor {
            dst_node,
            src_context: self.offset,
            payload,
            kind: XferKind::DirectPut {
                dst_region: win.region.clone(),
                dst_offset: window.offset,
                rec_counter: win.counter.clone(),
            },
            inj_counter: local_done,
        };
        self.inject(desc);
        Ok(())
    }

    /// One-sided get from a registered window on another task's node into
    /// a local slot — an RDMA read. `args.done` fires (by `len`, or 1 for
    /// empty) when the data has landed locally.
    ///
    /// # Errors
    /// [`PamiError::UnknownEndpoint`] when `args.dest_task` is not a task
    /// of the machine; [`PamiError::UnknownWindow`] when `args.window` does
    /// not resolve;
    /// [`PamiError::Invalid`] when `len` bytes would run past the end of
    /// the window or of `args.dst`.
    pub fn get(&self, args: crate::proto::GetArgs) -> PamiResult<()> {
        let crate::proto::GetArgs { dest_task, window, dst, len, done } = args;
        let dst_node = self.target_node(dest_task)?;
        let win =
            self.machine.window(window.key).ok_or(PamiError::UnknownWindow(window.key.0))?;
        within(&win.region, window.offset, len)?;
        within(&dst.region, dst.offset, len)?;
        self.probes.gets.incr();
        let put_back = Descriptor {
            dst_node: self.node,
            src_context: self.offset,
            payload: PayloadSource::Region { region: win.region.clone(), offset: window.offset, len },
            kind: XferKind::DirectPut {
                dst_region: dst.region,
                dst_offset: dst.offset,
                rec_counter: done,
            },
            inj_counter: None,
        };
        let desc = Descriptor {
            dst_node,
            src_context: self.offset,
            payload: PayloadSource::Immediate(Bytes::new()),
            kind: XferKind::RemoteGet { payload: Box::new(put_back) },
            inj_counter: None,
        };
        self.inject(desc);
        Ok(())
    }

    /// Remote atomic read-modify-write (fetch-add / compare-swap / min /
    /// max) against an 8-byte little-endian word in a registered window on
    /// another task's node. The operation applies atomically at the
    /// target; the prior value is written to `args.result` (when given)
    /// and `args.done` fires by [`Descriptor::ZERO_LEN_CREDIT`] once both
    /// are in place. The word is atomic as memory: two windows over one
    /// region name the same words.
    ///
    /// # Errors
    /// [`PamiError::UnknownEndpoint`] when `args.dest_task` is not a task
    /// of the machine; [`PamiError::UnknownWindow`] when `args.window` does
    /// not resolve;
    /// [`PamiError::Invalid`] when the 8-byte word would run past the end
    /// of the window or of `args.result`.
    pub fn rmw(&self, args: crate::proto::RmwArgs) -> PamiResult<()> {
        let crate::proto::RmwArgs { dest_task, window, op, operand, compare, result, done } =
            args;
        let dst_node = self.target_node(dest_task)?;
        let win =
            self.machine.window(window.key).ok_or(PamiError::UnknownWindow(window.key.0))?;
        within(&win.region, window.offset, 8)?;
        if let Some(slot) = &result {
            within(&slot.region, slot.offset, 8)?;
        }
        self.probes.rmws.incr();
        let desc = Descriptor {
            dst_node,
            src_context: self.offset,
            payload: PayloadSource::Immediate(Bytes::new()),
            kind: XferKind::Rmw(bgq_mu::RmwRequest {
                dst_region: win.region.clone(),
                dst_offset: window.offset,
                op,
                operand,
                compare,
                reply: result.map(|s| bgq_mu::RmwReply { region: s.region, offset: s.offset }),
            }),
            inj_counter: done,
        };
        self.inject(desc);
        Ok(())
    }

    // ---- aggregation ------------------------------------------------------

    /// Cut every open coalescing bucket now and inject the frames
    /// (`pami::aggr`'s explicit flush), in destination order. Returns the
    /// number of frames injected; 0 when aggregation is off or idle.
    pub fn flush_aggr(&self) -> usize {
        match &self.aggr {
            Some(aggr) => aggr.flush_all(|f| self.send_aggr_frame(f)),
            None => 0,
        }
    }

    /// Buffered (appended, not yet injected) aggregated records.
    pub fn aggr_pending(&self) -> usize {
        self.aggr.as_ref().map_or(0, |a| a.pending())
    }

    /// The bucket key a send to `dest` coalesces under: the endpoint
    /// itself, or — in node-bucket (TRAM intermediate) mode — the lead
    /// endpoint of the destination node, so every task on that node shares
    /// one bucket.
    fn aggr_key(&self, dest: Endpoint, dest_node: u32) -> Endpoint {
        match &self.aggr {
            Some(a) if a.config().node_buckets => {
                Endpoint { task: self.machine.node_tasks(dest_node).start, context: 0 }
            }
            _ => dest,
        }
    }

    /// Conflict flush: cut `dest`'s bucket (if open) so a non-aggregated
    /// message cannot overtake records buffered before it. One lock-free
    /// load when nothing is buffered anywhere.
    #[inline]
    fn flush_aggr_conflict(&self, dest: Endpoint, dest_node: u32) {
        if let Some(aggr) = &self.aggr {
            if aggr.pending() > 0 {
                let key = self.aggr_key(dest, dest_node);
                aggr.flush_conflict(key, |f| self.send_aggr_frame(f));
            }
        }
    }

    /// Inject one cut frame: a single short-tier packet under the internal
    /// [`DISPATCH_AGGR`] id, through the same short arm — the same lane
    /// and, under a fault plan, the same selective-repeat channel — direct
    /// sends to that destination use, which is what keeps per-(src,dst)
    /// order and exactly-once for every record inside.
    /// Buckets are only opened for off-node destinations, so a frame never
    /// takes the mailbox; an unknown destination drops the frame.
    fn send_aggr_frame(&self, frame: Frame) {
        let addressed =
            self.aggr.as_ref().expect("frame emitted without an aggregator").config().node_buckets;
        let dest = frame.dest;
        let dest_node = self.machine.task_node(dest.task);
        let Ok(addr) = self.endpoints.get(dest) else { return };
        let metadata = Bytes::copy_from_slice(&crate::aggr::frame_header(frame.count, addressed));
        let hdr = self.fifo_header(dest_node, addr.rec_fifo, DISPATCH_AGGR, metadata);
        self.send_short_arm(hdr, PayloadSource::Immediate(frame.payload), None);
    }

    /// Unbatch one aggregated frame: walk its records and dispatch each
    /// through the handler memo exactly as if it had arrived as its own
    /// short message. Addressed (node-bucket) records whose endpoint is
    /// not this context forward over the node's shared-memory mailboxes.
    /// Returns the number of records dispatched inline.
    fn unbatch_aggr_frame(
        &self,
        memo: &mut Option<HandlerMemo>,
        src: Endpoint,
        hdr: &[u8],
        payload: Bytes,
    ) -> u64 {
        let (count, addressed) = crate::aggr::open_frame_header(hdr);
        let mut inline = 0u64;
        let mut forwarded = 0u64;
        // Borrowed record walk: handlers dispatch straight from the frame
        // buffer with zero refcount traffic; only forwarded records (and
        // non-empty metadata) pay a zero-copy `Bytes::slice`.
        bgq_mu::batch::walk_records(&payload, count, addressed, |rec| {
            match rec.dest {
                Some((task, context))
                    if !(task == self.task && context == self.offset) =>
                {
                    // A sibling endpoint's record: one mailbox hop.
                    let dest = Endpoint { task, context };
                    if let Ok(addr) = self.endpoints.get(dest) {
                        let meta_end = rec.meta_at + rec.metadata.len();
                        addr.mailbox.deliver(ShmMsg {
                            src,
                            dispatch: rec.dispatch,
                            metadata: payload.slice(rec.meta_at..meta_end),
                            payload: payload.slice(meta_end..meta_end + rec.payload.len()),
                        });
                        forwarded += 1;
                    }
                }
                _ => {
                    let msg = IncomingMsg {
                        src,
                        dispatch: rec.dispatch,
                        metadata: if rec.metadata.is_empty() {
                            Bytes::new()
                        } else {
                            payload.slice(rec.meta_at..rec.meta_at + rec.metadata.len())
                        },
                        len: rec.payload.len() as u64,
                    };
                    let handler = self.resolve_handler(memo, rec.dispatch);
                    match handler(self, &msg, rec.payload) {
                        Recv::Done => {}
                        Recv::Into { region, offset, on_complete } => {
                            region.write(offset, rec.payload);
                            on_complete(self, Ok(()));
                        }
                    }
                    inline += 1;
                }
            }
        });
        if let Some(aggr) = &self.aggr {
            aggr.probes.unbatched.add(inline + forwarded);
            if forwarded > 0 {
                aggr.probes.forwarded.add(forwarded);
            }
        }
        inline
    }

    /// The header of a memory-FIFO message from this context.
    fn fifo_header(
        &self,
        dst_node: u32,
        rec_fifo: RecFifoId,
        dispatch: u16,
        metadata: Bytes,
    ) -> FifoHeader {
        let (src_context, src_task) = (self.offset, self.task);
        FifoHeader { dst_node, rec_fifo, src_context, src_task, dispatch, metadata }
    }

    /// The short arm — shared by [`Context::send`], [`Context::send_immediate`]
    /// and aggregated-frame emit: one inline packet on this context's lane —
    /// no descriptor, no completion-counter allocation, one fragment
    /// straight down the fabric's pipeline.
    fn send_short_arm(&self, hdr: FifoHeader, payload: PayloadSource, local_done: Option<Counter>) {
        let payload = payload.into_bytes();
        self.machine.fabric().send_short(self.node, &self.lane, hdr, payload, local_done);
    }

    /// The injection door: `desc` moves now, on the calling thread, with
    /// its id from this context's lane ([`bgq_mu::MuFabric::inject`]).
    pub(crate) fn inject(&self, desc: Descriptor) {
        self.machine.fabric().inject(self.node, &self.lane, desc);
    }

    /// The on-node send: an inline copy through `dest`'s mailbox, or —
    /// for a rendezvous-class payload — the source parked here and an RTS
    /// through the mailbox, which the target answers with one copy out of
    /// the source ([`Context::handle_rts`]).
    fn send_shm(
        &self,
        dest: Endpoint,
        dispatch: u16,
        metadata: &[u8],
        payload: PayloadSource,
        local_done: Option<Counter>,
    ) -> PamiResult<()> {
        let addr = self.endpoints.get(dest)?;
        self.probes.sends_shm.incr();
        let len = payload.len();
        // On-node, short, eager and would-be-aggregated are the same
        // inline mailbox path.
        let msg = if self.policy.select(dest.task, len) == Protocol::Rendezvous {
            let key = self.rzv.park(RzvEntry { payload, local_done });
            ShmMsg {
                src: self.endpoint(),
                dispatch: DISPATCH_RZV_RTS,
                metadata: wire::rts(dispatch, len as u64, key, metadata),
                payload: Bytes::new(),
            }
        } else {
            let payload = payload.to_bytes();
            if let Some(c) = local_done {
                c.delivered(if len == 0 { 1 } else { len as u64 });
            }
            let metadata = Bytes::copy_from_slice(metadata);
            ShmMsg { src: self.endpoint(), dispatch, metadata, payload }
        };
        addr.mailbox.deliver(msg);
        Ok(())
    }

    // ---- progress ---------------------------------------------------------

    /// Advance this context: run posted work, flush aged aggregation
    /// buckets, pump the node's link channels, dispatch received MU packets
    /// and shared-memory messages, and fire completed rendezvous callbacks.
    /// There is no injection to pump: every descriptor moved inside the
    /// call that injected it. Returns the number of events processed.
    /// Concurrent calls are safe: the advance state sits behind an L2
    /// ticket lock that `advance` only `try_lock`s (one compare-and-swap
    /// to take, one store to release), so the loser makes no progress and
    /// returns 0. The count of open reassemblies and rendezvous pulls the
    /// idle fast path reads is stored once, at the end of the winner's
    /// pass.
    pub fn advance(&self) -> usize {
        // Empty fast path: when every queue this context drains is
        // observably empty, return without taking the advance lock at all —
        // the polling-loop cost the paper's latency numbers depend on.
        self.probes.advance_calls.incr();
        if self.observably_idle() {
            self.probes.idle_fastpath_hits.incr();
            return 0;
        }
        let Some(mut st) = self.advance_state.try_lock() else {
            return 0;
        };
        let events = self.advance_locked(&mut st);
        self.probes.advance_events.add(events as u64);
        events
    }

    /// Lock-free probe of every queue `advance` would drain. `true` means a
    /// full `advance` would process zero events right now.
    #[inline]
    fn observably_idle(&self) -> bool {
        self.work.is_empty()
            && self.rec_fifo.is_empty()
            && self.mailbox.queue.is_empty()
            && self.pending_internal.load(Ordering::Acquire) == 0
            // Buffered-but-young aggregation buckets do NOT defeat the
            // fast path: nothing to do until the age deadline lapses, and
            // treating every pending record as work would put the whole
            // advance walk on the per-send cost of an aggregated flood.
            && self.aggr.as_ref().is_none_or(|a| !a.due_now())
            && self.machine.fabric().links_idle(self.node)
    }

    /// Keep advancing (yielding the CPU in between) until `cond` is true.
    pub fn advance_until(&self, mut cond: impl FnMut() -> bool) {
        while !cond() {
            if self.advance() == 0 {
                std::thread::yield_now();
            }
        }
    }

    /// Whether the context has nothing left to do: every queue `advance`
    /// drains is empty *and* no aggregation record is buffered, however
    /// young (the idle fast path lets those sit until their deadline; a
    /// quiescent context has none). Non-blocking — lock-free probes only,
    /// so any thread may ask while another holds the advance lock. Tests
    /// use it to assert a context was left untouched or fully drained.
    pub fn is_quiescent(&self) -> bool {
        self.observably_idle() && self.aggr.as_ref().is_none_or(|a| a.pending() == 0)
    }

    fn advance_locked(&self, st: &mut AdvanceState) -> usize {
        let mut events = 0usize;
        let mut bc = BatchCounters::default();

        // 1. Posted work (commthread handoff path). The handoff latency —
        //    post() to here — is the cost the paper's commthread design
        //    tries to hide; record it before running the item.
        let mut work_done = 0u64;
        for _ in 0..WORK_BUDGET {
            match self.work.pop() {
                Some((posted, work)) => {
                    self.probes.ctx_handoff_ns.record_since(posted);
                    if on_commthread() {
                        self.probes.handoff_ns.record_since(posted);
                    }
                    work(self);
                    work_done += 1;
                    events += 1;
                }
                None => break,
            }
        }
        if work_done > 0 {
            self.probes.work_items.add(work_done);
        }

        // 1b. Aggregation age bound: when the earliest open bucket's µs
        //     budget has lapsed (one lock-free probe + one clock read),
        //     cut due buckets; each frame moves as it is injected.
        if let Some(aggr) = &self.aggr {
            if aggr.due_now() {
                events += aggr.flush_due(|f| self.send_aggr_frame(f));
            }
        }

        // 2. Under a fault plan, pump the node's link channels (retransmit
        //    timers), one context at a time. Gated on observable work so
        //    the common (no faults) case costs one lock-free probe, not a
        //    try_lock RMW on a mutex cacheline shared by every context on
        //    the node.
        if !self.machine.fabric().links_idle(self.node) {
            if let Some(_guard) = self.machine.link_pump[self.node as usize].try_lock() {
                events += self.machine.fabric().pump_links(self.node, LINK_BUDGET);
            }
        }

        // 3. MU reception, drained in one queue transaction: the batch
        //    claim publishes the consumer cursor (and re-opens producer
        //    ring space) once per advance instead of once per packet, so
        //    a flood ping-pongs the producer-shared cachelines per batch.
        //    The scratch buffer is moved out of `st` while packets are
        //    handled (handlers borrow `st` mutably) and moved back after.
        let mut batch = std::mem::take(&mut st.rec_scratch);
        let received = self.rec_fifo.poll_batch(RECV_BUDGET, &mut batch);
        for pkt in batch.drain(..) {
            self.handle_mu_packet(st, &mut bc, pkt);
        }
        events += received;
        st.rec_scratch = batch;

        // 4. Shared-memory mailbox.
        for _ in 0..RECV_BUDGET {
            match self.mailbox.queue.pop() {
                Some(msg) => {
                    self.handle_shm(st, msg);
                    bc.dispatched += 1;
                    events += 1;
                }
                None => break,
            }
        }

        // 5. Rendezvous receive completions (poll the counters).
        if !st.rzv_pending.is_empty() {
            let mut i = 0;
            while i < st.rzv_pending.len() {
                if st.rzv_pending[i].done.is_complete() {
                    let pending = st.rzv_pending.swap_remove(i);
                    if let Some(cb) = pending.on_complete {
                        cb(self, pull_result(&pending.done));
                    }
                    events += 1;
                } else {
                    i += 1;
                }
            }
        }

        // Flush the advance-batched counters: one striped add per probe per
        // advance call instead of a shared-counter RMW per packet.
        if bc.dispatched > 0 {
            self.probes.messages_dispatched.add(bc.dispatched);
        }
        if bc.copies > 0 {
            self.machine.fabric().note_payload_copies(self.node, bc.copies);
        }
        // The one write of the obligation count this advance makes, while
        // the lock still excludes every other writer.
        self.pending_internal
            .store(st.reassembly.len() + st.rzv_pending.len(), Ordering::Release);

        events
    }

    fn handle_mu_packet(&self, st: &mut AdvanceState, bc: &mut BatchCounters, mut pkt: MuPacket) {
        if pkt.is_first() {
            let src = Endpoint { task: pkt.src_task, context: pkt.src_context };
            if pkt.dispatch == DISPATCH_RZV_RTS {
                self.handle_rts(st, src, &pkt.metadata);
                bc.dispatched += 1;
                return;
            }
            if pkt.dispatch == DISPATCH_AGGR {
                // A frame is always one packet (`MachineBuilder::aggregation`
                // enforces it): unbatch and dispatch every record straight
                // from the packet buffer, which is moved, not shared.
                debug_assert!(pkt.is_last(), "aggregated frames are single packets");
                let bgq_mu::PacketPayload::Inline(payload) = pkt.payload else {
                    panic!("aggregated frames are always inline");
                };
                bc.dispatched +=
                    self.unbatch_aggr_frame(&mut st.handler_memo, src, &pkt.metadata, payload);
                return;
            }
            // The packet is owned: its metadata moves into the message
            // (empty metadata is the static empty buffer — no refcount).
            let msg = IncomingMsg {
                src,
                dispatch: pkt.dispatch,
                metadata: std::mem::take(&mut pkt.metadata),
                len: pkt.msg_len as u64,
            };
            bc.dispatched += 1;
            // Split the advance state into disjoint fields: the handler is
            // borrowed from the memo while the reassembly map stays
            // mutable for the Into arm.
            let AdvanceState { handler_memo, reassembly, .. } = st;
            let handler = self.resolve_handler(handler_memo, pkt.dispatch);
            // The handler sees the bytes staged in the packet buffer —
            // everything for an inline payload, nothing for a zero-copy
            // window (the data is still in source memory and must be
            // deposited).
            match handler(self, &msg, pkt.payload.view()) {
                Recv::Done => {
                    assert!(
                        pkt.is_last() && pkt.payload.view().len() == pkt.payload.len(),
                        "Recv::Done on a partial payload ({} of {} bytes)",
                        pkt.payload.view().len(),
                        pkt.msg_len
                    );
                }
                Recv::Into { region, offset, on_complete } => {
                    // The receive-side copy: packet buffer (or source
                    // window) straight into the destination buffer.
                    let pkt_len = pkt.payload.len();
                    pkt.payload.deposit(&region, offset);
                    bc.copies += 1;
                    if pkt.is_last() {
                        on_complete(self, Ok(()));
                    } else {
                        reassembly.insert(
                            (pkt.src_node, pkt.msg_id),
                            Reassembly {
                                region,
                                base_offset: offset,
                                remaining: pkt.msg_len as usize - pkt_len,
                                on_complete: Some(on_complete),
                            },
                        );
                    }
                }
            }
        } else {
            let key = (pkt.src_node, pkt.msg_id);
            let entry = st
                .reassembly
                .get_mut(&key)
                .expect("continuation packet without a first packet (ordering violated)");
            let pkt_len = pkt.payload.len();
            let dst_offset = entry.base_offset + pkt.offset as usize;
            pkt.payload.deposit(&entry.region, dst_offset);
            bc.copies += 1;
            entry.remaining -= pkt_len;
            if entry.remaining == 0 {
                let mut entry = st.reassembly.remove(&key).expect("entry present");
                if let Some(cb) = entry.on_complete.take() {
                    cb(self, Ok(()));
                }
            }
        }
    }

    /// An RTS from `src`, off-node or on-node: take the source it names out
    /// of the sending context's table and pull it into the buffer the
    /// handler names — with a remote get off-node, with one copy straight
    /// out of the source on-node (CNK's aliasing of a peer's memory).
    fn handle_rts(&self, st: &mut AdvanceState, src: Endpoint, body: &Bytes) {
        let (dispatch, len, key, metadata) = wire::open_rts(body);
        let msg = IncomingMsg { src, dispatch, metadata, len };
        let AdvanceState { handler_memo, rzv_pending, .. } = st;
        let handler = self.resolve_handler(handler_memo, dispatch);
        let Recv::Into { region, offset, on_complete } = handler(self, &msg, &[]) else {
            panic!("rendezvous arrival of {len} bytes cannot be Recv::Done");
        };
        let source = self.endpoints.get(src).expect("an RTS from an unknown endpoint");
        let entry = source.rzv.take(key);
        let src_node = self.machine.task_node(src.task);
        if src_node == self.node {
            match entry.payload {
                PayloadSource::Immediate(bytes) => region.write(offset, &bytes),
                PayloadSource::Region { region: from, offset: at, len: bytes } => {
                    region.copy_from(offset, &from, at, bytes);
                }
            }
            if let Some(c) = entry.local_done {
                c.delivered(len.max(1));
            }
            on_complete(self, Ok(()));
            return;
        }
        let done = Counter::new();
        done.add_expected(len.max(1));
        let put_back = Descriptor {
            dst_node: self.node,
            src_context: self.offset,
            payload: entry.payload,
            kind: XferKind::DirectPut {
                dst_region: region,
                dst_offset: offset,
                rec_counter: Some(done.clone()),
            },
            inj_counter: entry.local_done,
        };
        let get = Descriptor {
            dst_node: src_node,
            src_context: self.offset,
            payload: PayloadSource::Immediate(Bytes::new()),
            kind: XferKind::RemoteGet { payload: Box::new(put_back) },
            inj_counter: None,
        };
        self.inject(get);
        // On a lossless fabric the put-back has landed inside that call;
        // only a reliable channel still holding the pull leaves it open.
        if done.is_complete() {
            on_complete(self, pull_result(&done));
            return;
        }
        rzv_pending.push(RzvPending { done, on_complete: Some(on_complete) });
    }

    /// One mailbox message. Internal dispatch ids carry their body in the
    /// metadata, as MU packets do; the source endpoint rides beside it in
    /// `src`, as it does in an MU packet's header.
    fn handle_shm(&self, st: &mut AdvanceState, msg: ShmMsg) {
        match msg.dispatch {
            DISPATCH_RZV_RTS => self.handle_rts(st, msg.src, &msg.metadata),
            dispatch => {
                let info = IncomingMsg {
                    src: msg.src,
                    dispatch,
                    metadata: msg.metadata,
                    len: msg.payload.len() as u64,
                };
                let handler = self.resolve_handler(&mut st.handler_memo, dispatch);
                match handler(self, &info, &msg.payload) {
                    Recv::Done => {}
                    Recv::Into { region, offset, on_complete } => {
                        region.write(offset, &msg.payload);
                        on_complete(self, Ok(()));
                    }
                }
            }
        }
    }

    // ---- tagged messages ---------------------------------------------------

    /// Send `payload` to `dest` as the message `tag` of `space`. `dest`
    /// receives it with a [`Context::post_tagged`] of the same space and
    /// tag that names this context's endpoint, posted before or after it
    /// arrives. `local_done` credits as for [`Context::send`].
    pub(crate) fn send_tagged(
        &self,
        dest: Endpoint,
        space: u32,
        tag: u64,
        payload: PayloadSource,
        local_done: Option<Counter>,
    ) -> PamiResult<()> {
        let metadata = wire::tagged(space, tag);
        self.send_any(dest, DISPATCH_TAGGED, &metadata, payload, local_done)
    }

    /// Post the receive of the `len`-byte message `tag` of `space` from
    /// `src` into (`region`, `offset`), arming `done` with the
    /// `len.max(1)` its landing credits. A message that arrived first is
    /// copied off this context's early list now.
    ///
    /// # Panics
    /// When the key is already posted; on the advancing thread, when the
    /// message is not `len` bytes or its delivery failed.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn post_tagged(
        &self,
        space: u32,
        tag: u64,
        src: Endpoint,
        region: &MemRegion,
        offset: usize,
        len: usize,
        done: &Counter,
    ) {
        done.add_expected(len.max(1) as u64);
        let key = (space, tag, src);
        let post = Posted { region: region.clone(), offset, len, done: done.clone() };
        let mut table = self.tagged.lock();
        match table.early.remove(&key) {
            Some(early) => post.land(&early),
            None => assert!(table.posted.insert(key, post).is_none(), "a receive posted twice"),
        }
    }

    /// (posted receives, early arrivals) in this context's table.
    #[cfg(test)]
    pub(crate) fn tagged_table(&self) -> (usize, usize) {
        let table = self.tagged.lock();
        (table.posted.len(), table.early.len())
    }

    // ---- persistent channels ----------------------------------------------

    /// Open a persistent channel to `dest`: pre-negotiate a pinned buffer
    /// pair once, then move fixed-size messages with
    /// [`crate::channel::PersistentChannel::post`] /
    /// [`crate::channel::PersistentChannel::wait`] — prebuilt-descriptor
    /// injections with zero matching and zero per-message protocol
    /// decisions. The peer must open a matching channel back (channels
    /// pair in per-peer creation order); this call sends the local buffer
    /// offer and returns immediately — the handshake completes lazily on
    /// first use.
    pub fn channel(
        self: &Arc<Self>,
        dest: Endpoint,
        size: usize,
    ) -> PamiResult<crate::channel::PersistentChannel> {
        crate::channel::PersistentChannel::create(self, dest, size)
    }

    /// Next pairing ordinal for channels to `dest` (the n-th channel this
    /// context opens to a peer pairs with the n-th the peer opens back).
    pub(crate) fn next_chan_ordinal(&self, dest: Endpoint) -> u64 {
        let mut m = self.chan_ordinals.lock();
        let slot = m.entry(dest).or_insert(0);
        let ordinal = *slot;
        *slot += 1;
        ordinal
    }

    // ---- statistics --------------------------------------------------------

    /// Messages dispatched (first packets seen) by this context
    /// (telemetry aggregate; 0 with the `telemetry` feature off).
    pub fn messages_dispatched(&self) -> u64 {
        self.probes.messages_dispatched.value()
    }

    /// Posted work items executed (telemetry aggregate; 0 with the
    /// `telemetry` feature off).
    pub fn work_items_run(&self) -> u64 {
        self.probes.work_items.value()
    }

    /// The reception FIFO id (diagnostics).
    pub fn rec_fifo_id(&self) -> RecFifoId {
        self.rec_fifo_id
    }

    /// This context's shared-memory mailbox (exposed for tests).
    pub fn mailbox(&self) -> &Arc<ShmMailbox> {
        &self.mailbox
    }
}

/// A posted receive: where its message's bytes go, and what they credit.
struct Posted {
    region: MemRegion,
    offset: usize,
    len: usize,
    done: Counter,
}

impl Posted {
    /// Take the message's bytes from `early`, the region it arrived in.
    fn land(self, early: &MemRegion) {
        assert_eq!(early.len(), self.len, "tagged message of the wrong length");
        self.region.copy_from(self.offset, early, 0, self.len);
        self.done.delivered(self.len.max(1) as u64);
    }
}

/// A tagged message's key: (space, tag, source endpoint).
type TagKey = (u32, u64, Endpoint);

/// One context's tagged receives: what it posted, and what arrived first
/// (MPI's unexpected queue). Only the owning context touches it — its
/// router on the advancing thread and its own [`Context::post_tagged`]s —
/// so no tagged message takes a lock wider than its receiving context.
#[derive(Default)]
struct TaggedRecvs {
    posted: HashMap<TagKey, Posted>,
    early: HashMap<TagKey, MemRegion>,
}

/// The tagged-message router, in every context's dispatch table under
/// [`DISPATCH_TAGGED`]. A message that finds its post is copied from the
/// packet or deposited (a rendezvous: pulled) straight into the posted
/// region. One that finds none is deposited into a region of its own,
/// which a post made meanwhile takes when it completes, and the early
/// list holds otherwise.
fn route_tagged(ctx: &Context, msg: &IncomingMsg, first: &[u8]) -> Recv {
    let (space, tag) = wire::open_tagged(&msg.metadata);
    let key = (space, tag, msg.src);
    let len = msg.len as usize;
    let posted = ctx.tagged.lock().posted.remove(&key);
    if let Some(Posted { region, offset, len: want, done }) = posted {
        assert_eq!(len, want, "tagged message of the wrong length");
        if first.len() == len {
            region.write(offset, first);
            done.delivered(len.max(1) as u64);
            return Recv::Done;
        }
        let on_complete = Box::new(move |_: &Context, result: PamiResult<()>| {
            result.expect("tagged message failed delivery");
            done.delivered(len.max(1) as u64);
        });
        return Recv::Into { region, offset, on_complete };
    }
    let early = MemRegion::zeroed(len);
    let region = early.clone();
    let on_complete = Box::new(move |ctx: &Context, result: PamiResult<()>| {
        result.expect("tagged message failed delivery");
        let mut table = ctx.tagged.lock();
        match table.posted.remove(&key) {
            Some(post) => post.land(&early),
            None => assert!(table.early.insert(key, early).is_none(), "a message arrived twice"),
        }
    });
    Recv::Into { region, offset: 0, on_complete }
}
