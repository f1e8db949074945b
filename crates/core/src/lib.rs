//! PAMI — the Parallel Active Messaging Interface (IPDPS 2012 reproduction).
//!
//! PAMI is the messaging runtime that underlies MPI on Blue Gene/Q and can
//! host other programming models (UPC, ARMCI, Charm++) at the same time.
//! Its design answers one question: *how do you let millions of threads
//! drive a network without serializing on locks?* The answers this crate
//! reproduces:
//!
//! * **Clients** ([`client::Client`]) — independent network instances; one
//!   per programming-model runtime, each with its own contexts, FIFOs and
//!   dispatch space, so several runtimes coexist in one process.
//! * **Contexts** ([`context::Context`]) — units of thread parallelism.
//!   Each context owns an exclusive partition of the node's MU injection
//!   and reception FIFOs plus a shared-memory mailbox, so advancing a
//!   context never takes a lock. Threads either pin themselves to distinct
//!   contexts, bracket shared use with the context lock, or hand work off
//!   through the lock-free [`bgq_hw::WorkQueue`] via [`context::Context::post`].
//! * **Endpoints** ([`endpoint::Endpoint`]) — (task, context) addresses,
//!   the finer-than-a-process addressing MPI-3 endpoints proposals wanted.
//! * **Protocols** — `send_immediate` for latency, eager memory-FIFO sends
//!   for short messages, rendezvous remote-get for bandwidth, one-sided
//!   put/get over registered windows (paper section III.E), and TRAM-style
//!   small-message aggregation ([`aggr`]) for fine-grained message rate.
//! * **Communication threads** ([`commthread::CommThreadPool`]) — helper
//!   threads that park on the wakeup unit and advance contexts in the
//!   background, giving communication/computation overlap and the message
//!   rate speedups of Figure 5.
//! * **Geometries and collectives** ([`geometry::Geometry`], [`coll`]) —
//!   task groups with hardware-accelerated barrier/broadcast/allreduce via
//!   classroutes and the shared-address intra-node scheme (Figures 3–4),
//!   plus software binomial fallbacks for non-rectangular groups.
//!
//! Everything runs over the simulated BG/Q substrates (`bgq-hw`, `bgq-mu`,
//! `bgq-collnet`, `bgq-torus`); the [`machine::Machine`] bundles them into
//! one partition that application threads (one per task) attach to.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use pami::{Client, Endpoint, Machine, Recv};
//!
//! // A 2-node partition; tasks are threads.
//! let machine = Machine::with_nodes(2).build();
//! let got = Arc::new(AtomicU64::new(0));
//! let got2 = Arc::clone(&got);
//! machine.run(move |env| {
//!     let client = Client::create(&env.machine, env.task, "demo", 1);
//!     let ctx = client.context(0);
//!     if env.task == 1 {
//!         let got = Arc::clone(&got2);
//!         ctx.set_dispatch(1, Arc::new(move |_ctx, _msg, payload| {
//!             assert_eq!(payload, b"hello");
//!             got.fetch_add(1, Ordering::SeqCst);
//!             Recv::Done
//!         }));
//!     }
//!     env.machine.task_barrier(); // all endpoints exist
//!     if env.task == 0 {
//!         ctx.send_immediate(Endpoint::of_task(1), 1, b"", b"hello").unwrap();
//!         ctx.advance(); // drive our side
//!     } else {
//!         ctx.advance_until(|| got2.load(Ordering::SeqCst) == 1);
//!     }
//! });
//! assert_eq!(got.load(Ordering::SeqCst), 1);
//! ```

#![forbid(unsafe_code)]

pub mod aggr;
pub mod channel;
pub mod client;
pub mod coll;
pub mod commthread;
pub mod context;
pub mod endpoint;
pub mod error;
pub mod geometry;
pub mod machine;
pub mod policy;
pub mod proto;
pub mod topology;

pub use aggr::AggrConfig;
pub use channel::PersistentChannel;
pub use client::Client;
pub use commthread::{CommThreadPool, LockDiscipline};
pub use context::{Context, IncomingMsg, Recv};
pub use endpoint::Endpoint;
pub use error::{PamiError, PamiResult};
pub use geometry::Geometry;
pub use coll::{AlgInfo, CollKind, CollRegistry};
pub use machine::{Machine, MachineBuilder, MemKey, TaskEnv, WindowRef};
pub use policy::{Protocol, StaticPolicy};
pub use proto::{GetArgs, MemSlot, PutArgs, RmwArgs, SendArgs};
pub use topology::Topology;

// Re-export the substrate types the public API traffics in.
pub use bgq_collnet::{CollOp, DataType};
pub use bgq_hw::{Counter, DeliveryFault, MemRegion};
pub use bgq_mu::{
    FaultPlan, FaultRates, LinkFault, PayloadSource, RasCounters, RasEvent, RasEventKind,
    RetryConfig, RmwOp,
};
pub use bgq_torus::TorusShape;
