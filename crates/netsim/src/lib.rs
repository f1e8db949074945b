//! Discrete-event timing models of BG/Q messaging at machine scale.
//!
//! The functional crates (`pami`, `pami-mpi`) run the real software on a
//! simulated node count a laptop can host. The *scale-dependent* results of
//! the paper — 2048-node collective latencies, link-limited throughput
//! curves, message-rate scaling with processes per node — are set by
//! hardware constants (1.8 GB/s payload per link direction, tree depths,
//! L2/DDR copy bandwidth, per-message software costs). This crate models
//! those with the constants the paper states or implies, so every table and
//! figure of the evaluation can be regenerated in shape at full scale:
//!
//! * [`config::MachineParams`] — every constant, documented, adjustable.
//! * [`des`] — a small discrete-event engine used by the tree simulations.
//! * `tree_sim` — event-driven propagation of barrier and combine signals
//!   over real spanning trees from `bgq-torus`.
//! * `memsys` — the L2/DDR working-set model behind the high-PPN
//!   throughput falloffs of Figures 8–10.
//! * [`p2p`] — Table 1/2 latency composition, Table 3 neighbor throughput,
//!   and the Figure 5 message-rate model.
//! * [`coll`] — Figures 6–10: barrier and allreduce latency vs nodes,
//!   allreduce/broadcast throughput vs size, and the 10-color rectangle
//!   broadcast.
//!
//! Absolute agreement with the paper is *calibration*; what the models are
//! built to preserve without tuning is the shape: who wins, where knees
//! fall (L2 spill points, eager/rendezvous crossover, commthread speedup
//! vs PPN), and the scaling exponents.

#![forbid(unsafe_code)]

pub mod coll;
pub mod config;
pub mod des;
mod memsys;
pub mod p2p;
mod tree_sim;

pub use config::MachineParams;
