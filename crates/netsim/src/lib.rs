//! Timing models of BG/Q messaging at machine scale.
//!
//! The functional crates (`pami`, `pami-mpi`) run the real software on a
//! simulated node count a laptop can host. The *scale-dependent* results of
//! the paper — 2048-node collective latencies and link-limited throughput
//! curves — are set by hardware constants (1.8 GB/s payload per link
//! direction, tree depths, L2/DDR copy bandwidth). This crate models those
//! with the constants the paper states or implies, at full scale:
//!
//! * [`config::MachineParams`] — every constant, documented, adjustable.
//! * `memsys` — the L2/DDR working-set model behind the high-PPN
//!   throughput falloffs of Figures 8–10.
//! * [`p2p`] — Tables 1–2 and Figure 5 as exact counts × host unit costs
//!   under one fitted factor, and Table 3's neighbor throughput.
//! * [`coll`] — Figures 6–10: barrier and allreduce latency vs nodes,
//!   allreduce/broadcast throughput vs size, and the 10-color rectangle
//!   broadcast.
//!
//! Software cost is not a constant of this crate. [`p2p`] predicts Tables
//! 1–2 and Figure 5 from counts of the functional stack and host costs of
//! one recorded run, fit once, and shows a cell only where the prediction
//! holds; the collectives' software constants are still calibrated
//! ([`config`]).

#![forbid(unsafe_code)]

pub mod coll;
pub mod config;
mod memsys;
pub mod p2p;

pub use config::MachineParams;
