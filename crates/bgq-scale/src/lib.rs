//! # bgq-scale — million-endpoint co-simulation of the PAMI stack
//!
//! Single-host scale testing of the *real* runtime: the full PAMI send
//! path, matching, protocol ladder, and RAS reliability layer run
//! unmodified, while packet *delivery* is lifted onto the netsim
//! discrete-event clock through the [`bgq_mu::Transport`] seam. Two pieces:
//!
//! * [`fabric::VirtualFabric`] — a [`bgq_mu::Transport`] that schedules
//!   every reception-FIFO deposit as a DES event at its modeled arrival
//!   time (hop latency + wire serialization from
//!   [`bgq_netsim::MachineParams`]) and performs it when the virtual clock
//!   catches up. FIFO order per (source, destination) path is preserved.
//! * [`harness::ScaleHarness`] — instantiates 10K–1M *virtual endpoints*
//!   over a few OS threads: one lead [`pami::Context`] per simulated node,
//!   every other task registered as a virtual endpoint aliasing it
//!   ([`pami::Machine::register_virtual_endpoint`]), cooperative
//!   `advance()` scheduling, and DES fast-forward when all sides go idle.
//!   Per-endpoint memory stays O(1): one endpoint-table slot, no context,
//!   no thread.
//!
//! Canned scenarios: incast ([`harness::Scenario::Incast`]), hashed
//! all-to-all ([`harness::Scenario::AllToAll`]), and a seeded failure storm
//! ([`harness::failure_storm`]) that kills links mid-run and checks the
//! zero-silent-loss property end to end.

#![forbid(unsafe_code)]

pub mod fabric;
pub mod harness;

pub use fabric::VirtualFabric;
pub use harness::{failure_storm, ScaleConfig, ScaleHarness, Scenario};
