//! # bgq-scale — million-endpoint co-simulation of the PAMI stack
//!
//! Single-host scale testing of the *real* runtime: the full PAMI send
//! path, matching, protocol ladder, and RAS reliability layer run
//! unmodified over the same synchronous MU fabric every test and workload
//! uses. [`harness::ScaleHarness`] instantiates 10K–1M *virtual
//! endpoints* over a few OS threads: one lead [`pami::Context`] per
//! simulated node, every other task registered as a virtual endpoint
//! aliasing it ([`pami::Machine::register_virtual_endpoint`]), and
//! cooperative `advance()` scheduling in barrier-paced rounds.
//! Per-endpoint memory stays O(1): one endpoint-table slot, no context,
//! no thread.
//!
//! Canned scenarios: incast ([`harness::Scenario::Incast`]), hashed
//! all-to-all ([`harness::Scenario::AllToAll`]), and a seeded failure storm
//! ([`harness::failure_storm`]) that kills links mid-run and checks the
//! zero-silent-loss property end to end.

#![forbid(unsafe_code)]

pub mod harness;

pub use harness::{failure_storm, ScaleConfig, ScaleHarness, Scenario};
