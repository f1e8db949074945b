//! Umbrella crate for the PAMI/BG-Q reproduction workspace.
//!
//! Re-exports every workspace crate under one roof so that examples and
//! integration tests can depend on a single package. See the individual
//! crates for the real documentation:
//!
//! * [`pami`] — the Parallel Active Messaging Interface itself.
//! * [`pami_mpi`] — the MPI-flavoured layer built on PAMI ("pamid").
//! * [`bgq_hw`] — L2 atomics, wakeup unit, memory regions, CNK services.
//! * [`bgq_torus`] — the 5D torus geometry and packet fabric.
//! * [`bgq_mu`] — the messaging unit (descriptors, FIFOs, delivery).
//! * [`bgq_collnet`] — classroutes, the collective network, the GI barrier.
//! * [`bgq_netsim`] — the discrete-event timing simulator for machine-scale
//!   experiments.

#![forbid(unsafe_code)]

pub use bgq_collnet;
pub use bgq_hw;
pub use bgq_mu;
pub use bgq_netsim;
pub use bgq_torus;
pub use pami;
pub use pami_mpi;
