//! Machine constants.
//!
//! Sources: the paper itself (link speeds, packet format, cache sizes) and
//! the BG/Q network paper \[2\] (hop latencies) for the hardware. The one
//! calibrated group left is the collectives' software cost (`coll_sw_base`,
//! `allreduce_*`, `local_barrier_*`), set against Figures 6–7 until exact
//! counts replace it. Point-to-point software time is not a constant here:
//! [`crate::p2p`] composes it from exact counts and host unit costs.

/// All timing/bandwidth constants of the modeled machine.
#[derive(Debug, Clone)]
pub struct MachineParams {
    // ---- links & packets -------------------------------------------------
    /// Raw per-direction link bandwidth (B/s): 2 GB/s.
    pub link_raw_bw: f64,
    /// Application payload bandwidth per link direction after header and
    /// protocol overhead (B/s): 1.8 GB/s.
    pub link_payload_bw: f64,
    /// Per-hop router latency (s) on the torus, ~40 ns.
    pub hop_latency: f64,
    /// Per-hop latency of the collective-combine logic (adds arithmetic to
    /// the router pass-through), ~65 ns.
    pub collective_hop_latency: f64,
    /// Per-hop latency of the global-interrupt (barrier) logic, ~55 ns.
    pub gi_hop_latency: f64,

    // ---- node memory system ----------------------------------------------
    /// L2 cache capacity (B): 32 MB.
    pub l2_capacity: f64,
    /// Aggregate copy bandwidth when working sets stay in L2 (B/s).
    pub l2_copy_bw: f64,
    /// Aggregate copy bandwidth once working sets spill to DDR (B/s).
    pub ddr_copy_bw: f64,
    /// What a single A2 thread can memcpy (B/s) — the eager receiver's
    /// packet-payload copy rate.
    pub core_copy_bw: f64,

    // ---- local collectives --------------------------------------------------
    /// Fixed software cost of an MPI collective call (s).
    pub coll_sw_base: f64,
    /// Software cost of driving an allreduce (descriptor injection,
    /// counter polling) at ppn = 1 (s).
    pub allreduce_sw: f64,
    /// How much of `allreduce_sw` parallel local math hides as ppn grows
    /// (s, scaled by 1 − 1/ppn).
    pub allreduce_parallel_hide: f64,
    /// L2-atomic local barrier cost at ppn > 1 (s): base + slope·log2(ppn).
    pub local_barrier_base: f64,
    /// See `local_barrier_base`.
    pub local_barrier_slope: f64,
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams {
            link_raw_bw: 2.0e9,
            link_payload_bw: 1.8e9,
            hop_latency: 40e-9,
            collective_hop_latency: 65e-9,
            gi_hop_latency: 55e-9,

            l2_capacity: 32.0 * 1024.0 * 1024.0,
            l2_copy_bw: 90.0e9,
            ddr_copy_bw: 16.0e9,
            core_copy_bw: 4.3e9,

            coll_sw_base: 0.6e-6,
            allreduce_sw: 2.4e-6,
            allreduce_parallel_hide: 1.0e-6,
            local_barrier_base: 1.1e-6,
            local_barrier_slope: 0.1e-6,
        }
    }
}

impl MachineParams {
    /// Cost of the intra-node L2 barrier at `ppn` processes (0 at ppn = 1).
    pub fn local_barrier(&self, ppn: usize) -> f64 {
        if ppn <= 1 {
            0.0
        } else {
            self.local_barrier_base + self.local_barrier_slope * (ppn as f64).log2()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_is_ninety_percent() {
        let p = MachineParams::default();
        assert!((p.link_payload_bw / p.link_raw_bw - 0.9).abs() < 1e-9);
    }

    #[test]
    fn local_barrier_grows_with_ppn() {
        let p = MachineParams::default();
        assert_eq!(p.local_barrier(1), 0.0);
        assert!(p.local_barrier(4) > 0.0);
        assert!(p.local_barrier(16) > p.local_barrier(4));
    }
}
