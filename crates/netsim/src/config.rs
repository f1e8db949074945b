//! Machine constants.
//!
//! Sources: the paper itself (link speeds, packet format, FIFO counts,
//! cache sizes), the BG/Q network paper \[2\] (hop latencies), and
//! calibration against the evaluation numbers where the paper gives only
//! the measurement (per-message software costs). Every constant is a plain
//! field so ablations can sweep it.

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

    // ---- software costs ---------------------------------------------------
    /// One-way PAMI_Send_immediate software cost (s): descriptor build and
    /// immediate injection, plus dispatch at the target.
    pub pami_immediate_sw: f64,
    /// Extra cost of the queued PAMI_Send path over send-immediate (s).
    pub pami_send_queue_extra: f64,
    /// MPI-layer cost over PAMI per message (s): matching, request object,
    /// comm/tag hashing ("MPI libraries must match receives …").
    pub mpi_match_overhead: f64,
    /// Cost of taking/releasing the classic global lock per call (s).
    pub mpi_global_lock: f64,
    /// Memory-synchronization cost the thread-optimized library pays even
    /// at MPI_THREAD_SINGLE (s).
    pub mpi_threadopt_sync: f64,
    /// Extra half-round-trip cost when the classic library contends with
    /// commthreads for the context locks (s) — the 8.7 µs row of Table 2.
    pub classic_commthread_penalty: f64,
    /// Extra cost for the thread-optimized library coordinating with
    /// commthreads (s) — 3.25 vs 2.96 µs in Table 2.
    pub threadopt_commthread_extra: f64,

    // ---- message-rate model (Figure 5) -------------------------------------
    /// Per-message software cost on the PAMI message-rate path (s).
    pub pami_msg_cost: f64,
    /// Per-message software cost on the MPI message-rate path (s).
    pub mpi_msg_cost: f64,
    /// Per-message cost with the thread-optimized library driving the
    /// commthread handoff (s) — slightly above `mpi_msg_cost` before the
    /// parallelism is applied.
    pub mpi_threadopt_msg_cost: f64,
    /// Node-level ceiling on messages/second through the MU.
    pub mu_message_cap: f64,
    /// Rate penalty multiplier for ANY_SOURCE wildcard receives.
    pub wildcard_penalty: f64,
    /// Hardware threads per node available to applications.
    pub hw_threads: usize,
    /// Commthread speedup saturation shape: s = 1 + gain·c/(c+knee) for c
    /// free commthreads per process.
    pub commthread_gain: f64,
    /// See `commthread_gain`.
    pub commthread_knee: f64,

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

            pami_immediate_sw: 1.12e-6,
            pami_send_queue_extra: 0.14e-6,
            mpi_match_overhead: 0.63e-6,
            mpi_global_lock: 0.33e-6,
            mpi_threadopt_sync: 0.55e-6,
            classic_commthread_penalty: 6.4e-6,
            threadopt_commthread_extra: 0.29e-6,

            pami_msg_cost: 0.30e-6,
            mpi_msg_cost: 1.40e-6,
            mpi_threadopt_msg_cost: 1.55e-6,
            mu_message_cap: 120.0e6,
            wildcard_penalty: 0.82,
            hw_threads: 64,
            commthread_gain: 1.75,
            commthread_knee: 5.0,

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

    /// Commthreads available to each of `ppn` processes (the paper: "with
    /// one MPI process per node we can have up to sixteen contexts and
    /// sixteen acceleration communication threads").
    pub(crate) fn commthreads_per_process(&self, ppn: usize) -> usize {
        ((self.hw_threads - ppn) / ppn).min(16)
    }

    /// Message-rate speedup from commthreads at `ppn` (≈2.4× at ppn = 1,
    /// shrinking as free hardware threads per process shrink).
    pub(crate) fn commthread_speedup(&self, ppn: usize) -> f64 {
        let c = self.commthreads_per_process(ppn) as f64;
        1.0 + self.commthread_gain * c / (c + self.commthread_knee)
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

    #[test]
    fn commthread_speedup_shrinks_with_ppn() {
        let p = MachineParams::default();
        let s1 = p.commthread_speedup(1);
        let s4 = p.commthread_speedup(4);
        let s16 = p.commthread_speedup(16);
        assert!(s1 > 2.2 && s1 < 2.6, "≈2.4× at ppn=1, got {s1}");
        assert!(s1 >= s4 && s4 > s16 && s16 > 1.0);
    }

}
