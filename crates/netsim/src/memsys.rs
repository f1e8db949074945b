//! The node memory-system model.
//!
//! The paper's large-message collective curves are shaped by one effect:
//! "for larger messages, the send and receive buffers spill out of the L2
//! cache and must be read and stored to DDR … the performance is driven by
//! DDR throughput which is lower than the level-2 cache." This module
//! computes working sets and the resulting copy bandwidth.

use crate::config::MachineParams;

/// Which memory level a working set runs from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Residency {
    /// Fits in the 32 MB L2.
    L2,
    /// Spills to DDR.
    Ddr,
}

/// Residency of a `working_set`-byte footprint.
pub(crate) fn residency(params: &MachineParams, working_set: f64) -> Residency {
    if working_set <= params.l2_capacity {
        Residency::L2
    } else {
        Residency::Ddr
    }
}

/// Aggregate copy bandwidth available to intra-node buffer movement given
/// the working set.
pub(crate) fn copy_bw(params: &MachineParams, working_set: f64) -> f64 {
    match residency(params, working_set) {
        Residency::L2 => params.l2_copy_bw,
        Residency::Ddr => params.ddr_copy_bw,
    }
}

/// Working set of an allreduce at `ppn` processes with `size`-byte buffers:
/// every process's input and output plus the node accumulation buffer.
pub(crate) fn allreduce_working_set(size: f64, ppn: usize) -> f64 {
    size * (2.0 * ppn as f64 + 2.0)
}

/// Working set of a broadcast: the master's buffer plus each peer's copy
/// (read + write streams).
pub(crate) fn broadcast_working_set(size: f64, ppn: usize) -> f64 {
    size * 2.0 * ppn as f64
}

/// Intra-node bytes moved to fan a `size`-byte result out to `ppn`
/// processes (peers read the master's buffer and write their own).
pub(crate) fn fanout_bytes(size: f64, ppn: usize) -> f64 {
    if ppn <= 1 {
        0.0
    } else {
        2.0 * (ppn - 1) as f64 * size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_thresholds_match_paper_peaks() {
        let p = MachineParams::default();
        let mb = 1024.0 * 1024.0;
        // Allreduce: ppn=1 spills above 8 MB (the paper's ppn=1 peak is at
        // 8 MB), ppn=4 above 2 MB (peak at 2 MB), ppn=16 below 1 MB (peak
        // at 512 KB).
        assert_eq!(residency(&p, allreduce_working_set(8.0 * mb, 1)), Residency::L2);
        assert_eq!(residency(&p, allreduce_working_set(9.0 * mb, 1)), Residency::Ddr);
        assert_eq!(residency(&p, allreduce_working_set(2.0 * mb, 4)), Residency::L2);
        assert_eq!(residency(&p, allreduce_working_set(4.0 * mb, 4)), Residency::Ddr);
        assert_eq!(residency(&p, allreduce_working_set(0.5 * mb, 16)), Residency::L2);
        assert_eq!(residency(&p, allreduce_working_set(1.0 * mb, 16)), Residency::Ddr);
    }

    #[test]
    fn broadcast_spills_later_than_allreduce() {
        let p = MachineParams::default();
        let mb = 1024.0 * 1024.0;
        // Broadcast at ppn=4 peaks at 4 MB in the paper.
        assert_eq!(residency(&p, broadcast_working_set(4.0 * mb, 4)), Residency::L2);
        assert_eq!(residency(&p, broadcast_working_set(5.0 * mb, 4)), Residency::Ddr);
        // ppn=16 peak at 1 MB.
        assert_eq!(residency(&p, broadcast_working_set(1.0 * mb, 16)), Residency::L2);
        assert_eq!(residency(&p, broadcast_working_set(2.0 * mb, 16)), Residency::Ddr);
    }

    #[test]
    fn ddr_is_slower_than_l2() {
        let p = MachineParams::default();
        assert!(copy_bw(&p, 1e9) < copy_bw(&p, 1e6));
    }

    #[test]
    fn fanout_bytes_zero_at_ppn1() {
        assert_eq!(fanout_bytes(1e6, 1), 0.0);
        assert_eq!(fanout_bytes(1e6, 4), 6e6);
    }
}
