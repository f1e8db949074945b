//! Point-to-point models: Tables 1–3 and Figure 5.
//!
//! Tables 1–2 and Figure 5 are the paper's accounting of software cost,
//! and they get one composition: an operation's software time is
//! `a × Σ countᵢ × unitᵢ`.
//!
//! * Each count is an exact count of what one message does in the
//!   functional stack ([`counts`]), held to the live stack by
//!   `crates/bench/tests/counts.rs`.
//! * Each unit is a per-layer row of recorded `pamibench` runs, the
//!   median of three (`ledger`; EXPERIMENTS.md names the runs).
//! * `a`, A2 seconds per host nanosecond, is fit once, on Table 1's
//!   `PAMI_Send_immediate` (`fit_factor`).
//!
//! A cell that no count covers, or whose prediction misses the paper by
//! more than [`STOP_RULE`], is not modeled ([`Modeled`]). Table 3 is link
//! bandwidth and copy rate, from hardware constants alone.

use bgq_torus::packet::wire_bytes_for;

use crate::config::MachineParams;

// ---------------------------------------------------------------------------
// Tables 1–2 and Figure 5 — exact counts × host unit costs
// ---------------------------------------------------------------------------

/// A modeled cell may miss the paper by this fraction at most; fixed
/// before the fit was run (TRIALS.md).
pub const STOP_RULE: f64 = 0.20;

/// Exact counts per message: per half round trip of a one-message
/// ping-pong, and per message of a flood. `counts.rs`'s
/// `software_counts_are_the_live_stacks` holds each to the stack.
pub mod counts {
    /// Sends the library makes into a PAMI context (`ctx.sends_*`): the
    /// `send` or `send_immediate` call itself, or the one inside MPI's
    /// `isend`.
    pub const SENDS: u64 = 1;
    /// MPI receives: each `irecv` either posts (`match.posted_queued`) or
    /// takes its message from the unexpected queue
    /// (`match.matched_unexpected`).
    pub const RECEIVES: u64 = 1;
    /// Messages a context's `advance` dispatches (`ctx.advance_events`).
    pub const DELIVERIES: u64 = 1;
    /// MPI requests, one per `isend` and per `irecv`; one `test` (or
    /// `wait`) retires each.
    pub(crate) const REQUESTS: u64 = SENDS + RECEIVES;
}

/// One host unit cost: a per-layer row of the recorded `pamibench` run.
#[derive(Clone, Copy)]
struct Unit {
    /// The row's value: nanoseconds per timed call, on the benchmark's
    /// reference clock.
    ns: f64,
    /// Messages one timed call handles: 1 for a send or a receive, the
    /// messages one advance dispatches for an advance row.
    messages: f64,
}

impl Unit {
    /// Host nanoseconds per message.
    fn ns_per_message(&self) -> f64 {
        self.ns / self.messages
    }
}

/// The unit costs: each row the median of the traced passes of three
/// `bash benchmark/run.sh run`s (EXPERIMENTS.md, "The software ledger").
/// Each is named by its workload and row as `pamibench` prints them.
mod ledger {
    use super::Unit;

    /// `pingpong_short` `pami.send_immediate_ns`: `PAMI_Send_immediate`,
    /// 32 B.
    pub(super) const SEND_IMMEDIATE: Unit = Unit { ns: 91.57, messages: 1.0 };
    /// `pingpong_short` `pami.send_ns`: `PAMI_Send`, 32 B, on the short
    /// tier.
    pub(super) const SEND: Unit = Unit { ns: 82.62, messages: 1.0 };
    /// `pingpong_short` `pami.advance_ns`: a ping-pong's busy advance
    /// dispatches its one message.
    pub(super) const DELIVER: Unit = Unit { ns: 91.56, messages: 1.0 };
    /// `flood_short` `pami.send_ns`: `PAMI_Send`, 8 B, in a flood.
    pub(super) const FLOOD_SEND: Unit = Unit { ns: 75.25, messages: 1.0 };
    /// `flood_short` `pami.advance_ns`: a busy advance dispatches
    /// `pami.events_per_advance` 7.97 ÷ `pami.advance_useful_share` 0.50
    /// messages.
    pub(super) const FLOOD_DELIVER: Unit = Unit { ns: 481.19, messages: 15.95 };
    /// `mpi_exchange` `pami-mpi.isend_ns`: MPI `isend`, 64 B.
    pub(super) const MPI_ISEND: Unit = Unit { ns: 191.81, messages: 1.0 };
    /// `mpi_exchange` `pami-mpi.irecv_ns`: MPI `irecv`, half posted and
    /// half matched from the unexpected queue.
    pub(super) const MPI_IRECV: Unit = Unit { ns: 100.51, messages: 1.0 };
    /// `mpi_exchange` `pami-mpi.test_ns`: MPI `test` of a complete
    /// request, which retires it.
    pub(super) const MPI_TEST: Unit = Unit { ns: 27.19, messages: 1.0 };
    /// `mpi_exchange` `pami-mpi.advance_ns`: one rank's MPI advance
    /// dispatches `pami.events_per_advance` 37.89 messages.
    pub(super) const MPI_DELIVER: Unit = Unit { ns: 6212.82, messages: 37.89 };
}

/// Host software time (ns) of `terms`: Σ count × unit.
fn host_ns(terms: &[(u64, Unit)]) -> f64 {
    terms.iter().map(|&(n, unit)| n as f64 * unit.ns_per_message()).sum()
}

/// A PAMI message: one send of `send`'s kind, one delivery.
fn pami_message(send: Unit, deliver: Unit) -> [(u64, Unit); 2] {
    [(counts::SENDS, send), (counts::DELIVERIES, deliver)]
}

/// An MPI message: an `isend`, an `irecv`, a `test` per request and a
/// delivery, at `mpi_exchange`'s units.
fn mpi_message() -> [(u64, Unit); 4] {
    [
        (counts::SENDS, ledger::MPI_ISEND),
        (counts::RECEIVES, ledger::MPI_IRECV),
        (counts::REQUESTS, ledger::MPI_TEST),
        (counts::DELIVERIES, ledger::MPI_DELIVER),
    ]
}

/// Network time of an `len`-byte message over `hops` torus hops.
fn wire_time(params: &MachineParams, len: usize, hops: u32) -> f64 {
    hops as f64 * params.hop_latency + wire_bytes_for(len) as f64 / params.link_raw_bw
}

/// Table 1's `PAMI_Send_immediate` half round trip (s), the fitted cell.
const PAPER_SEND_IMMEDIATE: f64 = 1.18e-6;

/// `a`: A2 seconds per host nanosecond, fit so that Table 1's
/// `PAMI_Send_immediate` half round trip — its software plus the 0 B wire
/// time between nearest neighbors — is the paper's 1.18 µs.
fn fit_factor(params: &MachineParams) -> f64 {
    let software = host_ns(&pami_message(ledger::SEND_IMMEDIATE, ledger::DELIVER));
    (PAPER_SEND_IMMEDIATE - wire_time(params, 0, 1)) / software
}

/// Half round trip (s) of a 0 B message between nearest neighbors.
fn half_round_trip(params: &MachineParams, terms: &[(u64, Unit)]) -> f64 {
    fit_factor(params) * host_ns(terms) + wire_time(params, 0, 1)
}

/// Node message rate (messages/s) of `ppn` processes, each paying one
/// message's software per message it sends.
fn node_rate(params: &MachineParams, terms: &[(u64, Unit)], ppn: usize) -> f64 {
    ppn as f64 / (fit_factor(params) * host_ns(terms))
}

/// What the model says of one paper cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Modeled {
    /// The fitted cell: the paper's value by construction.
    Fit(f64),
    /// A prediction within [`STOP_RULE`] of the paper.
    Predicted(f64),
    /// A prediction that misses the paper by more than [`STOP_RULE`];
    /// `error` is signed and relative to the paper. Not printed.
    Missed { value: f64, error: f64 },
    /// No exact count covers the cell.
    NoCount,
}

impl Modeled {
    /// A prediction of `value` for a cell the paper puts at `paper`,
    /// under the stop rule.
    fn judge(value: f64, paper: f64) -> Modeled {
        let error = (value - paper) / paper;
        if error.abs() <= STOP_RULE {
            Modeled::Predicted(value)
        } else {
            Modeled::Missed { value, error }
        }
    }
}

/// One cell of Table 1, Table 2 or Figure 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The row, as the paper names it.
    pub label: &'static str,
    /// The paper's value: seconds for a latency, messages/s for a rate.
    pub paper: f64,
    /// What the model says of it.
    pub modeled: Modeled,
    /// The `pamibench` workload that runs the host analog, if one does.
    pub host: Option<&'static str>,
}

/// Table 1: PAMI half round trip, 0 B.
pub fn table1(params: &MachineParams) -> [Cell; 2] {
    let imm = pami_message(ledger::SEND_IMMEDIATE, ledger::DELIVER);
    let send = pami_message(ledger::SEND, ledger::DELIVER);
    [
        Cell {
            label: "PAMI_Send_immediate",
            paper: PAPER_SEND_IMMEDIATE,
            modeled: Modeled::Fit(half_round_trip(params, &imm)),
            host: Some("pingpong_short"),
        },
        Cell {
            label: "PAMI_Send",
            paper: 1.32e-6,
            modeled: Modeled::judge(half_round_trip(params, &send), 1.32e-6),
            host: Some("pingpong_short"),
        },
    ]
}

/// Table 2: MPI half round trip, 0 B, for the six library
/// configurations. Only the classic library at `MPI_THREAD_SINGLE`
/// without commthreads takes no lock; the other five wait for lock counts
/// (ROADMAP items 4 and 7(a)).
pub fn table2(params: &MachineParams) -> [Cell; 6] {
    let locked = |label, paper| Cell { label, paper, modeled: Modeled::NoCount, host: None };
    [
        Cell {
            label: "Classic     / Thread Single   / commthread disabled",
            paper: 1.95e-6,
            modeled: Modeled::judge(half_round_trip(params, &mpi_message()), 1.95e-6),
            host: Some("mpi_exchange"),
        },
        locked("Classic     / Thread Multiple / commthread disabled", 2.28e-6),
        locked("Classic     / Thread Multiple / commthread enabled", 8.7e-6),
        locked("Thread Opt. / Thread Multiple / commthread disabled", 2.96e-6),
        locked("Thread Opt. / Thread Multiple / commthread enabled", 3.25e-6),
        locked("Thread Opt. / Thread Single   / commthread disabled", 2.5e-6),
    ]
}

/// Figure 5: node message rate on 32 nodes at the points the paper
/// quotes. The commthread series waits for lock counts.
pub fn figure5(params: &MachineParams) -> [Cell; 3] {
    let pami = pami_message(ledger::FLOOD_SEND, ledger::FLOOD_DELIVER);
    [
        Cell {
            label: "PAMI, 32 ppn",
            paper: 107e6,
            modeled: Modeled::judge(node_rate(params, &pami, 32), 107e6),
            host: Some("flood_short"),
        },
        Cell {
            label: "MPI, 32 ppn",
            paper: 22.9e6,
            modeled: Modeled::judge(node_rate(params, &mpi_message(), 32), 22.9e6),
            host: Some("mpi_exchange"),
        },
        Cell {
            label: "MPI + commthreads, 16 ppn",
            paper: 18.7e6,
            modeled: Modeled::NoCount,
            host: None,
        },
    ]
}

// ---------------------------------------------------------------------------
// Table 3 — nearest-neighbor throughput
// ---------------------------------------------------------------------------

/// Bidirectional send+receive throughput (B/s) of one reference process
/// exchanging `size`-byte rendezvous messages with `k` neighbors on `k`
/// distinct links. RDMA moves the data, so each link runs at ~90% of
/// payload peak in both directions and throughput scales with `k`.
pub fn rendezvous_neighbor_throughput(params: &MachineParams, k: usize, _size: usize) -> f64 {
    let per_link = 2.0 * params.link_payload_bw * 0.9;
    k as f64 * per_link
}

/// Eager equivalent: packets land in memory FIFOs and the receiver copies
/// payload out on the CPU, so aggregate throughput flattens at the
/// receiver-processing ceiling (~2× the single-thread copy rate, counting
/// both directions).
pub fn eager_neighbor_throughput(params: &MachineParams, k: usize, size: usize) -> f64 {
    let link_limited = rendezvous_neighbor_throughput(params, k, size);
    let receiver_ceiling = 2.0 * params.core_copy_bw;
    link_limited.min(receiver_ceiling)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> MachineParams {
        MachineParams::default()
    }

    #[test]
    fn table1_shape_and_scale() {
        let [imm, send] = table1(&p());
        let Modeled::Fit(fit) = imm.modeled else { panic!("{imm:?}") };
        assert!((fit - imm.paper).abs() < 1e-15, "the fit reproduces its own cell");
        // A prediction within the stop rule, on the wrong side of the
        // fitted cell: the host's `send` is the cheaper call
        // (EXPERIMENTS.md, Table 1's note).
        let Modeled::Predicted(v) = send.modeled else { panic!("{send:?}") };
        assert!((v - send.paper).abs() / send.paper <= STOP_RULE);
        assert!(v < fit);
    }

    #[test]
    fn every_other_cell_prints_a_dash() {
        // The recorded ledger's verdicts: each counted cell misses by far more
        // than the stop rule (MPI +63.6%, the rates −53.8% and −55.4%), so
        // a re-recorded ledger that flips one has to say so here and in
        // EXPERIMENTS.md.
        let missed = |cell: Cell| match cell.modeled {
            Modeled::Missed { error, .. } => error,
            other => panic!("{}: {other:?}", cell.label),
        };
        let [classic_single, locked @ ..] = table2(&p());
        assert!(missed(classic_single) > 0.4, "MPI over-predicted");
        assert!(locked.iter().all(|c| c.modeled == Modeled::NoCount && c.host.is_none()));
        let [pami, mpi, commthreads] = figure5(&p());
        assert!(missed(pami) < -0.4 && missed(mpi) < -0.4, "both rates under-predicted");
        assert_eq!(commthreads.modeled, Modeled::NoCount);
    }

    #[test]
    fn table3_rendezvous_scales_eager_flattens() {
        let params = p();
        let size = 1 << 20;
        let mut prev_rzv = 0.0;
        for k in [1usize, 2, 4, 10] {
            let rzv = rendezvous_neighbor_throughput(&params, k, size);
            let eager = eager_neighbor_throughput(&params, k, size);
            assert!(rzv > prev_rzv, "rendezvous grows with links");
            assert!(eager <= rzv + 1.0);
            prev_rzv = rzv;
        }
        // 10 links ≈ 32.4 GB/s (paper: 32355 MB/s); eager ceiling ≈ 8.6
        // GB/s (paper: 8467 MB/s).
        let rzv10 = rendezvous_neighbor_throughput(&params, 10, size);
        assert!((rzv10 - 32.4e9).abs() / 32.4e9 < 0.05, "rzv10 {rzv10}");
        let eager10 = eager_neighbor_throughput(&params, 10, size);
        assert!((eager10 - 8.5e9).abs() / 8.5e9 < 0.1, "eager10 {eager10}");
        // At one neighbor the protocols are nearly equal (paper: 3267 vs
        // 3333 MB/s).
        let r1 = rendezvous_neighbor_throughput(&params, 1, size);
        let e1 = eager_neighbor_throughput(&params, 1, size);
        assert!((r1 - e1).abs() / r1 < 0.05);
    }
}

// ---------------------------------------------------------------------------
// All-to-all bisection model (the FFT motivation)
// ---------------------------------------------------------------------------

/// Mean minimal hop distance between uniformly random node pairs on
/// `shape` — the quantity that divides a torus's aggregate link capacity
/// among all-to-all traffic.
pub fn average_hops(shape: bgq_torus::TorusShape) -> f64 {
    shape
        .0
        .iter()
        .map(|&e| {
            let e = e as u64;
            let sum: u64 = (0..e).map(|d| d.min(e - d)).sum();
            sum as f64 / e as f64
        })
        .sum()
}

/// Per-node sustainable injection bandwidth (B/s) under uniform all-to-all:
/// each byte consumes `average_hops` link-hops out of the node's ten links'
/// capacity. Higher-dimensional tori of the same node count have fewer
/// average hops, so this grows with dimensionality — the paper's "the 5
/// torus dimensions … boosts the bisection bandwidth … accelerating
/// all-to-all communication such as FFT".
pub fn alltoall_node_bandwidth(params: &MachineParams, shape: bgq_torus::TorusShape) -> f64 {
    let links = bgq_torus::LINKS_PER_NODE as f64;
    let hops = average_hops(shape).max(f64::EPSILON);
    links * params.link_payload_bw / hops
}

#[cfg(test)]
mod alltoall_tests {
    use super::*;
    use bgq_torus::TorusShape;

    #[test]
    fn average_hops_on_rings() {
        // Ring of 4: distances 0,1,2,1 → mean 1.0.
        assert!((average_hops(TorusShape::new([4, 1, 1, 1, 1])) - 1.0).abs() < 1e-12);
        // Ring of 2: distances 0,1 → mean 0.5.
        assert!((average_hops(TorusShape::new([2, 1, 1, 1, 1])) - 0.5).abs() < 1e-12);
        // Dimensions add.
        let two_d = average_hops(TorusShape::new([4, 4, 1, 1, 1]));
        assert!((two_d - 2.0).abs() < 1e-12);
    }

    #[test]
    fn five_dimensions_beat_fewer_for_alltoall() {
        let p = MachineParams::default();
        // 2048 nodes arranged 2D / 3D / 5D: all-to-all bandwidth must grow
        // with dimensionality (fewer average hops).
        let d2 = alltoall_node_bandwidth(&p, TorusShape::new([64, 32, 1, 1, 1]));
        let d3 = alltoall_node_bandwidth(&p, TorusShape::new([16, 16, 8, 1, 1]));
        let d5 = alltoall_node_bandwidth(&p, TorusShape::new([8, 4, 4, 4, 4]));
        assert!(d2 < d3 && d3 < d5, "{d2} {d3} {d5}");
        assert!(d5 / d2 > 3.0, "5D should be several times better than 2D");
    }
}
