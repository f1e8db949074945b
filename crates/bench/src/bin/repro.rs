//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment> [--modeled-only]
//!   experiment ∈ table1 table2 table3 fig5 fig6 fig7 fig8 fig9 fig10 all
//! ```
//!
//! Each experiment prints the paper's published numbers, the timing-model
//! values at paper scale (`modeled`), and — where a laptop can host the
//! functional stack — real wall-clock numbers from this workspace's
//! PAMI/MPI implementation (`measured`, host-scaled configuration).

use bgq_netsim::{coll, p2p, MachineParams};
use pami_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiment = args.first().map(String::as_str).unwrap_or("all");
    let modeled_only = args.iter().any(|a| a == "--modeled-only");
    let params = MachineParams::default();
    match experiment {
        "table1" => table1(&params, modeled_only),
        "table2" => table2(&params, modeled_only),
        "table3" => table3(&params, modeled_only),
        "fig5" => fig5(&params, modeled_only),
        "fig6" => fig6(&params),
        "fig7" => fig7(&params),
        "fig8" => fig8(&params),
        "fig9" => fig9(&params),
        "fig10" => fig10(&params),
        "all" => {
            table1(&params, modeled_only);
            table2(&params, modeled_only);
            table3(&params, modeled_only);
            fig5(&params, modeled_only);
            fig6(&params);
            fig7(&params);
            fig8(&params);
            fig9(&params);
            fig10(&params);
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            eprintln!("usage: repro [table1|table2|table3|fig5|fig6|fig7|fig8|fig9|fig10|all] [--modeled-only]");
            std::process::exit(2);
        }
    }
}

fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

fn table1(params: &MachineParams, modeled_only: bool) {
    header("Table 1: PAMI half round trip, 0B message");
    println!("{:<22}{:>12}{:>12}{:>14}", "call", "paper", "modeled", "measured");
    for (label, imm, paper) in [
        ("PAMI_Send_immediate", true, 1.18e-6),
        ("PAMI_Send", false, 1.32e-6),
    ] {
        let modeled = if imm {
            p2p::pami_send_immediate_latency(params, 0)
        } else {
            p2p::pami_send_latency(params, 0)
        };
        let measured = if modeled_only {
            "-".to_string()
        } else {
            us(measure_pami_half_rtt(imm, 0, 2000).as_secs_f64())
        };
        println!("{:<22}{:>12}{:>12}{:>14}", label, us(paper), us(modeled), measured);
    }
}

fn table2(params: &MachineParams, modeled_only: bool) {
    header("Table 2: MPI half round trip, 0B message");
    println!(
        "{:<52}{:>10}{:>10}{:>12}",
        "configuration", "paper", "modeled", "measured"
    );
    let rows = [
        (Table2Row { thread_optimized: false, thread_multiple: false, commthreads: false }, 1.95e-6),
        (Table2Row { thread_optimized: false, thread_multiple: true, commthreads: false }, 2.28e-6),
        (Table2Row { thread_optimized: false, thread_multiple: true, commthreads: true }, 8.7e-6),
        (Table2Row { thread_optimized: true, thread_multiple: true, commthreads: false }, 2.96e-6),
        (Table2Row { thread_optimized: true, thread_multiple: true, commthreads: true }, 3.25e-6),
        (Table2Row { thread_optimized: true, thread_multiple: false, commthreads: false }, 2.5e-6),
    ];
    for (row, paper) in rows {
        let modeled = p2p::mpi_latency(
            params,
            p2p::MpiLatencyConfig {
                thread_optimized: row.thread_optimized,
                thread_multiple: row.thread_multiple,
                commthreads: row.commthreads,
            },
            0,
        );
        let measured = if modeled_only {
            "-".to_string()
        } else {
            us(measure_mpi_half_rtt(row, 1000).as_secs_f64())
        };
        println!("{:<52}{:>10}{:>10}{:>12}", row.label(), us(paper), us(modeled), measured);
    }
}

fn table3(params: &MachineParams, modeled_only: bool) {
    header("Table 3: MPI neighbor send+receive throughput, 1MB messages");
    println!(
        "{:<12}{:>14}{:>14}{:>14}{:>14}{:>16}{:>16}",
        "neighbors", "paper eager", "paper rzv", "model eager", "model rzv", "measured eager", "measured rzv"
    );
    let paper = [(1, 3267.0, 3333.0), (2, 3360.0, 6625.0), (4, 6676.0, 13139.0), (10, 8467.0, 32355.0)];
    for (k, pe, pr) in paper {
        let me = p2p::eager_neighbor_throughput(params, k, 1 << 20);
        let mr = p2p::rendezvous_neighbor_throughput(params, k, 1 << 20);
        let (meas_e, meas_r) = if modeled_only || k > 4 {
            // The host machine cannot place 10 neighbors on distinct links;
            // the functional run covers k ≤ 4.
            ("-".to_string(), "-".to_string())
        } else {
            (
                mbs(measure_neighbor_throughput(k, 1 << 20, true, 4)),
                mbs(measure_neighbor_throughput(k, 1 << 20, false, 4)),
            )
        };
        println!(
            "{:<12}{:>14}{:>14}{:>14}{:>14}{:>16}{:>16}",
            k,
            format!("{pe:.0}MB/s"),
            format!("{pr:.0}MB/s"),
            mbs(me),
            mbs(mr),
            meas_e,
            meas_r
        );
    }
}

fn fig5(params: &MachineParams, modeled_only: bool) {
    header("Figure 5: message rate on 32 nodes (MMPS)");
    println!(
        "{:<6}{:>12}{:>12}{:>16}{:>18}",
        "ppn", "PAMI", "MPI", "MPI+commthr", "MPI+commthr(wild)"
    );
    for ppn in [1usize, 2, 4, 8, 16, 32] {
        let pami = p2p::message_rate(params, p2p::RateSeries::Pami, ppn);
        let mpi = p2p::message_rate(params, p2p::RateSeries::Mpi, ppn);
        let (ct, wild) = if ppn <= 16 {
            (
                mmps(p2p::message_rate(params, p2p::RateSeries::MpiCommthreads, ppn)),
                mmps(p2p::message_rate(params, p2p::RateSeries::MpiCommthreadsWildcard, ppn)),
            )
        } else {
            // "Right now, we do not enable communication threads at 32
            // processes per node."
            ("-".to_string(), "-".to_string())
        };
        println!("{:<6}{:>12}{:>12}{:>16}{:>18}", ppn, mmps(pami), mmps(mpi), ct, wild);
    }
    println!("paper peaks: PAMI 107 MMPS @32ppn; MPI 22.9 MMPS @32ppn; best commthread 18.7 MMPS @16ppn; 2.4x speedup @1ppn");
    if !modeled_only {
        println!();
        println!("measured (functional stack, 2 nodes, host-scaled):");
        println!("{:<6}{:>12}{:>12}{:>14}", "ppn", "PAMI", "MPI", "MPI(wildcard)");
        for ppn in [1usize, 2, 4] {
            let pami = measure_message_rate(MeasuredRateSeries::Pami, ppn, 3000);
            let mpi = measure_message_rate(MeasuredRateSeries::MpiNamed, ppn, 3000);
            let wild = measure_message_rate(MeasuredRateSeries::MpiWildcard, ppn, 3000);
            println!("{:<6}{:>12}{:>12}{:>14}", ppn, mmps(pami), mmps(mpi), mmps(wild));
        }
    }
}

fn fig6(params: &MachineParams) {
    header("Figure 6: MPI_Barrier latency vs nodes (GI network)");
    println!("{:<8}{:>12}{:>12}{:>12}", "nodes", "ppn=1", "ppn=4", "ppn=16");
    for nodes in [32usize, 64, 128, 256, 512, 1024, 2048] {
        println!(
            "{:<8}{:>12}{:>12}{:>12}",
            nodes,
            us(coll::barrier_latency(params, nodes, 1)),
            us(coll::barrier_latency(params, nodes, 4)),
            us(coll::barrier_latency(params, nodes, 16)),
        );
    }
    println!("paper @2048: 2.7us / 4.0us / 4.2us");
}

fn fig7(params: &MachineParams) {
    header("Figure 7: MPI_Allreduce (1 double, sum) latency vs nodes");
    println!("{:<8}{:>12}{:>12}{:>12}", "nodes", "ppn=1", "ppn=4", "ppn=16");
    for nodes in [32usize, 64, 128, 256, 512, 1024, 2048] {
        println!(
            "{:<8}{:>12}{:>12}{:>12}",
            nodes,
            us(coll::allreduce_latency(params, nodes, 1)),
            us(coll::allreduce_latency(params, nodes, 4)),
            us(coll::allreduce_latency(params, nodes, 16)),
        );
    }
    println!("paper @2048: 5.5us / 5.0us / 5.3us");
}

fn size_sweep() -> Vec<usize> {
    (13..=25).map(|p| 1usize << p).collect() // 8 KB .. 32 MB
}

fn fig8(params: &MachineParams) {
    header("Figure 8: MPI_Allreduce throughput on 2048 nodes (double sum)");
    println!("{:<10}{:>12}{:>12}{:>12}", "size", "ppn=1", "ppn=4", "ppn=16");
    for size in size_sweep() {
        println!(
            "{:<10}{:>12}{:>12}{:>12}",
            format!("{}KB", size / 1024),
            mbs(coll::allreduce_throughput(params, 2048, 1, size)),
            mbs(coll::allreduce_throughput(params, 2048, 4, size)),
            mbs(coll::allreduce_throughput(params, 2048, 16, size)),
        );
    }
    println!("paper peaks: 1704MB/s @8MB ppn1 (95%); 1693MB/s @2MB ppn4; 1643MB/s @512KB ppn16");
}

fn fig9(params: &MachineParams) {
    header("Figure 9: MPI_Bcast throughput via collective network, 2048 nodes");
    println!("{:<10}{:>12}{:>12}{:>12}", "size", "ppn=1", "ppn=4", "ppn=16");
    for size in size_sweep() {
        println!(
            "{:<10}{:>12}{:>12}{:>12}",
            format!("{}KB", size / 1024),
            mbs(coll::broadcast_throughput(params, 2048, 1, size)),
            mbs(coll::broadcast_throughput(params, 2048, 4, size)),
            mbs(coll::broadcast_throughput(params, 2048, 16, size)),
        );
    }
    println!("paper peaks: 1728MB/s @32MB ppn1 (96%); 1722MB/s @4MB ppn4; 1701MB/s @1MB ppn16");
}

fn fig10(params: &MachineParams) {
    header("Figure 10: 10-color rectangle broadcast throughput, 2048 nodes");
    println!("{:<10}{:>12}{:>12}{:>12}", "size", "ppn=1", "ppn=4", "ppn=16");
    for size in size_sweep() {
        println!(
            "{:<10}{:>12}{:>12}{:>12}",
            format!("{}KB", size / 1024),
            mbs(coll::rect_broadcast_throughput(params, 2048, 1, size)),
            mbs(coll::rect_broadcast_throughput(params, 2048, 4, size)),
            mbs(coll::rect_broadcast_throughput(params, 2048, 16, size)),
        );
    }
    println!("paper peak: 16.9GB/s @ppn1 (94% of 18GB/s); copy-rate limited at ppn 4/16");
}
