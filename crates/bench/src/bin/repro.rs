//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment>
//!   experiment ∈ table1 table2 table3 fig5 fig6 fig7 fig8 fig9 fig10 all
//! ```
//!
//! Each experiment prints the paper's published numbers beside the
//! timing-model values at paper scale (`modeled`). Tables 1–2 and Figure 5
//! also name the `pamibench` workload that runs the host analog; nothing
//! here reads a clock.

use bgq_netsim::{coll, p2p, MachineParams};
use pami_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiment = args.first().map(String::as_str).unwrap_or("all");
    let params = MachineParams::default();
    match experiment {
        "table1" => table1(&params),
        "table2" => table2(&params),
        "table3" => table3(&params),
        "fig5" => fig5(&params),
        "fig6" => fig6(&params),
        "fig7" => fig7(&params),
        "fig8" => fig8(&params),
        "fig9" => fig9(&params),
        "fig10" => fig10(&params),
        "all" => {
            table1(&params);
            table2(&params);
            table3(&params);
            fig5(&params);
            fig6(&params);
            fig7(&params);
            fig8(&params);
            fig9(&params);
            fig10(&params);
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            eprintln!("usage: repro [table1|table2|table3|fig5|fig6|fig7|fig8|fig9|fig10|all]");
            std::process::exit(2);
        }
    }
}

fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// A modeled cell as printed: its value, `fit`, or `-` (EXPERIMENTS.md
/// has every cell's error).
fn modeled(cell: &p2p::Cell, format: fn(f64) -> String) -> String {
    match cell.modeled {
        p2p::Modeled::Fit(v) => format!("{} fit", format(v)),
        p2p::Modeled::Predicted(v) => format(v),
        p2p::Modeled::Missed { .. } | p2p::Modeled::NoCount => "-".to_string(),
    }
}

/// Tables 1–2 and Figure 5: paper, model and the host analog per cell.
fn cell_table(first: &str, width: usize, cells: &[p2p::Cell], format: fn(f64) -> String) {
    println!("{first:<width$}{:>12}{:>14}   host analog", "paper", "modeled");
    for cell in cells {
        println!(
            "{:<width$}{:>12}{:>14}   {}",
            cell.label,
            format(cell.paper),
            modeled(cell, format),
            cell.host.unwrap_or("-"),
        );
    }
    println!(
        "modeled: a x sum(exact count x host unit cost), a fit on the `fit` cell; \
         `-`: no count, or off the paper by more than {:.0}%",
        p2p::STOP_RULE * 100.0
    );
}

fn table1(params: &MachineParams) {
    header("Table 1: PAMI half round trip, 0B message");
    cell_table("call", 22, &p2p::table1(params), us);
}

fn table2(params: &MachineParams) {
    header("Table 2: MPI half round trip, 0B message");
    cell_table("configuration", 52, &p2p::table2(params), us);
}

fn table3(params: &MachineParams) {
    header("Table 3: MPI neighbor send+receive throughput, 1MB messages");
    println!(
        "{:<12}{:>14}{:>14}{:>14}{:>14}",
        "neighbors", "paper eager", "paper rzv", "model eager", "model rzv"
    );
    let paper = [(1, 3267.0, 3333.0), (2, 3360.0, 6625.0), (4, 6676.0, 13139.0), (10, 8467.0, 32355.0)];
    for (k, pe, pr) in paper {
        println!(
            "{:<12}{:>14}{:>14}{:>14}{:>14}",
            k,
            format!("{pe:.0}MB/s"),
            format!("{pr:.0}MB/s"),
            mbs(p2p::eager_neighbor_throughput(params, k, 1 << 20)),
            mbs(p2p::rendezvous_neighbor_throughput(params, k, 1 << 20)),
        );
    }
}

fn fig5(params: &MachineParams) {
    header("Figure 5: message rate on 32 nodes (MMPS)");
    cell_table("series", 28, &p2p::figure5(params), mmps);
    println!("paper: commthreads speed MPI up 2.4x at 1 ppn and are off at 32 ppn");
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
