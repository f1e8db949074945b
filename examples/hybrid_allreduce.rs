//! Hybrid-programming demo: multiple processes per node using the
//! shared-address collectives, classroute rotation via MPIX
//! optimize/deoptimize, and commthread-driven progress.
//!
//! Four nodes × four processes reduce a distributed dot product with
//! `MPI_Allreduce` over the collective network (master injects, peers read
//! the master's buffer through the global VA — Figures 3/4), then compare
//! the hardware path against the software binomial fallback.
//!
//! ```text
//! cargo run --example hybrid_allreduce
//! ```

use pami_repro::bgq_collnet::ops::elems;
use pami_repro::pami::coll::names;
use pami_repro::pami::Machine;
use pami_repro::pami_mpi::{CollOp, DataType, LibFlavor, MemRegion, Mpi, MpiConfig, ThreadLevel};

const NODES: usize = 4;
const PPN: usize = 4;
const N: usize = 1024; // local vector length

fn main() {
    let machine = Machine::with_nodes(NODES).ppn(PPN).build();
    machine.run(|env| {
        // MPI_THREAD_MULTIPLE auto-enables communication threads, the
        // configuration the paper recommends for hybrid codes.
        let mpi = Mpi::init(
            &env.machine,
            env.task,
            MpiConfig {
                flavor: LibFlavor::ThreadOptimized,
                thread_level: ThreadLevel::Multiple,
                contexts: 2,
                commthreads: None,
            },
        );
        env.machine.task_barrier();
        assert!(mpi.has_commthreads(), "THREAD_MULTIPLE enables commthreads");
        let world = mpi.world().clone();
        let me = world.rank();

        // Give COMM_WORLD a classroute (MPIX_Comm_optimize).
        world.optimize().expect("world is a rectangle");

        // Local work: a slice of x·y.
        let x: Vec<f64> = (0..N).map(|i| ((me * N + i) % 17) as f64 / 4.0).collect();
        let y: Vec<f64> = (0..N).map(|i| ((me * N + i) % 11) as f64 / 8.0).collect();
        let local_dot: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();

        let src = MemRegion::from_vec(elems::from_f64(&[local_dot]));
        let hw = MemRegion::zeroed(8);
        let sw = MemRegion::zeroed(8);

        // Hardware path (collective network + shared-address intra-node).
        mpi.allreduce_named(names::HW_ALLREDUCE, (&src, 0), (&hw, 0), 1, CollOp::Sum, DataType::Float64, &world);
        // Software binomial fallback over PAMI point-to-point.
        mpi.allreduce_named(names::SW_ALLREDUCE, (&src, 0), (&sw, 0), 1, CollOp::Sum, DataType::Float64, &world);
        // Streaming chain pipeline (SHArP-style per-hop partial reduction),
        // invoked by registry name.
        let st = MemRegion::zeroed(8);
        mpi.allreduce_named(
            names::STREAM_ALLREDUCE,
            (&src, 0), (&st, 0), 1, CollOp::Sum, DataType::Float64, &world,
        );

        let hw_val = hw.read_f64(0);
        let sw_val = sw.read_f64(0);
        let st_val = st.read_f64(0);
        assert!((hw_val - sw_val).abs() < 1e-9, "hw and binomial agree");
        assert!((hw_val - st_val).abs() < 1e-9, "streaming agrees with both");

        // Rotate the classroute to another communicator (scarcity demo).
        mpi.barrier(&world);
        if me == 0 {
            world.deoptimize();
            println!("deoptimized COMM_WORLD; classroute released for reuse");
        }
        mpi.barrier(&world);
        // Collectives still work — auto-selection now lands on the
        // streaming chain (cost 90), the cheapest entry without a route.
        let again = MemRegion::zeroed(8);
        mpi.allreduce((&src, 0), (&again, 0), 1, CollOp::Sum, DataType::Float64, &world);
        assert!((again.read_f64(0) - hw_val).abs() < 1e-9);

        if me == 0 {
            println!(
                "global dot product = {hw_val:.4} over {} ranks (hw, binomial and streaming agree)",
                world.size()
            );
            println!("hybrid_allreduce OK");
        }
        mpi.barrier(&world);
    });
}
