//! A machine must be freed when its last user lets go of it.
//!
//! `Mpi::init` creates the world geometry, which the machine's geometry
//! registry owns; a strong `Arc<Machine>` inside the geometry made that a
//! reference cycle, and every machine that ever hosted an MPI rank leaked
//! (about 1.2 MB each in `pamibench`'s `mpi_exchange`).

use std::sync::Arc;

use pami::{Machine, MemRegion};
use pami_mpi::{Mpi, MpiConfig};

const RANKS: usize = 4;
const MSG_BYTES: usize = 64;

#[test]
fn machine_is_freed_after_mpi_ranks_are_dropped() {
    let machine = Machine::with_nodes(2).ppn(2).build();
    let alive = Arc::downgrade(&machine);

    // One driver thread owns every rank, as the benchmark's driver does.
    let mpis: Vec<Mpi> = (0..RANKS as u32)
        .map(|t| Mpi::init(&machine, t, MpiConfig::default()))
        .collect();

    // One exchange: every rank sends 64 B to its right neighbour and
    // receives from its left one.
    let bufs: Vec<(MemRegion, MemRegion)> = (0..RANKS)
        .map(|r| (MemRegion::from_vec(vec![r as u8 + 1; MSG_BYTES]), MemRegion::zeroed(MSG_BYTES)))
        .collect();
    let mut reqs = Vec::new();
    for (r, mpi) in mpis.iter().enumerate() {
        let left = ((r + RANKS - 1) % RANKS) as i32;
        reqs.push((r, mpi.irecv(&bufs[r].1, 0, MSG_BYTES, left, 7, mpi.world())));
    }
    for (r, mpi) in mpis.iter().enumerate() {
        let right = (r + 1) % RANKS;
        reqs.push((r, mpi.isend(&bufs[r].0, 0, MSG_BYTES, right, 7, mpi.world())));
    }
    while !reqs.iter().all(|&(r, q)| mpis[r].request_complete(q)) {
        for mpi in &mpis {
            mpi.advance();
        }
    }
    for (r, q) in reqs {
        mpis[r].test(q);
    }
    for (r, (_, recv)) in bufs.iter().enumerate() {
        let left = (r + RANKS - 1) % RANKS;
        assert_eq!(recv.to_vec(), vec![left as u8 + 1; MSG_BYTES], "rank {r} got its message");
    }

    drop(mpis);
    drop(machine);
    assert!(
        alive.upgrade().is_none(),
        "the machine outlived every handle to it: something it owns still holds an Arc<Machine>"
    );
}
