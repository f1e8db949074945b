//! Multiple programming models in one job — the PAMI *client* story.
//!
//! The paper's clients let "simultaneous co-existence of multiple
//! programming model runtimes" share a node: here an MPI-style runtime
//! exchanges tagged messages while a PGAS-style runtime (think UPC/ARMCI)
//! does one-sided puts and gets into registered windows — over two
//! independent clients with separate FIFOs and dispatch spaces.
//!
//! ```text
//! cargo run --example multi_model
//! ```

use pami_repro::pami::{Client, Counter, Machine, MemRegion, PayloadSource};
use pami_repro::pami_mpi::{Mpi, MpiConfig};

const TASKS: usize = 4;
const WORDS: usize = 128;

fn main() {
    let machine = Machine::with_nodes(TASKS).build();
    machine.run(|env| {
        let me = env.task;
        // Runtime 1: the MPI layer (client "MPI" inside).
        let mpi = Mpi::init(&env.machine, me, MpiConfig::default());
        // Runtime 2: a PGAS-style runtime with its own client.
        let pgas = Client::create(&env.machine, me, "pgas", 1);
        // Everyone exposes a window of WORDS u64s plus an arrival counter.
        let window_mem = MemRegion::zeroed(WORDS * 8);
        let arrivals = Counter::new();
        arrivals.add_expected(8); // expect one 8-byte put from the left peer
        let my_key = env.machine.create_window(window_mem.clone(), Some(arrivals.clone()));
        env.machine.task_barrier();

        let world = mpi.world().clone();

        // Exchange window keys over MPI — the two models compose: one
        // bootstraps the other (the mixed MPI+UPC usage the paper cites).
        let key_buf = MemRegion::zeroed(8);
        key_buf.write_i64(0, my_key.0 as i64);
        let right = (world.rank() + 1) % TASKS;
        let left = (world.rank() + TASKS - 1) % TASKS;
        let recv_buf = MemRegion::zeroed(8);
        let r = mpi.irecv(&recv_buf, 0, 8, right as i32, 0, &world);
        mpi.send(&key_buf, 0, 8, left, 0, &world);
        mpi.wait(r);
        let right_key = pami_repro::pami::MemKey(recv_buf.read_i64(0) as u64);

        // PGAS phase: put my rank (as a u64) into slot `me` of the right
        // neighbor's window, then get it back to verify.
        let ctx = pgas.context(0);
        let payload = MemRegion::zeroed(8);
        payload.write_i64(0, 1000 + me as i64);
        let put_done = Counter::new();
        put_done.add_expected(8);
        ctx.put(pami_repro::pami::PutArgs {
            dest_task: right as u32,
            window: pami_repro::pami::WindowRef::at(right_key, (me as usize % WORDS) * 8),
            payload: PayloadSource::Region { region: payload, offset: 0, len: 8 },
            local_done: Some(put_done.clone()),
        })
        .unwrap();
        ctx.advance_until(|| put_done.is_complete());

        // Wait for the left neighbor's put to land in *our* window.
        ctx.advance_until(|| arrivals.is_complete());
        let got = window_mem.read_i64((left % WORDS) * 8);
        assert_eq!(got, 1000 + left as i64, "left neighbor's one-sided put landed");

        // Read the value back from the right neighbor with a one-sided get.
        let fetch = MemRegion::zeroed(8);
        let got_back = Counter::new();
        got_back.add_expected(8);
        ctx.get(pami_repro::pami::GetArgs {
            dest_task: right as u32,
            window: pami_repro::pami::WindowRef::at(right_key, (me as usize % WORDS) * 8),
            dst: pami_repro::pami::MemSlot::base(fetch.clone()),
            len: 8,
            done: Some(got_back.clone()),
        })
        .unwrap();
        ctx.advance_until(|| got_back.is_complete());
        assert_eq!(fetch.read_i64(0), 1000 + me as i64, "round-tripped through the window");

        mpi.barrier(&world);
        if world.rank() == 0 {
            println!("multi_model OK: MPI and PGAS clients coexisted on one partition");
        }
    });
}
