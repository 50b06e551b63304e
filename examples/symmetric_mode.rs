//! **Symmetric mode** — ranks of one parallel application on the VM *and*
//! on the card, communicating MPI-style over SCIF (paper §II-A).
//!
//! Rank 0 runs in a VM (through vPHI); ranks 1..3 run on the coprocessor.
//! They distribute a dot-product, allreduce the partials, and verify.
//!
//! ```text
//! cargo run --release -p vphi-examples --bin symmetric_mode
//! ```

use std::sync::Arc;

use vphi::builder::{VmConfig, VphiHost};
use vphi_coi::transport::CoiEnv;
use vphi_coi::{GuestEnv, NativeEnv};
use vphi_mic_tools::mpilite::{establish_leaf, establish_root, listen_root};
use vphi_scif::{Port, HOST_NODE};
use vphi_sim_core::Timeline;

fn main() {
    const SIZE: usize = 4;
    const PORT: Port = Port(600);
    const ELEMS: usize = 1 << 16;

    let host = VphiHost::new(1);
    let vm = host.spawn_vm(VmConfig::default());
    println!("symmetric world: rank 0 in VM {}, ranks 1..{SIZE} on the card\n", vm.vm().id());

    let x: Vec<f64> = (0..ELEMS).map(|i| (i % 7) as f64).collect();
    let y: Vec<f64> = (0..ELEMS).map(|i| (i % 5) as f64).collect();
    let expected: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();

    // The root listens before any leaf starts, as mpirun brings its
    // rendezvous up first; each leaf then connects once.
    let mut listener =
        Some(listen_root(&GuestEnv::new(&vm), PORT, &mut Timeline::new()).expect("root"));
    let mut handles = Vec::new();
    for rank in 0..SIZE {
        let env: Arc<dyn CoiEnv> = if rank == 0 {
            Arc::new(GuestEnv::new(&vm))
        } else {
            Arc::new(NativeEnv::on_card(&host, 0))
        };
        let listener = listener.take();
        let (x, y) = (x.clone(), y.clone());
        handles.push(std::thread::spawn(move || {
            let mut tl = Timeline::new();
            let comm = match listener {
                Some(listener) => establish_root(listener, SIZE, &mut tl),
                None => establish_leaf(env.as_ref(), HOST_NODE, PORT, rank, SIZE, &mut tl),
            }
            .expect("rank");
            // Each rank owns a contiguous slice of the vectors.
            let chunk = ELEMS / SIZE;
            let lo = rank * chunk;
            let hi = if rank == SIZE - 1 { ELEMS } else { lo + chunk };
            let partial: f64 = x[lo..hi].iter().zip(&y[lo..hi]).map(|(a, b)| a * b).sum();
            comm.barrier(&mut tl).expect("barrier");
            let total = comm.allreduce_sum(partial, &mut tl).expect("allreduce");
            (rank, env.label(), partial, total, tl.total())
        }));
    }

    for h in handles {
        let (rank, where_, partial, total, cost) = h.join().expect("rank");
        println!("rank {rank} on {where_:7}: partial {partial:12.1}, allreduce {total:12.1}, comm cost {cost}");
        assert!((total - expected).abs() < 1e-6, "allreduce mismatch");
    }
    println!("\nall ranks agree: dot(x,y) = {expected}");

    vm.shutdown();
}
