//! All three Xeon Phi execution modes through vPHI (paper §II-A):
//! *native* (micnativeloadex), *offload* (COI pipeline), *symmetric*
//! (mpi-lite) — each run from inside a VM.

use std::sync::Arc;

use vphi::builder::{VmConfig, VphiHost};
use vphi_coi::pipeline::CoiPipeline;
use vphi_coi::process::LaunchSpec;
use vphi_coi::transport::CoiEnv;
use vphi_coi::{CoiDaemon, CoiEngine, CoiProcess, ComputeManifest, GuestEnv, NativeEnv};
use vphi_mic_tools::mpilite::{establish_leaf, establish_root, listen_root};
use vphi_mic_tools::{micnativeloadex, MicBinary};
use vphi_scif::{Port, HOST_NODE};
use vphi_sim_core::{SimDuration, Timeline};

#[test]
fn native_mode_from_a_vm() {
    let host = VphiHost::new(1);
    let daemon = CoiDaemon::spawn(&host, 0).unwrap();
    let vm = host.spawn_vm(VmConfig::default());
    let env: Arc<dyn CoiEnv> = Arc::new(GuestEnv::new(&vm));

    let binary = MicBinary::dgemm_sample(1024);
    let report = micnativeloadex(&env, 0, &binary, 112).unwrap();
    assert_eq!(report.exit_code, 0);
    assert!(report.device_time > SimDuration::ZERO);
    assert!(report.stdout.contains("dgemm_mic"));

    // STREAM and n-body binaries also run (different library closures).
    let stream = micnativeloadex(&env, 0, &MicBinary::stream(1 << 22, 10), 224).unwrap();
    assert_eq!(stream.exit_code, 0);
    let nbody = micnativeloadex(&env, 0, &MicBinary::nbody(4096, 2), 224).unwrap();
    assert_eq!(nbody.exit_code, 0);
    assert_eq!(daemon.launch_count(), 3);

    vm.shutdown();
    daemon.shutdown();
}

#[test]
fn offload_mode_from_a_vm() {
    let host = VphiHost::new(1);
    let daemon = CoiDaemon::spawn(&host, 0).unwrap();
    let vm = host.spawn_vm(VmConfig::default());
    let env: Arc<dyn CoiEnv> = Arc::new(GuestEnv::new(&vm));
    let engine = CoiEngine::get(env, 0).unwrap();

    let mut tl = Timeline::new();
    let sink = LaunchSpec {
        name: "offload_main_mic".into(),
        binary_bytes: 256 << 10,
        lib_bytes: 8 << 20,
        env_count: 0,
        manifest: ComputeManifest::new(0.0, 0, 1),
    };
    let proc = CoiProcess::launch(&engine, &sink, &mut tl).unwrap();
    let buf = proc.create_buffer(16 << 20, &mut tl).unwrap();
    proc.write_buffer(&buf, 16 << 20, &mut tl).unwrap();

    let mut pipeline = CoiPipeline::create(&proc);
    for i in 0..4 {
        let ret = pipeline
            .run_function(
                &format!("kernel{i}"),
                &[&buf],
                ComputeManifest::new(1.0e10, 0, 112),
                &mut tl,
            )
            .unwrap();
        assert_eq!(ret, 0);
    }
    assert_eq!(pipeline.history().len(), 4);
    // Four identical kernels → identical device times (determinism).
    let times: Vec<_> = pipeline.history().iter().map(|r| r.device_time).collect();
    assert!(times.windows(2).all(|w| w[0] == w[1]));

    proc.read_buffer(&buf, 1 << 20, &mut tl).unwrap();
    proc.destroy_buffer(buf, &mut tl).unwrap();
    proc.destroy();
    vm.shutdown();
    daemon.shutdown();
}

#[test]
fn symmetric_mode_with_vm_root_and_device_leaves() {
    let host = VphiHost::new(1);
    let vm = Arc::new(host.spawn_vm(VmConfig::default()));
    const SIZE: usize = 3;
    const PORT: Port = Port(988);

    // The root listens before any leaf starts.
    let mut listener = Some(listen_root(&GuestEnv::new(&vm), PORT, &mut Timeline::new()).unwrap());
    let mut handles = Vec::new();
    for rank in 0..SIZE {
        let env: Arc<dyn CoiEnv> = Arc::new(NativeEnv::on_card(&host, 0));
        let listener = listener.take();
        handles.push(std::thread::spawn(move || {
            let mut tl = Timeline::new();
            let comm = match listener {
                Some(listener) => establish_root(listener, SIZE, &mut tl),
                None => establish_leaf(env.as_ref(), HOST_NODE, PORT, rank, SIZE, &mut tl),
            }
            .unwrap();
            comm.barrier(&mut tl).unwrap();
            let sum = comm.allreduce_sum((rank + 1) as f64, &mut tl).unwrap();
            // The VM root's communication is far more expensive than the
            // on-card leaves' — return the cost for the assertion below.
            (rank, sum, tl.total())
        }));
    }
    let results: Vec<(usize, f64, SimDuration)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (_, sum, _) in &results {
        assert_eq!(*sum, 6.0); // 1+2+3
    }
    let root_cost = results.iter().find(|(r, _, _)| *r == 0).unwrap().2;
    let leaf_cost = results.iter().find(|(r, _, _)| *r == 1).unwrap().2;
    assert!(
        root_cost > leaf_cost,
        "VM rank must pay the virtualization tax: root {root_cost} vs leaf {leaf_cost}"
    );
    vm.shutdown();
}
