//! COI end-to-end: the same client code against the daemon from the host
//! (native) and from inside a VM (through vPHI) — the compatibility
//! property the paper claims for everything layered on SCIF.

use std::sync::Arc;

use vphi::builder::{VmConfig, VphiHost};
use vphi_coi::pipeline::CoiPipeline;
use vphi_coi::process::LaunchSpec;
use vphi_coi::transport::CoiEnv;
use vphi_coi::{CoiDaemon, CoiEngine, CoiProcess, ComputeManifest, GuestEnv, NativeEnv};
use vphi_sim_core::{SimDuration, Timeline};

fn dgemm_spec(n: u64, threads: u32) -> LaunchSpec {
    LaunchSpec {
        name: "dgemm_mic".into(),
        binary_bytes: 1 << 20,
        lib_bytes: 140 << 20,
        env_count: 2,
        manifest: ComputeManifest::new(2.0 * (n as f64).powi(3), 3 * n * n * 8, threads),
    }
}

#[test]
fn native_launch_runs_and_reports() {
    let host = VphiHost::new(1);
    let daemon = CoiDaemon::spawn(&host, 0).unwrap();
    let env: Arc<dyn CoiEnv> = Arc::new(NativeEnv::new(&host));
    assert_eq!(env.device_count(), 1);
    let engine = CoiEngine::get(Arc::clone(&env), 0).unwrap();

    let mut tl = Timeline::new();
    assert!(env.card_usable(0, &mut tl));
    let proc = CoiProcess::launch(&engine, &dgemm_spec(2048, 224), &mut tl).unwrap();
    assert!(proc.pid() >= 100);
    let exit = proc.wait(&mut tl).unwrap();
    assert_eq!(exit.code, 0);
    assert!(exit.stdout.contains("dgemm_mic"));
    assert!(exit.device_time > SimDuration::ZERO);
    // The caller's timeline includes the device execution.
    assert!(tl.total() >= exit.device_time);
    proc.destroy();
    assert_eq!(daemon.launch_count(), 1);
    daemon.shutdown();
}

#[test]
fn guest_launch_through_vphi_is_identical_but_slower() {
    let host = VphiHost::new(1);
    let daemon = CoiDaemon::spawn(&host, 0).unwrap();

    // Native reference.
    let native_env: Arc<dyn CoiEnv> = Arc::new(NativeEnv::new(&host));
    let engine = CoiEngine::get(Arc::clone(&native_env), 0).unwrap();
    let mut native_tl = Timeline::new();
    let proc = CoiProcess::launch(&engine, &dgemm_spec(1024, 112), &mut native_tl).unwrap();
    let native_exit = proc.wait(&mut native_tl).unwrap();
    proc.destroy();

    // Same client logic, inside a VM.
    let vm = host.spawn_vm(VmConfig::default());
    let guest_env: Arc<dyn CoiEnv> = Arc::new(GuestEnv::new(&vm));
    assert_eq!(guest_env.device_count(), 1);
    let mut tl = Timeline::new();
    assert!(guest_env.card_usable(0, &mut tl));
    let engine = CoiEngine::get(Arc::clone(&guest_env), 0).unwrap();
    let mut guest_tl = Timeline::new();
    let proc = CoiProcess::launch(&engine, &dgemm_spec(1024, 112), &mut guest_tl).unwrap();
    let guest_exit = proc.wait(&mut guest_tl).unwrap();
    proc.destroy();

    // Functional equivalence…
    assert_eq!(guest_exit.code, 0);
    assert_eq!(guest_exit.device_time, native_exit.device_time, "on-device time identical");
    assert_eq!(guest_exit.stdout, native_exit.stdout);
    // …with virtualization cost on the total.
    assert!(
        guest_tl.total() > native_tl.total(),
        "vPHI launch must cost more: {} vs {}",
        guest_tl.total(),
        native_tl.total()
    );

    vm.shutdown();
    daemon.shutdown();
}

#[test]
fn offload_buffers_and_run_function() {
    let host = VphiHost::new(1);
    let daemon = CoiDaemon::spawn(&host, 0).unwrap();
    let env: Arc<dyn CoiEnv> = Arc::new(NativeEnv::new(&host));
    let engine = CoiEngine::get(env, 0).unwrap();

    let mut tl = Timeline::new();
    // A sink process (no main work — it hosts offloaded functions).
    let spec = LaunchSpec {
        name: "offload_main_mic".into(),
        binary_bytes: 512 << 10,
        lib_bytes: 20 << 20,
        env_count: 0,
        manifest: ComputeManifest::new(0.0, 0, 1),
    };
    let proc = CoiProcess::launch(&engine, &spec, &mut tl).unwrap();

    let a = proc.create_buffer(64 << 20, &mut tl).unwrap();
    let b = proc.create_buffer(64 << 20, &mut tl).unwrap();
    let c = proc.create_buffer(64 << 20, &mut tl).unwrap();
    proc.write_buffer(&a, 64 << 20, &mut tl).unwrap();
    proc.write_buffer(&b, 64 << 20, &mut tl).unwrap();

    let mut pipeline = CoiPipeline::create(&proc);
    let n = 2048u64;
    let ret = pipeline
        .run_function(
            "offload_dgemm",
            &[&a, &b, &c],
            ComputeManifest::new(2.0 * (n as f64).powi(3), 3 * n * n * 8, 224),
            &mut tl,
        )
        .unwrap();
    assert_eq!(ret, 0);
    assert_eq!(pipeline.history().len(), 1);
    assert!(pipeline.device_time_total() > SimDuration::ZERO);

    assert_eq!(proc.read_buffer(&c, 64 << 20, &mut tl).unwrap(), 64 << 20);
    proc.destroy_buffer(a, &mut tl).unwrap();
    proc.destroy_buffer(b, &mut tl).unwrap();
    proc.destroy_buffer(c, &mut tl).unwrap();
    proc.destroy();
    daemon.shutdown();
}

#[test]
fn daemon_rejects_bad_version_and_bad_buffers() {
    let host = VphiHost::new(1);
    let daemon = CoiDaemon::spawn(&host, 0).unwrap();
    let env: Arc<dyn CoiEnv> = Arc::new(NativeEnv::new(&host));
    let engine = CoiEngine::get(env, 0).unwrap();

    let mut tl = Timeline::new();
    // Valid session, invalid buffer id.
    let spec = LaunchSpec {
        name: "noop".into(),
        binary_bytes: 1024,
        lib_bytes: 0,
        env_count: 0,
        manifest: ComputeManifest::new(0.0, 0, 1),
    };
    let proc = CoiProcess::launch(&engine, &spec, &mut tl).unwrap();
    let bogus = vphi_coi::buffer::CoiBuffer::new_for_tests(999, 4096);
    assert!(proc.write_buffer(&bogus, 1, &mut tl).is_err());
    proc.destroy();

    // Unknown mic index.
    let env2: Arc<dyn CoiEnv> = Arc::new(NativeEnv::new(&host));
    assert!(CoiEngine::get(env2, 5).is_err());
    daemon.shutdown();
}

/// One launch the way `micnativeloadex` makes it: preflight, a fresh
/// daemon connection, the process, its exit, the hang-up.
fn loadex(env: &Arc<dyn CoiEnv>, spec: &LaunchSpec) -> i32 {
    let mut tl = Timeline::new();
    assert!(env.card_usable(0, &mut tl));
    let engine = CoiEngine::get(Arc::clone(env), 0).unwrap();
    let proc = CoiProcess::launch(&engine, spec, &mut tl).unwrap();
    let exit = proc.wait(&mut tl).unwrap();
    proc.destroy();
    exit.code
}

/// The daemon serves a launch on a parked thread: 400 launches one after
/// another, guest and native alternating, each waited out on the card
/// side too, leave it the one thread it needed for one.  It kept every
/// session's thread until shutdown, and so 400 thread stacks here.
#[test]
fn sequential_launches_do_not_pile_up_session_threads() {
    let host = VphiHost::new(1);
    let daemon = CoiDaemon::spawn(&host, 0).unwrap();
    let vm = host.spawn_vm(VmConfig::default());
    let guest: Arc<dyn CoiEnv> = Arc::new(GuestEnv::new(&vm));
    let native: Arc<dyn CoiEnv> = Arc::new(NativeEnv::new(&host));
    let spec = LaunchSpec {
        name: "churn_mic".into(),
        binary_bytes: 4096,
        lib_bytes: 0,
        env_count: 0,
        manifest: ComputeManifest::new(1e6, 1 << 12, 1),
    };
    // The client's last call returns before the card side has ended its
    // session; the next launch starts once it has.
    let settled = || {
        while daemon.sessions_in_progress() > 0 {
            std::thread::yield_now();
        }
    };
    for _ in 0..200 {
        assert_eq!(loadex(&guest, &spec), 0);
        settled();
        assert_eq!(loadex(&native, &spec), 0);
        settled();
    }
    assert_eq!(daemon.launch_count(), 400);
    assert_eq!(daemon.session_threads(), 1);
    drop(guest);
    vm.shutdown();
    daemon.shutdown();
    assert_eq!(daemon.session_threads(), 0);
}

#[test]
fn multiple_vms_share_one_daemon() {
    let host = VphiHost::new(1);
    let daemon = CoiDaemon::spawn(&host, 0).unwrap();
    let vms: Vec<_> = (0..3).map(|_| host.spawn_vm(VmConfig::default())).collect();

    let mut handles = Vec::new();
    for vm in &vms {
        let env: Arc<dyn CoiEnv> = Arc::new(GuestEnv::new(vm));
        handles.push(std::thread::spawn(move || {
            let engine = CoiEngine::get(env, 0).unwrap();
            let mut tl = Timeline::new();
            let proc = CoiProcess::launch(&engine, &dgemm_spec(512, 56), &mut tl).unwrap();
            let exit = proc.wait(&mut tl).unwrap();
            proc.destroy();
            exit.code
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), 0);
    }
    assert_eq!(daemon.launch_count(), 3);
    for vm in &vms {
        vm.shutdown();
    }
    daemon.shutdown();
}
