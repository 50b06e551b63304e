//! `micnativeloadex` — launch a MIC binary on the card from the host (or
//! the VM) and wait for it.
//!
//! The paper (§IV-C): "we execute micnativeloadex with dgemm as the
//! supplied binary on the host and on the VM … we also measure the total
//! time of execution from the moment that micnativeloadex is launched …
//! until the final results are produced and the tool finishes execution."
//! [`LoadexReport`] carries exactly that total plus its decomposition.

use std::sync::Arc;

use vphi_coi::process::LaunchSpec;
use vphi_coi::transport::CoiEnv;
use vphi_coi::{CoiEngine, CoiProcess};
use vphi_scif::{ScifError, ScifResult};
use vphi_sim_core::{SimDuration, Timeline};

use crate::binary::MicBinary;

/// The tool's report for one launch.
#[derive(Debug, Clone)]
pub struct LoadexReport {
    /// Environment the tool ran in ("native" / "vmN").
    pub env: String,
    pub binary: String,
    pub threads: u32,
    pub exit_code: i32,
    pub stdout: String,
    /// Wall-to-wall virtual time: preflight + transfer + execution + exit
    /// collection — the Y axis of Figs. 6–8.
    pub total_time: SimDuration,
    /// Time the binary actually ran on the card (identical native vs VM —
    /// the paper "observed no performance degradation … concerning actual
    /// execution time on the device").
    pub device_time: SimDuration,
    /// Everything except device execution: the launch/teardown overhead
    /// the virtualization tax applies to.
    pub launch_time: SimDuration,
    /// Bytes shipped (binary + library closure).
    pub shipped_bytes: u64,
    /// The tool's full timeline, for breakdowns.
    pub timeline: Timeline,
}

/// Run `binary` on card `mic` with `threads` threads through `env`.
///
/// `MIC_OMP_NUM_THREADS`-style thread selection is the `threads`
/// parameter; the sysfs preflight and the COI dialogue mirror the real
/// tool's behaviour.
pub fn micnativeloadex(
    env: &Arc<dyn CoiEnv>,
    mic: usize,
    binary: &MicBinary,
    threads: u32,
) -> ScifResult<LoadexReport> {
    let mut tl = Timeline::new();

    // Preflight: the tool reads /sys/class/mic/micN and refuses cards that
    // are not online x100 parts.
    if !env.card_usable(mic as u32, &mut tl) {
        return Err(ScifError::NoDev);
    }

    let engine = CoiEngine::get(Arc::clone(env), mic)?;
    let spec = LaunchSpec {
        name: binary.name.clone(),
        binary_bytes: binary.image_bytes,
        lib_bytes: binary.lib_bytes(),
        env_count: 4, // LD_LIBRARY_PATH, OMP threads, affinity, locale
        manifest: binary.workload.manifest(threads),
    };
    let process = CoiProcess::launch(&engine, &spec, &mut tl)?;
    let exit = process.wait(&mut tl)?;
    process.destroy();

    let total_time = tl.total();
    Ok(LoadexReport {
        env: env.label(),
        binary: binary.name.clone(),
        threads,
        exit_code: exit.code,
        stdout: exit.stdout,
        total_time,
        device_time: exit.device_time,
        launch_time: total_time.saturating_sub(exit.device_time),
        shipped_bytes: binary.total_transfer_bytes(),
        timeline: tl,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vphi::builder::{VmConfig, VphiHost};
    use vphi_coi::{CoiDaemon, GuestEnv, NativeEnv};

    #[test]
    fn native_loadex_runs_dgemm() {
        let host = VphiHost::new(1);
        let daemon = CoiDaemon::spawn(&host, 0).unwrap();
        let env: Arc<dyn CoiEnv> = Arc::new(NativeEnv::new(&host));
        let binary = MicBinary::dgemm_sample(2048);
        let report = micnativeloadex(&env, 0, &binary, 224).unwrap();
        assert_eq!(report.exit_code, 0);
        assert!(report.stdout.contains("dgemm_mic"));
        assert!(report.device_time > SimDuration::ZERO);
        assert!(report.total_time > report.device_time);
        assert_eq!(report.shipped_bytes, binary.total_transfer_bytes());
        daemon.shutdown();
    }

    #[test]
    fn loadex_refuses_missing_card() {
        let host = VphiHost::new(1);
        let env: Arc<dyn CoiEnv> = Arc::new(NativeEnv::new(&host));
        let binary = MicBinary::stream(1 << 16, 1);
        assert_eq!(micnativeloadex(&env, 3, &binary, 56).err(), Some(ScifError::NoDev));
    }

    #[test]
    fn vm_loadex_same_device_time_higher_total() {
        let host = VphiHost::new(1);
        let daemon = CoiDaemon::spawn(&host, 0).unwrap();
        let binary = MicBinary::dgemm_sample(1024);

        let native: Arc<dyn CoiEnv> = Arc::new(NativeEnv::new(&host));
        let native_report = micnativeloadex(&native, 0, &binary, 112).unwrap();

        let vm = host.spawn_vm(VmConfig::default());
        let guest: Arc<dyn CoiEnv> = Arc::new(GuestEnv::new(&vm));
        let vm_report = micnativeloadex(&guest, 0, &binary, 112).unwrap();

        assert_eq!(vm_report.device_time, native_report.device_time);
        assert!(vm_report.total_time > native_report.total_time);
        assert!(vm_report.env.starts_with("vm"));
        assert_eq!(native_report.env, "native");

        vm.shutdown();
        daemon.shutdown();
    }
}
