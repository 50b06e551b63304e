//! `dgemm_launch`: `micnativeloadex` of the dgemm sample through the guest
//! and the native COI environments.  The only user of `coi`, `mic-tools`,
//! the uOS scheduler and the chunked `send_timed` path: the application's
//! view of the request path, and the Figs. 6–8 amortisation shape.

use std::sync::Arc;

use vphi::builder::{VmConfig, VphiHost, VphiVm};
use vphi_coi::transport::CoiEnv;
use vphi_coi::{CoiDaemon, GuestEnv, NativeEnv};
use vphi_mic_tools::{micnativeloadex, MicBinary};

use crate::gen::{dgemm_orders, dgemm_round, DGEMM_THREADS};
use crate::record::{OpTag, Side, TrialLog};
use crate::stack::{Anchor, ByteFlow, Extras, LeakAudit, WorkloadStack};

pub struct DgemmLaunch {
    seed: u64,
    host: VphiHost,
    vm: VphiVm,
    daemon: CoiDaemon,
    guest_env: Arc<dyn CoiEnv>,
    native_env: Arc<dyn CoiEnv>,
    extras: Extras,
    /// Worst relative gap between guest and native on-device time.
    device_gap: f64,
}

impl DgemmLaunch {
    pub fn build_dgemm_launch(seed: u64, warmup_rounds: u64) -> Self {
        let host = VphiHost::new(1);
        let daemon = CoiDaemon::spawn(&host, 0).expect("coi daemon");
        let vm = host.spawn_vm(VmConfig::default());
        let guest_env: Arc<dyn CoiEnv> = Arc::new(GuestEnv::new(&vm));
        let native_env: Arc<dyn CoiEnv> = Arc::new(NativeEnv::new(&host));
        let mut stack = DgemmLaunch {
            seed,
            host,
            vm,
            daemon,
            guest_env,
            native_env,
            extras: Extras::default(),
            device_gap: 0.0,
        };
        let mut scratch = TrialLog::new(false, None);
        for round in 0..warmup_rounds {
            stack.play_round(round, &mut scratch);
        }
        stack.extras = Extras::default();
        stack.device_gap = 0.0;
        stack
    }
}

impl WorkloadStack for DgemmLaunch {
    fn play_round(&mut self, round: u64, log: &mut TrialLog) {
        let opened = log.open_round();
        for (slot, n) in dgemm_round(self.seed, round).into_iter().enumerate() {
            let binary = MicBinary::dgemm_sample(n);
            let class = dgemm_orders(self.seed).iter().position(|o| *o == n).unwrap_or(0) as u8;
            let bytes = binary.total_transfer_bytes();
            let tag = |name| OpTag { name, class, bytes, weight: 1, slot };
            let guest = log.timed_call(Side::Guest, tag("loadex"), |tl| {
                let report = micnativeloadex(&self.guest_env, 0, &binary, DGEMM_THREADS);
                // The tool keeps its own timeline; hand its spans over.
                if let Ok(r) = &report {
                    tl.absorb(&r.timeline);
                }
                report
            });
            let native_before = log.native.wall_ns;
            let native = log.timed_call(Side::Native, tag("native_loadex"), |tl| {
                let report = micnativeloadex(&self.native_env, 0, &binary, DGEMM_THREADS);
                if let Ok(r) = &report {
                    tl.absorb(&r.timeline);
                }
                report
            });
            let (guest, native) = match (guest, native) {
                (Ok(g), Ok(n)) => (g, n),
                (g, n) => {
                    log.fail_ops(1, || {
                        format!(
                            "loadex n={n_}: guest {:?}, native {:?}",
                            g.err(),
                            n.err(),
                            n_ = binary.name
                        )
                    });
                    continue;
                }
            };
            for (env, report) in [("guest", &guest), ("native", &native)] {
                if report.exit_code != 0 || !report.stdout.contains("dgemm") {
                    log.fail_ops(1, || format!("{env} dgemm n={n}: exit {}", report.exit_code));
                }
            }
            // The paper "observed no performance degradation concerning
            // actual execution time on the device".
            let (dev_g, dev_n) = (guest.device_time.as_nanos(), native.device_time.as_nanos());
            if dev_g != dev_n {
                self.extras.device_time_mismatch += 1;
            }
            self.device_gap =
                self.device_gap.max(dev_g.abs_diff(dev_n) as f64 / dev_n.max(1) as f64);
            self.extras.launches += 1;
            self.extras.device_time_virt_ms += guest.device_time.as_millis_f64();
            self.extras.launch_virt_ms += guest.launch_time.as_millis_f64();
            self.extras.launch_native_wall_us += (log.native.wall_ns - native_before) as f64 / 1e3;
        }
        log.close_round(opened, None);
    }

    fn host(&self) -> &VphiHost {
        &self.host
    }

    fn vms(&self) -> Vec<&VphiVm> {
        vec![&self.vm]
    }

    fn paper_anchors(&self, _log: &TrialLog) -> Vec<Anchor> {
        vec![Anchor {
            what: "on-device time, VM / host",
            measured: 1.0 + self.device_gap,
            published: 1.0,
        }]
    }

    fn extras(&self) -> Extras {
        self.extras.clone()
    }

    fn probe_bytes(&self) -> usize {
        4096
    }

    fn byte_flow(&self) -> ByteFlow {
        // The image travels as timed sends: the costs are charged, no
        // payload byte moves.
        ByteFlow { guest_mem_passes: 0.0, staged_share: 0.0 }
    }

    fn close_and_audit(self: Box<Self>, _log: &mut TrialLog) -> LeakAudit {
        drop(self.guest_env);
        drop(self.native_env);
        let bad = LeakAudit::of_vm(&self.vm);
        self.vm.shutdown();
        self.daemon.shutdown();
        bad
    }
}
