//! `msg_small`: blocking send-then-recv echoes of 1 B – 4 KiB on one VM
//! with the paper-default config.  The fixed per-request path is all of
//! the cost; no bulk copy happens.

use vphi::builder::{VmConfig, VphiHost, VphiVm};
use vphi::GuestScif;
use vphi_scif::{Port, ScifAddr, ScifEndpoint};
use vphi_sim_core::Timeline;

use crate::gen::{msg_round, MsgOp, PayloadNoise, MSG_SIZES};
use crate::record::{OpTag, Side, SideLog, TrialLog};
use crate::stack::{Anchor, ByteFlow, DeviceServer, LeakAudit, ServerMode, WorkloadStack};

/// Sample classes: a send and a recv of each size are separate ops.
const SEND: u8 = 0;
const RECV: u8 = 4;

pub struct MsgSmall {
    seed: u64,
    host: VphiHost,
    vm: VphiVm,
    guest: GuestScif,
    native: ScifEndpoint,
    servers: Vec<DeviceServer>,
    noise: PayloadNoise,
    echo: Vec<u8>,
}

impl MsgSmall {
    pub fn build_msg_small(seed: u64, warmup_rounds: u64) -> Self {
        let host = VphiHost::new(1);
        let guest_server = DeviceServer::spawn_on_card(&host, Port(2100), ServerMode::Echo, None);
        let native_server = DeviceServer::spawn_on_card(&host, Port(2101), ServerMode::Echo, None);
        let vm = host.spawn_vm(VmConfig::default());
        let mut tl = Timeline::new();
        let guest = vm.open_scif(&mut tl).expect("guest open");
        guest
            .connect(ScifAddr::new(host.device_node(0), guest_server.port()), &mut tl)
            .expect("guest connect");
        guest_server.wait_serving();
        let native = host.native_endpoint().expect("native endpoint");
        native
            .connect(ScifAddr::new(host.device_node(0), native_server.port()), &mut tl)
            .expect("native connect");
        native_server.wait_serving();
        let max = MSG_SIZES[MSG_SIZES.len() - 1];
        let mut stack = MsgSmall {
            seed,
            host,
            vm,
            guest,
            native,
            servers: vec![guest_server, native_server],
            noise: PayloadNoise::seeded(seed, max),
            echo: vec![0u8; max],
        };
        let mut scratch = TrialLog::new(false, None);
        for round in 0..warmup_rounds {
            stack.play_round(round, &mut scratch);
        }
        stack
    }

    fn exchange_block(&mut self, side: Side, ops: &[MsgOp], log: &mut TrialLog) {
        for (slot, op) in ops.iter().enumerate() {
            let payload = self.noise.cut(op.noise_off, op.len);
            let bytes = op.len as u64;
            let send =
                OpTag { name: "send", class: SEND + op.class, bytes, weight: 1, slot: 2 * slot };
            let recv = OpTag {
                name: "recv",
                class: RECV + op.class,
                bytes,
                weight: 1,
                slot: 2 * slot + 1,
            };
            let out = &mut self.echo[..op.len];
            out.fill(0);
            let (sent, got) = match side {
                Side::Guest => (
                    log.timed_call(side, send, |tl| self.guest.send(payload, tl)),
                    log.timed_call(side, recv, |tl| self.guest.recv(out, tl)),
                ),
                Side::Native => (
                    log.timed_call(side, send, |tl| self.native.send(payload, tl)),
                    log.timed_call(side, recv, |tl| self.native.recv(out, tl)),
                ),
            };
            if sent != Ok(op.len) {
                log.fail_ops(1, || format!("send of {} B returned {sent:?}", op.len));
            }
            if got != Ok(op.len) {
                log.fail_ops(1, || format!("recv of {} B returned {got:?}", op.len));
            } else {
                log.check_bytes("echo", out, payload);
            }
        }
    }
}

impl WorkloadStack for MsgSmall {
    fn play_round(&mut self, round: u64, log: &mut TrialLog) {
        let ops = msg_round(self.seed, round);
        let opened = log.open_round();
        self.exchange_block(Side::Guest, &ops, log);
        self.exchange_block(Side::Native, &ops, log);
        log.close_round(opened, None);
    }

    fn host(&self) -> &VphiHost {
        &self.host
    }

    fn vms(&self) -> Vec<&VphiVm> {
        vec![&self.vm]
    }

    fn paper_anchors(&self, log: &TrialLog) -> Vec<Anchor> {
        // Fig. 4: a 1-byte send costs 7 µs natively and 382 µs through vPHI.
        let one_byte = |side: &SideLog| side.virt_pct(50.0, |c| c == SEND) / 1e3;
        vec![
            Anchor {
                what: "native 1 B send (us)",
                measured: one_byte(&log.native),
                published: 7.0,
            },
            Anchor { what: "vPHI 1 B send (us)", measured: one_byte(&log.guest), published: 382.0 },
        ]
    }

    fn probe_bytes(&self) -> usize {
        MSG_SIZES[MSG_SIZES.len() - 1]
    }

    fn byte_flow(&self) -> ByteFlow {
        // Every byte is staged by the frontend and read out by the backend.
        ByteFlow { guest_mem_passes: 2.0, staged_share: 1.0 }
    }

    fn close_and_audit(self: Box<Self>, _log: &mut TrialLog) -> LeakAudit {
        let mut tl = Timeline::new();
        let _ = self.guest.close(&mut tl);
        self.native.close();
        let bad = LeakAudit::of_vm(&self.vm);
        self.vm.shutdown();
        for server in self.servers {
            server.join_server();
        }
        bad
    }
}
