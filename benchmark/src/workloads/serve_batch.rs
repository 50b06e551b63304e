//! `serve_batch`: two VMs sharing one card, each driven by its own client
//! thread submitting and reaping 16-entry batches under the adaptive
//! waiter.  The submit/reap path, doorbell batching, lane routing and the
//! cross-VM contention on the shared link are what it stresses; the
//! blocking-call path and the Interrupt waiter are bypassed.

use std::sync::Arc;

use vphi::builder::{VmConfig, VphiHost, VphiVm};
use vphi::guest::GuestBuf;
use vphi::{Cq, GuestScif, Sq, SqEntry, WaitScheme};
use vphi_phi::memory::DeviceRegion;
use vphi_scif::{Port, RmaFlags, ScifAddr, ScifEndpoint};
use vphi_sim_core::units::KIB;
use vphi_sim_core::{SplitMix64, Timeline};

use crate::gen::{
    serve_round, PayloadNoise, ServeEntry, ServeKind, SERVE_BATCH, SERVE_KV_PER_BATCH, SERVE_WINDOW,
};
use crate::os::OsUsage;
use crate::record::{OpTag, Side, TrialLog};
use crate::stack::{
    Anchor, ByteFlow, DeviceServer, LeakAudit, ServerMode, StreamDigest, WorkloadStack,
};

const CLIENTS: usize = 2;
const ENDPOINTS_PER_VM: usize = 2;

/// One connection of a client — guest or native — with its device server
/// and the digest of everything sent on it.
struct Lane<E> {
    ep: E,
    server: DeviceServer,
    sent: StreamDigest,
}

/// One client: a VM, its endpoints, and the native twins.
struct Client {
    vm: VphiVm,
    guest: Vec<Lane<GuestScif>>,
    native: Vec<Lane<ScifEndpoint>>,
    /// Per guest endpoint: the buffers its KV fetches land in.
    kv_bufs: Vec<Vec<GuestBuf>>,
    native_kv: Vec<u8>,
}

pub struct ServeBatch {
    seed: u64,
    host: VphiHost,
    clients: Vec<Client>,
    noise: PayloadNoise,
    /// Host copy of the window every server exposes (KV fetch reference).
    window: Vec<u8>,
    region: Arc<DeviceRegion>,
    /// Virtual latency of the set-up's blocking 1-byte Interrupt send.
    probe_1b_us: f64,
}

/// What every client thread reads while it plays a block.
struct Shared<'a> {
    /// This run's byte size of each [`ServeKind`], by discriminant.
    sizes: [u64; 3],
    noise: &'a PayloadNoise,
    window: &'a [u8],
}

impl Shared<'_> {
    fn bytes_of(&self, kind: ServeKind) -> usize {
        self.sizes[kind as usize] as usize
    }
}

impl ServeBatch {
    pub fn build_serve_batch(seed: u64, warmup_rounds: u64) -> Self {
        let host = VphiHost::new(1);
        let mut window = vec![0u8; SERVE_WINDOW as usize];
        SplitMix64::new(seed ^ 0x6b76_5f77_696e).fill_bytes(&mut window);
        let region = host.board(0).memory().alloc(SERVE_WINDOW).expect("gddr alloc");
        region.write(0, &window).expect("fill window");

        let probe_1b_us = one_byte_interrupt_probe(&host);

        let mut next_port = 2300u16;
        let mut connect = |host: &VphiHost| {
            let server = DeviceServer::spawn_on_card(
                host,
                Port(next_port),
                ServerMode::Sink,
                Some(Arc::clone(&region)),
            );
            next_port += 1;
            server
        };
        let mut clients = Vec::new();
        for _ in 0..CLIENTS {
            let vm = host.spawn_vm(VmConfig::builder().scheme(WaitScheme::ADAPTIVE).build());
            let mut tl = Timeline::new();
            let mut guest = Vec::new();
            let mut native = Vec::new();
            let mut kv_bufs = Vec::new();
            for _ in 0..ENDPOINTS_PER_VM {
                let server = connect(&host);
                let ep = vm.open_scif(&mut tl).expect("guest open");
                ep.connect(ScifAddr::new(host.device_node(0), server.port()), &mut tl)
                    .expect("guest connect");
                server.wait_serving();
                guest.push(Lane { ep, server, sent: StreamDigest::default() });
                kv_bufs.push(
                    (0..SERVE_KV_PER_BATCH)
                        .map(|_| vm.alloc_buf(ServeKind::KvFetch.bytes(seed)).expect("kv buffer"))
                        .collect(),
                );
                let server = connect(&host);
                let ep = host.native_endpoint().expect("native endpoint");
                ep.connect(ScifAddr::new(host.device_node(0), server.port()), &mut tl)
                    .expect("native connect");
                server.wait_serving();
                native.push(Lane { ep, server, sent: StreamDigest::default() });
            }
            clients.push(Client {
                vm,
                guest,
                native,
                kv_bufs,
                native_kv: vec![0u8; ServeKind::KvFetch.bytes(seed) as usize],
            });
        }
        let mut stack = ServeBatch {
            seed,
            host,
            clients,
            noise: PayloadNoise::seeded(seed, 64 * KIB as usize),
            window,
            region,
            probe_1b_us,
        };
        let mut scratch = TrialLog::new(false, None);
        for round in 0..warmup_rounds {
            stack.play_round(round, &mut scratch);
        }
        stack
    }
}

/// The paper anchor of this workload: one blocking 1-byte send on a side
/// VM with the Interrupt waiter, as Fig. 4 measured it.
fn one_byte_interrupt_probe(host: &VphiHost) -> f64 {
    let server = DeviceServer::spawn_on_card(host, Port(2390), ServerMode::Sink, None);
    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).expect("probe open");
    ep.connect(ScifAddr::new(host.device_node(0), server.port()), &mut tl).expect("probe connect");
    server.wait_serving();
    let mut send_tl = Timeline::new();
    ep.send(&[0x5A], &mut send_tl).expect("probe send");
    let _ = ep.close(&mut tl);
    vm.shutdown();
    server.join_server();
    send_tl.total().as_micros_f64()
}

impl Client {
    /// Submit one batch on endpoint `which`, reap all of it, check it.
    fn guest_batch(
        &mut self,
        which: usize,
        slot: usize,
        batch: &[ServeEntry; SERVE_BATCH],
        shared: &Shared<'_>,
        log: &mut TrialLog,
    ) {
        let lane = &mut self.guest[which];
        let bufs = &self.kv_bufs[which];
        let mut sq = Sq::new();
        let mut next_buf = 0;
        let mut bytes = 0;
        for e in batch {
            bytes += shared.bytes_of(e.kind) as u64;
            match e.kind {
                ServeKind::KvFetch => {
                    sq.push(SqEntry::vreadfrom(&bufs[next_buf], e.off, RmaFlags::SYNC));
                    next_buf += 1;
                }
                kind => {
                    let payload = shared.noise.cut(e.off as usize, shared.bytes_of(kind));
                    lane.sent.feed(payload);
                    sq.push(SqEntry::send(payload));
                }
            }
        }
        let tag = OpTag { name: "submit_reap", class: 0, bytes, weight: SERVE_BATCH as u64, slot };
        let ep = &lane.ep;
        let reaped = log.timed_call(Side::Guest, tag, |tl| {
            let mut cq = Cq::new();
            let tokens = ep.submit(&mut sq, &mut *tl)?;
            cq.watch(&tokens);
            while !cq.outstanding().is_empty() {
                let left = cq.outstanding().len();
                ep.reap(&mut cq, left, left, &mut *tl)?;
            }
            Ok::<_, vphi_scif::ScifError>(cq.drain())
        });
        let entries = match reaped {
            Ok(entries) => entries,
            Err(e) => {
                log.fail_ops(SERVE_BATCH as u64, || format!("batch submit/reap: {e:?}"));
                return;
            }
        };
        let errors = entries.iter().filter(|e| e.result.is_err()).count() as u64
            + (SERVE_BATCH - entries.len()) as u64;
        if errors > 0 {
            log.fail_ops(errors, || format!("{errors} entries of a batch failed or went missing"));
        }
        let mut out = vec![0u8; shared.bytes_of(ServeKind::KvFetch)];
        for (buf, e) in bufs.iter().zip(batch.iter().filter(|e| e.kind == ServeKind::KvFetch)) {
            buf.peek(0, &mut out).expect("read kv buffer");
            let at = e.off as usize;
            log.check_bytes("kv fetch", &out, &shared.window[at..at + out.len()]);
        }
    }

    /// The same 16 ops, one blocking call each, on the native twin.
    fn native_batch(
        &mut self,
        which: usize,
        slot: usize,
        batch: &[ServeEntry; SERVE_BATCH],
        shared: &Shared<'_>,
        log: &mut TrialLog,
    ) {
        let lane = &mut self.native[which];
        for e in batch {
            let bytes = shared.bytes_of(e.kind) as u64;
            match e.kind {
                ServeKind::KvFetch => {
                    let tag = OpTag { name: "native_vreadfrom", class: 1, bytes, weight: 1, slot };
                    let out = &mut self.native_kv;
                    let done = log.timed_call(Side::Native, tag, |tl| {
                        lane.ep.vreadfrom(out, e.off, RmaFlags::SYNC, tl)
                    });
                    match done {
                        Ok(()) => {
                            let at = e.off as usize;
                            log.check_bytes(
                                "native kv fetch",
                                out,
                                &shared.window[at..at + out.len()],
                            );
                        }
                        Err(err) => log.fail_ops(1, || format!("native kv fetch: {err:?}")),
                    }
                }
                kind => {
                    let payload = shared.noise.cut(e.off as usize, shared.bytes_of(kind));
                    lane.sent.feed(payload);
                    let tag = OpTag { name: "native_send", class: 0, bytes, weight: 1, slot };
                    let sent = log.timed_call(Side::Native, tag, |tl| lane.ep.send(payload, tl));
                    if sent != Ok(payload.len()) {
                        log.fail_ops(1, || format!("native send returned {sent:?}"));
                    }
                }
            }
        }
    }
}

impl WorkloadStack for ServeBatch {
    fn play_round(&mut self, round: u64, log: &mut TrialLog) {
        let opened = log.open_round();
        let seed = self.seed;
        let shared = Shared {
            sizes: [ServeKind::Decode, ServeKind::KvFetch, ServeKind::Prefill]
                .map(|k| k.bytes(seed)),
            noise: &self.noise,
            window: &self.window,
        };
        let shared = &shared;
        // One log per client for the whole round, so a native call can
        // name the guest batch it twins.
        let mut logs: Vec<TrialLog> = self.clients.iter().map(|_| log.fork_client()).collect();
        // Both clients run their guest blocks together (that is the
        // contention being measured), then their native blocks together.
        for side in [Side::Guest, Side::Native] {
            // Two clients overlap, so their guest calls cannot each claim
            // the process's resource usage: account the phase as a whole.
            let os_before = (side == Side::Guest && log.os_guest.is_some()).then(OsUsage::snapshot);
            std::thread::scope(|scope| {
                for (c, (client, clog)) in self.clients.iter_mut().zip(&mut logs).enumerate() {
                    scope.spawn(move || {
                        let batches = serve_round(seed, c as u64, round);
                        for (slot, batch) in batches.iter().enumerate() {
                            // Alternate endpoints batch by batch.
                            let which = slot % ENDPOINTS_PER_VM;
                            match side {
                                Side::Guest => client.guest_batch(which, slot, batch, shared, clog),
                                Side::Native => {
                                    client.native_batch(which, slot, batch, shared, clog)
                                }
                            }
                        }
                    });
                }
            });
            if let (Some(before), Some(total)) = (os_before, log.os_guest.as_mut()) {
                total.accumulate(&OsUsage::snapshot().since(&before));
            }
        }
        // The slower client's busy time: with both running at once, that is
        // how long the block's ops took to complete.
        let guest_block_ns = logs.iter().map(|l| l.guest.wall_ns).max().unwrap_or(0);
        for clog in logs {
            log.absorb_client(clog);
        }
        log.close_round(opened, Some(guest_block_ns));
    }

    fn host(&self) -> &VphiHost {
        &self.host
    }

    fn vms(&self) -> Vec<&VphiVm> {
        self.clients.iter().map(|c| &c.vm).collect()
    }

    fn paper_anchors(&self, _log: &TrialLog) -> Vec<Anchor> {
        vec![Anchor {
            what: "vPHI 1 B send, Interrupt waiter (us)",
            measured: self.probe_1b_us,
            published: 382.0,
        }]
    }

    fn probe_bytes(&self) -> usize {
        64 * KIB as usize
    }

    fn byte_flow(&self) -> ByteFlow {
        // Sends (74 of a batch's 94 KiB) are staged and read out; KV
        // fetches are written into guest memory once.
        let sends = 74.0 / 94.0;
        ByteFlow { guest_mem_passes: 2.0 * sends + (1.0 - sends), staged_share: sends }
    }

    fn close_and_audit(self: Box<Self>, log: &mut TrialLog) -> LeakAudit {
        let mut bad = LeakAudit::default();
        let mut tl = Timeline::new();
        for client in self.clients {
            drop(client.kv_bufs);
            let mut streams = Vec::new();
            for lane in client.guest {
                let _ = lane.ep.close(&mut tl);
                streams.push((lane.server, lane.sent));
            }
            for lane in client.native {
                lane.ep.close();
                streams.push((lane.server, lane.sent));
            }
            bad = bad.merged(LeakAudit::of_vm(&client.vm));
            client.vm.shutdown();
            // Every send must have arrived, byte for byte.
            for (server, sent) in streams {
                let received = server.join_server();
                if received != sent {
                    log.fail_ops(1, || format!("stream digest {received:?}, sent {sent:?}"));
                }
            }
        }
        let _ = self.host.board(0).memory().free(self.region.offset());
        bad
    }
}
