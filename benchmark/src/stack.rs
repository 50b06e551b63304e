//! Pieces every workload's stack is built from: device-side servers, the
//! workload interface, and the zero-leak audit.

use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;

use vphi::builder::{VphiHost, VphiVm};
use vphi_phi::memory::DeviceRegion;
use vphi_scif::window::WindowBacking;
use vphi_scif::{Port, Prot, ScifEndpoint};
use vphi_sim_core::Timeline;

use crate::record::TrialLog;

/// What a device-side server does with the bytes it receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerMode {
    /// Send every byte straight back (`msg_small`).
    Echo,
    /// Drain and digest (`serve_batch`, the RMA window servers).
    Sink,
}

/// Byte count and byte sum of everything a sink server received; the
/// client keeps the same digest of what it sent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamDigest {
    pub bytes: u64,
    pub sum: u64,
}

impl StreamDigest {
    pub fn feed(&mut self, data: &[u8]) {
        self.bytes += data.len() as u64;
        self.sum += data.iter().map(|b| *b as u64).sum::<u64>();
    }
}

/// A server thread on the card: one listening port, one connection.
pub struct DeviceServer {
    port: Port,
    ready: Receiver<()>,
    handle: JoinHandle<StreamDigest>,
}

impl DeviceServer {
    /// Bind `port` on card 0 and serve one connection in `mode`.  With a
    /// `window`, the connection registers it at offset 0 right after the
    /// accept, before any byte is served.
    pub fn spawn_on_card(
        host: &VphiHost,
        port: Port,
        mode: ServerMode,
        window: Option<Arc<DeviceRegion>>,
    ) -> DeviceServer {
        let listener = host.device_endpoint(0).expect("device endpoint");
        let (ready_tx, ready) = channel();
        let handle = std::thread::spawn(move || {
            let mut tl = Timeline::new();
            listener.bind(port, &mut tl).expect("device bind");
            listener.listen(2, &mut tl).expect("device listen");
            ready_tx.send(()).expect("harness gone before listen");
            let conn = listener.accept(&mut tl).expect("device accept");
            if let Some(region) = window {
                let len = region.len();
                conn.register(
                    Some(0),
                    len,
                    Prot::READ_WRITE,
                    WindowBacking::Device(region),
                    &mut tl,
                )
                .expect("device register");
            }
            ready_tx.send(()).expect("harness gone before serve");
            serve_connection(&conn, mode)
        });
        ready.recv().expect("device server died before listening");
        DeviceServer { port, ready, handle }
    }

    pub fn port(&self) -> Port {
        self.port
    }

    /// Block until the accepted connection is being served (its window,
    /// if any, is registered).  Call after connecting.
    pub fn wait_serving(&self) {
        self.ready.recv().expect("device server died before serving");
    }

    /// Join after the client closed; returns the sink digest.
    pub fn join_server(self) -> StreamDigest {
        self.handle.join().expect("device server panicked")
    }
}

fn serve_connection(conn: &ScifEndpoint, mode: ServerMode) -> StreamDigest {
    let mut digest = StreamDigest::default();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        // Block for the first byte, then take whatever else is queued.
        let mut tl = Timeline::new();
        match conn.recv(&mut buf[..1], &mut tl) {
            Ok(0) | Err(_) => return digest,
            Ok(_) => {}
        }
        let more = conn.try_recv(&mut buf[1..], &mut tl).unwrap_or(0);
        let got = &buf[..1 + more];
        match mode {
            ServerMode::Echo => {
                if conn.send(got, &mut tl).is_err() {
                    return digest;
                }
            }
            ServerMode::Sink => digest.feed(got),
        }
    }
}

/// A paper anchor reproduced in this run.
#[derive(Debug, Clone)]
pub struct Anchor {
    pub what: &'static str,
    pub measured: f64,
    pub published: f64,
}

impl Anchor {
    /// Relative error against the published value, in percent.
    pub fn err_pct(&self) -> f64 {
        if self.published == 0.0 {
            return if self.measured == 0.0 { 0.0 } else { 100.0 };
        }
        (self.measured - self.published).abs() / self.published * 100.0
    }
}

/// Workload-specific numbers that only some workloads produce.
#[derive(Debug, Clone, Default)]
pub struct Extras {
    pub device_time_virt_ms: f64,
    pub device_time_mismatch: u64,
    pub launches: u64,
    pub launch_virt_ms: f64,
    pub launch_native_wall_us: f64,
}

/// How a workload's payload bytes travel on the guest path — what the
/// `wall.share.*` estimate multiplies the copy probes' unit costs by.
#[derive(Debug, Clone, Copy)]
pub struct ByteFlow {
    /// Copies through guest memory per payload byte, beyond the copy the
    /// native path makes too.
    pub guest_mem_passes: f64,
    /// Share of the payload bytes that cross frontend staging.
    pub staged_share: f64,
}

/// A built, warmed-up workload stack.
pub trait WorkloadStack {
    /// One guest block interleaved with its native twin block.
    fn play_round(&mut self, round: u64, log: &mut TrialLog);

    fn host(&self) -> &VphiHost;

    /// The VMs whose counters the layer metrics sum.
    fn vms(&self) -> Vec<&VphiVm>;

    /// Paper anchors reproduced by the ops in `log`.
    fn paper_anchors(&self, log: &TrialLog) -> Vec<Anchor>;

    fn extras(&self) -> Extras {
        Extras::default()
    }

    /// Payload size the layer probes should use for this workload.
    fn probe_bytes(&self) -> usize;

    fn byte_flow(&self) -> ByteFlow;

    /// Whether the low two bits of a sample class are an RMA size class.
    fn has_size_classes(&self) -> bool {
        false
    }

    /// Close every endpoint, run the zero-leak audit, stop every thread.
    fn close_and_audit(self: Box<Self>, log: &mut TrialLog) -> LeakAudit;
}

/// What must be zero once a trial's endpoints are closed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeakAudit {
    pub open_endpoints: u64,
    pub pending_tokens: u64,
    pub mapped_windows: u64,
    pub inflight: u64,
    pub sync_violations: u64,
}

impl LeakAudit {
    /// The zero-leak audit of one VM after its endpoints closed.
    pub fn of_vm(vm: &VphiVm) -> LeakAudit {
        let aperture = vm.backend().inner().aperture();
        LeakAudit {
            open_endpoints: vm.backend().open_endpoints() as u64,
            pending_tokens: vm.frontend().pending_tokens() as u64,
            mapped_windows: aperture.mapped_windows() as u64,
            inflight: aperture.inflight_total(),
            // Process-wide, and only counted in builds with the audit on.
            sync_violations: vphi_sync::audit::violation_count(),
        }
    }

    /// Sum with another VM's audit (violations are process-wide already).
    pub fn merged(self, other: LeakAudit) -> LeakAudit {
        LeakAudit {
            open_endpoints: self.open_endpoints + other.open_endpoints,
            pending_tokens: self.pending_tokens + other.pending_tokens,
            mapped_windows: self.mapped_windows + other.mapped_windows,
            inflight: self.inflight + other.inflight,
            sync_violations: self.sync_violations.max(other.sync_violations),
        }
    }

    /// One line per nonzero count; empty = clean.
    pub fn violations(&self) -> Vec<String> {
        [
            ("open_endpoints", self.open_endpoints),
            ("pending_tokens", self.pending_tokens),
            ("aperture.mapped_windows", self.mapped_windows),
            ("aperture.inflight_total", self.inflight),
            ("sync.violations", self.sync_violations),
        ]
        .iter()
        .filter(|(_, n)| *n != 0)
        .map(|(what, n)| format!("{what} = {n}, must be 0"))
        .collect()
    }
}
