//! # vphi-dev-support — the server and the client every experiment shares
//!
//! Every figure, example and integration test is "a SCIF server on the
//! card plus a client on the host or in a VM".  The server half is a
//! [`CardService`] running one of three sessions — [`drain`] (the sink of
//! the send-receive benchmark), a byte-stream echo ([`echo_server`]), or a
//! registered GDDR window ([`window`], [`window_timed`]) — on a port the
//! card picks; the client
//! half is a [`GuestRig`] (VM + open + connect, torn down in the right
//! order on drop) or its native twin [`native_connect`].

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vphi::builder::{VmConfig, VphiHost, VphiVm};
use vphi::guest::GuestBuf;
use vphi::GuestScif;
use vphi_phi::{DeviceMemory, DeviceRegion, MemError};
use vphi_scif::window::WindowBacking;
use vphi_scif::{CardService, Port, Prot, RmaFlags, ScifAddr, ScifEndpoint};
use vphi_sim_core::Timeline;

/// Serve `session` on card `card`, on a port of the card's choosing
/// (`.addr()` is where to connect).
pub fn serve<T: Send + 'static>(
    host: &VphiHost,
    card: usize,
    session: impl Fn(ScifEndpoint) -> T + Send + Sync + 'static,
) -> CardService<T> {
    let listener = host.device_endpoint(card).expect("device endpoint");
    CardService::spawn(listener, Port::ANY, format!("card{card}-server"), session)
        .expect("card service")
}

/// Receive what is queued on `conn`; with nothing queued, block for one
/// byte.  Zero is the peer's hang-up (or a dead connection).  Nobody reads
/// a server's timeline, so it is emptied rather than left to grow with the
/// connection.
fn recv_some(conn: &ScifEndpoint, buf: &mut [u8], tl: &mut Timeline) -> usize {
    tl.clear();
    match conn.try_recv(buf, &mut *tl) {
        Ok(0) => {}
        Ok(n) => return n,
        Err(_) => return 0,
    }
    conn.recv(&mut buf[..1], tl).unwrap_or(0)
}

/// The sink session: receive until the peer hangs up, showing `seen` every
/// stretch of bytes as it arrives.  Returns the byte count.
pub fn drain(conn: &ScifEndpoint, mut seen: impl FnMut(&[u8])) -> u64 {
    let mut tl = Timeline::new();
    let mut buf = vec![0u8; 1 << 20];
    let mut drained = 0u64;
    loop {
        let n = recv_some(conn, &mut buf, &mut tl);
        if n == 0 {
            return drained;
        }
        seen(&buf[..n]);
        drained += n as u64;
    }
}

/// The echo session: send every byte back as it arrives, until the peer
/// hangs up or a send fails.  A byte-stream echo, so any framing the client
/// uses survives.  Returns the bytes echoed.
fn echo(conn: &ScifEndpoint) -> u64 {
    let mut tl = Timeline::new();
    let mut buf = vec![0u8; 1 << 20];
    let mut echoed = 0u64;
    loop {
        let n = recv_some(conn, &mut buf, &mut tl);
        if n == 0 || conn.send(&buf[..n], &mut tl).is_err() {
            return echoed;
        }
        echoed += n as u64;
    }
}

/// A sink on card `card`: the paper's send-receive benchmark server.
/// `shutdown()` returns the bytes each connection delivered.
pub fn sink(host: &VphiHost, card: usize) -> CardService<u64> {
    serve(host, card, |conn| drain(&conn, |_| {}))
}

/// An echo server on card `card`.
pub fn echo_server(host: &VphiHost, card: usize) -> CardService<u64> {
    serve(host, card, |conn| echo(&conn))
}

/// A fault-tolerant echo + RMA-window server on card `card`: every
/// connection gets a 4 KiB read-write window at offset 0 — when the card
/// can give one; a fault plan may fail the allocation or the registration,
/// and the connection is served without — and its bytes echoed back.
pub fn echo_window_server(host: &VphiHost, card: usize) -> CardService<u64> {
    let board = Arc::clone(host.board(card));
    serve(host, card, move |conn| {
        if let Ok(region) = board.memory().alloc(4096) {
            let window = WindowBacking::Device(region);
            let _ = conn.register(Some(0), 4096, Prot::READ_WRITE, window, &mut Timeline::new());
        }
        echo(&conn)
    })
}

/// A running window server: each connection gets a GDDR region of its own
/// registered at window offset 0, held until the peer hangs up.
pub struct CardWindow {
    service: CardService,
    registered: mpsc::Receiver<u64>,
}

impl CardWindow {
    /// Where clients connect.
    pub fn addr(&self) -> ScifAddr {
        self.service.addr()
    }

    /// Block until the window of the caller's latest `connect` is
    /// registered (the server registers after `accept`, so a client calls
    /// this between its `connect` and its first RMA); returns the region's
    /// device offset.  One call per connection, connections made one at a
    /// time.
    pub fn wait_registered(&self) -> u64 {
        self.registered
            .recv_timeout(Duration::from_secs(30))
            .expect("window server did not register")
    }

    /// A native client whose window is registered.
    pub fn native(&self, host: &VphiHost) -> ScifEndpoint {
        let ep = native_connect(host, self.addr());
        self.wait_registered();
        ep
    }

    /// A connected guest whose window is registered.
    pub fn guest(&self, host: &VphiHost, config: VmConfig) -> GuestRig {
        let rig = GuestRig::connect(host, config, self.addr());
        self.wait_registered();
        rig
    }
}

/// A window server over the region `alloc` yields per connection.  The
/// window session: register the region at window offset 0, report it,
/// swallow what the peer sends until it hangs up, free the region.
fn window_over(
    host: &VphiHost,
    card: usize,
    alloc: impl Fn(&DeviceMemory) -> Result<Arc<DeviceRegion>, MemError> + Send + Sync + 'static,
) -> CardWindow {
    let board = Arc::clone(host.board(card));
    let (tx, registered) = mpsc::channel();
    let service = serve(host, card, move |conn| {
        let region = alloc(board.memory()).expect("gddr alloc");
        let (offset, len) = (region.offset(), region.len());
        let window = WindowBacking::Device(region);
        conn.register(Some(0), len, Prot::READ_WRITE, window, &mut Timeline::new())
            .expect("register");
        // A client that never waits has dropped its end; that is its call.
        let _ = tx.send(offset);
        drain(&conn, |_| {});
        let _ = board.memory().free(offset);
    });
    CardWindow { service, registered }
}

/// A window server over `len` bytes of real GDDR per connection,
/// pre-filled by `fill`.
pub fn window(
    host: &VphiHost,
    card: usize,
    len: u64,
    fill: impl Fn(&DeviceRegion) + Send + Sync + 'static,
) -> CardWindow {
    window_over(host, card, move |gddr| {
        let region = gddr.alloc(len)?;
        fill(&region);
        Ok(region)
    })
}

/// A window server over `len` bytes of *timed* GDDR (capacity accounting
/// only, reads as zeros): the paper's remote-memory benchmark server, whose
/// payload nobody inspects.
pub fn window_timed(host: &VphiHost, card: usize, len: u64) -> CardWindow {
    window_over(host, card, move |gddr| gddr.alloc_timed(len))
}

/// A native client connected to `addr` — [`GuestRig`]'s bare-metal twin.
/// Dropping the endpoint closes it.
pub fn native_connect(host: &VphiHost, addr: ScifAddr) -> ScifEndpoint {
    let ep = host.native_endpoint().expect("native endpoint");
    ep.connect(addr, &mut Timeline::new()).expect("native connect");
    ep
}

/// A VM with one guest endpoint connected to a card-side server.  Drop
/// closes the endpoint, then shuts the VM down.
pub struct GuestRig {
    pub guest: GuestScif,
    pub vm: VphiVm,
}

impl GuestRig {
    /// Boot a VM with `config`, `scif_open`, `scif_connect` to `addr`.
    pub fn connect(host: &VphiHost, config: VmConfig, addr: ScifAddr) -> GuestRig {
        let vm = host.spawn_vm(config);
        let mut tl = Timeline::new();
        let guest = vm.open_scif(&mut tl).expect("guest open");
        guest.connect(addr, &mut tl).expect("guest connect");
        GuestRig { guest, vm }
    }

    /// One blocking `send` of `data` on a timeline of its own — with one
    /// byte, the Fig. 4 anchor (382 µs).
    pub fn send(&self, data: &[u8]) -> Timeline {
        let mut tl = Timeline::new();
        self.guest.send(data, &mut tl).expect("guest send");
        tl
    }

    /// One synchronous `vreadfrom` of window offset 0 into `buf` on a
    /// timeline of its own (the Fig. 5 measurement).
    pub fn vread(&self, buf: &GuestBuf) -> Timeline {
        let mut tl = Timeline::new();
        self.guest.vreadfrom(buf, 0, RmaFlags::SYNC, &mut tl).expect("guest vreadfrom");
        tl
    }

    /// Mean wall-clock ns of `samples` further sends of `data`.
    pub fn send_wall_ns(&self, data: &[u8], samples: u32) -> f64 {
        let start = Instant::now();
        for _ in 0..samples {
            self.send(data);
        }
        start.elapsed().as_nanos() as f64 / f64::from(samples)
    }
}

impl Drop for GuestRig {
    fn drop(&mut self) {
        let _ = self.guest.close(&mut Timeline::new());
        self.vm.shutdown();
    }
}

/// The Fig. 4 measurement for `config`: a sink on card 0 of `host`, a
/// connected guest, one blocking `send` of `data`, teardown.  Returns the
/// send's timeline.
pub fn guest_send_once(host: &VphiHost, config: VmConfig, data: &[u8]) -> Timeline {
    let sink = sink(host, 0);
    // Declared after the sink: the guest hangs up before the sink joins.
    let rig = GuestRig::connect(host, config, sink.addr());
    rig.send(data)
}

/// The Fig. 5 measurement for `config`: a timed window of `bytes` on card
/// 0 of `host`, a connected guest, one `vreadfrom` of all of it, teardown.
/// Returns the read's timeline.
pub fn guest_vread_once(host: &VphiHost, config: VmConfig, bytes: u64) -> Timeline {
    let server = window_timed(host, 0, bytes);
    let rig = server.guest(host, config);
    let buf = rig.vm.alloc_buf(bytes).expect("guest buf");
    rig.vread(&buf)
}

#[cfg(test)]
mod tests {
    use vphi_sim_core::SimDuration;

    use super::*;

    #[test]
    fn a_dropped_rig_leaves_nothing_behind() {
        let host = VphiHost::new(1);
        let sink = sink(&host, 0);
        let rig = GuestRig::connect(&host, VmConfig::default(), sink.addr());
        assert_eq!(rig.send(&[1]).total(), SimDuration::from_micros(382));
        let (frontend, backend) = (Arc::clone(rig.vm.frontend()), Arc::clone(rig.vm.backend()));
        assert_eq!(backend.open_endpoints(), 1);
        // No explicit close, no explicit shutdown.
        drop(rig);
        assert_eq!(backend.open_endpoints(), 0);
        assert_eq!(frontend.channel().live_slots(), 0);
        assert_eq!(frontend.pending_tokens(), 0);
        assert_eq!(sink.shutdown(), vec![1], "the sink saw the byte, then EOF");
    }

    #[test]
    fn one_sink_serves_guests_and_natives_alike() {
        let host = VphiHost::new(1);
        let sink = sink(&host, 0);
        assert_eq!(
            guest_send_once(&host, VmConfig::default(), &[7; 100]).total(),
            GuestRig::connect(&host, VmConfig::default(), sink.addr()).send(&[7; 100]).total()
        );
        let native = native_connect(&host, sink.addr());
        let mut tl = Timeline::new();
        native.send(&[1], &mut tl).unwrap();
        assert_eq!(tl.total(), SimDuration::from_micros(7));
        drop(native);
        assert_eq!(sink.shutdown(), vec![100, 1]);
    }

    #[test]
    fn echo_returns_the_byte_stream_whatever_the_framing() {
        let host = VphiHost::new(1);
        let server = echo_server(&host, 0);
        let client = native_connect(&host, server.addr());
        let mut tl = Timeline::new();
        client.send(&5u32.to_le_bytes(), &mut tl).unwrap();
        client.send(b"hello", &mut tl).unwrap();
        let mut back = [0u8; 9];
        assert_eq!(client.recv(&mut back, &mut tl), Ok(9));
        assert_eq!(&back[4..], b"hello");
        drop(client);
        assert_eq!(server.shutdown(), vec![9]);
    }

    #[test]
    fn each_connection_gets_its_own_registered_window() {
        let host = VphiHost::new(1);
        let server = window(&host, 0, 8192, |region| region.write(0, b"gddr").unwrap());
        let native = native_connect(&host, server.addr());
        let first = server.wait_registered();
        let rig = GuestRig::connect(&host, VmConfig::default(), server.addr());
        assert_ne!(server.wait_registered(), first, "a region per connection");

        let mut tl = Timeline::new();
        let mut seen = [0u8; 4];
        native.vreadfrom(&mut seen, 0, RmaFlags::SYNC, &mut tl).unwrap();
        assert_eq!(&seen, b"gddr");
        let buf = rig.vm.alloc_buf(4096).unwrap();
        rig.guest.vreadfrom(&buf, 0, RmaFlags::SYNC, &mut tl).unwrap();
        buf.peek(0, &mut seen).unwrap();
        assert_eq!(&seen, b"gddr");

        let in_use = host.board(0).memory().allocated();
        drop((native, buf, rig));
        drop(server);
        assert!(host.board(0).memory().allocated() < in_use, "regions freed at hang-up");
    }
}
