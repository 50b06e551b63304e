//! Shared servers and table rendering for the experiments.

use std::sync::Arc;

use vphi::builder::VphiHost;
use vphi_scif::window::WindowBacking;
use vphi_scif::{Port, Prot};
use vphi_sim_core::Timeline;

/// A device-side server that accepts one connection and drains bytes
/// until the peer closes (the paper's send-receive benchmark server).
pub fn spawn_device_sink(host: &VphiHost, port: Port) -> std::thread::JoinHandle<u64> {
    spawn_device_sink_on(host, 0, port)
}

/// [`spawn_device_sink`] on an arbitrary card (the faults ablation runs
/// victim and bystander VMs against different boards).
pub fn spawn_device_sink_on(
    host: &VphiHost,
    card: usize,
    port: Port,
) -> std::thread::JoinHandle<u64> {
    let server = host.device_endpoint(card).expect("device endpoint");
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        server.bind(port, &mut tl).expect("bind");
        server.listen(4, &mut tl).expect("listen");
        ready_tx.send(()).expect("readiness");
        let conn = server.accept(&mut tl).expect("accept");
        let mut drained = 0u64;
        let mut buf = vec![0u8; 1 << 20];
        loop {
            match conn.core().try_recv(&mut buf, &mut tl) {
                Ok(0) => {
                    // Block for at least one byte (or EOF).
                    match conn.core().recv(&mut buf[..1], &mut tl) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => drained += n as u64,
                    }
                }
                Ok(n) => drained += n as u64,
                Err(_) => break,
            }
        }
        drained
    });
    ready_rx.recv().expect("server thread died before listening");
    handle
}

/// A running [`spawn_device_window`] server.
pub struct DeviceWindow {
    thread: std::thread::JoinHandle<()>,
    registered: std::sync::mpsc::Receiver<()>,
}

impl DeviceWindow {
    /// Block until the server has registered its window.  It registers
    /// after `accept`, so a client calls this once its `connect` has
    /// returned and before its first RMA.
    pub fn wait_registered(&self) {
        self.registered.recv().expect("window server died before registering");
    }

    /// Wait for the server to exit (it does when the peer hangs up).
    pub fn join(self) -> std::thread::Result<()> {
        self.thread.join()
    }
}

/// A device-side server that registers a `window_len` GDDR window at
/// offset 0 (the paper's remote-memory benchmark server) and parks until
/// the peer closes.
pub fn spawn_device_window(host: &VphiHost, port: Port, window_len: u64) -> DeviceWindow {
    let board = Arc::clone(host.board(0));
    let server = host.device_endpoint(0).expect("device endpoint");
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let (registered_tx, registered) = std::sync::mpsc::channel();
    let thread = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        server.bind(port, &mut tl).expect("bind");
        server.listen(4, &mut tl).expect("listen");
        ready_tx.send(()).expect("readiness");
        let conn = server.accept(&mut tl).expect("accept");
        let region = board.memory().alloc_timed(window_len).expect("gddr alloc");
        let offset = region.offset();
        conn.register(
            Some(0),
            window_len,
            Prot::READ_WRITE,
            WindowBacking::Device(region),
            &mut tl,
        )
        .expect("register");
        // A client that never waits has dropped its end; that is its call.
        let _ = registered_tx.send(());
        // Park until the peer hangs up.
        let mut b = [0u8; 1];
        let _ = conn.core().recv(&mut b, &mut tl);
        let _ = board.memory().free(offset);
    });
    ready_rx.recv().expect("server thread died before listening");
    DeviceWindow { thread, registered }
}

/// Render a simple fixed-width table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = format!("## {title}\n");
    let hdr: Vec<String> =
        headers.iter().enumerate().map(|(i, h)| format!("{h:>w$}", w = widths[i])).collect();
    out.push_str(&hdr.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        let line: Vec<String> =
            row.iter().enumerate().map(|(i, c)| format!("{c:>w$}", w = widths[i])).collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}
