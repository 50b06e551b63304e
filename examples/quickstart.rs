//! **Quickstart** — boot a host with one Xeon Phi, spawn a VM with vPHI,
//! and exchange messages with a server running on the card.
//!
//! ```text
//! cargo run --release -p vphi-examples --bin quickstart
//! ```

use vphi::builder::{VmConfig, VphiHost};
use vphi_dev_support::echo_server;
use vphi_sim_core::Timeline;

fn main() {
    // 1. The physical machine: a host with one Xeon Phi 3120P, booted and
    //    registered as SCIF node 1.
    let host = VphiHost::new(1);
    println!("host up: SCIF nodes = {:?}", host.fabric().node_ids());
    println!("card: {} ({} cores)", host.board(0).spec().model, host.board(0).spec().cores);

    // 2. Something to talk to on the card: an echo server.
    let echo = echo_server(&host, 0);

    // 3. A virtual machine with the vPHI device attached.
    let vm = host.spawn_vm(VmConfig::default());
    println!("VM {} booted with a vPHI device", vm.vm().id());

    // 4. Guest user space opens a SCIF endpoint — the same libscif calls
    //    it would make on bare metal — and connects to the card.
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).expect("scif_open");
    let peer = ep.connect(echo.addr(), &mut tl).expect("connect");
    println!("guest connected to {peer}");

    // 5. Ping-pong a message and report the virtual-time cost.
    let msg = b"hello coprocessor";
    let mut ping_tl = Timeline::new();
    ep.send(&(msg.len() as u32).to_le_bytes(), &mut ping_tl).expect("send len");
    ep.send(msg, &mut ping_tl).expect("send");
    let mut len = [0u8; 4];
    ep.recv(&mut len, &mut ping_tl).expect("recv len");
    let mut reply = vec![0u8; u32::from_le_bytes(len) as usize];
    ep.recv(&mut reply, &mut ping_tl).expect("recv");
    assert_eq!(reply, msg);
    println!("echoed {:?} in {} of virtual time", String::from_utf8_lossy(&reply), ping_tl.total());

    // 6. Where did the time go?  The timeline knows.
    println!("\nbreakdown of the round trip:\n{ping_tl}");

    // Dropping `ep` closes the endpoint (RAII) — no explicit close needed.
    drop(ep);
    vm.shutdown();
    echo.shutdown();
    println!("done.");
}
