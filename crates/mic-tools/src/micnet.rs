//! micnet — the emulated `mic0` network path and a remote shell.
//!
//! MPSS "includes an emulated network driver as part of the uOS, that
//! uses SCIF, and enables users to utilize network tools (e.g. ssh) and
//! remotely connect to the Xeon Phi device … they can execute
//! applications on the coprocessor using a shell" (paper §II-B).  This is
//! the paper's *first* native-mode option (§IV-A): ssh in, after
//! explicitly copying executables and libraries over — the option the
//! paper rejects for clouds ("many users logged in a shared accelerator
//! environment ruining the isolation characteristics").  We implement it
//! anyway, both for completeness and so the trade-off is measurable.
//!
//! * [`EthFrame`] — ethernet-ish frames carried over a SCIF stream (the
//!   mic0 virtual NIC).
//! * [`MicShellDaemon`] — the card-side sshd-alike: accepts sessions,
//!   stores uploaded files, runs uploaded binaries on the uOS.
//! * [`MicShell`] — the client: `scp`-style upload plus `run`.

use std::collections::HashMap;
use std::sync::Arc;

use vphi::builder::VphiHost;
use vphi_coi::transport::{CoiEnv, CoiTransport};
use vphi_coi::wire::{read_frame, write_frame, ByteReader, ByteWriter};
use vphi_phi::ComputeJob;
use vphi_scif::{recv_until_hangup, CardService, Port, ScifEndpoint, ScifError, ScifResult};
use vphi_sim_core::{SimDuration, SpanLabel, Timeline};
use vphi_sync::Counter;

/// The well-known port of the mic0 shell daemon (sshd on the uOS).
pub const MIC_SHELL_PORT: Port = Port(22);

/// An ethernet-style frame on the emulated mic0 link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthFrame {
    pub src: [u8; 6],
    pub dst: [u8; 6],
    pub ethertype: u16,
    pub payload: Vec<u8>,
}

impl EthFrame {
    /// Standard MTU of the mic0 interface.
    pub const MTU: usize = 64 * 1024; // MPSS uses a jumbo 64K MTU over SCIF

    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for b in self.src.iter().chain(&self.dst) {
            w.u8(*b);
        }
        w.u32(self.ethertype as u32);
        w.u32(self.payload.len() as u32);
        let mut out = w.finish();
        out.extend_from_slice(&self.payload);
        out
    }

    pub fn decode(buf: &[u8]) -> ScifResult<EthFrame> {
        let mut r = ByteReader::new(buf);
        let mut src = [0u8; 6];
        let mut dst = [0u8; 6];
        for b in &mut src {
            *b = r.u8()?;
        }
        for b in &mut dst {
            *b = r.u8()?;
        }
        let ethertype = r.u32()? as u16;
        let len = r.u32()? as usize;
        if r.remaining() < len {
            return Err(ScifError::Inval);
        }
        let at = buf.len() - r.remaining();
        Ok(EthFrame { src, dst, ethertype, payload: buf[at..at + len].to_vec() })
    }
}

// ---- shell protocol ---------------------------------------------------

enum ShellMsg {
    Upload { name: String, bytes: u64 },
    Run { name: String, threads: u32, flops: f64, mem_bytes: u64 },
    Ok { stdout: String },
    Err { errno: i32 },
}

impl ShellMsg {
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            ShellMsg::Upload { name, bytes } => {
                w.u8(1).str(name).u64(*bytes);
            }
            ShellMsg::Run { name, threads, flops, mem_bytes } => {
                w.u8(2).str(name).u32(*threads).f64(*flops).u64(*mem_bytes);
            }
            ShellMsg::Ok { stdout } => {
                w.u8(65).str(stdout);
            }
            ShellMsg::Err { errno } => {
                w.u8(66).u32(*errno as u32);
            }
        }
        w.finish()
    }

    fn decode(buf: &[u8]) -> ScifResult<ShellMsg> {
        let mut r = ByteReader::new(buf);
        Ok(match r.u8()? {
            1 => ShellMsg::Upload { name: r.str()?, bytes: r.u64()? },
            2 => ShellMsg::Run {
                name: r.str()?,
                threads: r.u32()?,
                flops: r.f64()?,
                mem_bytes: r.u64()?,
            },
            65 => ShellMsg::Ok { stdout: r.str()? },
            66 => ShellMsg::Err { errno: r.u32()? as i32 },
            _ => return Err(ScifError::Inval),
        })
    }
}

/// The card-side shell daemon ("sshd" reachable through mic0).
pub struct MicShellDaemon {
    service: CardService,
    uploads: Arc<Counter>,
}

impl MicShellDaemon {
    pub fn spawn(host: &VphiHost, mic: usize) -> ScifResult<MicShellDaemon> {
        let board = Arc::clone(host.board(mic));
        let uploads = Arc::new(Counter::new(0));
        let service = CardService::spawn(
            host.device_endpoint(mic)?,
            MIC_SHELL_PORT,
            format!("mic-sshd-{mic}"),
            {
                let uploads = Arc::clone(&uploads);
                move |conn| shell_session(conn, &board, &uploads)
            },
        )?;
        Ok(MicShellDaemon { service, uploads })
    }

    pub fn upload_count(&self) -> u64 {
        self.uploads.get()
    }

    pub fn shutdown(&self) {
        self.service.shutdown();
    }
}

#[allow(clippy::while_let_loop)]
fn shell_session(conn: ScifEndpoint, board: &vphi_phi::PhiBoard, uploads: &Counter) {
    let mut tl = Timeline::new();
    // The card's "filesystem": name → size of files scp'd over.
    let mut files: HashMap<String, u64> = HashMap::new();
    loop {
        let frame = match recv_until_hangup(&conn, |conn| read_frame(conn, &mut tl)) {
            Ok(Some(f)) => f,
            _ => break,
        };
        let msg = match ShellMsg::decode(&frame) {
            Ok(m) => m,
            Err(e) => {
                let _ = write_frame(&conn, &ShellMsg::Err { errno: e.errno() }.encode(), &mut tl);
                continue;
            }
        };
        let result: ScifResult<()> = (|| {
            match msg {
                ShellMsg::Upload { name, bytes } => {
                    conn.recv_timed(bytes, &mut tl)?;
                    files.insert(name.clone(), bytes);
                    uploads.bump();
                    write_frame(
                        &conn,
                        &ShellMsg::Ok { stdout: format!("{name}: {bytes} bytes\n") }.encode(),
                        &mut tl,
                    )?;
                }
                ShellMsg::Run { name, threads, flops, mem_bytes } => {
                    if !files.contains_key(&name) {
                        // "No such file or directory" — the user forgot to
                        // scp the binary first.
                        write_frame(&conn, &ShellMsg::Err { errno: 2 }.encode(), &mut tl)?;
                        return Ok(());
                    }
                    let job = ComputeJob::new(name.clone(), threads, flops, mem_bytes);
                    let out = board.uos().run(&job, &mut tl);
                    write_frame(
                        &conn,
                        &ShellMsg::Ok {
                            stdout: format!(
                                "{name}: ran {threads} threads in {} on {} cores\n",
                                out.duration, out.cores_used
                            ),
                        }
                        .encode(),
                        &mut tl,
                    )?;
                }
                _ => {
                    write_frame(
                        &conn,
                        &ShellMsg::Err { errno: ScifError::Inval.errno() }.encode(),
                        &mut tl,
                    )?;
                }
            }
            Ok(())
        })();
        if result.is_err() {
            break;
        }
    }
    conn.close();
}

/// An "ssh session" to the card from any environment (host or VM — in a
/// VM, this requires the network-bridge configuration the paper §IV-A
/// describes, which vPHI's SCIF virtualization provides for free).
pub struct MicShell {
    conn: Box<dyn CoiTransport>,
}

impl MicShell {
    /// Open the session.
    pub fn connect(env: &dyn CoiEnv, mic: usize, tl: &mut Timeline) -> ScifResult<MicShell> {
        let conn = env.connect(vphi_scif::NodeId(mic as u16 + 1), MIC_SHELL_PORT, tl)?;
        Ok(MicShell { conn })
    }

    fn request(&self, msg: &ShellMsg, tl: &mut Timeline) -> ScifResult<String> {
        write_frame(self.conn.as_ref(), &msg.encode(), tl)?;
        let frame = read_frame(self.conn.as_ref(), tl)?.ok_or(ScifError::ConnReset)?;
        match ShellMsg::decode(&frame)? {
            ShellMsg::Ok { stdout } => Ok(stdout),
            ShellMsg::Err { errno } => {
                Err(ScifError::from_errno(errno).unwrap_or(ScifError::Inval))
            }
            _ => Err(ScifError::Inval),
        }
    }

    /// `scp binary mic0:` — upload a file of `bytes`.
    pub fn upload(&self, name: &str, bytes: u64, tl: &mut Timeline) -> ScifResult<String> {
        write_frame(
            self.conn.as_ref(),
            &ShellMsg::Upload { name: name.to_string(), bytes }.encode(),
            tl,
        )?;
        self.conn.send_timed(bytes, tl)?;
        let frame = read_frame(self.conn.as_ref(), tl)?.ok_or(ScifError::ConnReset)?;
        match ShellMsg::decode(&frame)? {
            ShellMsg::Ok { stdout } => Ok(stdout),
            ShellMsg::Err { errno } => {
                Err(ScifError::from_errno(errno).unwrap_or(ScifError::Inval))
            }
            _ => Err(ScifError::Inval),
        }
    }

    /// `ssh mic0 ./binary` — run a previously uploaded binary.  Returns
    /// stdout; the device execution time is charged to `tl`.
    pub fn run(
        &self,
        name: &str,
        threads: u32,
        flops: f64,
        mem_bytes: u64,
        tl: &mut Timeline,
    ) -> ScifResult<String> {
        let before = tl.total_for(SpanLabel::DeviceCompute);
        let out =
            self.request(&ShellMsg::Run { name: name.to_string(), threads, flops, mem_bytes }, tl)?;
        // The shell blocks for the run; the daemon's uOS charge happens on
        // its own timeline, so mirror it here from the reported duration.
        let _ = before;
        Ok(out)
    }

    /// Close the session (exit).
    pub fn exit(self) {
        self.conn.close();
    }
}

// ---- the mic0 link layer ------------------------------------------------

/// Ethertype used for our ping protocol.
pub const ETHERTYPE_PING: u16 = 0x88B5; // local experimental ethertype
/// Port of the device-side network responder ("netd" behind mic0).
pub const MIC_NET_PORT: Port = Port(23);

/// A packet above frame size is fragmented; each fragment carries this
/// little header inside the frame payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FragHeader {
    packet_id: u32,
    index: u16,
    count: u16,
}

impl FragHeader {
    const SIZE: usize = 8;

    fn encode(&self) -> [u8; 8] {
        let mut b = [0u8; 8];
        b[0..4].copy_from_slice(&self.packet_id.to_le_bytes());
        b[4..6].copy_from_slice(&self.index.to_le_bytes());
        b[6..8].copy_from_slice(&self.count.to_le_bytes());
        b
    }

    fn decode(b: &[u8]) -> ScifResult<FragHeader> {
        if b.len() < 8 {
            return Err(ScifError::Inval);
        }
        Ok(FragHeader {
            packet_id: u32::from_le_bytes(b[0..4].try_into().expect("4")),
            index: u16::from_le_bytes(b[4..6].try_into().expect("2")),
            count: u16::from_le_bytes(b[6..8].try_into().expect("2")),
        })
    }
}

/// One end of the emulated mic0 ethernet link, carried over a SCIF
/// connection (what the MPSS virtual network driver does under the hood).
pub struct Mic0Link {
    conn: Box<dyn CoiTransport>,
    mac: [u8; 6],
    peer_mac: [u8; 6],
    next_packet_id: Counter,
}

impl Mic0Link {
    pub fn new(conn: Box<dyn CoiTransport>, mac: [u8; 6], peer_mac: [u8; 6]) -> Self {
        Mic0Link { conn, mac, peer_mac, next_packet_id: Counter::new(1) }
    }

    pub fn mac(&self) -> [u8; 6] {
        self.mac
    }

    fn send_eth(&self, frame: &EthFrame, tl: &mut Timeline) -> ScifResult<()> {
        write_frame(self.conn.as_ref(), &frame.encode(), tl)
    }

    fn recv_eth(&self, tl: &mut Timeline) -> ScifResult<EthFrame> {
        let buf = read_frame(self.conn.as_ref(), tl)?.ok_or(ScifError::ConnReset)?;
        EthFrame::decode(&buf)
    }

    /// Send a packet of arbitrary size, fragmenting at the MTU.
    pub fn send_packet(
        &self,
        ethertype: u16,
        payload: &[u8],
        tl: &mut Timeline,
    ) -> ScifResult<u16> {
        let budget = EthFrame::MTU - FragHeader::SIZE;
        let count = payload.len().div_ceil(budget).max(1) as u16;
        let packet_id = self.next_packet_id.next() as u32;
        for (index, chunk) in payload.chunks(budget.max(1)).enumerate() {
            let hdr = FragHeader { packet_id, index: index as u16, count };
            let mut body = hdr.encode().to_vec();
            body.extend_from_slice(chunk);
            self.send_eth(
                &EthFrame { src: self.mac, dst: self.peer_mac, ethertype, payload: body },
                tl,
            )?;
        }
        if payload.is_empty() {
            let hdr = FragHeader { packet_id, index: 0, count: 1 };
            self.send_eth(
                &EthFrame {
                    src: self.mac,
                    dst: self.peer_mac,
                    ethertype,
                    payload: hdr.encode().to_vec(),
                },
                tl,
            )?;
        }
        Ok(count)
    }

    /// Receive and reassemble one packet (blocking).
    pub fn recv_packet(&self, tl: &mut Timeline) -> ScifResult<(u16, Vec<u8>)> {
        let mut payload = Vec::new();
        let mut expected: Option<(u32, u16, u16)> = None; // (id, next index, count)
        loop {
            let frame = self.recv_eth(tl)?;
            let hdr = FragHeader::decode(&frame.payload)?;
            let body = &frame.payload[FragHeader::SIZE..];
            match expected {
                None => {
                    if hdr.index != 0 {
                        return Err(ScifError::Inval); // mid-packet start
                    }
                    expected = Some((hdr.packet_id, 1, hdr.count));
                }
                Some((id, next, count)) => {
                    if hdr.packet_id != id || hdr.index != next || hdr.count != count {
                        return Err(ScifError::Inval); // interleaving not modeled
                    }
                    expected = Some((id, next + 1, count));
                }
            }
            payload.extend_from_slice(body);
            let (_, next, count) = expected.expect("set above");
            if next >= count {
                return Ok((frame.ethertype, payload));
            }
        }
    }

    /// ICMP-echo-style ping: returns the round-trip virtual time.
    pub fn ping(&self, payload_len: usize, tl: &mut Timeline) -> ScifResult<SimDuration> {
        let before = tl.total();
        let payload = vec![0x70u8; payload_len];
        self.send_packet(ETHERTYPE_PING, &payload, tl)?;
        let (ethertype, echoed) = self.recv_packet(tl)?;
        if ethertype != ETHERTYPE_PING || echoed != payload {
            return Err(ScifError::Inval);
        }
        Ok(tl.total().saturating_sub(before))
    }

    pub fn close(self) {
        self.conn.close();
    }
}

/// The device-side network responder: answers ping packets (the uOS side
/// of the emulated network driver).
pub struct MicNetDaemon {
    service: CardService,
}

impl MicNetDaemon {
    /// The card's mic0 MAC address (locally administered).
    pub const DEVICE_MAC: [u8; 6] = [0x02, 0x4D, 0x49, 0x43, 0x00, 0x00]; // 02:"MIC":00:00

    pub fn spawn(host: &VphiHost, mic: usize) -> ScifResult<MicNetDaemon> {
        let listener = host.device_endpoint(mic)?;
        let service =
            CardService::spawn(listener, MIC_NET_PORT, format!("mic-netd-{mic}"), netd_session)?;
        Ok(MicNetDaemon { service })
    }

    pub fn shutdown(&self) {
        self.service.shutdown();
    }
}

#[allow(clippy::while_let_loop)]
fn netd_session(conn: ScifEndpoint) {
    let mut tl = Timeline::new();
    loop {
        let buf = match recv_until_hangup(&conn, |conn| read_frame(conn, &mut tl)) {
            Ok(Some(b)) => b,
            _ => break,
        };
        let frame = match EthFrame::decode(&buf) {
            Ok(f) => f,
            Err(_) => continue,
        };
        if frame.ethertype != ETHERTYPE_PING {
            continue; // unknown protocol: drop, as a NIC would
        }
        // Echo back with src/dst swapped — fragment headers ride along
        // untouched, so multi-fragment pings echo correctly.
        let reply = EthFrame {
            src: frame.dst,
            dst: frame.src,
            ethertype: frame.ethertype,
            payload: frame.payload,
        };
        if write_frame(&conn, &reply.encode(), &mut tl).is_err() {
            break;
        }
    }
    conn.close();
}

/// Bring up a mic0 link from any environment (the client side of the
/// emulated interface).
pub fn mic0_up(env: &dyn CoiEnv, mic: usize, tl: &mut Timeline) -> ScifResult<Mic0Link> {
    let conn = env.connect(vphi_scif::NodeId(mic as u16 + 1), MIC_NET_PORT, tl)?;
    // Host-side MAC, also locally administered.
    let mac = [0x02, 0x48, 0x4F, 0x53, 0x54, mic as u8]; // 02:"HOST":<mic>
    Ok(Mic0Link::new(conn, mac, MicNetDaemon::DEVICE_MAC))
}

/// Convenience: the whole §IV-A option-one flow — scp the binary and its
/// libraries, then run it; returns (stdout, total virtual time).
pub fn ssh_native_mode(
    env: &dyn CoiEnv,
    mic: usize,
    binary: &crate::binary::MicBinary,
    threads: u32,
) -> ScifResult<(String, SimDuration)> {
    let mut tl = Timeline::new();
    let shell = MicShell::connect(env, mic, &mut tl)?;
    shell.upload(&binary.name, binary.image_bytes, &mut tl)?;
    for lib in &binary.libraries {
        shell.upload(lib.name, lib.bytes, &mut tl)?;
    }
    let stdout = shell.run(
        &binary.name,
        threads,
        binary.workload.flops(),
        binary.workload.bytes(),
        &mut tl,
    )?;
    shell.exit();
    Ok((stdout, tl.total()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::MicBinary;
    use std::sync::Arc as StdArc;
    use vphi::builder::VmConfig;
    use vphi_coi::{GuestEnv, NativeEnv};

    #[test]
    fn eth_frames_round_trip() {
        let f = EthFrame {
            src: [0xAA; 6],
            dst: [2, 3, 4, 5, 6, 7],
            ethertype: 0x0800,
            payload: vec![9u8; 1500],
        };
        let decoded = EthFrame::decode(&f.encode()).unwrap();
        assert_eq!(decoded, f);
        assert!(EthFrame::decode(&f.encode()[..10]).is_err());
    }

    #[test]
    fn ssh_flow_from_the_host() {
        let host = VphiHost::new(1);
        let daemon = MicShellDaemon::spawn(&host, 0).unwrap();
        let env = NativeEnv::new(&host);
        let binary = MicBinary::stream(1 << 20, 4);
        let (stdout, total) = ssh_native_mode(&env, 0, &binary, 112).unwrap();
        assert!(stdout.contains("stream_mic"));
        assert!(total > SimDuration::ZERO);
        // Binary + 2 libraries uploaded.
        assert_eq!(daemon.upload_count(), 3);
        daemon.shutdown();
    }

    #[test]
    fn ssh_flow_from_a_vm_via_vphi() {
        let host = VphiHost::new(1);
        let daemon = MicShellDaemon::spawn(&host, 0).unwrap();
        let vm = host.spawn_vm(VmConfig::default());
        let env = GuestEnv::new(&vm);
        let binary = MicBinary::stream(1 << 20, 4);
        let (stdout, vm_total) = ssh_native_mode(&env, 0, &binary, 112).unwrap();
        assert!(stdout.contains("stream_mic"));

        // Against the host flow: same result, higher cost.
        let native = NativeEnv::new(&host);
        let (_, host_total) = ssh_native_mode(&native, 0, &binary, 112).unwrap();
        assert!(vm_total > host_total);
        vm.shutdown();
        daemon.shutdown();
    }

    #[test]
    fn running_without_uploading_is_enoent_like() {
        let host = VphiHost::new(1);
        let daemon = MicShellDaemon::spawn(&host, 0).unwrap();
        let env = NativeEnv::new(&host);
        let mut tl = Timeline::new();
        let shell = MicShell::connect(&env, 0, &mut tl).unwrap();
        let err = shell.run("not_uploaded", 56, 1e9, 0, &mut tl).unwrap_err();
        // errno 2 (ENOENT) has no ScifError mapping → degraded to Inval.
        assert_eq!(err, ScifError::Inval);
        // Upload then run succeeds.
        shell.upload("now_here", 1 << 20, &mut tl).unwrap();
        let out = shell.run("now_here", 56, 1e9, 0, &mut tl).unwrap();
        assert!(out.contains("now_here"));
        shell.exit();
        daemon.shutdown();
    }

    #[test]
    fn ping_over_mic0_native_and_vm() {
        let host = VphiHost::new(1);
        let netd = MicNetDaemon::spawn(&host, 0).unwrap();

        // Native ping.
        let env = NativeEnv::new(&host);
        let mut tl = Timeline::new();
        let link = mic0_up(&env, 0, &mut tl).unwrap();
        let rtt_native = link.ping(56, &mut tl).unwrap();
        assert!(rtt_native > SimDuration::ZERO);
        link.close();

        // Ping from a VM, through vPHI: same semantics, higher RTT.
        let vm = host.spawn_vm(VmConfig::default());
        let genv = GuestEnv::new(&vm);
        let mut gtl = Timeline::new();
        let glink = mic0_up(&genv, 0, &mut gtl).unwrap();
        let rtt_vm = glink.ping(56, &mut gtl).unwrap();
        assert!(
            rtt_vm > rtt_native * 10,
            "VM ping should be much slower: {rtt_vm} vs {rtt_native}"
        );
        glink.close();
        vm.shutdown();
        netd.shutdown();
    }

    #[test]
    fn packets_fragment_and_reassemble_at_the_mtu() {
        let host = VphiHost::new(1);
        let netd = MicNetDaemon::spawn(&host, 0).unwrap();
        let env = NativeEnv::new(&host);
        let mut tl = Timeline::new();
        let link = mic0_up(&env, 0, &mut tl).unwrap();

        // 3.5 MTUs of payload → 4 fragments, echoed and reassembled.
        let payload_len = EthFrame::MTU * 3 + EthFrame::MTU / 2;
        let frags = link.send_packet(ETHERTYPE_PING, &vec![0x42u8; payload_len], &mut tl).unwrap();
        assert_eq!(frags, 4);
        let (ethertype, echoed) = link.recv_packet(&mut tl).unwrap();
        assert_eq!(ethertype, ETHERTYPE_PING);
        assert_eq!(echoed.len(), payload_len);
        assert!(echoed.iter().all(|&b| b == 0x42));

        // Empty packets work too.
        link.send_packet(ETHERTYPE_PING, &[], &mut tl).unwrap();
        let (_, empty) = link.recv_packet(&mut tl).unwrap();
        assert!(empty.is_empty());
        link.close();
        netd.shutdown();
    }

    #[test]
    fn netd_drops_unknown_ethertypes() {
        let host = VphiHost::new(1);
        let netd = MicNetDaemon::spawn(&host, 0).unwrap();
        let env = NativeEnv::new(&host);
        let mut tl = Timeline::new();
        let link = mic0_up(&env, 0, &mut tl).unwrap();
        // An IPv4 frame gets dropped; the following ping still answers —
        // proving the daemon skipped rather than died.
        link.send_packet(0x0800, b"not-our-protocol", &mut tl).unwrap();
        let rtt = link.ping(8, &mut tl).unwrap();
        assert!(rtt > SimDuration::ZERO);
        link.close();
        netd.shutdown();
    }

    #[test]
    fn concurrent_ssh_sessions() {
        let host = StdArc::new(VphiHost::new(1));
        let daemon = MicShellDaemon::spawn(&host, 0).unwrap();
        let mut handles = Vec::new();
        for i in 0..3 {
            let host = StdArc::clone(&host);
            handles.push(std::thread::spawn(move || {
                let env = NativeEnv::new(&host);
                let mut tl = Timeline::new();
                let shell = MicShell::connect(&env, 0, &mut tl).unwrap();
                shell.upload(&format!("bin{i}"), 1 << 20, &mut tl).unwrap();
                let out = shell.run(&format!("bin{i}"), 56, 1e9, 0, &mut tl).unwrap();
                shell.exit();
                out
            }));
        }
        for (i, h) in handles.into_iter().enumerate() {
            assert!(h.join().unwrap().contains(&format!("bin{i}")));
        }
        daemon.shutdown();
    }
}
