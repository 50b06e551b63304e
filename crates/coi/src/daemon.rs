//! The device-side **coi_daemon**.
//!
//! "Xeon Phi device receives the respective requests from the host
//! through a COI daemon that is executed after uOS has booted." (paper
//! §II-B).  One daemon runs per card, listening on a well-known SCIF
//! port; each accepted connection is one client process session, served
//! by one of the daemon's pooled (uOS) threads, which parks for the next
//! session when this one ends.

use std::collections::HashMap;
use std::sync::Arc;

use vphi::builder::VphiHost;
use vphi_phi::{ComputeJob, PhiBoard};
use vphi_scif::{CardService, Port, ScifEndpoint, ScifError, ScifResult};
use vphi_sim_core::{CostModel, SimDuration, SpanLabel, Timeline};
use vphi_sync::Counter;

use crate::protocol::{CoiMsg, ComputeManifest, COI_VERSION};
use crate::wire::{read_frame, write_frame};

/// coi_daemon for mic0 listens on this SCIF port; micN on `BASE + N`.
pub const COI_PORT_BASE: u16 = 400;

/// A running daemon (device-side service).
pub struct CoiDaemon {
    service: CardService,
    launches: Arc<Counter>,
}

impl std::fmt::Debug for CoiDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoiDaemon").finish_non_exhaustive()
    }
}

impl CoiDaemon {
    /// The daemon's port for card `mic`.
    pub fn port(mic: usize) -> Port {
        Port(COI_PORT_BASE + mic as u16)
    }

    /// Start the daemon for card `mic` of `host`.
    pub fn spawn(host: &VphiHost, mic: usize) -> ScifResult<CoiDaemon> {
        let board = Arc::clone(host.board(mic));
        let cost = Arc::clone(host.cost());
        let launches = Arc::new(Counter::new(0));
        let service = CardService::spawn(
            host.device_endpoint(mic)?,
            Self::port(mic),
            format!("coi-daemon-mic{mic}"),
            {
                let launches = Arc::clone(&launches);
                move |conn| session(conn, &board, &cost, &launches)
            },
        )?;
        Ok(CoiDaemon { service, launches })
    }

    /// Processes launched since boot.
    pub fn launch_count(&self) -> u64 {
        self.launches.get()
    }

    /// Threads serving sessions: the most that were open at once, not
    /// the number served (a leak audit).
    pub fn session_threads(&self) -> usize {
        self.service.workers()
    }

    /// Stop accepting, wait for every open session's client to hang up,
    /// and join the daemon's threads.
    pub fn shutdown(&self) {
        self.service.shutdown();
    }
}

/// Run the uOS compute job described by a manifest.
fn run_manifest(
    board: &PhiBoard,
    name: &str,
    manifest: &ComputeManifest,
    tl: &mut Timeline,
) -> SimDuration {
    let job = ComputeJob::new(name, manifest.threads, manifest.flops, manifest.bytes);
    board.uos().run(&job, tl).duration
}

/// One client session: strict request/response until EOF.
#[allow(clippy::while_let_loop)] // read-decode-dispatch shape stays explicit
fn session(conn: ScifEndpoint, board: &PhiBoard, cost: &CostModel, launches: &Counter) {
    let mut tl = Timeline::new();
    let mut buffers: HashMap<u64, u64> = HashMap::new(); // id -> device offset
    let mut next_buffer = 1u64;
    let mut next_pid = 100u64;

    let reply = |conn: &ScifEndpoint, msg: &CoiMsg, tl: &mut Timeline| -> ScifResult<()> {
        write_frame(conn, &msg.encode(), tl)
    };

    loop {
        let frame = match read_frame(&conn, &mut tl) {
            Ok(Some(f)) => f,
            Ok(None) | Err(_) => break,
        };
        let msg = match CoiMsg::decode(&frame) {
            Ok(m) => m,
            Err(_) => {
                let _ = reply(&conn, &CoiMsg::Error { errno: ScifError::Inval.errno() }, &mut tl);
                continue;
            }
        };
        // Every control message costs the daemon its handling time.
        tl.charge(SpanLabel::CoiControl, cost.coi_control);

        let outcome: ScifResult<()> = (|| {
            match msg {
                CoiMsg::Handshake { version } => {
                    if version != COI_VERSION {
                        reply(&conn, &CoiMsg::Error { errno: ScifError::Inval.errno() }, &mut tl)?;
                    } else {
                        reply(&conn, &CoiMsg::HandshakeAck { version: COI_VERSION }, &mut tl)?;
                    }
                }
                CoiMsg::LaunchProcess { name, binary_bytes, lib_bytes, manifest, .. } => {
                    // Pull the shipped binary + dependent libraries.
                    conn.recv_timed(binary_bytes + lib_bytes, &mut tl)?;
                    tl.charge(SpanLabel::DeviceSpawn, cost.device_spawn_process);
                    let pid = next_pid;
                    next_pid += 1;
                    launches.bump();
                    reply(&conn, &CoiMsg::ProcessStarted { pid }, &mut tl)?;
                    if manifest.flops > 0.0 || manifest.bytes > 0 {
                        // A self-contained binary (native mode): run it on
                        // the uOS and proxy stdout + exit back.
                        let dur = run_manifest(board, &name, &manifest, &mut tl);
                        let stdout = format!(
                            "{name}: {:.3} GFLOP on {} threads in {dur}\n",
                            manifest.flops / 1e9,
                            manifest.threads
                        );
                        reply(&conn, &CoiMsg::Stdout { text: stdout }, &mut tl)?;
                        reply(
                            &conn,
                            &CoiMsg::ProcessExited { code: 0, device_time_ns: dur.as_nanos() },
                            &mut tl,
                        )?;
                    }
                    // A zero-work manifest is an offload *sink* process: it
                    // parks and serves buffer / run-function requests until
                    // the session closes.
                }
                CoiMsg::CreateBuffer { size } => match board.memory().alloc_timed(size) {
                    Ok(region) => {
                        let id = next_buffer;
                        next_buffer += 1;
                        buffers.insert(id, region.offset());
                        reply(&conn, &CoiMsg::BufferCreated { id }, &mut tl)?;
                    }
                    Err(_) => {
                        reply(&conn, &CoiMsg::Error { errno: ScifError::NoMem.errno() }, &mut tl)?;
                    }
                },
                CoiMsg::WriteBuffer { id, size } if buffers.contains_key(&id) => {
                    conn.recv_timed(size, &mut tl)?;
                    reply(&conn, &CoiMsg::WriteAck, &mut tl)?;
                }
                CoiMsg::ReadBuffer { id, size } if buffers.contains_key(&id) => {
                    reply(&conn, &CoiMsg::ReadReady { size }, &mut tl)?;
                    conn.send_timed(size, &mut tl)?;
                }
                CoiMsg::RunFunction { name, buffer_ids, manifest }
                    if buffer_ids.iter().all(|id| buffers.contains_key(id)) =>
                {
                    let dur = run_manifest(board, &name, &manifest, &mut tl);
                    reply(
                        &conn,
                        &CoiMsg::FunctionDone { ret: 0, device_time_ns: dur.as_nanos() },
                        &mut tl,
                    )?;
                }
                CoiMsg::DestroyBuffer { id } => match buffers.remove(&id) {
                    Some(offset) => {
                        let _ = board.memory().free(offset);
                        reply(&conn, &CoiMsg::WriteAck, &mut tl)?;
                    }
                    None => {
                        reply(&conn, &CoiMsg::Error { errno: ScifError::Inval.errno() }, &mut tl)?;
                    }
                },
                // Client-bound messages arriving at the daemon are a
                // protocol violation.
                _ => {
                    reply(&conn, &CoiMsg::Error { errno: ScifError::Inval.errno() }, &mut tl)?;
                }
            }
            Ok(())
        })();
        if outcome.is_err() {
            break;
        }
    }
    // Free any buffers the client leaked.
    for (_, offset) in buffers {
        let _ = board.memory().free(offset);
    }
    conn.close();
}
