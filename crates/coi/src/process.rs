//! COIProcess — launching a shipped binary on the card and collecting its
//! exit.

use vphi_scif::{Scif, ScifError, ScifResult};
use vphi_sim_core::{SimDuration, SpanLabel, Timeline};

use crate::buffer::CoiBuffer;
use crate::engine::CoiEngine;
use crate::protocol::{CoiMsg, ComputeManifest, COI_VERSION};
use crate::wire::{read_frame, write_frame};

/// What a launched binary ships to the card.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchSpec {
    /// Binary name ("dgemm_mic").
    pub name: String,
    /// Binary image size.
    pub binary_bytes: u64,
    /// Total size of dependent shared libraries shipped alongside.
    pub lib_bytes: u64,
    /// Environment variables forwarded (count only; contents are not
    /// semantically relevant to the model).
    pub env_count: u32,
    /// The compute the binary performs once running.
    pub manifest: ComputeManifest,
}

/// The outcome of a completed process.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessExit {
    pub code: i32,
    pub stdout: String,
    pub device_time: SimDuration,
}

/// A live process on the coprocessor (one daemon session).
pub struct CoiProcess {
    conn: Box<dyn Scif>,
    pid: u64,
}

impl std::fmt::Debug for CoiProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoiProcess").field("pid", &self.pid).finish()
    }
}

impl CoiProcess {
    fn send(&self, msg: &CoiMsg, tl: &mut Timeline) -> ScifResult<()> {
        write_frame(self.conn.as_ref(), &msg.encode(), tl)
    }

    fn recv(&self, tl: &mut Timeline) -> ScifResult<CoiMsg> {
        let frame = read_frame(self.conn.as_ref(), tl)?.ok_or(ScifError::ConnReset)?;
        CoiMsg::decode(&frame)
    }

    /// Expect a specific reply kind, surfacing daemon errors.
    fn expect<T>(
        &self,
        tl: &mut Timeline,
        matcher: impl FnOnce(CoiMsg) -> Option<T>,
    ) -> ScifResult<T> {
        match self.recv(tl)? {
            CoiMsg::Error { errno } => {
                Err(ScifError::from_errno(errno).unwrap_or(ScifError::Inval))
            }
            other => matcher(other).ok_or(ScifError::Inval),
        }
    }

    /// `COIProcessCreateFromFile`: handshake, ship binary + libraries,
    /// wait for the daemon to start it.
    pub fn launch(engine: &CoiEngine, spec: &LaunchSpec, tl: &mut Timeline) -> ScifResult<Self> {
        let conn = engine.connect_daemon(tl)?;
        let proc = CoiProcess { conn, pid: 0 };
        proc.send(&CoiMsg::Handshake { version: COI_VERSION }, tl)?;
        proc.expect(tl, |m| match m {
            CoiMsg::HandshakeAck { version: COI_VERSION } => Some(()),
            _ => None,
        })?;
        proc.send(
            &CoiMsg::LaunchProcess {
                name: spec.name.clone(),
                binary_bytes: spec.binary_bytes,
                lib_bytes: spec.lib_bytes,
                env_count: spec.env_count,
                manifest: spec.manifest.clone(),
            },
            tl,
        )?;
        // Bulk: the binary image and its dependency closure.
        proc.conn.send_timed(spec.binary_bytes + spec.lib_bytes, tl)?;
        let pid = proc.expect(tl, |m| match m {
            CoiMsg::ProcessStarted { pid } => Some(pid),
            _ => None,
        })?;
        Ok(CoiProcess { pid, ..proc })
    }

    pub fn pid(&self) -> u64 {
        self.pid
    }

    /// `COIProcessDestroy`-style wait: collect stdout and the exit code.
    /// The device execution time is charged to the caller's timeline —
    /// the caller really did wait for the card.
    pub fn wait(&self, tl: &mut Timeline) -> ScifResult<ProcessExit> {
        let mut stdout = String::new();
        loop {
            match self.recv(tl)? {
                CoiMsg::Stdout { text } => stdout.push_str(&text),
                CoiMsg::ProcessExited { code, device_time_ns } => {
                    let device_time = SimDuration::from_nanos(device_time_ns);
                    tl.charge(SpanLabel::DeviceCompute, device_time);
                    return Ok(ProcessExit { code, stdout, device_time });
                }
                CoiMsg::Error { errno } => {
                    return Err(ScifError::from_errno(errno).unwrap_or(ScifError::Inval));
                }
                _ => return Err(ScifError::Inval),
            }
        }
    }

    // ---- offload-mode operations (used by COIPipeline) ---------------------

    /// `COIBufferCreate`.
    pub fn create_buffer(&self, size: u64, tl: &mut Timeline) -> ScifResult<CoiBuffer> {
        self.send(&CoiMsg::CreateBuffer { size }, tl)?;
        let id = self.expect(tl, |m| match m {
            CoiMsg::BufferCreated { id } => Some(id),
            _ => None,
        })?;
        Ok(CoiBuffer::new(id, size))
    }

    /// `COIBufferWrite` (bulk on the timed lane).
    pub fn write_buffer(&self, buf: &CoiBuffer, size: u64, tl: &mut Timeline) -> ScifResult<()> {
        if size > buf.size() {
            return Err(ScifError::Inval);
        }
        self.send(&CoiMsg::WriteBuffer { id: buf.id(), size }, tl)?;
        self.conn.send_timed(size, tl)?;
        self.expect(tl, |m| match m {
            CoiMsg::WriteAck => Some(()),
            _ => None,
        })
    }

    /// `COIBufferRead`.
    pub fn read_buffer(&self, buf: &CoiBuffer, size: u64, tl: &mut Timeline) -> ScifResult<u64> {
        if size > buf.size() {
            return Err(ScifError::Inval);
        }
        self.send(&CoiMsg::ReadBuffer { id: buf.id(), size }, tl)?;
        let n = self.expect(tl, |m| match m {
            CoiMsg::ReadReady { size } => Some(size),
            _ => None,
        })?;
        self.conn.recv_timed(n, tl)?;
        Ok(n)
    }

    /// `COIPipelineRunFunction` (the pipeline wrapper calls this).
    pub fn run_function(
        &self,
        name: &str,
        buffers: &[&CoiBuffer],
        manifest: ComputeManifest,
        tl: &mut Timeline,
    ) -> ScifResult<(u64, SimDuration)> {
        self.send(
            &CoiMsg::RunFunction {
                name: name.to_string(),
                buffer_ids: buffers.iter().map(|b| b.id()).collect(),
                manifest,
            },
            tl,
        )?;
        let (ret, ns) = self.expect(tl, |m| match m {
            CoiMsg::FunctionDone { ret, device_time_ns } => Some((ret, device_time_ns)),
            _ => None,
        })?;
        let dur = SimDuration::from_nanos(ns);
        tl.charge(SpanLabel::DeviceCompute, dur);
        Ok((ret, dur))
    }

    /// `COIBufferDestroy`.
    pub fn destroy_buffer(&self, buf: CoiBuffer, tl: &mut Timeline) -> ScifResult<()> {
        self.send(&CoiMsg::DestroyBuffer { id: buf.id() }, tl)?;
        self.expect(tl, |m| match m {
            CoiMsg::WriteAck => Some(()),
            _ => None,
        })
    }

    /// Tear the session down.
    pub fn destroy(self) {
        self.conn.close();
    }
}
