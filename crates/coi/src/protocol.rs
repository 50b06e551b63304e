//! The COI client ↔ coi_daemon dialogue.

use vphi_scif::{ScifError, ScifResult};

use crate::wire::{ByteReader, ByteWriter};

/// What a MIC binary will do on the card, characterized for the uOS
/// compute model: total floating-point work, total memory traffic, and
/// the thread count it spawns.  (The mic-tools crate derives this from
/// concrete workloads like dgemm.)
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeManifest {
    pub flops: f64,
    pub bytes: u64,
    pub threads: u32,
}

impl ComputeManifest {
    pub fn new(flops: f64, bytes: u64, threads: u32) -> Self {
        ComputeManifest { flops, bytes, threads }
    }
}

/// The COI protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum CoiMsg {
    // client → daemon
    /// Version handshake (COI checks host/card stack compatibility).
    Handshake {
        version: u32,
    },
    /// Launch a shipped binary; `binary_bytes + lib_bytes` follow on the
    /// timed bulk lane.
    LaunchProcess {
        name: String,
        binary_bytes: u64,
        lib_bytes: u64,
        env_count: u32,
        manifest: ComputeManifest,
    },
    /// Create a device buffer of `size` bytes (offload mode).
    CreateBuffer {
        size: u64,
    },
    /// Write `size` bytes into buffer `id` (bulk follows on timed lane).
    WriteBuffer {
        id: u64,
        size: u64,
    },
    /// Read `size` bytes back from buffer `id` (bulk returns on timed lane).
    ReadBuffer {
        id: u64,
        size: u64,
    },
    /// Run an offloaded function against the given buffers.
    RunFunction {
        name: String,
        buffer_ids: Vec<u64>,
        manifest: ComputeManifest,
    },
    /// Destroy a device buffer.
    DestroyBuffer {
        id: u64,
    },

    // daemon → client
    HandshakeAck {
        version: u32,
    },
    ProcessStarted {
        pid: u64,
    },
    /// Proxied stdout text (micnativeloadex relays it to the caller).
    Stdout {
        text: String,
    },
    ProcessExited {
        code: i32,
        device_time_ns: u64,
    },
    BufferCreated {
        id: u64,
    },
    WriteAck,
    ReadReady {
        size: u64,
    },
    FunctionDone {
        ret: u64,
        device_time_ns: u64,
    },
    Error {
        errno: i32,
    },
}

/// The daemon protocol version (mirrors an MPSS release).
pub const COI_VERSION: u32 = 3800;

impl CoiMsg {
    fn opcode(&self) -> u8 {
        match self {
            CoiMsg::Handshake { .. } => 1,
            CoiMsg::LaunchProcess { .. } => 2,
            CoiMsg::CreateBuffer { .. } => 3,
            CoiMsg::WriteBuffer { .. } => 4,
            CoiMsg::ReadBuffer { .. } => 5,
            CoiMsg::RunFunction { .. } => 6,
            CoiMsg::DestroyBuffer { .. } => 7,
            CoiMsg::HandshakeAck { .. } => 65,
            CoiMsg::ProcessStarted { .. } => 66,
            CoiMsg::Stdout { .. } => 67,
            CoiMsg::ProcessExited { .. } => 68,
            CoiMsg::BufferCreated { .. } => 69,
            CoiMsg::WriteAck => 70,
            CoiMsg::ReadReady { .. } => 71,
            CoiMsg::FunctionDone { .. } => 72,
            CoiMsg::Error { .. } => 73,
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(self.opcode());
        match self {
            CoiMsg::Handshake { version } | CoiMsg::HandshakeAck { version } => {
                w.u32(*version);
            }
            CoiMsg::LaunchProcess { name, binary_bytes, lib_bytes, env_count, manifest } => {
                w.str(name)
                    .u64(*binary_bytes)
                    .u64(*lib_bytes)
                    .u32(*env_count)
                    .f64(manifest.flops)
                    .u64(manifest.bytes)
                    .u32(manifest.threads);
            }
            CoiMsg::CreateBuffer { size } => {
                w.u64(*size);
            }
            CoiMsg::WriteBuffer { id, size } | CoiMsg::ReadBuffer { id, size } => {
                w.u64(*id).u64(*size);
            }
            CoiMsg::RunFunction { name, buffer_ids, manifest } => {
                w.str(name).u32(buffer_ids.len() as u32);
                for id in buffer_ids {
                    w.u64(*id);
                }
                w.f64(manifest.flops).u64(manifest.bytes).u32(manifest.threads);
            }
            CoiMsg::DestroyBuffer { id } | CoiMsg::ProcessStarted { pid: id } => {
                w.u64(*id);
            }
            CoiMsg::Stdout { text } => {
                w.str(text);
            }
            CoiMsg::ProcessExited { code, device_time_ns } => {
                w.u32(*code as u32).u64(*device_time_ns);
            }
            CoiMsg::BufferCreated { id } => {
                w.u64(*id);
            }
            CoiMsg::WriteAck => {}
            CoiMsg::ReadReady { size } => {
                w.u64(*size);
            }
            CoiMsg::FunctionDone { ret, device_time_ns } => {
                w.u64(*ret).u64(*device_time_ns);
            }
            CoiMsg::Error { errno } => {
                w.u32(*errno as u32);
            }
        }
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> ScifResult<CoiMsg> {
        let mut r = ByteReader::new(buf);
        let op = r.u8()?;
        Ok(match op {
            1 => CoiMsg::Handshake { version: r.u32()? },
            2 => CoiMsg::LaunchProcess {
                name: r.str()?,
                binary_bytes: r.u64()?,
                lib_bytes: r.u64()?,
                env_count: r.u32()?,
                manifest: ComputeManifest::new(r.f64()?, r.u64()?, r.u32()?),
            },
            3 => CoiMsg::CreateBuffer { size: r.u64()? },
            4 => CoiMsg::WriteBuffer { id: r.u64()?, size: r.u64()? },
            5 => CoiMsg::ReadBuffer { id: r.u64()?, size: r.u64()? },
            6 => {
                let name = r.str()?;
                let n = r.u32()? as usize;
                // The count is guest input: refuse one the frame cannot
                // hold before sizing anything by it.
                if n > r.remaining() / 8 {
                    return Err(ScifError::Inval);
                }
                let mut buffer_ids = Vec::with_capacity(n);
                for _ in 0..n {
                    buffer_ids.push(r.u64()?);
                }
                CoiMsg::RunFunction {
                    name,
                    buffer_ids,
                    manifest: ComputeManifest::new(r.f64()?, r.u64()?, r.u32()?),
                }
            }
            7 => CoiMsg::DestroyBuffer { id: r.u64()? },
            65 => CoiMsg::HandshakeAck { version: r.u32()? },
            66 => CoiMsg::ProcessStarted { pid: r.u64()? },
            67 => CoiMsg::Stdout { text: r.str()? },
            68 => CoiMsg::ProcessExited { code: r.u32()? as i32, device_time_ns: r.u64()? },
            69 => CoiMsg::BufferCreated { id: r.u64()? },
            70 => CoiMsg::WriteAck,
            71 => CoiMsg::ReadReady { size: r.u64()? },
            72 => CoiMsg::FunctionDone { ret: r.u64()?, device_time_ns: r.u64()? },
            73 => CoiMsg::Error { errno: r.u32()? as i32 },
            _ => return Err(ScifError::Inval),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<CoiMsg> {
        vec![
            CoiMsg::Handshake { version: COI_VERSION },
            CoiMsg::HandshakeAck { version: COI_VERSION },
            CoiMsg::LaunchProcess {
                name: "dgemm_mic".into(),
                binary_bytes: 1 << 20,
                lib_bytes: 140 << 20,
                env_count: 3,
                manifest: ComputeManifest::new(2.0e12, 1 << 30, 224),
            },
            CoiMsg::CreateBuffer { size: 64 << 20 },
            CoiMsg::WriteBuffer { id: 3, size: 64 << 20 },
            CoiMsg::ReadBuffer { id: 3, size: 1 << 10 },
            CoiMsg::RunFunction {
                name: "offload_dgemm".into(),
                buffer_ids: vec![1, 2, 3],
                manifest: ComputeManifest::new(1.0e9, 0, 112),
            },
            CoiMsg::DestroyBuffer { id: 3 },
            CoiMsg::ProcessStarted { pid: 42 },
            CoiMsg::Stdout { text: "PASSED\n".into() },
            CoiMsg::ProcessExited { code: 0, device_time_ns: 123456 },
            CoiMsg::ProcessExited { code: -9, device_time_ns: 0 },
            CoiMsg::BufferCreated { id: 9 },
            CoiMsg::WriteAck,
            CoiMsg::ReadReady { size: 77 },
            CoiMsg::FunctionDone { ret: 0xDEAD, device_time_ns: 999 },
            CoiMsg::Error { errno: 22 },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for m in all_messages() {
            let bytes = m.encode();
            let back = CoiMsg::decode(&bytes).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn opcodes_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in all_messages() {
            seen.insert(m.opcode());
        }
        assert_eq!(seen.len(), 16); // two ProcessExited share an opcode
    }

    #[test]
    fn garbage_rejected() {
        assert!(CoiMsg::decode(&[]).is_err());
        assert!(CoiMsg::decode(&[200]).is_err());
        // Truncated LaunchProcess.
        let good = CoiMsg::LaunchProcess {
            name: "x".into(),
            binary_bytes: 1,
            lib_bytes: 1,
            env_count: 0,
            manifest: ComputeManifest::new(1.0, 1, 1),
        }
        .encode();
        assert!(CoiMsg::decode(&good[..good.len() - 2]).is_err());
    }

    /// A `RunFunction` frame whose buffer count exceeds what the frame
    /// holds is refused before anything is sized by the count.
    #[test]
    fn a_buffer_count_past_the_frame_is_refused() {
        // Opcode, then the name's length and byte: the count follows.
        let count_at = 1 + 4 + 1;
        let mut frame = CoiMsg::RunFunction {
            name: "f".into(),
            buffer_ids: Vec::new(),
            manifest: ComputeManifest::new(1.0, 1, 1),
        }
        .encode();
        frame[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(CoiMsg::decode(&frame), Err(ScifError::Inval));
    }
}
