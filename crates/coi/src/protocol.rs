//! The COI client ↔ coi_daemon dialogue.

use vphi::protocol::{Put, Take};
use vphi::wire_enum;
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

impl Put<ComputeManifest> for ByteWriter {
    fn put(&mut self, m: &ComputeManifest) {
        self.put(&m.flops);
        self.put(&m.bytes);
        self.put(&m.threads);
    }
}

impl Take<ComputeManifest> for ByteReader<'_> {
    fn take(&mut self) -> Option<ComputeManifest> {
        Some(ComputeManifest { flops: self.take()?, bytes: self.take()?, threads: self.take()? })
    }
}

wire_enum! {
    /// The COI protocol messages.
    #[derive(Debug, Clone, PartialEq)]
    pub enum CoiMsg {
        // client → daemon
        /// Version handshake (COI checks host/card stack compatibility).
        1 => Handshake "handshake" { version: u32 },
        /// Launch a shipped binary; `binary_bytes + lib_bytes` follow on the
        /// timed bulk lane.
        2 => LaunchProcess "launch_process" {
            name: String,
            binary_bytes: u64,
            lib_bytes: u64,
            env_count: u32,
            manifest: ComputeManifest,
        },
        /// Create a device buffer of `size` bytes (offload mode).
        3 => CreateBuffer "create_buffer" { size: u64 },
        /// Write `size` bytes into buffer `id` (bulk follows on timed lane).
        4 => WriteBuffer "write_buffer" { id: u64, size: u64 },
        /// Read `size` bytes back from buffer `id` (bulk returns on timed lane).
        5 => ReadBuffer "read_buffer" { id: u64, size: u64 },
        /// Run an offloaded function against the given buffers.
        6 => RunFunction "run_function"
            { name: String, buffer_ids: Vec<u64>, manifest: ComputeManifest },
        /// Destroy a device buffer.
        7 => DestroyBuffer "destroy_buffer" { id: u64 },

        // daemon → client
        65 => HandshakeAck "handshake_ack" { version: u32 },
        66 => ProcessStarted "process_started" { pid: u64 },
        /// Proxied stdout text (micnativeloadex relays it to the caller).
        67 => Stdout "stdout" { text: String },
        68 => ProcessExited "process_exited" { code: i32, device_time_ns: u64 },
        69 => BufferCreated "buffer_created" { id: u64 },
        70 => WriteAck "write_ack",
        71 => ReadReady "read_ready" { size: u64 },
        72 => FunctionDone "function_done" { ret: u64, device_time_ns: u64 },
        73 => Error "error" { errno: i32 },
    }
}

/// The daemon protocol version (mirrors an MPSS release).
pub const COI_VERSION: u32 = 3800;

impl CoiMsg {
    /// The frame: the opcode byte, then the fields at their native widths.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put(&self.opcode());
        self.put_fields(&mut w);
        w.finish()
    }

    /// A frame holds exactly one message: a field it cannot hold, an
    /// unknown opcode or a byte past the last field is `EINVAL`.
    pub fn decode(buf: &[u8]) -> ScifResult<CoiMsg> {
        let mut r = ByteReader::new(buf);
        let msg = r.take().and_then(|op| CoiMsg::take_fields(op, &mut r));
        msg.filter(|_| r.remaining() == 0).ok_or(ScifError::Inval)
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

    /// What each of [`all_messages`] puts on the wire, in hex, one group
    /// per field after the opcode (a string's or a list's length first).
    const WIRE: [&str; 17] = [
        "01 d80e0000",
        "41 d80e0000",
        "02 09000000 6467656d6d5f6d6963 0000100000000000 0000c00800000000 03000000 \
         000000a2941a7d42 0000004000000000 e0000000",
        "03 0000000400000000",
        "04 0300000000000000 0000000400000000",
        "05 0300000000000000 0004000000000000",
        "06 0d000000 6f66666c6f61645f6467656d6d 03000000 0100000000000000 0200000000000000 \
         0300000000000000 0000000065cdcd41 0000000000000000 70000000",
        "07 0300000000000000",
        "42 2a00000000000000",
        "43 07000000 5041535345440a",
        "44 00000000 40e2010000000000",
        "44 f7ffffff 0000000000000000",
        "45 0900000000000000",
        "46",
        "47 4d00000000000000",
        "48 adde000000000000 e703000000000000",
        "49 16000000",
    ];

    /// The bytes a hex string spells, whitespace ignored.
    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        let pair = |p: &[u8]| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap();
        digits.chunks(2).map(pair).collect()
    }

    /// The daemon dialogue's frames are pinned, message by message.
    #[test]
    fn every_message_encodes_to_its_pinned_bytes() {
        let messages = all_messages();
        assert_eq!(messages.len(), WIRE.len());
        for (m, hex) in messages.iter().zip(WIRE) {
            assert_eq!(m.encode(), unhex(hex), "{m:?}");
        }
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

    /// A frame is one message: a byte past its last field is refused.
    #[test]
    fn a_frame_with_bytes_past_its_last_field_is_refused() {
        for m in all_messages() {
            let mut frame = m.encode();
            frame.push(0);
            assert_eq!(CoiMsg::decode(&frame), Err(ScifError::Inval), "{m:?}");
        }
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
