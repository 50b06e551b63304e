//! The vPHI wire protocol.
//!
//! One request = one descriptor chain on the virtio ring:
//!
//! ```text
//! [0] readable : 64-byte request header (this module's encoding)
//! [1..] readable : request payload (send data, staged in kmalloc chunks)
//!       writable : response payload (recv data / RMA read target)
//! [last] writable: 32-byte response header
//! ```
//!
//! The header encodings are fixed-size little-endian structs so the
//! backend can decode them from a zero-copy guest-memory view.  SCIF
//! errors travel as negative errno values, exactly as the real ioctl
//! interface reports them.

// Adding an opcode must fail at every match over `VphiRequest` in this
// file, not fall into a `_` arm — the second lint is the first one's case
// of a wildcard that stands for exactly one variant today.  (`decode`
// matches the opcode *byte*; its default arm is a refusal and stays.)
#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

use vphi_scif::{ScifError, ScifResult};

/// Size of an encoded request header.
pub const REQ_SIZE: usize = 64;
/// Size of an encoded response header.
pub const RESP_SIZE: usize = 32;

/// Guest-side endpoint handle (index into the backend's endpoint table).
pub type GuestEpd = u64;

/// The SCIF operations vPHI forwards (paper §III: "Most of the SCIF
/// functionality is exposed to user space through different ioctl()
/// commands").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VphiRequest {
    /// `scif_open` → new guest endpoint handle.
    Open,
    /// `scif_bind(epd, port)`; port 0 = ephemeral.
    Bind { epd: GuestEpd, port: u16 },
    /// `scif_listen(epd, backlog)`.
    Listen { epd: GuestEpd, backlog: u32 },
    /// `scif_connect(epd, node:port)`.
    Connect { epd: GuestEpd, node: u16, port: u16 },
    /// `scif_accept(epd)` — dispatched on a worker (may wait forever).
    Accept { epd: GuestEpd },
    /// `scif_send(epd, …, len)`; data in the chain's readable payload.
    Send { epd: GuestEpd, len: u32 },
    /// `scif_recv(epd, …, len)`; data lands in the writable payload.
    Recv { epd: GuestEpd, len: u32 },
    /// `scif_register` of pinned guest pages (payload descriptor holds the
    /// guest-physical base).
    Register { epd: GuestEpd, len: u64, prot: u8, fixed_offset: u64, has_fixed: bool },
    /// `scif_unregister(epd, offset, len)`.
    Unregister { epd: GuestEpd, offset: u64, len: u64 },
    /// `scif_vreadfrom`: remote window → pinned guest buffer.
    VreadFrom { epd: GuestEpd, roffset: u64, len: u64, flags: u8 },
    /// `scif_vwriteto`: pinned guest buffer → remote window.
    VwriteTo { epd: GuestEpd, roffset: u64, len: u64, flags: u8 },
    /// `scif_readfrom` (window-to-window).
    ReadFrom { epd: GuestEpd, loffset: u64, len: u64, roffset: u64, flags: u8 },
    /// `scif_writeto` (window-to-window).
    WriteTo { epd: GuestEpd, loffset: u64, len: u64, roffset: u64, flags: u8 },
    /// `scif_mmap(epd, offset, len, prot)` → guest virtual address.
    Mmap { epd: GuestEpd, offset: u64, len: u64, prot: u8 },
    /// `scif_munmap(vaddr)`.
    Munmap { vaddr: u64 },
    /// `scif_fence_mark(epd)` → marker.
    FenceMark { epd: GuestEpd },
    /// `scif_fence_wait(epd, marker)`.
    FenceWait { epd: GuestEpd, marker: u64 },
    /// `scif_fence_signal(epd, loff, lval, roff, rval)`.
    FenceSignal { epd: GuestEpd, loff: u64, lval: u64, roff: u64, rval: u64 },
    /// `scif_close(epd)`.
    Close { epd: GuestEpd },
    /// Read one host sysfs attribute (value returned in the writable
    /// payload).
    SysfsRead { mic_index: u32 },
    /// `scif_get_node_ids`.
    GetNodeIds,
    /// Timed-bulk-lane send of `len` virtual bytes (one staging chunk).
    SendTimed { epd: GuestEpd, len: u64 },
    /// Timed-bulk-lane receive of `len` virtual bytes.
    RecvTimed { epd: GuestEpd, len: u64 },
    /// `scif_poll` on one endpoint: `events` is the interest mask
    /// (bit 0 = IN, bit 1 = OUT); waits up to `timeout_ms` of wall time.
    Poll { epd: GuestEpd, events: u8, timeout_ms: u32 },
}

/// One past the largest [`VphiRequest::opcode`]: the size of a table
/// indexed by opcode.
pub(crate) const OPCODES: usize = 25;

impl VphiRequest {
    /// The request's wire opcode — also its dense index (`< OPCODES`) into
    /// per-op tables.
    pub(crate) fn opcode(&self) -> u8 {
        match self {
            VphiRequest::Open => 1,
            VphiRequest::Bind { .. } => 2,
            VphiRequest::Listen { .. } => 3,
            VphiRequest::Connect { .. } => 4,
            VphiRequest::Accept { .. } => 5,
            VphiRequest::Send { .. } => 6,
            VphiRequest::Recv { .. } => 7,
            VphiRequest::Register { .. } => 8,
            VphiRequest::Unregister { .. } => 9,
            VphiRequest::VreadFrom { .. } => 10,
            VphiRequest::VwriteTo { .. } => 11,
            VphiRequest::ReadFrom { .. } => 12,
            VphiRequest::WriteTo { .. } => 13,
            VphiRequest::Mmap { .. } => 14,
            VphiRequest::Munmap { .. } => 15,
            VphiRequest::FenceMark { .. } => 16,
            VphiRequest::FenceWait { .. } => 17,
            VphiRequest::FenceSignal { .. } => 18,
            VphiRequest::Close { .. } => 19,
            VphiRequest::SysfsRead { .. } => 20,
            VphiRequest::GetNodeIds => 21,
            VphiRequest::SendTimed { .. } => 22,
            VphiRequest::RecvTimed { .. } => 23,
            VphiRequest::Poll { .. } => 24,
        }
    }

    /// The endpoint identity the frontend's queue router hashes: requests
    /// naming the same endpoint must stay FIFO with respect to each other,
    /// so they all map to the same virtqueue.  Endpoint-less operations
    /// return `None` and ride queue 0.  The match has no wildcard arm, so
    /// the compiler's exhaustiveness check makes a new opcode decide its
    /// routing identity explicitly.
    pub fn routing_epd(&self) -> Option<GuestEpd> {
        match *self {
            VphiRequest::Open
            | VphiRequest::Munmap { .. }
            | VphiRequest::SysfsRead { .. }
            | VphiRequest::GetNodeIds => None,
            VphiRequest::Bind { epd, .. }
            | VphiRequest::Listen { epd, .. }
            | VphiRequest::Connect { epd, .. }
            | VphiRequest::Accept { epd }
            | VphiRequest::Send { epd, .. }
            | VphiRequest::Recv { epd, .. }
            | VphiRequest::Register { epd, .. }
            | VphiRequest::Unregister { epd, .. }
            | VphiRequest::VreadFrom { epd, .. }
            | VphiRequest::VwriteTo { epd, .. }
            | VphiRequest::ReadFrom { epd, .. }
            | VphiRequest::WriteTo { epd, .. }
            | VphiRequest::Mmap { epd, .. }
            | VphiRequest::FenceMark { epd }
            | VphiRequest::FenceWait { epd, .. }
            | VphiRequest::FenceSignal { epd, .. }
            | VphiRequest::Close { epd }
            | VphiRequest::SendTimed { epd, .. }
            | VphiRequest::RecvTimed { epd, .. }
            | VphiRequest::Poll { epd, .. } => Some(epd),
        }
    }

    /// Human-readable opcode name (for traces).
    pub fn name(&self) -> &'static str {
        match self {
            VphiRequest::Open => "open",
            VphiRequest::Bind { .. } => "bind",
            VphiRequest::Listen { .. } => "listen",
            VphiRequest::Connect { .. } => "connect",
            VphiRequest::Accept { .. } => "accept",
            VphiRequest::Send { .. } => "send",
            VphiRequest::Recv { .. } => "recv",
            VphiRequest::Register { .. } => "register",
            VphiRequest::Unregister { .. } => "unregister",
            VphiRequest::VreadFrom { .. } => "vreadfrom",
            VphiRequest::VwriteTo { .. } => "vwriteto",
            VphiRequest::ReadFrom { .. } => "readfrom",
            VphiRequest::WriteTo { .. } => "writeto",
            VphiRequest::Mmap { .. } => "mmap",
            VphiRequest::Munmap { .. } => "munmap",
            VphiRequest::FenceMark { .. } => "fence_mark",
            VphiRequest::FenceWait { .. } => "fence_wait",
            VphiRequest::FenceSignal { .. } => "fence_signal",
            VphiRequest::Close { .. } => "close",
            VphiRequest::SysfsRead { .. } => "sysfs_read",
            VphiRequest::GetNodeIds => "get_node_ids",
            VphiRequest::SendTimed { .. } => "send_timed",
            VphiRequest::RecvTimed { .. } => "recv_timed",
            VphiRequest::Poll { .. } => "poll",
        }
    }

    /// Encode into the fixed 64-byte header.
    pub fn encode(&self) -> [u8; REQ_SIZE] {
        let mut b = [0u8; REQ_SIZE];
        b[0] = self.opcode();
        let mut w = FieldWriter { buf: &mut b, at: 8 };
        match *self {
            VphiRequest::Open | VphiRequest::GetNodeIds => {}
            VphiRequest::Bind { epd, port } => {
                w.u64(epd);
                w.u64(port as u64);
            }
            VphiRequest::Listen { epd, backlog } => {
                w.u64(epd);
                w.u64(backlog as u64);
            }
            VphiRequest::Connect { epd, node, port } => {
                w.u64(epd);
                w.u64(node as u64);
                w.u64(port as u64);
            }
            VphiRequest::Accept { epd }
            | VphiRequest::FenceMark { epd }
            | VphiRequest::Close { epd } => w.u64(epd),
            VphiRequest::Send { epd, len } | VphiRequest::Recv { epd, len } => {
                w.u64(epd);
                w.u64(len as u64);
            }
            VphiRequest::Register { epd, len, prot, fixed_offset, has_fixed } => {
                w.u64(epd);
                w.u64(len);
                w.u64(prot as u64);
                w.u64(fixed_offset);
                w.u64(has_fixed as u64);
            }
            VphiRequest::Unregister { epd, offset, len } => {
                w.u64(epd);
                w.u64(offset);
                w.u64(len);
            }
            VphiRequest::VreadFrom { epd, roffset, len, flags }
            | VphiRequest::VwriteTo { epd, roffset, len, flags } => {
                w.u64(epd);
                w.u64(roffset);
                w.u64(len);
                w.u64(flags as u64);
            }
            VphiRequest::ReadFrom { epd, loffset, len, roffset, flags }
            | VphiRequest::WriteTo { epd, loffset, len, roffset, flags } => {
                w.u64(epd);
                w.u64(loffset);
                w.u64(len);
                w.u64(roffset);
                w.u64(flags as u64);
            }
            VphiRequest::Mmap { epd, offset, len, prot } => {
                w.u64(epd);
                w.u64(offset);
                w.u64(len);
                w.u64(prot as u64);
            }
            VphiRequest::Munmap { vaddr } => w.u64(vaddr),
            VphiRequest::FenceWait { epd, marker } => {
                w.u64(epd);
                w.u64(marker);
            }
            VphiRequest::FenceSignal { epd, loff, lval, roff, rval } => {
                w.u64(epd);
                w.u64(loff);
                w.u64(lval);
                w.u64(roff);
                w.u64(rval);
            }
            VphiRequest::SysfsRead { mic_index } => w.u64(mic_index as u64),
            VphiRequest::SendTimed { epd, len } | VphiRequest::RecvTimed { epd, len } => {
                w.u64(epd);
                w.u64(len);
            }
            VphiRequest::Poll { epd, events, timeout_ms } => {
                w.u64(epd);
                w.u64(events as u64);
                w.u64(timeout_ms as u64);
            }
        }
        b
    }

    /// Decode from a header buffer.  A field narrower than its 64-bit
    /// slot must fit its type, and `has_fixed` must be 0 or 1: a header
    /// that does not decode exactly is refused, never truncated.
    pub fn decode(b: &[u8]) -> Option<VphiRequest> {
        let b = b.first_chunk::<REQ_SIZE>()?;
        let mut r = FieldReader { buf: b, at: 8 };
        Some(match b[0] {
            1 => VphiRequest::Open,
            2 => VphiRequest::Bind { epd: r.u64(), port: r.narrow()? },
            3 => VphiRequest::Listen { epd: r.u64(), backlog: r.narrow()? },
            4 => VphiRequest::Connect { epd: r.u64(), node: r.narrow()?, port: r.narrow()? },
            5 => VphiRequest::Accept { epd: r.u64() },
            6 => VphiRequest::Send { epd: r.u64(), len: r.narrow()? },
            7 => VphiRequest::Recv { epd: r.u64(), len: r.narrow()? },
            8 => VphiRequest::Register {
                epd: r.u64(),
                len: r.u64(),
                prot: r.narrow()?,
                fixed_offset: r.u64(),
                has_fixed: r.flag()?,
            },
            9 => VphiRequest::Unregister { epd: r.u64(), offset: r.u64(), len: r.u64() },
            10 => VphiRequest::VreadFrom {
                epd: r.u64(),
                roffset: r.u64(),
                len: r.u64(),
                flags: r.narrow()?,
            },
            11 => VphiRequest::VwriteTo {
                epd: r.u64(),
                roffset: r.u64(),
                len: r.u64(),
                flags: r.narrow()?,
            },
            12 => VphiRequest::ReadFrom {
                epd: r.u64(),
                loffset: r.u64(),
                len: r.u64(),
                roffset: r.u64(),
                flags: r.narrow()?,
            },
            13 => VphiRequest::WriteTo {
                epd: r.u64(),
                loffset: r.u64(),
                len: r.u64(),
                roffset: r.u64(),
                flags: r.narrow()?,
            },
            14 => {
                VphiRequest::Mmap { epd: r.u64(), offset: r.u64(), len: r.u64(), prot: r.narrow()? }
            }
            15 => VphiRequest::Munmap { vaddr: r.u64() },
            16 => VphiRequest::FenceMark { epd: r.u64() },
            17 => VphiRequest::FenceWait { epd: r.u64(), marker: r.u64() },
            18 => VphiRequest::FenceSignal {
                epd: r.u64(),
                loff: r.u64(),
                lval: r.u64(),
                roff: r.u64(),
                rval: r.u64(),
            },
            19 => VphiRequest::Close { epd: r.u64() },
            20 => VphiRequest::SysfsRead { mic_index: r.narrow()? },
            21 => VphiRequest::GetNodeIds,
            22 => VphiRequest::SendTimed { epd: r.u64(), len: r.u64() },
            23 => VphiRequest::RecvTimed { epd: r.u64(), len: r.u64() },
            24 => VphiRequest::Poll { epd: r.u64(), events: r.narrow()?, timeout_ms: r.narrow()? },
            _ => return None,
        })
    }
}

struct FieldWriter<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl FieldWriter<'_> {
    fn u64(&mut self, v: u64) {
        self.buf[self.at..self.at + 8].copy_from_slice(&v.to_le_bytes());
        self.at += 8;
    }
}

/// Reads a header's fields in order.  No request has fields past the
/// header, so a read past it cannot happen; it would read 0.
struct FieldReader<'a> {
    buf: &'a [u8; REQ_SIZE],
    at: usize,
}

impl FieldReader<'_> {
    fn u64(&mut self) -> u64 {
        let field = self.buf.get(self.at..).and_then(<[u8]>::first_chunk::<8>);
        self.at += 8;
        field.map_or(0, |f| u64::from_le_bytes(*f))
    }

    /// The next field as a narrower type; `None` if it does not fit.
    fn narrow<T: TryFrom<u64>>(&mut self) -> Option<T> {
        T::try_from(self.u64()).ok()
    }

    /// The next field as a `bool`; `None` unless it is 0 or 1.
    fn flag(&mut self) -> Option<bool> {
        match self.u64() {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// The response header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VphiResponse {
    /// 0 on success, negative errno on failure.
    pub status: i64,
    /// Primary return value (epd, port, byte count, offset, vaddr, …).
    pub val0: u64,
    /// Secondary return value (peer node, marker hi, …).
    pub val1: u64,
}

impl VphiResponse {
    pub fn ok(val0: u64, val1: u64) -> Self {
        VphiResponse { status: 0, val0, val1 }
    }

    pub fn err(e: ScifError) -> Self {
        VphiResponse { status: -(e.errno() as i64), val0: 0, val1: 0 }
    }

    pub fn from_result(r: ScifResult<(u64, u64)>) -> Self {
        match r {
            Ok((v0, v1)) => Self::ok(v0, v1),
            Err(e) => Self::err(e),
        }
    }

    /// Back to a `ScifResult` on the guest side.
    pub fn into_result(self) -> ScifResult<(u64, u64)> {
        if self.status == 0 {
            Ok((self.val0, self.val1))
        } else {
            Err(ScifError::from_errno((-self.status) as i32).unwrap_or(ScifError::Inval))
        }
    }

    pub fn encode(&self) -> [u8; RESP_SIZE] {
        let mut b = [0u8; RESP_SIZE];
        b[0..8].copy_from_slice(&self.status.to_le_bytes());
        b[8..16].copy_from_slice(&self.val0.to_le_bytes());
        b[16..24].copy_from_slice(&self.val1.to_le_bytes());
        b
    }

    pub fn decode(b: &[u8]) -> Option<VphiResponse> {
        if b.len() < RESP_SIZE {
            return None;
        }
        Some(VphiResponse {
            status: i64::from_le_bytes(b[0..8].try_into().ok()?),
            val0: u64::from_le_bytes(b[8..16].try_into().ok()?),
            val1: u64::from_le_bytes(b[16..24].try_into().ok()?),
        })
    }
}

/// Pack/unpack poll event bits used on the wire (bit 0 = IN, bit 1 = OUT,
/// bit 2 = HUP).
pub fn poll_events_to_wire(e: vphi_scif::PollEvents) -> u8 {
    use vphi_scif::PollEvents;
    (e.intersects(PollEvents::IN) as u8)
        | ((e.intersects(PollEvents::OUT) as u8) << 1)
        | ((e.intersects(PollEvents::HUP) as u8) << 2)
}

pub fn poll_events_from_wire(b: u8) -> vphi_scif::PollEvents {
    use vphi_scif::PollEvents;
    let mut e = PollEvents::NONE;
    if b & 1 != 0 {
        e = e | PollEvents::IN;
    }
    if b & 2 != 0 {
        e = e | PollEvents::OUT;
    }
    if b & 4 != 0 {
        e = e | PollEvents::HUP;
    }
    e
}

/// Pack/unpack RMA flag bits used on the wire.
pub fn rma_flags_to_wire(f: vphi_scif::RmaFlags) -> u8 {
    (f.sync as u8) | ((f.use_cpu as u8) << 1)
}

pub fn rma_flags_from_wire(b: u8) -> vphi_scif::RmaFlags {
    vphi_scif::RmaFlags { sync: b & 1 != 0, use_cpu: b & 2 != 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<VphiRequest> {
        vec![
            VphiRequest::Open,
            VphiRequest::Bind { epd: 7, port: 42 },
            VphiRequest::Listen { epd: 7, backlog: 16 },
            VphiRequest::Connect { epd: 7, node: 1, port: 300 },
            VphiRequest::Accept { epd: 7 },
            VphiRequest::Send { epd: 7, len: 4096 },
            VphiRequest::Recv { epd: 7, len: 1 },
            VphiRequest::Register {
                epd: 7,
                len: 1 << 20,
                prot: 3,
                fixed_offset: 0x1000,
                has_fixed: true,
            },
            VphiRequest::Unregister { epd: 7, offset: 0x1000, len: 1 << 20 },
            VphiRequest::VreadFrom { epd: 7, roffset: 0x2000, len: 4096, flags: 1 },
            VphiRequest::VwriteTo { epd: 7, roffset: 0x2000, len: 4096, flags: 3 },
            VphiRequest::ReadFrom { epd: 7, loffset: 1, len: 2, roffset: 3, flags: 0 },
            VphiRequest::WriteTo { epd: 7, loffset: 9, len: 8, roffset: 7, flags: 1 },
            VphiRequest::Mmap { epd: 7, offset: 0x3000, len: 8192, prot: 1 },
            VphiRequest::Munmap { vaddr: 0x7f00_0000 },
            VphiRequest::FenceMark { epd: 7 },
            VphiRequest::FenceWait { epd: 7, marker: 99 },
            VphiRequest::FenceSignal { epd: 7, loff: 1, lval: 2, roff: 3, rval: 4 },
            VphiRequest::Close { epd: 7 },
            VphiRequest::SysfsRead { mic_index: 0 },
            VphiRequest::GetNodeIds,
            VphiRequest::SendTimed { epd: 7, len: 300 << 20 },
            VphiRequest::RecvTimed { epd: 7, len: 300 << 20 },
            VphiRequest::Poll { epd: 7, events: 3, timeout_ms: 250 },
        ]
    }

    #[test]
    fn every_request_round_trips() {
        for req in all_requests() {
            let encoded = req.encode();
            let decoded = VphiRequest::decode(&encoded).expect("decodes");
            assert_eq!(decoded, req, "round-trip failed for {}", req.name());
        }
    }

    #[test]
    fn routing_identity_is_the_epd_where_one_exists() {
        for req in all_requests() {
            let epd_less = matches!(
                req,
                VphiRequest::Open
                    | VphiRequest::Munmap { .. }
                    | VphiRequest::SysfsRead { .. }
                    | VphiRequest::GetNodeIds
            );
            if epd_less {
                assert_eq!(req.routing_epd(), None, "{} has no endpoint", req.name());
            } else {
                assert_eq!(req.routing_epd(), Some(7), "{} routes on its epd", req.name());
            }
        }
    }

    #[test]
    fn opcodes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for req in all_requests() {
            assert!(seen.insert(req.opcode()), "duplicate opcode for {}", req.name());
            assert!((req.opcode() as usize) < OPCODES, "{} outgrew OPCODES", req.name());
        }
    }

    #[test]
    fn bad_input_rejected() {
        assert_eq!(VphiRequest::decode(&[]), None);
        assert_eq!(VphiRequest::decode(&[0u8; REQ_SIZE]), None); // opcode 0
        let mut junk = [0u8; REQ_SIZE];
        junk[0] = 200;
        assert_eq!(VphiRequest::decode(&junk), None);
        assert_eq!(VphiResponse::decode(&[0u8; 4]), None);
    }

    /// Each field narrower than its 64-bit slot, set one past its type's
    /// range in an otherwise valid header, is refused rather than
    /// truncated; so is a `has_fixed` word other than 0 or 1.
    #[test]
    fn a_field_that_does_not_fit_its_type_is_refused() {
        // (request, slot of a narrowed field, first value past its type)
        let narrowed = [
            ("bind", 1, 1 << 16),
            ("listen", 1, 1 << 32),
            ("connect", 1, 1 << 16),
            ("connect", 2, 1 << 16),
            ("send", 1, 1 << 32),
            ("recv", 1, 1 << 32),
            ("register", 2, 1 << 8),
            ("register", 4, 2),
            ("vreadfrom", 3, 1 << 8),
            ("vwriteto", 3, 1 << 8),
            ("readfrom", 4, 1 << 8),
            ("writeto", 4, 1 << 8),
            ("mmap", 3, 1 << 8),
            ("sysfs_read", 0, 1 << 32),
            ("poll", 1, 1 << 8),
            ("poll", 2, 1 << 32),
        ];
        for (name, slot, past) in narrowed {
            let req = all_requests().into_iter().find(|r| r.name() == name).expect(name);
            let mut header = req.encode();
            let at = 8 + 8 * slot;
            header[at..at + 8].copy_from_slice(&u64::to_le_bytes(past));
            assert_eq!(VphiRequest::decode(&header), None, "{name} slot {slot}");
        }
    }

    #[test]
    fn response_round_trips_ok_and_err() {
        let ok = VphiResponse::ok(123, 456);
        assert_eq!(VphiResponse::decode(&ok.encode()), Some(ok));
        assert_eq!(ok.into_result(), Ok((123, 456)));

        let err = VphiResponse::err(ScifError::ConnRefused);
        let back = VphiResponse::decode(&err.encode()).unwrap();
        assert_eq!(back.into_result(), Err(ScifError::ConnRefused));
    }

    #[test]
    fn from_result_matches_manual_paths() {
        assert_eq!(VphiResponse::from_result(Ok((1, 2))), VphiResponse::ok(1, 2));
        assert_eq!(
            VphiResponse::from_result(Err(ScifError::NoMem)),
            VphiResponse::err(ScifError::NoMem)
        );
    }

    #[test]
    fn rma_flag_wire_round_trip() {
        use vphi_scif::RmaFlags;
        for f in [RmaFlags::SYNC, RmaFlags::ASYNC, RmaFlags::SYNC_CPU] {
            assert_eq!(rma_flags_from_wire(rma_flags_to_wire(f)), f);
        }
    }

    #[test]
    fn unknown_errno_degrades_to_einval() {
        let resp = VphiResponse { status: -9999, val0: 0, val1: 0 };
        assert_eq!(resp.into_result(), Err(ScifError::Inval));
    }
}
