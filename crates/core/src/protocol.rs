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

// Adding an opcode must fail at `routing_epd`, the one hand-written match
// over `VphiRequest`, not fall into a `_` arm — the second lint is the
// first one's case of a wildcard that stands for exactly one variant today.
// Everything else about an opcode follows from its line in the declaration.
#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

use vphi_scif::{ScifError, ScifResult};

/// Size of an encoded request header.
pub const REQ_SIZE: usize = 64;
/// Size of an encoded response header.
pub const RESP_SIZE: usize = 32;

/// Guest-side endpoint handle (index into the backend's endpoint table).
pub type GuestEpd = u64;

/// Writes one field of type `T`: a wire format implements it once per
/// field type its messages use.
pub trait Put<T> {
    fn put(&mut self, v: &T);
}

/// Reads one field of type `T`; `None` refuses the input.
pub trait Take<T> {
    fn take(&mut self) -> Option<T>;
}

/// Declares a wire message once, one line per variant:
/// `opcode => Variant "name" { field: Type, .. }`, the braces left out for
/// a unit variant.  From the declaration come the enum, `opcode()`,
/// `name()`, `OPCODES` (one past the largest opcode), `put_fields` (the
/// fields in declaration order, through the format's [`Put`] impls) and
/// its inverse `take_fields` (through [`Take`]).  The opcode's own bytes
/// and whatever frames the fields stay with the format.  A duplicated
/// opcode is a compile error: `take_fields` denies unreachable patterns.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $Enum:ident {
            $( $(#[$vmeta:meta])* $op:literal => $V:ident $name:literal
                $({ $($f:ident: $t:ty),* $(,)? })? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $Enum {
            $( $(#[$vmeta])* $V $({ $($f: $t),* })?, )*
        }

        impl $Enum {
            /// One past the largest opcode: the size of a table indexed by it.
            pub const OPCODES: usize = {
                let mut end = 0;
                $( if $op + 1 > end { end = $op + 1; } )*
                end
            };

            /// The message's wire opcode.
            pub fn opcode(&self) -> u8 {
                match self { $( Self::$V { .. } => $op, )* }
            }

            /// The message's name (for traces).
            pub fn name(&self) -> &'static str {
                match self { $( Self::$V { .. } => $name, )* }
            }

            /// Writes the fields, in declaration order.
            pub fn put_fields<W>(&self, w: &mut W)
            where
                W: $($($($crate::protocol::Put<$t> +)*)?)*
            {
                match self {
                    $( Self::$V { $($($f),*)? } => {
                        $($($crate::protocol::Put::<$t>::put(w, $f);)*)?
                    } )*
                }
            }

            /// The variant `op` names, its fields read in declaration
            /// order; `None` for an unknown opcode or a refused field.
            #[deny(unreachable_patterns)]
            pub fn take_fields<R>(op: u8, r: &mut R) -> Option<Self>
            where
                R: $($($($crate::protocol::Take<$t> +)*)?)*
            {
                Some(match op {
                    $( $op => Self::$V {
                        $($($f: $crate::protocol::Take::<$t>::take(r)?),*)?
                    }, )*
                    _ => return None,
                })
            }
        }
    };
}

wire_enum! {
    /// The SCIF operations vPHI forwards (paper §III: "Most of the SCIF
    /// functionality is exposed to user space through different ioctl()
    /// commands").
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum VphiRequest {
        /// `scif_open` → new guest endpoint handle.
        1 => Open "open",
        /// `scif_bind(epd, port)`; port 0 = ephemeral.
        2 => Bind "bind" { epd: GuestEpd, port: u16 },
        /// `scif_listen(epd, backlog)`.
        3 => Listen "listen" { epd: GuestEpd, backlog: u32 },
        /// `scif_connect(epd, node:port)`.
        4 => Connect "connect" { epd: GuestEpd, node: u16, port: u16 },
        /// `scif_accept(epd)` — dispatched on a worker (may wait forever).
        5 => Accept "accept" { epd: GuestEpd },
        /// `scif_send(epd, …, len)`; data in the chain's readable payload.
        6 => Send "send" { epd: GuestEpd, len: u32 },
        /// `scif_recv(epd, …, len)`; data lands in the writable payload.
        7 => Recv "recv" { epd: GuestEpd, len: u32 },
        /// `scif_register` of pinned guest pages (payload descriptor holds the
        /// guest-physical base).
        8 => Register "register"
            { epd: GuestEpd, len: u64, prot: u8, fixed_offset: u64, has_fixed: bool },
        /// `scif_unregister(epd, offset, len)`.
        9 => Unregister "unregister" { epd: GuestEpd, offset: u64, len: u64 },
        /// `scif_vreadfrom`: remote window → pinned guest buffer.
        10 => VreadFrom "vreadfrom" { epd: GuestEpd, roffset: u64, len: u64, flags: u8 },
        /// `scif_vwriteto`: pinned guest buffer → remote window.
        11 => VwriteTo "vwriteto" { epd: GuestEpd, roffset: u64, len: u64, flags: u8 },
        /// `scif_readfrom` (window-to-window).
        12 => ReadFrom "readfrom"
            { epd: GuestEpd, loffset: u64, len: u64, roffset: u64, flags: u8 },
        /// `scif_writeto` (window-to-window).
        13 => WriteTo "writeto"
            { epd: GuestEpd, loffset: u64, len: u64, roffset: u64, flags: u8 },
        /// `scif_mmap(epd, offset, len, prot)` → guest virtual address.
        14 => Mmap "mmap" { epd: GuestEpd, offset: u64, len: u64, prot: u8 },
        /// `scif_munmap(vaddr)`.
        15 => Munmap "munmap" { vaddr: u64 },
        /// `scif_fence_mark(epd)` → marker.
        16 => FenceMark "fence_mark" { epd: GuestEpd },
        /// `scif_fence_wait(epd, marker)`.
        17 => FenceWait "fence_wait" { epd: GuestEpd, marker: u64 },
        /// `scif_fence_signal(epd, loff, lval, roff, rval)`.
        18 => FenceSignal "fence_signal"
            { epd: GuestEpd, loff: u64, lval: u64, roff: u64, rval: u64 },
        /// `scif_close(epd)`.
        19 => Close "close" { epd: GuestEpd },
        /// Read one host sysfs attribute (value returned in the writable
        /// payload).
        20 => SysfsRead "sysfs_read" { mic_index: u32 },
        /// `scif_get_node_ids`.
        21 => GetNodeIds "get_node_ids",
        /// Timed-bulk-lane send of `len` virtual bytes (one staging chunk).
        22 => SendTimed "send_timed" { epd: GuestEpd, len: u64 },
        /// Timed-bulk-lane receive of `len` virtual bytes.
        23 => RecvTimed "recv_timed" { epd: GuestEpd, len: u64 },
        /// `scif_poll` on one endpoint: `events` is the interest mask
        /// (bit 0 = IN, bit 1 = OUT); waits up to `timeout_ms` of wall time.
        24 => Poll "poll" { epd: GuestEpd, events: u8, timeout_ms: u32 },
    }
}

impl VphiRequest {
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

    /// Encode into the fixed 64-byte header: the opcode in byte 0, bytes
    /// 1–7 reserved (0), then one 8-byte little-endian slot per field.
    pub fn encode(&self) -> [u8; REQ_SIZE] {
        let mut w = Slots { buf: [0u8; REQ_SIZE], at: 8 };
        w.buf[0] = self.opcode();
        self.put_fields(&mut w);
        w.buf
    }

    /// Decode from a header buffer's first [`REQ_SIZE`] bytes.  A field
    /// narrower than its slot must fit its type, `has_fixed` must be 0 or
    /// 1, and the reserved bytes and unused slots must be 0: a header
    /// decodes only if it re-encodes to itself, never truncated.
    pub fn decode(b: &[u8]) -> Option<VphiRequest> {
        let b = b.first_chunk::<REQ_SIZE>()?;
        let mut r = Slots { buf: b, at: 8 };
        let req = Self::take_fields(b[0], &mut r)?;
        b[1..8].iter().chain(&b[r.at..]).all(|&x| x == 0).then_some(req)
    }
}

/// A request header's fields in order, one 8-byte little-endian slot
/// each from `at`: written into an owned header, read from a borrowed one.
struct Slots<B> {
    buf: B,
    at: usize,
}

impl<T: Copy + Into<u64>> Put<T> for Slots<[u8; REQ_SIZE]> {
    fn put(&mut self, v: &T) {
        self.buf[self.at..self.at + 8].copy_from_slice(&(*v).into().to_le_bytes());
        self.at += 8;
    }
}

impl Slots<&[u8; REQ_SIZE]> {
    /// The next slot; `None` past the header.
    fn slot(&mut self) -> Option<u64> {
        let field = self.buf.get(self.at..)?.first_chunk::<8>()?;
        self.at += 8;
        Some(u64::from_le_bytes(*field))
    }
}

/// A narrower field is refused, not truncated, when its slot does not fit.
macro_rules! take_narrowed {
    ($($t:ty),*) => {$(
        impl Take<$t> for Slots<&[u8; REQ_SIZE]> {
            fn take(&mut self) -> Option<$t> {
                <$t>::try_from(self.slot()?).ok()
            }
        }
    )*};
}
take_narrowed!(u8, u16, u32);

impl Take<u64> for Slots<&[u8; REQ_SIZE]> {
    fn take(&mut self) -> Option<u64> {
        self.slot()
    }
}

impl Take<bool> for Slots<&[u8; REQ_SIZE]> {
    fn take(&mut self) -> Option<bool> {
        match self.slot()? {
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

    /// What each of [`all_requests`] puts on the wire, in hex, one group
    /// per 8-byte slot (the first is the opcode and its reserved bytes).
    /// The header's bytes past the last group are 0.
    const WIRE: [(&str, &str); 24] = [
        ("open", "0100000000000000"),
        ("bind", "0200000000000000 0700000000000000 2a00000000000000"),
        ("listen", "0300000000000000 0700000000000000 1000000000000000"),
        ("connect", "0400000000000000 0700000000000000 0100000000000000 2c01000000000000"),
        ("accept", "0500000000000000 0700000000000000"),
        ("send", "0600000000000000 0700000000000000 0010000000000000"),
        ("recv", "0700000000000000 0700000000000000 0100000000000000"),
        (
            "register",
            "0800000000000000 0700000000000000 0000100000000000 0300000000000000 \
             0010000000000000 0100000000000000",
        ),
        ("unregister", "0900000000000000 0700000000000000 0010000000000000 0000100000000000"),
        (
            "vreadfrom",
            "0a00000000000000 0700000000000000 0020000000000000 0010000000000000 \
             0100000000000000",
        ),
        (
            "vwriteto",
            "0b00000000000000 0700000000000000 0020000000000000 0010000000000000 \
             0300000000000000",
        ),
        (
            "readfrom",
            "0c00000000000000 0700000000000000 0100000000000000 0200000000000000 \
             0300000000000000",
        ),
        (
            "writeto",
            "0d00000000000000 0700000000000000 0900000000000000 0800000000000000 \
             0700000000000000 0100000000000000",
        ),
        (
            "mmap",
            "0e00000000000000 0700000000000000 0030000000000000 0020000000000000 \
             0100000000000000",
        ),
        ("munmap", "0f00000000000000 0000007f00000000"),
        ("fence_mark", "1000000000000000 0700000000000000"),
        ("fence_wait", "1100000000000000 0700000000000000 6300000000000000"),
        (
            "fence_signal",
            "1200000000000000 0700000000000000 0100000000000000 0200000000000000 \
             0300000000000000 0400000000000000",
        ),
        ("close", "1300000000000000 0700000000000000"),
        ("sysfs_read", "1400000000000000"),
        ("get_node_ids", "1500000000000000"),
        ("send_timed", "1600000000000000 0700000000000000 0000c01200000000"),
        ("recv_timed", "1700000000000000 0700000000000000 0000c01200000000"),
        ("poll", "1800000000000000 0700000000000000 0300000000000000 fa00000000000000"),
    ];

    /// The bytes a hex string spells, whitespace ignored.
    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        let pair = |p: &[u8]| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap();
        digits.chunks(2).map(pair).collect()
    }

    /// The header is the guest ABI: every request's bytes are pinned.
    #[test]
    fn every_request_encodes_to_its_pinned_bytes() {
        let requests = all_requests();
        assert_eq!(requests.len(), WIRE.len());
        for (req, (name, hex)) in requests.iter().zip(WIRE) {
            assert_eq!(req.name(), name);
            let mut want = unhex(hex);
            want.resize(REQ_SIZE, 0);
            assert_eq!(req.encode().as_slice(), want, "{name}");
        }
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
            assert!(
                (req.opcode() as usize) < VphiRequest::OPCODES,
                "{} outgrew OPCODES",
                req.name()
            );
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

    /// A header decodes only if it re-encodes to itself: a nonzero
    /// reserved byte (1–7) or a nonzero slot past the request's last field
    /// is refused.
    #[test]
    fn a_header_with_junk_past_its_fields_is_refused() {
        for req in all_requests() {
            let mut fields = Slots { buf: [0u8; REQ_SIZE], at: 8 };
            req.put_fields(&mut fields);
            let header = req.encode();
            for at in (1..8).chain(fields.at..REQ_SIZE) {
                let mut junk = header;
                junk[at] = 1;
                assert_eq!(VphiRequest::decode(&junk), None, "{} byte {at}", req.name());
            }
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
