//! Property-based tests over the core data structures and invariants
//! (proptest): allocators never overlap, queues preserve byte streams,
//! codecs round-trip, the replayed serial link never double-books, and the
//! paravirtual overhead identity holds for arbitrary message sizes.

use proptest::prelude::*;

use vphi::protocol::{Take, VphiRequest, VphiResponse, REQ_SIZE};
use vphi_bench::support::SerialLink;
use vphi_coi::protocol::{CoiMsg, ComputeManifest};
use vphi_phi::DeviceMemory;
use vphi_scif::queue::MsgQueue;
use vphi_scif::ScifError;
use vphi_sim_core::cost::{CostModel, PAGE_SIZE};
use vphi_sim_core::{SimTime, SpanLabel, SplitMix64, Timeline};
use vphi_vmm::GuestMemory;

// ---------------------------------------------------------------- codecs

/// Random fields, in range, for any declared message: the property tests
/// decode every variant from this source through its declaration's
/// `take_fields`, so a new variant is covered without a line here.  An
/// integer field is 0 a quarter of the time, its type's max a quarter and
/// uniform otherwise; `maxes` records each request slot's largest value.
struct Fields {
    rng: SplitMix64,
    maxes: Vec<u64>,
}

impl Fields {
    fn draw(&mut self) -> u64 {
        match self.rng.next_below(4) {
            0 => 0,
            1 => u64::MAX,
            _ => self.rng.next_u64(),
        }
    }
}

macro_rules! draw_unsigned {
    ($($t:ty),*) => {$(
        impl Take<$t> for Fields {
            fn take(&mut self) -> Option<$t> {
                self.maxes.push(<$t>::MAX.into());
                Some(self.draw() as $t)
            }
        }
    )*};
}
draw_unsigned!(u8, u16, u32, u64);

impl Take<bool> for Fields {
    fn take(&mut self) -> Option<bool> {
        self.maxes.push(1);
        Some(self.draw() & 1 == 1)
    }
}

impl Take<i32> for Fields {
    fn take(&mut self) -> Option<i32> {
        Some(self.draw() as i32)
    }
}

impl Take<f64> for Fields {
    fn take(&mut self) -> Option<f64> {
        Some(self.draw() as f64)
    }
}

impl Take<String> for Fields {
    fn take(&mut self) -> Option<String> {
        let len = self.rng.next_below(12);
        Some(
            (0..len)
                .map(|_| ['m', 'i', 'c', 'α', '-', '\n'][self.rng.next_below(6) as usize])
                .collect(),
        )
    }
}

impl Take<Vec<u64>> for Fields {
    fn take(&mut self) -> Option<Vec<u64>> {
        let len = self.rng.next_below(5);
        Some((0..len).map(|_| self.draw()).collect())
    }
}

impl Take<ComputeManifest> for Fields {
    fn take(&mut self) -> Option<ComputeManifest> {
        Some(ComputeManifest::new(self.take()?, self.take()?, self.take()?))
    }
}

proptest! {
    /// Every declared request, random in range: it round-trips; every
    /// strict prefix is refused; a nonzero reserved byte or unused slot is
    /// refused; and so is each narrowed field one past its type's max.
    #[test]
    fn vphi_request_codec_round_trips(seed: u64) {
        let mut fields = Fields { rng: SplitMix64::new(seed), maxes: Vec::new() };
        let mut variants = 0;
        for op in 0..=u8::MAX {
            fields.maxes.clear();
            let Some(req) = VphiRequest::take_fields(op, &mut fields) else { continue };
            variants += 1;
            let header = req.encode();
            prop_assert_eq!(VphiRequest::decode(&header), Some(req.clone()));
            for n in 0..REQ_SIZE {
                prop_assert_eq!(VphiRequest::decode(&header[..n]), None);
            }
            let end = 8 + 8 * fields.maxes.len();
            for at in (1..8).chain((end..REQ_SIZE).step_by(8)) {
                let mut extended = header;
                extended[at] = 1;
                prop_assert_eq!(VphiRequest::decode(&extended), None, "{:?} byte {}", req, at);
            }
            for (slot, &max) in fields.maxes.iter().enumerate().filter(|(_, &m)| m < u64::MAX) {
                let mut past = header;
                past[8 + 8 * slot..][..8].copy_from_slice(&(max + 1).to_le_bytes());
                prop_assert_eq!(VphiRequest::decode(&past), None, "{:?} slot {}", req, slot);
            }
        }
        prop_assert_eq!(variants, 24);
    }

    /// Every declared COI message, random in range: it round-trips, and
    /// every strict prefix and the frame with one byte more are refused.
    #[test]
    fn coi_msg_codec_round_trips(seed: u64) {
        let mut fields = Fields { rng: SplitMix64::new(seed), maxes: Vec::new() };
        let mut variants = 0;
        for op in 0..=u8::MAX {
            let Some(msg) = CoiMsg::take_fields(op, &mut fields) else { continue };
            variants += 1;
            let frame = msg.encode();
            prop_assert_eq!(CoiMsg::decode(&frame), Ok(msg.clone()));
            for n in 0..frame.len() {
                prop_assert_eq!(CoiMsg::decode(&frame[..n]), Err(ScifError::Inval));
            }
            let mut extended = frame;
            extended.push(0);
            prop_assert_eq!(CoiMsg::decode(&extended), Err(ScifError::Inval), "{:?}", msg);
        }
        prop_assert_eq!(variants, 16);
    }

    #[test]
    fn vphi_response_codec_round_trips(status in -200000i64..0, v0: u64, v1: u64) {
        let resp = VphiResponse { status, val0: v0, val1: v1 };
        prop_assert_eq!(VphiResponse::decode(&resp.encode()), Some(resp));
    }
}

// ----------------------------------------------------------- allocators

#[derive(Debug, Clone)]
enum AllocOp {
    Alloc(u64),
    FreeNth(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<AllocOp>> {
    prop::collection::vec(
        prop_oneof![
            (1u64..128 * 1024).prop_map(AllocOp::Alloc),
            (0usize..64).prop_map(AllocOp::FreeNth),
        ],
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn device_memory_allocations_never_overlap(ops in arb_ops()) {
        let mem = DeviceMemory::new(16 * 1024 * 1024);
        let mut live: Vec<(u64, u64)> = Vec::new(); // (offset, len)
        for op in ops {
            match op {
                AllocOp::Alloc(len) => {
                    if let Ok(region) = mem.alloc_timed(len) {
                        let (off, rlen) = (region.offset(), region.len());
                        // Page-rounded, in-bounds, disjoint from all live.
                        prop_assert_eq!(off % PAGE_SIZE, 0);
                        prop_assert!(rlen >= len);
                        prop_assert!(off + rlen <= mem.capacity());
                        for &(o, l) in &live {
                            prop_assert!(off + rlen <= o || o + l <= off,
                                "overlap: [{off},{rlen}) vs [{o},{l})");
                        }
                        live.push((off, rlen));
                    }
                }
                AllocOp::FreeNth(i) => {
                    if !live.is_empty() {
                        let (off, _) = live.remove(i % live.len());
                        prop_assert!(mem.free(off).is_ok());
                    }
                }
            }
            // Accounting matches the live set exactly.
            prop_assert_eq!(mem.allocated(), live.iter().map(|&(_, l)| l).sum::<u64>());
        }
        // Freeing everything restores a fully usable arena.
        for (off, _) in live {
            prop_assert!(mem.free(off).is_ok());
        }
        prop_assert!(mem.alloc_timed(mem.capacity()).is_ok());
    }

    #[test]
    fn guest_memory_allocations_never_overlap(ops in arb_ops()) {
        let mem = GuestMemory::new(8 * 1024 * 1024);
        let mut live: Vec<(u64, u64)> = Vec::new();
        for op in ops {
            match op {
                AllocOp::Alloc(len) => {
                    if let Ok(gpa) = mem.alloc(len) {
                        let rlen = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
                        for &(o, l) in &live {
                            prop_assert!(gpa.0 + rlen <= o || o + l <= gpa.0);
                        }
                        live.push((gpa.0, rlen));
                    }
                }
                AllocOp::FreeNth(i) => {
                    if !live.is_empty() {
                        let (off, _) = live.remove(i % live.len());
                        prop_assert!(mem.free(vphi_vmm::Gpa(off)).is_ok());
                    }
                }
            }
        }
    }
}

// ------------------------------------------------------------ msg queue

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SCIF byte stream delivers exactly the concatenation of the
    /// writes, regardless of how reads and writes are sliced.
    #[test]
    fn msg_queue_preserves_the_byte_stream(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..20),
        read_sizes in prop::collection::vec(1usize..128, 1..40),
    ) {
        let q = MsgQueue::new(1 << 16);
        let expected: Vec<u8> = chunks.concat();
        for c in &chunks {
            prop_assert!(q.write_all(c));
        }
        q.close();
        let mut got = Vec::new();
        let mut i = 0;
        loop {
            let want = read_sizes[i % read_sizes.len()];
            i += 1;
            let mut buf = vec![0u8; want];
            let n = q.read_some(&mut buf);
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        prop_assert_eq!(got, expected);
    }
}

// ---------------------------------------------------- replayed serial link

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The busy resource the contention replays queue on, the serial
    /// link: its transfers never overlap, start no earlier than issued and
    /// hold the link for their transfer time, for arbitrary arrival
    /// patterns.
    #[test]
    fn busy_resource_grants_are_disjoint(
        requests in prop::collection::vec((0u64..10_000_000, 1u64..1 << 20), 1..50)
    ) {
        let cost = CostModel::paper_calibrated();
        let mut link = SerialLink::new(&cost);
        let mut grants = Vec::new();
        for (at, bytes) in requests {
            let mut tl = Timeline::new();
            let end = link.transmit(SimTime(at), bytes, &mut tl);
            let start = SimTime(at) + tl.total_for(SpanLabel::LinkContention);
            let hold = tl.total_for(SpanLabel::LinkTransfer);
            prop_assert_eq!(hold, cost.link_transfer(bytes));
            prop_assert_eq!(end, start + hold + cost.link_latency);
            grants.push((start, start + hold));
        }
        grants.sort();
        for pair in grants.windows(2) {
            prop_assert!(pair[0].1 <= pair[1].0);
        }
    }
}

// ------------------------------------------------- cost-model identities

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any size under one staging chunk, the vPHI−native latency gap
    /// stays within the constant overhead plus the staging copy — the
    /// Fig. 4 "constant offset" claim as an algebraic property of the
    /// cost model.
    #[test]
    fn overhead_is_constant_modulo_staging_copies(bytes in 1u64..4 * 1024 * 1024) {
        let m = CostModel::paper_calibrated();
        let constant = m.paravirtual_floor_no_wait() + m.guest_wakeup;
        // vPHI adds: the constant + one staging copy each way of the chunk.
        let staging = m.cpu_copy(bytes);
        let predicted_gap = constant + staging;
        prop_assert!(predicted_gap >= constant);
        prop_assert!(
            predicted_gap.saturating_sub(constant) <= m.cpu_copy(4 * 1024 * 1024),
            "staging term exceeded one full chunk copy"
        );
    }

    /// Throughput ratio (vPHI/native) for an N-byte remote read is
    /// monotonically increasing in N and bounded by the 72% asymptote.
    #[test]
    fn rma_ratio_is_monotone_and_bounded(kib in 1u64..1_000_000) {
        let m = CostModel::paper_calibrated();
        let bytes = kib * 1024;
        let native = m.native_floor() + m.rma_setup + m.link_transfer(bytes);
        let vphi = native + m.paravirtual_floor_no_wait() + m.guest_wakeup
            + m.translate_pages(bytes);
        let ratio = native.as_nanos() as f64 / vphi.as_nanos() as f64;
        let asymptote = {
            let link = m.link_transfer(PAGE_SIZE).as_nanos() as f64;
            link / (link + m.page_translate.as_nanos() as f64)
        };
        prop_assert!(ratio <= asymptote + 1e-9, "ratio {ratio} above asymptote {asymptote}");
    }
}
