//! `rma_staged` / `rma_mapped`: `vreadfrom`/`vwriteto` of 256 KiB – 64 MiB
//! against a byte-backed 64 MiB device window, half on fixed guest ranges
//! (registration-cache warm) and half on ranges that slide through more
//! distinct addresses than the cache holds (cold, LRU-evicting).  The data
//! plane does the work; the fixed request path is a few percent.

use std::sync::Arc;

use vphi::builder::{VmConfig, VphiHost, VphiVm};
use vphi::guest::GuestBuf;
use vphi::GuestScif;
use vphi_phi::memory::DeviceRegion;
use vphi_scif::{Port, RmaFlags, ScifAddr, ScifEndpoint, ScifResult};
use vphi_sim_core::cost::{HUGE_PAGE_SIZE, PAGE_SIZE};
use vphi_sim_core::units::MIB;
use vphi_sim_core::{SplitMix64, Timeline};
use vphi_vmm::Gpa;

use crate::gen::{rma_cold_slots, rma_len, rma_round, RmaOp, RMA_SIZES, RMA_WINDOW};
use crate::record::{OpTag, Side, TrialLog};
use crate::stack::{Anchor, ByteFlow, DeviceServer, LeakAudit, ServerMode, WorkloadStack};

/// Sample class bits: size class in the low two, then temperature and
/// direction.
const COLD_BIT: u8 = 4;
const WRITE_BIT: u8 = 8;
const STAMP: usize = 64;
/// Guest RAM: four warm buffers (84 MiB), the cold slide (86 MiB), rings
/// and slabs.
const GUEST_MEM: u64 = 256 * MIB;
/// Registration-cache capacity of the default config; set-up fills it so
/// every cold op of the measured window evicts.
const REG_CACHE_ENTRIES: usize = 128;

pub fn rma_sample_class(op: &RmaOp) -> u8 {
    op.class | if op.cold { COLD_BIT } else { 0 } | if op.write { WRITE_BIT } else { 0 }
}

pub struct Rma {
    seed: u64,
    mapped: bool,
    host: VphiHost,
    vm: VphiVm,
    guest: GuestScif,
    native: ScifEndpoint,
    servers: Vec<DeviceServer>,
    /// The 64 MiB of GDDR both connections' windows expose.
    region: Arc<DeviceRegion>,
    /// One fixed guest buffer per size class (cache-warm ops).
    warm: Vec<GuestBuf>,
    /// Where a first-fit guest allocation lands once set-up is done; cold
    /// ranges are carved above it.
    first_fit: u64,
    native_buf: Vec<u8>,
}

impl Rma {
    pub fn build_rma(seed: u64, mapped: bool, warmup_rounds: u64) -> Self {
        let host = VphiHost::new(1);
        // Byte-backed: `alloc_timed` regions move no bytes.
        let region = host.board(0).memory().alloc(RMA_WINDOW).expect("gddr alloc");
        region
            .with_bytes_mut(|bytes| SplitMix64::new(seed ^ 0x7769_6e64_6f77).fill_bytes(bytes))
            .expect("byte-backed region");
        let port = |n: u16| Port(if mapped { 2220 } else { 2200 } + n);
        let guest_server = DeviceServer::spawn_on_card(
            &host,
            port(0),
            ServerMode::Sink,
            Some(Arc::clone(&region)),
        );
        let native_server = DeviceServer::spawn_on_card(
            &host,
            port(1),
            ServerMode::Sink,
            Some(Arc::clone(&region)),
        );
        let vm =
            host.spawn_vm(VmConfig::builder().mem_size(GUEST_MEM).zero_copy_rma(mapped).build());
        let mut tl = Timeline::new();
        let guest = vm.open_scif(&mut tl).expect("guest open");
        guest
            .connect(ScifAddr::new(host.device_node(0), guest_server.port()), &mut tl)
            .expect("guest connect");
        guest_server.wait_serving();
        let native = host.native_endpoint().expect("native endpoint");
        native
            .connect(ScifAddr::new(host.device_node(0), native_server.port()), &mut tl)
            .expect("native connect");
        native_server.wait_serving();

        let warm: Vec<GuestBuf> = (0..RMA_SIZES.len())
            .map(|class| vm.alloc_buf(rma_len(seed, class, false)).expect("warm guest buffer"))
            .collect();
        // Fill the registration cache with throwaway one-page ranges.
        let filler: Vec<GuestBuf> = (0..REG_CACHE_ENTRIES)
            .map(|_| vm.alloc_buf(PAGE_SIZE).expect("filler guest buffer"))
            .collect();
        for buf in &filler {
            guest.vreadfrom(buf, 0, RmaFlags::SYNC, &mut tl).expect("cache-fill read");
        }
        drop(filler);
        // Find where the cold slide will sit, and fault its guest RAM in
        // now: which slots a run touches first depends on the seed, and
        // neither memory nor the first cold ops should.
        let mem = vm.vm().mem();
        let probe = mem.alloc(cold_span()).expect("guest RAM too small for the cold slide");
        mem.with_slice_mut(probe, cold_span(), |ram| ram.fill(0xC0)).expect("touch the cold slide");
        mem.free(probe).expect("free of the layout probe");

        let mut stack = Rma {
            seed,
            mapped,
            host,
            vm,
            guest,
            native,
            servers: vec![guest_server, native_server],
            region,
            warm,
            first_fit: probe.0,
            native_buf: vec![0u8; (RMA_WINDOW + REG_CACHE_ENTRIES as u64 * PAGE_SIZE) as usize],
        };
        let mut scratch = TrialLog::new(false, None);
        for round in 0..warmup_rounds {
            stack.play_round(round, &mut scratch);
        }
        stack
    }

    /// Guest address of cold range `slot` of `class`: small classes step by
    /// a page, classes above the 4 MiB gate by a huge page; every start is
    /// distinct across classes, so mapping-cache keys never alias.
    fn cold_gpa(&self, op: &RmaOp) -> u64 {
        let base = self.first_fit.div_ceil(HUGE_PAGE_SIZE) * HUGE_PAGE_SIZE + HUGE_PAGE_SIZE;
        let before: u32 = match op.class {
            0 | 3 => 0,
            1 => rma_cold_slots(0),
            _ => rma_cold_slots(3),
        };
        let step = if op.class < 2 { PAGE_SIZE } else { HUGE_PAGE_SIZE };
        base + (before + op.slot) as u64 * step
    }

    /// Allocate the cold guest buffer of `op` at its exact address: pad
    /// the first-fit allocator up to it, allocate, release the pad.
    fn cold_buf(&self, op: &RmaOp) -> GuestBuf {
        let want = self.cold_gpa(op);
        assert!(want + op.len <= self.first_fit + cold_span(), "cold range outside the slide");
        let mem = self.vm.vm().mem();
        let pad = mem.alloc(want - self.first_fit).expect("cold pad");
        let buf = self.vm.alloc_buf(op.len).expect("cold guest buffer");
        mem.free(pad).expect("free of the cold pad");
        assert!(
            pad == Gpa(self.first_fit) && buf.gpa() == Gpa(want),
            "guest allocator layout drifted: pad {pad}, buffer {} (wanted {want:#x})",
            buf.gpa()
        );
        buf
    }

    /// Stamp `op` before it runs: a write's source buffer (through
    /// `fill_local`), a read's source window.
    fn stamp_source(&self, op: &RmaOp, stamps: &Stamps, mut fill_local: impl FnMut(u64, &[u8])) {
        for (pos, stamp) in stamps {
            if op.write {
                fill_local(*pos, stamp);
            } else {
                self.region.write(op.roffset + pos, stamp).expect("stamp window");
            }
        }
    }

    /// After `op` ran: fail it if it errored, else read the stamps back
    /// from where it should have put them — the window for a write, the
    /// local buffer (through `peek_local`) for a read — and compare.
    fn verify_transfer(
        &self,
        op: &RmaOp,
        stamps: &Stamps,
        (name, done): (&'static str, ScifResult<()>),
        log: &mut TrialLog,
        peek_local: impl Fn(u64, &mut [u8]),
    ) {
        if let Err(e) = done {
            log.fail_ops(1, || format!("{name} of {} B: {e:?}", op.len));
            return;
        }
        let mut got = [0u8; 3 * STAMP];
        for ((pos, _), out) in stamps.iter().zip(got.chunks_exact_mut(STAMP)) {
            if op.write {
                self.region.read(op.roffset + pos, out).expect("read window back");
            } else {
                peek_local(*pos, out);
            }
        }
        log.check_bytes(name, &got, &stamps.map(|(_, s)| s).concat());
    }

    fn guest_op(&self, op: &RmaOp, slot: usize, log: &mut TrialLog) {
        let cold;
        let buf = if op.cold {
            cold = self.cold_buf(op);
            &cold
        } else {
            &self.warm[op.class as usize]
        };
        let stamps = stamps_of(op, 0);
        self.stamp_source(op, &stamps, |pos, s| buf.fill(pos, s).expect("stamp guest buffer"));
        let name = if op.write { "vwriteto" } else { "vreadfrom" };
        let tag = OpTag { name, class: rma_sample_class(op), bytes: op.len, weight: 1, slot };
        let done = log.timed_call(Side::Guest, tag, |tl| {
            if op.write {
                self.guest.vwriteto(buf, op.roffset, RmaFlags::SYNC, tl)
            } else {
                self.guest.vreadfrom(buf, op.roffset, RmaFlags::SYNC, tl)
            }
        });
        self.verify_transfer(op, &stamps, (name, done), log, |pos, out| {
            buf.peek(pos, out).expect("read guest buffer back")
        });
    }

    fn native_op(&mut self, op: &RmaOp, slot: usize, log: &mut TrialLog) {
        // The native path has no registration cache to miss; a cold op
        // still slides its buffer so both paths see moving addresses.
        let at =
            if op.cold { (op.slot as usize % REG_CACHE_ENTRIES) * PAGE_SIZE as usize } else { 0 };
        // Taken out of `self` for the op, so the helpers can borrow `self`.
        let mut whole = std::mem::take(&mut self.native_buf);
        let buf = &mut whole[at..at + op.len as usize];
        let stamps = stamps_of(op, 0x6e61_7469_7665);
        self.stamp_source(op, &stamps, |pos, s| {
            buf[pos as usize..pos as usize + STAMP].copy_from_slice(s)
        });
        let name = if op.write { "native_vwriteto" } else { "native_vreadfrom" };
        let tag = OpTag { name, class: rma_sample_class(op), bytes: op.len, weight: 1, slot };
        let done = log.timed_call(Side::Native, tag, |tl| {
            if op.write {
                self.native.vwriteto(buf, op.roffset, RmaFlags::SYNC, tl)
            } else {
                self.native.vreadfrom(buf, op.roffset, RmaFlags::SYNC, tl)
            }
        });
        self.verify_transfer(op, &stamps, (name, done), log, |pos, out| {
            out.copy_from_slice(&buf[pos as usize..pos as usize + STAMP])
        });
        self.native_buf = whole;
    }
}

/// Where an op is stamped, and with what.
type Stamps = [(u64, [u8; STAMP]); 3];

/// Guest RAM the cold slide needs above the first-fit point: up to two
/// huge pages to reach its aligned base, then the furthest-reaching range
/// — the last 64 MiB slot, or the last 16 MiB slot behind all of those.
fn cold_span() -> u64 {
    let big = rma_cold_slots(3) as u64;
    let mid = rma_cold_slots(2) as u64;
    let reach = ((big - 1) * HUGE_PAGE_SIZE + RMA_SIZES[3])
        .max((big + mid - 1) * HUGE_PAGE_SIZE + RMA_SIZES[2]);
    2 * HUGE_PAGE_SIZE + reach
}

/// Where an op is stamped — first bytes, a seeded middle, last bytes —
/// and with what.  Every op is verified through these: a transfer that
/// is skipped, truncated or lands elsewhere leaves a stamp behind.
fn stamps_of(op: &RmaOp, salt: u64) -> Stamps {
    let stamp = STAMP as u64;
    // Whole stamp slots strictly between the first and the last stamp, so
    // no two stamps overlap whatever the length.
    let slots = (op.len - 2 * stamp) / stamp;
    let middle = stamp + (op.stamp >> 8) % slots * stamp;
    [0, middle, op.len - stamp].map(|pos| {
        let mut bytes = [0u8; STAMP];
        SplitMix64::new(op.stamp ^ salt ^ pos.rotate_left(32)).fill_bytes(&mut bytes);
        (pos, bytes)
    })
}

impl WorkloadStack for Rma {
    fn play_round(&mut self, round: u64, log: &mut TrialLog) {
        let opened = log.open_round();
        // Op by op: a 64 MiB copy is long enough for the machine's speed
        // to drift between a guest block and a native block.
        for (slot, op) in rma_round(self.seed, round).iter().enumerate() {
            self.guest_op(op, slot, log);
            self.native_op(op, slot, log);
        }
        log.close_round(opened, None);
    }

    fn host(&self) -> &VphiHost {
        &self.host
    }

    fn vms(&self) -> Vec<&VphiVm> {
        vec![&self.vm]
    }

    fn paper_anchors(&self, log: &TrialLog) -> Vec<Anchor> {
        // Fig. 5: native remote reads peak at 6.4 GB/s; a vPHI read that
        // pays the per-page translation reaches 72 % of that.
        let big = (RMA_SIZES.len() - 1) as u8;
        let native_ns = log.native.virt_pct(50.0, |c| c & (3 | WRITE_BIT) == big);
        let cold_ns = log.guest.virt_pct(50.0, |c| c == big | COLD_BIT);
        let mut anchors = Vec::new();
        if native_ns > 0.0 {
            anchors.push(Anchor {
                what: "native 64 MiB read (GB/s)",
                measured: rma_len(self.seed, big as usize, false) as f64 / native_ns,
                published: 6.4,
            });
        }
        if !self.mapped && native_ns > 0.0 && cold_ns > 0.0 {
            anchors.push(Anchor {
                what: "cache-cold 64 MiB vPHI read / native",
                measured: native_ns / cold_ns,
                published: 0.72,
            });
        }
        anchors
    }

    fn probe_bytes(&self) -> usize {
        RMA_SIZES[1] as usize
    }

    fn has_size_classes(&self) -> bool {
        true
    }

    fn byte_flow(&self) -> ByteFlow {
        // Staged: the backend copies between its bounce buffer and guest
        // memory once.  Mapped: above the 4 MiB gate the transfer itself
        // lands in guest memory, so only the 36 of 228 MiB a round moves
        // in ≤ 4 MiB ops take the extra pass.
        ByteFlow {
            guest_mem_passes: if self.mapped { 36.0 / 228.0 } else { 1.0 },
            staged_share: 0.0,
        }
    }

    fn close_and_audit(self: Box<Self>, _log: &mut TrialLog) -> LeakAudit {
        let mut tl = Timeline::new();
        let _ = self.guest.close(&mut tl);
        self.native.close();
        let bad = LeakAudit::of_vm(&self.vm);
        drop(self.warm);
        self.vm.shutdown();
        for server in self.servers {
            server.join_server();
        }
        let _ = self.host.board(0).memory().free(self.region.offset());
        bad
    }
}
