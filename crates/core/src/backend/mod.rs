//! The vPHI **backend device** — the QEMU extension.
//!
//! "We design vPHI backend device as a virtual PCI device and implement
//! it as a QEMU extension … the backend checks the shared ring and maps
//! the buffer to its address space avoiding again any copies … Afterwards,
//! the backend performs the relevant system call to the host SCIF driver
//! and waits for the result." (paper §III)
//!
//! Sharing falls out of the process model: every VM is one QEMU process,
//! so N VMs issuing SCIF requests are just N host processes doing ioctls
//! on `/dev/mic/scif` in parallel — nothing in the host driver changes.

mod dispatch;
mod drain;
mod holdings;
pub mod notify;
mod reg_cache;
mod rma;

pub use dispatch::{Dispatch, DispatchPolicy};
use dispatch::{PauseLedger, Workers};
pub use holdings::Holdings;
pub use notify::{LaneNotifier, LaneNotifyCounters, Recorder, BATCH_BUCKETS};
pub use reg_cache::RegCacheSnapshot;
pub use rma::RmaCharge;
use rma::RmaDir;

use std::sync::Arc;

use vphi_faults::{FaultHook, FaultSite};
use vphi_pcie::ApertureMap;
use vphi_phi::PhiBoard;
use vphi_scif::window::{WindowBacking, WindowBytes};
use vphi_scif::{
    NodeId, Port, Prot, ScifAddr, ScifEndpoint, ScifError, ScifFabric, ScifResult, HOST_NODE,
};
use vphi_sim_core::cost::GUEST_WATCHDOG;
use vphi_sim_core::{SimDuration, SpanLabel, Timeline};
use vphi_sync::{Counter, Flag, LockClass, Tally, TrackedMutex, TrackedRoleGuard};
use vphi_trace::{OpCtx, Stage, TraceCtx, Tracer};
use vphi_virtio::{DescChain, Descriptor, UsedElem};
use vphi_vmm::vma::VmaError;
use vphi_vmm::{Gpa, GuestMemory, GuestRange, KvmModule, VmaFlags};

use crate::frontend::{Completion, ExitHandler, ReqToken, VphiChannel, WaitBucketProfile};
use crate::mmapping::MappedRegionBacking;
use crate::protocol::{rma_flags_from_wire, VphiRequest, VphiResponse};

/// Pinned guest pages exposed to the host SCIF driver as window backing —
/// the zero-copy guest-memory-registration path of the paper, and how a
/// replayed RMA reaches the guest's buffer (`backend/rma.rs`).  Built from
/// a [`GuestRange`], so its pages are known to be guest RAM.
pub struct GuestWindowBytes {
    mem: Arc<GuestMemory>,
    range: GuestRange,
}

impl GuestWindowBytes {
    pub fn new(mem: Arc<GuestMemory>, range: GuestRange) -> Self {
        GuestWindowBytes { mem, range }
    }

    /// The guest address of `[at, at + len)` of the window.
    fn at(&self, at: u64, len: usize) -> ScifResult<Gpa> {
        self.range.sub(at, len as u64).map(GuestRange::gpa).ok_or(ScifError::OutOfRange)
    }
}

impl WindowBytes for GuestWindowBytes {
    fn len(&self) -> u64 {
        self.range.len()
    }

    fn read(&self, at: u64, out: &mut [u8]) -> ScifResult<()> {
        let gpa = self.at(at, out.len())?;
        self.mem.read(gpa, out).map_err(|_| ScifError::OutOfRange)
    }

    fn write(&self, at: u64, data: &[u8]) -> ScifResult<()> {
        let gpa = self.at(at, data.len())?;
        self.mem.write(gpa, data).map_err(|_| ScifError::OutOfRange)
    }
}

/// Counters surfaced by the figure harness.  What every request counts
/// is per lane instead (`BackendLane`).
#[derive(Debug, Default)]
pub struct BackendStats {
    pub pages_translated: Counter,
    /// Completion interrupts lost to fault injection (the guest's watchdog
    /// found each reply one period late).
    pub msi_lost: Counter,
    /// Abrupt guest deaths observed (injected or real).
    pub guest_deaths: Counter,
    /// Endpoints closed by the dead-guest garbage collector.
    pub endpoints_gced: Counter,
    /// Window registrations unpinned by the dead-guest garbage collector.
    pub windows_gced: Counter,
    /// Endpoints force-closed because their card was reset.
    pub endpoints_quarantined: Counter,
    /// Avail-ring drains that found at least one chain, one per wakeup
    /// sweep of a lane's shard thread.  A blocking kicker's passes are
    /// tallied by its lane; [`BackendInner::bursts`] counts both.
    #[expect(clippy::disallowed_types, reason = "frozen benchmark/src/counters.rs:40-41")]
    pub burst_drains: std::sync::atomic::AtomicU64,
    /// Chains popped across those drains; `burst_chains / burst_drains`
    /// is the backend-side view of doorbell amortization — batched
    /// submitters push it well above 1.
    #[expect(clippy::disallowed_types, reason = "frozen benchmark/src/counters.rs:40-41")]
    pub burst_chains: std::sync::atomic::AtomicU64,
    /// Registered windows pinned + mapped into the device aperture by the
    /// zero-copy large-RMA path (cold map-cache probes).
    pub windows_mapped: Counter,
    /// Large RMAs that found their window already pinned + mapped.
    pub map_hits: Counter,
    /// Scatter-gather descriptors built for zero-copy transfers.
    pub sg_descriptors: Counter,
    /// Bytes moved by RMAs that took the mapped arm (charged the window
    /// pin + aperture map instead of the staged arm's per-page translate;
    /// neither arm stages bytes).
    pub staging_bytes_avoided: Counter,
}

impl BackendStats {
    /// One shard drain pass popped `chains` chains.
    fn note_burst(&self, chains: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        self.burst_drains.fetch_add(1, Relaxed);
        self.burst_chains.fetch_add(chains, Relaxed);
    }
}

/// One queue lane's half of the device: its interrupt gate and what its
/// executor counts for every request it replays.  Only the holder of the
/// lane's executor role (DESIGN.md #21) writes the tallies, so a count is
/// a load and a store, not an atomic add (#27).
struct BackendLane {
    /// The lane's interrupt gate — the only way its completions
    /// interrupt the guest.
    notifier: LaneNotifier,
    /// Chains replayed.
    requests: Tally,
    /// Of those, handed to a QEMU worker.
    worker_dispatches: Tally,
    /// Blocking events and the VM pause time they cost.
    pause: PauseLedger,
    /// Blocking kickers' drain passes that found a chain, and the chains
    /// they popped (the shards' are `BackendStats::burst_*`).
    kicker_drains: Tally,
    kicker_chains: Tally,
}

/// Everything the service loop and worker threads share.
pub struct BackendInner {
    name: String,
    channel: Arc<VphiChannel>,
    guest_mem: Arc<GuestMemory>,
    kvm: Arc<KvmModule>,
    fabric: Arc<ScifFabric>,
    boards: Vec<Arc<PhiBoard>>,
    /// Everything the guest's endpoint descriptors hold (DESIGN.md #26).
    /// Device mappings are not under an endpoint's record: a mapping
    /// outlives `scif_close`, not the guest.  Each is recorded once, on
    /// its VMA in `kvm`, which names the endpoint that made it.
    held: Holdings,
    policy: DispatchPolicy,
    running: Flag,
    /// The QEMU worker threads requests are handed to.
    workers: Workers,
    /// Per queue lane: its interrupt gate and its counts.
    lanes: Vec<BackendLane>,
    /// What an RMA above `KMALLOC_MAX_SIZE` is charged (`backend/rma.rs`).
    rma: RmaCharge,
    pub stats: BackendStats,
    faults: FaultHook,
}

impl BackendInner {
    fn cost(&self) -> &Arc<vphi_sim_core::CostModel> {
        &self.fabric.shared().cost
    }

    /// What the guest's endpoint descriptors hold, for reports and
    /// zero-leak audits.
    pub fn holdings(&self) -> &Holdings {
        &self.held
    }

    /// Fault-injection arming point for backend-side sites (lost MSIs,
    /// abrupt guest death).
    pub fn fault_hook(&self) -> &FaultHook {
        &self.faults
    }

    /// Windows the backend believes are still pinned (leak detector).
    pub fn window_entries(&self) -> usize {
        self.held.window_entries()
    }

    /// Device mappings the guest has not unmapped (leak detector).
    pub fn mmap_entries(&self) -> usize {
        self.kvm.vma_count()
    }

    /// The zero-copy window-mapping table (zero-leak audits: after all
    /// windows are unregistered/closed, `mapped_windows()` must be 0).
    pub fn aperture(&self) -> &ApertureMap {
        self.held.aperture()
    }

    /// Worker dispatches attributed to queue lane `q`.
    pub fn queue_worker_dispatches(&self, q: usize) -> u64 {
        self.lanes[q].worker_dispatches.get()
    }

    /// Worker dispatches, over every lane.
    pub fn worker_dispatches(&self) -> u64 {
        self.lanes.iter().map(|l| l.worker_dispatches.get()).sum()
    }

    /// Events run on a QEMU worker thread.
    pub fn worker_events(&self) -> u64 {
        self.workers.events()
    }

    /// QEMU worker threads started and not yet retired.
    pub fn live_workers(&self) -> u64 {
        self.workers.live()
    }

    /// Counter snapshots of every lane's interrupt gate, lane order.
    pub fn notify_counters(&self) -> Vec<LaneNotifyCounters> {
        self.lanes.iter().map(|l| l.notifier.counters()).collect()
    }

    /// Chains replayed, over every lane.
    pub fn requests(&self) -> u64 {
        self.lanes.iter().map(|l| l.requests.get()).sum()
    }

    /// Blocking events run, over every lane.
    pub fn blocking_events(&self) -> u64 {
        self.lanes.iter().map(|l| l.pause.events()).sum()
    }

    /// Virtual time blocking events froze the VM for, over every lane.
    pub fn vm_paused(&self) -> SimDuration {
        self.lanes.iter().map(|l| l.pause.paused()).sum()
    }

    /// `(drains, chains)`: avail-ring drain passes that found a chain, the
    /// shards' and the blocking kickers', and the chains they popped.
    pub fn bursts(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        let (drains, chains) =
            (self.stats.burst_drains.load(Relaxed), self.stats.burst_chains.load(Relaxed));
        self.lanes.iter().fold((drains, chains), |(d, c), l| {
            (d + l.kicker_drains.get(), c + l.kicker_chains.get())
        })
    }

    /// Per-payload-bucket spin burn vs true service over every lane,
    /// sorted by bucket — the ABL-WAIT CPU-cost column.
    pub fn wait_profile(&self) -> Vec<WaitBucketProfile> {
        let mut rows: Vec<WaitBucketProfile> = Vec::new();
        for row in self.lanes.iter().flat_map(|l| l.notifier.wait_profile()) {
            match rows.iter_mut().find(|r| r.bucket == row.bucket) {
                Some(r) => {
                    r.spin_burn_ns += row.spin_burn_ns;
                    r.svc_ns += row.svc_ns;
                }
                None => rows.push(row),
            }
        }
        rows.sort_by_key(|r| r.bucket);
        rows
    }

    /// Tear down everything a dead guest left behind: close (and thereby
    /// unregister) its endpoints, unpin its windows, drop its cached
    /// translations and unmap its device mappings.  Guest requests already
    /// in flight end as the device lets go of them: a handler running one
    /// finishes it, and each lane's shard, woken by its ring's close,
    /// retires the chains left on the ring and exits.
    pub fn guest_died(&self) {
        self.stats.guest_deaths.bump();
        // Flag and close first: new requests fail fast, and each lane's
        // shard makes its last, retiring pass.
        self.channel.mark_shutdown();
        let (endpoints, windows) = self.held.release_all();
        self.release_mmaps();
        self.stats.endpoints_gced.add(endpoints as u64);
        self.stats.windows_gced.add(windows as u64);
    }

    /// Unmap every device mapping, as a `Munmap` would, and refuse every
    /// later one: a guest that died or was stopped never sends one, and
    /// each mapping holds its peer window's backing.  Its endpoints'
    /// translations went with their records.
    fn release_mmaps(&self) {
        drop(self.kvm.close());
    }

    /// Card-reset recovery: abort every endpoint that touched `node`
    /// ([`EndpointCore::abort`](vphi_scif::endpoint::EndpointCore::abort)),
    /// dropping its windows and cached translations, but keep the
    /// epd table entries so the guest's own `scif_close` still succeeds
    /// once (close is idempotent) before the descriptor goes invalid.
    /// Endpoints on other nodes — other VMs' traffic included — are
    /// untouched.  Returns how many endpoints were quarantined.
    pub fn quarantine_node(&self, node: NodeId) -> usize {
        let victims = self.held.quarantine(node);
        self.stats.endpoints_quarantined.add(victims as u64);
        victims
    }

    /// A new endpoint's descriptor.  One made while the guest was dying is
    /// closed on the spot (`ENODEV`) and counted with what the GC took.
    fn insert_ep(&self, ep: ScifEndpoint) -> ScifResult<u64> {
        self.held.insert(ep).inspect_err(|_| self.stats.endpoints_gced.bump())
    }

    /// Service one chain popped from queue lane `q` end-to-end, as the
    /// lane's executor (`held` is its role).  Whether the completion
    /// interrupts the guest is decided at the used-ring push by the lane's
    /// [`LaneNotifier`], from the notify hint the requester submitted and
    /// the `used_event` threshold it published.
    fn process(self: &Arc<Self>, q: usize, chain: DescChain, held: &TrackedRoleGuard<'_>) {
        let (token, trace, hint) = self.channel.claim(q, chain.head);
        let mut tl = Timeline::new();
        if self.faults.fire(FaultSite::VmmGuestDeath).is_some() {
            // The guest died mid-request: its QEMU process tears down, so
            // no response is ever written.  Waiters observe the shutdown
            // flag; the GC releases everything the guest held.  (No
            // backend span was opened yet, so the trace fork dies clean:
            // the frontend's root still finishes on the ENODEV path.)
            self.guest_died();
            self.channel.retire(token);
            return;
        }
        let cost = self.cost();
        let mut ctx = OpCtx::new(&mut tl, trace);
        let replay = ctx.begin("backend-replay", Stage::BackendReplay);
        ctx.tl.charge(SpanLabel::BackendDecode, cost.backend_decode);
        ctx.tl.charge(SpanLabel::GuestBufMap, cost.guest_buf_map);
        self.lanes[q].requests.bump(held);

        // Decode the request header from the first descriptor (zero-copy
        // view of guest memory).
        let head = chain.request();
        let req = self
            .guest_mem
            .with_slice(Gpa(head.addr), u64::from(head.len), VphiRequest::decode)
            .ok()
            .flatten();

        // The replay span brackets decode + execute; its trace context
        // (parent = the replay span) is what the host SCIF calls inherit.
        let trace = ctx.trace.clone();
        drop(ctx);

        let Some(req) = req else {
            OpCtx::new(&mut tl, trace.clone()).end(replay);
            let resp = VphiResponse::err(ScifError::Inval);
            self.finish(q, token, &chain, resp, tl, trace, hint, Some(held));
            return;
        };

        match self.policy.dispatch(&req) {
            Dispatch::Blocking => {
                let resp = self.lanes[q].pause.run_blocking(held, &mut tl, |tl| {
                    self.execute(&req, &chain, &mut OpCtx::new(tl, trace.clone()))
                });
                OpCtx::new(&mut tl, trace.clone()).end(replay);
                self.finish(q, token, &chain, resp, tl, trace, hint, Some(held));
            }
            Dispatch::Worker => {
                // `scif_accept` may wait forever for a connect; freezing
                // the VM for it is unacceptable (paper §III), so it runs
                // on a QEMU worker thread.
                self.lanes[q].worker_dispatches.bump(held);
                let inner = Arc::clone(self);
                self.workers.spawn(req.name(), move || {
                    let mut tl = tl;
                    let resp = inner.workers.run(inner.cost(), &mut tl, |tl| {
                        inner.execute(&req, &chain, &mut OpCtx::new(tl, trace.clone()))
                    });
                    OpCtx::new(&mut tl, trace.clone()).end(replay);
                    inner.finish(q, token, &chain, resp, tl, trace, hint, None);
                });
            }
        }
    }

    /// Write the response header, push used on lane `q`, and let the
    /// lane's notifier decide — from the requester's hint and the armed
    /// `used_event` threshold — whether this completion injects the
    /// lane's virtual interrupt (flushing any batched completions) or is
    /// suppressed.  The timeline then flows back to the frontend.  `by`
    /// is the lane executor's role, or `None` on a QEMU worker.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        q: usize,
        token: ReqToken,
        chain: &DescChain,
        resp: VphiResponse,
        mut tl: Timeline,
        trace: TraceCtx,
        hint: crate::frontend::NotifyHint,
        by: Recorder<'_>,
    ) {
        let resp_desc = chain.response();
        let _ = self.guest_mem.write(Gpa(resp_desc.addr), &resp.encode());
        // Completion delivery is a sibling of the replay subtree, not a
        // child of it.
        let mut ctx = OpCtx::new(&mut tl, trace.at_root());
        let span = ctx.begin("complete", Stage::Completion);
        let crossed = self.channel.lane_queue(q).push_used(
            UsedElem { id: chain.head, len: resp_desc.len },
            self.cost().used_push,
            ctx.tl,
        );
        // Service time as the waiter's EWMA will learn it: every backend
        // charge up to and including the used push, excluding whatever the
        // injection decision below adds.
        let svc_ns = ctx.tl.total().as_nanos();
        let slept = hint.sleeping_after(svc_ns);
        let notifier = &self.lanes[q].notifier;
        // The requester's wait, in the ABL-WAIT ledger — before the
        // completion is handed over, so a requester that reads the ledger
        // after taking its reply finds its own wait in it.
        if token != 0 {
            notifier.account_wait(hint, svc_ns, by);
        }
        if !notifier.would_inject(crossed, hint, svc_ns) {
            notifier.note_suppressed(slept, by);
        } else if self.faults.fire(FaultSite::PcieMsiLost).is_some() {
            // The MSI vanished: the sleeping guest's watchdog finds the
            // reply one period later.
            self.stats.msi_lost.bump();
            ctx.tl.charge(SpanLabel::GuestWakeup, GUEST_WATCHDOG);
        } else {
            let irq_span = ctx.begin("notify-irq", Stage::Completion);
            notifier.deliver_irq(ctx.tl, by);
            ctx.end(irq_span);
        }
        ctx.end(span);
        drop(ctx);
        // A blocking kicker running its own request is not parked, so its
        // completion signals nobody.
        self.channel.complete(token, &Completion { tl, slept, svc_ns });
    }

    /// Payload descriptors: everything between the request header and the
    /// response header.  A guest that publishes a chain without both
    /// headers gets an empty payload, not a panic — ops that need a
    /// payload descriptor already fail with `Inval` on empty.
    fn payload<'c>(&self, chain: &'c DescChain) -> &'c [Descriptor] {
        let all = chain.descriptors();
        all.get(1..all.len() - 1).unwrap_or(&[])
    }

    /// The guest buffer a request of `len` bytes names: its first payload
    /// descriptor, which `len` must fit, lying in guest RAM.  `len` is a
    /// header field the guest need not make agree with its descriptor, so
    /// this is where it becomes a range the backend may touch
    /// (DESIGN.md #17); anything else is `Inval`, before any charge.
    fn payload_range(&self, chain: &DescChain, len: u64) -> ScifResult<GuestRange> {
        let d = self.payload(chain).first().ok_or(ScifError::Inval)?;
        if len > u64::from(d.len) {
            return Err(ScifError::Inval);
        }
        self.guest_mem.range(Gpa(d.addr), len).map_err(|_| ScifError::Inval)
    }

    /// The guest ranges a `Send`/`Recv` of `len` bytes moves through: each
    /// payload descriptor in turn, the last cut to what is left of `len`.
    /// Every range is checked against guest RAM here, before the first
    /// byte moves, so a request that names memory the guest does not have
    /// is refused whole: nothing reaches the peer, nothing leaves the
    /// queue.  The bytes then go guest memory ↔ message queue in place
    /// (`send_with`/`recv_with`), with no buffer of the backend's between.
    fn message_spans<'c>(
        &'c self,
        chain: &'c DescChain,
        len: u32,
    ) -> ScifResult<impl Iterator<Item = GuestRange> + 'c> {
        let mut left = u64::from(len);
        let spans = self.payload(chain).iter().map_while(move |d| {
            let take = u64::from(d.len).min(left);
            left -= take;
            (take > 0).then_some((Gpa(d.addr), take))
        });
        for (gpa, take) in spans.clone() {
            self.guest_mem.range(gpa, take).map_err(|_| ScifError::Inval)?;
        }
        // Every span passed above, so none stops the walk here.
        Ok(spans.map_while(|(gpa, take)| self.guest_mem.range(gpa, take).ok()))
    }

    /// Execute one decoded request against the host SCIF driver.
    fn execute(&self, req: &VphiRequest, chain: &DescChain, ctx: &mut OpCtx<'_>) -> VphiResponse {
        let r: ScifResult<(u64, u64)> = (|| match *req {
            VphiRequest::Open => {
                ctx.tl.charge(SpanLabel::HostSyscall, self.cost().host_syscall);
                let ep = ScifEndpoint::open(&self.fabric, HOST_NODE)?;
                Ok((self.insert_ep(ep)?, 0))
            }
            VphiRequest::Bind { epd, port } => {
                let p = self.held.get(epd)?.bind(Port(port), &mut *ctx)?;
                Ok((p.0 as u64, 0))
            }
            VphiRequest::Listen { epd, backlog } => {
                self.held.get(epd)?.listen(backlog as usize, &mut *ctx)?;
                Ok((0, 0))
            }
            VphiRequest::Connect { epd, node, port } => {
                let peer = self
                    .held
                    .get(epd)?
                    .connect(ScifAddr::new(NodeId(node), Port(port)), &mut *ctx)?;
                Ok((peer.node.0 as u64, peer.port.0 as u64))
            }
            VphiRequest::Accept { epd } => {
                let conn = self.held.get(epd)?.accept(&mut *ctx)?;
                let peer = conn.peer_addr().ok_or(ScifError::NotConn)?;
                let new_epd = self.insert_ep(conn)?;
                Ok((new_epd, ((peer.node.0 as u64) << 32) | peer.port.0 as u64))
            }
            // A zero-length message names no guest memory; the host
            // still answers it, as it does a native caller's.
            VphiRequest::Send { epd, len: 0 } => {
                Ok((self.held.get(epd)?.send(&[], &mut *ctx)? as u64, 0))
            }
            VphiRequest::Recv { epd, len: 0 } => {
                Ok((self.held.get(epd)?.recv(&mut [], &mut *ctx)? as u64, 0))
            }
            VphiRequest::Send { epd, len } => {
                let ep = self.held.get(epd)?;
                let mut sent = 0u64;
                for range in self.message_spans(chain, len)? {
                    let fill = |at: usize, dst: &mut [u8]| {
                        self.guest_mem
                            .read(range.gpa().offset(at as u64), dst)
                            .map_err(|_| ScifError::Inval)
                    };
                    sent += ep.send_with(range.len() as usize, fill, &mut *ctx)? as u64;
                }
                Ok((sent, 0))
            }
            VphiRequest::Recv { epd, len } => {
                let ep = self.held.get(epd)?;
                let mut got = 0u64;
                for range in self.message_spans(chain, len)? {
                    let want = range.len() as usize;
                    let drain = |at: usize, src: &[u8]| {
                        self.guest_mem
                            .write(range.gpa().offset(at as u64), src)
                            .map_err(|_| ScifError::Inval)
                    };
                    let n = ep.recv_with(want, drain, &mut *ctx)?;
                    got += n as u64;
                    if n < want {
                        break; // peer closed
                    }
                }
                Ok((got, 0))
            }
            VphiRequest::Register { epd, len, prot, fixed_offset, has_fixed } => {
                let ep = self.held.get(epd)?;
                let range = self.payload_range(chain, len)?;
                let backing = GuestWindowBytes::new(Arc::clone(&self.guest_mem), range);
                let prot = wire_prot(prot);
                let off = ep.register(
                    has_fixed.then_some(fixed_offset),
                    len,
                    prot,
                    WindowBacking::External(Arc::new(backing)),
                    &mut *ctx,
                )?;
                // A register racing the dead-guest GC (or the endpoint's
                // close) must not leave a pinned window behind.
                if let Err(gone) = self.held.note_window(epd, off, range.gpa().0, len) {
                    let _ = ep.unregister(off, len, &mut *ctx);
                    self.stats.windows_gced.bump();
                    return Err(gone);
                }
                Ok((off, 0))
            }
            VphiRequest::Unregister { epd, offset, len } => {
                self.held.get(epd)?.unregister(offset, len, &mut *ctx)?;
                self.held.release_range(epd, offset, len);
                Ok((0, 0))
            }
            VphiRequest::VreadFrom { epd, roffset, len, flags } => {
                self.guest_rma(RmaDir::Read, epd, roffset, len, flags, chain, ctx)
            }
            VphiRequest::VwriteTo { epd, roffset, len, flags } => {
                self.guest_rma(RmaDir::Write, epd, roffset, len, flags, chain, ctx)
            }
            VphiRequest::ReadFrom { epd, loffset, len, roffset, flags } => {
                self.held.get(epd)?.readfrom(
                    loffset,
                    len,
                    roffset,
                    rma_flags_from_wire(flags),
                    &mut *ctx,
                )?;
                Ok((len, 0))
            }
            VphiRequest::WriteTo { epd, loffset, len, roffset, flags } => {
                self.held.get(epd)?.writeto(
                    loffset,
                    len,
                    roffset,
                    rma_flags_from_wire(flags),
                    &mut *ctx,
                )?;
                Ok((len, 0))
            }
            VphiRequest::Mmap { epd, offset, len, prot } => {
                let ep = self.held.get(epd)?;
                let prot_flags = wire_prot(prot);
                let region = ep.mmap(offset, len, prot_flags, &mut *ctx)?;
                let flags = VmaFlags {
                    read: prot_flags.readable(),
                    write: prot_flags.writable(),
                    pfn_phi: true,
                };
                // The VMA gets a copy: `region` is held here until the map
                // returns, so a refused backing is not the last one.
                let backing = Arc::new(MappedRegionBacking::new(region.clone()));
                // A map racing the guest's release (its table closed) must
                // not leave the mapping behind.
                let refused = |e| match e {
                    VmaError::Closed => ScifError::NoDev,
                    _ => ScifError::Inval,
                };
                let vaddr = self
                    .kvm
                    .map(len, flags, region.device_pfn(0), backing, epd)
                    .map_err(refused)?;
                Ok((vaddr, 0))
            }
            VphiRequest::Munmap { vaddr } => {
                let vma = self.kvm.unmap(vaddr).map_err(|_| ScifError::Inval)?;
                self.held.release_translations(vma.owner);
                Ok((0, 0))
            }
            VphiRequest::FenceMark { epd } => {
                let m = self.held.get(epd)?.fence_mark(&mut *ctx)?;
                Ok((m, 0))
            }
            VphiRequest::FenceWait { epd, marker } => {
                self.held.get(epd)?.fence_wait(marker, &mut *ctx)?;
                Ok((0, 0))
            }
            VphiRequest::FenceSignal { epd, loff, lval, roff, rval } => {
                self.held.get(epd)?.fence_signal(loff, lval, roff, rval, &mut *ctx)?;
                Ok((0, 0))
            }
            VphiRequest::Close { epd } => {
                if !self.held.release_endpoint(epd) {
                    return Err(ScifError::Inval);
                }
                Ok((0, 0))
            }
            VphiRequest::SysfsRead { mic_index } => {
                let board = self.boards.get(mic_index as usize).ok_or(ScifError::NoDev)?;
                let text = board.sysfs_text();
                let bytes = text.as_bytes();
                // A buffer too short for the text is `ENOMEM`, as sysfs
                // answers it; a missing or wild one is `Inval`.
                let room = self.payload(chain).first().map_or(u64::MAX, |d| u64::from(d.len));
                if bytes.len() as u64 > room {
                    return Err(ScifError::NoMem);
                }
                let range = self.payload_range(chain, bytes.len() as u64)?;
                self.guest_mem.write(range.gpa(), bytes).map_err(|_| ScifError::Inval)?;
                Ok((bytes.len() as u64, 0))
            }
            VphiRequest::GetNodeIds => {
                let ids = self.fabric.node_ids();
                Ok((ids.len() as u64, ids.iter().map(|n| n.0 as u64).max().unwrap_or(0)))
            }
            VphiRequest::SendTimed { epd, len } => {
                let n = self.held.get(epd)?.send_timed(len, &mut *ctx)?;
                Ok((n, 0))
            }
            VphiRequest::RecvTimed { epd, len } => {
                let n = self.held.get(epd)?.recv_timed(len, &mut *ctx)?;
                Ok((n, 0))
            }
            VphiRequest::Poll { epd, events, timeout_ms } => {
                let ep = self.held.get(epd)?;
                let interest = crate::protocol::poll_events_from_wire(events);
                let revents = ep.poll(
                    interest,
                    std::time::Duration::from_millis(timeout_ms as u64),
                    &mut *ctx,
                )?;
                Ok((crate::protocol::poll_events_to_wire(revents) as u64, 0))
            }
        })();
        VphiResponse::from_result(r)
    }
}

fn wire_prot(p: u8) -> Prot {
    match p & 3 {
        1 => Prot::READ,
        2 => Prot::WRITE,
        3 => Prot::READ_WRITE,
        _ => Prot::NONE,
    }
}

/// The virtual PCI device QEMU exposes to the guest.  It services its
/// lanes from the moment it is built until [`stop`](Self::stop).
pub struct BackendDevice {
    inner: Arc<BackendInner>,
    /// The sharded executor's service threads, one per queue lane, for
    /// kicks nobody blocks on (a blocking caller's kick is serviced on its
    /// own thread).  They share the endpoint table, registration cache
    /// and dead-guest GC through [`BackendInner`]; only the ring they
    /// drain is private.
    shards: TrackedMutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for BackendDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendDevice").field("name", &self.inner.name).finish()
    }
}

impl BackendDevice {
    /// Build the device and start servicing its lanes.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        channel: Arc<VphiChannel>,
        guest_mem: Arc<GuestMemory>,
        kvm: Arc<KvmModule>,
        fabric: Arc<ScifFabric>,
        boards: Vec<Arc<PhiBoard>>,
        policy: DispatchPolicy,
        reg_cache: bool,
        rma: RmaCharge,
    ) -> Arc<Self> {
        // One interrupt gate per lane.
        let irq_inject = fabric.shared().cost.irq_inject;
        let lanes = channel
            .lanes()
            .iter()
            .map(|_| BackendLane {
                notifier: LaneNotifier::new(irq_inject),
                requests: Tally::new(),
                worker_dispatches: Tally::new(),
                pause: PauseLedger::default(),
                kicker_drains: Tally::new(),
                kicker_chains: Tally::new(),
            })
            .collect();
        let inner = Arc::new(BackendInner {
            name: name.into(),
            channel,
            guest_mem,
            kvm,
            fabric,
            boards,
            held: Holdings::new(reg_cache),
            policy,
            running: Flag::new(true),
            workers: Workers::default(),
            lanes,
            rma,
            stats: BackendStats::default(),
            faults: FaultHook::new(),
        });
        // The sharded executor: per queue lane, one service thread for
        // the work nobody is blocked on; the kicks of callers who are go to
        // the exit handler (`backend/drain.rs`, `exit_handler`).  All share
        // the endpoint table, registration cache and dead-guest GC through
        // `BackendInner`.
        let shards = (0..inner.channel.queue_count())
            .map(|q| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("vphi-backend-{}-q{q}", inner.name))
                    .spawn(move || {
                        let queue = Arc::clone(inner.channel.lane_queue(q));
                        while queue.wait_kick() {
                            inner.drain_as_shard(q);
                        }
                        // Closed: take whatever never got its kick off the
                        // books (a dead device's pass executes nothing).
                        inner.drain_as_shard(q);
                    })
                    .expect("spawn vphi backend shard")
            })
            .collect();
        Arc::new(BackendDevice {
            inner,
            shards: TrackedMutex::new(LockClass::BackendShards, shards),
        })
    }

    pub fn inner(&self) -> &Arc<BackendInner> {
        &self.inner
    }

    /// The handler of a blocking caller's kick vm-exit, for the frontend
    /// to [`attach`](crate::frontend::FrontendDriver::attach): it drains the
    /// kicked lane on the caller's thread (`backend/drain.rs`).  It holds
    /// the device, as the guest's vCPUs hold the hypervisor they exit to;
    /// the device holds nothing of the frontend's.
    pub fn exit_handler(&self) -> ExitHandler {
        let inner = Arc::clone(&self.inner);
        Arc::new(move |q, through| inner.drain_as_kicker(q, through))
    }

    pub fn open_endpoints(&self) -> usize {
        self.inner.held.open_endpoints()
    }

    /// Arm every backend-side fault site on this device with `injector` —
    /// the device's own sites plus every queue lane's transport sites.
    pub fn arm_faults(&self, injector: &Arc<vphi_faults::FaultInjector>) {
        self.inner.faults.arm(Arc::clone(injector));
        for lane in self.inner.channel.lanes() {
            lane.queue.fault_hook().arm(Arc::clone(injector));
        }
    }

    /// Arm end-to-end request tracing on this device's channel.  Every
    /// subsequent `transact` on the channel adopts a trace root and the
    /// backend's replay/completion spans land in `tracer`'s per-VM ring.
    /// One-shot, like [`BackendDevice::arm_faults`].
    pub fn arm_tracing(&self, tracer: Arc<Tracer>, vm: u32) {
        self.inner.channel.trace.arm(tracer, vm);
    }

    /// Stop servicing and release everything the guest held.  Idempotent.
    pub fn stop(&self) {
        if !self.inner.running.swap(false) {
            return;
        }
        // Closing the rings ends every shard's wait.
        self.inner.channel.mark_shutdown();
        // Let go of whatever the guest leaked — explicitly, and before
        // waiting for the shards: a handler parked inside an endpoint (on
        // a shard, or a blocking caller inside its own vm-exit, with the
        // lane's shard queued behind it for the executor role) holds a
        // reference of its own and has to be woken, not waited for.
        self.inner.held.release_all();
        self.inner.release_mmaps();
        let shards = std::mem::take(&mut *self.shards.lock());
        for h in shards {
            let _ = h.join();
        }
    }
}
