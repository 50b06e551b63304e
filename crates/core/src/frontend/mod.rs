//! The vPHI **frontend driver** — the guest kernel module.
//!
//! "The driver acts as a 'glue' between virtualization-unaware libscif and
//! the rest of the stack by forwarding the operations requested to vPHI
//! backend device through virtio communication channels." (paper §III)
//!
//! Responsibilities reproduced here:
//!
//! * marshal each intercepted SCIF call into a [`crate::protocol`] header
//!   in a kmalloc'd buffer and post it on the virtio ring;
//! * stage large send/recv payloads through `KMALLOC_MAX_SIZE` chunks
//!   (the x86_64 contiguous-allocation limit — paper §III);
//! * multiplex concurrent guest requests — each one a slot of its lane's
//!   request-slot table for as long as it is in flight (DESIGN.md #23,
//!   `slots.rs`) — and orchestrate the waiting user-space threads via the
//!   chosen [`WaitScheme`];
//! * adaptive completion notification (DESIGN.md #16): each requester
//!   spins up to a per-(op, payload-bucket) budget, then sleeps on its
//!   **own request slot** — the backend injects an MSI only for a
//!   completion whose request led its submission on its lane and whose
//!   requester slept, and delivery wakes exactly the requester it
//!   completed (no wake-all thundering herd, no spurious re-checks);
//! * that spin-then-sleep is what the *model* charges every request.  The
//!   host thread behind a blocking call (`transact`) does neither: its
//!   kick's vm-exit is serviced on that thread (DESIGN.md #21), so the
//!   reply is there when it looks.  Real sleeping on a slot is left to
//!   reaps of batched tokens, worker-dispatched requests (`accept`) and
//!   kicks that found their lane busy;
//! * a request ends when the backend lets go of it — completes it, or
//!   retires it on a dead device — however long that takes, and its
//!   requester does nothing meanwhile: a lost kick or MSI is a charge on
//!   the virtual clock, not a wait (DESIGN.md #13).

mod slots;
mod waiting;

pub use slots::{ReqToken, SlotWaits};
pub use waiting::{SpinBudget, WaitScheme};

use std::sync::{Arc, OnceLock};

use vphi_scif::{ScifError, ScifResult};
use vphi_sim_core::cost::KMALLOC_MAX_SIZE;
use vphi_sim_core::{SpanLabel, Timeline};
use vphi_sync::{Counter, Flag, LockClass, TrackedMutex};
use vphi_trace::{size_bucket, OpCtx, Stage, TraceCtx, TraceHook};
use vphi_virtio::{Descriptor, QueueError, VirtQueue};
use vphi_vmm::kernel::KmallocBuf;
use vphi_vmm::{Gpa, GuestKernel};

use crate::protocol::{GuestEpd, VphiRequest, VphiResponse, REQ_SIZE, RESP_SIZE};
use slots::{BatchOp, SlotBody, SlotState, SlotTable};

/// The waiter's pre-kick declaration of how it will wait, riding the
/// request's slot to the backend's lane notifier.  The budget is in
/// *virtual* nanoseconds: the backend compares its own service time
/// against it to learn deterministically whether the requester was still
/// spinning or had gone to sleep when the completion landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotifyHint {
    /// Spin budget: `0` = sleeps immediately (the interrupt scheme),
    /// `u64::MAX` = spins forever (busy-poll, never needs an interrupt).
    pub budget_ns: u64,
    /// The request's payload pow2 bucket (`vphi_trace::size_bucket`): the
    /// row of the notifier's ABL-WAIT burn ledger its wait is counted in.
    pub bucket: u8,
    /// Whether the request leads its submission on its lane: a blocking
    /// call always does, a batch entry if it is the batch's first on its
    /// lane.  Only a leader's completion interrupts; a sleeping follower's
    /// rides the next interrupt on the lane.
    pub leads: bool,
}

impl NotifyHint {
    /// Sleep immediately.
    pub const SLEEP: NotifyHint = NotifyHint { budget_ns: 0, bucket: 0, leads: true };
    /// Spin forever.
    pub const SPIN: NotifyHint = NotifyHint { budget_ns: u64::MAX, bucket: 0, leads: true };

    /// Whether a waiter with this hint has given up spinning and gone to
    /// sleep by the time the backend's service has taken `svc_ns`.
    pub fn sleeping_after(self, svc_ns: u64) -> bool {
        svc_ns > self.budget_ns
    }

    /// Whether the completion of a request with this hint, after `svc_ns`
    /// of service, injects its lane's interrupt: the request leads its
    /// submission and its requester slept.  A function of the submission
    /// and virtual time alone (DESIGN.md #16).
    pub fn injects_after(self, svc_ns: u64) -> bool {
        self.leads && self.sleeping_after(svc_ns)
    }

    /// This hint, counted under the bucket of a `payload_bytes` payload.
    fn for_payload(self, payload_bytes: u64) -> NotifyHint {
        NotifyHint { bucket: size_bucket(payload_bytes), ..self }
    }
}

/// A finished request as delivered by the backend: the cross-boundary
/// timeline plus the notifier's verdict, so the frontend charges exactly
/// the wait cost the backend's inject/suppress decision implies.
#[derive(Debug)]
pub struct Completion {
    /// The backend's service timeline (absorbed into the requester's).
    pub tl: Timeline,
    /// Whether the requester was asleep when the completion landed
    /// (its spin budget was smaller than the service time).
    pub slept: bool,
    /// The backend service time at the moment the completion was pushed,
    /// before any interrupt-injection charge — what the spin-budget EWMA
    /// learns from.
    pub svc_ns: u64,
}

/// One virtqueue lane: the ring plus the slot table its requests live in.
/// Head ids are per-queue, so each lane routes its own heads to its own
/// slots — two lanes can recycle the same head without colliding.
pub struct QueueLane {
    pub queue: Arc<VirtQueue>,
    slots: SlotTable,
}

/// The shared state both halves of the split driver touch: the virtio
/// queue lanes, each with its request-slot table (`frontend/slots.rs`).
pub struct VphiChannel {
    lanes: Vec<QueueLane>,
    /// Set when the device dies (VM shutdown, guest death): the backend
    /// executes nothing more and retires what is left on its rings.
    shutdown: Flag,
    /// Tracing hook shared by both halves of the split driver: armed once
    /// by `VphiHost::arm_tracing`, disarmed (a single `OnceLock` load) in
    /// production.
    pub trace: TraceHook,
}

impl VphiChannel {
    /// A channel with `num_queues` independent virtqueue lanes of
    /// `queue_size` descriptors each.
    pub fn with_queues(queue_size: u16, num_queues: u16) -> Arc<Self> {
        assert!(num_queues > 0, "a vPHI device needs at least one virtqueue");
        let lanes: Vec<QueueLane> = (0..num_queues as usize)
            .map(|q| QueueLane {
                queue: VirtQueue::new(queue_size),
                slots: SlotTable::new(q, queue_size),
            })
            .collect();
        Arc::new(VphiChannel { lanes, shutdown: Flag::new(false), trace: TraceHook::new() })
    }

    pub fn queue_count(&self) -> usize {
        self.lanes.len()
    }

    pub fn lanes(&self) -> &[QueueLane] {
        &self.lanes
    }

    /// Lane `q`'s ring.
    pub fn lane_queue(&self, q: usize) -> &Arc<VirtQueue> {
        &self.lanes[q].queue
    }

    /// The queue routing rule.  Requests that carry an endpoint hash it
    /// through a SplitMix64 finalizer onto a lane; endpoint-less control
    /// ops ([`VphiRequest::routing_epd`] is `None`) ride lane 0.  The hash
    /// is a pure function of the epd, so every request for one endpoint
    /// lands on the same lane — per-endpoint FIFO order survives any
    /// queue count.
    pub fn route(&self, req: &VphiRequest) -> usize {
        req.routing_epd().map_or(0, |epd| self.route_epd(epd))
    }

    fn route_epd(&self, epd: GuestEpd) -> usize {
        let h = vphi_sim_core::rng::SplitMix64::new(epd).next_u64();
        let n = self.lanes.len() as u64;
        // A power-of-two lane count — one, the default, among them — takes
        // the remainder as a mask: the same lane, without a division.
        let lane = if n.is_power_of_two() { h & (n - 1) } else { h % n };
        lane as usize
    }

    /// Mark the device gone: set the shutdown flag and close every lane's
    /// ring to new chains, so new requests fail with `ENODEV` and a chain
    /// published before the close is retired by its lane's next executor.
    /// The close ends each lane's device wait, so its shard makes that
    /// last pass; it wakes no requester: whoever tears the device down
    /// wakes the sleepers once it is done.
    pub fn mark_shutdown(&self) {
        self.shutdown.set();
        for lane in &self.lanes {
            lane.queue.close();
        }
    }

    pub fn is_shutdown(&self) -> bool {
        self.shutdown.get()
    }

    /// The lane `token` was issued on, if it names one.
    fn lane_of(&self, token: ReqToken) -> Option<&QueueLane> {
        self.lanes.get(slots::token_lane(token))
    }

    /// Backend: claim the request registered for `head` after popping it
    /// off lane `q` — its token, trace fork and notify hint.  A head nobody
    /// registered yields the token-0 sentinel: the chain still runs, and
    /// completes to nobody.
    pub fn claim(&self, q: usize, head: u16) -> (ReqToken, TraceCtx, NotifyHint) {
        self.lanes[q].slots.claim(head).unwrap_or((0, TraceCtx::default(), NotifyHint::SLEEP))
    }

    /// Backend: deliver the completion and wake its requester — if it is
    /// parked on the slot.  (A blocking caller whose own thread ran the
    /// request is not, and takes the reply on its first look.)  A
    /// completion for a generation that is over is dropped.
    pub fn complete(&self, token: ReqToken, completion: &Completion) {
        if let Some(lane) = self.lane_of(token) {
            lane.slots.finish(token, Some(completion));
        }
    }

    /// Backend: let go of `token` without a completion — the device died
    /// with the request on its ring or in its hands — and wake its
    /// requester, which frees the slot and reads `ENODEV`.
    pub fn retire(&self, token: ReqToken) {
        if let Some(lane) = self.lane_of(token) {
            lane.slots.finish(token, None);
        }
    }

    /// Requests submitted and not yet claimed by the backend.
    pub fn inflight_count(&self) -> usize {
        self.lanes.iter().map(|l| l.slots.count_in(SlotState::Published)).sum()
    }

    /// Slots held by a requester, from reserve to release.  Zero on an
    /// idle channel (leak detector).
    pub fn live_slots(&self) -> usize {
        self.lanes.iter().map(|l| l.slots.live_count()).sum()
    }

    /// How every requester on the channel has waited so far.
    pub fn waits(&self) -> SlotWaits {
        self.lanes.iter().map(|l| l.slots.waits()).sum()
    }
}

impl std::fmt::Debug for VphiChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let completed: usize =
            self.lanes.iter().map(|l| l.slots.count_in(SlotState::Completed)).sum();
        f.debug_struct("VphiChannel")
            .field("queues", &self.lanes.len())
            .field("inflight", &self.inflight_count())
            .field("completed", &completed)
            .finish()
    }
}

/// The device's handler for the kick vm-exit of a blocking caller
/// (DESIGN.md #21): `(q, through)` drains lane `q` through avail index
/// `through` on the calling thread and reports whether it left chains on
/// the ring for the lane's service thread.
pub type ExitHandler = Arc<dyn Fn(usize, u64) -> bool + Send + Sync>;

/// Per-driver counters for the waiting-scheme diagnostics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FrontendStats {
    /// Requests published: one per blocking call, one per batch entry.
    pub requests: u64,
    /// Completions taken by a requester that had gone to sleep, and by
    /// one that caught its reply spinning.
    pub interrupt_waits: u64,
    pub polling_waits: u64,
    pub chunks_sent: u64,
    /// Publishes that kicked (one vm-exit each): every blocking request
    /// and every touched lane of a batch.  The watchdog's second kick
    /// after a lost one is counted by `deadline_retries`.
    pub kicks_delivered: u64,
    /// Kicks lost and recovered by the guest's watchdog, which kicked
    /// again one period later (`VirtQueue::kick`).
    pub deadline_retries: u64,
    /// Async batches flushed by [`FrontendDriver::submit_batch`].
    pub batches_submitted: u64,
    /// Entries carried by those batches — the doorbell-amortization
    /// ledger's numerator.
    pub batch_entries: u64,
    /// Doorbells actually delivered for those batches (one per touched
    /// lane per flush): `batch_kicks / batch_entries` is the
    /// kicks-per-submission ratio the OPEN-LOOP figure asserts on.
    pub batch_kicks: u64,
    /// Tokens reaped (each exactly once).
    pub tokens_reaped: u64,
    /// Tokens reaped as [`ScifError::Canceled`] after endpoint close or
    /// card reset.
    pub tokens_canceled: u64,
}

/// The part of [`FrontendStats`] the driver counts itself: one relaxed
/// atomic per counter, none of them bumped by a blocking call that went
/// well.  The rest is derived where it is already counted: kicks and
/// requests from the lanes' kick counts, waits from the request slots
/// (which count them under the lock their completion is taken with).
/// They publish nothing — a snapshot taken mid-request may show the
/// request in one counter and not yet in another.
#[derive(Debug, Default)]
struct StatCounters {
    chunks_sent: Counter,
    deadline_retries: Counter,
    batches_submitted: Counter,
    batch_entries: Counter,
    batch_kicks: Counter,
    tokens_reaped: Counter,
    tokens_canceled: Counter,
}

impl StatCounters {
    fn snapshot(&self, channel: &VphiChannel) -> FrontendStats {
        // Every kick on a lane is the frontend's: one per blocking call,
        // one per touched lane of a batch, and the watchdog's second for
        // each that was lost.  (A lost kick or a batch is counted here
        // after its kicks, so a mid-request snapshot can only lag; the
        // subtractions saturate.)
        let lane_kicks: u64 = channel.lanes.iter().map(|l| l.queue.counters().kicks).sum();
        let deadline_retries = self.deadline_retries.get();
        let kicks_delivered = lane_kicks.saturating_sub(deadline_retries);
        let (batch_entries, batch_kicks) = (self.batch_entries.get(), self.batch_kicks.get());
        let waits = channel.waits();
        FrontendStats {
            requests: kicks_delivered.saturating_sub(batch_kicks) + batch_entries,
            interrupt_waits: waits.slept,
            polling_waits: waits.spun,
            chunks_sent: self.chunks_sent.get(),
            kicks_delivered,
            deadline_retries,
            batches_submitted: self.batches_submitted.get(),
            batch_entries,
            batch_kicks,
            tokens_reaped: self.tokens_reaped.get(),
            tokens_canceled: self.tokens_canceled.get(),
        }
    }
}

/// Payload pow2 buckets: `size_bucket` of a `u64` is 0 ..= 64.
const BUCKETS: usize = 65;

/// The spin-budget learning state (DESIGN.md #16) of the one scheme that
/// learns, the EWMA adaptive waiter.  One lock, taken briefly at submit
/// (budget lookup) and at completion (EWMA update), by that scheme only —
/// never held across a wait.  The table is indexed by request opcode and
/// payload bucket: a lookup is two bounds checks, not a hash.  (What each
/// scheme burns spinning is the lane notifiers' ledger.)
#[derive(Default)]
struct NotifyPolicy {
    /// opcode → payload pow2 bucket → EWMA of backend service ns.  An
    /// op's row is allocated when its first request completes.
    ewma: [Option<Box<[Option<u64>; BUCKETS]>>; VphiRequest::OPCODES],
}

/// EWMA smoothing: `est ← est·3/4 + sample/4`.
const EWMA_SHIFT: u32 = 2;

/// Budget = EWMA × 3/2: enough headroom that jitter around the learned
/// service time is still caught spinning.
fn budget_from_estimate(est_ns: u64) -> u64 {
    est_ns.saturating_add(est_ns / 2)
}

/// Chains this long or shorter are laid out on the caller's stack: the
/// two headers and up to two payload descriptors, which covers every
/// request the guest API makes (one staging chunk per request, at most);
/// only a [`FrontendDriver::transact`] handed more takes the heap.
const INLINE_CHAIN: usize = 4;

/// Lay out one request's descriptor chain — request header, the `extra`
/// payload descriptors, response header — and lend it to `f`.
fn with_chain<R>(headers: Headers, extra: &[Descriptor], f: impl FnOnce(&[Descriptor]) -> R) -> R {
    let head = Descriptor::readable(headers.req.0, REQ_SIZE as u32);
    let tail = Descriptor::writable(headers.resp.0, RESP_SIZE as u32);
    let len = extra.len() + 2;
    if len <= INLINE_CHAIN {
        let mut chain = [head; INLINE_CHAIN];
        chain[1..len - 1].copy_from_slice(extra);
        chain[len - 1] = tail;
        f(&chain[..len])
    } else {
        let mut chain = Vec::with_capacity(len);
        chain.push(head);
        chain.extend_from_slice(extra);
        chain.push(tail);
        f(&chain)
    }
}

/// A chain the ring refused: a full table is `ENOMEM`; a corrupt used
/// ring — the device side scribbled on it — is `EINVAL`; a dead device's
/// closed ring is `ENODEV`.
fn queue_error(e: QueueError) -> ScifError {
    match e {
        QueueError::Corrupt => ScifError::Inval,
        QueueError::NoSpace | QueueError::EmptyChain => ScifError::NoMem,
        QueueError::Closed => ScifError::NoDev,
    }
}

/// Where a slot's two headers sit in its header buffer.
#[derive(Clone, Copy)]
struct Headers {
    req: Gpa,
    resp: Gpa,
}

impl Headers {
    fn of(buf: KmallocBuf) -> Headers {
        Headers { req: buf.gpa, resp: buf.gpa.offset(REQ_SIZE as u64) }
    }
}

/// One payload bucket's spin-burn accounting (see
/// [`LaneNotifier::wait_profile`](crate::backend::LaneNotifier::wait_profile)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitBucketProfile {
    /// Payload pow2 bucket (`vphi_trace::size_bucket`).
    pub bucket: u8,
    /// Virtual ns this bucket's requesters burned spinning.
    pub spin_burn_ns: u64,
    /// True backend service ns accumulated by this bucket's requests.
    pub svc_ns: u64,
}

/// One entry of an async batch, as handed to
/// [`FrontendDriver::submit_batch`]: the wire request plus its payload,
/// staged in one chunk at most.  Staging ownership transfers to the
/// entry's request slot and is released when the entry's token is
/// reaped.
pub struct BatchEntry {
    /// The wire request (its `routing_epd` picks the lane).
    pub req: VphiRequest,
    /// The staged payload chunk, owned until reap.
    pub staging: Option<KmallocBuf>,
    /// The payload descriptor, placed between the two headers.
    pub desc: Option<Descriptor>,
    /// Payload size, for the adaptive waiter's bucket choice.
    pub payload_bytes: u64,
    /// `Some(len)` for inbound ops: unstage up to `len` bytes into the
    /// reaped entry's data at completion.
    pub inbound: Option<u64>,
}

/// A published-but-not-awaited operation — what [`FrontendDriver::submit_one`]
/// hands back for the blocking path to kick, wait on, and demarshal.
/// Everything else about the request is in its slot.
struct SubmittedOp {
    /// The lane the request was routed to.
    q: usize,
    /// The chain's position on the lane's avail ring: how far the
    /// blocking kick drains.
    avail_idx: u64,
    token: ReqToken,
    op: u8,
    payload_bytes: u64,
}

/// What a requester takes out of its slot once the backend let go: the
/// reply, with the backend's service time up to the used push (what the
/// EWMA learns), or — the device died with the request — its retirement,
/// which has freed the slot.  Either way, a batch entry's bookkeeping.
enum Taken {
    Reply { svc_ns: u64, batch: Option<BatchOp> },
    Retired(Option<BatchOp>),
}

/// One reaped token: its wire result and any unstaged inbound payload.
#[derive(Debug)]
pub struct ReapedOp {
    pub token: ReqToken,
    pub result: ScifResult<(u64, u64)>,
    pub data: Option<Vec<u8>>,
}

/// The guest kernel module.
pub struct FrontendDriver {
    kernel: Arc<GuestKernel>,
    channel: Arc<VphiChannel>,
    scheme: WaitScheme,
    /// Staging chunk size for large transfers — `KMALLOC_MAX_SIZE` in the
    /// paper; configurable for the ABL-CHUNK ablation.
    chunk_size: u64,
    stats: StatCounters,
    /// Spin-budget EWMA table.
    policy: TrackedMutex<NotifyPolicy>,
    /// The attached device's vm-exit handler.  Without one, a blocking
    /// kick only rings the lane's service thread.
    exit: OnceLock<ExitHandler>,
}

impl std::fmt::Debug for FrontendDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontendDriver").field("scheme", &self.scheme).finish()
    }
}

impl FrontendDriver {
    /// Insert the module and return the driver.  No ISR is registered:
    /// completion delivery wakes the requester parked on its slot
    /// directly, so an MSI is only its injection cost and a count on its
    /// lane's notifier (the paper's wake-all-recheck handler is gone).
    pub fn insert(
        kernel: Arc<GuestKernel>,
        channel: Arc<VphiChannel>,
        scheme: WaitScheme,
    ) -> Arc<Self> {
        Self::insert_with_chunk(kernel, channel, scheme, KMALLOC_MAX_SIZE)
    }

    /// Like [`insert`](FrontendDriver::insert) with an explicit staging
    /// chunk size (must be a positive multiple of a page and at most
    /// `KMALLOC_MAX_SIZE` — the kernel cannot allocate larger contiguous
    /// buffers).
    pub fn insert_with_chunk(
        kernel: Arc<GuestKernel>,
        channel: Arc<VphiChannel>,
        scheme: WaitScheme,
        chunk_size: u64,
    ) -> Arc<Self> {
        assert!(
            chunk_size > 0
                && chunk_size <= KMALLOC_MAX_SIZE
                && chunk_size.is_multiple_of(vphi_sim_core::cost::PAGE_SIZE),
            "invalid staging chunk size {chunk_size}"
        );
        Arc::new(FrontendDriver {
            kernel,
            channel,
            scheme,
            chunk_size,
            stats: StatCounters::default(),
            policy: TrackedMutex::new(LockClass::NotifyPolicy, NotifyPolicy::default()),
            exit: OnceLock::new(),
        })
    }

    /// Attach the device whose `handler` services a blocking caller's
    /// vm-exit.  One-shot; returns `false` if a device is attached already.
    pub fn attach(&self, handler: ExitHandler) -> bool {
        self.exit.set(handler).is_ok()
    }

    /// The spin budget this request declares before its kick.
    ///
    /// The interrupt scheme sleeps immediately; polling spins forever; a fixed-budget adaptive spins
    /// exactly its budget; the EWMA adaptive spins 1.5× the learned
    /// per-(op, bucket) service estimate — seeded from the calibrated
    /// no-wait floor — unless that budget already exceeds the wake-up
    /// cost, in which case spinning can never win and it sleeps at once.
    fn notify_hint(&self, req: &VphiRequest, payload_bytes: u64) -> NotifyHint {
        let cost = self.kernel.cost();
        let hint = match self.scheme {
            WaitScheme::Interrupt => NotifyHint::SLEEP,
            WaitScheme::Polling => NotifyHint::SPIN,
            WaitScheme::Adaptive(SpinBudget::Fixed(budget)) => {
                NotifyHint { budget_ns: budget.as_nanos(), ..NotifyHint::SLEEP }
            }
            WaitScheme::Adaptive(SpinBudget::Ewma) => {
                let bucket = size_bucket(payload_bytes) as usize;
                let learned = self.policy.lock().ewma[req.opcode() as usize]
                    .as_ref()
                    .and_then(|row| row[bucket]);
                let est = learned.unwrap_or_else(|| cost.paravirtual_floor_no_wait().as_nanos());
                let budget_ns = budget_from_estimate(est);
                if budget_ns >= cost.guest_wakeup.as_nanos() {
                    NotifyHint::SLEEP
                } else {
                    NotifyHint { budget_ns, ..NotifyHint::SLEEP }
                }
            }
        };
        hint.for_payload(payload_bytes)
    }

    /// Fold a finished request's service time into the EWMA table — the
    /// EWMA scheme's alone: no other scheme reads it.
    fn learn(&self, op: u8, payload_bytes: u64, svc_ns: u64) {
        if self.scheme != WaitScheme::Adaptive(SpinBudget::Ewma) {
            return;
        }
        let bucket = size_bucket(payload_bytes) as usize;
        let mut policy = self.policy.lock();
        let row = policy.ewma[op as usize].get_or_insert_with(|| Box::new([None; BUCKETS]));
        let est = row[bucket].get_or_insert(svc_ns);
        *est = *est - (*est >> EWMA_SHIFT) + (svc_ns >> EWMA_SHIFT);
    }

    /// The staging chunk size used for large transfers.
    pub fn chunk_size(&self) -> u64 {
        self.chunk_size
    }

    pub fn scheme(&self) -> WaitScheme {
        self.scheme
    }

    pub fn channel(&self) -> &Arc<VphiChannel> {
        &self.channel
    }

    pub fn kernel(&self) -> &Arc<GuestKernel> {
        &self.kernel
    }

    pub fn stats(&self) -> FrontendStats {
        self.stats.snapshot(&self.channel)
    }

    /// Reserve a request slot on lane `q` and return its token and
    /// headers.  A slot's header buffer is kmalloc'd the first time it is
    /// used and stays with it — the slab the real driver sets up at module
    /// insertion, grown on demand and charged to no request.  `ENOMEM`
    /// when every slot of the lane is held, or guest memory is exhausted.
    fn take_slot(&self, q: usize) -> ScifResult<(ReqToken, Headers)> {
        let slots = &self.channel.lanes[q].slots;
        let (token, slot) = slots.reserve().ok_or(ScifError::NoMem)?;
        if let Some(&buf) = slot.headers.get() {
            return Ok((token, Headers::of(buf)));
        }
        match self.kernel.kmalloc((REQ_SIZE + RESP_SIZE) as u64, &mut Timeline::new()) {
            Ok(buf) => {
                // Only the slot's holder initializes it, and only once.
                let _ = slot.headers.set(buf);
                Ok((token, Headers::of(buf)))
            }
            Err(_) => {
                slots.release(token);
                Err(ScifError::NoMem)
            }
        }
    }

    /// The core request cycle: marshal → ring → kick → wait → demarshal.
    ///
    /// `extra` descriptors sit between the request header and the response
    /// header (payload staging buffers, pinned guest pages).
    /// `payload_bytes` drives the hybrid scheme's threshold choice.
    ///
    /// If the channel's trace hook is armed and the caller's context is
    /// not already inside a trace (multi-chunk ops root at the `GuestScif`
    /// layer), this request becomes a trace root, with child spans for the
    /// guest-syscall, virtio-ring, and completion-wait phases and a forked
    /// context riding the request's slot to the backend.
    pub fn transact<'a>(
        &self,
        req: &VphiRequest,
        extra: &[Descriptor],
        payload_bytes: u64,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<VphiResponse> {
        let mut ctx = ctx.into();
        let root = ctx.adopt_root(&self.channel.trace, req.name());
        let r = self.transact_inner(req, extra, payload_bytes, &mut ctx);
        ctx.finish_root(root, payload_bytes);
        r
    }

    #[expect(clippy::disallowed_methods, reason = "blocking path: services its own vm-exit (#21)")]
    fn transact_inner(
        &self,
        req: &VphiRequest,
        extra: &[Descriptor],
        payload_bytes: u64,
        ctx: &mut OpCtx<'_>,
    ) -> ScifResult<VphiResponse> {
        let sub = self.submit_one(req, extra, payload_bytes, ctx)?;
        let cost = self.kernel.cost();
        let lane = &self.channel.lanes[sub.q];
        // Kick inside the wait span, not before it: the kick is what
        // starts the backend (here, or on a shard thread it wakes), so
        // allocating the wait span's id first keeps span numbering
        // single-threaded — and traces byte-stable.  The span then covers
        // the handoff vmexit plus the scheme's wait, and in a trace view
        // brackets the backend subtree it waited on.
        //
        // This caller is about to do nothing but wait for `sub.token`, so
        // its kick's vm-exit is serviced right here, on this thread
        // (DESIGN.md #21): when `kick` returns, the backend has
        // run the request and the slot is `Completed` for the wait's first
        // check.  Only a busy lane or a worker-dispatched request leaves
        // something to sleep for.
        let wait = ctx.begin("wait-complete", Stage::Completion);
        let lost = lane.queue.kick(cost.vmexit_kick, ctx.tl, || match self.exit.get() {
            Some(service) => service(sub.q, sub.avail_idx),
            None => true,
        });
        if lost {
            self.stats.deadline_retries.bump();
        }
        let done = self.take(lane, sub.token, true, ctx.tl);
        ctx.end(wait);
        let Some(Taken::Reply { svc_ns, .. }) = done else { return Err(ScifError::NoDev) };
        self.learn(sub.op, sub.payload_bytes, svc_ns);
        self.demarshal(lane, sub.token)
    }

    /// Marshal one request, fill in its slot, and publish its chain on its
    /// lane's avail ring — everything the blocking path does up to the
    /// doorbell, which the caller rings.
    #[expect(clippy::disallowed_methods, reason = "queue router: the endpoint's hashed lane (#15)")]
    fn submit_one(
        &self,
        req: &VphiRequest,
        extra: &[Descriptor],
        payload_bytes: u64,
        ctx: &mut OpCtx<'_>,
    ) -> ScifResult<SubmittedOp> {
        let cost = self.kernel.cost();

        // Pick the queue lane before anything is charged: the routing rule
        // is a pure function of the request's endpoint, so per-endpoint
        // FIFO order holds regardless of queue count.
        let q = self.channel.route(req);
        ctx.set_queue(q as u16);
        let lane = &self.channel.lanes[q];

        let (token, headers) = self.marshal(req, q, ctx)?;

        // Post: the slot carries the cross-boundary timeline, the trace
        // fork and the hint; `register` binds it to the chain's head
        // inside the ring's critical section, before the head is visible —
        // the backend may pop and claim the chain the instant it is
        // published (another requester's kick can have woken it), and a
        // claim that finds no registered slot completes to nobody.  A
        // blocking call leads its submission, so its hint is the scheme's.
        let ring = ctx.begin("virtio-ring", Stage::VirtioRing);
        let hint = self.notify_hint(req, payload_bytes);
        lane.slots.prepare(token, hint, ctx.fork(), None);
        let published = with_chain(headers, extra, |chain| {
            lane.queue.publish_chain(chain, cost.ring_push, ctx.tl, |head| {
                lane.slots.register(token, head)
            })
        });
        ctx.end(ring);
        match published {
            Ok(avail_idx) => {
                Ok(SubmittedOp { q, avail_idx, token, op: req.opcode(), payload_bytes })
            }
            // Never visible to the device: the slot is the requester's.
            Err(e) => {
                lane.slots.release(token);
                Err(queue_error(e))
            }
        }
    }

    /// The guest-syscall stage of one request, blocking or batched: charge
    /// the syscall, reserve a slot on lane `q` and encode the header into
    /// its request buffer.  On error the slot is already free again.
    fn marshal(
        &self,
        req: &VphiRequest,
        q: usize,
        ctx: &mut OpCtx<'_>,
    ) -> ScifResult<(ReqToken, Headers)> {
        let marshal = ctx.begin("guest-syscall", Stage::GuestSyscall);
        self.kernel.charge_syscall(ctx.tl);
        let slot = self.take_slot(q).and_then(|(token, headers)| {
            if self.kernel.mem().write(headers.req, &req.encode()).is_err() {
                self.channel.lanes[q].slots.release(token);
                return Err(ScifError::Inval);
            }
            Ok((token, headers))
        });
        ctx.end(marshal);
        slot
    }

    /// Decode the response and free the slot — the tail every completed
    /// token runs, blocking or reaped.  The slot is released only after its
    /// response buffer has been read: until then nobody else may be handed
    /// it.  The used ring is not drained here: the next chain written on
    /// the lane recycles the descriptors of every completed one.
    fn demarshal(&self, lane: &QueueLane, token: ReqToken) -> ScifResult<VphiResponse> {
        let mut resp_bytes = [0u8; RESP_SIZE];
        let read = lane.slots.headers(token).is_some_and(|buf| {
            self.kernel.mem().read(Headers::of(buf).resp, &mut resp_bytes).is_ok()
        });
        lane.slots.release(token);
        if !read {
            return Err(ScifError::Inval);
        }
        VphiResponse::decode(&resp_bytes).ok_or(ScifError::Inval)
    }

    /// Take what the backend left in `token`'s slot — if `park`, parked on
    /// the slot until the backend lets go, woken by nothing but its signal:
    /// the one wait under both the blocking calls and token reaps.  `None`
    /// if it has not let go yet (`!park`), or if the token names a request
    /// that is over.  A completion charges the wait's virtual-time cost by
    /// *outcome* — the backend's notifier decided, deterministically, from
    /// the hint it was handed, whether this waiter was still spinning when
    /// the reply landed — then absorbs the backend's service timeline.  A
    /// retirement charges nothing.
    fn take(
        &self,
        lane: &QueueLane,
        token: ReqToken,
        park: bool,
        tl: &mut Timeline,
    ) -> Option<Taken> {
        let cost = self.kernel.cost();
        let taken = lane.slots.take(token, park, |body: &mut SlotBody| {
            if body.slept {
                // Slept past its budget: wake-up, ring re-check,
                // reschedule — the paper's dominant overhead term.
                tl.charge(SpanLabel::GuestWakeup, cost.guest_wakeup);
            } else {
                // Caught it spinning: near-zero latency to observe the
                // completion, but the vCPU burned the service time.
                tl.charge(SpanLabel::PollWait, cost.poll_observe);
            }
            tl.absorb(&body.tl);
            Taken::Reply { svc_ns: body.svc_ns, batch: body.batch.take() }
        })?;
        Some(taken.unwrap_or_else(Taken::Retired))
    }

    // ---- async submission (SQ/CQ) ------------------------------------------

    /// Submit a whole batch of operations, returning one token per entry
    /// in order.  Every entry is marshaled, prepared and *published*
    /// before any doorbell rings; then each touched lane gets exactly one
    /// kick — the vm-exit is amortized across the batch the same way the
    /// used ring already coalesces completion irqs.
    ///
    /// On per-entry resource exhaustion the batch is cut short: entries
    /// already prepared are still published and kicked, and the returned
    /// token count tells the caller how far the batch got (io_uring's
    /// short-submit convention).  A dead device fails the whole batch
    /// with `ENODEV` before anything is staged on a ring.
    pub fn submit_batch<'a>(
        &self,
        entries: Vec<BatchEntry>,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<Vec<ReqToken>> {
        let mut ctx = ctx.into();
        let root = ctx.adopt_root(&self.channel.trace, "submit-batch");
        let r = self.submit_batch_inner(entries, &mut ctx);
        ctx.finish_root(root, 0);
        r
    }

    #[expect(clippy::disallowed_methods, reason = "batch submitter: one kick per lane (#18)")]
    fn submit_batch_inner(
        &self,
        entries: Vec<BatchEntry>,
        ctx: &mut OpCtx<'_>,
    ) -> ScifResult<Vec<ReqToken>> {
        if self.channel.is_shutdown() {
            for e in entries {
                self.free_staging(e.staging);
            }
            return Err(ScifError::NoDev);
        }
        let cost = self.kernel.cost();
        let mut lane_heads: Vec<Vec<u16>> = vec![Vec::new(); self.channel.queue_count()];
        let mut tokens = Vec::with_capacity(entries.len());
        let mut short = false;
        for entry in entries {
            if short {
                self.free_staging(entry.staging);
                continue;
            }
            match self.prepare_batch_entry(entry, &mut lane_heads, ctx) {
                Ok(token) => tokens.push(token),
                // The failed entry's resources were already released;
                // stop accepting, but still flush what was prepared.
                Err(_) => short = true,
            }
        }
        // One doorbell per touched lane covers every entry on it.  Each
        // entry's slot is already registered, so the backend may claim the
        // whole burst the instant the batch publish lands.
        let mut kicks = 0u64;
        for (q, (lane, heads)) in self.channel.lanes.iter().zip(&lane_heads).enumerate() {
            if heads.is_empty() {
                continue;
            }
            let ring = ctx.begin("virtio-ring", Stage::VirtioRing);
            if lane.queue.publish_avail_batch(heads, cost.ring_push, ctx.tl).is_ok() {
                if lane.queue.kick(cost.vmexit_kick, ctx.tl, || true) {
                    self.stats.deadline_retries.bump();
                }
                kicks += 1;
            } else {
                // The device died since the batch began: its ring takes no
                // more chains, and the entries meant for it end retired.
                for &token in tokens.iter().filter(|&&t| slots::token_lane(t) == q) {
                    self.channel.retire(token);
                }
            }
            ctx.end(ring);
        }
        self.stats.batches_submitted.bump();
        self.stats.batch_entries.add(tokens.len() as u64);
        self.stats.batch_kicks.add(kicks);
        Ok(tokens)
    }

    /// Marshal + prepare one batch entry, its bookkeeping parked in its
    /// slot, and add its head to its lane's in `lane_heads`.  Publish
    /// happens at the batch flush; the slot must be registered before that
    /// (the same register-before-publish discipline as the blocking path).
    /// The entry leads its submission if it is the batch's first on its
    /// lane.
    #[expect(clippy::disallowed_methods, reason = "queue router: the endpoint's hashed lane (#15)")]
    fn prepare_batch_entry(
        &self,
        entry: BatchEntry,
        lane_heads: &mut [Vec<u16>],
        ctx: &mut OpCtx<'_>,
    ) -> ScifResult<ReqToken> {
        let BatchEntry { req, staging, desc, payload_bytes, inbound } = entry;
        let q = self.channel.route(&req);
        ctx.set_queue(q as u16);
        let lane = &self.channel.lanes[q];

        let (token, headers) = match self.marshal(&req, q, ctx) {
            Ok(m) => m,
            Err(e) => {
                self.free_staging(staging);
                return Err(e);
            }
        };
        let hint =
            NotifyHint { leads: lane_heads[q].is_empty(), ..self.notify_hint(&req, payload_bytes) };
        let head =
            match with_chain(headers, desc.as_slice(), |chain| lane.queue.prepare_chain(chain)) {
                Ok(head) => head,
                Err(e) => {
                    lane.slots.release(token);
                    self.free_staging(staging);
                    return Err(queue_error(e));
                }
            };
        let batch = BatchOp {
            op: req.opcode(),
            payload_bytes,
            staging,
            inbound,
            epd: req.routing_epd(),
            canceled: false,
        };
        lane.slots.prepare(token, hint, ctx.fork(), Some(batch));
        lane.slots.register(token, head);
        lane_heads[q].push(head);
        Ok(token)
    }

    /// Reap completed tokens from `interest`, oldest-first: a
    /// non-blocking drain first, then blocking (through the same adaptive
    /// waiter and slot park as the blocking calls) until at
    /// least `min` tokens are reaped, never more than `budget`.  Unknown
    /// or already-reaped tokens are skipped — each token is reaped
    /// exactly once.
    pub fn reap_batch<'a>(
        &self,
        interest: &[ReqToken],
        min: usize,
        budget: usize,
        ctx: impl Into<OpCtx<'a>>,
    ) -> Vec<ReapedOp> {
        let mut ctx = ctx.into();
        let root = ctx.adopt_root(&self.channel.trace, "reap");
        let out = self.reap_inner(interest, min, budget, &mut ctx);
        ctx.finish_root(root, 0);
        out
    }

    fn reap_inner(
        &self,
        interest: &[ReqToken],
        min: usize,
        budget: usize,
        ctx: &mut OpCtx<'_>,
    ) -> Vec<ReapedOp> {
        let budget = budget.min(interest.len());
        let target = min.min(budget);
        let mut out: Vec<ReapedOp> = Vec::with_capacity(budget);
        // `open[i]`: `interest[i]` has not been reaped by this call.
        let mut open = vec![true; interest.len()];
        let mut from = 0;
        loop {
            // Take what has already completed, no waiting: all of
            // `interest` first, then (others complete while we sleep) what
            // follows the token just blocked on — everything before it is
            // reaped or was never pending.
            for i in from..interest.len() {
                if out.len() >= budget {
                    break;
                }
                if !open[i] {
                    continue;
                }
                let Some(lane) = self.channel.lane_of(interest[i]) else { continue };
                if let Some(done) = self.take(lane, interest[i], false, ctx.tl) {
                    open[i] = false;
                    out.push(self.finish_reaped(lane, interest[i], done, ctx));
                }
            }
            if out.len() >= target {
                break;
            }
            // Floor not met: block on the oldest token still pending until
            // the backend lets go of it — a canceled one too: its buffers
            // are the backend's to write until then.
            let oldest = (from..interest.len()).find_map(|i| {
                let lane = self.channel.lane_of(interest[i]).filter(|_| open[i])?;
                lane.slots.is_pending(interest[i]).then_some((i, lane))
            });
            let Some((i, lane)) = oldest else { break };
            open[i] = false;
            let wait = ctx.begin("wait-complete", Stage::Completion);
            let done = self.take(lane, interest[i], true, ctx.tl);
            ctx.end(wait);
            if let Some(done) = done {
                out.push(self.finish_reaped(lane, interest[i], done, ctx));
            }
            from = i + 1;
        }
        out
    }

    /// Retire one token: feed the policy, drain the used ring, decode,
    /// unstage inbound data, release every buffer, and apply the canceled
    /// verdict.  This is the async twin of the blocking path's
    /// learn/demarshal tail — same charges, same order.
    fn finish_reaped(
        &self,
        lane: &QueueLane,
        token: ReqToken,
        done: Taken,
        ctx: &mut OpCtx<'_>,
    ) -> ReapedOp {
        let mut data = None;
        let (mut result, batch) = match done {
            Taken::Reply { svc_ns, batch } => {
                if let Some(batch) = &batch {
                    self.learn(batch.op, batch.payload_bytes, svc_ns);
                }
                (self.demarshal(lane, token).and_then(|resp| resp.into_result()), batch)
            }
            // The device died with the entry: it never ran, or never
            // finished, for the caller.
            Taken::Retired(batch) => (Err(ScifError::Canceled), batch),
        };
        let (staging, inbound) = match batch {
            Some(batch) => {
                if batch.canceled {
                    // Drained on the caller's behalf, not run for it.
                    result = Err(ScifError::Canceled);
                }
                (batch.staging, batch.inbound)
            }
            None => (None, None),
        };
        match (inbound, &result) {
            (Some(len), Ok((got, _))) => {
                let take = (*got).min(len) as usize;
                let mut buf = vec![0u8; take];
                let unstaged =
                    staging.map_or(Ok(()), |chunk| self.unstage_chunk(chunk, &mut buf, ctx.tl));
                match unstaged {
                    Ok(()) => data = Some(buf),
                    Err(e) => result = Err(e),
                }
            }
            _ => self.free_staging(staging),
        }
        self.stats.tokens_reaped.bump();
        if result == Err(ScifError::Canceled) {
            self.stats.tokens_canceled.bump();
        }
        ReapedOp { token, result, data }
    }

    /// Mark every unreaped token of `epd` canceled: its reap still drains
    /// the backend completion (zero leaks) but reports `ECANCELED`.
    /// Returns how many tokens were marked.
    pub fn cancel_epd(&self, epd: GuestEpd) -> usize {
        let mut n = 0;
        // Every request of one endpoint rides the lane its epd hashes to.
        self.channel.lanes[self.channel.route_epd(epd)].slots.for_each_pending_batch(|batch| {
            if batch.epd == Some(epd) && !batch.canceled {
                batch.canceled = true;
                n += 1;
            }
        });
        n
    }

    /// Tokens submitted and not yet reaped (leak detector).
    pub fn pending_tokens(&self) -> usize {
        let mut n = 0;
        for lane in &self.channel.lanes {
            lane.slots.for_each_pending_batch(|_| n += 1);
        }
        n
    }

    /// Stage one outbound chunk (at most [`chunk_size`](Self::chunk_size)
    /// bytes) into a kmalloc'd buffer, returning it and its descriptor.
    /// Charges the allocation and the user→kernel copy.  A blocking call
    /// stages, sends and frees one chunk at a time, so it needs no list.
    pub fn stage_chunk_out(
        &self,
        chunk: &[u8],
        tl: &mut Timeline,
    ) -> ScifResult<(KmallocBuf, Descriptor)> {
        let buf = self.kernel.kmalloc_from_user(chunk, tl).map_err(|_| ScifError::NoMem)?;
        self.stats.chunks_sent.bump();
        Ok((buf, Descriptor::readable(buf.gpa.0, chunk.len() as u32)))
    }

    /// Allocate writable staging for one inbound chunk of `len` bytes.
    pub fn stage_chunk_in(
        &self,
        len: u64,
        tl: &mut Timeline,
    ) -> ScifResult<(KmallocBuf, Descriptor)> {
        let buf = self.kernel.kmalloc(len, tl).map_err(|_| ScifError::NoMem)?;
        Ok((buf, Descriptor::writable(buf.gpa.0, len as u32)))
    }

    /// Stage `data` into kmalloc chunks (≤ `KMALLOC_MAX_SIZE` each),
    /// returning the buffers and their descriptors.  Charges the
    /// user→kernel copy.  On error nothing stays allocated.
    pub fn stage_out(
        &self,
        data: &[u8],
        tl: &mut Timeline,
    ) -> ScifResult<(Vec<KmallocBuf>, Vec<Descriptor>)> {
        self.stage(
            data.chunks(self.chunk_size as usize),
            |chunk, tl| self.stage_chunk_out(chunk, tl),
            tl,
        )
    }

    /// Allocate writable staging for an inbound transfer of `len` bytes.
    /// On error nothing stays allocated.
    pub fn stage_in(
        &self,
        len: u64,
        tl: &mut Timeline,
    ) -> ScifResult<(Vec<KmallocBuf>, Vec<Descriptor>)> {
        let chunks = (0..len).step_by(self.chunk_size as usize);
        let chunks = chunks.map(|at| (len - at).min(self.chunk_size));
        self.stage(chunks, |take, tl| self.stage_chunk_in(take, tl), tl)
    }

    /// Stage every chunk with `one`, freeing those already staged if one
    /// fails.
    fn stage<C>(
        &self,
        chunks: impl Iterator<Item = C>,
        one: impl Fn(C, &mut Timeline) -> ScifResult<(KmallocBuf, Descriptor)>,
        tl: &mut Timeline,
    ) -> ScifResult<(Vec<KmallocBuf>, Vec<Descriptor>)> {
        let (mut bufs, mut descs) = (Vec::new(), Vec::new());
        for chunk in chunks {
            match one(chunk, tl) {
                Ok((buf, desc)) => {
                    bufs.push(buf);
                    descs.push(desc);
                }
                Err(e) => {
                    self.free_staging(bufs);
                    return Err(e);
                }
            }
        }
        Ok((bufs, descs))
    }

    /// Copy one staged inbound chunk back to the user buffer (as much of
    /// it as `out` takes) and free it, whether or not the copy succeeded.
    pub fn unstage_chunk(
        &self,
        buf: KmallocBuf,
        out: &mut [u8],
        tl: &mut Timeline,
    ) -> ScifResult<()> {
        let take = (buf.len as usize).min(out.len());
        let copied = match take {
            0 => self.kernel.kfree(buf),
            _ => self.kernel.copy_to_user_and_free(&mut out[..take], buf, tl),
        };
        copied.map_err(|_| ScifError::Inval)
    }

    /// Copy staged inbound data back to the user buffer and free staging —
    /// all of it, even after a copy failed (the first failure is the
    /// result).
    pub fn unstage(
        &self,
        bufs: Vec<KmallocBuf>,
        out: &mut [u8],
        tl: &mut Timeline,
    ) -> ScifResult<()> {
        let mut at = 0usize;
        let mut copied = Ok(());
        for buf in bufs {
            let take = (buf.len as usize).min(out.len() - at);
            let r = self.unstage_chunk(buf, &mut out[at..at + take], tl);
            copied = copied.and(r);
            at += take;
        }
        copied
    }

    /// Free outbound staging after the backend consumed it.
    pub fn free_staging(&self, bufs: impl IntoIterator<Item = KmallocBuf>) {
        for buf in bufs {
            let _ = self.kernel.kfree(buf);
        }
    }

    /// Convenience wrappers used by [`crate::guest::GuestScif`].
    pub fn simple<'a>(
        &self,
        req: VphiRequest,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<(u64, u64)> {
        self.transact(&req, &[], 0, ctx)?.into_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vphi_sim_core::units::MIB;
    use vphi_sim_core::CostModel;
    use vphi_virtio::Popped;
    use vphi_vmm::GuestMemory;

    fn driver(scheme: WaitScheme) -> Arc<FrontendDriver> {
        let mem = Arc::new(GuestMemory::new(64 * MIB));
        let kernel = Arc::new(GuestKernel::new(mem, Arc::new(CostModel::paper_calibrated())));
        let channel = VphiChannel::with_queues(64, 1);
        FrontendDriver::insert(kernel, channel, scheme)
    }

    /// A minimal fake backend servicing lane `q`: answers every request
    /// with ok(7, 8), charging 1 ns of service per payload byte for
    /// send/recv so budget-based waiting has something to discriminate.
    /// Completion notification goes through a real [`LaneNotifier`], the
    /// same gate the production backend uses.
    fn fake_backend_lane(
        channel: Arc<VphiChannel>,
        kernel: Arc<GuestKernel>,
        q: usize,
    ) -> std::thread::JoinHandle<()> {
        let notifier = Arc::new(crate::backend::LaneNotifier::new(kernel.cost().irq_inject));
        fake_backend_with(channel, kernel, q, notifier)
    }

    /// [`fake_backend_lane`] completing through `notifier`, which the
    /// caller keeps to read its ledger.
    fn fake_backend_with(
        channel: Arc<VphiChannel>,
        kernel: Arc<GuestKernel>,
        q: usize,
        notifier: Arc<crate::backend::LaneNotifier>,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let queue = Arc::clone(channel.lane_queue(q));
            while queue.wait_kick() {
                while let Ok(Some(Popped { chain, .. })) = queue.pop_avail_bounded(u64::MAX) {
                    let (token, _trace, hint) = channel.claim(q, chain.head);
                    let mut tl = Timeline::new();
                    let head_desc = chain.request();
                    let mut hdr = [0u8; REQ_SIZE];
                    kernel.mem().read(vphi_vmm::Gpa(head_desc.addr), &mut hdr).unwrap();
                    if let Some(VphiRequest::Send { len, .. } | VphiRequest::Recv { len, .. }) =
                        VphiRequest::decode(&hdr)
                    {
                        let svc = vphi_sim_core::SimDuration::from_nanos(len as u64);
                        tl.charge(SpanLabel::DeviceDeliver, svc);
                    }
                    let resp_desc = chain.response();
                    kernel
                        .mem()
                        .write(vphi_vmm::Gpa(resp_desc.addr), &VphiResponse::ok(7, 8).encode())
                        .unwrap();
                    queue.push_used(
                        vphi_virtio::UsedElem { id: chain.head, len: RESP_SIZE as u32 },
                        kernel.cost().used_push,
                        &mut tl,
                    );
                    let svc_ns = tl.total().as_nanos();
                    let slept = hint.sleeping_after(svc_ns);
                    if hint.injects_after(svc_ns) {
                        notifier.deliver_irq(&mut tl, None);
                    } else {
                        notifier.note_suppressed(None);
                    }
                    notifier.account_wait(hint, svc_ns, None);
                    channel.complete(token, &Completion { tl, slept, svc_ns });
                }
            }
        })
    }

    /// Single-lane fake backend (the original single-queue shape).
    fn fake_backend(
        channel: Arc<VphiChannel>,
        kernel: Arc<GuestKernel>,
    ) -> std::thread::JoinHandle<()> {
        fake_backend_lane(channel, kernel, 0)
    }

    #[test]
    fn transact_round_trips_through_a_backend() {
        let d = driver(WaitScheme::Interrupt);
        let backend = fake_backend(Arc::clone(d.channel()), Arc::clone(d.kernel()));
        let mut tl = Timeline::new();
        let resp = d.transact(&VphiRequest::Open, &[], 0, &mut tl).unwrap();
        assert_eq!(resp, VphiResponse::ok(7, 8));
        d.channel().lane_queue(0).close();
        backend.join().unwrap();
        // The full paravirtual cost structure appears on the timeline.
        assert!(tl.total_for(SpanLabel::GuestSyscall) > vphi_sim_core::SimDuration::ZERO);
        assert!(tl.total_for(SpanLabel::RingPush) > vphi_sim_core::SimDuration::ZERO);
        assert!(tl.total_for(SpanLabel::VmExitKick) > vphi_sim_core::SimDuration::ZERO);
        assert!(tl.total_for(SpanLabel::UsedPush) > vphi_sim_core::SimDuration::ZERO);
        assert!(tl.total_for(SpanLabel::IrqInject) > vphi_sim_core::SimDuration::ZERO);
        assert!(tl.total_for(SpanLabel::GuestWakeup) > vphi_sim_core::SimDuration::ZERO);
        assert_eq!(d.stats().interrupt_waits, 1);
    }

    #[test]
    fn polling_scheme_skips_the_wakeup_cost() {
        let d = driver(WaitScheme::Polling);
        let backend = fake_backend(Arc::clone(d.channel()), Arc::clone(d.kernel()));
        let mut tl = Timeline::new();
        d.transact(&VphiRequest::Open, &[], 0, &mut tl).unwrap();
        d.channel().lane_queue(0).close();
        backend.join().unwrap();
        assert_eq!(tl.total_for(SpanLabel::GuestWakeup), vphi_sim_core::SimDuration::ZERO);
        assert!(tl.total_for(SpanLabel::PollWait) > vphi_sim_core::SimDuration::ZERO);
        assert_eq!(d.stats().polling_waits, 1);
    }

    #[test]
    fn static_hybrid_budget_splits_small_from_bulk() {
        // Fixed 22 µs budget: an 8-byte send (~0.6 µs of service) is
        // caught spinning; a 1 MiB send (~1 ms of service at the fake
        // backend's 1 ns/byte) outlives the budget and sleeps.
        let d = driver(WaitScheme::STATIC_HYBRID);
        let backend = fake_backend(Arc::clone(d.channel()), Arc::clone(d.kernel()));
        let mut tl_small = Timeline::new();
        d.transact(&VphiRequest::Send { epd: 1, len: 8 }, &[], 8, &mut tl_small).unwrap();
        let mut tl_big = Timeline::new();
        d.transact(&VphiRequest::Send { epd: 1, len: 1 << 20 }, &[], 1 << 20, &mut tl_big).unwrap();
        d.channel().lane_queue(0).close();
        backend.join().unwrap();
        assert!(tl_small.total_for(SpanLabel::PollWait) > vphi_sim_core::SimDuration::ZERO);
        assert_eq!(tl_small.total_for(SpanLabel::IrqInject), vphi_sim_core::SimDuration::ZERO);
        assert!(tl_big.total_for(SpanLabel::GuestWakeup) > vphi_sim_core::SimDuration::ZERO);
        assert!(tl_big.total_for(SpanLabel::IrqInject) > vphi_sim_core::SimDuration::ZERO);
        let s = d.stats();
        assert_eq!(s.polling_waits, 1);
        assert_eq!(s.interrupt_waits, 1);
    }

    #[test]
    fn adaptive_learns_budgets_and_accounts_spin_burn() {
        let d = driver(WaitScheme::ADAPTIVE);
        let notifier = Arc::new(crate::backend::LaneNotifier::new(d.kernel().cost().irq_inject));
        let backend = fake_backend_with(
            Arc::clone(d.channel()),
            Arc::clone(d.kernel()),
            0,
            Arc::clone(&notifier),
        );
        // Small sends: the seeded budget (1.5× the calibrated no-wait
        // floor) already covers the ~0.6 µs service, so every one is
        // caught spinning from the first request on.
        for _ in 0..3 {
            let mut tl = Timeline::new();
            d.transact(&VphiRequest::Send { epd: 1, len: 8 }, &[], 8, &mut tl).unwrap();
            assert_eq!(tl.total_for(SpanLabel::GuestWakeup), vphi_sim_core::SimDuration::ZERO);
        }
        // Bulk sends (~1 ms of service): the first outlives its seeded
        // budget and sleeps; the EWMA then learns a service estimate whose
        // budget exceeds the wake-up cost, so the second sleeps *without
        // spinning at all* (hint = SLEEP, zero burn).
        for _ in 0..2 {
            let mut tl = Timeline::new();
            d.transact(&VphiRequest::Send { epd: 1, len: 1 << 20 }, &[], 1 << 20, &mut tl).unwrap();
            assert!(tl.total_for(SpanLabel::GuestWakeup) > vphi_sim_core::SimDuration::ZERO);
        }
        d.channel().lane_queue(0).close();
        backend.join().unwrap();
        let s = d.stats();
        assert_eq!(s.polling_waits, 3);
        assert_eq!(s.interrupt_waits, 2);
        // Burn accounting: spinners burn exactly the service time, a
        // sleeper at most its budget — never more than true service.
        let profile: Vec<_> = notifier.wait_profile().collect();
        assert_eq!(profile.len(), 2, "one small bucket, one bulk bucket");
        for row in &profile {
            assert!(
                row.spin_burn_ns <= row.svc_ns,
                "bucket {}: burned {} > served {}",
                row.bucket,
                row.spin_burn_ns,
                row.svc_ns
            );
        }
        let bulk = profile.iter().find(|r| r.bucket == size_bucket(1 << 20)).unwrap();
        let cost = d.kernel().cost();
        assert!(
            bulk.spin_burn_ns <= budget_from_estimate(cost.paravirtual_floor_no_wait().as_nanos()),
            "bulk burned only the first request's seeded budget"
        );
    }

    #[test]
    fn staging_chunks_at_kmalloc_max() {
        let d = driver(WaitScheme::Interrupt);
        let mut tl = Timeline::new();
        let data = vec![0xABu8; (KMALLOC_MAX_SIZE + 123) as usize];
        let (bufs, descs) = d.stage_out(&data, &mut tl).unwrap();
        assert_eq!(bufs.len(), 2);
        assert_eq!(descs.len(), 2);
        assert_eq!(descs[0].len as u64, KMALLOC_MAX_SIZE);
        assert_eq!(descs[1].len, 123);
        assert_eq!(d.stats().chunks_sent, 2);
        // Round-trip through staging.
        let mut out = vec![0u8; data.len()];
        d.unstage(bufs, &mut out, &mut tl).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn stage_in_allocates_writable_chunks() {
        let d = driver(WaitScheme::Interrupt);
        let mut tl = Timeline::new();
        let (bufs, descs) = d.stage_in(KMALLOC_MAX_SIZE * 2 + 1, &mut tl).unwrap();
        assert_eq!(bufs.len(), 3);
        assert!(descs.iter().all(|d| d.flags.write));
        d.free_staging(bufs);
    }

    #[test]
    fn concurrent_requesters_each_get_their_reply() {
        let d = driver(WaitScheme::Interrupt);
        let backend = fake_backend(Arc::clone(d.channel()), Arc::clone(d.kernel()));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                let mut tl = Timeline::new();
                d.transact(&VphiRequest::Open, &[], 0, &mut tl).unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), VphiResponse::ok(7, 8));
        }
        d.channel().lane_queue(0).close();
        backend.join().unwrap();
        assert_eq!(d.stats().requests, 8);
        assert_eq!(d.channel().inflight_count(), 0);
    }

    /// A dead device lets go of its requests without completing them — one
    /// still on the ring, one it had claimed — and wakes their requesters.
    /// The requester lets go last: it takes the retirement, which frees the
    /// slot, and a repeated retirement frees nothing.
    #[test]
    fn a_retired_slot_is_freed_by_whoever_lets_go_last() {
        let d = driver(WaitScheme::Interrupt);
        let channel = Arc::clone(d.channel());
        let lane = &channel.lanes[0];
        let mut tl = Timeline::new();
        for claimed in [false, true] {
            let op = d.submit_one(&VphiRequest::Open, &[], 0, &mut OpCtx::from(&mut tl)).unwrap();
            assert_eq!(channel.inflight_count(), 1);
            let chain = lane.queue.pop_avail_bounded(u64::MAX).unwrap().unwrap().chain;
            if claimed {
                let (token, ..) = channel.claim(0, chain.head);
                assert_eq!((token, channel.inflight_count()), (op.token, 0));
            }
            channel.retire(op.token);
            assert_eq!(channel.live_slots(), 1, "the backend let go, the requester has not");
            assert!(matches!(d.take(lane, op.token, true, &mut tl), Some(Taken::Retired(None))));
            assert_eq!((channel.live_slots(), channel.inflight_count()), (0, 0));
            channel.retire(op.token);
            let again = d.take(lane, op.token, false, &mut tl);
            assert!(again.is_none(), "a token takes once");
            assert_eq!(channel.live_slots(), 0);
        }
    }

    #[test]
    fn routing_is_deterministic_and_keeps_control_ops_on_lane_zero() {
        let channel = VphiChannel::with_queues(64, 4);
        // Endpoint-less control ops ride lane 0.
        assert_eq!(channel.route(&VphiRequest::Open), 0);
        assert_eq!(channel.route(&VphiRequest::GetNodeIds), 0);
        for epd in 1..64u64 {
            let q = channel.route(&VphiRequest::Send { epd, len: 1 });
            assert!(q < 4);
            // Same endpoint, different op → same lane (FIFO preserved).
            assert_eq!(q, channel.route(&VphiRequest::Recv { epd, len: 9 }));
            assert_eq!(q, channel.route(&VphiRequest::Close { epd }));
        }
        // The hash actually spreads endpoints across lanes.
        let hit: std::collections::HashSet<usize> =
            (1..64u64).map(|epd| channel.route(&VphiRequest::Send { epd, len: 1 })).collect();
        assert_eq!(hit.len(), 4, "64 endpoints should cover all 4 lanes");
    }

    #[test]
    fn multi_queue_round_trips_across_all_lanes() {
        let mem = Arc::new(GuestMemory::new(64 * MIB));
        let kernel = Arc::new(GuestKernel::new(mem, Arc::new(CostModel::paper_calibrated())));
        let channel = VphiChannel::with_queues(64, 4);
        let d = FrontendDriver::insert(kernel, channel, WaitScheme::Interrupt);
        let backends: Vec<_> = (0..4)
            .map(|q| fake_backend_lane(Arc::clone(d.channel()), Arc::clone(d.kernel()), q))
            .collect();
        let mut handles = Vec::new();
        for epd in 1..=16u64 {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                let mut tl = Timeline::new();
                d.transact(&VphiRequest::Send { epd, len: 4 }, &[], 4, &mut tl).unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), VphiResponse::ok(7, 8));
        }
        // Every chain was popped from the lane its endpoint hashed to.
        let popped: u64 =
            d.channel().lanes().iter().map(|l| l.queue.counters().chains_popped).sum();
        assert_eq!(popped, 16);
        let busy_lanes =
            d.channel().lanes().iter().filter(|l| l.queue.counters().chains_popped > 0).count();
        assert!(busy_lanes > 1, "16 endpoints should exercise more than one lane");
        for q in 0..4 {
            d.channel().lane_queue(q).close();
        }
        for b in backends {
            b.join().unwrap();
        }
        assert_eq!(d.channel().inflight_count(), 0);
    }
}
