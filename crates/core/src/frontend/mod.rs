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
//! * multiplex concurrent guest requests and orchestrate the waiting
//!   user-space threads via the chosen [`WaitScheme`];
//! * adaptive completion notification (DESIGN.md #16): each requester
//!   spins up to a per-(op, payload-bucket) budget, then publishes a
//!   `used_event` threshold and sleeps on a **per-token** waiter — the
//!   backend's lane notifier injects an MSI only when a completion
//!   crosses an armed threshold, and delivery wakes exactly the token it
//!   completed (no wake-all thundering herd, no spurious re-checks);
//! * that spin-then-sleep is what the *model* charges every request.  The
//!   host thread behind a blocking call (`transact`) does neither: its
//!   kick's vm-exit is serviced on that thread (DESIGN.md #21), so the
//!   reply is there when it looks.  Real sleeping on the per-token waiter
//!   is left to reaps of batched tokens, worker-dispatched requests
//!   (`accept`), kicks that found their lane busy and kicks that were lost.

mod waiting;

pub use waiting::{SpinBudget, WaitScheme};

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use vphi_scif::{ScifError, ScifResult, SqFlags};
use vphi_sim_core::cost::KMALLOC_MAX_SIZE;
use vphi_sim_core::{SpanLabel, Timeline};
use vphi_sync::{LockClass, TrackedMutex};
use vphi_trace::{size_bucket, OpCtx, Stage, TraceCtx, TraceHook};
use vphi_virtio::{Descriptor, VirtQueue};
use vphi_vmm::kernel::KmallocBuf;
use vphi_vmm::{GuestKernel, TokenWaitQueue};

use crate::protocol::{GuestEpd, VphiRequest, VphiResponse, REQ_SIZE, RESP_SIZE};

/// The vPHI interrupt vector of queue 0 on the guest's IRQ chip.  Queue
/// `q` injects on `VPHI_IRQ_VECTOR + q` — one MSI vector per virtqueue,
/// all registered to the same wake-all ISR.
pub const VPHI_IRQ_VECTOR: u32 = 11;

/// First completion-wait deadline.  When it expires without a completion
/// or a shutdown, the frontend re-kicks the device: a lost kick or lost
/// completion interrupt only costs one deadline, not a hang.  Kept at the
/// seed's 200 ms so single-fault recovery latency is unchanged; repeated
/// expiries back off exponentially from here to [`BACKOFF_CAP`], each
/// wait jittered so concurrent requesters that lost the same kick don't
/// re-kick in lockstep.
const BACKOFF_BASE: std::time::Duration = std::time::Duration::from_millis(200);

/// Ceiling the exponential re-kick backoff saturates at.
const BACKOFF_CAP: std::time::Duration = std::time::Duration::from_millis(800);

/// Seed for the shared re-kick jitter RNG — fixed so runs are repeatable.
const BACKOFF_SEED: u64 = 0x05EE_DBAC_C0FF_5EED;

/// Re-kick attempts before the frontend declares the request lost.
const MAX_DEADLINE_RETRIES: u32 = 50;

/// A unique per-request completion token.
///
/// Virtqueue head ids are *recycled* as soon as any thread drains the used
/// ring, so two concurrent requesters could otherwise collide on the same
/// head and steal each other's completion.  The token is bound to the head
/// at submit time and unbound when the backend pops the chain — the window
/// in which the head cannot be reused.
pub type ReqToken = u64;

/// The waiter's pre-kick declaration of how it will wait, riding the
/// inflight table to the backend's lane notifier.  The budget is in
/// *virtual* nanoseconds: the backend compares its own service time
/// against it to learn deterministically whether the requester was still
/// spinning or had gone to sleep when the completion landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotifyHint {
    /// Spin budget: `0` = sleeps immediately (the interrupt scheme),
    /// `u64::MAX` = spins forever (busy-poll, never arms an interrupt).
    pub budget_ns: u64,
}

impl NotifyHint {
    /// Sleep immediately.
    pub const SLEEP: NotifyHint = NotifyHint { budget_ns: 0 };
    /// Spin forever.
    pub const SPIN: NotifyHint = NotifyHint { budget_ns: u64::MAX };

    /// Whether a waiter with this hint has given up spinning and gone to
    /// sleep by the time the backend's service has taken `svc_ns`.
    pub fn sleeping_after(self, svc_ns: u64) -> bool {
        svc_ns > self.budget_ns
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

/// One virtqueue lane: the ring plus its private head→request routing
/// table.  Head ids are per-queue, so each lane keeps its own inflight
/// map — two lanes can recycle the same head without colliding.
pub struct QueueLane {
    pub queue: Arc<VirtQueue>,
    /// head → (token, request timeline, trace fork, notify hint),
    /// travelling frontend → backend.
    inflight: TrackedMutex<HashMap<u16, (ReqToken, Timeline, TraceCtx, NotifyHint)>>,
}

/// The shared state both halves of the split driver touch: the virtio
/// queue lanes plus the request-routing tables.
pub struct VphiChannel {
    /// Lane 0's ring, aliased as a named field so single-queue call sites
    /// (tests, benches, control-plane ops) read naturally.
    pub queue: Arc<VirtQueue>,
    lanes: Vec<QueueLane>,
    /// token → completion, travelling backend → frontend.
    completed: TrackedMutex<HashMap<ReqToken, Completion>>,
    next_token: std::sync::atomic::AtomicU64,
    /// Set when the backend stops servicing (VM shutdown): guest calls
    /// fail fast with `ENODEV` instead of waiting on a dead ring.
    shutdown: std::sync::atomic::AtomicBool,
    /// The frontend's sleeping requesters, parked per token: completion
    /// delivery wakes exactly the requester it completed (broadcast is
    /// reserved for shutdown).
    pub waitq: Arc<TokenWaitQueue>,
    /// Tracing hook shared by both halves of the split driver: armed once
    /// by `VphiHost::arm_tracing`, disarmed (a single `OnceLock` load) in
    /// production.
    pub trace: TraceHook,
}

impl VphiChannel {
    pub fn new(queue_size: u16) -> Arc<Self> {
        Self::with_queues(queue_size, 1)
    }

    /// A channel with `num_queues` independent virtqueue lanes of
    /// `queue_size` descriptors each.
    pub fn with_queues(queue_size: u16, num_queues: u16) -> Arc<Self> {
        assert!(num_queues > 0, "a vPHI device needs at least one virtqueue");
        let lanes: Vec<QueueLane> = (0..num_queues)
            .map(|_| QueueLane {
                queue: VirtQueue::new(queue_size),
                inflight: TrackedMutex::new(LockClass::FrontendInflight, HashMap::new()),
            })
            .collect();
        Arc::new(VphiChannel {
            queue: Arc::clone(&lanes[0].queue),
            lanes,
            completed: TrackedMutex::new(LockClass::FrontendCompleted, HashMap::new()),
            next_token: std::sync::atomic::AtomicU64::new(1),
            shutdown: std::sync::atomic::AtomicBool::new(false),
            waitq: Arc::new(TokenWaitQueue::new()),
            trace: TraceHook::new(),
        })
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
        match req.routing_epd() {
            None => 0,
            Some(epd) => {
                let h = vphi_sim_core::rng::SplitMix64::new(epd).next_u64();
                (h % self.lanes.len() as u64) as usize
            }
        }
    }

    /// Mark the device gone and wake every sleeper so it can fail fast.
    pub fn mark_shutdown(&self) {
        self.mark_shutdown_quiet();
        self.waitq.wake_all();
    }

    /// Set the shutdown flag *without* waking sleepers.  The dead-guest GC
    /// uses this to fail-fast new requests while it drains, then wakes
    /// everyone only once the teardown is complete — so a waiter that
    /// observes `ENODEV` can rely on the GC having already finished.
    pub fn mark_shutdown_quiet(&self) {
        self.shutdown.store(true, std::sync::atomic::Ordering::Release);
    }

    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Frontend: stash the request timeline, the trace fork the backend's
    /// spans attach to, and the notify hint before kicking lane `q`;
    /// returns the token the requester waits on.
    pub fn submit(
        &self,
        q: usize,
        head: u16,
        tl: Timeline,
        trace: TraceCtx,
        hint: NotifyHint,
    ) -> ReqToken {
        let token = self.next_token.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.lanes[q].inflight.lock().insert(head, (token, tl, trace, hint));
        token
    }

    /// Backend: claim the request's token, timeline, trace fork, and
    /// notify hint after popping lane `q`.
    pub fn claim(&self, q: usize, head: u16) -> (ReqToken, Timeline, TraceCtx, NotifyHint) {
        self.lanes[q].inflight.lock().remove(&head).unwrap_or((
            0,
            Timeline::new(),
            TraceCtx::default(),
            NotifyHint::SLEEP,
        ))
    }

    /// Backend: deliver the completion and wake exactly its requester —
    /// if it sleeps.  (A blocking caller whose own thread ran the request
    /// is not parked, and the wake finds no slot; it takes the reply on
    /// its first check.)  The completed-table insert happens-before the
    /// directed wake, so a woken waiter's re-check always finds its reply.
    pub fn complete(&self, token: ReqToken, completion: Completion) {
        self.completed.lock().insert(token, completion);
        self.waitq.wake(token);
    }

    /// Deliver a completion *without* waking anyone — models a lost
    /// completion MSI: the reply sits on the ring until the requester's
    /// deadline expires and its re-check finds it.
    pub fn complete_quiet(&self, token: ReqToken, completion: Completion) {
        self.completed.lock().insert(token, completion);
    }

    /// Frontend: non-blocking check for a specific completion.
    pub fn try_take(&self, token: ReqToken) -> Option<Completion> {
        self.completed.lock().remove(&token)
    }

    pub fn inflight_count(&self) -> usize {
        self.lanes.iter().map(|l| l.inflight.lock().len()).sum()
    }
}

impl std::fmt::Debug for VphiChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VphiChannel")
            .field("queues", &self.lanes.len())
            .field("inflight", &self.inflight_count())
            .field("completed", &self.completed.lock().len())
            .finish()
    }
}

/// Per-driver counters for the waiting-scheme diagnostics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FrontendStats {
    pub requests: u64,
    pub interrupt_waits: u64,
    pub polling_waits: u64,
    pub chunks_sent: u64,
    /// Publishes that kicked (one vm-exit each): every blocking request
    /// and every touched lane of a batch.  Deadline re-kicks are counted
    /// by `deadline_retries`.
    pub kicks_delivered: u64,
    /// Times a request's completion deadline expired and the frontend
    /// re-kicked the device (recovers lost kicks and lost MSIs).
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

impl FrontendStats {
    /// One finished wait, by the notifier's verdict.
    fn count_wait(&mut self, slept: bool) {
        if slept {
            self.interrupt_waits += 1;
        } else {
            self.polling_waits += 1;
        }
    }
}

/// The spin-budget learning state (DESIGN.md #16).  One lock, taken
/// briefly at submit (budget lookup) and at completion (EWMA update +
/// burn accounting) — never held across a wait.
#[derive(Debug, Default)]
struct NotifyPolicy {
    /// (op, payload pow2 bucket) → EWMA of backend service ns.
    ewma: HashMap<(&'static str, u8), u64>,
    /// Endpoints pinned to busy-poll by [`FrontendDriver::set_busy_poll`].
    busy_poll: HashSet<GuestEpd>,
    /// payload bucket → (virtual ns burned spinning, true service ns):
    /// the ABL-WAIT spin-cycles-burned vs latency trade-off.
    burn: HashMap<u8, (u64, u64)>,
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
/// blocking call (one staging chunk per request, at most).  A batch entry
/// staged in more chunks than that takes the heap.
const INLINE_CHAIN: usize = 4;

/// Lay out one request's descriptor chain — request header, the `extra`
/// payload descriptors, response header — and lend it to `f`.
fn with_chain<R>(
    req_buf: &KmallocBuf,
    extra: &[Descriptor],
    resp_buf: &KmallocBuf,
    f: impl FnOnce(&[Descriptor]) -> R,
) -> R {
    let head = Descriptor::readable(req_buf.gpa.0, REQ_SIZE as u32);
    let tail = Descriptor::writable(resp_buf.gpa.0, RESP_SIZE as u32);
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

/// One payload bucket's spin-burn accounting (see
/// [`FrontendDriver::wait_profile`]).
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
/// [`FrontendDriver::submit_batch`]: the wire request plus its staged
/// payload.  Staging ownership transfers to the driver's pending table
/// and is released when the entry's token is reaped.
pub struct BatchEntry {
    /// The wire request (its `routing_epd` picks the lane).
    pub req: VphiRequest,
    /// Staged payload buffers, owned until reap.
    pub staging: Vec<KmallocBuf>,
    /// Payload descriptors, placed between the two headers.
    pub descs: Vec<Descriptor>,
    /// Payload size, for the adaptive waiter's bucket choice.
    pub payload_bytes: u64,
    /// `Some(len)` for inbound ops: unstage up to `len` bytes into the
    /// reaped entry's data at completion.
    pub inbound: Option<u64>,
    /// Per-entry flags (busy-poll override, first re-kick deadline).
    pub flags: SqFlags,
}

/// A token's frontend-side state between submit and reap: everything the
/// blocking path keeps on its stack, parked in the pending table instead.
struct PendingOp {
    lane_queue: Arc<VirtQueue>,
    hint: NotifyHint,
    op: &'static str,
    payload_bytes: u64,
    req_buf: KmallocBuf,
    resp_buf: KmallocBuf,
    pooled: bool,
    staging: Vec<KmallocBuf>,
    inbound: Option<u64>,
    deadline_ms: Option<u32>,
    epd: Option<GuestEpd>,
    /// Set by [`FrontendDriver::cancel_epd`]: the reap drains the backend
    /// completion (nothing leaks) but reports `ECANCELED`.
    canceled: bool,
}

/// A published-but-not-awaited operation — what [`FrontendDriver::submit_one`]
/// hands back for the blocking path to kick, wait on, and demarshal.
struct SubmittedOp {
    lane_queue: Arc<VirtQueue>,
    /// The chain's position on the lane's avail ring: how far the
    /// blocking kick drains.
    avail_idx: u64,
    token: ReqToken,
    hint: NotifyHint,
    op: &'static str,
    payload_bytes: u64,
    req_buf: KmallocBuf,
    resp_buf: KmallocBuf,
    pooled: bool,
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
    stats: TrackedMutex<FrontendStats>,
    /// Shared RNG jittering the re-kick backoff so requesters that lost
    /// the same kick don't hammer the doorbell in lockstep.
    backoff_rng: TrackedMutex<vphi_sim_core::rng::SplitMix64>,
    /// Preallocated request/response header slots (a slab, allocated once
    /// at module insertion — per-request kmalloc is only paid for payload
    /// staging, as in the real driver).
    slots: TrackedMutex<Vec<(KmallocBuf, KmallocBuf)>>,
    /// Spin-budget EWMA table, busy-poll overrides, burn accounting.
    policy: TrackedMutex<NotifyPolicy>,
    /// token → submitted-but-unreaped state (the SQ/CQ bookkeeping).
    /// Locked briefly at submit, cancel and reap — never across a wait.
    pending: TrackedMutex<HashMap<ReqToken, PendingOp>>,
}

impl std::fmt::Debug for FrontendDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontendDriver").field("scheme", &self.scheme).finish()
    }
}

impl FrontendDriver {
    /// Insert the module and return the driver.  No ISR is registered:
    /// completion delivery wakes its requester's per-token waiter
    /// directly, so the MSI vectors carry only their injection cost and
    /// raise counts (the paper's wake-all-recheck handler is gone).
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
        // Preallocate the header slab (module-init cost, not charged to
        // any request).
        let mut init_tl = Timeline::new();
        let mut slots = Vec::new();
        for _ in 0..64 {
            if let (Ok(req), Ok(resp)) = (
                kernel.kmalloc(REQ_SIZE as u64, &mut init_tl),
                kernel.kmalloc(RESP_SIZE as u64, &mut init_tl),
            ) {
                slots.push((req, resp));
            }
        }
        Arc::new(FrontendDriver {
            kernel,
            channel,
            scheme,
            chunk_size,
            stats: TrackedMutex::new(LockClass::FrontendStats, FrontendStats::default()),
            backoff_rng: TrackedMutex::new(
                LockClass::FrontendBackoff,
                vphi_sim_core::rng::SplitMix64::new(BACKOFF_SEED),
            ),
            slots: TrackedMutex::new(LockClass::FrontendSlots, slots),
            policy: TrackedMutex::new(LockClass::NotifyPolicy, NotifyPolicy::default()),
            pending: TrackedMutex::new(LockClass::FrontendPending, HashMap::new()),
        })
    }

    /// Pin (or unpin) endpoint `epd` to busy-poll waiting: its requests
    /// spin regardless of the learned budget and never arm an interrupt.
    /// The latency-critical-endpoint override (README "Completion
    /// notification").
    pub fn set_busy_poll(&self, epd: GuestEpd, on: bool) {
        let mut policy = self.policy.lock();
        if on {
            policy.busy_poll.insert(epd);
        } else {
            policy.busy_poll.remove(&epd);
        }
    }

    /// Per-payload-bucket spin-burn vs true-service accounting, sorted by
    /// bucket — the ABL-WAIT CPU-cost column.
    pub fn wait_profile(&self) -> Vec<WaitBucketProfile> {
        let policy = self.policy.lock();
        let mut rows: Vec<WaitBucketProfile> = policy
            .burn
            .iter()
            .map(|(&bucket, &(spin_burn_ns, svc_ns))| WaitBucketProfile {
                bucket,
                spin_burn_ns,
                svc_ns,
            })
            .collect();
        rows.sort_by_key(|r| r.bucket);
        rows
    }

    /// The spin budget this request declares before its kick.
    ///
    /// Busy-poll endpoints always spin.  The interrupt scheme sleeps
    /// immediately; polling spins forever; a fixed-budget adaptive spins
    /// exactly its budget; the EWMA adaptive spins 1.5× the learned
    /// per-(op, bucket) service estimate — seeded from the calibrated
    /// no-wait floor — unless that budget already exceeds the wake-up
    /// cost, in which case spinning can never win and it sleeps at once.
    fn notify_hint(&self, req: &VphiRequest, payload_bytes: u64) -> NotifyHint {
        let cost = self.kernel.cost();
        if let Some(epd) = req.routing_epd() {
            if self.policy.lock().busy_poll.contains(&epd) {
                return NotifyHint::SPIN;
            }
        }
        match self.scheme {
            WaitScheme::Interrupt => NotifyHint::SLEEP,
            WaitScheme::Polling => NotifyHint::SPIN,
            WaitScheme::Adaptive(SpinBudget::Fixed(budget)) => {
                NotifyHint { budget_ns: budget.as_nanos() }
            }
            WaitScheme::Adaptive(SpinBudget::Ewma) => {
                let key = (req.name(), size_bucket(payload_bytes));
                let est = self
                    .policy
                    .lock()
                    .ewma
                    .get(&key)
                    .copied()
                    .unwrap_or_else(|| cost.paravirtual_floor_no_wait().as_nanos());
                let budget_ns = budget_from_estimate(est);
                if budget_ns >= cost.guest_wakeup.as_nanos() {
                    NotifyHint::SLEEP
                } else {
                    NotifyHint { budget_ns }
                }
            }
        }
    }

    /// Fold a finished request back into the policy: EWMA the service
    /// time and account the spin burn.  A spinner that caught its
    /// completion burned exactly the service time; a sleeper burned only
    /// its (smaller) budget before parking — so per bucket, reported burn
    /// never exceeds true service time.
    fn learn(&self, op: &'static str, payload_bytes: u64, hint: NotifyHint, done: &Completion) {
        let bucket = size_bucket(payload_bytes);
        let mut policy = self.policy.lock();
        let est = policy.ewma.entry((op, bucket)).or_insert(done.svc_ns);
        *est = *est - (*est >> EWMA_SHIFT) + (done.svc_ns >> EWMA_SHIFT);
        let burned = if done.slept { hint.budget_ns.min(done.svc_ns) } else { done.svc_ns };
        let (spin, svc) = policy.burn.entry(bucket).or_insert((0, 0));
        *spin += burned;
        *svc += done.svc_ns;
    }

    /// The staging chunk size used for large transfers.
    pub fn chunk_size(&self) -> u64 {
        self.chunk_size
    }

    /// Grab a header slot, falling back to a charged kmalloc pair when the
    /// slab is exhausted (more than 64 concurrent requests).
    fn take_slot(&self, tl: &mut Timeline) -> ScifResult<(KmallocBuf, KmallocBuf, bool)> {
        if let Some((req, resp)) = self.slots.lock().pop() {
            return Ok((req, resp, true));
        }
        let req = self.kernel.kmalloc(REQ_SIZE as u64, tl).map_err(|_| ScifError::NoMem)?;
        let resp = self.kernel.kmalloc(RESP_SIZE as u64, tl).map_err(|_| ScifError::NoMem)?;
        Ok((req, resp, false))
    }

    fn return_slot(&self, req: KmallocBuf, resp: KmallocBuf, pooled: bool) {
        if pooled {
            self.slots.lock().push((req, resp));
        } else {
            let _ = self.kernel.kfree(req);
            let _ = self.kernel.kfree(resp);
        }
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
        *self.stats.lock()
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
    /// context riding the inflight table to the backend.
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

    fn transact_inner(
        &self,
        req: &VphiRequest,
        extra: &[Descriptor],
        payload_bytes: u64,
        ctx: &mut OpCtx<'_>,
    ) -> ScifResult<VphiResponse> {
        let sub = self.submit_one(req, extra, payload_bytes, ctx)?;
        let cost = self.kernel.cost();
        // Kick inside the wait span, not before it: the kick is what
        // starts the backend (here, or on a shard thread it wakes), so
        // allocating the wait span's id first keeps span numbering
        // single-threaded — and traces byte-stable.  The span then covers
        // the handoff vmexit plus the scheme's wait, and in a trace view
        // brackets the backend subtree it waited on.
        //
        // This caller is about to do nothing but wait for `sub.token`, so
        // its kick's vm-exit is serviced right here, on this thread
        // (DESIGN.md #21): when `kick_blocking` returns, the backend has
        // run the request and the completion sits in the completed table
        // for the wait's first check.  Only a lost kick, a busy lane or a
        // worker-dispatched request leaves something to sleep for.
        let wait = ctx.begin("wait-complete", Stage::Completion);
        sub.lane_queue.kick_blocking(sub.avail_idx, cost.vmexit_kick, ctx.tl);
        let waited = self.wait_for_completion(&sub.lane_queue, sub.token, BACKOFF_BASE, ctx.tl);
        {
            let mut stats = self.stats.lock();
            stats.requests += 1;
            stats.kicks_delivered += 1;
            if let Ok(done) = &waited {
                stats.count_wait(done.slept);
            }
        }
        let done = match waited {
            Ok(d) => d,
            Err(e) => {
                ctx.end(wait);
                self.return_slot(sub.req_buf, sub.resp_buf, sub.pooled);
                return Err(e);
            }
        };
        self.account_wait(sub.op, sub.payload_bytes, sub.hint, &done, ctx.tl);
        ctx.tl.absorb(&done.tl);
        ctx.end(wait);
        self.demarshal(sub.lane_queue, sub.req_buf, sub.resp_buf, sub.pooled)
    }

    /// Marshal one request, prepare its chain, register its token, and
    /// publish it on its lane's avail ring — everything the blocking and
    /// batched paths share up to the doorbell.  The caller kicks: the
    /// blocking path immediately, the batch path once per touched lane.
    fn submit_one(
        &self,
        req: &VphiRequest,
        extra: &[Descriptor],
        payload_bytes: u64,
        ctx: &mut OpCtx<'_>,
    ) -> ScifResult<SubmittedOp> {
        if self.channel.is_shutdown() {
            return Err(ScifError::NoDev);
        }
        let cost = self.kernel.cost();

        // Pick the queue lane before anything is charged: the routing rule
        // is a pure function of the request's endpoint, so per-endpoint
        // FIFO order holds regardless of queue count.
        let q = self.channel.route(req);
        ctx.set_queue(q as u16);
        let lane_queue = Arc::clone(&self.channel.lanes[q].queue);

        let (req_buf, resp_buf, pooled) = self.marshal(req, ctx)?;

        // Post and stash the cross-boundary timeline.
        let ring = ctx.begin("virtio-ring", Stage::VirtioRing);
        let prepared =
            with_chain(&req_buf, extra, &resp_buf, |chain| lane_queue.prepare_chain(chain));
        let head = match prepared {
            Ok(h) => h,
            Err(_) => {
                ctx.end(ring);
                self.return_slot(req_buf, resp_buf, pooled);
                return Err(ScifError::NoMem);
            }
        };
        // The inflight entry must exist before the head is visible on the
        // avail ring: the backend may pop and claim the chain the instant
        // it is published (another requester's kick can have woken it),
        // and a claim that finds no entry falls back to the token-0
        // sentinel — completing to nobody and stranding this requester
        // until its deadline retries exhaust.
        //
        // The used-event threshold is armed *before* publish too — the
        // prepare/publish discipline again: once the head is visible the
        // backend can complete it instantly, and its inject-or-suppress
        // decision must see this waiter's threshold, never a stale one.
        // A pure spinner arms nothing (it needs no interrupt).
        let hint = self.notify_hint(req, payload_bytes);
        if hint != NotifyHint::SPIN {
            lane_queue.publish_used_event(lane_queue.used_seq());
        }
        let token = self.channel.submit(q, head, Timeline::with_capacity(16), ctx.fork(), hint);
        let avail_idx = lane_queue.publish_avail(head, cost.ring_push, ctx.tl);
        ctx.end(ring);
        Ok(SubmittedOp {
            lane_queue,
            avail_idx,
            token,
            hint,
            op: req.name(),
            payload_bytes,
            req_buf,
            resp_buf,
            pooled,
        })
    }

    /// The guest-syscall stage of one request, blocking or batched: charge
    /// the syscall and encode the header into a preallocated slot.  On
    /// error the slot is already back in the pool.
    fn marshal(
        &self,
        req: &VphiRequest,
        ctx: &mut OpCtx<'_>,
    ) -> ScifResult<(KmallocBuf, KmallocBuf, bool)> {
        let marshal = ctx.begin("guest-syscall", Stage::GuestSyscall);
        self.kernel.charge_syscall(ctx.tl);
        let (req_buf, resp_buf, pooled) = match self.take_slot(ctx.tl) {
            Ok(slot) => slot,
            Err(e) => {
                ctx.end(marshal);
                return Err(e);
            }
        };
        if self.kernel.mem().write(req_buf.gpa, &req.encode()).is_err() {
            ctx.end(marshal);
            self.return_slot(req_buf, resp_buf, pooled);
            return Err(ScifError::Inval);
        }
        ctx.end(marshal);
        Ok((req_buf, resp_buf, pooled))
    }

    /// Drain the used ring and decode the response — the tail every
    /// completed token runs, blocking or reaped.  A corrupt used id means
    /// the device side scribbled on the ring; surface it after the slot
    /// is returned.
    fn demarshal(
        &self,
        lane_queue: Arc<VirtQueue>,
        req_buf: KmallocBuf,
        resp_buf: KmallocBuf,
        pooled: bool,
    ) -> ScifResult<VphiResponse> {
        let drained = lane_queue.take_used(|_| ());
        let mut resp_bytes = [0u8; RESP_SIZE];
        let read = self.kernel.mem().read(resp_buf.gpa, &mut resp_bytes);
        self.return_slot(req_buf, resp_buf, pooled);
        drained.map_err(|_| ScifError::Inval)?;
        read.map_err(|_| ScifError::Inval)?;
        VphiResponse::decode(&resp_bytes).ok_or(ScifError::Inval)
    }

    /// Block until `token` completes or the device dies — the single wait
    /// primitive under both the blocking calls and token reaps.
    ///
    /// Deadlines grow exponentially from `base` (the blocking path's
    /// [`BACKOFF_BASE`], or an entry's own deadline flag) to the
    /// [`BACKOFF_CAP`], each jittered to 50–100% of its nominal length:
    /// a single lost kick still recovers within one seed-equivalent
    /// deadline, while a persistently slow backend sees re-kicks thin out
    /// instead of arriving as a synchronized 200 ms drumbeat.
    fn wait_for_completion(
        &self,
        lane_queue: &Arc<VirtQueue>,
        token: ReqToken,
        base: std::time::Duration,
        tl: &mut Timeline,
    ) -> ScifResult<Completion> {
        let cost = self.kernel.cost();
        let channel = &self.channel;
        let pred = || {
            if let Some(done) = channel.try_take(token) {
                return Some(Ok(done));
            }
            if channel.is_shutdown() {
                return Some(Err(ScifError::NoDev));
            }
            None
        };
        // A blocking caller's completion is already here (it serviced its
        // own kick): no jitter draw, no lock beyond the table's.
        if let Some(r) = pred() {
            return r;
        }
        let mut outcome = None;
        let mut deadline = base;
        for _attempt in 0..=MAX_DEADLINE_RETRIES {
            let jittered = {
                let mut rng = self.backoff_rng.lock();
                deadline.mul_f64(0.5 + rng.next_f64() * 0.5)
            };
            if let Some(r) = channel.waitq.wait_for(token, jittered, pred) {
                outcome = Some(r);
                break;
            }
            // Deadline expired with no completion and no shutdown: the
            // kick or the completion interrupt may have been lost.
            // Re-kick so the backend re-scans the avail ring, and if the
            // reply already sits in `completed` (quiet completion), the
            // next attempt's immediate predicate check takes it.
            self.stats.lock().deadline_retries += 1;
            lane_queue.kick(cost.vmexit_kick, tl);
            deadline = (deadline * 2).min(BACKOFF_CAP);
        }
        outcome.unwrap_or(Err(ScifError::Again))
    }

    /// Charge the wait's virtual-time cost by *outcome* and feed the
    /// spin-budget policy.  The backend's notifier decided —
    /// deterministically, from the hint it was handed — whether this
    /// waiter was still spinning when the reply landed.  (The matching
    /// `FrontendStats::count_wait` rides the caller's one stats update.)
    fn account_wait(
        &self,
        op: &'static str,
        payload_bytes: u64,
        hint: NotifyHint,
        done: &Completion,
        tl: &mut Timeline,
    ) {
        let cost = self.kernel.cost();
        if done.slept {
            // Armed the interrupt and slept: wake-up, ring re-check,
            // reschedule — the paper's dominant overhead term.
            tl.charge(SpanLabel::GuestWakeup, cost.guest_wakeup);
        } else {
            // Caught it spinning: near-zero latency to observe the
            // completion, but the vCPU burned the service time.
            tl.charge(SpanLabel::PollWait, cost.poll_observe);
        }
        self.learn(op, payload_bytes, hint, done);
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
            match self.prepare_batch_entry(entry, ctx) {
                Ok((q, head, token)) => {
                    lane_heads[q].push(head);
                    tokens.push(token);
                }
                // The failed entry's resources were already released;
                // stop accepting, but still flush what was prepared.
                Err(_) => short = true,
            }
        }
        // One doorbell per touched lane covers every entry on it.  Each
        // entry's pending/inflight state and used-event threshold are
        // already registered, so the backend may claim the whole burst
        // the instant the batch publish lands.
        let mut kicks = 0u64;
        for (q, heads) in lane_heads.iter().enumerate() {
            if heads.is_empty() {
                continue;
            }
            let lane_queue = Arc::clone(self.channel.lane_queue(q));
            let ring = ctx.begin("virtio-ring", Stage::VirtioRing);
            lane_queue.publish_avail_batch(heads, cost.ring_push, ctx.tl);
            lane_queue.kick(cost.vmexit_kick, ctx.tl);
            kicks += 1;
            ctx.end(ring);
        }
        {
            let mut stats = self.stats.lock();
            stats.requests += tokens.len() as u64;
            stats.batches_submitted += 1;
            stats.batch_entries += tokens.len() as u64;
            stats.batch_kicks += kicks;
            stats.kicks_delivered += kicks;
        }
        Ok(tokens)
    }

    /// Marshal + prepare one batch entry and park its state in the
    /// pending table.  Publish happens at the batch flush; the pending
    /// and inflight entries must exist before that (the same
    /// inflight-before-publish discipline as the blocking path).
    fn prepare_batch_entry(
        &self,
        entry: BatchEntry,
        ctx: &mut OpCtx<'_>,
    ) -> ScifResult<(usize, u16, ReqToken)> {
        let BatchEntry { req, staging, descs, payload_bytes, inbound, flags } = entry;
        let q = self.channel.route(&req);
        ctx.set_queue(q as u16);
        let lane_queue = Arc::clone(&self.channel.lanes[q].queue);

        let (req_buf, resp_buf, pooled) = match self.marshal(&req, ctx) {
            Ok(m) => m,
            Err(e) => {
                self.free_staging(staging);
                return Err(e);
            }
        };
        let prepared =
            with_chain(&req_buf, &descs, &resp_buf, |chain| lane_queue.prepare_chain(chain));
        let head = match prepared {
            Ok(h) => h,
            Err(_) => {
                self.return_slot(req_buf, resp_buf, pooled);
                self.free_staging(staging);
                return Err(ScifError::NoMem);
            }
        };
        let hint =
            if flags.busy_poll { NotifyHint::SPIN } else { self.notify_hint(&req, payload_bytes) };
        if hint != NotifyHint::SPIN {
            lane_queue.publish_used_event(lane_queue.used_seq());
        }
        let token = self.channel.submit(q, head, Timeline::with_capacity(16), ctx.fork(), hint);
        self.pending.lock().insert(
            token,
            PendingOp {
                lane_queue,
                hint,
                op: req.name(),
                payload_bytes,
                req_buf,
                resp_buf,
                pooled,
                staging,
                inbound,
                deadline_ms: flags.deadline_ms,
                epd: req.routing_epd(),
                canceled: false,
            },
        );
        Ok((q, head, token))
    }

    /// Reap completed tokens from `interest`, oldest-first: a
    /// non-blocking drain first, then blocking (through the same adaptive
    /// waiter and per-token wait queue as the blocking calls) until at
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
                if let Some(done) = self.channel.try_take(interest[i]) {
                    open[i] = false;
                    out.push(self.finish_reaped(interest[i], Some(done), ctx));
                }
            }
            if out.len() >= target {
                break;
            }
            // Floor not met: block on the oldest token still pending.
            let oldest = (from..interest.len())
                .find(|&i| open[i] && self.pending.lock().contains_key(&interest[i]));
            let Some(i) = oldest else { break };
            open[i] = false;
            out.push(self.block_on(interest[i], ctx));
            from = i + 1;
        }
        out
    }

    /// Block on one pending token.  A canceled token still waits for the
    /// backend's completion when the device is alive — the response
    /// buffer cannot be recycled while the backend can still write it —
    /// but a dead device will never complete, so shutdown drains
    /// whatever already arrived and gives up waiting.
    fn block_on(&self, token: ReqToken, ctx: &mut OpCtx<'_>) -> ReapedOp {
        let (lane_queue, deadline_ms) = {
            let pending = self.pending.lock();
            let p = pending.get(&token).expect("block_on on a non-pending token");
            (Arc::clone(&p.lane_queue), p.deadline_ms)
        };
        let wait = ctx.begin("wait-complete", Stage::Completion);
        let done = if self.channel.is_shutdown() {
            self.channel.try_take(token)
        } else {
            let base = deadline_ms
                .map(|ms| std::time::Duration::from_millis(ms as u64))
                .unwrap_or(BACKOFF_BASE);
            self.wait_for_completion(&lane_queue, token, base, ctx.tl).ok()
        };
        ctx.end(wait);
        self.finish_reaped(token, done, ctx)
    }

    /// Retire one token: account the wait, drain the used ring, decode,
    /// unstage inbound data, release every buffer, and apply the canceled
    /// verdict.  This is the async twin of the blocking path's
    /// account/absorb/demarshal tail — same charges, same order.
    fn finish_reaped(
        &self,
        token: ReqToken,
        done: Option<Completion>,
        ctx: &mut OpCtx<'_>,
    ) -> ReapedOp {
        let Some(p) = self.pending.lock().remove(&token) else {
            return ReapedOp { token, result: Err(ScifError::Inval), data: None };
        };
        let PendingOp {
            lane_queue,
            hint,
            op,
            payload_bytes,
            req_buf,
            resp_buf,
            pooled,
            staging,
            inbound,
            deadline_ms: _,
            epd: _,
            canceled,
        } = p;
        let mut data = None;
        let slept = done.as_ref().map(|done| done.slept);
        let mut result = match done {
            Some(done) => {
                self.account_wait(op, payload_bytes, hint, &done, ctx.tl);
                ctx.tl.absorb(&done.tl);
                self.demarshal(lane_queue, req_buf, resp_buf, pooled)
                    .and_then(|resp| resp.into_result())
            }
            None => {
                // No completion will ever arrive (dead device): the ring
                // is gone with it, so the headers can be released safely.
                self.return_slot(req_buf, resp_buf, pooled);
                Err(ScifError::Canceled)
            }
        };
        if canceled {
            // Drained on the caller's behalf, not run for it.
            result = Err(ScifError::Canceled);
        }
        match (inbound, &result) {
            (Some(len), Ok((got, _))) => {
                let take = (*got).min(len) as usize;
                let mut buf = vec![0u8; take];
                match self.unstage(staging, &mut buf, ctx.tl) {
                    Ok(()) => data = Some(buf),
                    Err(e) => result = Err(e),
                }
            }
            _ => self.free_staging(staging),
        }
        {
            let mut stats = self.stats.lock();
            if let Some(slept) = slept {
                stats.count_wait(slept);
            }
            stats.tokens_reaped += 1;
            if result == Err(ScifError::Canceled) {
                stats.tokens_canceled += 1;
            }
        }
        ReapedOp { token, result, data }
    }

    /// Mark every unreaped token of `epd` canceled: its reap still drains
    /// the backend completion (zero leaks) but reports `ECANCELED`.
    /// Returns how many tokens were marked.
    pub fn cancel_epd(&self, epd: GuestEpd) -> usize {
        let mut n = 0;
        for p in self.pending.lock().values_mut() {
            if p.epd == Some(epd) && !p.canceled {
                p.canceled = true;
                n += 1;
            }
        }
        n
    }

    /// Tokens submitted and not yet reaped (leak detector).
    pub fn pending_tokens(&self) -> usize {
        self.pending.lock().len()
    }

    /// Stage `data` into kmalloc chunks (≤ `KMALLOC_MAX_SIZE` each),
    /// returning the buffers and their descriptors.  Charges the
    /// user→kernel copy.
    pub fn stage_out(
        &self,
        data: &[u8],
        tl: &mut Timeline,
    ) -> ScifResult<(Vec<KmallocBuf>, Vec<Descriptor>)> {
        let mut bufs = Vec::new();
        let mut descs = Vec::new();
        for chunk in data.chunks(self.chunk_size as usize) {
            let buf = self.kernel.kmalloc(chunk.len() as u64, tl).map_err(|_| ScifError::NoMem)?;
            self.kernel.copy_from_user(buf, chunk, tl).map_err(|_| ScifError::Inval)?;
            descs.push(Descriptor::readable(buf.gpa.0, chunk.len() as u32));
            bufs.push(buf);
        }
        self.stats.lock().chunks_sent += bufs.len() as u64;
        Ok((bufs, descs))
    }

    /// Allocate writable staging for an inbound transfer of `len` bytes.
    pub fn stage_in(
        &self,
        len: u64,
        tl: &mut Timeline,
    ) -> ScifResult<(Vec<KmallocBuf>, Vec<Descriptor>)> {
        let mut bufs = Vec::new();
        let mut descs = Vec::new();
        let mut remaining = len;
        while remaining > 0 {
            let take = remaining.min(self.chunk_size);
            let buf = self.kernel.kmalloc(take, tl).map_err(|_| ScifError::NoMem)?;
            descs.push(Descriptor::writable(buf.gpa.0, take as u32));
            bufs.push(buf);
            remaining -= take;
        }
        Ok((bufs, descs))
    }

    /// Copy staged inbound data back to the user buffer and free staging.
    pub fn unstage(
        &self,
        bufs: Vec<KmallocBuf>,
        out: &mut [u8],
        tl: &mut Timeline,
    ) -> ScifResult<()> {
        let mut at = 0usize;
        for buf in &bufs {
            let take = (buf.len as usize).min(out.len() - at);
            if take > 0 {
                self.kernel
                    .copy_to_user(&mut out[at..at + take], *buf, tl)
                    .map_err(|_| ScifError::Inval)?;
                at += take;
            }
        }
        for buf in bufs {
            let _ = self.kernel.kfree(buf);
        }
        Ok(())
    }

    /// Free outbound staging after the backend consumed it.
    pub fn free_staging(&self, bufs: Vec<KmallocBuf>) {
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

/// Re-exported for the guest API: a user-visible guest epd.
pub type FrontendEpd = GuestEpd;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vphi_sim_core::units::MIB;
    use vphi_sim_core::CostModel;
    use vphi_vmm::GuestMemory;

    fn driver(scheme: WaitScheme) -> Arc<FrontendDriver> {
        let mem = Arc::new(GuestMemory::new(64 * MIB));
        let kernel = Arc::new(GuestKernel::new(mem, Arc::new(CostModel::paper_calibrated())));
        let channel = VphiChannel::new(64);
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
        std::thread::spawn(move || {
            let queue = Arc::clone(channel.lane_queue(q));
            let notifier = crate::backend::LaneNotifier::new(
                VPHI_IRQ_VECTOR + q as u32,
                Arc::clone(kernel.irq()),
                Arc::clone(&queue),
            );
            while queue.wait_kick() {
                while let Ok(Some(chain)) = queue.pop_avail() {
                    let (token, mut tl, _trace, hint) = channel.claim(q, chain.head);
                    let head_desc = chain.descriptors[0];
                    let mut hdr = [0u8; REQ_SIZE];
                    kernel.mem().read(vphi_vmm::Gpa(head_desc.addr), &mut hdr).unwrap();
                    if let Some(VphiRequest::Send { len, .. } | VphiRequest::Recv { len, .. }) =
                        VphiRequest::decode(&hdr)
                    {
                        let svc = vphi_sim_core::SimDuration::from_nanos(len as u64);
                        tl.charge(SpanLabel::DeviceDeliver, svc);
                    }
                    let resp_desc = *chain.descriptors.last().unwrap();
                    kernel
                        .mem()
                        .write(vphi_vmm::Gpa(resp_desc.addr), &VphiResponse::ok(7, 8).encode())
                        .unwrap();
                    let new_seq = queue.push_used(
                        vphi_virtio::UsedElem { id: chain.head, len: RESP_SIZE as u32 },
                        kernel.cost().used_push,
                        &mut tl,
                    );
                    let svc_ns = tl.total().as_nanos();
                    let slept = hint.sleeping_after(svc_ns);
                    if notifier.would_inject(new_seq, hint, svc_ns) {
                        notifier.deliver_irq(&mut tl);
                    } else {
                        notifier.note_suppressed(slept);
                    }
                    channel.complete(token, Completion { tl, slept, svc_ns });
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
        d.channel().queue.shutdown();
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
        d.channel().queue.shutdown();
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
        d.channel().queue.shutdown();
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
        let backend = fake_backend(Arc::clone(d.channel()), Arc::clone(d.kernel()));
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
        d.channel().queue.shutdown();
        backend.join().unwrap();
        let s = d.stats();
        assert_eq!(s.polling_waits, 3);
        assert_eq!(s.interrupt_waits, 2);
        // Burn accounting: spinners burn exactly the service time, a
        // sleeper at most its budget — never more than true service.
        let profile = d.wait_profile();
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
    fn busy_poll_override_pins_an_endpoint_to_spinning() {
        let d = driver(WaitScheme::Interrupt);
        let backend = fake_backend(Arc::clone(d.channel()), Arc::clone(d.kernel()));
        d.set_busy_poll(1, true);
        let mut tl = Timeline::new();
        d.transact(&VphiRequest::Send { epd: 1, len: 8 }, &[], 8, &mut tl).unwrap();
        // Despite the interrupt scheme, the pinned endpoint spun: no
        // wake-up, no injected MSI.
        assert_eq!(tl.total_for(SpanLabel::GuestWakeup), vphi_sim_core::SimDuration::ZERO);
        assert_eq!(tl.total_for(SpanLabel::IrqInject), vphi_sim_core::SimDuration::ZERO);
        assert!(tl.total_for(SpanLabel::PollWait) > vphi_sim_core::SimDuration::ZERO);
        d.set_busy_poll(1, false);
        let mut tl2 = Timeline::new();
        d.transact(&VphiRequest::Send { epd: 1, len: 8 }, &[], 8, &mut tl2).unwrap();
        assert!(tl2.total_for(SpanLabel::GuestWakeup) > vphi_sim_core::SimDuration::ZERO);
        d.channel().queue.shutdown();
        backend.join().unwrap();
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
        d.channel().queue.shutdown();
        backend.join().unwrap();
        assert_eq!(d.stats().requests, 8);
        assert_eq!(d.channel().inflight_count(), 0);
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
            d.channel().lane_queue(q).shutdown();
        }
        for b in backends {
            b.join().unwrap();
        }
        assert_eq!(d.channel().inflight_count(), 0);
    }
}
