//! The per-lane **request-slot table** (DESIGN.md #23).
//!
//! A request in flight *is* a slot: one array element per lane holds its
//! header buffers, the timeline the backend charges (recycled, never
//! reallocated), the trace fork, the notify hint, a batch entry's
//! bookkeeping and the completion cell.  The token a requester waits on
//! packs (lane, slot, generation), so finding a request's state is an
//! index and a generation check, and a completion addressed to an earlier
//! owner of a slot — or of a virtqueue head — cannot reach the present one.
//!
//! Two parties hold a slot between publish and completion: the requester
//! and the backend.  The backend lets go first — by completing the request
//! or, on a dead device, by retiring it — and the requester, which waits
//! for exactly that, then takes what it left and frees the slot.  Nobody
//! but the backend ends a published request, so nothing it can still write
//! into is ever handed to anyone else.
//!
//! A requester that has to sleep parks on its own slot, marked as parked
//! under the slot's lock, and the backend, which finishes the request
//! under that lock, signals it only if the mark is set (DESIGN.md #22).
//!
//! ```text
//!            reserve        register        claim          complete
//!   Free ──────────▶ Prepared ─────▶ Published ────▶ Claimed ──────▶ Completed
//!    ▲                                 │ retire         │ retire         │ take
//!    │                                 └──▶ Retired ◀───┘                │ + release
//!    │                                         │ take                    │
//!    └─────────────────────────────────────────┴─────────────────────────┘
//! ```

use std::sync::OnceLock;

use vphi_sim_core::Timeline;
use vphi_sync::{LockClass, Published, TrackedCondvar, TrackedMutex, TrackedMutexGuard};
use vphi_trace::TraceCtx;
use vphi_vmm::kernel::KmallocBuf;

use super::{Completion, NotifyHint};
use crate::protocol::GuestEpd;

/// A unique per-request completion token: `lane << 48 | slot << 32 |
/// generation`.
///
/// Virtqueue head ids are *recycled* as soon as any thread drains the used
/// ring, and a slot is recycled as soon as both of its holders let go, so
/// neither identifies a request on its own.  The generation — bumped every
/// time a slot is reserved, never 0 — does: a token whose generation is not
/// the slot's current one names a request that is over.  `0` is never
/// issued.
pub type ReqToken = u64;

fn token_of(lane: usize, slot: usize, generation: u32) -> ReqToken {
    (lane as u64) << 48 | (slot as u64) << 32 | u64::from(generation)
}

/// The lane a token was issued on.
pub(super) fn token_lane(token: ReqToken) -> usize {
    (token >> 48) as usize
}

fn token_slot(token: ReqToken) -> usize {
    (token >> 32) as usize & 0xFFFF
}

fn token_generation(token: ReqToken) -> u32 {
    token as u32
}

/// Where a slot is in its request's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(super) enum SlotState {
    /// Not carrying a request.  (Reserved-but-idle when its live bit is
    /// set: the requester holds it before `prepare` and between taking the
    /// completion and `release`.)
    Free = 0,
    /// Body filled in by the requester; no head yet.
    Prepared = 1,
    /// Bound to a virtqueue head, visible to the device (or about to be).
    Published = 2,
    /// The backend took the request's timeline and is running it.
    Claimed = 3,
    /// The backend delivered a completion; the requester has yet to take it.
    Completed = 4,
    /// The backend let go without a completion (dead device); the
    /// requester has yet to notice.
    Retired = 5,
}

impl SlotState {
    /// Whether the backend has let go: the requester has something to take.
    fn let_go(self) -> bool {
        matches!(self, SlotState::Completed | SlotState::Retired)
    }

    fn from_bits(bits: u64) -> SlotState {
        match bits & 0xFF {
            1 => SlotState::Prepared,
            2 => SlotState::Published,
            3 => SlotState::Claimed,
            4 => SlotState::Completed,
            5 => SlotState::Retired,
            _ => SlotState::Free,
        }
    }
}

/// Word bit: the body carries a trace fork the backend takes at claim.
const TRACED: u64 = 1 << 24;

/// A slot's lock-free summary: `generation << 32 | flags | head << 8 |
/// state`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Word {
    generation: u32,
    head: u16,
    state: SlotState,
    /// [`TRACED`]: whether claim must take the body lock.
    flags: u64,
}

impl Word {
    fn unpack(bits: u64) -> Word {
        Word {
            generation: (bits >> 32) as u32,
            head: (bits >> 8) as u16,
            state: SlotState::from_bits(bits),
            flags: bits & TRACED,
        }
    }

    fn pack(self) -> u64 {
        u64::from(self.generation) << 32
            | self.flags
            | u64::from(self.head) << 8
            | self.state as u64
    }

    fn with(self, state: SlotState) -> Word {
        Word { state, ..self }
    }
}

/// What a batch entry keeps between submit and reap — everything the
/// blocking path has on its stack instead.
pub(super) struct BatchOp {
    pub op: u8,
    pub payload_bytes: u64,
    pub staging: Vec<KmallocBuf>,
    pub inbound: Option<u64>,
    pub epd: Option<GuestEpd>,
    /// Set by `cancel_epd`: the reap drains the backend completion
    /// (nothing leaks) but reports `ECANCELED`.
    pub canceled: bool,
}

/// How the requesters of some slots waited, summed over their requests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SlotWaits {
    /// Completions taken by a requester the backend's notifier judged
    /// asleep when the reply landed (the model's verdict, not the host's).
    pub slept: u64,
    /// Completions taken by a requester it judged still spinning.
    pub spun: u64,
    /// Times a requester parked on its slot: the host's real sleeps.
    pub parks: u64,
    /// Parks the backend's signal ended.
    pub woken: u64,
    /// Parks that ended with no signal (the host's spurious wake-ups):
    /// the requester parks again.
    pub spurious: u64,
}

impl std::iter::Sum for SlotWaits {
    fn sum<I: Iterator<Item = SlotWaits>>(iter: I) -> SlotWaits {
        iter.fold(SlotWaits::default(), |a, b| SlotWaits {
            slept: a.slept + b.slept,
            spun: a.spun + b.spun,
            parks: a.parks + b.parks,
            woken: a.woken + b.woken,
            spurious: a.spurious + b.spurious,
        })
    }
}

/// The lock-protected part of a slot.  Who writes what, by state:
/// the requester fills `trace` and `batch` in `Prepared`; the backend
/// takes `trace` at `Claimed` and writes its timeline `tl`, with `slept`
/// and `svc_ns`, at `Completed`; the requester reads those three and takes
/// `batch` when it takes the completion.  `waits` outlives the slot's
/// requests: how every one of them was waited for.
pub(super) struct SlotBody {
    /// The backend's service timeline, valid at `Completed`.
    pub tl: Timeline,
    pub trace: TraceCtx,
    pub slept: bool,
    pub svc_ns: u64,
    /// A batch entry's bookkeeping.
    pub batch: Option<BatchOp>,
    /// Set by a requester as it parks on the slot's condvar, cleared by
    /// the backend's signal or by the requester as it wakes.
    parked: bool,
    /// Counted by the requester's wait under the lock it holds anyway.
    waits: SlotWaits,
}

/// One request slot.
pub(super) struct RequestSlot {
    word: Published,
    /// The notify hint, written by the requester before the word moves to
    /// `Prepared` and read by the backend after it saw `Published`: its
    /// spin budget and payload bucket.
    budget_ns: Published,
    bucket: Published,
    /// The slot's header buffer — the request header with the response
    /// header behind it — allocated the first time the slot is used and
    /// kept.
    pub headers: OnceLock<KmallocBuf>,
    body: TrackedMutex<SlotBody>,
    /// Where a requester sleeps, paired with `body`.
    wake: TrackedCondvar,
}

impl RequestSlot {
    fn new() -> Self {
        RequestSlot {
            word: Published::new(0),
            budget_ns: Published::new(0),
            bucket: Published::new(0),
            headers: OnceLock::new(),
            body: TrackedMutex::new(
                LockClass::RequestSlot,
                SlotBody {
                    tl: Timeline::new(),
                    trace: TraceCtx::default(),
                    slept: false,
                    svc_ns: 0,
                    batch: None,
                    parked: false,
                    waits: SlotWaits::default(),
                },
            ),
            wake: TrackedCondvar::new(),
        }
    }

    fn word(&self) -> Word {
        Word::unpack(self.word.load())
    }

    /// Every transition but an untraced claim is made under the body
    /// lock.  The one that is not — `Published` → `Claimed`, by
    /// compare-and-swap — is the backend's, and only the backend's own
    /// `retire` moves a slot out of `Published` besides.
    fn set(&self, word: Word) {
        self.word.store(word.pack());
    }

    fn hint(&self) -> NotifyHint {
        NotifyHint { budget_ns: self.budget_ns.load(), bucket: self.bucket.load() as u8 }
    }
}

/// Slots per lazily allocated block.
const BLOCK: usize = 16;

/// One lane's slots, its free set and its head → slot routing.
pub(super) struct SlotTable {
    lane: usize,
    /// Blocks of [`BLOCK`] slots, allocated on first use and kept: a lane
    /// that never has more than a few requests in flight never pays for
    /// `queue_size` of them.
    blocks: Box<[OnceLock<Box<[RequestSlot; BLOCK]>>]>,
    /// Bit set ⇔ the slot is held by a requester or by the backend.
    live: Box<[Published]>,
    /// Virtqueue head → the slot registered for it.  Written before the
    /// head is visible on the avail ring, read after it is popped.
    head_slot: Box<[Published]>,
}

impl SlotTable {
    /// A table for a lane of `queue_size` descriptors: a chain takes at
    /// least one, so no more requests than that are ever in flight.
    pub fn new(lane: usize, queue_size: u16) -> Self {
        let slots = queue_size as usize;
        SlotTable {
            lane,
            blocks: (0..slots.div_ceil(BLOCK)).map(|_| OnceLock::new()).collect(),
            live: (0..slots.div_ceil(64)).map(|_| Published::new(0)).collect(),
            head_slot: (0..slots).map(|_| Published::new(0)).collect(),
        }
    }

    fn capacity(&self) -> usize {
        self.head_slot.len()
    }

    /// Whether `head` — guest-written ring memory — is a head of this lane.
    fn routes(&self, head: u16) -> bool {
        (head as usize) < self.head_slot.len()
    }

    /// Slot `i`, if its block exists.
    fn get(&self, i: usize) -> Option<&RequestSlot> {
        self.blocks.get(i / BLOCK)?.get().map(|block| &block[i % BLOCK])
    }

    /// The slot `token` names, if the token is this lane's and current.
    fn current(&self, token: ReqToken) -> Option<(&RequestSlot, Word)> {
        let slot = self.get(token_slot(token))?;
        let word = slot.word();
        (word.generation == token_generation(token)).then_some((slot, word))
    }

    /// `token`'s slot with its body locked.  The word is read under the
    /// lock: every transition another party could make takes it, so the
    /// state cannot move while the guard lives.
    fn lock(
        &self,
        token: ReqToken,
    ) -> Option<(&RequestSlot, TrackedMutexGuard<'_, SlotBody>, Word)> {
        let (slot, _) = self.current(token)?;
        let body = slot.body.lock();
        let word = slot.word();
        (word.generation == token_generation(token)).then_some((slot, body, word))
    }

    /// The header buffer of `token`'s slot.
    pub fn headers(&self, token: ReqToken) -> Option<KmallocBuf> {
        self.current(token)?.0.headers.get().copied()
    }

    fn release_bit(&self, i: usize) {
        self.live[i / 64].fetch_and(!(1 << (i % 64)));
    }

    fn live_bits(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.live.len()).flat_map(|w| {
            let mut bits = self.live[w].load();
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + bit
                })
            })
        })
    }

    /// Slots held by anybody.
    pub fn live_count(&self) -> usize {
        self.live_bits().count()
    }

    /// Live slots in `state`.
    pub fn count_in(&self, state: SlotState) -> usize {
        self.live_bits().filter(|&i| self.get(i).is_some_and(|s| s.word().state == state)).count()
    }

    /// Requester: take the lowest free slot (so a quiet lane keeps reusing
    /// the same warm few) and start a new generation on it.  `None` when
    /// every slot is held.
    pub fn reserve(&self) -> Option<(ReqToken, &RequestSlot)> {
        for w in 0..self.live.len() {
            let mut seen = self.live[w].load();
            loop {
                let bit = (!seen).trailing_zeros() as usize;
                let i = w * 64 + bit;
                if bit == 64 || i >= self.capacity() {
                    break;
                }
                let prev = self.live[w].fetch_or(1 << bit);
                if prev & (1 << bit) != 0 {
                    seen = prev;
                    continue;
                }
                let block = self.blocks[i / BLOCK]
                    .get_or_init(|| Box::new(std::array::from_fn(|_| RequestSlot::new())));
                let slot = &block[i % BLOCK];
                let word = slot.word();
                let generation = word.generation.wrapping_add(1).max(1);
                slot.set(Word { generation, head: 0, state: SlotState::Free, flags: 0 });
                return Some((token_of(self.lane, i, generation), slot));
            }
        }
        None
    }

    /// Requester: fill in the reserved slot.  The hint needs no lock; the
    /// body is locked only if there is something to put in it — a trace
    /// fork, a batch entry's bookkeeping.
    pub fn prepare(
        &self,
        token: ReqToken,
        hint: NotifyHint,
        trace: TraceCtx,
        batch: Option<BatchOp>,
    ) {
        let Some((slot, word)) = self.current(token) else { return };
        slot.budget_ns.store(hint.budget_ns);
        slot.bucket.store(u64::from(hint.bucket));
        let traced = trace.is_armed();
        if !traced && batch.is_none() {
            slot.set(Word { state: SlotState::Prepared, ..word });
            return;
        }
        let Some((slot, mut body, word)) = self.lock(token) else { return };
        body.trace = trace;
        body.batch = batch;
        let flags = if traced { TRACED } else { 0 };
        slot.set(Word { state: SlotState::Prepared, flags, ..word });
    }

    /// Requester: bind the prepared slot to virtqueue `head`.  Runs before
    /// the head is visible on the avail ring.
    pub fn register(&self, token: ReqToken, head: u16) {
        if let Some((slot, word)) = self.current(token).filter(|_| self.routes(head)) {
            self.head_slot[head as usize].store(token_slot(token) as u64);
            slot.set(Word { head, state: SlotState::Published, ..word });
        }
    }

    /// Requester: give a reserved slot back.  Only its holder calls this,
    /// and only with the slot idle: before its chain was published, or
    /// after `take`.
    pub fn release(&self, token: ReqToken) {
        if let Some((slot, word)) = self.current(token) {
            slot.set(word.with(SlotState::Free));
            self.release_bit(token_slot(token));
        }
    }

    /// Backend: take the request registered for `head` — its token, trace
    /// fork and notify hint.  `None` for a head nobody registered (a chain
    /// published around the frontend).  Only a traced request's claim
    /// locks the body, to take the fork out of it.
    pub fn claim(&self, head: u16) -> Option<(ReqToken, TraceCtx, NotifyHint)> {
        if !self.routes(head) {
            return None;
        }
        let i = self.head_slot[head as usize].load() as usize;
        let slot = self.get(i)?;
        loop {
            let traced = slot.word().flags & TRACED != 0;
            let body = traced.then(|| slot.body.lock());
            let word = slot.word();
            if word.head != head {
                return None;
            }
            match word.state {
                SlotState::Published if traced => slot.set(word.with(SlotState::Claimed)),
                SlotState::Published => {
                    let claimed = word.with(SlotState::Claimed).pack();
                    if slot.word.compare_exchange_weak(word.pack(), claimed).is_err() {
                        continue;
                    }
                }
                _ => return None,
            }
            let trace = body.map(|mut body| std::mem::take(&mut body.trace)).unwrap_or_default();
            return Some((token_of(self.lane, i, word.generation), trace, slot.hint()));
        }
    }

    /// Backend: let go of `token`'s slot, with a completion or (dead
    /// device) without one, and signal its requester if it is parked.  The
    /// signal is sent under the lock the state moved under, so it reaches
    /// this request's requester and no later one.
    pub fn finish(&self, token: ReqToken, completion: Option<&Completion>) {
        let Some((slot, mut body, word)) = self.lock(token) else { return };
        match (word.state, completion) {
            (SlotState::Claimed, Some(done)) => {
                body.tl.clone_from(&done.tl);
                body.slept = done.slept;
                body.svc_ns = done.svc_ns;
                slot.set(word.with(SlotState::Completed));
            }
            (SlotState::Claimed | SlotState::Published, None) => {
                slot.set(word.with(SlotState::Retired));
            }
            // Not the backend's to finish: never claimed, or finished
            // already.
            _ => return,
        }
        if std::mem::take(&mut body.parked) {
            slot.wake.notify_one();
        }
    }

    /// Requester: take what the backend left in `token`'s slot, once it
    /// let go — parking on the slot until it does if `park`, else `None`
    /// at once.  A completion: `f` runs under the slot lock over the
    /// completed body (absorb the timeline, take the batch bookkeeping)
    /// and its result comes back; the slot is then idle, still held — its
    /// response header has yet to be read — until
    /// [`release`](SlotTable::release).  A retirement: the slot is free
    /// again, and a batch entry's bookkeeping comes back for its staging to
    /// be freed.  A token takes at most once.
    pub fn take<R>(
        &self,
        token: ReqToken,
        park: bool,
        f: impl FnOnce(&mut SlotBody) -> R,
    ) -> Option<Result<R, Option<BatchOp>>> {
        let (slot, word) = self.current(token)?;
        // The usual answer to a look — not yet — costs no lock.
        if !park && !word.state.let_go() {
            return None;
        }
        let mut body = slot.body.lock();
        let word = loop {
            let word = slot.word();
            if word.generation != token_generation(token) {
                return None;
            }
            if word.state.let_go() {
                break word;
            }
            body.parked = true;
            body.waits.parks += 1;
            slot.wake.wait(&mut body);
            if std::mem::take(&mut body.parked) {
                body.waits.spurious += 1;
            } else {
                body.waits.woken += 1;
            }
        };
        slot.set(word.with(SlotState::Free));
        if word.state == SlotState::Retired {
            let batch = body.batch.take();
            drop(body);
            self.release_bit(token_slot(token));
            return Some(Err(batch));
        }
        let r = f(&mut body);
        if body.slept {
            body.waits.slept += 1;
        } else {
            body.waits.spun += 1;
        }
        Some(Ok(r))
    }

    /// How this lane's requesters have waited so far.
    pub fn waits(&self) -> SlotWaits {
        let slots = self.blocks.iter().filter_map(OnceLock::get).flat_map(|block| block.iter());
        slots.map(|slot| slot.body.lock().waits).sum()
    }

    /// Whether `token` names a request submitted and not yet taken.
    pub fn is_pending(&self, token: ReqToken) -> bool {
        self.current(token).is_some_and(|(_, word)| is_pending(word.state))
    }

    /// Run `f` over every batch entry a submitter is still waiting on.
    pub fn for_each_pending_batch(&self, mut f: impl FnMut(&mut BatchOp)) {
        for i in self.live_bits() {
            let Some(slot) = self.get(i) else { continue };
            let mut body = slot.body.lock();
            if is_pending(slot.word().state) {
                if let Some(batch) = body.batch.as_mut() {
                    f(batch);
                }
            }
        }
    }
}

fn is_pending(state: SlotState) -> bool {
    matches!(
        state,
        SlotState::Published | SlotState::Claimed | SlotState::Completed | SlotState::Retired
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use vphi_sync::audit::thread_signals;

    /// Longer than any of these tests should take: a wait that runs this
    /// long was woken by nothing.
    const LONG: Duration = Duration::from_secs(10);

    /// Publish `n` requests on `table` and claim each as the backend.
    fn claimed(table: &SlotTable, n: u16) -> Vec<ReqToken> {
        (0..n)
            .map(|head| {
                let (token, _) = table.reserve().unwrap();
                table.prepare(token, NotifyHint::SLEEP, TraceCtx::default(), None);
                table.register(token, head);
                assert_eq!(table.claim(head).map(|(t, ..)| t), Some(token));
                token
            })
            .collect()
    }

    fn done() -> Completion {
        Completion { tl: Timeline::new(), slept: true, svc_ns: 1 }
    }

    /// `token`'s requester: park until the backend lets go, and say
    /// whether a completion came back.
    fn requester(table: &Arc<SlotTable>, token: ReqToken) -> std::thread::JoinHandle<bool> {
        let table = Arc::clone(table);
        std::thread::spawn(move || matches!(table.take(token, true, |_| ()), Some(Ok(()))))
    }

    fn until(what: &str, cond: impl Fn() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < LONG, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_completion_wakes_only_its_own_slots_requester() {
        let table = Arc::new(SlotTable::new(0, 16));
        let tokens = claimed(&table, 3);
        let mut waiting: Vec<_> = tokens.iter().map(|&t| Some(requester(&table, t))).collect();
        until("all three park", || table.waits().parks == 3);

        let signals = thread_signals();
        table.finish(tokens[1], Some(&done()));
        if vphi_sync::audit::ENABLED {
            assert_eq!(thread_signals() - signals, 1, "one completion, one signal");
        }
        assert!(waiting[1].take().unwrap().join().unwrap());
        std::thread::sleep(Duration::from_millis(20));
        assert!(waiting.iter().flatten().all(|t| !t.is_finished()), "a neighbour woke");

        for i in [0, 2] {
            table.finish(tokens[i], Some(&done()));
            assert!(waiting[i].take().unwrap().join().unwrap());
        }
        let waits = table.waits();
        assert_eq!((waits.slept, waits.woken, waits.spurious), (3, 3, 0));
    }

    /// The backend finishes as the requester goes to park: on some rounds
    /// before its look, on others between the look and the park, on
    /// others after.  A signal lost on the way leaves its requester parked
    /// for good, which the round reads as a timeout.
    #[test]
    fn a_completion_racing_the_park_is_never_lost() {
        let table = Arc::new(SlotTable::new(0, 16));
        for _ in 0..1_000 {
            let token = claimed(&table, 1)[0];
            let backend = Arc::clone(&table);
            let finisher = std::thread::spawn(move || backend.finish(token, Some(&done())));
            let requester = Arc::clone(&table);
            let requester = std::thread::spawn(move || {
                matches!(requester.take(token, true, |body| body.svc_ns), Some(Ok(1)))
            });
            until("the completion's signal reaches its requester", || requester.is_finished());
            assert!(requester.join().unwrap());
            finisher.join().unwrap();
            table.release(token);
        }
        assert_eq!(table.waits().spurious, 0);
        assert_eq!(table.live_count(), 0);
    }

    #[test]
    fn a_completion_with_nobody_parked_signals_nobody() {
        let table = SlotTable::new(0, 16);
        let before = thread_signals();
        for _ in 0..100 {
            let token = claimed(&table, 1)[0];
            table.finish(token, Some(&done()));
            assert!(matches!(table.take(token, false, |_| ()), Some(Ok(()))));
            table.release(token);
        }
        assert_eq!(thread_signals() - before, 0);
        assert_eq!(table.waits().parks, 0);
    }
}
