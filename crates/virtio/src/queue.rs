//! The split virtqueue.
//!
//! One lock protects the descriptor table, avail ring, used ring, the
//! free-descriptor list and the EVENT_IDX pair.  Guest-side and
//! device-side APIs are both on [`VirtQueue`]; in the vPHI stack the
//! frontend driver holds the guest side and the QEMU backend the device
//! side of the *same* queue — a shared-memory structure, exactly as in
//! Fig. 2 of the paper.

use std::collections::VecDeque;
use std::sync::Arc;

use vphi_faults::{FaultHook, FaultSite};
use vphi_sim_core::cost::GUEST_WATCHDOG;
use vphi_sim_core::{SpanLabel, Timeline};
use vphi_sync::{Counter, LockClass, Published, TrackedCondvar, TrackedMutex, TrackedRole};

use crate::ring::{DescChain, Descriptor, UsedElem};

/// Errors from queue operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueError {
    /// Not enough free descriptors for the chain.
    NoSpace,
    /// An empty chain was submitted.
    EmptyChain,
    /// A descriptor index was out of range or the chain was corrupt.
    Corrupt,
    /// The device is gone: the ring takes no more chains.
    Closed,
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::NoSpace => write!(f, "virtqueue descriptor table full"),
            QueueError::EmptyChain => write!(f, "empty descriptor chain"),
            QueueError::Corrupt => write!(f, "corrupt descriptor chain"),
            QueueError::Closed => write!(f, "virtqueue closed"),
        }
    }
}

impl std::error::Error for QueueError {}

#[derive(Debug)]
struct QueueState {
    table: Vec<Option<Descriptor>>,
    free: Vec<u16>,
    avail: VecDeque<u16>,
    /// Chains ever popped off the avail ring (the device's
    /// `last_avail_idx`).  The ring holds, front to back, the chains at
    /// avail indices `last_avail_idx + 1 ..= last_avail_idx + avail.len()`
    /// — the latter being the driver's `avail->idx`, the count ever
    /// published.
    last_avail_idx: u64,
    used: VecDeque<UsedElem>,
    /// Completions ever pushed onto the used ring (the EVENT_IDX "new"
    /// index).
    used_seq: u64,
    /// The guest's interrupt threshold (`VIRTIO_F_EVENT_IDX` `used_event`):
    /// the device need only interrupt when `used_seq` crosses it.  Armed
    /// and compared under the ring lock, so a push either sees a waiter's
    /// threshold or was made before the waiter's chain was published — the
    /// "suppressed but sleeping" race cannot happen (DESIGN.md #16).
    used_event: u64,
    /// Set when the device dies: no chain is published after it, so the
    /// device's last pass over the ring sees every chain it will ever get.
    /// The one "device gone" state: it also ends the device's wait.
    closed: bool,
    /// A kick reached the device since it last looked.  A flag, not a
    /// count: the device drains the whole ring each time it wakes, so a
    /// second kick before it looks asks for nothing more.
    kicked: bool,
    /// The lane's device thread is parked in
    /// [`wait_kick`](VirtQueue::wait_kick).  Read and written only under
    /// the ring lock, so a kick either finds it parked (and signals it) or
    /// lands before it parks (and is found): no wake-up is lost, and a
    /// kick with nobody parked signals nobody.
    device_parked: bool,
}

impl QueueState {
    /// Write `descriptors` into free table entries, linked in order, and
    /// return the head index, arming the interrupt threshold at the
    /// present used index if `arm`.  The descriptors of every completion
    /// on the used ring are recycled first, so a driver that needs nothing
    /// from its completions never drains the ring itself.  Entries come
    /// off the free stack in pop order; nothing is allocated.
    fn write_chain(&mut self, descriptors: &[Descriptor], arm: bool) -> Result<u16, QueueError> {
        let n = descriptors.len();
        if n == 0 {
            return Err(QueueError::EmptyChain);
        }
        self.reclaim(|_| ())?;
        if self.free.len() < n {
            return Err(QueueError::NoSpace);
        }
        let top = self.free.len() - 1;
        for (i, desc) in descriptors.iter().enumerate() {
            let mut d = *desc;
            d.flags.next = i + 1 < n;
            if d.flags.next {
                d.next = self.free[top - i - 1];
            }
            let idx = self.free[top - i];
            self.table[idx as usize] = Some(d);
        }
        let head = self.free[top];
        self.free.truncate(top + 1 - n);
        if arm {
            self.used_event = self.used_seq;
        }
        Ok(head)
    }

    /// Drain completed chains from the used ring in order, releasing their
    /// descriptors and showing each element to `each`.  An out-of-range
    /// `id` or `next` link is guest-visible ring corruption and ends the
    /// drain; a missing (already freed) entry just stops that chain's walk.
    fn reclaim(&mut self, mut each: impl FnMut(UsedElem)) -> Result<(), QueueError> {
        while let Some(u) = self.used.pop_front() {
            let mut i = self.idx(u.id)?;
            while let Some(d) = self.table[i].take() {
                self.free.push(i as u16);
                if d.flags.next {
                    i = self.idx(d.next)?;
                } else {
                    break;
                }
            }
            each(u);
        }
        Ok(())
    }

    /// Bounds-check a guest-controlled descriptor index (`avail` head,
    /// `next` link, used-elem `id`) before it addresses the table.  Ring
    /// memory is guest-writable, so every index read from it goes through
    /// here.
    fn idx(&self, i: u16) -> Result<usize, QueueError> {
        let i = i as usize;
        if i < self.table.len() {
            Ok(i)
        } else {
            Err(QueueError::Corrupt)
        }
    }

    /// The descriptor at guest-controlled index `i`: `Corrupt` for an
    /// index past the table or an empty slot.
    fn entry(&self, i: u16) -> Result<Descriptor, QueueError> {
        self.table[self.idx(i)?].ok_or(QueueError::Corrupt)
    }
}

/// Monotonic per-queue counters (multi-queue debugfs rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Kicks issued: one vm-exit each.
    pub kicks: u64,
    /// Chains popped off the avail ring by the device side.
    pub chains_popped: u64,
}

/// A popped chain and what the pop left on the avail ring, read under the
/// same lock acquisition — so a drain pass knows whether to pop again, and
/// a kicker whether to ring the service thread, without asking the ring a
/// second time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Popped {
    pub chain: DescChain,
    /// Another chain sits on the ring at or before the pop's bound.
    pub more_in_bound: bool,
    /// Chains are still on the ring, bound or not.
    pub left_on_ring: bool,
}

/// A split virtqueue of `size` descriptors.
pub struct VirtQueue {
    size: u16,
    state: TrackedMutex<QueueState>,
    /// Where the lane's device thread sleeps, paired with `state`: a
    /// delivered kick or the ring's close wakes it.  Device → guest
    /// notification is not here by design: a used-buffer interrupt is
    /// decided by the backend's `LaneNotifier`, from whether a push
    /// crossed the EVENT_IDX threshold, so the suppression decision has
    /// one owner.
    device: TrackedCondvar,
    /// Who is draining the avail ring right now: the device's service
    /// thread for this queue, or a blocking kicker.  Held for a whole
    /// drain pass — pops and the request handlers — so chains are
    /// executed one at a time, in ring order, whoever pops them.
    pub executor: TrackedRole,
    faults: FaultHook,
    kicks: Counter,
    /// `used_seq` as of the last push, for readers that take no lock.
    completed: Published,
}

impl std::fmt::Debug for VirtQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtQueue").field("size", &self.size).finish()
    }
}

impl VirtQueue {
    pub fn new(size: u16) -> Arc<Self> {
        assert!(size > 0 && size.is_power_of_two(), "queue size must be a power of two");
        Arc::new(VirtQueue {
            size,
            state: TrackedMutex::new(
                LockClass::VirtQueueState,
                QueueState {
                    table: vec![None; size as usize],
                    free: (0..size).rev().collect(),
                    avail: VecDeque::new(),
                    last_avail_idx: 0,
                    used: VecDeque::new(),
                    used_seq: 0,
                    used_event: 0,
                    closed: false,
                    kicked: false,
                    device_parked: false,
                },
            ),
            device: TrackedCondvar::new(),
            executor: TrackedRole::new(LockClass::LaneExecutor),
            faults: FaultHook::new(),
            kicks: Counter::new(0),
            completed: Published::new(0),
        })
    }

    /// Snapshot of this queue's monotonic counters.  Chains popped is the
    /// ring's own `last_avail_idx`, read under the ring lock.
    pub fn counters(&self) -> QueueCounters {
        let chains_popped = self.state.lock().last_avail_idx;
        QueueCounters { kicks: self.kicks.get(), chains_popped }
    }

    pub fn size(&self) -> u16 {
        self.size
    }

    /// Fault-injection arming point (lost kicks, delayed used pushes).
    pub fn fault_hook(&self) -> &FaultHook {
        &self.faults
    }

    pub fn free_descriptors(&self) -> usize {
        self.state.lock().free.len()
    }

    // ---- guest (driver) side ----------------------------------------------

    /// Write a chain into the descriptor table *without* exposing it on
    /// the avail ring; returns the head index.  Real virtio drivers order
    /// their stores the same way — descriptor table first, avail-ring
    /// entry last — because the device may consume a published head
    /// instantly.  A driver that must register per-request bookkeeping
    /// keyed by the head (the vPHI channel's request slots) does so
    /// between this call and
    /// [`publish_avail_batch`](VirtQueue::publish_avail_batch);
    /// publishing first races a device woken by *another* thread's kick.
    /// A driver that will sleep on the chain's completion `arm`s the
    /// interrupt threshold here, before the chain can complete.
    pub fn prepare_chain(&self, descriptors: &[Descriptor], arm: bool) -> Result<u16, QueueError> {
        self.state.lock().write_chain(descriptors, arm)
    }

    /// [`prepare_chain`](VirtQueue::prepare_chain) and
    /// [`publish_avail_batch`](VirtQueue::publish_avail_batch) of one head
    /// as one critical section, for a driver that publishes one chain at a
    /// time.  The ordering rule is unchanged: `register` runs with the head
    /// known and the descriptors written (and the threshold armed, if
    /// `arm`) but *before* the head is visible on the avail ring, so
    /// head-keyed bookkeeping is in place when the device — possibly
    /// already running, woken by another thread's kick — pops the chain.
    /// It runs under the ring lock and must not block or touch the ring.
    /// Returns the chain's avail index; charges one `RingPush`.  A closed
    /// ring refuses the chain before anything is written.
    pub fn publish_chain(
        &self,
        descriptors: &[Descriptor],
        arm: bool,
        cost_ring_push: vphi_sim_core::SimDuration,
        tl: &mut Timeline,
        register: impl FnOnce(u16),
    ) -> Result<u64, QueueError> {
        let avail_idx = {
            let mut st = self.state.lock();
            if st.closed {
                return Err(QueueError::Closed);
            }
            let head = st.write_chain(descriptors, arm)?;
            register(head);
            st.avail.push_back(head);
            st.last_avail_idx + st.avail.len() as u64
        };
        tl.charge(SpanLabel::RingPush, cost_ring_push);
        Ok(avail_idx)
    }

    /// Expose a whole batch of prepared chains on the avail ring under one
    /// lock acquisition, in order.  Each entry is an avail-ring store and
    /// charges its own `RingPush`; what the batch amortizes is the
    /// *doorbell* — the caller follows up with a single
    /// [`kick`](VirtQueue::kick) for all of them, one vm-exit instead of
    /// N.  The device side may start popping published heads the moment
    /// the lock drops, so per-head bookkeeping must already be registered.
    /// Returns the avail index of the batch's last chain — its position in
    /// the ring's lifetime FIFO, which bounds a drain
    /// ([`pop_avail_bounded`](VirtQueue::pop_avail_bounded)).  A closed
    /// ring refuses the whole batch.
    pub fn publish_avail_batch(
        &self,
        heads: &[u16],
        cost_ring_push: vphi_sim_core::SimDuration,
        tl: &mut Timeline,
    ) -> Result<u64, QueueError> {
        let avail_idx = {
            let mut st = self.state.lock();
            if st.closed {
                return Err(QueueError::Closed);
            }
            st.avail.extend(heads);
            st.last_avail_idx + st.avail.len() as u64
        };
        for _ in heads {
            tl.charge(SpanLabel::RingPush, cost_ring_push);
        }
        Ok(avail_idx)
    }

    /// Notify the device: one vm-exit.  It pays the `VmExitKick` charge,
    /// counts the kick and crosses the one site where the notification
    /// can be lost.  Every kick pays it — the avail side has no
    /// notification suppression, so the charge is a function of the
    /// publish alone (DESIGN.md #16).  A lost kick (injected) is found by
    /// the guest's watchdog one [`GUEST_WATCHDOG`] later; the kicker pays
    /// that and the watchdog's second vm-exit under `VmExitKick`, and the
    /// second kick is delivered.  Returns whether the first was lost.
    ///
    /// A delivered kick is serviced the way a KVM exit is, on the thread
    /// that took it: `service` is the device's exit handler, and reports
    /// whether chains are left on the ring; only then is the kick handed
    /// to the service thread on the way out, signalling it if it is
    /// parked.  A caller that will do nothing but wait for the chain it
    /// published passes a handler that drains the ring in FIFO order up
    /// to and including that chain, so it never executes work that was
    /// not ahead of it.  A caller with something else to do passes
    /// `|| true`: the service thread drains it all.
    pub fn kick(
        &self,
        cost_vmexit: vphi_sim_core::SimDuration,
        tl: &mut Timeline,
        service: impl FnOnce() -> bool,
    ) -> bool {
        tl.charge(SpanLabel::VmExitKick, cost_vmexit);
        self.kicks.bump();
        let lost = self.faults.fire(FaultSite::VirtioKickLost).is_some();
        if lost {
            tl.charge(SpanLabel::VmExitKick, GUEST_WATCHDOG + cost_vmexit);
            self.kicks.bump();
        }
        if service() {
            let mut st = self.state.lock();
            st.kicked = true;
            if st.device_parked {
                self.device.notify_one();
            }
        }
        lost
    }

    /// Whether a delivered kick is waiting for the device to look.
    #[cfg(test)]
    fn kick_pending(&self) -> bool {
        self.state.lock().kicked
    }

    /// Drain completed chains from the used ring in order, releasing
    /// their descriptors and showing each element to `each`.  An
    /// out-of-range `id` or `next` link is guest-visible ring corruption
    /// and ends the drain; a missing (already freed) entry just stops that
    /// chain's walk.  (Writing a chain does the same first, so a driver
    /// that needs nothing from its completions never calls this.)
    pub fn take_used(&self, each: impl FnMut(UsedElem)) -> Result<(), QueueError> {
        self.state.lock().reclaim(each)
    }

    /// Whether completions are waiting.
    #[cfg(test)]
    fn used_pending(&self) -> bool {
        !self.state.lock().used.is_empty()
    }

    /// Monotonic count of completions pushed onto the used ring.
    pub fn used_seq(&self) -> u64 {
        self.completed.load()
    }

    // ---- device (backend) side ---------------------------------------------

    /// Pop the next available chain, resolving its descriptors — only a
    /// chain published at avail index `through` or earlier — and report
    /// what is left on the ring behind it.
    pub fn pop_avail_bounded(&self, through: u64) -> Result<Option<Popped>, QueueError> {
        let mut st = self.state.lock();
        if st.last_avail_idx >= through {
            return Ok(None);
        }
        let head = match st.avail.pop_front() {
            Some(h) => h,
            None => return Ok(None),
        };
        st.last_avail_idx += 1;
        let mut d = st.entry(head)?;
        let mut chain = DescChain::new(head, d);
        while d.flags.next {
            if chain.descriptors().len() == self.size as usize {
                return Err(QueueError::Corrupt); // cycle guard
            }
            d = st.entry(d.next)?;
            chain.push(d);
        }
        let left_on_ring = !st.avail.is_empty();
        let more_in_bound = left_on_ring && st.last_avail_idx < through;
        Ok(Some(Popped { chain, more_in_bound, left_on_ring }))
    }

    /// Whether undelivered chains sit on the avail ring.
    pub fn avail_pending(&self) -> bool {
        !self.state.lock().avail.is_empty()
    }

    /// The device thread's sleep: block (really) until a kick arrives,
    /// and take it.  `false` once the ring is [closed](VirtQueue::close):
    /// the device is gone, and every chain it will ever get is on the
    /// ring for its last pass.
    pub fn wait_kick(&self) -> bool {
        let mut st = self.state.lock();
        loop {
            if st.closed {
                return false;
            }
            if std::mem::take(&mut st.kicked) {
                return true;
            }
            st.device_parked = true;
            self.device.wait(&mut st);
            st.device_parked = false;
        }
    }

    /// Whether the lane's device thread is idle: parked in
    /// [`wait_kick`](VirtQueue::wait_kick), with no kick to take.
    pub fn device_idle(&self) -> bool {
        let st = self.state.lock();
        st.device_parked && !st.kicked
    }

    /// Push a completion and charge `UsedPush`.  Returns whether the push
    /// crossed the interrupt threshold the guest armed (EVENT_IDX's
    /// `vring_need_event`, under the same lock as the push): a caller that
    /// notifies the guest interrupts only if it did.
    pub fn push_used(
        &self,
        elem: UsedElem,
        cost_used_push: vphi_sim_core::SimDuration,
        tl: &mut Timeline,
    ) -> bool {
        let crossed = {
            let mut st = self.state.lock();
            st.used.push_back(elem);
            st.used_seq = st.used_seq.wrapping_add(1);
            self.completed.store(st.used_seq);
            need_event(st.used_event, st.used_seq, st.used_seq.wrapping_sub(1))
        };
        tl.charge(SpanLabel::UsedPush, cost_used_push);
        // An injected used-ring delay holds the completion for `param` µs
        // before the interrupt path runs.
        if let Some(delay_us) = self.faults.fire(FaultSite::VirtioUsedDelay) {
            tl.charge(SpanLabel::UsedPush, vphi_sim_core::SimDuration::from_micros(delay_us));
        }
        crossed
    }

    /// The device is gone: refuse every later publish
    /// ([`QueueError::Closed`]) and end the device thread's
    /// [`wait_kick`](VirtQueue::wait_kick).  Chains already on the avail
    /// ring stay there for the device's last pass to pop.
    pub fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        if st.device_parked {
            self.device.notify_all();
        }
    }
}

/// The virtio-1.x EVENT_IDX predicate (`vring_need_event`): whether moving
/// the used index from `old` to `new` crossed the guest-armed `event`
/// threshold.  All arithmetic is wrapping, so the comparison is correct
/// across index wrap-around.  For a single push (`old == new - 1`) this
/// reduces to `new == event + 1`: interrupt exactly when the push lands on
/// the index the guest said it was waiting past.
fn need_event(event: u64, new: u64, old: u64) -> bool {
    new.wrapping_sub(event).wrapping_sub(1) < new.wrapping_sub(old)
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the queue's unit tests play driver and device")]
mod tests {
    use super::*;
    use crate::ring::DescFlags;
    use vphi_sim_core::SimDuration;

    const PUSH: SimDuration = SimDuration::from_nanos(650);
    const KICK: SimDuration = SimDuration::from_nanos(10_500);

    /// Write and publish one chain; its head.
    fn add(q: &VirtQueue, descs: &[Descriptor], tl: &mut Timeline) -> Result<u16, QueueError> {
        let mut head = 0;
        q.publish_chain(descs, false, PUSH, tl, |h| head = h).map(|_| head)
    }

    /// Pop the next chain, whatever its avail index.
    fn pop(q: &VirtQueue) -> Result<Option<DescChain>, QueueError> {
        Ok(q.pop_avail_bounded(u64::MAX)?.map(|popped| popped.chain))
    }

    #[test]
    fn add_pop_push_take_lifecycle() {
        let q = VirtQueue::new(8);
        let mut tl = Timeline::new();
        let head =
            add(&q, &[Descriptor::readable(0x1000, 64), Descriptor::writable(0x2000, 64)], &mut tl)
                .unwrap();
        assert_eq!(q.free_descriptors(), 6);

        let chain = pop(&q).unwrap().unwrap();
        assert_eq!(chain.head, head);
        assert_eq!(chain.descriptors().len(), 2);
        assert_eq!(chain.readable().count(), 1);
        assert_eq!(chain.writable().count(), 1);
        // Chain linkage was fixed up by the write.
        assert!(chain.descriptors()[0].flags.next);
        assert!(!chain.descriptors()[1].flags.next);

        q.push_used(UsedElem { id: head, len: 64 }, PUSH, &mut tl);
        assert!(q.used_pending());
        let mut used = Vec::new();
        q.take_used(|u| used.push(u)).unwrap();
        assert_eq!(used, vec![UsedElem { id: head, len: 64 }]);
        assert_eq!(q.free_descriptors(), 8);
        assert!(!q.used_pending());
    }

    #[test]
    fn empty_and_full_conditions() {
        let q = VirtQueue::new(2);
        let mut tl = Timeline::new();
        assert_eq!(pop(&q).unwrap(), None);
        assert_eq!(add(&q, &[], &mut tl), Err(QueueError::EmptyChain));
        add(&q, &[Descriptor::readable(0, 1), Descriptor::readable(0, 1)], &mut tl).unwrap();
        assert_eq!(add(&q, &[Descriptor::readable(0, 1)], &mut tl), Err(QueueError::NoSpace));
    }

    #[test]
    fn kick_wakes_device_thread() {
        let q = VirtQueue::new(4);
        let q2 = Arc::clone(&q);
        let dev = std::thread::spawn(move || q2.wait_kick());
        let mut tl = Timeline::new();
        add(&q, &[Descriptor::readable(0, 4)], &mut tl).unwrap();
        q.kick(KICK, &mut tl, || true);
        assert!(dev.join().unwrap());
        assert_eq!(tl.total_for(SpanLabel::VmExitKick), KICK);
    }

    /// Spawn a device thread that counts the kicks it takes until the
    /// ring closes.
    fn device_thread(q: &Arc<VirtQueue>) -> std::thread::JoinHandle<u32> {
        let q = Arc::clone(q);
        std::thread::spawn(move || {
            let mut woken = 0;
            while q.wait_kick() {
                woken += 1;
            }
            woken
        })
    }

    /// Wait until the device has taken every kick and parked again.
    fn until_idle(q: &VirtQueue) {
        while !q.device_idle() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_kick_before_the_wait_does_not_block() {
        let q = VirtQueue::new(4);
        q.kick(KICK, &mut Timeline::new(), || true);
        assert!(q.kick_pending());
        assert!(q.wait_kick());
        assert!(!q.kick_pending(), "the wait takes the kick");
    }

    /// A second kick before the device looks asks for nothing more: the
    /// device drains the whole ring each time it wakes.
    #[test]
    fn kicks_before_the_device_looks_are_one_wake_up() {
        let q = VirtQueue::new(4);
        let mut tl = Timeline::new();
        q.kick(KICK, &mut tl, || true);
        q.kick(KICK, &mut tl, || true);
        assert_eq!(q.counters().kicks, 2, "each kick is still a vm-exit");
        assert!(q.wait_kick());
        assert!(!q.kick_pending(), "one wake-up took both");
    }

    #[test]
    fn wait_kick_blocks_until_a_kick() {
        let q = VirtQueue::new(4);
        let dev = device_thread(&q);
        until_idle(&q);
        assert!(!dev.is_finished());
        q.kick(KICK, &mut Timeline::new(), || true);
        until_idle(&q);
        q.close();
        assert_eq!(dev.join().unwrap(), 1);
    }

    #[test]
    fn a_parked_device_is_signalled_and_counted_out() {
        let q = VirtQueue::new(4);
        let q2 = Arc::clone(&q);
        let dev = std::thread::spawn(move || q2.wait_kick());
        while !q.device_idle() {
            std::thread::yield_now();
        }
        let before = vphi_sync::audit::thread_signals();
        q.kick(KICK, &mut Timeline::new(), || true);
        if vphi_sync::audit::ENABLED {
            let signals = vphi_sync::audit::thread_signals() - before;
            assert_eq!(signals, 1, "a parked device was not signalled");
        }
        assert!(dev.join().unwrap());
        assert!(!q.device_idle() && !q.kick_pending());
    }

    /// What an unarmed lane's kicks cost when its device is busy: a flag
    /// under the ring lock and no signal.  (The ledger reads 0 without
    /// the audit, so this is exact only where it is compiled in.)
    #[test]
    fn a_kick_with_nobody_parked_signals_nobody() {
        let q = VirtQueue::new(4);
        let mut tl = Timeline::new();
        let before = vphi_sync::audit::thread_signals();
        for _ in 0..1_000 {
            q.kick(KICK, &mut tl, || true);
        }
        assert!(q.kick_pending());
        assert_eq!(vphi_sync::audit::thread_signals() - before, 0);
    }

    /// The flag's one hazard is a device that has seen no kick but is not
    /// parked yet while a kick skips the signal.  The device loops in
    /// `wait_kick`, the kicker kicks as soon as the last kick was taken,
    /// so a kick lands before the device parks on some rounds and after it
    /// on others; a lost wake-up leaves its round unfinished and the
    /// channel timeout fails it instead of hanging.
    #[test]
    fn kicks_racing_parks_lose_nothing() {
        const ROUNDS: u32 = 10_000;
        let q = VirtQueue::new(4);
        let q2 = Arc::clone(&q);
        let (tx, rx) = std::sync::mpsc::channel();
        let dev = std::thread::spawn(move || {
            while q2.wait_kick() {
                if tx.send(()).is_err() {
                    break;
                }
            }
        });
        let mut tl = Timeline::new();
        for round in 0..ROUNDS {
            q.kick(KICK, &mut tl, || true);
            rx.recv_timeout(std::time::Duration::from_secs(1))
                .unwrap_or_else(|_| panic!("round {round}: a kick lost its device"));
        }
        q.close();
        dev.join().unwrap();
        assert!(!q.device_idle() && !q.kick_pending());
    }

    #[test]
    fn close_ends_the_wait() {
        let q = VirtQueue::new(4);
        let dev = device_thread(&q);
        until_idle(&q);
        q.close();
        assert_eq!(dev.join().unwrap(), 0);
        // A closed ring ends every later wait at once, kicked or not.
        q.kick(KICK, &mut Timeline::new(), || true);
        assert!(!q.wait_kick());
    }

    /// `VirtioKickLost`: the device never heard the kick, and the guest's
    /// watchdog kicks again one period later.  The kicker pays the period
    /// and both vm-exits, and the second kick reaches the exit handler and
    /// the parked device like any other.
    #[test]
    fn a_lost_kick_costs_a_watchdog_period_and_a_second_vm_exit() {
        use vphi_faults::{FaultInjector, FaultPlan};

        let q = VirtQueue::new(4);
        let plan = FaultPlan::single(FaultSite::VirtioKickLost, 1, 0);
        assert!(q.fault_hook().arm(Arc::new(FaultInjector::new(plan))));
        let dev = device_thread(&q);
        until_idle(&q);
        let mut tl = Timeline::new();
        add(&q, &[Descriptor::readable(0, 4)], &mut tl).unwrap();
        let mut serviced = false;
        let lost = q.kick(KICK, &mut tl, || {
            serviced = true;
            true
        });
        assert!(lost && serviced, "the watchdog's kick reaches the exit handler");
        assert_eq!(tl.total_for(SpanLabel::VmExitKick), GUEST_WATCHDOG + KICK * 2);
        assert_eq!(q.counters().kicks, 2, "two vm-exits");
        assert!(!q.kick(KICK, &mut tl, || false), "the plan's one loss is spent");
        until_idle(&q);
        q.close();
        assert_eq!(dev.join().unwrap(), 1);
    }

    #[test]
    fn push_used_queues_the_completion_without_a_side_channel() {
        // No interrupt fires here by construction: the queue has no
        // notification callback at all — delivery is the LaneNotifier's
        // decision, made from whether the push crossed the threshold.
        let q = VirtQueue::new(4);
        let mut tl = Timeline::new();
        let head = add(&q, &[Descriptor::readable(0, 1)], &mut tl).unwrap();
        pop(&q).unwrap().unwrap();
        q.push_used(UsedElem { id: head, len: 0 }, PUSH, &mut tl);
        assert!(q.used_pending());
        assert_eq!(q.used_seq(), 1);
    }

    #[test]
    fn avail_indices_count_publishes_and_bound_the_pops() {
        let q = VirtQueue::new(8);
        let mut tl = Timeline::new();
        let h1 = q.prepare_chain(&[Descriptor::readable(0x1, 1)], false).unwrap();
        assert_eq!(q.publish_avail_batch(&[h1], PUSH, &mut tl), Ok(1));
        let h2 = q.prepare_chain(&[Descriptor::readable(0x2, 1)], false).unwrap();
        let h3 = q.prepare_chain(&[Descriptor::readable(0x3, 1)], false).unwrap();
        assert_eq!(q.publish_avail_batch(&[h2, h3], PUSH, &mut tl), Ok(3));
        // Through index 2: the first two chains in ring order, not the
        // third, however often asked.
        assert_eq!(q.pop_avail_bounded(2).unwrap().unwrap().chain.head, h1);
        assert_eq!(q.pop_avail_bounded(2).unwrap().unwrap().chain.head, h2);
        assert_eq!(q.pop_avail_bounded(2).unwrap(), None);
        assert!(q.avail_pending());
        // A bound the ring has already passed pops nothing.
        assert_eq!(q.pop_avail_bounded(1).unwrap(), None);
        assert_eq!(pop(&q).unwrap().unwrap().head, h3);
        // Indices keep counting across an empty ring.
        let h4 = q.prepare_chain(&[Descriptor::readable(0x4, 1)], false).unwrap();
        assert_eq!(q.publish_avail_batch(&[h4], PUSH, &mut tl), Ok(4));
    }

    #[test]
    fn a_pop_reports_what_it_left_on_the_ring() {
        let q = VirtQueue::new(8);
        let mut tl = Timeline::new();
        for addr in 1..=3 {
            add(&q, &[Descriptor::readable(addr, 1)], &mut tl).unwrap();
        }
        // Bounded at 2: after the first pop one more is in bound, after the
        // second none is, and one chain stays on the ring behind the bound.
        let first = q.pop_avail_bounded(2).unwrap().unwrap();
        assert_eq!((first.more_in_bound, first.left_on_ring), (true, true));
        let second = q.pop_avail_bounded(2).unwrap().unwrap();
        assert_eq!((second.more_in_bound, second.left_on_ring), (false, true));
        assert_eq!(q.pop_avail_bounded(2).unwrap(), None);
        let last = q.pop_avail_bounded(u64::MAX).unwrap().unwrap();
        assert_eq!((last.more_in_bound, last.left_on_ring), (false, false));
    }

    #[test]
    fn publish_chain_registers_before_the_head_is_visible() {
        let q = VirtQueue::new(4);
        let mut tl = Timeline::new();
        let mut registered = None;
        let idx = q
            .publish_chain(
                &[Descriptor::readable(0x1000, 8), Descriptor::writable(0x2000, 8)],
                false,
                PUSH,
                &mut tl,
                |head| registered = Some(head),
            )
            .unwrap();
        assert_eq!(idx, 1);
        assert_eq!(tl.total(), PUSH);
        let chain = pop(&q).unwrap().unwrap();
        assert_eq!(Some(chain.head), registered);
        assert_eq!(chain.descriptors().len(), 2);
        // A chain that does not fit registers nothing and publishes nothing.
        let too_long = [Descriptor::readable(0, 1); 3];
        let mut called = false;
        assert_eq!(
            q.publish_chain(&too_long, false, PUSH, &mut tl, |_| called = true),
            Err(QueueError::NoSpace)
        );
        assert!(!called && !q.avail_pending());
        assert_eq!(tl.total(), PUSH);
    }

    #[test]
    fn a_closed_ring_refuses_new_chains_and_keeps_the_old() {
        let q = VirtQueue::new(8);
        let mut tl = Timeline::new();
        let before = add(&q, &[Descriptor::readable(0, 1)], &mut tl).unwrap();
        let prepared = q.prepare_chain(&[Descriptor::readable(0, 1)], false).unwrap();
        q.close();
        assert_eq!(add(&q, &[Descriptor::readable(0, 1)], &mut tl), Err(QueueError::Closed));
        assert_eq!(q.publish_avail_batch(&[prepared], PUSH, &mut tl), Err(QueueError::Closed));
        assert_eq!(pop(&q).unwrap().unwrap().head, before);
        assert_eq!((pop(&q), tl.total()), (Ok(None), PUSH), "a refused chain is not charged");
    }

    #[test]
    fn blocking_kick_runs_the_exit_handler_on_the_kicking_thread() {
        let q = VirtQueue::new(8);
        let seen = TrackedMutex::new(LockClass::TestInner, Vec::new());
        let handler = |through| {
            let mut left = q.avail_pending();
            while let Ok(Some(popped)) = q.pop_avail_bounded(through) {
                seen.lock().push((std::thread::current().id(), popped.chain.head));
                left = popped.left_on_ring;
                if !popped.more_in_bound {
                    break;
                }
            }
            left
        };
        let mut tl = Timeline::new();
        let h1 = q.prepare_chain(&[Descriptor::readable(0x1, 1)], false).unwrap();
        let mine = q.publish_avail_batch(&[h1], PUSH, &mut tl).unwrap();
        let h2 = q.prepare_chain(&[Descriptor::readable(0x2, 1)], false).unwrap();
        q.publish_avail_batch(&[h2], PUSH, &mut tl).unwrap();
        q.kick(KICK, &mut tl, || handler(mine));
        // One vm-exit: one charge, one counted kick.
        assert_eq!(tl.total_for(SpanLabel::VmExitKick), KICK);
        assert_eq!(q.counters().kicks, 1);
        // Serviced here, through the kicker's own chain and no further …
        assert_eq!(*seen.lock(), [(std::thread::current().id(), h1)]);
        // … and the chain behind it was handed to the service thread.
        assert!(q.avail_pending());
        assert!(q.wait_kick(), "the kick was handed on");
        // Nothing left behind: nothing handed on.
        let h3 = q.prepare_chain(&[Descriptor::readable(0x3, 1)], false).unwrap();
        pop(&q).unwrap().unwrap();
        let mine = q.publish_avail_batch(&[h3], PUSH, &mut tl).unwrap();
        q.kick(KICK, &mut tl, || handler(mine));
        assert!(!q.kick_pending());
        assert_eq!(seen.lock().len(), 2);
        assert_eq!(tl.total_for(SpanLabel::VmExitKick), KICK * 2);
    }

    #[test]
    fn prepared_chain_is_invisible_until_published() {
        let q = VirtQueue::new(4);
        let mut tl = Timeline::new();
        let head = q.prepare_chain(&[Descriptor::readable(0, 8)], false).unwrap();
        // Descriptors are allocated but the device side sees nothing —
        // the window where the driver registers head-keyed bookkeeping.
        assert_eq!(q.free_descriptors(), 3);
        assert!(!q.avail_pending());
        assert!(pop(&q).unwrap().is_none());
        assert_eq!(tl.total(), SimDuration::ZERO);
        q.publish_avail_batch(&[head], PUSH, &mut tl).unwrap();
        assert_eq!(pop(&q).unwrap().unwrap().head, head);
        assert_eq!(tl.total(), PUSH);
    }

    #[test]
    fn batch_publish_preserves_order_and_charges_per_entry() {
        let q = VirtQueue::new(8);
        let mut tl = Timeline::new();
        let h1 = q.prepare_chain(&[Descriptor::readable(0x1, 1)], false).unwrap();
        let h2 = q.prepare_chain(&[Descriptor::readable(0x2, 1)], false).unwrap();
        let h3 = q.prepare_chain(&[Descriptor::readable(0x3, 1)], false).unwrap();
        assert!(!q.avail_pending());
        q.publish_avail_batch(&[h1, h2, h3], PUSH, &mut tl).unwrap();
        // One ring store per entry — the batch amortizes the kick, not
        // the avail-ring traffic.
        assert_eq!(tl.total_for(SpanLabel::RingPush), PUSH * 3);
        assert_eq!(pop(&q).unwrap().unwrap().head, h1);
        assert_eq!(pop(&q).unwrap().unwrap().head, h2);
        assert_eq!(pop(&q).unwrap().unwrap().head, h3);
    }

    #[test]
    fn multiple_chains_fifo_order() {
        let q = VirtQueue::new(8);
        let mut tl = Timeline::new();
        let h1 = add(&q, &[Descriptor::readable(0x1, 1)], &mut tl).unwrap();
        let h2 = add(&q, &[Descriptor::readable(0x2, 1)], &mut tl).unwrap();
        assert_eq!(pop(&q).unwrap().unwrap().head, h1);
        assert_eq!(pop(&q).unwrap().unwrap().head, h2);
    }

    #[test]
    fn descriptors_recycle_across_many_rounds() {
        let q = VirtQueue::new(4);
        let mut tl = Timeline::new();
        for round in 0..100 {
            let head =
                add(&q, &[Descriptor::readable(round, 8), Descriptor::writable(round, 8)], &mut tl)
                    .unwrap();
            let chain = pop(&q).unwrap().unwrap();
            assert_eq!(chain.head, head);
            q.push_used(UsedElem { id: head, len: 8 }, PUSH, &mut tl);
            let mut taken = 0;
            q.take_used(|_| taken += 1).unwrap();
            assert_eq!(taken, 1);
            assert_eq!(q.free_descriptors(), 4);
        }
    }

    #[test]
    fn caller_supplied_flags_do_not_break_chaining() {
        // Even if the caller pre-sets NEXT on the last descriptor,
        // Writing the chain normalizes linkage.
        let q = VirtQueue::new(8);
        let mut tl = Timeline::new();
        let mut d = Descriptor::readable(0x9, 9);
        d.flags = DescFlags::NEXT;
        d.next = 77; // garbage
        add(&q, &[d], &mut tl).unwrap();
        let chain = pop(&q).unwrap().unwrap();
        assert_eq!(chain.descriptors().len(), 1);
        assert!(!chain.descriptors()[0].flags.next);
    }

    /// Ring memory is guest-writable, so every index the device reads out
    /// of it is hostile: each corruption below, written straight into the
    /// ring state, is refused as `Corrupt` and never used to index the
    /// descriptor table.
    #[test]
    fn a_corrupt_chain_is_refused_not_indexed() {
        fn link(next: u16) -> Option<Descriptor> {
            Some(Descriptor { flags: DescFlags::NEXT, next, ..Descriptor::readable(0, 1) })
        }
        type Corruption = fn(&mut QueueState);
        let cases: [(&str, Corruption); 4] = [
            ("an avail head past the table", |st| st.avail.push_back(u16::MAX)),
            ("a next link past the table", |st| {
                st.table[0] = link(4);
                st.avail.push_back(0);
            }),
            ("a head naming an empty slot", |st| st.avail.push_back(1)),
            ("a next cycle", |st| {
                st.table[0] = link(1);
                st.table[1] = link(0);
                st.avail.push_back(0);
            }),
        ];
        for (what, corrupt) in cases {
            let q = VirtQueue::new(4);
            corrupt(&mut q.state.lock());
            assert_eq!(pop(&q), Err(QueueError::Corrupt), "{what}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_size_rejected() {
        VirtQueue::new(3);
    }

    #[test]
    fn a_push_crosses_the_threshold_armed_before_it() {
        let q = VirtQueue::new(8);
        let mut tl = Timeline::new();
        let publish = |arm: bool, tl: &mut Timeline| {
            let head = q.prepare_chain(&[Descriptor::readable(0x1, 1)], arm).unwrap();
            q.publish_avail_batch(&[head], PUSH, tl).unwrap();
            pop(&q).unwrap().unwrap().head
        };
        // Armed at 0: the push to 1 crosses.
        let h1 = publish(true, &mut tl);
        assert!(q.push_used(UsedElem { id: h1, len: 0 }, PUSH, &mut tl));
        // Nobody re-armed: the push to 2 is past the threshold and batches.
        let h2 = publish(false, &mut tl);
        assert!(!q.push_used(UsedElem { id: h2, len: 0 }, PUSH, &mut tl));
        // Armed at 2 while a chain published unarmed is still out: the
        // first push after the arming crosses, whichever chain it completes.
        let h3 = publish(false, &mut tl);
        let h4 = publish(true, &mut tl);
        assert!(q.push_used(UsedElem { id: h3, len: 0 }, PUSH, &mut tl));
        assert!(!q.push_used(UsedElem { id: h4, len: 0 }, PUSH, &mut tl));
        assert_eq!(q.used_seq(), 4);
    }

    #[test]
    fn writing_a_chain_recycles_the_completed_ones_first() {
        let q = VirtQueue::new(4);
        let mut tl = Timeline::new();
        let two = [Descriptor::readable(0x1, 1), Descriptor::writable(0x2, 1)];
        let head = add(&q, &two, &mut tl).unwrap();
        add(&q, &two, &mut tl).unwrap();
        assert_eq!(q.free_descriptors(), 0);
        assert_eq!(pop(&q).unwrap().unwrap().head, head);
        q.push_used(UsedElem { id: head, len: 0 }, PUSH, &mut tl);
        // The table is full until a write reclaims the completed chain.
        assert_eq!(q.free_descriptors(), 0);
        add(&q, &two, &mut tl).unwrap();
        assert_eq!(q.free_descriptors(), 0);
        assert!(!q.used_pending());
        // A corrupt completion fails the write that finds it.
        q.push_used(UsedElem { id: 9, len: 0 }, PUSH, &mut tl);
        assert_eq!(q.prepare_chain(&two, false), Err(QueueError::Corrupt));
    }

    #[test]
    fn need_event_crossing_semantics() {
        // Single push: fires exactly when new == event + 1.
        assert!(need_event(4, 5, 4));
        assert!(!need_event(4, 4, 3)); // not there yet
        assert!(!need_event(4, 6, 5)); // already past — guest saw it awake

        // Batched push old..new: fires iff event ∈ [old, new).
        assert!(need_event(6, 9, 5));
        assert!(need_event(5, 9, 5));
        assert!(!need_event(9, 9, 5));
        assert!(!need_event(4, 9, 5));
        // Wrap-around stays correct.
        assert!(need_event(u64::MAX, 0, u64::MAX));
        assert!(!need_event(2, 0, u64::MAX));
    }

    #[test]
    fn per_queue_counters_track_kicks_and_pops() {
        let q = VirtQueue::new(8);
        let mut tl = Timeline::new();
        assert_eq!(q.counters(), QueueCounters::default());
        let head = add(&q, &[Descriptor::readable(0, 1)], &mut tl).unwrap();
        q.kick(KICK, &mut tl, || true);
        pop(&q).unwrap().unwrap();
        q.push_used(UsedElem { id: head, len: 0 }, PUSH, &mut tl);
        q.take_used(|_| ()).unwrap();
        assert_eq!(q.counters(), QueueCounters { kicks: 1, chains_popped: 1 });
    }
}
