//! The per-lane completion notifier — the **only** MSI-injection site in
//! the vPHI stack: an injection is its one `IrqInject` charge, and
//! `tests/notify.rs` checks that every such charge a call returns is one
//! the notifiers counted.
//!
//! Every completion the backend pushes flows through here, and the
//! notifier decides — deterministically, from state the frontend handed
//! over before its kick — whether the completion warrants a virtual
//! interrupt (DESIGN.md #16):
//!
//! * the requester's [`NotifyHint`] says whether it was still spinning
//!   (`svc ≤ budget`: no interrupt needed, its spinner reaps the reply) or
//!   had armed the interrupt and slept;
//! * the EVENT_IDX comparison, made by the used-ring push
//!   ([`VirtQueue::push_used`](vphi_virtio::VirtQueue::push_used)), says
//!   whether this push crossed the `used_event` threshold the guest armed —
//!   a push short of the threshold is *batched*: it stays pending and the
//!   next injected irq on the lane delivers it along with its own.
//!
//! One injected irq therefore drains every pending used entry on the lane
//! (the `completions_per_irq` histogram measures the batching), and a
//! suppressed-but-sleeping completion is never lost: its directed
//! completion wake still lands.  A lost MSI never reaches the notifier:
//! the backend charges the guest's watchdog period in its place.
//!
//! Its counts are the lane's: a completion finished by the lane's
//! executor is counted holding the executor role, with no atomic
//! read-modify-write (`vphi_sync::Tally`); one a QEMU worker finished
//! counts beside it.  The notifier also keeps the ABL-WAIT ledger — what
//! each completion's requester burned spinning against the service it
//! waited for — since the verdict it is computed from is made here.

use vphi_sim_core::{SimDuration, SpanLabel, Timeline};
use vphi_sync::{Counter, Tally, TrackedRoleGuard};

use crate::frontend::{NotifyHint, WaitBucketProfile};

/// Log2 buckets of the completions-per-irq histogram (bucket 15 collects
/// every batch of 2^15 completions or more).
pub const BATCH_BUCKETS: usize = 16;

/// Payload pow2 buckets of the burn ledger: `vphi_trace::size_bucket` of
/// a `u64` is 0 ..= 64.
const PAYLOAD_BUCKETS: usize = 65;

/// Snapshot of a lane notifier's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneNotifyCounters {
    /// Virtual interrupts actually injected (the histogram's total).
    pub irqs_injected: u64,
    /// Completions that did not inject (spinner reaped it, or it was
    /// batched behind an armed threshold).
    pub irqs_suppressed: u64,
    /// Completions-per-irq log2 histogram: bucket `b` counts injected
    /// irqs that delivered `[2^b, 2^(b+1))` completions.
    pub batch_hist: [u64; BATCH_BUCKETS],
}

/// Who records a completion: the lane's executor, holding its role, or
/// (`None`) a QEMU worker thread.
pub type Recorder<'a> = Option<&'a TrackedRoleGuard<'a>>;

/// One virtqueue lane's interrupt gate.
pub struct LaneNotifier {
    /// What delivering the lane's MSI into the guest costs.
    irq_inject: SimDuration,
    /// Completions suppressed while their requester slept, awaiting the
    /// next injected irq on this lane (the batch the irq will flush).  A
    /// count and nothing else: an add that races a flush lands in this
    /// batch or the next.  Any finisher adds to it, so it stays atomic.
    pending: Counter,
    irqs_suppressed: Tally,
    /// Injected irqs by batch size; their sum is the injection count.
    batch_hist: [Tally; BATCH_BUCKETS],
    /// Payload bucket → (virtual ns its requesters burned spinning, true
    /// service ns): the ABL-WAIT spin-cycles-burned vs latency ledger.
    burn: [(Tally, Tally); PAYLOAD_BUCKETS],
}

impl std::fmt::Debug for LaneNotifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.counters();
        f.debug_struct("LaneNotifier")
            .field("injected", &c.irqs_injected)
            .field("suppressed", &c.irqs_suppressed)
            .finish()
    }
}

impl LaneNotifier {
    pub fn new(irq_inject: SimDuration) -> Self {
        LaneNotifier {
            irq_inject,
            pending: Counter::new(0),
            irqs_suppressed: Tally::new(),
            batch_hist: std::array::from_fn(|_| Tally::new()),
            burn: std::array::from_fn(|_| (Tally::new(), Tally::new())),
        }
    }

    /// Whether a completion warrants an interrupt: its requester is
    /// asleep (service time exceeded the declared spin budget) *and* its
    /// used-ring push `crossed` the armed `used_event` threshold.  Pure —
    /// the caller sequences the fault check (lost MSI) between this
    /// decision and [`deliver_irq`](LaneNotifier::deliver_irq).
    pub fn would_inject(&self, crossed: bool, hint: NotifyHint, svc_ns: u64) -> bool {
        crossed && hint.sleeping_after(svc_ns)
    }

    /// Inject the lane's virtual interrupt, flushing the pending batch:
    /// this irq delivers its own completion plus every completion
    /// suppressed-while-sleeping since the last irq.  An empty batch is
    /// read, not swapped: an add racing the read rides the next irq, as
    /// one racing the swap would.
    pub fn deliver_irq(&self, tl: &mut Timeline, by: Recorder<'_>) {
        let batched = if self.pending.get() == 0 { 0 } else { self.pending.take() };
        let flushed = batched + 1;
        let bucket = (63 - flushed.leading_zeros() as usize).min(BATCH_BUCKETS - 1);
        self.batch_hist[bucket].add_as(1, by);
        tl.charge(SpanLabel::IrqInject, self.irq_inject);
    }

    /// Record a completion that did not inject.  `sleeping` completions
    /// join the pending batch (the next irq on the lane flushes them);
    /// spinner-reaped ones are simply counted.
    pub fn note_suppressed(&self, sleeping: bool, by: Recorder<'_>) {
        self.irqs_suppressed.add_as(1, by);
        if sleeping {
            self.pending.bump();
        }
    }

    /// Account one completion's wait in the ABL-WAIT ledger, under the
    /// payload bucket its requester declared: a spinner that caught it
    /// burned exactly the service time, a sleeper only its (smaller)
    /// budget before parking — so per bucket, reported burn never exceeds
    /// true service time.
    pub fn account_wait(&self, hint: NotifyHint, svc_ns: u64, by: Recorder<'_>) {
        let burned = if hint.sleeping_after(svc_ns) { hint.budget_ns.min(svc_ns) } else { svc_ns };
        let (spin, svc) = &self.burn[usize::from(hint.bucket)];
        spin.add_as(burned, by);
        svc.add_as(svc_ns, by);
    }

    /// The burn ledger's non-empty buckets, in bucket order.
    pub fn wait_profile(&self) -> impl Iterator<Item = WaitBucketProfile> + '_ {
        (0u8..).zip(&self.burn).filter_map(|(bucket, (spin, svc))| {
            let (spin_burn_ns, svc_ns) = (spin.get(), svc.get());
            (svc_ns > 0 || spin_burn_ns > 0).then_some(WaitBucketProfile {
                bucket,
                spin_burn_ns,
                svc_ns,
            })
        })
    }

    /// Counter snapshot.
    pub fn counters(&self) -> LaneNotifyCounters {
        let batch_hist: [u64; BATCH_BUCKETS] = std::array::from_fn(|b| self.batch_hist[b].get());
        LaneNotifyCounters {
            irqs_injected: batch_hist.iter().sum(),
            irqs_suppressed: self.irqs_suppressed.get(),
            batch_hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vphi_sim_core::CostModel;
    use vphi_virtio::{Descriptor, UsedElem, VirtQueue};

    const PUSH: SimDuration = SimDuration::from_nanos(600);

    fn lane() -> (LaneNotifier, Arc<VirtQueue>) {
        let irq_inject = CostModel::paper_calibrated().irq_inject;
        (LaneNotifier::new(irq_inject), VirtQueue::new(8))
    }

    /// Publish one chain — arming the threshold first if its requester
    /// will sleep — complete it, and report whether the push crossed.
    #[expect(clippy::disallowed_methods, reason = "stages a completion on a bare queue")]
    fn push_one(queue: &Arc<VirtQueue>, arm: bool, tl: &mut Timeline) -> bool {
        let head = queue.prepare_chain(&[Descriptor::readable(0, 1)], arm).unwrap();
        queue.publish_avail_batch(&[head], PUSH, tl).unwrap();
        queue.pop_avail_bounded(u64::MAX).unwrap().unwrap();
        queue.push_used(UsedElem { id: head, len: 0 }, PUSH, tl)
    }

    #[test]
    fn sleeping_waiter_with_armed_threshold_gets_the_irq() {
        let (n, queue) = lane();
        let mut tl = Timeline::new();
        let crossed = push_one(&queue, true, &mut tl); // the waiter armed, then slept
        assert!(n.would_inject(crossed, NotifyHint::SLEEP, 1));
        n.deliver_irq(&mut tl, None);
        assert!(tl.total_for(SpanLabel::IrqInject) > SimDuration::ZERO);
        let c = n.counters();
        assert_eq!(c.irqs_injected, 1);
        assert_eq!(c.batch_hist[0], 1, "a lone completion is a batch of one");
    }

    #[test]
    fn spinner_never_injects() {
        let (n, queue) = lane();
        let mut tl = Timeline::new();
        let crossed = push_one(&queue, true, &mut tl);
        // Pure spin, and also an adaptive waiter whose budget covered the
        // service time: both are reaped by the spinner.
        assert!(!n.would_inject(crossed, NotifyHint::SPIN, u64::MAX - 1));
        assert!(!n.would_inject(crossed, NotifyHint { budget_ns: 1000, bucket: 0 }, 999));
        n.note_suppressed(false, None);
        assert_eq!(tl.total_for(SpanLabel::IrqInject), SimDuration::ZERO);
        assert_eq!(n.counters().irqs_injected, 0);
        assert_eq!(n.counters().irqs_suppressed, 1);
    }

    #[test]
    fn stale_threshold_batches_until_the_next_irq_flushes() {
        let (n, queue) = lane();
        let mut tl = Timeline::new();
        let s1 = push_one(&queue, true, &mut tl); // armed at 0, crosses: 0 → 1
        assert!(n.would_inject(s1, NotifyHint::SLEEP, 1));
        n.deliver_irq(&mut tl, None);
        // Threshold still 0 (no new waiter armed): pushes 2 and 3 are
        // past it, so they batch behind the next crossing.
        let s2 = push_one(&queue, false, &mut tl);
        assert!(!n.would_inject(s2, NotifyHint::SLEEP, 1));
        n.note_suppressed(true, None);
        let s3 = push_one(&queue, false, &mut tl);
        assert!(!n.would_inject(s3, NotifyHint::SLEEP, 1));
        n.note_suppressed(true, None);
        // A waiter re-arms; its completion's irq flushes the batch of 3.
        let s4 = push_one(&queue, true, &mut tl);
        assert!(n.would_inject(s4, NotifyHint::SLEEP, 1));
        n.deliver_irq(&mut tl, None);
        let c = n.counters();
        assert_eq!(c.irqs_injected, 2);
        assert_eq!(c.irqs_suppressed, 2);
        assert_eq!(c.batch_hist[0], 1, "first irq carried one completion");
        assert_eq!(c.batch_hist[1], 1, "second irq flushed a batch of 3 (bucket [2,4))");
    }
}
