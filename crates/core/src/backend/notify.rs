//! The per-lane completion notifier — the **only** MSI-injection site in
//! the vPHI stack: an injection is its one `IrqInject` charge, and
//! `tests/notify.rs` checks that every such charge a call returns is one
//! the notifiers counted.
//!
//! Every completion the backend pushes flows through here.  Whether it
//! warrants a virtual interrupt is decided by the requester's own
//! [`NotifyHint`], handed over before its kick
//! ([`NotifyHint::injects_after`], DESIGN.md #16): the completion injects
//! when its request led its submission on its lane and its requester had
//! gone to sleep (`svc > budget`).  A spinner's completion needs no
//! interrupt — its spinner reaps the reply — and a sleeping follower's is
//! *batched*: the next injected irq on the lane delivers it along with
//! its own.
//!
//! A suppressed-but-sleeping completion is never lost: its directed
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
use vphi_sync::{Tally, TrackedRoleGuard};

use crate::frontend::{NotifyHint, WaitBucketProfile};

/// Payload pow2 buckets of the burn ledger: `vphi_trace::size_bucket` of
/// a `u64` is 0 ..= 64.
const PAYLOAD_BUCKETS: usize = 65;

/// Snapshot of a lane notifier's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneNotifyCounters {
    /// Virtual interrupts actually injected.
    pub irqs_injected: u64,
    /// Completions that did not inject (spinner reaped it, or a sleeping
    /// follower's, batched into the lane's next irq).
    pub irqs_suppressed: u64,
}

/// Who records a completion: the lane's executor, holding its role, or
/// (`None`) a QEMU worker thread.
pub type Recorder<'a> = Option<&'a TrackedRoleGuard<'a>>;

/// One virtqueue lane's interrupt gate.
pub struct LaneNotifier {
    /// What delivering the lane's MSI into the guest costs.
    irq_inject: SimDuration,
    irqs_injected: Tally,
    irqs_suppressed: Tally,
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
            irqs_injected: Tally::new(),
            irqs_suppressed: Tally::new(),
            burn: std::array::from_fn(|_| (Tally::new(), Tally::new())),
        }
    }

    /// Inject the lane's virtual interrupt: it delivers its own
    /// completion plus every completion suppressed-while-sleeping since
    /// the last irq.
    pub fn deliver_irq(&self, tl: &mut Timeline, by: Recorder<'_>) {
        self.irqs_injected.add_as(1, by);
        tl.charge(SpanLabel::IrqInject, self.irq_inject);
    }

    /// Record a completion that did not inject.
    pub fn note_suppressed(&self, by: Recorder<'_>) {
        self.irqs_suppressed.add_as(1, by);
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
        LaneNotifyCounters {
            irqs_injected: self.irqs_injected.get(),
            irqs_suppressed: self.irqs_suppressed.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vphi_sim_core::CostModel;

    fn lane() -> LaneNotifier {
        LaneNotifier::new(CostModel::paper_calibrated().irq_inject)
    }

    /// A batch entry behind its lane's first.
    const FOLLOWER: NotifyHint = NotifyHint { leads: false, ..NotifyHint::SLEEP };

    #[test]
    fn a_sleeping_leader_gets_the_irq() {
        let n = lane();
        let mut tl = Timeline::new();
        assert!(NotifyHint::SLEEP.injects_after(1));
        n.deliver_irq(&mut tl, None);
        assert!(tl.total_for(SpanLabel::IrqInject) > SimDuration::ZERO);
        assert_eq!(n.counters(), LaneNotifyCounters { irqs_injected: 1, irqs_suppressed: 0 });
    }

    #[test]
    fn spinner_never_injects() {
        let n = lane();
        let tl = Timeline::new();
        // Pure spin, and also an adaptive waiter whose budget covered the
        // service time: both are reaped by the spinner, leading or not.
        assert!(!NotifyHint::SPIN.injects_after(u64::MAX - 1));
        assert!(!NotifyHint { budget_ns: 1000, ..NotifyHint::SLEEP }.injects_after(999));
        assert!(!NotifyHint { budget_ns: 1000, ..FOLLOWER }.injects_after(999));
        n.note_suppressed(None);
        assert_eq!(tl.total_for(SpanLabel::IrqInject), SimDuration::ZERO);
        assert_eq!(n.counters().irqs_injected, 0);
        assert_eq!(n.counters().irqs_suppressed, 1);
    }

    #[test]
    fn sleeping_followers_batch_until_the_next_leaders_irq_flushes() {
        let n = lane();
        let mut tl = Timeline::new();
        assert!(NotifyHint::SLEEP.injects_after(1));
        n.deliver_irq(&mut tl, None);
        // Two followers of a batch slept: they ride the next irq.
        for _ in 0..2 {
            assert!(FOLLOWER.sleeping_after(1) && !FOLLOWER.injects_after(1));
            n.note_suppressed(None);
        }
        // The next leader's irq delivers all three.
        assert!(NotifyHint::SLEEP.injects_after(1));
        n.deliver_irq(&mut tl, None);
        assert_eq!(n.counters(), LaneNotifyCounters { irqs_injected: 2, irqs_suppressed: 2 });
        assert_eq!(tl.total_for(SpanLabel::IrqInject), n.irq_inject * 2);
    }
}
