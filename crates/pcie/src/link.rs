//! The PCIe link timing model.

use std::sync::Arc;

use vphi_faults::{FaultHook, FaultSite};
use vphi_sim_core::{CostModel, SimDuration, SpanLabel, Timeline};
use vphi_sync::Counter;

/// The PCIe link between the host and one coprocessor, under virtual time.
///
/// All DMA traffic between the host and the card crosses this object.
/// Bandwidth and latency come from the [`CostModel`].  A transaction is
/// charged to the timeline of the request that issues it and to no other:
/// the link keeps no issue time, so what one request pays cannot depend on
/// how the host interleaves another's threads.  The experiments that model
/// queueing on a shared link replay it at explicit instants of their own.
#[derive(Debug)]
pub struct PcieLink {
    cost: Arc<CostModel>,
    busy_ns: Counter,
    transactions: Counter,
    faults: FaultHook,
}

impl PcieLink {
    pub fn new(cost: Arc<CostModel>) -> Self {
        PcieLink {
            cost,
            busy_ns: Counter::new(0),
            transactions: Counter::new(0),
            faults: FaultHook::new(),
        }
    }

    /// Fault-injection arming point (retrain stalls, DMA errors).
    pub fn fault_hook(&self) -> &FaultHook {
        &self.faults
    }

    pub fn cost(&self) -> &Arc<CostModel> {
        &self.cost
    }

    /// Time the link needs for `bytes` of payload (per-byte cost only).
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.cost.link_transfer(bytes)
    }

    /// Move a `bytes` payload across the link: charge its latency, its
    /// transfer and any injected retrain stall to `tl`.
    pub fn transmit(&self, bytes: u64, tl: &mut Timeline) {
        let hold = self.transfer_time(bytes);
        self.busy_ns.add(hold.as_nanos());
        self.transactions.bump();
        tl.charge(SpanLabel::LinkLatency, self.cost.link_latency);
        tl.charge(SpanLabel::LinkTransfer, hold);
        // An injected link retrain stalls this transaction for `param` µs.
        if let Some(stall_us) = self.faults.fire(FaultSite::PcieRetrainStall) {
            tl.charge(SpanLabel::LinkLatency, SimDuration::from_micros(stall_us));
        }
    }

    /// Cumulative time the link has spent moving payload.
    pub fn busy_total(&self) -> SimDuration {
        SimDuration(self.busy_ns.get())
    }

    /// Number of payload transactions.
    pub fn transaction_count(&self) -> u64 {
        self.transactions.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vphi_sim_core::units::GIB;

    fn link() -> PcieLink {
        PcieLink::new(Arc::new(CostModel::paper_calibrated()))
    }

    #[test]
    fn transfer_time_matches_configured_bandwidth() {
        let l = link();
        // 6.4 GB at 6.4 GB/s should take ~1 s.
        let t = l.transfer_time(6_400_000_000);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transmit_charges_latency_and_transfer() {
        let l = link();
        let mut tl = Timeline::new();
        l.transmit(GIB, &mut tl);
        assert!(tl.total_for(SpanLabel::LinkLatency) > SimDuration::ZERO);
        assert!(tl.total_for(SpanLabel::LinkTransfer) > SimDuration::ZERO);
        assert_eq!(tl.total_for(SpanLabel::LinkContention), SimDuration::ZERO);
        assert_eq!(l.transaction_count(), 1);
    }

    #[test]
    fn sequential_transmissions_accumulate_busy_time() {
        let l = link();
        let mut tl = Timeline::new();
        for _ in 0..4 {
            l.transmit(1 << 20, &mut tl);
        }
        assert_eq!(l.busy_total(), l.transfer_time(1 << 20) * 4);
        assert_eq!(l.transaction_count(), 4);
    }

    /// Four threads transmit on one link at once, round after round: each
    /// timeline reads exactly what a transmit on an idle link charges, and
    /// none is charged for queueing behind the others.
    #[test]
    fn concurrent_transmits_are_charged_as_if_alone() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 200;
        const BYTES: u64 = 64 << 10;
        let mut solo = Timeline::new();
        link().transmit(BYTES, &mut solo);
        let l = Arc::new(link());
        let start = Arc::new(std::sync::Barrier::new(THREADS));
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                let (l, start) = (Arc::clone(&l), Arc::clone(&start));
                std::thread::spawn(move || {
                    (0..ROUNDS)
                        .map(|_| {
                            start.wait();
                            let mut tl = Timeline::new();
                            l.transmit(BYTES, &mut tl);
                            tl
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for tl in threads.into_iter().flat_map(|t| t.join().unwrap()) {
            assert_eq!(tl.total_for(SpanLabel::LinkContention), SimDuration::ZERO);
            for label in [SpanLabel::LinkLatency, SpanLabel::LinkTransfer] {
                assert_eq!(tl.total_for(label), solo.total_for(label), "{label:?}");
            }
            assert_eq!(tl.total(), solo.total());
        }
        assert_eq!(l.busy_total(), l.transfer_time(BYTES) * (THREADS * ROUNDS) as u64);
        assert_eq!(l.transaction_count(), (THREADS * ROUNDS) as u64);
    }
}
