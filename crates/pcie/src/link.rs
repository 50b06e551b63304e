//! The PCIe link timing model.

use std::sync::Arc;

use vphi_faults::{FaultHook, FaultSite};
use vphi_sim_core::{
    BusyResource, CostModel, SimDuration, SimTime, SpanLabel, Timeline, VirtualClock,
};

/// A serially-shared PCIe link under virtual time.
///
/// All DMA traffic between the host and one coprocessor crosses this
/// object.  Bandwidth and latency come from the [`CostModel`]; concurrent
/// users queue on an internal [`BusyResource`], so aggregate throughput in
/// sharing experiments is capped by the link, exactly as on real hardware.
#[derive(Debug)]
pub struct PcieLink {
    cost: Arc<CostModel>,
    clock: Arc<VirtualClock>,
    resource: BusyResource,
    faults: FaultHook,
}

impl PcieLink {
    pub fn new(cost: Arc<CostModel>, clock: Arc<VirtualClock>) -> Self {
        PcieLink { cost, clock, resource: BusyResource::new(), faults: FaultHook::new() }
    }

    /// Fault-injection arming point (retrain stalls, DMA errors).
    pub fn fault_hook(&self) -> &FaultHook {
        &self.faults
    }

    pub fn cost(&self) -> &Arc<CostModel> {
        &self.cost
    }

    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// Time the link needs for `bytes` of payload (per-byte cost only).
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.cost.link_transfer(bytes)
    }

    /// Occupy the link for a `bytes` payload starting no earlier than the
    /// current virtual time; charges latency, transfer and any queueing
    /// delay to `tl` and advances the global clock to the completion time.
    ///
    /// Returns the virtual completion time.
    pub fn transmit(&self, bytes: u64, tl: &mut Timeline) -> SimTime {
        self.transmit_from(self.clock.now(), bytes, tl)
    }

    /// Like [`transmit`](PcieLink::transmit) but with an explicit issue
    /// time, for callers that batch-issue work at a known virtual instant
    /// (the sharing experiments issue one request per VM "at once").
    pub fn transmit_from(&self, at: SimTime, bytes: u64, tl: &mut Timeline) -> SimTime {
        let hold = self.transfer_time(bytes);
        let grant = self.resource.acquire(at, hold);
        tl.charge(SpanLabel::LinkLatency, self.cost.link_latency);
        tl.charge(SpanLabel::LinkContention, grant.queued);
        tl.charge(SpanLabel::LinkTransfer, hold);
        let mut end = grant.end + self.cost.link_latency;
        // An injected link retrain stalls this transaction for `param` µs.
        if let Some(stall_us) = self.faults.fire(FaultSite::PcieRetrainStall) {
            let stall = SimDuration::from_micros(stall_us);
            tl.charge(SpanLabel::LinkLatency, stall);
            end += stall;
        }
        self.clock.observe(end)
    }

    /// Cumulative time the link has spent moving payload.
    pub fn busy_total(&self) -> SimDuration {
        self.resource.busy_total()
    }

    /// Number of payload transactions granted.
    pub fn transaction_count(&self) -> u64 {
        self.resource.grant_count()
    }

    /// Reset contention bookkeeping (between benchmark repetitions).
    pub fn reset_accounting(&self) {
        self.resource.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vphi_sim_core::units::GIB;

    fn link() -> PcieLink {
        PcieLink::new(Arc::new(CostModel::paper_calibrated()), Arc::new(VirtualClock::new()))
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

    #[test]
    fn concurrent_users_contend() {
        let l = Arc::new(link());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                let mut tl = Timeline::new();
                // All four issue at virtual t=0, as the sharing harness does.
                l.transmit_from(SimTime::ZERO, 64 << 20, &mut tl);
                tl
            }));
        }
        let timelines: Vec<Timeline> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All four started "at once" on an idle clock; at least one must
        // have queued behind another.
        let queued: SimDuration =
            timelines.iter().map(|t| t.total_for(SpanLabel::LinkContention)).sum();
        assert!(queued > SimDuration::ZERO, "expected link contention");
        assert_eq!(l.busy_total(), l.transfer_time(64 << 20) * 4);
    }
}
