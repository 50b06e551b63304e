//! Per-request virtual-time ledger.
//!
//! Every I/O request carries a [`Timeline`].  Components charge labelled
//! durations to it as the request traverses them; at completion the
//! timeline's total is the request's virtual latency and its per-label sums
//! are the breakdown the paper reports in §IV-B ("93% of this overhead
//! attributes to the waiting scheme of vPHI inside the frontend driver").

use std::fmt;

use crate::units::SimDuration;

/// Which structural step a charge was made by.  Declared in request-path
/// order — each pipeline stage's labels after the previous stage's — so a
/// [`Timeline::breakdown`] reads from the guest syscall to the wake-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanLabel {
    // guest syscall
    GuestSyscall,
    GuestKmalloc,
    GuestCopy,
    // virtio ring
    RingPush,
    VmExitKick,
    // backend replay
    BackendDecode,
    GuestBufMap,
    PageTranslate,
    /// Backend registration-cache probe on the RMA path (hit or miss).
    RegCacheLookup,
    WorkerSpawn,
    PfnFaultResolve,
    // zero-copy mapping
    /// Backend zero-copy RMA: pin one huge page of a registered window
    /// and install its device-aperture mapping (cold path only).
    WindowPin,
    /// Backend zero-copy RMA: build the scatter-gather descriptor list
    /// over the mapped subwindows (paid on every zero-copy request).
    SgBuild,
    // host SCIF and the device side
    HostSyscall,
    ScifPost,
    RmaSetup,
    CopyUserKernel,
    DeviceDeliver,
    UosSchedule,
    UosContextSwitch,
    CoiControl,
    DeviceSpawn,
    DeviceCompute,
    /// Anything not covered above (used by tests and extensions).
    Other,
    // PCIe / DMA
    DmaSetup,
    LinkLatency,
    LinkTransfer,
    LinkContention,
    // completion
    Completion,
    UsedPush,
    IrqInject,
    GuestWakeup,
    PollWait,
}

impl SpanLabel {
    pub const COUNT: usize = SpanLabel::ALL.len();

    /// Every label in declaration order: `ALL[label as usize] == label`.
    pub const ALL: [SpanLabel; 33] = [
        SpanLabel::GuestSyscall,
        SpanLabel::GuestKmalloc,
        SpanLabel::GuestCopy,
        SpanLabel::RingPush,
        SpanLabel::VmExitKick,
        SpanLabel::BackendDecode,
        SpanLabel::GuestBufMap,
        SpanLabel::PageTranslate,
        SpanLabel::RegCacheLookup,
        SpanLabel::WorkerSpawn,
        SpanLabel::PfnFaultResolve,
        SpanLabel::WindowPin,
        SpanLabel::SgBuild,
        SpanLabel::HostSyscall,
        SpanLabel::ScifPost,
        SpanLabel::RmaSetup,
        SpanLabel::CopyUserKernel,
        SpanLabel::DeviceDeliver,
        SpanLabel::UosSchedule,
        SpanLabel::UosContextSwitch,
        SpanLabel::CoiControl,
        SpanLabel::DeviceSpawn,
        SpanLabel::DeviceCompute,
        SpanLabel::Other,
        SpanLabel::DmaSetup,
        SpanLabel::LinkLatency,
        SpanLabel::LinkTransfer,
        SpanLabel::LinkContention,
        SpanLabel::Completion,
        SpanLabel::UsedPush,
        SpanLabel::IrqInject,
        SpanLabel::GuestWakeup,
        SpanLabel::PollWait,
    ];

    /// True for charges introduced by virtualization — everything a native
    /// (host) execution of the same request would not pay.
    pub fn is_virtualization_overhead(self) -> bool {
        matches!(
            self,
            SpanLabel::GuestSyscall
                | SpanLabel::GuestKmalloc
                | SpanLabel::GuestCopy
                | SpanLabel::RingPush
                | SpanLabel::VmExitKick
                | SpanLabel::BackendDecode
                | SpanLabel::GuestBufMap
                | SpanLabel::PageTranslate
                | SpanLabel::RegCacheLookup
                | SpanLabel::WindowPin
                | SpanLabel::SgBuild
                | SpanLabel::UsedPush
                | SpanLabel::IrqInject
                | SpanLabel::GuestWakeup
                | SpanLabel::PollWait
                | SpanLabel::WorkerSpawn
                | SpanLabel::PfnFaultResolve
        )
    }
}

impl fmt::Display for SpanLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The virtual time charged to one request (or to everything a caller
/// reuses it for), summed per label.
///
/// A fixed array, so every method costs the same however many charges
/// came before — a caller may keep one timeline across a whole session.
/// What it does not keep is the order the charges were made in.
#[derive(Clone, PartialEq)]
pub struct Timeline {
    by_label: [SimDuration; SpanLabel::COUNT],
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline::new()
    }
}

impl fmt::Debug for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.breakdown()).finish()
    }
}

impl Timeline {
    pub const fn new() -> Self {
        Timeline { by_label: [SimDuration::ZERO; SpanLabel::COUNT] }
    }

    /// Charge `duration` under `label`.
    pub fn charge(&mut self, label: SpanLabel, duration: SimDuration) {
        self.by_label[label as usize] += duration;
    }

    /// Add everything `other` holds (used when a sub-path, e.g. the host
    /// SCIF call made by the backend, returns its own timeline).
    pub fn absorb(&mut self, other: &Timeline) {
        for (mine, theirs) in self.by_label.iter_mut().zip(other.by_label) {
            *mine += theirs;
        }
    }

    /// What was charged since this timeline read `earlier`.
    pub fn since(&self, earlier: &Timeline) -> Timeline {
        let mut out = self.clone();
        for (mine, before) in out.by_label.iter_mut().zip(earlier.by_label) {
            *mine -= before;
        }
        out
    }

    pub fn is_empty(&self) -> bool {
        self.total().is_zero()
    }

    /// Total virtual time across all labels — the request's latency.
    pub fn total(&self) -> SimDuration {
        self.by_label.iter().copied().sum()
    }

    /// Total charged under one label.
    pub fn total_for(&self, label: SpanLabel) -> SimDuration {
        self.by_label[label as usize]
    }

    /// Total charged to virtualization-overhead labels.
    pub fn virtualization_overhead(&self) -> SimDuration {
        SpanLabel::ALL
            .into_iter()
            .zip(self.by_label)
            .filter(|(label, _)| label.is_virtualization_overhead())
            .map(|(_, d)| d)
            .sum()
    }

    /// `(label, total)` for every label charged, in declaration order.
    pub fn breakdown(&self) -> Vec<(SpanLabel, SimDuration)> {
        SpanLabel::ALL.into_iter().zip(self.by_label).filter(|(_, d)| !d.is_zero()).collect()
    }

    pub fn clear(&mut self) {
        *self = Timeline::new();
    }
}

impl fmt::Display for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        writeln!(f, "timeline total={total}")?;
        for (label, d) in self.breakdown() {
            let pct = if total.is_zero() {
                0.0
            } else {
                100.0 * d.as_nanos() as f64 / total.as_nanos() as f64
            };
            writeln!(f, "  {label:<18} {d:>12} ({pct:5.1}%)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn charge_and_total() {
        let mut t = Timeline::new();
        t.charge(SpanLabel::HostSyscall, us(1));
        t.charge(SpanLabel::LinkTransfer, us(5));
        t.charge(SpanLabel::HostSyscall, us(1));
        assert_eq!(t.total(), us(7));
        assert_eq!(t.total_for(SpanLabel::HostSyscall), us(2));
        assert_eq!(t.total_for(SpanLabel::IrqInject), SimDuration::ZERO);
        assert_eq!(t.total_for(SpanLabel::LinkTransfer), us(5));
    }

    #[test]
    fn zero_charges_are_dropped() {
        let mut t = Timeline::new();
        t.charge(SpanLabel::RingPush, SimDuration::ZERO);
        assert!(t.is_empty());
        assert!(t.breakdown().is_empty());
    }

    #[test]
    fn breakdown_merges_labels_in_order() {
        let mut t = Timeline::new();
        t.charge(SpanLabel::IrqInject, us(2));
        t.charge(SpanLabel::RingPush, us(1));
        t.charge(SpanLabel::IrqInject, us(3));
        let b = t.breakdown();
        // Declaration order, not charge order.
        assert_eq!(b, vec![(SpanLabel::RingPush, us(1)), (SpanLabel::IrqInject, us(5))]);
    }

    #[test]
    fn absorb_concatenates() {
        let mut a = Timeline::new();
        a.charge(SpanLabel::GuestSyscall, us(1));
        let mut b = Timeline::new();
        b.charge(SpanLabel::HostSyscall, us(2));
        let before = a.clone();
        a.absorb(&b);
        assert_eq!(a.total(), us(3));
        assert_eq!(a.since(&before), b);
    }

    #[test]
    fn overhead_classification() {
        let mut t = Timeline::new();
        t.charge(SpanLabel::HostSyscall, us(7)); // native work
        t.charge(SpanLabel::GuestWakeup, us(349)); // virtualization
        t.charge(SpanLabel::VmExitKick, us(26)); // virtualization
        assert_eq!(t.virtualization_overhead(), us(375));
        assert_eq!(t.total(), us(382));
        assert!(SpanLabel::GuestWakeup.is_virtualization_overhead());
        assert!(SpanLabel::WindowPin.is_virtualization_overhead());
        assert!(SpanLabel::SgBuild.is_virtualization_overhead());
        assert!(!SpanLabel::LinkTransfer.is_virtualization_overhead());
    }

    #[test]
    fn display_contains_percentages() {
        let mut t = Timeline::new();
        t.charge(SpanLabel::LinkTransfer, us(50));
        t.charge(SpanLabel::DmaSetup, us(50));
        let s = t.to_string();
        assert!(s.contains("LinkTransfer"));
        assert!(s.contains("50.0%"));
    }
}
