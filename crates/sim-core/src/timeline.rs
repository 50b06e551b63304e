//! Per-request span recording.
//!
//! Every I/O request carries a [`Timeline`].  Components append labelled
//! [`Span`]s as the request traverses them; at completion the timeline's
//! total is the request's virtual latency and its spans are the breakdown
//! the paper reports in §IV-B ("93% of this overhead attributes to the
//! waiting scheme of vPHI inside the frontend driver").

use std::fmt;

use crate::units::SimDuration;

/// Which structural step a span was charged by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanLabel {
    // native SCIF path
    HostSyscall,
    ScifPost,
    DmaSetup,
    LinkLatency,
    LinkTransfer,
    LinkContention,
    DeviceDeliver,
    Completion,
    RmaSetup,
    CopyUserKernel,
    // paravirtual detour
    GuestSyscall,
    GuestKmalloc,
    GuestCopy,
    RingPush,
    VmExitKick,
    BackendDecode,
    GuestBufMap,
    PageTranslate,
    /// Backend registration-cache probe on the RMA path (hit or miss).
    RegCacheLookup,
    /// Backend zero-copy RMA: pin one huge page of a registered window
    /// and install its device-aperture mapping (cold path only).
    WindowPin,
    /// Backend zero-copy RMA: build the scatter-gather descriptor list
    /// over the mapped subwindows (paid on every zero-copy request).
    SgBuild,
    UsedPush,
    IrqInject,
    GuestWakeup,
    PollWait,
    WorkerSpawn,
    PfnFaultResolve,
    // device side
    UosSchedule,
    UosContextSwitch,
    CoiControl,
    DeviceSpawn,
    DeviceCompute,
    /// Anything not covered above (used by tests and extensions).
    Other(u32),
}

impl SpanLabel {
    /// True for spans introduced by virtualization — everything a native
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

/// One labelled charge of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub label: SpanLabel,
    pub duration: SimDuration,
}

/// An ordered record of the spans charged to one request.
///
/// A caller may keep one timeline across thousands of requests (a
/// `micnativeloadex` launch charges 850 spans into one), so what the
/// request path asks of it — [`charge`](Self::charge),
/// [`absorb`](Self::absorb), [`total`](Self::total) — is O(1) in the spans
/// already there; the methods that walk `spans` are for reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    spans: Vec<Span>,
    /// Sum of `spans`' durations, kept by every method that edits `spans`.
    total: SimDuration,
}

#[cfg(any(test, debug_assertions))]
thread_local! {
    static SPAN_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Spans the calling thread has been handed by a [`Timeline`] so far,
/// through the slice accessors (`spans`, `spans_from`) and the scanning
/// methods (`total_for`, `virtualization_overhead`, `breakdown`,
/// `Display`) — the tests' evidence that the request path walks none but
/// its own.  Compiled out of release builds.
#[cfg(any(test, debug_assertions))]
pub fn span_visits() -> u64 {
    SPAN_VISITS.with(std::cell::Cell::get)
}

#[inline]
fn visit(spans: &[Span]) -> &[Span] {
    #[cfg(any(test, debug_assertions))]
    SPAN_VISITS.with(|v| v.set(v.get() + spans.len() as u64));
    spans
}

impl Timeline {
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Pre-size for a known span count (hot-path requests charge ~12 spans).
    pub fn with_capacity(n: usize) -> Self {
        Timeline { spans: Vec::with_capacity(n), total: SimDuration::ZERO }
    }

    /// Charge `duration` under `label`.  Zero-duration charges are dropped
    /// to keep breakdowns readable.
    pub fn charge(&mut self, label: SpanLabel, duration: SimDuration) {
        if !duration.is_zero() {
            self.spans.push(Span { label, duration });
            self.total += duration;
        }
    }

    /// Append all spans of `other` (used when a sub-path, e.g. the host
    /// SCIF call made by the backend, returns its own timeline).
    pub fn absorb(&mut self, other: &Timeline) {
        self.spans.extend_from_slice(&other.spans);
        self.total += other.total;
    }

    /// Every span, for a report.  Not for the request path: the caller's
    /// timeline may hold thousands.
    pub fn spans(&self) -> &[Span] {
        visit(&self.spans)
    }

    /// The spans charged since the timeline was [`len`](Self::len) `start`
    /// long — one request's own slice of a timeline its caller reuses.
    pub fn spans_from(&self, start: usize) -> &[Span] {
        visit(&self.spans[start.min(self.spans.len())..])
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total virtual time across all spans — the request's latency.
    pub fn total(&self) -> SimDuration {
        self.total
    }

    /// Total charged under one label.
    pub fn total_for(&self, label: SpanLabel) -> SimDuration {
        visit(&self.spans).iter().filter(|s| s.label == label).map(|s| s.duration).sum()
    }

    /// Total charged to virtualization-overhead labels.
    pub fn virtualization_overhead(&self) -> SimDuration {
        visit(&self.spans)
            .iter()
            .filter(|s| s.label.is_virtualization_overhead())
            .map(|s| s.duration)
            .sum()
    }

    /// Collapse to `(label, total)` pairs in first-appearance order.
    pub fn breakdown(&self) -> Vec<(SpanLabel, SimDuration)> {
        let mut out: Vec<(SpanLabel, SimDuration)> = Vec::new();
        for s in visit(&self.spans) {
            match out.iter_mut().find(|(l, _)| *l == s.label) {
                Some((_, d)) => *d += s.duration,
                None => out.push((s.label, s.duration)),
            }
        }
        out
    }

    pub fn clear(&mut self) {
        self.spans.clear();
        self.total = SimDuration::ZERO;
    }
}

impl fmt::Display for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "timeline total={}", self.total())?;
        for (label, d) in self.breakdown() {
            let pct = if self.total().is_zero() {
                0.0
            } else {
                100.0 * d.as_nanos() as f64 / self.total().as_nanos() as f64
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
        assert_eq!(t.spans().len(), 3);
    }

    #[test]
    fn zero_charges_are_dropped() {
        let mut t = Timeline::new();
        t.charge(SpanLabel::RingPush, SimDuration::ZERO);
        assert!(t.is_empty());
    }

    #[test]
    fn breakdown_merges_labels_in_order() {
        let mut t = Timeline::new();
        t.charge(SpanLabel::RingPush, us(1));
        t.charge(SpanLabel::IrqInject, us(2));
        t.charge(SpanLabel::RingPush, us(3));
        let b = t.breakdown();
        assert_eq!(b, vec![(SpanLabel::RingPush, us(4)), (SpanLabel::IrqInject, us(2))]);
    }

    #[test]
    fn absorb_concatenates() {
        let mut a = Timeline::new();
        a.charge(SpanLabel::GuestSyscall, us(1));
        let mut b = Timeline::new();
        b.charge(SpanLabel::HostSyscall, us(2));
        a.absorb(&b);
        assert_eq!(a.total(), us(3));
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
