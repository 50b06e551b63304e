//! The **§IV-B breakdown**: where vPHI's small-message overhead goes.
//!
//! "Based on the breakdown analysis, we conclude that 93% of this overhead
//! attributes to the waiting scheme of vPHI inside the frontend driver."

use vphi::builder::{VmConfig, VphiHost};
use vphi_dev_support::guest_send_once;
use vphi_sim_core::{SimDuration, SpanLabel};

/// One overhead component.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    pub label: SpanLabel,
    pub time: SimDuration,
    /// Share of the total *virtualization overhead* (native-path spans are
    /// reported with share 0).
    pub overhead_share: f64,
}

/// Regenerate the 1-byte-send breakdown.
pub fn breakdown_one_byte() -> (SimDuration, SimDuration, Vec<BreakdownRow>) {
    let send_tl = guest_send_once(&VphiHost::new(1), VmConfig::default(), &[1]);

    let total = send_tl.total();
    let overhead = send_tl.virtualization_overhead();
    let rows = send_tl
        .breakdown()
        .into_iter()
        .map(|(label, time)| BreakdownRow {
            label,
            time,
            overhead_share: if label.is_virtualization_overhead() && !overhead.is_zero() {
                time.as_nanos() as f64 / overhead.as_nanos() as f64
            } else {
                0.0
            },
        })
        .collect();
    (total, overhead, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiting_scheme_is_93_percent_of_overhead() {
        let (total, overhead, rows) = breakdown_one_byte();
        assert_eq!(total, SimDuration::from_micros(382));
        assert_eq!(overhead, SimDuration::from_micros(375));
        let wakeup =
            rows.iter().find(|r| r.label == SpanLabel::GuestWakeup).expect("wakeup span present");
        assert!((wakeup.overhead_share - 0.93).abs() < 0.001, "share = {}", wakeup.overhead_share);
        // Shares of overhead spans sum to 1.
        let sum: f64 = rows.iter().map(|r| r.overhead_share).sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
    }
}
