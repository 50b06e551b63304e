//! The frontend's waiting schemes.
//!
//! The paper implements the **interrupt-based** scheme ("we choose the
//! interrupt-based approach, adding up some extra overhead when the driver
//! sets up the sleeping mechanism, in favor of better performance when the
//! number of parallel requests increases") and measures it at 93% of the
//! 375 µs small-message overhead.  It proposes a **hybrid** model as
//! future work: "near-native latency for small data sizes, while retaining
//! acceptable transfer rate for larger ones."  We generalize that hybrid
//! into [`WaitScheme::Adaptive`]: every requester spins up to a budget,
//! then sleeps until its completion's interrupt.  The paper's
//! static size cut-off is recovered as the fixed-budget special case
//! ([`WaitScheme::STATIC_HYBRID`]); the default budget is learned per
//! (op, payload-bucket) from an EWMA of recent service times (DESIGN.md
//! #16).  All four arms are compared in the ABL-WAIT ablation.

use vphi_sim_core::SimDuration;

/// How the spin budget of an [`Adaptive`](WaitScheme::Adaptive) waiter is
/// chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpinBudget {
    /// Learned: 1.5× the per-(op, payload-bucket) EWMA of recent backend
    /// service times, seeded from the calibrated fast-path floor.
    Ewma,
    /// Fixed: spin exactly this long for every request regardless of op
    /// or size — the paper's proposed static hybrid, expressed as a time
    /// budget instead of a byte threshold.
    Fixed(SimDuration),
}

/// How a requesting guest thread waits for its reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitScheme {
    /// Sleep immediately; the backend interrupts on every completion (the
    /// paper's implementation, the calibrated 382 µs anchor).
    Interrupt,
    /// Busy-wait on the shared ring: minimal latency, burns the vCPU, and
    /// never needs an interrupt (the backend suppresses every MSI).
    Polling,
    /// Spin up to a budget, then sleep until the completion's interrupt
    /// (or, for a batch follower, the interrupt that delivers it).
    Adaptive(SpinBudget),
}

impl WaitScheme {
    /// The adaptive default: EWMA-derived budgets.
    pub const ADAPTIVE: WaitScheme = WaitScheme::Adaptive(SpinBudget::Ewma);

    /// The paper's static hybrid as a fixed budget: 22 µs is just above
    /// the calibrated no-wait fast path, so short ops are caught spinning
    /// and bulk transfers sleep.
    pub const STATIC_HYBRID: WaitScheme =
        WaitScheme::Adaptive(SpinBudget::Fixed(SimDuration::from_micros(22)));

    /// Ablation-row label.
    pub fn label(self) -> &'static str {
        match self {
            WaitScheme::Interrupt => "interrupt",
            WaitScheme::Polling => "busy-poll",
            WaitScheme::Adaptive(SpinBudget::Ewma) => "adaptive",
            WaitScheme::Adaptive(SpinBudget::Fixed(_)) => "static-hybrid",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(WaitScheme::Interrupt.label(), "interrupt");
        assert_eq!(WaitScheme::Polling.label(), "busy-poll");
        assert_eq!(WaitScheme::ADAPTIVE.label(), "adaptive");
        assert_eq!(WaitScheme::STATIC_HYBRID.label(), "static-hybrid");
        assert_eq!(
            WaitScheme::Adaptive(SpinBudget::Fixed(SimDuration::from_micros(5))).label(),
            "static-hybrid"
        );
    }

    #[test]
    fn static_hybrid_budget_catches_the_minimal_backend_service() {
        // The fixed budget must exceed the smallest possible backend
        // service time (decode + buffer map + used push), so a 1-byte op
        // is caught spinning, and must sit far below the wake-up cost, so
        // sleeping for bulk transfers still wins.
        let cost = vphi_sim_core::CostModel::paper_calibrated();
        let WaitScheme::Adaptive(SpinBudget::Fixed(budget)) = WaitScheme::STATIC_HYBRID else {
            panic!("static hybrid must be a fixed budget");
        };
        assert!(budget > cost.backend_decode + cost.guest_buf_map + cost.used_push);
        assert!(budget < cost.guest_wakeup);
    }
}
