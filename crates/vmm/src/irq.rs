//! The virtual interrupt controller.
//!
//! The vPHI backend "notifies the guest via a virtual interrupt" (paper
//! §III).  We reuse the MSI vector model from the PCIe crate: QEMU raising
//! a vector charges the injection latency; the backend counts the raise
//! and wakes the requester itself.

use std::collections::HashMap;
use std::sync::Arc;

use vphi_pcie::MsiVector;
use vphi_sim_core::{CostModel, Timeline};
use vphi_sync::{LockClass, TrackedMutex};

/// A per-VM interrupt controller.
pub struct IrqChip {
    cost: Arc<CostModel>,
    vectors: TrackedMutex<HashMap<u32, Arc<MsiVector>>>,
}

impl std::fmt::Debug for IrqChip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IrqChip").field("vectors", &self.vectors.lock().len()).finish()
    }
}

/// One vector of a chip, looked up once: what a device that always raises
/// the same vector holds, so that an injection is the raise and nothing
/// else.
pub struct IrqLine {
    vector: Arc<MsiVector>,
    cost: Arc<CostModel>,
}

impl IrqLine {
    /// Inject the line's vector into the guest, charging the injection
    /// cost.
    pub fn inject(&self, tl: &mut Timeline) {
        self.vector.raise(tl, self.cost.irq_inject);
    }
}

impl IrqChip {
    pub fn new(cost: Arc<CostModel>) -> Self {
        IrqChip { cost, vectors: TrackedMutex::new(LockClass::IrqVectors, HashMap::new()) }
    }

    /// Get (or create) a vector.
    pub fn vector(&self, n: u32) -> Arc<MsiVector> {
        Arc::clone(self.vectors.lock().entry(n).or_insert_with(|| Arc::new(MsiVector::new(n))))
    }

    /// Vector `n` as a line of its own.
    pub fn line(&self, n: u32) -> IrqLine {
        IrqLine { vector: self.vector(n), cost: Arc::clone(&self.cost) }
    }

    /// Inject vector `n` into the guest, charging the injection cost.
    #[expect(clippy::disallowed_methods, reason = "the chip resolving a vector to its own line")]
    pub fn inject(&self, n: u32, tl: &mut Timeline) {
        self.line(n).inject(tl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vphi_sim_core::SpanLabel;

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the chip's own unit tests")]
    fn inject_charges_cost_and_counts() {
        let cost = Arc::new(CostModel::paper_calibrated());
        let chip = IrqChip::new(Arc::clone(&cost));
        let mut tl = Timeline::new();
        chip.inject(3, &mut tl);
        assert_eq!(tl.total_for(SpanLabel::IrqInject), cost.irq_inject);
        assert_eq!(tl.total(), cost.irq_inject, "an injection charges nothing else");
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the chip's own unit tests")]
    fn vectors_are_independent_and_stable() {
        let chip = IrqChip::new(Arc::new(CostModel::paper_calibrated()));
        let v1 = chip.vector(1);
        let v1_again = chip.vector(1);
        assert!(Arc::ptr_eq(&v1, &v1_again));
        let mut tl = Timeline::new();
        assert!(!Arc::ptr_eq(&v1, &chip.vector(2)));
        chip.inject(1, &mut tl);
        // A line is the same vector, resolved ahead of time.
        chip.line(1).inject(&mut tl);
        assert_eq!(tl.total_for(SpanLabel::IrqInject), chip.cost.irq_inject * 2);
    }
}
