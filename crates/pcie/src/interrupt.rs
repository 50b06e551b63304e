//! MSI interrupt vectors.
//!
//! The device raises an MSI when DMA completes or a mailbox fills.  In the
//! VM path, the *QEMU backend* raises a virtual interrupt into the guest
//! the same way (the `vmm` crate builds its IRQ chip on the same
//! abstraction).  Nothing runs on a raise: whoever the interrupt is for is
//! woken by the code that raised it (a completion wakes its token's
//! waiter), so a vector is its delivery latency.  Raises are counted by
//! whoever decides them (the vPHI backend's lane notifier), not here.

use vphi_sim_core::{SimDuration, SpanLabel, Timeline};

/// One MSI vector.
#[derive(Debug)]
pub struct MsiVector {
    vector: u32,
}

impl MsiVector {
    pub fn new(vector: u32) -> Self {
        MsiVector { vector }
    }

    pub fn vector(&self) -> u32 {
        self.vector
    }

    /// Fire the vector: charges delivery latency to `tl` (as
    /// [`SpanLabel::IrqInject`]).
    pub fn raise(&self, tl: &mut Timeline, delivery: SimDuration) {
        tl.charge(SpanLabel::IrqInject, delivery);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_charges_delivery_and_counts() {
        let v = MsiVector::new(5);
        let mut tl = Timeline::new();
        v.raise(&mut tl, SimDuration::from_micros(9));
        v.raise(&mut tl, SimDuration::from_micros(9));
        assert_eq!(tl.total_for(SpanLabel::IrqInject), SimDuration::from_micros(18));
        assert_eq!(tl.total(), SimDuration::from_micros(18), "a raise charges nothing else");
        assert_eq!(v.vector(), 5);
    }
}
