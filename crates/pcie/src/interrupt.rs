//! MSI interrupt vectors.
//!
//! The device raises an MSI when DMA completes or a mailbox fills; the host
//! SCIF driver's handler runs and wakes blocked callers.  In the VM path,
//! the *QEMU backend* raises a virtual interrupt into the guest the same
//! way (the `vmm` crate builds its IRQ chip on the same abstraction).

use std::sync::Arc;
use vphi_sync::{Counter, LockClass, TrackedMutex};

use vphi_sim_core::{SpanLabel, Timeline};

/// A handler invoked when the vector fires.  Handlers run synchronously on
/// the raising thread — the raise cost models hardware delivery latency,
/// and handlers are expected to do minimal work (wake a queue).
pub trait InterruptHandler: Send + Sync {
    fn handle(&self, vector: u32, tl: &mut Timeline);
}

impl<F: Fn(u32, &mut Timeline) + Send + Sync> InterruptHandler for F {
    fn handle(&self, vector: u32, tl: &mut Timeline) {
        self(vector, tl)
    }
}

/// One MSI vector with a registered handler chain.
pub struct MsiVector {
    vector: u32,
    handlers: TrackedMutex<Vec<Arc<dyn InterruptHandler>>>,
    raised: Counter,
}

impl std::fmt::Debug for MsiVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MsiVector")
            .field("vector", &self.vector)
            .field("raised", &self.raised.get())
            .finish()
    }
}

impl MsiVector {
    pub fn new(vector: u32) -> Self {
        MsiVector {
            vector,
            handlers: TrackedMutex::new(LockClass::MsiHandlers, Vec::new()),
            raised: Counter::new(0),
        }
    }

    pub fn vector(&self) -> u32 {
        self.vector
    }

    pub fn register(&self, handler: Arc<dyn InterruptHandler>) {
        self.handlers.lock().push(handler);
    }

    /// Fire the vector: charges delivery latency to `tl` (as
    /// [`SpanLabel::IrqInject`]) and runs all handlers.
    pub fn raise(&self, tl: &mut Timeline, delivery: vphi_sim_core::SimDuration) {
        tl.charge(SpanLabel::IrqInject, delivery);
        self.raised.bump();
        let handlers: Vec<Arc<dyn InterruptHandler>> = self.handlers.lock().clone();
        for h in handlers {
            h.handle(self.vector, tl);
        }
    }

    pub fn raise_count(&self) -> u64 {
        self.raised.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vphi_sim_core::SimDuration;

    #[test]
    fn raise_runs_handlers_and_charges_delivery() {
        let v = MsiVector::new(5);
        let hits = Arc::new(Counter::new(0));
        let h = Arc::clone(&hits);
        v.register(Arc::new(move |vec: u32, _tl: &mut Timeline| {
            assert_eq!(vec, 5);
            h.bump();
        }));
        let mut tl = Timeline::new();
        v.raise(&mut tl, SimDuration::from_micros(9));
        assert_eq!(hits.get(), 1);
        assert_eq!(tl.total_for(SpanLabel::IrqInject), SimDuration::from_micros(9));
        assert_eq!(v.raise_count(), 1);
    }

    #[test]
    fn multiple_handlers_all_run() {
        let v = MsiVector::new(0);
        let hits = Arc::new(Counter::new(0));
        for _ in 0..3 {
            let h = Arc::clone(&hits);
            v.register(Arc::new(move |_: u32, _: &mut Timeline| {
                h.bump();
            }));
        }
        let mut tl = Timeline::new();
        v.raise(&mut tl, SimDuration::ZERO);
        assert_eq!(hits.get(), 3);
    }

    #[test]
    fn handler_may_charge_spans() {
        let v = MsiVector::new(1);
        v.register(Arc::new(|_: u32, tl: &mut Timeline| {
            tl.charge(SpanLabel::GuestWakeup, SimDuration::from_micros(349));
        }));
        let mut tl = Timeline::new();
        v.raise(&mut tl, SimDuration::from_micros(9));
        assert_eq!(tl.total(), SimDuration::from_micros(358));
    }
}
