//! QEMU's event-driven execution model.
//!
//! "QEMU handles events as they are produced and during that time the
//! whole VM is in blocking mode … In a few cases … it spawns a worker
//! thread that executes the long-running handling of the event, and falls
//! back to the event-driven mode unfreezing the VM." (paper §III)
//!
//! vPHI picks blocking dispatch for most SCIF ops and worker dispatch for
//! indefinite waits (`scif_accept`).  A blocking handler runs on whichever
//! host thread services the kick: the guest thread that took the vm-exit
//! when it is a blocking call's own (as on KVM, where the vCPU thread that
//! exits runs the handler — and the caller, frozen with the rest of the
//! VM, had nothing to overlap with anyway), the backend's per-lane service
//! thread otherwise (DESIGN.md #21).  We track both modes' virtual costs:
//! blocking handlers accumulate **VM pause time** (the guest can't run),
//! workers charge a spawn/retire overhead instead — the exact trade-off
//! the paper discusses and the ABL-BLOCK ablation sweeps.

use std::sync::Arc;

use vphi_sim_core::{CostModel, SimDuration, SpanLabel, Timeline};
use vphi_sync::Counter;

/// Dispatch policy for one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Run in the event loop; the whole VM pauses for the handler's
    /// duration.
    Blocking,
    /// Run on a worker thread; the VM keeps running, at a thread
    /// spawn/retire cost.
    Worker,
}

/// The per-VM (per-QEMU-process) event loop.
pub struct QemuEventLoop {
    cost: Arc<CostModel>,
    vm_paused_ns: Counter,
    blocking_events: Counter,
    worker_events: Counter,
    live_workers: Arc<Counter>,
}

impl std::fmt::Debug for QemuEventLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QemuEventLoop")
            .field("blocking_events", &self.blocking_events.get())
            .field("worker_events", &self.worker_events.get())
            .finish()
    }
}

impl QemuEventLoop {
    pub fn new(cost: Arc<CostModel>) -> Self {
        QemuEventLoop {
            cost,
            vm_paused_ns: Counter::new(0),
            blocking_events: Counter::new(0),
            worker_events: Counter::new(0),
            live_workers: Arc::new(Counter::new(0)),
        }
    }

    /// Run `handler` with the chosen dispatch.  The handler receives the
    /// timeline and returns its result; its charged spans between entry
    /// and exit are attributed as pause time when blocking.
    pub fn run<R>(
        &self,
        dispatch: Dispatch,
        tl: &mut Timeline,
        handler: impl FnOnce(&mut Timeline) -> R,
    ) -> R {
        match dispatch {
            Dispatch::Blocking => {
                self.blocking_events.bump();
                let before = tl.total();
                let r = handler(tl);
                let handler_time = tl.total().saturating_sub(before);
                self.vm_paused_ns.add(handler_time.as_nanos());
                r
            }
            Dispatch::Worker => {
                self.worker_events.bump();
                tl.charge(SpanLabel::WorkerSpawn, self.cost.worker_spawn);
                handler(tl)
            }
        }
    }

    /// Run a long-lived detached worker on a real thread (used for the
    /// backend's `scif_accept` service loop).  The VM is not paused.  The
    /// thread is what is counted live here; the event itself is counted,
    /// and charged, by the [`run`](Self::run) the worker makes.
    pub fn spawn_worker<F>(&self, name: &str, f: F) -> std::thread::JoinHandle<()>
    where
        F: FnOnce() + Send + 'static,
    {
        self.live_workers.bump();
        let guard = WorkerGuard { live: Arc::clone(&self.live_workers) };
        std::thread::Builder::new()
            .name(format!("qemu-worker-{name}"))
            .spawn(move || {
                let _guard = guard;
                f();
            })
            .expect("spawn qemu worker")
    }

    /// Total virtual time the VM has been frozen by blocking handlers.
    pub fn vm_paused_total(&self) -> SimDuration {
        SimDuration::from_nanos(self.vm_paused_ns.get())
    }

    pub fn blocking_event_count(&self) -> u64 {
        self.blocking_events.get()
    }

    pub fn worker_event_count(&self) -> u64 {
        self.worker_events.get()
    }

    pub fn live_worker_count(&self) -> u64 {
        self.live_workers.get()
    }
}

struct WorkerGuard {
    live: Arc<Counter>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.live.sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn el() -> QemuEventLoop {
        QemuEventLoop::new(Arc::new(CostModel::paper_calibrated()))
    }

    #[test]
    fn blocking_handler_accumulates_pause_time() {
        let e = el();
        let mut tl = Timeline::new();
        let r = e.run(Dispatch::Blocking, &mut tl, |tl| {
            tl.charge(SpanLabel::HostSyscall, SimDuration::from_micros(100));
            7
        });
        assert_eq!(r, 7);
        assert_eq!(e.vm_paused_total(), SimDuration::from_micros(100));
        assert_eq!(e.blocking_event_count(), 1);
        assert_eq!(e.worker_event_count(), 0);
    }

    #[test]
    fn worker_dispatch_charges_spawn_not_pause() {
        let e = el();
        let mut tl = Timeline::new();
        e.run(Dispatch::Worker, &mut tl, |tl| {
            tl.charge(SpanLabel::HostSyscall, SimDuration::from_micros(100));
        });
        assert_eq!(e.vm_paused_total(), SimDuration::ZERO);
        assert_eq!(
            tl.total_for(SpanLabel::WorkerSpawn),
            CostModel::paper_calibrated().worker_spawn
        );
        assert_eq!(e.worker_event_count(), 1);
    }

    #[test]
    fn pause_time_accumulates_across_events() {
        let e = el();
        let mut tl = Timeline::new();
        for _ in 0..3 {
            e.run(Dispatch::Blocking, &mut tl, |tl| {
                tl.charge(SpanLabel::LinkTransfer, SimDuration::from_micros(10));
            });
        }
        assert_eq!(e.vm_paused_total(), SimDuration::from_micros(30));
        assert_eq!(e.blocking_event_count(), 3);
    }

    /// A blocking handler runs with the whole VM paused, so a lock `run`
    /// waited on would stall the guest with it: `run` itself takes no
    /// tracked lock and signals no condvar, under either dispatch.  Debug
    /// and `sync-audit` builds count both per thread; a build without the
    /// audit reads zero throughout.
    #[test]
    fn run_takes_no_lock_of_its_own() {
        use vphi_sync::audit::{thread_acquisitions, thread_signals};
        let e = el();
        let mut tl = Timeline::new();
        for dispatch in [Dispatch::Blocking, Dispatch::Worker] {
            let (locks, signals) = (thread_acquisitions(), thread_signals());
            e.run(dispatch, &mut tl, |_| ());
            assert_eq!(thread_acquisitions(), locks, "{dispatch:?} took a lock");
            assert_eq!(thread_signals(), signals, "{dispatch:?} signalled a condvar");
        }
    }

    #[test]
    fn detached_worker_runs_and_retires() {
        let e = el();
        let done = Arc::new(vphi_sync::Flag::new(false));
        let d2 = Arc::clone(&done);
        let h = e.spawn_worker("test", move || {
            d2.set();
        });
        h.join().unwrap();
        assert!(done.get());
    }
}
