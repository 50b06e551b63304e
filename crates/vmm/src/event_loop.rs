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
//!
//! Blocking events are counted where they run: each executor (one per
//! virtqueue lane) owns a [`PauseLedger`] it alone writes, holding the
//! lane's executor role, so counting an event costs no atomic
//! read-modify-write.  The VM's totals are the sum over its lanes.

use std::sync::Arc;

use vphi_sim_core::{CostModel, SimDuration, SpanLabel, Timeline};
use vphi_sync::{Counter, Tally, TrackedRoleGuard};

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

/// One executor's blocking events and the virtual time they froze the VM
/// for.  Written only by the holder of the executor's role.
#[derive(Debug, Default)]
pub struct PauseLedger {
    events: Tally,
    paused_ns: Tally,
}

impl PauseLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocking events run so far.
    pub fn events(&self) -> u64 {
        self.events.get()
    }

    /// Virtual time those events froze the VM for.
    pub fn paused(&self) -> SimDuration {
        SimDuration::from_nanos(self.paused_ns.get())
    }
}

/// The per-VM (per-QEMU-process) event loop.
pub struct QemuEventLoop {
    cost: Arc<CostModel>,
    worker_events: Counter,
    live_workers: Arc<Counter>,
}

impl std::fmt::Debug for QemuEventLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QemuEventLoop").field("worker_events", &self.worker_events.get()).finish()
    }
}

impl QemuEventLoop {
    pub fn new(cost: Arc<CostModel>) -> Self {
        QemuEventLoop {
            cost,
            worker_events: Counter::new(0),
            live_workers: Arc::new(Counter::new(0)),
        }
    }

    /// Run `handler` in the event loop: the whole VM pauses for it, and
    /// the spans it charges are counted as pause time on `ledger`, the
    /// ledger of the executor whose role `held` is.
    pub fn run_blocking<R>(
        &self,
        ledger: &PauseLedger,
        held: &TrackedRoleGuard<'_>,
        tl: &mut Timeline,
        handler: impl FnOnce(&mut Timeline) -> R,
    ) -> R {
        ledger.events.bump(held);
        let before = tl.total();
        let r = handler(tl);
        ledger.paused_ns.add(tl.total().saturating_sub(before).as_nanos(), held);
        r
    }

    /// Run `handler` as a worker's event: the VM keeps running, and the
    /// worker's spawn/retire cost is charged instead.
    pub fn run_worker<R>(&self, tl: &mut Timeline, handler: impl FnOnce(&mut Timeline) -> R) -> R {
        self.worker_events.bump();
        tl.charge(SpanLabel::WorkerSpawn, self.cost.worker_spawn);
        handler(tl)
    }

    /// Run a long-lived detached worker on a real thread (used for the
    /// backend's `scif_accept` service loop).  The VM is not paused.  The
    /// thread is what is counted live here; the event itself is counted,
    /// and charged, by the [`run_worker`](Self::run_worker) the worker
    /// makes.
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

    use vphi_sync::{LockClass, TrackedRole};

    fn el() -> QemuEventLoop {
        QemuEventLoop::new(Arc::new(CostModel::paper_calibrated()))
    }

    #[test]
    fn blocking_handler_accumulates_pause_time() {
        let (e, ledger, role) = (el(), PauseLedger::new(), TrackedRole::new(LockClass::TestOuter));
        let mut tl = Timeline::new();
        let r = e.run_blocking(&ledger, &role.enter(), &mut tl, |tl| {
            tl.charge(SpanLabel::HostSyscall, SimDuration::from_micros(100));
            7
        });
        assert_eq!(r, 7);
        assert_eq!(ledger.paused(), SimDuration::from_micros(100));
        assert_eq!(ledger.events(), 1);
        assert_eq!(e.worker_event_count(), 0);
    }

    #[test]
    fn worker_dispatch_charges_spawn_not_pause() {
        let e = el();
        let mut tl = Timeline::new();
        e.run_worker(&mut tl, |tl| {
            tl.charge(SpanLabel::HostSyscall, SimDuration::from_micros(100));
        });
        assert_eq!(
            tl.total_for(SpanLabel::WorkerSpawn),
            CostModel::paper_calibrated().worker_spawn
        );
        assert_eq!(e.worker_event_count(), 1);
    }

    #[test]
    fn pause_time_accumulates_across_events() {
        let (e, ledger, role) = (el(), PauseLedger::new(), TrackedRole::new(LockClass::TestOuter));
        let mut tl = Timeline::new();
        for _ in 0..3 {
            e.run_blocking(&ledger, &role.enter(), &mut tl, |tl| {
                tl.charge(SpanLabel::LinkTransfer, SimDuration::from_micros(10));
            });
        }
        assert_eq!(ledger.paused(), SimDuration::from_micros(30));
        assert_eq!(ledger.events(), 3);
    }

    /// A blocking handler runs with the whole VM paused, so a lock either
    /// entry point waited on would stall the guest with it: neither takes
    /// a tracked lock, signals a condvar or — for a blocking event, whose
    /// ledger its executor owns — executes an atomic read-modify-write.
    /// Debug and `sync-audit` builds count all three per thread; a build
    /// without the audit reads zero throughout.
    #[test]
    fn run_takes_no_lock_of_its_own() {
        use vphi_sync::audit::{thread_acquisitions, thread_rmws, thread_signals};
        let (e, ledger, role) = (el(), PauseLedger::new(), TrackedRole::new(LockClass::TestOuter));
        let mut tl = Timeline::new();
        let held = role.enter();
        let (locks, signals, rmws) = (thread_acquisitions(), thread_signals(), thread_rmws());
        e.run_blocking(&ledger, &held, &mut tl, |_| ());
        assert_eq!(thread_acquisitions(), locks, "a blocking event took a lock");
        assert_eq!(thread_signals(), signals, "a blocking event signalled a condvar");
        assert_eq!(thread_rmws(), rmws, "a blocking event counted with an atomic RMW");
        let (locks, signals) = (thread_acquisitions(), thread_signals());
        e.run_worker(&mut tl, |_| ());
        assert_eq!(thread_acquisitions(), locks, "a worker event took a lock");
        assert_eq!(thread_signals(), signals, "a worker event signalled a condvar");
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
