//! Blocking vs non-blocking backend dispatch.
//!
//! "Following QEMU's approach, we choose the blocking mode for most SCIF
//! operations and a non-blocking mode for operations that otherwise would
//! potentially block the virtual machine for an unacceptable period of
//! time … we implement scif_accept() in a non-blocking way, since we do
//! not know beforehand when a corresponding scif_connect() request will
//! arrive." (paper §III)
//!
//! A blocking handler runs on whichever host thread services the kick:
//! the guest thread that took the vm-exit when it is a blocking call's own
//! (as on KVM, where the vCPU thread that exits runs the handler — and the
//! caller, frozen with the rest of the VM, had nothing to overlap with
//! anyway), the lane's service thread otherwise (DESIGN.md #21).  Both
//! modes' virtual costs are tracked: blocking handlers accumulate **VM
//! pause time** (the guest can't run), workers charge a spawn/retire
//! overhead instead — the trade-off the paper discusses and the ABL-BLOCK
//! ablation sweeps.
//!
//! Blocking events are counted where they run: each lane's executor owns
//! a [`PauseLedger`] it alone writes, holding the lane's executor role, so
//! counting an event costs no atomic read-modify-write.  The VM's totals
//! are the sum over its lanes.

use std::sync::Arc;

use vphi_sim_core::{CostModel, SimDuration, SpanLabel, Timeline};
use vphi_sync::{Counter, Tally, TrackedRoleGuard};

use crate::protocol::VphiRequest;

/// How one request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// In the event loop: the whole VM pauses for the handler's duration.
    Blocking,
    /// On a worker thread: the VM keeps running, at a thread spawn/retire
    /// cost.
    Worker,
}

/// One executor's blocking events and the virtual time they froze the VM
/// for.  Written only by the holder of the executor's role.
#[derive(Debug, Default)]
pub(super) struct PauseLedger {
    events: Tally,
    paused_ns: Tally,
}

impl PauseLedger {
    /// Blocking events run so far.
    pub(super) fn events(&self) -> u64 {
        self.events.get()
    }

    /// Virtual time those events froze the VM for.
    pub(super) fn paused(&self) -> SimDuration {
        SimDuration::from_nanos(self.paused_ns.get())
    }

    /// Run `handler` as a blocking event: the whole VM pauses for it, and
    /// the spans it charges are counted as pause time here, by `held`, the
    /// role of the executor this ledger belongs to.
    pub(super) fn run_blocking<R>(
        &self,
        held: &TrackedRoleGuard<'_>,
        tl: &mut Timeline,
        handler: impl FnOnce(&mut Timeline) -> R,
    ) -> R {
        self.events.bump(held);
        let before = tl.total();
        let r = handler(tl);
        self.paused_ns.add(tl.total().saturating_sub(before).as_nanos(), held);
        r
    }
}

/// One device's QEMU worker threads: the events handed to them, and the
/// threads running.
#[derive(Debug, Default)]
pub(super) struct Workers {
    events: Counter,
    live: Arc<Counter>,
}

impl Workers {
    /// Events run on a worker so far.
    pub(super) fn events(&self) -> u64 {
        self.events.get()
    }

    /// Worker threads started and not yet retired.
    pub(super) fn live(&self) -> u64 {
        self.live.get()
    }

    /// Run `handler` as a worker's event: the VM keeps running, and the
    /// worker's spawn/retire cost is charged instead.
    pub(super) fn run<R>(
        &self,
        cost: &CostModel,
        tl: &mut Timeline,
        handler: impl FnOnce(&mut Timeline) -> R,
    ) -> R {
        self.events.bump();
        tl.charge(SpanLabel::WorkerSpawn, cost.worker_spawn);
        handler(tl)
    }

    /// Start a detached worker thread, counted live until `f` returns (or
    /// unwinds).  The event itself is counted, and charged, by the
    /// [`run`](Self::run) the worker makes.
    pub(super) fn spawn(&self, name: &str, f: impl FnOnce() + Send + 'static) {
        struct Retire(Arc<Counter>);
        impl Drop for Retire {
            fn drop(&mut self) {
                self.0.sub(1);
            }
        }
        self.live.bump();
        let retire = Retire(Arc::clone(&self.live));
        std::thread::Builder::new()
            .name(format!("qemu-worker-{name}"))
            .spawn(move || {
                let _retire = retire;
                f();
            })
            .expect("spawn qemu worker");
    }
}

/// Bytes of payload a request moves (drives the size-based hybrid
/// dispatch the paper proposes as future work).
fn request_payload_len(req: &VphiRequest) -> u64 {
    match *req {
        VphiRequest::Send { len, .. } | VphiRequest::Recv { len, .. } => len as u64,
        VphiRequest::VreadFrom { len, .. }
        | VphiRequest::VwriteTo { len, .. }
        | VphiRequest::ReadFrom { len, .. }
        | VphiRequest::WriteTo { len, .. }
        | VphiRequest::SendTimed { len, .. }
        | VphiRequest::RecvTimed { len, .. } => len,
        _ => 0,
    }
}

/// The backend's configurable dispatch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchPolicy {
    /// Data transfers at or above this size run on a worker thread
    /// instead of blocking the VM.  `None` = the paper's implementation
    /// (all data transfers block); `Some(0)` = everything on workers.
    pub worker_above: Option<u64>,
}

impl DispatchPolicy {
    /// The paper's prototype: `scif_accept` on a worker, everything else
    /// blocking.
    pub const PAPER: DispatchPolicy = DispatchPolicy { worker_above: None };

    /// The paper's proposed hybrid: transfers ≥ `bytes` go to workers.
    pub const fn hybrid(bytes: u64) -> DispatchPolicy {
        DispatchPolicy { worker_above: Some(bytes) }
    }

    pub fn dispatch(&self, req: &VphiRequest) -> Dispatch {
        match req {
            // scif_accept may wait forever — never block the VM on it.
            VphiRequest::Accept { .. } => Dispatch::Worker,
            // A poll with a timeout can park for its whole timeout.
            VphiRequest::Poll { timeout_ms, .. } if *timeout_ms > 0 => Dispatch::Worker,
            _ => match self.worker_above {
                Some(threshold) if request_payload_len(req) >= threshold => Dispatch::Worker,
                _ => Dispatch::Blocking,
            },
        }
    }
}

impl Default for DispatchPolicy {
    fn default() -> Self {
        DispatchPolicy::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use vphi_sync::{LockClass, TrackedRole};

    fn parts() -> (PauseLedger, TrackedRole, Workers, CostModel) {
        let role = TrackedRole::new(LockClass::TestOuter);
        (PauseLedger::default(), role, Workers::default(), CostModel::paper_calibrated())
    }

    #[test]
    fn blocking_handler_accumulates_pause_time() {
        let (ledger, role, workers, _) = parts();
        let mut tl = Timeline::new();
        let r = ledger.run_blocking(&role.enter(), &mut tl, |tl| {
            tl.charge(SpanLabel::HostSyscall, SimDuration::from_micros(100));
            7
        });
        assert_eq!(r, 7);
        assert_eq!(ledger.paused(), SimDuration::from_micros(100));
        assert_eq!(ledger.events(), 1);
        assert_eq!(workers.events(), 0);
    }

    #[test]
    fn worker_dispatch_charges_spawn_not_pause() {
        let (_, _, workers, cost) = parts();
        let mut tl = Timeline::new();
        workers.run(&cost, &mut tl, |tl| {
            tl.charge(SpanLabel::HostSyscall, SimDuration::from_micros(100));
        });
        assert_eq!(tl.total_for(SpanLabel::WorkerSpawn), cost.worker_spawn);
        assert_eq!(workers.events(), 1);
    }

    #[test]
    fn pause_time_accumulates_across_events() {
        let (ledger, role, _, _) = parts();
        let mut tl = Timeline::new();
        for _ in 0..3 {
            ledger.run_blocking(&role.enter(), &mut tl, |tl| {
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
        let (ledger, role, workers, cost) = parts();
        let mut tl = Timeline::new();
        let held = role.enter();
        let (locks, signals, rmws) = (thread_acquisitions(), thread_signals(), thread_rmws());
        ledger.run_blocking(&held, &mut tl, |_| ());
        assert_eq!(thread_acquisitions(), locks, "a blocking event took a lock");
        assert_eq!(thread_signals(), signals, "a blocking event signalled a condvar");
        assert_eq!(thread_rmws(), rmws, "a blocking event counted with an atomic RMW");
        let (locks, signals) = (thread_acquisitions(), thread_signals());
        workers.run(&cost, &mut tl, |_| ());
        assert_eq!(thread_acquisitions(), locks, "a worker event took a lock");
        assert_eq!(thread_signals(), signals, "a worker event signalled a condvar");
    }

    #[test]
    fn detached_worker_runs_and_retires() {
        let (_, _, workers, _) = parts();
        let (done, ran) = std::sync::mpsc::channel();
        workers.spawn("test", move || done.send(()).unwrap());
        ran.recv().unwrap();
        while workers.live() > 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn accept_goes_to_a_worker() {
        assert_eq!(
            DispatchPolicy::PAPER.dispatch(&VphiRequest::Accept { epd: 1 }),
            Dispatch::Worker
        );
    }

    #[test]
    fn hybrid_policy_moves_large_transfers_to_workers() {
        let p = DispatchPolicy::hybrid(1 << 20);
        assert_eq!(p.dispatch(&VphiRequest::Send { epd: 1, len: 4096 }), Dispatch::Blocking);
        assert_eq!(p.dispatch(&VphiRequest::Send { epd: 1, len: 1 << 20 }), Dispatch::Worker);
        assert_eq!(
            p.dispatch(&VphiRequest::VreadFrom { epd: 1, roffset: 0, len: 2 << 20, flags: 0 }),
            Dispatch::Worker
        );
        // Accept stays on a worker regardless.
        assert_eq!(p.dispatch(&VphiRequest::Accept { epd: 1 }), Dispatch::Worker);
        assert_eq!(p.dispatch(&VphiRequest::Open), Dispatch::Blocking);
    }

    #[test]
    fn payload_lengths() {
        assert_eq!(request_payload_len(&VphiRequest::Open), 0);
        assert_eq!(request_payload_len(&VphiRequest::Send { epd: 1, len: 9 }), 9);
        assert_eq!(request_payload_len(&VphiRequest::SendTimed { epd: 1, len: 1 << 30 }), 1 << 30);
    }

    #[test]
    fn data_transfers_block_the_vm() {
        assert_eq!(
            DispatchPolicy::PAPER.dispatch(&VphiRequest::Send { epd: 1, len: 4096 }),
            Dispatch::Blocking
        );
        assert_eq!(
            DispatchPolicy::PAPER.dispatch(&VphiRequest::Recv { epd: 1, len: 4096 }),
            Dispatch::Blocking
        );
        assert_eq!(
            DispatchPolicy::PAPER.dispatch(&VphiRequest::VreadFrom {
                epd: 1,
                roffset: 0,
                len: 1,
                flags: 0
            }),
            Dispatch::Blocking
        );
        assert_eq!(DispatchPolicy::PAPER.dispatch(&VphiRequest::Open), Dispatch::Blocking);
        assert_eq!(
            DispatchPolicy::PAPER.dispatch(&VphiRequest::Connect { epd: 1, node: 1, port: 2 }),
            Dispatch::Blocking
        );
    }
}
