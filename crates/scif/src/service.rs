//! A card-side server: one listening endpoint, one accept loop, and a pool
//! of parked worker threads that serve the connections.
//!
//! Every experiment in the paper has this shape — "a SCIF server on the
//! device" (Figs. 4–5), the `coi_daemon` "executed after uOS has booted"
//! (Figs. 6–8), sshd over mic0 (§IV-A) — so the `coi`, shell and net
//! daemons and every test sink, echo and window server are a
//! [`CardService`] plus their own session function.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use vphi_sim_core::Timeline;
use vphi_sync::{LockClass, TrackedCondvar, TrackedMutex};

use crate::{Port, ScifAddr, ScifEndpoint, ScifError, ScifResult};

/// Connectors that may queue while the accept loop is between two
/// `accept`s.
const BACKLOG: usize = 16;

/// A running service.  `session` serves each accepted connection on a
/// worker thread; what it returns is handed out by
/// [`shutdown`](Self::shutdown).  A worker that finishes a session parks
/// for the next one, so the service has as many threads as it once had
/// sessions at the same time, however many it has served.
pub struct CardService<T: Send + 'static = ()> {
    listener: Arc<ScifEndpoint>,
    addr: ScifAddr,
    accept_thread: TrackedMutex<Option<JoinHandle<()>>>,
    pool: Arc<Pool<T>>,
}

/// An accepted connection and its place in accept order.
type Job = (u64, ScifEndpoint);

/// The workers that run sessions, and what the sessions returned.
struct Pool<T> {
    session: Box<dyn Fn(ScifEndpoint) -> T + Send + Sync>,
    /// Names the workers after the service.
    name: String,
    state: TrackedMutex<PoolState<T>>,
    /// A parked worker waits here for a job or for the service to stop.
    wake: TrackedCondvar,
}

/// What the pool's lock guards.
struct PoolState<T> {
    /// Connections handed to parked workers that have not yet taken them.
    jobs: VecDeque<Job>,
    /// Parked workers no queued job is meant for: the accept loop spawns a
    /// worker only when this is 0.
    idle: usize,
    workers: Vec<JoinHandle<()>>,
    /// Every session accepted before `next` has finished: what they
    /// returned, in accept order, is here …
    returned: Vec<T>,
    /// … with the first of them to panic …
    panic: Option<Box<dyn Any + Send>>,
    next: u64,
    /// … and these finished ahead of one accepted before them.
    early: BTreeMap<u64, std::thread::Result<T>>,
    stopping: bool,
}

impl<T: Send + 'static> Pool<T> {
    /// Give `job` to a parked worker, or to a new one if every worker is
    /// serving.  The wake-up goes out after the lock is dropped: on one
    /// CPU, a worker woken under it only spins on the lock.  A new worker
    /// is counted in the critical section that found none idle, before
    /// its session can end, so `workers − idle` is always the sessions in
    /// progress.
    fn hand_off(self: &Arc<Self>, job: Job) {
        let mut state = self.state.lock();
        if state.idle > 0 {
            state.idle -= 1;
            state.jobs.push_back(job);
            drop(state);
            self.wake.notify_one();
            return;
        }
        let pool = Arc::clone(self);
        let worker = std::thread::Builder::new()
            .name(self.name.clone())
            .spawn(move || pool.work(job))
            .expect("spawn card service worker");
        state.workers.push(worker);
    }

    /// A worker: serve `job`, record what it returned, park, and serve the
    /// next one, until the service stops with nothing queued.  A panicking
    /// session costs its result, not the worker.
    fn work(&self, mut job: Job) {
        loop {
            let (seq, conn) = job;
            let result = catch_unwind(AssertUnwindSafe(|| (self.session)(conn)));
            let mut state = self.state.lock();
            state.record(seq, result);
            state.idle += 1;
            job = loop {
                if let Some(next) = state.jobs.pop_front() {
                    break next;
                }
                if state.stopping {
                    return;
                }
                self.wake.wait(&mut state);
            };
        }
    }
}

impl<T> PoolState<T> {
    fn record(&mut self, seq: u64, result: std::thread::Result<T>) {
        self.early.insert(seq, result);
        while let Some(result) = self.early.remove(&self.next) {
            self.next += 1;
            match result {
                Ok(value) => self.returned.push(value),
                Err(panic) => {
                    self.panic.get_or_insert(panic);
                }
            }
        }
    }
}

impl<T: Send + 'static> CardService<T> {
    /// Bind `listener` to `port` ([`Port::ANY`]: the node picks one, see
    /// [`addr`](Self::addr)), listen, and start accepting on a thread
    /// called `name`.  The port is connectable when this returns.
    pub fn spawn(
        listener: ScifEndpoint,
        port: Port,
        name: impl Into<String>,
        session: impl Fn(ScifEndpoint) -> T + Send + Sync + 'static,
    ) -> ScifResult<Self> {
        let accept = |listener: &ScifEndpoint| listener.accept(&mut Timeline::new());
        Self::spawn_accepting(listener, port, name.into(), accept, session)
    }

    /// [`spawn`](Self::spawn) with the blocking `accept` a parameter, so a
    /// test can script what it returns.
    fn spawn_accepting(
        listener: ScifEndpoint,
        port: Port,
        name: String,
        accept: impl Fn(&ScifEndpoint) -> ScifResult<ScifEndpoint> + Send + 'static,
        session: impl Fn(ScifEndpoint) -> T + Send + Sync + 'static,
    ) -> ScifResult<Self> {
        let mut tl = Timeline::new();
        listener.bind(port, &mut tl)?;
        listener.listen(BACKLOG, &mut tl)?;
        let addr = listener.local_addr().ok_or(ScifError::Inval)?;

        let listener = Arc::new(listener);
        let pool = Arc::new(Pool {
            session: Box::new(session),
            name: name.clone(),
            state: TrackedMutex::new(
                LockClass::ServerSessions,
                PoolState {
                    jobs: VecDeque::new(),
                    idle: 0,
                    workers: Vec::new(),
                    returned: Vec::new(),
                    panic: None,
                    next: 0,
                    early: BTreeMap::new(),
                    stopping: false,
                },
            ),
            wake: TrackedCondvar::new(),
        });
        let accept_loop = {
            let (listener, pool) = (Arc::clone(&listener), Arc::clone(&pool));
            move || {
                // Hand each connection, numbered in accept order, to a
                // parked worker; a thread is spawned only when all are
                // serving.  Measure `dgemm_launch` before reshaping this:
                // its client and the card side share one pinned CPU, and
                // a thread spawned per connection, with the handles kept
                // until shutdown, aborted a 25 s run on the kernel's
                // mapping limit.
                let mut accepted = 0;
                loop {
                    match accept(&listener) {
                        Ok(conn) => {
                            pool.hand_off((accepted, conn));
                            accepted += 1;
                        }
                        // The listener was torn down (`stop` closes it).
                        Err(ScifError::Inval) => break,
                        // Anything else (a failed card, an injected fault)
                        // cost that one connector its accept.
                        Err(_) => {}
                    }
                }
            }
        };
        let accept_thread =
            std::thread::Builder::new().name(name).spawn(accept_loop).expect("spawn card service");
        Ok(CardService {
            listener,
            addr,
            accept_thread: TrackedMutex::new(LockClass::ServerAccept, Some(accept_thread)),
            pool,
        })
    }

    /// Where clients connect (with [`Port::ANY`], the port the node
    /// assigned).
    pub fn addr(&self) -> ScifAddr {
        self.addr
    }

    /// Worker threads the service has started and not joined: the most
    /// sessions it has served at once (a leak audit).
    pub fn workers(&self) -> usize {
        self.pool.state.lock().workers.len()
    }

    /// Sessions accepted and not yet finished: what a caller waits to
    /// reach 0 before it counts workers, since a session ends on the card
    /// side after its client has hung up.
    pub fn sessions_in_progress(&self) -> usize {
        let state = self.pool.state.lock();
        state.workers.len().saturating_sub(state.idle)
    }

    /// What `shutdown` and `Drop` share: what the sessions returned, in
    /// accept order, and the first panic among them.
    fn stop(&self) -> (Vec<T>, Option<Box<dyn Any + Send>>) {
        let Some(accept_thread) = self.accept_thread.lock().take() else {
            return (Vec::new(), None);
        };
        self.listener.close();
        let _ = accept_thread.join();
        let workers = {
            let mut state = self.pool.state.lock();
            state.stopping = true;
            std::mem::take(&mut state.workers)
        };
        self.pool.wake.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
        let mut state = self.pool.state.lock();
        (std::mem::take(&mut state.returned), state.panic.take())
    }

    /// Stop the service — free the port, join the accept thread and every
    /// worker once the sessions are over (a session ends when its peer
    /// hangs up) — and return what the sessions returned, in accept order;
    /// a session's panic is passed on.  Idempotent: later calls return
    /// nothing.
    pub fn shutdown(&self) -> Vec<T> {
        match self.stop() {
            (returned, None) => returned,
            (_, Some(panic)) => std::panic::resume_unwind(panic),
        }
    }
}

impl<T: Send + 'static> Drop for CardService<T> {
    /// `shutdown`, except that a drop does not panic: a session's panic
    /// has been printed by the panic hook and is otherwise lost here.
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::Barrier;

    use vphi_phi::{PhiBoard, PhiSpec};
    use vphi_sim_core::{CostModel, VirtualClock};
    use vphi_sync::Counter;

    use super::*;
    use crate::{NodeId, ScifFabric, HOST_NODE};

    fn card() -> (ScifFabric, NodeId) {
        let cost = Arc::new(CostModel::paper_calibrated());
        let clock = Arc::new(VirtualClock::new());
        let fabric = ScifFabric::new(Arc::clone(&cost), Arc::clone(&clock));
        let board = Arc::new(PhiBoard::new(PhiSpec::phi_3120p(), 0, cost, clock));
        board.boot();
        let node = fabric.add_device(board);
        (fabric, node)
    }

    /// Run `body` under the lock-order detector (always on in a debug
    /// build): a violation panics the thread it happens on and is counted,
    /// so the count must not move.
    fn audited(body: impl FnOnce(&ScifFabric, NodeId)) {
        let before = vphi_sync::audit::violation_count();
        let (fabric, dev) = card();
        body(&fabric, dev);
        assert_eq!(vphi_sync::audit::violation_count(), before, "lock-order violation");
    }

    /// A service whose sessions swallow bytes until the peer hangs up and
    /// return how many they saw.
    fn counting(fabric: &ScifFabric, dev: NodeId, port: Port) -> CardService<u64> {
        let listener = ScifEndpoint::open(fabric, dev).unwrap();
        CardService::spawn(listener, port, "test-service", |conn| {
            let (mut byte, mut seen) = ([0u8; 1], 0);
            while conn.recv(&mut byte, &mut Timeline::new()) == Ok(1) {
                seen += 1;
            }
            seen
        })
        .unwrap()
    }

    fn client(fabric: &ScifFabric, addr: ScifAddr) -> ScifEndpoint {
        let ep = ScifEndpoint::open(fabric, HOST_NODE).unwrap();
        ep.connect(addr, &mut Timeline::new()).unwrap();
        ep
    }

    /// Wait for the pool to reach `state`: a session's end is on the
    /// card side, after its client has hung up.
    fn wait_for<T: Send>(service: &CardService<T>, state: impl Fn(&PoolState<T>) -> bool) {
        while !state(&service.pool.state.lock()) {
            std::thread::yield_now();
        }
    }

    /// A client that waits for each session to end before it connects
    /// again is served by one worker throughout; the thread-per-session
    /// service held 1,000 threads' handles, and their stacks, here.
    #[test]
    fn sequential_sessions_reuse_one_worker() {
        audited(|fabric, dev| {
            let service = counting(fabric, dev, Port::ANY);
            let sent: Vec<u64> = (0..1_000).map(|i| i % 7 + 1).collect();
            for (i, &n) in (1..).zip(&sent) {
                let c = client(fabric, service.addr());
                c.send(&vec![0; n as usize], &mut Timeline::new()).unwrap();
                c.close();
                // Recorded, and so parked: one critical section does both.
                wait_for(&service, |state| state.next == i);
            }
            assert!(service.workers() <= 1, "{} workers", service.workers());
            assert_eq!(service.shutdown(), sent);
            assert_eq!(service.workers(), 0, "shutdown joined the worker");
        });
    }

    /// Session 0 is held on a barrier until session 1 has finished; the
    /// results still come back in the order the connections were accepted.
    #[test]
    fn results_come_back_in_accept_order() {
        audited(|fabric, dev| {
            let held = Arc::new(Barrier::new(2));
            let listener = ScifEndpoint::open(fabric, dev).unwrap();
            let service = CardService::spawn(listener, Port::ANY, "test-service", {
                let held = Arc::clone(&held);
                move |conn| {
                    let mut tag = [0u8; 1];
                    conn.recv(&mut tag, &mut Timeline::new()).unwrap();
                    if tag[0] == 0 {
                        held.wait();
                    }
                    tag[0]
                }
            })
            .unwrap();
            let first = client(fabric, service.addr());
            first.send(&[0], &mut Timeline::new()).unwrap();
            let second = client(fabric, service.addr());
            second.send(&[1], &mut Timeline::new()).unwrap();
            wait_for(&service, |state| state.early.len() == 1);
            held.wait();
            drop((first, second));
            assert_eq!(service.shutdown(), vec![0, 1]);
        });
    }

    /// A panicking session costs its result, not its worker: the next
    /// session runs on the same thread, and `shutdown` passes the panic on.
    #[test]
    fn a_panicking_session_is_passed_on_and_the_service_keeps_serving() {
        audited(|fabric, dev| {
            let listener = ScifEndpoint::open(fabric, dev).unwrap();
            let service = CardService::spawn(listener, Port::ANY, "test-service", |conn| {
                let mut byte = [0u8; 1];
                conn.recv(&mut byte, &mut Timeline::new()).unwrap();
                assert_ne!(byte[0], b'!', "session told to panic");
            })
            .unwrap();
            for (i, byte) in (1..).zip([b'!', b'x']) {
                let c = client(fabric, service.addr());
                c.send(&[byte], &mut Timeline::new()).unwrap();
                c.close();
                wait_for(&service, |state| state.next == i);
            }
            assert_eq!(service.workers(), 1);
            let served = std::panic::catch_unwind(AssertUnwindSafe(|| service.shutdown()));
            let panic = served.expect_err("the panic is passed on");
            let message = panic.downcast_ref::<String>().expect("a formatted panic message");
            assert!(message.contains("session told to panic"), "{message}");
            assert!(service.shutdown().is_empty());
        });
    }

    #[test]
    fn the_port_is_connectable_when_spawn_returns() {
        audited(|fabric, dev| {
            let service = counting(fabric, dev, Port(300));
            assert_eq!(service.addr(), ScifAddr::new(dev, Port(300)));
            let c = client(fabric, service.addr());
            c.send(b"abc", &mut Timeline::new()).unwrap();
            c.close();
            assert_eq!(service.shutdown(), vec![3]);
        });
    }

    #[test]
    fn any_port_gives_two_services_on_one_node_distinct_ports() {
        audited(|fabric, dev| {
            let a = counting(fabric, dev, Port::ANY);
            let b = counting(fabric, dev, Port::ANY);
            assert_ne!(a.addr().port, Port::ANY);
            assert_ne!(a.addr().port, b.addr().port);
            for service in [&a, &b] {
                client(fabric, service.addr()).close();
            }
        });
    }

    #[test]
    fn eight_concurrent_sessions_each_get_a_thread() {
        audited(|fabric, dev| {
            // No session passes the barrier until all eight are running.
            let all_in = Arc::new(Barrier::new(8));
            let listener = ScifEndpoint::open(fabric, dev).unwrap();
            let service = CardService::spawn(listener, Port::ANY, "test-service", {
                let all_in = Arc::clone(&all_in);
                move |_conn| {
                    all_in.wait();
                    std::thread::current().id()
                }
            })
            .unwrap();
            let clients: Vec<_> = (0..8).map(|_| client(fabric, service.addr())).collect();
            let threads: HashSet<_> = service.shutdown().into_iter().collect();
            assert_eq!(threads.len(), 8);
            drop(clients);
        });
    }

    #[test]
    fn shutdown_is_idempotent_joins_everything_and_frees_the_port() {
        audited(|fabric, dev| {
            let service = counting(fabric, dev, Port(301));
            let c = client(fabric, service.addr());
            c.send(b"xy", &mut Timeline::new()).unwrap();
            c.close();
            // The session's count is only there once its thread is joined.
            assert_eq!(service.shutdown(), vec![2]);
            assert!(service.shutdown().is_empty());
            let refused = ScifEndpoint::open(fabric, HOST_NODE).unwrap();
            assert_eq!(
                refused.connect(service.addr(), &mut Timeline::new()),
                Err(ScifError::ConnRefused)
            );
            let again = counting(fabric, dev, Port(301));
            client(fabric, again.addr()).close();
        });
    }

    #[test]
    fn dropping_the_handle_is_shutdown() {
        audited(|fabric, dev| {
            let ended = Arc::new(Counter::new(0));
            let listener = ScifEndpoint::open(fabric, dev).unwrap();
            let service = CardService::spawn(listener, Port(302), "test-service", {
                let ended = Arc::clone(&ended);
                move |conn| {
                    let _ = conn.recv(&mut [0u8; 1], &mut Timeline::new());
                    ended.bump();
                }
            })
            .unwrap();
            client(fabric, service.addr()).close();
            drop(service);
            assert_eq!(ended.get(), 1, "drop joined the session");
            counting(fabric, dev, Port(302));
        });
    }

    /// `accept` answers `ENODEV` to a connector that arrives while the
    /// card is down.  The loop that ended on any error left the port bound
    /// with nobody draining its backlog: the next client's `connect` never
    /// returned.  The scripted `accept` reports it before the real ones.
    #[test]
    fn a_failed_accept_does_not_end_the_accept_loop() {
        audited(|fabric, dev| {
            let calls = Counter::new(0);
            let listener = ScifEndpoint::open(fabric, dev).unwrap();
            let service = CardService::spawn_accepting(
                listener,
                Port::ANY,
                "test-service".into(),
                move |listener| match calls.next() {
                    0 => Err(ScifError::NoDev),
                    _ => listener.accept(&mut Timeline::new()),
                },
                |conn| conn.recv(&mut [0u8; 1], &mut Timeline::new()),
            )
            .unwrap();
            let c = client(fabric, service.addr());
            c.send(b"!", &mut Timeline::new()).unwrap();
            c.close();
            assert_eq!(service.shutdown(), vec![Ok(1)]);
        });
    }
}
