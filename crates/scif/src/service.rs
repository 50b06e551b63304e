//! A card-side server: one listening endpoint, one accept loop, one
//! thread per connection.
//!
//! Every experiment in the paper has this shape — "a SCIF server on the
//! device" (Figs. 4–5), the `coi_daemon` "executed after uOS has booted"
//! (Figs. 6–8), sshd over mic0 (§IV-A) — so the `coi`, shell and net
//! daemons and every test sink, echo and window server are a
//! [`CardService`] plus their own session function.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use vphi_sim_core::Timeline;
use vphi_sync::{LockClass, TrackedMutex};

use crate::{PollEvents, Port, ScifAddr, ScifEndpoint, ScifError, ScifResult};

/// Connectors that may queue while the accept loop is between two
/// `accept`s.
const BACKLOG: usize = 16;

/// A session's blocking receive.  `recv` is one attempt — a `recv`, a frame
/// read — that answers `None` when nothing came; it is made again until
/// something does or the peer has hung up.  A blocking `recv` answers 30 s
/// of wall-clock silence with the same nothing it answers a hang-up with,
/// and only the hang-up ends a session: a client may sit idle, or do
/// nothing but RMA, for as long as it likes.
pub fn recv_until_hangup<R>(
    conn: &ScifEndpoint,
    mut recv: impl FnMut(&ScifEndpoint) -> ScifResult<Option<R>>,
) -> ScifResult<Option<R>> {
    loop {
        let got = recv(conn)?;
        if got.is_none() {
            let events = conn.poll(PollEvents::IN, Duration::ZERO, &mut Timeline::new());
            if events.is_ok_and(|e| !e.contains(PollEvents::HUP)) {
                continue;
            }
        }
        return Ok(got);
    }
}

/// A running service.  `session` serves each accepted connection on a
/// thread of its own; what it returns is handed out by
/// [`shutdown`](Self::shutdown).
pub struct CardService<T: Send + 'static = ()> {
    listener: Arc<ScifEndpoint>,
    addr: ScifAddr,
    accept_thread: TrackedMutex<Option<JoinHandle<()>>>,
    /// One thread per session, every handle kept until the service stops.
    sessions: Arc<TrackedMutex<Vec<JoinHandle<T>>>>,
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
        let sessions = Arc::new(TrackedMutex::new(LockClass::ServerSessions, Vec::new()));
        let session = Arc::new(session);
        let accept_loop = {
            let (listener, sessions) = (Arc::clone(&listener), Arc::clone(&sessions));
            move || loop {
                match accept(&listener) {
                    Ok(conn) => {
                        // Spawn, then lock and push — the daemons' loop as
                        // it was.  Measure before reshaping it: kept in
                        // this thread without the lock, the list moved
                        // `dgemm_launch`'s guest/native ratio 1.89 → 2.44
                        // (client and card side share one pinned CPU).
                        let session = Arc::clone(&session);
                        let h = std::thread::spawn(move || session(conn));
                        sessions.lock().push(h);
                    }
                    // The listener was torn down (`stop` closes it).
                    Err(ScifError::Inval) => break,
                    // `Again` is an idle listener's wall timeout; anything
                    // else (a failed card, an injected fault) cost that one
                    // connector its accept.
                    Err(_) => {}
                }
            }
        };
        let accept_thread =
            std::thread::Builder::new().name(name).spawn(accept_loop).expect("spawn card service");
        Ok(CardService {
            listener,
            addr,
            accept_thread: TrackedMutex::new(LockClass::ServerAccept, Some(accept_thread)),
            sessions,
        })
    }

    /// Where clients connect (with [`Port::ANY`], the port the node
    /// assigned).
    pub fn addr(&self) -> ScifAddr {
        self.addr
    }

    /// What `shutdown` and `Drop` share.
    fn stop(&self) -> Vec<std::thread::Result<T>> {
        let Some(accept_thread) = self.accept_thread.lock().take() else {
            return Vec::new();
        };
        self.listener.close();
        let _ = accept_thread.join();
        let sessions = std::mem::take(&mut *self.sessions.lock());
        sessions.into_iter().map(JoinHandle::join).collect()
    }

    /// Stop the service — free the port, join the accept thread and every
    /// session (a session ends when its peer hangs up) — and return what
    /// the sessions returned, in accept order; a session's panic is passed
    /// on.  Idempotent: later calls return nothing.
    pub fn shutdown(&self) -> Vec<T> {
        let joined = self.stop();
        joined.into_iter().map(|r| r.unwrap_or_else(|p| std::panic::resume_unwind(p))).collect()
    }
}

impl<T: Send + 'static> Drop for CardService<T> {
    /// `shutdown`, except that a drop does not panic: a session's panic
    /// has been printed by its thread and is otherwise lost here.
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

    /// `accept` answers `EAGAIN` when a listener saw no connector for 30 s
    /// of wall time, and `ENODEV` to a connector that arrives while the
    /// card is down.  The loop that ended on any error left the port bound
    /// with nobody draining its backlog: the next client's `connect` timed
    /// out 30 s later.  The scripted `accept` reports both at once.
    #[test]
    fn an_idle_timeout_or_a_failed_accept_does_not_end_the_accept_loop() {
        audited(|fabric, dev| {
            let calls = Counter::new(0);
            let listener = ScifEndpoint::open(fabric, dev).unwrap();
            let service = CardService::spawn_accepting(
                listener,
                Port::ANY,
                "test-service".into(),
                move |listener| match calls.next() {
                    0 | 2 => Err(ScifError::Again),
                    1 => Err(ScifError::NoDev),
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

    /// A session ends when its peer hangs up, not when it goes quiet: a
    /// blocking `recv` gives up after 30 s of silence with the 0 it gives a
    /// hang-up.  The session's `recv` is scripted to report that silence
    /// before every real receive; the session still sees (and echoes) every
    /// byte of a client that stays connected, and ends — with the real
    /// `recv`'s 0 — once the client has closed.  The session that broke out
    /// of its loop at the first nothing saw none.
    #[test]
    fn an_idle_client_does_not_end_its_session() {
        audited(|fabric, dev| {
            let listener = ScifEndpoint::open(fabric, dev).unwrap();
            let service = CardService::spawn(listener, Port::ANY, "test-service", |conn| {
                let (mut idle, mut seen) = (true, Vec::new());
                loop {
                    let byte = recv_until_hangup(&conn, |conn| {
                        idle = !idle;
                        if !idle {
                            return Ok(None);
                        }
                        let mut byte = [0u8; 1];
                        let n = conn.recv(&mut byte, &mut Timeline::new())?;
                        Ok((n > 0).then_some(byte[0]))
                    });
                    match byte {
                        Ok(Some(byte)) => {
                            seen.push(byte);
                            conn.send(&[byte], &mut Timeline::new()).unwrap();
                        }
                        _ => return seen,
                    }
                }
            })
            .unwrap();
            let c = client(fabric, service.addr());
            c.send(b"ab", &mut Timeline::new()).unwrap();
            assert_eq!(c.recv(&mut [0u8; 2], &mut Timeline::new()), Ok(2));
            c.close();
            assert_eq!(service.shutdown(), vec![b"ab".to_vec()]);
        });
    }
}
