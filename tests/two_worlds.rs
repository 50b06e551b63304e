//! One program, two worlds: the same code, written against `&dyn CoiEnv`,
//! runs as a host process and inside a VM, and every SCIF call it makes
//! answers alike — the same count or the same errno, charged to the caller
//! on both sides — and delivers the same bytes.  "Every VM is just another
//! host process issuing SCIF calls" (paper §I), checked call by call.

use vphi::builder::{VmConfig, VphiHost};
use vphi_coi::{CoiEnv, GuestEnv, NativeEnv};
use vphi_dev_support::echo_server;
use vphi_scif::{NodeId, Port, ScifAddr, ScifError, ScifResult, HOST_NODE};
use vphi_sim_core::cost::KMALLOC_MAX_SIZE;
use vphi_sim_core::{SimDuration, Timeline};

/// A call's count or value, or its errno.
type Answer = ScifResult<u64>;

/// One call the program made.
#[derive(Debug)]
struct Call {
    what: String,
    expected: Answer,
    answer: Answer,
    /// The call charged its caller virtual time: it reached the host.
    charged: bool,
}

/// Everything one run of the program saw.
#[derive(Default)]
struct Run {
    calls: Vec<Call>,
    received: Vec<u8>,
}

impl Run {
    /// Make one call on a fresh timeline; a value the call returns is
    /// kept as the number `value` makes of it.
    fn call<T>(
        &mut self,
        what: impl Into<String>,
        expected: Answer,
        f: impl FnOnce(&mut Timeline) -> ScifResult<T>,
        value: impl FnOnce(T) -> u64,
    ) {
        let mut tl = Timeline::new();
        let answer = f(&mut tl).map(value);
        self.record(what, expected, answer, tl);
    }

    fn record(&mut self, what: impl Into<String>, expected: Answer, answer: Answer, tl: Timeline) {
        let charged = tl.total() > SimDuration::ZERO;
        self.calls.push(Call { what: what.into(), expected, answer, charged });
    }
}

fn count(n: usize) -> u64 {
    n as u64
}

fn node(at: ScifAddr) -> u64 {
    u64::from(at.node.0)
}

fn none<T>(_: T) -> u64 {
    0
}

/// Port the program listens on, and the one it binds twice.
const LISTEN: Port = Port(977);
const TAKEN: Port = Port(976);
/// One byte more than a guest stages in one kmalloc'd chunk.
const BIG: usize = KMALLOC_MAX_SIZE as usize + 1;

/// The program: errors before a connection, messages of 0 B, 1 B and
/// [`BIG`] bytes through the card's echo server at `echo`, both bulk lanes
/// between two of its own endpoints (one accepted through `listen`), and
/// every call on an endpoint it closed.
fn program(env: &dyn CoiEnv, echo: ScifAddr) -> Run {
    use ScifError::{AddrInUse, ConnRefused, ConnReset, Inval, NoDev, NotConn};
    let mut run = Run::default();
    let open = || env.open(&mut Timeline::new()).expect("open");

    // Nobody there.
    let ep = open();
    let refused = ScifAddr::new(echo.node, Port(9999));
    run.call("connect to a dead port", Err(ConnRefused), |tl| ep.connect(refused, tl), node);
    let missing = ScifAddr::new(NodeId(9), Port(1));
    run.call("connect to a missing node", Err(NoDev), |tl| ep.connect(missing, tl), node);

    // Out of order.  Endpoints share the host's port space, whichever
    // world opened them.
    let (a, b, c) = (open(), open(), open());
    run.call("bind a free port", Ok(TAKEN.0.into()), |tl| a.bind(TAKEN, tl), |p| p.0.into());
    run.call("bind a taken port", Err(AddrInUse), |tl| b.bind(TAKEN, tl), |p| p.0.into());
    run.call("listen before bind", Err(NotConn), |tl| c.listen(4, tl), none);
    run.call("accept before listen", Err(Inval), |tl| c.accept(tl), none);
    run.call("send before connect", Err(NotConn), |tl| c.send(b"x", tl), count);
    run.call("send 0 B before connect", Err(NotConn), |tl| c.send(&[], tl), count);
    run.call("recv before connect", Err(NotConn), |tl| c.recv(&mut [0], tl), count);
    run.call("recv 0 B before connect", Err(NotConn), |tl| c.recv(&mut [], tl), count);
    run.call("send_timed before connect", Err(NotConn), |tl| c.send_timed(1, tl), |n| n);
    run.call("send_timed 0 B before connect", Err(NotConn), |tl| c.send_timed(0, tl), |n| n);
    run.call("recv_timed before connect", Err(ConnReset), |tl| c.recv_timed(1, tl), |n| n);
    run.call("recv_timed 0 B before connect", Ok(0), |tl| c.recv_timed(0, tl), |n| n);

    // Messages through the echo server.
    let e = open();
    run.call("connect to the echo server", Ok(node(echo)), |tl| e.connect(echo, tl), node);
    let big: Vec<u8> = (0..BIG).map(|i| (i % 251) as u8).collect();
    for payload in [&[][..], &[0x5a], &big] {
        let len = payload.len();
        run.call(format!("send {len} B"), Ok(len as u64), |tl| e.send(payload, tl), count);
        let mut back = vec![0u8; len];
        run.call(format!("recv {len} B"), Ok(len as u64), |tl| e.recv(&mut back, tl), count);
        run.received.extend(back);
    }

    // Both lanes between two of the program's own endpoints, one of them
    // accepted through `listen`.
    let (l, d) = (open(), open());
    run.call("bind the listener", Ok(LISTEN.0.into()), |tl| l.bind(LISTEN, tl), |p| p.0.into());
    run.call("listen", Ok(0), |tl| l.listen(4, tl), none);
    let to_listener = ScifAddr::new(HOST_NODE, LISTEN);
    let (accepted, tl) = std::thread::scope(|s| {
        let acceptor = s.spawn(|| {
            let mut tl = Timeline::new();
            (l.accept(&mut tl), tl)
        });
        run.call("connect to the listener", Ok(0), |tl| d.connect(to_listener, tl), node);
        acceptor.join().expect("acceptor")
    });
    let acc = accepted.expect("accept");
    run.record("accept", Ok(0), Ok(0), tl);
    let big_timed = BIG as u64;
    run.call("send_timed 4 MiB + 1 B", Ok(big_timed), |tl| d.send_timed(big_timed, tl), |n| n);
    run.call("recv_timed 4 MiB + 1 B", Ok(big_timed), |tl| acc.recv_timed(big_timed, tl), |n| n);
    run.call("send_timed 0 B", Ok(0), |tl| d.send_timed(0, tl), |n| n);
    run.call("recv_timed 0 B", Ok(0), |tl| acc.recv_timed(0, tl), |n| n);
    run.call("send 1 B to the accepted end", Ok(1), |tl| d.send(b"y", tl), count);
    let mut byte = [0u8];
    run.call("recv 1 B on the accepted end", Ok(1), |tl| acc.recv(&mut byte, tl), count);
    run.received.extend(byte);

    // Closed twice, then every call: the descriptor is gone.
    e.close();
    e.close();
    run.call("bind after close", Err(Inval), |tl| e.bind(Port(978), tl), |p| p.0.into());
    run.call("listen after close", Err(Inval), |tl| e.listen(4, tl), none);
    run.call("connect after close", Err(Inval), |tl| e.connect(echo, tl), node);
    run.call("accept after close", Err(Inval), |tl| e.accept(tl), none);
    run.call("send after close", Err(Inval), |tl| e.send(b"z", tl), count);
    run.call("send 0 B after close", Err(Inval), |tl| e.send(&[], tl), count);
    run.call("recv after close", Err(Inval), |tl| e.recv(&mut [0], tl), count);
    run.call("recv 0 B after close", Err(Inval), |tl| e.recv(&mut [], tl), count);
    run.call("send_timed after close", Err(Inval), |tl| e.send_timed(1, tl), |n| n);
    run.call("send_timed 0 B after close", Err(Inval), |tl| e.send_timed(0, tl), |n| n);
    run.call("recv_timed after close", Err(Inval), |tl| e.recv_timed(1, tl), |n| n);
    run.call("recv_timed 0 B after close", Err(Inval), |tl| e.recv_timed(0, tl), |n| n);
    run
}

#[test]
fn one_program_answers_alike_as_a_host_process_and_in_a_vm() {
    let native = {
        let host = VphiHost::new(1);
        let echo = echo_server(&host, 0);
        program(&NativeEnv::new(&host), echo.addr())
    };
    let guest = {
        let host = VphiHost::new(1);
        let echo = echo_server(&host, 0);
        let vm = host.spawn_vm(VmConfig::default());
        let run = program(&GuestEnv::new(&vm), echo.addr());
        vm.shutdown();
        run
    };

    assert_eq!(native.calls.len(), guest.calls.len());
    let mut wrong = Vec::new();
    for (n, g) in native.calls.iter().zip(&guest.calls) {
        if (n.answer, n.charged) != (g.answer, g.charged) {
            wrong.push(format!("{}: native {:?}, guest {:?}", n.what, n, g));
        }
        for (side, call) in [("native", n), ("guest", g)] {
            if call.answer != call.expected || !call.charged {
                wrong.push(format!("{side} {}: {call:?}", call.what));
            }
        }
    }
    assert!(wrong.is_empty(), "calls that answered differently:\n{}", wrong.join("\n"));

    let mut sent = vec![0x5a];
    sent.extend((0..BIG).map(|i| (i % 251) as u8));
    sent.push(b'y');
    assert!(native.received == sent, "native bytes differ from what was sent");
    assert!(guest.received == sent, "guest bytes differ from what was sent");
}
