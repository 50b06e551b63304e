//! The five workloads.  Each builds its own stack (host, VMs, device
//! servers, connections, warm-up) and plays rounds of seeded ops on the
//! guest path interleaved with the same ops on the native path.

pub mod dgemm_launch;
pub mod msg_small;
pub mod rma;
pub mod serve_batch;

use crate::stack::WorkloadStack;

/// Build and warm up `workload`'s stack.  Everything in here is set-up
/// time: host boot, VM spawn, connect, window registration, and a fixed
/// warm-up op count so EWMAs, malloc thresholds and caches settle.
/// `quick` (smoke runs and tests) warms up with a single round.  Returns
/// the stack and how many rounds the warm-up played (measured rounds
/// continue the round numbering).
pub fn build_workload(workload: &str, seed: u64, quick: bool) -> (Box<dyn WorkloadStack>, u64) {
    let warm = |full: u64| if quick { 1 } else { full };
    match workload {
        "msg_small" => {
            let rounds = warm(40);
            (Box::new(msg_small::MsgSmall::build_msg_small(seed, rounds)), rounds)
        }
        "rma_staged" | "rma_mapped" => {
            let rounds = warm(2);
            (Box::new(rma::Rma::build_rma(seed, workload == "rma_mapped", rounds)), rounds)
        }
        "serve_batch" => {
            let rounds = warm(60);
            (Box::new(serve_batch::ServeBatch::build_serve_batch(seed, rounds)), rounds)
        }
        "dgemm_launch" => {
            let rounds = warm(100);
            (Box::new(dgemm_launch::DgemmLaunch::build_dgemm_launch(seed, rounds)), rounds)
        }
        other => panic!("unknown workload {other}"),
    }
}

/// Rounds of the traced run: (untraced reference segment, traced
/// segment).  Fixed work, not fixed time, so counter deltas compare
/// exactly across commits; sized so each segment takes about a quarter of
/// `seconds` on the commit that added the benchmark.
pub fn traced_rounds(workload: &str, seconds: f64, quick: bool) -> (u64, u64) {
    let (plain, traced) = match workload {
        "msg_small" => (160, 40),
        "rma_staged" | "rma_mapped" => (4, 4),
        "serve_batch" => (120, 60),
        _ => (24, 12),
    };
    if quick {
        return (2, 2);
    }
    let scale = seconds / crate::spec::RUN_SECONDS as f64;
    let scaled = |rounds: u64| ((rounds as f64 * scale).round() as u64).max(2);
    (scaled(plain), scaled(traced))
}
