//! Blocking vs non-blocking backend dispatch.
//!
//! "Following QEMU's approach, we choose the blocking mode for most SCIF
//! operations and a non-blocking mode for operations that otherwise would
//! potentially block the virtual machine for an unacceptable period of
//! time … we implement scif_accept() in a non-blocking way, since we do
//! not know beforehand when a corresponding scif_connect() request will
//! arrive." (paper §III)

use vphi_vmm::event_loop::Dispatch;

use crate::protocol::VphiRequest;

/// Bytes of payload a request moves (drives the size-based hybrid
/// dispatch the paper proposes as future work).
pub fn request_payload_len(req: &VphiRequest) -> u64 {
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
