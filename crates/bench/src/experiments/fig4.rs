//! **Figure 4** — send-receive communication latency, host vs vPHI.
//!
//! The paper: a SCIF server on the card blocks in `scif_recv`; a client on
//! the host (or in the VM) connects and sends.  Native 1-byte latency is
//! 7 µs; vPHI's is 382 µs, and the 375 µs offset stays constant with size.

use vphi::builder::{VmConfig, VphiHost};
use vphi_dev_support::{native_connect, sink, GuestRig};
use vphi_sim_core::units::KIB;
use vphi_sim_core::{SimDuration, Timeline};

use crate::support::{Cell, Figure};

/// One x-axis point of Figure 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig4Row {
    pub bytes: u64,
    pub host: SimDuration,
    pub vphi: SimDuration,
}

impl Fig4Row {
    pub fn overhead(&self) -> SimDuration {
        self.vphi.saturating_sub(self.host)
    }
}

/// The sizes the figure sweeps.
fn fig4_sizes() -> Vec<u64> {
    vec![1, 16, 64, 256, KIB, 4 * KIB, 16 * KIB, 64 * KIB]
}

/// Regenerate Figure 4.
pub fn fig4_latency() -> Vec<Fig4Row> {
    let host = VphiHost::new(1);
    let sink = sink(&host, 0);
    let native = native_connect(&host, sink.addr());
    let rig = GuestRig::connect(&host, VmConfig::default(), sink.addr());

    let mut rows = Vec::new();
    for bytes in fig4_sizes() {
        let data = vec![0x5Au8; bytes as usize];
        let mut host_tl = Timeline::new();
        native.send(&data, &mut host_tl).expect("native send");
        rows.push(Fig4Row { bytes, host: host_tl.total(), vphi: rig.send(&data).total() });
    }
    rows
}

/// Figure 4, run and tabled.
pub fn figure() -> Figure {
    let mut fig = Figure::new(
        "4",
        "Fig. 4 — send-receive communication latency",
        &["size", "host", "vPHI", "overhead"],
    );
    for r in fig4_latency() {
        fig.row(vec![
            Cell::Bytes(r.bytes),
            Cell::Time(r.host),
            Cell::Time(r.vphi),
            Cell::Time(r.overhead()),
        ]);
    }
    fig.note("paper anchors: host 1B = 7us, vPHI 1B = 382us, constant offset ~375us");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_reproduces_paper_shape() {
        let rows = fig4_latency();
        assert_eq!(rows.len(), fig4_sizes().len());
        // Anchors.
        assert_eq!(rows[0].bytes, 1);
        assert_eq!(rows[0].host, SimDuration::from_micros(7));
        assert_eq!(rows[0].vphi, SimDuration::from_micros(382));
        // Constant offset (within the guest-copy term).
        let first = rows[0].overhead();
        let last = rows.last().unwrap().overhead();
        assert!(
            last.as_nanos().abs_diff(first.as_nanos()) < 20_000,
            "offset drifted: {first} → {last}"
        );
        // Monotone in size on both series.
        for pair in rows.windows(2) {
            assert!(pair[1].host >= pair[0].host);
            assert!(pair[1].vphi >= pair[0].vphi);
        }
    }

    #[test]
    fn figure4_is_bit_reproducible() {
        // The README claims every figure is deterministic; virtual time
        // must not depend on thread scheduling, wall clock, or ASLR.
        let a = fig4_latency();
        let b = fig4_latency();
        assert_eq!(a, b, "figure 4 differed across runs");
    }
}
