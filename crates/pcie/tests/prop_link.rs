//! Property-based tests of the PCIe link timing model.

use proptest::prelude::*;
use std::sync::Arc;

use vphi_pcie::{DmaEngine, PcieLink};
use vphi_sim_core::{CostModel, SpanLabel, Timeline};

fn link() -> Arc<PcieLink> {
    Arc::new(PcieLink::new(Arc::new(CostModel::paper_calibrated())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Transfer time is additive: t(a) + t(b) ≈ t(a+b) (within rounding).
    #[test]
    fn transfer_time_is_additive(a in 1u64..1 << 30, b in 1u64..1 << 30) {
        let l = link();
        let ta = l.transfer_time(a).as_nanos();
        let tb = l.transfer_time(b).as_nanos();
        let tab = l.transfer_time(a + b).as_nanos();
        prop_assert!(tab.abs_diff(ta + tb) <= 2, "{ta}+{tb} vs {tab}");
    }

    /// Serialized transmissions: total busy time equals the sum of holds,
    /// and the timeline is charged each transfer and one latency apiece.
    #[test]
    fn serialized_transmissions_accumulate(sizes in prop::collection::vec(1u64..1 << 24, 1..20)) {
        let l = link();
        let mut tl = Timeline::new();
        for &s in &sizes {
            l.transmit(s, &mut tl);
        }
        let expected: u64 = sizes.iter().map(|&s| l.transfer_time(s).as_nanos()).sum();
        prop_assert_eq!(l.busy_total().as_nanos(), expected);
        prop_assert_eq!(l.transaction_count(), sizes.len() as u64);
        prop_assert_eq!(tl.total_for(SpanLabel::LinkTransfer).as_nanos(), expected);
        prop_assert_eq!(tl.total_for(SpanLabel::LinkLatency), l.cost().link_latency * sizes.len() as u64);
    }

    /// DMA copies of arbitrary sizes are byte-exact.
    #[test]
    fn dma_copy_is_exact(data in prop::collection::vec(any::<u8>(), 1..50_000)) {
        let engine = DmaEngine::new(link(), 8);
        let mut dst = vec![0u8; data.len()];
        engine.copy(&data, &mut dst, &mut Timeline::new());
        prop_assert_eq!(&dst, &data);
    }
}
