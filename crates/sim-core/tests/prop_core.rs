//! Property-based tests of the virtual-time substrate.

use proptest::prelude::*;

use vphi_sim_core::stats::{jain_fairness, percentile};
use vphi_sim_core::{SimDuration, SimTime, SpanLabel, SplitMix64, Timeline};

proptest! {
    // ----------------------------------------------------------- durations

    #[test]
    fn duration_addition_is_commutative_and_associative(a: u32, b: u32, c: u32) {
        let (a, b, c) =
            (SimDuration(a as u64), SimDuration(b as u64), SimDuration(c as u64));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn saturating_sub_never_underflows(a: u64, b: u64) {
        let d = SimDuration(a).saturating_sub(SimDuration(b));
        prop_assert_eq!(d.as_nanos(), a.saturating_sub(b));
    }

    #[test]
    fn elapsed_since_is_antisymmetric(a: u64, b: u64) {
        let (ta, tb) = (SimTime(a), SimTime(b));
        let fwd = tb.elapsed_since(ta);
        let back = ta.elapsed_since(tb);
        // At most one direction is nonzero, and they reconstruct |a-b|.
        prop_assert!(fwd.is_zero() || back.is_zero());
        prop_assert_eq!(fwd.as_nanos() + back.as_nanos(), a.abs_diff(b));
    }

    // ----------------------------------------------------------- timelines

    #[test]
    fn timeline_total_equals_sum_of_spans(charges in prop::collection::vec(0u64..1_000_000, 0..50)) {
        let mut tl = Timeline::new();
        for (i, c) in charges.iter().enumerate() {
            let label = if i % 2 == 0 { SpanLabel::LinkTransfer } else { SpanLabel::GuestWakeup };
            tl.charge(label, SimDuration(*c));
        }
        prop_assert_eq!(tl.total(), SimDuration(charges.iter().sum()));
        // Breakdown partitions the total.
        let breakdown_sum: SimDuration = tl.breakdown().into_iter().map(|(_, d)| d).sum();
        prop_assert_eq!(breakdown_sum, tl.total());
        // total_for over both labels also partitions it.
        let by_label = tl.total_for(SpanLabel::LinkTransfer)
            + tl.total_for(SpanLabel::GuestWakeup);
        prop_assert_eq!(by_label, tl.total());
    }

    #[test]
    fn absorb_is_additive(a in prop::collection::vec(0u64..1_000, 0..20),
                          b in prop::collection::vec(0u64..1_000, 0..20)) {
        let mut ta = Timeline::new();
        for c in &a {
            ta.charge(SpanLabel::HostSyscall, SimDuration(*c));
        }
        let mut tb = Timeline::new();
        for c in &b {
            tb.charge(SpanLabel::IrqInject, SimDuration(*c));
        }
        let (ta_total, tb_total) = (ta.total(), tb.total());
        ta.absorb(&tb);
        prop_assert_eq!(ta.total(), ta_total + tb_total);
    }

    /// Whatever edited it, a timeline's total is the sum of its breakdown,
    /// the breakdown lists no empty label, `since` undoes an `absorb`, and
    /// a timeline rebuilt from its breakdown is equal and renders alike.
    #[test]
    fn the_ledger_reconciles_after_every_edit(
        ops in prop::collection::vec((0u8..8, 0usize..4, 0u64..1_000), 0..80),
    ) {
        const LABELS: [SpanLabel; 4] =
            [SpanLabel::HostSyscall, SpanLabel::GuestWakeup, SpanLabel::RingPush, SpanLabel::Other];
        let mut tl = Timeline::new();
        let mut other = Timeline::new();
        for (op, label, ns) in ops {
            match op {
                // Every fourth charge is a zero, which must leave no entry.
                0..=3 => tl.charge(LABELS[label], SimDuration(if op == 3 { 0 } else { ns })),
                4 => other.charge(LABELS[label], SimDuration(ns)),
                5 => {
                    let before = tl.clone();
                    tl.absorb(&other);
                    prop_assert_eq!(&tl.since(&before), &other);
                }
                6 => tl = tl.clone(),
                _ => {
                    if ns < 100 {
                        tl.clear();
                        prop_assert!(tl.is_empty());
                        prop_assert_eq!(&tl, &Timeline::new());
                    } else {
                        other.clear();
                    }
                }
            }
            for t in [&tl, &other] {
                let breakdown = t.breakdown();
                prop_assert_eq!(t.total(), breakdown.iter().map(|&(_, d)| d).sum::<SimDuration>());
                prop_assert!(breakdown.iter().all(|(_, d)| !d.is_zero()));
            }
        }
        let mut rebuilt = Timeline::new();
        for (label, d) in tl.breakdown() {
            rebuilt.charge(label, d);
        }
        prop_assert_eq!(&rebuilt, &tl);
        prop_assert_eq!(rebuilt.to_string(), tl.to_string());
        prop_assert!(tl.to_string().starts_with(&format!("timeline total={}\n", tl.total())));
        rebuilt.charge(SpanLabel::HostSyscall, SimDuration(1));
        prop_assert_ne!(&rebuilt, &tl);
    }

    // ----------------------------------------------------------- statistics

    #[test]
    fn percentile_is_monotone_and_within_range(
        mut xs in prop::collection::vec(-1e9f64..1e9, 1..200),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let v_lo = percentile(&mut xs, lo);
        let v_hi = percentile(&mut xs, hi);
        prop_assert!(v_lo <= v_hi, "percentile not monotone: p{lo}={v_lo} > p{hi}={v_hi}");
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v_lo >= min && v_hi <= max);
    }

    #[test]
    fn jain_fairness_in_unit_interval(xs in prop::collection::vec(0.0f64..1e9, 1..50)) {
        let f = jain_fairness(&xs);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&f), "fairness = {f}");
        // 1/n lower bound for non-degenerate inputs.
        if xs.iter().any(|&x| x > 0.0) {
            prop_assert!(f >= 1.0 / xs.len() as f64 - 1e-12);
        }
    }

    // ------------------------------------------------------------------ rng

    #[test]
    fn rng_bounded_draws_stay_in_bounds(seed: u64, bound in 1u64..1_000_000) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..200 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    #[test]
    fn rng_fill_is_a_function_of_the_seed(seed: u64, n in 0usize..500) {
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        let mut ba = vec![0u8; n];
        let mut bb = vec![0u8; n];
        a.fill_bytes(&mut ba);
        b.fill_bytes(&mut bb);
        prop_assert_eq!(ba, bb);
    }
}
