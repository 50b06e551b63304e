//! Property-based tests of the uOS compute model — the timing function
//! behind Figs. 6–8 must be sane over its whole domain, not just at the
//! three thread counts the paper plots.

use proptest::prelude::*;
use std::sync::Arc;

use vphi_phi::{ComputeJob, PhiSpec, UosScheduler};
use vphi_sim_core::{CostModel, Timeline};

fn sched() -> UosScheduler {
    UosScheduler::new(PhiSpec::phi_3120p(), Arc::new(CostModel::paper_calibrated()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// More FLOPs never takes less time (same threads).
    #[test]
    fn duration_is_monotone_in_work(threads in 1u32..224, f1 in 1.0e6f64..1.0e13, f2 in 1.0e6f64..1.0e13) {
        let s = sched();
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let mut tl = Timeline::new();
        let d_lo = s.run(&ComputeJob::new("lo", threads, lo, 0), &mut tl).duration;
        let d_hi = s.run(&ComputeJob::new("hi", threads, hi, 0), &mut tl).duration;
        prop_assert!(d_hi >= d_lo);
    }

    /// Within hardware capacity, more threads never hurt (the efficiency
    /// table is non-decreasing and cores_used grows).
    #[test]
    fn more_threads_never_slower_within_capacity(
        flops in 1.0e9f64..1.0e12,
        t1 in 1u32..224,
        t2 in 1u32..224,
    ) {
        let s = sched();
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let mut tl = Timeline::new();
        let d_few = s.run(&ComputeJob::new("few", lo, flops, 0), &mut tl).duration;
        let d_many = s.run(&ComputeJob::new("many", hi, flops, 0), &mut tl).duration;
        // Allow equality (e.g. both counts land on the same cores/tpc tier).
        prop_assert!(d_many <= d_few, "{hi} threads slower than {lo}: {d_many} vs {d_few}");
    }

    /// Oversubscription kicks in exactly past the hardware-thread count
    /// and scales like total/capacity.
    #[test]
    fn oversubscription_threshold(extra in 1u32..1000) {
        let s = sched();
        let cap = PhiSpec::phi_3120p().max_app_threads();
        let mut tl = Timeline::new();
        let at_cap = s.run(&ComputeJob::new("cap", cap, 1e12, 0), &mut tl);
        prop_assert!(!at_cap.oversubscribed);
        let mut tl2 = Timeline::new();
        let over = s.run(&ComputeJob::new("over", cap + extra, 1e12, 0), &mut tl2);
        prop_assert!(over.oversubscribed);
        prop_assert!(over.duration >= at_cap.duration);
    }

    /// The effective rate never exceeds the card's peak, and the roofline
    /// never reports a negative or non-finite duration.
    #[test]
    fn rate_bounded_by_peak(threads in 1u32..448, flops in 0.0f64..1.0e13, bytes in 0u64..1 << 34) {
        let s = sched();
        let mut tl = Timeline::new();
        let out = s.run(&ComputeJob::new("j", threads, flops, bytes), &mut tl);
        prop_assert!(out.effective_gflops <= PhiSpec::phi_3120p().peak_gflops() + 1e-9);
        prop_assert!(out.duration.as_nanos() < u64::MAX / 2);
        if flops > 0.0 {
            // Implied rate from the duration can't beat the roofline either.
            let implied = flops / out.duration.as_secs_f64().max(1e-12) / 1e9;
            prop_assert!(implied <= PhiSpec::phi_3120p().peak_gflops() * 1.01);
        }
    }

    /// Core assignment conserves threads and never exceeds per-core HW
    /// thread counts by more than the oversubscription ratio implies.
    #[test]
    fn core_assignment_conserves_threads(threads in 1u32..2000) {
        let s = sched();
        let assignment = s.core_assignment(threads);
        prop_assert_eq!(assignment.iter().sum::<u32>(), threads);
        prop_assert!(assignment.len() as u32 <= PhiSpec::phi_3120p().usable_cores());
        // Balanced: max and min differ by at most 1.
        let max = assignment.iter().max().unwrap();
        let min = assignment.iter().min().unwrap();
        prop_assert!(max - min <= 1, "unbalanced assignment: {assignment:?}");
    }
}
