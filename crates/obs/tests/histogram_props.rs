//! Property tests pinning the log₂-histogram's bucket assignment and
//! quantile extraction across the whole `u64` range, with the exact
//! power-of-two boundaries spelled out.
//!
//! The audit these tests grew out of found one genuine off-by-one: the
//! top bucket's (b = 63) upper bound was computed as
//! `saturating_mul(2) - 1`, which saturates *before* subtracting and so
//! reported `u64::MAX - 1` for a recorded `u64::MAX`. The
//! `max_value_quantile_is_exact` cases pin the fix.

use mcast_obs::Histogram;
use proptest::prelude::*;

fn enabled() {
    // Integration-test process: flip the global once; every test here
    // wants recording on and none turns it off.
    mcast_obs::set_enabled(true);
}

/// Inclusive bucket bounds implied by a snapshot's lower bound.
fn bucket_bounds(lower: u64) -> (u64, u64) {
    if lower == 0 {
        (0, 1)
    } else {
        (
            lower,
            lower.checked_mul(2).map(|x| x - 1).unwrap_or(u64::MAX),
        )
    }
}

#[test]
fn powers_of_two_land_on_their_own_bucket_boundary() {
    enabled();
    for k in 1..64u32 {
        let v = 1u64 << k;
        let h = Histogram::new();
        h.record(v);
        let s = h.snapshot();
        assert_eq!(
            s.buckets,
            vec![(v, 1)],
            "2^{k} must open bucket {k} at lower bound 2^{k}"
        );
        // One below the boundary belongs to the previous bucket.
        let h = Histogram::new();
        h.record(v - 1);
        let s = h.snapshot();
        let expected_lower = if k == 1 { 0 } else { 1u64 << (k - 1) };
        assert_eq!(
            s.buckets,
            vec![(expected_lower, 1)],
            "2^{k} - 1 must stay in bucket {}",
            k - 1
        );
    }
}

#[test]
fn zero_and_one_share_bucket_zero() {
    enabled();
    let h = Histogram::new();
    h.record(0);
    h.record(1);
    assert_eq!(h.snapshot().buckets, vec![(0, 2)]);
}

#[test]
fn max_value_quantile_is_exact() {
    enabled();
    let h = Histogram::new();
    h.record(u64::MAX);
    let s = h.snapshot();
    assert_eq!(s.buckets, vec![(1u64 << 63, 1)]);
    // The fixed off-by-one: the top bucket's upper bound is u64::MAX
    // itself, so a lone max sample is returned exactly at any q.
    assert_eq!(s.quantile(0.5), u64::MAX);
    assert_eq!(s.quantile(1.0), u64::MAX);
}

#[test]
fn top_bucket_boundary_neighbours() {
    enabled();
    for v in [(1u64 << 63) - 1, 1u64 << 63, u64::MAX - 1, u64::MAX] {
        let h = Histogram::new();
        h.record(v);
        let s = h.snapshot();
        let (lower, count) = s.buckets[0];
        let (lo, hi) = bucket_bounds(lower);
        assert_eq!(count, 1);
        assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        // Single sample: every quantile collapses to it.
        assert_eq!(s.quantile(0.99), v);
    }
}

proptest! {
    #[test]
    fn every_sample_lands_in_a_containing_bucket(v in any::<u64>()) {
        enabled();
        let h = Histogram::new();
        h.record(v);
        let s = h.snapshot();
        prop_assert_eq!(s.count, 1);
        prop_assert_eq!(s.buckets.len(), 1);
        let (lower, count) = s.buckets[0];
        let (lo, hi) = bucket_bounds(lower);
        prop_assert_eq!(count, 1);
        prop_assert!(lo <= v && v <= hi, "{} outside [{}, {}]", v, lo, hi);
    }

    #[test]
    fn single_sample_quantile_is_identity(v in any::<u64>(), q in 0.0f64..1.0) {
        enabled();
        let h = Histogram::new();
        h.record(v);
        let s = h.snapshot();
        // Bucket upper bound clamped to the observed max = the sample.
        prop_assert_eq!(s.quantile(q), v);
    }

    #[test]
    fn quantiles_are_monotone_and_anchored(
        mut vs in proptest::collection::vec(any::<u64>(), 1..40)
    ) {
        enabled();
        let h = Histogram::new();
        for &v in &vs {
            h.record(v);
        }
        let s = h.snapshot();
        vs.sort_unstable();
        prop_assert_eq!(s.count, vs.len() as u64);
        prop_assert_eq!(s.max, *vs.last().unwrap());
        prop_assert_eq!(s.min, vs[0]);
        // Monotone in q, and q = 1 recovers the exact max.
        let mut prev = 0u64;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let cur = s.quantile(q);
            prop_assert!(cur >= prev, "quantile({}) = {} < {}", q, cur, prev);
            prop_assert!(cur <= s.max);
            prev = cur;
        }
        prop_assert_eq!(s.quantile(1.0), s.max);
        // Every probed quantile is at least the bucket floor of min.
        let (lo, _) = bucket_bounds(s.buckets[0].0);
        prop_assert!(s.quantile(0.0) >= lo);
    }

    #[test]
    fn bucket_counts_sum_to_sample_count(
        vs in proptest::collection::vec(any::<u64>(), 0..60)
    ) {
        enabled();
        let h = Histogram::new();
        for &v in &vs {
            h.record(v);
        }
        let s = h.snapshot();
        let bucket_total: u64 = s.buckets.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(bucket_total, vs.len() as u64);
        // Lower bounds are strictly increasing powers of two (or 0).
        for w in s.buckets.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }
}
