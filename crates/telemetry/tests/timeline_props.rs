//! Property tests for the windowed timeline: the merge of every
//! per-window sub-histogram must reproduce the run-total histogram
//! *exactly* (bucket-identical, not just quantile-close), per-counter
//! window deltas must sum to the run totals, and window attribution must
//! put boundary samples in the right window.

use proptest::prelude::*;
use telemetry::timeline::{Timeline, TimelineConfig};
use telemetry::Histogram;

fn timeline(window_ns: u64) -> Timeline {
    Timeline::new(TimelineConfig { window_ns })
}

proptest! {
    /// Merging all per-window sub-histograms of a key yields a histogram
    /// bucket-identical to one fed the whole sample stream: same counts,
    /// same min/max, and therefore the same value for *every* quantile.
    #[test]
    fn window_merge_is_bucket_identical_to_total(
        window_ns in 1u64..5_000,
        samples in proptest::collection::vec((0u64..200_000, 0u64..1_000_000), 1..300),
    ) {
        let mut tl = timeline(window_ns);
        let mut total = Histogram::new();
        for &(t, v) in &samples {
            tl.hist_at("lat", v, t);
            total.record(v);
        }
        let merged = tl.merged_hist("lat").expect("samples recorded");
        prop_assert_eq!(&merged, &total);
        prop_assert_eq!(merged.p50(), total.p50());
        prop_assert_eq!(merged.p90(), total.p90());
        prop_assert_eq!(merged.p99(), total.p99());
        prop_assert_eq!(merged.p999(), total.p999());
        prop_assert_eq!(merged.min(), total.min());
        prop_assert_eq!(merged.max(), total.max());
        prop_assert_eq!(merged.count(), samples.len() as u64);
    }

    /// Out-of-order samples (behind the cursor) are still attributed to
    /// their true window and never dropped — merge == total holds
    /// unconditionally.
    #[test]
    fn out_of_order_samples_still_merge_exactly(
        window_ns in 1u64..2_000,
        forward in proptest::collection::vec((0u64..100_000, 0u64..50_000), 1..100),
        behind in proptest::collection::vec((0u64..100_000, 0u64..50_000), 1..100),
    ) {
        let mut tl = timeline(window_ns);
        let mut total = Histogram::new();
        // The forward stream drives the cursor to its maximum; the second
        // stream then lands behind it.
        for &(t, v) in &forward {
            tl.hist_at("lat", v, t);
            total.record(v);
        }
        for &(t, v) in &behind {
            tl.hist_at("lat", v, t);
            total.record(v);
        }
        prop_assert_eq!(&tl.merged_hist("lat").expect("samples"), &total);
        let w_max = forward.iter().chain(&behind).map(|&(t, _)| t / window_ns).max().unwrap_or(0);
        prop_assert_eq!(tl.num_windows(), w_max + 1);
    }

    /// Per-window counter deltas sum to the run total for every key.
    #[test]
    fn counter_windows_sum_to_totals(
        window_ns in 1u64..5_000,
        events in proptest::collection::vec((0u64..200_000, 1u64..50, 0usize..3), 1..200),
    ) {
        let keys = ["a", "b", "c"];
        let mut tl = timeline(window_ns);
        let mut expect = [0u64; 3];
        for &(t, n, k) in &events {
            tl.counter_at(keys[k], n, t);
            expect[k] += n;
        }
        for (k, key) in keys.iter().enumerate() {
            prop_assert_eq!(tl.counter_total(key), expect[k]);
            let windowed: u64 =
                tl.counter_windows(key).map(|w| w.values().sum()).unwrap_or(0);
            prop_assert_eq!(windowed, expect[k]);
        }
    }

    /// A sample at instant `t` lands in window `t / window_ns` — in
    /// particular a sample exactly on a boundary opens the *next* window.
    #[test]
    fn boundary_samples_open_the_next_window(
        window_ns in 1u64..10_000,
        k in 0u64..50,
    ) {
        let mut tl = timeline(window_ns);
        let t = k * window_ns;
        tl.hist_at("lat", 7, t);
        prop_assert_eq!(tl.window_of(t), k);
        let h = tl.hist_window("lat", k).expect("sample in window k");
        prop_assert_eq!(h.count(), 1);
        if k > 0 {
            prop_assert!(tl.hist_window("lat", k - 1).is_none());
        }
        // The instant just before the boundary belongs to window k-1.
        if t > 0 {
            prop_assert_eq!(tl.window_of(t - 1), k - 1);
        }
    }
}

/// Empty windows between samples stay empty (no phantom histograms) but
/// the covered horizon still spans them gap-free.
#[test]
fn empty_windows_are_gaps_in_keys_not_in_coverage() {
    let mut tl = timeline(100);
    tl.hist_at("lat", 5, 10); // window 0
    tl.hist_at("lat", 9, 950); // window 9
    assert_eq!(tl.num_windows(), 10);
    for w in 1..9 {
        assert!(tl.hist_window("lat", w).is_none(), "window {w} should be empty");
    }
    let merged = tl.merged_hist("lat").expect("two samples");
    assert_eq!(merged.count(), 2);
    assert_eq!((merged.min(), merged.max()), (5, 9));
}

/// A run with no samples at all has one (empty) window and no keys.
#[test]
fn empty_timeline_has_no_keys() {
    let mut tl = timeline(100);
    tl.observe(0);
    assert_eq!(tl.num_windows(), 1);
    assert!(tl.merged_hist("lat").is_none());
    assert_eq!(tl.hist_keys().count(), 0);
}
