//! Property tests for the telemetry crate: histogram quantile bounds,
//! merge-equals-union, and Chrome-export JSON round-tripping through the
//! built-in parser.

use proptest::prelude::*;
use simcore::SimTime;
use telemetry::json::Value;
use telemetry::{json, Histogram, TrackKey};

proptest! {
    /// Every quantile of a log-bucketed histogram must stay inside the
    /// true `[min, max]` of the recorded samples, and quantiles must be
    /// monotone in `q`.
    #[test]
    fn quantiles_bounded_by_true_extremes(
        samples in proptest::collection::vec(any::<u64>(), 1..200),
        q_raw in any::<f64>(),
    ) {
        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let lo = *samples.iter().min().expect("non-empty");
        let hi = *samples.iter().max().expect("non-empty");
        prop_assert_eq!(h.min(), lo);
        prop_assert_eq!(h.max(), hi);
        prop_assert_eq!(h.count(), samples.len() as u64);
        let q = q_raw.clamp(0.0, 1.0);
        let v = h.quantile(q);
        prop_assert!(v >= lo && v <= hi, "quantile({}) = {} outside [{}, {}]", q, v, lo, hi);
        prop_assert!(h.p50() <= h.p90() && h.p90() <= h.p99());
    }

    /// `merge(a, b)` must be indistinguishable from recording the union
    /// of both sample streams into one histogram.
    #[test]
    fn merge_equals_union(
        xs in proptest::collection::vec(any::<u64>(), 0..120),
        ys in proptest::collection::vec(any::<u64>(), 0..120),
    ) {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut u = Histogram::new();
        for &v in &xs {
            a.record(v);
            u.record(v);
        }
        for &v in &ys {
            b.record(v);
            u.record(v);
        }
        a.merge(&b);
        prop_assert_eq!(&a, &u);
    }

    /// The Chrome export must stay parseable JSON for arbitrary track
    /// names (quotes, backslashes, control characters, unicode), and the
    /// parse must recover each recorded counter track's name exactly.
    #[test]
    fn chrome_export_roundtrips_hostile_track_names(
        chars in proptest::collection::vec(0usize..NASTY.len(), 0..24),
        start in 0u64..1_000_000,
    ) {
        let name: String = chars.iter().map(|&i| NASTY[i]).collect();
        let tel = telemetry::Telemetry::new();
        // Track names are `&'static str` parts; leak the generated one.
        let key = TrackKey::name(Box::leak(name.clone().into_boxed_str()));
        tel.track_sample(key, SimTime::from_nanos(start), 1.0);
        let out = tel.chrome_trace_collected();
        let doc = json::parse(&out).expect("chrome export must parse");
        let events = doc.as_arr().expect("array");
        let found = events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("C")
                && e.get("name").and_then(Value::as_str) == Some(name.as_str())
        });
        prop_assert!(found, "recorded track {:?} missing", name);
    }
}

/// Characters that break naive JSON emitters.
const NASTY: [char; 12] =
    ['a', 'Z', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}', 'é', '💥'];
