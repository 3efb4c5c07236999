//! The metrics registry: counters, gauges, histograms and counter-track
//! time series.
//!
//! Counters/gauges/histograms are `&'static str`-keyed `BTreeMap`s: a key
//! allocates its node once on first touch, after which updates are
//! allocation-free — the same discipline as `simcore::Stats`. Counter
//! tracks (sampled time series destined for Perfetto counter tracks) are
//! keyed by a `Copy` [`TrackKey`] in an `FxMap` (see `fx.rs`): a sample
//! formats no name and compares no strings, and names are rendered only
//! at export, by [`Metrics::tracks`], which sorts them.

use std::collections::BTreeMap;
use std::fmt;

use crate::fx::FxMap;
use crate::hist::Histogram;

/// Name of a counter track: `{base}{index}{suffix}`, kept in parts so a
/// sample needs no `format!`; rendered (via `Display`) only at export.
/// Two keys that render the same name must be the same key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrackKey {
    base: &'static str,
    index: Option<u32>,
    suffix: &'static str,
}

impl TrackKey {
    /// A fixed name, e.g. `parcels.in_flight`.
    pub const fn name(name: &'static str) -> Self {
        TrackKey { base: name, index: None, suffix: "" }
    }

    /// `{base}{suffix}`, e.g. a switch port's name plus `.occ`.
    pub const fn suffixed(base: &'static str, suffix: &'static str) -> Self {
        TrackKey { base, index: None, suffix }
    }

    /// `{base}{index}{suffix}`, e.g. `loc` + 3 + `.runq`.
    pub fn indexed(base: &'static str, index: usize, suffix: &'static str) -> Self {
        let index = u32::try_from(index).expect("track index fits in u32");
        TrackKey { base, index: Some(index), suffix }
    }
}

impl fmt::Display for TrackKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.base)?;
        if let Some(i) = self.index {
            write!(f, "{i}")?;
        }
        f.write_str(self.suffix)
    }
}

/// Registry of named metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    hists: BTreeMap<&'static str, Histogram>,
    /// Sampled `(t_ns, value)` series rendered as Perfetto counter tracks.
    tracks: FxMap<TrackKey, Vec<(u64, f64)>>,
}

impl Metrics {
    /// Create an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add `n` to counter `key`.
    #[inline]
    pub fn counter_add(&mut self, key: &'static str, n: u64) {
        *self.counters.entry(key).or_insert(0) += n;
    }

    /// Read a counter (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Set gauge `key` to `v`.
    #[inline]
    pub fn gauge_set(&mut self, key: &'static str, v: i64) {
        self.gauges.insert(key, v);
    }

    /// Add `delta` to gauge `key`.
    #[inline]
    pub fn gauge_add(&mut self, key: &'static str, delta: i64) {
        *self.gauges.entry(key).or_insert(0) += delta;
    }

    /// Read a gauge (0 if never touched).
    pub fn gauge(&self, key: &str) -> i64 {
        self.gauges.get(key).copied().unwrap_or(0)
    }

    /// Record `v` into histogram `key`.
    #[inline]
    pub fn hist_record(&mut self, key: &'static str, v: u64) {
        self.hists.entry(key).or_default().record(v);
    }

    /// Read a histogram.
    pub fn hist(&self, key: &str) -> Option<&Histogram> {
        self.hists.get(key)
    }

    /// Append a `(t_ns, value)` sample to counter track `key`.
    #[inline]
    pub fn track_sample(&mut self, key: TrackKey, t_ns: u64, v: f64) {
        self.tracks.entry(key).or_default().push((t_ns, v));
    }

    /// Iterate counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterate gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, i64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterate histograms in key order.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.hists.iter().map(|(k, v)| (*k, v))
    }

    /// Counter tracks with their rendered names, in name order.
    pub fn tracks(&self) -> Vec<(String, &[(u64, f64)])> {
        let mut v: Vec<_> =
            self.tracks.iter().map(|(k, s)| (k.to_string(), s.as_slice())).collect();
        v.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        debug_assert!(
            v.windows(2).all(|w| w[0].0 != w[1].0),
            "two track keys render the same name"
        );
        v
    }
}

/// What kind of synchronization object a contention row describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// Blocking lock ([`simcore::SimLock`]) — the mpi `ucp_progress` model.
    Lock,
    /// Non-blocking try-lock ([`simcore::SimTryLock`]).
    TryLock,
    /// Serialized service center ([`simcore::SimResource`]).
    Resource,
}

impl ResourceKind {
    /// Short display form.
    pub fn label(self) -> &'static str {
        match self {
            ResourceKind::Lock => "lock",
            ResourceKind::TryLock => "trylock",
            ResourceKind::Resource => "resource",
        }
    }
}

/// Accumulated wait-vs-service time for one named resource.
#[derive(Debug, Clone, Copy)]
pub struct ContentionStat {
    /// What the underlying object is.
    pub kind: ResourceKind,
    /// Total acquisitions/accesses/attempts.
    pub events: u64,
    /// Events that experienced contention (waited, queued, or failed the
    /// try).
    pub contended: u64,
    /// Total time spent waiting (spin/park/queue) before service, ns.
    pub total_wait_ns: u64,
    /// Total time spent in service / holding the object, ns.
    pub total_service_ns: u64,
}

impl ContentionStat {
    fn new(kind: ResourceKind) -> Self {
        ContentionStat { kind, events: 0, contended: 0, total_wait_ns: 0, total_service_ns: 0 }
    }

    /// Mean wait per event, ns.
    pub fn mean_wait_ns(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.total_wait_ns as f64 / self.events as f64
        }
    }
}

/// Per-resource contention attribution, fed through the `simcore::recorder` slot.
#[derive(Debug, Default)]
pub struct ContentionTable {
    rows: FxMap<&'static str, ContentionStat>,
}

impl ContentionTable {
    /// Create an empty table.
    pub fn new() -> Self {
        ContentionTable::default()
    }

    /// Record one event against `name`.
    #[inline]
    pub fn record(
        &mut self,
        name: &'static str,
        kind: ResourceKind,
        wait_ns: u64,
        service_ns: u64,
        contended: bool,
    ) {
        let row = self.rows.entry(name).or_insert_with(|| ContentionStat::new(kind));
        row.events += 1;
        row.contended += contended as u64;
        row.total_wait_ns += wait_ns;
        row.total_service_ns += service_ns;
    }

    /// Rows ranked by total wait time, descending (name breaks ties).
    pub fn ranking(&self) -> Vec<(&'static str, ContentionStat)> {
        let mut v: Vec<_> = self.rows.iter().map(|(k, s)| (*k, *s)).collect();
        v.sort_by(|a, b| b.1.total_wait_ns.cmp(&a.1.total_wait_ns).then(a.0.cmp(b.0)));
        v
    }

    /// Look up one row.
    pub fn get(&self, name: &str) -> Option<&ContentionStat> {
        self.rows.get(name)
    }

    /// Number of distinct resources seen.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_hists() {
        let mut m = Metrics::new();
        m.counter_add("a", 2);
        m.counter_add("a", 3);
        m.gauge_set("g", 7);
        m.gauge_add("g", -2);
        m.hist_record("h", 100);
        m.hist_record("h", 200);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.gauge("g"), 5);
        assert_eq!(m.hist("h").unwrap().count(), 2);
        assert_eq!(m.counters().count(), 1);
    }

    #[test]
    fn track_series_accumulate() {
        let mut m = Metrics::new();
        m.track_sample(TrackKey::name("q"), 10, 1.0);
        m.track_sample(TrackKey::name("q"), 20, 2.0);
        let tracks = m.tracks();
        assert_eq!(tracks, [("q".to_string(), &[(10, 1.0), (20, 2.0)][..])]);
    }

    /// Keys render `{base}{index}{suffix}` only at export, and tracks come
    /// out sorted by rendered name — `loc10` after `loc1`, as strings
    /// compare — whatever order they were first sampled in.
    #[test]
    fn track_keys_render_at_export_in_name_order() {
        let mut m = Metrics::new();
        m.track_sample(TrackKey::indexed("loc", 10, ".runq"), 5, 1.0);
        m.track_sample(TrackKey::suffixed("fab.s0.p1", ".occ"), 5, 2.0);
        m.track_sample(TrackKey::indexed("loc", 1, ".runq"), 5, 3.0);
        m.track_sample(TrackKey::indexed("loc", 2, ".runq"), 5, 4.0);
        m.track_sample(TrackKey::name("amt.delivered"), 5, 5.0);
        let names: Vec<_> = m.tracks().into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            ["amt.delivered", "fab.s0.p1.occ", "loc1.runq", "loc10.runq", "loc2.runq"]
        );
    }

    #[test]
    fn contention_ranking_orders_by_wait() {
        let mut t = ContentionTable::new();
        t.record("small", ResourceKind::TryLock, 10, 5, false);
        t.record("big", ResourceKind::Lock, 1000, 50, true);
        t.record("big", ResourceKind::Lock, 500, 50, true);
        let ranking = t.ranking();
        assert_eq!(ranking[0].0, "big");
        assert_eq!(ranking[0].1.total_wait_ns, 1500);
        assert_eq!(ranking[0].1.contended, 2);
        assert_eq!(ranking[1].0, "small");
        assert!(t.get("big").unwrap().mean_wait_ns() > 0.0);
    }
}
