//! Windowed telemetry timelines.
//!
//! Every report the collector produces elsewhere is an end-of-run
//! aggregate; this module slices the same instrumentation by fixed-width
//! virtual-time **windows** (default 100 µs) so transient phenomena — a
//! congestion knee forming, a retry storm after a link failure, a
//! straggler phase — stay visible instead of being averaged away:
//!
//! * **windowed histograms** — every timed `hist_record_at` lands in the
//!   sub-[`Histogram`] of window `t / window_ns`. The hard invariant is
//!   that merging all per-window sub-histograms reproduces the run-total
//!   histogram *bucket-identically* (same counts, sum, min, max, and
//!   therefore identical quantiles) — asserted by
//!   `crates/telemetry/tests/timeline_props.rs` and the integration tests;
//! * **windowed counters** — per-window deltas whose sum equals the
//!   run-total counter;
//! * **per-port windows** — `fab.*` egress-port wait/packets/bytes per
//!   window, fed by the switch fabric's port accesses;
//! * **occupancy and critical-path slices** — per-window core-state time
//!   ([`slice_occupancy`]) and on-path component time
//!   ([`critpath_slices`]), cut at export from the profiler and the
//!   causal log, each summing to its run total.
//!
//! The timeline keeps a monotone time cursor: the high-water mark of
//! every timed record it sees (flow marks, counter-track samples,
//! profiler intervals, contention events). The cursor only sets the
//! covered horizon `[0, cursor]`; samples are attributed to their own
//! window whenever they arrive, so out-of-order instrumentation never
//! breaks the merge == total invariant. The Chrome export renders the
//! windowed series at export time ([`Timeline::counter_tracks`]); the
//! timeline itself is never copied into another store. Everything here
//! is pure observation: fed only from existing instrumentation points,
//! it never schedules events or charges virtual time, so golden traces
//! are unchanged.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::critpath::CritPath;
use crate::hist::Histogram;
use crate::json::escape_json;
use crate::metrics::Metrics;
use crate::profile::{CoreAccount, CoreState, N_STATES, STATES};

/// Default window width: 100 µs of virtual time.
pub const DEFAULT_WINDOW_NS: u64 = 100_000;

/// Timeline configuration.
#[derive(Debug, Clone)]
pub struct TimelineConfig {
    /// Window width in virtual ns (must be > 0).
    pub window_ns: u64,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig { window_ns: DEFAULT_WINDOW_NS }
    }
}

/// Per-window egress-port accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortWindow {
    /// Queueing wait accumulated in the window, ns.
    pub wait_ns: u64,
    /// Packets transmitted in the window.
    pub pkts: u64,
    /// Bytes transmitted in the window.
    pub bytes: u64,
}

/// The windowed time-series layer. Owned by the active `Telemetry`
/// collector when timelines are enabled; fed from the same
/// instrumentation points as the aggregate registries.
#[derive(Debug)]
pub struct Timeline {
    /// Window width, ns.
    window_ns: u64,
    /// High-water mark of every timed record observed, ns.
    cursor_ns: u64,
    /// Per-key windowed sub-histograms (sparse; empty windows implied).
    hists: BTreeMap<&'static str, BTreeMap<u64, Histogram>>,
    /// Per-key per-window counter deltas.
    counters: BTreeMap<&'static str, BTreeMap<u64, u64>>,
    /// Per-port per-window accounting (keyed by interned port name).
    ports: BTreeMap<&'static str, BTreeMap<u64, PortWindow>>,
}

impl Timeline {
    /// A fresh timeline under `cfg`.
    pub fn new(cfg: TimelineConfig) -> Timeline {
        assert!(cfg.window_ns > 0, "window width must be positive");
        Timeline {
            window_ns: cfg.window_ns,
            cursor_ns: 0,
            hists: BTreeMap::new(),
            counters: BTreeMap::new(),
            ports: BTreeMap::new(),
        }
    }

    /// Window width in ns.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// The window index instant `t_ns` falls in (boundary instants start
    /// the next window: `t == k·W` lands in window `k`).
    pub fn window_of(&self, t_ns: u64) -> u64 {
        t_ns / self.window_ns
    }

    /// Current time cursor (high-water mark of observed instants), ns.
    pub fn cursor_ns(&self) -> u64 {
        self.cursor_ns
    }

    /// Number of windows covering `[0, cursor]`, empty windows included.
    pub fn num_windows(&self) -> u64 {
        self.window_of(self.cursor_ns) + 1
    }

    /// Advance the time cursor to `t_ns` if it lies beyond it.
    pub fn observe(&mut self, t_ns: u64) {
        self.cursor_ns = self.cursor_ns.max(t_ns);
    }

    /// Record `v` into windowed histogram `key` at instant `t_ns`.
    /// Deliveries are timed analytically, so under congestion samples
    /// arrive out of order; each still lands in its own window.
    pub fn hist_at(&mut self, key: &'static str, v: u64, t_ns: u64) {
        let w = t_ns / self.window_ns;
        self.hists.entry(key).or_default().entry(w).or_default().record(v);
        self.observe(t_ns);
    }

    /// Add `n` to windowed counter `key` at instant `t_ns`.
    pub fn counter_at(&mut self, key: &'static str, n: u64, t_ns: u64) {
        let w = t_ns / self.window_ns;
        *self.counters.entry(key).or_default().entry(w).or_default() += n;
        self.observe(t_ns);
    }

    /// Record one egress-port access at instant `t_ns`. Port grants are
    /// scheduled analytically at injection time, so `t_ns` routinely lies
    /// in the future — the access is attributed to its window but does
    /// NOT advance the cursor: the horizon ends at the last instant the
    /// run actually reached.
    pub fn port_at(&mut self, name: &'static str, t_ns: u64, wait_ns: u64, bytes: u64) {
        let w = t_ns / self.window_ns;
        let pw = self.ports.entry(name).or_default().entry(w).or_default();
        pw.wait_ns += wait_ns;
        pw.pkts += 1;
        pw.bytes += bytes;
    }

    /// The sub-histogram of `key` in window `w`, if any sample landed.
    pub fn hist_window(&self, key: &str, w: u64) -> Option<&Histogram> {
        self.hists.get(key).and_then(|ws| ws.get(&w))
    }

    /// All non-empty windows of `key`, keyed by window index.
    pub fn hist_windows(&self, key: &str) -> Option<&BTreeMap<u64, Histogram>> {
        self.hists.get(key)
    }

    /// Merge of all per-window sub-histograms of `key` — by the window
    /// partition invariant, bucket-identical to the run-total histogram.
    pub fn merged_hist(&self, key: &str) -> Option<Histogram> {
        let ws = self.hists.get(key)?;
        let mut out = Histogram::new();
        for h in ws.values() {
            out.merge(h);
        }
        Some(out)
    }

    /// Windowed-histogram keys in order.
    pub fn hist_keys(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.hists.keys().copied()
    }

    /// Counter keys that took at least one delta, in order.
    pub fn counter_keys(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.counters.keys().copied()
    }

    /// Per-window deltas of counter `key` (sparse).
    pub fn counter_windows(&self, key: &str) -> Option<&BTreeMap<u64, u64>> {
        self.counters.get(key)
    }

    /// Sum of all per-window deltas of counter `key`.
    pub fn counter_total(&self, key: &str) -> u64 {
        self.counters.get(key).map(|ws| ws.values().sum()).unwrap_or(0)
    }

    /// Per-window accounting of port `name` (sparse).
    pub fn port_windows(&self, name: &str) -> Option<&BTreeMap<u64, PortWindow>> {
        self.ports.get(name)
    }

    /// Port names that carried traffic, in order.
    pub fn port_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.ports.keys().copied()
    }

    /// Counter-track series for the Perfetto export: per-window rates for
    /// every windowed counter (`tl.<key>.per_window`), per-window p99 for
    /// every windowed histogram (`tl.<key>.p99_us`), and per-window wait
    /// for every port (`tl.<port>.wait_us`). Samples sit at window start
    /// instants.
    pub fn counter_tracks(&self) -> Vec<(String, Vec<(u64, f64)>)> {
        let w_ns = self.window_ns;
        let nwin = self.num_windows();
        let mut out = Vec::new();
        for (key, ws) in &self.counters {
            let series = (0..nwin).map(|w| (w * w_ns, *ws.get(&w).unwrap_or(&0) as f64)).collect();
            out.push((format!("tl.{key}.per_window"), series));
        }
        for (key, ws) in &self.hists {
            let series = (0..nwin)
                .map(|w| (w * w_ns, ws.get(&w).map(|h| h.p99() as f64 / 1e3).unwrap_or(0.0)))
                .collect();
            out.push((format!("tl.{key}.p99_us"), series));
        }
        for (name, ws) in &self.ports {
            let series = (0..nwin)
                .map(|w| (w * w_ns, ws.get(&w).map(|p| p.wait_ns as f64 / 1e3).unwrap_or(0.0)))
                .collect();
            out.push((format!("tl.{name}.wait_us"), series));
        }
        out
    }

    /// The machine-readable timeline document (see `trace_check
    /// --require-timeline` for the invariants it carries): gap-free
    /// window array (empty windows explicit), per-window counters /
    /// histogram summaries / port windows / optional state occupancy and
    /// critical-path slices, and run totals from the aggregate registry
    /// for the merge==total cross-check.
    pub fn to_json(
        &self,
        config: &str,
        totals: &Metrics,
        occupancy: Option<&WindowOccupancy>,
        crit: Option<&[BTreeMap<String, u64>]>,
    ) -> String {
        let w_ns = self.window_ns;
        let nwin = self.num_windows();
        let mut windows = Vec::with_capacity(nwin as usize);
        for w in 0..nwin {
            let mut fields =
                format!("{{\"index\":{w},\"start_ns\":{},\"end_ns\":{}", w * w_ns, (w + 1) * w_ns);
            let counters: Vec<String> = self
                .counters
                .iter()
                .filter_map(|(k, ws)| ws.get(&w).map(|n| format!("\"{}\":{n}", escape_json(k))))
                .collect();
            write!(fields, ",\"counters\":{{{}}}", counters.join(",")).expect("write");
            let hists: Vec<String> = self
                .hists
                .iter()
                .filter_map(|(k, ws)| {
                    ws.get(&w).map(|h| format!("\"{}\":{}", escape_json(k), hist_summary_json(h)))
                })
                .collect();
            write!(fields, ",\"hists\":{{{}}}", hists.join(",")).expect("write");
            let ports: Vec<String> = self
                .ports
                .iter()
                .filter_map(|(k, ws)| {
                    ws.get(&w).map(|p| {
                        format!(
                            "\"{}\":{{\"wait_ns\":{},\"pkts\":{},\"bytes\":{}}}",
                            escape_json(k),
                            p.wait_ns,
                            p.pkts,
                            p.bytes
                        )
                    })
                })
                .collect();
            if !ports.is_empty() {
                write!(fields, ",\"ports\":{{{}}}", ports.join(",")).expect("write");
            }
            if let Some(occ) = occupancy {
                if let Some(states) = occ.per_window.get(w as usize) {
                    let body: Vec<String> = STATES
                        .iter()
                        .zip(states.iter())
                        .map(|(s, ns)| format!("\"{}\":{ns}", s.label()))
                        .collect();
                    write!(fields, ",\"occupancy\":{{{}}}", body.join(",")).expect("write");
                }
            }
            if let Some(crit) = crit {
                if let Some(comps) = crit.get(w as usize) {
                    if !comps.is_empty() {
                        let body: Vec<String> = comps
                            .iter()
                            .map(|(c, ns)| format!("\"{}\":{ns}", escape_json(c)))
                            .collect();
                        write!(fields, ",\"critpath\":{{{}}}", body.join(",")).expect("write");
                    }
                }
            }
            fields.push('}');
            windows.push(fields);
        }

        // Run totals for the merge==total cross-check: only keys the
        // timeline saw (the aggregate registry may hold untimed extras).
        let tot_counters: Vec<String> = self
            .counters
            .keys()
            .map(|k| format!("\"{}\":{}", escape_json(k), totals.counter(k)))
            .collect();
        let tot_hists: Vec<String> = self
            .hists
            .keys()
            .filter_map(|k| {
                totals.hist(k).map(|h| format!("\"{}\":{}", escape_json(k), hist_summary_json(h)))
            })
            .collect();
        let occupancy_totals = occupancy
            .map(|occ| {
                let body: Vec<String> = STATES
                    .iter()
                    .zip(occ.totals.iter())
                    .map(|(s, ns)| format!("\"{}\":{ns}", s.label()))
                    .collect();
                format!(",\"occupancy_totals\":{{{}}}", body.join(","))
            })
            .unwrap_or_default();
        format!(
            "{{\"timeline\":{{\"config\":\"{}\",\"window_ns\":{w_ns},\"horizon_ns\":{},\
             \"windows\":[{}],\
             \"totals\":{{\"counters\":{{{}}},\"hists\":{{{}}}}}{}}}}}",
            escape_json(config),
            self.cursor_ns,
            windows.join(","),
            tot_counters.join(","),
            tot_hists.join(","),
            occupancy_totals
        )
    }

    /// OpenMetrics-style text exposition of the windowed series: every
    /// counter as `<name>_total{window="w"}`, every histogram as a
    /// summary (quantile gauges + `_count`/`_sum`), port wait as a
    /// counter. Names are sanitized to the OpenMetrics charset;
    /// virtual-time window labels replace wall-clock scrape timestamps.
    pub fn to_openmetrics(&self, config: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Timeline exposition for {config}");
        let _ = writeln!(out, "# TYPE tl_window_ns gauge\ntl_window_ns {}", self.window_ns);
        let _ = writeln!(out, "# TYPE tl_windows gauge\ntl_windows {}", self.num_windows());
        for (key, ws) in &self.counters {
            let name = sanitize_metric(key);
            let _ = writeln!(out, "# TYPE {name} counter");
            for (w, n) in ws {
                let _ = writeln!(out, "{name}_total{{window=\"{w}\"}} {n}");
            }
        }
        for (key, ws) in &self.hists {
            let name = sanitize_metric(key);
            let _ = writeln!(out, "# TYPE {name} summary");
            for (w, h) in ws {
                for (q, v) in [(0.5, h.p50()), (0.9, h.p90()), (0.99, h.p99()), (0.999, h.p999())] {
                    let _ = writeln!(out, "{name}{{window=\"{w}\",quantile=\"{q}\"}} {v}");
                }
                let _ = writeln!(out, "{name}_count{{window=\"{w}\"}} {}", h.count());
                let _ = writeln!(out, "{name}_sum{{window=\"{w}\"}} {}", h.sum());
            }
        }
        for (port, ws) in &self.ports {
            let name = format!("{}_wait_ns", sanitize_metric(port));
            let _ = writeln!(out, "# TYPE {name} counter");
            for (w, p) in ws {
                let _ = writeln!(out, "{name}_total{{window=\"{w}\"}} {}", p.wait_ns);
            }
        }
        out
    }
}

/// Per-window histogram summary (counts + bounds + quantiles).
fn hist_summary_json(h: &Histogram) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\
         \"p99\":{},\"p999\":{}}}",
        h.count(),
        h.sum(),
        if h.count() == 0 { 0 } else { h.min() },
        h.max(),
        h.p50(),
        h.p90(),
        h.p99(),
        h.p999()
    )
}

/// OpenMetrics name charset: `[a-zA-Z0-9_]`, dots and dashes folded to
/// underscores.
fn sanitize_metric(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// Per-window core-state occupancy, aggregated over all cores.
#[derive(Debug, Clone, Default)]
pub struct WindowOccupancy {
    /// `per_window[w][state]` = ns spent in `STATES[state]` across all
    /// cores during window `w`.
    pub per_window: Vec<[u64; N_STATES]>,
    /// Run totals per state (sum over windows — equals the profiler's own
    /// state totals by the exact-partition invariant).
    pub totals: [u64; N_STATES],
}

/// Slice finalized core accounts into per-window state occupancy. Each
/// account's segment timeline partitions `[0, cursor]` exactly, and this
/// slicing preserves that: summing a state over all windows reproduces
/// the account's `state_ns` totals (asserted in the timeline tests).
pub fn slice_occupancy<'a>(
    accounts: impl IntoIterator<Item = &'a CoreAccount>,
    window_ns: u64,
    nwin: u64,
) -> WindowOccupancy {
    let mut occ =
        WindowOccupancy { per_window: vec![[0; N_STATES]; nwin as usize], totals: [0; N_STATES] };
    for acc in accounts {
        for (start, end, state) in acc.segments() {
            spread(&mut occ, start, end, state, window_ns);
        }
    }
    occ
}

fn spread(occ: &mut WindowOccupancy, start: u64, end: u64, state: CoreState, window_ns: u64) {
    let si = state as usize;
    let mut t = start;
    while t < end {
        let w = t / window_ns;
        let wend = (w + 1) * window_ns;
        let chunk = end.min(wend) - t;
        if let Some(row) = occ.per_window.get_mut(w as usize) {
            row[si] += chunk;
        } else if let Some(last) = occ.per_window.last_mut() {
            // Segment tails past the timeline horizon fold into the last
            // window so the partition stays exact.
            last[si] += chunk;
        }
        occ.totals[si] += chunk;
        t = end.min(wend);
    }
}

/// Slice a critical path into per-window per-component shares: "what
/// dominated *this* window". Summing a component over all windows equals
/// its run-total on-path time exactly (segments partition `[0, total]`).
pub fn critpath_slices(cp: &CritPath, window_ns: u64, nwin: u64) -> Vec<BTreeMap<String, u64>> {
    let mut out: Vec<BTreeMap<String, u64>> = vec![BTreeMap::new(); nwin as usize];
    for seg in &cp.segments {
        let mut t = seg.start;
        while t < seg.end {
            let w = t / window_ns;
            let wend = (w + 1) * window_ns;
            let chunk = seg.end.min(wend) - t;
            let idx = (w as usize).min(out.len().saturating_sub(1));
            if let Some(row) = out.get_mut(idx) {
                *row.entry(seg.component.clone()).or_insert(0) += chunk;
            }
            t = seg.end.min(wend);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window_ns: u64) -> TimelineConfig {
        TimelineConfig { window_ns }
    }

    #[test]
    fn windows_partition_and_merge_exactly() {
        let mut tl = Timeline::new(cfg(100));
        let mut total = Histogram::new();
        for (t, v) in [(5u64, 10u64), (99, 20), (100, 30), (250, 40), (995, 50)] {
            tl.hist_at("lat", v, t);
            total.record(v);
        }
        // Boundary instant 100 lands in window 1, not window 0.
        assert_eq!(tl.hist_window("lat", 0).unwrap().count(), 2);
        assert_eq!(tl.hist_window("lat", 1).unwrap().count(), 1);
        assert!(tl.hist_window("lat", 3).is_none(), "empty windows stay sparse");
        assert_eq!(tl.num_windows(), 10, "coverage spans [0, cursor]");
        assert_eq!(tl.merged_hist("lat").unwrap(), total, "merge == total, bucket-identical");
    }

    #[test]
    fn counter_windows_sum_to_total() {
        let mut tl = Timeline::new(cfg(1000));
        tl.counter_at("msgs", 2, 10);
        tl.counter_at("msgs", 3, 999);
        tl.counter_at("msgs", 5, 1000);
        tl.counter_at("msgs", 7, 5500);
        assert_eq!(tl.counter_windows("msgs").unwrap().get(&0), Some(&5));
        assert_eq!(tl.counter_windows("msgs").unwrap().get(&1), Some(&5));
        assert_eq!(tl.counter_total("msgs"), 17);
    }

    #[test]
    fn json_doc_is_valid_and_gap_free() {
        let mut tl = Timeline::new(cfg(100));
        tl.hist_at("lat", 10, 50);
        tl.counter_at("msgs", 1, 50);
        tl.hist_at("lat", 20, 450);
        tl.port_at("fab.e0.p1", 120, 30, 64);
        let mut m = Metrics::new();
        m.hist_record("lat", 10);
        m.hist_record("lat", 20);
        m.counter_add("msgs", 1);
        let doc = tl.to_json("test", &m, None, None);
        let v = crate::json::parse(&doc).expect("valid json");
        let t = v.get("timeline").unwrap();
        let windows = t.get("windows").unwrap().as_arr().unwrap();
        assert_eq!(windows.len(), 5, "gap-free coverage includes empty windows");
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.get("index").unwrap().as_f64(), Some(i as f64));
        }
        assert!(doc.contains("\"fab.e0.p1\""));
        let om = tl.to_openmetrics("test");
        assert!(om.contains("lat_count{window=\"0\"} 1"), "exposition: {om}");
        assert!(om.contains("fab_e0_p1_wait_ns_total{window=\"1\"} 30"));
    }

    #[test]
    fn occupancy_slicing_preserves_partition() {
        use crate::profile::{CoreProfile, POLL};
        let mut p = CoreProfile::new();
        p.record_base(0, 0, CoreState::Working, "task", 0, 250);
        p.record_base(0, 0, CoreState::Progress, POLL, 250, 420);
        let snap = p.snapshot();
        let occ = slice_occupancy(snap.values(), 100, 5);
        let total: u64 = occ.totals.iter().sum();
        assert_eq!(total, 420, "slices partition the accounted time");
        assert_eq!(occ.per_window[0][CoreState::Working as usize], 100);
        assert_eq!(occ.per_window[2][CoreState::Working as usize], 50);
        assert_eq!(occ.per_window[2][CoreState::Progress as usize], 50);
        let per_window_sum: u64 = occ.per_window.iter().flat_map(|w| w.iter()).sum();
        assert_eq!(per_window_sum, total);
    }
}
