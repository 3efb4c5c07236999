//! Virtual-time core profiler: per-core state accounting, folded-stack
//! flamegraphs, and the core slices drawn on the Chrome core tracks.
//!
//! Every simulated core owns a [`CoreAccount`] that partitions its elapsed
//! virtual time into five [`CoreState`]s: `working` (HPX task execution),
//! `progress` (network progress: cq polling, background sends, MPI test
//! loops), `lock-wait` (spinning on a `SimLock` / queued on a
//! `SimResource`), `serialize` (parcel encode) and `idle`. The **hard
//! invariant** is that the five durations partition the core's elapsed
//! virtual time exactly — no gaps, no double counting — for *any*
//! interleaving of records. It holds by construction (see below) and is
//! re-checked by [`CoreAccount::check_partition`] and the property tests
//! in `tests/profile_props.rs`.
//!
//! ## Base vs overlay records
//!
//! The scheduler (`amt::Locality`) knows exactly when a core ran and what
//! base activity it ran (`task`, `background`, `progress`); it reports
//! those intervals as **base** records after charging them. Probes deeper
//! in the stack (lock waits, resource queueing, serialization) fire
//! *inside* a base interval, before the scheduler has reported it; they
//! arrive as **overlay** records and are held pending until the enclosing
//! base record lands, then carved out of it — the base state keeps the
//! remainder. Time covered by no base record at all becomes `idle`
//! (overlays stranded in such a gap still count as their own state). A
//! per-core cursor makes attribution contiguous: everything below the
//! cursor is finally attributed, so the state durations always partition
//! `[0, cursor]` exactly, whatever order records arrive in.
//!
//! The `(state, leaf-label)` totals double as flamegraph frames:
//! [`CoreProfile::folded`] renders them in the folded-stack format that
//! `inferno` / `flamegraph.pl` consume
//! (`config;locL/coreC;state;leaf weight` per line, weights in ns).
//!
//! ## Core slices
//!
//! The profile is also the one record of scheduler slices: every base
//! record except a [`POLL`] (a charged poll that found no work) is kept
//! as a [`CoreSlice`], in record order, and the Chrome export draws those
//! slices on the core tracks. Every per-core view — Chrome core slices
//! and flow slices, folded stacks, the core-time report — names its core
//! with [`CoreTrack`].

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::json::escape_json;

/// Core activity states, in display order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CoreState {
    /// Executing application/HPX tasks.
    Working = 0,
    /// Driving the network: cq polls, background sends, MPI test loops.
    Progress = 1,
    /// Spinning on a blocking lock or queued on a serialized resource.
    LockWait = 2,
    /// Encoding parcels into wire messages.
    Serialize = 3,
    /// Nothing to run.
    Idle = 4,
}

/// Number of distinct states.
pub const N_STATES: usize = 5;

/// All states in display order.
pub const STATES: [CoreState; N_STATES] = [
    CoreState::Working,
    CoreState::Progress,
    CoreState::LockWait,
    CoreState::Serialize,
    CoreState::Idle,
];

impl CoreState {
    /// Short display form (also the flamegraph frame name).
    pub fn label(self) -> &'static str {
        match self {
            CoreState::Working => "working",
            CoreState::Progress => "progress",
            CoreState::LockWait => "lock-wait",
            CoreState::Serialize => "serialize",
            CoreState::Idle => "idle",
        }
    }

    fn from_u8(v: u8) -> CoreState {
        STATES[v as usize]
    }
}

/// Label of a scheduler slice that found no work: accounted like any
/// base record, but drawn on no core track.
pub const POLL: &str = "poll";

/// The track name of one core, `loc{L}/core{C}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreTrack(pub usize, pub usize);

impl fmt::Display for CoreTrack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loc{}/core{}", self.0, self.1)
    }
}

/// One scheduler slice that did work (a base record not labelled
/// [`POLL`]), as drawn on its core track. Zero-length slices are kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreSlice {
    /// Locality id.
    pub loc: usize,
    /// Core index within the locality.
    pub core: usize,
    /// What ran (`task`, `background`, `progress`).
    pub label: &'static str,
    /// Slice start, virtual ns.
    pub start: u64,
    /// Slice end, virtual ns.
    pub end: u64,
}

/// Timeline segments kept per core before rendering stops recording them
/// (pure memory guard — the ns accounting continues past the cap).
const MAX_SEGMENTS: usize = 1 << 20;

/// One core's virtual-time account.
///
/// All instants are virtual nanoseconds. `cursor` is the frontier of final
/// attribution; `ns` sums to `cursor` at every point in time.
#[derive(Debug, Clone, Default)]
pub struct CoreAccount {
    /// Everything below this instant is finally attributed.
    cursor: u64,
    /// Attributed time per state; partitions `[0, cursor]`.
    ns: [u64; N_STATES],
    /// Attributed time per `(state, leaf label)` — the flamegraph leaves.
    leaves: BTreeMap<(CoreState, &'static str), u64>,
    /// Overlay records waiting for their enclosing base record.
    pending: Vec<(u64, u64, CoreState, &'static str)>,
    /// Attributed `(start, end, state)` runs for timeline rendering,
    /// capped at [`MAX_SEGMENTS`].
    segments: Vec<(u64, u64, u8)>,
}

impl CoreAccount {
    /// Attribute `[self.cursor, end)` to `state`. The only place the
    /// cursor moves, which is what makes the partition exact.
    fn attribute(&mut self, end: u64, state: CoreState, label: &'static str) {
        let dur = end - self.cursor;
        if dur == 0 {
            return;
        }
        self.ns[state as usize] += dur;
        if state != CoreState::Idle {
            *self.leaves.entry((state, label)).or_insert(0) += dur;
        }
        let start = self.cursor;
        self.cursor = end;
        if let Some(last) = self.segments.last_mut() {
            if last.1 == start && last.2 == state as u8 {
                last.1 = end;
                return;
            }
        }
        if self.segments.len() < MAX_SEGMENTS {
            self.segments.push((start, end, state as u8));
        }
    }

    /// Advance the cursor to `t`: idle before `base_start`, the base
    /// state from `base_start` on.
    fn fill_to(&mut self, t: u64, base_start: u64, state: CoreState, label: &'static str) {
        if t <= self.cursor {
            return;
        }
        let idle_end = t.min(base_start);
        if idle_end > self.cursor {
            self.attribute(idle_end, CoreState::Idle, "idle");
        }
        if t > self.cursor {
            self.attribute(t, state, label);
        }
    }

    /// Record a base interval `[start, end)` in `state` (scheduler-level:
    /// the core was running `label` then, minus whatever overlays carve
    /// out). Any gap since the previous base interval becomes idle.
    pub fn record_base(&mut self, state: CoreState, label: &'static str, start: u64, end: u64) {
        debug_assert!(end >= start, "interval must not be negative");
        if end <= self.cursor {
            return;
        }
        let base_start = start.max(self.cursor);
        self.pending.sort_by_key(|p| (p.0, p.1));
        for (ps, pe, pstate, plabel) in std::mem::take(&mut self.pending) {
            if ps >= end {
                self.pending.push((ps, pe, pstate, plabel));
                continue;
            }
            if pe <= self.cursor {
                continue;
            }
            let ps = ps.max(self.cursor);
            self.fill_to(ps, base_start, state, label);
            self.attribute(pe, pstate, plabel);
        }
        self.fill_to(end, base_start, state, label);
    }

    /// Record an overlay interval `[start, end)` in `state` (probe-level:
    /// a lock wait or serialization nested inside a base interval the
    /// scheduler has not reported yet). Held pending until then.
    pub fn record_overlay(&mut self, state: CoreState, label: &'static str, start: u64, end: u64) {
        debug_assert!(end >= start, "interval must not be negative");
        if end <= self.cursor || end == start {
            return;
        }
        self.pending.push((start.max(self.cursor), end, state, label));
    }

    /// Flush pending overlays (gaps around them become idle) and extend
    /// the account to `horizon` with idle. Idempotent.
    pub fn finalize(&mut self, horizon: u64) {
        self.pending.sort_by_key(|p| (p.0, p.1));
        for (ps, pe, pstate, plabel) in std::mem::take(&mut self.pending) {
            if pe <= self.cursor {
                continue;
            }
            let ps = ps.max(self.cursor);
            if ps > self.cursor {
                self.attribute(ps, CoreState::Idle, "idle");
            }
            self.attribute(pe, pstate, plabel);
        }
        if horizon > self.cursor {
            self.attribute(horizon, CoreState::Idle, "idle");
        }
    }

    /// Elapsed (finally attributed) virtual time.
    pub fn elapsed_ns(&self) -> u64 {
        self.cursor
    }

    /// Latest instant any record (attributed or pending) reaches.
    pub fn frontier_ns(&self) -> u64 {
        self.pending.iter().map(|p| p.1).max().unwrap_or(0).max(self.cursor)
    }

    /// Attributed time in `state`.
    pub fn state_ns(&self, state: CoreState) -> u64 {
        self.ns[state as usize]
    }

    /// Attributed per-state durations, indexed by [`STATES`] order.
    pub fn state_table(&self) -> [u64; N_STATES] {
        self.ns
    }

    /// Non-idle attributed time.
    pub fn busy_ns(&self) -> u64 {
        self.cursor - self.ns[CoreState::Idle as usize]
    }

    /// Iterate `(state, leaf label, ns)` flamegraph leaves.
    pub fn leaves(&self) -> impl Iterator<Item = (CoreState, &'static str, u64)> + '_ {
        self.leaves.iter().map(|(&(s, l), &ns)| (s, l, ns))
    }

    /// Attributed `(start, end, state)` runs, oldest first.
    pub fn segments(&self) -> impl Iterator<Item = (u64, u64, CoreState)> + '_ {
        self.segments.iter().map(|&(s, e, st)| (s, e, CoreState::from_u8(st)))
    }

    /// The hard invariant: state durations partition `[0, cursor]`.
    pub fn check_partition(&self) -> Result<(), String> {
        let sum: u64 = self.ns.iter().sum();
        if sum == self.cursor {
            Ok(())
        } else {
            Err(format!(
                "state durations sum to {sum} ns but elapsed virtual time is {} ns",
                self.cursor
            ))
        }
    }
}

/// The per-core accounts of one run, keyed by `(locality, core)`, the
/// core slices in record order, and the locality context used to
/// attribute probe-driven overlays.
#[derive(Debug, Default)]
pub struct CoreProfile {
    cores: BTreeMap<(usize, usize), CoreAccount>,
    slices: Vec<CoreSlice>,
    current_loc: usize,
}

impl CoreProfile {
    /// Create an empty profile.
    pub fn new() -> Self {
        CoreProfile::default()
    }

    /// Set the locality whose event handler is currently executing.
    /// Probe-driven overlays (which only know a core index) land here.
    pub fn set_loc(&mut self, loc: usize) {
        self.current_loc = loc;
    }

    /// The locality set by [`CoreProfile::set_loc`].
    pub fn current_loc(&self) -> usize {
        self.current_loc
    }

    /// Record a base interval on `(loc, core)`. Unless it is a [`POLL`],
    /// it is also kept as a [`CoreSlice`]; a zero-length interval is kept
    /// as a slice only and accounts no time.
    pub fn record_base(
        &mut self,
        loc: usize,
        core: usize,
        state: CoreState,
        label: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        if label != POLL {
            self.slices.push(CoreSlice { loc, core, label, start: start_ns, end: end_ns });
        }
        if end_ns > start_ns {
            self.cores.entry((loc, core)).or_default().record_base(state, label, start_ns, end_ns);
        }
    }

    /// The core slices, in record order.
    pub fn slices(&self) -> &[CoreSlice] {
        &self.slices
    }

    /// Record an overlay interval on `core` of the current locality.
    pub fn record_overlay_here(
        &mut self,
        core: usize,
        state: CoreState,
        label: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.cores
            .entry((self.current_loc, core))
            .or_default()
            .record_overlay(state, label, start_ns, end_ns);
    }

    /// Whether no core recorded anything.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// One core's live (unfinalized) account.
    pub fn account(&self, loc: usize, core: usize) -> Option<&CoreAccount> {
        self.cores.get(&(loc, core))
    }

    /// Latest instant any core's records reach — the report horizon.
    pub fn horizon_ns(&self) -> u64 {
        self.cores.values().map(|a| a.frontier_ns()).max().unwrap_or(0)
    }

    /// Finalized copies of every account, all extended to the common
    /// horizon (the live accounts keep accumulating untouched).
    pub fn snapshot(&self) -> BTreeMap<(usize, usize), CoreAccount> {
        let horizon = self.horizon_ns();
        let mut out = self.cores.clone();
        for acct in out.values_mut() {
            acct.finalize(horizon);
        }
        out
    }

    /// Build the ranked core-time report for `config`.
    pub fn report(&self, config: &str) -> CoreTimeReport {
        let horizon = self.horizon_ns();
        let mut rows: Vec<CoreRow> = self
            .snapshot()
            .into_iter()
            .map(|((loc, core), acct)| CoreRow { loc, core, ns: acct.state_table() })
            .collect();
        rows.sort_by(|a, b| {
            b.busy_ns().cmp(&a.busy_ns()).then((a.loc, a.core).cmp(&(b.loc, b.core)))
        });
        CoreTimeReport { config: config.to_string(), horizon_ns: horizon, rows }
    }

    /// Render the folded-stack flamegraph input for `config`: one
    /// `config;locL/coreC;state;leaf weight` line per leaf, weights in
    /// ns, idle excluded (it is a busy-time flamegraph).
    pub fn folded(&self, config: &str) -> String {
        let mut out = String::new();
        for ((loc, core), acct) in self.snapshot() {
            for (state, leaf, ns) in acct.leaves() {
                let track = CoreTrack(loc, core);
                let _ = writeln!(out, "{config};{track};{};{leaf} {ns}", state.label());
            }
        }
        out
    }
}

/// One row of a [`CoreTimeReport`]: a core's finalized state durations.
#[derive(Debug, Clone)]
pub struct CoreRow {
    /// Locality id.
    pub loc: usize,
    /// Core index within the locality.
    pub core: usize,
    /// Durations per state, indexed by [`STATES`] order.
    pub ns: [u64; N_STATES],
}

impl CoreRow {
    /// Total accounted time (equals the report horizon).
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Non-idle time.
    pub fn busy_ns(&self) -> u64 {
        self.total_ns() - self.ns[CoreState::Idle as usize]
    }

    /// `state`'s share of total accounted time (0 when empty).
    pub fn share(&self, state: CoreState) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.ns[state as usize] as f64 / total as f64
        }
    }
}

/// Ranked per-core time breakdown for one configuration.
#[derive(Debug, Clone)]
pub struct CoreTimeReport {
    /// Configuration label (e.g. `lci_psr_cq_pin_i`).
    pub config: String,
    /// Common horizon all rows are finalized to, ns.
    pub horizon_ns: u64,
    /// One row per `(locality, core)`, ranked by busy time descending.
    pub rows: Vec<CoreRow>,
}

impl CoreTimeReport {
    /// Rows of one locality, in rank order.
    pub fn locality(&self, loc: usize) -> impl Iterator<Item = &CoreRow> + '_ {
        self.rows.iter().filter(move |r| r.loc == loc)
    }

    /// Render an aligned text table (times in µs, shares of elapsed).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "core time breakdown [{}]  horizon={:.1}us  cores={}",
            self.config,
            self.horizon_ns as f64 / 1e3,
            self.rows.len()
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>10} {:>7} {:>9} {:>9} {:>9} {:>9} {:>7}",
            "core", "busy_us", "busy%", "work%", "progr%", "lockw%", "serial%", "idle%"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  {:<12} {:>10.1} {:>6.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>6.1}%",
                CoreTrack(r.loc, r.core).to_string(),
                r.busy_ns() as f64 / 1e3,
                100.0 * r.busy_ns() as f64 / r.total_ns().max(1) as f64,
                100.0 * r.share(CoreState::Working),
                100.0 * r.share(CoreState::Progress),
                100.0 * r.share(CoreState::LockWait),
                100.0 * r.share(CoreState::Serialize),
                100.0 * r.share(CoreState::Idle),
            );
        }
        out
    }

    /// Render as machine-readable JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"config\":\"{}\",\"horizon_ns\":{},\"cores\":[",
            escape_json(&self.config),
            self.horizon_ns
        );
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"loc\":{},\"core\":{}", r.loc, r.core);
            for state in STATES {
                let _ = write!(out, ",\"{}_ns\":{}", state.label(), r.ns[state as usize]);
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Downsample a `(t_ns, value)` series into `buckets` equal windows over
/// `[0, horizon)`: each bucket averages its samples; empty buckets carry
/// the previous bucket's value forward (0 before the first sample).
pub fn resample(series: &[(u64, f64)], horizon_ns: u64, buckets: usize) -> Vec<f64> {
    let mut out = vec![0.0; buckets];
    if buckets == 0 || horizon_ns == 0 {
        return out;
    }
    let width = horizon_ns as f64 / buckets as f64;
    let mut sums = vec![0.0; buckets];
    let mut counts = vec![0u64; buckets];
    for &(t, v) in series {
        let b = ((t as f64 / width) as usize).min(buckets - 1);
        sums[b] += v;
        counts[b] += 1;
    }
    let mut last = 0.0;
    for b in 0..buckets {
        if counts[b] > 0 {
            last = sums[b] / counts[b] as f64;
        }
        out[b] = last;
    }
    out
}

/// Render `values` as a Unicode sparkline, scaled to the series maximum.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                BARS[0]
            } else {
                BARS[((v / max * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_records_partition_with_idle_gaps() {
        let mut a = CoreAccount::default();
        a.record_base(CoreState::Working, "task", 100, 200);
        a.record_base(CoreState::Progress, "background", 300, 350);
        assert_eq!(a.elapsed_ns(), 350);
        assert_eq!(a.state_ns(CoreState::Working), 100);
        assert_eq!(a.state_ns(CoreState::Progress), 50);
        // [0,100) and [200,300) are idle gaps.
        assert_eq!(a.state_ns(CoreState::Idle), 200);
        a.check_partition().unwrap();
    }

    #[test]
    fn overlay_is_carved_out_of_enclosing_base() {
        let mut a = CoreAccount::default();
        // Probe fires first (lock wait inside a task)...
        a.record_overlay(CoreState::LockWait, "ucp_progress", 120, 150);
        // ...then the scheduler reports the enclosing interval.
        a.record_base(CoreState::Working, "task", 100, 200);
        assert_eq!(a.state_ns(CoreState::Working), 70); // [100,120) + [150,200)
        assert_eq!(a.state_ns(CoreState::LockWait), 30);
        assert_eq!(a.state_ns(CoreState::Idle), 100); // [0,100)
        a.check_partition().unwrap();
    }

    #[test]
    fn overlapping_overlays_never_double_count() {
        let mut a = CoreAccount::default();
        a.record_overlay(CoreState::LockWait, "l1", 10, 50);
        a.record_overlay(CoreState::LockWait, "l2", 30, 60);
        a.record_base(CoreState::Progress, "background", 0, 100);
        assert_eq!(a.state_ns(CoreState::LockWait), 50); // [10,60) once
        assert_eq!(a.state_ns(CoreState::Progress), 50);
        assert_eq!(a.elapsed_ns(), 100);
        a.check_partition().unwrap();
    }

    #[test]
    fn overlay_outside_any_base_survives_finalize() {
        let mut a = CoreAccount::default();
        a.record_overlay(CoreState::Serialize, "drain", 500, 600);
        a.finalize(1000);
        assert_eq!(a.state_ns(CoreState::Serialize), 100);
        assert_eq!(a.state_ns(CoreState::Idle), 900);
        assert_eq!(a.elapsed_ns(), 1000);
        a.check_partition().unwrap();
    }

    #[test]
    fn overlay_spilling_past_base_end_is_kept() {
        let mut a = CoreAccount::default();
        a.record_overlay(CoreState::LockWait, "l", 80, 150);
        a.record_base(CoreState::Working, "task", 0, 100);
        // The wait extends past the base interval; it is attributed whole.
        assert_eq!(a.state_ns(CoreState::LockWait), 70);
        assert_eq!(a.state_ns(CoreState::Working), 80);
        assert_eq!(a.elapsed_ns(), 150);
        a.check_partition().unwrap();
    }

    #[test]
    fn stale_records_in_the_past_are_dropped() {
        let mut a = CoreAccount::default();
        a.record_base(CoreState::Working, "task", 0, 100);
        a.record_base(CoreState::Working, "task", 20, 80); // fully in the past
        a.record_overlay(CoreState::LockWait, "l", 10, 90); // likewise
        a.finalize(100);
        assert_eq!(a.state_ns(CoreState::Working), 100);
        assert_eq!(a.elapsed_ns(), 100);
        a.check_partition().unwrap();
    }

    #[test]
    fn profile_report_ranks_by_busy_time() {
        let mut p = CoreProfile::new();
        p.record_base(0, 0, CoreState::Working, "task", 0, 1000);
        p.record_base(0, 1, CoreState::Progress, "background", 0, 400);
        p.record_base(1, 0, CoreState::Working, "task", 0, 700);
        let r = p.report("cfg");
        assert_eq!(r.horizon_ns, 1000);
        assert_eq!(r.rows.len(), 3);
        assert_eq!((r.rows[0].loc, r.rows[0].core), (0, 0));
        assert_eq!((r.rows[1].loc, r.rows[1].core), (1, 0));
        // Every row is finalized to the common horizon.
        for row in &r.rows {
            assert_eq!(row.total_ns(), 1000);
        }
        let text = r.to_text();
        assert!(text.contains("loc0/core0"), "text: {text}");
        let parsed = crate::json::parse(&r.to_json()).expect("report json parses");
        assert_eq!(parsed.get("horizon_ns").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parsed.get("cores").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn folded_stacks_have_config_core_state_leaf() {
        let mut p = CoreProfile::new();
        p.record_base(0, 2, CoreState::Working, "task", 0, 500);
        p.record_base(0, 2, CoreState::Progress, "background", 500, 600);
        let folded = p.folded("mpi");
        let lines: Vec<&str> = folded.lines().collect();
        assert!(lines.contains(&"mpi;loc0/core2;working;task 500"), "folded: {folded}");
        assert!(lines.contains(&"mpi;loc0/core2;progress;background 100"), "folded: {folded}");
        // Idle never appears in the flamegraph.
        assert!(!folded.contains("idle"), "folded: {folded}");
    }

    #[test]
    fn resample_averages_and_carries_forward() {
        let series = [(0u64, 2.0), (50, 4.0), (450, 10.0)];
        let r = resample(&series, 1000, 10);
        assert_eq!(r.len(), 10);
        assert!((r[0] - 3.0).abs() < 1e-12); // mean of 2 and 4
        assert!((r[1] - 3.0).abs() < 1e-12); // carried forward
        assert!((r[4] - 10.0).abs() < 1e-12);
        assert!((r[9] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn sparkline_shape() {
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
    }

    /// Base records that did work become core slices in record order,
    /// zero-length ones included; polls are accounted but not drawn.
    #[test]
    fn work_slices_are_kept_in_record_order() {
        let mut p = CoreProfile::new();
        p.record_base(0, 1, CoreState::Working, "task", 0, 100);
        p.record_base(0, 0, CoreState::Progress, POLL, 0, 40);
        p.record_base(1, 0, CoreState::Progress, "progress", 70, 70);
        p.record_base(0, 0, CoreState::Progress, "background", 40, 90);
        let drawn: Vec<_> = p.slices().iter().map(|s| (s.loc, s.core, s.label)).collect();
        assert_eq!(drawn, [(0, 1, "task"), (1, 0, "progress"), (0, 0, "background")]);
        assert_eq!(p.slices()[1].start, p.slices()[1].end);
        // The zero-length slice accounts no time and opens no account.
        assert!(p.account(1, 0).is_none());
        assert_eq!(p.account(0, 0).unwrap().state_ns(CoreState::Progress), 90);
        assert_eq!(CoreTrack(3, 7).to_string(), "loc3/core7");
    }
}
