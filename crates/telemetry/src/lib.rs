//! # telemetry — virtual-time observability for the simulated stack
//!
//! A single subsystem every layer reports into:
//!
//! * a **metrics registry** ([`Metrics`]): counters, gauges and
//!   log-bucketed histograms ([`Histogram`]) with p50/p90/p99, all
//!   `&'static str`-keyed with no steady-state allocation, plus counter
//!   tracks keyed by a `Copy` [`TrackKey`] whose name is rendered only
//!   at export;
//! * **parcel-lifecycle flow tracing** ([`FlowTracer`]): a per-parcel
//!   stage timeline (`put → queue → serialize → inject → wire → match →
//!   deliver → spawn`) stitched across localities via an out-of-band
//!   route registry, exported as Chrome-trace flow events
//!   ([`chrome::chrome_trace`]) and a latency-breakdown report
//!   ([`report::Breakdown`]);
//! * **contention attribution** ([`ContentionTable`]): wait-vs-service
//!   time per named `SimLock`/`SimTryLock`/`SimResource`, fed through
//!   the `simcore::recorder` slot, ranked by total wait
//!   ([`report::ContentionReport`]);
//! * a **virtual-time core profiler** ([`CoreProfile`]): per-core
//!   `working/progress/lock-wait/serialize/idle` accounting whose state
//!   durations partition each core's elapsed virtual time exactly, with
//!   folded-stack flamegraph output and a ranked core-time report (see
//!   [`profile`]). It is also the one record of scheduler slices: the
//!   Chrome core tracks are drawn from it.
//!
//! ## Enable/disable
//!
//! [`Telemetry`] is the [`simcore::Recorder`]: [`enable`] installs a fresh
//! collector in simcore's one per-thread recorder slot and [`disable`]
//! empties it. The engine, the contention primitives and every layer
//! above report into that slot as things happen — provenance edges, lock
//! and resource accesses, time marks, parcel flows and per-core slices —
//! so a collector holds exactly what ran while it was installed. Each
//! fact is stored once; derived views (Chrome core tracks, windowed
//! counter tracks) are rendered from those stores at export, so
//! exporting or capturing never changes what a later export shows. Call
//! sites go through the free functions in this module, which no-op when
//! disabled: the disabled cost is one `Cell<bool>` read per hook, with
//! zero allocation. Telemetry is *pure observation* — it never schedules
//! events, charges virtual time, or alters wire traffic — so enabling it
//! does not change simulation results, and disabling it reproduces
//! byte-identical event streams (see `tests/golden_trace.rs`).

pub mod causal;
pub mod chrome;
pub mod critpath;
pub mod diff;
pub mod flow;
mod fx;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod record;
pub mod report;
pub mod timeline;

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use simcore::{MarkKind, Recorder, SimTime};

use causal::CausalLog;

pub use critpath::{ComponentShare, CritPath, ParcelPath, PathSegment};
pub use diff::RecordDiff;
pub use flow::{stage, FlowRec, FlowTracer, STAGE_NAMES};
pub use hist::Histogram;
pub use metrics::{ContentionStat, ContentionTable, Metrics, ResourceKind, TrackKey};
pub use profile::{CoreProfile, CoreState, CoreTimeReport};
pub use record::{RunMeta, RunRecord};
pub use report::{Breakdown, ContentionReport};
pub use timeline::{Timeline, TimelineConfig};

/// Counter track of parcels begun but not yet delivered.
const IN_FLIGHT: TrackKey = TrackKey::name("parcels.in_flight");

/// The collector: metrics + flows + contention, behind one `RefCell`.
#[derive(Debug, Default)]
pub struct Telemetry {
    inner: RefCell<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    metrics: Metrics,
    flows: FlowTracer,
    contention: ContentionTable,
    profile: CoreProfile,
    /// Parcels begun but not yet delivered, sampled as the
    /// `parcels.in_flight` counter track.
    in_flight: i64,
    /// The causal provenance log ([`causal`]).
    causal: CausalLog,
    /// The windowed time-series layer ([`timeline`]), present only when
    /// timelines were requested ([`enable_with`] /
    /// [`Telemetry::enable_timeline`]).
    timeline: Option<Timeline>,
}

impl Inner {
    /// Mark `stage` on flow `id`; returns whether it was newly set. A
    /// first DELIVER also stamps the delivering causal node and feeds the
    /// windowed latency series.
    fn flow_mark(&mut self, id: u64, stage: usize, t: SimTime) -> bool {
        let newly = self.flows.mark(id, stage, t);
        if newly && stage == stage::DELIVER {
            self.flows.set_deliver_node(id, self.causal.current());
            self.flow_delivered(id, t);
        }
        newly
    }

    /// Feed one newly delivered flow into the windowed `parcel.latency_ns`
    /// series (plus its run-total twin), keyed by delivery instant.
    /// No-op when timelines are off, so plain instrumented runs keep
    /// their exact metric key set.
    fn flow_delivered(&mut self, id: u64, t: SimTime) {
        let Some(tl) = &mut self.timeline else { return };
        if id == 0 {
            return;
        }
        let Some(rec) = self.flows.flows().get((id - 1) as usize) else { return };
        let deliver = t.as_nanos();
        let latency = deliver.saturating_sub(rec.at(stage::PUT).unwrap_or(deliver));
        self.metrics.hist_record("parcel.latency_ns", latency);
        tl.hist_at("parcel.latency_ns", latency, deliver);
    }
}

impl Telemetry {
    /// Create a detached collector (not installed anywhere).
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Add `n` to counter `key`, attributing it to instant `t` in the
    /// windowed timeline.
    pub fn counter_add_at(&self, key: &'static str, n: u64, t: SimTime) {
        let inner = &mut *self.inner.borrow_mut();
        inner.metrics.counter_add(key, n);
        if let Some(tl) = &mut inner.timeline {
            tl.counter_at(key, n, t.as_nanos());
        }
    }

    /// Record `v` into histogram `key`, attributing it to instant `t` in
    /// the windowed timeline.
    pub fn hist_record_at(&self, key: &'static str, v: u64, t: SimTime) {
        let inner = &mut *self.inner.borrow_mut();
        inner.metrics.hist_record(key, v);
        if let Some(tl) = &mut inner.timeline {
            tl.hist_at(key, v, t.as_nanos());
        }
    }

    /// Set gauge `key`.
    pub fn gauge_set(&self, key: &'static str, v: i64) {
        self.inner.borrow_mut().metrics.gauge_set(key, v);
    }

    /// Append a sample to counter track `key`.
    pub fn track_sample(&self, key: TrackKey, t: SimTime, v: f64) {
        let inner = &mut *self.inner.borrow_mut();
        inner.metrics.track_sample(key, t.as_nanos(), v);
        if let Some(tl) = &mut inner.timeline {
            tl.observe(t.as_nanos());
        }
    }

    /// Start a parcel flow; returns its id (0 when the tracer is full).
    pub fn flow_begin(&self, src: usize, dst: usize, src_core: usize, t: SimTime) -> u64 {
        let inner = &mut *self.inner.borrow_mut();
        let id = inner.flows.begin(src, dst, src_core, t);
        if id != 0 {
            inner.in_flight += 1;
            let v = inner.in_flight as f64;
            inner.metrics.track_sample(IN_FLIGHT, t.as_nanos(), v);
        }
        if let Some(tl) = &mut inner.timeline {
            tl.observe(t.as_nanos());
        }
        id
    }

    /// Mark `stage` on one flow.
    pub fn flow_mark(&self, id: u64, stage: usize, t: SimTime) {
        self.flow_mark_many(&[id], stage, t);
    }

    /// Mark `stage` on a batch of flows.
    pub fn flow_mark_many(&self, ids: &[u64], stage: usize, t: SimTime) {
        if ids.is_empty() {
            return;
        }
        let inner = &mut *self.inner.borrow_mut();
        let newly = ids.iter().filter(|&&id| inner.flow_mark(id, stage, t)).count();
        if newly > 0 && stage == stage::DELIVER {
            inner.in_flight -= newly as i64;
            let v = inner.in_flight as f64;
            inner.metrics.track_sample(IN_FLIGHT, t.as_nanos(), v);
        }
        if let Some(tl) = &mut inner.timeline {
            tl.observe(t.as_nanos());
        }
    }

    /// Record the delivering core for `ids`.
    pub fn flow_set_dst_core(&self, ids: &[u64], core: usize) {
        if !ids.is_empty() {
            self.inner.borrow_mut().flows.set_dst_core(ids, core);
        }
    }

    /// Sender side of cross-locality stitching.
    pub fn register_route(&self, src: usize, dst: usize, tag_base: u64, flows: &[u64]) {
        self.inner.borrow_mut().flows.register_route(src, dst, tag_base, flows);
    }

    /// Receiver side of cross-locality stitching.
    pub fn take_route(&self, src: usize, dst: usize, tag_base: u64) -> Vec<u64> {
        self.inner.borrow_mut().flows.take_route(src, dst, tag_base)
    }

    /// Read access to the metrics registry.
    pub fn with_metrics<R>(&self, f: impl FnOnce(&Metrics) -> R) -> R {
        f(&self.inner.borrow().metrics)
    }

    /// Read access to the recorded flows.
    pub fn with_flows<R>(&self, f: impl FnOnce(&[FlowRec]) -> R) -> R {
        f(self.inner.borrow().flows.flows())
    }

    /// Read access to the contention table.
    pub fn with_contention<R>(&self, f: impl FnOnce(&ContentionTable) -> R) -> R {
        f(&self.inner.borrow().contention)
    }

    /// Number of recorded flows.
    pub fn flow_count(&self) -> usize {
        self.inner.borrow().flows.len()
    }

    /// Build the per-stage latency breakdown for `config`.
    pub fn breakdown(&self, config: &str) -> Breakdown {
        Breakdown::from_flows(config, self.inner.borrow().flows.flows())
    }

    /// Build the wait-time-ranked contention report for `config`.
    pub fn contention_report(&self, config: &str) -> ContentionReport {
        ContentionReport {
            config: config.to_string(),
            rows: self.inner.borrow().contention.ranking(),
        }
    }

    /// Set the locality whose event handler is currently executing, so
    /// probe-driven profiler overlays attribute to the right locality.
    pub fn profile_set_loc(&self, loc: usize) {
        self.inner.borrow_mut().profile.set_loc(loc);
    }

    /// Record a scheduler-level (base) profiler interval on `(loc, core)`
    /// — one scheduler slice (see [`CoreProfile::record_base`]).
    pub fn profile_record(
        &self,
        loc: usize,
        core: usize,
        state: CoreState,
        label: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        let inner = &mut *self.inner.borrow_mut();
        inner.profile.record_base(loc, core, state, label, start.as_nanos(), end.as_nanos());
        // A zero-length slice is drawn but accounts no time, so it does
        // not advance the timeline either.
        if end == start {
            return;
        }
        if let Some(tl) = &mut inner.timeline {
            tl.observe(end.as_nanos());
        }
    }

    /// Record a probe-level (overlay) profiler interval on `core` of the
    /// current locality.
    pub fn profile_overlay(
        &self,
        core: usize,
        state: CoreState,
        label: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        self.inner.borrow_mut().profile.record_overlay_here(
            core,
            state,
            label,
            start.as_nanos(),
            end.as_nanos(),
        );
    }

    /// Read access to the core profile.
    pub fn with_profile<R>(&self, f: impl FnOnce(&CoreProfile) -> R) -> R {
        f(&self.inner.borrow().profile)
    }

    /// Build the ranked core-time report for `config`.
    pub fn core_report(&self, config: &str) -> CoreTimeReport {
        self.inner.borrow().profile.report(config)
    }

    /// Render folded-stack flamegraph lines for `config`.
    pub fn folded_stacks(&self, config: &str) -> String {
        self.inner.borrow().profile.folded(config)
    }

    /// Number of recorded core slices.
    pub fn span_count(&self) -> usize {
        self.inner.borrow().profile.slices().len()
    }

    /// Total virtual time covered by the recorded core slices, per label,
    /// descending.
    pub fn span_totals(&self) -> Vec<(&'static str, u64)> {
        let mut map: HashMap<&'static str, u64> = HashMap::new();
        for s in self.inner.borrow().profile.slices() {
            *map.entry(s.label).or_default() += s.end - s.start;
        }
        let mut v: Vec<_> = map.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// The combined Chrome-trace JSON: core slices, parcel flows, and
    /// recorded plus windowed counter tracks.
    pub fn chrome_trace_collected(&self) -> String {
        self.render_chrome(None)
    }

    /// [`Telemetry::chrome_trace_collected`] plus critical-path overlay:
    /// on-path segments as slices on a dedicated `critpath` track, a
    /// `critpath.total_us` counter, and on-path parcel flows highlighted.
    pub fn chrome_trace_with_critpath(&self, cp: &CritPath) -> String {
        self.render_chrome(Some(cp))
    }

    fn render_chrome(&self, cp: Option<&CritPath>) -> String {
        let inner = self.inner.borrow();
        chrome::chrome_trace(
            inner.profile.slices(),
            inner.flows.flows(),
            &inner.metrics,
            inner.timeline.as_ref(),
            cp,
        )
    }

    /// Read access to the causal provenance log.
    pub fn with_causal<R>(&self, f: impl FnOnce(&CausalLog) -> R) -> R {
        f(&self.inner.borrow().causal)
    }

    /// Extract the makespan critical path from the causal log. `None`
    /// when nothing was recorded.
    pub fn critpath(&self, config: &str) -> Option<CritPath> {
        let cp = self.with_causal(|log| CritPath::from_log(config, log));
        (cp.total_ns > 0).then_some(cp)
    }

    /// Per-parcel critical paths (stage telescoping) for delivered flows.
    pub fn parcel_paths(&self) -> Vec<ParcelPath> {
        critpath::parcel_paths(self.inner.borrow().flows.flows())
    }

    /// Attach a windowed timeline to this collector (normally done by
    /// [`enable_with`] before the run starts).
    pub fn enable_timeline(&self, cfg: TimelineConfig) {
        self.inner.borrow_mut().timeline = Some(Timeline::new(cfg));
    }

    /// Read access to the timeline; `None` when timelines are off.
    pub fn with_timeline<R>(&self, f: impl FnOnce(&Timeline) -> R) -> Option<R> {
        self.inner.borrow().timeline.as_ref().map(f)
    }

    /// Record one egress-port access into the per-port windows; no-op
    /// when timelines are off.
    pub fn timeline_port(&self, name: &'static str, t: SimTime, wait_ns: u64, bytes: u64) {
        let inner = &mut *self.inner.borrow_mut();
        if let Some(tl) = &mut inner.timeline {
            tl.port_at(name, t.as_nanos(), wait_ns, bytes);
        }
    }

    /// The machine-readable timeline document for `config` (see
    /// [`Timeline::to_json`]), with per-window core-state occupancy and
    /// critical-path slices filled in from the profiler and causal log.
    /// `None` when timelines are off.
    pub fn timeline_json(&self, config: &str) -> Option<String> {
        let cp = self.critpath(config);
        let inner = self.inner.borrow();
        let tl = inner.timeline.as_ref()?;
        let snap = inner.profile.snapshot();
        let occ = (!snap.is_empty())
            .then(|| timeline::slice_occupancy(snap.values(), tl.window_ns(), tl.num_windows()));
        let crit = cp.map(|cp| timeline::critpath_slices(&cp, tl.window_ns(), tl.num_windows()));
        Some(tl.to_json(config, &inner.metrics, occ.as_ref(), crit.as_deref()))
    }

    /// The OpenMetrics-style text exposition for `config`; `None` when
    /// timelines are off.
    pub fn timeline_text(&self, config: &str) -> Option<String> {
        self.with_timeline(|tl| tl.to_openmetrics(config))
    }
}

/// The collector is the one thing installed in simcore's recorder slot:
/// contention events feed the contention table, the profiler and the
/// timeline, and land as causal marks on the executing event.
impl Recorder for Telemetry {
    fn lock_wait(
        &self,
        name: &'static str,
        core: usize,
        now: SimTime,
        wait_ns: u64,
        hold_ns: u64,
        contended: bool,
    ) {
        let inner = &mut *self.inner.borrow_mut();
        let (now, start) = (now.as_nanos(), now.as_nanos() + wait_ns);
        inner.contention.record(name, ResourceKind::Lock, wait_ns, hold_ns, contended);
        // The wait interval `[now, now+wait)` is spin time on `core`; the
        // profiler carves it out of whatever base interval encloses it.
        if wait_ns > 0 {
            inner.profile.record_overlay_here(core, CoreState::LockWait, name, now, start);
        }
        if let Some(tl) = &mut inner.timeline {
            tl.observe(now);
        }
        inner.causal.mark(name, MarkKind::Wait, now, start, 0);
        inner.causal.mark(name, MarkKind::Hold, start, start + hold_ns, 0);
    }

    fn try_lock(&self, name: &'static str, now: SimTime, acquired: bool, hold_ns: u64) {
        // A failed try never waits — that is the point of the LCI design;
        // it only counts as a contended event.
        let inner = &mut *self.inner.borrow_mut();
        let now = now.as_nanos();
        inner.contention.record(name, ResourceKind::TryLock, 0, hold_ns, !acquired);
        if let Some(tl) = &mut inner.timeline {
            tl.observe(now);
        }
        inner.causal.mark(name, MarkKind::Hold, now, now + hold_ns, 0);
    }

    fn resource_access(
        &self,
        name: &'static str,
        core: usize,
        now: SimTime,
        wait_ns: u64,
        service_ns: u64,
        transferred: bool,
    ) {
        let inner = &mut *self.inner.borrow_mut();
        let (now, start) = (now.as_nanos(), now.as_nanos() + wait_ns);
        inner.contention.record(
            name,
            ResourceKind::Resource,
            wait_ns,
            service_ns,
            wait_ns > 0 || transferred,
        );
        // Queueing on a serialized resource is lock-wait-like core time.
        if wait_ns > 0 {
            inner.profile.record_overlay_here(core, CoreState::LockWait, name, now, start);
        }
        if let Some(tl) = &mut inner.timeline {
            tl.observe(now);
        }
        inner.causal.mark(name, MarkKind::Wait, now, start, 0);
        inner.causal.mark(name, MarkKind::Work, start, start + service_ns, 0);
    }

    fn on_execute(&self, node: u64, at: u64, parent: u64) {
        self.inner.borrow_mut().causal.on_execute(node, at, parent);
    }

    fn end_execute(&self) {
        self.inner.borrow_mut().causal.end_execute();
    }

    fn mark(&self, label: &'static str, kind: MarkKind, start: SimTime, end: SimTime, fixed: u64) {
        self.inner.borrow_mut().causal.mark(label, kind, start.as_nanos(), end.as_nanos(), fixed);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Install a fresh collector in this thread's recorder slot, replacing
/// any collector still installed. Returns the handle; keep it to read
/// reports after [`disable`].
pub fn enable() -> Rc<Telemetry> {
    let t = Rc::new(Telemetry::new());
    simcore::recorder::install(t.clone());
    t
}

/// [`enable`], plus a windowed timeline under `cfg`: per-window
/// histograms, counters and port accounting. The timeline is pure observation like everything else —
/// enabled runs reproduce the exact event streams of disabled runs.
pub fn enable_with(cfg: TimelineConfig) -> Rc<Telemetry> {
    let t = enable();
    t.enable_timeline(cfg);
    t
}

/// Empty the recorder slot: recording stops, and the handle returned by
/// [`enable`] stays valid for reading reports.
pub fn disable() {
    simcore::recorder::uninstall();
}

/// Whether a collector is installed on this thread.
pub fn enabled() -> bool {
    simcore::recorder::installed()
}

/// Run `f` against the active collector; no-op when disabled.
#[inline]
pub fn with(f: impl FnOnce(&Telemetry)) {
    simcore::recorder::with(|r| {
        if let Some(t) = r.as_any().downcast_ref::<Telemetry>() {
            f(t)
        }
    });
}

/// Start a flow (0 when disabled).
#[inline]
pub fn flow_begin(src: usize, dst: usize, src_core: usize, t: SimTime) -> u64 {
    let mut id = 0;
    with(|tel| id = tel.flow_begin(src, dst, src_core, t));
    id
}

/// Mark a stage on one flow; no-op when disabled or `id == 0`.
#[inline]
pub fn flow_mark(id: u64, stage: usize, t: SimTime) {
    if id != 0 {
        with(|tel| tel.flow_mark(id, stage, t));
    }
}

/// Mark a stage on a batch of flows; no-op when disabled or `ids` empty.
#[inline]
pub fn flow_mark_many(ids: &[u64], stage: usize, t: SimTime) {
    if !ids.is_empty() {
        with(|tel| tel.flow_mark_many(ids, stage, t));
    }
}

/// Record the delivering core; no-op when disabled or `ids` empty.
#[inline]
pub fn flow_set_dst_core(ids: &[u64], core: usize) {
    if !ids.is_empty() {
        with(|tel| tel.flow_set_dst_core(ids, core));
    }
}

/// Register a message route for cross-locality stitching.
#[inline]
pub fn register_route(src: usize, dst: usize, tag_base: u64, flows: &[u64]) {
    if !flows.is_empty() {
        with(|tel| tel.register_route(src, dst, tag_base, flows));
    }
}

/// Claim a registered route (empty when disabled or unknown).
#[inline]
pub fn take_route(src: usize, dst: usize, tag_base: u64) -> Vec<u64> {
    let mut flows = Vec::new();
    with(|tel| flows = tel.take_route(src, dst, tag_base));
    flows
}

/// Add to a counter, attributed to instant `t` in the windowed timeline.
#[inline]
pub fn counter_add_at(key: &'static str, n: u64, t: SimTime) {
    with(|tel| tel.counter_add_at(key, n, t));
}

/// Record into a histogram, attributed to instant `t` in the windowed
/// timeline.
#[inline]
pub fn hist_record_at(key: &'static str, v: u64, t: SimTime) {
    with(|tel| tel.hist_record_at(key, v, t));
}

/// Append a sample to counter track `key` on the active collector.
#[inline]
pub fn track_sample(key: TrackKey, t: SimTime, v: f64) {
    with(|tel| tel.track_sample(key, t, v));
}

/// Set the profiler's current-locality context; no-op when disabled.
#[inline]
pub fn profile_set_loc(loc: usize) {
    with(|tel| tel.profile_set_loc(loc));
}

/// Record a base profiler interval (a scheduler slice); no-op when
/// disabled.
#[inline]
pub fn profile_record(
    loc: usize,
    core: usize,
    state: CoreState,
    label: &'static str,
    start: SimTime,
    end: SimTime,
) {
    with(|tel| tel.profile_record(loc, core, state, label, start, end));
}

/// Record an overlay profiler interval on the current locality; no-op
/// when disabled or empty.
#[inline]
pub fn profile_overlay(
    core: usize,
    state: CoreState,
    label: &'static str,
    start: SimTime,
    end: SimTime,
) {
    if end > start {
        with(|tel| tel.profile_overlay(core, state, label, start, end));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests touching the thread-local collector.
    fn with_clean_state(f: impl FnOnce()) {
        disable();
        f();
        disable();
    }

    #[test]
    fn disabled_free_functions_are_noops() {
        with_clean_state(|| {
            assert!(!enabled());
            assert_eq!(flow_begin(0, 1, 0, SimTime::ZERO), 0);
            flow_mark(1, stage::PUT, SimTime::ZERO);
            counter_add_at("x", 1, SimTime::ZERO);
            assert!(take_route(0, 1, 5).is_empty());
            with(|_| panic!("no collector installed"));
            // Hooks from the engine and the primitives are inert too.
            let mut lock = simcore::SimLock::new("l", 10, 1);
            lock.acquire(0, SimTime::ZERO, 5);
            simcore::recorder::mark("x", MarkKind::Work, SimTime::ZERO, SimTime::from_nanos(9), 0);
        });
    }

    #[test]
    fn enable_collects_and_survives_disable() {
        with_clean_state(|| {
            let tel = enable();
            assert!(enabled());
            let id = flow_begin(0, 1, 2, SimTime::from_nanos(5));
            assert_eq!(id, 1);
            flow_mark(id, stage::DELIVER, SimTime::from_nanos(500));
            counter_add_at("parcels", 3, SimTime::ZERO);
            register_route(0, 1, 7, &[id]);
            assert_eq!(take_route(0, 1, 7), vec![id]);
            disable();
            // The handle still reads collected data after disable.
            assert_eq!(tel.flow_count(), 1);
            assert_eq!(tel.with_metrics(|m| m.counter("parcels")), 3);
            assert_eq!(flow_begin(0, 1, 0, SimTime::ZERO), 0);
        });
    }

    #[test]
    fn back_to_back_runs_do_not_cross_contaminate() {
        with_clean_state(|| {
            // First instrumented "run": flows, routes, counters, causal
            // provenance, profiler locality cursor.
            let first = enable();
            let id = flow_begin(0, 1, 0, SimTime::ZERO);
            flow_mark(id, stage::DELIVER, SimTime::from_nanos(100));
            register_route(0, 1, 99, &[id]);
            counter_add_at("parcels", 7, SimTime::ZERO);
            profile_set_loc(3);
            simcore::recorder::with(|r| r.on_execute(1, 50, 0));
            simcore::recorder::mark(
                "lock",
                MarkKind::Hold,
                SimTime::ZERO,
                SimTime::from_nanos(10),
                0,
            );
            disable();
            assert!(!simcore::recorder::installed());

            // Second run starts from a blank slate.
            let second = enable();
            assert_eq!(second.flow_count(), 0);
            assert_eq!(second.with_metrics(|m| m.counter("parcels")), 0);
            assert!(second.take_route(0, 1, 99).is_empty(), "routes must not leak");
            // The first run's dispatch cursor does not carry over: a mark
            // before the second run's first event is dropped.
            simcore::recorder::mark(
                "lock",
                MarkKind::Hold,
                SimTime::ZERO,
                SimTime::from_nanos(10),
                0,
            );
            assert_eq!(second.with_causal(|log| (log.node_count(), log.marks().len())), (0, 0));
            let id2 = flow_begin(0, 1, 0, SimTime::ZERO);
            assert_eq!(id2, 1, "flow ids restart per collector");
            disable();

            // The first handle still holds only its own data.
            assert_eq!(first.flow_count(), 1);
            assert_eq!(first.with_metrics(|m| m.counter("parcels")), 7);
            assert_eq!(first.with_causal(|log| (log.node_count(), log.marks().len())), (1, 1));
            assert_eq!(second.flow_count(), 1);
        });
    }

    #[test]
    fn enable_while_enabled_resets_cleanly() {
        with_clean_state(|| {
            let stale = enable();
            counter_add_at("x", 1, SimTime::ZERO);
            // A run that forgot to disable: the next enable must not let
            // the stale collector keep collecting.
            let fresh = enable();
            counter_add_at("x", 1, SimTime::ZERO);
            disable();
            assert_eq!(stale.with_metrics(|m| m.counter("x")), 1);
            assert_eq!(fresh.with_metrics(|m| m.counter("x")), 1);
        });
    }

    #[test]
    fn probe_feeds_contention_table() {
        with_clean_state(|| {
            let tel = enable();
            let mut lock = simcore::SimLock::new("ucp_progress", 500, 200);
            lock.acquire(0, SimTime::ZERO, 1_000);
            lock.acquire(1, SimTime::ZERO, 1_000); // convoy: waits
            let mut tl = simcore::SimTryLock::new("lci.progress");
            let _ = tl.try_acquire(SimTime::ZERO, 100);
            let _ = tl.try_acquire(SimTime::ZERO, 100); // busy
            let mut res = simcore::SimResource::new("nic.tx_post", 50);
            res.access(SimTime::ZERO, 0, 10);
            disable();
            let report = tel.contention_report("test");
            assert_eq!(report.rows[0].0, "ucp_progress");
            assert!(report.rows[0].1.total_wait_ns > 0);
            let names: Vec<_> = report.rows.iter().map(|r| r.0).collect();
            assert!(names.contains(&"lci.progress") && names.contains(&"nic.tx_post"));
            // The try-lock never accumulates wait.
            assert_eq!(tel.with_contention(|c| c.get("lci.progress").unwrap().total_wait_ns), 0);
        });
    }

    /// The engine's provenance edges and the primitives' marks reach the
    /// collector's causal log; marks outside dispatch and empty marks are
    /// dropped; a second `Sim` under the same collector rebases the log.
    #[test]
    fn causal_log_follows_dispatch() {
        with_clean_state(|| {
            let tel = enable();
            let mut sim = simcore::Sim::new(0);
            sim.schedule_at(SimTime::from_nanos(100), |sim| {
                let mut lock = simcore::SimLock::new("ucp", 500, 200);
                lock.acquire(0, sim.now(), 50);
                lock.acquire(1, sim.now(), 50); // waits: one wait + one hold mark
                let t = sim.now();
                simcore::recorder::mark("empty", MarkKind::Work, t, t, 0);
                sim.schedule_in(10, |_| {});
            });
            sim.run();
            simcore::recorder::mark("late", MarkKind::Work, sim.now(), sim.now() + 5, 0);
            tel.with_causal(|log| {
                assert_eq!((log.base(), log.node_count()), (1, 2));
                assert_eq!(log.nodes()[1].parent, 1);
                let labels: Vec<_> = log.marks().iter().map(|m| (m.label, m.kind)).collect();
                assert_eq!(
                    labels,
                    [("ucp", MarkKind::Hold), ("ucp", MarkKind::Wait), ("ucp", MarkKind::Hold)]
                );
                assert!(log.marks().iter().all(|m| m.owner == 1));
            });
            let mut second = simcore::Sim::new(0);
            second.schedule_at(SimTime::from_nanos(5), |_| {});
            second.run();
            disable();
            tel.with_causal(|log| {
                assert_eq!((log.base(), log.node_count(), log.marks().len()), (1, 1, 0));
                assert_eq!(log.nodes()[0].at, 5);
            });
        });
    }

    /// The critical-path walk relies on marks being owner-sorted. That
    /// holds across a restart too: when a second `Sim` begins under the
    /// same collector, its executed counter starts again at 1 and the log
    /// drops the first run's marks instead of appending lower owners
    /// after higher ones.
    #[test]
    fn marks_stay_owner_sorted_when_a_second_sim_restarts_the_log() {
        with_clean_state(|| {
            let tel = enable();
            let run = |events: u64| {
                let mut sim = simcore::Sim::new(0);
                for i in 0..events {
                    sim.schedule_at(SimTime::from_nanos(100 * i + 10), |sim| {
                        let mut lock = simcore::SimLock::new("ucp", 500, 200);
                        lock.acquire(0, sim.now(), 50);
                        lock.acquire(1, sim.now(), 50);
                    });
                }
                sim.run();
            };
            run(5);
            let first = tel.with_causal(|log| log.marks().len());
            assert_eq!(first, 15, "three marks per event");
            run(2);
            disable();
            tel.with_causal(|log| {
                let owners: Vec<u64> = log.marks().iter().map(|m| m.owner).collect();
                assert_eq!(owners, [1, 1, 1, 2, 2, 2], "only the second run's marks, in order");
                assert_eq!((log.base(), log.node_count()), (1, 2));
            });
            let cp = tel.critpath("restart").expect("second run has a path");
            assert_eq!(cp.total_ns, 110);
        });
    }

    /// Core slices land in the collector as they are recorded; polls are
    /// accounted but not drawn.
    #[test]
    fn spans_record_as_they_happen() {
        with_clean_state(|| {
            let tel = enable();
            let slice = |core, label, start, end| {
                let (s, e) = (SimTime::from_nanos(start), SimTime::from_nanos(end));
                profile_record(0, core, CoreState::Working, label, s, e);
            };
            slice(0, "task", 0, 100);
            slice(1, "bg", 50, 80);
            slice(1, profile::POLL, 80, 90);
            slice(0, "task", 100, 150);
            disable();
            slice(0, "task", 150, 900);
            assert_eq!(tel.span_count(), 3);
            assert_eq!(tel.span_totals(), [("task", 150), ("bg", 30)]);
            assert_eq!(tel.with_profile(|p| p.account(0, 1).unwrap().elapsed_ns()), 90);
            assert!(tel.chrome_trace_collected().contains("\"tid\":\"loc0/core1\""));
        });
    }
}
