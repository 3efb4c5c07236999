//! # telemetry — virtual-time observability for the simulated stack
//!
//! A single subsystem every layer reports into:
//!
//! * a **metrics registry** ([`Metrics`]): counters, gauges and
//!   log-bucketed histograms ([`Histogram`]) with p50/p90/p99, all
//!   `&'static str`-keyed with no steady-state allocation;
//! * **parcel-lifecycle flow tracing** ([`FlowTracer`]): a per-parcel
//!   stage timeline (`put → queue → serialize → inject → wire → match →
//!   deliver → spawn`) stitched across localities via an out-of-band
//!   route registry, exported as Chrome-trace flow events
//!   ([`chrome::chrome_trace`]) and a latency-breakdown report
//!   ([`report::Breakdown`]);
//! * **contention attribution** ([`ContentionTable`]): wait-vs-service
//!   time per named `SimLock`/`SimTryLock`/`SimResource`, fed through
//!   `simcore::probe`, ranked by total wait
//!   ([`report::ContentionReport`]);
//! * a **virtual-time core profiler** ([`CoreProfile`]): per-core
//!   `working/progress/lock-wait/serialize/idle` accounting whose state
//!   durations partition each core's elapsed virtual time exactly, with
//!   folded-stack flamegraph output and a ranked core-time report (see
//!   [`profile`]).
//!
//! ## Enable/disable
//!
//! The collector is a thread-local `Option<Rc<Telemetry>>`. Call sites go
//! through the free functions in this module, which no-op when disabled:
//! the disabled cost is one thread-local borrow and a `None` check, with
//! zero allocation. Telemetry is *pure observation* — it never schedules
//! events, charges virtual time, or alters wire traffic — so enabling it
//! does not change simulation results, and disabling it reproduces
//! byte-identical event streams (see `tests/golden_trace.rs`).

pub mod chrome;
pub mod critpath;
pub mod diff;
pub mod flow;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod record;
pub mod report;
pub mod timeline;

use std::cell::RefCell;
use std::rc::Rc;

use simcore::{CausalLog, SimTime, Span};

pub use critpath::{ComponentShare, CritPath, ParcelPath, PathSegment};
pub use diff::RecordDiff;
pub use flow::{stage, FlowRec, FlowTracer, STAGE_NAMES};
pub use hist::Histogram;
pub use metrics::{ContentionStat, ContentionTable, Metrics, ResourceKind};
pub use profile::{CoreProfile, CoreState, CoreTimeReport};
pub use record::{RunMeta, RunRecord};
pub use report::{Breakdown, ContentionReport};
pub use timeline::{FlightDump, SloAlert, SloRule, Timeline, TimelineConfig};

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
    spans: Vec<Span>,
    profile: CoreProfile,
    /// Parcels begun but not yet delivered, sampled as the
    /// `parcels.in_flight` counter track.
    in_flight: i64,
    /// The causal provenance log ([`simcore::causal`]), installed by
    /// [`enable`] alongside the contention probe.
    causal: Option<Rc<CausalLog>>,
    /// The windowed time-series layer ([`timeline`]), present only when
    /// timelines were requested ([`enable_with`] /
    /// [`Telemetry::enable_timeline`]).
    timeline: Option<Timeline>,
}

impl Inner {
    /// Feed one newly delivered flow into the windowed `parcel.latency_ns`
    /// series (plus its run-total twin) and the flight-recorder ring.
    /// No-op when timelines are off, so plain instrumented runs keep
    /// their exact metric key set.
    fn flow_delivered(&mut self, id: u64, t: SimTime) {
        if self.timeline.is_none() || id == 0 {
            return;
        }
        let Some(rec) = self.flows.flows().get((id - 1) as usize) else { return };
        let (src, dst) = (rec.src, rec.dst);
        let put = rec.at(stage::PUT).unwrap_or(t.as_nanos());
        let deliver = t.as_nanos();
        self.metrics.hist_record("parcel.latency_ns", deliver.saturating_sub(put));
        if let Some(tl) = &mut self.timeline {
            tl.flow_delivered(id, src, dst, put, deliver);
        }
    }

    /// Take a flight-recorder dump if one is armed and its post-roll has
    /// elapsed (called after anything that advances the timeline cursor).
    fn tl_poll(&mut self) {
        let Some(tl) = &mut self.timeline else { return };
        if tl.dump_due() {
            let cap = tl.dump_marks_cap();
            let marks = self.causal.as_ref().map(|log| causal_tail(log, cap)).unwrap_or_default();
            tl.take_dump(marks);
        }
    }
}

/// The last `cap` causal marks, as flight-recorder dump rows.
fn causal_tail(log: &CausalLog, cap: usize) -> Vec<timeline::DumpMark> {
    use simcore::causal::MarkKind;
    log.with_data(|_, _, marks| {
        marks
            .iter()
            .rev()
            .take(cap)
            .rev()
            .map(|m| {
                let kind = match m.kind {
                    MarkKind::Wait => "wait",
                    MarkKind::Hold => "hold",
                    MarkKind::Work => "work",
                    MarkKind::Wire => "wire",
                };
                (m.label, kind, m.start, m.end)
            })
            .collect()
    })
}

impl Telemetry {
    /// Create a detached collector (not installed anywhere).
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Add `n` to counter `key`.
    pub fn counter_add(&self, key: &'static str, n: u64) {
        let inner = &mut *self.inner.borrow_mut();
        inner.metrics.counter_add(key, n);
        // Untimed updates attribute to the timeline's current window so
        // window sums still reproduce the run total for every key.
        if let Some(tl) = &mut inner.timeline {
            let t = tl.cursor_ns();
            tl.counter_at(key, n, t);
        }
    }

    /// Add `n` to counter `key`, attributing it to instant `t` in the
    /// windowed timeline (identical to [`Telemetry::counter_add`] when
    /// timelines are off).
    pub fn counter_add_at(&self, key: &'static str, n: u64, t: SimTime) {
        let inner = &mut *self.inner.borrow_mut();
        inner.metrics.counter_add(key, n);
        if let Some(tl) = &mut inner.timeline {
            tl.counter_at(key, n, t.as_nanos());
            inner.tl_poll();
        }
    }

    /// Record `v` into histogram `key`, attributing it to instant `t` in
    /// the windowed timeline (identical to [`Telemetry::hist_record`]
    /// when timelines are off).
    pub fn hist_record_at(&self, key: &'static str, v: u64, t: SimTime) {
        let inner = &mut *self.inner.borrow_mut();
        inner.metrics.hist_record(key, v);
        if let Some(tl) = &mut inner.timeline {
            tl.hist_at(key, v, t.as_nanos());
            inner.tl_poll();
        }
    }

    /// Set gauge `key`.
    pub fn gauge_set(&self, key: &'static str, v: i64) {
        self.inner.borrow_mut().metrics.gauge_set(key, v);
    }

    /// Record into histogram `key`.
    pub fn hist_record(&self, key: &'static str, v: u64) {
        let inner = &mut *self.inner.borrow_mut();
        inner.metrics.hist_record(key, v);
        if let Some(tl) = &mut inner.timeline {
            let t = tl.cursor_ns();
            tl.hist_at(key, v, t);
        }
    }

    /// Append a counter-track sample.
    pub fn track_sample(&self, name: &str, t: SimTime, v: f64) {
        let inner = &mut *self.inner.borrow_mut();
        inner.metrics.track_sample(name, t.as_nanos(), v);
        if let Some(tl) = &mut inner.timeline {
            tl.observe(t.as_nanos());
            inner.tl_poll();
        }
    }

    /// Start a parcel flow; returns its id (0 when the tracer is full).
    pub fn flow_begin(&self, src: usize, dst: usize, src_core: usize, t: SimTime) -> u64 {
        let inner = &mut *self.inner.borrow_mut();
        let id = inner.flows.begin(src, dst, src_core, t);
        if id != 0 {
            inner.in_flight += 1;
            let v = inner.in_flight as f64;
            inner.metrics.track_sample("parcels.in_flight", t.as_nanos(), v);
        }
        if let Some(tl) = &mut inner.timeline {
            tl.observe(t.as_nanos());
        }
        id
    }

    /// Mark `stage` on one flow.
    pub fn flow_mark(&self, id: u64, stage: usize, t: SimTime) {
        let inner = &mut *self.inner.borrow_mut();
        if inner.flows.mark(id, stage, t) && stage == stage::DELIVER {
            inner.in_flight -= 1;
            let v = inner.in_flight as f64;
            inner.metrics.track_sample("parcels.in_flight", t.as_nanos(), v);
            inner.flow_delivered(id, t);
        }
        if let Some(tl) = &mut inner.timeline {
            tl.observe(t.as_nanos());
            inner.tl_poll();
        }
    }

    /// Mark `stage` on a batch of flows.
    pub fn flow_mark_many(&self, ids: &[u64], stage: usize, t: SimTime) {
        if !ids.is_empty() {
            let inner = &mut *self.inner.borrow_mut();
            if stage == stage::DELIVER && inner.timeline.is_some() {
                // Per-id marking so each newly delivered parcel lands on
                // the flight recorder and in the windowed latency series.
                let mut newly = 0i64;
                for &id in ids {
                    if inner.flows.mark(id, stage, t) {
                        newly += 1;
                        inner.flow_delivered(id, t);
                    }
                }
                if newly > 0 {
                    inner.in_flight -= newly;
                    let v = inner.in_flight as f64;
                    inner.metrics.track_sample("parcels.in_flight", t.as_nanos(), v);
                }
            } else {
                let newly = inner.flows.mark_many(ids, stage, t);
                if newly > 0 && stage == stage::DELIVER {
                    inner.in_flight -= newly as i64;
                    let v = inner.in_flight as f64;
                    inner.metrics.track_sample("parcels.in_flight", t.as_nanos(), v);
                }
            }
            if let Some(tl) = &mut inner.timeline {
                tl.observe(t.as_nanos());
                inner.tl_poll();
            }
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

    /// Record a scheduler-level (base) profiler interval on `(loc, core)`.
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
        if let Some(tl) = &mut inner.timeline {
            tl.observe(end.as_nanos());
            inner.tl_poll();
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

    /// Deposit engine spans (drained from per-locality `simcore::Tracer`s
    /// — `parcelport::World` does this automatically on drop).
    pub fn add_spans(&self, spans: impl IntoIterator<Item = Span>) {
        self.inner.borrow_mut().spans.extend(spans);
    }

    /// Number of deposited spans.
    pub fn span_count(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Render the combined Chrome-trace JSON (spans + flows + counters).
    pub fn chrome_trace(&self, spans: &[Span]) -> String {
        let inner = self.inner.borrow();
        chrome::chrome_trace(spans, inner.flows.flows(), &inner.metrics)
    }

    /// [`Telemetry::chrome_trace`] over the deposited spans.
    pub fn chrome_trace_collected(&self) -> String {
        let inner = self.inner.borrow();
        chrome::chrome_trace(&inner.spans, inner.flows.flows(), &inner.metrics)
    }

    /// The causal provenance log captured by this collector, if any
    /// (present on collectors made by [`enable`]).
    pub fn causal_log(&self) -> Option<Rc<CausalLog>> {
        self.inner.borrow().causal.clone()
    }

    /// Extract the makespan critical path from the captured causal log.
    /// `None` when no causal log is attached or nothing was recorded.
    pub fn critpath(&self, config: &str) -> Option<CritPath> {
        let log = self.causal_log()?;
        let cp = CritPath::from_log(config, &log);
        (cp.total_ns > 0).then_some(cp)
    }

    /// Per-parcel critical paths (stage telescoping) for delivered flows.
    pub fn parcel_paths(&self) -> Vec<ParcelPath> {
        critpath::parcel_paths(self.inner.borrow().flows.flows())
    }

    /// [`Telemetry::chrome_trace_collected`] plus critical-path overlay:
    /// on-path segments as spans on a dedicated `critpath` track, a
    /// `critpath.total_us` counter, and on-path parcel flows highlighted.
    pub fn chrome_trace_with_critpath(&self, cp: &CritPath) -> String {
        let inner = self.inner.borrow();
        chrome::chrome_trace_with_critpath(&inner.spans, inner.flows.flows(), &inner.metrics, cp)
    }

    /// Attach a windowed timeline to this collector (normally done by
    /// [`enable_with`] before the run starts).
    pub fn enable_timeline(&self, cfg: TimelineConfig) {
        self.inner.borrow_mut().timeline = Some(Timeline::new(cfg));
    }

    /// Whether this collector carries a timeline.
    pub fn timeline_enabled(&self) -> bool {
        self.inner.borrow().timeline.is_some()
    }

    /// Read access to the timeline; `None` when timelines are off.
    pub fn with_timeline<R>(&self, f: impl FnOnce(&Timeline) -> R) -> Option<R> {
        self.inner.borrow().timeline.as_ref().map(f)
    }

    /// Add an SLO rule mid-run (e.g. an objective derived from a baseline
    /// phase of the same run); no-op when timelines are off.
    pub fn timeline_add_rule(&self, rule: SloRule) {
        if let Some(tl) = &mut self.inner.borrow_mut().timeline {
            tl.add_rule(rule);
        }
    }

    /// Record one egress-port access into the per-port windows; no-op
    /// when timelines are off.
    pub fn timeline_port(&self, name: &'static str, t: SimTime, wait_ns: u64, bytes: u64) {
        let inner = &mut *self.inner.borrow_mut();
        if let Some(tl) = &mut inner.timeline {
            tl.port_at(name, t.as_nanos(), wait_ns, bytes);
            inner.tl_poll();
        }
    }

    /// Record an injected fault at instant `t`, arming the flight
    /// recorder; no-op when timelines are off.
    pub fn fault_event_at(&self, label: &'static str, t: SimTime) {
        let inner = &mut *self.inner.borrow_mut();
        if let Some(tl) = &mut inner.timeline {
            tl.fault_event(label, t.as_nanos());
            inner.tl_poll();
        }
    }

    /// [`Telemetry::fault_event_at`] at the timeline's current cursor,
    /// for fault sites with no virtual clock in hand.
    pub fn fault_event(&self, label: &'static str) {
        let inner = &mut *self.inner.borrow_mut();
        if let Some(tl) = &mut inner.timeline {
            let t = tl.cursor_ns();
            tl.fault_event(label, t);
            inner.tl_poll();
        }
    }

    /// Close out the timeline at end of run: evaluate the remaining
    /// windows, take any still-armed flight-recorder dump, render each
    /// alert as a zero-duration span on its `slo/<rule>` track, and
    /// inject the per-window counter tracks into the metrics registry so
    /// the Chrome export grows timeline counter tracks. Idempotent; no-op
    /// when timelines are off.
    pub fn timeline_finalize(&self) {
        let inner = &mut *self.inner.borrow_mut();
        let Some(tl) = &mut inner.timeline else { return };
        if tl.finalized() {
            return;
        }
        tl.finalize();
        inner.tl_poll();
        let Some(tl) = &mut inner.timeline else { return };
        for a in tl.alerts() {
            inner.spans.push(Span {
                track: format!("slo/{}", a.rule),
                label: "alert",
                start: SimTime::from_nanos(a.end_ns),
                end: SimTime::from_nanos(a.end_ns),
            });
        }
        for (name, series) in tl.counter_tracks() {
            for (t, v) in series {
                inner.metrics.track_sample(&name, t, v);
            }
        }
    }

    /// The deterministic SLO alert list (empty when timelines are off).
    pub fn timeline_alerts(&self) -> Vec<SloAlert> {
        self.with_timeline(|tl| tl.alerts().to_vec()).unwrap_or_default()
    }

    /// Flight-recorder dumps taken so far (empty when timelines are off).
    pub fn timeline_dumps(&self) -> Vec<FlightDump> {
        self.with_timeline(|tl| tl.dumps().to_vec()).unwrap_or_default()
    }

    /// The machine-readable timeline document for `config` (see
    /// [`Timeline::to_json`]), with per-window core-state occupancy and
    /// critical-path slices filled in from the profiler and causal log.
    /// `None` when timelines are off.
    pub fn timeline_json(&self, config: &str) -> Option<String> {
        self.timeline_finalize();
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
        self.timeline_finalize();
        self.with_timeline(|tl| tl.to_openmetrics(config))
    }
}

/// Adapter feeding `simcore::probe` events into the contention table.
struct ProbeAdapter(Rc<Telemetry>);

impl simcore::Probe for ProbeAdapter {
    fn lock_wait(
        &self,
        name: &'static str,
        core: usize,
        now: SimTime,
        wait_ns: u64,
        hold_ns: u64,
        contended: bool,
    ) {
        let inner = &mut *self.0.inner.borrow_mut();
        inner.contention.record(name, ResourceKind::Lock, wait_ns, hold_ns, contended);
        // The wait interval `[now, now+wait)` is spin time on `core`; the
        // profiler carves it out of whatever base interval encloses it.
        if wait_ns > 0 {
            inner.profile.record_overlay_here(
                core,
                CoreState::LockWait,
                name,
                now.as_nanos(),
                now.as_nanos() + wait_ns,
            );
        }
        if let Some(tl) = &mut inner.timeline {
            if contended {
                tl.probe_event(name, "lock", now.as_nanos(), wait_ns, hold_ns);
            } else {
                tl.observe(now.as_nanos());
            }
            inner.tl_poll();
        }
    }

    fn try_lock(&self, name: &'static str, now: SimTime, acquired: bool, hold_ns: u64) {
        // A failed try never waits — that is the point of the LCI design;
        // it only counts as a contended event.
        let inner = &mut *self.0.inner.borrow_mut();
        inner.contention.record(name, ResourceKind::TryLock, 0, hold_ns, !acquired);
        if let Some(tl) = &mut inner.timeline {
            tl.observe(now.as_nanos());
        }
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
        let inner = &mut *self.0.inner.borrow_mut();
        inner.contention.record(
            name,
            ResourceKind::Resource,
            wait_ns,
            service_ns,
            wait_ns > 0 || transferred,
        );
        // Queueing on a serialized resource is lock-wait-like core time.
        if wait_ns > 0 {
            inner.profile.record_overlay_here(
                core,
                CoreState::LockWait,
                name,
                now.as_nanos(),
                now.as_nanos() + wait_ns,
            );
        }
        if let Some(tl) = &mut inner.timeline {
            if wait_ns > 0 {
                tl.probe_event(name, "resource", now.as_nanos(), wait_ns, service_ns);
            } else {
                tl.observe(now.as_nanos());
            }
            inner.tl_poll();
        }
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Rc<Telemetry>>> = const { RefCell::new(None) };
}

/// Install a fresh collector on this thread (and hook `simcore::probe`
/// plus the `simcore::causal` provenance log). Returns the handle; keep
/// it to read reports after [`disable`].
pub fn enable() -> Rc<Telemetry> {
    // A stale collector from a run that never called `disable` must not
    // leak state (probe adapter, causal cursor) into this run.
    disable();
    let t = Rc::new(Telemetry::new());
    let log = CausalLog::new();
    t.inner.borrow_mut().causal = Some(log.clone());
    ACTIVE.with(|c| *c.borrow_mut() = Some(t.clone()));
    simcore::probe::install(Rc::new(ProbeAdapter(t.clone())));
    simcore::causal::install(log);
    t
}

/// [`enable`], plus a windowed timeline under `cfg`: per-window
/// histograms/counters/port accounting, SLO monitors, and the flight
/// recorder. The timeline is pure observation like everything else —
/// enabled runs reproduce the exact event streams of disabled runs.
pub fn enable_with(cfg: TimelineConfig) -> Rc<Telemetry> {
    let t = enable();
    t.enable_timeline(cfg);
    t
}

/// Remove the active collector, the contention probe and the causal
/// collector, resetting every piece of thread-local recording state so
/// back-to-back instrumented runs in one process cannot contaminate each
/// other. The returned handle from [`enable`] stays valid for reading
/// reports.
pub fn disable() {
    ACTIVE.with(|c| *c.borrow_mut() = None);
    simcore::probe::uninstall();
    simcore::causal::uninstall();
}

/// Whether a collector is active on this thread.
pub fn enabled() -> bool {
    ACTIVE.with(|c| c.borrow().is_some())
}

/// The active collector, if any.
pub fn active() -> Option<Rc<Telemetry>> {
    ACTIVE.with(|c| c.borrow().clone())
}

/// Run `f` against the active collector; no-op when disabled.
#[inline]
pub fn with(f: impl FnOnce(&Telemetry)) {
    ACTIVE.with(|c| {
        if let Some(t) = c.borrow().as_deref() {
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

/// Add to a counter on the active collector.
#[inline]
pub fn counter_add(key: &'static str, n: u64) {
    with(|tel| tel.counter_add(key, n));
}

/// Record into a histogram on the active collector.
#[inline]
pub fn hist_record(key: &'static str, v: u64) {
    with(|tel| tel.hist_record(key, v));
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

/// Record an injected fault at instant `t` (arms the flight recorder);
/// no-op when disabled or when timelines are off.
#[inline]
pub fn fault_event_at(label: &'static str, t: SimTime) {
    with(|tel| tel.fault_event_at(label, t));
}

/// [`fault_event_at`] at the timeline cursor, for fault sites with no
/// virtual clock in hand.
#[inline]
pub fn fault_event(label: &'static str) {
    with(|tel| tel.fault_event(label));
}

/// Append a counter-track sample on the active collector.
#[inline]
pub fn track_sample(name: &str, t: SimTime, v: f64) {
    with(|tel| tel.track_sample(name, t, v));
}

/// Set the profiler's current-locality context; no-op when disabled.
#[inline]
pub fn profile_set_loc(loc: usize) {
    with(|tel| tel.profile_set_loc(loc));
}

/// Record a base profiler interval; no-op when disabled or empty.
#[inline]
pub fn profile_record(
    loc: usize,
    core: usize,
    state: CoreState,
    label: &'static str,
    start: SimTime,
    end: SimTime,
) {
    if end > start {
        with(|tel| tel.profile_record(loc, core, state, label, start, end));
    }
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
            counter_add("x", 1);
            assert!(take_route(0, 1, 5).is_empty());
            assert!(active().is_none());
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
            counter_add("parcels", 3);
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
            counter_add("parcels", 7);
            profile_set_loc(3);
            simcore::causal::on_execute(1, 50, 0);
            simcore::causal::mark(
                "lock",
                simcore::causal::MarkKind::Hold,
                SimTime::ZERO,
                SimTime::from_nanos(10),
                0,
            );
            disable();
            assert!(!simcore::causal::installed());
            assert_eq!(simcore::causal::current_node(), 0);

            // Second run starts from a blank slate.
            let second = enable();
            assert_eq!(second.flow_count(), 0);
            assert_eq!(second.with_metrics(|m| m.counter("parcels")), 0);
            assert!(second.take_route(0, 1, 99).is_empty(), "routes must not leak");
            let log = second.causal_log().expect("fresh causal log");
            assert_eq!(log.node_count(), 0);
            assert_eq!(log.mark_count(), 0);
            let id2 = flow_begin(0, 1, 0, SimTime::ZERO);
            assert_eq!(id2, 1, "flow ids restart per collector");
            disable();

            // The first handle still holds only its own data.
            assert_eq!(first.flow_count(), 1);
            assert_eq!(first.with_metrics(|m| m.counter("parcels")), 7);
            assert_eq!(first.causal_log().unwrap().node_count(), 1);
            assert_eq!(second.flow_count(), 1);
        });
    }

    #[test]
    fn enable_while_enabled_resets_cleanly() {
        with_clean_state(|| {
            let stale = enable();
            counter_add("x", 1);
            // A run that forgot to disable: the next enable must not let
            // the stale adapter keep collecting.
            let fresh = enable();
            counter_add("x", 1);
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
}
