//! Canonical per-run artifact: the **RunRecord**.
//!
//! One self-describing JSON document per instrumented run, capturing
//! everything the cross-run differential engine ([`crate::diff`]) needs
//! to attribute a performance delta between two runs:
//!
//! * run identity — scenario, configuration, workload parameters, and
//!   any dialed cost-model knobs;
//! * every counter, gauge and histogram — histograms with their **exact
//!   bucket counts** (see [`Histogram::to_json`]), not just derived
//!   quantiles, so records stay mergeable and bucket-diffable;
//! * the exact critical-path partition (per-component on-path time plus
//!   the contiguous segment list — the PR-4 invariant that segments sum
//!   to the makespan carries over to record diffs);
//! * the per-core profile partition (five states per core);
//! * per-resource contention totals (including `fab.*` switch ports);
//! * fabric per-port counters and timeline window digests, when the run
//!   had a windowed timeline attached.
//!
//! Everything captured is **virtual-time** data from the deterministic
//! simulation — re-running the same binary on the same inputs reproduces
//! the record byte-for-byte, which is what lets CI gate tightly on run
//! records (`perf_diff` vs `results/baselines/`). Capture happens after
//! the simulated run has finished, reading the collector only: enabling
//! `--record` cannot perturb the event stream (pinned by the golden
//! purity tests).

use std::collections::BTreeMap;

use simcore::escape_json;

use crate::hist::Histogram;
use crate::json::{self, Value};
use crate::profile::{CoreState, N_STATES, STATES};
use crate::Telemetry;

/// Schema version stamped into every record.
pub const SCHEMA_VERSION: u64 = 1;

/// Run identity, provided by the harness at capture time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// Harness name, e.g. `fig8_latency_window_8b`.
    pub scenario: String,
    /// Configuration name, e.g. `lci_psr_cq_pin_i`.
    pub config: String,
    /// Workload parameters as ordered key/value pairs (window, steps,
    /// hosts, ...), stringified by the harness.
    pub params: Vec<(String, String)>,
    /// Cost-model knobs dialed for this run (`--knobs`), by name.
    pub knobs: Vec<String>,
}

impl RunMeta {
    /// `scenario/config[+knob,...]` display label.
    pub fn label(&self) -> String {
        let mut s = format!("{}/{}", self.scenario, self.config);
        if !self.knobs.is_empty() {
            s.push('+');
            s.push_str(&self.knobs.join(","));
        }
        s
    }
}

/// The critical-path partition of one run, flattened for serialization.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CritSummary {
    /// Makespan, ns; component shares and segment lengths both sum to
    /// exactly this.
    pub total_ns: u64,
    /// Bandwidth-independent portion of on-path wire time.
    pub wire_fixed_ns: u64,
    /// Events on the path.
    pub events_on_path: u64,
    /// Whether the causal log hit its memory guard.
    pub truncated: bool,
    /// Per-component on-path time, ranked descending (ties by name).
    pub components: Vec<(String, u64)>,
    /// The contiguous `(component, start, end)` partition of
    /// `[0, total_ns]`.
    pub segments: Vec<(String, u64, u64)>,
}

/// One core's five-state virtual-time partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreRecord {
    /// Locality index.
    pub loc: usize,
    /// Core index within the locality.
    pub core: usize,
    /// Attributed ns per state, in [`STATES`] order; sums to the core's
    /// elapsed time.
    pub states: [u64; N_STATES],
}

impl CoreRecord {
    /// Total attributed time of this core.
    pub fn total_ns(&self) -> u64 {
        self.states.iter().sum()
    }
}

/// One contended resource's totals (locks, resources, switch ports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// Resource name (e.g. `ucp_progress`, `fab.s2.p3`).
    pub name: String,
    /// Resource kind label (`lock` / `resource`).
    pub kind: String,
    /// Acquire/use events.
    pub events: u64,
    /// Events that had to wait.
    pub contended: u64,
    /// Total queueing/spinning wait, ns.
    pub wait_ns: u64,
    /// Total hold/service time, ns.
    pub service_ns: u64,
}

/// Per-port fabric totals (from the timeline's port accounting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortRecord {
    /// Port name (`fab.<switch>.p<idx>`).
    pub name: String,
    /// Packets transmitted.
    pub pkts: u64,
    /// Bytes transmitted.
    pub bytes: u64,
    /// Queueing wait, ns.
    pub wait_ns: u64,
}

/// Windowed digests: per-window sample counts/sums per histogram key and
/// per-window deltas per counter key. Per-key window sums equal the run
/// totals (the timeline merge invariant), which `trace_check
/// --require-record` re-checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowDigest {
    /// Window width, ns.
    pub window_ns: u64,
    /// Number of windows covering the run.
    pub num_windows: u64,
    /// Per histogram key: `(window, count, sum)` for non-empty windows.
    pub hists: BTreeMap<String, Vec<(u64, u64, u64)>>,
    /// Per counter key: `(window, delta)` for non-zero windows.
    pub counters: BTreeMap<String, Vec<(u64, u64)>>,
}

/// The canonical cross-run artifact: one instrumented run, fully
/// described. See the module docs for the capture/diff contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunRecord {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub version: u64,
    /// Run identity.
    pub meta: RunMeta,
    /// End-to-end virtual time, ns (the critical-path makespan; falls
    /// back to the profiler horizon when no causal log was installed).
    pub end_to_end_ns: u64,
    /// Events executed (causal-log node count; wall-clock independent).
    pub events: u64,
    /// Flows started.
    pub flows_total: u64,
    /// Flows that reached delivery.
    pub flows_delivered: u64,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, i64>,
    /// Full histograms with exact bucket counts.
    pub hists: BTreeMap<String, Histogram>,
    /// The critical-path partition, when a causal log was installed.
    pub critpath: Option<CritSummary>,
    /// Per-core profile partitions, ordered by `(loc, core)`.
    pub profile: Vec<CoreRecord>,
    /// Per-resource contention totals, ranked by total wait.
    pub resources: Vec<ResourceRecord>,
    /// Fabric per-port totals (empty when no timeline / no ports).
    pub ports: Vec<PortRecord>,
    /// Timeline window digests, when a timeline was attached.
    pub windows: Option<WindowDigest>,
}

impl RunRecord {
    /// Capture a record from a finished instrumented run. Read-only on
    /// the collector (finalizes the timeline, which is idempotent and
    /// happens after the simulated run ends); `meta` comes from the
    /// harness.
    pub fn capture(tel: &Telemetry, meta: RunMeta) -> RunRecord {
        tel.timeline_finalize();
        let mut rec = RunRecord { version: SCHEMA_VERSION, meta, ..RunRecord::default() };

        rec.critpath = tel.critpath(&rec.meta.config).map(|cp| CritSummary {
            total_ns: cp.total_ns,
            wire_fixed_ns: cp.wire_fixed_ns,
            events_on_path: cp.events_on_path as u64,
            truncated: cp.truncated,
            components: cp.components.iter().map(|c| (c.component.clone(), c.on_path_ns)).collect(),
            segments: cp.segments.iter().map(|s| (s.component.clone(), s.start, s.end)).collect(),
        });
        rec.events = tel.causal_log().map(|log| log.node_count() as u64).unwrap_or(0);

        tel.with_metrics(|m| {
            for (k, v) in m.counters() {
                rec.counters.insert(k.to_string(), v);
            }
            for (k, v) in m.gauges() {
                rec.gauges.insert(k.to_string(), v);
            }
            for (k, h) in m.hists() {
                rec.hists.insert(k.to_string(), h.clone());
            }
        });

        let (total, delivered) = tel.with_flows(|flows| {
            (flows.len() as u64, flows.iter().filter(|f| f.delivered()).count() as u64)
        });
        rec.flows_total = total;
        rec.flows_delivered = delivered;

        tel.with_profile(|p| {
            for ((loc, core), acct) in p.snapshot() {
                rec.profile.push(CoreRecord { loc, core, states: acct.state_table() });
            }
        });

        tel.with_contention(|t| {
            for (name, s) in t.ranking() {
                rec.resources.push(ResourceRecord {
                    name: name.to_string(),
                    kind: s.kind.label().to_string(),
                    events: s.events,
                    contended: s.contended,
                    wait_ns: s.total_wait_ns,
                    service_ns: s.total_service_ns,
                });
            }
        });

        if let Some((ports, windows)) = tel.with_timeline(|tl| {
            let mut ports = Vec::new();
            for name in tl.port_names() {
                let (mut pkts, mut bytes, mut wait) = (0u64, 0u64, 0u64);
                if let Some(ws) = tl.port_windows(name) {
                    for pw in ws.values() {
                        pkts += pw.pkts;
                        bytes += pw.bytes;
                        wait += pw.wait_ns;
                    }
                }
                ports.push(PortRecord { name: name.to_string(), pkts, bytes, wait_ns: wait });
            }
            let mut digest = WindowDigest {
                window_ns: tl.window_ns(),
                num_windows: tl.num_windows(),
                ..WindowDigest::default()
            };
            for key in tl.hist_keys() {
                let rows: Vec<(u64, u64, u64)> = tl
                    .hist_windows(key)
                    .map(|ws| ws.iter().map(|(&w, h)| (w, h.count(), h.sum())).collect())
                    .unwrap_or_default();
                digest.hists.insert(key.to_string(), rows);
            }
            for key in tl.counter_keys() {
                let rows: Vec<(u64, u64)> = tl
                    .counter_windows(key)
                    .map(|ws| ws.iter().map(|(&w, &d)| (w, d)).collect())
                    .unwrap_or_default();
                digest.counters.insert(key.to_string(), rows);
            }
            (ports, digest)
        }) {
            rec.ports = ports;
            rec.windows = Some(windows);
        }

        rec.end_to_end_ns = match &rec.critpath {
            Some(cp) => cp.total_ns,
            None => tel.with_profile(|p| p.horizon_ns()),
        };
        rec
    }

    /// `scenario/config[+knobs]` display label.
    pub fn label(&self) -> String {
        self.meta.label()
    }

    /// Serialize to the canonical JSON document. Deterministic: all maps
    /// are ordered, all vectors preserve their (deterministic) capture
    /// order, and no wall-clock data is included — identical runs yield
    /// byte-identical documents.
    pub fn to_json(&self) -> String {
        let params: Vec<String> = self
            .meta
            .params
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)))
            .collect();
        let knobs: Vec<String> =
            self.meta.knobs.iter().map(|k| format!("\"{}\"", escape_json(k))).collect();
        let counters: Vec<String> =
            self.counters.iter().map(|(k, v)| format!("\"{}\":{v}", escape_json(k))).collect();
        let gauges: Vec<String> =
            self.gauges.iter().map(|(k, v)| format!("\"{}\":{v}", escape_json(k))).collect();
        let hists: Vec<String> = self
            .hists
            .iter()
            .map(|(k, h)| format!("\"{}\":{}", escape_json(k), h.to_json()))
            .collect();

        let critpath = match &self.critpath {
            None => "null".to_string(),
            Some(cp) => {
                let comps: Vec<String> = cp
                    .components
                    .iter()
                    .map(|(c, ns)| {
                        format!("{{\"component\":\"{}\",\"on_path_ns\":{ns}}}", escape_json(c))
                    })
                    .collect();
                let segs: Vec<String> = cp
                    .segments
                    .iter()
                    .map(|(c, s, e)| format!("[\"{}\",{s},{e}]", escape_json(c)))
                    .collect();
                format!(
                    "{{\"total_ns\":{},\"wire_fixed_ns\":{},\"events_on_path\":{},\
                     \"truncated\":{},\"components\":[{}],\"segments\":[{}]}}",
                    cp.total_ns,
                    cp.wire_fixed_ns,
                    cp.events_on_path,
                    cp.truncated,
                    comps.join(","),
                    segs.join(",")
                )
            }
        };

        let profile: Vec<String> = self
            .profile
            .iter()
            .map(|c| {
                let states: Vec<String> = STATES
                    .iter()
                    .map(|&s| format!("\"{}\":{}", state_key(s), c.states[s as usize]))
                    .collect();
                format!("{{\"loc\":{},\"core\":{},{}}}", c.loc, c.core, states.join(","))
            })
            .collect();

        let resources: Vec<String> = self
            .resources
            .iter()
            .map(|r| {
                format!(
                    "{{\"name\":\"{}\",\"kind\":\"{}\",\"events\":{},\"contended\":{},\
                     \"wait_ns\":{},\"service_ns\":{}}}",
                    escape_json(&r.name),
                    escape_json(&r.kind),
                    r.events,
                    r.contended,
                    r.wait_ns,
                    r.service_ns
                )
            })
            .collect();

        let ports: Vec<String> = self
            .ports
            .iter()
            .map(|p| {
                format!(
                    "{{\"name\":\"{}\",\"pkts\":{},\"bytes\":{},\"wait_ns\":{}}}",
                    escape_json(&p.name),
                    p.pkts,
                    p.bytes,
                    p.wait_ns
                )
            })
            .collect();

        let windows = match &self.windows {
            None => "null".to_string(),
            Some(w) => {
                let hists: Vec<String> = w
                    .hists
                    .iter()
                    .map(|(k, rows)| {
                        let rs: Vec<String> =
                            rows.iter().map(|(w, c, s)| format!("[{w},{c},{s}]")).collect();
                        format!("\"{}\":[{}]", escape_json(k), rs.join(","))
                    })
                    .collect();
                let counters: Vec<String> = w
                    .counters
                    .iter()
                    .map(|(k, rows)| {
                        let rs: Vec<String> =
                            rows.iter().map(|(w, d)| format!("[{w},{d}]")).collect();
                        format!("\"{}\":[{}]", escape_json(k), rs.join(","))
                    })
                    .collect();
                format!(
                    "{{\"window_ns\":{},\"num_windows\":{},\"hists\":{{{}}},\
                     \"counters\":{{{}}}}}",
                    w.window_ns,
                    w.num_windows,
                    hists.join(","),
                    counters.join(",")
                )
            }
        };

        format!(
            "{{\"run_record\":{{\"version\":{},\"scenario\":\"{}\",\"config\":\"{}\",\
             \"params\":{{{}}},\"knobs\":[{}],\"end_to_end_ns\":{},\"events\":{},\
             \"flows\":{{\"total\":{},\"delivered\":{}}},\"counters\":{{{}}},\
             \"gauges\":{{{}}},\"hists\":{{{}}},\"critpath\":{},\"profile\":[{}],\
             \"resources\":[{}],\"ports\":[{}],\"windows\":{}}}}}",
            self.version,
            escape_json(&self.meta.scenario),
            escape_json(&self.meta.config),
            params.join(","),
            knobs.join(","),
            self.end_to_end_ns,
            self.events,
            self.flows_total,
            self.flows_delivered,
            counters.join(","),
            gauges.join(","),
            hists.join(","),
            critpath,
            profile.join(","),
            resources.join(","),
            ports.join(","),
            windows
        )
    }

    /// Parse a serialized record. Inverse of [`RunRecord::to_json`] for
    /// every field the diff engine reads.
    pub fn from_json(src: &str) -> Result<RunRecord, String> {
        let doc = json::parse(src)?;
        let root = doc.get("run_record").ok_or("missing run_record object")?;
        let mut rec = RunRecord { version: get_u64(root, "version")?, ..RunRecord::default() };
        if rec.version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported run_record version {} (expected {SCHEMA_VERSION})",
                rec.version
            ));
        }
        rec.meta.scenario = get_str(root, "scenario")?.to_string();
        rec.meta.config = get_str(root, "config")?.to_string();
        if let Some(Value::Obj(fields)) = root.get("params") {
            for (k, v) in fields {
                rec.meta
                    .params
                    .push((k.clone(), v.as_str().ok_or("param value must be a string")?.into()));
            }
        }
        if let Some(arr) = root.get("knobs").and_then(|v| v.as_arr()) {
            for k in arr {
                rec.meta.knobs.push(k.as_str().ok_or("knob must be a string")?.to_string());
            }
        }
        rec.end_to_end_ns = get_u64(root, "end_to_end_ns")?;
        rec.events = get_u64(root, "events")?;
        if let Some(f) = root.get("flows") {
            rec.flows_total = get_u64(f, "total")?;
            rec.flows_delivered = get_u64(f, "delivered")?;
        }
        if let Some(Value::Obj(fields)) = root.get("counters") {
            for (k, v) in fields {
                rec.counters.insert(k.clone(), as_u64(v)?);
            }
        }
        if let Some(Value::Obj(fields)) = root.get("gauges") {
            for (k, v) in fields {
                rec.gauges.insert(k.clone(), v.as_f64().ok_or("gauge must be a number")? as i64);
            }
        }
        if let Some(Value::Obj(fields)) = root.get("hists") {
            for (k, v) in fields {
                rec.hists.insert(k.clone(), hist_from_json(v)?);
            }
        }
        match root.get("critpath") {
            None | Some(Value::Null) => {}
            Some(cp) => {
                let mut out = CritSummary {
                    total_ns: get_u64(cp, "total_ns")?,
                    wire_fixed_ns: get_u64(cp, "wire_fixed_ns")?,
                    events_on_path: get_u64(cp, "events_on_path")?,
                    truncated: matches!(cp.get("truncated"), Some(Value::Bool(true))),
                    ..CritSummary::default()
                };
                for c in cp.get("components").and_then(|v| v.as_arr()).unwrap_or(&[]) {
                    out.components
                        .push((get_str(c, "component")?.to_string(), get_u64(c, "on_path_ns")?));
                }
                for s in cp.get("segments").and_then(|v| v.as_arr()).unwrap_or(&[]) {
                    let row = s.as_arr().ok_or("segment must be an array")?;
                    if row.len() != 3 {
                        return Err("segment must be [component, start, end]".into());
                    }
                    out.segments.push((
                        row[0].as_str().ok_or("segment component must be a string")?.to_string(),
                        as_u64(&row[1])?,
                        as_u64(&row[2])?,
                    ));
                }
                rec.critpath = Some(out);
            }
        }
        for c in root.get("profile").and_then(|v| v.as_arr()).unwrap_or(&[]) {
            let mut states = [0u64; N_STATES];
            for &s in &STATES {
                states[s as usize] = get_u64(c, state_key(s))?;
            }
            rec.profile.push(CoreRecord {
                loc: get_u64(c, "loc")? as usize,
                core: get_u64(c, "core")? as usize,
                states,
            });
        }
        for r in root.get("resources").and_then(|v| v.as_arr()).unwrap_or(&[]) {
            rec.resources.push(ResourceRecord {
                name: get_str(r, "name")?.to_string(),
                kind: get_str(r, "kind")?.to_string(),
                events: get_u64(r, "events")?,
                contended: get_u64(r, "contended")?,
                wait_ns: get_u64(r, "wait_ns")?,
                service_ns: get_u64(r, "service_ns")?,
            });
        }
        for p in root.get("ports").and_then(|v| v.as_arr()).unwrap_or(&[]) {
            rec.ports.push(PortRecord {
                name: get_str(p, "name")?.to_string(),
                pkts: get_u64(p, "pkts")?,
                bytes: get_u64(p, "bytes")?,
                wait_ns: get_u64(p, "wait_ns")?,
            });
        }
        match root.get("windows") {
            None | Some(Value::Null) => {}
            Some(w) => {
                let mut digest = WindowDigest {
                    window_ns: get_u64(w, "window_ns")?,
                    num_windows: get_u64(w, "num_windows")?,
                    ..WindowDigest::default()
                };
                if let Some(Value::Obj(fields)) = w.get("hists") {
                    for (k, v) in fields {
                        let mut rows = Vec::new();
                        for row in v.as_arr().ok_or("window hist rows must be an array")? {
                            let r = row.as_arr().ok_or("window hist row must be an array")?;
                            if r.len() != 3 {
                                return Err("window hist row must be [w, count, sum]".into());
                            }
                            rows.push((as_u64(&r[0])?, as_u64(&r[1])?, as_u64(&r[2])?));
                        }
                        digest.hists.insert(k.clone(), rows);
                    }
                }
                if let Some(Value::Obj(fields)) = w.get("counters") {
                    for (k, v) in fields {
                        let mut rows = Vec::new();
                        for row in v.as_arr().ok_or("window counter rows must be an array")? {
                            let r = row.as_arr().ok_or("window counter row must be an array")?;
                            if r.len() != 2 {
                                return Err("window counter row must be [w, delta]".into());
                            }
                            rows.push((as_u64(&r[0])?, as_u64(&r[1])?));
                        }
                        digest.counters.insert(k.clone(), rows);
                    }
                }
                rec.windows = Some(digest);
            }
        }
        Ok(rec)
    }
}

/// JSON field name of a profiler state (`lock-wait` → `lock_wait`).
fn state_key(s: CoreState) -> &'static str {
    match s {
        CoreState::Working => "working",
        CoreState::Progress => "progress",
        CoreState::LockWait => "lock_wait",
        CoreState::Serialize => "serialize",
        CoreState::Idle => "idle",
    }
}

fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    as_u64(v.get(key).ok_or_else(|| format!("missing field {key:?}"))?)
        .map_err(|e| format!("field {key:?}: {e}"))
}

fn as_u64(v: &Value) -> Result<u64, String> {
    let f = v.as_f64().ok_or("expected a number")?;
    if f < 0.0 {
        return Err(format!("expected a non-negative number, got {f}"));
    }
    Ok(f as u64)
}

fn get_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key).and_then(|v| v.as_str()).ok_or_else(|| format!("missing string field {key:?}"))
}

/// Rebuild a [`Histogram`] from the exact-bucket JSON emitted by
/// [`Histogram::to_json`].
fn hist_from_json(v: &Value) -> Result<Histogram, String> {
    let sum = get_u64(v, "sum")?;
    let min = get_u64(v, "min")?;
    let max = get_u64(v, "max")?;
    let mut buckets = Vec::new();
    for row in v.get("buckets").and_then(|b| b.as_arr()).ok_or("hist missing buckets")? {
        let r = row.as_arr().ok_or("hist bucket must be an array")?;
        if r.len() != 2 {
            return Err("hist bucket must be [index, count]".into());
        }
        buckets.push((as_u64(&r[0])? as usize, as_u64(&r[1])?));
    }
    let h = Histogram::from_buckets(buckets, sum, min, max)?;
    let declared = get_u64(v, "count")?;
    if h.count() != declared {
        return Err(format!("hist bucket counts sum to {} but count says {declared}", h.count()));
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> RunRecord {
        let mut h = Histogram::new();
        for v in [120u64, 450, 450, 9_800] {
            h.record(v);
        }
        let mut rec = RunRecord {
            version: SCHEMA_VERSION,
            meta: RunMeta {
                scenario: "fig8_latency_window_8b".into(),
                config: "lci_psr_cq_pin_i".into(),
                params: vec![("window".into(), "64".into()), ("steps".into(), "25".into())],
                knobs: vec!["wire_latency_x2".into()],
            },
            end_to_end_ns: 10_000,
            events: 321,
            flows_total: 40,
            flows_delivered: 40,
            ..RunRecord::default()
        };
        rec.counters.insert("parcels.sent".into(), 40);
        rec.gauges.insert("inflight.peak".into(), 7);
        rec.hists.insert("parcel.latency_ns".into(), h);
        rec.critpath = Some(CritSummary {
            total_ns: 10_000,
            wire_fixed_ns: 1_000,
            events_on_path: 12,
            truncated: false,
            components: vec![("net.wire".into(), 6_000), ("cpu".into(), 4_000)],
            segments: vec![("cpu".into(), 0, 4_000), ("net.wire".into(), 4_000, 10_000)],
        });
        rec.profile.push(CoreRecord { loc: 0, core: 0, states: [5_000, 2_000, 0, 1_000, 2_000] });
        rec.resources.push(ResourceRecord {
            name: "ucp_progress".into(),
            kind: "lock".into(),
            events: 10,
            contended: 3,
            wait_ns: 900,
            service_ns: 2_000,
        });
        rec.ports.push(PortRecord { name: "fab.s0.p1".into(), pkts: 8, bytes: 64, wait_ns: 30 });
        let mut digest = WindowDigest { window_ns: 100_000, num_windows: 1, ..Default::default() };
        digest.hists.insert("parcel.latency_ns".into(), vec![(0, 4, 10_820)]);
        digest.counters.insert("parcels.sent".into(), vec![(0, 40)]);
        rec.windows = Some(digest);
        rec
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let rec = sample_record();
        let json = rec.to_json();
        let back = RunRecord::from_json(&json).unwrap();
        assert_eq!(back, rec);
        // Serialization is deterministic.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn labels_show_knobs() {
        let rec = sample_record();
        assert_eq!(rec.label(), "fig8_latency_window_8b/lci_psr_cq_pin_i+wire_latency_x2");
    }

    #[test]
    fn parse_rejects_bad_documents() {
        assert!(RunRecord::from_json("{}").is_err());
        assert!(RunRecord::from_json("{\"run_record\":{\"version\":99}}").is_err());
        // Declared count inconsistent with bucket counts.
        let bad = sample_record().to_json().replace("\"count\":4", "\"count\":5");
        assert!(RunRecord::from_json(&bad).is_err());
    }

    #[test]
    fn capture_from_live_collector() {
        let tel = crate::enable();
        tel.counter_add("parcels.sent", 3);
        tel.hist_record("parcel.latency_ns", 1_500);
        tel.hist_record("parcel.latency_ns", 2_500);
        crate::disable();
        let meta = RunMeta { scenario: "unit".into(), config: "cfg".into(), ..Default::default() };
        let rec = RunRecord::capture(&tel, meta);
        assert_eq!(rec.version, SCHEMA_VERSION);
        assert_eq!(rec.counters.get("parcels.sent"), Some(&3));
        assert_eq!(rec.hists["parcel.latency_ns"].count(), 2);
        let back = RunRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(back, rec);
    }
}
