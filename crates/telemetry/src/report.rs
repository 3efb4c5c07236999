//! Human- and machine-readable reports: latency breakdown per lifecycle
//! stage, and contention attribution ranked by wait time.

use std::fmt::Write as _;

use simcore::Summary;

use crate::flow::{stage, FlowRec, STAGE_NAMES, UNSET};
use crate::hist::Histogram;
use crate::json::escape_json;
use crate::metrics::ContentionStat;

/// Aggregated durations for one lifecycle stage: the time from entering
/// the stage until the next recorded stage.
#[derive(Debug, Clone)]
pub struct StageStat {
    /// Stage name (see [`STAGE_NAMES`]), or `"total"`.
    pub stage: &'static str,
    /// Mean/stddev/min/max accumulator.
    pub summary: Summary,
    /// Quantile accumulator.
    pub hist: Histogram,
}

impl StageStat {
    fn new(stage: &'static str) -> Self {
        StageStat { stage, summary: Summary::new(), hist: Histogram::new() }
    }

    fn record(&mut self, ns: u64) {
        self.summary.record(ns as f64);
        self.hist.record(ns);
    }
}

/// Per-stage latency breakdown for one configuration.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Configuration label (e.g. `lci_psr_cq_pin_i`).
    pub config: String,
    /// One row per lifecycle stage that had samples, in causal order.
    pub stages: Vec<StageStat>,
    /// End-to-end (first recorded stage → last recorded stage).
    pub total: StageStat,
    /// Flows started.
    pub flows: u64,
    /// Flows that reached delivery.
    pub delivered: u64,
}

impl Breakdown {
    /// Build a breakdown from recorded flows.
    pub fn from_flows(config: &str, flows: &[FlowRec]) -> Breakdown {
        let mut stages: Vec<StageStat> = STAGE_NAMES.iter().map(|s| StageStat::new(s)).collect();
        let mut total = StageStat::new("total");
        let mut delivered = 0u64;
        for f in flows {
            delivered += f.delivered() as u64;
            let mut prev: Option<(usize, u64)> = None;
            for (idx, &t) in f.stages.iter().enumerate() {
                if t == UNSET {
                    continue;
                }
                if let Some((pidx, pt)) = prev {
                    stages[pidx].record(t.saturating_sub(pt));
                }
                prev = Some((idx, t));
            }
            if let (Some(first), Some((_, last))) = (f.at(stage::PUT), prev) {
                if last > first {
                    total.record(last - first);
                }
            }
        }
        stages.retain(|s| s.summary.count > 0);
        Breakdown {
            config: config.to_string(),
            stages,
            total,
            flows: flows.len() as u64,
            delivered,
        }
    }

    /// The stage with the largest total time (where the latency went).
    pub fn dominant_stage(&self) -> Option<&'static str> {
        self.stages
            .iter()
            .max_by(|a, b| a.summary.sum.partial_cmp(&b.summary.sum).expect("finite sums"))
            .map(|s| s.stage)
    }

    /// Render an aligned text table (times in µs).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "latency breakdown [{}]  flows={} delivered={}",
            self.config, self.flows, self.delivered
        );
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "stage", "count", "mean_us", "stddev_us", "p50_us", "p90_us", "p99_us"
        );
        for s in self.stages.iter().chain(std::iter::once(&self.total)) {
            let _ = writeln!(
                out,
                "  {:<10} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                s.stage,
                s.summary.count,
                s.summary.mean() / 1e3,
                s.summary.stddev() / 1e3,
                s.hist.p50() as f64 / 1e3,
                s.hist.p90() as f64 / 1e3,
                s.hist.p99() as f64 / 1e3,
            );
        }
        if let Some(dom) = self.dominant_stage() {
            let _ = writeln!(out, "  dominant stage: {dom}");
        }
        out
    }

    /// Render as machine-readable JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"config\":\"{}\",\"flows\":{},\"delivered\":{},\"stages\":[",
            escape_json(&self.config),
            self.flows,
            self.delivered
        );
        for (i, s) in self.stages.iter().chain(std::iter::once(&self.total)).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":\"{}\",\"count\":{},\"mean_ns\":{:.1},\"stddev_ns\":{:.1},\
                 \"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{}}}",
                s.stage,
                s.summary.count,
                s.summary.mean(),
                s.summary.stddev(),
                s.hist.p50(),
                s.hist.p90(),
                s.hist.p99(),
            );
        }
        out.push_str("]}");
        out
    }
}

/// Contention attribution for one configuration: resources ranked by the
/// total time cores spent waiting on them.
#[derive(Debug, Clone)]
pub struct ContentionReport {
    /// Configuration label.
    pub config: String,
    /// `(resource name, stats)` ranked by total wait, descending.
    pub rows: Vec<(&'static str, ContentionStat)>,
}

impl ContentionReport {
    /// Render an aligned text table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "top resources by wait time [{}]", self.config);
        let _ = writeln!(
            out,
            "  {:<24} {:<9} {:>10} {:>10} {:>12} {:>10} {:>12}",
            "resource", "kind", "events", "contended", "wait_us", "wait/ev_ns", "service_us"
        );
        for (name, s) in &self.rows {
            let _ = writeln!(
                out,
                "  {:<24} {:<9} {:>10} {:>10} {:>12.1} {:>10.1} {:>12.1}",
                name,
                s.kind.label(),
                s.events,
                s.contended,
                s.total_wait_ns as f64 / 1e3,
                s.mean_wait_ns(),
                s.total_service_ns as f64 / 1e3,
            );
        }
        out
    }

    /// Render as machine-readable JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"config\":\"{}\",\"resources\":[", escape_json(&self.config));
        for (i, (name, s)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"events\":{},\"contended\":{},\
                 \"total_wait_ns\":{},\"mean_wait_ns\":{:.1},\"total_service_ns\":{}}}",
                escape_json(name),
                s.kind.label(),
                s.events,
                s.contended,
                s.total_wait_ns,
                s.mean_wait_ns(),
                s.total_service_ns,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowTracer;
    use crate::metrics::{ContentionTable, ResourceKind};
    use simcore::SimTime;

    fn sample_flows() -> FlowTracer {
        let mut f = FlowTracer::new();
        for i in 0..4u64 {
            let id = f.begin(0, 1, 0, SimTime::from_nanos(100 * i));
            f.mark(id, stage::SERIALIZE, SimTime::from_nanos(100 * i + 50));
            f.mark(id, stage::INJECT, SimTime::from_nanos(100 * i + 80));
            f.mark(id, stage::WIRE, SimTime::from_nanos(100 * i + 2000));
            f.mark(id, stage::MATCH, SimTime::from_nanos(100 * i + 2300));
            f.mark(id, stage::DELIVER, SimTime::from_nanos(100 * i + 2500));
            f.mark(id, stage::SPAWN, SimTime::from_nanos(100 * i + 2600));
        }
        f
    }

    #[test]
    fn breakdown_attributes_stage_durations() {
        let f = sample_flows();
        let b = Breakdown::from_flows("test", f.flows());
        assert_eq!(b.flows, 4);
        assert_eq!(b.delivered, 4);
        let put = b.stages.iter().find(|s| s.stage == "put").unwrap();
        assert_eq!(put.summary.mean(), 50.0);
        let inject = b.stages.iter().find(|s| s.stage == "inject").unwrap();
        assert_eq!(inject.summary.mean(), 1920.0); // inject → wire
        assert_eq!(b.dominant_stage(), Some("inject"));
        assert_eq!(b.total.summary.mean(), 2600.0);
        // Unrecorded stage (queue) is dropped.
        assert!(b.stages.iter().all(|s| s.stage != "queue"));
        let text = b.to_text();
        assert!(text.contains("dominant stage: inject"));
    }

    #[test]
    fn reports_render_as_valid_json() {
        let f = sample_flows();
        let b = Breakdown::from_flows("cfg\"quoted", f.flows());
        let parsed = crate::json::parse(&b.to_json()).expect("breakdown json parses");
        assert_eq!(parsed.get("config").unwrap().as_str(), Some("cfg\"quoted"));
        assert!(parsed.get("stages").unwrap().as_arr().unwrap().len() > 2);

        let mut t = ContentionTable::new();
        t.record("ucp_progress", ResourceKind::Lock, 5000, 100, true);
        t.record("lci.progress", ResourceKind::TryLock, 0, 50, false);
        let report = ContentionReport { config: "mpi".into(), rows: t.ranking() };
        let parsed = crate::json::parse(&report.to_json()).expect("contention json parses");
        let rows = parsed.get("resources").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("name").unwrap().as_str(), Some("ucp_progress"));
        assert!(report.to_text().contains("ucp_progress"));
    }
}
