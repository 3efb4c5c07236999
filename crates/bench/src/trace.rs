//! Observability report plumbing shared by the figure harnesses.
//!
//! The flags themselves are parsed by [`crate::cli`] (one shared parser;
//! unknown flags are a hard error) — this module owns what happens with
//! an instrumented run once it finishes: [`TraceSink`] renders the text
//! reports and writes the Chrome trace / JSON / folded-stack / timeline
//! files.
//!
//! When any flag is present the harness runs a reduced *instrumented
//! pass* instead of the full figure sweep: telemetry accumulates per
//! collector, so each traced configuration gets a fresh one (see
//! [`instrumented`] / [`crate::cli::instrumented_for`]).

use std::rc::Rc;

pub use crate::cli::TraceArgs;
use telemetry::{RunMeta, RunRecord, Telemetry};

/// Run `f` under a fresh telemetry collector and return its result plus
/// the collector. Everything `f` runs records into the collector as it
/// happens — per-core slices included — so it is complete once `f`
/// returns.
pub fn instrumented<R>(f: impl FnOnce() -> R) -> (R, Rc<Telemetry>) {
    let tel = telemetry::enable();
    let r = f();
    telemetry::disable();
    (r, tel)
}

/// Accumulates per-configuration reports and writes the files requested
/// on the command line.
pub struct TraceSink {
    args: TraceArgs,
    scenario: String,
    params: Vec<(String, String)>,
    json_docs: Vec<String>,
    folded_docs: Vec<String>,
}

impl TraceSink {
    /// A sink honoring `args`. `scenario` is the harness name stamped
    /// into run records (e.g. `fig8_latency_window_8b`).
    pub fn new(args: &TraceArgs, scenario: &str) -> TraceSink {
        TraceSink {
            args: args.clone(),
            scenario: scenario.to_string(),
            params: args.params.clone(),
            json_docs: Vec::new(),
            folded_docs: Vec::new(),
        }
    }

    /// Add workload parameters to the run-record metadata (on top of any
    /// `--param` overrides already captured from the command line).
    pub fn set_params(&mut self, params: &[(&str, String)]) {
        for (k, v) in params {
            if !self.params.iter().any(|(pk, _)| pk == k) {
                self.params.push((k.to_string(), v.clone()));
            }
        }
    }

    /// Emit the reports of one instrumented run. The Chrome trace and
    /// timeline files are written only when `write_trace` is set — the
    /// harness nominates one run so `--trace`/`--timeline` yield a
    /// single document each.
    pub fn emit(&mut self, tel: &Telemetry, config: &str, write_trace: bool) {
        let cp = if self.args.critpath { tel.critpath(config) } else { None };
        if let Some(cp) = &cp {
            print!("{}", cp.to_text());
            println!();
        }
        if self.args.breakdown {
            print!("{}", tel.breakdown(config).to_text());
            print!("{}", tel.contention_report(config).to_text());
            println!();
        }
        if self.args.profile {
            print!("{}", tel.core_report(config).to_text());
            print!("{}", track_sparklines(tel));
            println!();
        }
        if self.args.folded.is_some() {
            self.folded_docs.push(tel.folded_stacks(config));
        }
        if self.args.timeline_active() {
            self.emit_timeline(tel, config, write_trace);
        }
        if self.args.json.is_some() {
            let critpath_field =
                cp.as_ref().map(|cp| format!(",\"critpath\":{}", cp.to_json())).unwrap_or_default();
            self.json_docs.push(format!(
                "{{\"breakdown\":{},\"contention\":{},\"core_profile\":{}{}}}",
                tel.breakdown(config).to_json(),
                tel.contention_report(config).to_json(),
                tel.core_report(config).to_json(),
                critpath_field
            ));
        }
        if write_trace {
            if let Some(path) = &self.args.trace {
                let doc = match &cp {
                    Some(cp) => tel.chrome_trace_with_critpath(cp),
                    None => tel.chrome_trace_collected(),
                };
                std::fs::write(path, doc).expect("write trace file");
                println!(
                    "wrote Chrome trace of {config} ({} spans, {} flows) -> {path}",
                    tel.span_count(),
                    tel.flow_count()
                );
            }
            if let Some(path) = &self.args.record {
                let rec = RunRecord::capture(
                    tel,
                    RunMeta {
                        scenario: self.scenario.clone(),
                        config: config.to_string(),
                        params: self.params.clone(),
                        knobs: self.args.dial_knob_names(),
                    },
                );
                std::fs::write(path, rec.to_json()).expect("write run record");
                println!(
                    "wrote run record of {config} ({} ns end-to-end, {} events) -> {path}",
                    rec.end_to_end_ns, rec.events
                );
            }
        }
    }

    /// Timeline reports of one instrumented run: a one-line summary on
    /// stdout, plus (for the nominated run) the `--timeline FILE` JSON
    /// document and `FILE.om` OpenMetrics exposition.
    fn emit_timeline(&self, tel: &Telemetry, config: &str, write_trace: bool) {
        let (nwin, window_ns) = tel
            .with_timeline(|tl| (tl.num_windows(), tl.window_ns()))
            .expect("timeline pass runs with a timeline-enabled collector");
        println!("timeline[{config}]: {nwin} windows x {} us", window_ns / 1_000);
        if !write_trace {
            return;
        }
        if let Some(path) = &self.args.timeline {
            let doc = tel.timeline_json(config).expect("timeline document");
            std::fs::write(path, doc).expect("write timeline file");
            let om = tel.timeline_text(config).expect("timeline exposition");
            std::fs::write(format!("{path}.om"), om).expect("write timeline exposition");
            println!("wrote timeline of {config} ({nwin} windows) -> {path} (+ {path}.om)");
        }
    }

    /// Write the machine-readable report and folded-stack files, if
    /// requested.
    pub fn finish(self) {
        if let Some(path) = &self.args.json {
            std::fs::write(path, format!("[{}]", self.json_docs.join(",")))
                .expect("write json report");
            println!("wrote machine-readable reports -> {path}");
        }
        if let Some(path) = &self.args.folded {
            let doc = self.folded_docs.concat();
            std::fs::write(path, &doc).expect("write folded stacks");
            println!(
                "wrote {} folded stacks -> {path} (render: inferno-flamegraph < {path})",
                doc.lines().count()
            );
        }
    }
}

/// Render every counter track the run produced as a terminal sparkline —
/// queue depths, in-flight parcels, and per-link busy time at a glance.
fn track_sparklines(tel: &Telemetry) -> String {
    use telemetry::profile::{resample, sparkline};
    tel.with_metrics(|m| {
        let tracks = m.tracks();
        let horizon = tracks.iter().flat_map(|(_, s)| s.iter().map(|&(t, _)| t)).max().unwrap_or(0);
        let mut out = String::new();
        for (name, series) in tracks {
            let buckets = resample(series, horizon, 48);
            let peak = series.iter().map(|&(_, v)| v).fold(0.0_f64, f64::max);
            out.push_str(&format!("  {name:<24} {} peak {peak:.1}\n", sparkline(&buckets)));
        }
        if !out.is_empty() {
            out.insert_str(0, "counter tracks (full horizon, 48 buckets):\n");
        }
        out
    })
}
