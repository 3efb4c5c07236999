//! Chrome-trace / Perfetto JSON export: core slices, parcel flow arrows
//! and counter tracks, in one event array, rendered from the collector's
//! stores at export time.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::critpath::CritPath;
use crate::flow::{stage, FlowRec};
use crate::json::escape_json;
use crate::metrics::Metrics;
use crate::profile::{CoreSlice, CoreTrack};
use crate::timeline::Timeline;

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Render a combined Chrome-trace JSON document.
///
/// * `slices` — core activity, one `tid` per [`CoreTrack`], as kept by
///   [`crate::CoreProfile::record_base`].
/// * timeline — the windowed series ([`Timeline::counter_tracks`]) after
///   the recorded counter tracks.
/// * flows — every delivered parcel contributes a send slice on its source
///   core track, a deliver slice on its destination core track, and a
///   flow-event pair (`ph:"s"` / `ph:"f"`) so Perfetto draws an arrow from
///   the sending core to the delivering core across localities.
/// * counter tracks — sampled series (queue depths, utilization) as
///   `ph:"C"` events.
/// * `cp` — an optional critical-path overlay: the path's segments as
///   slices on a dedicated `critpath` track, a `critpath.total_us`
///   counter carrying the makespan, and parcels whose delivery event lies
///   on the path renamed `parcel (critical)` so on-path flow arrows stand
///   out.
pub fn chrome_trace(
    slices: &[CoreSlice],
    flows: &[FlowRec],
    metrics: &Metrics,
    timeline: Option<&Timeline>,
    cp: Option<&CritPath>,
) -> String {
    let on_path: HashSet<u64> =
        cp.map(|cp| cp.path_nodes.iter().copied().collect()).unwrap_or_default();
    // Every event is written with a trailing comma; the last one is
    // dropped before the closing bracket.
    let mut out = String::from("[");

    if let Some(cp) = cp {
        for seg in &cp.segments {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"cat\":\"critpath\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":\"critpath\"}},",
                escape_json(&seg.component),
                us(seg.start),
                us(seg.len_ns()),
            );
        }
        let _ = write!(
            out,
            "{{\"name\":\"critpath.total_us\",\"ph\":\"C\",\"ts\":0,\"pid\":0,\
             \"args\":{{\"value\":{}}}}},",
            us(cp.total_ns),
        );
    }

    for s in slices {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":\"{}\"}},",
            escape_json(s.label),
            us(s.start),
            us(s.end - s.start),
            CoreTrack(s.loc, s.core)
        );
    }

    for (i, f) in flows.iter().enumerate() {
        let id = i as u64 + 1;
        let (Some(put), Some(deliver)) = (f.at(stage::PUT), f.at(stage::DELIVER)) else {
            continue;
        };
        let name = if f.deliver_node != 0 && on_path.contains(&f.deliver_node) {
            "parcel (critical)"
        } else {
            "parcel"
        };
        // End of the send-side slice: injection if recorded, else a sliver.
        let send_end = f.at(stage::INJECT).unwrap_or(put + 1).max(put + 1);
        let recv_end = f.at(stage::SPAWN).unwrap_or(deliver + 1).max(deliver + 1);
        let src_tid = CoreTrack(f.src, f.src_core);
        let dst_tid = CoreTrack(f.dst, f.dst_core);
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"cat\":\"parcel\",\"ts\":{},\"dur\":{},\
             \"pid\":0,\"tid\":\"{src_tid}\",\"args\":{{\"flow\":{id}}}}},",
            us(put),
            us(send_end - put),
        );
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"ph\":\"s\",\"cat\":\"parcel\",\"id\":{id},\"ts\":{},\
             \"pid\":0,\"tid\":\"{src_tid}\"}},",
            us(put),
        );
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"cat\":\"parcel\",\"ts\":{},\"dur\":{},\
             \"pid\":0,\"tid\":\"{dst_tid}\",\"args\":{{\"flow\":{id}}}}},",
            us(deliver),
            us(recv_end - deliver),
        );
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"parcel\",\"id\":{id},\
             \"ts\":{},\"pid\":0,\"tid\":\"{dst_tid}\"}},",
            us(deliver),
        );
    }

    for (name, series) in metrics.tracks() {
        counter_track(&mut out, &name, series);
    }
    for (name, series) in timeline.map(Timeline::counter_tracks).unwrap_or_default() {
        counter_track(&mut out, &name, &series);
    }

    if out.ends_with(',') {
        out.pop();
    }
    out.push(']');
    out
}

/// Append one counter track as `ph:"C"` events. Samples arrive in
/// event-execution order, but some are stamped with future instants
/// (delivery times, wire-free times), so the track is re-sorted to keep
/// its timeline monotone.
fn counter_track(out: &mut String, name: &str, series: &[(u64, f64)]) {
    let mut series = series.to_vec();
    series.sort_by_key(|s| s.0);
    for (t, v) in series {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{\"value\":{v}}}}},",
            escape_json(name),
            us(t),
        );
    }
}

#[cfg(test)]
mod tests {
    use simcore::SimTime;

    use super::*;
    use crate::flow::FlowTracer;
    use crate::metrics::TrackKey;
    use crate::timeline::TimelineConfig;

    #[test]
    fn full_export_parses_and_contains_flow_pair() {
        let slices = [
            CoreSlice { loc: 0, core: 0, label: "task", start: 3_000, end: 5_000 },
            // A zero-length slice renders as zero duration.
            CoreSlice { loc: 0, core: 1, label: "progress", start: 42, end: 42 },
        ];
        let mut f = FlowTracer::new();
        let id = f.begin(0, 1, 0, SimTime::from_nanos(100));
        f.mark(id, stage::INJECT, SimTime::from_nanos(400));
        f.mark(id, stage::DELIVER, SimTime::from_nanos(3_000));
        f.mark(id, stage::SPAWN, SimTime::from_nanos(3_200));
        f.set_dst_core(&[id], 2);
        let mut m = Metrics::new();
        m.track_sample(TrackKey::name("queue_depth"), 1_000, 3.0);
        let json = chrome_trace(&slices, f.flows(), &m, None, None);
        let parsed = crate::json::parse(&json).expect("chrome json parses");
        let events = parsed.as_arr().unwrap();
        let phases: Vec<_> =
            events.iter().map(|e| e.get("ph").unwrap().as_str().unwrap()).collect();
        assert!(phases.contains(&"s") && phases.contains(&"f") && phases.contains(&"C"));
        let finish = events.iter().find(|e| e.get("ph").unwrap().as_str() == Some("f")).unwrap();
        assert_eq!(finish.get("tid").unwrap().as_str(), Some("loc1/core2"));
        // Core slices come first, timestamps in microseconds.
        assert!(json.starts_with(
            "[{\"name\":\"task\",\"ph\":\"X\",\"ts\":3,\"dur\":2,\"pid\":0,\"tid\":\"loc0/core0\"},\
             {\"name\":\"progress\",\"ph\":\"X\",\"ts\":0.042,\"dur\":0,\"pid\":0,\"tid\":\"loc0/core1\"}"
        ), "{json}");
    }

    /// A timeline renders its windowed series after the recorded counter
    /// tracks, one sample per window.
    #[test]
    fn timeline_views_render_at_export() {
        let mut tl = Timeline::new(TimelineConfig { window_ns: 100 });
        tl.hist_at("lat", 500, 150);
        let mut m = Metrics::new();
        m.track_sample(TrackKey::name("zz.recorded"), 0, 1.0);
        let json = chrome_trace(&[], &[], &m, Some(&tl), None);
        let recorded = json.find("\"zz.recorded\"").expect("recorded track");
        let windowed = json.find("\"tl.lat.p99_us\"").expect("windowed track");
        assert!(recorded < windowed, "{json}");
        assert_eq!(json.matches("\"tl.lat.p99_us\"").count(), 2, "{json}");
        crate::json::parse(&json).expect("chrome json parses");
    }

    #[test]
    fn undelivered_flows_are_skipped() {
        let mut f = FlowTracer::new();
        f.begin(0, 1, 0, SimTime::ZERO);
        let json = chrome_trace(&[], f.flows(), &Metrics::new(), None, None);
        assert_eq!(json, "[]");
    }
}
