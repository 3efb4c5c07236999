//! Golden traces: end-to-end runs pinned to exact virtual timelines.
//!
//! The end times and payload digests below were captured from the
//! pre-rewrite engine (`BinaryHeap` of boxed closures) and must survive
//! any event-engine change bit-for-bit: the typed-event/indexed-heap
//! engine is required to be *observationally identical*, not merely
//! deterministic. If an engine change moves any of these numbers, it
//! changed simulation semantics — that is a bug in the change, not a
//! reason to re-pin (the one sanctioned exception: `events_executed`,
//! which dropped when cancel/reschedule eliminated the old engine's
//! stale no-op events; those counts are pinned to the current engine).

mod common;

use common::send_all;
use hpx_lci_repro::parcelport::WorldConfig;

fn payloads() -> Vec<Vec<u8>> {
    (0..40).map(|i| vec![i as u8; 8 + (i * 37) % 20_000]).collect()
}

fn fnv_u64s(xs: &[u64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &x in xs {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// `(config, end time ns, events executed, delivery-digest)`.
///
/// End times and digests are the seed engine's; executed counts are the
/// current engine's (one stale `mpi` tick event became a reschedule:
/// 358 -> 357; the LCI configs never had stale events in this workload).
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("lci_psr_cq_pin_i", 72_051, 176, 0x7062299104bea1c2),
    ("mpi", 164_593, 357, 0xe1fad10c31e16f9a),
    ("lci_sr_sy_mt_i", 134_234, 286, 0x6059481a96439b4a),
];

#[test]
fn two_node_traces_match_pre_rewrite_engine() {
    for &(name, end_ns, executed, digest) in GOLDEN {
        let mut cfg = WorldConfig::two_nodes(name.parse().unwrap(), 8);
        cfg.seed = 11;
        let d = send_all(cfg, payloads());
        assert_eq!(d.delivered, 40, "{name}: lost deliveries");
        assert_eq!(
            d.world.sim.now().as_nanos(),
            end_ns,
            "{name}: virtual end time moved — engine changed simulation semantics"
        );
        assert_eq!(
            fnv_u64s(&d.checksums),
            digest,
            "{name}: delivery order/content moved — engine changed simulation semantics"
        );
        assert_eq!(
            d.world.sim.events_executed(),
            executed,
            "{name}: event count moved (legitimate only if stale-event elimination changed)"
        );
    }
}

/// Telemetry must be *pure observation*: with a collector enabled, every
/// pinned timeline above has to come out bit-for-bit identical — same end
/// time, same delivery digest, same event count — while the collector
/// records a complete flow per parcel. (With telemetry disabled, the
/// hooks compile down to a thread-local `None` check, covered by
/// `two_node_traces_match_pre_rewrite_engine` running first-class against
/// the same pins.)
#[test]
fn telemetry_enabled_is_pure_observation() {
    for &(name, end_ns, executed, digest) in GOLDEN {
        let tel = hpx_lci_repro::telemetry::enable();
        let mut cfg = WorldConfig::two_nodes(name.parse().unwrap(), 8);
        cfg.seed = 11;
        let d = send_all(cfg, payloads());
        hpx_lci_repro::telemetry::disable();
        assert_eq!(d.delivered, 40, "{name}: lost deliveries under telemetry");
        assert_eq!(
            d.world.sim.now().as_nanos(),
            end_ns,
            "{name}: enabling telemetry moved the virtual end time"
        );
        assert_eq!(
            fnv_u64s(&d.checksums),
            digest,
            "{name}: enabling telemetry changed delivery order/content"
        );
        assert_eq!(
            d.world.sim.events_executed(),
            executed,
            "{name}: enabling telemetry changed the event count"
        );
        // And the observation itself must be complete: one flow per
        // parcel, every one delivered, with the end-to-end stage chain.
        assert_eq!(tel.flow_count(), 40, "{name}: expected one flow per parcel");
        let b = tel.breakdown(name);
        assert_eq!(b.delivered, 40, "{name}: flows lost before delivery");
        assert!(b.total.summary.count > 0, "{name}: no end-to-end latencies recorded");
        // Causal-edge recording rode along on the exact pinned timeline
        // above, so provenance capture is itself pure observation. The
        // log must be complete: one node per executed event, and the
        // critical path it yields must partition [0, end] exactly.
        assert_eq!(
            tel.with_causal(|log| log.node_count()) as u64,
            executed,
            "{name}: causal log must record every executed event"
        );
        let cp = tel.critpath(name).expect("non-empty run has a critical path");
        assert!(!cp.truncated, "{name}: causal log truncated");
        assert!(cp.total_ns <= end_ns, "{name}: critical path ends after the pinned end time");
        let seg_sum: u64 = cp.segments.iter().map(|s| s.len_ns()).sum();
        assert_eq!(seg_sum, cp.total_ns, "{name}: on-path durations must sum to the makespan");
        // Every delivered parcel got a causally-attributed delivery node.
        let paths = tel.parcel_paths();
        assert_eq!(paths.len(), 40, "{name}: expected one causal path per parcel");
        for pp in &paths {
            let sum: u64 = pp.segments.iter().map(|s| s.len_ns()).sum();
            assert_eq!(sum, pp.total_ns, "{name}: parcel {} path identity", pp.flow);
        }
    }
}

/// The windowed timeline rides on the same hooks as plain telemetry, so
/// enabling it must also be pure observation:
/// every pinned timeline comes out bit-for-bit identical, while the
/// window partition reproduces the run-total histograms exactly.
#[test]
fn timeline_enabled_reproduces_golden_pins() {
    use hpx_lci_repro::telemetry::TimelineConfig;
    for &(name, end_ns, executed, digest) in GOLDEN {
        let tel = hpx_lci_repro::telemetry::enable_with(TimelineConfig::default());
        let mut cfg = WorldConfig::two_nodes(name.parse().unwrap(), 8);
        cfg.seed = 11;
        let d = send_all(cfg, payloads());
        hpx_lci_repro::telemetry::disable();
        assert_eq!(d.delivered, 40, "{name}: lost deliveries under timeline");
        assert_eq!(
            d.world.sim.now().as_nanos(),
            end_ns,
            "{name}: enabling the timeline moved the virtual end time"
        );
        assert_eq!(
            fnv_u64s(&d.checksums),
            digest,
            "{name}: enabling the timeline changed delivery order/content"
        );
        assert_eq!(
            d.world.sim.events_executed(),
            executed,
            "{name}: enabling the timeline changed the event count"
        );
        // The windowed series must partition the run exactly: merging
        // every window of the parcel-latency histogram reproduces the
        // run-total histogram, one sample per delivered parcel.
        let merged = tel
            .with_timeline(|tl| tl.merged_hist("parcel.latency_ns").expect("deliveries recorded"))
            .expect("timeline enabled");
        let total =
            tel.with_metrics(|m| m.hist("parcel.latency_ns").cloned()).expect("run total recorded");
        assert_eq!(merged, total, "{name}: windows do not merge to the run total");
        assert_eq!(merged.count(), 40, "{name}: expected one latency sample per parcel");
    }
}

/// A deterministic fault scenario must produce a deterministic latency
/// breach: same seed, same faults, same windowed latency series — pinned
/// like the timelines above. If these move, windowed observation (or
/// fault injection) changed behavior.
#[test]
fn fault_scenario_pins_breach_window() {
    use hpx_lci_repro::netsim::FaultConfig;
    use hpx_lci_repro::telemetry::TimelineConfig;
    // 10 µs windows over a ~80 µs run: the fault-inflated latency tail is
    // visible per window while the run-mean stays low.
    const OBJECTIVE_NS: u64 = 25_000;
    let tel = hpx_lci_repro::telemetry::enable_with(TimelineConfig { window_ns: 10_000 });
    let mut cfg = WorldConfig::two_nodes("lci_psr_cq_pin_i".parse().unwrap(), 8);
    cfg.seed = 11;
    cfg.faults = Some(FaultConfig { drop_prob: 0.2, ..FaultConfig::default() });
    let d = send_all(cfg, payloads());
    hpx_lci_repro::telemetry::disable();
    assert_eq!(d.delivered, 40, "drops must not lose parcels");
    assert!(d.world.sim.stats.get("net.retransmitted") > 0, "20% loss must retransmit");

    // The first window holding a parcel latency over the objective, with
    // its (over-objective, total) sample counts, and the covered horizon.
    let (breach, horizon) = tel
        .with_timeline(|tl| {
            let breach = tl.hist_windows("parcel.latency_ns").and_then(|ws| {
                ws.iter().find_map(|(&w, h)| {
                    let over = h.count() - h.count_at_most(OBJECTIVE_NS);
                    (over > 0).then_some((w, over, h.count()))
                })
            });
            (breach, (tl.cursor_ns(), tl.num_windows()))
        })
        .expect("timeline enabled");
    eprintln!(
        "fault pins: end {} breach {breach:?} horizon {horizon:?}",
        d.world.sim.now().as_nanos()
    );
    // Pinned values, captured from this scenario's deterministic run:
    // retransmitted parcels arrive late enough that every sample of the
    // breach window is over the objective.
    let (window, over, total) = breach.expect("late retransmitted parcels must breach 25 us");
    assert_eq!(window, 6, "breach window moved");
    assert_eq!((over, total), (7, 7), "breach population moved");
    assert_eq!(horizon, (81_115, 9), "timeline horizon moved");
}

fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Run-record capture must be *pure observation* on top of the already
/// pure telemetry hooks: capturing a record from a finished run cannot
/// perturb anything another exporter reads from the same collector
/// (byte-identical Chrome traces before/after capture), the pinned
/// golden timeline itself stays bit-for-bit unchanged, and the record
/// document is deterministic down to its serialized bytes — pinned by
/// digest so any schema or capture change is a conscious re-pin.
#[test]
fn run_record_capture_is_pure_and_pinned() {
    use hpx_lci_repro::telemetry::record::{RunMeta, RunRecord};

    // The fig1 message-rate scenario with every workload parameter fixed
    // explicitly (never via BENCH_SCALE — the pin must not depend on the
    // environment).
    let meta = || RunMeta {
        scenario: "fig1_msgrate_8b".into(),
        config: "lci_psr_cq_pin_i".into(),
        params: vec![("total_msgs".into(), "1000".into())],
        knobs: vec![],
    };
    let run = || {
        let tel = hpx_lci_repro::telemetry::enable();
        let mut p = bench::MsgRateParams::small("lci_psr_cq_pin_i".parse().unwrap());
        p.total_msgs = 1_000;
        let r = bench::run_msgrate(&p);
        hpx_lci_repro::telemetry::disable();
        (r, tel)
    };

    let (r1, tel1) = run();
    assert!(r1.msg_rate > 0.0);
    let trace_before = tel1.chrome_trace_collected();
    let rec1 = RunRecord::capture(&tel1, meta());
    let trace_after = tel1.chrome_trace_collected();
    assert_eq!(
        trace_before, trace_after,
        "capturing a run record changed the Chrome trace of the same collector"
    );

    // Same binary, same inputs: the record reproduces byte-for-byte.
    let (_, tel2) = run();
    let rec2 = RunRecord::capture(&tel2, meta());
    let json = rec1.to_json();
    assert_eq!(json, rec2.to_json(), "identical runs must yield byte-identical records");

    // The partition identity every diff inherits.
    let cp = rec1.critpath.as_ref().expect("instrumented run has a critical path");
    let comp_sum: u64 = cp.components.iter().map(|&(_, ns)| ns).sum();
    assert_eq!(comp_sum, cp.total_ns, "component table must partition the makespan");
    assert_eq!(rec1.end_to_end_ns, cp.total_ns);

    // Pinned record digest for the fig1 scenario. If this moves, either
    // the simulation or the record schema changed — both are conscious
    // decisions, and baselines under results/baselines/ must be
    // re-recorded in the same commit.
    assert_eq!(
        fnv_bytes(json.as_bytes()),
        0x44ea4b564d1d1442,
        "fig1 run-record bytes moved — re-pin and re-record results/baselines/"
    );
}

/// Capture stays pure with a timeline attached: the windowed counter
/// tracks are rendered at export, so neither a
/// `RunRecord::capture` nor a timeline document changes what the next
/// export of the same collector shows.
#[test]
fn capture_with_timeline_leaves_exports_unchanged() {
    use hpx_lci_repro::telemetry::record::{RunMeta, RunRecord};
    use hpx_lci_repro::telemetry::TimelineConfig;

    let tel = hpx_lci_repro::telemetry::enable_with(TimelineConfig::default());
    let mut p = bench::MsgRateParams::small("lci_psr_cq_pin_i".parse().unwrap());
    p.total_msgs = 1_000;
    let r = bench::run_msgrate(&p);
    hpx_lci_repro::telemetry::disable();
    assert!(r.msg_rate > 0.0);

    let trace_before = tel.chrome_trace_collected();
    let meta = RunMeta {
        scenario: "fig1_msgrate_8b".into(),
        config: "lci_psr_cq_pin_i".into(),
        params: vec![("total_msgs".into(), "1000".into())],
        knobs: vec![],
    };
    RunRecord::capture(&tel, meta);
    assert!(
        trace_before == tel.chrome_trace_collected(),
        "capturing a run record changed the Chrome trace of the same collector"
    );
    assert!(
        trace_before.contains("\"name\":\"tl.parcel.latency_ns.p99_us\""),
        "windowed latency track missing"
    );
    let doc = tel.timeline_json("lci_psr_cq_pin_i").expect("timeline attached");
    assert!(
        doc == tel.timeline_json("lci_psr_cq_pin_i").expect("timeline attached"),
        "rendering the timeline document changed it"
    );
    assert!(trace_before == tel.chrome_trace_collected(), "a timeline export changed the trace");
}

#[test]
fn octotiger_trace_matches_pre_rewrite_engine() {
    use hpx_lci_repro::octotiger_mini::{run_octotiger, OctoParams};
    let mut p = OctoParams::expanse("lci_psr_cq_pin_i".parse().unwrap(), 4);
    p.level = 3;
    p.steps = 2;
    p.cores = 6;
    let r = run_octotiger(&p);
    assert!(r.completed);
    assert_eq!(
        r.total.as_nanos(),
        2_374_261,
        "octotiger virtual runtime moved — engine changed simulation semantics"
    );
}
