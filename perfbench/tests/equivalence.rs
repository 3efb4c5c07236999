//! The benchmark's workload drivers simulate exactly what the repository's
//! own entry points simulate, traced or not:
//!
//! * `msgrate::run_point` reproduces `bench::run_msgrate` bit for bit;
//! * `octo::run` reproduces `octotiger_mini::run_octotiger` bit for bit;
//! * `fattree::run` at the shape of `tests/fabric_topology.rs` reproduces
//!   that test's pins, with telemetry off and on.
//!
//! It also checks that `BENCHMARK.json` names the metrics the binary
//! prints, with the same units.

use perfbench::fattree::{self, Outcome, Spec};
use perfbench::trace::Recorder;
use perfbench::workload::Workload;
use perfbench::{metrics, msgrate, octo};

#[test]
fn msgrate_driver_reproduces_run_msgrate() {
    for config in msgrate::CONFIGS {
        for rate in [Some(400e3), None] {
            let mut p = msgrate::base_params(config, 3);
            p.total_msgs = 2_000;
            p.batch = 50;
            p.cores = 8;
            p.inject_rate = rate;
            let want = bench::run_msgrate(&p);
            assert!(want.completed, "{config}@{rate:?}: reference run incomplete");
            for traced in [false, true] {
                let (got, report) = msgrate::run_point(&p, &mut Recorder::new(traced));
                let what = format!("{config}@{rate:?} traced={traced}");
                assert_eq!(
                    got.achieved_injection_rate.to_bits(),
                    want.achieved_injection_rate.to_bits(),
                    "{what}"
                );
                assert_eq!(got.msg_rate.to_bits(), want.msg_rate.to_bits(), "{what}");
                assert_eq!(got.injection_done, want.injection_done, "{what}");
                assert_eq!(got.comm_done, want.comm_done, "{what}");
                assert_eq!(got.completed, want.completed, "{what}");
                assert_eq!(got.events_executed, want.events_executed, "{what}");
                assert!(report.violations.is_empty(), "{what}: {:?}", report.violations);
            }
        }
    }
}

#[test]
fn octotiger_driver_reproduces_run_octotiger() {
    for config in octo::CONFIGS {
        let mut p = octo::params(config, 5);
        p.level = 3;
        p.localities = 4;
        p.cores = 6;
        let want = octotiger_mini::run_octotiger(&p);
        assert!(want.completed && want.mass_ok, "{config}: reference run failed");
        for traced in [false, true] {
            let (got, report) = octo::run(&p, &mut Recorder::new(traced));
            let what = format!("{config} traced={traced}");
            assert_eq!(got.total, want.total, "{what}");
            assert_eq!(got.steps_per_sec.to_bits(), want.steps_per_sec.to_bits(), "{what}");
            assert_eq!(got.completed, want.completed, "{what}");
            assert_eq!(got.mass_ok, want.mass_ok, "{what}");
            assert_eq!(got.leaves, want.leaves, "{what}");
            assert_eq!(got.events_executed, want.events_executed, "{what}");
            assert!(report.violations.is_empty(), "{what}: {:?}", report.violations);
        }
    }
}

/// `tests/fabric_topology.rs`: 64 localities × 2 cores, 3 parcels each to
/// the locality half the machine away, world seed 11.
fn fabric_topology_spec(telemetry: bool) -> Spec {
    Spec {
        localities: 64,
        cores: 2,
        batch: 1,
        seed: 11,
        dests: (0..64).map(|src| vec![(src + 32) % 64; 3]).collect(),
        telemetry,
    }
}

#[test]
fn fattree_driver_reproduces_fabric_topology_pins() {
    for (telemetry, traced) in [(false, false), (false, true), (true, false), (true, true)] {
        let (got, report) =
            fattree::run(&fabric_topology_spec(telemetry), &mut Recorder::new(traced));
        let what = format!("telemetry={telemetry} traced={traced}");
        let Outcome { end_ns, events, delivered, xmit_pkts, xmit_wait_ns, .. } = got;
        assert_eq!(
            (end_ns, events, delivered, xmit_pkts, xmit_wait_ns),
            (20_620, 1_152, 192, 960, 31_104),
            "{what}"
        );
        assert!(report.violations.is_empty(), "{what}: {:?}", report.violations);
        assert_eq!(got.critpath_total_ns.is_some(), telemetry, "{what}");
        assert_eq!(got.record_end_to_end_ns, got.critpath_total_ns, "{what}");
    }
}

#[test]
fn hotspot_destinations_follow_the_seed() {
    let a = fattree::hotspot_dests(7, 64, 400);
    assert_eq!(a, fattree::hotspot_dests(7, 64, 400), "same seed, same inputs");
    assert_ne!(a, fattree::hotspot_dests(8, 64, 400), "another seed, other inputs");
    // Exactly one locality draws about a quarter of everyone else's
    // parcels; every other parcel leaves its 16-host pod.
    let mut into = vec![0usize; 64];
    for d in a.iter().flatten() {
        into[*d] += 1;
    }
    let hot = (0..64).max_by_key(|&l| into[l]).unwrap();
    let share = into[hot] as f64 / (63 * 400) as f64;
    assert!((0.22..0.30).contains(&share), "hot-spot share {share}");
    for (src, dests) in a.iter().enumerate() {
        for &d in dests {
            assert!(d < 64);
            assert!(d == hot || d / 16 != src / 16, "{src} -> {d} stays in its pod");
        }
    }
}

#[test]
fn pins_cover_every_simulation() {
    let keys = |w: Workload| w.pins().lines().filter(|l| l.split_once(' ').is_some()).count();
    // 4 configs × 6 rates × 4 outputs; 2 configs × 3; 1 simulation × 6.
    assert_eq!(keys(Workload::Msgrate8b), 96);
    assert_eq!(keys(Workload::OctotigerL6), 6);
    assert_eq!(keys(Workload::Fattree64Traced), 6);
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = telemetry::json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let e2e: Vec<_> = metrics::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string(), "lower".to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layer: Vec<_> = metrics::PER_LAYER
        .iter()
        .map(|(n, u, b, _)| (n.to_string(), u.to_string(), b.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layer);
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(|v| v.as_arr())
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap_or("").to_string())
        .collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);
}
