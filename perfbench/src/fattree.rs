//! `fattree64_traced`: 64 localities on a k=8 fat-tree sending 8 B
//! parcels — a seeded quarter to one hot-spot locality, the rest across
//! pods — with telemetry and its windowed timeline on, and a `RunRecord`
//! with critical path captured at the end (the `--record`/`--timeline`
//! path of the figure binaries).

use std::cell::RefCell;
use std::rc::Rc;

use amt::action::ActionRegistry;
use bytes::Bytes;
use netsim::topo::FatTreeParams;
use parcelport::{build_world, World, WorldConfig};
use telemetry::timeline::TimelineConfig;
use telemetry::{RunMeta, RunRecord};

use crate::trace::{timed_send, Laps, Recorder, SimReport};

/// The parcelport every locality runs.
pub const CONFIG: &str = "lci_psr_cq_pin_i";
/// Localities in the workload.
pub const LOCALITIES: usize = 64;
/// Parcels each locality sends.
pub const MSGS_PER_LOC: usize = 1_000;
/// Parcels one injector task sends.
pub const BATCH: usize = 100;

/// One fat-tree simulation.
#[derive(Debug, Clone)]
pub struct Spec {
    pub localities: usize,
    pub cores: usize,
    /// Parcels one injector task sends; each locality spawns
    /// `dests[src].len() / batch` tasks at time zero.
    pub batch: usize,
    /// World RNG seed.
    pub seed: u64,
    /// Destination of each parcel, per source locality.
    pub dests: Vec<Vec<usize>>,
    /// Enable telemetry with a timeline and capture a run record.
    pub telemetry: bool,
}

/// Simulated outputs of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub end_ns: u64,
    pub events: u64,
    pub delivered: usize,
    pub xmit_pkts: u64,
    pub xmit_wait_ns: u64,
    /// `RunRecord::end_to_end_ns` (telemetry runs only).
    pub record_end_to_end_ns: Option<u64>,
    /// Critical-path makespan (telemetry runs only).
    pub critpath_total_ns: Option<u64>,
}

/// SplitMix64: the workload's own seeded generator.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seeded destinations: one hot-spot locality receives a quarter of all
/// other localities' parcels; every other parcel goes to a uniformly
/// chosen locality in another pod.
pub fn hotspot_dests(seed: u64, localities: usize, msgs_per_loc: usize) -> Vec<Vec<usize>> {
    let k = FatTreeParams::for_hosts(localities).k;
    let per_pod = (k / 2) * (k / 2);
    let pods = localities.div_ceil(per_pod);
    assert!(pods >= 2, "cross-pod traffic needs at least two pods");
    let mut rng = SplitMix::new(seed);
    let hot = rng.below(localities);
    (0..localities)
        .map(|src| {
            (0..msgs_per_loc)
                .map(|_| {
                    if src != hot && rng.below(4) == 0 {
                        return hot;
                    }
                    loop {
                        let pod = (src / per_pod + 1 + rng.below(pods - 1)) % pods;
                        let dst = pod * per_pod + rng.below(per_pod);
                        if dst < localities {
                            return dst;
                        }
                    }
                })
                .collect()
        })
        .collect()
}

/// The workload's simulation for `seed`.
pub fn workload_spec(seed: u64, telemetry: bool) -> Spec {
    Spec {
        localities: LOCALITIES,
        cores: 4,
        batch: BATCH,
        seed,
        dests: hotspot_dests(seed, LOCALITIES, MSGS_PER_LOC),
        telemetry,
    }
}

/// One full pass: the telemetry-on simulation.
pub fn pass(seed: u64, rec: &mut Recorder) -> Vec<SimReport> {
    vec![run(&workload_spec(seed, true), rec).1]
}

fn port_totals(world: &World) -> (u64, u64) {
    let fab = world.fabric.borrow();
    let rows = fab.topology().map(|t| t.ranked_ports()).unwrap_or_default();
    (rows.iter().map(|r| r.1.xmit_pkts).sum(), rows.iter().map(|r| r.1.xmit_wait_ns).sum())
}

/// Run one fat-tree simulation.
pub fn run(spec: &Spec, rec: &mut Recorder) -> (Outcome, SimReport) {
    let label =
        format!("{CONFIG}/{}loc{}", spec.localities, if spec.telemetry { "+tel" } else { "" });
    let mut laps = Laps::start();
    let tel = spec.telemetry.then(|| telemetry::enable_with(TimelineConfig::default()));

    // Every parcel carries its global index, so the sink can tell a lost
    // parcel from a duplicated one.
    let offsets: Vec<usize> = spec
        .dests
        .iter()
        .scan(0, |acc, d| {
            let at = *acc;
            *acc += d.len();
            Some(at)
        })
        .collect();
    let total: usize = spec.dests.iter().map(Vec::len).sum();
    let seen = Rc::new(RefCell::new(vec![0u32; total]));
    let got = Rc::new(std::cell::Cell::new(0usize));
    let mut registry = ActionRegistry::new();
    {
        let (seen, got) = (seen.clone(), got.clone());
        registry.register("sink", move |sim, _l, _c, p| {
            let id = u64::from_le_bytes(p.args[0][..8].try_into().expect("8-byte parcel"));
            seen.borrow_mut()[id as usize] += 1;
            got.set(got.get() + 1);
            sim.now() + 150
        });
    }
    let sink = registry.id_of("sink").expect("registered");
    let mut cfg =
        WorldConfig::cluster(CONFIG.parse().expect("config name"), spec.localities, spec.cores);
    cfg.seed = spec.seed;
    let mut world = rec.time("parcelport.build_world", || build_world(&cfg, registry));

    for (src, dests) in spec.dests.iter().enumerate() {
        for (t, chunk) in dests.chunks(spec.batch).enumerate() {
            let first = offsets[src] + t * spec.batch;
            let parcels: Vec<(usize, Bytes)> = chunk
                .iter()
                .enumerate()
                .map(|(i, &dst)| (dst, Bytes::copy_from_slice(&((first + i) as u64).to_le_bytes())))
                .collect();
            let send_ns = rec.send_ns.clone();
            let loc = world.locality(src).clone();
            loc.spawn(
                &mut world.sim,
                0,
                Box::new(move |sim, loc, core| {
                    let mut t = sim.now();
                    for (dst, payload) in parcels {
                        t = timed_send(&send_ns, || {
                            loc.send_action(sim, core, dst, sink, vec![payload])
                        });
                    }
                    t
                }),
            );
        }
    }
    laps.setup_done();

    let g = got.clone();
    let completed = rec.run_while(&mut world, 60_000_000_000, move |_| g.get() < total);
    laps.run_done();

    let (xmit_pkts, xmit_wait_ns) = port_totals(&world);
    let mut outcome = Outcome {
        end_ns: world.sim.now().as_nanos(),
        events: world.sim.events_executed(),
        delivered: got.get(),
        xmit_pkts,
        xmit_wait_ns,
        record_end_to_end_ns: None,
        critpath_total_ns: None,
    };
    rec.absorb_stats(&world.sim);
    rec.count("ports.xmit_pkts", xmit_pkts);
    rec.count("ports.xmit_wait_ns", xmit_wait_ns);
    // Dropping the world harvests the per-core span tracers into the
    // telemetry collector.
    rec.time("parcelport.drop_world", || drop(world));
    laps.teardown_done();

    let mut violations = Vec::new();
    if let Some(tel) = tel {
        telemetry::disable();
        let cp = rec.time("telemetry.critpath", || tel.critpath(CONFIG));
        let record = rec.time("telemetry.capture", || {
            RunRecord::capture(
                &tel,
                RunMeta {
                    scenario: "perfbench_fattree".into(),
                    config: CONFIG.into(),
                    params: vec![
                        ("localities".into(), spec.localities.to_string()),
                        ("seed".into(), spec.seed.to_string()),
                    ],
                    ..RunMeta::default()
                },
            )
        });
        let bytes = rec.time("telemetry.json", || {
            record.to_json().len() + tel.timeline_json(CONFIG).map_or(0, |s| s.len())
        });
        rec.count("telemetry.flows", tel.flow_count() as u64);
        rec.count("telemetry.record_bytes", bytes as u64);
        match (&cp, &record.critpath) {
            (Some(cp), Some(summary)) => {
                violations.extend(critpath_violations(&label, cp));
                if summary.total_ns != record.end_to_end_ns {
                    violations
                        .push(format!("{label}: record end-to-end differs from its critical path"));
                }
            }
            _ => violations.push(format!("{label}: no critical path captured")),
        }
        outcome.record_end_to_end_ns = Some(record.end_to_end_ns);
        outcome.critpath_total_ns = cp.as_ref().map(|cp| cp.total_ns);
        drop(record);
        drop(tel);
    }
    laps.post_done();

    if !completed {
        violations.push(format!("{label}: hit the safety deadline"));
    }
    let seen = seen.borrow();
    let lost = seen.iter().filter(|&&n| n == 0).count();
    let duplicated = seen.iter().filter(|&&n| n > 1).count();
    if lost + duplicated > 0 {
        violations.push(format!("{label}: {lost} parcels lost, {duplicated} duplicated"));
    }
    let mut outputs = vec![
        (format!("{label}/end_ns"), outcome.end_ns.to_string()),
        (format!("{label}/delivered"), outcome.delivered.to_string()),
        (format!("{label}/xmit_pkts"), outcome.xmit_pkts.to_string()),
        (format!("{label}/xmit_wait_ns"), outcome.xmit_wait_ns.to_string()),
    ];
    if let (Some(e2e), Some(cp)) = (outcome.record_end_to_end_ns, outcome.critpath_total_ns) {
        outputs.push((format!("{label}/record_end_to_end_ns"), e2e.to_string()));
        outputs.push((format!("{label}/critpath_total_ns"), cp.to_string()));
    }
    let report = SimReport {
        label,
        lci: true,
        phases: laps.phases,
        events: outcome.events,
        outputs,
        violations,
    };
    (outcome, report)
}

/// The critical-path partition identity: segments tile `[0, total]`
/// without gaps and the component shares sum to the total.
fn critpath_violations(label: &str, cp: &telemetry::critpath::CritPath) -> Vec<String> {
    let mut out = Vec::new();
    let mut at = 0;
    for s in &cp.segments {
        if s.start != at || s.end < s.start {
            out.push(format!("{label}: critical-path segment gap at {at} ns"));
            break;
        }
        at = s.end;
    }
    if at != cp.total_ns {
        out.push(format!("{label}: critical-path segments end at {at}, total {}", cp.total_ns));
    }
    let shares: u64 = cp.components.iter().map(|c| c.on_path_ns).sum();
    if shares != cp.total_ns {
        out.push(format!("{label}: component shares sum to {shares}, total {}", cp.total_ns));
    }
    out
}
