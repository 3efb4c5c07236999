//! `msgrate_8b`: the Fig. 1 message-rate sweep, driven point by point
//! through the layers' public functions. [`run_point`] reproduces
//! [`bench::run_msgrate`] bit for bit; it only adds phase laps and, in a
//! traced run, step and send timing.

use std::cell::Cell;
use std::rc::Rc;

use amt::action::ActionRegistry;
use bench::{MsgRateParams, MsgRateResult};
use bytes::Bytes;
use parcelport::{build_world, Backend, PpConfig, WorldConfig};
use simcore::SimTime;

use crate::trace::{timed_send, Laps, Recorder, SimReport};

/// The Fig. 1 configurations.
pub const CONFIGS: [&str; 4] = ["lci_psr_cq_pin", "lci_psr_cq_pin_i", "mpi", "mpi_i"];

/// Messages per sweep point. `mpi_i` matching scans an unexpected queue
/// that grows with the point's size, so its host time grows faster than
/// linearly in this number.
pub const MSGS_PER_POINT: usize = 20_000;

/// The workload's base parameters for one configuration: 2 localities ×
/// 32 cores, 8 B messages, batch 100.
pub fn base_params(config: &str, seed: u64) -> MsgRateParams {
    let mut p = MsgRateParams::small(config.parse().expect("Fig. 1 config name"));
    p.total_msgs = MSGS_PER_POINT;
    p.seed = seed;
    p
}

/// One full pass: every configuration over `injection_grid_8b()`, each
/// sweep through `bench::sweep_injection_with`.
pub fn pass(seed: u64, rec: &mut Recorder) -> Vec<SimReport> {
    let mut reports = Vec::new();
    for config in CONFIGS {
        bench::sweep_injection_with(&base_params(config, seed), &bench::injection_grid_8b(), |p| {
            let (r, report) = run_point(p, rec);
            reports.push(report);
            r
        });
    }
    reports
}

fn is_lci(config: PpConfig) -> bool {
    config.backend == Backend::Lci
}

/// Run one sweep point.
pub fn run_point(p: &MsgRateParams, rec: &mut Recorder) -> (MsgRateResult, SimReport) {
    let mut laps = Laps::start();
    let mut registry = ActionRegistry::new();
    let received = Rc::new(Cell::new(0usize));
    let recv_done_at = Rc::new(Cell::new(SimTime::ZERO));
    let expect = p.total_msgs;
    let dispatch = 150u64; // per-message receiver work, ns
    {
        let received = received.clone();
        let recv_done_at = recv_done_at.clone();
        registry.register("sink", move |sim, loc, core, _parcel| {
            let n = received.get() + 1;
            received.set(n);
            let t = sim.now() + dispatch;
            if n == expect {
                recv_done_at.set(t);
                let done = loc.with_registry(|r| r.id_of("done").expect("registered"));
                loc.send_action(sim, core, 0, done, vec![Bytes::from_static(b"!")]);
            }
            t
        });
    }
    registry.register("done", move |sim, _loc, _core, _p| sim.now());
    let sink = registry.id_of("sink").expect("registered");

    let mut wcfg = WorldConfig::two_nodes(p.config, p.cores);
    wcfg.wire = p.wire.clone();
    wcfg.seed = p.seed;
    wcfg.lci_devices = p.devices;
    wcfg.cost = p.cost.clone();
    let mut world = rec.time("parcelport.build_world", || build_world(&wcfg, registry));

    // Injector: one task per batch, created at the attempted rate.
    let tasks = p.total_msgs / p.batch;
    let interval_ns = p.inject_rate.map(|r| (p.batch as f64 / r * 1e9) as u64);
    let injected_done_at = Rc::new(Cell::new(SimTime::ZERO));
    let loc0 = world.locality(0).clone();
    let payload = Bytes::from(vec![0u8; p.msg_size]);
    for i in 0..tasks {
        let at = interval_ns.map_or(SimTime::ZERO, |iv| SimTime::from_nanos(iv * i as u64));
        let loc = loc0.clone();
        let injected_done_at = injected_done_at.clone();
        let batch = p.batch;
        let payload = payload.clone();
        let send_ns = rec.send_ns.clone();
        world.sim.schedule_at(at, move |sim| {
            let injected_done_at = injected_done_at.clone();
            let payload = payload.clone();
            let send_ns = send_ns.clone();
            loc.clone().spawn(
                sim,
                0,
                Box::new(move |sim, loc, core| {
                    let mut t = sim.now();
                    for _ in 0..batch {
                        t = timed_send(&send_ns, || {
                            loc.send_action(sim, core, 1, sink, vec![payload.clone()])
                        });
                    }
                    if injected_done_at.get() < t {
                        injected_done_at.set(t);
                    }
                    t
                }),
            );
        });
    }
    laps.setup_done();

    // Safety deadline: generous multiple of the ideal time.
    let ideal_ns = interval_ns.map_or(0, |iv| iv * tasks as u64);
    let deadline = 60_000_000_000u64.max(ideal_ns * 4);
    let recv = received.clone();
    let done = rec.run_while(&mut world, deadline, move |_s| recv.get() < expect);
    laps.run_done();

    let inj_t = injected_done_at.get();
    let comm_t = recv_done_at.get().max(inj_t);
    let inj_rate =
        if inj_t > SimTime::ZERO { p.total_msgs as f64 / inj_t.as_secs_f64() } else { 0.0 };
    let msg_rate = if done && comm_t > SimTime::ZERO {
        p.total_msgs as f64 / comm_t.as_secs_f64()
    } else if comm_t > SimTime::ZERO {
        received.get() as f64 / world.sim.now().as_secs_f64()
    } else {
        0.0
    };
    let result = MsgRateResult {
        achieved_injection_rate: inj_rate,
        msg_rate,
        injection_done: inj_t,
        comm_done: comm_t,
        completed: done,
        events_executed: world.sim.events_executed(),
    };
    rec.absorb_stats(&world.sim);
    rec.time("parcelport.drop_world", || drop(world));
    laps.teardown_done();
    laps.post_done();

    let label = format!("{}@{}", p.config, bench::fmt_rate(p.inject_rate));
    let mut violations = Vec::new();
    if !done {
        violations.push(format!("{label}: hit the safety deadline"));
    }
    if received.get() != expect {
        violations.push(format!("{label}: received {} of {expect} messages", received.get()));
    }
    let outputs = vec![
        (format!("{label}/injection_rate"), inj_rate.to_string()),
        (format!("{label}/msg_rate"), msg_rate.to_string()),
        (format!("{label}/injection_done_ns"), inj_t.as_nanos().to_string()),
        (format!("{label}/comm_done_ns"), comm_t.as_nanos().to_string()),
    ];
    let report = SimReport {
        label,
        lci: is_lci(p.config),
        phases: laps.phases,
        events: result.events_executed,
        outputs,
        violations,
    };
    (result, report)
}
