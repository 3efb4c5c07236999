//! `octotiger_l6`: Octo-Tiger-mini at the paper's Expanse level over 16
//! localities. [`run`] reproduces [`octotiger_mini::run_octotiger`] bit
//! for bit, timing tree, partition and state construction apart.

use std::cell::RefCell;
use std::rc::Rc;

use amt::action::ActionRegistry;
use bytes::Bytes;
use octotiger_mini::fmm::{register_actions, AppState};
use octotiger_mini::{partition, OctoParams, OctoResult, Octree};
use parcelport::{build_world, Backend, WorldConfig};
use simcore::SimTime;

use crate::trace::{timed_send, Laps, Recorder, SimReport};

/// The two parcelports Fig. 10 compares.
pub const CONFIGS: [&str; 2] = ["lci_psr_cq_pin_i", "mpi_i"];

/// The workload's parameters for one configuration: level 6, 16
/// localities, 2 steps.
pub fn params(config: &str, seed: u64) -> OctoParams {
    let mut p = OctoParams::expanse(config.parse().expect("Fig. 10 config name"), 16);
    p.level = 6;
    p.steps = 2;
    p.seed = seed;
    p
}

/// One full pass: both configurations.
pub fn pass(seed: u64, rec: &mut Recorder) -> Vec<SimReport> {
    CONFIGS.iter().map(|c| run(&params(c, seed), rec).1).collect()
}

/// Run Octo-Tiger-mini once.
pub fn run(p: &OctoParams, rec: &mut Recorder) -> (OctoResult, SimReport) {
    let mut laps = Laps::start();
    let tree = Rc::new(rec.time("octotiger.tree", || Octree::build(p.level)));
    let part = Rc::new(rec.time("octotiger.partition", || partition(&tree, p.localities)));
    let states = rec.time("octotiger.state", || {
        AppState::build_all(tree.clone(), part, p.localities, p.steps, p.compute.clone())
    });

    let mut registry = ActionRegistry::new();
    let actions_out = Rc::new(RefCell::new(None));
    let actions = register_actions(&mut registry, states.clone(), actions_out);

    let mut wcfg = WorldConfig::two_nodes(p.config, p.cores);
    wcfg.localities = p.localities;
    wcfg.wire = p.wire.clone();
    wcfg.seed = p.seed;
    wcfg.cost = p.cost.clone();
    let mut world = rec.time("parcelport.build_world", || build_world(&wcfg, registry));

    // Kick step 0 on every locality from locality 0.
    for dest in 0..p.localities {
        let loc0 = world.locality(0).clone();
        let start = actions.step_start;
        if dest == 0 {
            loc0.spawn(
                &mut world.sim,
                0,
                Box::new(move |sim, loc, core| {
                    let handler = loc.with_registry(|r| r.handler(start));
                    handler(sim, loc, core, amt::Parcel::empty(start))
                }),
            );
        } else {
            let send_ns = rec.send_ns.clone();
            loc0.spawn(
                &mut world.sim,
                0,
                Box::new(move |sim, loc, core| {
                    timed_send(&send_ns, || {
                        loc.send_action(sim, core, dest, start, vec![Bytes::new()])
                    })
                }),
            );
        }
    }
    laps.setup_done();

    let st0 = states[0].clone();
    let target = p.steps;
    let completed =
        rec.run_while(&mut world, 600_000_000_000, move |_| st0.borrow().steps_completed < target);
    laps.run_done();

    let total = states[0].borrow().finished_at;
    let total = if total == SimTime::ZERO { world.sim.now() } else { total };
    let steps_per_sec = if completed { p.steps as f64 / total.as_secs_f64() } else { 0.0 };
    let mass_ok = states.iter().all(|s| s.borrow().mass_ok);
    let result = OctoResult {
        steps_per_sec,
        total,
        completed,
        mass_ok,
        leaves: tree.leaves().len(),
        events_executed: world.sim.events_executed(),
    };
    rec.absorb_stats(&world.sim);
    rec.count("octotiger.leaves", result.leaves as u64);
    rec.time("parcelport.drop_world", || drop(world));
    drop(states);
    drop(tree);
    laps.teardown_done();
    laps.post_done();

    let label = p.config.to_string();
    let mut violations = Vec::new();
    if !completed {
        violations.push(format!("{label}: hit the safety deadline"));
    }
    if !mass_ok {
        violations.push(format!("{label}: root multipole mass invariant broken"));
    }
    let outputs = vec![
        (format!("{label}/total_ns"), total.as_nanos().to_string()),
        (format!("{label}/mass_ok"), mass_ok.to_string()),
        (format!("{label}/leaves"), result.leaves.to_string()),
    ];
    let report = SimReport {
        label,
        lci: p.config.backend == Backend::Lci,
        phases: laps.phases,
        events: result.events_executed,
        outputs,
        violations,
    };
    (result, report)
}
