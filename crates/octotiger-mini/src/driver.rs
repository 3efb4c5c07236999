//! The benchmark driver: run N steps over any parcelport configuration.

use std::cell::RefCell;
use std::rc::Rc;

use amt::action::ActionRegistry;
use bytes::Bytes;
use netsim::WireModel;
use parcelport::{build_world, PpConfig, WorldConfig};
use simcore::SimTime;

use crate::fmm::{register_actions, AppState, ComputeModel};
use crate::octree::Octree;
use crate::sfc::partition;

/// Parameters of an Octo-Tiger-mini run.
#[derive(Debug, Clone)]
pub struct OctoParams {
    /// Parcelport configuration.
    pub config: PpConfig,
    /// Number of localities (compute nodes).
    pub localities: usize,
    /// Cores per locality.
    pub cores: usize,
    /// Wire model (platform preset).
    pub wire: WireModel,
    /// Maximum octree refinement level (paper: 6 on Expanse, 5 on Rostam).
    pub level: u32,
    /// Steps to run (paper: 5).
    pub steps: u32,
    /// Compute-kernel cost model.
    pub compute: ComputeModel,
    /// RNG seed.
    pub seed: u64,
    /// Software cost-model override (what-if re-runs); `None` = defaults.
    pub cost: Option<simcore::CostModel>,
}

impl OctoParams {
    /// The paper's SDSC Expanse setup (level 6, 5 steps), with cores
    /// scaled 128 -> 32 per the DESIGN.md scale-down note. The tree level
    /// is scaled to 5 to keep the simulation laptop-sized; the
    /// communication-to-compute balance is preserved by `ComputeModel`.
    pub fn expanse(config: PpConfig, localities: usize) -> Self {
        OctoParams {
            config,
            localities,
            cores: 32,
            wire: WireModel::expanse(),
            level: 5,
            steps: 5,
            compute: ComputeModel::default(),
            seed: 42,
            cost: None,
        }
    }

    /// The paper's Rostam setup (level 5 -> scaled 4, 5 steps, 40 -> 10
    /// cores, FDR InfiniBand).
    pub fn rostam(config: PpConfig, localities: usize) -> Self {
        OctoParams {
            config,
            localities,
            cores: 10,
            wire: WireModel::rostam(),
            level: 4,
            steps: 5,
            compute: ComputeModel::default(),
            seed: 42,
            cost: None,
        }
    }
}

/// Result of a run.
#[derive(Debug, Clone, Copy)]
pub struct OctoResult {
    /// Steps per second of virtual time — the paper's y-axis.
    pub steps_per_sec: f64,
    /// Total virtual time.
    pub total: SimTime,
    /// Whether all steps completed before the safety deadline.
    pub completed: bool,
    /// Whether the root-multipole mass invariant held every step.
    pub mass_ok: bool,
    /// Leaves in the tree (workload size indicator).
    pub leaves: usize,
    /// Engine events executed during the run — paired with wall-clock
    /// measurement by `engine_throughput` for the perf trajectory.
    pub events_executed: u64,
}

/// Run Octo-Tiger-mini once.
pub fn run_octotiger(p: &OctoParams) -> OctoResult {
    let tree = Rc::new(Octree::build(p.level));
    let part = Rc::new(partition(&tree, p.localities));
    let states = AppState::build_all(tree.clone(), part, p.localities, p.steps, p.compute.clone());

    let mut registry = ActionRegistry::new();
    let actions_out = Rc::new(RefCell::new(None));
    let actions = register_actions(&mut registry, states.clone(), actions_out);

    let mut wcfg = WorldConfig::two_nodes(p.config, p.cores);
    wcfg.localities = p.localities;
    wcfg.wire = p.wire.clone();
    wcfg.seed = p.seed;
    wcfg.cost = p.cost.clone();
    let mut world = build_world(&wcfg, registry);

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
            loc0.spawn(
                &mut world.sim,
                0,
                Box::new(move |sim, loc, core| {
                    loc.send_action(sim, core, dest, start, vec![Bytes::new()])
                }),
            );
        }
    }

    let st0 = states[0].clone();
    let target = p.steps;
    let completed =
        world.run_while(600_000_000_000, move |_| st0.borrow().steps_completed < target);

    if std::env::var("OCTO_DUMP").is_ok() {
        eprintln!("--- octo stats ({}) ---", p.config);
        eprintln!("{}", world.sim.stats);
    }
    let total = states[0].borrow().finished_at;
    let total = if total == SimTime::ZERO { world.sim.now() } else { total };
    let steps_per_sec = if completed { p.steps as f64 / total.as_secs_f64() } else { 0.0 };
    let mass_ok = states.iter().all(|s| s.borrow().mass_ok);
    OctoResult {
        steps_per_sec,
        total,
        completed,
        mass_ok,
        leaves: tree.leaves().len(),
        events_executed: world.sim.events_executed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(config: &str, localities: usize, level: u32) -> OctoResult {
        let mut p = OctoParams::expanse(config.parse().unwrap(), localities);
        p.level = level;
        p.cores = 6;
        p.steps = 2;
        run_octotiger(&p)
    }

    #[test]
    fn single_locality_runs() {
        let r = quick("lci_psr_cq_pin_i", 1, 3);
        assert!(r.completed, "{r:?}");
        assert!(r.mass_ok, "mass invariant violated");
        assert!(r.steps_per_sec > 0.0);
    }

    #[test]
    fn two_localities_lci() {
        let r = quick("lci_psr_cq_pin_i", 2, 3);
        assert!(r.completed, "{r:?}");
        assert!(r.mass_ok);
    }

    #[test]
    fn four_localities_mpi() {
        let r = quick("mpi_i", 4, 3);
        assert!(r.completed, "{r:?}");
        assert!(r.mass_ok);
    }

    #[test]
    fn results_deterministic_across_backends() {
        // The mass invariant (physics) must hold identically on every
        // parcelport — communication must not change results.
        for cfg in ["lci_psr_cq_pin_i", "lci_sr_sy_mt_i", "mpi", "mpi_i"] {
            let r = quick(cfg, 3, 3);
            assert!(r.completed, "{cfg}: {r:?}");
            assert!(r.mass_ok, "{cfg}: mass invariant violated");
        }
    }
}
