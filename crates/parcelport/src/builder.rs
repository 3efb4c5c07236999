//! World assembly: fabric + runtime + parcelports for any configuration.

use std::cell::RefCell;
use std::rc::Rc;

use amt::action::ActionRegistry;
use amt::parcel_layer::ParcelLayerConfig;
use amt::runtime::{Runtime, RuntimeConfig};
use amt::sched::WorkerConfig;
use amt::{Locality, Parcelport};
use lci::{Device, DeviceConfig};
use mpisim::{Comm, CommConfig};
use netsim::{Fabric, FaultConfig, Topology, WireModel};
use simcore::{CostModel, Sim, Tracer};

use crate::config::{Backend, PpConfig, Progress};
use crate::lci_pp::LciParcelport;
use crate::mpi_pp::MpiParcelport;
use crate::tcp_pp::TcpParcelport;

/// Everything needed to instantiate a runnable world.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Parcelport configuration (Table-1 name).
    pub pp: PpConfig,
    /// Number of localities (nodes).
    pub localities: usize,
    /// Cores per locality (including the progress core, if any).
    pub cores: usize,
    /// Wire model (platform preset).
    pub wire: WireModel,
    /// HPX zero-copy serialization threshold.
    pub zero_copy_threshold: usize,
    /// HPX connection-cache limit.
    pub max_connections: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional fault injection (tests only; default: reliable fabric).
    pub faults: Option<FaultConfig>,
    /// Number of LCI devices (network contexts) per locality — 1 in the
    /// paper; >1 implements the §7.2 future work.
    pub lci_devices: usize,
    /// Cost-model override — the what-if engine re-runs scenarios with
    /// scaled knobs through this. `None` uses the calibrated defaults.
    pub cost: Option<CostModel>,
    /// Interconnect topology. [`Topology::Direct`] (the default) is the
    /// original point-to-point wire; switched topologies route every
    /// parcel through modeled switch ports.
    pub topology: Topology,
}

impl WorldConfig {
    /// The paper's microbenchmark topology: two nodes on SDSC Expanse
    /// with `cores` cores each.
    pub fn two_nodes(pp: PpConfig, cores: usize) -> Self {
        WorldConfig {
            pp,
            localities: 2,
            cores,
            wire: WireModel::expanse(),
            zero_copy_threshold: 8192,
            max_connections: 8192,
            seed: 0xC0FFEE,
            faults: None,
            lci_devices: 1,
            cost: None,
            topology: Topology::Direct,
        }
    }

    /// A `localities`-node cluster wired through a fat-tree sized to fit
    /// — the configuration for at-scale (fig-8-style) experiments.
    pub fn cluster(pp: PpConfig, localities: usize, cores: usize) -> Self {
        let mut cfg = WorldConfig::two_nodes(pp, cores);
        cfg.localities = localities;
        cfg.topology = Topology::fat_tree_for(localities);
        cfg
    }
}

/// A fully-wired simulated world.
pub struct World {
    /// The simulator (owns virtual time).
    pub sim: Sim,
    /// The interconnect.
    pub fabric: Rc<RefCell<Fabric>>,
    /// The AMT runtime (localities with installed parcelports).
    pub runtime: Runtime,
    /// The configuration it was built from.
    pub config: WorldConfig,
}

impl World {
    /// Locality by id.
    pub fn locality(&self, id: usize) -> &Rc<Locality> {
        self.runtime.locality(id)
    }

    /// Run until `pending` becomes false or `max_virtual_ns` elapses;
    /// returns whether the condition was met.
    pub fn run_while<P: FnMut(&Sim) -> bool>(
        &mut self,
        max_virtual_ns: u64,
        mut pending: P,
    ) -> bool {
        let deadline = self.sim.now() + max_virtual_ns;
        loop {
            if !pending(&self.sim) {
                return true;
            }
            if self.sim.now() >= deadline || !self.sim.step() {
                return !pending(&self.sim);
            }
        }
    }

    /// Drain per-locality `Tracer` spans into the active telemetry
    /// collector. No-op when telemetry is disabled or no tracers are
    /// attached; idempotent (tracers are taken). Runs automatically when
    /// the world drops, so harnesses that enable telemetry before
    /// [`build_world`] get core spans without further wiring.
    pub fn harvest_tracers(&self) {
        telemetry::with(|tel| {
            for loc in &self.runtime.localities {
                if let Some(tr) = loc.take_tracer() {
                    tel.add_spans(tr.spans().iter().cloned());
                }
            }
        });
    }
}

impl Drop for World {
    fn drop(&mut self) {
        self.harvest_tracers();
    }
}

/// Build a world: fabric, localities, parcelports, wakers — started and
/// ready for work.
pub fn build_world(cfg: &WorldConfig, registry: ActionRegistry) -> World {
    let mut sim = Sim::new(cfg.seed);
    let cost = Rc::new(cfg.cost.clone().unwrap_or_else(CostModel::default_model));
    let fabric = Rc::new(RefCell::new(Fabric::with_contexts(
        cfg.localities,
        cfg.wire.clone(),
        cfg.lci_devices.max(1),
    )));
    fabric.borrow_mut().install_topology(&cfg.topology);
    if let Some(f) = &cfg.faults {
        fabric.borrow_mut().set_faults(f.clone());
    }

    let dedicated = cfg.pp.dedicated_progress();
    let rt_cfg = RuntimeConfig {
        localities: cfg.localities,
        workers: if dedicated {
            WorkerConfig::with_progress(cfg.cores)
        } else {
            WorkerConfig::workers_only(cfg.cores)
        },
        layer: ParcelLayerConfig {
            zero_copy_threshold: cfg.zero_copy_threshold,
            send_immediate: cfg.pp.send_immediate,
            max_connections: cfg.max_connections,
        },
    };
    let runtime = Runtime::new(&rt_cfg, cost.clone(), registry);

    for (rank, loc) in runtime.localities.iter().enumerate() {
        let pp: Rc<RefCell<dyn Parcelport>> = match cfg.pp.backend {
            Backend::Tcp => Rc::new(RefCell::new(TcpParcelport::new(
                rank,
                fabric.clone(),
                cost.clone(),
                cfg.pp.send_immediate,
            ))),
            Backend::Mpi => {
                let comm = Comm::new(
                    rank,
                    fabric.clone(),
                    cost.clone(),
                    CommConfig { eager_threshold: 8192, progress_burst: 8 },
                );
                Rc::new(RefCell::new(MpiParcelport::new(
                    comm,
                    cost.clone(),
                    cfg.pp.original_mpi,
                    cfg.pp.send_immediate,
                )))
            }
            Backend::Lci => {
                let devs: Vec<Device> = (0..cfg.lci_devices.max(1))
                    .map(|ctx| {
                        Device::new(
                            rank,
                            fabric.clone(),
                            cost.clone(),
                            DeviceConfig {
                                eager_threshold: 8192,
                                packet_pool_size: 4096,
                                progress_burst: if cfg.pp.progress == Progress::Pin {
                                    8
                                } else {
                                    2
                                },
                                ctx: ctx as u8,
                            },
                        )
                    })
                    .collect();
                Rc::new(RefCell::new(LciParcelport::new_multi(devs, cost.clone(), cfg.pp)))
            }
        };
        loc.set_parcelport(pp);

        // NIC interrupt model: arrivals wake whoever makes progress.
        let weak = Rc::downgrade(loc);
        fabric.borrow_mut().set_arrival_waker(
            rank,
            Rc::new(move |sim, at| {
                if let Some(loc) = weak.upgrade() {
                    loc.wake_progress(sim, at);
                }
            }),
        );
    }

    runtime.start(&mut sim);
    // With telemetry active, give every locality a span tracer so the
    // Chrome export gets one track per core; `World::drop` harvests them.
    if telemetry::enabled() {
        for loc in &runtime.localities {
            loc.set_tracer(Tracer::new());
        }
    }
    World { sim, fabric, runtime, config: cfg.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::cell::Cell;

    /// End-to-end: invoke an action with a payload of `size` bytes across
    /// the two nodes and check it runs exactly `n` times with intact data.
    fn roundtrip(ppname: &str, size: usize, n: usize) {
        let mut registry = ActionRegistry::new();
        let hits = Rc::new(Cell::new(0usize));
        let bytes_ok = Rc::new(Cell::new(true));
        let h = hits.clone();
        let ok = bytes_ok.clone();
        let expected_size = size;
        registry.register("sink", move |sim, _loc, _core, p| {
            h.set(h.get() + 1);
            if p.args[0].len() != expected_size || p.args[0].iter().any(|&b| b != 0xAB) {
                ok.set(false);
            }
            sim.now() + 200
        });
        let action = registry.id_of("sink").unwrap();

        let cfg = WorldConfig::two_nodes(ppname.parse().unwrap(), 4);
        let mut world = build_world(&cfg, registry);
        let payload = Bytes::from(vec![0xABu8; size]);
        for _ in 0..n {
            let p = payload.clone();
            let loc0 = world.locality(0).clone();
            let task: amt::Task =
                Box::new(move |sim, loc, core| loc.send_action(sim, core, 1, action, vec![p]));
            loc0.spawn(&mut world.sim, 0, task);
        }
        let h2 = hits.clone();
        let finished = world.run_while(10_000_000_000, move |_s| h2.get() < n);
        assert!(finished, "{ppname}: only {}/{} actions ran", hits.get(), n);
        assert!(bytes_ok.get(), "{ppname}: payload corrupted");
    }

    #[test]
    fn zero_latency_wire_builds() {
        let mut cfg = WorldConfig::two_nodes("lci_psr_cq_pin_i".parse().unwrap(), 4);
        cfg.wire = WireModel::ideal();
        let world = build_world(&cfg, ActionRegistry::new());
        assert_eq!(world.fabric.borrow().model().latency_ns, 0);
    }

    #[test]
    fn all_paper_configs_small_messages() {
        for cfg in PpConfig::paper_set() {
            roundtrip(&cfg.to_string(), 8, 20);
        }
    }

    #[test]
    fn all_paper_configs_large_messages() {
        for cfg in PpConfig::paper_set() {
            roundtrip(&cfg.to_string(), 16 * 1024, 10);
        }
    }

    #[test]
    fn original_mpi_roundtrips() {
        roundtrip("mpi_orig", 8, 10);
        roundtrip("mpi_orig", 16 * 1024, 5);
    }

    #[test]
    fn multi_device_lci_roundtrips() {
        for devices in [2usize, 4] {
            let mut registry = ActionRegistry::new();
            let hits = Rc::new(Cell::new(0usize));
            let h = hits.clone();
            registry.register("sink", move |sim, _l, _c, p| {
                assert_eq!(p.args[0].len(), 8);
                h.set(h.get() + 1);
                sim.now() + 100
            });
            let sink = registry.id_of("sink").unwrap();
            let mut cfg = WorldConfig::two_nodes("lci_psr_cq_mt_i".parse().unwrap(), 8);
            cfg.lci_devices = devices;
            let mut world = build_world(&cfg, registry);
            for _ in 0..50 {
                let loc0 = world.locality(0).clone();
                loc0.spawn(
                    &mut world.sim,
                    0,
                    Box::new(move |sim, loc, core| {
                        loc.send_action(sim, core, 1, sink, vec![Bytes::from(vec![1u8; 8])])
                    }),
                );
            }
            let h2 = hits.clone();
            assert!(
                world.run_while(10_000_000_000, move |_| h2.get() < 50),
                "{devices} devices: lost messages"
            );
        }
    }

    #[test]
    fn tcp_roundtrips() {
        roundtrip("tcp", 8, 10);
        roundtrip("tcp_i", 8, 10);
        roundtrip("tcp_i", 16 * 1024, 5);
        roundtrip("tcp_i", 100_000, 3); // multi-segment frames
    }

    #[test]
    fn medium_messages_cross_threshold() {
        // Straddle the zero-copy / eager thresholds.
        for size in [4096, 8191, 8192, 8193, 65536] {
            roundtrip("lci_psr_cq_pin_i", size, 3);
            roundtrip("mpi_i", size, 3);
        }
    }

    #[test]
    fn multiple_args_mixed_sizes() {
        let mut registry = ActionRegistry::new();
        let seen = Rc::new(Cell::new(false));
        let s = seen.clone();
        registry.register("multi", move |sim, _loc, _core, p| {
            assert_eq!(p.args.len(), 3);
            assert_eq!(p.args[0].len(), 16);
            assert_eq!(p.args[1].len(), 20000);
            assert_eq!(p.args[2].len(), 64);
            s.set(true);
            sim.now()
        });
        let action = registry.id_of("multi").unwrap();
        let cfg = WorldConfig::two_nodes("lci_psr_cq_pin_i".parse().unwrap(), 4);
        let mut world = build_world(&cfg, registry);
        let loc0 = world.locality(0).clone();
        loc0.spawn(
            &mut world.sim,
            0,
            Box::new(move |sim, loc, core| {
                loc.send_action(
                    sim,
                    core,
                    1,
                    action,
                    vec![
                        Bytes::from(vec![1u8; 16]),
                        Bytes::from(vec![2u8; 20000]),
                        Bytes::from(vec![3u8; 64]),
                    ],
                )
            }),
        );
        let s2 = seen.clone();
        assert!(world.run_while(5_000_000_000, move |_| !s2.get()));
    }

    #[test]
    fn cluster_over_fat_tree_roundtrips() {
        let mut registry = ActionRegistry::new();
        let hits = Rc::new(Cell::new(0usize));
        let h = hits.clone();
        registry.register("sink", move |sim, _l, _c, _p| {
            h.set(h.get() + 1);
            sim.now() + 100
        });
        let sink = registry.id_of("sink").unwrap();
        let cfg = WorldConfig::cluster("lci_psr_cq_pin_i".parse().unwrap(), 4, 4);
        let mut world = build_world(&cfg, registry);
        assert!(
            world.fabric.borrow().topology().expect("switched fabric").min_first_hop_latency() > 0
        );
        for dst in 1..4usize {
            for _ in 0..5 {
                let l0 = world.locality(0).clone();
                l0.spawn(
                    &mut world.sim,
                    0,
                    Box::new(move |sim, loc, core| {
                        loc.send_action(sim, core, dst, sink, vec![Bytes::from_static(b"z")])
                    }),
                );
            }
        }
        let h2 = hits.clone();
        assert!(world.run_while(10_000_000_000, move |_| h2.get() < 15), "lost parcels");
        // The parcels really crossed modeled switch ports.
        let fab = world.fabric.borrow();
        let topo = fab.topology().expect("cluster config must build a switched topology");
        let carried: u64 = topo.ranked_ports().iter().map(|r| r.1.xmit_pkts).sum();
        assert!(carried > 0, "switch ports must have carried traffic");
    }

    #[test]
    fn bidirectional_traffic() {
        let mut registry = ActionRegistry::new();
        let a = Rc::new(Cell::new(0));
        let b = Rc::new(Cell::new(0));
        let (a2, b2) = (a.clone(), b.clone());
        registry.register("to1", move |sim, _l, _c, _p| {
            a2.set(a2.get() + 1);
            sim.now()
        });
        registry.register("to0", move |sim, _l, _c, _p| {
            b2.set(b2.get() + 1);
            sim.now()
        });
        let to1 = registry.id_of("to1").unwrap();
        let to0 = registry.id_of("to0").unwrap();
        let cfg = WorldConfig::two_nodes("lci_psr_cq_pin_i".parse().unwrap(), 4);
        let mut world = build_world(&cfg, registry);
        for _ in 0..10 {
            let l0 = world.locality(0).clone();
            let l1 = world.locality(1).clone();
            l0.spawn(
                &mut world.sim,
                0,
                Box::new(move |sim, loc, core| {
                    loc.send_action(sim, core, 1, to1, vec![Bytes::from_static(b"x")])
                }),
            );
            l1.spawn(
                &mut world.sim,
                0,
                Box::new(move |sim, loc, core| {
                    loc.send_action(sim, core, 0, to0, vec![Bytes::from_static(b"y")])
                }),
            );
        }
        let (a3, b3) = (a.clone(), b.clone());
        assert!(world.run_while(10_000_000_000, move |_| a3.get() < 10 || b3.get() < 10));
    }
}
