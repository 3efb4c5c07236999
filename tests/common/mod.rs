//! Shared helpers for the cross-crate integration tests.
//!
//! Compiled separately into every integration-test target; not every
//! target uses every helper, so per-target dead-code analysis is noise.
#![allow(dead_code)]

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use hpx_lci_repro::amt::action::ActionRegistry;
use hpx_lci_repro::parcelport::{build_world, World, WorldConfig};

/// Outcome of a counted-delivery workload.
pub struct Delivery {
    /// The world after the run (for stats inspection).
    pub world: World,
    /// Messages delivered to the sink action.
    pub delivered: usize,
    /// Concatenation-order payload checksums seen by the sink.
    pub checksums: Vec<u64>,
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Send `payloads` from locality 0 to a sink action on locality 1 over
/// the given configuration; returns the delivery record.
pub fn send_all(cfg: WorldConfig, payloads: Vec<Vec<u8>>) -> Delivery {
    let mut registry = ActionRegistry::new();
    let delivered = Rc::new(Cell::new(0usize));
    let checksums = Rc::new(RefCell::new(Vec::new()));
    let expect = payloads.len();
    {
        let delivered = delivered.clone();
        let checksums = checksums.clone();
        registry.register("sink", move |sim, _loc, _core, p| {
            delivered.set(delivered.get() + 1);
            checksums.borrow_mut().push(fnv(&p.args[0]));
            sim.now() + 150
        });
    }
    let sink = registry.id_of("sink").unwrap();
    let mut world = build_world(&cfg, registry);
    for payload in payloads {
        let loc0 = world.locality(0).clone();
        let data = Bytes::from(payload);
        loc0.spawn(
            &mut world.sim,
            0,
            Box::new(move |sim, loc, core| loc.send_action(sim, core, 1, sink, vec![data])),
        );
    }
    let d = delivered.clone();
    world.run_while(60_000_000_000, move |_| d.get() < expect);
    let sums = checksums.borrow().clone();
    Delivery { world, delivered: delivered.get(), checksums: sums }
}

/// Reference checksums in send order.
pub fn reference_checksums(payloads: &[Vec<u8>]) -> Vec<u64> {
    payloads.iter().map(|p| fnv(p)).collect()
}

/// Localities of the [`fat_tree_run`] workload (a k=8 fat-tree).
pub const LOCALITIES: usize = 64;
/// Parcels each locality sends in [`fat_tree_run`].
pub const MSGS_PER_LOC: usize = 3;

/// Every locality fires `MSGS_PER_LOC` 8-byte parcels at the locality
/// half the machine away — all-cross-pod traffic, the fig-1 message-rate
/// shape scaled out to 64 nodes on a switched fabric. Returns the world
/// after the run and the number of parcels the sink saw.
pub fn fat_tree_run() -> (World, usize) {
    let mut registry = ActionRegistry::new();
    let got = Rc::new(Cell::new(0usize));
    let g = got.clone();
    registry.register("sink", move |sim, _l, _c, _p| {
        g.set(g.get() + 1);
        sim.now() + 150
    });
    let sink = registry.id_of("sink").unwrap();
    let mut cfg = WorldConfig::cluster("lci_psr_cq_pin_i".parse().unwrap(), LOCALITIES, 2);
    cfg.seed = 11;
    let mut world = build_world(&cfg, registry);
    for src in 0..LOCALITIES {
        let dst = (src + LOCALITIES / 2) % LOCALITIES;
        for _ in 0..MSGS_PER_LOC {
            let loc = world.locality(src).clone();
            loc.spawn(
                &mut world.sim,
                0,
                Box::new(move |sim, loc, core| {
                    loc.send_action(sim, core, dst, sink, vec![Bytes::from_static(b"fig1-8b!")])
                }),
            );
        }
    }
    let expect = LOCALITIES * MSGS_PER_LOC;
    let g = got.clone();
    world.run_while(60_000_000_000, move |_| g.get() < expect);
    let n = got.get();
    (world, n)
}
