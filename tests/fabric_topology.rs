//! Golden trace for the switched fabric: a 64-locality fig-1-style
//! message-rate run over a k=8 fat-tree, pinned to its exact virtual
//! timeline and per-port transmit totals.
//!
//! Two invariants ride on these pins: (1) the topology walk is
//! deterministic — routing, port queueing, and counter accounting must
//! reproduce bit-for-bit across engine changes; (2) telemetry stays pure
//! observation on the switched path exactly as it does on the direct
//! wire (the per-port counter tracks sample without moving time).
//!
//! Re-pin only for an intentional model change:
//! `cargo test --test fabric_topology -- --ignored --nocapture`.

mod common;

use common::{fat_tree_run as run, LOCALITIES, MSGS_PER_LOC};
use hpx_lci_repro::parcelport::World;

/// Pinned `(end ns, events executed, fabric xmit_pkts, fabric
/// xmit_wait_ns)` for [`common::fat_tree_run`], captured from the seed run.
const PIN_END_NS: u64 = 20_620;
const PIN_EXECUTED: u64 = 1_152;
const PIN_XMIT_PKTS: u64 = 960;
const PIN_XMIT_WAIT_NS: u64 = 31_104;

fn port_totals(world: &World) -> (u64, u64) {
    let fab = world.fabric.borrow();
    let topo = fab.topology().expect("cluster config builds a switched fabric");
    let rows = topo.ranked_ports();
    (rows.iter().map(|r| r.1.xmit_pkts).sum(), rows.iter().map(|r| r.1.xmit_wait_ns).sum())
}

#[test]
#[ignore]
fn capture_pins() {
    let (world, delivered) = run();
    let (pkts, wait) = port_totals(&world);
    eprintln!(
        "PIN_END_NS: {}  PIN_EXECUTED: {}  PIN_XMIT_PKTS: {pkts}  PIN_XMIT_WAIT_NS: {wait}  \
         (delivered {delivered})",
        world.sim.now().as_nanos(),
        world.sim.events_executed(),
    );
}

#[test]
fn sixty_four_locality_fat_tree_trace_is_pinned() {
    let (world, delivered) = run();
    assert_eq!(delivered, LOCALITIES * MSGS_PER_LOC, "lost parcels");
    assert_eq!(world.sim.now().as_nanos(), PIN_END_NS, "virtual end time moved");
    assert_eq!(world.sim.events_executed(), PIN_EXECUTED, "event count moved");
    let (pkts, wait) = port_totals(&world);
    assert_eq!(pkts, PIN_XMIT_PKTS, "per-port transmit totals moved");
    assert_eq!(wait, PIN_XMIT_WAIT_NS, "per-port queueing totals moved");
    assert!(wait > 0, "cross-pod incast must show switch-port queueing");
}

#[test]
fn telemetry_is_pure_observation_on_the_switched_path() {
    let tel = hpx_lci_repro::telemetry::enable();
    let (world, delivered) = run();
    hpx_lci_repro::telemetry::disable();
    assert_eq!(delivered, LOCALITIES * MSGS_PER_LOC, "lost parcels under telemetry");
    assert_eq!(world.sim.now().as_nanos(), PIN_END_NS, "telemetry moved the end time");
    assert_eq!(world.sim.events_executed(), PIN_EXECUTED, "telemetry moved the event count");
    let (pkts, wait) = port_totals(&world);
    assert_eq!(pkts, PIN_XMIT_PKTS, "telemetry moved port transmit totals");
    assert_eq!(wait, PIN_XMIT_WAIT_NS, "telemetry moved port queueing totals");
    // The observation itself: per-port counter tracks were sampled,
    // time-ordered per track (what `trace_check --require-counters`
    // later enforces on the bench artifacts), and reach the Chrome export.
    drop(world);
    assert!(tel.span_count() > 0, "per-core spans missing from the collector");
    let (fab_tracks, ordered) = tel.with_metrics(|m| {
        let mut n = 0usize;
        let mut ordered = true;
        for (name, series) in m.tracks() {
            if name.starts_with("fab.") {
                n += 1;
                ordered &= series.windows(2).all(|w| w[0].0 <= w[1].0);
            }
        }
        (n, ordered)
    });
    assert!(fab_tracks > 0, "switch-port counter tracks missing");
    assert!(ordered, "switch-port counter tracks must be time-ordered");
    assert!(
        tel.chrome_trace_collected().contains("\"fab."),
        "port counters missing from the Chrome export"
    );
}

/// Spans belong to the collector installed while they are recorded: a
/// world run under collector A and dropped while collector B is
/// installed leaves every span with A and none with B.
#[test]
fn spans_stay_with_the_collector_they_ran_under() {
    let a = hpx_lci_repro::telemetry::enable();
    let (world, delivered) = run();
    hpx_lci_repro::telemetry::disable();
    assert_eq!(delivered, LOCALITIES * MSGS_PER_LOC, "lost parcels under telemetry");
    let spans = a.span_count();
    assert!(spans > 0, "collector A recorded no spans");
    let b = hpx_lci_repro::telemetry::enable();
    drop(world);
    hpx_lci_repro::telemetry::disable();
    assert_eq!(a.span_count(), spans, "collector A lost spans when the world dropped");
    assert_eq!(b.span_count(), 0, "spans of a world run under A landed in B");
}
