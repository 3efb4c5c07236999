//! Windowed-timeline invariants on real end-to-end workloads: for every
//! instrumented run, the merge of all per-window sub-histograms must
//! reproduce the run-total histogram exactly (bucket-identical — same
//! counts, min/max, and every quantile), every counter's window deltas
//! must sum to its run total, and per-port window accounting must agree
//! with the fabric's own port counters. Checked on the fig-1 message-rate
//! shape, the fig-8 latency shape, and a 64-locality fat-tree run.

mod common;

use std::collections::BTreeMap;

use hpx_lci_repro::telemetry::{self, Histogram, Telemetry, TimelineConfig};

/// Assert the window-partition invariant: windowed histograms and
/// counters recombine exactly to the run totals, for every key.
fn assert_windows_partition(tel: &Telemetry, what: &str) {
    let merged: BTreeMap<&'static str, Histogram> = tel
        .with_timeline(|tl| {
            let keys: Vec<_> = tl.hist_keys().collect();
            keys.into_iter().map(|k| (k, tl.merged_hist(k).expect("windowed key"))).collect()
        })
        .expect("timeline enabled");
    let totals: BTreeMap<&'static str, Histogram> =
        tel.with_metrics(|m| m.hists().map(|(k, h)| (k, h.clone())).collect());
    assert!(!merged.is_empty(), "{what}: run recorded no windowed histograms");
    assert_eq!(
        merged.keys().collect::<Vec<_>>(),
        totals.keys().collect::<Vec<_>>(),
        "{what}: windowed histogram keys diverge from the run totals"
    );
    for (k, m) in &merged {
        let t = &totals[k];
        assert_eq!(m, t, "{what}: merged windows of {k:?} are not bucket-identical to the total");
        assert_eq!(
            (m.p50(), m.p90(), m.p99(), m.p999()),
            (t.p50(), t.p90(), t.p99(), t.p999()),
            "{what}: quantiles of {k:?} diverge"
        );
        assert_eq!((m.min(), m.max(), m.count()), (t.min(), t.max(), t.count()));
    }
    let counter_keys: Vec<&'static str> =
        tel.with_timeline(|tl| tl.counter_keys().collect()).expect("timeline enabled");
    let counter_totals: BTreeMap<&'static str, u64> = tel.with_metrics(|m| m.counters().collect());
    assert_eq!(
        counter_keys,
        counter_totals.keys().copied().collect::<Vec<_>>(),
        "{what}: windowed counter keys diverge from the run totals"
    );
    for (k, total) in &counter_totals {
        let sum = tel
            .with_timeline(|tl| tl.counter_windows(k).map(|w| w.values().sum::<u64>()))
            .expect("timeline enabled")
            .unwrap_or(0);
        assert_eq!(sum, *total, "{what}: counter {k:?} window deltas do not sum to the total");
    }
    // Coverage is gap-free by construction; sanity-check the horizon.
    let (nwin, window_ns, cursor) = tel
        .with_timeline(|tl| (tl.num_windows(), tl.window_ns(), tl.cursor_ns()))
        .expect("timeline enabled");
    assert!(nwin * window_ns > cursor, "{what}: windows do not cover the horizon");
}

#[test]
fn msgrate_windows_partition_exactly() {
    use bench::{run_msgrate, MsgRateParams};
    let tel = telemetry::enable_with(TimelineConfig::default());
    let mut p = MsgRateParams::small("lci_psr_cq_pin_i".parse().unwrap());
    p.total_msgs = 2_000;
    let r = run_msgrate(&p);
    telemetry::disable();
    assert!(r.msg_rate > 0.0);
    assert_windows_partition(&tel, "fig1 msgrate");
}

#[test]
fn latency_windows_partition_exactly() {
    use bench::{run_latency, LatencyParams};
    let tel = telemetry::enable_with(TimelineConfig::default());
    let mut p = LatencyParams::new("lci_psr_cq_pin_i".parse().unwrap(), 8);
    p.window = 16;
    p.steps = 25;
    let r = run_latency(&p);
    telemetry::disable();
    assert!(r.one_way_us > 0.0);
    assert_windows_partition(&tel, "fig8 latency");
}

#[test]
fn fat_tree_64_windows_partition_exactly() {
    use bytes::Bytes;
    use hpx_lci_repro::amt::action::ActionRegistry;
    use hpx_lci_repro::parcelport::{build_world, WorldConfig};
    use std::cell::Cell;
    use std::rc::Rc;

    let tel = telemetry::enable_with(TimelineConfig::default());
    let mut registry = ActionRegistry::new();
    let got = Rc::new(Cell::new(0usize));
    let g = got.clone();
    registry.register("sink", move |sim, _l, _c, _p| {
        g.set(g.get() + 1);
        sim.now() + 100
    });
    let sink = registry.id_of("sink").unwrap();
    let cfg = WorldConfig::cluster("lci_psr_cq_pin_i".parse().unwrap(), 64, 2);
    let mut world = build_world(&cfg, registry);
    let n = 30usize;
    for i in 0..n {
        let loc = world.locality(0).clone();
        let dst = 1 + (i * 7) % 63;
        loc.spawn(
            &mut world.sim,
            0,
            Box::new(move |sim, loc, core| {
                loc.send_action(sim, core, dst, sink, vec![Bytes::from_static(b"parcel")])
            }),
        );
    }
    let g = got.clone();
    assert!(world.run_while(10_000_000_000, move |_| g.get() < n), "parcels lost");
    telemetry::disable();
    assert_windows_partition(&tel, "fat-tree 64");

    // Per-port window accounting must agree with the fabric's own port
    // counters — the same accesses, sliced by window.
    let fab = world.fabric.borrow();
    let topo = fab.topology().expect("cluster runs on a switched fabric");
    let ranked = topo.ranked_ports();
    assert!(!ranked.is_empty(), "fat-tree 64: no port carried traffic");
    for (name, c) in &ranked {
        let (wait, pkts, bytes) = tel
            .with_timeline(|tl| {
                let ws = tl.port_windows(name).expect("port has windows");
                (
                    ws.values().map(|p| p.wait_ns).sum::<u64>(),
                    ws.values().map(|p| p.pkts).sum::<u64>(),
                    ws.values().map(|p| p.bytes).sum::<u64>(),
                )
            })
            .expect("timeline enabled");
        assert_eq!(wait, c.xmit_wait_ns, "{name}: windowed wait diverges from port counters");
        assert_eq!(pkts, c.xmit_pkts, "{name}: windowed packets diverge from port counters");
        assert_eq!(bytes, c.xmit_bytes, "{name}: windowed bytes diverge from port counters");
    }
}
