//! The metrics the benchmark reports, with their units. `BENCHMARK.json`
//! at the repository root lists the same names and units.

/// End-to-end metrics, from untraced passes.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_heap_mb", "MB")];

/// Per-layer metrics of the traced run: name, unit, which direction is
/// better, and the end-to-end metric (on the workload) it should move.
pub const PER_LAYER: [(&str, &str, &str, &str); 46] = [
    ("simcore.events", "count", "lower", "wall_s on msgrate_8b"),
    ("simcore.run_s", "s", "lower", "wall_s on msgrate_8b"),
    ("simcore.events_per_s", "1/s", "higher", "wall_s on msgrate_8b"),
    ("simcore.step_ns.p50", "ns", "lower", "wall_s on msgrate_8b"),
    ("simcore.step_ns.p99", "ns", "lower", "wall_s on msgrate_8b (mpi_i matching scans)"),
    ("simcore.step_ns.p999", "ns", "lower", "wall_s on msgrate_8b (mpi_i matching scans)"),
    ("simcore.pending_max", "count", "lower", "peak_heap_mb"),
    ("amt.send_action_s", "s", "lower", "wall_s on msgrate_8b, fattree64_traced"),
    ("amt.send_action_ns.p50", "ns", "lower", "wall_s on msgrate_8b, fattree64_traced"),
    ("amt.send_action_ns.p99", "ns", "lower", "wall_s on msgrate_8b, fattree64_traced"),
    ("amt.spawn", "count", "lower", "wall_s on msgrate_8b, fattree64_traced"),
    ("amt.messages_delivered", "count", "higher", "wall_s on msgrate_8b, fattree64_traced"),
    ("parcelport.build_world_s", "s", "lower", "setup_s on fattree64_traced, octotiger_l6"),
    ("parcelport.drop_world_s", "s", "lower", "wall_s on fattree64_traced"),
    ("parcelport.send_retry_ratio", "ratio", "lower", "simcore.events on msgrate_8b"),
    ("lci.points_s", "s", "lower", "wall_s on msgrate_8b"),
    ("lci.progress", "count", "lower", "wall_s on msgrate_8b"),
    ("lci.pool_exhausted", "count", "lower", "wall_s on msgrate_8b"),
    ("mpisim.points_s", "s", "lower", "wall_s on msgrate_8b, octotiger_l6"),
    ("mpisim.unexpected", "count", "lower", "wall_s on msgrate_8b, octotiger_l6"),
    ("mpisim.test_per_msg", "ratio", "lower", "wall_s on msgrate_8b, octotiger_l6"),
    ("netsim.sent", "count", "lower", "wall_s on fattree64_traced"),
    ("netsim.port_xmit_pkts", "count", "lower", "wall_s on fattree64_traced"),
    ("netsim.port_xmit_wait_ns", "ns", "lower", "wall_s on fattree64_traced (virtual ns)"),
    ("octotiger.tree_s", "s", "lower", "setup_s on octotiger_l6"),
    ("octotiger.partition_s", "s", "lower", "setup_s on octotiger_l6"),
    ("octotiger.state_s", "s", "lower", "setup_s, peak_heap_mb on octotiger_l6"),
    ("octotiger.leaves", "count", "higher", "setup_s, peak_heap_mb on octotiger_l6"),
    ("telemetry.overhead_s", "s", "lower", "wall_s on fattree64_traced"),
    ("telemetry.capture_s", "s", "lower", "wall_s on fattree64_traced"),
    ("telemetry.critpath_s", "s", "lower", "wall_s on fattree64_traced"),
    ("telemetry.json_s", "s", "lower", "wall_s on fattree64_traced"),
    ("telemetry.flows", "count", "higher", "wall_s on fattree64_traced"),
    ("telemetry.record_bytes", "bytes", "lower", "wall_s on fattree64_traced"),
    ("process.cpu_s", "s", "lower", "read beside wall_s: equal on one thread"),
    ("process.setup_allocs", "count", "lower", "setup_s, peak_heap_mb"),
    ("process.run_allocs_per_event", "count", "lower", "wall_s, peak_heap_mb"),
    ("trace.overhead_frac", "ratio", "lower", "none: traced over untraced wall, minus 1"),
    ("trace.wall_s", "s", "lower", "none: traced pass wall"),
    ("trace.setup_s", "s", "lower", "setup_s"),
    ("trace.run_s", "s", "lower", "wall_s"),
    ("trace.teardown_s", "s", "lower", "wall_s"),
    ("trace.post_s", "s", "lower", "wall_s on fattree64_traced"),
    ("trace.residual_frac", "ratio", "lower", "none: wall outside the four phases"),
    ("simcore.step_count", "count", "lower", "none: samples behind simcore.step_ns"),
    ("amt.send_action_count", "count", "lower", "none: samples behind amt.send_action_ns"),
];
