//! # perfbench — host-time benchmark of the simulator
//!
//! Three workloads drive the simulator's layers through their public
//! functions (`parcelport::build_world`, `Locality::spawn` /
//! `send_action`, `Octree::build`, `partition`, `AppState::build_all`,
//! `Sim::step` / `World::run_while`, `telemetry::enable_with`,
//! `RunRecord::capture`), so set-up, run, teardown and telemetry
//! post-processing are timed apart. See `README.md` for the metrics.

pub mod alloc;
pub mod fattree;
pub mod metrics;
pub mod msgrate;
pub mod octo;
pub mod trace;
pub mod workload;
