//! The named workloads and their pinned simulated outputs.

use crate::trace::{Recorder, SimReport};
use crate::{fattree, msgrate, octo};

/// The seed whose simulated outputs are pinned under `pins/`.
pub const DEFAULT_SEED: u64 = 1;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 1 sweep: the per-message send/progress/receive path.
    Msgrate8b,
    /// Fig. 10 shape: Octo-Tiger-mini level 6 on 16 localities.
    OctotigerL6,
    /// 64-locality fat-tree hot-spot traffic with telemetry on.
    Fattree64Traced,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::Msgrate8b, Workload::OctotigerL6, Workload::Fattree64Traced];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Msgrate8b => "msgrate_8b",
            Workload::OctotigerL6 => "octotiger_l6",
            Workload::Fattree64Traced => "fattree64_traced",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run every simulation of the workload once.
    pub fn pass(self, seed: u64, rec: &mut Recorder) -> Vec<SimReport> {
        match self {
            Workload::Msgrate8b => msgrate::pass(seed, rec),
            Workload::OctotigerL6 => octo::pass(seed, rec),
            Workload::Fattree64Traced => fattree::pass(seed, rec),
        }
    }

    /// The pinned outputs at [`DEFAULT_SEED`]: one `key value` per line.
    pub fn pins(self) -> &'static str {
        match self {
            Workload::Msgrate8b => include_str!("../pins/msgrate_8b.txt"),
            Workload::OctotigerL6 => include_str!("../pins/octotiger_l6.txt"),
            Workload::Fattree64Traced => include_str!("../pins/fattree64_traced.txt"),
        }
    }
}

/// Render a pass's outputs in the pin-file format.
pub fn render_pins(reports: &[SimReport]) -> String {
    reports.iter().flat_map(|r| &r.outputs).map(|(k, v)| format!("{k} {v}\n")).collect()
}

/// Compare each report's outputs against `pins`; every mismatching or
/// unpinned output becomes a violation of its simulation, and pinned keys
/// that no simulation produced become one more.
pub fn check_pins(pins: &str, reports: &mut [SimReport]) -> Vec<String> {
    let pinned: std::collections::BTreeMap<&str, &str> =
        pins.lines().filter_map(|l| l.split_once(' ')).collect();
    let mut produced = 0;
    for r in reports.iter_mut() {
        for (k, v) in &r.outputs {
            produced += 1;
            match pinned.get(k.as_str()) {
                Some(p) if p == v => {}
                Some(p) => r.violations.push(format!("{k}: got {v}, pinned {p}")),
                None => r.violations.push(format!("{k}: got {v}, not pinned")),
            }
        }
    }
    if produced == pinned.len() {
        Vec::new()
    } else {
        vec![format!("{} pinned outputs, {produced} produced", pinned.len())]
    }
}
