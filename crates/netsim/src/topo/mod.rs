//! Interconnect topology models: switched fabrics with real routing.
//!
//! Everything the 2-node `Fabric` abstracts away — switches, output-port
//! buffers, multi-hop routes, path diversity, link failure — lives here.
//! A [`Topology`] value selects the backend: [`Topology::Direct`] keeps
//! the original point-to-point wire model byte-for-byte, while
//! [`Topology::FatTree`] and [`Topology::Dragonfly`] build a
//! [`SwitchFabric`] that packets walk hop by hop, with every output port
//! a contended [`simcore::SimResource`] visible to the contention
//! attributor and the critical-path analyzer.

pub mod dragonfly;
pub mod fattree;
pub mod graph;
pub mod routing;
pub mod switch;

pub use dragonfly::DragonflyParams;
pub use fattree::FatTreeParams;
pub use graph::{Peer, PortSpec, SwitchSpec, TopoGraph};
pub use routing::{RouteTable, RoutingPolicy};
pub use switch::{PortCounters, SwitchFabric, WalkResult};

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Intern a string, leaking at most once per distinct name.
///
/// Port resources need `&'static str` names (the [`simcore::recorder`] and
/// contention-report plumbing is `&'static`-keyed to stay allocation-free
/// on the hot path), but port names are computed from topology layout at
/// build time. Distinct names are bounded by the port count of the
/// largest topology ever built in-process, so leaking is fine; repeated
/// builds of the same topology reuse the same leaked names.
pub fn intern(name: String) -> &'static str {
    static POOL: Mutex<BTreeMap<String, &'static str>> = Mutex::new(BTreeMap::new());
    let mut pool = POOL.lock().unwrap();
    if let Some(&s) = pool.get(&name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.clone().into_boxed_str());
    pool.insert(name, leaked);
    leaked
}

/// Which interconnect the fabric simulates.
#[derive(Debug, Clone, Default)]
pub enum Topology {
    /// Point-to-point wire between every pair of localities — the
    /// original 2-node model, preserved exactly.
    #[default]
    Direct,
    /// k-ary fat-tree (folded Clos).
    FatTree(FatTreeParams),
    /// Dragonfly (groups of routers, all-to-all local and global links).
    Dragonfly(DragonflyParams),
}

impl Topology {
    /// A fat-tree sized for `n` localities with default link timings.
    pub fn fat_tree_for(n: usize) -> Topology {
        Topology::FatTree(FatTreeParams::for_hosts(n))
    }

    /// A balanced dragonfly sized for `n` localities.
    pub fn dragonfly_for(n: usize) -> Topology {
        Topology::Dragonfly(DragonflyParams::for_hosts(n))
    }

    /// Short label for traces and bench output.
    pub fn label(&self) -> &'static str {
        match self {
            Topology::Direct => "direct",
            Topology::FatTree(_) => "fattree",
            Topology::Dragonfly(_) => "dragonfly",
        }
    }

    /// Build the live switch fabric, or `None` for [`Topology::Direct`].
    ///
    /// Panics if the topology cannot hold `hosts` localities — sizing is
    /// explicit (via [`FatTreeParams::for_hosts`] etc.), not silent.
    pub fn build(&self, hosts: usize) -> Option<SwitchFabric> {
        let fab = match self {
            Topology::Direct => return None,
            Topology::FatTree(p) => {
                assert!(
                    p.hosts() >= hosts,
                    "fat-tree k={} holds {} hosts, need {hosts}",
                    p.k,
                    p.hosts()
                );
                p.build()
            }
            Topology::Dragonfly(p) => {
                assert!(
                    p.hosts() >= hosts,
                    "dragonfly {:?} holds {} hosts, need {hosts}",
                    (p.p, p.a, p.h, p.g),
                    p.hosts()
                );
                p.build()
            }
        };
        Some(fab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_returns_stable_pointers() {
        let a = intern("fab.test.p0".to_string());
        let b = intern("fab.test.p0".to_string());
        assert!(std::ptr::eq(a, b), "same name must intern to the same allocation");
        assert_eq!(a, "fab.test.p0");
    }

    #[test]
    fn direct_builds_nothing() {
        assert!(Topology::Direct.build(2).is_none());
        assert_eq!(Topology::Direct.label(), "direct");
    }

    #[test]
    fn sized_builders_fit_the_host_count() {
        for n in [2, 16, 64] {
            let t = Topology::fat_tree_for(n);
            assert!(t.build(n).is_some());
            let t = Topology::dragonfly_for(n);
            assert!(t.build(n).is_some());
        }
    }

    #[test]
    #[should_panic(expected = "need 64")]
    fn undersized_topology_rejected() {
        let _ = Topology::FatTree(FatTreeParams::new(4)).build(64);
    }
}
