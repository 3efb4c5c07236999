//! k-ary fat-tree (folded Clos) generator.
//!
//! The classic three-level fat-tree: `k` pods, each with `k/2` edge and
//! `k/2` aggregation switches of radix `k`, plus `(k/2)^2` core switches
//! — supporting `k^3/4` hosts at full bisection bandwidth. Up-path
//! diversity (every edge switch reaches every core through `(k/2)^2`
//! distinct paths) is what D-mod-k static routing spreads over and what
//! the adaptive router exploits when a link dies.

use super::graph::TopoGraph;
use super::routing::RoutingPolicy;
use super::switch::SwitchFabric;

/// Parameters of a k-ary fat-tree.
#[derive(Debug, Clone)]
pub struct FatTreeParams {
    /// Switch radix / pod count. Must be even and `>= 2`; supports
    /// `k^3/4` hosts.
    pub k: usize,
    /// Host NIC-to-edge link latency, ns (the first-hop delivery lower bound).
    pub host_link_ns: u64,
    /// Switch-to-switch link latency, ns.
    pub link_ns: u64,
    /// Per-packet switch forwarding latency, ns.
    pub switch_ns: u64,
    /// Route selection policy.
    pub routing: RoutingPolicy,
}

impl FatTreeParams {
    /// Defaults for radix `k` (HDR-class link latencies).
    pub fn new(k: usize) -> Self {
        FatTreeParams {
            k,
            host_link_ns: 300,
            link_ns: 300,
            switch_ns: 100,
            routing: RoutingPolicy::Static,
        }
    }

    /// Smallest even `k` whose fat-tree holds at least `n` hosts.
    pub fn for_hosts(n: usize) -> Self {
        let mut k = 2usize;
        while k * k * k / 4 < n {
            k += 2;
        }
        FatTreeParams::new(k)
    }

    /// Hosts supported: `k^3/4`.
    pub fn hosts(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    /// Generate the wired graph.
    pub fn graph(&self) -> TopoGraph {
        let k = self.k;
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree radix must be even and >= 2, got {k}");
        let half = k / 2;
        let hosts = self.hosts();
        let mut g = TopoGraph::new("fattree", hosts);

        // Switch index layout: edges, then aggs, then cores.
        let edge = |pod: usize, e: usize| pod * half + e;
        let agg = |pod: usize, a: usize| k * half + pod * half + a;
        let core = |c: usize| 2 * k * half + c;
        for pod in 0..k {
            for e in 0..half {
                let id = g.add_switch(format!("ft.p{pod}.e{e}"), k);
                debug_assert_eq!(id, edge(pod, e));
            }
        }
        for pod in 0..k {
            for a in 0..half {
                let id = g.add_switch(format!("ft.p{pod}.a{a}"), k);
                debug_assert_eq!(id, agg(pod, a));
            }
        }
        for c in 0..half * half {
            let id = g.add_switch(format!("ft.c{c}"), k);
            debug_assert_eq!(id, core(c));
        }

        // Hosts: ports 0..k/2 of each edge switch.
        for pod in 0..k {
            for e in 0..half {
                for i in 0..half {
                    let h = pod * half * half + e * half + i;
                    g.attach_host(h, edge(pod, e), i, self.host_link_ns);
                }
            }
        }
        // Edge <-> agg: edge port k/2+a to agg a's down-port e.
        for pod in 0..k {
            for e in 0..half {
                for a in 0..half {
                    g.connect((edge(pod, e), half + a), (agg(pod, a), e), self.link_ns);
                }
            }
        }
        // Agg <-> core: agg a's up-port k/2+c to core a*(k/2)+c, whose
        // port `pod` faces this pod.
        for pod in 0..k {
            for a in 0..half {
                for c in 0..half {
                    g.connect((agg(pod, a), half + c), (core(a * half + c), pod), self.link_ns);
                }
            }
        }
        g
    }

    /// Build the live switch fabric.
    pub fn build(&self) -> SwitchFabric {
        SwitchFabric::build(self.graph(), self.routing, self.switch_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k4_shape() {
        let p = FatTreeParams::new(4);
        assert_eq!(p.hosts(), 16);
        let g = p.graph();
        g.validate().expect("well-formed");
        // 4 pods x (2 edge + 2 agg) + 4 core.
        assert_eq!(g.switches(), 20);
        assert_eq!(g.num_ports(), 20 * 4);
    }

    #[test]
    fn for_hosts_picks_smallest_even_radix() {
        assert_eq!(FatTreeParams::for_hosts(2).k, 2);
        assert_eq!(FatTreeParams::for_hosts(16).k, 4);
        assert_eq!(FatTreeParams::for_hosts(64).k, 8);
        assert_eq!(FatTreeParams::for_hosts(256).k, 12);
        assert_eq!(FatTreeParams::for_hosts(1024).k, 16);
        assert_eq!(FatTreeParams::for_hosts(1024).hosts(), 1024);
    }

    #[test]
    fn lookahead_is_strictly_positive_at_any_radix() {
        for k in [2, 4, 8] {
            let fab = FatTreeParams::new(k).build();
            assert!(
                fab.min_first_hop_latency() > 0,
                "k={k}: fat-tree must offer positive first-hop lookahead"
            );
            assert_eq!(fab.min_first_hop_latency(), 300);
        }
    }

    #[test]
    fn distances_match_fat_tree_levels() {
        let g = FatTreeParams::new(4).graph();
        let dead = vec![false; g.num_ports()];
        let d = g.compute_dist(&dead);
        // Host 0 is on edge(0,0): its own edge is 1 egress traversal away
        // (the downlink), the other edge of pod 0 is 3 (edge-agg-edge-
        // downlink), an edge in another pod is 5 (up to core and back).
        assert_eq!(d.get(0, 0), 1);
        let (same_pod_other_edge, _) = g.host_port(2); // host 2 sits on edge(0,1)
        assert_eq!(d.get(same_pod_other_edge, 0), 3);
        let (cross_pod_edge, _) = g.host_port(15); // last host, pod 3
        assert_eq!(d.get(cross_pod_edge, 0), 5);
    }
}
