//! The adaptive octree: refined around a binary-star shell.

use std::collections::HashMap;

/// Index of a tree node in the [`Octree`]'s node array.
pub type NodeId = usize;

/// One node of the octree.
#[derive(Debug, Clone)]
pub struct Node {
    /// Parent node (self for the root).
    pub parent: NodeId,
    /// Children ids; empty for leaves.
    pub children: Vec<NodeId>,
    /// Refinement level (root = 0).
    pub level: u32,
    /// Cell center in the unit cube.
    pub center: [f64; 3],
    /// Cell half-width.
    pub half: f64,
    /// Morton key of the cell's min corner at `level` resolution.
    pub morton: u64,
}

impl Node {
    /// Whether the node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// An adaptive octree over the unit cube `[0,1]^3`.
///
/// Refinement mimics Octo-Tiger's star-merger grids: cells are refined up
/// to `max_level` when they intersect either of two spherical shells (the
/// surfaces of the binary's stars), so resolution concentrates where the
/// physics happens and the tree stays far smaller than a uniform
/// `8^max_level` grid.
#[derive(Debug)]
pub struct Octree {
    nodes: Vec<Node>,
    leaves: Vec<NodeId>,
    /// Face neighbours of each node (see [`Octree::leaf_neighbors`]).
    neighbors: Vec<Vec<NodeId>>,
}

/// The binary-star refinement predicate: distance of the cell center to
/// either star center lies within the star's shell, padded by the cell
/// diagonal.
fn refine(center: [f64; 3], half: f64) -> bool {
    const STARS: [([f64; 3], f64); 2] = [([0.35, 0.5, 0.5], 0.18), ([0.68, 0.52, 0.5], 0.12)];
    let diag = half * 3f64.sqrt();
    STARS.iter().any(|(c, r)| {
        let d =
            ((center[0] - c[0]).powi(2) + (center[1] - c[1]).powi(2) + (center[2] - c[2]).powi(2))
                .sqrt();
        (d - r).abs() <= diag
    })
}

impl Octree {
    /// Build the tree refined to `max_level`.
    pub fn build(max_level: u32) -> Octree {
        let mut nodes = vec![Node {
            parent: 0,
            children: Vec::new(),
            level: 0,
            center: [0.5, 0.5, 0.5],
            half: 0.5,
            morton: 0,
        }];
        let mut frontier = vec![0usize];
        for level in 0..max_level {
            let mut next = Vec::new();
            for &id in &frontier {
                let (center, half) = (nodes[id].center, nodes[id].half);
                if level > 0 && !refine(center, half) {
                    continue;
                }
                let qh = half / 2.0;
                for oct in 0..8u64 {
                    let dx = [(oct & 1) as f64, ((oct >> 1) & 1) as f64, ((oct >> 2) & 1) as f64];
                    let c = [
                        center[0] + (dx[0] * 2.0 - 1.0) * qh,
                        center[1] + (dx[1] * 2.0 - 1.0) * qh,
                        center[2] + (dx[2] * 2.0 - 1.0) * qh,
                    ];
                    let child = Node {
                        parent: id,
                        children: Vec::new(),
                        level: level + 1,
                        center: c,
                        half: qh,
                        morton: (nodes[id].morton << 3) | oct,
                    };
                    let cid = nodes.len();
                    nodes.push(child);
                    nodes[id].children.push(cid);
                    next.push(cid);
                }
            }
            frontier = next;
        }
        let leaves: Vec<NodeId> = (0..nodes.len()).filter(|&i| nodes[i].is_leaf()).collect();
        // Face neighbours in O(nodes): leaves, in ascending id, join the lists
        // of the same-level nodes beside them, looked up by (level, cell
        // coordinates), so every list is ascending. A step below coordinate 0
        // wraps to a key no cell has.
        let index: HashMap<_, NodeId> =
            nodes.iter().enumerate().map(|(i, n)| (cell(n), i)).collect();
        let mut neighbors = vec![Vec::new(); nodes.len()];
        for &l in &leaves {
            let (level, xyz) = cell(&nodes[l]);
            for (axis, step) in (0..3).flat_map(|axis| [(axis, -1), (axis, 1)]) {
                let mut c = xyz;
                c[axis] = c[axis].wrapping_add_signed(step);
                if let Some(&n) = index.get(&(level, c)) {
                    neighbors[n].push(l);
                }
            }
        }
        Octree { nodes, leaves, neighbors }
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Leaf ids in creation order.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is only a root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Deterministic "mass" of a leaf (stands in for the density field).
    pub fn leaf_mass(&self, id: NodeId) -> f64 {
        let n = &self.nodes[id];
        1.0 + (n.morton % 97) as f64 / 97.0
    }

    /// Face-adjacent same-level leaf neighbors of `id` (up to 6), in
    /// ascending node id. Two leaves are neighbors when they share a face:
    /// their cell coordinates differ by one along exactly one axis.
    pub fn leaf_neighbors(&self, id: NodeId) -> &[NodeId] {
        &self.neighbors[id]
    }

    /// Exact sum of all leaf masses — the conserved quantity the FMM
    /// up-sweep must reproduce at the root.
    pub fn total_mass(&self) -> f64 {
        self.leaves.iter().map(|&l| self.leaf_mass(l)).sum()
    }
}

/// A node's level and integer cell coordinates at that level, de-interleaved
/// from its Morton key (bit 0 = x, bit 1 = y, bit 2 = z at each level).
fn cell(n: &Node) -> (u32, [u64; 3]) {
    let axis = |a: u32| (0..n.level).map(|bit| ((n.morton >> (3 * bit + a)) & 1) << bit).sum();
    (n.level, [axis(0), axis(1), axis(2)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_zero_is_root_only() {
        let t = Octree::build(0);
        assert_eq!(t.len(), 1);
        assert!(t.is_empty());
        assert_eq!(t.leaves(), &[0]);
    }

    #[test]
    fn level_one_is_uniform() {
        let t = Octree::build(1);
        assert_eq!(t.len(), 9);
        assert_eq!(t.leaves().len(), 8);
    }

    #[test]
    fn adaptivity_keeps_tree_small() {
        let t = Octree::build(5);
        let uniform = (0..=5).map(|l| 8usize.pow(l)).sum::<usize>();
        assert!(t.len() < uniform / 4, "adaptive tree {} vs uniform {}", t.len(), uniform);
        assert!(t.leaves().len() > 500, "still resolves the shells: {}", t.leaves().len());
    }

    #[test]
    fn parents_and_children_are_consistent() {
        let t = Octree::build(3);
        for (id, n) in t.nodes().iter().enumerate() {
            for &c in &n.children {
                assert_eq!(t.node(c).parent, id);
                assert_eq!(t.node(c).level, n.level + 1);
                assert!(t.node(c).half < n.half);
            }
            if id != 0 {
                assert!(t.node(n.parent).children.contains(&id));
            }
        }
    }

    #[test]
    fn morton_keys_unique_per_level() {
        let t = Octree::build(4);
        let mut seen = std::collections::HashSet::new();
        for n in t.nodes() {
            assert!(seen.insert((n.level, n.morton)), "duplicate morton key");
        }
    }

    /// The brute-force scan the index replaced: every same-level leaf
    /// whose center sits one cell width away along exactly one axis.
    fn scan_neighbors(t: &Octree, id: NodeId) -> Vec<NodeId> {
        let me = t.node(id);
        let w = me.half * 2.0;
        let eps = me.half * 0.1;
        let mut out = Vec::new();
        for &o in t.leaves() {
            let n = t.node(o);
            if o == id || n.level != me.level {
                continue;
            }
            let (mut on_axis, mut zeros) = (0, 0);
            for k in 0..3 {
                let d = (n.center[k] - me.center[k]).abs();
                on_axis += usize::from((d - w).abs() < eps);
                zeros += usize::from(d < eps);
            }
            if on_axis == 1 && zeros == 2 {
                out.push(o);
            }
        }
        out
    }

    #[test]
    fn neighbor_index_matches_the_scan() {
        for level in 0..=6 {
            let t = Octree::build(level);
            for id in 0..t.len() {
                assert_eq!(t.leaf_neighbors(id), scan_neighbors(&t, id), "level {level} node {id}");
            }
        }
    }

    #[test]
    fn neighbor_count_is_pinned_at_level_six() {
        let t = Octree::build(6);
        let total: usize = t.leaves().iter().map(|&l| t.leaf_neighbors(l).len()).sum();
        assert_eq!(total, 47_262);
    }

    #[test]
    fn neighbors_are_symmetric_and_bounded() {
        let t = Octree::build(6);
        for &l in t.leaves() {
            let nb = t.leaf_neighbors(l);
            assert!(nb.len() <= 6);
            for &o in nb {
                assert!(t.leaf_neighbors(o).contains(&l), "neighbor relation must be symmetric");
            }
        }
    }

    #[test]
    fn mass_is_positive_and_deterministic() {
        let t1 = Octree::build(3);
        let t2 = Octree::build(3);
        assert_eq!(t1.total_mass(), t2.total_mass());
        assert!(t1.total_mass() > t1.leaves().len() as f64 * 0.99);
    }
}
