//! The FMM-shaped step: M2M up-sweep, M2L neighbor exchange, L2L
//! down-sweep, and a completion reduction — all expressed as HPX actions.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use amt::action::{ActionId, ActionRegistry};
use amt::codec::{Reader, Writer};
use amt::Locality;
use bytes::Bytes;
use simcore::{Sim, SimTime};

use crate::octree::{NodeId, Octree};
use crate::sfc::Partition;

/// Virtual-time compute charges (ns) for the physics stand-ins.
#[derive(Debug, Clone)]
pub struct ComputeModel {
    /// Computing a leaf's multipole from its density field.
    pub leaf_multipole: u64,
    /// Aggregating one internal node's multipole (M2M kernel).
    pub m2m: u64,
    /// Applying one received neighbor multipole (M2L kernel).
    pub m2l: u64,
    /// Final leaf update once expansions are complete.
    pub leaf_update: u64,
    /// Hydro ghost-zone payload exchanged between face-adjacent leaves,
    /// bytes. Octo-Tiger's hydro solver ships subgrid boundary slabs —
    /// this is the application's large-message (zero-copy) traffic.
    /// Zero disables the hydro phase.
    pub ghost_bytes: usize,
    /// Hydro update once all ghost zones arrived.
    pub hydro_update: u64,
}

impl Default for ComputeModel {
    fn default() -> Self {
        // Chosen so that at small node counts compute dominates and at
        // larger node counts communication becomes the bottleneck —
        // the strong-scaling regime the paper studies. 12 KiB ghosts sit
        // above the 8 KiB zero-copy threshold, so the application mixes
        // small latency-bound FMM messages with zero-copy rendezvous
        // traffic — the "small and large messages" cocktail of §1.
        ComputeModel {
            leaf_multipole: 25_000,
            m2m: 4_000,
            m2l: 1_500,
            leaf_update: 12_000,
            ghost_bytes: 12 * 1024,
            hydro_update: 15_000,
        }
    }
}

/// Per-step, per-locality mutable state.
#[derive(Default)]
struct StepState {
    /// Internal node -> (children still missing, mass accum, weighted center).
    pending_children: HashMap<NodeId, (usize, f64, [f64; 3])>,
    /// Leaf -> neighbor multipoles still missing.
    pending_neighbors: HashMap<NodeId, usize>,
    /// Leaf -> hydro ghost zones still missing.
    pending_ghosts: HashMap<NodeId, usize>,
    /// Leaf -> received the L2L expansion.
    got_l2l: HashMap<NodeId, bool>,
    /// Leaves fully finished this step.
    leaves_done: usize,
}

/// Shared per-locality application state.
pub struct AppState {
    tree: Rc<Octree>,
    part: Rc<Partition>,
    me: usize,
    my_leaves: Vec<NodeId>,
    step: StepState,
    /// Locality-0 only: localities that reported completion this step.
    locs_done: usize,
    /// Locality-0 only: sum of reported leaf-mass checksums this step.
    mass_checksum: f64,
    /// Completed step count (driver reads this).
    pub steps_completed: u32,
    /// Steps to run.
    pub steps_target: u32,
    /// Root multipole mass observed each step (invariant check).
    pub last_root_mass: f64,
    /// Checksum invariant validity across all steps so far.
    pub mass_ok: bool,
    compute: ComputeModel,
    /// When the final step completed (locality 0).
    pub finished_at: SimTime,
}

/// Action ids bundled for the step driver.
#[derive(Debug, Clone, Copy)]
pub struct Actions {
    /// Begin a step on a locality.
    pub step_start: ActionId,
    /// Child multipole contribution to a parent.
    pub m2m: ActionId,
    /// Neighbor multipole contribution to a leaf.
    pub m2l: ActionId,
    /// Local expansion pushed down to a node.
    pub l2l: ActionId,
    /// Hydro ghost-zone slab for a leaf.
    pub ghost: ActionId,
    /// A locality finished all its leaves (to locality 0).
    pub loc_done: ActionId,
}

fn encode_m2m(node: NodeId, mass: f64, center: [f64; 3]) -> Bytes {
    let mut w = Writer::with_capacity(40);
    w.put_u64(node as u64);
    w.put_f64(mass);
    for c in center {
        w.put_f64(c);
    }
    w.finish()
}

fn decode_m2m(b: &[u8]) -> (NodeId, f64, [f64; 3]) {
    let mut r = Reader::new(b);
    let node = r.get_u64() as usize;
    let mass = r.get_f64();
    let center = [r.get_f64(), r.get_f64(), r.get_f64()];
    (node, mass, center)
}

/// Invoke an action on `dest`: remote via a parcel, local as a fresh task
/// (HPX local action semantics — no network, but still a task spawn).
fn invoke(
    sim: &mut Sim,
    loc: &Rc<Locality>,
    core: usize,
    dest: usize,
    action: ActionId,
    args: Vec<Bytes>,
) -> SimTime {
    if dest == loc.id {
        let handler = loc.with_registry(|r| r.handler(action));
        let parcel = amt::Parcel::new(action, args);
        let dispatch = loc.cost.amt_action_dispatch;
        loc.spawn(
            sim,
            core,
            Box::new(move |sim, loc, core| {
                let t = sim.now() + dispatch;
                handler(sim, loc, core, parcel).max(t)
            }),
        )
    } else {
        loc.send_action(sim, core, dest, action, args)
    }
}

impl AppState {
    fn fresh_step_state(&self) -> StepState {
        let mut pending_children = HashMap::new();
        for (id, n) in self.tree.nodes().iter().enumerate() {
            if !n.is_leaf() && self.part.owner(id) == self.me {
                pending_children.insert(id, (n.children.len(), 0.0, [0.0; 3]));
            }
        }
        let mut pending_neighbors = HashMap::new();
        let mut pending_ghosts = HashMap::new();
        let mut got_l2l = HashMap::new();
        let ghosts_on = self.compute.ghost_bytes > 0;
        for &l in &self.my_leaves {
            let nbrs = self.tree.leaf_neighbors(l).len();
            pending_neighbors.insert(l, nbrs);
            pending_ghosts.insert(l, if ghosts_on { nbrs } else { 0 });
            got_l2l.insert(l, false);
        }
        StepState { pending_children, pending_neighbors, pending_ghosts, got_l2l, leaves_done: 0 }
    }
}

/// Register the FMM actions over `states` (one [`AppState`] per locality,
/// indexed by locality id). Returns the action handles and stores them in
/// `actions_out`, where the action closures read them (the ids are
/// identical on every locality, like HPX's globally-agreed action ids).
pub fn register_actions(
    registry: &mut ActionRegistry,
    states: Rc<Vec<Rc<RefCell<AppState>>>>,
    actions_out: Rc<RefCell<Option<Actions>>>,
) -> Actions {
    let st = states.clone();
    let acts_cell = actions_out.clone();
    let step_start = registry.register("octo.step_start", move |sim, loc, core, _p| {
        // NOTE: per-step counters were already reset when this locality
        // finished its previous step (see `finish_leaf`) — resetting here
        // would race against early arrivals from faster localities.
        let state = st[loc.id].clone();
        let (leaves, leaf_cost) = {
            let s = state.borrow();
            (s.my_leaves.clone(), s.compute.leaf_multipole)
        };
        // One task per owned leaf: compute the multipole, then send M2M
        // to the parent and M2L to each neighbor.
        let mut t = sim.now();
        let acts = acts_cell.borrow().expect("actions registered");
        for leaf in leaves {
            let state = state.clone();
            t = loc.spawn(
                sim,
                core,
                Box::new(move |sim, loc, core| {
                    let mut t = sim.now() + leaf_cost;
                    let (tree, part, ghost_bytes) = {
                        let s = state.borrow();
                        (s.tree.clone(), s.part.clone(), s.compute.ghost_bytes)
                    };
                    let mass = tree.leaf_mass(leaf);
                    let center = tree.node(leaf).center;
                    let parent = tree.node(leaf).parent;
                    let payload = encode_m2m(parent, mass, center);
                    t = invoke(sim, loc, core, part.owner(parent), acts.m2m, vec![payload]).max(t);
                    for &nb in tree.leaf_neighbors(leaf) {
                        let payload = encode_m2m(nb, mass, center);
                        t = invoke(sim, loc, core, part.owner(nb), acts.m2l, vec![payload]).max(t);
                        if ghost_bytes > 0 {
                            // Hydro ghost slab: the leaf's boundary data
                            // for this neighbor (deterministic fill so
                            // receivers can sanity-check it).
                            let mut slab = vec![(leaf % 251) as u8; ghost_bytes];
                            slab[..8].copy_from_slice(&(nb as u64).to_le_bytes());
                            t = invoke(
                                sim,
                                loc,
                                core,
                                part.owner(nb),
                                acts.ghost,
                                vec![Bytes::from(slab)],
                            )
                            .max(t);
                        }
                    }
                    t
                }),
            );
        }
        t
    });

    let st = states.clone();
    let acts_cell = actions_out.clone();
    let m2m = registry.register("octo.m2m", move |sim, loc, core, p| {
        let state = st[loc.id].clone();
        let (node, mass, center) = decode_m2m(&p.args[0]);
        let mut t = sim.now();
        // Accumulate; if the node's multipole is now complete, pass it up
        // (or start the down-sweep at the root).
        let complete = {
            let mut s = state.borrow_mut();
            t += s.compute.m2m;
            let e = s
                .step
                .pending_children
                .get_mut(&node)
                .unwrap_or_else(|| panic!("m2m for non-owned node {node}"));
            e.0 -= 1;
            e.1 += mass;
            for (acc, c) in e.2.iter_mut().zip(center.iter()) {
                *acc += mass * c;
            }
            if e.0 == 0 {
                Some((e.1, e.2))
            } else {
                None
            }
        };
        if let Some((mass, wc)) = complete {
            let (tree, part) = {
                let s = state.borrow();
                (s.tree.clone(), s.part.clone())
            };
            let center = [wc[0] / mass, wc[1] / mass, wc[2] / mass];
            if node == 0 {
                // Root reached: record the invariant and broadcast L2L.
                let (l2l, children) = {
                    let mut s = state.borrow_mut();
                    s.last_root_mass = mass;
                    let expected = tree.total_mass();
                    if (mass - expected).abs() > 1e-6 * expected {
                        s.mass_ok = false;
                    }
                    (acts_cell.borrow().expect("actions").l2l, tree.node(0).children.clone())
                };
                for c in children {
                    let payload = encode_m2m(c, mass, center);
                    t = invoke(sim, loc, core, part.owner(c), l2l, vec![payload]).max(t);
                }
            } else {
                let parent = tree.node(node).parent;
                let m2m_id = acts_cell.borrow().expect("actions").m2m;
                let payload = encode_m2m(parent, mass, center);
                t = invoke(sim, loc, core, part.owner(parent), m2m_id, vec![payload]).max(t);
            }
        }
        t
    });

    let st = states.clone();
    let acts_cell = actions_out.clone();
    let m2l = registry.register("octo.m2l", move |sim, loc, core, p| {
        let state = st[loc.id].clone();
        let (leaf, _mass, _center) = decode_m2m(&p.args[0]);
        let mut t = sim.now();
        let ready = {
            let mut s = state.borrow_mut();
            t += s.compute.m2l;
            let e = s
                .step
                .pending_neighbors
                .get_mut(&leaf)
                .unwrap_or_else(|| panic!("m2l for non-owned leaf {leaf}"));
            *e -= 1;
            *e == 0 && s.step.got_l2l[&leaf] && s.step.pending_ghosts[&leaf] == 0
        };
        if ready {
            t = finish_leaf(sim, loc, core, &state, &acts_cell, t);
        }
        t
    });

    let st = states.clone();
    let acts_cell = actions_out.clone();
    let ghost = registry.register("octo.ghost", move |sim, loc, core, p| {
        let state = st[loc.id].clone();
        let leaf = u64::from_le_bytes(p.args[0][..8].try_into().expect("leaf id")) as usize;
        let mut t = sim.now();
        let ready = {
            let mut s = state.borrow_mut();
            t += s.compute.m2l; // unpack the slab into the subgrid halo
            let e = s
                .step
                .pending_ghosts
                .get_mut(&leaf)
                .unwrap_or_else(|| panic!("ghost for non-owned leaf {leaf}"));
            *e -= 1;
            *e == 0 && s.step.pending_neighbors[&leaf] == 0 && s.step.got_l2l[&leaf]
        };
        if ready {
            t = finish_leaf(sim, loc, core, &state, &acts_cell, t);
        }
        t
    });

    let st = states.clone();
    let acts_cell = actions_out.clone();
    let l2l = registry.register("octo.l2l", move |sim, loc, core, p| {
        let state = st[loc.id].clone();
        let (node, mass, center) = decode_m2m(&p.args[0]);
        let mut t = sim.now();
        let tree = state.borrow().tree.clone();
        if tree.node(node).is_leaf() {
            let ready = {
                let mut s = state.borrow_mut();
                *s.step.got_l2l.get_mut(&node).expect("l2l for non-owned leaf") = true;
                s.step.pending_neighbors[&node] == 0 && s.step.pending_ghosts[&node] == 0
            };
            if ready {
                t = finish_leaf(sim, loc, core, &state, &acts_cell, t);
            }
        } else {
            // Forward down the tree.
            let (part, children, l2l_id) = {
                let s = state.borrow();
                (
                    s.part.clone(),
                    tree.node(node).children.clone(),
                    acts_cell.borrow().expect("actions").l2l,
                )
            };
            t += state.borrow().compute.m2m;
            for c in children {
                let payload = encode_m2m(c, mass, center);
                t = invoke(sim, loc, core, part.owner(c), l2l_id, vec![payload]).max(t);
            }
        }
        t
    });

    let st = states.clone();
    let acts_cell = actions_out.clone();
    let loc_done = registry.register("octo.loc_done", move |sim, loc, core, p| {
        assert_eq!(loc.id, 0, "completion reduction targets locality 0");
        let state = st[0].clone();
        let mut r = Reader::new(&p.args[0]);
        let checksum = r.get_f64();
        let mut t = sim.now() + 200;
        let advance = {
            let mut s = state.borrow_mut();
            s.locs_done += 1;
            s.mass_checksum += checksum;
            if s.locs_done == s.part.localities() {
                let expected = s.tree.total_mass();
                if (s.mass_checksum - expected).abs() > 1e-6 * expected {
                    s.mass_ok = false;
                }
                s.locs_done = 0;
                s.mass_checksum = 0.0;
                s.steps_completed += 1;
                Some(s.steps_completed < s.steps_target)
            } else {
                None
            }
        };
        match advance {
            Some(true) => {
                // Kick the next step everywhere.
                let (locs, step_start) = {
                    let s = state.borrow();
                    (s.part.localities(), acts_cell.borrow().expect("actions").step_start)
                };
                for dest in 0..locs {
                    t = invoke(sim, loc, core, dest, step_start, vec![Bytes::new()]).max(t);
                }
            }
            Some(false) => {
                state.borrow_mut().finished_at = t;
            }
            None => {}
        }
        t
    });

    let actions = Actions { step_start, m2m, m2l, ghost, l2l, loc_done };
    *actions_out.borrow_mut() = Some(actions);
    actions
}

/// Final leaf update and completion accounting.
fn finish_leaf(
    sim: &mut Sim,
    loc: &Rc<Locality>,
    core: usize,
    state: &Rc<RefCell<AppState>>,
    actions: &RefCell<Option<Actions>>,
    mut t: SimTime,
) -> SimTime {
    let all_done = {
        let mut s = state.borrow_mut();
        t += s.compute.leaf_update;
        if s.compute.ghost_bytes > 0 {
            t += s.compute.hydro_update;
        }
        s.step.leaves_done += 1;
        s.step.leaves_done == s.my_leaves.len()
    };
    if all_done {
        let (checksum, loc_done) = {
            let mut s = state.borrow_mut();
            // This locality's step is quiescent: everything it will ever
            // receive for this step has arrived (the L2L gate guarantees
            // all M2M/M2L are consumed before any leaf finishes). Reset
            // NOW so early arrivals for the next step land in fresh
            // counters instead of racing the step_start broadcast.
            s.step = s.fresh_step_state();
            let sum: f64 = s.my_leaves.iter().map(|&l| s.tree.leaf_mass(l)).sum();
            (sum, actions.borrow().expect("actions").loc_done)
        };
        let mut w = Writer::with_capacity(8);
        w.put_f64(checksum);
        t = invoke(sim, loc, core, 0, loc_done, vec![w.finish()]).max(t);
    }
    t
}

impl AppState {
    /// Diagnostic snapshot of the current step's progress.
    pub fn debug_summary(&self) -> String {
        let pend_children: usize = self.step.pending_children.values().filter(|e| e.0 > 0).count();
        let pend_nbr: usize = self.step.pending_neighbors.values().filter(|&&n| n > 0).count();
        let pend_ghost: usize = self.step.pending_ghosts.values().filter(|&&n| n > 0).count();
        let missing_l2l = self.step.got_l2l.values().filter(|&&g| !g).count();
        format!(
            "leaves={} done={} pend_internal={} pend_nbr={} pend_ghost={} missing_l2l={} locs_done={}",
            self.my_leaves.len(),
            self.step.leaves_done,
            pend_children,
            pend_nbr,
            pend_ghost,
            missing_l2l,
            self.locs_done
        )
    }

    /// Build the per-locality states for a world of `localities`.
    pub fn build_all(
        tree: Rc<Octree>,
        part: Rc<Partition>,
        localities: usize,
        steps: u32,
        compute: ComputeModel,
    ) -> Rc<Vec<Rc<RefCell<AppState>>>> {
        let states: Vec<Rc<RefCell<AppState>>> = (0..localities)
            .map(|me| {
                let my_leaves: Vec<NodeId> =
                    tree.leaves().iter().copied().filter(|&l| part.owner(l) == me).collect();
                let mut s = AppState {
                    tree: tree.clone(),
                    part: part.clone(),
                    me,
                    my_leaves,
                    step: StepState::default(),
                    locs_done: 0,
                    mass_checksum: 0.0,
                    steps_completed: 0,
                    steps_target: steps,
                    last_root_mass: 0.0,
                    mass_ok: true,
                    compute: compute.clone(),
                    finished_at: SimTime::ZERO,
                };
                s.step = s.fresh_step_state();
                Rc::new(RefCell::new(s))
            })
            .collect();
        Rc::new(states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sfc::partition;

    #[test]
    fn debug_summary_reports_pending_ghosts() {
        let tree = Rc::new(Octree::build(2));
        let part = Rc::new(partition(&tree, 2));
        let states = AppState::build_all(tree.clone(), part, 2, 1, ComputeModel::default());
        let s = states[0].borrow();
        let waiting = s.my_leaves.iter().filter(|&&l| !tree.leaf_neighbors(l).is_empty()).count();
        assert!(waiting > 0);
        let summary = s.debug_summary();
        assert!(summary.contains(&format!(" pend_ghost={waiting} ")), "{summary}");
    }
}
