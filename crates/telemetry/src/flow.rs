//! Parcel-lifecycle flow tracing.
//!
//! Each tracked parcel gets a *flow*: a timeline of timestamps through the
//! fixed stage sequence
//! `put → queue → serialize → inject → wire → match → deliver → spawn`
//! stitched across localities. The sender's parcelport registers the flow
//! ids of a message out-of-band under `(src, dst, tag_base)` at injection
//! time; the receiver's parcelport resolves the same key when it handles
//! the header — nothing is added to the simulated wire format, so enabling
//! tracing cannot perturb timing.
//!
//! Flow id 0 means "untracked": every mutator ignores it, so call sites
//! can mark unconditionally.

use std::collections::HashMap;

use simcore::SimTime;

/// Stage indices of the parcel lifecycle, in causal order.
pub mod stage {
    /// `put_parcel` entered on the sending locality.
    pub const PUT: usize = 0;
    /// Parcel queued behind the per-destination aggregation window.
    pub const QUEUE: usize = 1;
    /// Serialization/encode into an `HpxMessage`.
    pub const SERIALIZE: usize = 2;
    /// Message handed to the parcelport (`put_message`).
    pub const INJECT: usize = 3;
    /// Header packet arrived at the destination NIC.
    pub const WIRE: usize = 4;
    /// Header matched / popped from the completion queue by the receiver.
    pub const MATCH: usize = 5;
    /// Full message delivered to the destination locality.
    pub const DELIVER: usize = 6;
    /// Decode task started on a destination core.
    pub const SPAWN: usize = 7;
    /// Number of stages.
    pub const COUNT: usize = 8;
}

/// Stage display names, indexed by the `stage` constants.
pub const STAGE_NAMES: [&str; stage::COUNT] =
    ["put", "queue", "serialize", "inject", "wire", "match", "deliver", "spawn"];

/// Timestamp sentinel for "stage not reached".
pub const UNSET: u64 = u64::MAX;

/// One parcel's recorded lifecycle.
#[derive(Debug, Clone)]
pub struct FlowRec {
    /// Source locality.
    pub src: usize,
    /// Destination locality.
    pub dst: usize,
    /// Core that ran `put_parcel`.
    pub src_core: usize,
    /// Core that delivered/decoded (set at deliver time).
    pub dst_core: usize,
    /// Per-stage timestamps in ns ([`UNSET`] where not reached).
    pub stages: [u64; stage::COUNT],
    /// Causal node id of the event that delivered this parcel (0 when
    /// delivered outside event dispatch) — links the flow to the
    /// provenance graph so the critical path can highlight on-path
    /// parcels. Stamped by the collector ([`crate::Telemetry`]).
    pub deliver_node: u64,
}

impl FlowRec {
    /// Timestamp of `stage`, if recorded.
    pub fn at(&self, stage: usize) -> Option<u64> {
        let t = self.stages[stage];
        (t != UNSET).then_some(t)
    }

    /// Whether the flow reached the delivery stage.
    pub fn delivered(&self) -> bool {
        self.stages[stage::DELIVER] != UNSET
    }
}

/// Recorder of parcel flows plus the out-of-band route registry used to
/// stitch sender and receiver timelines together.
#[derive(Debug)]
pub struct FlowTracer {
    flows: Vec<FlowRec>,
    routes: HashMap<(usize, usize, u64), Vec<u64>>,
    /// Stop allocating new flows past this many (memory guard for long
    /// runs); marks on existing flows keep working.
    pub max_flows: usize,
}

impl Default for FlowTracer {
    fn default() -> Self {
        FlowTracer::new()
    }
}

impl FlowTracer {
    /// Create an empty tracer.
    pub fn new() -> Self {
        FlowTracer { flows: Vec::new(), routes: HashMap::new(), max_flows: 1 << 22 }
    }

    /// Start a flow for a parcel put on `src_core` of locality `src`,
    /// destined for `dst`. Returns the flow id (0 if the tracer is full).
    pub fn begin(&mut self, src: usize, dst: usize, src_core: usize, t: SimTime) -> u64 {
        if self.flows.len() >= self.max_flows {
            return 0;
        }
        let mut stages = [UNSET; stage::COUNT];
        stages[stage::PUT] = t.as_nanos();
        self.flows.push(FlowRec { src, dst, src_core, dst_core: 0, stages, deliver_node: 0 });
        self.flows.len() as u64
    }

    /// Record `stage` for flow `id` at `t`. First mark wins (retries keep
    /// the earliest entry into a stage); id 0 is ignored. Returns whether
    /// the stage was newly set (callers maintain in-flight counts on the
    /// first DELIVER mark only).
    pub fn mark(&mut self, id: u64, stage: usize, t: SimTime) -> bool {
        if id == 0 {
            return false;
        }
        let slot = &mut self.flows[id as usize - 1].stages[stage];
        if *slot == UNSET {
            *slot = t.as_nanos();
            true
        } else {
            false
        }
    }

    /// Record the causal node that delivered flow `id` (id 0 is ignored).
    pub fn set_deliver_node(&mut self, id: u64, node: u64) {
        if id != 0 {
            self.flows[id as usize - 1].deliver_node = node;
        }
    }

    /// Record the core that handled delivery for `ids`.
    pub fn set_dst_core(&mut self, ids: &[u64], core: usize) {
        for &id in ids {
            if id != 0 {
                self.flows[id as usize - 1].dst_core = core;
            }
        }
    }

    /// Sender side: associate `flows` with the message identified by
    /// `(src, dst, tag_base)` so the receiver can pick them up.
    pub fn register_route(&mut self, src: usize, dst: usize, tag_base: u64, flows: &[u64]) {
        if !flows.is_empty() {
            self.routes.insert((src, dst, tag_base), flows.to_vec());
        }
    }

    /// Receiver side: claim the flows registered for `(src, dst,
    /// tag_base)`. Empty if the sender registered nothing.
    pub fn take_route(&mut self, src: usize, dst: usize, tag_base: u64) -> Vec<u64> {
        self.routes.remove(&(src, dst, tag_base)).unwrap_or_default()
    }

    /// All recorded flows, in creation order.
    pub fn flows(&self) -> &[FlowRec] {
        &self.flows
    }

    /// Number of recorded flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_marks_in_order() {
        let mut f = FlowTracer::new();
        let id = f.begin(0, 1, 3, SimTime::from_nanos(100));
        assert_eq!(id, 1);
        f.mark(id, stage::SERIALIZE, SimTime::from_nanos(150));
        f.mark(id, stage::DELIVER, SimTime::from_nanos(900));
        f.set_dst_core(&[id], 5);
        let rec = &f.flows()[0];
        assert_eq!(rec.at(stage::PUT), Some(100));
        assert_eq!(rec.at(stage::SERIALIZE), Some(150));
        assert_eq!(rec.at(stage::QUEUE), None);
        assert!(rec.delivered());
        assert_eq!(rec.dst_core, 5);
    }

    #[test]
    fn first_mark_wins() {
        let mut f = FlowTracer::new();
        let id = f.begin(0, 1, 0, SimTime::ZERO);
        f.mark(id, stage::INJECT, SimTime::from_nanos(10));
        f.mark(id, stage::INJECT, SimTime::from_nanos(99));
        assert_eq!(f.flows()[0].at(stage::INJECT), Some(10));
    }

    #[test]
    fn id_zero_is_ignored() {
        let mut f = FlowTracer::new();
        f.mark(0, stage::PUT, SimTime::ZERO);
        f.set_deliver_node(0, 7);
        f.set_dst_core(&[0], 9);
        assert!(f.is_empty());
    }

    #[test]
    fn routes_stitch_sender_to_receiver() {
        let mut f = FlowTracer::new();
        let a = f.begin(0, 1, 0, SimTime::ZERO);
        let b = f.begin(0, 1, 0, SimTime::ZERO);
        f.register_route(0, 1, 42, &[a, b]);
        assert_eq!(f.take_route(0, 1, 42), vec![a, b]);
        // Claimed exactly once.
        assert!(f.take_route(0, 1, 42).is_empty());
        assert!(f.take_route(1, 0, 42).is_empty());
    }

    #[test]
    fn max_flows_caps_allocation() {
        let mut f = FlowTracer::new();
        f.max_flows = 1;
        assert_eq!(f.begin(0, 1, 0, SimTime::ZERO), 1);
        assert_eq!(f.begin(0, 1, 0, SimTime::ZERO), 0);
        assert_eq!(f.len(), 1);
    }
}
