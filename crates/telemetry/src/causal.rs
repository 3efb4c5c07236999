//! Causal provenance: who scheduled whom, and where the time went.
//!
//! The collector records one provenance node per executed event — *the
//! event that was executing when this event was scheduled* — and the
//! labeled time *marks* (lock wait, lock hold, resource service, wire
//! transit) that the contention primitives and the fabric attribute to
//! the executing event. Together these reconstruct the exact critical
//! path of a run (see [`crate::critpath`]): walk the parent chain
//! backwards from any event and carve each inter-event gap with the marks
//! owned by the earlier event.

use simcore::MarkKind;

/// One provenance node: an executed event.
#[derive(Debug, Clone, Copy)]
pub struct NodeRec {
    /// Virtual time (ns) at which the event fired.
    pub at: u64,
    /// Node id of the event that scheduled it (0 = scheduled outside any
    /// event, e.g. during setup).
    pub parent: u64,
}

/// One labeled time interval attributed to the event executing when it
/// was recorded.
#[derive(Debug, Clone, Copy)]
pub struct MarkRec {
    /// Owning node id (the event executing when the mark was emitted).
    pub owner: u64,
    /// Component label (lock/resource name, `"net.wire"`, ...).
    pub label: &'static str,
    /// Attribution category.
    pub kind: MarkKind,
    /// Interval start, ns.
    pub start: u64,
    /// Interval end, ns.
    pub end: u64,
    /// Fixed (scale-invariant) portion of the interval, ns — the wire
    /// latency for [`MarkKind::Wire`], 0 otherwise.
    pub fixed: u64,
}

/// Memory guard: stop recording past this many nodes or marks (a run this
/// long is not usefully analyzable anyway; the flag is reported).
const MAX_RECORDS: usize = 1 << 24;

/// The causal log: provenance nodes + time marks of one instrumented run.
#[derive(Debug, Default)]
pub struct CausalLog {
    /// Node id of `nodes[0]` (node ids are the Sim's 1-based executed
    /// counter; recording may start mid-run).
    base: u64,
    nodes: Vec<NodeRec>,
    marks: Vec<MarkRec>,
    truncated: bool,
    /// Node id of the event being dispatched (0 outside dispatch): the
    /// owner of any mark recorded now.
    current: u64,
}

impl CausalLog {
    /// Nodes recorded so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the memory guard cut recording short.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Node id of `nodes()[0]`.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Recorded nodes: `nodes()[i]` is node id `base() + i`.
    pub fn nodes(&self) -> &[NodeRec] {
        &self.nodes
    }

    /// Recorded marks, in emission order.
    pub fn marks(&self) -> &[MarkRec] {
        &self.marks
    }

    /// Node id of the event being dispatched (0 outside dispatch).
    pub fn current(&self) -> u64 {
        self.current
    }

    /// Event `node` begins dispatch at `at` ns, scheduled by `parent`.
    pub fn on_execute(&mut self, node: u64, at: u64, parent: u64) {
        self.current = node;
        if self.nodes.is_empty() {
            self.base = node;
        } else if node != self.base + self.nodes.len() as u64 {
            // A different Sim started under the same collector: the old
            // run's graph is complete, restart cleanly for the new one.
            self.nodes.clear();
            self.marks.clear();
            self.base = node;
        }
        if self.nodes.len() >= MAX_RECORDS {
            self.truncated = true;
            return;
        }
        self.nodes.push(NodeRec { at, parent });
    }

    /// Dispatch of the current event finished.
    pub fn end_execute(&mut self) {
        self.current = 0;
    }

    /// Record `[start, end]` against the executing event. Dropped outside
    /// dispatch and when the interval is empty.
    pub fn mark(&mut self, label: &'static str, kind: MarkKind, start: u64, end: u64, fixed: u64) {
        let owner = self.current;
        if owner == 0 || end <= start {
            return;
        }
        if self.marks.len() >= MAX_RECORDS {
            self.truncated = true;
            return;
        }
        self.marks.push(MarkRec { owner, label, kind, start, end, fixed });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_nodes_and_marks() {
        let mut log = CausalLog::default();
        log.on_execute(1, 100, 0);
        log.mark("lock", MarkKind::Hold, 100, 150, 0);
        log.on_execute(2, 200, 1);
        log.end_execute();
        // Outside dispatch: dropped.
        log.mark("late", MarkKind::Work, 200, 300, 0);
        // Empty interval: dropped.
        log.on_execute(3, 300, 2);
        log.mark("empty", MarkKind::Work, 300, 300, 0);
        assert_eq!(log.node_count(), 3);
        assert_eq!(log.marks().len(), 1);
        assert_eq!(log.base(), 1);
        assert_eq!(log.nodes()[1].parent, 1);
        assert_eq!(log.marks()[0].owner, 1);
        assert_eq!(log.marks()[0].label, "lock");
    }

    #[test]
    fn second_sim_rebases_the_log() {
        let mut log = CausalLog::default();
        log.on_execute(1, 10, 0);
        log.on_execute(2, 20, 1);
        // A fresh Sim's executed counter restarts from 1.
        log.on_execute(1, 5, 0);
        log.on_execute(2, 9, 1);
        log.on_execute(3, 12, 2);
        assert_eq!(log.node_count(), 3);
        assert_eq!(log.base(), 1);
        assert_eq!(log.nodes()[0].at, 5);
    }
}
