//! Causal provenance capture: who scheduled whom, and where the time went.
//!
//! When a collector is installed (see [`install`]), the [`Sim`] records one
//! provenance edge per executed event — *the event that was executing when
//! this event was scheduled* — and the contention primitives
//! ([`crate::SimLock`], [`crate::SimTryLock`], [`crate::SimResource`]) and
//! the network fabric annotate the currently-executing event with labeled
//! time *marks* (lock wait, lock hold, resource service, wire transit).
//! Together these reconstruct the exact critical path of a run: walk the
//! parent chain backwards from any event and carve each inter-event gap
//! with the marks owned by the earlier event.
//!
//! Mirrors [`crate::probe`]: a thread-local optional collector, free
//! functions that no-op (one `Cell<bool>` read) when nothing is installed,
//! and **pure observation** when installed — recording never feeds back
//! into simulation timing.
//!
//! [`Sim`]: crate::Sim

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::time::SimTime;

/// What a time mark represents, for per-component attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkKind {
    /// Time spent waiting for a contended primitive (reported as
    /// `"<label>.wait"`).
    Wait,
    /// Time inside a lock's critical section.
    Hold,
    /// CPU service time (resource access, serialization, protocol work).
    Work,
    /// Network transit: injection + wire. `fixed` carries the
    /// bandwidth-independent latency portion.
    Wire,
}

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

#[derive(Debug)]
struct LogInner {
    /// Node id of `nodes[0]` (node ids are the Sim's 1-based executed
    /// counter; recording may start mid-run).
    base: u64,
    nodes: Vec<NodeRec>,
    marks: Vec<MarkRec>,
    truncated: bool,
}

/// The causal log: provenance nodes + time marks of one instrumented run.
#[derive(Debug)]
pub struct CausalLog {
    inner: RefCell<LogInner>,
}

impl CausalLog {
    /// A fresh, empty log.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Rc<CausalLog> {
        Rc::new(CausalLog {
            inner: RefCell::new(LogInner {
                base: 0,
                nodes: Vec::new(),
                marks: Vec::new(),
                truncated: false,
            }),
        })
    }

    /// Nodes recorded so far.
    pub fn node_count(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// Marks recorded so far.
    pub fn mark_count(&self) -> usize {
        self.inner.borrow().marks.len()
    }

    /// Whether the memory guard cut recording short.
    pub fn truncated(&self) -> bool {
        self.inner.borrow().truncated
    }

    /// Read access to the raw data: `f(base_node_id, nodes, marks)`.
    /// `nodes[i]` is node id `base + i`.
    pub fn with_data<R>(&self, f: impl FnOnce(u64, &[NodeRec], &[MarkRec]) -> R) -> R {
        let inner = self.inner.borrow();
        f(inner.base, &inner.nodes, &inner.marks)
    }

    fn on_execute(&self, node: u64, at: u64, parent: u64) {
        let mut inner = self.inner.borrow_mut();
        if inner.nodes.is_empty() {
            inner.base = node;
        } else if node != inner.base + inner.nodes.len() as u64 {
            // A different Sim started under the same collector: the old
            // run's graph is complete, restart cleanly for the new one.
            inner.nodes.clear();
            inner.marks.clear();
            inner.base = node;
        }
        if inner.nodes.len() >= MAX_RECORDS {
            inner.truncated = true;
            return;
        }
        inner.nodes.push(NodeRec { at, parent });
    }

    fn mark(
        &self,
        owner: u64,
        label: &'static str,
        kind: MarkKind,
        start: u64,
        end: u64,
        fixed: u64,
    ) {
        let mut inner = self.inner.borrow_mut();
        if inner.marks.len() >= MAX_RECORDS {
            inner.truncated = true;
            return;
        }
        inner.marks.push(MarkRec { owner, label, kind, start, end, fixed });
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Rc<CausalLog>>> = const { RefCell::new(None) };
    /// Fast-path flag mirroring `ACTIVE.is_some()`: the per-event and
    /// per-mark overhead when no collector is installed is one read here.
    static INSTALLED: Cell<bool> = const { Cell::new(false) };
    /// Node id of the event currently being dispatched (0 outside
    /// dispatch) — the owner of any mark emitted right now.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Install `log` as this thread's causal collector.
pub fn install(log: Rc<CausalLog>) {
    ACTIVE.with(|a| *a.borrow_mut() = Some(log));
    INSTALLED.with(|i| i.set(true));
}

/// Remove the collector (recording stops; no-op if none installed).
pub fn uninstall() {
    ACTIVE.with(|a| *a.borrow_mut() = None);
    INSTALLED.with(|i| i.set(false));
    CURRENT.with(|c| c.set(0));
}

/// Whether a collector is installed.
#[inline]
pub fn installed() -> bool {
    INSTALLED.with(|i| i.get())
}

/// Node id of the event currently being dispatched (0 when idle or when
/// no collector is installed). Lets observers — e.g. the flow tracer —
/// associate their own records with provenance nodes.
#[inline]
pub fn current_node() -> u64 {
    CURRENT.with(|c| c.get())
}

/// Called by the [`Sim`](crate::Sim) as event `node` (its 1-based executed
/// counter) begins dispatch at `at` ns, scheduled by `parent`.
#[inline]
pub fn on_execute(node: u64, at: u64, parent: u64) {
    CURRENT.with(|c| c.set(node));
    ACTIVE.with(|a| {
        if let Some(log) = a.borrow().as_ref() {
            log.on_execute(node, at, parent);
        }
    });
}

/// Called by the [`Sim`](crate::Sim) when dispatch of the current event
/// finishes.
#[inline]
pub fn end_execute() {
    CURRENT.with(|c| c.set(0));
}

/// Record a labeled time interval `[start, end]` attributed to the
/// currently executing event. No-op when no collector is installed, when
/// emitted outside event dispatch, or when the interval is empty.
#[inline]
pub fn mark(label: &'static str, kind: MarkKind, start: SimTime, end: SimTime, fixed: u64) {
    if !installed() {
        return;
    }
    let owner = current_node();
    if owner == 0 || end <= start {
        return;
    }
    ACTIVE.with(|a| {
        if let Some(log) = a.borrow().as_ref() {
            log.mark(owner, label, kind, start.as_nanos(), end.as_nanos(), fixed);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_collector_is_inert() {
        uninstall();
        assert!(!installed());
        assert_eq!(current_node(), 0);
        // Must not panic or record anywhere.
        mark("x", MarkKind::Work, SimTime::ZERO, SimTime::from_nanos(10), 0);
    }

    #[test]
    fn records_nodes_and_marks() {
        let log = CausalLog::new();
        install(log.clone());
        on_execute(1, 100, 0);
        mark("lock", MarkKind::Hold, SimTime::from_nanos(100), SimTime::from_nanos(150), 0);
        on_execute(2, 200, 1);
        end_execute();
        // Outside dispatch: dropped.
        mark("late", MarkKind::Work, SimTime::from_nanos(200), SimTime::from_nanos(300), 0);
        // Empty interval: dropped.
        on_execute(3, 300, 2);
        mark("empty", MarkKind::Work, SimTime::from_nanos(300), SimTime::from_nanos(300), 0);
        uninstall();
        assert_eq!(log.node_count(), 3);
        assert_eq!(log.mark_count(), 1);
        log.with_data(|base, nodes, marks| {
            assert_eq!(base, 1);
            assert_eq!(nodes[1].parent, 1);
            assert_eq!(marks[0].owner, 1);
            assert_eq!(marks[0].label, "lock");
        });
    }

    #[test]
    fn second_sim_rebases_the_log() {
        let log = CausalLog::new();
        install(log.clone());
        on_execute(1, 10, 0);
        on_execute(2, 20, 1);
        // A fresh Sim's executed counter restarts from 1.
        on_execute(1, 5, 0);
        on_execute(2, 9, 1);
        on_execute(3, 12, 2);
        uninstall();
        assert_eq!(log.node_count(), 3);
        log.with_data(|base, nodes, _| {
            assert_eq!(base, 1);
            assert_eq!(nodes[0].at, 5);
        });
    }
}
