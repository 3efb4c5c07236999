//! The instrumentation slot: one optional per-thread [`Recorder`].
//!
//! Everything the simulator reports for observation goes through this
//! one slot: the [`Sim`] announces each executed event (its provenance
//! edge — *the event that was executing when this one was scheduled*),
//! the contention primitives ([`crate::SimLock`], [`crate::SimTryLock`],
//! [`crate::SimResource`]) report every acquisition or access in one
//! call, and the layers above annotate the executing event with labeled
//! time [`mark`]s (serialization, progress, wire transit). Nothing in
//! simcore consumes the data; the `telemetry` crate's collector is the
//! recorder that gets installed.
//!
//! The hooks are **pure observation**: a recorder must not touch the
//! simulation, and the emitting code never changes its timing based on
//! whether one is installed. With nothing installed every hook costs one
//! `Cell<bool>` read — no borrow, no dispatch, no allocation. The slot is
//! per thread, so each host thread can run its own `Sim` under its own
//! recorder.
//!
//! [`Sim`]: crate::Sim

use std::any::Any;
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

/// Receiver of everything the simulator reports for observation.
pub trait Recorder {
    /// A [`SimLock`](crate::SimLock) acquisition requested at `now` was
    /// granted after `wait_ns` (spin/park time, including the convoy
    /// handoff) and held for `hold_ns`.
    fn lock_wait(
        &self,
        name: &'static str,
        core: usize,
        now: SimTime,
        wait_ns: u64,
        hold_ns: u64,
        contended: bool,
    );

    /// A [`SimTryLock`](crate::SimTryLock) attempt at `now`. `hold_ns` is
    /// the charged critical section on success, 0 on failure.
    fn try_lock(&self, name: &'static str, now: SimTime, acquired: bool, hold_ns: u64);

    /// A [`SimResource`](crate::SimResource) access requested at `now`:
    /// `wait_ns` of queueing before service began, then `service_ns` of
    /// service (including any ownership-transfer penalty).
    fn resource_access(
        &self,
        name: &'static str,
        core: usize,
        now: SimTime,
        wait_ns: u64,
        service_ns: u64,
        transferred: bool,
    );

    /// Event `node` (the [`Sim`](crate::Sim)'s 1-based executed counter)
    /// begins dispatch at `at` ns; `parent` is the node that scheduled it
    /// (0 = scheduled outside any event).
    fn on_execute(&self, node: u64, at: u64, parent: u64);

    /// Dispatch of the current event finished.
    fn end_execute(&self);

    /// A labeled time interval `[start, end]` attributed to the event
    /// currently executing.
    fn mark(&self, label: &'static str, kind: MarkKind, start: SimTime, end: SimTime, fixed: u64);

    /// The concrete recorder, for callers that need its own API.
    fn as_any(&self) -> &dyn Any;
}

thread_local! {
    static SLOT: RefCell<Option<Rc<dyn Recorder>>> = const { RefCell::new(None) };
    /// Mirrors `SLOT.is_some()`: the whole cost of a hook when nothing is
    /// installed.
    static ON: Cell<bool> = const { Cell::new(false) };
}

/// Install `r` as this thread's recorder, replacing any previous one.
pub fn install(r: Rc<dyn Recorder>) {
    SLOT.with(|s| *s.borrow_mut() = Some(r));
    ON.with(|on| on.set(true));
}

/// Remove the recorder, if any.
pub fn uninstall() {
    SLOT.with(|s| *s.borrow_mut() = None);
    ON.with(|on| on.set(false));
}

/// Whether a recorder is installed on this thread.
#[inline]
pub fn installed() -> bool {
    ON.with(|on| on.get())
}

/// Run `f` against the installed recorder; no-op when none is.
#[inline]
pub fn with(f: impl FnOnce(&dyn Recorder)) {
    if installed() {
        SLOT.with(|s| {
            if let Some(r) = s.borrow().as_deref() {
                f(r)
            }
        });
    }
}

/// Record a labeled time interval attributed to the executing event;
/// no-op when nothing is installed.
#[inline]
pub fn mark(label: &'static str, kind: MarkKind, start: SimTime, end: SimTime, fixed: u64) {
    with(|r| r.mark(label, kind, start, end, fixed));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts every call it receives.
    #[derive(Default)]
    struct Count(Cell<u64>);

    impl Count {
        fn bump(&self) {
            self.0.set(self.0.get() + 1);
        }
    }

    impl Recorder for Count {
        fn lock_wait(&self, _: &'static str, _: usize, _: SimTime, _: u64, _: u64, _: bool) {
            self.bump();
        }
        fn try_lock(&self, _: &'static str, _: SimTime, _: bool, _: u64) {
            self.bump();
        }
        fn resource_access(&self, _: &'static str, _: usize, _: SimTime, _: u64, _: u64, _: bool) {
            self.bump();
        }
        fn on_execute(&self, _: u64, _: u64, _: u64) {
            self.bump();
        }
        fn end_execute(&self) {
            self.bump();
        }
        fn mark(&self, _: &'static str, _: MarkKind, _: SimTime, _: SimTime, _: u64) {
            self.bump();
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn install_with_uninstall() {
        assert!(!installed());
        with(|_| panic!("no recorder installed"));
        mark("x", MarkKind::Work, SimTime::ZERO, SimTime::from_nanos(10), 0);
        let r = Rc::new(Count::default());
        install(r.clone());
        assert!(installed());
        with(|rec| rec.try_lock("x", SimTime::ZERO, true, 1));
        mark("x", MarkKind::Work, SimTime::ZERO, SimTime::from_nanos(10), 0);
        assert_eq!(r.0.get(), 2);
        uninstall();
        assert!(!installed());
        with(|_| panic!("recorder not removed"));
    }

    #[test]
    fn primitives_make_one_call_per_access() {
        let r = Rc::new(Count::default());
        install(r.clone());
        let mut lock = crate::SimLock::new("l", 10, 1);
        lock.acquire(0, SimTime::ZERO, 5);
        let mut tl = crate::SimTryLock::new("t");
        let _ = tl.try_acquire(SimTime::ZERO, 5);
        let _ = tl.try_acquire(SimTime::ZERO, 5);
        let mut res = crate::SimResource::new("r", 1);
        res.access(SimTime::ZERO, 0, 5);
        let mut sim = crate::Sim::new(0);
        sim.schedule_at(SimTime::from_nanos(1), |_| {});
        sim.run();
        uninstall();
        // 1 lock + 2 try-lock + 1 resource + one on/end pair for the event.
        assert_eq!(r.0.get(), 6);
    }
}
