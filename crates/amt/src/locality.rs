//! A locality: one simulated node of the HPX runtime — worker cores, task
//! queue, background work, and the plumbing into the parcelport.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use simcore::recorder::{self, MarkKind};
use simcore::{CoreClock, CostModel, EventHandler, EventId, HandlerId, Sim, SimResource, SimTime};

use telemetry::profile::POLL;
use telemetry::{CoreState, TrackKey};

use crate::action::{ActionId, ActionRegistry};
use crate::parcel::Parcel;
use crate::parcel_layer::{ParcelLayer, ParcelLayerConfig};
use crate::sched::{IdleBackoff, Task, WorkerConfig};
use crate::serialize::HpxMessage;
use crate::{BgOutcome, DeliverFn, OnSent, Parcelport};

/// Scheduler state of one locality.
struct SchedState {
    queue: VecDeque<Task>,
    /// The shared task-queue cache lines (HPX scheduler contention).
    queue_res: SimResource,
    cores: Vec<CoreClock>,
    /// Per-core armed-tick marker; `SimTime::NEVER` when the core sleeps.
    armed: Vec<SimTime>,
    /// The pending tick event per core, for rescheduling in place.
    armed_ev: Vec<Option<EventId>>,
    backoff: Vec<IdleBackoff>,
    tasks_spawned: u64,
    tasks_run: u64,
    wake_rr: usize,
}

/// Typed-event tags carried in the low bits of the handler argument word.
const EV_TICK: u64 = 0;
const EV_DELIVER: u64 = 1;
const EV_FLUSH: u64 = 2;
const EV_TAG_MASK: u64 = 0b11;

#[inline]
fn tick_arg(core: usize) -> u64 {
    EV_TICK | ((core as u64) << 2)
}

#[inline]
fn deliver_arg(slot: usize) -> u64 {
    EV_DELIVER | ((slot as u64) << 2)
}

#[inline]
fn flush_arg(core: usize, dest: usize) -> u64 {
    debug_assert!(dest < (1 << 31), "destination id too large to encode");
    EV_FLUSH | ((dest as u64) << 2) | ((core as u64) << 33)
}

/// A delivery parked between the parcelport upcall and its decode task.
struct PendingDeliver {
    core: usize,
    msg: HpxMessage,
}

/// Slab of in-flight deliveries, indexed by the event argument word.
#[derive(Default)]
struct DeliverSlab {
    entries: Vec<Option<PendingDeliver>>,
    free: Vec<u32>,
}

impl DeliverSlab {
    fn insert(&mut self, pd: PendingDeliver) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = Some(pd);
                slot as usize
            }
            None => {
                self.entries.push(Some(pd));
                self.entries.len() - 1
            }
        }
    }

    fn take(&mut self, slot: usize) -> PendingDeliver {
        let pd = self.entries[slot].take().expect("delivery fired twice");
        self.free.push(slot as u32);
        pd
    }
}

/// One simulated node running the AMT runtime.
///
/// All interior mutability is host-single-threaded (`RefCell`); simulated
/// concurrency is expressed through virtual time and [`SimResource`]s.
pub struct Locality {
    /// This locality's id (== its netsim node id).
    pub id: usize,
    /// The shared cost model.
    pub cost: Rc<CostModel>,
    cfg: WorkerConfig,
    sched: RefCell<SchedState>,
    registry: RefCell<ActionRegistry>,
    layer: RefCell<ParcelLayer>,
    parcelport: RefCell<Option<Rc<RefCell<dyn Parcelport>>>>,
    /// Self-reference for registering as an event handler.
    weak: Weak<Locality>,
    /// Typed-event handler id, registered lazily on first use. A locality
    /// drives exactly one `Sim` over its lifetime.
    handler: Cell<Option<HandlerId>>,
    pending: RefCell<DeliverSlab>,
}

impl Locality {
    /// Create a locality with `cfg` cores and the given registry snapshot.
    pub fn new(
        id: usize,
        cost: Rc<CostModel>,
        cfg: WorkerConfig,
        registry: ActionRegistry,
        layer_cfg: ParcelLayerConfig,
    ) -> Rc<Self> {
        let transfer = cost.cacheline_transfer;
        let sched = SchedState {
            queue: VecDeque::new(),
            queue_res: SimResource::new("amt.task_queue", transfer),
            cores: (0..cfg.cores).map(CoreClock::new).collect(),
            armed: vec![SimTime::NEVER; cfg.cores],
            armed_ev: vec![None; cfg.cores],
            backoff: (0..cfg.cores)
                .map(|_| IdleBackoff::new(cost.idle_poll.max(50), cfg.max_idle_backoff_ns))
                .collect(),
            tasks_spawned: 0,
            tasks_run: 0,
            wake_rr: 0,
        };
        Rc::new_cyclic(|weak| Locality {
            id,
            cfg,
            sched: RefCell::new(sched),
            registry: RefCell::new(registry),
            layer: RefCell::new(ParcelLayer::new(layer_cfg, &cost)),
            parcelport: RefCell::new(None),
            cost,
            weak: weak.clone(),
            handler: Cell::new(None),
            pending: RefCell::new(DeliverSlab::default()),
        })
    }

    /// This locality's typed-event handler id, registering on first use.
    fn handler_id(&self, sim: &mut Sim) -> HandlerId {
        match self.handler.get() {
            Some(h) => h,
            None => {
                let rc = self.weak.upgrade().expect("locality alive");
                let h = sim.register_handler(rc);
                self.handler.set(Some(h));
                h
            }
        }
    }

    /// Worker configuration.
    pub fn worker_config(&self) -> &WorkerConfig {
        &self.cfg
    }

    /// Install the parcelport and wire its delivery upcall back to this
    /// locality.
    pub fn set_parcelport(self: &Rc<Self>, pp: Rc<RefCell<dyn Parcelport>>) {
        let weak = Rc::downgrade(self);
        let deliver: DeliverFn = Rc::new(move |sim, core, at, src, msg| {
            if let Some(loc) = weak.upgrade() {
                loc.deliver(sim, core, at, src, msg);
            }
        });
        pp.borrow_mut().set_deliver(deliver);
        *self.parcelport.borrow_mut() = Some(pp);
    }

    /// The installed parcelport, if any.
    pub fn parcelport(&self) -> Option<Rc<RefCell<dyn Parcelport>>> {
        self.parcelport.borrow().clone()
    }

    /// Sample the run-queue depth as counter track `loc{id}.runq` (the
    /// queue is only read when a collector is installed; the name is
    /// rendered at export).
    fn sample_runq(&self, sim: &Sim) {
        telemetry::with(|tel| {
            let depth = self.sched.borrow().queue.len();
            tel.track_sample(TrackKey::indexed("loc", self.id, ".runq"), sim.now(), depth as f64);
        });
    }

    /// Access the action registry.
    pub fn with_registry<R>(&self, f: impl FnOnce(&ActionRegistry) -> R) -> R {
        f(&self.registry.borrow())
    }

    /// Access the parcel layer (tests/metrics).
    pub fn with_layer<R>(&self, f: impl FnOnce(&mut ParcelLayer) -> R) -> R {
        f(&mut self.layer.borrow_mut())
    }

    /// Tasks executed so far.
    pub fn tasks_run(&self) -> u64 {
        self.sched.borrow().tasks_run
    }

    /// Tasks spawned so far.
    pub fn tasks_spawned(&self) -> u64 {
        self.sched.borrow().tasks_spawned
    }

    /// Tasks waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.sched.borrow().queue.len()
    }

    /// Busy-time utilization of core `core` over `[0, now]`.
    pub fn core_utilization(&self, core: usize, now: SimTime) -> f64 {
        self.sched.borrow().cores[core].utilization(now)
    }

    /// Kick every core once; call after wiring the parcelport.
    pub fn start(self: &Rc<Self>, sim: &mut Sim) {
        let now = sim.now();
        for core in 0..self.cfg.cores {
            self.arm(sim, core, now);
        }
    }

    /// Arm a tick for `core` at `at` (deduplicated: keeps the earliest).
    ///
    /// A core has at most one live tick event. Arming earlier than the
    /// pending tick *reschedules* it in place — re-sequenced exactly as a
    /// freshly scheduled event would be — instead of the old scheme of
    /// scheduling a second event and letting the first fire as a stale
    /// no-op. The heap never carries dead tick events.
    pub fn arm(self: &Rc<Self>, sim: &mut Sim, core: usize, at: SimTime) {
        let at = at.max(sim.now());
        let h = self.handler_id(sim);
        let pending = {
            let mut s = self.sched.borrow_mut();
            let cur = s.armed[core];
            if cur <= at {
                sim.stats.bump("amt.arm_dedup");
                return; // an earlier (or equal) tick is already pending
            }
            s.armed[core] = at;
            s.armed_ev[core]
        };
        sim.stats.bump("amt.arm_scheduled");
        match pending {
            Some(ev) => {
                let live = sim.reschedule(ev, at);
                debug_assert!(live, "armed tick event must be pending");
            }
            None => {
                let ev = sim.schedule_event_at(at, h, tick_arg(core));
                self.sched.borrow_mut().armed_ev[core] = Some(ev);
            }
        }
    }

    /// Spawn a task; wakes sleeping workers.
    pub fn spawn(self: &Rc<Self>, sim: &mut Sim, core: usize, task: Task) -> SimTime {
        let done = {
            let mut s = self.sched.borrow_mut();
            let done = s.queue_res.access(sim.now(), core, self.cost.task_spawn);
            s.queue.push_back(task);
            s.tasks_spawned += 1;
            done
        };
        sim.stats.bump("amt.spawn");
        self.sample_runq(sim);
        self.wake_workers(sim, done, 1);
        done
    }

    /// Wake up to `n` sleeping (unarmed, not busy) worker cores at `at`,
    /// round-robin — one notify per work item, not a broadcast, like a
    /// condition variable's `notify_one`.
    pub fn wake_workers(self: &Rc<Self>, sim: &mut Sim, at: SimTime, n: usize) {
        let first = self.cfg.first_worker();
        let mut idle: Vec<usize> = {
            let s = self.sched.borrow();
            (first..self.cfg.cores)
                .filter(|&c| s.armed[c] == SimTime::NEVER && s.cores[c].free_at <= at)
                .collect()
        };
        if idle.is_empty() {
            return;
        }
        let rot = {
            let mut s = self.sched.borrow_mut();
            let r = s.wake_rr;
            s.wake_rr = s.wake_rr.wrapping_add(n);
            r
        };
        let len = idle.len();
        idle.rotate_left(rot % len);
        for &c in idle.iter().take(n) {
            self.arm(sim, c, at);
        }
    }

    /// Arm the dedicated progress core (or all idle workers when there is
    /// none) at `at` — the NIC arrival waker target.
    pub fn wake_progress(self: &Rc<Self>, sim: &mut Sim, at: SimTime) {
        if self.cfg.dedicated_progress {
            // The pinned progress thread spins on the NIC: it reacts at
            // the arrival instant.
            self.arm(sim, 0, at);
        } else {
            // Worker threads poll opportunistically: they notice the
            // event one polling period later than a spinning thread.
            let skewed = at + self.cost.worker_poll_skew;
            recorder::mark("worker.poll_skew", MarkKind::Wait, at, skewed, 0);
            let at = skewed;
            self.wake_workers(sim, at, 1);
            // Ensure at least one worker will look even if all are busy:
            // the earliest-free worker checks right after it frees up.
            let first = self.cfg.first_worker();
            let best = {
                let s = self.sched.borrow();
                (first..self.cfg.cores).min_by_key(|&c| s.cores[c].free_at)
            };
            if let Some(c) = best {
                let free = self.sched.borrow().cores[c].free_at;
                self.arm(sim, c, free.max(at));
            }
        }
    }

    /// One core tick: run a task if available, otherwise background work.
    fn tick(self: Rc<Self>, sim: &mut Sim, core: usize) {
        let now = sim.now();
        let free_at = self.sched.borrow().cores[core].free_at;
        if free_at > now {
            self.arm(sim, core, free_at);
            return;
        }

        // The dedicated progress core only does communication progress.
        if self.cfg.dedicated_progress && core == 0 {
            self.progress_tick(sim);
            return;
        }

        // 1. Try to pop a task (charges the shared queue).
        let (task, t0) = {
            let mut s = self.sched.borrow_mut();
            if s.queue.is_empty() {
                let t = s.queue_res.access(now, core, self.cost.idle_poll);
                (None, t)
            } else {
                let t = s.queue_res.access(now, core, self.cost.task_schedule);
                (s.queue.pop_front(), t)
            }
        };

        if let Some(task) = task {
            let t_end = task(sim, &self, core).max(t0);
            telemetry::profile_record(self.id, core, CoreState::Working, "task", now, t_end);
            {
                let mut s = self.sched.borrow_mut();
                let charged = t_end - now;
                s.cores[core].charge(now, charged);
                s.tasks_run += 1;
                s.backoff[core].reset();
            }
            self.sample_runq(sim);
            self.arm(sim, core, t_end);
            return;
        }

        // 2. Idle: offer background work to the parcelport.
        let bg = self.run_background(sim, core, t0);
        let t_end = bg.cpu_done.max(t0);
        // Charged polling burns the core even when nothing was found —
        // that is exactly the time the profiler must surface for the
        // every-worker-polls parcelports.
        let bg_label = if bg.did_work { "background" } else { POLL };
        telemetry::profile_record(self.id, core, CoreState::Progress, bg_label, now, t_end);
        {
            let mut s = self.sched.borrow_mut();
            let charged = t_end - now;
            s.cores[core].charge(now, charged);
        }
        if bg.wake_workers {
            self.wake_workers(sim, t_end, bg.completions.max(1));
        }
        if bg.did_work {
            self.sched.borrow_mut().backoff[core].reset();
            self.arm(sim, core, t_end);
        } else {
            // Nothing anywhere: back off, or sleep entirely and rely on
            // spawn / NIC wakeups.
            let queue_nonempty = !self.sched.borrow().queue.is_empty();
            if queue_nonempty {
                self.arm(sim, core, t_end);
                return;
            }
            let delay = self.sched.borrow_mut().backoff[core].next();
            match bg.retry_at {
                Some(r) => {
                    let at = r.max(t_end).min(t_end + delay);
                    self.arm(sim, core, at);
                }
                None => { /* sleep until woken */ }
            }
        }
    }

    /// Tick body for the dedicated progress core.
    fn progress_tick(self: &Rc<Self>, sim: &mut Sim) {
        let now = sim.now();
        let bg = {
            let pp = self.parcelport.borrow().clone();
            match pp {
                Some(pp) => {
                    let out = pp.borrow_mut().progress(sim, 0);
                    out
                }
                None => BgOutcome::idle(now),
            }
        };
        let t_end = bg.cpu_done.max(now);
        let label = if bg.did_work { "progress" } else { POLL };
        telemetry::profile_record(self.id, 0, CoreState::Progress, label, now, t_end);
        self.sched.borrow_mut().cores[0].charge(now, t_end - now);
        if bg.wake_workers {
            self.wake_workers(sim, t_end, bg.completions.max(1));
        }
        if bg.did_work {
            self.arm(sim, 0, t_end);
        } else if let Some(r) = bg.retry_at {
            self.arm(sim, 0, r.max(t_end));
        }
        // else: sleep; the NIC arrival waker re-arms core 0.
    }

    fn run_background(self: &Rc<Self>, sim: &mut Sim, core: usize, t0: SimTime) -> BgOutcome {
        let pp = self.parcelport.borrow().clone();
        match pp {
            Some(pp) => {
                let wrapper = self.cost.amt_background_work;
                let mut out = pp.borrow_mut().background_work(sim, core);
                out.cpu_done = out.cpu_done.max(t0) + wrapper;
                out
            }
            None => BgOutcome::idle(t0),
        }
    }

    /// Enqueue a parcel for `dest` (full upper-layer path: parcel queue +
    /// connection cache, or send-immediate). Returns when the calling
    /// core is done.
    pub fn put_parcel(
        self: &Rc<Self>,
        sim: &mut Sim,
        core: usize,
        dest: usize,
        parcel: Parcel,
    ) -> SimTime {
        ParcelLayer::put_parcel(self, sim, core, dest, parcel)
    }

    /// Convenience: invoke `action` on `dest` with `args`.
    pub fn send_action(
        self: &Rc<Self>,
        sim: &mut Sim,
        core: usize,
        dest: usize,
        action: ActionId,
        args: Vec<bytes::Bytes>,
    ) -> SimTime {
        self.put_parcel(sim, core, dest, Parcel::new(action, args))
    }

    /// Hand a message to the parcelport (used by the parcel layer).
    pub(crate) fn pp_put_message(
        self: &Rc<Self>,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        dest: usize,
        msg: HpxMessage,
        on_sent: Option<OnSent>,
    ) -> SimTime {
        let pp = self.parcelport.borrow().clone().expect("no parcelport installed");
        telemetry::counter_add_at("amt.messages_put", 1, at.max(sim.now()));
        telemetry::hist_record_at("amt.msg_bytes", msg.total_bytes() as u64, at.max(sim.now()));
        let t = pp.borrow_mut().put_message(sim, core, at, dest, msg, on_sent);
        sim.stats.bump("amt.messages_put");
        t
    }

    /// Delivery upcall: a complete HPX message arrived from `src` and was
    /// fully handled at virtual time `at`. Parks the message in the
    /// delivery slab and schedules a typed event (no allocation beyond the
    /// slab slot) that spawns the decode task at `at`.
    pub fn deliver(
        self: &Rc<Self>,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        src: usize,
        msg: HpxMessage,
    ) {
        sim.stats.bump("amt.messages_delivered");
        let _ = src;
        telemetry::counter_add_at("amt.messages_delivered", 1, at.max(sim.now()));
        telemetry::flow_mark_many(&msg.flows, telemetry::stage::DELIVER, at.max(sim.now()));
        // Counter track of cumulative deliveries (all localities share the
        // thread-local collector, so one track covers the world). The
        // flows guard keeps the disabled path allocation-free.
        if !msg.flows.is_empty() {
            telemetry::with(|tel| {
                let n = tel.with_metrics(|m| m.counter("amt.messages_delivered"));
                tel.track_sample(TrackKey::name("amt.delivered"), at.max(sim.now()), n as f64);
            });
        }
        let h = self.handler_id(sim);
        let slot = self.pending.borrow_mut().insert(PendingDeliver { core, msg });
        sim.schedule_event_at(at.max(sim.now()), h, deliver_arg(slot));
    }

    /// Schedule a parcel-queue flush for `dest` at `at` (the close of a
    /// drain window) as a typed event.
    pub(crate) fn schedule_flush(
        self: &Rc<Self>,
        sim: &mut Sim,
        core: usize,
        dest: usize,
        at: SimTime,
    ) {
        let h = self.handler_id(sim);
        sim.schedule_event_at(at, h, flush_arg(core, dest));
    }

    /// Body of a fired delivery event: spawn the decode task.
    fn spawn_decode(self: &Rc<Self>, sim: &mut Sim, pd: PendingDeliver) {
        let PendingDeliver { core, msg } = pd;
        let decode_cost = self.cost.amt_decode_base + self.cost.serialize(msg.non_zero_copy.len());
        let per_parcel = self.cost.amt_decode_per_parcel;
        let dispatch = self.cost.amt_action_dispatch;
        self.spawn(
            sim,
            core,
            Box::new(move |sim, loc, core| {
                telemetry::flow_set_dst_core(&msg.flows, core);
                telemetry::flow_mark_many(&msg.flows, telemetry::stage::SPAWN, sim.now());
                let mut t = sim.now() + decode_cost;
                let parcels = msg.decode();
                for p in parcels {
                    let handler = loc.with_registry(|r| r.handler(p.action));
                    t += per_parcel + dispatch;
                    // The action observes `t` as its start time via charge
                    // accounting: it returns its own end time, measured
                    // from `sim.now()`; we add our offset before running.
                    let end = handler(sim, loc, core, p);
                    t = t.max(end);
                }
                t
            }),
        );
    }
}

impl EventHandler for Locality {
    fn on_event(&self, sim: &mut Sim, arg: u64) {
        let this = self.weak.upgrade().expect("locality alive");
        // Everything nested under this event (parcelport calls, lock
        // acquires, fabric sends) belongs to this locality's cores.
        telemetry::profile_set_loc(self.id);
        match arg & EV_TAG_MASK {
            EV_TICK => {
                let core = (arg >> 2) as usize;
                {
                    let mut s = this.sched.borrow_mut();
                    s.armed[core] = SimTime::NEVER;
                    s.armed_ev[core] = None;
                }
                this.tick(sim, core);
            }
            EV_DELIVER => {
                let slot = (arg >> 2) as usize;
                let pd = this.pending.borrow_mut().take(slot);
                this.spawn_decode(sim, pd);
            }
            EV_FLUSH => {
                let core = (arg >> 33) as usize;
                let dest = ((arg >> 2) & 0x7FFF_FFFF) as usize;
                ParcelLayer::flush(&this, sim, core, dest);
            }
            _ => unreachable!("unknown event tag"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn locality(cfg: WorkerConfig) -> Rc<Locality> {
        Locality::new(
            0,
            Rc::new(CostModel::default()),
            cfg,
            ActionRegistry::new(),
            ParcelLayerConfig::default(),
        )
    }

    #[test]
    fn spawned_tasks_run_and_charge_time() {
        let mut sim = Sim::new(0);
        let loc = locality(WorkerConfig::workers_only(2));
        loc.start(&mut sim);
        let hits = Rc::new(std::cell::Cell::new(0));
        for _ in 0..5 {
            let h = hits.clone();
            loc.spawn(
                &mut sim,
                0,
                Box::new(move |sim, _loc, _core| {
                    h.set(h.get() + 1);
                    sim.now() + 1_000 // 1us of work
                }),
            );
        }
        sim.run();
        assert_eq!(hits.get(), 5);
        assert_eq!(loc.tasks_run(), 5);
        assert_eq!(loc.queue_depth(), 0);
        // 5us of work split over 2 workers: ~3us wall, >0 utilization.
        assert!(loc.core_utilization(0, sim.now()) > 0.0);
    }

    #[test]
    fn two_workers_run_in_parallel() {
        let mut sim = Sim::new(0);
        let loc = locality(WorkerConfig::workers_only(2));
        loc.start(&mut sim);
        for _ in 0..2 {
            loc.spawn(&mut sim, 0, Box::new(|sim, _l, _c| sim.now() + 10_000));
        }
        sim.run();
        // If serialized this would be >= 20us; parallel is ~10us.
        assert!(sim.now().as_nanos() < 15_000, "took {}", sim.now());
    }

    #[test]
    fn single_worker_serializes() {
        let mut sim = Sim::new(0);
        let loc = locality(WorkerConfig::workers_only(1));
        loc.start(&mut sim);
        for _ in 0..2 {
            loc.spawn(&mut sim, 0, Box::new(|sim, _l, _c| sim.now() + 10_000));
        }
        sim.run();
        assert!(sim.now().as_nanos() >= 20_000, "took {}", sim.now());
    }

    #[test]
    fn tasks_can_spawn_tasks() {
        let mut sim = Sim::new(0);
        let loc = locality(WorkerConfig::workers_only(2));
        loc.start(&mut sim);
        let hits = Rc::new(std::cell::Cell::new(0u32));
        let h = hits.clone();
        loc.spawn(
            &mut sim,
            0,
            Box::new(move |sim, loc, core| {
                let h2 = h.clone();
                loc.spawn(
                    sim,
                    core,
                    Box::new(move |sim, _l, _c| {
                        h2.set(h2.get() + 1);
                        sim.now()
                    }),
                );
                sim.now() + 100
            }),
        );
        sim.run();
        assert_eq!(hits.get(), 1);
        assert_eq!(loc.tasks_run(), 2);
    }

    #[test]
    fn sim_quiesces_when_idle() {
        let mut sim = Sim::new(0);
        let loc = locality(WorkerConfig::workers_only(4));
        loc.start(&mut sim);
        loc.spawn(&mut sim, 0, Box::new(|sim, _l, _c| sim.now() + 50));
        sim.run();
        // No runaway self-arming: the event heap drained.
        assert_eq!(sim.events_pending(), 0);
        // And a fresh spawn wakes the sleeping workers again.
        let hits = Rc::new(std::cell::Cell::new(false));
        let h = hits.clone();
        loc.spawn(
            &mut sim,
            0,
            Box::new(move |sim, _l, _c| {
                h.set(true);
                sim.now()
            }),
        );
        sim.run();
        assert!(hits.get());
    }

    #[test]
    fn collector_records_task_spans() {
        let mut sim = Sim::new(0);
        let loc = locality(WorkerConfig::workers_only(2));
        let tel = telemetry::enable();
        loc.start(&mut sim);
        loc.spawn(&mut sim, 0, Box::new(|sim, _l, _c| sim.now() + 2_000));
        sim.run();
        telemetry::disable();
        assert!(tel.span_count() > 0);
        let totals = tel.span_totals();
        assert_eq!(totals[0].0, "task");
        assert!(totals[0].1 >= 2_000);
        assert!(tel.chrome_trace_collected().contains("loc0/core"));
    }

    #[test]
    fn dedicated_progress_core_runs_no_tasks() {
        let mut sim = Sim::new(0);
        let loc = locality(WorkerConfig::with_progress(2));
        loc.start(&mut sim);
        let core_seen = Rc::new(std::cell::Cell::new(usize::MAX));
        let cs = core_seen.clone();
        loc.spawn(
            &mut sim,
            1,
            Box::new(move |sim, _l, core| {
                cs.set(core);
                sim.now() + 10
            }),
        );
        sim.run();
        assert_eq!(core_seen.get(), 1, "task must not run on the progress core");
    }
}
