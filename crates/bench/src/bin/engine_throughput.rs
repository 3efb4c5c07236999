//! Wall-clock throughput of the event engine hot path.
//!
//! Unlike every other harness in this crate — which measures *simulated*
//! time — this one measures how fast the simulator itself executes
//! events on the host. It drives a fig1-shaped event mix (self-re-arming
//! per-core ticks, one-shot packet deliveries, a progress timeout that
//! moves on every tick) through two engines:
//!
//! * **baseline** — a self-contained replica of the seed engine: a
//!   `BinaryHeap` of boxed closures, no cancellation, so every timeout
//!   re-arm schedules a fresh event and leaves the stale one to fire as
//!   a dead no-op (exactly what `ParcelLayer`/`Locality` did before the
//!   indexed heap landed);
//! * **engine** — the current `simcore::Sim`: typed handler events on
//!   the indexed four-ary heap, timeout re-arms via `reschedule`.
//!
//! It reports wall-clock events/sec, simulated-ns advanced per wall-ms,
//! allocation counts, and peak heap for both, writes
//! `BENCH_engine.json`, and *fails* (exit 1) unless the current engine
//! clears 1.5x the baseline's logical throughput and executes the
//! steady-state hot path with zero allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use simcore::{EventHandler, EventId, HandlerId, Sim, SimTime};

// ---------------------------------------------------------------------
// Counting allocator: every heap alloc in the process goes through here.
// ---------------------------------------------------------------------

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        let live =
            LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Workload shape (identical logical work on both engines).
// ---------------------------------------------------------------------

/// Simulated cores, each with a self-re-arming tick (fig1's per-core
/// scheduler loop).
const ACTORS: usize = 64;
/// Logical ticks to execute in the measured phase.
const TICKS: u64 = 2_000_000;
/// Warmup ticks (grows heaps/slabs to steady state before measuring).
const WARMUP: u64 = 100_000;
/// Throughput the current engine must clear vs. baseline.
const THRESHOLD: f64 = 1.5;

/// Per-actor deterministic LCG; both engines draw the same deltas.
#[derive(Clone)]
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Delay until this actor's next tick, ns in [200, 1224).
    fn tick_delta(&mut self) -> u64 {
        200 + (self.next() & 1023)
    }

    /// Delay until the delivery spawned by a tick, ns in [50, 178):
    /// always lands before the next tick, so at most one is in flight
    /// per actor and the steady state never grows the queue.
    fn deliver_delta(&mut self) -> u64 {
        50 + (self.next() & 127)
    }
}

/// How far ahead each tick pushes its progress timeout (~23 ticks),
/// mirroring the parcel layer's flush-window timer: re-armed on every
/// tick, it only fires once the actor goes quiet.
const TIMEOUT_AHEAD: u64 = 16 * 1024;

// ---------------------------------------------------------------------
// Baseline: replica of the seed engine (BinaryHeap + boxed closures).
// ---------------------------------------------------------------------

struct OldEntry {
    at: u64,
    seq: u64,
    f: Box<dyn FnOnce(&mut OldSim)>,
}

impl PartialEq for OldEntry {
    fn eq(&self, o: &Self) -> bool {
        (self.at, self.seq) == (o.at, o.seq)
    }
}
impl Eq for OldEntry {}
impl PartialOrd for OldEntry {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for OldEntry {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(o.at, o.seq))
    }
}

/// The seed engine's scheduling core, reproduced verbatim in miniature:
/// one boxed closure per event, min-order via `Reverse`, no cancel.
struct OldSim {
    now: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<OldEntry>>,
    executed: u64,
}

impl OldSim {
    fn new() -> Self {
        OldSim { now: 0, seq: 0, queue: BinaryHeap::new(), executed: 0 }
    }

    fn schedule_at<F: FnOnce(&mut OldSim) + 'static>(&mut self, at: u64, f: F) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(OldEntry { at, seq, f: Box::new(f) }));
    }

    fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(Reverse(e)) => {
                self.now = e.at;
                self.executed += 1;
                (e.f)(self);
                true
            }
            None => false,
        }
    }
}

/// Shared per-actor state for the baseline run. `timeout_gen` implements
/// the seed's dedup-by-staleness: each re-arm bumps the generation and
/// schedules a fresh closure; stale generations fire as no-ops.
struct OldActor {
    rng: Lcg,
    ticks_done: u64,
    timeout_gen: u64,
    deliveries: u64,
    dead_events: u64,
}

fn run_baseline(ticks: u64) -> (u64, u64, u64, u64) {
    let actors: Rc<RefCell<Vec<OldActor>>> = Rc::new(RefCell::new(
        (0..ACTORS)
            .map(|i| OldActor {
                rng: Lcg(0x9E37_79B9_7F4A_7C15 ^ ((i as u64) << 17)),
                ticks_done: 0,
                timeout_gen: 0,
                deliveries: 0,
                dead_events: 0,
            })
            .collect(),
    ));
    let mut sim = OldSim::new();
    let budget = Rc::new(RefCell::new(ticks));
    for i in 0..ACTORS {
        let a = actors.clone();
        let b = budget.clone();
        sim.schedule_at(i as u64, move |s| old_tick(s, a, b, i));
    }
    while sim.step() {}
    let a = actors.borrow();
    let deliveries: u64 = a.iter().map(|x| x.deliveries).sum();
    let dead: u64 = a.iter().map(|x| x.dead_events).sum();
    (sim.executed, sim.now, deliveries, dead)
}

fn old_tick(
    sim: &mut OldSim,
    actors: Rc<RefCell<Vec<OldActor>>>,
    budget: Rc<RefCell<u64>>,
    i: usize,
) {
    {
        let mut b = budget.borrow_mut();
        if *b == 0 {
            return;
        }
        *b -= 1;
    }
    let (tick_d, deliver_d, gen) = {
        let mut a = actors.borrow_mut();
        let act = &mut a[i];
        act.ticks_done += 1;
        act.timeout_gen += 1;
        (act.rng.tick_delta(), act.rng.deliver_delta(), act.timeout_gen)
    };
    // Delivery: a fresh boxed one-shot per tick.
    let a2 = actors.clone();
    sim.schedule_at(sim.now + deliver_d, move |_s| {
        a2.borrow_mut()[i].deliveries += 1;
    });
    // Timeout re-arm, seed style: schedule a new boxed event and let the
    // stale one from the previous tick fire as a dead no-op.
    let a3 = actors.clone();
    sim.schedule_at(sim.now + TIMEOUT_AHEAD, move |_s| {
        let mut a = a3.borrow_mut();
        if a[i].timeout_gen != gen {
            a[i].dead_events += 1; // stale — the seed engine's waste
        }
    });
    // Next tick.
    let a4 = actors.clone();
    let b4 = budget.clone();
    sim.schedule_at(sim.now + tick_d, move |s| old_tick(s, a4, b4, i));
}

// ---------------------------------------------------------------------
// Current engine: typed handler events + reschedule on the 4-ary heap.
// ---------------------------------------------------------------------

const EV_TICK: u64 = 0;
const EV_DELIVER: u64 = 1;
const EV_TIMEOUT: u64 = 2;

struct NewActorState {
    rng: Lcg,
    ticks_done: u64,
    deliveries: u64,
    timeout: Option<EventId>,
    timeouts_fired: u64,
}

/// The whole workload as one `EventHandler`; the arg word encodes
/// `(actor << 2) | kind`, mirroring how `amt::Locality` tags its events.
struct NewWorkload {
    actors: RefCell<Vec<NewActorState>>,
    budget: RefCell<u64>,
    me: RefCell<Option<HandlerId>>,
}

impl NewWorkload {
    fn arg(actor: usize, kind: u64) -> u64 {
        ((actor as u64) << 2) | kind
    }
}

impl EventHandler for NewWorkload {
    fn on_event(&self, sim: &mut Sim, arg: u64) {
        let kind = arg & 0b11;
        let i = (arg >> 2) as usize;
        match kind {
            EV_TICK => {
                {
                    let mut b = self.budget.borrow_mut();
                    if *b == 0 {
                        return;
                    }
                    *b -= 1;
                }
                let h = self.me.borrow().expect("registered");
                let now = sim.now();
                let mut actors = self.actors.borrow_mut();
                let act = &mut actors[i];
                act.ticks_done += 1;
                let tick_d = act.rng.tick_delta();
                let deliver_d = act.rng.deliver_delta();
                let timeout = act.timeout;
                drop(actors);
                sim.schedule_event_at(now + deliver_d, h, Self::arg(i, EV_DELIVER));
                // Timeout re-arm: move the single live event instead of
                // abandoning a stale one.
                let moved = timeout.map(|ev| sim.reschedule(ev, now + TIMEOUT_AHEAD));
                if moved != Some(true) {
                    let ev =
                        sim.schedule_event_at(now + TIMEOUT_AHEAD, h, Self::arg(i, EV_TIMEOUT));
                    self.actors.borrow_mut()[i].timeout = Some(ev);
                }
                sim.schedule_event_at(now + tick_d, h, Self::arg(i, EV_TICK));
            }
            EV_DELIVER => {
                self.actors.borrow_mut()[i].deliveries += 1;
            }
            EV_TIMEOUT => {
                let mut actors = self.actors.borrow_mut();
                actors[i].timeout = None;
                actors[i].timeouts_fired += 1;
            }
            _ => unreachable!("unknown event tag"),
        }
    }
}

fn run_engine(ticks: u64) -> (Rc<NewWorkload>, Sim) {
    let wl = Rc::new(NewWorkload {
        actors: RefCell::new(
            (0..ACTORS)
                .map(|i| NewActorState {
                    rng: Lcg(0x9E37_79B9_7F4A_7C15 ^ ((i as u64) << 17)),
                    ticks_done: 0,
                    deliveries: 0,
                    timeout: None,
                    timeouts_fired: 0,
                })
                .collect(),
        ),
        budget: RefCell::new(ticks),
        me: RefCell::new(None),
    });
    let mut sim = Sim::new(1);
    let h = sim.register_handler(wl.clone());
    *wl.me.borrow_mut() = Some(h);
    for i in 0..ACTORS {
        sim.schedule_event_at(SimTime::from_nanos(i as u64), h, NewWorkload::arg(i, EV_TICK));
    }
    (wl, sim)
}

// ---------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------

struct Measured {
    events: u64,
    wall_ms: f64,
    events_per_sec: f64,
    ticks_per_sec: f64,
    sim_ns_per_wall_ms: f64,
    allocations: u64,
    alloc_bytes: u64,
}

fn measure<F: FnOnce() -> (u64, u64)>(ticks: u64, f: F) -> Measured {
    let a0 = allocs();
    let b0 = alloc_bytes();
    let t0 = Instant::now();
    let (events, sim_ns) = f();
    let wall = t0.elapsed();
    let wall_ms = wall.as_secs_f64() * 1e3;
    Measured {
        events,
        wall_ms,
        events_per_sec: events as f64 / wall.as_secs_f64(),
        ticks_per_sec: ticks as f64 / wall.as_secs_f64(),
        sim_ns_per_wall_ms: sim_ns as f64 / wall_ms,
        allocations: allocs() - a0,
        alloc_bytes: alloc_bytes() - b0,
    }
}

/// Measure one real workload (current engine only): wall-clock events/sec
/// and simulated-ns per wall-ms — the perf-trajectory numbers future
/// engine changes are compared against.
fn measure_workload<F: FnOnce() -> (u64, u64)>(f: F) -> Measured {
    measure(0, f)
}

fn json_workload_block(m: &Measured, alloc_ceiling: u64) -> String {
    format!(
        concat!(
            "{{\n",
            "    \"events_executed\": {},\n",
            "    \"wall_ms\": {:.3},\n",
            "    \"events_per_sec\": {:.0},\n",
            "    \"sim_ns_per_wall_ms\": {:.0},\n",
            "    \"allocations\": {},\n",
            "    \"alloc_ceiling\": {},\n",
            "    \"alloc_bytes\": {}\n",
            "  }}"
        ),
        m.events,
        m.wall_ms,
        m.events_per_sec,
        m.sim_ns_per_wall_ms,
        m.allocations,
        alloc_ceiling,
        m.alloc_bytes,
    )
}

fn json_block(m: &Measured) -> String {
    format!(
        concat!(
            "{{\n",
            "    \"events_executed\": {},\n",
            "    \"wall_ms\": {:.3},\n",
            "    \"events_per_sec\": {:.0},\n",
            "    \"logical_ticks_per_sec\": {:.0},\n",
            "    \"sim_ns_per_wall_ms\": {:.0},\n",
            "    \"allocations\": {},\n",
            "    \"alloc_bytes\": {}\n",
            "  }}"
        ),
        m.events,
        m.wall_ms,
        m.events_per_sec,
        m.ticks_per_sec,
        m.sim_ns_per_wall_ms,
        m.allocations,
        m.alloc_bytes,
    )
}

fn main() {
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "engine_throughput: {ACTORS} actors, {TICKS} logical ticks (+{WARMUP} warmup), \
         host CPUs: {host_cpus}"
    );
    println!();

    // --- baseline (seed engine replica) ---
    run_baseline(WARMUP); // warm the allocator's size classes
    let base = measure(TICKS, || {
        let (events, now, deliveries, dead) = run_baseline(TICKS);
        assert_eq!(deliveries, TICKS, "baseline workload self-check");
        assert!(dead > 0, "baseline must exhibit stale timeout events");
        (events, now)
    });

    // --- current engine ---
    // Warmup on the sim we will measure: grows the heap Vec, slot slab
    // and free list to steady state, so the measured phase reuses
    // storage instead of allocating. The budget is oversized so the
    // measured window stays in steady state (no end-of-run drain); the
    // drain happens after, unmeasured.
    let (wl, mut sim) = run_engine(WARMUP + TICKS + 8 * ACTORS as u64);
    while wl.actors.borrow().iter().map(|a| a.ticks_done).sum::<u64>() < WARMUP {
        sim.step();
    }
    let ticks_before: u64 = wl.actors.borrow().iter().map(|a| a.ticks_done).sum();
    let sim_ref = &mut sim;
    let hot_alloc_start = allocs();
    let mut eng = measure(TICKS, || {
        let start = sim_ref.events_executed();
        let t0 = sim_ref.now().as_nanos();
        // Steady state: exactly two events per logical tick (the tick
        // itself and the delivery it spawned; timeouts only move).
        for _ in 0..2 * TICKS {
            sim_ref.step();
        }
        (sim_ref.events_executed() - start, sim_ref.now().as_nanos() - t0)
    });
    let hot_allocs = allocs() - hot_alloc_start;
    let ticks_measured: u64 =
        wl.actors.borrow().iter().map(|a| a.ticks_done).sum::<u64>() - ticks_before;
    eng.ticks_per_sec = ticks_measured as f64 / (eng.wall_ms / 1e3);
    // Drain the tail (unmeasured) and self-check the workload.
    *wl.budget.borrow_mut() = 0;
    while sim.step() {}
    {
        let actors = wl.actors.borrow();
        let ticks: u64 = actors.iter().map(|a| a.ticks_done).sum();
        let deliveries: u64 = actors.iter().map(|a| a.deliveries).sum();
        let timeouts: u64 = actors.iter().map(|a| a.timeouts_fired).sum();
        assert_eq!(deliveries, ticks, "engine workload self-check");
        assert_eq!(timeouts, ACTORS as u64, "each actor's single timeout fires once");
        assert!(ticks_measured >= TICKS - ACTORS as u64 && ticks_measured <= TICKS + ACTORS as u64);
    }

    // --- real-workload trajectory points (current engine only) ---
    let fig1 = measure_workload(|| {
        let mut p = bench::MsgRateParams::small("lci_psr_cq_pin_i".parse().unwrap());
        p.total_msgs = 20_000;
        let r = bench::run_msgrate(&p);
        assert!(r.completed, "fig1-style workload must complete");
        (r.events_executed, r.comm_done.as_nanos())
    });
    let octo = measure_workload(|| {
        let mut p = octotiger_mini::OctoParams::expanse("lci_psr_cq_pin_i".parse().unwrap(), 4);
        p.level = 4;
        p.steps = 2;
        p.cores = 8;
        let r = octotiger_mini::run_octotiger(&p);
        assert!(r.completed, "octotiger workload must complete");
        (r.events_executed, r.total.as_nanos())
    });

    // Per-scenario allocation ceilings, pinned from the audited counts
    // (fig1: ~8 allocations/message after the zero-copy decode work —
    // args vec, encode writer+handle, header writer+handle, decode vecs,
    // one task box; octotiger: dominated by intrinsic per-leaf payload
    // encodes and task spawns). Headroom is ~25% over the measured value;
    // the pre-audit counts (281k / 434k) fail these ceilings.
    const FIG1_ALLOC_CEILING: u64 = 200_000;
    const OCTO_ALLOC_CEILING: u64 = 500_000;
    let workload_allocs_ok =
        fig1.allocations <= FIG1_ALLOC_CEILING && octo.allocations <= OCTO_ALLOC_CEILING;

    let speedup = eng.ticks_per_sec / base.ticks_per_sec;
    let zero_hot_allocs = hot_allocs == 0;
    let pass = speedup >= THRESHOLD && zero_hot_allocs && workload_allocs_ok;

    println!("baseline (BinaryHeap + boxed closures, stale timeouts):");
    println!("  events executed   {:>12}", base.events);
    println!("  wall              {:>12.1} ms", base.wall_ms);
    println!("  events/sec        {:>12.0}", base.events_per_sec);
    println!("  logical ticks/sec {:>12.0}", base.ticks_per_sec);
    println!("  allocations       {:>12}", base.allocations);
    println!();
    println!("engine (typed events + indexed 4-ary heap + reschedule):");
    println!("  events executed   {:>12}", eng.events);
    println!("  wall              {:>12.1} ms", eng.wall_ms);
    println!("  events/sec        {:>12.0}", eng.events_per_sec);
    println!("  logical ticks/sec {:>12.0}", eng.ticks_per_sec);
    println!("  allocations       {:>12}  (hot path: {hot_allocs})", eng.allocations);
    println!();
    println!("real workloads (current engine, trajectory):");
    println!(
        "  fig1-style 8B msgrate  {:>10.0} events/sec  {:>9.0} sim-ns/wall-ms  \
         {} allocs (ceiling {FIG1_ALLOC_CEILING})",
        fig1.events_per_sec, fig1.sim_ns_per_wall_ms, fig1.allocations
    );
    println!(
        "  octotiger-mini level 4 {:>10.0} events/sec  {:>9.0} sim-ns/wall-ms  \
         {} allocs (ceiling {OCTO_ALLOC_CEILING})",
        octo.events_per_sec, octo.sim_ns_per_wall_ms, octo.allocations
    );
    println!();
    println!("speedup (logical ticks/sec): {speedup:.2}x  (threshold {THRESHOLD}x)");
    println!("hot-path allocations: {hot_allocs} (must be 0)");
    println!(
        "workload allocation ceilings: {}",
        if workload_allocs_ok { "ok" } else { "EXCEEDED" }
    );
    println!("peak heap: {} bytes", peak_bytes());
    println!("result: {}", if pass { "PASS" } else { "FAIL" });

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"engine_throughput\",\n",
            "  \"host_cpus\": {},\n",
            "  \"actors\": {},\n",
            "  \"logical_ticks\": {},\n",
            "  \"baseline\": {},\n",
            "  \"engine\": {},\n",
            "  \"fig1_msgrate_8b\": {},\n",
            "  \"octotiger_level4\": {},\n",
            "  \"speedup_ticks_per_sec\": {:.3},\n",
            "  \"threshold\": {},\n",
            "  \"hot_path_allocations\": {},\n",
            "  \"peak_heap_bytes\": {},\n",
            "  \"pass\": {}\n",
            "}}\n"
        ),
        host_cpus,
        ACTORS,
        TICKS,
        json_block(&base),
        json_block(&eng),
        json_workload_block(&fig1, FIG1_ALLOC_CEILING),
        json_workload_block(&octo, OCTO_ALLOC_CEILING),
        speedup,
        THRESHOLD,
        hot_allocs,
        peak_bytes(),
        pass,
    );
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!();
    println!("wrote BENCH_engine.json");

    if !pass {
        std::process::exit(1);
    }
}
