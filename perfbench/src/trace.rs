//! What the benchmark records around its calls into the simulator's
//! layers: contiguous phase laps per simulation, and — in a traced run —
//! the host time of every `Sim::step` and every `send_action` the
//! benchmark's own tasks make. Nothing inside the crates is instrumented.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use parcelport::World;
use simcore::Sim;

use crate::alloc;

/// Log-linear histogram of nanosecond samples: exact below 128 ns, then
/// 64 sub-buckets per power of two (under 1.6% relative error).
#[derive(Debug, Clone)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
}

const LINEAR: u64 = 128;
const SUB_BITS: u32 = 6;

fn bucket(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // >= 7
    let sub = (v >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    (LINEAR + u64::from(e - 7) * (1 << SUB_BITS) + sub) as usize
}

fn bucket_floor(i: usize) -> u64 {
    let i = i as u64;
    if i < LINEAR {
        return i;
    }
    let e = (i - LINEAR) / (1 << SUB_BITS) + 7;
    let sub = (i - LINEAR) % (1 << SUB_BITS);
    ((1 << SUB_BITS) + sub) << (e - u64::from(SUB_BITS))
}

impl Default for Hist {
    fn default() -> Self {
        Hist { buckets: vec![0; bucket(u64::MAX) + 1], count: 0, sum_ns: 0 }
    }
}

impl Hist {
    /// Record one sample.
    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, seconds.
    pub fn sum_s(&self) -> f64 {
        self.sum_ns as f64 * 1e-9
    }

    /// Lower bound of the bucket holding quantile `q` (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_floor(i);
            }
        }
        unreachable!("rank {rank} exceeds count {}", self.count)
    }
}

/// Host time and allocations of one simulation, split into contiguous
/// phases: set-up (before the first event), run (the step loop),
/// teardown (reading results, dropping the world) and telemetry
/// post-processing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub setup: Duration,
    pub run: Duration,
    pub teardown: Duration,
    pub post: Duration,
    pub setup_allocs: u64,
    pub run_allocs: u64,
}

impl Phases {
    /// Sum of all four phases.
    pub fn total(&self) -> Duration {
        self.setup + self.run + self.teardown + self.post
    }
}

/// Contiguous lap timer: each call to a `*_done` method closes a phase
/// at the same instant the next one opens.
pub struct Laps {
    last: Instant,
    last_allocs: u64,
    pub phases: Phases,
}

impl Laps {
    /// Open the set-up phase now.
    pub fn start() -> Laps {
        Laps { last: Instant::now(), last_allocs: alloc::allocs(), phases: Phases::default() }
    }

    fn lap(&mut self) -> (Duration, u64) {
        let now = Instant::now();
        let allocs = alloc::allocs();
        let lap = (now - self.last, allocs - self.last_allocs);
        self.last = now;
        self.last_allocs = allocs;
        lap
    }

    pub fn setup_done(&mut self) {
        (self.phases.setup, self.phases.setup_allocs) = self.lap();
    }

    pub fn run_done(&mut self) {
        (self.phases.run, self.phases.run_allocs) = self.lap();
    }

    pub fn teardown_done(&mut self) {
        self.phases.teardown = self.lap().0;
    }

    pub fn post_done(&mut self) {
        self.phases.post = self.lap().0;
    }
}

/// What one simulation hands back to the pass runner.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// `config` or `config@rate`.
    pub label: String,
    /// Whether the parcelport is LCI (else MPI).
    pub lci: bool,
    pub phases: Phases,
    pub events: u64,
    /// Simulated outputs compared against the pins, as `(key, value)`.
    pub outputs: Vec<(String, String)>,
    /// Broken invariants (lost or duplicated parcels, deadline hit, ...).
    pub violations: Vec<String>,
}

/// Per-layer accumulator for one pass. Phase sub-times and the sim
/// stats tables are always collected (a handful of clock reads per
/// simulation); step and send timing only when `traced`.
#[derive(Default)]
pub struct Recorder {
    traced: bool,
    /// Host ns of each `Sim::step` (traced only).
    pub step_ns: Hist,
    /// Host ns of each benchmark-issued `send_action` (traced only).
    pub send_ns: Option<Rc<RefCell<Hist>>>,
    /// Largest pending-event count seen before a step (traced only).
    pub pending_max: usize,
    /// Accumulated host time by layer-function name.
    pub times: BTreeMap<&'static str, Duration>,
    /// Accumulated counts: every `sim.stats` counter plus the
    /// benchmark's own (`ports.*`, `octotiger.leaves`, `telemetry.*`).
    pub counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    pub fn new(traced: bool) -> Recorder {
        Recorder {
            traced,
            send_ns: traced.then(|| Rc::new(RefCell::new(Hist::default()))),
            ..Recorder::default()
        }
    }

    /// Run `f`, adding its host time under `key`.
    pub fn time<R>(&mut self, key: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        *self.times.entry(key).or_default() += t.elapsed();
        r
    }

    pub fn count(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_default() += n;
    }

    /// Fold a finished simulation's stats table into the counts.
    pub fn absorb_stats(&mut self, sim: &Sim) {
        for (k, v) in sim.stats.counters() {
            self.count(k, v);
        }
    }

    pub fn time_s(&self, key: &str) -> f64 {
        self.times.get(key).map_or(0.0, Duration::as_secs_f64)
    }

    pub fn get(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Step `world` exactly like [`World::run_while`]: until `pending`
    /// turns false, the queue drains, or `max_virtual_ns` of virtual time
    /// pass. Untraced runs call `World::run_while` itself; traced runs
    /// time each `Sim::step`.
    pub fn run_while(
        &mut self,
        world: &mut World,
        max_virtual_ns: u64,
        mut pending: impl FnMut(&Sim) -> bool,
    ) -> bool {
        if !self.traced {
            return world.run_while(max_virtual_ns, pending);
        }
        let deadline = world.sim.now() + max_virtual_ns;
        loop {
            if !pending(&world.sim) {
                return true;
            }
            if world.sim.now() >= deadline {
                return false;
            }
            self.pending_max = self.pending_max.max(world.sim.events_pending());
            let t = Instant::now();
            let more = world.sim.step();
            self.step_ns.record(t.elapsed());
            if !more {
                return !pending(&world.sim);
            }
        }
    }
}

/// A benchmark task's `send_action`, timed when a send histogram is
/// attached.
pub fn timed_send<R>(hist: &Option<Rc<RefCell<Hist>>>, send: impl FnOnce() -> R) -> R {
    match hist {
        None => send(),
        Some(h) => {
            let t = Instant::now();
            let r = send();
            h.borrow_mut().record(t.elapsed());
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut prev = 0;
        for v in (0..5_000u64).chain([1 << 20, (1 << 20) + 12_345, u64::MAX / 3]) {
            let i = bucket(v);
            assert!(i >= prev, "bucket index must not decrease at {v}");
            prev = i;
            let lo = bucket_floor(i);
            assert!(lo <= v && (v - lo) as f64 <= v as f64 / 64.0, "{v} -> floor {lo}");
        }
    }

    #[test]
    fn quantiles_pick_the_ranked_sample() {
        let mut h = Hist::default();
        for ns in 1..=1000u64 {
            h.record(Duration::from_nanos(ns));
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.quantile_ns(0.5), 500);
        let p99 = h.quantile_ns(0.99);
        assert!((980..=990).contains(&p99), "p99 {p99}");
        assert_eq!(Hist::default().quantile_ns(0.5), 0);
    }
}
