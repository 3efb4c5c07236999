//! Host-time benchmark of the simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload msgrate_8b --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Repeats whole passes of the workload for `--seconds` seconds on this
//! one thread and reports medians over passes. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` alternates untraced and traced passes
//! and prints the per-layer metrics. `--repin` prints the workload's
//! pinned outputs at the default seed instead (redirect them into
//! `perfbench/pins/<workload>.txt` after a deliberate model change). The
//! last line of stdout is one JSON object with the result.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::trace::{Recorder, SimReport};
use perfbench::workload::{check_pins, render_pins, Workload, DEFAULT_SEED};
use perfbench::{alloc, fattree};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Passes a run makes at least, so every median has three samples.
const MIN_PASSES: usize = 3;

/// Largest share of a traced pass's wall time that may fall outside its
/// simulations' four phases before the phase partition counts as broken.
const MAX_RESIDUAL_FRAC: f64 = 0.02;

/// Distinct failures printed before the summary line.
const MAX_PRINTED_PROBLEMS: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    repin: bool,
}

const USAGE: &str = "usage: perfbench --workload msgrate_8b|octotiger_l6|fattree64_traced \
                     [--seed N] [--seconds N] [--trace 0|1] [--repin]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut repin) =
        (None, DEFAULT_SEED, 10, false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repin" => repin = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, traced, repin })
}

/// Process CPU time (all threads), via `clock_gettime`.
fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this builds for) that outlives
    // the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// One pass over every simulation of the workload.
struct Pass {
    wall: Duration,
    cpu: Duration,
    reports: Vec<SimReport>,
    rec: Recorder,
    /// Peak live heap during the pass, above the heap live at its start.
    peak_bytes: u64,
    /// Host time of the same simulation with telemetry off, for
    /// `telemetry.overhead_s` (traced fat-tree passes only).
    telemetry_off: Option<Duration>,
}

impl Pass {
    fn setup(&self) -> Duration {
        self.reports.iter().map(|r| r.phases.setup).sum()
    }

    fn phase_sum(&self, f: impl Fn(&SimReport) -> Duration) -> f64 {
        self.reports.iter().map(f).sum::<Duration>().as_secs_f64()
    }
}

fn run_pass(w: Workload, seed: u64, traced: bool) -> Pass {
    let mut rec = Recorder::new(traced);
    // Heap the benchmark itself holds (earlier passes' reports) is not
    // the pass's: peak counts from the live heap at its start.
    alloc::reset_peak();
    let base = alloc::live_bytes();
    let cpu0 = cpu_time();
    let t = Instant::now();
    let reports = w.pass(seed, &mut rec);
    let wall = t.elapsed();
    let cpu = cpu_time() - cpu0;
    let peak_bytes = alloc::peak_bytes() - base;
    let telemetry_off = (traced && w == Workload::Fattree64Traced).then(|| {
        let (_, off) = fattree::run(&fattree::workload_spec(seed, false), &mut Recorder::new(true));
        off.phases.setup + off.phases.run + off.phases.teardown
    });
    Pass { wall, cpu, peak_bytes, reports, rec, telemetry_off }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics of one traced pass; `untraced_wall` is the median
/// untraced pass wall of the same run.
fn layer_metrics(p: &Pass, untraced_wall: f64, untraced_cpu: f64) -> BTreeMap<&'static str, f64> {
    let rec = &p.rec;
    let events: u64 = p.reports.iter().map(|r| r.events).sum();
    let run_s = p.phase_sum(|r| r.phases.run);
    let send = rec.send_ns.as_ref().map(|h| h.borrow().clone()).unwrap_or_default();
    let family =
        |lci: bool| p.phase_sum(|r| if r.lci == lci { r.phases.total() } else { Duration::ZERO });
    let allocs = |f: fn(&SimReport) -> u64| p.reports.iter().map(f).sum::<u64>();
    let phases = p.phase_sum(|r| r.phases.total());
    let wall = p.wall.as_secs_f64();
    let tel_on = p.phase_sum(|r| r.phases.setup + r.phases.run + r.phases.teardown);
    let m: [(&'static str, f64); 46] = [
        ("simcore.events", events as f64),
        ("simcore.run_s", run_s),
        ("simcore.events_per_s", if run_s > 0.0 { events as f64 / run_s } else { 0.0 }),
        ("simcore.step_ns.p50", rec.step_ns.quantile_ns(0.5) as f64),
        ("simcore.step_ns.p99", rec.step_ns.quantile_ns(0.99) as f64),
        ("simcore.step_ns.p999", rec.step_ns.quantile_ns(0.999) as f64),
        ("simcore.pending_max", rec.pending_max as f64),
        ("amt.send_action_s", send.sum_s()),
        ("amt.send_action_ns.p50", send.quantile_ns(0.5) as f64),
        ("amt.send_action_ns.p99", send.quantile_ns(0.99) as f64),
        ("amt.spawn", rec.get("amt.spawn") as f64),
        ("amt.messages_delivered", rec.get("amt.messages_delivered") as f64),
        ("parcelport.build_world_s", rec.time_s("parcelport.build_world")),
        ("parcelport.drop_world_s", rec.time_s("parcelport.drop_world")),
        (
            "parcelport.send_retry_ratio",
            ratio(rec.get("lci_pp.send_retry"), rec.get("lci_pp.messages_posted")),
        ),
        ("lci.points_s", family(true)),
        ("lci.progress", rec.get("lci.progress") as f64),
        ("lci.pool_exhausted", rec.get("lci.pool_exhausted") as f64),
        ("mpisim.points_s", family(false)),
        ("mpisim.unexpected", rec.get("mpi.unexpected") as f64),
        ("mpisim.test_per_msg", ratio(rec.get("mpi.test"), rec.get("mpi_pp.messages_posted"))),
        ("netsim.sent", rec.get("net.sent") as f64),
        ("netsim.port_xmit_pkts", rec.get("ports.xmit_pkts") as f64),
        ("netsim.port_xmit_wait_ns", rec.get("ports.xmit_wait_ns") as f64),
        ("octotiger.tree_s", rec.time_s("octotiger.tree")),
        ("octotiger.partition_s", rec.time_s("octotiger.partition")),
        ("octotiger.state_s", rec.time_s("octotiger.state")),
        ("octotiger.leaves", rec.get("octotiger.leaves") as f64),
        ("telemetry.overhead_s", p.telemetry_off.map_or(0.0, |off| tel_on - off.as_secs_f64())),
        ("telemetry.capture_s", rec.time_s("telemetry.capture")),
        ("telemetry.critpath_s", rec.time_s("telemetry.critpath")),
        ("telemetry.json_s", rec.time_s("telemetry.json")),
        ("telemetry.flows", rec.get("telemetry.flows") as f64),
        ("telemetry.record_bytes", rec.get("telemetry.record_bytes") as f64),
        ("process.cpu_s", untraced_cpu),
        ("process.setup_allocs", allocs(|r| r.phases.setup_allocs) as f64),
        ("process.run_allocs_per_event", ratio(allocs(|r| r.phases.run_allocs), events)),
        ("trace.overhead_frac", wall / untraced_wall - 1.0),
        ("trace.wall_s", wall),
        ("trace.setup_s", p.phase_sum(|r| r.phases.setup)),
        ("trace.run_s", run_s),
        ("trace.teardown_s", p.phase_sum(|r| r.phases.teardown)),
        ("trace.post_s", p.phase_sum(|r| r.phases.post)),
        ("trace.residual_frac", (wall - phases) / wall),
        ("simcore.step_count", rec.step_ns.count() as f64),
        ("amt.send_action_count", send.count() as f64),
    ];
    m.into_iter().collect()
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    if args.repin {
        print!("{}", render_pins(&run_pass(w, DEFAULT_SEED, false).reports));
        return ExitCode::SUCCESS;
    }
    println!(
        "manifest {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"threads\":1,\"rustc\":\"{}\",\"git_rev\":\"{}\",\"profile\":\"{}\"}}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
        env!("PERFBENCH_PROFILE"),
    );

    // Passes until the time is up; a traced run alternates an untraced
    // pass (the overhead baseline) with a traced one.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while untraced.len() < MIN_PASSES || start.elapsed() < budget {
        untraced.push(run_pass(w, args.seed, false));
        if args.traced {
            traced.push(run_pass(w, args.seed, true));
        }
    }
    for (kind, passes) in [("untraced", &untraced), ("traced", &traced)] {
        for (i, p) in passes.iter().enumerate() {
            println!(
                "pass {kind} {i} wall_s={:.6} cpu_s={:.6} setup_s={:.6} peak_heap_mb={:.3}",
                p.wall.as_secs_f64(),
                p.cpu.as_secs_f64(),
                p.setup().as_secs_f64(),
                p.peak_bytes as f64 / 1e6
            );
        }
    }

    // Correctness: invariants always, pinned outputs at the default seed.
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for pass in untraced.iter_mut().chain(traced.iter_mut()) {
        if args.seed == DEFAULT_SEED {
            problems.extend(check_pins(w.pins(), &mut pass.reports));
        }
        for r in &pass.reports {
            attempted += 1;
            if !r.violations.is_empty() {
                failed += 1;
                problems.extend(r.violations.iter().cloned());
            }
        }
    }

    let untraced_wall = median(untraced.iter().map(|p| p.wall.as_secs_f64()).collect());
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.traced {
        let untraced_cpu = median(untraced.iter().map(|p| p.cpu.as_secs_f64()).collect());
        let per_pass: Vec<_> =
            traced.iter().map(|p| layer_metrics(p, untraced_wall, untraced_cpu)).collect();
        for (name, unit, _, moves) in PER_LAYER {
            let v = median(per_pass.iter().map(|m| m[name]).collect());
            println!("layer {name:<30} {v:>16.6} {unit:<6} moves {moves}");
            metrics.push((name, v, unit));
        }
        for m in &per_pass {
            if m["trace.residual_frac"] >= MAX_RESIDUAL_FRAC {
                problems.push(format!(
                    "traced pass phases leave {:.2}% of its wall time unaccounted",
                    m["trace.residual_frac"] * 100.0
                ));
            }
        }
    } else {
        let values = [
            untraced_wall,
            median(untraced.iter().map(|p| p.setup().as_secs_f64()).collect()),
            median(untraced.iter().map(|p| p.peak_bytes as f64 / 1e6).collect()),
        ];
        for ((name, unit), v) in END_TO_END.into_iter().zip(values) {
            println!("metric {name:<14} {v:>14.6} {unit}");
            metrics.push((name, v, unit));
        }
    }
    problems.sort();
    problems.dedup();
    for p in problems.iter().take(MAX_PRINTED_PROBLEMS) {
        println!("FAIL {p}");
    }
    let fail_frac = failed as f64 / attempted as f64;
    println!(
        "passes untraced={} traced={} simulations={attempted} failed={failed} fail_frac={fail_frac}",
        untraced.len(),
        traced.len()
    );

    let correct = problems.is_empty() && failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_num(*v))
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    ExitCode::SUCCESS
}
