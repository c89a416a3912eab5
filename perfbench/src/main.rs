//! `perfbench` — the repository benchmark: one workload per invocation,
//! every metric printed by name with its unit, the program's outputs
//! checked, and one JSON result as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tracker-paced --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, measured with no tracing.
//! `--trace 1` runs the workload again with its task bodies wrapped and
//! the layers timed from outside, and reports the per-layer metrics.
//! `METRICS.md` lists every metric, the call it times, and the end-to-end
//! number it should move.

mod fleet;
mod kernels;
mod live;
mod plan;
mod report;

use std::time::Duration;

use report::Metrics;

#[global_allocator]
static ALLOC: report::CountingAlloc = report::CountingAlloc;

const USAGE: &str =
    "usage: perfbench --workload <tracker-paced|tracker-saturated|fleet-mixed|plan-offline> \
     --seed <n> --seconds <s> --trace <0|1>";

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "plan_s",
    "latency_p50_ms",
    "latency_p95_ms",
    "throughput_per_s",
    "peak_heap_mib",
];

/// The per-layer metrics every workload reports with `--trace 1`.
const PER_LAYER: [&str; 49] = [
    "vision.render_ms",
    "vision.histogram_ms",
    "vision.change_ms",
    "vision.ratio_lut_ms",
    "vision.detect_ms",
    "vision.peak_ms",
    "vision.serial_frame_ms",
    "vision.serial_fps",
    "runtime.digitizer.call_ms",
    "runtime.histogram.call_ms",
    "runtime.change.call_ms",
    "runtime.detect.call_ms",
    "runtime.peak.call_ms",
    "runtime.face.call_ms",
    "runtime.histogram.wait_ms",
    "runtime.change.wait_ms",
    "runtime.detect.wait_ms",
    "runtime.peak.wait_ms",
    "runtime.digitizer.lag_p95_ms",
    "runtime.pool.jobs_per_frame",
    "runtime.regime.switches",
    "runtime.health.skips",
    "runtime.health.chunk_recomputes",
    "runtime.buffers_created",
    "stm.frame.peak_live",
    "stm.color_model.peak_live",
    "stm.motion_mask.peak_live",
    "stm.back_projections.peak_live",
    "stm.model_locations.peak_live",
    "stm.peak_bytes",
    "stm.put_get_ns",
    "fleet.util_mean",
    "fleet.util_peak",
    "fleet.pool_jobs",
    "fleet.boost_ticks",
    "fleet.cache_searches",
    "fleet.cache_hits",
    "fleet.guaranteed_p95_ms",
    "fleet.besteffort_p95_ms",
    "fleet.worst_tenant_p95_ms",
    "fleet.deadline_misses",
    "core.search.color_tracker_s",
    "core.search.surveillance_s",
    "core.search.nodes",
    "core.search.nodes_per_s",
    "core.table.warm_s",
    "cluster.sim.run_ms",
    "cluster.sweep.serial_runs_per_s",
    "obs.trace_overhead_pct",
];

/// The workload that exercises each layer. A traced run of a workload
/// that does not exercise a layer takes that layer's metrics from a short
/// traced run of its owner, so every traced run reports every metric.
const OWNERS: [(&str, Workload); 6] = [
    ("runtime.", Workload::TrackerPaced),
    ("stm.", Workload::TrackerPaced),
    ("obs.", Workload::TrackerPaced),
    ("fleet.", Workload::FleetMixed),
    ("core.", Workload::PlanOffline),
    ("cluster.", Workload::PlanOffline),
];

/// Measured seconds of an owner's run inside another workload's traced run.
const OWNER_SECONDS: u64 = 8;

/// Wall-clock bound of one invocation. A run that exceeds it is reported
/// as failed instead of left to hang (`Fleet::finish` waits unbounded).
const RUN_BOUND: Duration = Duration::from_secs(150);

/// Busy time on every core before a run starts (see [`warm_up`]).
const WARM_UP: Duration = Duration::from_secs(1);

/// What one workload run produced.
pub struct Outcome {
    description: String,
    notes: Vec<String>,
    checks: Vec<(String, bool)>,
    /// Operations the run attempted (frames due, schedules, simulations).
    pub attempted: u64,
    /// Attempted operations that did not complete correctly.
    pub failed: u64,
    /// Heap each untraced pass (or round) needed, in MiB (see
    /// `report::heap_mark_mib`).
    pub heap_mib: Vec<f64>,
    pub e2e: Metrics,
    pub layers: Metrics,
}

impl Outcome {
    pub fn new(description: String) -> Outcome {
        Outcome {
            description,
            notes: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            heap_mib: Vec::new(),
            e2e: Metrics::default(),
            layers: Metrics::default(),
        }
    }

    /// Record one correctness check; any failed check fails the run.
    pub fn check(&mut self, what: String, ok: bool) {
        self.checks.push((what, ok));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    TrackerPaced,
    TrackerSaturated,
    FleetMixed,
    PlanOffline,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::TrackerPaced,
        Workload::TrackerSaturated,
        Workload::FleetMixed,
        Workload::PlanOffline,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::TrackerPaced => "tracker-paced",
            Workload::TrackerSaturated => "tracker-saturated",
            Workload::FleetMixed => "fleet-mixed",
            Workload::PlanOffline => "plan-offline",
        }
    }

    fn run(self, seed: u64, seconds: u64, trace: bool) -> Outcome {
        match self {
            Workload::TrackerPaced => live::run(live::Loop::Paced, seed, seconds, trace),
            Workload::TrackerSaturated => live::run(live::Loop::Saturated, seed, seconds, trace),
            Workload::FleetMixed => fleet::run(seed, seconds, trace),
            Workload::PlanOffline => plan::run(seed, seconds, trace),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds must be 1..=60, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Fail the run by name if it outlives [`RUN_BOUND`]. The thread is left
/// detached: it either exits the process or dies with it.
fn arm_watchdog(workload: &'static str) {
    let _detached = std::thread::spawn(move || {
        std::thread::sleep(RUN_BOUND);
        eprintln!("perfbench: workload {workload} exceeded its {RUN_BOUND:?} bound; failed");
        println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
        std::process::exit(3);
    });
}

/// Keep every core busy with tracker kernels for [`WARM_UP`] before any
/// timing: on an idle virtual host the first second of load runs slow
/// (measured: a 1 s backlog on the first run after 20 s idle, none after).
fn warm_up() {
    let scene = vision::Scene::demo(live::WIDTH, live::HEIGHT, 2, 0);
    let (frame, models) = (scene.render(0), scene.models());
    let hist = vision::image_histogram(&frame);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for _ in 0..cores {
            s.spawn(|| {
                while t0.elapsed() < WARM_UP {
                    std::hint::black_box(vision::detect::ratio_lut(&models[0], &hist));
                }
            });
        }
    });
}

/// Fill every per-layer metric the workload did not measure itself from a
/// short traced run of the layer's owner.
fn borrow_layers(out: &mut Outcome, seed: u64) {
    for owner in Workload::ALL {
        let missing: Vec<&str> = PER_LAYER
            .iter()
            .copied()
            .filter(|name| out.layers.get(name).is_none())
            .filter(|name| {
                OWNERS
                    .iter()
                    .any(|&(p, w)| w == owner && name.starts_with(p))
            })
            .collect();
        if missing.is_empty() {
            continue;
        }
        let run = owner.run(seed, OWNER_SECONDS, true);
        for name in missing {
            out.layers.take(&run.layers, name);
        }
        for (what, ok) in run.checks {
            out.check(format!("{} ({OWNER_SECONDS} s): {what}", owner.name()), ok);
        }
        out.note(format!(
            "layers owned by {} measured on its {OWNER_SECONDS} s traced run",
            owner.name()
        ));
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    arm_watchdog(args.workload.name());
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", report::host_line());
    warm_up();

    let ticks = report::cpu_ticks();
    let mut out = args.workload.run(args.seed, args.seconds, args.trace);
    if let (Some(start), Some(end)) = (ticks, report::cpu_ticks()) {
        out.note(format!(
            "host steal: {:.1}% of CPU time during the run",
            report::steal_pct(start, end)
        ));
    }
    if args.trace {
        borrow_layers(&mut out, args.seed);
    } else {
        let heap = if out.heap_mib.is_empty() {
            report::heap_mark_mib()
        } else {
            report::median(&out.heap_mib)
        };
        out.e2e.set("peak_heap_mib", heap, "MiB");
    }
    let (metrics, expected): (&Metrics, &[&str]) = if args.trace {
        (&out.layers, &PER_LAYER)
    } else {
        (&out.e2e, &END_TO_END)
    };
    let mut want: Vec<&str> = expected.to_vec();
    want.sort_unstable();
    let complete = metrics.names() == want && metrics.all_finite();
    out.check("every metric measured and finite".to_string(), complete);

    println!("{}", out.description);
    for line in &out.notes {
        println!("{line}");
    }
    for (what, ok) in &out.checks {
        println!("[{}] {what}", if *ok { "PASS" } else { "FAIL" });
    }
    if args.trace {
        for line in out.e2e.lines() {
            println!("untraced {line}");
        }
    }
    let metrics = if args.trace { &out.layers } else { &out.e2e };
    for line in metrics.lines() {
        println!("{line}");
    }
    let correct = out.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics.to_json()
    );
    std::process::exit(if correct { 0 } else { 1 });
}
