//! `plan-offline`: cold (uncached) schedule-table builds — the stereo
//! surveillance graph over 3 regimes under the bounded search budget its
//! tests use, and the color tracker over 4 regimes — then the Fig. 3
//! shaped simulator sweep, repeated for the measured seconds.
//!
//! Driven through `ScheduleTable::precompute_with_cache`,
//! `SimArena::simulate` and `cluster::sweep`. This is the only workload
//! that runs the branch-and-bound search or the simulator after set-up.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cds_core::legality::check_pipelined;
use cds_core::optimal::OptimalConfig;
use cds_core::table::ScheduleTable;
use cluster::{sweep, ClusterSpec, FrameClock, Metrics as SimMetrics, OnlineConfig, SweepConfig};
use taskgraph::{builders, AppState, Decomposition, Micros, TaskGraph};

use crate::kernels::{vision_panel, Reference};
use crate::live::{warm_table_s, Load, Loop, MIN_SCORE};
use crate::report::{self, derive, mean, mean_over, median, ms, percentile_over};
use crate::Outcome;

const TRACKER_REGIMES: [u32; 4] = [1, 2, 4, 8];
const SURVEILLANCE_REGIMES: [u32; 3] = [1, 2, 3];
/// Simulated configurations per sweep and frames per simulation.
const SWEEP_RUNS: usize = 120;
const SIM_FRAMES: u64 = 160;
/// Digitizer periods (ms) the sweep cycles through: dense around the
/// saturated knee of the Fig. 3 curve, sparse out to the unloaded end.
const PERIOD_GRID_MS: [u64; 12] = [33, 50, 66, 100, 150, 200, 300, 400, 600, 1000, 2500, 5000];
/// Set-ups timed before each cold build.
const SETUP_REPS_PER_STEP: usize = 25;
/// Frames of the paced scene the kernel timers and the serial reference
/// replay (this workload has no live stream of its own).
const REFERENCE_FRAMES: u64 = 60;

/// Everything the workload plans and simulates.
struct Inputs {
    tracker: TaskGraph,
    surveillance: TaskGraph,
    cluster: ClusterSpec,
    tracker_states: Vec<AppState>,
    surveillance_states: Vec<AppState>,
    template: OnlineConfig,
    periods: Vec<Micros>,
}

/// The surveillance graph's decomposition product is in the hundreds, so
/// it is searched under the bounded budget its tests use. Serial search
/// keeps the node count exact from run to run.
fn surveillance_search() -> OptimalConfig {
    OptimalConfig {
        max_nodes: 20_000,
        max_schedules: 4,
        ..OptimalConfig::default()
    }
    .serial()
}

impl Inputs {
    /// Build the graphs, the regimes and the sweep grid; each period is
    /// the grid point plus a seed-derived offset below 1 ms.
    fn new(seed: u64) -> Inputs {
        let tracker = builders::color_tracker();
        let t4 = tracker
            .task_by_name("Target Detection")
            .expect("the tracker graph defines T4");
        let mut template = OnlineConfig::new(
            FrameClock::new(Micros::from_millis(33), SIM_FRAMES),
            AppState::new(8),
        );
        template.decomposition.insert(t4, Decomposition::new(1, 8));
        template.channel_capacity = 3;
        template.warmup_frames = 4;
        template.quantum = Some(Micros::from_millis(20));
        template.trace_mode = cluster::TraceMode::Off;
        let periods = (0..SWEEP_RUNS)
            .map(|i| {
                let base = PERIOD_GRID_MS[i % PERIOD_GRID_MS.len()] * 1000;
                Micros(base + derive(seed, 100 + i as u64) % 1000)
            })
            .collect();
        Inputs {
            tracker,
            surveillance: builders::stereo_surveillance(),
            cluster: ClusterSpec::single_node(4),
            tracker_states: TRACKER_REGIMES.map(AppState::new).to_vec(),
            surveillance_states: SURVEILLANCE_REGIMES.map(AppState::new).to_vec(),
            template,
            periods,
        }
    }

    /// One sweep over the grid; each result carries its run's wall time.
    fn sweep(&self, cfg: SweepConfig) -> (Vec<(SimMetrics, Duration)>, Duration) {
        let out = sweep(cfg, self.periods.clone(), |arena, _, period| {
            let t0 = Instant::now();
            let mut cfg = self.template.clone();
            cfg.clock = FrameClock::new(period, SIM_FRAMES);
            let metrics = arena.simulate(&self.tracker, &self.cluster, &cfg).metrics;
            (metrics, t0.elapsed())
        });
        (out.results, out.stats.elapsed)
    }
}

fn same_results(a: &[(SimMetrics, Duration)], b: &[(SimMetrics, Duration)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0)
}

/// One cold (uncached) table build.
struct Build {
    table: ScheduleTable,
    secs: f64,
    nodes: u64,
}

impl Inputs {
    /// The builds of one round, in order, as `(graph name, graph, states,
    /// search)`: the color tracker's whole table, then the surveillance
    /// graph one regime at a time so that sweeps can run in between.
    fn steps(&self) -> Vec<(&'static str, &TaskGraph, Vec<AppState>, OptimalConfig)> {
        let mut steps = vec![(
            "color_tracker",
            &self.tracker,
            self.tracker_states.clone(),
            OptimalConfig::default().serial(),
        )];
        for s in &self.surveillance_states {
            steps.push((
                "stereo_surveillance",
                &self.surveillance,
                vec![*s],
                surveillance_search(),
            ));
        }
        steps
    }

    fn build(&self, graph: &TaskGraph, states: &[AppState], search: &OptimalConfig) -> Build {
        let t0 = Instant::now();
        let (table, stats) =
            ScheduleTable::precompute_with_cache(graph, &self.cluster, states, search, None);
        Build {
            table,
            secs: t0.elapsed().as_secs_f64(),
            nodes: stats.nodes_explored,
        }
    }
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::new(format!(
        "load rounds of cold tables (color_tracker {TRACKER_REGIMES:?}, then stereo_surveillance \
         {SURVEILLANCE_REGIMES:?} one regime at a time under a bounded budget), each followed by a \
         sweep of {SWEEP_RUNS} simulations x {SIM_FRAMES} frames, for {seconds} s"
    ));
    // Rounds of cold builds, each build preceded by set-ups and followed
    // by one parallel sweep, until the measured time is up: every figure
    // is sampled at many moments across the run (see `percentile_over`).
    let inp = Inputs::new(seed);
    let mut setup_s: Vec<Vec<f64>> = Vec::new();
    let mut plan_s = Vec::new();
    let mut search_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut nodes = 0;
    // The first serial sweep's results, which every later sweep must equal.
    let mut reference: Option<Vec<(SimMetrics, Duration)>> = None;
    let mut agree = true;
    // Simulation wall times of each serial sweep, in which one simulation
    // runs at a time. In the parallel sweep a simulation took 7 or 13 ms
    // depending on whether the other core was simulating too, and the
    // median sat between the two.
    let mut run_ms: Vec<Vec<f64>> = Vec::new();
    // Simulations per second of each parallel and each serial sweep.
    let (mut sweep_rate, mut serial_rate) = (Vec::new(), Vec::new());
    let mut rounds = 0usize;
    let t_run = Instant::now();
    while rounds == 0 || t_run.elapsed() < Duration::from_secs(seconds) {
        let (mut round_s, mut round_search, mut round_nodes) = (0.0, [0.0; 2], 0);
        report::heap_mark_mib();
        for (name, graph, states, search) in inp.steps() {
            setup_s.push(
                (0..SETUP_REPS_PER_STEP)
                    .map(|_| {
                        let t0 = Instant::now();
                        let fresh = black_box(Inputs::new(seed));
                        let dt = t0.elapsed().as_secs_f64();
                        drop(fresh);
                        dt
                    })
                    .collect(),
            );
            let b = inp.build(graph, &states, &search);
            round_s += b.secs;
            round_search[if name == "color_tracker" { 0 } else { 1 }] += b.secs;
            round_nodes += b.nodes;
            let legal = states
                .iter()
                .filter(|s| {
                    b.table
                        .get(s)
                        .is_some_and(|sched| check_pipelined(sched, graph, &inp.cluster).is_ok())
                })
                .count();
            out.check(
                format!(
                    "round {rounds} {name} {:?}: {legal}/{} schedules pass check_pipelined",
                    states.iter().map(|s| s.n_models).collect::<Vec<_>>(),
                    states.len()
                ),
                legal == states.len(),
            );
            out.attempted += states.len() as u64;
            out.failed += (states.len() - legal) as u64;

            let (parallel, elapsed) = inp.sweep(SweepConfig::new());
            sweep_rate.push(SWEEP_RUNS as f64 / elapsed.as_secs_f64());
            let (serial, serial_elapsed) = inp.sweep(SweepConfig::serial());
            serial_rate.push(SWEEP_RUNS as f64 / serial_elapsed.as_secs_f64());
            run_ms.push(serial.iter().map(|(_, d)| ms(*d)).collect());
            agree &= same_results(&parallel, &serial);
            match &reference {
                None => reference = Some(serial),
                Some(r) => agree &= same_results(r, &serial),
            }
        }
        plan_s.push(round_s);
        for (all, round) in search_s.iter_mut().zip(round_search) {
            all.push(round);
        }
        nodes = round_nodes;
        rounds += 1;
        out.heap_mib.push(report::heap_mark_mib());
    }
    let sweeps = run_ms.len();
    out.check(
        format!(
            "{sweeps} parallel and {sweeps} serial sweeps of {SWEEP_RUNS} equal the first \
             SweepConfig::serial() sweep"
        ),
        agree,
    );
    let simulations = (2 * sweeps * SWEEP_RUNS) as u64;
    out.attempted += simulations;
    if !agree {
        out.failed += simulations;
    }

    out.e2e.set("setup_s", mean_over(&setup_s, 50.0), "s");
    out.e2e.set("plan_s", mean(&plan_s), "s");
    out.e2e
        .set("latency_p50_ms", percentile_over(&run_ms, 50.0, 25.0), "ms");
    out.e2e
        .set("latency_p95_ms", percentile_over(&run_ms, 95.0, 25.0), "ms");
    out.e2e.set("throughput_per_s", median(&sweep_rate), "1/s");
    out.note(format!(
        "latency samples: {} simulator runs in {sweeps} serial sweeps over {rounds} rounds",
        sweeps * SWEEP_RUNS
    ));

    if trace {
        let layers = &mut out.layers;
        let (tracker_s, surveillance_s) = (median(&search_s[0]), median(&search_s[1]));
        layers.set("core.search.color_tracker_s", tracker_s, "s");
        layers.set("core.search.surveillance_s", surveillance_s, "s");
        layers.set("core.search.nodes", nodes as f64, "count");
        layers.set(
            "core.search.nodes_per_s",
            nodes as f64 / (tracker_s + surveillance_s),
            "1/s",
        );
        layers.set("core.table.warm_s", warm_table_s(), "s");
        let all_ms: Vec<f64> = run_ms.concat();
        layers.set("cluster.sim.run_ms", median(&all_ms), "ms");
        layers.set(
            "cluster.sweep.serial_runs_per_s",
            median(&serial_rate),
            "1/s",
        );
        // No live stream here: the kernels and the serial baseline are
        // timed on the `tracker-paced` scene of the same seed.
        let load = Load::new(Loop::Paced, seed, 10);
        vision_panel(&load.scene, REFERENCE_FRAMES, MIN_SCORE, layers);
        let r = Reference::new(&load.scene, REFERENCE_FRAMES, MIN_SCORE);
        layers.set("vision.serial_frame_ms", r.frame_ms(), "ms");
        layers.set("vision.serial_fps", 1e3 / r.frame_ms(), "1/s");
    }
    out
}
