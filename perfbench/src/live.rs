//! The single-tracker workloads.
//!
//! * `tracker-paced` — an open loop: the digitizer renders at a fixed
//!   25 fps whatever the pipeline does, and frame `ts` is due at
//!   `epoch + ts * period`. The scene's population steps 1 → 3 a third of
//!   the way in, so the regime controller switches exactly once. Below
//!   capacity, latency is the per-frame critical path.
//! * `tracker-saturated` — a closed loop: period 0, so the digitizer runs
//!   as fast as capacity-8 flow control admits and latency becomes
//!   queueing (the paper's Fig. 3 pathology).
//!
//! Both are driven only through `TrackerApp::build_with_scene` and
//! `OnlineExecutor::run`. Frame instants come from wrapping task bodies
//! before the run: the untraced pass wraps only the digitizer and the
//! sink; the traced pass wraps all six bodies.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cds_core::optimal::OptimalConfig;
use cds_core::persist::ScheduleCache;
use cds_core::table::{ScheduleTable, TableBuildStats};
use cluster::ClusterSpec;
use runtime::{
    tasks::Stop, OnlineExecutor, RegimeController, RuntimeHealth, TaskBody, TrackerApp,
    TrackerConfig,
};
use stm::Timestamp;
use taskgraph::{builders, AppState, TaskGraph, TaskId};
use vision::{BackendKind, ModelLocation, Scene};

use crate::kernels::{stm_put_get_ns, vision_panel, Reference};
use crate::report::{
    self, derive, mean_over, median, median_secs, ms, percentile, percentile_over, Metrics,
};
use crate::Outcome;

pub const WIDTH: usize = 160;
pub const HEIGHT: usize = 120;
const TARGETS: usize = 3;
const POOL_WORKERS: usize = 2;
const CHANNEL_CAPACITY: usize = 8;
/// Open-loop digitizer rate of `tracker-paced`, well below capacity.
const PACED_FPS: u32 = 25;
/// Frames `tracker-saturated` pushes per requested second (about its
/// capacity on a 2-core host). The frame count is fixed, not the wall
/// time, so a faster pipeline finishes the same work sooner.
const SATURATED_FRAMES_PER_S: u64 = 60;
/// Regimes of the live table: the paced scene steps from 1 to 3 targets.
const REGIMES: [u32; 2] = [1, 3];
/// Consecutive observations the regime detector needs before switching.
const CONFIRM_AFTER: usize = 2;
/// Independent passes per run, each with its own set-up and app, running
/// an equal share of the run's frames. Passes are the moments the
/// end-to-end figures are taken over (see `percentile_over`).
const PASSES: usize = 10;
/// Leading frames of each pass left out of the latency, throughput and
/// lag samples (still gated): pool threads start, frame 0 has no
/// predecessor for change detection, and a closed loop fills its
/// channels. One channel's capacity.
const WARMUP_FRAMES: u64 = CHANNEL_CAPACITY as u64;
/// Set-ups timed at each moment (before and after every pass).
const SETUP_REPS_PER_MOMENT: usize = 5;
/// Cold table builds timed at each moment.
pub const PLAN_REPS_PER_MOMENT: usize = 5;
/// Warm loads per standalone measurement of `core.table.warm_s`.
const WARM_REPS: usize = 25;
pub const MIN_SCORE: f32 = vision::tracker::DEFAULT_MIN_SCORE;

const STAGES: [&str; 6] = ["digitizer", "histogram", "change", "detect", "peak", "face"];
const DIGITIZER: usize = 0;
const SINK: usize = 5;
/// A stage's inputs, as `(upstream stage, how many frames back)`.
type Inputs = &'static [(usize, usize)];

/// The four compute stages with a wait metric: each stage, its inputs and
/// the standalone kernel it runs.
const WAITS: [(usize, Inputs, &str); 4] = [
    (1, &[(DIGITIZER, 0)], "vision.histogram_ms"),
    (2, &[(DIGITIZER, 0), (DIGITIZER, 1)], "vision.change_ms"),
    (3, &[(DIGITIZER, 0), (1, 0), (2, 0)], "vision.detect_ms"),
    (4, &[(3, 0)], "vision.peak_ms"),
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    Paced,
    Saturated,
}

/// One live workload's generated inputs.
pub struct Load {
    kind: Loop,
    pub n_frames: u64,
    period: Duration,
    pub scene: Scene,
    initial_regime: u32,
}

impl Load {
    pub fn new(kind: Loop, seed: u64, seconds: u64) -> Load {
        let scene = Scene::demo(WIDTH, HEIGHT, TARGETS, derive(seed, 1));
        match kind {
            Loop::Paced => {
                let n_frames = seconds * u64::from(PACED_FPS) / PASSES as u64;
                let join = n_frames / 3;
                Load {
                    kind,
                    n_frames,
                    period: Duration::from_secs(1) / PACED_FPS,
                    scene: scene
                        .with_visit(1, join, u64::MAX)
                        .with_visit(2, join, u64::MAX),
                    initial_regime: 1,
                }
            }
            Loop::Saturated => Load {
                kind,
                n_frames: seconds * SATURATED_FRAMES_PER_S / PASSES as u64,
                period: Duration::ZERO,
                scene,
                initial_regime: 3,
            },
        }
    }

    fn config(&self) -> TrackerConfig {
        let mut cfg = TrackerConfig::small(TARGETS, self.n_frames);
        cfg.width = WIDTH;
        cfg.height = HEIGHT;
        cfg.period = self.period;
        cfg.channel_capacity = CHANNEL_CAPACITY;
        cfg.pool_workers = POOL_WORKERS;
        cfg.min_score = MIN_SCORE;
        cfg.backend = BackendKind::from_env();
        cfg
    }

    pub fn describe(&self) -> String {
        let load = match self.kind {
            Loop::Paced => format!(
                "open loop at {PACED_FPS} fps, population 1 -> 3 at frame {}",
                self.n_frames / 3
            ),
            Loop::Saturated => "closed loop (period 0), population 3".to_string(),
        };
        format!(
            "load {WIDTH}x{HEIGHT}, {TARGETS} models, {POOL_WORKERS} pool workers, \
             channel capacity {CHANNEL_CAPACITY}, {PASSES} passes of {} frames, {load}",
            self.n_frames
        )
    }
}

/// The live schedule table: the tracker graph on the modeled 4-processor
/// node the runtime plans for, one schedule per regime.
pub struct LiveTable {
    graph: TaskGraph,
    cluster: ClusterSpec,
    states: Vec<AppState>,
    search: OptimalConfig,
}

impl LiveTable {
    pub fn new(regimes: &[u32]) -> LiveTable {
        LiveTable {
            graph: builders::color_tracker(),
            cluster: ClusterSpec::single_node(4),
            states: regimes.iter().map(|&n| AppState::new(n)).collect(),
            search: OptimalConfig::default().serial(),
        }
    }

    pub fn build(&self, cache: Option<&ScheduleCache>) -> (ScheduleTable, TableBuildStats) {
        ScheduleTable::precompute_with_cache(
            &self.graph,
            &self.cluster,
            &self.states,
            &self.search,
            cache,
        )
    }

    fn detect_task(&self) -> TaskId {
        self.graph
            .task_by_name("Target Detection")
            .expect("the tracker graph defines T4")
    }
}

/// Seconds of one cold (uncached) build of the table for `regimes`.
pub fn cold_build_s(regimes: &[u32]) -> f64 {
    let t0 = Instant::now();
    black_box(LiveTable::new(regimes).build(None));
    t0.elapsed().as_secs_f64()
}

/// A per-run directory under the benchmark's own directory, removed on
/// drop: the persistent schedule cache lives here.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        ScratchDir(
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join(".scratch")
                .join(format!("{tag}-{}", std::process::id())),
        )
    }

    /// An empty persistent schedule cache in this directory.
    pub fn cache(&self) -> ScheduleCache {
        let cache = ScheduleCache::open(&self.0).expect("create the schedule cache directory");
        cache.clear().expect("clear the schedule cache");
        cache
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run holds a directory.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Median seconds of a warm `ScheduleCache` load of the live table.
pub fn warm_table_s() -> f64 {
    let dir = ScratchDir::new("warm");
    let cache = dir.cache();
    let _ = LiveTable::new(&REGIMES).build(Some(&cache));
    median_secs(WARM_REPS, || {
        let t0 = Instant::now();
        black_box(LiveTable::new(&REGIMES).build(Some(&cache)));
        t0.elapsed()
    })
}

/// An app ready to run: the warm table loaded, the controller built from
/// it, channels wired and the pool spawned.
struct Ready {
    app: TrackerApp,
    controller: Arc<RegimeController>,
}

/// One set-up; returns it with its total and its table-load durations.
fn set_up(load: &Load, cache: &ScheduleCache) -> Result<(Ready, Duration, Duration), String> {
    let t0 = Instant::now();
    let table = LiveTable::new(&REGIMES);
    let (sched, stats) = table.build(Some(cache));
    let t_table = t0.elapsed();
    if stats.cache_hits != REGIMES.len() {
        return Err(format!(
            "warm table build searched {} states",
            stats.searched()
        ));
    }
    let controller = RegimeController::from_schedule_table(
        &sched,
        table.detect_task(),
        load.initial_regime,
        CONFIRM_AFTER,
    )
    .map_err(|e| format!("regime controller: {e:?}"))?;
    let controller = Arc::new(controller);
    let app = TrackerApp::build_with_scene(
        &load.config(),
        load.scene.clone(),
        Some(Arc::clone(&controller)),
    );
    Ok((Ready { app, controller }, t0.elapsed(), t_table))
}

struct Call {
    ts: u64,
    start: Instant,
    end: Instant,
}

/// A task body wrapped to stamp each successful call's start and end.
struct Probe {
    inner: Arc<dyn TaskBody>,
    calls: Mutex<Vec<Call>>,
}

impl TaskBody for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn process(&self, ts: Timestamp, chunk: Option<(u32, u32)>) -> Result<(), Stop> {
        let start = Instant::now();
        let res = self.inner.process(ts, chunk);
        let end = Instant::now();
        if res.is_ok() {
            self.calls
                .lock()
                .expect("probe lock is never held across a panic")
                .push(Call {
                    ts: ts.0,
                    start,
                    end,
                });
        }
        res
    }
}

/// One executed run of a live workload.
struct Pass {
    ready: Ready,
    probes: Vec<Option<Arc<Probe>>>,
    committed: Vec<(u64, Vec<ModelLocation>)>,
    /// Due → commit (paced) or put → commit (saturated), per committed frame.
    latency_ms: Vec<f64>,
    /// Digitizer put returned minus due.
    lag_ms: Vec<f64>,
    /// Commits after the first, and the time from the first to the last.
    commit_span: Option<(usize, Duration)>,
    /// Distinct frames the health ledger skipped; `None` if its log was cut.
    skipped: Option<usize>,
}

fn run_pass(load: &Load, mut ready: Ready, traced: bool) -> Pass {
    let n = load.n_frames as usize;
    let mut probes = Vec::with_capacity(STAGES.len());
    for (i, task) in ready.app.tasks.iter_mut().enumerate() {
        if traced || i == DIGITIZER || i == SINK {
            let probe = Arc::new(Probe {
                inner: Arc::clone(task),
                calls: Mutex::new(Vec::with_capacity(n)),
            });
            *task = Arc::clone(&probe) as Arc<dyn TaskBody>;
            probes.push(Some(probe));
        } else {
            probes.push(None);
        }
    }
    let _ = OnlineExecutor::run(&ready.app, 0);

    let calls = |i: usize| {
        probes[i]
            .as_ref()
            .expect("digitizer and sink are always wrapped")
            .calls
            .lock()
            .expect("run finished")
    };
    let mut put: Vec<Option<(Instant, Instant)>> = vec![None; n];
    for c in calls(DIGITIZER).iter() {
        put[c.ts as usize] = Some((c.start, c.end));
    }
    let epoch = put[0].map(|(start, _)| start);
    let due = |ts: u64| -> Option<Instant> {
        let (start, _) = put[ts as usize]?;
        if load.period.is_zero() {
            Some(start)
        } else {
            Some(epoch? + load.period * ts as u32)
        }
    };
    let committed = ready.app.face.locations();
    let mut is_committed = vec![false; n];
    for (ts, _) in &committed {
        is_committed[*ts as usize] = true;
    }
    let mut latency_ms = Vec::with_capacity(n);
    let mut commits = Vec::with_capacity(n);
    let measured = |ts: u64| ts >= WARMUP_FRAMES && is_committed[ts as usize];
    for c in calls(SINK).iter().filter(|c| measured(c.ts)) {
        let (Some(due), Some((_, landed))) = (due(c.ts), put[c.ts as usize]) else {
            continue;
        };
        let from = match load.kind {
            Loop::Paced => due,
            Loop::Saturated => landed,
        };
        latency_ms.push(ms(c.end.saturating_duration_since(from)));
        commits.push(c.end);
    }
    let lag_ms = (WARMUP_FRAMES..load.n_frames)
        .filter_map(|ts| Some(ms(put[ts as usize]?.1.saturating_duration_since(due(ts)?))))
        .collect();
    commits.sort();
    let commit_span = match (commits.first(), commits.last()) {
        (Some(a), Some(b)) if b > a => Some((commits.len() - 1, *b - *a)),
        _ => None,
    };
    let skipped = skipped_frames(&ready.app.health);
    Pass {
        ready,
        probes,
        committed,
        latency_ms,
        lag_ms,
        commit_span,
        skipped,
    }
}

/// Distinct frames the health ledger recorded a fault for; `None` when
/// its capped log no longer holds every fault.
pub fn skipped_frames(health: &RuntimeHealth) -> Option<usize> {
    use runtime::RuntimeError as E;
    let faults = health.faults();
    if health.report().total_drops() as usize > faults.len() {
        return None;
    }
    let mut ts: Vec<u64> = faults
        .iter()
        .map(|e| match *e {
            E::StmGet { ts, .. }
            | E::StmPut { ts, .. }
            | E::DeadlineExceeded { ts, .. }
            | E::ChunkMismatch { ts, .. } => ts,
        })
        .collect();
    ts.sort_unstable();
    ts.dedup();
    Some(ts.len())
}

/// The correctness gate of one pass, outside every timed window: each
/// committed frame equals the serial reference, and every due frame is
/// either committed or a skip in the health ledger.
fn gate(load: &Load, reference: &Reference, pass: &Pass, label: &str, out: &mut Outcome) {
    let mismatches = reference.mismatches(&pass.committed);
    let checked = pass.committed.len();
    out.check(
        format!(
            "{label}: {}/{checked} committed frames equal vision::Tracker::process",
            checked - mismatches
        ),
        mismatches == 0 && checked > 0,
    );
    let skipped = pass
        .skipped
        .map_or("unknown (ledger log cut)".to_string(), |s| s.to_string());
    out.check(
        format!(
            "{label}: due {} = committed {checked} + skipped {skipped}",
            load.n_frames
        ),
        pass.skipped
            .is_some_and(|s| s + checked == load.n_frames as usize),
    );
    out.attempted += load.n_frames;
    out.failed += load.n_frames.saturating_sub(checked as u64);
}

fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// Per-layer metrics of the traced passes, pooled: stage call and wait
/// times, pool, regime, health and buffer counters, and the STM gauges.
fn runtime_layers(passes: &[Pass], layers: &mut Metrics) {
    let mut call_ms = vec![Vec::new(); STAGES.len()];
    let mut busy_ms = vec![Vec::new(); STAGES.len()];
    for pass in passes {
        // calls[stage][ts] = (start, end) of the stage's call on frame ts.
        let n = pass.ready.app.n_frames as usize;
        let mut calls = vec![vec![None; n]; STAGES.len()];
        for (i, probe) in pass.probes.iter().enumerate() {
            let probe = probe.as_ref().expect("traced pass wraps every stage");
            for c in probe.calls.lock().expect("run finished").iter() {
                calls[i][c.ts as usize] = Some((c.start, c.end));
                call_ms[i].push(ms(c.end - c.start));
            }
        }
        // A stage's wait counts from when its last input was put (the
        // upstream call returned), so idle time before the frame exists
        // is not wait.
        for (i, inputs, _) in WAITS {
            for ts in 0..n {
                let Some((start, end)) = calls[i][ts] else {
                    continue;
                };
                let ready = inputs
                    .iter()
                    .filter_map(|&(up, back)| calls[up][ts.checked_sub(back)?])
                    .map(|(_, put)| put)
                    .fold(start, Instant::max);
                busy_ms[i].push(ms(end.saturating_duration_since(ready)));
            }
        }
    }
    for (i, stage) in STAGES.iter().enumerate() {
        layers.set(
            format!("runtime.{stage}.call_ms"),
            median_or_zero(&call_ms[i]),
            "ms",
        );
    }
    for (i, _, kernel) in WAITS {
        let kernel_ms = layers.get(kernel).expect("vision panel runs first");
        let wait = median_or_zero(&busy_ms[i]) - kernel_ms;
        layers.set(format!("runtime.{}.wait_ms", STAGES[i]), wait, "ms");
    }
    let lag: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.lag_ms.iter().copied())
        .collect();
    let lag = if lag.is_empty() {
        0.0
    } else {
        percentile(&lag, 95.0)
    };
    layers.set("runtime.digitizer.lag_p95_ms", lag, "ms");

    let per_pass = |f: &dyn Fn(&Pass) -> u64| -> f64 {
        passes.iter().map(f).sum::<u64>() as f64 / passes.len().max(1) as f64
    };
    let executed = per_pass(&|p| p.ready.app.pool_load().map_or(0, |(_, e)| e));
    let committed = per_pass(&|p| p.committed.len() as u64);
    layers.set(
        "runtime.pool.jobs_per_frame",
        executed / committed.max(1.0),
        "count",
    );
    layers.set(
        "runtime.regime.switches",
        per_pass(&|p| p.ready.controller.switches()),
        "count",
    );
    let skips = per_pass(&|p| p.ready.app.health.report().total_drops());
    layers.set("runtime.health.skips", skips, "count");
    let recomputes = per_pass(&|p| p.ready.app.health.report().chunk_recomputes);
    layers.set("runtime.health.chunk_recomputes", recomputes, "count");
    let created = per_pass(&|p| {
        let app = &p.ready.app;
        app.frame_pool_stats().map_or(0, |s| s.created)
            + app.mask_pool_stats().map_or(0, |s| s.created)
    });
    layers.set("runtime.buffers_created", created, "count");
    let mut peak_live = std::collections::BTreeMap::new();
    let mut peak_bytes = 0usize;
    for pass in passes {
        let app = &pass.ready.app;
        for check in app.channel_checks(0) {
            let name = check.name.to_lowercase().replace(' ', "_");
            let peak = peak_live.entry(name).or_insert(0u32);
            *peak = (*peak).max(check.peak_live);
        }
        let bytes: usize = app.channel_bytes().iter().map(|&(_, _, peak)| peak).sum();
        peak_bytes = peak_bytes.max(bytes);
    }
    for (name, peak) in peak_live {
        layers.set(format!("stm.{name}.peak_live"), f64::from(peak), "count");
    }
    layers.set("stm.peak_bytes", peak_bytes as f64, "bytes");
}

/// Samples of a run's passes.
#[derive(Default)]
struct Pooled {
    /// Latency samples, one group per pass.
    latency_ms: Vec<Vec<f64>>,
    /// Commits per second of each pass, from its first to its last commit.
    throughput: Vec<f64>,
}

impl Pooled {
    fn add(&mut self, pass: &Pass) {
        self.latency_ms.push(pass.latency_ms.clone());
        if let Some((n, span)) = pass.commit_span {
            self.throughput.push(n as f64 / span.as_secs_f64());
        }
    }

    fn samples(&self) -> usize {
        self.latency_ms.iter().map(Vec::len).sum()
    }

    fn p50(&self) -> f64 {
        percentile_over(&self.latency_ms, 50.0, 25.0)
    }

    fn p95(&self) -> f64 {
        percentile_over(&self.latency_ms, 95.0, 25.0)
    }

    fn throughput(&self) -> f64 {
        if self.throughput.is_empty() {
            0.0
        } else {
            median(&self.throughput)
        }
    }
}

/// Set-up and cold-plan samples, one group per moment they were taken at,
/// so that their figures, like the latencies, span the whole run.
#[derive(Default)]
struct SetupSamples {
    setup_s: Vec<Vec<f64>>,
    warm_s: Vec<Vec<f64>>,
    plan_s: Vec<Vec<f64>>,
}

impl SetupSamples {
    /// Time one moment's cold plans and set-ups, and return the last
    /// set-up. Moments come before and after every pass.
    fn moment(&mut self, load: &Load, cache: &ScheduleCache, out: &mut Outcome) -> Option<Ready> {
        self.plan_s.push(
            (0..PLAN_REPS_PER_MOMENT)
                .map(|_| cold_build_s(&REGIMES))
                .collect(),
        );
        self.setup_s.push(Vec::new());
        self.warm_s.push(Vec::new());
        let mut ready = None;
        for _ in 0..SETUP_REPS_PER_MOMENT {
            match set_up(load, cache) {
                Ok((r, total, table)) => {
                    self.setup_s
                        .last_mut()
                        .expect("pushed above")
                        .push(total.as_secs_f64());
                    self.warm_s
                        .last_mut()
                        .expect("pushed above")
                        .push(table.as_secs_f64());
                    ready = Some(r);
                }
                Err(e) => {
                    out.check(format!("set-up: {e}"), false);
                    return None;
                }
            }
        }
        ready
    }
}

pub fn run(kind: Loop, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let load = Load::new(kind, seed, seconds);
    let mut out = Outcome::new(load.describe());
    let dir = ScratchDir::new("live");
    let cache = dir.cache();
    let _ = LiveTable::new(&REGIMES).build(Some(&cache));
    let reference = Reference::new(&load.scene, load.n_frames, MIN_SCORE);

    let mut samples = SetupSamples::default();
    let mut untraced = Pooled::default();
    for p in 0..PASSES {
        report::heap_mark_mib();
        let Some(ready) = samples.moment(&load, &cache, &mut out) else {
            return out;
        };
        let pass = run_pass(&load, ready, false);
        out.heap_mib.push(report::heap_mark_mib());
        gate(&load, &reference, &pass, &format!("pass {p}"), &mut out);
        untraced.add(&pass);
        drop(pass);
        if samples.moment(&load, &cache, &mut out).is_none() {
            return out;
        }
    }
    let serial_ms = reference.frame_ms();
    out.note(format!(
        "serial baseline: vision::Tracker {serial_ms:.3} ms/frame = {:.2} fps; pipeline throughput {:.2} fps",
        1e3 / serial_ms,
        untraced.throughput()
    ));
    out.note(format!(
        "latency samples: {} over {PASSES} passes",
        untraced.samples()
    ));
    out.e2e
        .set("setup_s", mean_over(&samples.setup_s, 50.0), "s");
    out.e2e.set("plan_s", mean_over(&samples.plan_s, 50.0), "s");
    out.e2e.set("latency_p50_ms", untraced.p50(), "ms");
    out.e2e.set("latency_p95_ms", untraced.p95(), "ms");
    out.e2e
        .set("throughput_per_s", untraced.throughput(), "1/s");

    if trace {
        let mut traced = Pooled::default();
        let mut passes = Vec::with_capacity(PASSES);
        for p in 0..PASSES {
            let Some(ready) = samples.moment(&load, &cache, &mut out) else {
                return out;
            };
            let pass = run_pass(&load, ready, true);
            gate(
                &load,
                &reference,
                &pass,
                &format!("traced pass {p}"),
                &mut out,
            );
            traced.add(&pass);
            passes.push(pass);
        }
        let layers = &mut out.layers;
        vision_panel(&load.scene, load.n_frames, MIN_SCORE, layers);
        layers.set("vision.serial_frame_ms", serial_ms, "ms");
        layers.set("vision.serial_fps", 1e3 / serial_ms, "1/s");
        layers.set("stm.put_get_ns", stm_put_get_ns(WIDTH, HEIGHT), "ns");
        layers.set("core.table.warm_s", mean_over(&samples.warm_s, 50.0), "s");
        runtime_layers(&passes, layers);
        let overhead = (traced.p50() / untraced.p50() - 1.0) * 100.0;
        layers.set("obs.trace_overhead_pct", overhead, "%");
    }
    out
}
