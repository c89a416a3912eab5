//! `fleet-mixed`: four tenants — two Guaranteed, two BestEffort — on one
//! shared 2-worker pool, each paced at a fixed 12.5 fps. Every tenant is
//! admitted (`min_admitted` equals the tenant count), re-admission and
//! shedding are off, so the only contention is the pool's class lanes,
//! the shared freelists and the shared schedule cache.
//!
//! Driven through `Fleet::launch`, `Fleet::attach` and `Fleet::finish`.
//! Tenant bodies run inside the fleet and cannot be wrapped, so latencies
//! come from each tenant's measurement store.

use std::time::{Duration, Instant};

use runtime::{Fleet, FleetConfig, FleetRun, PriorityClass, TenantSpec, TrackerApp, TrackerConfig};
use vision::BackendKind;

use crate::kernels::{vision_panel, Reference};
use crate::live::{cold_build_s, skipped_frames, MIN_SCORE, PLAN_REPS_PER_MOMENT};
use crate::report::{self, derive, mean, mean_over, median, ms, percentile, Metrics};
use crate::Outcome;

const WIDTH: usize = 160;
const HEIGHT: usize = 120;
const TARGETS: usize = 2;
const POOL_WORKERS: usize = 2;
/// Tenant classes in attach order.
const CLASSES: [PriorityClass; 4] = [
    PriorityClass::Guaranteed,
    PriorityClass::BestEffort,
    PriorityClass::Guaranteed,
    PriorityClass::BestEffort,
];
/// Per-tenant frame rate: 4 × 12.5 = 50 fps offered, below the fleet's
/// saturated rate on a 2-core host.
const TENANT_PERIOD: Duration = Duration::from_millis(80);
/// Regimes of the fleet's shared table (every tenant shows `TARGETS`).
const REGIMES: [u32; 2] = [1, 2];
/// Deadline budget: the tenants' input-wait watchdog and the miss
/// criterion. Far above the period so that no frame is skipped when the
/// fleet keeps up.
const DEADLINE: Duration = Duration::from_secs(1);
const MONITOR_TICK: Duration = Duration::from_millis(2);
/// Independent fleets per run, each running an equal share of the frames:
/// the moments the end-to-end figures are taken over (see
/// `percentile_over`).
const PASSES: usize = 10;
/// Fleet set-ups timed at each moment (before and after every pass).
const SETUP_REPS_PER_MOMENT: usize = 3;

fn config(seed: u64) -> FleetConfig {
    let mut base = TrackerConfig::small(TARGETS, 0);
    base.width = WIDTH;
    base.height = HEIGHT;
    base.seed = derive(seed, 2);
    base.period = TENANT_PERIOD;
    base.min_score = MIN_SCORE;
    base.backend = BackendKind::from_env();
    FleetConfig {
        base,
        tenants: CLASSES.len(),
        pool_workers: POOL_WORKERS,
        deadline: DEADLINE,
        max_utilization: 0.95,
        min_admitted: CLASSES.len(),
        admit_interval: Duration::ZERO,
        monitor_tick: MONITOR_TICK,
        boost_backlog: 4,
        warmup: 0,
        tenant_faults: Vec::new(),
        regimes: REGIMES.to_vec(),
        cache_weight: 64,
        buf_slots: 0,
        readmit: false,
        readmit_hysteresis: 0.1,
        shed_utilization: f64::INFINITY,
        shed_hysteresis: 0.1,
    }
}

/// Launch the fleet and attach every tenant with an `n_frames` budget;
/// returns the live fleet and whether every tenant was admitted.
fn launch(cfg: &FleetConfig, n_frames: u64) -> (Fleet, bool) {
    let fleet = Fleet::launch(cfg.clone());
    let mut all = true;
    for class in CLASSES {
        let spec = TenantSpec {
            class,
            faults: None,
            period: Some(TENANT_PERIOD),
            n_frames: Some(n_frames),
        };
        all &= fleet.attach(spec).admitted;
    }
    (fleet, all)
}

/// Nearest-rank `p`-th percentile of digitize → commit latency pooled over
/// `apps`, in ms. The measurement store exposes no per-frame instants,
/// but `over_deadline(d)` counts frames slower than `d` and is monotone in
/// `d`, so bisection on `d` recovers the exact percentile.
fn pooled_percentile(apps: &[(&TrackerApp, u64, Duration)], p: f64) -> f64 {
    let total: u64 = apps.iter().map(|&(_, n, _)| n).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let allowed_above = total - rank;
    let slower = |d: u64| -> u64 {
        apps.iter()
            .map(|(app, _, _)| app.measure.over_deadline(Duration::from_nanos(d), 0))
            .sum()
    };
    let mut lo = 0u64;
    let mut hi = apps
        .iter()
        .map(|&(_, _, max)| max.as_nanos() as u64)
        .max()
        .unwrap_or(0);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if slower(mid) <= allowed_above {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo as f64 / 1e6
}

/// `(app, completed frames, max latency)` of the tenants `keep` selects,
/// over every pass.
fn tenants(
    runs: &[FleetRun],
    keep: impl Fn(PriorityClass) -> bool,
) -> Vec<(&TrackerApp, u64, Duration)> {
    runs.iter()
        .flat_map(|run| &run.tenants)
        .filter(|t| keep(t.class))
        .filter_map(|t| {
            let stats = t.stats.as_ref()?;
            Some((t.app.as_ref()?, stats.frames_completed, stats.max_latency))
        })
        .collect()
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let cfg = config(seed);
    let n_frames = (seconds as f64 / TENANT_PERIOD.as_secs_f64()) as u64 / PASSES as u64;
    let mut out = Outcome::new(format!(
        "load {} tenants ({}) at {:.1} fps each, {WIDTH}x{HEIGHT}, {TARGETS} models, \
         {POOL_WORKERS} shared pool workers, {PASSES} passes of {n_frames} frames per tenant",
        CLASSES.len(),
        CLASSES.map(PriorityClass::label).join(", "),
        1.0 / TENANT_PERIOD.as_secs_f64()
    ));

    let mut setup_s: Vec<Vec<f64>> = Vec::new();
    let mut plan_s: Vec<Vec<f64>> = Vec::new();
    let mut runs = Vec::with_capacity(PASSES);
    // Plans and set-ups are timed at moments before and after every pass.
    let moment = |plan_s: &mut Vec<Vec<f64>>, setup_s: &mut Vec<Vec<f64>>| {
        plan_s.push(
            (0..PLAN_REPS_PER_MOMENT)
                .map(|_| cold_build_s(&REGIMES))
                .collect(),
        );
        setup_s.push(
            (0..SETUP_REPS_PER_MOMENT)
                .map(|_| {
                    let t0 = Instant::now();
                    let (fleet, _) = launch(&cfg, 0);
                    let dt = t0.elapsed().as_secs_f64();
                    let _ = fleet.finish();
                    dt
                })
                .collect(),
        );
    };
    for _ in 0..PASSES {
        moment(&mut plan_s, &mut setup_s);
        report::heap_mark_mib();
        let (fleet, all_admitted) = launch(&cfg, n_frames);
        runs.push(fleet.finish());
        out.heap_mib.push(report::heap_mark_mib());
        out.check(
            format!("all {} tenants admitted", CLASSES.len()),
            all_admitted,
        );
        moment(&mut plan_s, &mut setup_s);
    }

    // Tenant k's scene is the same in every pass: one reference each.
    let mut references: Vec<Option<Reference>> = Vec::new();
    for (p, run) in runs.iter().enumerate() {
        for t in &run.tenants {
            let Some(app) = &t.app else {
                out.check(format!("pass {p} tenant {} ran", t.tenant), false);
                continue;
            };
            if references.len() <= t.tenant {
                references.resize_with(t.tenant + 1, || None);
            }
            let reference = references[t.tenant]
                .get_or_insert_with(|| Reference::new(&app.scene, n_frames, MIN_SCORE));
            let committed = app.face.locations();
            let mismatches = reference.mismatches(&committed);
            out.check(
                format!(
                    "pass {p} tenant {} ({}): {}/{} committed frames equal vision::Tracker::process",
                    t.tenant,
                    t.class.label(),
                    committed.len() - mismatches,
                    committed.len()
                ),
                mismatches == 0 && !committed.is_empty(),
            );
            let skipped = skipped_frames(&app.health).map(|s| s as u64 + app.measure.shed_count());
            out.check(
                format!(
                    "pass {p} tenant {}: due {n_frames} = committed {} + skipped {}",
                    t.tenant,
                    committed.len(),
                    skipped.map_or("unknown (ledger log cut)".to_string(), |s| s.to_string())
                ),
                skipped.is_some_and(|s| s + committed.len() as u64 == n_frames),
            );
            out.attempted += n_frames;
            out.failed += n_frames.saturating_sub(committed.len() as u64);
        }
    }

    let all = tenants(&runs, |_| true);
    // Aggregate commits per second of each pass.
    let throughput: Vec<f64> = runs
        .iter()
        .map(|run| {
            run.tenants
                .iter()
                .filter_map(|t| t.stats.map(|s| s.throughput_hz))
                .sum()
        })
        .collect();
    let serial_ms = mean(
        &references
            .iter()
            .flatten()
            .map(Reference::frame_ms)
            .collect::<Vec<_>>(),
    );
    out.note(format!(
        "serial baseline: vision::Tracker {serial_ms:.3} ms/frame = {:.2} fps; fleet throughput {:.2} fps",
        1e3 / serial_ms,
        median(&throughput)
    ));
    out.note(format!(
        "latency samples: {} over {PASSES} passes",
        all.iter().map(|&(_, n, _)| n).sum::<u64>()
    ));
    out.e2e.set("setup_s", mean_over(&setup_s, 50.0), "s");
    out.e2e.set("plan_s", mean_over(&plan_s, 50.0), "s");
    // Each pass's percentile pooled over its tenants, then the lower
    // quartile of the passes.
    let per_pass = |p: f64| {
        let each: Vec<f64> = runs
            .chunks(1)
            .map(|run| pooled_percentile(&tenants(run, |_| true), p))
            .collect();
        percentile(&each, 25.0)
    };
    out.e2e.set("latency_p50_ms", per_pass(50.0), "ms");
    out.e2e.set("latency_p95_ms", per_pass(95.0), "ms");
    out.e2e.set("throughput_per_s", median(&throughput), "1/s");

    if trace {
        let layers = &mut out.layers;
        if let Some(app) = runs[0].tenants.iter().find_map(|t| t.app.as_ref()) {
            vision_panel(&app.scene, n_frames, MIN_SCORE, layers);
        }
        layers.set("vision.serial_frame_ms", serial_ms, "ms");
        layers.set("vision.serial_fps", 1e3 / serial_ms, "1/s");
        fleet_layers(&runs, layers);
    }
    out
}

/// Fleet-level readings: per-pass means of the counters, pooled
/// percentiles of the class tails.
fn fleet_layers(runs: &[FleetRun], layers: &mut Metrics) {
    let guaranteed = tenants(runs, |c| c == PriorityClass::Guaranteed);
    let best_effort = tenants(runs, |c| c == PriorityClass::BestEffort);
    layers.set(
        "fleet.guaranteed_p95_ms",
        pooled_percentile(&guaranteed, 95.0),
        "ms",
    );
    layers.set(
        "fleet.besteffort_p95_ms",
        pooled_percentile(&best_effort, 95.0),
        "ms",
    );
    let worst = runs
        .iter()
        .flat_map(|run| &run.tenants)
        .filter_map(|t| t.stats.map(|s| ms(s.p95_latency)))
        .fold(0.0, f64::max);
    layers.set("fleet.worst_tenant_p95_ms", worst, "ms");
    let per_pass = |f: &dyn Fn(&FleetRun) -> f64| -> f64 {
        runs.iter().map(f).sum::<f64>() / runs.len().max(1) as f64
    };
    let misses = per_pass(&|run| {
        (0..run.tenants.len())
            .map(|k| run.deadline_misses(k))
            .sum::<u64>() as f64
    });
    layers.set("fleet.deadline_misses", misses, "count");
    layers.set(
        "fleet.util_mean",
        per_pass(&|run| run.mean_utilization),
        "ratio",
    );
    let peak = runs
        .iter()
        .map(|run| run.peak_utilization)
        .fold(0.0, f64::max);
    layers.set("fleet.util_peak", peak, "ratio");
    layers.set(
        "fleet.pool_jobs",
        per_pass(&|run| run.pool_executed as f64),
        "count",
    );
    let boost = per_pass(&|run| run.tenants.iter().map(|t| t.boost_ticks).sum::<u64>() as f64);
    layers.set("fleet.boost_ticks", boost, "count");
    layers.set(
        "fleet.cache_searches",
        per_pass(&|run| run.cache_searches as f64),
        "count",
    );
    layers.set(
        "fleet.cache_hits",
        per_pass(&|run| run.cache_hits as f64),
        "count",
    );
}
