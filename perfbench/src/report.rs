//! Metric maps, percentiles, seed derivation, the host fingerprint and the
//! one-line JSON result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Metric name → (value, unit), in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// Copy metric `name` from `other`, if it is there.
    pub fn take(&mut self, other: &Metrics, name: &str) {
        if let Some(&v) = other.0.get(name) {
            self.0.insert(name.to_string(), v);
        }
    }

    pub fn names(&self) -> Vec<&str> {
        self.0.keys().map(String::as_str).collect()
    }

    pub fn lines(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|(k, (v, u))| format!("metric {k} = {v} {u}"))
            .collect()
    }

    /// The `metrics` object of the result line. Non-finite values have no
    /// JSON form; the caller rejects them before printing.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    pub fn all_finite(&self) -> bool {
        self.0.values().all(|(v, _)| v.is_finite())
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`p` in 0..=100): the smallest sample with at
/// least `p`% of the samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// The `q`-th percentile, over moments (passes, rounds or sweeps), of the
/// `p`-th percentile at each moment.
///
/// Timings taken at one moment all see the host's state at that moment.
/// On the 2-core VM this was built on, single-thread speed switched
/// between two levels 1.4x apart for seconds at a time, and steal bursts
/// took up to 18 % of the CPU for a whole run. A pooled percentile jumps
/// as soon as one slowed moment contributes more samples than lie beyond
/// it; a percentile over many short moments moves only when a large share
/// of the run was slowed. Latency percentiles take `q` = 25: the host
/// slows whole passes or sweeps, and only upward, so the lower quartile
/// of ten passes stays put while up to seven are slowed.
pub fn percentile_over(moments: &[Vec<f64>], p: f64, q: f64) -> f64 {
    let per_moment: Vec<f64> = moments
        .iter()
        .filter(|m| !m.is_empty())
        .map(|m| percentile(m, p))
        .collect();
    if per_moment.is_empty() {
        0.0
    } else {
        percentile(&per_moment, q)
    }
}

/// The mean over moments of the `p`-th percentile at each moment, for
/// short timings such as one set-up or one cold plan. Each sees the
/// host's speed at the moment it is taken, and a moment's figure is
/// either fast or slow (the live table's cold build took 2.1 or 3.7 ms);
/// a median over moments lets the majority pick one speed and jumps
/// between runs, while the mean moves with the share of slow moments.
pub fn mean_over(moments: &[Vec<f64>], p: f64) -> f64 {
    let per_moment: Vec<f64> = moments
        .iter()
        .filter(|m| !m.is_empty())
        .map(|m| percentile(m, p))
        .collect();
    mean(&per_moment)
}

/// Median of `reps` timed calls of `f`, in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| f().as_secs_f64()).collect();
    median(&samples)
}

/// SplitMix64 finalizer over `seed` and a stream id: every input the
/// program receives (scene seeds, tenant seeds) is derived from the one
/// workload seed through this.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The system allocator, counting live bytes and their high-water mark.
/// Installed as the benchmark's global allocator, it sees every heap
/// allocation the program makes, at the cost of two relaxed atomics.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Live heap bytes at the previous [`heap_mark_mib`].
static MARK: AtomicUsize = AtomicUsize::new(0);

/// How far live heap bytes rose, since the previous call, above what was
/// live at that call, in MiB; the next mark starts from the bytes live
/// now. Called between passes, with no other thread allocating. A pass's
/// figure is then what one pass needs, whatever earlier passes keep
/// alive for the correctness gate.
pub fn heap_mark_mib() -> f64 {
    let live = LIVE.load(Ordering::Relaxed);
    let peak = PEAK.swap(live, Ordering::Relaxed);
    let base = MARK.swap(live, Ordering::Relaxed);
    peak.saturating_sub(base) as f64 / (1024.0 * 1024.0)
}

/// Cumulative CPU time of the whole host, `(steal, total)` in clock ticks,
/// from the first line of `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The share of CPU time the hypervisor gave to other guests between two
/// [`cpu_ticks`] readings, in percent. Timings from a run with high steal
/// are not comparable with quiet ones.
pub fn steal_pct(start: (u64, u64), end: (u64, u64)) -> f64 {
    let total = end.1.saturating_sub(start.1).max(1);
    end.0.saturating_sub(start.0) as f64 * 100.0 / total as f64
}

/// Host fingerprint: core count, CPU model and the kernel backend the
/// program will dispatch through (a stray `CDS_BACKEND` shows here).
pub fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kind = vision::BackendKind::from_env();
    let env = std::env::var("CDS_BACKEND").unwrap_or_else(|_| "unset".to_string());
    format!(
        "host nproc={nproc} cpu=\"{cpu}\" backend={} features={} CDS_BACKEND={env}",
        kind.name(),
        kind.get().features()
    )
}
