//! Standalone timers of the vision kernels and the STM put→get→consume
//! path, plus the serial reference tracker the correctness gate compares
//! every committed frame against.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stm::{Channel, Timestamp, TsSpec};
use vision::detect::ratio_lut;
use vision::{
    peak_detection, target_detection, BackendKind, BitMask, Frame, ModelLocation, Scene, Tracker,
};

use crate::report::{median, ms, Metrics};

/// Frames of the workload the kernel timers sample, evenly spread.
const KERNEL_SAMPLES: u64 = 24;

/// Puts per timed batch of the STM loop, and batches per measurement.
const STM_BATCH: u64 = 4096;
const STM_BATCHES: usize = 15;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = black_box(f());
    (v, ms(t0.elapsed()))
}

/// Time each tracker kernel, called directly at FP = MP = 1 on the active
/// backend, over frames of `scene` spread across `0..n_frames`; each
/// metric is the median per-call time (`ratio_lut_ms` is per model).
pub fn vision_panel(scene: &Scene, n_frames: u64, min_score: f32, layers: &mut Metrics) {
    let backend = BackendKind::from_env().get();
    let models = scene.models();
    let threshold = u16::from(vision::change::DEFAULT_THRESHOLD);
    let (mut render, mut hist, mut change, mut lut, mut detect, mut peak) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut frame = Frame::new(scene.width, scene.height);
    let mut mask = BitMask::new(scene.width, scene.height);
    for i in 0..KERNEL_SAMPLES {
        let ts = 1 + i * n_frames.saturating_sub(2) / KERNEL_SAMPLES;
        let prev = scene.render(ts - 1);
        let ((), t) = timed(|| backend.render_into(scene, ts, &mut frame));
        render.push(t);
        let (h, t) = timed(|| backend.image_histogram(&frame));
        hist.push(t);
        let ((), t) =
            timed(|| backend.change_detection_into(&frame, Some(&prev), threshold, &mut mask));
        change.push(t);
        for model in &models {
            lut.push(timed(|| ratio_lut(model, &h)).1);
        }
        let (scores, t) = timed(|| target_detection(&frame, &h, &models, &mask));
        detect.push(t);
        peak.push(timed(|| peak_detection(&scores, min_score)).1);
    }
    layers.set("vision.render_ms", median(&render), "ms");
    layers.set("vision.histogram_ms", median(&hist), "ms");
    layers.set("vision.change_ms", median(&change), "ms");
    layers.set("vision.ratio_lut_ms", median(&lut), "ms");
    layers.set("vision.detect_ms", median(&detect), "ms");
    layers.set("vision.peak_ms", median(&peak), "ms");
}

/// Median nanoseconds of one put → exact get → consume round trip on a
/// frame-sized payload, single-threaded (no blocking, pure STM overhead).
pub fn stm_put_get_ns(width: usize, height: usize) -> f64 {
    let payload = Arc::new(Frame::new(width, height));
    let chan: Channel<Arc<Frame>> = Channel::new("perfbench");
    let out = chan.attach_output();
    let inp = chan.attach_input();
    let mut ts = 0u64;
    let mut batches = Vec::with_capacity(STM_BATCHES);
    for _ in 0..STM_BATCHES {
        let t0 = Instant::now();
        for _ in 0..STM_BATCH {
            let t = Timestamp(ts);
            out.put(t, Arc::clone(&payload))
                .expect("put on an open channel");
            let got = inp.get(TsSpec::Exact(t)).expect("item was just put");
            black_box(&got.value);
            inp.consume(t).expect("item was just gotten");
            ts += 1;
        }
        batches.push(t0.elapsed().as_nanos() as f64 / STM_BATCH as f64);
    }
    median(&batches)
}

/// The serial reference: `vision::Tracker` run over frames `0..n` of a
/// scene, one frame after another, as the pipeline's change detection
/// sees them.
pub struct Reference {
    expected: Vec<Vec<ModelLocation>>,
    /// Time inside `Tracker::process` over all frames.
    busy: Duration,
}

impl Reference {
    pub fn new(scene: &Scene, n_frames: u64, min_score: f32) -> Reference {
        let mut tracker = Tracker::new(&scene.models(), scene.width, scene.height);
        tracker.min_score = min_score;
        let mut busy = Duration::ZERO;
        let expected = (0..n_frames)
            .map(|ts| {
                let frame = scene.render(ts);
                let t0 = Instant::now();
                let locs = tracker.process(&frame);
                busy += t0.elapsed();
                locs
            })
            .collect();
        Reference { expected, busy }
    }

    /// Mean `Tracker::process` time per frame.
    pub fn frame_ms(&self) -> f64 {
        ms(self.busy) / self.expected.len().max(1) as f64
    }

    /// Committed frames whose model locations differ from the reference.
    pub fn mismatches(&self, committed: &[(u64, Vec<ModelLocation>)]) -> usize {
        committed
            .iter()
            .filter(|(ts, locs)| self.expected.get(*ts as usize) != Some(locs))
            .count()
    }
}
