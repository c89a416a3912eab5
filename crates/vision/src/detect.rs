//! T4 — Target Detection: Swain–Ballard histogram back projection of every
//! model over the frame, masked by motion, with a horizontal box filter.
//! This is "highly compute intensive and a good candidate for
//! parallelization" (§2.2): cost is `O(pixels × models)` with a large
//! constant, and the work decomposes along exactly the two axes of Table 1:
//!
//! * **FP** — the frame splits into full-width row strips, so the
//!   horizontal box filter stays exact per strip;
//! * **MP** — the model set splits into contiguous ranges.
//!
//! Each chunk pays its own setup for every model it touches — the *real*
//! per-model-per-chunk overhead behind Table 1. That setup is the model's
//! Swain–Ballard ratio histogram, a NaN fill of a `64³` memo, and the cells
//! of the trilinear interpolation table ([`ratio_lut`]) that the chunk's
//! masked pixels actually read, each evaluated once on first touch. A
//! demo-scene frame touches ~1,400–2,200 of the 262,144 cells, so a chunk
//! skips over 99% of the full build; its worst case (every cell touched)
//! stays bounded by the full build.
//!
//! The lazy table is bit-identical to the full one by construction: both
//! evaluate every cell through the one trilinear `cell` function (same
//! operation order — b-lerp, then g, then r — and Rust never contracts to
//! FMA), and a cell value is always finite in `[0, 1]`, so the NaN "unset"
//! sentinel can never be mistaken for one.
//!
//! The complementary vertical pass lives in T5 ([`crate::peak`]), keeping
//! the separable smoothing exact under decomposition.

use crate::color::{ColorHist, BINS_PER_CHANNEL, QUANT_BITS};
use crate::frame::{BitMask, Frame, Region};

/// Horizontal box-filter half-width (full window = `2*HALF + 1` pixels).
pub const HALF_WINDOW: usize = 7;

/// Bits per channel of the per-model lookup table used at pixel-lookup time
/// (finer than the histogram quantization; values between coarse bins are
/// trilinearly interpolated). A chunk evaluates only the cells its pixels
/// read, each once per model — see the module docs for what that setup
/// costs and why it equals the full [`ratio_lut`] bit for bit.
pub const LUT_BITS: u32 = 6;

/// Entries per channel of the ratio LUT.
pub const LUT_SIZE: usize = 1 << LUT_BITS;

/// One model's ratio histogram against one image histogram, with the
/// trilinear evaluation of any single ratio-LUT cell. The one source of
/// truth for cell values: the full table and the lazy memo both read it.
struct RatioCells {
    ratio: Box<[f32]>,
    /// Per-axis `(lo, hi, frac)`: the two coarse bins around a LUT cell's
    /// center and its weight toward `hi` (the same on all three axes).
    axis: [(usize, usize, f32); LUT_SIZE],
}

impl RatioCells {
    fn new(model: &ColorHist, image: &ColorHist) -> RatioCells {
        let scale = BINS_PER_CHANNEL as f32 / LUT_SIZE as f32;
        let max_bin = (BINS_PER_CHANNEL - 1) as f32;
        // Continuous coordinate of LUT cell center on the coarse grid.
        let axis = std::array::from_fn(|v| {
            let c = ((v as f32 + 0.5) * scale - 0.5).clamp(0.0, max_bin);
            let lo = c.floor() as usize;
            let hi = (lo + 1).min(BINS_PER_CHANNEL - 1);
            (lo, hi, c - lo as f32)
        });
        RatioCells {
            ratio: model.ratio(image),
            axis,
        }
    }

    /// Cell `(r, g, b)`: trilinear interpolation between the eight
    /// surrounding coarse bins, lerping along b, then g, then r.
    #[inline]
    fn cell(&self, r: usize, g: usize, b: usize) -> f32 {
        let (r0, r1, fr) = self.axis[r];
        let (g0, g1, fg) = self.axis[g];
        let (b0, b1, fb) = self.axis[b];
        let at = |r: usize, g: usize, b: usize| -> f32 {
            self.ratio[(r << (2 * QUANT_BITS)) | (g << QUANT_BITS) | b]
        };
        let c00 = at(r0, g0, b0) * (1.0 - fb) + at(r0, g0, b1) * fb;
        let c01 = at(r0, g1, b0) * (1.0 - fb) + at(r0, g1, b1) * fb;
        let c10 = at(r1, g0, b0) * (1.0 - fb) + at(r1, g0, b1) * fb;
        let c11 = at(r1, g1, b0) * (1.0 - fb) + at(r1, g1, b1) * fb;
        let c0 = c00 * (1.0 - fg) + c01 * fg;
        let c1 = c10 * (1.0 - fg) + c11 * fg;
        c0 * (1.0 - fr) + c1 * fr
    }
}

/// [`ratio_lut`] memoized lazily: a cell is evaluated on its first read
/// and stored, so a chunk pays only for the cells its pixels touch.
struct LazyLut {
    cells: RatioCells,
    /// `LUT_SIZE³` cells; NaN marks "not yet evaluated" (a real cell is
    /// finite, in `[0, 1]`).
    memo: Box<[f32]>,
}

impl LazyLut {
    fn new(model: &ColorHist, image: &ColorHist) -> LazyLut {
        LazyLut {
            cells: RatioCells::new(model, image),
            memo: vec![f32::NAN; LUT_SIZE * LUT_SIZE * LUT_SIZE].into_boxed_slice(),
        }
    }

    /// The value of cell `i` (a [`lut_index`]), equal to `ratio_lut(..)[i]`.
    #[inline]
    fn get(&mut self, i: usize) -> f32 {
        let v = self.memo[i];
        if !v.is_nan() {
            return v;
        }
        let mask = LUT_SIZE - 1;
        let v = self
            .cells
            .cell(i >> (2 * LUT_BITS), (i >> LUT_BITS) & mask, i & mask);
        self.memo[i] = v;
        v
    }
}

/// Build the back-projection lookup table for one model against the current
/// image histogram: the Swain–Ballard ratio histogram, upsampled from the
/// coarse `16³` grid to a smooth `64³` table by trilinear interpolation.
/// The full-table oracle: detection itself evaluates the same cells lazily.
#[must_use]
pub fn ratio_lut(model: &ColorHist, image: &ColorHist) -> Box<[f32]> {
    let cells = RatioCells::new(model, image);
    let mut lut = Vec::with_capacity(LUT_SIZE * LUT_SIZE * LUT_SIZE);
    for r in 0..LUT_SIZE {
        for g in 0..LUT_SIZE {
            lut.extend((0..LUT_SIZE).map(|b| cells.cell(r, g, b)));
        }
    }
    lut.into_boxed_slice()
}

/// LUT index of a pixel at [`LUT_BITS`] quantization.
#[inline]
#[must_use]
pub fn lut_index(rgb: [u8; 3]) -> usize {
    let shift = 8 - LUT_BITS;
    let r = (rgb[0] >> shift) as usize;
    let g = (rgb[1] >> shift) as usize;
    let b = (rgb[2] >> shift) as usize;
    (r << (2 * LUT_BITS)) | (g << LUT_BITS) | b
}

/// A dense per-model score map (one plane of the "Back Projections"
/// channel).
#[derive(Clone, PartialEq, Debug)]
pub struct ScoreMap {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    data: Vec<f32>,
}

impl ScoreMap {
    /// An all-zero map.
    #[must_use]
    pub fn new(width: usize, height: usize) -> ScoreMap {
        ScoreMap {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Read one score.
    #[inline]
    #[must_use]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        self.data[y * self.width + x]
    }

    /// Write one score.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        self.data[y * self.width + x] = v;
    }

    /// One row as a slice.
    #[must_use]
    pub fn row(&self, y: usize) -> &[f32] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// The location and value of the maximum score.
    #[must_use]
    pub fn argmax(&self) -> (usize, usize, f32) {
        let mut best = (0, 0, f32::NEG_INFINITY);
        for y in 0..self.height {
            for x in 0..self.width {
                let v = self.get(x, y);
                if v > best.2 {
                    best = (x, y, v);
                }
            }
        }
        best
    }
}

/// One unit of data-parallel work: a row-strip region × a model range.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DetectChunk {
    /// Full-width row strip to process.
    pub region: Region,
    /// First model index (inclusive).
    pub model_lo: usize,
    /// Last model index (exclusive).
    pub model_hi: usize,
}

/// Partition the detection work into `fp × min(mp, n_models)` chunks — the
/// splitter of the paper's Fig. 9, with the decomposition chosen per regime.
#[must_use]
pub fn detect_chunks(
    width: usize,
    height: usize,
    n_models: usize,
    fp: usize,
    mp: usize,
) -> Vec<DetectChunk> {
    assert!(fp >= 1 && mp >= 1, "factors must be positive");
    let mp = mp.min(n_models.max(1));
    let regions = Region::full(width, height).split_rows(fp);
    let mut chunks = Vec::with_capacity(fp * mp);
    let base = n_models / mp;
    let extra = n_models % mp;
    for region in regions {
        let mut lo = 0usize;
        for i in 0..mp {
            let len = base + usize::from(i < extra);
            chunks.push(DetectChunk {
                region,
                model_lo: lo,
                model_hi: lo + len,
            });
            lo += len;
        }
    }
    chunks
}

/// The partial result of one chunk: smoothed, masked back-projection rows
/// for each model in the chunk's range.
#[derive(Clone, PartialEq, Debug)]
pub struct PartialScores {
    /// Model index.
    pub model: usize,
    /// The strip these rows cover.
    pub region: Region,
    /// Row-major scores, `region.area()` long.
    pub data: Vec<f32>,
}

/// Execute one chunk (the worker of Fig. 9). Recomputes the ratio histogram
/// for every model in range, and the LUT cells its masked pixels read — the
/// replicated setup cost of frame partitioning.
#[must_use]
pub fn target_detection_chunk(
    frame: &Frame,
    image_hist: &ColorHist,
    models: &[ColorHist],
    mask: &BitMask,
    chunk: DetectChunk,
) -> Vec<PartialScores> {
    let region = chunk.region;
    assert_eq!(
        region.width(),
        frame.width,
        "chunks must be full-width strips"
    );
    let mut out = Vec::with_capacity(chunk.model_hi - chunk.model_lo);
    for (m, model) in models
        .iter()
        .enumerate()
        .take(chunk.model_hi)
        .skip(chunk.model_lo)
    {
        // Per-model setup, paid by every chunk that touches the model.
        let mut lut = LazyLut::new(model, image_hist);
        let w = region.width();
        let mut raw = vec![0.0f32; region.area()];
        for (ry, y) in (region.y0..region.y1).enumerate() {
            // Row-slice fast path: one bounds check per row for the pixel
            // bytes and the output row, a running linear bit cursor for the
            // mask (chunks are full-width strips, so the row starts at
            // bit y * width).
            let row = frame.row(y);
            let raw_row = &mut raw[ry * w..(ry + 1) * w];
            let row_bit = y * frame.width;
            for (x, px) in row.chunks_exact(3).enumerate() {
                if mask.get_linear(row_bit + x) {
                    raw_row[x] = lut.get(lut_index([px[0], px[1], px[2]]));
                }
            }
        }
        // Horizontal box filter (running sum), exact within the full-width
        // strip.
        let mut data = vec![0.0f32; region.area()];
        for ry in 0..region.height() {
            let row = &raw[ry * w..(ry + 1) * w];
            let mut acc = 0.0f32;
            // Initial window [0, HALF].
            for &v in &row[..=HALF_WINDOW.min(w - 1)] {
                acc += v;
            }
            for x in 0..w {
                data[ry * w + x] = acc;
                // Slide: add x + HALF + 1, drop x - HALF.
                let add = x + HALF_WINDOW + 1;
                if add < w {
                    acc += row[add];
                }
                if x >= HALF_WINDOW {
                    acc -= row[x - HALF_WINDOW];
                }
            }
        }
        out.push(PartialScores {
            model: m,
            region,
            data,
        });
    }
    out
}

/// Reference pixel-at-a-time implementation of [`target_detection_chunk`]
/// on the full [`ratio_lut`]; the before/after oracle for the data-path
/// benchmarks and equality tests.
#[must_use]
pub fn target_detection_chunk_scalar(
    frame: &Frame,
    image_hist: &ColorHist,
    models: &[ColorHist],
    mask: &BitMask,
    chunk: DetectChunk,
) -> Vec<PartialScores> {
    let region = chunk.region;
    assert_eq!(
        region.width(),
        frame.width,
        "chunks must be full-width strips"
    );
    let mut out = Vec::with_capacity(chunk.model_hi - chunk.model_lo);
    for (m, model) in models
        .iter()
        .enumerate()
        .take(chunk.model_hi)
        .skip(chunk.model_lo)
    {
        let lut = ratio_lut(model, image_hist);
        let w = region.width();
        let mut raw = vec![0.0f32; region.area()];
        for (ry, y) in (region.y0..region.y1).enumerate() {
            for x in 0..w {
                if mask.get(x, y) {
                    raw[ry * w + x] = lut[lut_index(frame.pixel(x, y))];
                }
            }
        }
        let mut data = vec![0.0f32; region.area()];
        for ry in 0..region.height() {
            let row = &raw[ry * w..(ry + 1) * w];
            let mut acc = 0.0f32;
            for &v in &row[..=HALF_WINDOW.min(w - 1)] {
                acc += v;
            }
            for x in 0..w {
                data[ry * w + x] = acc;
                let add = x + HALF_WINDOW + 1;
                if add < w {
                    acc += row[add];
                }
                if x >= HALF_WINDOW {
                    acc -= row[x - HALF_WINDOW];
                }
            }
        }
        out.push(PartialScores {
            model: m,
            region,
            data,
        });
    }
    out
}

/// Assemble chunk outputs into per-model score maps (the joiner of Fig. 9).
/// Panics if the partials do not tile the frame exactly once per model.
#[must_use]
pub fn merge_partials(
    width: usize,
    height: usize,
    n_models: usize,
    partials: &[PartialScores],
) -> Vec<ScoreMap> {
    let mut maps: Vec<ScoreMap> = (0..n_models)
        .map(|_| ScoreMap::new(width, height))
        .collect();
    let mut covered = vec![0usize; n_models];
    for p in partials {
        let map = &mut maps[p.model];
        let w = p.region.width();
        for (ry, y) in (p.region.y0..p.region.y1).enumerate() {
            for x in 0..w {
                map.set(x, y, p.data[ry * w + x]);
            }
        }
        covered[p.model] += p.region.area();
    }
    for (m, &c) in covered.iter().enumerate() {
        assert_eq!(c, width * height, "model {m} not fully covered");
    }
    maps
}

/// The whole serial task: one chunk covering everything, then merge.
#[must_use]
pub fn target_detection(
    frame: &Frame,
    image_hist: &ColorHist,
    models: &[ColorHist],
    mask: &BitMask,
) -> Vec<ScoreMap> {
    let chunk = DetectChunk {
        region: frame.region(),
        model_lo: 0,
        model_hi: models.len(),
    };
    let partials = target_detection_chunk(frame, image_hist, models, mask, chunk);
    merge_partials(frame.width, frame.height, models.len(), &partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::image_histogram;
    use crate::synth::Scene;
    use proptest::prelude::*;

    fn red_square_frame() -> (Frame, Vec<ColorHist>) {
        let mut f = Frame::new(64, 48);
        // Gray background.
        for y in 0..48 {
            for x in 0..64 {
                f.set_pixel(x, y, [90, 90, 90]);
            }
        }
        // Red square at (40..52, 20..32).
        for y in 20..32 {
            for x in 40..52 {
                f.set_pixel(x, y, [220, 30, 30]);
            }
        }
        // Model: pure red patch.
        let mut patch = Frame::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                patch.set_pixel(x, y, [220, 30, 30]);
            }
        }
        let model = ColorHist::of_region(&patch, patch.region());
        (f, vec![model])
    }

    #[test]
    fn detection_peaks_on_planted_target() {
        let (f, models) = red_square_frame();
        let hist = image_histogram(&f);
        let mask = BitMask::all_set(f.width, f.height);
        let maps = target_detection(&f, &hist, &models, &mask);
        assert_eq!(maps.len(), 1);
        let (x, y, score) = maps[0].argmax();
        assert!(score > 0.0);
        assert!((40..52).contains(&x), "x={x}");
        assert!((20..32).contains(&y), "y={y}");
    }

    #[test]
    fn motion_mask_suppresses_static_target() {
        let (f, models) = red_square_frame();
        let hist = image_histogram(&f);
        let empty = BitMask::new(f.width, f.height);
        let maps = target_detection(&f, &hist, &models, &empty);
        let (_, _, score) = maps[0].argmax();
        assert_eq!(score, 0.0, "nothing moving → nothing detected");
    }

    #[test]
    fn chunk_grid_shapes() {
        let chunks = detect_chunks(64, 48, 8, 4, 8);
        assert_eq!(chunks.len(), 32);
        let chunks = detect_chunks(64, 48, 8, 1, 8);
        assert_eq!(chunks.len(), 8);
        assert!(chunks.iter().all(|c| c.model_hi - c.model_lo == 1));
        // MP clamps to the model count.
        let chunks = detect_chunks(64, 48, 1, 1, 8);
        assert_eq!(chunks.len(), 1);
        // Uneven model split: 5 models over 2 → 3 + 2.
        let chunks = detect_chunks(64, 48, 5, 1, 2);
        assert_eq!(chunks[0].model_hi - chunks[0].model_lo, 3);
        assert_eq!(chunks[1].model_hi - chunks[1].model_lo, 2);
    }

    #[test]
    fn decomposed_detection_is_exact() {
        // Any FP × MP decomposition reproduces the serial result bit-for-bit
        // — the invariant that lets the splitter pick its decomposition
        // per regime without changing semantics.
        let (mut f, _) = red_square_frame();
        // A second, blue target.
        for y in 5..15 {
            for x in 5..15 {
                f.set_pixel(x, y, [20, 40, 210]);
            }
        }
        let mut patch = Frame::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                patch.set_pixel(x, y, [20, 40, 210]);
            }
        }
        let models = vec![
            {
                let mut p = Frame::new(8, 8);
                for y in 0..8 {
                    for x in 0..8 {
                        p.set_pixel(x, y, [220, 30, 30]);
                    }
                }
                ColorHist::of_region(&p, p.region())
            },
            ColorHist::of_region(&patch, patch.region()),
        ];
        let hist = image_histogram(&f);
        let mask = BitMask::all_set(f.width, f.height);
        let serial = target_detection(&f, &hist, &models, &mask);
        for (fp, mp) in [(1, 2), (2, 1), (3, 2), (4, 2)] {
            let chunks = detect_chunks(f.width, f.height, models.len(), fp, mp);
            let partials: Vec<PartialScores> = chunks
                .iter()
                .flat_map(|&c| target_detection_chunk(&f, &hist, &models, &mask, c))
                .collect();
            let merged = merge_partials(f.width, f.height, models.len(), &partials);
            assert_eq!(merged, serial, "FP={fp} MP={mp} diverged");
        }
    }

    #[test]
    fn sliced_chunk_matches_scalar_exactly() {
        let (f, models) = red_square_frame();
        let hist = image_histogram(&f);
        // A structured motion mask (not all-set) so the mask cursor path is
        // exercised on both bit values.
        let mut mask = BitMask::new(f.width, f.height);
        for y in 0..f.height {
            for x in 0..f.width {
                mask.set(x, y, (x / 3 + y / 2) % 2 == 0);
            }
        }
        for chunk in detect_chunks(f.width, f.height, models.len(), 3, 1) {
            let fast = target_detection_chunk(&f, &hist, &models, &mask, chunk);
            let slow = target_detection_chunk_scalar(&f, &hist, &models, &mask, chunk);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    #[should_panic(expected = "not fully covered")]
    fn incomplete_merge_panics() {
        let (f, models) = red_square_frame();
        let hist = image_histogram(&f);
        let mask = BitMask::all_set(f.width, f.height);
        let chunks = detect_chunks(f.width, f.height, 1, 2, 1);
        let partials = target_detection_chunk(&f, &hist, &models, &mask, chunks[0]);
        let _ = merge_partials(f.width, f.height, 1, &partials);
    }

    #[test]
    fn ratio_lut_interpolates_ratio_histogram() {
        use crate::color::bin_of;
        // Model: pure red; image: mixture.
        let mut red = Frame::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                red.set_pixel(x, y, [220, 30, 30]);
            }
        }
        let model = ColorHist::of_region(&red, red.region());
        let mut img = Frame::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                img.set_pixel(x, y, if x < 4 { [220, 30, 30] } else { [30, 220, 30] });
            }
        }
        let image = ColorHist::of_region(&img, img.region());
        let lut = ratio_lut(&model, &image);
        let ratio = model.ratio(&image);
        // At the model color the LUT carries substantial mass (trilinear
        // smoothing of an isolated coarse bin attenuates the peak, but it
        // stays well above background), and it never exceeds the bin value.
        let got = lut[lut_index([220, 30, 30])];
        let want = ratio[bin_of([220, 30, 30])];
        assert!(
            got > 0.2 && got <= want + 1e-6,
            "got {got}, bin value {want}"
        );
        // Far from the model color, the LUT is near zero.
        assert!(lut[lut_index([30, 220, 30])] < 0.05);
        assert!(got > 10.0 * lut[lut_index([30, 220, 30])].max(1e-9));
        assert_eq!(lut.len(), LUT_SIZE * LUT_SIZE * LUT_SIZE);
    }

    /// Every cell of the lazy memo equals the full table bit for bit, read
    /// in a scrambled order and then re-read from the memo.
    #[test]
    fn lazy_lut_matches_full_lut_in_every_cell() {
        let n = LUT_SIZE * LUT_SIZE * LUT_SIZE;
        let scene = Scene::demo(64, 48, 4, 7);
        let models = scene.models();
        let images = [
            image_histogram(&scene.render(0)),
            image_histogram(&Scene::demo(96, 72, 8, 3).render(5)),
            // Model colors absent from the image: the ratio-1.0 branch.
            ColorHist::empty(),
        ];
        let mut pairs: Vec<(&ColorHist, &ColorHist)> = models
            .iter()
            .flat_map(|m| images.iter().map(move |i| (m, i)))
            .collect();
        let empty = ColorHist::empty();
        pairs.push((&empty, &images[0]));
        for (p, (model, image)) in pairs.into_iter().enumerate() {
            let full = ratio_lut(model, image);
            let mut lazy = LazyLut::new(model, image);
            // 7919 is odd, so `i * 7919 mod n` visits every index once.
            for pass in 0..2 {
                for k in 0..n {
                    let i = (k * 7919) % n;
                    let got = lazy.get(i);
                    assert!(got.is_finite() && (0.0..=1.0).contains(&got));
                    assert_eq!(
                        got.to_bits(),
                        full[i].to_bits(),
                        "pair {p} cell {i} pass {pass}"
                    );
                }
            }
        }
    }

    /// A pseudo-random scene frame, every `noise_every`-th pixel replaced by
    /// xorshift noise so the lazy table sees cells far from any model color.
    fn noisy_scene_frame(scene: &Scene, t: u64, noise_every: usize, mut seed: u64) -> Frame {
        let mut f = scene.render(t);
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let (w, h) = (f.width, f.height);
        for y in 0..h {
            for x in (0..w).filter(|x| (x + y * w).is_multiple_of(noise_every)) {
                let v = next();
                f.set_pixel(x, y, [v as u8, (v >> 8) as u8, (v >> 16) as u8]);
            }
        }
        f
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The lazy chunk equals the full-LUT scalar oracle over random
        /// frames, masks (empty, sparse, full) and model counts, on every
        /// FP × MP grid up to 4 × 8. The oracle runs once per frame on the
        /// whole-frame chunk; each chunk's rows and models are a slice of it
        /// (strips are full width and the box filter is horizontal).
        #[test]
        fn lazy_chunks_match_scalar_oracle_on_every_grid(
            w in 8usize..40,
            h in 10usize..24,
            n_models in 1usize..9,
            noise_every in 1usize..9,
            mask_kind in 0u8..3,
            seed in 0u64..1_000_000,
        ) {
            let scene = Scene::demo(w, h, n_models, seed);
            let models = scene.models();
            let frame = noisy_scene_frame(&scene, seed % 16, noise_every, seed | 1);
            let hist = image_histogram(&frame);
            let mut mask = BitMask::new(w, h);
            match mask_kind {
                0 => {}
                1 => {
                    for y in 0..h {
                        for x in 0..w {
                            mask.set(x, y, (x * 7 + y * 13 + seed as usize).is_multiple_of(8));
                        }
                    }
                }
                _ => mask.fill_all(),
            }
            let whole = DetectChunk {
                region: frame.region(),
                model_lo: 0,
                model_hi: n_models,
            };
            let oracle = target_detection_chunk_scalar(&frame, &hist, &models, &mask, whole);
            for fp in 1..=4 {
                for mp in 1..=8 {
                    for chunk in detect_chunks(w, h, n_models, fp, mp) {
                        let got = target_detection_chunk(&frame, &hist, &models, &mask, chunk);
                        let r = chunk.region;
                        let want: Vec<PartialScores> = oracle[chunk.model_lo..chunk.model_hi]
                            .iter()
                            .map(|p| PartialScores {
                                model: p.model,
                                region: r,
                                data: p.data[r.y0 * w..r.y1 * w].to_vec(),
                            })
                            .collect();
                        prop_assert_eq!(got, want, "FP={} MP={} chunk {:?}", fp, mp, chunk);
                    }
                }
            }
        }
    }

    #[test]
    fn lut_index_covers_range() {
        assert_eq!(lut_index([0, 0, 0]), 0);
        assert_eq!(lut_index([255, 255, 255]), LUT_SIZE.pow(3) - 1);
        assert_ne!(lut_index([255, 0, 0]), lut_index([0, 0, 255]));
    }

    #[test]
    fn score_map_accessors() {
        let mut m = ScoreMap::new(4, 3);
        m.set(2, 1, 5.0);
        assert_eq!(m.get(2, 1), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0, 0.0]);
        assert_eq!(m.argmax(), (2, 1, 5.0));
    }
}
