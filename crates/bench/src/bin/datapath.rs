//! Online data-path before/after: the scalar oracles vs the overhauled
//! fast paths, per-item STM traffic vs the batch APIs, and the allocating
//! vs buffer-recycling tracker.
//!
//! Every "before" implementation is kept in-tree precisely so this binary
//! can measure the overhaul honestly on the current host:
//!
//! * kernels — `image_histogram_scalar` / `change_detection_scalar` /
//!   `target_detection_chunk_scalar` vs the row-sliced and word-streaming
//!   paths (bit-identical output, asserted here), plus a record-only dense
//!   worst case for target detection: 640×480, all-set mask, eight models,
//!   the lazily memoized ratio LUT against the scalar path's full build;
//! * STM — a put/consume loop vs `put_many` + `consume_range` under one
//!   lock, plus the lock-free `snapshot` read;
//! * frame pipeline — `render`/`change_detection` allocating per frame vs
//!   `render_into`/`change_detection_into` on recycled pool buffers;
//! * end to end — the online tracker with `recycle_buffers` off vs on.
//!
//! Flags: `--frames N` (tracker frames, default 24), `--iters N` (kernel
//! repetitions, default 40), `--json PATH` (additionally write the
//! machine-readable report).

use std::time::Instant;

use kiosk_bench::{csv_line, print_table, Json, JsonReport};
use runtime::{BufPool, OnlineExecutor, TrackerApp, TrackerConfig};
use stm::{Channel, Timestamp};
use vision::{
    change_detection, change_detection_into, change_detection_scalar, detect_chunks,
    image_histogram, image_histogram_scalar, target_detection_chunk, target_detection_chunk_scalar,
    BitMask, Frame, Scene,
};

const W: usize = 128;
const H: usize = 128;

fn arg(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Median-of-repeats wall time for one call, in nanoseconds.
fn time_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..iters.max(3))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Paired before/after timing: the variants alternate within one sample
/// loop, so clock-frequency drift and scheduler noise hit both equally —
/// the speedup ratio stays honest even when absolute times wander. Returns
/// median ns for each variant.
fn time_pair_ns(iters: u64, mut before: impl FnMut(), mut after: impl FnMut()) -> (f64, f64) {
    let mut b_ns = Vec::new();
    let mut a_ns = Vec::new();
    for i in 0..iters.max(6) {
        // Alternate which variant leads, so warm-up bias cancels too.
        if i % 2 == 0 {
            let t0 = Instant::now();
            before();
            b_ns.push(t0.elapsed().as_secs_f64() * 1e9);
            let t0 = Instant::now();
            after();
            a_ns.push(t0.elapsed().as_secs_f64() * 1e9);
        } else {
            let t0 = Instant::now();
            after();
            a_ns.push(t0.elapsed().as_secs_f64() * 1e9);
            let t0 = Instant::now();
            before();
            b_ns.push(t0.elapsed().as_secs_f64() * 1e9);
        }
    }
    b_ns.sort_by(f64::total_cmp);
    a_ns.sort_by(f64::total_cmp);
    (b_ns[b_ns.len() / 2], a_ns[a_ns.len() / 2])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let frames = arg(&args, "--frames", 24);
    let iters = arg(&args, "--iters", 40);

    println!("Online data-path overhaul: before/after on this host");
    println!("frame {W}x{H}, {iters} kernel iterations, {frames} tracker frames");

    let scene = Scene::demo(W, H, 4, 42);
    let models = scene.models();
    let prev = scene.render(0);
    let frame = scene.render(1);
    let hist = image_histogram(&frame);
    let mask = change_detection(&frame, Some(&prev), 24);

    struct Report {
        rows: Vec<Vec<String>>,
        speedups: Vec<(String, f64)>,
        json: JsonReport,
    }
    impl Report {
        fn pair(&mut self, section: &str, what: &str, before_ns: f64, after_ns: f64) {
            for (variant, ns) in [("before", before_ns), ("after", after_ns)] {
                self.row(section, what, variant, ns);
            }
            self.speedups
                .push((format!("{section}/{what}"), before_ns / after_ns.max(1e-3)));
        }
        fn row(&mut self, section: &str, what: &str, variant: &str, ns: f64) {
            self.rows.push(vec![
                section.to_string(),
                what.to_string(),
                variant.to_string(),
                format!("{ns:.0}"),
            ]);
            csv_line(&["datapath", section, what, variant, &format!("{ns:.0}")]);
            self.json.row(vec![
                ("kernel", Json::Str(format!("{section}/{what}"))),
                ("variant", Json::Str(variant.to_string())),
                ("ns_per_op", Json::Num(ns)),
            ]);
        }
    }
    let mut json = JsonReport::new("datapath");
    json.meta(
        "host_features",
        Json::Str(vision::BackendKind::Simd.get().features()),
    );
    json.meta("size", Json::Str(format!("{W}x{H}")));
    let mut report = Report {
        rows: Vec::new(),
        speedups: Vec::new(),
        json,
    };

    // --- Kernels (equality asserted, then timed) ---------------------
    assert_eq!(image_histogram(&frame), image_histogram_scalar(&frame));
    let (b, a) = time_pair_ns(
        iters,
        || {
            std::hint::black_box(image_histogram_scalar(&frame));
        },
        || {
            std::hint::black_box(image_histogram(&frame));
        },
    );
    report.pair("kernel", "image_histogram", b, a);

    assert_eq!(
        change_detection(&frame, Some(&prev), 24),
        change_detection_scalar(&frame, Some(&prev), 24)
    );
    let (b, a) = time_pair_ns(
        iters,
        || {
            std::hint::black_box(change_detection_scalar(&frame, Some(&prev), 24));
        },
        || {
            std::hint::black_box(change_detection(&frame, Some(&prev), 24));
        },
    );
    report.pair("kernel", "change_detection", b, a);

    let chunk = detect_chunks(W, H, models.len(), 1, 1)[0];
    assert_eq!(
        target_detection_chunk(&frame, &hist, &models, &mask, chunk),
        target_detection_chunk_scalar(&frame, &hist, &models, &mask, chunk)
    );
    let (b, a) = time_pair_ns(
        iters,
        || {
            std::hint::black_box(target_detection_chunk_scalar(
                &frame, &hist, &models, &mask, chunk,
            ));
        },
        || {
            std::hint::black_box(target_detection_chunk(&frame, &hist, &models, &mask, chunk));
        },
    );
    report.pair("kernel", "target_detection", b, a);

    // Dense worst case for the lazy ratio LUT: 640x480, every pixel
    // mask-set, eight models — the most cells a chunk can touch on a demo
    // frame, against the full 64^3 build per model. Record-only: the ratio
    // is reported, never asserted.
    let (dw, dh) = (640, 480);
    let dense_scene = Scene::demo(dw, dh, 8, 42);
    let dense_models = dense_scene.models();
    let dense_frame = dense_scene.render(1);
    let dense_hist = image_histogram(&dense_frame);
    let dense_mask = BitMask::all_set(dw, dh);
    let dense_chunk = detect_chunks(dw, dh, dense_models.len(), 1, 1)[0];
    let dense_lazy = || {
        target_detection_chunk(
            &dense_frame,
            &dense_hist,
            &dense_models,
            &dense_mask,
            dense_chunk,
        )
    };
    let dense_full = || {
        target_detection_chunk_scalar(
            &dense_frame,
            &dense_hist,
            &dense_models,
            &dense_mask,
            dense_chunk,
        )
    };
    assert_eq!(dense_lazy(), dense_full());
    let (b, a) = time_pair_ns(
        iters,
        || {
            std::hint::black_box(dense_full());
        },
        || {
            std::hint::black_box(dense_lazy());
        },
    );
    report.pair("kernel", "target_detection_dense_640x480", b, a);

    // --- STM batch APIs ----------------------------------------------
    const BATCH: u64 = 64;
    let per_item = {
        let ch: Channel<u64> = Channel::new("dp-loop");
        let out = ch.attach_output();
        let inp = ch.attach_input();
        let mut base = 0u64;
        time_ns(iters, || {
            for t in base..base + BATCH {
                out.put(Timestamp(t), t).unwrap();
            }
            for t in base..base + BATCH {
                inp.consume(Timestamp(t)).unwrap();
            }
            base += BATCH;
        })
    };
    let batched = {
        let ch: Channel<u64> = Channel::new("dp-batch");
        let out = ch.attach_output();
        let inp = ch.attach_input();
        let mut base = 0u64;
        time_ns(iters, || {
            out.put_many((base..base + BATCH).map(|t| (Timestamp(t), t)))
                .unwrap();
            inp.consume_range(Timestamp(base), Timestamp(base + BATCH));
            base += BATCH;
        })
    };
    report.pair("stm", "put_consume_64", per_item, batched);

    let snap = {
        let ch: Channel<u64> = Channel::new("dp-snap");
        let out = ch.attach_output();
        let _hold = ch.attach_input();
        for t in 0..BATCH {
            out.put(Timestamp(t), t).unwrap();
        }
        time_ns(iters * 100, || {
            std::hint::black_box(ch.snapshot());
        })
    };
    report.row("stm", "snapshot_read", "after", snap);

    // --- Frame pipeline: allocate vs recycle -------------------------
    let pool: BufPool<Frame> = BufPool::new(2);
    let (render_alloc, render_pooled) = time_pair_ns(
        iters,
        || {
            std::hint::black_box(scene.render(7));
        },
        || {
            let mut buf = pool.take_or(|| Frame::new(W, H));
            scene.render_into(7, &mut buf);
            std::hint::black_box(&*buf);
        },
    );
    report.pair("pipeline", "frame_produce", render_alloc, render_pooled);

    let mut mask_buf = BitMask::new(W, H);
    let (mask_alloc, mask_pooled) = time_pair_ns(
        iters,
        || {
            std::hint::black_box(change_detection(&frame, Some(&prev), 24));
        },
        || {
            change_detection_into(&frame, Some(&prev), 24, &mut mask_buf);
            std::hint::black_box(&mask_buf);
        },
    );
    report.pair("pipeline", "mask_produce", mask_alloc, mask_pooled);

    // --- End to end: the online tracker ------------------------------
    let run_tracker = |recycle: bool, report_pool: bool| {
        let mut cfg = TrackerConfig::small(2, frames);
        cfg.period = std::time::Duration::ZERO;
        cfg.recycle_buffers = recycle;
        let app = TrackerApp::build(&cfg, None);
        let t0 = Instant::now();
        let stats = OnlineExecutor::run(&app, 0);
        let ns = t0.elapsed().as_secs_f64() * 1e9;
        assert_eq!(stats.frames_completed, frames);
        if report_pool {
            let fp = app.frame_pool_stats().expect("pooling on");
            println!(
                "pooled run: {} frame buffers allocated, {} reuses ({} frames)",
                fp.created, fp.reused, frames
            );
        }
        ns
    };
    let (e2e_alloc, e2e_pooled) = time_pair_ns(
        6,
        || {
            std::hint::black_box(run_tracker(false, false));
        },
        || {
            std::hint::black_box(run_tracker(true, false));
        },
    );
    run_tracker(true, true); // print pool stats once, outside the timing
    report.pair("pipeline", "tracker_e2e", e2e_alloc, e2e_pooled);

    print_table(
        "Data-path cost, before vs after (median ns per call)",
        &["section", "benchmark", "variant", "ns"],
        &report.rows,
    );

    println!("\n== Speedups (before / after) ==");
    for (name, s) in &report.speedups {
        println!("{name}: {s:.2}x");
        csv_line(&[
            "datapath_speedup".to_string(),
            name.clone(),
            format!("{s:.2}"),
        ]);
    }
    let speedup_of = |name: &str| {
        report
            .speedups
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, s)| s)
    };
    println!(
        "\nheadline: at {W}x{H}, image_histogram {:.2}x, change_detection {:.2}x, \
         stm put/consume x64 {:.2}x vs the before paths",
        speedup_of("kernel/image_histogram"),
        speedup_of("kernel/change_detection"),
        speedup_of("stm/put_consume_64"),
    );

    if let Some(path) = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
    {
        let mut json = report.json;
        for (name, s) in &report.speedups {
            json.row(vec![
                ("kernel", Json::Str(name.clone())),
                ("variant", Json::Str("speedup".to_string())),
                ("ns_per_op", Json::Num(*s)),
            ]);
        }
        match json.write(std::path::Path::new(path)) {
            Ok(()) => println!("json report written to {path}"),
            Err(e) => {
                eprintln!("[FAIL] could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
