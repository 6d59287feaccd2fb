//! Golden sim-trace digests for the application examples: scaled-down but
//! structurally faithful replicas of `mandelbrot_farm` and
//! `pipeline_overlay` run under `with_tracing` on the sim backend (the
//! conformance oracle), and the rendered trace is pinned by an FNV-1a
//! digest. Any change to scheduling, routing, costs, or event order drifts
//! a digest here before it shows up in any figure — and each scenario runs
//! twice to re-assert byte-identical replay. (`dacs_tour`'s digest lives
//! in `crates/dacs/tests/golden.rs` — the core crate does not depend on
//! the DaCS baseline.)

use cellpilot::{
    render_trace, CellPilotConfig, CellPilotOpts, CpChannel, CpProcess, SpeProgram, CP_MAIN,
};
use cp_cellsim::OverlaySegment;
use cp_des::SimDuration;
use cp_pilot::PiValue;
use cp_simnet::ClusterSpec;
use cp_trace::Recorder;

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Run `scenario` twice; assert non-empty byte-identical traces and the
/// pinned digest.
fn assert_golden(what: &str, pinned: u64, scenario: impl Fn() -> String) {
    let a = scenario();
    let b = scenario();
    assert!(!a.is_empty(), "{what} scenario produced no trace");
    assert_eq!(a, b, "{what} replay must be byte-identical");
    assert_eq!(
        fnv1a(&a),
        pinned,
        "{what} trace digest drifted (got {:#018x})",
        fnv1a(&a)
    );
}

fn traced_cfg(rec: &Recorder) -> CellPilotConfig {
    CellPilotConfig::one_rank_per_node(
        ClusterSpec::two_cells_one_xeon(),
        CellPilotOpts::new().with_tracing(rec.clone()),
    )
}

// ---------------------------------------------------------------------------
// mandelbrot_farm: dynamic dealing over polled result channels.
// ---------------------------------------------------------------------------

const WIDTH: usize = 24;
const HEIGHT: usize = 12;
const MAX_ITER: u32 = 200;
const WORKERS: usize = 4;

fn mandel(px: usize, py: usize) -> u32 {
    let x0 = -2.2 + 3.0 * px as f64 / WIDTH as f64;
    let y0 = -1.2 + 2.4 * py as f64 / HEIGHT as f64;
    let (mut x, mut y) = (0.0f64, 0.0f64);
    let mut it = 0;
    while x * x + y * y <= 4.0 && it < MAX_ITER {
        let xt = x * x - y * y + x0;
        y = 2.0 * x * y + y0;
        x = xt;
        it += 1;
    }
    it
}

fn row_pixels(py: usize) -> Vec<u32> {
    (0..WIDTH).map(|px| mandel(px, py)).collect()
}

#[test]
fn golden_trace_mandelbrot_farm() {
    assert_golden("mandelbrot_farm", 0x5eec_cefb_0920_2e6e, || {
        let rec = Recorder::enabled();
        let mut cfg = traced_cfg(&rec);
        let worker = SpeProgram::new("mandel-worker", 6144, |spe, _, _| {
            let w = spe.index() as usize;
            let (task, result) = (CpChannel(2 * w), CpChannel(2 * w + 1));
            loop {
                let vals = spe.read(task, "%d").unwrap();
                let PiValue::Int32(v) = &vals[0] else {
                    unreachable!()
                };
                if v[0] < 0 {
                    return;
                }
                let pixels = row_pixels(v[0] as usize);
                let iters: u64 = pixels.iter().map(|&p| u64::from(p)).sum();
                spe.ctx()
                    .advance(SimDuration::from_micros_f64(iters as f64 * 0.004));
                spe.write(
                    result,
                    &format!("%d %{WIDTH}u"),
                    &[PiValue::Int32(vec![v[0]]), PiValue::UInt32(pixels)],
                )
                .unwrap();
            }
        });
        let host = cfg
            .create_process("host", 0, |cp, _| {
                let ts = cp.run_my_spes();
                for t in ts {
                    cp.wait_spe(t);
                }
            })
            .unwrap();
        let mut chans = Vec::new();
        for w in 0..WORKERS {
            let parent = if w < WORKERS / 2 { CP_MAIN } else { host };
            let s = cfg.create_spe_process(&worker, parent, w as i32).unwrap();
            let task = cfg.channel(CP_MAIN, s).build().unwrap();
            let result = cfg.channel(s, CP_MAIN).build().unwrap();
            chans.push((task, result));
        }
        cfg.run(move |cp| {
            let mut ts = Vec::new();
            for p in 0..cp.process_count() {
                if let Ok(t) = cp.run_spe(CpProcess(p), 0, 0) {
                    ts.push(t);
                }
            }
            let mut image = vec![Vec::new(); HEIGHT];
            let mut next_row = 0usize;
            let mut done_rows = 0usize;
            for &(task, _) in &chans {
                cp.write(task, "%d", &[PiValue::Int32(vec![next_row as i32])])
                    .unwrap();
                next_row += 1;
            }
            while done_rows < HEIGHT {
                let mut any = false;
                for &(task, result) in &chans {
                    if cp.channel_has_data(result).unwrap() {
                        any = true;
                        let vals = cp.read(result, &format!("%d %{WIDTH}u")).unwrap();
                        let PiValue::Int32(r) = &vals[0] else {
                            unreachable!()
                        };
                        let PiValue::UInt32(px) = &vals[1] else {
                            unreachable!()
                        };
                        image[r[0] as usize] = px.clone();
                        done_rows += 1;
                        if next_row < HEIGHT {
                            cp.write(task, "%d", &[PiValue::Int32(vec![next_row as i32])])
                                .unwrap();
                            next_row += 1;
                        }
                    }
                }
                if !any {
                    cp.ctx().advance(SimDuration::from_micros(20));
                }
            }
            for &(task, _) in &chans {
                cp.write(task, "%d", &[PiValue::Int32(vec![-1])]).unwrap();
            }
            for (py, row) in image.iter().enumerate() {
                assert_eq!(row, &row_pixels(py), "row {py}");
            }
            for t in ts {
                cp.wait_spe(t);
            }
        })
        .unwrap();
        render_trace(&rec.ops())
    });
}

// ---------------------------------------------------------------------------
// pipeline_overlay: producer SPE → worker SPE with three overlay stages.
// ---------------------------------------------------------------------------

const BLOCK: usize = 16;
const BLOCKS: usize = 4;

fn window_stage(x: &[f64]) -> Vec<f64> {
    let n = x.len() as f64;
    x.iter()
        .enumerate()
        .map(|(i, &v)| {
            let w = 0.5 - 0.5 * (2.0 * std::f64::consts::PI * i as f64 / n).cos();
            v * w
        })
        .collect()
}

fn filter_stage(x: &[f64]) -> Vec<f64> {
    (0..x.len())
        .map(|i| {
            let a = x[i.saturating_sub(1)];
            let b = x[i];
            let c = x[(i + 1).min(x.len() - 1)];
            (a + b + c) / 3.0
        })
        .collect()
}

fn integrate_stage(x: &[f64]) -> f64 {
    x.iter().sum()
}

#[test]
fn golden_trace_pipeline_overlay() {
    assert_golden("pipeline_overlay", 0x6275_af54_ea89_92b2, || {
        let rec = Recorder::enabled();
        let mut cfg = traced_cfg(&rec);
        let producer = SpeProgram::new("producer", 4096, |spe, _, _| {
            for b in 0..BLOCKS {
                let block: Vec<f64> = (0..BLOCK)
                    .map(|i| ((b * BLOCK + i) as f64 * 0.1).sin())
                    .collect();
                spe.write(
                    CpChannel(0),
                    &format!("%{BLOCK}lf"),
                    &[PiValue::Float64(block)],
                )
                .unwrap();
            }
        });
        let worker = SpeProgram::new("worker", 4096, |spe, _, _| {
            let overlay = spe
                .create_overlay(
                    36_000,
                    vec![
                        OverlaySegment {
                            name: "window".into(),
                            bytes: 30_000,
                        },
                        OverlaySegment {
                            name: "filter".into(),
                            bytes: 34_000,
                        },
                        OverlaySegment {
                            name: "integrate".into(),
                            bytes: 26_000,
                        },
                    ],
                )
                .unwrap();
            let mut results = Vec::with_capacity(BLOCKS);
            for _ in 0..BLOCKS {
                let vals = spe.read(CpChannel(0), &format!("%{BLOCK}lf")).unwrap();
                let PiValue::Float64(block) = &vals[0] else {
                    unreachable!()
                };
                let mut data = block.clone();
                for (stage, f) in [
                    (0usize, window_stage as fn(&[f64]) -> Vec<f64>),
                    (1, filter_stage as fn(&[f64]) -> Vec<f64>),
                ] {
                    overlay.ensure_resident(spe.ctx(), stage).unwrap();
                    data = f(&data);
                    spe.ctx()
                        .advance(SimDuration::from_micros_f64(BLOCK as f64 * 0.05));
                }
                overlay.ensure_resident(spe.ctx(), 2).unwrap();
                results.push(integrate_stage(&data));
                spe.ctx()
                    .advance(SimDuration::from_micros_f64(BLOCK as f64 * 0.02));
            }
            overlay.release();
            spe.write(
                CpChannel(1),
                &format!("%{BLOCKS}lf"),
                &[PiValue::Float64(results)],
            )
            .unwrap();
        });
        let p = cfg.create_spe_process(&producer, CP_MAIN, 0).unwrap();
        let w = cfg.create_spe_process(&worker, CP_MAIN, 1).unwrap();
        cfg.channel(p, w).build().unwrap();
        cfg.channel(w, CP_MAIN).build().unwrap();
        cfg.run(move |cp| {
            let t1 = cp.run_spe(p, 0, 0).unwrap();
            let t2 = cp.run_spe(w, 0, 0).unwrap();
            let vals = cp.read(CpChannel(1), &format!("%{BLOCKS}lf")).unwrap();
            let PiValue::Float64(results) = &vals[0] else {
                unreachable!()
            };
            for (b, &got) in results.iter().enumerate() {
                let block: Vec<f64> = (0..BLOCK)
                    .map(|i| ((b * BLOCK + i) as f64 * 0.1).sin())
                    .collect();
                let expect = integrate_stage(&filter_stage(&window_stage(&block)));
                assert!((got - expect).abs() < 1e-9, "block {b}");
            }
            cp.wait_spe(t1);
            cp.wait_spe(t2);
        })
        .unwrap();
        render_trace(&rec.ops())
    });
}
