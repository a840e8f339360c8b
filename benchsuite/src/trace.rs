//! The traced run: the per-layer split of every workload.
//!
//! Spans are the harness's own timers around public calls of each layer;
//! nothing inside the programs is instrumented. Every workload passes
//! through the same stages, each weighted by how much of it the workload
//! does: parse its training file, train its model through the traced
//! pipeline (next to the untraced call, to check the model bytes and
//! measure the tracing overhead), predict its held-out rows, load the
//! model as `svm-serve` does, parse and format its wire lines, and serve
//! them from a real `svm-serve --metrics-out`. So every per-layer metric
//! is measured on every workload.

use std::hint::black_box;
use std::time::{Duration, Instant};

use plssvm_core::kernel::kernel_flops;
use plssvm_core::simd::{panel_dot, Isa};
use plssvm_core::svm::predict_decision_values;
use plssvm_data::libsvm::read_libsvm_file;
use plssvm_data::model::SvmModel;
use plssvm_serve::protocol::format_response;
use plssvm_serve::{parse_line, QueryFormat, ServeModel};

use crate::report::{median, RunReport};
use crate::serve::{self, Load, Phase};
use crate::train::{dataset, read_setup, traced_train, TracedTrain};
use crate::workload::Workload;
use crate::{Options, Result};

/// Fewest traced training repetitions per run.
const MIN_REPS: usize = 2;
/// Timed passes of each cheap probe (predict, load, parse, format).
const PROBE_PASSES: usize = 3;

/// Share of the run's seconds spent on training repetitions, and on the
/// `svm-serve` phases.
fn budget_shares(workload: Workload) -> (f64, f64) {
    if workload.is_serve() {
        (0.2, 0.6)
    } else {
        (0.75, 0.1)
    }
}

/// Wall seconds of `f`, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// GFLOP/s of the dispatched `panel_dot` on 4 + 4 rows of 128 doubles
/// (8 KiB, resident in L1): the in-run compute peak the matvec rate is
/// compared against.
fn panel_peak_gflops() -> Vec<f64> {
    const D: usize = 128;
    const CALLS: usize = 50_000;
    let isa = Isa::select();
    let rows: Vec<Vec<f64>> = (0..8)
        .map(|r| (0..D).map(|c| ((r * D + c) as f64 * 0.37).sin()).collect())
        .collect();
    let ra: Vec<&[f64]> = rows[..4].iter().map(Vec::as_slice).collect();
    let rb: Vec<&[f64]> = rows[4..].iter().map(Vec::as_slice).collect();
    let flops = (2 * D * ra.len() * rb.len() * CALLS) as f64;
    (0..7)
        .map(|_| {
            let (s, ()) = timed(|| {
                for _ in 0..CALLS {
                    black_box(panel_dot(isa, black_box(&ra), black_box(&rb)));
                }
            });
            flops / s / 1e9
        })
        .collect()
}

/// Per-row µs of `ServeModel::predict_batch` over the held-out rows in
/// batches of `batch`, one sample per batch.
fn batch_predict_row_us(
    model: &ServeModel,
    x: &plssvm_data::dense::DenseMatrix<f64>,
    batch: usize,
) -> Result<Vec<f64>> {
    let batches: Vec<_> = (0..x.rows())
        .step_by(batch)
        .map(|start| x.select_rows(&(start..(start + batch).min(x.rows())).collect::<Vec<_>>()))
        .collect();
    batches
        .iter()
        .map(|b| {
            let (s, out) = timed(|| model.predict_batch(b));
            out?;
            Ok(s * 1e6 / b.rows() as f64)
        })
        .collect()
}

/// The traced run of any workload.
pub fn run(opts: &Options) -> Result<RunReport> {
    let w = opts.workload;
    let cfg = w.trainer(opts.smoke);
    let bin = opts.serve_bin()?;
    let (train_share, serve_share) = budget_shares(w);
    let start = Instant::now();
    let mut r = RunReport::default();

    // data: the training file as svm-train reads it
    let (files0, data0, mut parse_s) = read_setup(opts)?;
    let train_mb = std::fs::metadata(&files0.train)?.len() as f64 / 1e6;
    let mut first = Some((files0.clone(), data0));

    // training: the untraced call and the traced pipeline on the same
    // data, alternating which runs first, on fresh data sets
    let model0 = opts.work_dir.join("model-0.txt");
    let untraced_path = opts.work_dir.join("model-untraced.txt");
    let traced_path = opts.work_dir.join("model-traced.txt");
    let mut reps: Vec<TracedTrain> = Vec::new();
    let mut untraced_s = Vec::new();
    let (mut mismatched, mut unconverged, mut failed) = (0u64, 0u64, 0u64);
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < train_share * opts.seconds {
        let index = reps.len();
        let (_, data, read_s) = dataset(opts, index, &mut first)?;
        parse_s.extend(read_s);
        let untraced = || -> Result<f64> {
            let (s, saved) = timed(|| -> Result<()> {
                cfg.train(&data)?.model.save(&untraced_path)?;
                Ok(())
            });
            saved.map(|()| s)
        };
        let traced = if index.is_multiple_of(2) {
            untraced_s.push(untraced()?);
            traced_train(&cfg, &data, &traced_path)?
        } else {
            let t = traced_train(&cfg, &data, &traced_path)?;
            untraced_s.push(untraced()?);
            t
        };
        let identical = std::fs::read(&untraced_path)? == std::fs::read(&traced_path)?;
        mismatched += u64::from(!identical);
        failed += u64::from(!identical || !traced.converged);
        if index == 0 {
            std::fs::copy(&traced_path, &model0)?;
        }
        unconverged += u64::from(!traced.converged);
        eprintln!(
            "  traced rep {}: {:.3} s traced vs {:.3} s untraced, {} matvecs, coverage {:.4}",
            index + 1,
            traced.total_s,
            untraced_s.last().expect("pushed"),
            traced.applies.len(),
            traced.coverage()
        );
        reps.push(traced);
    }

    // predict: the panel predict path on the held-out rows
    let model = SvmModel::<f64>::load(&model0)?;
    let test = read_libsvm_file::<f64>(&files0.test, Some(model.features()))?;
    let predict_rate: Vec<f64> = (0..PROBE_PASSES)
        .map(|_| {
            let (s, _) = timed(|| black_box(predict_decision_values(&model, &test.x)));
            test.points() as f64 / s
        })
        .collect();

    // serve.model and serve.protocol, over the workload's own wire lines
    let load_s = (0..PROBE_PASSES)
        .map(|_| {
            let (s, loaded) = timed(|| ServeModel::load(&model0));
            loaded.map(|_| s)
        })
        .collect::<std::result::Result<Vec<f64>, String>>()?;
    let served = ServeModel::load(&model0)?;
    let wire = serve::wire_for(w, &model0, &files0.test)?;
    let lines = wire.lines(wire.rows());
    let per_line_us = |s: f64| s * 1e6 / lines.len() as f64;
    let parse_us: Vec<f64> = (0..PROBE_PASSES)
        .map(|_| {
            per_line_us(
                timed(|| {
                    for line in &lines {
                        black_box(parse_line(line.trim_end()));
                    }
                })
                .0,
            )
        })
        .collect();
    let predictions = served.predict_batch(&test.x)?;
    let (format, ids): (QueryFormat, Vec<String>) = if w == Workload::ServeTiny {
        (
            QueryFormat::Json,
            (0..lines.len()).map(|i| i.to_string()).collect(),
        )
    } else {
        (QueryFormat::Libsvm, Vec::new())
    };
    let format_us: Vec<f64> = (0..PROBE_PASSES)
        .map(|_| {
            per_line_us(
                timed(|| {
                    for (i, p) in predictions.iter().enumerate() {
                        let id = ids.get(i).map(String::as_str);
                        black_box(format_response(format, id, &Ok(*p)));
                    }
                })
                .0,
            )
        })
        .collect();

    // serve.engine and serve.net: the workload's traffic (a closed-loop
    // probe for the training workloads) against svm-serve --metrics-out
    let rounds = if w.is_serve() {
        serve::rounds(w, serve_share * opts.seconds)
    } else {
        vec![vec![Phase {
            name: "probe",
            load: Load::Closed {
                in_flight: serve::PEAK_IN_FLIGHT,
            },
            duration: Duration::from_secs_f64(serve_share * opts.seconds),
        }]]
    };
    let serve::Served { results, stats, .. } = serve::serve_rounds(
        bin,
        &model0,
        &wire,
        &rounds,
        Some(&opts.work_dir),
        0,
        &mut r,
    )?;
    serve::phase_diagnostics(&results, &mut r);
    let batch = stats.mean_batch_size().round().max(1.0) as usize;
    let row_us = batch_predict_row_us(&served, &test.x, batch)?;
    let transport: Vec<f64> = results
        .iter()
        .flat_map(|(_, p)| p.transport_us.iter().copied())
        .collect();
    let client_mean_us = transport.iter().sum::<f64>() / transport.len().max(1) as f64;
    let server_mean_us = stats.latency_us_sum / stats.requests.max(1.0);

    // the backend's own counters for data set 0 of the run
    let rep0 = &reps[0];
    let calls = rep0.applies.len().max(1) as f64;
    let evals = rep0
        .telemetry
        .kernel_evals
        .get("svm_kernel")
        .copied()
        .unwrap_or(0) as f64;
    let logical = rep0
        .telemetry
        .kernels
        .get("svm_kernel")
        .copied()
        .unwrap_or_default();
    let walls: Vec<f64> = reps
        .iter()
        .flat_map(|t| t.applies.iter().map(|a| a.0))
        .collect();
    let cpu: f64 = reps
        .iter()
        .flat_map(|t| t.applies.iter().map(|a| a.1))
        .sum();
    let matvec_s = median(&walls);
    let flops_per_call = evals / calls * kernel_flops(&cfg.kernel, test.features()) as f64;
    let matvec_gflops = flops_per_call / matvec_s / 1e9;
    let panel = panel_peak_gflops();
    let stage = |f: fn(&TracedTrain) -> f64| reps.iter().map(f).collect::<Vec<f64>>();

    r.median_metric("data.parse_s", "s", &parse_s);
    r.metric("data.parse_mb_per_s", "MB/s", train_mb / median(&parse_s));
    r.median_metric("data.model_write_s", "s", &stage(|t| t.write_s));
    r.median_metric("backend.setup_s", "s", &stage(|t| t.prepare_s));
    r.metric("backend.matvec_calls", "count", calls);
    r.median_metric("backend.matvec_s", "s", &walls);
    r.metric("backend.kernel_evals", "count", evals);
    r.metric("backend.matvec_gflops", "GFLOP/s", matvec_gflops);
    r.metric(
        "backend.flops_per_byte",
        "flop/B",
        logical.flops as f64 / logical.bytes.max(1) as f64,
    );
    r.metric(
        "backend.cpu_util",
        "fraction",
        cpu / walls.iter().sum::<f64>(),
    );
    r.metric(
        "backend.peak_frac",
        "fraction",
        matvec_gflops / median(&panel),
    );
    r.median_metric("simd.panel_gflops", "GFLOP/s", &panel);
    r.metric("solver.iterations", "count", rep0.iterations as f64);
    r.metric("solver.escalations", "count", rep0.escalations as f64);
    r.median_metric("solver.self_s", "s", &stage(|t| t.solve_s - t.matvec_s()));
    r.median_metric("svm.assemble_s", "s", &stage(|t| t.assemble_s));
    r.median_metric("predict.rows_per_s", "1/s", &predict_rate);
    r.median_metric("serve.load_s", "s", &load_s);
    r.median_metric("serve.parse_us", "us", &parse_us);
    r.median_metric("serve.format_us", "us", &format_us);
    r.metric("serve.batches", "count", stats.batches);
    r.metric("serve.mean_batch_size", "count", stats.mean_batch_size());
    r.metric(
        "serve.queue_wait_us",
        "us",
        stats.queued_us_sum / stats.batches.max(1.0),
    );
    r.metric(
        "serve.batch_predict_us",
        "us",
        stats.process_us_sum / stats.batches.max(1.0),
    );
    r.median_metric("serve.predict_row_us", "us", &row_us);
    r.metric("serve.shed", "count", stats.shed);
    r.metric("serve.server_latency_us", "us", server_mean_us);
    r.metric("serve.transport_us", "us", client_mean_us - server_mean_us);
    r.metric(
        "trace.overhead_frac",
        "fraction",
        median(&stage(|t| t.total_s)) / median(&untraced_s) - 1.0,
    );
    let coverage = stage(TracedTrain::coverage);
    r.median_metric("trace.coverage_frac", "fraction", &coverage);

    r.diagnostic("reps", "count", reps.len() as f64);
    r.diagnostic("untraced_train_s", "s", median(&untraced_s));
    r.diagnostic("traced_train_s", "s", median(&stage(|t| t.total_s)));
    r.diagnostic("serve.batch_size_used", "count", batch as f64);
    r.attempted += reps.len() as u64;
    r.failed += failed;
    r.check(
        "traced_model_byte_identical",
        mismatched == 0,
        format!(
            "{mismatched} of {} traced model files differ from LsSvm::train + save",
            reps.len()
        ),
    );
    r.check(
        "traced_converged",
        unconverged == 0,
        format!(
            "{unconverged} of {} traced solves did not converge",
            reps.len()
        ),
    );
    let min_coverage = coverage.iter().copied().fold(f64::INFINITY, f64::min);
    r.check(
        "trace_coverage",
        min_coverage >= 0.95,
        format!("layer self-times cover {min_coverage:.4} of the traced training time (>= 0.95)"),
    );
    Ok(r)
}
