//! `serve_bench` — overload sweep of the `svm-serve` micro-batching
//! engine over a real TCP loopback connection (the production wire path,
//! syscalls and all).
//!
//! It estimates the serving capacity of one pipelined connection, then
//! offers paced open-loop load at 1×/2×/4× that capacity against a
//! bounded queue (`--queue-watermark`-style admission plus a dequeue
//! deadline) and reports, per multiplier, offered load vs goodput, the
//! shed rate, and the p99 latency of the requests that were admitted
//! and served — `bench_results/serve_overload.csv`. Every request must
//! come back with exactly one structured reply; above capacity the
//! server is expected to shed rather than stall. `--smoke` runs a short
//! stream and skips the shedding check.
//!
//! Serving latency and peak throughput are measured by the serve-rbf and
//! serve-tiny workloads of `benchsuite/`.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use plssvm_bench::results_path;
use plssvm_bench::stats::percentile;
use plssvm_core::svm::LsSvm;
use plssvm_data::synthetic::{generate_planes, PlanesConfig};
use plssvm_serve::{
    serve_tcp, ConnectionOptions, Engine, EngineConfig, ServeModel, ServerControl, SystemClock,
};

/// Requests per load point (the "16k-row synthetic workload").
const REQUESTS: usize = 16_384;
/// Quick CI smoke variant.
const SMOKE_REQUESTS: usize = 2_048;

/// Trains the small serving model (32 points x 4 features, linear): the
/// per-row predict cost is tiny, so the benchmark isolates the serving
/// layer's per-request overhead — exactly what batching amortizes.
fn build_model() -> ServeModel {
    let data = generate_planes::<f64>(
        &PlanesConfig::new(32, 4, 99)
            .with_cluster_sep(3.0)
            .with_flip_fraction(0.0),
    )
    .expect("generate training data");
    let out = LsSvm::new()
        .with_epsilon(1e-6)
        .train(&data)
        .expect("train serving model");
    ServeModel::from_text(&out.model.to_model_string()).expect("load serving model")
}

/// Pre-renders the request stream as newline-terminated LIBSVM wire
/// lines (cycled rows of a fresh synthetic query set, so parsing cost is
/// part of the measurement but allocation of the stream itself is not).
fn build_requests(n: usize) -> Vec<String> {
    let queries = generate_planes::<f64>(
        &PlanesConfig::new(512, 4, 1234)
            .with_cluster_sep(3.0)
            .with_flip_fraction(0.0),
    )
    .expect("generate query data");
    (0..n)
        .map(|i| {
            let row = i % queries.points();
            let mut line = String::with_capacity(96);
            line.push('1');
            for j in 0..queries.features() {
                line.push_str(&format!(" {}:{:.3}", j + 1, queries.x.get(row, j)));
            }
            line.push('\n');
            line
        })
        .collect()
}

/// Starts a server on an ephemeral loopback port, runs `clients` against
/// it (the closure does its own timing, after connection setup), then
/// shuts the server down cleanly.
fn with_server<T, F>(config: EngineConfig, clients: F) -> T
where
    F: FnOnce(std::net::SocketAddr) -> T,
{
    let engine = Arc::new(Engine::new(
        build_model(),
        config,
        Arc::new(SystemClock::new()),
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let stop = Arc::new(AtomicBool::new(false));
    let control = Arc::new(ServerControl::unlimited());
    let server = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let control = Arc::clone(&control);
        std::thread::spawn(move || {
            serve_tcp(
                &engine,
                listener,
                &control,
                ConnectionOptions::default(),
                &stop,
                &|| {},
            )
        })
    };
    let result = clients(addr);
    stop.store(true, Ordering::SeqCst);
    server.join().expect("server thread").expect("serve_tcp");
    engine.shutdown();
    result
}

/// Connects and completes one warm-up round trip so connection setup,
/// accept-poll latency, and server thread spawn never count against the
/// measured load point.
fn connect_warm(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    stream.write_all(b"1 1:0\n").expect("warmup write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("warmup read");
    assert!(!line.trim().is_empty(), "warmup got no response");
    (stream, reader)
}

// ---------------------------------------------------------------------------
// Overload sweep: paced open-loop load above capacity.
// ---------------------------------------------------------------------------

/// One paced open-loop measurement point.
struct OverloadPoint {
    multiplier: f64,
    offered_rps: f64,
    goodput_rps: f64,
    shed_rate: f64,
    admitted_p99_us: f64,
    ok: usize,
    overloaded: usize,
    expired: usize,
}

/// The bounded-queue server the overload sweep runs against: a small
/// batch budget, a tight watermark, and a dequeue deadline — the
/// configuration an operator would run to keep tail latency bounded.
fn overload_config() -> EngineConfig {
    EngineConfig {
        max_batch: 64,
        queue_watermark: 256,
        deadline_us: 5_000,
    }
}

/// Estimates the sustainable *goodput* of one pipelined connection under
/// the bounded-queue overload config: stream `requests` unpaced and
/// count only the requests actually served — the rate the watermarked
/// queue can sustain is the capacity the sweep's multipliers scale.
fn estimate_capacity(requests: &[String]) -> f64 {
    with_server(overload_config(), |addr| {
        let (stream, mut reader) = connect_warm(addr);
        let start = Instant::now();
        let raw = stream.try_clone().expect("clone stream");
        let served = std::thread::scope(|s| {
            let mut writer = std::io::BufWriter::new(stream);
            s.spawn(move || {
                for line in requests {
                    writer.write_all(line.as_bytes()).expect("write");
                }
                writer.flush().expect("flush");
                raw.shutdown(Shutdown::Write).ok();
            });
            let mut line = String::new();
            let mut served = 0usize;
            for _ in 0..requests.len() {
                line.clear();
                reader.read_line(&mut line).expect("read");
                if !line.starts_with('{') {
                    served += 1;
                }
            }
            served
        });
        served.max(1) as f64 / start.elapsed().as_secs_f64()
    })
}

/// Offers `requests` at `offered_rps` (paced open loop: the sender holds
/// the schedule even when replies lag) and classifies every reply.
fn run_overload_point(requests: &[String], multiplier: f64, offered_rps: f64) -> OverloadPoint {
    with_server(overload_config(), |addr| {
        let (stream, mut reader) = connect_warm(addr);
        let raw = stream.try_clone().expect("clone stream");
        let interval = Duration::from_secs_f64(1.0 / offered_rps);
        let start = Instant::now();
        let (sent, done, replies) = std::thread::scope(|s| {
            let mut writer = std::io::BufWriter::new(stream);
            let sender = s.spawn(move || {
                let mut sent = Vec::with_capacity(requests.len());
                for (i, line) in requests.iter().enumerate() {
                    // hold the offered schedule: sleep for coarse gaps,
                    // spin out the sub-millisecond remainder
                    let target = start + interval.mul_f64(i as f64);
                    loop {
                        let now = Instant::now();
                        if now >= target {
                            break;
                        }
                        let remaining = target - now;
                        if remaining > Duration::from_millis(1) {
                            std::thread::sleep(remaining - Duration::from_millis(1));
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                    sent.push(Instant::now());
                    writer.write_all(line.as_bytes()).expect("write");
                    writer.flush().expect("flush");
                }
                raw.shutdown(Shutdown::Write).ok();
                sent
            });
            let mut done = Vec::with_capacity(requests.len());
            let mut replies = Vec::with_capacity(requests.len());
            let mut line = String::new();
            for _ in 0..requests.len() {
                line.clear();
                let read = reader.read_line(&mut line).expect("read");
                assert!(read > 0, "server closed before answering every request");
                done.push(Instant::now());
                replies.push(line.trim_end().to_string());
            }
            (sender.join().expect("sender"), done, replies)
        });
        let wall_s = start.elapsed().as_secs_f64();
        let (mut ok, mut overloaded, mut expired) = (0usize, 0usize, 0usize);
        let mut ok_latencies = Vec::with_capacity(replies.len());
        for ((reply, s), d) in replies.iter().zip(&sent).zip(&done) {
            if reply.contains("\"error\":\"overloaded\"") {
                overloaded += 1;
            } else if reply.contains("\"error\":\"deadline_exceeded\"") {
                expired += 1;
            } else {
                assert!(
                    !reply.starts_with('{'),
                    "unexpected error reply under overload: {reply}"
                );
                ok += 1;
                ok_latencies.push(d.duration_since(*s).as_secs_f64() * 1e6);
            }
        }
        OverloadPoint {
            multiplier,
            offered_rps,
            goodput_rps: ok as f64 / wall_s,
            shed_rate: (overloaded + expired) as f64 / replies.len() as f64,
            admitted_p99_us: percentile(&ok_latencies, 99.0),
            ok,
            overloaded,
            expired,
        }
    })
}

fn run_overload_sweep(smoke: bool) {
    let n = if smoke { SMOKE_REQUESTS } else { REQUESTS };
    let requests = build_requests(n);
    let capacity = estimate_capacity(&requests);
    println!("serve_bench overload: capacity estimate {capacity:.0} req/s ({n} requests/point)");

    let mut csv = String::from("multiplier,offered_rps,goodput_rps,shed_rate,admitted_p99_us\n");
    let mut points = Vec::new();
    for multiplier in [1.0, 2.0, 4.0] {
        let p = run_overload_point(&requests, multiplier, capacity * multiplier);
        println!(
            "  {multiplier:.0}x: offered {:.0} rps, goodput {:.0} rps, shed {:.1}% \
             (overloaded {}, deadline {}), admitted p99 {:.0} us, ok {}",
            p.offered_rps,
            p.goodput_rps,
            p.shed_rate * 100.0,
            p.overloaded,
            p.expired,
            p.admitted_p99_us,
            p.ok,
        );
        csv.push_str(&format!(
            "{:.0},{:.1},{:.1},{:.4},{:.1}\n",
            p.multiplier, p.offered_rps, p.goodput_rps, p.shed_rate, p.admitted_p99_us
        ));
        points.push(p);
    }
    // every point answered all n requests (asserted inline); above
    // capacity the server must shed rather than queue without bound. The
    // checks run before the CSV is written, so a failing run leaves no
    // artifact behind.
    if !smoke {
        let at_4x = points.last().expect("three points");
        assert!(
            at_4x.overloaded + at_4x.expired > 0,
            "4x capacity must shed with a 256-deep watermark"
        );
        assert!(
            at_4x.ok > 0,
            "the server must keep some goodput while shedding"
        );
        println!("SUCCESS: sheds above capacity, goodput stays nonzero");
    }
    let path = results_path("serve_overload.csv");
    plssvm_data::write_atomic(&path, csv.as_bytes()).expect("write csv");
    println!("wrote {}", path.display());
}

fn main() {
    // `overload` is accepted for compatibility: the sweep is the only mode
    run_overload_sweep(std::env::args().any(|a| a == "--smoke"));
}
