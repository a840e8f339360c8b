//! Driving the real `svm-serve` binary: process start and drain, the two
//! wire formats, and the open- and closed-loop load generators.
//!
//! Load comes from one connection per phase: an open loop uses a sender
//! and a receiver thread, a closed loop one thread. Replies arrive in
//! request order, so reply `i` belongs to request `i`; every reply is
//! checked against the library's own prediction for the same row.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use plssvm_core::svm::predict_decision_values;
use plssvm_core::trace::json_f64;
use plssvm_data::libsvm::{read_libsvm_file, read_libsvm_str, LabeledData};
use plssvm_data::model::SvmModel;

use crate::report::{median, percentile, RunReport};
use crate::workload::{write_dataset, Workload};
use crate::{Options, Result};

/// How long the harness waits for `svm-serve` to report its address, to
/// drain, or to send any single reply before it declares the run failed.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `svm-serve --listen 127.0.0.1:0` child process.
pub struct Server {
    child: Child,
    /// The address the server reported listening on.
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl Server {
    /// Starts `svm-serve` on `model` with default flags (plus
    /// `--metrics-out` when given) and waits for its `listening on` line.
    /// Returns the server and the time from spawn to that line.
    pub fn start(bin: &Path, model: &Path, metrics_out: Option<&Path>) -> Result<(Self, f64)> {
        let t0 = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.args(["--listen", "127.0.0.1:0"]);
        if let Some(path) = metrics_out {
            cmd.arg("--metrics-out").arg(path);
        }
        let mut child = cmd
            .arg(model)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (addr_tx, addr_rx) = mpsc::channel();
        // one thread reads stderr for the whole life of the child, so the
        // server never blocks on a full pipe; it forwards the address line
        let reader = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stderr).lines().map_while(|l| l.ok()) {
                if let Some(addr) = line.split("listening on ").nth(1) {
                    let _ = addr_tx.send(addr.trim().to_owned());
                }
                lines.push(line);
            }
            lines
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        let addr = addr_rx
            .recv_timeout(PROCESS_TIMEOUT)
            .map_err(|_| "svm-serve did not report a listening address")?;
        let startup_s = t0.elapsed().as_secs_f64();
        server.addr = addr
            .parse()
            .map_err(|e| format!("bad listen address '{addr}': {e}"))?;
        Ok((server, startup_s))
    }

    /// The child's peak resident set size in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        crate::host::peak_rss_mib(Some(self.child.id()))
    }

    /// Sends the `shutdown` control line and waits for the drain to
    /// finish. Fails unless the process exits 0.
    pub fn shutdown(mut self) -> Result<()> {
        let mut control = TcpStream::connect(self.addr)?;
        control.set_read_timeout(Some(PROCESS_TIMEOUT))?;
        control.write_all(b"shutdown\n")?;
        let mut ack = String::new();
        BufReader::new(&control).read_line(&mut ack)?;
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break status;
            }
            if Instant::now() > deadline {
                return Err("svm-serve did not exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let stderr = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        if !status.success() {
            return Err(format!("svm-serve exited with {status}: {}", stderr.join("\n")).into());
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // error paths: never leave a server behind
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// The request stream of a workload and the reply each request must get.
pub struct Wire {
    json: bool,
    /// Per held-out row: the full LIBSVM line, or the JSON tail after the
    /// request id (`,"features":[...]}`).
    requests: Vec<String>,
    /// Per held-out row: the expected LIBSVM reply (the label), or the
    /// JSON tail after the reply id (`,"label":L,"decision":D}`).
    replies: Vec<String>,
    /// Per held-out row: whether the library's label is the true label.
    correct: Vec<bool>,
}

impl Wire {
    /// Builds the stream for `test` (whose LIBSVM text is `test_text`)
    /// against the model the server loads, as the library predicts it.
    pub fn new(
        json: bool,
        model: &SvmModel<f64>,
        test: &LabeledData<f64>,
        test_text: &str,
    ) -> Self {
        let decisions = predict_decision_values(model, &test.x);
        let mut requests = Vec::with_capacity(test.points());
        let mut replies = Vec::with_capacity(test.points());
        let mut correct = Vec::with_capacity(test.points());
        for (p, line) in test_text.lines().enumerate() {
            let label = model.decide(decisions[p]);
            correct.push(label == test.original_label(test.y[p]));
            if json {
                let features: Vec<String> =
                    test.x.row(p).iter().map(|v| format!("{v:?}")).collect();
                requests.push(format!(",\"features\":[{}]}}", features.join(",")));
                replies.push(format!(
                    ",\"label\":{label},\"decision\":{}}}",
                    json_f64(decisions[p])
                ));
            } else {
                requests.push(line.to_owned());
                replies.push(label.to_string());
            }
        }
        assert_eq!(requests.len(), test.points(), "one LIBSVM line per row");
        Wire {
            json,
            requests,
            replies,
            correct,
        }
    }

    /// Distinct rows in the stream.
    pub fn rows(&self) -> usize {
        self.requests.len()
    }

    /// The wire lines of the stream's first `n` requests, in order.
    pub fn lines(&self, n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                let mut buf = Vec::new();
                self.write_request(i, &mut buf).expect("write to a Vec");
                String::from_utf8(buf).expect("utf-8 request")
            })
            .collect()
    }

    fn write_request(&self, i: usize, out: &mut impl Write) -> std::io::Result<()> {
        let row = &self.requests[i % self.requests.len()];
        if self.json {
            writeln!(out, "{{\"id\":{i}{row}")
        } else {
            out.write_all(row.as_bytes())?;
            out.write_all(b"\n")
        }
    }

    /// Whether `reply` is exactly the library's answer to request `i`.
    fn check_reply(&self, i: usize, reply: &str) -> bool {
        let expected = &self.replies[i % self.replies.len()];
        if !self.json {
            return reply == expected;
        }
        reply
            .strip_prefix("{\"id\":")
            .and_then(|rest| rest.split_once(','))
            .is_some_and(|(id, tail)| id.parse() == Ok(i) && expected[1..] == *tail)
    }

    /// Whether the library's (and so the server's) label for request `i`
    /// is the row's true label.
    fn predicted_correctly(&self, i: usize) -> bool {
        self.correct[i % self.correct.len()]
    }
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Requests scheduled at a fixed rate, sent whether or not earlier
    /// replies arrived.
    Open {
        /// Offered requests per second.
        rps: f64,
    },
    /// A fixed number of requests kept outstanding.
    Closed {
        /// Requests in flight.
        in_flight: usize,
    },
}

/// One load phase of a serve run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Phase name, the prefix of its diagnostics.
    pub name: &'static str,
    /// How load is offered.
    pub load: Load,
    /// How long requests are sent.
    pub duration: Duration,
}

/// What one phase measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    /// Requests sent.
    pub sent: usize,
    /// Replies that were exactly the library's answer.
    pub ok: usize,
    /// Requests with a wrong, error or missing reply.
    pub failed: usize,
    /// Correct replies whose label is the row's true label.
    pub correct_labels: usize,
    /// Open loop: per request, reply time minus scheduled send time (ms).
    pub latency_ms: Vec<f64>,
    /// Open loop: per request, actual minus scheduled send time (µs).
    pub late_us: Vec<f64>,
    /// Per request, reply time minus actual send time (µs).
    pub transport_us: Vec<f64>,
    /// Closed loop: correct replies received before the phase ended, per
    /// second of the phase.
    pub completed_rps: f64,
}

impl PhaseResult {
    /// Nearest-rank latency percentile in ms (0 without samples).
    pub fn latency_pct(&self, p: f64) -> f64 {
        if self.latency_ms.is_empty() {
            0.0
        } else {
            percentile(&self.latency_ms, p)
        }
    }
}

/// Connects and completes one round trip, so connection setup and the
/// server's accept poll never count against the phase.
fn connect_warm(addr: SocketAddr, wire: &Wire) -> Result<(TcpStream, BufReader<TcpStream>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(PROCESS_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    wire.write_request(0, &mut stream)?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if !wire.check_reply(0, line.trim_end()) {
        return Err(format!("warm-up request got '{}'", line.trim_end()).into());
    }
    Ok((stream, reader))
}

/// Send and reply times of one phase's requests, in request order.
#[derive(Default)]
struct Log {
    /// Open loop: when each request was scheduled.
    due: Vec<Instant>,
    sent: Vec<Instant>,
    replies: Vec<Instant>,
    /// Whether each reply was exactly the library's answer.
    checks: Vec<bool>,
}

impl Log {
    /// Reads one reply; `false` at the end of the stream (or on a read
    /// error or timeout, which leaves the remaining requests unanswered).
    fn receive(
        &mut self,
        reader: &mut BufReader<TcpStream>,
        wire: &Wire,
        line: &mut String,
    ) -> bool {
        line.clear();
        if !matches!(reader.read_line(line), Ok(n) if n > 0) {
            return false;
        }
        self.replies.push(Instant::now());
        let i = self.checks.len();
        self.checks.push(wire.check_reply(i, line.trim_end()));
        true
    }
}

/// Open loop: a sender thread sleeps until the next request is due and
/// then sends every request that is due (it never spins); this thread
/// reads replies until the server closes the connection.
fn open_loop(
    stream: TcpStream,
    mut reader: BufReader<TcpStream>,
    wire: &Wire,
    rps: f64,
    duration: Duration,
) -> Result<Log> {
    let start = Instant::now();
    let n = (rps * duration.as_secs_f64()) as usize;
    let at = |i: usize| start + Duration::from_secs_f64(i as f64 / rps);
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> std::io::Result<(Vec<Instant>, Vec<Instant>)> {
            let mut writer = BufWriter::new(stream);
            let (mut due, mut sent) = (Vec::with_capacity(n), Vec::with_capacity(n));
            while sent.len() < n {
                let next = at(sent.len());
                let now = Instant::now();
                if next > now {
                    std::thread::sleep(next - now);
                }
                let now = Instant::now();
                while sent.len() < n && at(sent.len()) <= now {
                    wire.write_request(sent.len(), &mut writer)?;
                    due.push(at(sent.len()));
                    sent.push(now);
                }
                writer.flush()?;
            }
            writer.get_ref().shutdown(Shutdown::Write)?;
            Ok((due, sent))
        });
        let mut log = Log::default();
        let mut line = String::new();
        while log.receive(&mut reader, wire, &mut line) {}
        (log.due, log.sent) = sender.join().expect("sender thread")?;
        Ok(log)
    })
}

/// Closed loop on one thread: keep `in_flight` requests outstanding,
/// sending a new one for each reply until `end`, flushing whenever the
/// replies received so far are used up; then collect the rest.
fn closed_loop(
    stream: TcpStream,
    mut reader: BufReader<TcpStream>,
    wire: &Wire,
    in_flight: usize,
    end: Instant,
) -> Result<Log> {
    let mut writer = BufWriter::new(stream);
    let mut log = Log::default();
    let send = |log: &mut Log, writer: &mut BufWriter<TcpStream>| {
        log.sent.push(Instant::now());
        wire.write_request(log.sent.len() - 1, writer)
    };
    for _ in 0..in_flight {
        send(&mut log, &mut writer)?;
    }
    writer.flush()?;
    let mut line = String::new();
    while log.replies.len() < log.sent.len() && log.receive(&mut reader, wire, &mut line) {
        if Instant::now() < end {
            send(&mut log, &mut writer)?;
        }
        if reader.buffer().is_empty() {
            writer.flush()?;
        }
    }
    writer.flush()?;
    writer.get_ref().shutdown(Shutdown::Write)?;
    Ok(log)
}

/// Runs one phase on a fresh, warmed-up connection.
pub fn run_phase(addr: SocketAddr, wire: &Wire, phase: Phase) -> Result<PhaseResult> {
    let (stream, reader) = connect_warm(addr, wire)?;
    let end = Instant::now() + phase.duration;
    let Log {
        due,
        sent,
        replies,
        checks,
    } = match phase.load {
        Load::Open { rps } => open_loop(stream, reader, wire, rps, phase.duration)?,
        Load::Closed { in_flight } => closed_loop(stream, reader, wire, in_flight, end)?,
    };

    let mut r = PhaseResult {
        sent: sent.len(),
        ..PhaseResult::default()
    };
    for (i, (&reply, &ok)) in replies.iter().zip(&checks).enumerate().take(sent.len()) {
        if !ok {
            continue;
        }
        r.ok += 1;
        if wire.predicted_correctly(i) {
            r.correct_labels += 1;
        }
        r.transport_us
            .push(reply.duration_since(sent[i]).as_secs_f64() * 1e6);
        if let Some(&d) = due.get(i) {
            r.latency_ms
                .push(reply.duration_since(d).as_secs_f64() * 1e3);
            r.late_us
                .push(sent[i].duration_since(d).as_secs_f64() * 1e6);
        }
    }
    r.failed = r.sent - r.ok;
    // the server answers a pipelined burst with one flush, so replies
    // arrive in waves of up to `in_flight`: count over the whole phase,
    // not per short window, to keep that granularity out of the rate
    let in_time = replies
        .iter()
        .zip(&checks)
        .filter(|(&t, &ok)| ok && t <= end)
        .count();
    r.completed_rps = in_time as f64 / phase.duration.as_secs_f64();
    Ok(r)
}

/// Server-side statistics read back from `svm-serve --metrics-out`,
/// summed over the servers of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Micro-batches flushed.
    pub batches: f64,
    /// Requests that went through those batches.
    pub batched_requests: f64,
    /// Sum over batches of the oldest request's queue wait (µs).
    pub queued_us_sum: f64,
    /// Sum of batched prediction times (µs).
    pub process_us_sum: f64,
    /// Requests answered.
    pub requests: f64,
    /// Sum of request latencies (µs).
    pub latency_us_sum: f64,
    /// Requests shed (overloaded or past their deadline).
    pub shed: f64,
}

/// The number after `"key":` in a flat JSON line.
fn json_number(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

impl ServerStats {
    /// Parses the JSON lines `svm-serve` writes to `--metrics-out`.
    pub fn parse(json_lines: &str) -> Self {
        let line = |kind: &str| {
            json_lines
                .lines()
                .find(|l| l.contains(&format!("\"type\":\"{kind}\"")))
                .unwrap_or("")
        };
        let num = |kind: &str, key: &str| json_number(line(kind), key).unwrap_or(0.0);
        let batches = num("serve_batches", "count");
        ServerStats {
            batches,
            batched_requests: num("serve_batches", "mean_batch_size") * batches,
            queued_us_sum: num("serve_batches", "queued_us_sum"),
            process_us_sum: num("serve_batches", "process_us_sum"),
            requests: num("serve_requests", "count"),
            latency_us_sum: num("serve_requests", "latency_us_sum"),
            shed: num("serve_overload", "shed") + num("serve_overload", "deadline_exceeded"),
        }
    }

    /// Adds another server's statistics.
    pub fn add(&mut self, other: &Self) {
        self.batches += other.batches;
        self.batched_requests += other.batched_requests;
        self.queued_us_sum += other.queued_us_sum;
        self.process_us_sum += other.process_us_sum;
        self.requests += other.requests;
        self.latency_us_sum += other.latency_us_sum;
        self.shed += other.shed;
    }

    /// Mean requests per batch (0 without batches).
    pub fn mean_batch_size(&self) -> f64 {
        self.batched_requests / self.batches.max(1.0)
    }
}

/// Timed starts of `svm-serve` behind `setup_s`, counting the rounds' own.
const SETUP_STARTS: usize = 9;
/// Requests kept outstanding in the closed-loop `peak` phase.
pub const PEAK_IN_FLIGHT: usize = 512;
/// Rounds per run, each against a freshly started server. A metric is the
/// median over rounds, so a burst of contention from outside the
/// benchmark spoils one round, not the run, and a run samples several
/// server processes rather than one.
const ROUNDS: usize = 5;

/// The load phases of a serve workload, splitting `seconds` between
/// [`ROUNDS`] rounds of the workload's phase sequence.
pub fn rounds(workload: Workload, seconds: f64) -> Vec<Vec<Phase>> {
    let phase = |name, load, share: f64| Phase {
        name,
        load,
        duration: Duration::from_secs_f64(seconds * share / ROUNDS as f64),
    };
    let light = Load::Open { rps: 1000.0 };
    let peak = Load::Closed {
        in_flight: PEAK_IN_FLIGHT,
    };
    let round = match workload {
        Workload::ServeRbf => vec![
            phase("light", light, 0.3),
            phase("heavy", Load::Open { rps: 3000.0 }, 0.2),
            phase("peak", peak, 0.5),
        ],
        _ => vec![phase("light", light, 0.3), phase("peak", peak, 0.7)],
    };
    vec![round; ROUNDS]
}

/// The model a serve workload serves, trained (untimed) from data set 0
/// of the run and saved where `svm-serve` loads it, plus the held-out
/// request stream.
pub fn prepare_model(opts: &Options, model_path: &Path) -> Result<Wire> {
    let files = write_dataset(
        &opts.work_dir,
        opts.workload.sizes(opts.smoke),
        opts.seed,
        0,
    )?;
    let data = read_libsvm_file::<f64>(&files.train, None)?;
    opts.workload
        .trainer(opts.smoke)
        .train(&data)?
        .model
        .save(model_path)?;
    wire_for(opts.workload, model_path, &files.test)
}

/// The request stream of `workload` over the held-out file `test`, with
/// the replies the model at `model_path` must give.
pub fn wire_for(workload: Workload, model_path: &Path, test: &Path) -> Result<Wire> {
    let model = SvmModel::<f64>::load(model_path)?;
    let text = std::fs::read_to_string(test)?;
    let test = read_libsvm_str::<f64>(&text, Some(model.features()))?;
    Ok(Wire::new(
        workload == Workload::ServeTiny,
        &model,
        &test,
        &text,
    ))
}

/// What the servers of a run measured.
#[derive(Debug, Default)]
pub struct Served {
    /// Every phase with its result, in order.
    pub results: Vec<(Phase, PhaseResult)>,
    /// Seconds from spawn to the `listening on` line, per start.
    pub startups: Vec<f64>,
    /// Each round's server `VmHWM` before shutdown, in MiB.
    pub peak_rss: Vec<f64>,
    /// `--metrics-out` statistics summed over the rounds' servers.
    pub stats: ServerStats,
}

/// Plays each round against a freshly started `svm-serve` on `model`,
/// counting requests and failures into `r`, then starts and drains the
/// server until `min_starts` starts were timed. With `metrics_dir`, every
/// round's server writes `--metrics-out` there and [`Served::stats`] sums
/// them.
pub fn serve_rounds(
    bin: &Path,
    model: &Path,
    wire: &Wire,
    rounds: &[Vec<Phase>],
    metrics_dir: Option<&Path>,
    min_starts: usize,
    r: &mut RunReport,
) -> Result<Served> {
    let mut served = Served::default();
    for (i, phases) in rounds.iter().enumerate() {
        let metrics = metrics_dir.map(|d| d.join(format!("serve-metrics-{i}.jsonl")));
        let (server, startup) = Server::start(bin, model, metrics.as_deref())?;
        served.startups.push(startup);
        for &phase in phases {
            let p = run_phase(server.addr, wire, phase)?;
            let rate = match phase.load {
                Load::Open { .. } => format!(
                    "p50 {:.3} ms, p99 {:.3} ms",
                    p.latency_pct(50.0),
                    p.latency_pct(99.0)
                ),
                Load::Closed { .. } => format!("{:.0} requests/s", p.completed_rps),
            };
            eprintln!(
                "  {}: {} sent, {} failed, {rate}",
                phase.name, p.sent, p.failed
            );
            r.attempted += p.sent as u64;
            r.failed += p.failed as u64;
            served.results.push((phase, p));
        }
        served.peak_rss.extend(server.peak_rss_mib());
        server.shutdown()?;
        if let Some(path) = metrics {
            served
                .stats
                .add(&ServerStats::parse(&std::fs::read_to_string(path)?));
        }
    }
    while served.startups.len() < min_starts {
        let (server, startup) = Server::start(bin, model, None)?;
        served.startups.push(startup);
        server.shutdown()?;
    }
    let sent: usize = served.results.iter().map(|(_, p)| p.sent).sum();
    let failed: usize = served.results.iter().map(|(_, p)| p.failed).sum();
    r.check(
        "one_correct_reply_per_request",
        failed == 0,
        format!(
            "{failed} of {sent} requests got no reply, an error, or a reply that \
             differs from the library's prediction"
        ),
    );
    Ok(served)
}

/// Median over the rounds of phase `name` of `f`.
pub fn round_median(
    results: &[(Phase, PhaseResult)],
    name: &str,
    f: impl Fn(&PhaseResult) -> f64,
) -> f64 {
    let per_round: Vec<f64> = results
        .iter()
        .filter(|(phase, _)| phase.name == name)
        .map(|(_, p)| f(p))
        .collect();
    if per_round.is_empty() {
        0.0
    } else {
        median(&per_round)
    }
}

/// Records each phase's numbers as diagnostics: for open-loop phases the
/// median over rounds of p50, and p99 / p99.9 / sender lateness over all
/// their requests; for closed-loop phases the median rate over rounds.
pub fn phase_diagnostics(results: &[(Phase, PhaseResult)], r: &mut RunReport) {
    let mut names: Vec<(&str, Load)> = Vec::new();
    for (phase, _) in results {
        if !names.iter().any(|(n, _)| *n == phase.name) {
            names.push((phase.name, phase.load));
        }
    }
    for (name, load) in names {
        let of_name = || results.iter().filter(move |(p, _)| p.name == name);
        let key = |m: &str| format!("{name}.{m}");
        let sent: usize = of_name().map(|(_, p)| p.sent).sum();
        r.diagnostic(&key("sent"), "count", sent as f64);
        match load {
            Load::Open { .. } => {
                let pooled = |f: fn(&PhaseResult) -> &Vec<f64>, pct: f64| {
                    let all: Vec<f64> = of_name().flat_map(|(_, p)| f(p).iter().copied()).collect();
                    if all.is_empty() {
                        0.0
                    } else {
                        percentile(&all, pct)
                    }
                };
                r.diagnostic(
                    &key("p50_ms"),
                    "ms",
                    round_median(results, name, |p| p.latency_pct(50.0)),
                );
                r.diagnostic(&key("p99_ms"), "ms", pooled(|p| &p.latency_ms, 99.0));
                r.diagnostic(&key("p99_9_ms"), "ms", pooled(|p| &p.latency_ms, 99.9));
                r.diagnostic(
                    &key("sender_late_p99_us"),
                    "us",
                    pooled(|p| &p.late_us, 99.0),
                );
            }
            Load::Closed { .. } => r.diagnostic(
                &key("rps"),
                "1/s",
                round_median(results, name, |p| p.completed_rps),
            ),
        }
    }
}

/// Share of correct replies whose label is the row's true label.
pub fn served_accuracy(results: &[(Phase, PhaseResult)]) -> f64 {
    let ok: usize = results.iter().map(|(_, p)| p.ok).sum();
    let correct: usize = results.iter().map(|(_, p)| p.correct_labels).sum();
    correct as f64 / ok.max(1) as f64
}

/// The end-to-end run of `serve-rbf` / `serve-tiny`.
pub fn run_e2e(opts: &Options) -> Result<RunReport> {
    let bin = opts.serve_bin()?;
    let model_path = opts.work_dir.join("model.txt");
    let wire = prepare_model(opts, &model_path)?;
    let rounds = rounds(opts.workload, opts.seconds);
    let mut r = RunReport::default();
    let served = serve_rounds(bin, &model_path, &wire, &rounds, None, SETUP_STARTS, &mut r)?;
    let results = &served.results;
    r.median_metric("setup_s", "s", &served.startups);
    r.metric(
        "latency_ms",
        "ms",
        round_median(results, "light", |p| p.latency_pct(50.0)),
    );
    r.metric(
        "throughput_per_s",
        "1/s",
        round_median(results, "peak", |p| p.completed_rps),
    );
    r.metric("test_accuracy", "fraction", served_accuracy(results));
    if served.peak_rss.len() == rounds.len() {
        r.median_metric("peak_rss_mb", "MiB", &served.peak_rss);
    } else {
        r.metric("peak_rss_mb", "MiB", f64::NAN);
    }
    phase_diagnostics(results, &mut r);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_stats_parse_the_metrics_lines() {
        let lines = "{\"type\":\"serve_batches\",\"count\":4,\"max_queue_depth\":9,\
                     \"queued_us_sum\":100,\"process_us_sum\":40,\"mean_batch_size\":2.5}\n\
                     {\"type\":\"serve_batch_size\",\"size\":2,\"count\":2}\n\
                     {\"type\":\"serve_requests\",\"count\":10,\"errors\":0,\
                     \"latency_us_sum\":250,\"latency_us_max\":60,\"mean_latency_us\":25.0}\n";
        let s = ServerStats::parse(lines);
        assert_eq!(s.batches, 4.0);
        assert_eq!(s.mean_batch_size(), 2.5);
        assert_eq!(s.queued_us_sum, 100.0);
        assert_eq!(s.process_us_sum, 40.0);
        assert_eq!(s.requests, 10.0);
        assert_eq!(s.latency_us_sum, 250.0);
        assert_eq!(s.shed, 0.0);
        let mut sum = s.clone();
        sum.add(&ServerStats::parse(lines));
        assert_eq!((sum.batches, sum.mean_batch_size()), (8.0, 2.5));
    }

    #[test]
    fn json_replies_must_echo_the_request_id() {
        use plssvm_data::libsvm::read_libsvm_str;
        let text = "1 1:2\n-1 1:-2\n";
        let test = read_libsvm_str::<f64>(text, None).unwrap();
        let model = SvmModel::<f64>::from_model_string(
            "svm_type c_svc\nkernel_type linear\nnr_class 2\n\
                 total_sv 1\nrho 0\nlabel 1 -1\nnr_sv 1 0\nSV\n1 1:1\n",
        )
        .unwrap();
        let wire = Wire::new(true, &model, &test, text);
        assert_eq!(
            wire.lines(3),
            vec![
                "{\"id\":0,\"features\":[2.0]}\n",
                "{\"id\":1,\"features\":[-2.0]}\n",
                "{\"id\":2,\"features\":[2.0]}\n"
            ]
        );
        assert!(wire.check_reply(1, "{\"id\":1,\"label\":-1,\"decision\":-2.0}"));
        assert!(!wire.check_reply(0, "{\"id\":1,\"label\":-1,\"decision\":-2.0}"));
        assert!(!wire.check_reply(1, "{\"id\":1,\"label\":-1,\"decision\":-2.5}"));
        assert!(!wire.check_reply(1, "{\"id\":1,\"error\":\"overloaded\"}"));
        let libsvm = Wire::new(false, &model, &test, text);
        assert!(libsvm.check_reply(2, "1") && !libsvm.check_reply(2, "-1"));
    }
}
