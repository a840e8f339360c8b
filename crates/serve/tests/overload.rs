//! Overload-robustness harness for the serving stack.
//!
//! Two groups. The **deterministic** group runs the engine on a
//! [`ManualClock`] with a gate that holds the batch worker, and pins the
//! admission/deadline/drain semantics with zero sleeps: watermark sheds answer `overloaded`, expired requests
//! answer `deadline_exceeded` without spending a batch slot, a draining
//! engine answers `shutting_down` while in-flight requests finish. The
//! **chaos** group drives a real TCP server with seeded adversarial
//! clients — stalled mid-line, byte-at-a-time, mid-line disconnect,
//! open-loop load far above capacity — and asserts the one invariant
//! that matters under overload: every request gets exactly one
//! structured reply, the server never wedges, and no admission slot
//! leaks.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use plssvm_serve::{
    serve_lines, serve_tcp, Clock, ConnectionOptions, Engine, EngineConfig, ManualClock, Pending,
    ServeModel, ServerControl, SystemClock, DRAIN_ACK, ERR_CLIENT_TIMEOUT_LINE,
    ERR_LINE_TOO_LONG_LINE, ERR_REFUSED_LINE,
};

/// f(x) = x1 - x2 on two features.
const MODEL: &str = "svm_type c_svc\nkernel_type linear\nnr_class 2\ntotal_sv 2\nrho 0\nlabel 1 -1\nnr_sv 1 1\nSV\n1 1:1\n-1 2:1\n";

/// A [`ManualClock`] that can also hold the engine's batch worker. The
/// worker samples [`Clock::wake_count`] at the top of every loop, before
/// it takes from the queue, and blocks there while the gate is closed;
/// nothing else calls `wake_count`, so submitters are never held.
#[derive(Default)]
struct GatedClock {
    manual: ManualClock,
    closed: Mutex<bool>,
    cv: Condvar,
}

impl GatedClock {
    /// Holds the worker at its next take.
    fn close(&self) {
        *self.closed.lock().unwrap() = true;
    }

    /// Lets the worker take what queued meanwhile.
    fn open(&self) {
        *self.closed.lock().unwrap() = false;
        self.cv.notify_all();
    }
}

impl Clock for GatedClock {
    fn now_us(&self) -> u64 {
        self.manual.now_us()
    }

    fn wake_count(&self) -> u64 {
        let mut closed = self.closed.lock().unwrap();
        while *closed {
            closed = self.cv.wait(closed).unwrap();
        }
        drop(closed);
        self.manual.wake_count()
    }

    fn wake(&self) {
        self.manual.wake();
    }

    fn wait(&self, seen: u64) {
        self.manual.wait(seen);
    }
}

/// An engine on a [`GatedClock`] whose worker starts held: every request
/// submitted before `open` queues, and time moves only on `advance`.
fn held_engine(config: EngineConfig) -> (Engine, Arc<GatedClock>) {
    let clock = Arc::new(GatedClock::default());
    clock.close();
    let engine = Engine::new(ServeModel::from_text(MODEL).unwrap(), config, clock.clone());
    (engine, clock)
}

// ---------------------------------------------------------------------
// deterministic group: gated ManualClock, no sleeps
// ---------------------------------------------------------------------

#[test]
fn watermark_shed_answers_overloaded_and_queued_requests_still_complete() {
    let (engine, clock) = held_engine(EngineConfig {
        max_batch: 100,
        queue_watermark: 4,
        deadline_us: 0,
    });
    // fill the queue to the watermark; nothing is taken (worker held)
    let queued: Vec<Pending> = (0..4)
        .map(|i| {
            engine
                .handle_line(&format!(r#"{{"id":{i},"features":[3,1]}}"#), false)
                .unwrap()
        })
        .collect();
    assert_eq!(engine.queue_depth(), 4);
    // the 5th request hits the watermark: shed, id echoed, counted once
    let shed = engine
        .handle_line(r#"{"id":99,"features":[1,0]}"#, false)
        .unwrap();
    assert_eq!(
        engine.resolve(shed),
        r#"{"id":99,"error":"overloaded"}"#,
        "watermark shed must answer the structured overload error"
    );
    assert_eq!(
        engine.queue_depth(),
        4,
        "a shed request must not occupy a slot"
    );
    // the admitted requests are unharmed once the worker is free
    clock.open();
    for (i, p) in queued.into_iter().enumerate() {
        assert_eq!(
            engine.resolve(p),
            format!(r#"{{"id":{i},"label":1,"decision":2.0}}"#)
        );
    }
    engine.shutdown();
    let serve = engine.stats();
    assert_eq!(serve.shed_overloaded, 1);
    assert_eq!(
        serve.requests, 4,
        "sheds are not counted as served requests"
    );
}

#[test]
fn expired_requests_answer_deadline_exceeded_without_spending_a_batch_slot() {
    let (engine, clock) = held_engine(EngineConfig {
        max_batch: 2,
        queue_watermark: 0,
        deadline_us: 500,
    });
    // one request ages past its deadline before the worker is free
    let a = engine
        .handle_line(r#"{"id":"a","features":[3,1]}"#, false)
        .unwrap();
    clock.manual.advance(501); // strictly past enq + deadline → expired
    clock.open();
    assert_eq!(
        engine.resolve(a),
        r#"{"id":"a","error":"deadline_exceeded"}"#
    );
    // a full batch submitted back-to-back to the idle worker is served
    // as one batch — deadlines never slow down live work
    clock.manual.wait_for_parked(1);
    let b = engine
        .handle_line(r#"{"id":"b","features":[3,1]}"#, true)
        .unwrap();
    let c = engine
        .handle_line(r#"{"id":"c","features":[0,5]}"#, true)
        .unwrap();
    assert_eq!(engine.resolve(b), r#"{"id":"b","label":1,"decision":2.0}"#);
    assert_eq!(
        engine.resolve(c),
        r#"{"id":"c","label":-1,"decision":-5.0}"#
    );
    engine.shutdown();
    let serve = engine.stats();
    assert_eq!(serve.shed_deadline, 1);
    assert_eq!(
        serve.batches, 1,
        "the expired request must never form a batch"
    );
    assert_eq!(serve.batch_size_hist.get(&2), Some(&1));
    // an expired-but-admitted request still resolves, as an error
    assert_eq!(serve.requests, 3);
    assert_eq!(serve.request_errors, 1);
}

#[test]
fn deadline_purge_never_delays_live_requests_behind_expired_ones() {
    // an expired request at the queue head must not drag fresh survivors
    // out with it: the expired prefix is answered and the live request
    // is served in the same take
    let (engine, clock) = held_engine(EngineConfig {
        max_batch: 100,
        queue_watermark: 0,
        deadline_us: 1_000,
    });
    let old = engine
        .handle_line(r#"{"id":"old","features":[3,1]}"#, false)
        .unwrap();
    clock.manual.advance(900); // old is 900µs in: not yet expired
    let young = engine
        .handle_line(r#"{"id":"young","features":[3,1]}"#, false)
        .unwrap();
    clock.manual.advance(200); // old: 1100µs > deadline; young: 200µs, live
    clock.open();
    assert_eq!(
        engine.resolve(old),
        r#"{"id":"old","error":"deadline_exceeded"}"#
    );
    assert_eq!(
        engine.resolve(young),
        r#"{"id":"young","label":1,"decision":2.0}"#,
        "the live request must survive the purge"
    );
    // a request held past its own deadline expires too
    clock.manual.wait_for_parked(1);
    clock.close();
    let late = engine
        .handle_line(r#"{"id":"late","features":[3,1]}"#, false)
        .unwrap();
    clock.manual.advance(1_001);
    clock.open();
    assert_eq!(
        engine.resolve(late),
        r#"{"id":"late","error":"deadline_exceeded"}"#
    );
    engine.shutdown();
    assert_eq!(engine.stats().shed_deadline, 2);
}

#[test]
fn draining_engine_finishes_inflight_and_sheds_new_work() {
    let (engine, clock) = held_engine(EngineConfig {
        max_batch: 100,
        queue_watermark: 0,
        deadline_us: 0,
    });
    let inflight = engine
        .handle_line(r#"{"id":1,"features":[3,1]}"#, false)
        .unwrap();
    engine.set_draining();
    // new work after the drain flip: structured shutting_down, id echoed
    let shed = engine
        .handle_line(r#"{"id":2,"features":[3,1]}"#, false)
        .unwrap();
    assert_eq!(engine.resolve(shed), r#"{"id":2,"error":"shutting_down"}"#);
    // the request admitted before the flip still completes with a result
    clock.open();
    assert_eq!(
        engine.resolve(inflight),
        r#"{"id":1,"label":1,"decision":2.0}"#
    );
    engine.shutdown();
    let serve = engine.stats();
    assert_eq!(serve.shed_draining, 1);
    assert_eq!(serve.requests, 1);
}

/// Deterministic LCG so the seeded load is reproducible byte for byte.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

#[test]
fn seeded_overload_stream_gets_exactly_one_reply_per_request() {
    // an open-loop seeded stream far above the watermark through the
    // full pipeline (serve_lines): every non-ignored line must produce
    // exactly one reply, in order, each either a result or a structured
    // error — never silence, never a second line
    let engine = Engine::new(
        ServeModel::from_text(MODEL).unwrap(),
        EngineConfig {
            max_batch: 4,
            queue_watermark: 2,
            deadline_us: 0,
        },
        Arc::new(SystemClock::new()),
    );
    let mut rng = Lcg(0x5eed);
    let mut input = String::new();
    let mut expected_replies = 0usize;
    for i in 0..400 {
        match rng.next() % 6 {
            0 => input.push_str("# comment line\n"), // ignored
            1 => input.push('\n'),                   // ignored
            2 => {
                let (a, b) = (rng.next() % 9, rng.next() % 9);
                input.push_str(&format!("1 1:{a} 2:{b}\n"));
                expected_replies += 1;
            }
            3 => {
                let (a, b) = (rng.next() % 9, rng.next() % 9);
                input.push_str(&format!("{{\"id\":{i},\"features\":[{a},{b}]}}\n"));
                expected_replies += 1;
            }
            4 => {
                input.push_str("garbage ::: not a request\n"); // parse error
                expected_replies += 1;
            }
            _ => {
                let k = 1 + rng.next() % 7; // sometimes past the model width
                input.push_str(&format!("1 {k}:1\n"));
                expected_replies += 1;
            }
        }
    }
    let mut out: Vec<u8> = Vec::new();
    serve_lines(&engine, Cursor::new(input.into_bytes()), &mut out).unwrap();
    engine.shutdown();
    let out = String::from_utf8(out).unwrap();
    let replies: Vec<&str> = out.lines().collect();
    assert_eq!(
        replies.len(),
        expected_replies,
        "every request line must get exactly one reply"
    );
    for reply in replies {
        let structured = reply.starts_with('{') || reply.parse::<f64>().is_ok();
        assert!(structured, "unstructured reply line: {reply}");
    }
}

// ---------------------------------------------------------------------
// chaos group: real sockets, seeded adversarial clients
// ---------------------------------------------------------------------

struct TcpHarness {
    engine: Arc<Engine>,
    control: Arc<ServerControl>,
    stop: Arc<AtomicBool>,
    addr: std::net::SocketAddr,
    server: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TcpHarness {
    fn start(
        config: EngineConfig,
        max_connections: usize,
        client_timeout: Option<Duration>,
    ) -> Self {
        let engine = Arc::new(Engine::new(
            ServeModel::from_text(MODEL).unwrap(),
            config,
            Arc::new(SystemClock::new()),
        ));
        let control = Arc::new(ServerControl::new(max_connections));
        let stop = Arc::new(AtomicBool::new(false));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let engine = engine.clone();
            let control = control.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                serve_tcp(
                    &engine,
                    listener,
                    &control,
                    ConnectionOptions { client_timeout },
                    &stop,
                    &|| {},
                )
            })
        };
        Self {
            engine,
            control,
            stop,
            addr,
            server: Some(server),
        }
    }

    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(self.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s
    }

    fn join_server(&mut self) {
        self.server
            .take()
            .unwrap()
            .join()
            .expect("server thread must not panic")
            .expect("serve_tcp must exit Ok on drain");
        assert_eq!(
            self.control.active_connections(),
            0,
            "admission slots must all be released after drain"
        );
    }

    /// Stops via the drain flag and joins; asserts a clean exit and that
    /// every admission slot was released.
    fn drain_and_join(mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        self.join_server();
        self.engine.shutdown();
    }
}

fn roundtrip(stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    reply.trim_end().to_string()
}

#[test]
fn connections_past_the_cap_get_one_refusal_line_then_eof() {
    let h = TcpHarness::start(
        EngineConfig {
            max_batch: 8,
            ..EngineConfig::default()
        },
        2,
        None,
    );
    // occupy both slots and prove they are live (roundtrip ⇒ registered)
    let mut a = h.connect();
    let mut b = h.connect();
    assert_eq!(roundtrip(&mut a, "1 1:3 2:1"), "1");
    assert_eq!(roundtrip(&mut b, "1 1:0 2:5"), "-1");
    // the third connection is refused with the structured line, then EOF
    let c = h.connect();
    let mut reader = BufReader::new(c);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), ERR_REFUSED_LINE);
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "refusal must close the connection"
    );
    // releasing a slot re-opens admission (the slot frees when the
    // server's reader observes the disconnect; retry until it does)
    drop(a);
    let mut d = loop {
        let mut d = h.connect();
        d.write_all(b"1 1:3 2:1\n").unwrap();
        let mut reader = BufReader::new(d.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        if reply.trim_end() == "1" {
            break d;
        }
        assert_eq!(
            reply.trim_end(),
            ERR_REFUSED_LINE,
            "only valid refusals allowed"
        );
    };
    assert_eq!(roundtrip(&mut d, "1:0 2:5"), "-1");
    assert!(h.engine.stats().refused_connections >= 1);
    drop(b);
    drop(d);
    h.drain_and_join();
}

#[test]
fn stalled_mid_line_client_gets_client_timeout_and_server_lives_on() {
    let h = TcpHarness::start(
        EngineConfig {
            max_batch: 8,
            ..EngineConfig::default()
        },
        4,
        Some(Duration::from_millis(100)),
    );
    // the stalled client: half a request line, then silence
    let stalled = h.connect();
    (&stalled).write_all(b"1 1:3").unwrap();
    let mut reader = BufReader::new(stalled.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(
        line.trim_end(),
        ERR_CLIENT_TIMEOUT_LINE,
        "a stalled client must get the structured timeout line"
    );
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "timeout must close the connection"
    );
    // the server is unharmed: a well-behaved client still roundtrips
    let mut ok = h.connect();
    assert_eq!(roundtrip(&mut ok, "1 1:3 2:1"), "1");
    drop(ok);
    h.drain_and_join();
}

#[test]
fn byte_at_a_time_client_is_served_and_mid_line_disconnect_never_wedges() {
    let h = TcpHarness::start(
        EngineConfig {
            max_batch: 8,
            ..EngineConfig::default()
        },
        4,
        Some(Duration::from_millis(500)),
    );
    // byte-at-a-time within the budget: a legal slow client, full service
    let slow = h.connect();
    for byte in b"1 1:3 2:1\n" {
        (&slow).write_all(std::slice::from_ref(byte)).unwrap();
        (&slow).flush().unwrap();
    }
    let mut reader = BufReader::new(slow.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "1");
    drop(reader);
    drop(slow);
    // mid-line disconnect: partial line, write half closed — the partial
    // line is delivered at EOF and answered (here: a parse error), and
    // the server must not wedge or leak the slot
    let half = h.connect();
    (&half).write_all(b"1 1:").unwrap();
    half.shutdown(Shutdown::Write).unwrap();
    let mut reader = BufReader::new(half.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("{\"error\":"),
        "a torn final line must still get a structured reply, got {line:?}"
    );
    drop(reader);
    drop(half);
    // an abrupt full disconnect mid-line must also be survivable
    let abrupt = h.connect();
    (&abrupt).write_all(b"1 1:").unwrap();
    drop(abrupt);
    // server still answers
    let mut ok = h.connect();
    assert_eq!(roundtrip(&mut ok, "1:0 2:5"), "-1");
    drop(ok);
    h.drain_and_join();
}

#[test]
fn shutdown_control_line_acks_drains_and_serve_tcp_returns() {
    let mut h = TcpHarness::start(
        EngineConfig {
            max_batch: 8,
            ..EngineConfig::default()
        },
        4,
        None,
    );
    let mut a = h.connect();
    assert_eq!(roundtrip(&mut a, "1 1:3 2:1"), "1");
    // drain via the wire, not the signal: ack first, then the listener
    // closes and serve_tcp returns without the stop flag ever flipping
    let mut op = h.connect();
    assert_eq!(roundtrip(&mut op, "shutdown"), DRAIN_ACK);
    h.join_server();
    assert!(h.engine.is_draining());
    assert!(h.control.is_draining());
    h.engine.shutdown();
}

#[test]
fn open_loop_load_far_above_capacity_answers_every_request_exactly_once() {
    // 8 pipelined clients × 60 requests against a watermark of 8: well
    // past what the queue admits. The invariant: each client reads back
    // exactly one structured reply per request, in order, and the server
    // drains cleanly afterwards with zero leaked slots.
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 60;
    let h = TcpHarness::start(
        EngineConfig {
            max_batch: 4,
            queue_watermark: 8,
            deadline_us: 2_000,
        },
        CLIENTS,
        Some(Duration::from_secs(10)),
    );
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let stream = h.connect();
        handles.push(std::thread::spawn(move || {
            let mut rng = Lcg(0xc0ffee + c as u64);
            let reader = BufReader::new(stream.try_clone().unwrap());
            let writer = std::thread::spawn(move || {
                let mut stream = stream;
                // open loop: fire everything without waiting for replies
                for i in 0..PER_CLIENT {
                    let (a, b) = (rng.next() % 9, rng.next() % 9);
                    let line = format!("{{\"id\":\"{c}-{i}\",\"features\":[{a},{b}]}}\n");
                    stream.write_all(line.as_bytes()).unwrap();
                }
                stream.flush().unwrap();
                stream
            });
            let mut outcomes = Vec::with_capacity(PER_CLIENT);
            let mut lines = reader.lines();
            for i in 0..PER_CLIENT {
                let line = lines
                    .next()
                    .unwrap_or_else(|| panic!("client {c}: missing reply {i}"))
                    .unwrap();
                // ordered: each reply echoes the id we sent at that index
                assert!(
                    line.contains(&format!("\"id\":\"{c}-{i}\"")),
                    "client {c}: reply {i} out of order: {line}"
                );
                let class = if line.contains("\"label\":") {
                    "ok"
                } else if line.contains("\"error\":\"overloaded\"") {
                    "overloaded"
                } else if line.contains("\"error\":\"deadline_exceeded\"") {
                    "deadline_exceeded"
                } else if line.contains("\"error\":\"shutting_down\"") {
                    "shutting_down"
                } else {
                    panic!("client {c}: unstructured reply: {line}")
                };
                outcomes.push(class);
            }
            let _ = writer.join().unwrap();
            outcomes
        }));
    }
    let (mut ok, mut overloaded, mut expired, mut draining) = (0u64, 0u64, 0u64, 0u64);
    for handle in handles {
        let outcomes = handle.join().unwrap();
        assert_eq!(outcomes.len(), PER_CLIENT);
        for class in outcomes {
            match class {
                "ok" => ok += 1,
                "overloaded" => overloaded += 1,
                "deadline_exceeded" => expired += 1,
                _ => draining += 1,
            }
        }
    }
    assert_eq!(
        (ok + overloaded + expired + draining) as usize,
        CLIENTS * PER_CLIENT
    );
    // the client-side tallies must agree exactly with the server's
    // counters: every line accounted once, nothing double-counted
    let serve = h.engine.stats();
    assert_eq!(
        ok + expired,
        serve.requests,
        "admitted = served ok + expired"
    );
    assert_eq!(expired, serve.shed_deadline);
    assert_eq!(overloaded, serve.shed_overloaded);
    assert_eq!(draining, serve.shed_draining);
    assert_eq!(draining, 0, "nothing drained during the load phase");
    assert!(
        serve.requests >= 1,
        "the first request always finds an empty queue and is admitted"
    );
    h.drain_and_join();
}

#[test]
fn binary_garbage_and_oversized_lines_get_structured_errors_not_drops() {
    let h = TcpHarness::start(
        EngineConfig {
            max_batch: 8,
            ..EngineConfig::default()
        },
        4,
        Some(Duration::from_secs(5)),
    );
    // invalid UTF-8: lossily decoded, answered as a parse error
    let garbage = h.connect();
    (&garbage).write_all(&[0xFF, 0xFE, 0x80, b'\n']).unwrap();
    let mut reader = BufReader::new(garbage.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("{\"error\":"),
        "binary garbage must get a structured reply: {line:?}"
    );
    drop(reader);
    drop(garbage);
    // an endless unterminated line: the server answers line_too_long and
    // closes instead of buffering forever. The close can RST the tail of
    // the client's stream, so tolerate a torn read — the pinned-format
    // assertion lives in the net.rs unit test; here we prove no wedge.
    let big = h.connect();
    {
        let mut w = std::io::BufWriter::new(big.try_clone().unwrap());
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..20 {
            // 20 × 64 KiB > MAX_LINE_BYTES (1 MiB)
            if w.write_all(&chunk).is_err() {
                break; // server already gave up on us — expected
            }
        }
        let _ = w.flush();
    }
    let mut reader = BufReader::new(big.try_clone().unwrap());
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) | Err(_) => {} // reply lost to the reset: still no wedge
        Ok(_) => assert_eq!(line.trim_end(), ERR_LINE_TOO_LONG_LINE),
    }
    drop(reader);
    drop(big);
    // the server survives both abusers
    let mut ok = h.connect();
    assert_eq!(roundtrip(&mut ok, "1 1:3 2:1"), "1");
    drop(ok);
    h.drain_and_join();
}
