//! Transport: newline-delimited serving over stdin/stdout or TCP.
//!
//! Both modes share [`serve_connection`]: a reader thread parses and
//! submits lines into the engine while the writer resolves responses in
//! strict FIFO submission order — so the micro-batcher can coalesce
//! requests that are still streaming in, yet clients always receive
//! answers in the order they sent requests.
//!
//! Both halves batch their wakeups. The writer drains every response that
//! is ready before it flushes; the reader submits with a deferred wake
//! while another line is already buffered ([`TimedRead::line_buffered`])
//! and wakes the engine only before it could block: when its buffer runs
//! dry, before a send into a full pipeline, and on every exit. A
//! pipelined burst therefore costs one engine wake and one flush.
//!
//! The transport is where overload hardening meets the outside world:
//!
//! * Reads go through `read_request_line`, which enforces a per-line
//!   byte cap and a per-line time budget — a slowloris peer dribbling
//!   bytes or an endless unterminated line gets a structured error and
//!   a close, never a pinned thread.
//! * [`serve_tcp`] admits connections through a
//!   [`ServerControl`]: past
//!   `--max-connections` the accept loop answers one structured JSON
//!   error line and closes instead of spawning an unbounded thread.
//! * The `shutdown` control line (or the `stop` flag, wired to
//!   SIGTERM/SIGINT) begins a graceful drain: the accept loop stops,
//!   blocked readers wake to EOF, buffered lines answer
//!   `shutting_down`, in-flight requests finish, and `serve_tcp`
//!   returns `Ok` after every connection thread joined.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::time::{Duration, Instant};

use crate::admission::ServerControl;
use crate::engine::{Engine, Pending};
use crate::protocol::{parse_control, Control, DRAIN_ACK};
use crate::stats::ServeShedKind;

/// How many submitted-but-unresolved requests one connection may have in
/// flight before its reader blocks (bounds memory per connection).
const PIPELINE_DEPTH: usize = 1024;

/// Per-line byte cap: a peer streaming an endless unterminated line is
/// answered with a structured error instead of growing a buffer forever.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The final response line sent when a client exhausted its per-line
/// read budget (`--client-timeout-ms`).
pub const ERR_CLIENT_TIMEOUT_LINE: &str = r#"{"error":"client_timeout"}"#;

/// The final response line sent when a request line exceeded
/// [`MAX_LINE_BYTES`].
pub const ERR_LINE_TOO_LONG_LINE: &str = r#"{"error":"line_too_long"}"#;

/// The refusal line sent to a connection past `--max-connections`.
pub const ERR_REFUSED_LINE: &str = r#"{"error":"overloaded","reason":"max_connections"}"#;

/// The refusal line sent to a connection accepted mid-drain.
pub const ERR_REFUSED_DRAINING_LINE: &str = r#"{"error":"shutting_down"}"#;

/// A buffered reader whose blocking reads can be bounded in time.
///
/// The default implementation is a no-op (in-memory readers and stdin
/// cannot time out); the [`TcpStream`]-backed implementation arms the
/// socket's read timeout so the request reader can enforce a per-line
/// budget against a stalled peer.
pub trait TimedRead: BufRead {
    /// Bounds how long one underlying read may block. `None` disables.
    fn set_read_timeout(&mut self, _timeout: Option<Duration>) -> std::io::Result<()> {
        Ok(())
    }

    /// Whether a complete line is already buffered, so the next
    /// the request reader cannot block. The default `false` makes the
    /// reader wake the engine after every line.
    fn line_buffered(&self) -> bool {
        false
    }
}

impl TimedRead for BufReader<TcpStream> {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.get_ref().set_read_timeout(timeout)
    }

    fn line_buffered(&self) -> bool {
        self.buffer().contains(&b'\n')
    }
}

impl<T: AsRef<[u8]>> TimedRead for std::io::Cursor<T> {
    fn line_buffered(&self) -> bool {
        let rest = usize::try_from(self.position())
            .ok()
            .and_then(|pos| self.get_ref().as_ref().get(pos..));
        rest.is_some_and(|rest| rest.contains(&b'\n'))
    }
}
impl TimedRead for std::io::StdinLock<'_> {}
impl TimedRead for BufReader<std::io::Stdin> {
    fn line_buffered(&self) -> bool {
        self.buffer().contains(&b'\n')
    }
}
impl TimedRead for std::io::Empty {}
impl<T: TimedRead + ?Sized> TimedRead for &mut T {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        (**self).set_read_timeout(timeout)
    }

    fn line_buffered(&self) -> bool {
        (**self).line_buffered()
    }
}

/// Outcome of reading one request line.
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead {
    /// One complete line (trailing `\n`/`\r` stripped). A final
    /// unterminated line at EOF is also delivered this way.
    Line(String),
    /// Clean end of stream.
    Eof,
    /// The per-line time budget ran out mid-line (stalled client).
    TimedOut,
    /// The line exceeded [`MAX_LINE_BYTES`] without a newline.
    TooLong,
}

/// Reads one newline-terminated request line under a time budget.
///
/// `budget` bounds the wall-clock time one *line* may take to arrive in
/// full; the caller must also have armed the transport's own read
/// timeout (see [`TimedRead::set_read_timeout`]) so no single blocking
/// read can exceed it either. Invalid UTF-8 is replaced (the parse layer
/// then rejects it as a malformed request) — a binary-garbage client
/// gets a structured error, never a dropped connection.
fn read_request_line(
    input: &mut impl TimedRead,
    budget: Option<Duration>,
) -> std::io::Result<LineRead> {
    let start = Instant::now();
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if budget.is_some_and(|b| start.elapsed() > b) {
            return Ok(LineRead::TimedOut);
        }
        let available = match input.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(LineRead::TimedOut)
            }
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(finish_line(buf))
            });
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                if buf.len().saturating_add(nl) > MAX_LINE_BYTES {
                    return Ok(LineRead::TooLong);
                }
                buf.extend_from_slice(&available[..nl]);
                input.consume(nl + 1);
                return Ok(LineRead::Line(finish_line(buf)));
            }
            None => {
                let n = available.len();
                if buf.len().saturating_add(n) > MAX_LINE_BYTES {
                    return Ok(LineRead::TooLong);
                }
                buf.extend_from_slice(available);
                input.consume(n);
            }
        }
    }
}

fn finish_line(buf: Vec<u8>) -> String {
    let mut line = String::from_utf8_lossy(&buf).into_owned();
    while line.ends_with(['\n', '\r']) {
        line.pop();
    }
    line
}

/// Per-connection transport knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnectionOptions {
    /// Per-line read budget (and socket write timeout): a client that
    /// stalls mid-line longer than this gets `client_timeout` and a
    /// close. `None` disables (stdin mode, tests).
    pub client_timeout: Option<Duration>,
}

/// What the reader thread hands the writer: either a submitted request
/// to resolve, or a transport-level line to emit verbatim (drain acks,
/// timeout errors) — routed through the same FIFO so replies never
/// reorder.
enum ReaderMsg {
    Pending(Pending),
    Verbatim(&'static str),
}

/// Serves one line stream: requests from `input`, responses to `output`,
/// one line each, FIFO. Returns when `input` reaches EOF, the client
/// times out or overflows a line (after a final structured error line),
/// a `shutdown` control line arrives (after its ack), or on the first
/// I/O error.
pub fn serve_connection<R, W>(
    engine: &Engine,
    input: R,
    mut output: W,
    opts: ConnectionOptions,
    control: &ServerControl,
) -> std::io::Result<()>
where
    R: TimedRead + Send,
    W: Write,
{
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::sync_channel::<ReaderMsg>(PIPELINE_DEPTH);
        let reader = s.spawn(move || {
            let result = read_requests(engine, input, &tx, opts, control);
            // every exit may leave deferred requests queued
            engine.wake();
            result
        });
        // drain-then-flush: resolve every response that is already
        // available before paying for a flush, so pipelined streams cost
        // one flush per burst while a lone request still flushes
        // immediately before the writer blocks again
        let mut write_result: std::io::Result<()> = Ok(());
        'serve: while let Ok(first) = rx.recv() {
            let mut msg = first;
            loop {
                let response;
                let line = match msg {
                    ReaderMsg::Pending(pending) => {
                        response = engine.resolve(pending);
                        response.as_str()
                    }
                    ReaderMsg::Verbatim(line) => line,
                };
                if let Err(e) = output
                    .write_all(line.as_bytes())
                    .and_then(|()| output.write_all(b"\n"))
                {
                    write_result = Err(e);
                    break 'serve;
                }
                match rx.try_recv() {
                    Ok(next) => msg = next,
                    Err(_) => break,
                }
            }
            if let Err(e) = output.flush() {
                write_result = Err(e);
                break;
            }
        }
        let read_result = reader.join().unwrap_or(Ok(()));
        write_result.and(read_result)
    })
}

/// The reader half of [`serve_connection`]: parses and submits lines
/// until EOF, a timeout, an oversized line, a `shutdown` control line or
/// a failed send.
fn read_requests<R: TimedRead>(
    engine: &Engine,
    mut input: R,
    tx: &SyncSender<ReaderMsg>,
    opts: ConnectionOptions,
    control: &ServerControl,
) -> std::io::Result<()> {
    input.set_read_timeout(opts.client_timeout)?;
    loop {
        let line = match read_request_line(&mut input, opts.client_timeout)? {
            LineRead::Line(line) => line,
            LineRead::Eof => return Ok(()),
            LineRead::TimedOut => {
                send(engine, tx, ReaderMsg::Verbatim(ERR_CLIENT_TIMEOUT_LINE));
                return Ok(());
            }
            LineRead::TooLong => {
                send(engine, tx, ReaderMsg::Verbatim(ERR_LINE_TOO_LONG_LINE));
                return Ok(());
            }
        };
        // control lines are transport-level: ack through the FIFO (so it
        // lands after every earlier response), start the drain, and stop
        // reading — this connection is done
        if let Some(Control::Shutdown) = parse_control(&line) {
            send(engine, tx, ReaderMsg::Verbatim(DRAIN_ACK));
            engine.set_draining();
            control.begin_drain();
            return Ok(());
        }
        let pending = engine.handle_line(&line, true);
        if !input.line_buffered() {
            // the next read may block: let the engine take the burst
            engine.wake();
        }
        if let Some(pending) = pending {
            if !send(engine, tx, ReaderMsg::Pending(pending)) {
                // writer side failed; stop reading
                return Ok(());
            }
        }
    }
}

/// Hands `msg` to the writer; `false` once the writer is gone. A send
/// that would block wakes the engine first: the writer may be waiting on
/// a request whose wake the reader deferred.
fn send(engine: &Engine, tx: &SyncSender<ReaderMsg>, msg: ReaderMsg) -> bool {
    match tx.try_send(msg) {
        Ok(()) => true,
        Err(TrySendError::Full(msg)) => {
            engine.wake();
            tx.send(msg).is_ok()
        }
        Err(TrySendError::Disconnected(_)) => false,
    }
}

/// [`serve_connection`] with no timeout and a private, unlimited
/// [`ServerControl`] — the stdin/stdout mode and the single-stream test
/// entry point. A `shutdown` control line still drains the engine (new
/// submissions shed `shutting_down`) and ends the stream.
pub fn serve_lines<R, W>(engine: &Engine, input: R, output: W) -> std::io::Result<()>
where
    R: TimedRead + Send,
    W: Write,
{
    let control = ServerControl::unlimited();
    serve_connection(
        engine,
        input,
        output,
        ConnectionOptions::default(),
        &control,
    )
}

/// Accept loop: serves each TCP connection on its own thread (all
/// connections share the engine and therefore the micro-batcher, so
/// concurrent clients coalesce into shared batches).
///
/// Admission goes through `control`: connections past the cap get one
/// structured refusal line and a close. Setting `stop` (the CLI wires it
/// to SIGTERM/SIGINT) — or a `shutdown` control line on any connection —
/// begins a graceful drain: the engine sheds new requests as
/// `shutting_down`, blocked readers wake, and this function returns `Ok`
/// once every connection thread has joined. `on_disconnect` runs when a
/// connection closes (the CLI snapshots metrics there).
pub fn serve_tcp(
    engine: &Engine,
    listener: TcpListener,
    control: &ServerControl,
    opts: ConnectionOptions,
    stop: &AtomicBool,
    on_disconnect: &(dyn Fn() + Sync),
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    std::thread::scope(|s| {
        loop {
            if stop.load(Ordering::SeqCst) {
                engine.set_draining();
                control.begin_drain();
            }
            if control.is_draining() {
                // engine-side shedding must be on before we stop
                // accepting, whichever path initiated the drain
                engine.set_draining();
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    match control.register(stream.try_clone().ok()) {
                        Some(guard) => {
                            s.spawn(move || {
                                let _guard = guard;
                                let Ok(read_half) = stream.try_clone() else {
                                    return;
                                };
                                if let Some(t) = opts.client_timeout {
                                    // a peer that never reads its replies
                                    // must not wedge the writer either
                                    let _ = stream.set_write_timeout(Some(t));
                                }
                                // buffered write half: serve_connection
                                // flushes at every pipeline drain, so
                                // responses still leave promptly while
                                // bursts cost one syscall each
                                let _ = serve_connection(
                                    engine,
                                    BufReader::new(read_half),
                                    std::io::BufWriter::new(stream),
                                    opts,
                                    control,
                                );
                                on_disconnect();
                            });
                        }
                        None => refuse_connection(engine, control, stream),
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        }
        // thread::scope joins the per-connection threads here: by the
        // time serve_tcp returns, no reader/writer is still running
    })
}

/// Answers a connection the cap (or a drain) refused: one structured
/// JSON line, best-effort with a short write timeout, then close.
fn refuse_connection(engine: &Engine, control: &ServerControl, mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let line = if control.is_draining() {
        ERR_REFUSED_DRAINING_LINE
    } else {
        ERR_REFUSED_LINE
    };
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
    engine.record(|s| s.record_shed(ServeShedKind::RefusedConnection));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SystemClock;
    use crate::engine::EngineConfig;
    use crate::model::ServeModel;
    use crate::protocol::ERR_SHUTTING_DOWN;
    use std::io::Cursor;
    use std::sync::Arc;

    const BINARY: &str = "svm_type c_svc\nkernel_type linear\nnr_class 2\ntotal_sv 2\nrho 0\nlabel 1 -1\nnr_sv 1 1\nSV\n1 1:1\n-1 2:1\n";

    fn engine(max_batch: usize) -> Engine {
        Engine::new(
            ServeModel::from_text(BINARY).unwrap(),
            EngineConfig {
                max_batch,
                ..EngineConfig::default()
            },
            Arc::new(SystemClock::new()),
        )
    }

    #[test]
    fn serve_lines_answers_fifo_and_skips_comments() {
        // batching on (max_batch 8): responses must still come back in
        // submission order
        let e = engine(8);
        let input = "1 1:3 2:1\n# comment\n1:0 2:5\n\nbad ::\n{\"id\":1,\"features\":[1,0]}\n";
        let mut out = Vec::new();
        serve_lines(&e, Cursor::new(input), &mut out).unwrap();
        e.shutdown();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert_eq!(lines[0], "1");
        assert_eq!(lines[1], "-1");
        assert!(lines[2].starts_with("{\"error\":"));
        assert_eq!(lines[3], "{\"id\":1,\"label\":1,\"decision\":1.0}");
    }

    #[test]
    fn serve_tcp_roundtrips_concurrent_connections() {
        use std::io::{BufRead, Write};
        use std::net::TcpStream;

        let e = Arc::new(engine(16));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let control = Arc::new(ServerControl::unlimited());

        let e2 = Arc::clone(&e);
        let stop2 = Arc::clone(&stop);
        let control2 = Arc::clone(&control);
        let server = std::thread::spawn(move || {
            serve_tcp(
                &e2,
                listener,
                &control2,
                ConnectionOptions::default(),
                &stop2,
                &|| {},
            )
            .unwrap();
        });

        let clients: Vec<_> = (0..3)
            .map(|c| {
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut write = stream;
                    let mut answers = Vec::new();
                    for i in 0..20 {
                        // alternate positive / negative queries per client
                        let line = if (c + i) % 2 == 0 {
                            "1 1:3\n"
                        } else {
                            "1 2:3\n"
                        };
                        write.write_all(line.as_bytes()).unwrap();
                        let mut resp = String::new();
                        reader.read_line(&mut resp).unwrap();
                        answers.push(resp.trim().to_string());
                        let expect = if (c + i) % 2 == 0 { "1" } else { "-1" };
                        assert_eq!(resp.trim(), expect, "client {c} request {i}");
                    }
                    answers.len()
                })
            })
            .collect();
        for c in clients {
            assert_eq!(c.join().unwrap(), 20);
        }
        stop.store(true, Ordering::SeqCst);
        server.join().unwrap();
        assert_eq!(control.active_connections(), 0, "connection guard leak");
        e.shutdown();
    }

    /// A reader that yields some data, then fails with `TimedOut` — the
    /// deterministic stand-in for a stalled socket.
    struct StallingReader {
        data: Cursor<Vec<u8>>,
        stalled: bool,
    }

    impl std::io::Read for StallingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = std::io::Read::read(&mut self.data, buf)?;
            if n == 0 {
                self.stalled = true;
                return Err(std::io::Error::new(ErrorKind::TimedOut, "stalled peer"));
            }
            Ok(n)
        }
    }

    impl BufRead for StallingReader {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.data.position() as usize >= self.data.get_ref().len() {
                self.stalled = true;
                return Err(std::io::Error::new(ErrorKind::TimedOut, "stalled peer"));
            }
            self.data.fill_buf()
        }
        fn consume(&mut self, amt: usize) {
            self.data.consume(amt);
        }
    }

    impl TimedRead for StallingReader {}

    #[test]
    fn read_request_line_handles_eof_partial_and_timeout() {
        let mut c = Cursor::new(b"first\nfull line\npartial".to_vec());
        assert!(c.line_buffered());
        assert_eq!(
            read_request_line(&mut c, None).unwrap(),
            LineRead::Line("first".into())
        );
        assert!(c.line_buffered());
        assert_eq!(
            read_request_line(&mut c, None).unwrap(),
            LineRead::Line("full line".into())
        );
        // only an unterminated tail is left: the next read could block
        assert!(!c.line_buffered());
        // a final unterminated line still parses (read_line semantics)
        assert_eq!(
            read_request_line(&mut c, None).unwrap(),
            LineRead::Line("partial".into())
        );
        assert_eq!(read_request_line(&mut c, None).unwrap(), LineRead::Eof);

        // a stall mid-line surfaces as TimedOut, not an error
        let mut s = StallingReader {
            data: Cursor::new(b"1 1:3\nhalf a li".to_vec()),
            stalled: false,
        };
        assert_eq!(
            read_request_line(&mut s, None).unwrap(),
            LineRead::Line("1 1:3".into())
        );
        assert_eq!(read_request_line(&mut s, None).unwrap(), LineRead::TimedOut);
        assert!(s.stalled);
    }

    #[test]
    fn read_request_line_caps_line_length() {
        let mut huge = vec![b'x'; MAX_LINE_BYTES + 10];
        huge.push(b'\n');
        let mut c = Cursor::new(huge);
        assert_eq!(read_request_line(&mut c, None).unwrap(), LineRead::TooLong);
    }

    #[test]
    fn read_request_line_replaces_invalid_utf8() {
        let mut c = Cursor::new(b"\xff\xfe 1:1\n".to_vec());
        match read_request_line(&mut c, None).unwrap() {
            LineRead::Line(l) => assert!(l.contains('\u{fffd}')),
            other => panic!("expected Line, got {other:?}"),
        }
    }

    #[test]
    fn stalled_client_gets_final_timeout_line() {
        let e = engine(1);
        let input = StallingReader {
            data: Cursor::new(b"1 1:3\n{\"id\":2,\"feat".to_vec()),
            stalled: false,
        };
        let mut out = Vec::new();
        let control = ServerControl::unlimited();
        serve_connection(&e, input, &mut out, ConnectionOptions::default(), &control).unwrap();
        e.shutdown();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines, vec!["1", ERR_CLIENT_TIMEOUT_LINE], "{out}");
    }

    /// Runs `f` on its own thread, failing the test instead of hanging
    /// if it never returns.
    fn within<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || tx.send(f()).unwrap());
        let out = rx.recv_timeout(Duration::from_secs(60)).expect("hung");
        worker.join().unwrap();
        out
    }

    #[test]
    fn shutdown_control_line_acks_drains_and_ends_stream() {
        let e = Arc::new(engine(8));
        let control = Arc::new(ServerControl::unlimited());
        let (e2, control2) = (Arc::clone(&e), Arc::clone(&control));
        let out = within(move || {
            // both requests have a line buffered behind them, so neither
            // wakes the engine itself: the reader's exit must
            let input = Cursor::new("1 1:3\n1 2:3\nshutdown\n1 2:9\n".as_bytes().to_vec());
            let mut out = Vec::new();
            serve_connection(
                &e2,
                input,
                &mut out,
                ConnectionOptions::default(),
                &control2,
            )
            .unwrap();
            String::from_utf8(out).unwrap()
        });
        let lines: Vec<&str> = out.lines().collect();
        // the requests before shutdown are answered, the ack follows, and
        // the line after shutdown is never read
        assert_eq!(lines, vec!["1", "-1", DRAIN_ACK], "{out}");
        assert!(control.is_draining());
        assert!(e.is_draining());
        // a later stream on the same engine sheds with shutting_down
        let input = Cursor::new("1 1:3\n".as_bytes().to_vec());
        let mut out = Vec::new();
        serve_connection(&e, input, &mut out, ConnectionOptions::default(), &control).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert_eq!(out.trim(), format!("{{\"error\":\"{ERR_SHUTTING_DOWN}\"}}"));
        e.shutdown();
    }

    #[test]
    fn burst_longer_than_the_pipeline_is_answered_in_full() {
        // every line of the burst defers its wake, and max_batch exceeds
        // PIPELINE_DEPTH: the reader fills the pipeline long before the
        // queue reaches a batch, so it must wake the engine before it
        // blocks on the full pipeline
        let e = Arc::new(Engine::new(
            ServeModel::from_text(BINARY).unwrap(),
            EngineConfig {
                max_batch: 4096,
                queue_watermark: 0,
                ..EngineConfig::default()
            },
            Arc::new(SystemClock::new()),
        ));
        const { assert!(4096 > PIPELINE_DEPTH) };
        let e2 = Arc::clone(&e);
        let out = within(move || {
            let mut out = Vec::new();
            serve_lines(&e2, Cursor::new("1:3\n".repeat(5_000)), &mut out).unwrap();
            String::from_utf8(out).unwrap()
        });
        assert_eq!(out.lines().count(), 5_000);
        assert!(out.lines().all(|l| l == "1"), "{out}");
        e.shutdown();
    }
}
