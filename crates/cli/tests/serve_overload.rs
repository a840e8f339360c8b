//! Real-binary drain tests: `svm-serve` under SIGTERM and the
//! `shutdown` control line must finish in-flight work, print the
//! deterministic drain summary, and exit 0 — the contract an init
//! system or rolling deploy relies on. A stdin run also checks that
//! `--metrics-out` receives the serving telemetry.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStderr, Command, Stdio};

/// f(x) = x1 - x2 on two features.
const MODEL: &str = "svm_type c_svc\nkernel_type linear\nnr_class 2\ntotal_sv 2\nrho 0\nlabel 1 -1\nnr_sv 1 1\nSV\n1 1:1\n-1 2:1\n";

fn model_file(label: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("plssvm_serve_overload")
        .join(format!("{}-{label}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.txt");
    std::fs::write(&path, MODEL).unwrap();
    path
}

/// Spawns `svm-serve --listen 127.0.0.1:0` and returns the child, its
/// buffered stderr, and the address it reported listening on.
fn spawn_server(label: &str, extra: &[&str]) -> (Child, BufReader<ChildStderr>, String) {
    let model = model_file(label);
    let mut child = Command::new(env!("CARGO_BIN_EXE_svm-serve"))
        .args(["--listen", "127.0.0.1:0", "--reload-poll-ms", "0"])
        .args(extra)
        .arg(model.to_str().unwrap())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn svm-serve");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).unwrap() > 0,
            "svm-serve exited before reporting its address"
        );
        if let Some(rest) = line.trim_end().strip_prefix("svm-serve: listening on ") {
            break rest.to_string();
        }
    };
    (child, stderr, addr)
}

fn roundtrip(stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    reply.trim_end().to_string()
}

fn wait_and_collect(mut child: Child, stderr: BufReader<ChildStderr>) -> (Option<i32>, String) {
    let rest: Vec<String> = stderr.lines().map(|l| l.unwrap()).collect();
    let status = child.wait().unwrap();
    (status.code(), rest.join("\n"))
}

#[test]
fn sigterm_drains_finishes_inflight_and_exits_zero() {
    let (child, stderr, addr) = spawn_server("sigterm", &[]);
    let mut client = TcpStream::connect(&addr).unwrap();
    assert_eq!(roundtrip(&mut client, "1 1:3 2:1"), "1");

    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());

    let (code, stderr) = wait_and_collect(child, stderr);
    assert_eq!(
        code,
        Some(0),
        "SIGTERM drain must exit 0; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("svm-serve: drained; requests=1 errors=0"),
        "missing drain summary in stderr:\n{stderr}"
    );
}

#[test]
fn shutdown_control_line_drains_the_binary_to_exit_zero() {
    let (child, stderr, addr) = spawn_server("ctl", &["--max-connections", "4"]);
    let mut client = TcpStream::connect(&addr).unwrap();
    assert_eq!(roundtrip(&mut client, "1 1:0 2:5"), "-1");
    assert_eq!(roundtrip(&mut client, "shutdown"), r#"{"ok":"draining"}"#);
    drop(client);

    let (code, stderr) = wait_and_collect(child, stderr);
    assert_eq!(
        code,
        Some(0),
        "control-line drain must exit 0; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("svm-serve: drained; requests=1 errors=0"),
        "missing drain summary in stderr:\n{stderr}"
    );
}

#[test]
fn metrics_out_over_stdin_writes_the_serve_lines() {
    let model = model_file("metrics");
    let metrics = model.with_file_name("serve.jsonl");
    let mut child = Command::new(env!("CARGO_BIN_EXE_svm-serve"))
        .args(["--reload-poll-ms", "0", "--metrics-out"])
        .arg(&metrics)
        .arg(&model)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn svm-serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"1 1:3 2:1\n1:0 2:5\n1 1:1\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "1\n-1\n1\n");
    assert!(
        stderr.contains("svm-serve: drained; requests=3 errors=0"),
        "{stderr}"
    );
    let json = std::fs::read_to_string(&metrics).unwrap();
    let has = |prefix: &str| json.lines().any(|l| l.starts_with(prefix));
    assert!(has(r#"{"type":"serve_batches","count":"#), "{json}");
    assert!(has(r#"{"type":"serve_batch_size","size":"#), "{json}");
    assert!(
        has(r#"{"type":"serve_requests","count":3,"errors":0,"#),
        "{json}"
    );
}
