//! Serving-equals-CLI conformance: for every model kind the CLI can
//! produce — {serial, openmp, simgpu} × {linear, rbf} × {f32, f64}
//! training, plus multiclass and SVR — `svm-serve` must answer exactly
//! what `svm-predict` writes, byte for byte, at every batch size. The
//! batcher, the wire protocol, and the panelized predict path must be
//! invisible in the output.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use plssvm_core::backend::BackendSelection;
use plssvm_core::svm::LsSvm;
use plssvm_data::model::KernelSpec;
use plssvm_data::read_libsvm_file;
use plssvm_data::synthetic::{generate_blobs, BlobsConfig};
use plssvm_simgpu::hw;
use plssvm_simgpu::Backend as DeviceApi;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("plssvm_serve_conf").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(bin: &str, args: &[&str]) -> (bool, String, String) {
    let exe = match bin {
        "svm-train" => env!("CARGO_BIN_EXE_svm-train"),
        "svm-predict" => env!("CARGO_BIN_EXE_svm-predict"),
        "generate-data" => env!("CARGO_BIN_EXE_generate-data"),
        _ => panic!("unknown binary {bin}"),
    };
    let out = Command::new(exe).args(args).output().expect("spawn");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Pipes `input` through `svm-serve --max-batch N` in stdin mode and
/// returns its stdout (the protocol responses).
fn serve_stdin(model: &Path, max_batch: usize, input: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_svm-serve"))
        .args([
            "-q",
            "--reload-poll-ms",
            "0",
            "--max-batch",
            &max_batch.to_string(),
            model.to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn svm-serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "svm-serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// The conformance oracle: `svm-predict`'s output file must equal
/// `svm-serve`'s stdout for the same test lines, at batch sizes
/// {1, 3, 4, 5, 7, 64} — a lone row, full 4-query blocks and blocks with
/// 1-, 2- and 3-row tails: neither the micro-batcher nor the query
/// blocking of the predict engine may ever change an answer.
fn assert_serving_matches(tag: &str, model: &Path, test_file: &Path) {
    let preds = model.with_extension("preds");
    let (ok, _, stderr) = run(
        "svm-predict",
        &[
            test_file.to_str().unwrap(),
            model.to_str().unwrap(),
            preds.to_str().unwrap(),
        ],
    );
    assert!(ok, "[{tag}] svm-predict failed: {stderr}");
    let expected = std::fs::read_to_string(&preds).unwrap();
    assert!(!expected.is_empty(), "[{tag}] empty prediction file");

    let input = std::fs::read_to_string(test_file).unwrap();
    for max_batch in [1usize, 3, 4, 5, 7, 64] {
        let served = serve_stdin(model, max_batch, &input);
        assert_eq!(
            served, expected,
            "[{tag}] serve output diverged from svm-predict at max_batch={max_batch}"
        );
    }
}

/// Writes the shared binary classification data set (linearly separable
/// planes) and returns its path.
fn binary_data(dir: &Path) -> PathBuf {
    let data = dir.join("train.dat");
    let (ok, _, stderr) = run(
        "generate-data",
        &[
            "--points",
            "60",
            "--features",
            "6",
            "--seed",
            "11",
            "--sep",
            "3.0",
            "--flip",
            "0.0",
            "-o",
            data.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");
    data
}

/// f64 models through the real `svm-train` binary: every backend × kernel
/// combination serves bit-identically to `svm-predict`.
#[test]
fn cli_trained_f64_models_serve_bit_identically() {
    let dir = tmpdir("f64");
    let data = binary_data(&dir);
    for backend in ["serial", "openmp", "cuda"] {
        for (kernel, extra) in [("0", None), ("2", Some(["-g", "0.5"]))] {
            let model = dir.join(format!("{backend}-t{kernel}.model"));
            let mut args = vec!["-e", "1e-10", "-t", kernel, "--backend", backend];
            if let Some(g) = &extra {
                args.extend_from_slice(g);
            }
            args.push(data.to_str().unwrap());
            args.push(model.to_str().unwrap());
            let (ok, _, stderr) = run("svm-train", &args);
            assert!(ok, "[{backend} -t {kernel}] svm-train failed: {stderr}");
            assert_serving_matches(&format!("f64 {backend} -t {kernel}"), &model, &data);
        }
    }
}

/// f32-trained models (the CLI's text model format is precision-agnostic,
/// so an f32 training run is a legitimate CLI-producible model file):
/// every backend × kernel combination serves bit-identically.
#[test]
fn f32_trained_models_serve_bit_identically() {
    let dir = tmpdir("f32");
    let data_file = binary_data(&dir);
    let data = read_libsvm_file::<f32>(data_file.to_str().unwrap(), None).unwrap();
    let backends: [(&str, BackendSelection); 3] = [
        ("serial", BackendSelection::Serial),
        ("openmp", BackendSelection::openmp(Some(2))),
        (
            "simgpu",
            BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda),
        ),
    ];
    for (bname, backend) in backends {
        for (kname, kernel) in [
            ("linear", KernelSpec::Linear),
            ("rbf", KernelSpec::Rbf { gamma: 0.5f32 }),
        ] {
            let out = LsSvm::<f32>::new()
                .with_kernel(kernel)
                .with_epsilon(1e-6)
                .with_backend(backend.clone())
                .train(&data)
                .unwrap();
            let model = dir.join(format!("{bname}-{kname}.model"));
            out.model.save(&model).unwrap();
            assert_serving_matches(&format!("f32 {bname} {kname}"), &model, &data_file);
        }
    }
}

/// Multiclass container models (one-vs-one over 3 classes) serve the
/// same label stream `svm-predict` writes.
#[test]
fn multiclass_models_serve_bit_identically() {
    let dir = tmpdir("multiclass");
    let data_file = dir.join("blobs.dat");
    let blobs = generate_blobs::<f64>(&BlobsConfig::new(45, 4, 3, 9)).unwrap();
    let mut text = String::new();
    for i in 0..blobs.points() {
        text.push_str(&blobs.labels[i].to_string());
        for j in 0..blobs.features() {
            text.push_str(&format!(" {}:{}", j + 1, blobs.x.get(i, j)));
        }
        text.push('\n');
    }
    std::fs::write(&data_file, text).unwrap();

    let model = dir.join("blobs.model");
    let (ok, _, stderr) = run(
        "svm-train",
        &[
            "-e",
            "1e-8",
            data_file.to_str().unwrap(),
            model.to_str().unwrap(),
        ],
    );
    assert!(ok, "multiclass svm-train failed: {stderr}");
    assert!(
        std::fs::read_to_string(&model)
            .unwrap()
            .starts_with("plssvm_multiclass"),
        "expected a multiclass container model"
    );
    assert_serving_matches("multiclass ovo", &model, &data_file);
}

/// Epsilon-SVR models serve the same regression values (full float
/// formatting) `svm-predict` writes.
#[test]
fn svr_models_serve_bit_identically() {
    let dir = tmpdir("svr");
    let data = binary_data(&dir);
    let model = dir.join("svr.model");
    let (ok, _, stderr) = run(
        "svm-train",
        &[
            "-s",
            "3",
            "-e",
            "1e-10",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ],
    );
    assert!(ok, "svr svm-train failed: {stderr}");
    assert_serving_matches("svr", &model, &data);
}
