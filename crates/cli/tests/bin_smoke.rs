//! End-to-end smoke tests of the real CLI binaries (spawned processes,
//! exactly as a user would run them).

use std::path::PathBuf;
use std::process::Command;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("plssvm_bin_smoke").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(bin: &str, args: &[&str]) -> (bool, String, String) {
    let exe = match bin {
        "svm-train" => env!("CARGO_BIN_EXE_svm-train"),
        "svm-predict" => env!("CARGO_BIN_EXE_svm-predict"),
        "svm-scale" => env!("CARGO_BIN_EXE_svm-scale"),
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

#[test]
fn full_pipeline_through_the_binaries() {
    let dir = tmpdir("pipeline");
    let data = dir.join("train.dat");
    let scaled = dir.join("scaled.dat");
    let model = dir.join("train.model");
    let preds = dir.join("preds.txt");

    // generate
    let (ok, stdout, stderr) = run(
        "generate-data",
        &[
            "--points",
            "80",
            "--features",
            "6",
            "--seed",
            "4",
            "--sep",
            "4.0",
            "--flip",
            "0.0",
            "-o",
            data.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("80 points"), "{stdout}");

    // scale (stdout → file)
    let (ok, scaled_content, stderr) = run(
        "svm-scale",
        &["-l", "-1", "-u", "1", data.to_str().unwrap()],
    );
    assert!(ok, "{stderr}");
    std::fs::write(&scaled, &scaled_content).unwrap();
    assert_eq!(scaled_content.lines().count(), 80);

    // train on the simulated GPU
    let (ok, stdout, stderr) = run(
        "svm-train",
        &[
            "-e",
            "1e-8",
            "--backend",
            "cuda",
            "-n",
            "2",
            scaled.to_str().unwrap(),
            model.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("simulated device time"), "{stdout}");
    assert!(model.exists());

    // predict
    let (ok, stdout, stderr) = run(
        "svm-predict",
        &[
            scaled.to_str().unwrap(),
            model.to_str().unwrap(),
            preds.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("Accuracy"), "{stdout}");
    assert!(reported_accuracy(&stdout) >= 97.0, "{stdout}");
    assert_eq!(std::fs::read_to_string(&preds).unwrap().lines().count(), 80);
}

#[test]
fn fault_injected_training_through_the_binary() {
    let dir = tmpdir("fault");
    let data = dir.join("train.dat");
    let model = dir.join("train.model");
    let metrics = dir.join("metrics.jsonl");
    let (ok, _, stderr) = run(
        "generate-data",
        &[
            "--points",
            "60",
            "--features",
            "8",
            "--seed",
            "21",
            "--sep",
            "4.0",
            "--flip",
            "0.0",
            "-o",
            data.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");

    // fail-stop device 1 of 4 mid-solve, with transient noise and
    // periodic CG checkpoints; training must still converge
    let (ok, stdout, stderr) = run(
        "svm-train",
        &[
            "-e",
            "1e-8",
            "--backend",
            "cuda",
            "-n",
            "4",
            "--fault-plan",
            "fail:1@4;transient:3@1x2",
            "--checkpoint-every",
            "4",
            "--metrics-out",
            metrics.to_str().unwrap(),
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("converged: true"), "{stdout}");
    assert!(stdout.contains("training accuracy"), "{stdout}");
    assert!(model.exists());

    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"type\":\"recovery\""), "{json}");
    assert!(json.contains("\"kind\":\"failover\""), "{json}");
    assert!(json.contains("\"kind\":\"retry\""), "{json}");
    assert!(json.contains("\"kind\":\"checkpoint\""), "{json}");

    // a malformed plan is a usage error, not a crash
    let (ok, _, stderr) = run(
        "svm-train",
        &[
            "--backend",
            "cuda",
            "--fault-plan",
            "explode:0@1",
            data.to_str().unwrap(),
        ],
    );
    assert!(!ok);
    assert!(stderr.contains("fault"), "{stderr}");
}

#[test]
fn a_fault_plan_that_stops_every_device_exits_1_not_101() {
    let dir = tmpdir("fault_all");
    let data = dir.join("train.dat");
    let model = dir.join("train.model");
    let (ok, _, stderr) = run(
        "generate-data",
        &[
            "--points",
            "40",
            "--features",
            "4",
            "--seed",
            "23",
            "-o",
            data.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");
    let out = Command::new(env!("CARGO_BIN_EXE_svm-train"))
        .args([
            "--backend",
            "cuda",
            "--fault-plan",
            "fail:0@1",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("no survivor"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!model.exists());
}

#[test]
fn multiclass_input_with_a_repeated_feature_index_exits_1() {
    let dir = tmpdir("mc_repeated_index");
    let data = dir.join("train.dat");
    let model = dir.join("train.model");
    std::fs::write(&data, "3 1:0.5\n2 1:-1 2:1\n1 2:1 2:5\n3 2:2\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_svm-train"))
        .args([data.to_str().unwrap(), model.to_str().unwrap()])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("line 3, column 7: feature indices must be strictly increasing"),
        "{stderr}"
    );
    assert!(!model.exists());
}

/// Like [`run`], with extra environment variables set for the child —
/// the only race-free way to test `PLSSVM_FORCE_ISA` (mutating the
/// parent's environment would leak across parallel tests).
fn run_env(bin: &str, args: &[&str], envs: &[(&str, &str)]) -> (bool, String, String) {
    let exe = match bin {
        "svm-train" => env!("CARGO_BIN_EXE_svm-train"),
        "svm-predict" => env!("CARGO_BIN_EXE_svm-predict"),
        _ => panic!("unknown binary {bin}"),
    };
    let mut cmd = Command::new(exe);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn force_isa_env_round_trips_through_the_binaries() {
    let dir = tmpdir("force_isa");
    let data = dir.join("train.dat");
    let model = dir.join("train.model");
    let preds = dir.join("preds.txt");
    let (ok, _, stderr) = run(
        "generate-data",
        &[
            "--points",
            "60",
            "--features",
            "5",
            "--seed",
            "19",
            "--sep",
            "4.0",
            "--flip",
            "0.0",
            "-o",
            data.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");

    // forcing the scalar tier is honored and surfaced in --verbose
    let (ok, stdout, stderr) = run_env(
        "svm-train",
        &[
            "-e",
            "1e-8",
            "--verbose",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ],
        &[("PLSSVM_FORCE_ISA", "scalar")],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("simd dispatch: scalar"), "{stdout}");
    assert!(stdout.contains("forced via PLSSVM_FORCE_ISA"), "{stdout}");
    assert!(model.exists());

    // predict surfaces the dispatch too
    let (ok, stdout, stderr) = run_env(
        "svm-predict",
        &[
            "--verbose",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
            preds.to_str().unwrap(),
        ],
        &[("PLSSVM_FORCE_ISA", "scalar")],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("simd dispatch: scalar"), "{stdout}");

    // a typo in the override warns but never fails the run: the engine
    // falls back to auto-detection
    let (ok, stdout, stderr) = run_env(
        "svm-train",
        &[
            "-e",
            "1e-8",
            "--verbose",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ],
        &[("PLSSVM_FORCE_ISA", "avx9000")],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("WARNING: PLSSVM_FORCE_ISA"), "{stdout}");
    assert!(stdout.contains("auto-detected"), "{stdout}");
}

#[test]
fn train_help_and_errors_exit_nonzero() {
    let (ok, _, stderr) = run("svm-train", &["--help"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
    assert!(stderr.contains("-t kernel_type"), "{stderr}");

    let (ok, _, stderr) = run("svm-train", &["/nonexistent/input.dat"]);
    assert!(!ok);
    assert!(stderr.contains("svm-train:"), "{stderr}");

    let (ok, _, stderr) = run("svm-predict", &["only-one-arg"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");

    let (ok, _, stderr) = run("svm-scale", &[]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");

    let (ok, _, stderr) = run("generate-data", &["--points", "10"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn smo_shrinking_flag_trains_instead_of_printing_help() {
    let dir = tmpdir("smo_shrinking");
    let data = dir.join("train.dat");
    let model = dir.join("train.model");
    let (ok, _, stderr) = run(
        "generate-data",
        &[
            "--points",
            "60",
            "--features",
            "4",
            "--seed",
            "3",
            "-o",
            data.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");
    for shrinking in ["0", "1"] {
        let _ = std::fs::remove_file(&model);
        let (ok, _, stderr) = run(
            "svm-train",
            &[
                "-a",
                "smo",
                "-h",
                shrinking,
                data.to_str().unwrap(),
                model.to_str().unwrap(),
            ],
        );
        assert!(ok, "-h {shrinking}: {stderr}");
        assert!(!stderr.contains("usage"), "-h {shrinking}: {stderr}");
        let written = std::fs::read_to_string(&model).unwrap();
        assert!(written.contains("SV"), "{written}");
    }
    // a bare -h, or one not followed by 0|1, still asks for help
    for args in [&["-h"][..], &["-h", data.to_str().unwrap()][..]] {
        let (ok, _, stderr) = run("svm-train", args);
        assert!(!ok);
        assert!(stderr.contains("usage"), "{args:?}: {stderr}");
    }
}

#[test]
fn lowrank_resume_is_a_usage_error_with_exit_code_2() {
    let dir = tmpdir("lowrank_resume");
    let data = dir.join("train.dat");
    run(
        "generate-data",
        &[
            "--points",
            "40",
            "--features",
            "4",
            "--seed",
            "7",
            "-o",
            data.to_str().unwrap(),
        ],
    );
    // --resume with --solver lowrank is rejected at parse time: the
    // checkpoint journal streams exact-CG state only
    let exe = env!("CARGO_BIN_EXE_svm-train");
    let out = Command::new(exe)
        .args([
            "--solver",
            "lowrank",
            "--rank",
            "16",
            "--checkpoint-dir",
            dir.join("journal").to_str().unwrap(),
            "--resume",
            data.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "usage errors must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--resume"), "{stderr}");
    assert!(stderr.contains("lowrank"), "{stderr}");

    // the help text documents the solver flags
    let (ok, _, help) = run("svm-train", &["--help"]);
    assert!(!ok);
    assert!(help.contains("--solver"), "{help}");
    assert!(help.contains("--rank"), "{help}");
    assert!(help.contains("--landmarks"), "{help}");
}

#[test]
fn cross_validation_through_the_binary() {
    let dir = tmpdir("cv");
    let data = dir.join("train.dat");
    run(
        "generate-data",
        &[
            "--points",
            "60",
            "--features",
            "4",
            "--seed",
            "5",
            "--sep",
            "4.0",
            "--flip",
            "0.0",
            "-o",
            data.to_str().unwrap(),
        ],
    );
    let (ok, stdout, stderr) = run("svm-train", &["-v", "4", data.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("Cross Validation Accuracy"), "{stdout}");
}

#[test]
fn arff_input_through_the_binary() {
    let dir = tmpdir("arff");
    let data = dir.join("train.arff");
    run(
        "generate-data",
        &[
            "--points",
            "50",
            "--features",
            "4",
            "--seed",
            "6",
            "--sep",
            "4.0",
            "--flip",
            "0.0",
            "--format",
            "arff",
            "-o",
            data.to_str().unwrap(),
        ],
    );
    let (ok, stdout, stderr) = run("svm-train", &["-e", "1e-8", data.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("training accuracy"), "{stdout}");
}

#[test]
fn storage_faults_through_the_binary_exit_4_or_retry_to_success() {
    let dir = tmpdir("io_faults");
    let data = dir.join("train.dat");
    run(
        "generate-data",
        &[
            "--points",
            "50",
            "--features",
            "4",
            "--seed",
            "19",
            "--sep",
            "4.0",
            "--flip",
            "0.0",
            "-o",
            data.to_str().unwrap(),
        ],
    );

    // a persistent ENOSPC on every model-write operation: distinct exit
    // code 4 (storage failure), no model file left behind
    let model = dir.join("refused.model");
    let exe = env!("CARGO_BIN_EXE_svm-train");
    let out = Command::new(exe)
        .args([
            "-e",
            "1e-8",
            "--io-faults",
            "enospc:write@0~model!",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(4), "storage failures must exit 4");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("storage failure"), "{stderr}");
    assert!(stderr.contains("ENOSPC"), "{stderr}");
    assert!(!model.exists(), "no torn model may survive");

    // a transient fault on the same operation is retried to success
    let model = dir.join("retried.model");
    let (ok, _, stderr) = run(
        "svm-train",
        &[
            "-e",
            "1e-8",
            "--io-faults",
            "enospc:write@0~model",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");
    assert!(model.exists());

    // a malformed plan is a usage error (exit 2)
    let out = Command::new(exe)
        .args(["--io-faults", "explode:write@1", data.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // the help text documents the storage-fault flags and exit code 4
    let (ok, _, help) = run("svm-train", &["--help"]);
    assert!(!ok);
    assert!(help.contains("--io-faults"), "{help}");
    assert!(help.contains("--on-io-degraded"), "{help}");
    assert!(help.contains("4 storage failure"), "{help}");
}

/// Parses the percentage out of `svm-predict`'s `Accuracy = X% (…)` line.
fn reported_accuracy(stdout: &str) -> f64 {
    stdout
        .split('=')
        .nth(1)
        .and_then(|s| s.trim().split('%').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no accuracy in {stdout}"))
}

/// The test file's first label need not be the training file's: the
/// accuracy report must score each row against its own original label,
/// not against the test file's ±1 encoding read through the model's
/// label order (which reported 1 − accuracy).
#[test]
fn predict_accuracy_is_independent_of_the_test_files_label_order() {
    let dir = tmpdir("label_order");
    let data = dir.join("train.dat");
    let flipped = dir.join("flipped.dat");
    let model = dir.join("train.model");
    let (ok, _, stderr) = run(
        "generate-data",
        &[
            "--points",
            "80",
            "--features",
            "6",
            "--seed",
            "4",
            "--sep",
            "4.0",
            "--flip",
            "0.0",
            "-o",
            data.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");

    // move the first row of the other class to the front
    let text = std::fs::read_to_string(&data).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    let first_label = lines[0].split_whitespace().next().unwrap();
    let other = lines
        .iter()
        .position(|l| l.split_whitespace().next().unwrap() != first_label)
        .expect("two classes");
    let row = lines.remove(other);
    lines.insert(0, row);
    std::fs::write(&flipped, lines.join("\n") + "\n").unwrap();

    let (ok, _, stderr) = run(
        "svm-train",
        &[
            "-e",
            "1e-8",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");
    let mut reported = Vec::new();
    for (test, preds) in [(&data, "same.preds"), (&flipped, "flipped.preds")] {
        let preds = dir.join(preds);
        let (ok, stdout, stderr) = run(
            "svm-predict",
            &[
                test.to_str().unwrap(),
                model.to_str().unwrap(),
                preds.to_str().unwrap(),
            ],
        );
        assert!(ok, "{stderr}");
        reported.push(reported_accuracy(&stdout));
    }
    assert!(reported[0] >= 97.0, "{reported:?}");
    assert_eq!(reported[0], reported[1], "label order changed the score");
}

/// Runs any of the five binaries; returns its exit code and stderr.
fn exit_code(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let exe = match bin {
        "svm-serve" => env!("CARGO_BIN_EXE_svm-serve"),
        "svm-train" => env!("CARGO_BIN_EXE_svm-train"),
        "svm-predict" => env!("CARGO_BIN_EXE_svm-predict"),
        "svm-scale" => env!("CARGO_BIN_EXE_svm-scale"),
        _ => env!("CARGO_BIN_EXE_generate-data"),
    };
    let out = Command::new(exe).args(args).output().expect("spawn");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A flag whose second character is not ASCII is an unknown option (a
/// usage error, exit 2) in every binary, never a panic.
#[test]
fn non_ascii_flags_are_unknown_options_in_every_binary() {
    for bin in [
        "svm-train",
        "svm-predict",
        "svm-scale",
        "svm-serve",
        "generate-data",
    ] {
        let (code, stderr) = exit_code(bin, &["-é", "x"]);
        assert_eq!(code, Some(2), "{bin}: {stderr}");
        assert!(stderr.contains("unknown option '-é'"), "{bin}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
    }
}

/// `svm-scale` and `generate-data` exit like the other binaries: 2 with
/// the usage text for a usage error, 1 with the error alone for a
/// runtime error.
#[test]
fn scale_and_generate_exit_2_on_usage_errors_and_1_on_runtime_errors() {
    let dir = tmpdir("exit_codes");
    let data = dir.join("d.dat");
    let written = data.to_str().unwrap();
    let (code, stderr) = exit_code("generate-data", &["--points", "20", "-o", written]);
    assert_eq!(code, Some(0), "{stderr}");

    let (code, stderr) = exit_code("svm-scale", &[]);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(stderr.matches("usage:").count(), 1, "{stderr}");
    for args in [
        &["--sat6", "--sep", "1", "-o", written][..],
        &["--points", "10"],
    ] {
        let (code, stderr) = exit_code("generate-data", args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    for (bin, args) in [
        ("svm-scale", &["/nonexistent/input.dat"][..]),
        ("svm-scale", &["-l", "1", "-u", "1", written]),
        ("generate-data", &["--points", "0", "-o", written]),
    ] {
        let (code, stderr) = exit_code(bin, args);
        assert_eq!(code, Some(1), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("usage"), "{bin} {args:?}: {stderr}");
    }
}
