//! `svm-train` — LIBSVM-compatible training front end.

use std::process::ExitCode;

/// Whether to print the usage text: no arguments, `--help`, or a `-h`
/// that is not LIBSVM's shrinking flag (`-h 0` / `-h 1`).
fn wants_help(args: &[String]) -> bool {
    args.is_empty()
        || args.iter().enumerate().any(|(i, a)| {
            a == "--help"
                || (a == "-h" && !matches!(args.get(i + 1).map(String::as_str), Some("0" | "1")))
        })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if wants_help(&args) {
        eprintln!(
            "usage: svm-train [options] training_set_file [model_file]\n\
             options:\n\
             \x20 -s svm_type    : 0 C-SVC classification (default), 3 epsilon-SVR regression\n\
             \x20 -t kernel_type : 0 linear (default), 1 polynomial, 2 rbf, 3 sigmoid\n\
             \x20 -d degree      : polynomial degree (default 3)\n\
             \x20 -g gamma       : kernel gamma (default 1/num_features)\n\
             \x20 -r coef0       : polynomial coef0 (default 0)\n\
             \x20 -c cost        : C parameter (default 1)\n\
             \x20 -e epsilon     : termination criterion (default 0.001)\n\
             \x20 -a algorithm   : lssvm (default) | smo | smo-dense | thunder\n\
             \x20 -v folds       : k-fold cross validation (no model file written)\n\
             \x20 -wLABEL weight : per-class weight on C (e.g. -w1 5 -w-1 1)\n\
             \x20 -h 0|1         : shrinking heuristic for SMO algorithms (default 1)\n\
             \x20 -m megabytes   : SMO kernel cache size (default 100)\n\
             \x20 --multiclass s : ovo (default) | ovr for files with >2 classes\n\
             \x20 -b backend     : serial | openmp (default) | sparse | cuda | opencl | sycl | dpcpp\n\
             \x20 -n devices     : simulated device count (default 1)\n\
             \x20 -T threads     : openmp thread count (default all cores)\n\
             \x20 --cpu-tile t   : openmp cache tile, 'R', 'RxC' or 'RxC,nosym' (default 64x64)\n\
             \x20 --hardware hw  : a100 (default) | v100 | p100 | gtx1080ti | rtx3080 | radeonvii | p630\n\
             \x20 --split mode   : features (default, linear only) | rows (any kernel)\n\
             \x20 --metrics-out f: write solver telemetry as JSON lines (LS-SVM/LS-SVR only)\n\
             \x20 --fault-plan p : inject device faults, e.g. 'fail:1@4;transient:0@2x2;slow:2@0x4'\n\
             \x20                  or 'seed:N' for a random plan (simulated backends only)\n\
             \x20 --checkpoint-every k : snapshot CG state every k iterations (LS-SVM/LS-SVR only;\n\
             \x20                  defaults to 50 when --checkpoint-dir is set)\n\
             \x20 --checkpoint-dir d   : durable on-disk checkpoint journal; an interrupted run\n\
             \x20                  can be continued with --resume (LS-SVM/LS-SVR only)\n\
             \x20 --resume       : continue from the newest loadable checkpoint in --checkpoint-dir\n\
             \x20 --solver s     : exact (default) | lowrank randomized Nystrom solver (lssvm only,\n\
             \x20                  incompatible with --resume; requires --rank)\n\
             \x20 --rank k       : number of Nystrom landmarks for --solver lowrank (clamped to the\n\
             \x20                  system size)\n\
             \x20 --lowrank-seed n     : landmark sampling seed (default 42, deterministic)\n\
             \x20 --landmarks s  : uniform (default) | leverage landmark selection strategy\n\
             \x20 --on-nonconverged a  : error | warn (default) | accept a solve that missed epsilon\n\
             \x20 --io-faults p  : inject deterministic storage faults into every durable write\n\
             \x20                  (model, checkpoint journal, metrics), e.g.\n\
             \x20                  'enospc:write@3;eio:sync@1~journal!' or 'seed:N'\n\
             \x20 --on-io-degraded a   : error | warn (default) when the checkpoint journal\n\
             \x20                  degrades mid-run (persistent write failures)\n\
             \x20 -q, --quiet    : suppress the training summary\n\
             \x20 --verbose      : append per-kernel telemetry counters to the summary\n\
             input files: LIBSVM format, or ARFF when the extension is .arff\n\
             exit codes: 0 success, 1 runtime error, 2 usage error,\n\
             \x20           3 non-converged under --on-nonconverged error,\n\
             \x20           4 storage failure (final write failed after retries, or\n\
             \x20           degraded journal under --on-io-degraded error)"
        );
        return ExitCode::from(2);
    }
    let parsed = match plssvm_cli::args::parse_train(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("svm-train: {e}");
            return ExitCode::from(2);
        }
    };
    match plssvm_cli::commands::run_train(&parsed) {
        Ok(summary) => {
            print!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("svm-train: {e}");
            let non_converged = e
                .downcast_ref::<plssvm_core::SvmError>()
                .is_some_and(|s| matches!(s, plssvm_core::SvmError::NonConverged { .. }));
            if non_converged {
                ExitCode::from(3)
            } else if e
                .downcast_ref::<plssvm_cli::commands::StorageError>()
                .is_some()
            {
                ExitCode::from(4)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
