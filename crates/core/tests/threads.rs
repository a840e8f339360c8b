//! Thread-count invariance: the parallel CPU backends and the prediction
//! engine compute the same bits on 1, 2, 3 and 8 threads and at the
//! default count (`available_parallelism()`: the inline path on one core).
//!
//! The problems are sized so that the multi-threaded runs really fork:
//! each backend check asserts its work estimate is at or above
//! [`PAR_GRAIN`], and the prediction sweep straddles it. Values are
//! pseudo-random in `[-1, 1)`, so any change in a reduction's order (for
//! example, summing the backend's partial buffers in the order the threads
//! finish) changes bits and fails the comparison.

use plssvm_core::backend::parallel::ParallelBackend;
use plssvm_core::backend::sparse::SparseBackend;
use plssvm_core::backend::CpuTilingConfig;
use plssvm_core::par::PAR_GRAIN;
use plssvm_core::simd::Isa;
use plssvm_core::svm::kernel_expansion;
use plssvm_data::dense::DenseMatrix;
use plssvm_data::model::KernelSpec;

/// Thread counts compared against one thread; `None` is the default count.
const THREADS: [Option<usize>; 4] = [None, Some(2), Some(3), Some(8)];

/// A deterministic value in `[-1, 1)`: element `k` of splitmix64 stream
/// `seed`.
fn unit(seed: u64, k: usize) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 31;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 29;
    (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

fn matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix<f64> {
    DenseMatrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|k| unit(seed, k)).collect(),
    )
}

fn vector(n: usize, seed: u64) -> Vec<f64> {
    (0..n).map(|k| unit(seed, k)).collect()
}

fn in_pool<R>(threads: Option<usize>, op: impl FnOnce() -> R) -> R {
    match threads {
        Some(t) => rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .unwrap()
            .install(op),
        None => op(),
    }
}

#[test]
fn parallel_backend_is_independent_of_thread_count() {
    // n = 1000 points of 6 features: 5·10⁵ symmetric kernel evaluations
    let data = matrix(1001, 6, 1);
    let n = data.rows() - 1;
    let v = vector(n, 2);
    let mut configs = vec![
        CpuTilingConfig::default(),
        CpuTilingConfig::new(8, 8),
        CpuTilingConfig::default().with_symmetry(false),
    ];
    // every ISA tier must be thread-count deterministic, not just the
    // auto-selected one
    for isa in Isa::available() {
        configs.push(CpuTilingConfig::default().with_isa(isa));
        configs.push(
            CpuTilingConfig::new(8, 8)
                .with_symmetry(false)
                .with_isa(isa),
        );
    }
    for kernel in [KernelSpec::Linear, KernelSpec::Rbf { gamma: 0.3 }] {
        for &cfg in &configs {
            let matvec = |threads: Option<usize>| {
                let b = ParallelBackend::new(data.clone(), kernel, 1.0, threads, cfg).unwrap();
                assert!(b.matvec_evals() * data.cols() as u128 >= PAR_GRAIN);
                let mut out = vec![0.0; n];
                b.kernel_matvec(&v, &mut out);
                out
            };
            let reference = matvec(Some(1));
            for t in THREADS {
                // the task decomposition (and the reduction order) depends
                // only on n and the tiling, never on the thread count
                assert_eq!(matvec(t), reference, "{t:?} threads {kernel:?} {cfg:?}");
            }
        }
    }
}

#[test]
fn sparse_backend_is_independent_of_thread_count() {
    // two thirds of the entries zero: 8 features, about 3 stored per row
    let mut data = matrix(901, 8, 3);
    for p in 0..data.rows() {
        for f in 0..data.cols() {
            if (p + f) % 3 != 0 {
                data.set(p, f, 0.0);
            }
        }
    }
    let n = data.rows() - 1;
    assert!((n * n * 3) as u128 >= PAR_GRAIN);
    let v = vector(n, 4);
    for kernel in [KernelSpec::Linear, KernelSpec::Rbf { gamma: 0.5 }] {
        let matvec = |threads: Option<usize>| {
            let b = SparseBackend::new(&data, kernel, 1.0, threads).unwrap();
            let mut out = vec![0.0; n];
            b.kernel_matvec(&v, &mut out);
            out
        };
        let reference = matvec(Some(1));
        for t in THREADS {
            assert_eq!(matvec(t), reference, "{t:?} threads {kernel:?}");
        }
    }
}

#[test]
fn kernel_expansion_is_independent_of_thread_count() {
    const FEATURES: usize = 8;
    let kernel = KernelSpec::Rbf { gamma: 0.1 };
    let isa = Isa::select();
    let queries = matrix(1031, FEATURES, 5);
    let mut straddles = [false; 2];
    for m in [1usize, 255, 256, 257, 2048] {
        let sv = matrix(m, FEATURES, 6);
        let coef = vector(m, 7);
        for rows in [1usize, 4, 5, 64, 1031] {
            let x = queries.select_rows(&(0..rows).collect::<Vec<_>>());
            straddles[usize::from((rows * m * FEATURES) as u128 >= PAR_GRAIN)] = true;
            let reference = in_pool(Some(1), || {
                kernel_expansion(&kernel, isa, &sv, &coef, 0.25, &x)
            });
            for t in THREADS {
                let got = in_pool(t, || kernel_expansion(&kernel, isa, &sv, &coef, 0.25, &x));
                assert_eq!(got, reference, "{rows} rows × {m} SVs on {t:?} threads");
            }
        }
    }
    assert_eq!(straddles, [true, true], "the sweep must straddle the grain");
}
