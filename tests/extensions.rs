//! Integration tests of the beyond-v1.0.1 extensions (sigmoid kernel,
//! sparse backend, LS-SVR, multi-class, weighted LS-SVM, cross-validation)
//! interacting across crates and with the simulated device backends.

use plssvm::core::backend::BackendSelection;
use plssvm::core::multiclass::{train_multiclass, MultiClassModel, MultiClassStrategy};
use plssvm::core::regression::{mean_squared_error, predict_values};
use plssvm::core::svm::{accuracy, LsSvm};
use plssvm::core::validation::cross_validate;
use plssvm::core::weighted::train_robust;
use plssvm::data::model::KernelSpec;
use plssvm::data::synthetic::{
    generate_blobs, generate_planes, generate_sinc, BlobsConfig, PlanesConfig, SincConfig,
};
use plssvm::simgpu::{hw, Backend as DeviceApi};

#[test]
fn sigmoid_kernel_trains_with_smo_and_predicts() {
    // the sigmoid kernel is indefinite for the LS-SVM in general, but SMO
    // (box-constrained) handles it the way LIBSVM does
    let data = generate_planes::<f64>(
        &PlanesConfig::new(120, 6, 21)
            .with_cluster_sep(3.0)
            .with_flip_fraction(0.0),
    )
    .unwrap();
    let cfg = plssvm::smo::SmoConfig {
        kernel: KernelSpec::Sigmoid {
            gamma: 0.05,
            coef0: 0.0,
        },
        cost: 1.0,
        ..Default::default()
    };
    let out = plssvm::smo::solver::train_dense(&data, &cfg).unwrap();
    let acc = accuracy(&out.model, &data);
    assert!(acc >= 0.9, "sigmoid SMO accuracy {acc}");
    // model file round trip keeps the sigmoid hyperparameters
    let text = out.model.to_model_string();
    let back = plssvm::data::model::SvmModel::<f64>::from_model_string(&text).unwrap();
    assert_eq!(back.kernel, cfg.kernel);
}

#[test]
fn sigmoid_lssvm_small_gamma_behaves_like_linear() {
    // for small γ, tanh(γ·ip) ≈ γ·ip: the kernel is near-PSD and the
    // LS-SVM trains fine — parity across backends included
    let data = generate_planes::<f64>(
        &PlanesConfig::new(80, 5, 22)
            .with_cluster_sep(3.0)
            .with_flip_fraction(0.0),
    )
    .unwrap();
    let kernel = KernelSpec::Sigmoid {
        gamma: 0.01,
        coef0: 0.0,
    };
    let cpu = LsSvm::new()
        .with_kernel(kernel)
        .with_epsilon(1e-8)
        .train(&data)
        .unwrap();
    let gpu = LsSvm::new()
        .with_kernel(kernel)
        .with_epsilon(1e-8)
        .with_backend(BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda))
        .train(&data)
        .unwrap();
    assert!(accuracy(&cpu.model, &data) >= 0.95);
    assert!((cpu.model.rho - gpu.model.rho).abs() < 1e-6);
}

#[test]
fn sparse_backend_full_training_run_matches_dense() {
    let mut data = generate_planes::<f64>(&PlanesConfig::new(100, 10, 23)).unwrap();
    for p in 0..data.points() {
        for f in 0..10 {
            if (p + f) % 4 != 0 {
                data.x.set(p, f, 0.0);
            }
        }
    }
    let dense = LsSvm::new().with_epsilon(1e-10).train(&data).unwrap();
    let sparse = LsSvm::new()
        .with_epsilon(1e-10)
        .with_backend(BackendSelection::SparseCpu { threads: None })
        .train(&data)
        .unwrap();
    assert_eq!(dense.iterations, sparse.iterations);
    assert!((dense.model.rho - sparse.model.rho).abs() < 1e-8);
    assert_eq!(sparse.backend_name, "sparse");
}

#[test]
fn regression_on_simulated_multi_gpu() {
    // LS-SVR through the feature-split multi-device path (linear kernel)
    let mut x = plssvm::data::dense::DenseMatrix::<f64>::zeros(80, 8);
    let mut y = Vec::new();
    for p in 0..80 {
        let mut t = -1.0;
        for f in 0..8 {
            let v = ((p * (2 * f + 1)) % 23) as f64 / 7.0 - 1.5;
            x.set(p, f, v);
            t += (f as f64 * 0.5 - 1.75) * v;
        }
        y.push(t);
    }
    let data = plssvm::data::libsvm::RegressionData::new(x, y).unwrap();
    let out = LsSvm::new()
        .with_cost(1e4)
        .with_epsilon(1e-10)
        .with_backend(BackendSelection::sim_multi_gpu(
            hw::A100,
            DeviceApi::Cuda,
            4,
        ))
        .train_regression(&data)
        .unwrap();
    assert!(out.device.unwrap().per_device.len() == 4);
    assert!(mean_squared_error(&out.model, &data) < 1e-6);
}

#[test]
fn rbf_training_on_four_row_split_devices() {
    // the paper: "the polynomial and radial kernels do not currently
    // support multi-GPU execution" — the row-split extension lifts that
    let data = generate_planes::<f64>(
        &PlanesConfig::new(120, 8, 28)
            .with_cluster_sep(3.0)
            .with_flip_fraction(0.0),
    )
    .unwrap();
    let single = LsSvm::new()
        .with_kernel(KernelSpec::Rbf { gamma: 0.2 })
        .with_epsilon(1e-10)
        .with_backend(BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda))
        .train(&data)
        .unwrap();
    let quad = LsSvm::new()
        .with_kernel(KernelSpec::Rbf { gamma: 0.2 })
        .with_epsilon(1e-10)
        .with_backend(BackendSelection::sim_multi_gpu_rows(
            hw::A100,
            DeviceApi::Cuda,
            4,
        ))
        .train(&data)
        .unwrap();
    assert!((single.model.rho - quad.model.rho).abs() < 1e-7);
    assert_eq!(quad.device.unwrap().per_device.len(), 4);
    assert!(accuracy(&quad.model, &data) >= 0.97);
    assert!(quad.backend_name.contains("row split"));
}

#[test]
fn multiclass_on_device_backend_with_rbf() {
    let data =
        generate_blobs::<f64>(&BlobsConfig::new(120, 5, 3, 24).with_separation(5.0)).unwrap();
    let trainer = LsSvm::new()
        .with_kernel(KernelSpec::Rbf { gamma: 0.2 })
        .with_epsilon(1e-8)
        .with_backend(BackendSelection::sim_gpu(hw::V100, DeviceApi::OpenCl));
    let model = train_multiclass(&data, &trainer, MultiClassStrategy::OneVsOne).unwrap();
    assert!(model.accuracy(&data) >= 0.97);
    // container round trip through a file keeps predictions
    let dir = std::env::temp_dir().join("plssvm_ext_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mc_rbf.model");
    model.save(&path).unwrap();
    let back = MultiClassModel::<f64>::load(&path).unwrap();
    assert_eq!(model.predict(&data.x), back.predict(&data.x));
    std::fs::remove_file(&path).ok();
}

#[test]
fn weighted_training_composes_with_cross_validation() {
    // robust weights from stage 1 can be fed into any trainer — verify CV
    // still runs with weighted training configured fold-wise... CV trains
    // per-fold, so weights cannot be preset; verify the error is clean.
    let data = generate_planes::<f64>(&PlanesConfig::new(60, 4, 25)).unwrap();
    let weighted_trainer = LsSvm::new().with_sample_weights(vec![1.0; 60]);
    // per-fold training sees fewer points than weights → clean error
    let err = cross_validate(&data, &weighted_trainer, 5, 1).unwrap_err();
    assert!(err.to_string().contains("sample weights"), "{err}");

    // the supported composition: CV on the plain trainer, robust on full
    let cv = cross_validate(&data, &LsSvm::new().with_epsilon(1e-6), 5, 1).unwrap();
    assert!(cv.accuracy > 0.8);
    let robust = train_robust(&data, &LsSvm::new().with_epsilon(1e-6)).unwrap();
    assert!(accuracy(&robust.weighted.model, &data) > 0.8);
}

#[test]
fn regression_prediction_matches_training_targets_at_interpolation() {
    let data = generate_sinc::<f64>(&SincConfig::new(100, 26).with_noise(0.0)).unwrap();
    let out = LsSvm::new()
        .with_kernel(KernelSpec::Rbf { gamma: 1.0 })
        .with_cost(1e6)
        .with_epsilon(1e-12)
        .train_regression(&data)
        .unwrap();
    let values = predict_values(&out.model, &data.x);
    // near-interpolation: the 1/C = 1e-6 ridge and the RBF system's
    // conditioning leave a small smoothing residual
    for (v, y) in values.iter().zip(&data.y) {
        assert!((v - y).abs() < 1e-3, "{v} vs {y}");
    }
}

#[test]
fn all_four_kernels_round_trip_through_binary_training() {
    let data = generate_planes::<f64>(
        &PlanesConfig::new(60, 4, 27)
            .with_cluster_sep(4.0)
            .with_flip_fraction(0.0),
    )
    .unwrap();
    for kernel in [
        KernelSpec::Linear,
        KernelSpec::Polynomial {
            degree: 2,
            gamma: 0.5,
            coef0: 1.0,
        },
        KernelSpec::Rbf { gamma: 0.25 },
        KernelSpec::Sigmoid {
            gamma: 0.02,
            coef0: 0.0,
        },
    ] {
        let out = LsSvm::new()
            .with_kernel(kernel)
            .with_epsilon(1e-8)
            .train(&data)
            .unwrap();
        let acc = accuracy(&out.model, &data);
        assert!(acc >= 0.9, "{kernel:?}: accuracy {acc}");
        let text = out.model.to_model_string();
        let back = plssvm::data::model::SvmModel::<f64>::from_model_string(&text).unwrap();
        assert_eq!(back.kernel, kernel);
    }
}
