//! LS-SVR regression (paper §V "regression tasks"): fit the classic
//! `sinc` benchmark with the RBF kernel.
//!
//! The least squares formulation makes this free: real-valued targets go
//! through the *identical* reduced linear system as classification — only
//! the prediction drops the sign function.
//!
//! ```sh
//! cargo run --release --example regression_sinc
//! ```

use plssvm::core::backend::BackendSelection;
use plssvm::core::regression::{mean_squared_error, predict_values, r_squared};
use plssvm::core::svm::LsSvm;
use plssvm::data::model::KernelSpec;
use plssvm::data::synthetic::{generate_sinc, SincConfig};
use plssvm::simgpu::{hw, Backend as DeviceApi};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let train = generate_sinc::<f64>(&SincConfig::new(400, 42).with_noise(0.05))?;
    let test = generate_sinc::<f64>(&SincConfig::new(200, 43).with_noise(0.0))?;
    println!(
        "sinc regression: {} noisy training samples, {} clean test samples",
        train.points(),
        test.points()
    );

    let out = LsSvm::new()
        .with_kernel(KernelSpec::Rbf { gamma: 0.5 })
        .with_cost(10.0)
        .with_epsilon(1e-8)
        .with_backend(BackendSelection::openmp(None))
        .train_regression(&train)?;
    println!(
        "trained in {} CG iterations (converged: {})",
        out.iterations, out.converged
    );
    println!(
        "train MSE {:.2e} | test MSE {:.2e} | test R^2 {:.4}",
        mean_squared_error(&out.model, &train),
        mean_squared_error(&out.model, &test),
        r_squared(&out.model, &test),
    );

    // an ASCII view of the fit
    let mut grid = plssvm::data::dense::DenseMatrix::<f64>::zeros(61, 1);
    for (i, x) in (-30..=30).enumerate() {
        grid.set(i, 0, x as f64 / 3.0);
    }
    let values = predict_values(&out.model, &grid);
    println!("\n  f(x) over [-10, 10]   ('*' = prediction, '.' = true sinc)");
    for row in (0..12).rev() {
        let level = row as f64 / 10.0 - 0.25;
        let mut line = String::new();
        for (i, &v) in values.iter().enumerate() {
            let x = grid.get(i, 0);
            let truth = if x.abs() < 1e-9 { 1.0 } else { x.sin() / x };
            line.push(if (v - level).abs() < 0.05 {
                '*'
            } else if (truth - level).abs() < 0.05 {
                '.'
            } else {
                ' '
            });
        }
        println!("  {line}");
    }

    // the same model trains on a simulated device, multi-GPU included
    let gpu = LsSvm::new()
        .with_kernel(KernelSpec::Rbf { gamma: 0.5 })
        .with_cost(10.0)
        .with_epsilon(1e-8)
        .with_backend(BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda))
        .train_regression(&train)?;
    println!(
        "\nsame fit on a simulated A100: {} iterations, {:.3} ms simulated device time",
        gpu.iterations,
        gpu.device.unwrap().sim_parallel_time_s * 1e3
    );
    Ok(())
}
