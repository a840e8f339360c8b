//! Synthetic data set generation.
//!
//! The paper's evaluation uses dense synthetic data produced by
//! scikit-learn's `make_classification` single-label generator via the
//! `generate_data.py` utility script with problem type **"planes"**: two
//! Gaussian clusters adjacent to each other, overlapping with a low
//! probability in a few points, plus 1 % randomly flipped labels to model
//! noise (§IV-B). This module reimplements that generator.

use rand::prelude::*;
use rand::rngs::StdRng;

use crate::dense::DenseMatrix;
use crate::error::DataError;
use crate::libsvm::LabeledData;
use crate::real::Real;

/// Draws one standard-normal sample via the Box–Muller transform.
///
/// `rand` 0.10 ships only uniform distributions, so we build the Gaussian
/// ourselves (two uniforms → one normal; the second output is discarded for
/// simplicity — generation is not a hot path).
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    loop {
        let u1: f64 = rng.random();
        if u1 <= f64::MIN_POSITIVE {
            continue; // avoid ln(0)
        }
        let u2: f64 = rng.random();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// Fills `out` with i.i.d. standard-normal samples.
fn fill_standard_normal(rng: &mut impl Rng, out: &mut [f64]) {
    for v in out {
        *v = standard_normal(rng);
    }
}

/// Configuration of the "planes" problem generator.
#[derive(Debug, Clone)]
pub struct PlanesConfig {
    /// Number of data points `m` to generate (split evenly over the two
    /// classes; odd counts give the `+1` class one extra point).
    pub points: usize,
    /// Number of features `d` per data point.
    pub features: usize,
    /// Distance of each class centroid from the separating hyperplane, in
    /// units of the per-feature noise σ = 1. The paper's clusters are
    /// "adjacent … and overlap with a low probability in a few points";
    /// the default of 2.0 reproduces that.
    pub cluster_sep: f64,
    /// Fraction of labels flipped uniformly at random (paper: 1 %).
    pub flip_fraction: f64,
    /// RNG seed — every paper run regenerates fresh data, we keep it
    /// reproducible instead.
    pub seed: u64,
}

impl PlanesConfig {
    /// A new configuration with the paper's defaults (separation 2.0,
    /// 1 % label noise).
    pub fn new(points: usize, features: usize, seed: u64) -> Self {
        Self {
            points,
            features,
            cluster_sep: 2.0,
            flip_fraction: 0.01,
            seed,
        }
    }

    /// Override the cluster separation.
    pub fn with_cluster_sep(mut self, sep: f64) -> Self {
        self.cluster_sep = sep;
        self
    }

    /// Override the label flip fraction.
    pub fn with_flip_fraction(mut self, f: f64) -> Self {
        self.flip_fraction = f;
        self
    }
}

/// Generates a "planes" classification problem.
///
/// Two Gaussian clusters (unit variance per feature) sit at `±sep·ŵ` for a
/// random unit direction `ŵ`, so the optimal separator is the hyperplane
/// through the origin with normal `ŵ`. Points are shuffled, and
/// `flip_fraction` of the labels are inverted.
pub fn generate_planes<T: Real>(config: &PlanesConfig) -> Result<LabeledData<T>, DataError> {
    if config.points < 2 {
        return Err(DataError::Invalid(
            "planes generator needs at least 2 points".into(),
        ));
    }
    if config.features == 0 {
        return Err(DataError::Invalid(
            "planes generator needs at least 1 feature".into(),
        ));
    }
    if !(0.0..=1.0).contains(&config.flip_fraction) {
        return Err(DataError::Invalid(
            "flip fraction must be within [0, 1]".into(),
        ));
    }
    if config.cluster_sep < 0.0 {
        return Err(DataError::Invalid(
            "cluster separation must be non-negative".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let d = config.features;
    let m = config.points;

    // Random unit normal direction of the separating hyperplane.
    let mut w = vec![0.0f64; d];
    loop {
        fill_standard_normal(&mut rng, &mut w);
        let norm: f64 = w.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 1e-12 {
            for v in &mut w {
                *v /= norm;
            }
            break;
        }
    }

    let pos = m.div_ceil(2);
    let mut x = DenseMatrix::<T>::zeros(m, d);
    let mut y = Vec::with_capacity(m);
    let mut noise = vec![0.0f64; d];
    for p in 0..m {
        let sign = if p < pos { 1.0 } else { -1.0 };
        fill_standard_normal(&mut rng, &mut noise);
        let row = x.row_mut(p);
        for f in 0..d {
            row[f] = T::from_f64(sign * config.cluster_sep * w[f] + noise[f]);
        }
        y.push(if sign > 0.0 { T::ONE } else { -T::ONE });
    }

    // Shuffle points so classes are interleaved like make_classification.
    let mut order: Vec<usize> = (0..m).collect();
    order.shuffle(&mut rng);
    let x = x.select_rows(&order);
    let mut y: Vec<T> = order.iter().map(|&i| y[i]).collect();

    // 1 % label noise: flip a uniformly random subset.
    let flips = ((m as f64) * config.flip_fraction).round() as usize;
    let mut idx: Vec<usize> = (0..m).collect();
    idx.shuffle(&mut rng);
    for &i in idx.iter().take(flips) {
        y[i] = -y[i];
    }

    LabeledData::new(x, y)
}

/// Configuration of the multi-class Gaussian blobs generator.
#[derive(Debug, Clone)]
pub struct BlobsConfig {
    /// Number of data points (distributed round-robin over the classes).
    pub points: usize,
    /// Number of features.
    pub features: usize,
    /// Number of classes (labels `1..=classes`).
    pub classes: usize,
    /// Distance of each class centroid from the origin (per-feature noise
    /// σ = 1).
    pub separation: f64,
    /// RNG seed.
    pub seed: u64,
}

impl BlobsConfig {
    /// Default separation 4.0 (well separated blobs).
    pub fn new(points: usize, features: usize, classes: usize, seed: u64) -> Self {
        Self {
            points,
            features,
            classes,
            separation: 4.0,
            seed,
        }
    }

    /// Overrides the centroid separation.
    pub fn with_separation(mut self, sep: f64) -> Self {
        self.separation = sep;
        self
    }
}

/// Generates a multi-class problem: `classes` Gaussian blobs at random
/// unit directions scaled by `separation`, unit noise. Labels are
/// `1..=classes`. Used by the multi-class extension
/// (`plssvm-core::multiclass`).
pub fn generate_blobs<T: Real>(
    config: &BlobsConfig,
) -> Result<crate::multiclass::MultiClassData<T>, DataError> {
    if config.classes < 2 {
        return Err(DataError::Invalid("need at least 2 classes".into()));
    }
    if config.points < config.classes {
        return Err(DataError::Invalid(
            "need at least one point per class".into(),
        ));
    }
    if config.features == 0 {
        return Err(DataError::Invalid("need at least 1 feature".into()));
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let d = config.features;

    // one random unit centroid direction per class
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(config.classes);
    for _ in 0..config.classes {
        let mut c = vec![0.0f64; d];
        loop {
            fill_standard_normal(&mut rng, &mut c);
            let norm: f64 = c.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm > 1e-12 {
                for v in &mut c {
                    *v *= config.separation / norm;
                }
                break;
            }
        }
        centroids.push(c);
    }

    let mut x = DenseMatrix::<T>::zeros(config.points, d);
    let mut labels = Vec::with_capacity(config.points);
    let mut noise = vec![0.0f64; d];
    for p in 0..config.points {
        let class = p % config.classes;
        fill_standard_normal(&mut rng, &mut noise);
        let row = x.row_mut(p);
        for f in 0..d {
            row[f] = T::from_f64(centroids[class][f] + noise[f]);
        }
        labels.push(class as i32 + 1);
    }
    // shuffle
    let mut order: Vec<usize> = (0..config.points).collect();
    order.shuffle(&mut rng);
    let x = x.select_rows(&order);
    let labels = order.iter().map(|&i| labels[i]).collect();
    crate::multiclass::MultiClassData::new(x, labels)
}

/// Configuration of the synthetic regression generator (the `sinc`
/// benchmark function classic in the LS-SVM literature).
#[derive(Debug, Clone)]
pub struct SincConfig {
    /// Number of samples.
    pub points: usize,
    /// Gaussian noise σ added to the targets.
    pub noise: f64,
    /// Input interval half-width (samples drawn uniformly from `[-w, w]`).
    pub width: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SincConfig {
    /// Default: `[-10, 10]`, σ = 0.05.
    pub fn new(points: usize, seed: u64) -> Self {
        Self {
            points,
            noise: 0.05,
            width: 10.0,
            seed,
        }
    }

    /// Overrides the target noise.
    pub fn with_noise(mut self, noise: f64) -> Self {
        self.noise = noise;
        self
    }
}

/// Generates a 1D regression problem `y = sinc(x) + ε` (the standard
/// LS-SVM regression demo of Suykens & Vandewalle). Returns the feature
/// matrix (one column) and noisy targets.
pub fn generate_sinc<T: Real>(
    config: &SincConfig,
) -> Result<crate::libsvm::RegressionData<T>, DataError> {
    if config.points < 2 {
        return Err(DataError::Invalid("sinc needs at least 2 points".into()));
    }
    if config.noise < 0.0 || config.width <= 0.0 {
        return Err(DataError::Invalid(
            "sinc needs noise >= 0 and width > 0".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut x = DenseMatrix::<T>::zeros(config.points, 1);
    let mut y = Vec::with_capacity(config.points);
    for p in 0..config.points {
        let xv: f64 = rng.random_range(-config.width..config.width);
        let clean = if xv.abs() < 1e-12 { 1.0 } else { xv.sin() / xv };
        x.set(p, 0, T::from_f64(xv));
        y.push(T::from_f64(
            clean + config.noise * standard_normal(&mut rng),
        ));
    }
    crate::libsvm::RegressionData::new(x, y)
}

#[cfg(test)]
// index loops in these tests mirror the paper's subscript notation
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn generates_requested_shape() {
        let d: LabeledData<f64> = generate_planes(&PlanesConfig::new(101, 7, 1)).unwrap();
        assert_eq!(d.points(), 101);
        assert_eq!(d.features(), 7);
        assert!(d.x.all_finite());
    }

    #[test]
    fn classes_are_roughly_balanced() {
        let d: LabeledData<f64> = generate_planes(&PlanesConfig::new(1000, 4, 2)).unwrap();
        let (pos, neg) = d.class_counts();
        // 1% flips can shift the 500/500 split slightly
        assert!(pos.abs_diff(neg) <= 40, "{pos} vs {neg}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a: LabeledData<f64> = generate_planes(&PlanesConfig::new(64, 8, 7)).unwrap();
        let b: LabeledData<f64> = generate_planes(&PlanesConfig::new(64, 8, 7)).unwrap();
        assert_eq!(a, b);
        let c: LabeledData<f64> = generate_planes(&PlanesConfig::new(64, 8, 8)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn separable_with_large_separation() {
        // With a huge separation and no flips, a linear classifier through
        // the origin along the centroid difference must be perfect.
        let cfg = PlanesConfig::new(400, 16, 3)
            .with_cluster_sep(20.0)
            .with_flip_fraction(0.0);
        let d: LabeledData<f64> = generate_planes(&cfg).unwrap();
        // Estimate w as mean(+1 points) - mean(-1 points).
        let mut w = vec![0.0f64; d.features()];
        for p in 0..d.points() {
            let s = d.y[p];
            for f in 0..d.features() {
                w[f] += s * d.x.get(p, f);
            }
        }
        let mut correct = 0;
        for p in 0..d.points() {
            let score: f64 = (0..d.features()).map(|f| w[f] * d.x.get(p, f)).sum();
            if score.signum() == d.y[p] {
                correct += 1;
            }
        }
        assert_eq!(correct, d.points());
    }

    #[test]
    fn flip_fraction_controls_noise() {
        let clean: LabeledData<f64> =
            generate_planes(&PlanesConfig::new(1000, 4, 5).with_flip_fraction(0.0)).unwrap();
        let noisy: LabeledData<f64> =
            generate_planes(&PlanesConfig::new(1000, 4, 5).with_flip_fraction(0.5)).unwrap();
        // same seed → same points; labels differ in about half of them
        assert_eq!(clean.x, noisy.x);
        let diff = clean.y.iter().zip(&noisy.y).filter(|(a, b)| a != b).count();
        assert_eq!(diff, 500);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(generate_planes::<f64>(&PlanesConfig::new(1, 4, 0)).is_err());
        assert!(generate_planes::<f64>(&PlanesConfig::new(10, 0, 0)).is_err());
        assert!(
            generate_planes::<f64>(&PlanesConfig::new(10, 2, 0).with_flip_fraction(1.5)).is_err()
        );
        assert!(
            generate_planes::<f64>(&PlanesConfig::new(10, 2, 0).with_cluster_sep(-1.0)).is_err()
        );
    }

    #[test]
    fn works_in_f32() {
        let d: LabeledData<f32> = generate_planes(&PlanesConfig::new(32, 4, 11)).unwrap();
        assert_eq!(d.points(), 32);
        assert!(d.x.all_finite());
    }

    #[test]
    fn blobs_shape_and_balance() {
        let d = generate_blobs::<f64>(&BlobsConfig::new(90, 5, 3, 2)).unwrap();
        assert_eq!(d.points(), 90);
        assert_eq!(d.features(), 5);
        assert_eq!(d.classes, vec![1, 2, 3]);
        assert_eq!(d.class_counts(), vec![30, 30, 30]);
    }

    #[test]
    fn blobs_are_separable_at_high_separation() {
        // nearest-centroid classification must be near-perfect
        let d =
            generate_blobs::<f64>(&BlobsConfig::new(150, 8, 3, 3).with_separation(10.0)).unwrap();
        // estimate centroids from the labels
        let mut centroids = vec![vec![0.0; 8]; 3];
        let counts = d.class_counts();
        for p in 0..d.points() {
            let c = (d.labels[p] - 1) as usize;
            for f in 0..8 {
                centroids[c][f] += d.x.get(p, f) / counts[c] as f64;
            }
        }
        let mut correct = 0;
        for p in 0..d.points() {
            let best = (0..3)
                .min_by(|&a, &b| {
                    let da: f64 = (0..8)
                        .map(|f| (d.x.get(p, f) - centroids[a][f]).powi(2))
                        .sum();
                    let db: f64 = (0..8)
                        .map(|f| (d.x.get(p, f) - centroids[b][f]).powi(2))
                        .sum();
                    da.total_cmp(&db)
                })
                .unwrap();
            if best as i32 + 1 == d.labels[p] {
                correct += 1;
            }
        }
        assert!(correct >= 148, "{correct}/150");
    }

    #[test]
    fn blobs_invalid_configs() {
        assert!(generate_blobs::<f64>(&BlobsConfig::new(10, 4, 1, 0)).is_err());
        assert!(generate_blobs::<f64>(&BlobsConfig::new(2, 4, 3, 0)).is_err());
        assert!(generate_blobs::<f64>(&BlobsConfig::new(10, 0, 3, 0)).is_err());
    }

    #[test]
    fn sinc_targets_follow_the_function() {
        let d = generate_sinc::<f64>(&SincConfig::new(500, 7).with_noise(0.0)).unwrap();
        assert_eq!(d.points(), 500);
        assert_eq!(d.features(), 1);
        for p in 0..d.points() {
            let x = d.x.get(p, 0);
            let expected = if x.abs() < 1e-12 { 1.0 } else { x.sin() / x };
            assert!((d.y[p] - expected).abs() < 1e-12);
            assert!(x.abs() <= 10.0);
        }
    }

    #[test]
    fn sinc_noise_and_determinism() {
        let a = generate_sinc::<f64>(&SincConfig::new(100, 3)).unwrap();
        let b = generate_sinc::<f64>(&SincConfig::new(100, 3)).unwrap();
        assert_eq!(a, b);
        let clean = generate_sinc::<f64>(&SincConfig::new(100, 3).with_noise(0.0)).unwrap();
        assert_eq!(a.x, clean.x);
        assert_ne!(a.y, clean.y);
        assert!(generate_sinc::<f64>(&SincConfig::new(1, 0)).is_err());
        let mut bad = SincConfig::new(10, 0);
        bad.noise = -1.0;
        assert!(generate_sinc::<f64>(&bad).is_err());
    }
}
