//! Randomized low-rank (Nyström) solver path.
//!
//! The exact CG solver pays `O(m²·d)` per implicit matvec. Following the
//! randomized kernel methods of Andrecut (PAPERS.md), this module builds a
//! rank-`k` Nyström approximation of the kernel block and solves the
//! reduced LS-SVM system through it in `O(m·k·d + m·k²)`:
//!
//! ```text
//! Q̃ = K + D + P·M·Pᵀ           (the exact decomposition, see below)
//! K ≈ K̂ = C·W⁻¹·Cᵀ             (Nyström: C = K[:,L] ∈ ℝ^{n×k}, W = K[L,L])
//! ```
//!
//! where `D = diag(ridge(i))` is the LS-SVM ridge, `P = [q | 1] ∈ ℝ^{n×2}`
//! and `M = [[0,−1],[−1,q_mm]]` carry the rank-two elimination terms of
//! Eq. 16 (this reproduces [`QTildeParams::apply_corrections`] exactly:
//! `P·M·Pᵀ = −q·1ᵀ − 1·qᵀ + q_mm·1·1ᵀ`). The approximate operator
//! `Â = D + K̂ + P·M·Pᵀ` is inverted **exactly** by two nested Woodbury
//! identities:
//!
//! 1. `A₁ = D + C·W⁻¹·Cᵀ` ⇒ `A₁⁻¹v = D⁻¹v − D⁻¹C·S⁻¹·CᵀD⁻¹v` with the
//!    SPD `k×k` capacitance `S = W + CᵀD⁻¹C`, factored once by Cholesky
//!    with an escalating jitter ladder (rank-deficient sketches — e.g.
//!    duplicate landmark rows — never panic, they get jitter),
//! 2. `Â = A₁ + P·M·Pᵀ` ⇒ a 2×2 capacitance `G = M⁻¹ + Pᵀ·A₁⁻¹·P` with
//!    `M⁻¹ = [[−q_mm,−1],[−1,0]]` (det M = −1), guarded by a determinant
//!    check.
//!
//! `C` and `W` are assembled through the same
//! [`crate::kernel::kernel_panel`] micro-kernels the CPU backends use; all
//! factorization linear algebra runs in f64 regardless of the working
//! precision `T`.
//!
//! **Dense kernels.** Three loops carry the factorization cost, each a
//! plain-Rust body compiled once per ISA tier under `#[target_feature]`
//! and dispatched on the tier the solve selected:
//!
//! * the capacitance update `S += CᵀD⁻¹C` fills only the lower triangle
//!   (`m·k²/2` multiply-adds), walking `C` in 256-row blocks that stay in
//!   L2 while a 4×16 tile of `S` sits in registers;
//! * the Cholesky factorization is right-looking: each finalized column
//!   is copied out once and folded into the trailing rows by contiguous
//!   vector loops;
//! * a Woodbury apply shares each pass over `C` between its vectors, and
//!   computes `C·t` four rows at a time, each row one `mul_add` chain.
//!
//! Every output element sees the same operations in the same order as
//! the plain rank-one, left-looking and row-by-row loops the unit tests
//! keep as references: multiplies and adds stay unfused where those
//! loops keep them apart, and `mul_add` is correctly rounded in hardware
//! and in libm alike. The blocking therefore never changes a bit, on any
//! tier.
//!
//! **Escalation flow** (the pre-ladder in front of
//! [`crate::guard::solve_with_guardrails`]):
//!
//! 1. direct solve `x = Â⁻¹b`, verified against the **exact** operator;
//! 2. if the true relative residual misses ε, a
//!    [`RecoveryKind::Precondition`] event fires and a Nyström-
//!    preconditioned CG polish runs (exact matvecs, `Â⁻¹` as the
//!    preconditioner, started from the direct iterate);
//! 3. if that still misses ε, a [`RecoveryKind::SolverFallback`] event
//!    fires and the problem goes to the exact escalation ladder of
//!    [`crate::guard`] unchanged.
//!
//! Every low-rank solve streams one [`LowRankSample`] (rank, strategy,
//! jitter steps, direct residual, PCG iterations, assembly/solve wall
//! time) through the [`MetricsSink`] channel. Landmark selection is fully
//! determined by the seed ([`plssvm_data::sampling`]), so results are
//! bit-reproducible across thread counts.

use std::time::Instant;

use plssvm_data::dense::DenseMatrix;
use plssvm_data::model::KernelSpec;
use plssvm_data::sampling::{sample_uniform, sample_weighted};
use plssvm_data::Real;

use crate::cg::{BreakdownKind, CgConfig, CgResult, LinOp, SolveOutcome};
use crate::error::SvmError;
use crate::guard::{solve_with_guardrails, GuardedSolve, JacobiDiagonal, RecoveryPolicy};
use crate::kernel::{dot, kernel_panel, PANEL_MR, PANEL_NR};
use crate::matrix_free::QTildeParams;
use crate::simd::Isa;
use crate::trace::{
    CgIterationSample, CgOutcomeSample, LowRankSample, MetricsSink, RecoveryKind, RecoverySample,
};

/// Default landmark-selection seed (the CLI's `--lowrank-seed` default).
pub const DEFAULT_SEED: u64 = 42;

/// How Nyström landmarks are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LandmarkStrategy {
    /// `k` indices drawn uniformly without replacement.
    #[default]
    Uniform,
    /// Ridge leverage scores estimated from a uniform pilot sketch, then
    /// `k` indices drawn with probability proportional to their score
    /// (importance sampling — better landmarks on non-uniform data at
    /// twice the assembly cost).
    Leverage,
}

impl LandmarkStrategy {
    /// Stable lower-case name (`uniform` / `leverage`) used by the CLI and
    /// the telemetry schema.
    pub fn as_str(&self) -> &'static str {
        match self {
            LandmarkStrategy::Uniform => "uniform",
            LandmarkStrategy::Leverage => "leverage",
        }
    }
}

impl std::str::FromStr for LandmarkStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "uniform" => Ok(LandmarkStrategy::Uniform),
            "leverage" => Ok(LandmarkStrategy::Leverage),
            other => Err(format!(
                "unknown landmark strategy '{other}' (expected 'uniform' or 'leverage')"
            )),
        }
    }
}

/// Which solver the training drivers run (the CLI's `--solver` switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverSelection {
    /// The exact CG solve through the escalation ladder (the paper's
    /// solver; the default).
    #[default]
    Exact,
    /// The randomized low-rank (Nyström) path of this module.
    LowRank {
        /// Target rank `k` (clamped to the reduced dimension `m − 1`;
        /// rank 0 is rejected with a structured error).
        rank: usize,
        /// Landmark-selection seed.
        seed: u64,
        /// Landmark-selection strategy.
        strategy: LandmarkStrategy,
    },
}

impl SolverSelection {
    /// A low-rank selection with the default seed and uniform landmarks.
    pub fn lowrank(rank: usize) -> Self {
        SolverSelection::LowRank {
            rank,
            seed: DEFAULT_SEED,
            strategy: LandmarkStrategy::Uniform,
        }
    }

    /// Stable lower-case solver name (`exact` / `lowrank`).
    pub fn name(&self) -> &'static str {
        match self {
            SolverSelection::Exact => "exact",
            SolverSelection::LowRank { .. } => "lowrank",
        }
    }

    /// The model-file provenance string (the `solver` header key; see
    /// [`plssvm_data::model::SvmModel::solver`]). `None` for the exact
    /// solver, so exactly-solved models stay byte-compatible with LIBSVM.
    /// Records the *requested* rank (clamping to the system dimension
    /// happens inside the solve).
    pub fn provenance(&self) -> Option<String> {
        match self {
            SolverSelection::Exact => None,
            SolverSelection::LowRank {
                rank,
                seed,
                strategy,
            } => Some(format!(
                "lowrank rank={rank} seed={seed} strategy={}",
                strategy.as_str()
            )),
        }
    }
}

/// Maximum jitter-ladder steps before a factorization is declared
/// unusable (τ then sits at `0.1·trace(S)/k`, far beyond any realistic
/// rounding deficiency).
const MAX_JITTER_STEPS: usize = 12;

/// Rows of `C` per block of the capacitance update: 256 rows of a rank-512
/// `C` are 1 MiB, which stays in L2 while every tile of `S` sweeps it.
const CAP_ROW_BLOCK: usize = 256;
/// Rows of the `S` tile the capacitance update keeps in registers.
const CAP_TILE_ROWS: usize = 4;
/// Columns of that tile: two f64×8 vectors per row on AVX-512.
const CAP_TILE_COLS: usize = 16;

/// Defines `$name(isa, args…)`, which runs the plain-Rust kernel `$body`
/// compiled under `#[target_feature]` for the AVX-512 and AVX2 tiers and
/// calls it directly on every other tier. The bodies never fuse a
/// multiply and an add that the scalar build keeps apart, and every
/// `mul_add` is correctly rounded in hardware and in libm alike, so all
/// tiers compute the same bits; only the vector width changes.
macro_rules! tiered {
    (
        $(#[$doc:meta])*
        fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:ident;
    ) => {
        $(#[$doc])*
        fn $name(isa: Isa, $($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                /// # Safety
                /// The CPU must support AVX-512F.
                #[target_feature(enable = "avx512f")]
                unsafe fn avx512($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                /// # Safety
                /// The CPU must support AVX2 and FMA.
                #[target_feature(enable = "avx2,fma")]
                unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                match isa.clamp_supported() {
                    // SAFETY: `clamp_supported` only returns a tier whose
                    // features the running CPU reports.
                    Isa::Avx512 => return unsafe { avx512($($arg),*) },
                    // SAFETY: as above.
                    Isa::Avx2 => return unsafe { avx2($($arg),*) },
                    _ => {}
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = isa;
            $body($($arg),*)
        }
    };
}

/// Assembles the kernel block `out[i][j] = k(rows_a[i], rows_b[j])`
/// through the panel micro-kernel, upcast to f64 (row-major
/// `rows_a.len() × rows_b.len()`).
fn assemble_block<T: Real>(
    kernel: &KernelSpec<T>,
    isa: Isa,
    rows_a: &[&[T]],
    rows_b: &[&[T]],
) -> Vec<f64> {
    let (m, k) = (rows_a.len(), rows_b.len());
    let mut out = vec![0.0f64; m * k];
    if m == 0 || k == 0 {
        return out;
    }
    let mut i = 0;
    while i < m {
        let h = (m - i).min(PANEL_MR);
        let mut ra: [&[T]; PANEL_MR] = [rows_a[i]; PANEL_MR];
        for (a, slot) in ra.iter_mut().enumerate().take(h) {
            *slot = rows_a[i + a];
        }
        let mut j = 0;
        while j < k {
            let w = (k - j).min(PANEL_NR);
            let panel = kernel_panel(kernel, isa, &ra[..h], &rows_b[j..j + w]);
            for (a, prow) in panel.iter().enumerate().take(h) {
                for (bq, &val) in prow.iter().enumerate().take(w) {
                    out[(i + a) * k + (j + bq)] = val.to_f64();
                }
            }
            j += w;
        }
        i += h;
    }
    out
}

tiered! {
    /// Adds `CᵀD⁻¹C` to the lower triangle of the row-major `k×k` matrix
    /// `s`: `s[j1][j2] += (d_i·C[i,j1])·C[i,j2]` for `j2 ≤ j1`, in
    /// ascending `i` for every element. The upper triangle is left
    /// partially updated; nothing reads it.
    fn capacitance_update(
        s: &mut [f64],
        c: &[f64],
        inv_d: &[f64],
        k: usize,
    ) = capacitance_update_body;
}

#[inline(always)]
fn capacitance_update_body(s: &mut [f64], c: &[f64], inv_d: &[f64], k: usize) {
    let n = inv_d.len();
    assert!(s.len() == k * k && c.len() == n * k);
    for i0 in (0..n).step_by(CAP_ROW_BLOCK) {
        let block = i0..(i0 + CAP_ROW_BLOCK).min(n);
        for r0 in (0..k).step_by(CAP_TILE_ROWS) {
            let r_end = (r0 + CAP_TILE_ROWS).min(k);
            for c0 in (0..r_end).step_by(CAP_TILE_COLS) {
                let c_end = (c0 + CAP_TILE_COLS).min(k);
                if r_end - r0 == CAP_TILE_ROWS && c_end - c0 == CAP_TILE_COLS {
                    capacitance_tile(s, c, inv_d, k, block.clone(), r0, c0);
                } else {
                    for i in block.clone() {
                        let row = &c[i * k..(i + 1) * k];
                        for j1 in r0..r_end {
                            let f = inv_d[i] * row[j1];
                            let srow = &mut s[j1 * k + c0..j1 * k + c_end.min(j1 + 1)];
                            for (sv, &cv) in srow.iter_mut().zip(&row[c0..]) {
                                *sv += f * cv;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// One full `CAP_TILE_ROWS × CAP_TILE_COLS` tile of the capacitance update
/// at `(r0, c0)`, held in registers across the block's rows.
#[inline(always)]
fn capacitance_tile(
    s: &mut [f64],
    c: &[f64],
    inv_d: &[f64],
    k: usize,
    block: std::ops::Range<usize>,
    r0: usize,
    c0: usize,
) {
    let mut acc = [[0.0f64; CAP_TILE_COLS]; CAP_TILE_ROWS];
    for (a, tile_row) in acc.iter_mut().enumerate() {
        tile_row.copy_from_slice(&s[(r0 + a) * k + c0..][..CAP_TILE_COLS]);
    }
    for i in block {
        let row = &c[i * k..(i + 1) * k];
        let cols: &[f64; CAP_TILE_COLS] = row[c0..c0 + CAP_TILE_COLS]
            .try_into()
            .expect("the tile lies inside the row");
        for (a, tile_row) in acc.iter_mut().enumerate() {
            let f = inv_d[i] * row[r0 + a];
            for (sv, &cv) in tile_row.iter_mut().zip(cols) {
                *sv += f * cv;
            }
        }
    }
    for (a, tile_row) in acc.iter().enumerate() {
        s[(r0 + a) * k + c0..][..CAP_TILE_COLS].copy_from_slice(tile_row);
    }
}

tiered! {
    /// In-place lower Cholesky of the row-major `k×k` matrix, reading only
    /// its lower triangle. Fails (with the offending pivot index) on a
    /// non-positive or non-finite pivot.
    fn cholesky(a: &mut [f64], k: usize) -> Result<(), usize> = cholesky_body;
}

/// Right-looking: column `p` is finalized, copied into `col`, and folded
/// into each trailing row as one contiguous `a[i][j] -= l_ip·l_jp` sweep.
/// Every element sees the same subtractions in the same `p` order as the
/// left-looking `s -= l_ip·l_jp` recurrence, so the factor and the failing
/// pivot are the same bit for bit.
#[inline(always)]
fn cholesky_body(a: &mut [f64], k: usize) -> Result<(), usize> {
    assert_eq!(a.len(), k * k);
    let mut col = vec![0.0f64; k];
    for p in 0..k {
        let pivot = a[p * k + p];
        if !(pivot.is_finite() && pivot > 0.0) {
            return Err(p);
        }
        let lpp = pivot.sqrt();
        a[p * k + p] = lpp;
        for i in p + 1..k {
            let lip = a[i * k + p] / lpp;
            a[i * k + p] = lip;
            col[i] = lip;
        }
        for i in p + 1..k {
            let lip = col[i];
            let row = &mut a[i * k + p + 1..=i * k + i];
            for (v, &ljp) in row.iter_mut().zip(&col[p + 1..=i]) {
                *v -= lip * ljp;
            }
        }
    }
    Ok(())
}

/// Solves `L·Lᵀ·x = b` in place given the lower factor `L`.
fn chol_solve(l: &[f64], k: usize, x: &mut [f64]) {
    for i in 0..k {
        let mut s = x[i];
        for j in 0..i {
            s -= l[i * k + j] * x[j];
        }
        x[i] = s / l[i * k + i];
    }
    for i in (0..k).rev() {
        let mut s = x[i];
        for j in i + 1..k {
            s -= l[j * k + i] * x[j];
        }
        x[i] = s / l[i * k + i];
    }
}

/// Cholesky with an escalating jitter ladder: attempt τ = 0 first, then
/// `τ = 10^step · 10⁻¹² · trace(S)/k` for `step = 0..MAX_JITTER_STEPS`.
/// Returns the factor and the number of jitter steps taken (0 = clean), or
/// `None` when even the largest jitter cannot make the matrix factorable
/// (non-finite entries).
fn cholesky_with_jitter(isa: Isa, s: &[f64], k: usize) -> Option<(Vec<f64>, usize)> {
    let trace: f64 = (0..k).map(|i| s[i * k + i]).sum();
    let base = if trace.is_finite() && trace > 0.0 {
        trace / k as f64
    } else {
        1.0
    };
    for step in 0..=MAX_JITTER_STEPS {
        let mut a = s.to_vec();
        if step > 0 {
            let tau = base * 1e-12 * 10f64.powi(step as i32 - 1);
            for i in 0..k {
                a[i * k + i] += tau;
            }
        }
        if cholesky(isa, &mut a, k).is_ok() {
            return Some((a, step));
        }
    }
    None
}

tiered! {
    /// `y ← A₁⁻¹·v = D⁻¹v − D⁻¹C·S⁻¹·CᵀD⁻¹v` for every `y` in `ys`, each
    /// holding `v` on entry, with one shared pass over `C` per product.
    fn a1_inv_apply(
        c: &[f64],
        inv_d: &[f64],
        s_chol: &[f64],
        k: usize,
        ys: &mut [Vec<f64>],
    ) = a1_inv_apply_body;
}

/// `Cᵀ·(D⁻¹v)` accumulates row by row in ascending `i`; `C·t` runs four
/// rows at a time, each row its own sequential `mul_add` chain, which is
/// [`dot`] bit for bit.
#[inline(always)]
fn a1_inv_apply_body(c: &[f64], inv_d: &[f64], s_chol: &[f64], k: usize, ys: &mut [Vec<f64>]) {
    let n = inv_d.len();
    assert!(c.len() == n * k && ys.iter().all(|y| y.len() == n));
    for y in ys.iter_mut() {
        for (yv, &d) in y.iter_mut().zip(inv_d) {
            *yv *= d;
        }
    }
    let mut ts = vec![vec![0.0f64; k]; ys.len()];
    for (i, row) in c.chunks_exact(k).enumerate() {
        for (t, y) in ts.iter_mut().zip(ys.iter()) {
            let dvi = y[i];
            for (tj, &cij) in t.iter_mut().zip(row) {
                *tj += dvi * cij;
            }
        }
    }
    for t in &mut ts {
        chol_solve(s_chol, k, t);
    }
    let quads = n - n % 4;
    for i0 in (0..quads).step_by(4) {
        let rows: [&[f64]; 4] = std::array::from_fn(|a| &c[(i0 + a) * k..(i0 + a + 1) * k]);
        for (t, y) in ts.iter().zip(ys.iter_mut()) {
            let mut acc = [0.0f64; 4];
            for (j, &tj) in t.iter().enumerate() {
                for (s, row) in acc.iter_mut().zip(&rows) {
                    *s = row[j].mul_add(tj, *s);
                }
            }
            for (a, &s) in acc.iter().enumerate() {
                y[i0 + a] -= inv_d[i0 + a] * s;
            }
        }
    }
    for i in quads..n {
        for (t, y) in ts.iter().zip(ys.iter_mut()) {
            y[i] -= inv_d[i] * dot(&c[i * k..(i + 1) * k], t);
        }
    }
}

/// The factored Nyström approximation `Â = D + C·W⁻¹·Cᵀ + P·M·Pᵀ` of `Q̃`,
/// applied as `Â⁻¹·v` through the two nested Woodbury identities of the
/// module docs. All storage and arithmetic are f64.
struct NystromFactor {
    /// The ISA tier the dense kernels run on.
    isa: Isa,
    k: usize,
    /// `C = K[:,L]`, row-major `n×k`.
    c: Vec<f64>,
    /// `D⁻¹` (reciprocal ridge), length `n`.
    inv_d: Vec<f64>,
    /// Lower Cholesky factor of `S = W + τI + CᵀD⁻¹C`, row-major `k×k`
    /// (only the lower triangle is meaningful).
    s_chol: Vec<f64>,
    /// Jitter steps the capacitance factorization needed (0 = clean).
    jitter_steps: usize,
    /// `q` in f64 (length `n`).
    q: Vec<f64>,
    /// `u₁ = A₁⁻¹·q`.
    u1: Vec<f64>,
    /// `u₂ = A₁⁻¹·1`.
    u2: Vec<f64>,
    /// `G = M⁻¹ + Pᵀ·A₁⁻¹·P`, row-major 2×2.
    g: [f64; 4],
    /// `det G`, with usability pre-checked against the matrix scale.
    g_det: f64,
    /// Whether the rank-two stage is applied (false on a degenerate `G`,
    /// leaving `Â⁻¹ ≈ A₁⁻¹` — still a serviceable preconditioner).
    rank2_usable: bool,
}

impl NystromFactor {
    /// Builds the factorization for the given landmark set. `None` when
    /// the capacitance is unfactorable even with maximal jitter.
    fn build<T: Real>(
        params: &QTildeParams<T>,
        data: &DenseMatrix<T>,
        kernel: &KernelSpec<T>,
        isa: Isa,
        landmarks: &[usize],
    ) -> Option<Self> {
        let n = params.dim();
        let k = landmarks.len();
        let rows: Vec<&[T]> = (0..n).map(|i| data.row(i)).collect();
        let lm: Vec<&[T]> = landmarks.iter().map(|&j| data.row(j)).collect();
        let c = assemble_block(kernel, isa, &rows, &lm);
        let mut s = assemble_block(kernel, isa, &lm, &lm);
        let inv_d: Vec<f64> = (0..n).map(|i| 1.0 / params.ridge(i).to_f64()).collect();
        // S = W + CᵀD⁻¹C, lower triangle only, in m·k²/2 multiply-adds
        capacitance_update(isa, &mut s, &c, &inv_d, k);
        let (s_chol, jitter_steps) = cholesky_with_jitter(isa, &s, k)?;

        let q: Vec<f64> = params.q.iter().map(|v| v.to_f64()).collect();
        let mut partial = Self {
            isa,
            k,
            c,
            inv_d,
            s_chol,
            jitter_steps,
            q,
            u1: Vec::new(),
            u2: Vec::new(),
            g: [0.0; 4],
            g_det: 0.0,
            rank2_usable: false,
        };
        let mut u = [partial.q.clone(), vec![1.0; n]];
        partial.apply_a1_inv(&mut u);
        let [u1, u2] = u;
        // G = M⁻¹ + PᵀA₁⁻¹P with M⁻¹ = [[−q_mm,−1],[−1,0]] (det M = −1)
        let q_mm = params.q_mm().to_f64();
        let g = [
            -q_mm + dot(&partial.q, &u1),
            -1.0 + dot(&partial.q, &u2),
            -1.0 + u1.iter().sum::<f64>(),
            u2.iter().sum::<f64>(),
        ];
        let g_det = g[0] * g[3] - g[1] * g[2];
        let scale = g.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
        partial.u1 = u1;
        partial.u2 = u2;
        partial.g = g;
        partial.g_det = g_det;
        partial.rank2_usable = g_det.is_finite() && g_det.abs() > 1e-14 * scale * scale;
        Some(partial)
    }

    /// `v ← A₁⁻¹·v = D⁻¹v − D⁻¹C·S⁻¹·CᵀD⁻¹v` (stage-one Woodbury) for every
    /// vector of `vs`, sharing each pass over `C`.
    fn apply_a1_inv(&self, vs: &mut [Vec<f64>]) {
        a1_inv_apply(self.isa, &self.c, &self.inv_d, &self.s_chol, self.k, vs);
    }

    /// `Â⁻¹·v` (both Woodbury stages).
    fn apply_inv(&self, v: &[f64]) -> Vec<f64> {
        let mut ys = [v.to_vec()];
        self.apply_a1_inv(&mut ys);
        let [mut y] = ys;
        if self.rank2_usable {
            let t1 = dot(&self.q, &y);
            let t2: f64 = y.iter().sum();
            let z1 = (self.g[3] * t1 - self.g[1] * t2) / self.g_det;
            let z2 = (-self.g[2] * t1 + self.g[0] * t2) / self.g_det;
            for ((yv, &u1v), &u2v) in y.iter_mut().zip(&self.u1).zip(&self.u2) {
                *yv -= u1v * z1 + u2v * z2;
            }
        }
        y
    }
}

/// Chooses `k` landmark indices from the `n` non-eliminated training
/// points, deterministically for a given seed.
fn select_landmarks<T: Real>(
    params: &QTildeParams<T>,
    data: &DenseMatrix<T>,
    kernel: &KernelSpec<T>,
    isa: Isa,
    k: usize,
    seed: u64,
    strategy: LandmarkStrategy,
) -> Vec<usize> {
    let n = params.dim();
    match strategy {
        LandmarkStrategy::Uniform => sample_uniform(n, k, seed),
        LandmarkStrategy::Leverage => {
            // Ridge leverage scores against a uniform pilot sketch of the
            // same size: ℓᵢ = K[i,P]·(K[P,P] + λI)⁻¹·K[i,P]ᵀ with λ the
            // mean ridge, then importance-sample proportional to ℓ.
            let pilot = sample_uniform(n, k, seed);
            let p = pilot.len();
            let rows: Vec<&[T]> = (0..n).map(|i| data.row(i)).collect();
            let lm: Vec<&[T]> = pilot.iter().map(|&j| data.row(j)).collect();
            let c = assemble_block(kernel, isa, &rows, &lm);
            let mut w = assemble_block(kernel, isa, &lm, &lm);
            let lambda = (0..n).map(|i| params.ridge(i).to_f64()).sum::<f64>() / (n.max(1) as f64);
            for j in 0..p {
                w[j * p + j] += lambda;
            }
            match cholesky_with_jitter(isa, &w, p) {
                Some((l, _)) => {
                    let scores: Vec<f64> = (0..n)
                        .map(|i| {
                            let row = &c[i * p..(i + 1) * p];
                            let mut t = row.to_vec();
                            chol_solve(&l, p, &mut t);
                            dot(row, &t)
                        })
                        .collect();
                    sample_weighted(&scores, k, seed.wrapping_add(1))
                }
                // a pilot Gram that defeats even the jitter ladder carries
                // no usable leverage information — fall back to uniform
                None => sample_uniform(n, k, seed),
            }
        }
    }
}

/// Rounds `v` to the working precision, applies the exact operator, and
/// returns the result upcast to f64.
fn apply_exact<T: Real>(op: &dyn LinOp<T>, v64: &[f64]) -> Vec<f64> {
    let vt: Vec<T> = v64.iter().map(|&v| T::from_f64(v)).collect();
    let mut out = vec![T::ZERO; op.dim()];
    op.apply(&vt, &mut out);
    out.iter().map(|o| o.to_f64()).collect()
}

/// The exact residual `r = b − Q̃·x` (matvec in working precision,
/// subtraction in f64) and its norm.
fn exact_residual<T: Real>(op: &dyn LinOp<T>, b64: &[f64], x64: &[f64]) -> (Vec<f64>, f64) {
    let ax = apply_exact(op, x64);
    let r: Vec<f64> = b64.iter().zip(&ax).map(|(&bv, &av)| bv - av).collect();
    let norm = dot(&r, &r).sqrt();
    (r, norm)
}

fn emit(metrics: Option<&dyn MetricsSink>, kind: RecoveryKind, iteration: usize, detail: String) {
    if let Some(sink) = metrics {
        sink.record_recovery(RecoverySample::solver(kind, iteration, detail));
    }
}

/// Solves `Q̃·x = b` through the randomized low-rank path: Nyström direct
/// solve → Nyström-preconditioned CG polish → exact escalation ladder,
/// with every transition a recorded `recovery` event (see the module
/// docs). The returned [`GuardedSolve`] has the same shape as
/// [`solve_with_guardrails`], so callers destructure it identically;
/// `escalations` lists the low-rank transitions
/// ([`RecoveryKind::Precondition`], [`RecoveryKind::SolverFallback`])
/// before any rungs of the exact ladder.
///
/// `op` must be the **exact** `Q̃` operator for `params` (it verifies and,
/// when needed, polishes the approximate solve); `data` holds the training
/// points row-major with `params.dim() + 1` rows. A `rank` of 0 is
/// rejected with [`SvmError::Solver`]; ranks above `params.dim()` are
/// clamped.
#[allow(clippy::too_many_arguments)]
pub fn solve_lowrank<T: Real>(
    op: &dyn LinOp<T>,
    params: &QTildeParams<T>,
    data: &DenseMatrix<T>,
    kernel: &KernelSpec<T>,
    rank: usize,
    seed: u64,
    strategy: LandmarkStrategy,
    b: &[T],
    config: &CgConfig<T>,
    policy: &RecoveryPolicy,
    jacobi: JacobiDiagonal<'_, T>,
    metrics: Option<&dyn MetricsSink>,
) -> Result<GuardedSolve<T>, SvmError> {
    let n = params.dim();
    assert_eq!(op.dim(), n, "operator dimension must match the parameters");
    assert_eq!(b.len(), n, "right-hand side length must match the system");
    assert!(
        data.rows() == n + 1,
        "training data must hold all m = n + 1 points"
    );
    if rank == 0 {
        return Err(SvmError::Solver(
            "the low-rank solver needs a rank of at least 1 \
             (use the exact solver for a full-rank solve)"
                .into(),
        ));
    }
    let k = rank.min(n);
    let epsilon = config.epsilon.to_f64();
    let b64: Vec<f64> = b.iter().map(|v| v.to_f64()).collect();
    let norm_b = dot(&b64, &b64).sqrt();
    if norm_b == 0.0 {
        // b = 0 ⇒ x = 0 exactly; mirror the exact solver's trivial path
        if let Some(sink) = metrics {
            sink.record_cg_outcome(CgOutcomeSample {
                outcome: SolveOutcome::Converged.as_str(),
                iterations: 0,
                final_residual_norm: 0.0,
                relative_residual: 0.0,
            });
        }
        return Ok(GuardedSolve {
            result: CgResult {
                x: vec![T::ZERO; n],
                iterations: 0,
                initial_residual_norm: T::ZERO,
                residual_norm: T::ZERO,
                converged: true,
                outcome: SolveOutcome::Converged,
                drift_restarts: 0,
                checkpoint: None,
            },
            total_iterations: 0,
            escalations: Vec::new(),
        });
    }

    let t_assembly = Instant::now();
    let isa = Isa::select();
    let landmarks = select_landmarks(params, data, kernel, isa, k, seed, strategy);
    let factor = NystromFactor::build(params, data, kernel, isa, &landmarks);
    let assembly_wall = t_assembly.elapsed();

    let Some(factor) = factor else {
        // not factorable even at maximal jitter (non-finite kernel
        // entries): hand the problem to the exact ladder unchanged
        emit(
            metrics,
            RecoveryKind::SolverFallback,
            0,
            format!(
                "rank-{k} Nyström capacitance unfactorable after {MAX_JITTER_STEPS} \
                 jitter steps: falling back to the exact solver ladder"
            ),
        );
        if let Some(sink) = metrics {
            sink.record_lowrank(LowRankSample {
                rank: k,
                strategy: strategy.as_str(),
                jitter_steps: MAX_JITTER_STEPS,
                direct_relative_residual: f64::INFINITY,
                pcg_iterations: 0,
                assembly_wall,
                solve_wall: std::time::Duration::ZERO,
            });
        }
        let guarded = solve_with_guardrails(op, b, config, policy, jacobi, metrics);
        let mut escalations = vec![RecoveryKind::SolverFallback];
        escalations.extend(guarded.escalations.iter().copied());
        return Ok(GuardedSolve {
            escalations,
            ..guarded
        });
    };

    let t_solve = Instant::now();
    let mut x = factor.apply_inv(&b64);
    let (mut r, mut rnorm) = exact_residual(op, &b64, &x);
    let direct_rel = rnorm / norm_b;

    let mut escalations = Vec::new();
    let mut pcg_iterations = 0usize;
    let mut converged = direct_rel <= epsilon;
    let mut pcg_outcome = SolveOutcome::Converged;

    if !converged {
        // The direct solve missed ε: engage Nyström-preconditioned CG,
        // starting from the direct iterate — Â⁻¹ is the preconditioner,
        // the matvec is the exact operator, and termination is on the
        // unpreconditioned ‖r‖ against ε·‖b‖.
        emit(
            metrics,
            RecoveryKind::Precondition,
            0,
            format!(
                "rank-{k} direct Nyström solve reached relative residual \
                 {direct_rel:.3e} > {epsilon:.1e}: polishing with \
                 Nyström-preconditioned CG"
            ),
        );
        escalations.push(RecoveryKind::Precondition);
        if let Some(sink) = metrics {
            sink.record_cg_start(n, rnorm);
        }
        let max_iterations = config.max_iterations.unwrap_or((2 * n).max(128));
        let refresh = config.residual_refresh_interval.max(1);
        pcg_outcome = SolveOutcome::IterationBudget;
        let mut z = factor.apply_inv(&r);
        let mut p = z.clone();
        let mut rz = dot(&r, &z);
        for it in 1..=max_iterations {
            let t_iter = Instant::now();
            let ap = apply_exact(op, &p);
            let pap = dot(&p, &ap);
            if !pap.is_finite() {
                pcg_outcome = SolveOutcome::Breakdown(BreakdownKind::NonFinite);
                break;
            }
            if pap <= 0.0 {
                pcg_outcome = SolveOutcome::Breakdown(BreakdownKind::Indefinite);
                break;
            }
            let alpha = rz / pap;
            for (xv, &pv) in x.iter_mut().zip(&p) {
                *xv += alpha * pv;
            }
            pcg_iterations = it;
            if it % refresh == 0 {
                (r, rnorm) = exact_residual(op, &b64, &x);
            } else {
                for (rv, &apv) in r.iter_mut().zip(&ap) {
                    *rv -= alpha * apv;
                }
                rnorm = dot(&r, &r).sqrt();
            }
            if !rnorm.is_finite() {
                pcg_outcome = SolveOutcome::Breakdown(BreakdownKind::NonFinite);
                break;
            }
            if rnorm <= epsilon * norm_b {
                // trust only an exactly measured residual before claiming
                // convergence
                (r, rnorm) = exact_residual(op, &b64, &x);
                if rnorm <= epsilon * norm_b {
                    if let Some(sink) = metrics {
                        sink.record_cg_iteration(CgIterationSample {
                            iteration: it,
                            residual_norm: rnorm,
                            alpha,
                            beta: 0.0,
                            matvec_wall: t_iter.elapsed(),
                        });
                    }
                    converged = true;
                    pcg_outcome = SolveOutcome::Converged;
                    break;
                }
            }
            z = factor.apply_inv(&r);
            let rz_new = dot(&r, &z);
            if !rz_new.is_finite() {
                pcg_outcome = SolveOutcome::Breakdown(BreakdownKind::NonFinite);
                break;
            }
            let beta = rz_new / rz;
            rz = rz_new;
            for (pv, &zv) in p.iter_mut().zip(&z) {
                *pv = zv + beta * *pv;
            }
            if let Some(sink) = metrics {
                sink.record_cg_iteration(CgIterationSample {
                    iteration: it,
                    residual_norm: rnorm,
                    alpha,
                    beta,
                    matvec_wall: t_iter.elapsed(),
                });
            }
        }
    }
    let solve_wall = t_solve.elapsed();

    if let Some(sink) = metrics {
        sink.record_lowrank(LowRankSample {
            rank: k,
            strategy: strategy.as_str(),
            jitter_steps: factor.jitter_steps,
            direct_relative_residual: direct_rel,
            pcg_iterations,
            assembly_wall,
            solve_wall,
        });
    }

    if converged {
        if let Some(sink) = metrics {
            sink.record_cg_outcome(CgOutcomeSample {
                outcome: SolveOutcome::Converged.as_str(),
                iterations: pcg_iterations,
                final_residual_norm: rnorm,
                relative_residual: rnorm / norm_b,
            });
        }
        return Ok(GuardedSolve {
            result: CgResult {
                x: x.iter().map(|&v| T::from_f64(v)).collect(),
                iterations: pcg_iterations,
                initial_residual_norm: T::from_f64(norm_b),
                residual_norm: T::from_f64(rnorm),
                converged: true,
                outcome: SolveOutcome::Converged,
                drift_restarts: 0,
                checkpoint: None,
            },
            total_iterations: pcg_iterations,
            escalations,
        });
    }

    // The low-rank path is exhausted: record the transition and hand the
    // problem to the exact escalation ladder unchanged.
    emit(
        metrics,
        RecoveryKind::SolverFallback,
        pcg_iterations,
        format!(
            "Nyström-preconditioned CG ({pcg_outcome}) at relative residual \
             {:.3e} after {pcg_iterations} iterations: falling back to the \
             exact solver ladder",
            rnorm / norm_b
        ),
    );
    escalations.push(RecoveryKind::SolverFallback);
    let guarded = solve_with_guardrails(op, b, config, policy, jacobi, metrics);
    escalations.extend(guarded.escalations.iter().copied());
    Ok(GuardedSolve {
        result: guarded.result,
        total_iterations: pcg_iterations + guarded.total_iterations,
        escalations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendSelection, Prepared};
    use plssvm_data::synthetic::{generate_planes, PlanesConfig};

    fn fixture(points: usize, seed: u64) -> (DenseMatrix<f64>, Vec<f64>) {
        let d = generate_planes::<f64>(&PlanesConfig::new(points, 6, seed)).unwrap();
        (d.x, d.y)
    }

    fn prepared(data: &DenseMatrix<f64>, kernel: &KernelSpec<f64>, cost: f64) -> Prepared<f64> {
        Prepared::new(&BackendSelection::Serial, data, None, kernel, cost).unwrap()
    }

    fn solve(
        data: &DenseMatrix<f64>,
        y: &[f64],
        kernel: &KernelSpec<f64>,
        rank: usize,
        strategy: LandmarkStrategy,
        metrics: Option<&dyn MetricsSink>,
    ) -> Result<GuardedSolve<f64>, SvmError> {
        let op = prepared(data, kernel, 2.0);
        let rhs = crate::matrix_free::reduced_rhs(y);
        solve_lowrank(
            &op,
            op.params(),
            data,
            kernel,
            rank,
            DEFAULT_SEED,
            strategy,
            &rhs,
            &CgConfig::with_epsilon(1e-8),
            &RecoveryPolicy::default(),
            JacobiDiagonal::Unavailable,
            metrics,
        )
    }

    #[test]
    fn full_rank_direct_solve_is_near_exact() {
        // rank = n ⇒ K̂ = K·K⁻¹·K = K for the strictly PD RBF Gram: the
        // direct Woodbury solve alone must meet a tight tolerance with no
        // escalation
        let (data, y) = fixture(40, 3);
        let kernel = KernelSpec::Rbf { gamma: 0.5 };
        let g = solve(&data, &y, &kernel, 39, LandmarkStrategy::Uniform, None).unwrap();
        assert!(g.result.converged);
        assert!(g.escalations.is_empty(), "{:?}", g.escalations);
        assert_eq!(g.total_iterations, 0);
    }

    #[test]
    fn low_rank_converges_via_pcg_with_recorded_transition() {
        let (data, y) = fixture(80, 7);
        let kernel = KernelSpec::Rbf { gamma: 0.5 };
        let t = crate::trace::Telemetry::new();
        let g = solve(&data, &y, &kernel, 8, LandmarkStrategy::Uniform, Some(&t)).unwrap();
        assert!(g.result.converged, "outcome: {:?}", g.result.outcome);
        assert!(g.escalations.contains(&RecoveryKind::Precondition));
        assert!(!g.escalations.contains(&RecoveryKind::SolverFallback));
        assert!(g.total_iterations > 0);
        let report = t.report();
        let sample = report.lowrank.expect("lowrank sample recorded");
        assert_eq!(sample.rank, 8);
        assert_eq!(sample.strategy, "uniform");
        assert_eq!(sample.pcg_iterations, g.total_iterations);
        assert!(report
            .recovery
            .iter()
            .any(|s| s.kind == RecoveryKind::Precondition));

        // the claimed residual is real
        let op = prepared(&data, &kernel, 2.0);
        let rhs = crate::matrix_free::reduced_rhs(&y);
        let b64: Vec<f64> = rhs.clone();
        let (_, rnorm) = exact_residual(&op as &dyn LinOp<f64>, &b64, &g.result.x);
        let nb = dot(&b64, &b64).sqrt();
        assert!(rnorm / nb <= 1e-8, "true relative residual {}", rnorm / nb);
    }

    #[test]
    fn leverage_strategy_solves_and_differs_from_uniform_landmarks() {
        let (data, y) = fixture(60, 11);
        let kernel = KernelSpec::Rbf { gamma: 0.8 };
        let g = solve(&data, &y, &kernel, 12, LandmarkStrategy::Leverage, None).unwrap();
        assert!(g.result.converged);
        // the two strategies are distinct draws
        let op = prepared(&data, &kernel, 2.0);
        let uni = select_landmarks(
            op.params(),
            &data,
            &kernel,
            Isa::select(),
            12,
            DEFAULT_SEED,
            LandmarkStrategy::Uniform,
        );
        let lev = select_landmarks(
            op.params(),
            &data,
            &kernel,
            Isa::select(),
            12,
            DEFAULT_SEED,
            LandmarkStrategy::Leverage,
        );
        assert_eq!(uni.len(), 12);
        assert_eq!(lev.len(), 12);
        assert_ne!(uni, lev);
    }

    #[test]
    fn rank_zero_is_a_structured_error() {
        let (data, y) = fixture(20, 1);
        let kernel = KernelSpec::Linear;
        let err = solve(&data, &y, &kernel, 0, LandmarkStrategy::Uniform, None).unwrap_err();
        assert!(matches!(err, SvmError::Solver(_)));
        assert!(err.to_string().contains("rank"), "{err}");
    }

    #[test]
    fn oversized_rank_clamps_to_dimension() {
        let (data, y) = fixture(24, 9);
        let kernel = KernelSpec::Rbf { gamma: 0.5 };
        let t = crate::trace::Telemetry::new();
        let g = solve(
            &data,
            &y,
            &kernel,
            10_000,
            LandmarkStrategy::Uniform,
            Some(&t),
        )
        .unwrap();
        assert!(g.result.converged);
        assert_eq!(t.report().lowrank.unwrap().rank, 23);
    }

    #[test]
    fn duplicate_rows_never_panic_and_still_solve() {
        // every row duplicated: the landmark Gram is rank-deficient, so
        // the capacitance needs jitter — and must never panic
        let (base, ybase) = fixture(16, 5);
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut y = Vec::new();
        for (i, yv) in ybase.iter().enumerate() {
            rows.push(base.row(i).to_vec());
            rows.push(base.row(i).to_vec());
            y.push(*yv);
            y.push(*yv);
        }
        let data = DenseMatrix::from_rows(rows).unwrap();
        let kernel = KernelSpec::Rbf { gamma: 0.5 };
        let g = solve(&data, &y, &kernel, 31, LandmarkStrategy::Uniform, None).unwrap();
        assert!(g.result.converged, "outcome: {:?}", g.result.outcome);
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let (data, y) = fixture(50, 13);
        let kernel = KernelSpec::Rbf { gamma: 0.4 };
        let a = solve(&data, &y, &kernel, 10, LandmarkStrategy::Uniform, None).unwrap();
        let b = solve(&data, &y, &kernel, 10, LandmarkStrategy::Uniform, None).unwrap();
        assert_eq!(a.result.x, b.result.x);
        assert_eq!(a.total_iterations, b.total_iterations);
    }

    #[test]
    fn strategy_and_selection_names() {
        assert_eq!(LandmarkStrategy::Uniform.as_str(), "uniform");
        assert_eq!(LandmarkStrategy::Leverage.as_str(), "leverage");
        assert_eq!("leverage".parse(), Ok(LandmarkStrategy::Leverage));
        assert!("nope".parse::<LandmarkStrategy>().is_err());
        assert_eq!(SolverSelection::Exact.name(), "exact");
        assert_eq!(SolverSelection::lowrank(8).name(), "lowrank");
        assert_eq!(
            SolverSelection::lowrank(8),
            SolverSelection::LowRank {
                rank: 8,
                seed: DEFAULT_SEED,
                strategy: LandmarkStrategy::Uniform
            }
        );
    }

    #[test]
    fn cholesky_jitter_ladder_handles_rank_deficiency() {
        for isa in Isa::available() {
            // a singular PSD matrix factors only through jitter
            let s = vec![1.0, 1.0, 1.0, 1.0];
            let (l, steps) = cholesky_with_jitter(isa, &s, 2).expect("jitter must rescue");
            assert!(steps > 0);
            assert!(l.iter().all(|v| v.is_finite()));
            // a matrix of NaNs is unfactorable at any jitter
            assert!(cholesky_with_jitter(isa, &[f64::NAN; 4], 2).is_none());
        }
    }

    /// The rank-one capacitance loop the blocked update replaced.
    fn reference_capacitance_update(s: &mut [f64], c: &[f64], inv_d: &[f64], k: usize) {
        for (i, &di) in inv_d.iter().enumerate() {
            let row = &c[i * k..(i + 1) * k];
            for j1 in 0..k {
                let f = di * row[j1];
                let srow = &mut s[j1 * k..(j1 + 1) * k];
                for (sv, &cv) in srow.iter_mut().zip(row) {
                    *sv += f * cv;
                }
            }
        }
    }

    /// The left-looking Cholesky the right-looking one replaced.
    fn reference_cholesky(a: &mut [f64], k: usize) -> Result<(), usize> {
        for i in 0..k {
            for j in 0..=i {
                let mut s = a[i * k + j];
                for p in 0..j {
                    s -= a[i * k + p] * a[j * k + p];
                }
                if i == j {
                    if !(s.is_finite() && s > 0.0) {
                        return Err(i);
                    }
                    a[i * k + i] = s.sqrt();
                } else {
                    a[i * k + j] = s / a[j * k + j];
                }
            }
        }
        Ok(())
    }

    /// The one-vector stage-one Woodbury apply the shared pass replaced.
    fn reference_a1_inv(c: &[f64], inv_d: &[f64], l: &[f64], k: usize, v: &[f64]) -> Vec<f64> {
        let mut dv: Vec<f64> = v.iter().zip(inv_d).map(|(a, b)| a * b).collect();
        let mut t = vec![0.0f64; k];
        for (i, &dvi) in dv.iter().enumerate() {
            let row = &c[i * k..(i + 1) * k];
            for (tj, &cij) in t.iter_mut().zip(row) {
                *tj += dvi * cij;
            }
        }
        chol_solve(l, k, &mut t);
        for (i, dvi) in dv.iter_mut().enumerate() {
            let row = &c[i * k..(i + 1) * k];
            *dvi -= inv_d[i] * dot(row, &t);
        }
        dv
    }

    /// Deterministic values in `[-1, 1)`.
    fn noise(len: usize, seed: u64) -> Vec<f64> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect()
    }

    /// A Nyström-shaped capacitance problem: `C` (`n×k`), `D⁻¹` and the
    /// SPD starting block `W`.
    fn capacitance_problem(n: usize, k: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let c = noise(n * k, seed);
        let inv_d: Vec<f64> = noise(n, seed + 1).iter().map(|v| 1.5 + v).collect();
        let b = noise(k * k, seed + 2);
        let mut w = vec![0.0; k * k];
        for i in 0..k {
            for j in 0..k {
                w[i * k + j] = dot(&b[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
            }
            w[i * k + i] += k as f64;
        }
        (c, inv_d, w)
    }

    fn lower_bits(a: &[f64], k: usize) -> Vec<u64> {
        (0..k)
            .flat_map(|i| (0..=i).map(move |j| a[i * k + j].to_bits()))
            .collect()
    }

    const ROWS: [usize; 6] = [1, 2, 255, 256, 257, 1031];
    const RANKS: [usize; 10] = [1, 2, 3, 4, 5, 15, 16, 17, 33, 64];

    #[test]
    fn blocked_capacitance_update_matches_rank_one_loop_bitwise() {
        for isa in Isa::available() {
            for (ni, &n) in ROWS.iter().enumerate() {
                for (ki, &k) in RANKS.iter().enumerate() {
                    let (c, inv_d, w) = capacitance_problem(n, k, (ni * 16 + ki) as u64);
                    let mut want = w.clone();
                    reference_capacitance_update(&mut want, &c, &inv_d, k);
                    let mut got = w;
                    capacitance_update(isa, &mut got, &c, &inv_d, k);
                    assert_eq!(
                        lower_bits(&got, k),
                        lower_bits(&want, k),
                        "{isa}: n = {n}, k = {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn right_looking_cholesky_matches_left_looking_bitwise() {
        for isa in Isa::available() {
            for (ki, &k) in RANKS.iter().enumerate() {
                let (c, inv_d, mut s) = capacitance_problem(257, k, 100 + ki as u64);
                reference_capacitance_update(&mut s, &c, &inv_d, k);
                let mut want = s.clone();
                assert_eq!(reference_cholesky(&mut want, k), Ok(()));
                let mut got = s.clone();
                assert_eq!(cholesky(isa, &mut got, k), Ok(()), "{isa}: k = {k}");
                assert_eq!(lower_bits(&got, k), lower_bits(&want, k), "{isa}: k = {k}");

                // an indefinite trailing block and a NaN entry fail at the
                // same pivot in both versions
                let (mid, last) = (k / 2, k - 1);
                let mut indefinite = s.clone();
                indefinite[mid * k + mid] = -1.0;
                let mut nan = s.clone();
                nan[last * k + mid] = f64::NAN;
                for bad in [indefinite, nan] {
                    let want = reference_cholesky(&mut bad.clone(), k);
                    assert!(want.is_err());
                    assert_eq!(cholesky(isa, &mut bad.clone(), k), want, "{isa}: k = {k}");
                }
            }
        }
    }

    #[test]
    fn shared_pass_woodbury_apply_matches_reference_bitwise() {
        for isa in Isa::available() {
            for (ni, &n) in ROWS.iter().enumerate() {
                for &k in &[1, 5, 17, 64] {
                    let (c, inv_d, mut s) = capacitance_problem(n, k, 200 + ni as u64);
                    reference_capacitance_update(&mut s, &c, &inv_d, k);
                    reference_cholesky(&mut s, k).expect("SPD by construction");
                    let q = noise(n, 300 + ni as u64);
                    let ones = vec![1.0; n];
                    let mut pair = [q.clone(), ones.clone()];
                    a1_inv_apply(isa, &c, &inv_d, &s, k, &mut pair);
                    for (got, v) in pair.iter().zip([&q, &ones]) {
                        let mut single = [v.clone()];
                        a1_inv_apply(isa, &c, &inv_d, &s, k, &mut single);
                        let want = reference_a1_inv(&c, &inv_d, &s, k, v);
                        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(got), bits(&want), "{isa}: n = {n}, k = {k}");
                        assert_eq!(bits(&single[0]), bits(&want), "{isa}: n = {n}, k = {k}");
                    }
                }
            }
        }
    }
}
