//! Blocked, SIMD-friendly CPU matvec engine shared by the serial and
//! "OpenMP" backends.
//!
//! The paper's core performance idea — a blocked, tiled implicit `K·v`
//! product — is reproduced here for the *host* path. Three levels of
//! blocking mirror a classic GEMM decomposition:
//!
//! 1. **Register micro-tiles.** [`crate::kernel::kernel_panel`] evaluates a
//!    `PANEL_MR×PANEL_NR` block of kernel entries per call, accumulating
//!    all pair inner products (or squared distances) in one pass over the
//!    features. The accumulators are independent fused multiply–add chains
//!    the compiler keeps in registers and auto-vectorizes — unlike the
//!    single latency-bound chain of a row-at-a-time `dot`.
//! 2. **Cache tiles.** Micro-tiles are grouped into
//!    [`CpuTilingConfig::row_tile`]`×`[`CpuTilingConfig::col_tile`] blocks
//!    so the `j`-panel rows and the touched `v`/`out` segments stay cache
//!    resident while an `i`-panel streams past them.
//! 3. **Symmetry.** `K` is symmetric, so only upper-triangle tiles are
//!    evaluated and every strictly-upper entry is mirrored into both
//!    `out[i]` and `out[j]` — `n(n+1)/2` kernel evaluations instead of
//!    `n²`, the same economy the serial reference has always had.
//!
//! Parallel execution assigns **tile rows** to a bounded number of groups
//! in a strided pattern (early tile rows own long tile spans, late ones
//! short — striding balances the triangle). Each group accumulates into a
//! private partial output buffer and the buffers are reduced in group
//! order. Because the group count depends only on `n` and the tiling —
//! never on the thread count — results are bitwise independent of the
//! number of worker threads.
//!
//! The tile loops are compiled once per ISA tier and dispatched once per
//! parallel task (see [`crate::simd`], "Where tier dispatch happens"), so
//! the mirror updates' `mul_add`s are FMA instructions on SIMD hosts.
//!
//! Boundary behaviour is explicit everywhere: every tile and micro-tile
//! clamps to `n`, so `n = 1`, `n` one off a tile multiple and prime `n`
//! take the same code path as full tiles (see the boundary tests in
//! [`crate::backend::parallel`]).

use plssvm_data::dense::DenseMatrix;
use plssvm_data::model::KernelSpec;
use plssvm_data::Real;

use crate::error::SvmError;
use crate::kernel::{kernel_panel, kernel_row, PANEL_MR, PANEL_NR};
use crate::simd::{tiered, Isa};

/// Upper bound on the number of partial output buffers (and parallel
/// tasks) of the symmetric matvec. Keeps the reduction memory at
/// `O(MAX_PARTIAL_GROUPS · n)` even for pathological one-row tiles while
/// leaving plenty of task granularity for any realistic core count.
pub(crate) const MAX_PARTIAL_GROUPS: usize = 64;

/// Cache-level tiling of the blocked CPU matvec engine.
///
/// The register-level micro-tile is fixed at compile time
/// ([`PANEL_MR`]`×`[`PANEL_NR`]); this configures the cache-level blocks
/// above it and whether the symmetric (upper-triangle + mirror) schedule
/// is used. Tiles are clamped to the problem size, so any positive value
/// is valid — `1` degenerates to unblocked scalar traversal, anything
/// `≥ n` to a single tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTilingConfig {
    /// Rows per cache tile (the `i`-panel height). Must be ≥ 1.
    pub row_tile: usize,
    /// Columns per cache tile (the `j`-panel width). Must be ≥ 1.
    pub col_tile: usize,
    /// Evaluate only upper-triangle tiles and mirror each strictly-upper
    /// entry into both `out[i]` and `out[j]` — halving kernel evaluations.
    /// Disabling this recovers the full `n²` row sweep (useful for
    /// ablations; every output row is then computed independently).
    pub symmetry: bool,
    /// ISA tier for the panel micro-kernels. `None` (the default) defers
    /// to [`Isa::select`] — runtime detection plus the `PLSSVM_FORCE_ISA`
    /// override; `Some` pins the tier programmatically (clamped to what
    /// the host supports before any vector code runs).
    pub isa: Option<Isa>,
}

impl Default for CpuTilingConfig {
    fn default() -> Self {
        Self {
            row_tile: 64,
            col_tile: 64,
            symmetry: true,
            isa: None,
        }
    }
}

impl CpuTilingConfig {
    /// A symmetric configuration with the given cache-tile sizes.
    pub fn new(row_tile: usize, col_tile: usize) -> Self {
        Self {
            row_tile,
            col_tile,
            symmetry: true,
            isa: None,
        }
    }

    /// Toggles the symmetric schedule.
    pub fn with_symmetry(mut self, symmetry: bool) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Pins the panel micro-kernels to a specific ISA tier.
    pub fn with_isa(mut self, isa: Isa) -> Self {
        self.isa = Some(isa);
        self
    }

    /// The ISA tier this configuration dispatches to, after runtime
    /// detection / the environment override and the supported-tier clamp.
    pub fn resolved_isa(&self) -> Isa {
        self.isa
            .map(Isa::clamp_supported)
            .unwrap_or_else(Isa::select)
    }

    /// Problem-size-aware tiles for an `n`-dimensional matvec.
    ///
    /// Both schedules clamp tiles to `n` (tiles beyond the problem change
    /// nothing but bloat the bookkeeping). The non-symmetric row sweep
    /// additionally shrinks `row_tile` on small problems so the row range
    /// splits into at least `MAX_PARTIAL_GROUPS` (64) independent chunks —
    /// without this, small-`n` parallel runs degenerate to a handful of
    /// oversized chunks and lose to the scalar sweep on load imbalance.
    ///
    /// Numerics are unaffected in both cases: the symmetric clamp leaves
    /// the tile schedule literally identical (a tile already never extends
    /// past `n`), and non-symmetric rows accumulate their columns in
    /// strictly increasing `j` order regardless of tiling, so every output
    /// bit is the same.
    pub fn effective_for(&self, n: usize) -> CpuTilingConfig {
        let n = n.max(1);
        let mut eff = *self;
        eff.row_tile = eff.row_tile.min(n);
        eff.col_tile = eff.col_tile.min(n);
        if !eff.symmetry {
            let balanced = n
                .div_ceil(MAX_PARTIAL_GROUPS)
                .next_multiple_of(PANEL_MR)
                .max(PANEL_MR);
            eff.row_tile = eff.row_tile.min(balanced);
        }
        eff
    }

    /// Rejects degenerate (zero-sized) tiles.
    pub fn validate(&self) -> Result<(), SvmError> {
        if self.row_tile == 0 || self.col_tile == 0 {
            return Err(SvmError::Solver(format!(
                "CPU tile sizes must be at least 1, got {}x{}",
                self.row_tile, self.col_tile
            )));
        }
        Ok(())
    }

    /// Kernel evaluations one `K·v` matvec of dimension `n` performs under
    /// this schedule: `n(n+1)/2` with symmetry, `n²` without.
    pub fn matvec_evals(&self, n: usize) -> u128 {
        let n = n as u128;
        if self.symmetry {
            n * (n + 1) / 2
        } else {
            n * n
        }
    }

    /// Number of partial-buffer groups the symmetric parallel schedule
    /// uses for an `n`-dimensional matvec. Depends only on `n` and the
    /// tiling — never on the thread count — so reductions are bitwise
    /// reproducible across thread counts.
    pub(crate) fn partial_groups(&self, n: usize) -> usize {
        n.div_ceil(self.row_tile).clamp(1, MAX_PARTIAL_GROUPS)
    }
}

/// Fills `ra` with up to `h` row slices starting at `start` and returns
/// the active prefix.
#[inline]
fn gather_rows<'a, T: Real>(
    data: &'a DenseMatrix<T>,
    start: usize,
    h: usize,
    buf: &mut [&'a [T]; PANEL_MR],
) -> usize {
    debug_assert!(h <= PANEL_MR);
    for (a, slot) in buf.iter_mut().enumerate().take(h) {
        *slot = data.row(start + a);
    }
    h
}

/// One off-diagonal cache tile `[i0,i1)×[j0,j1)` with `j0 ≥ i1`, evaluated
/// through micro-tiles and mirrored: `out[i] += K_ij·v[j]` and
/// `out[j] += K_ij·v[i]` for every entry.
#[inline(always)]
fn symmetric_off_tile<T: Real>(
    data: &DenseMatrix<T>,
    kernel: &KernelSpec<T>,
    isa: Isa,
    (i0, i1): (usize, usize),
    (j0, j1): (usize, usize),
    v: &[T],
    out: &mut [T],
) {
    let mut ra: [&[T]; PANEL_MR] = [&[]; PANEL_MR];
    let mut rb: [&[T]; PANEL_MR] = [&[]; PANEL_MR];
    let mut i = i0;
    while i < i1 {
        let ih = gather_rows(data, i, (i1 - i).min(PANEL_MR), &mut ra);
        let mut j = j0;
        while j < j1 {
            let jh = gather_rows(data, j, (j1 - j).min(PANEL_NR), &mut rb);
            let panel = kernel_panel(kernel, isa, &ra[..ih], &rb[..jh]);
            for (a, prow) in panel.iter().enumerate().take(ih) {
                let va = v[i + a];
                let mut acc = out[i + a];
                for (b, &k) in prow.iter().enumerate().take(jh) {
                    acc = k.mul_add(v[j + b], acc);
                    out[j + b] = k.mul_add(va, out[j + b]);
                }
                out[i + a] = acc;
            }
            j += jh;
        }
        i += ih;
    }
}

/// The diagonal cache tile `[i0,i1)²`: the diagonal and the strict upper
/// triangle (mirrored). Micro-tiles strictly above the diagonal go through
/// the panel evaluator; the straddling blocks fall back to the scalar
/// triangle.
#[inline(always)]
fn symmetric_diag_tile<T: Real>(
    data: &DenseMatrix<T>,
    kernel: &KernelSpec<T>,
    isa: Isa,
    (i0, i1): (usize, usize),
    v: &[T],
    out: &mut [T],
) {
    let mut i = i0;
    while i < i1 {
        let ih = (i1 - i).min(PANEL_MR);
        // straddling micro-block: diagonal entries plus the triangle above
        for a in 0..ih {
            let row_a = data.row(i + a);
            let kaa = kernel_row(kernel, row_a, row_a);
            out[i + a] = kaa.mul_add(v[i + a], out[i + a]);
            for b in (a + 1)..ih {
                let k = kernel_row(kernel, row_a, data.row(i + b));
                out[i + a] = k.mul_add(v[i + b], out[i + a]);
                out[i + b] = k.mul_add(v[i + a], out[i + b]);
            }
        }
        // complete micro-tiles to the right of the straddling block
        if i + ih < i1 {
            symmetric_off_tile(data, kernel, isa, (i, i + ih), (i + ih, i1), v, out);
        }
        i += ih;
    }
}

tiered! {
    /// Accumulates the symmetric contributions of every tile row `I` with
    /// `I ≡ group (mod groups)` into `out` (which the caller zero-fills or
    /// reduces), on the ISA tier `isa`. `group = 0, groups = 1` is the
    /// complete sequential matvec.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn symmetric_group_matvec<T: Real>(
        isa: Isa,
        data: &DenseMatrix<T>,
        kernel: &KernelSpec<T>,
        cfg: &CpuTilingConfig,
        n: usize,
        v: &[T],
        group: usize,
        groups: usize,
        out: &mut [T],
    ) = symmetric_group_matvec_body;
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn symmetric_group_matvec_body<T: Real>(
    isa: Isa,
    data: &DenseMatrix<T>,
    kernel: &KernelSpec<T>,
    cfg: &CpuTilingConfig,
    n: usize,
    v: &[T],
    group: usize,
    groups: usize,
    out: &mut [T],
) {
    let tile_rows = n.div_ceil(cfg.row_tile);
    let mut ti = group;
    while ti < tile_rows {
        let i0 = ti * cfg.row_tile;
        let i1 = (i0 + cfg.row_tile).min(n);
        symmetric_diag_tile(data, kernel, isa, (i0, i1), v, out);
        let mut j0 = i1;
        while j0 < n {
            let j1 = (j0 + cfg.col_tile).min(n);
            symmetric_off_tile(data, kernel, isa, (i0, i1), (j0, j1), v, out);
            j0 = j1;
        }
        ti += groups;
    }
}

tiered! {
    /// Computes complete output rows `row0..row0+out.len()` of `K·v`
    /// without symmetry (the full `n` columns per row), blocked over
    /// column tiles and register micro-tiles, on the ISA tier `isa`. Rows
    /// are independent, so parallel callers can hand out disjoint `out`
    /// chunks without partial buffers.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn full_rows_matvec<T: Real>(
        isa: Isa,
        data: &DenseMatrix<T>,
        kernel: &KernelSpec<T>,
        cfg: &CpuTilingConfig,
        n: usize,
        v: &[T],
        row0: usize,
        out: &mut [T],
    ) = full_rows_matvec_body;
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn full_rows_matvec_body<T: Real>(
    isa: Isa,
    data: &DenseMatrix<T>,
    kernel: &KernelSpec<T>,
    cfg: &CpuTilingConfig,
    n: usize,
    v: &[T],
    row0: usize,
    out: &mut [T],
) {
    out.fill(T::ZERO);
    let row1 = row0 + out.len();
    let mut ra: [&[T]; PANEL_MR] = [&[]; PANEL_MR];
    let mut rb: [&[T]; PANEL_MR] = [&[]; PANEL_MR];
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + cfg.col_tile).min(n);
        let mut i = row0;
        while i < row1 {
            let ih = gather_rows(data, i, (row1 - i).min(PANEL_MR), &mut ra);
            let mut j = j0;
            while j < j1 {
                let jh = gather_rows(data, j, (j1 - j).min(PANEL_NR), &mut rb);
                let panel = kernel_panel(kernel, isa, &ra[..ih], &rb[..jh]);
                for (a, prow) in panel.iter().enumerate().take(ih) {
                    let mut acc = out[i - row0 + a];
                    for (b, &k) in prow.iter().enumerate().take(jh) {
                        acc = k.mul_add(v[j + b], acc);
                    }
                    out[i - row0 + a] = acc;
                }
                j += jh;
            }
            i += ih;
        }
        j0 = j1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plssvm_data::synthetic::{generate_planes, PlanesConfig};

    fn sample(points: usize, features: usize) -> DenseMatrix<f64> {
        generate_planes(&PlanesConfig::new(points, features, 123))
            .unwrap()
            .x
    }

    fn naive(data: &DenseMatrix<f64>, kernel: &KernelSpec<f64>, n: usize, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; n];
        for (i, slot) in out.iter_mut().enumerate() {
            for (j, &vj) in v.iter().enumerate() {
                *slot += kernel_row(kernel, data.row(i), data.row(j)) * vj;
            }
        }
        out
    }

    fn specs() -> Vec<KernelSpec<f64>> {
        vec![
            KernelSpec::Linear,
            KernelSpec::Polynomial {
                degree: 2,
                gamma: 0.5,
                coef0: 0.25,
            },
            KernelSpec::Rbf { gamma: 0.3 },
            KernelSpec::Sigmoid {
                gamma: 0.2,
                coef0: -0.1,
            },
        ]
    }

    #[test]
    fn symmetric_schedule_matches_naive_for_all_kernels_and_tilings() {
        let data = sample(43, 5);
        let n = 42;
        let v: Vec<f64> = (0..n).map(|i| ((i * 5) as f64 * 0.11).sin()).collect();
        for kernel in specs() {
            let reference = naive(&data, &kernel, n, &v);
            for cfg in [
                CpuTilingConfig::default(),
                CpuTilingConfig::new(1, 1),
                CpuTilingConfig::new(7, 3),
                CpuTilingConfig::new(1024, 1024), // tiles larger than n
            ] {
                let groups = cfg.partial_groups(n);
                let mut out = vec![0.0; n];
                let mut partial = vec![0.0; n];
                for g in 0..groups {
                    partial.fill(0.0);
                    symmetric_group_matvec(
                        cfg.resolved_isa(),
                        &data,
                        &kernel,
                        &cfg,
                        n,
                        &v,
                        g,
                        groups,
                        &mut partial,
                    );
                    for i in 0..n {
                        out[i] += partial[i];
                    }
                }
                for i in 0..n {
                    assert!(
                        (out[i] - reference[i]).abs() < 1e-9,
                        "{kernel:?} {cfg:?} row {i}: {} vs {}",
                        out[i],
                        reference[i]
                    );
                }
            }
        }
    }

    #[test]
    fn full_rows_schedule_matches_naive() {
        let data = sample(30, 6);
        let n = 29;
        let v: Vec<f64> = (0..n).map(|i| 1.0 / (i + 2) as f64).collect();
        for kernel in specs() {
            let reference = naive(&data, &kernel, n, &v);
            let cfg = CpuTilingConfig::new(8, 8).with_symmetry(false);
            // arbitrary row split, including a ragged final chunk
            let mut out = vec![0.0; n];
            for (ci, chunk) in out.chunks_mut(11).enumerate() {
                full_rows_matvec(
                    cfg.resolved_isa(),
                    &data,
                    &kernel,
                    &cfg,
                    n,
                    &v,
                    ci * 11,
                    chunk,
                );
            }
            for i in 0..n {
                assert!(
                    (out[i] - reference[i]).abs() < 1e-9,
                    "{kernel:?} row {i}: {} vs {}",
                    out[i],
                    reference[i]
                );
            }
        }
    }

    /// Deterministic values in `[-1, 1]` that use every mantissa bit.
    fn noisy<T: Real>(len: usize, salt: usize) -> Vec<T> {
        (0..len)
            .map(|i| T::from_f64(((i * 7 + salt * 13) as f64 * 0.618).sin()))
            .collect()
    }

    fn specs_for<T: Real>() -> Vec<KernelSpec<T>> {
        let r = T::from_f64;
        vec![
            KernelSpec::Linear,
            KernelSpec::Polynomial {
                degree: 3,
                gamma: r(0.1),
                coef0: r(0.5),
            },
            KernelSpec::Rbf { gamma: r(0.05) },
            KernelSpec::Sigmoid {
                gamma: r(0.1),
                coef0: r(-0.2),
            },
        ]
    }

    fn assert_same_bits<T: Real>(got: &[T], want: &[T], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_f64().to_bits(), w.to_f64().to_bits(), "{what} row {i}");
        }
    }

    /// Every tier's compiled tile loops give the bits of the plain body
    /// called directly: the straddle blocks, partial panels, ragged tiles
    /// and mirror updates keep their operations under FMA and vector
    /// features.
    #[test]
    fn tiered_matvecs_match_their_plain_bodies_bit_for_bit() {
        fn check<T: Real>() {
            let d = 19;
            for n in [1usize, 3, 5, 37, 67] {
                let data = DenseMatrix::from_vec(n, d, noisy::<T>(n * d, 1));
                let v = noisy::<T>(n, 2);
                let cfg = CpuTilingConfig::new(16, 8);
                let groups = cfg.partial_groups(n);
                for kernel in specs_for::<T>() {
                    for isa in Isa::available() {
                        let what = format!("{kernel:?} {isa} n={n}");
                        for g in 0..groups {
                            let mut tiered = vec![T::ZERO; n];
                            let mut plain = vec![T::ZERO; n];
                            symmetric_group_matvec(
                                isa,
                                &data,
                                &kernel,
                                &cfg,
                                n,
                                &v,
                                g,
                                groups,
                                &mut tiered,
                            );
                            symmetric_group_matvec_body(
                                isa, &data, &kernel, &cfg, n, &v, g, groups, &mut plain,
                            );
                            assert_same_bits(
                                &tiered,
                                &plain,
                                &format!("{what} symmetric group {g}"),
                            );
                        }
                        let mut tiered = vec![T::ZERO; n];
                        let mut plain = vec![T::ZERO; n];
                        for (c, (t, p)) in
                            tiered.chunks_mut(11).zip(plain.chunks_mut(11)).enumerate()
                        {
                            full_rows_matvec(isa, &data, &kernel, &cfg, n, &v, c * 11, t);
                            full_rows_matvec_body(isa, &data, &kernel, &cfg, n, &v, c * 11, p);
                        }
                        assert_same_bits(&tiered, &plain, &format!("{what} full rows"));
                    }
                }
            }
        }
        check::<f32>();
        check::<f64>();
    }

    #[test]
    fn eval_counts_follow_the_schedule() {
        let cfg = CpuTilingConfig::default();
        assert_eq!(cfg.matvec_evals(10), 55);
        assert_eq!(cfg.with_symmetry(false).matvec_evals(10), 100);
        // the acceptance bound: ≤ 0.55× the full sweep from n = 1024 up
        for n in [1024usize, 4096, 16384] {
            let sym = cfg.matvec_evals(n);
            let full = cfg.with_symmetry(false).matvec_evals(n);
            assert!(sym * 100 <= full * 55, "n={n}: {sym} vs {full}");
        }
    }

    #[test]
    fn partial_group_count_is_bounded_and_thread_free() {
        let cfg = CpuTilingConfig::new(4, 4);
        assert_eq!(cfg.partial_groups(3), 1);
        assert_eq!(cfg.partial_groups(17), 5);
        assert_eq!(CpuTilingConfig::new(1, 1).partial_groups(100_000), 64);
    }

    #[test]
    fn every_isa_tier_matches_naive_on_both_schedules() {
        let data = sample(39, 9);
        let n = 38;
        let v: Vec<f64> = (0..n).map(|i| ((i * 3) as f64 * 0.21).cos()).collect();
        for kernel in specs() {
            let reference = naive(&data, &kernel, n, &v);
            for isa in Isa::available() {
                let sym = CpuTilingConfig::new(16, 16).with_isa(isa);
                let mut out = vec![0.0; n];
                symmetric_group_matvec(isa, &data, &kernel, &sym, n, &v, 0, 1, &mut out);
                let nosym = sym.with_symmetry(false);
                let mut rows = vec![0.0; n];
                full_rows_matvec(isa, &data, &kernel, &nosym, n, &v, 0, &mut rows);
                for i in 0..n {
                    assert!(
                        (out[i] - reference[i]).abs() < 1e-9,
                        "{kernel:?} {isa:?} sym row {i}: {} vs {}",
                        out[i],
                        reference[i]
                    );
                    assert!(
                        (rows[i] - reference[i]).abs() < 1e-9,
                        "{kernel:?} {isa:?} nosym row {i}: {} vs {}",
                        rows[i],
                        reference[i]
                    );
                }
            }
        }
    }

    /// Tile auto-selection in the non-symmetric schedule must not change a
    /// single output bit — rows accumulate their columns in strictly
    /// increasing `j` order regardless of tiling.
    #[test]
    fn nosym_output_bits_are_tiling_independent() {
        let data = sample(40, 7);
        let n = 39;
        let v: Vec<f64> = (0..n).map(|i| ((i * 13) as f64 * 0.07).sin()).collect();
        let kernel = KernelSpec::Rbf { gamma: 0.4 };
        let mut reference = vec![0.0; n];
        let base = CpuTilingConfig::new(64, 64).with_symmetry(false);
        full_rows_matvec(
            base.resolved_isa(),
            &data,
            &kernel,
            &base,
            n,
            &v,
            0,
            &mut reference,
        );
        for cfg in [
            base.effective_for(n),
            CpuTilingConfig::new(4, 4).with_symmetry(false),
            CpuTilingConfig::new(7, 128).with_symmetry(false),
        ] {
            let mut out = vec![0.0; n];
            full_rows_matvec(cfg.resolved_isa(), &data, &kernel, &cfg, n, &v, 0, &mut out);
            for i in 0..n {
                assert_eq!(out[i].to_bits(), reference[i].to_bits(), "{cfg:?} row {i}");
            }
        }
    }

    #[test]
    fn effective_tiles_clamp_to_problem_size_and_keep_groups() {
        let cfg = CpuTilingConfig::default();
        // symmetric: pure clamp, schedule invariant
        let eff = cfg.effective_for(10);
        assert_eq!((eff.row_tile, eff.col_tile), (10, 10));
        assert_eq!(eff.partial_groups(10), cfg.partial_groups(10));
        assert_eq!(cfg.effective_for(1000), cfg);
        // non-symmetric: small n splits into many chunks for balance
        let nosym = cfg.with_symmetry(false);
        let eff = nosym.effective_for(1023);
        assert_eq!(eff.row_tile, 16);
        assert!(eff.row_tile % PANEL_MR == 0);
        // large n: unchanged
        assert_eq!(nosym.effective_for(16384).row_tile, 64);
        // never grows a tile the user shrank
        assert_eq!(
            CpuTilingConfig::new(1, 1)
                .with_symmetry(false)
                .effective_for(1023)
                .row_tile,
            1
        );
        assert_eq!(cfg.effective_for(0).row_tile, 1);
    }

    #[test]
    fn zero_tiles_rejected() {
        assert!(CpuTilingConfig::new(0, 4).validate().is_err());
        assert!(CpuTilingConfig::new(4, 0).validate().is_err());
        assert!(CpuTilingConfig::new(1, 1).validate().is_ok());
    }
}
