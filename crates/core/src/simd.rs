//! Explicit SIMD micro-kernels with runtime ISA dispatch.
//!
//! The blocked CPU engine (PR 3) exposes the right *structure* for data
//! parallelism — independent 4×4 FMA accumulator panels — but emits scalar
//! generic Rust, so throughput is bounded by what LLVM auto-vectorizes out
//! of a portable build (without `-C target-cpu` that means scalar FMA
//! libcalls). This module lifts the panel primitives to hand-written
//! vector kernels:
//!
//! | tier     | f32 lanes | f64 lanes | requirement            |
//! |----------|-----------|-----------|------------------------|
//! | `scalar` | 1         | 1         | always available       |
//! | `neon`   | 4         | 2         | aarch64 NEON           |
//! | `avx2`   | 8         | 4         | x86-64 AVX2 + FMA      |
//! | `avx512` | 16        | 8         | x86-64 AVX-512F        |
//!
//! The tier is chosen once at runtime ([`Isa::detect`], cached) from
//! `is_x86_feature_detected!` / `is_aarch64_feature_detected!`, and can be
//! overridden for reproducibility and testing with
//! `PLSSVM_FORCE_ISA={scalar,neon,avx2,avx512}` ([`Isa::select`]). Forcing
//! a tier the host cannot execute clamps *down* to the best supported tier
//! (never up, never UB); the effective tier is reported through telemetry.
//!
//! # Determinism contract
//!
//! * The `scalar` tier routes to the original [`crate::kernel`] code and is
//!   bit-identical to the pre-SIMD engine.
//! * Within a fixed SIMD tier, results are deterministic: each dot product
//!   is one vector FMA chain, reduced lane-by-lane in a fixed order
//!   (lane 0 + lane 1 + …), followed by a scalar `mul_add` tail. Thread
//!   count never changes the summation order.
//! * A full 4×4 panel entry is bitwise identical to the per-pair
//!   [`dot`]/[`dist_sq`] of the same tier (same chain, same reduction), and
//!   for `d <` lane-width every tier degenerates to the scalar chain
//!   exactly.
//! * Different tiers group the FMA chain differently and may differ from
//!   scalar by a few ULP — the same reassociation tolerance the
//!   cross-backend conformance suite already admits.
//!
//! # Where tier dispatch happens
//!
//! The panel primitives above dispatch per call. The loops around them are
//! plain Rust compiled a second and third time, under
//! `#[target_feature(enable = "avx512f")]` and `"avx2,fma"`, by the
//! crate-internal `tiered!` macro, and dispatched once per parallel task:
//!
//! * the matvec tile loops of [`crate::backend::cpu_blocked`], once per
//!   partial group of the symmetric schedule (diagonal straddle blocks,
//!   off-diagonal tiles and their mirror updates) and once per row chunk
//!   of the full-rows schedule;
//! * the prediction loop behind [`crate::svm::kernel_expansion`], once per
//!   query share (predict, `svm-serve`, multi-class and SVR);
//! * the dense Nyström kernels of [`crate::lowrank`], once per call.
//!
//! Compiled for the portable target, every `mul_add` outside the hand
//! vectorized kernels is a call into libm's `fma`; inside a tier it is one
//! FMA instruction. Both round once, and Rust never contracts `a*b + c`,
//! so a tier computes the same bits either way: compiling a loop per tier
//! changes its speed and never its results.

use crate::kernel::{self, Panel, PANEL_MR, PANEL_NR};
use plssvm_data::Real;
use std::any::TypeId;
use std::sync::OnceLock;

/// Environment variable overriding the dispatched ISA tier.
pub const FORCE_ISA_ENV: &str = "PLSSVM_FORCE_ISA";

/// A CPU vector-instruction tier the micro-kernels can target.
///
/// Ordered from narrowest to widest; dispatch clamps an unsupported
/// requested tier down this ordering until it finds a supported one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// Portable scalar code — bit-identical to the pre-SIMD engine.
    Scalar,
    /// aarch64 NEON: 128-bit vectors (f32×4 / f64×2).
    Neon,
    /// x86-64 AVX2 + FMA: 256-bit vectors (f32×8 / f64×4).
    Avx2,
    /// x86-64 AVX-512F: 512-bit vectors (f32×16 / f64×8).
    Avx512,
}

impl Isa {
    /// Canonical lower-case name, matching the `PLSSVM_FORCE_ISA` values.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Neon => "neon",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Parses a tier name (case-insensitive).
    pub fn parse(s: &str) -> Result<Isa, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(Isa::Scalar),
            "neon" => Ok(Isa::Neon),
            "avx2" => Ok(Isa::Avx2),
            "avx512" => Ok(Isa::Avx512),
            other => Err(format!(
                "unknown ISA tier '{other}' (expected one of scalar, neon, avx2, avx512)"
            )),
        }
    }

    /// Whether the running CPU can execute this tier. The feature probes
    /// are cached by the standard library, so this is cheap to call.
    pub fn supported(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "aarch64")]
            Isa::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 | Isa::Avx512 => false,
            #[cfg(not(target_arch = "aarch64"))]
            Isa::Neon => false,
        }
    }

    /// The widest tier this host supports. Detected once and cached.
    pub fn detect() -> Isa {
        static DETECTED: OnceLock<Isa> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            for tier in [Isa::Avx512, Isa::Avx2, Isa::Neon] {
                if tier.supported() {
                    return tier;
                }
            }
            Isa::Scalar
        })
    }

    /// The tier forced via [`FORCE_ISA_ENV`], if any. `Ok(None)` when the
    /// variable is unset or empty; `Err` describes an unparseable value
    /// (callers that can warn should surface it — [`Isa::select`] ignores
    /// it and falls back to detection).
    pub fn forced() -> Result<Option<Isa>, String> {
        match std::env::var(FORCE_ISA_ENV) {
            Ok(v) if v.trim().is_empty() => Ok(None),
            Ok(v) => Isa::parse(&v).map(Some),
            Err(_) => Ok(None),
        }
    }

    /// Clamps this tier down to the nearest supported one (possibly
    /// itself). Never clamps up: forcing `scalar` stays scalar.
    pub fn clamp_supported(self) -> Isa {
        let mut tier = self;
        loop {
            if tier.supported() {
                return tier;
            }
            tier = match tier {
                Isa::Avx512 => Isa::Avx2,
                Isa::Avx2 | Isa::Neon | Isa::Scalar => Isa::Scalar,
            };
        }
    }

    /// The tier dispatch uses: the forced tier (clamped to what the host
    /// supports) when `PLSSVM_FORCE_ISA` holds a valid name, otherwise the
    /// detected best tier.
    pub fn select() -> Isa {
        Isa::select_with_provenance().0
    }

    /// Like [`Isa::select`], additionally reporting whether the choice was
    /// forced through the environment override.
    pub fn select_with_provenance() -> (Isa, bool) {
        match Isa::forced() {
            Ok(Some(tier)) => (tier.clamp_supported(), true),
            _ => (Isa::detect(), false),
        }
    }

    /// Every tier the running host supports, narrowest first.
    pub fn available() -> Vec<Isa> {
        [Isa::Scalar, Isa::Neon, Isa::Avx2, Isa::Avx512]
            .into_iter()
            .filter(|tier| tier.supported())
            .collect()
    }

    /// f32 vector width of this tier.
    pub fn lanes_f32(self) -> usize {
        match self {
            Isa::Scalar => 1,
            Isa::Neon => 4,
            Isa::Avx2 => 8,
            Isa::Avx512 => 16,
        }
    }

    /// f64 vector width of this tier.
    pub fn lanes_f64(self) -> usize {
        match self {
            Isa::Scalar => 1,
            Isa::Neon => 2,
            Isa::Avx2 => 4,
            Isa::Avx512 => 8,
        }
    }

    /// Whether this tier runs explicit vector code (anything above scalar).
    pub fn is_simd(self) -> bool {
        self != Isa::Scalar
    }

    /// Human-readable dispatch description for logs and `--verbose` output,
    /// e.g. `avx2 (f32x8/f64x4, panel 4x4)`.
    pub fn summary(self) -> String {
        format!(
            "{} (f32x{}/f64x{}, panel {}x{})",
            self.name(),
            self.lanes_f32(),
            self.lanes_f64(),
            PANEL_MR,
            PANEL_NR
        )
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Defines a function that runs the plain-Rust body `$body` compiled under
/// `#[target_feature]` for the AVX-512 and AVX2 tiers and calls it directly
/// on every other tier (and on every non-x86 target).
///
/// ```text
/// tiered! {
///     /// docs
///     pub(crate) fn name<T: Real>(isa: Isa, a: &[T]) -> T = name_body;
/// }
/// ```
///
/// The first parameter must be `<ident>: Isa`: dispatch matches on it
/// (clamped to what the host supports) and it is passed on to the body,
/// which can hand it to the panel micro-kernels. A signature whose first
/// parameter is not an `Isa` gets one named `isa` prepended for dispatch
/// alone and not passed on. Bodies should be `#[inline(always)]` so their
/// whole call tree — the tile loops, [`crate::kernel::kernel_panel`] and
/// its epilogue — compiles inside the tier's features, where every
/// `mul_add` is one FMA instruction instead of a libm call.
///
/// Rust never contracts `a*b + c`, and `mul_add` is correctly rounded in
/// hardware and in libm alike, so a tiered body computes the same bits as
/// the plain body on every tier; only the instructions change. Dispatch
/// costs one match, so call a tiered function once per parallel task, not
/// per panel.
macro_rules! tiered {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident $(<$($g:ident: $b:ident),+>)?
            ($isa:ident: Isa $(, $arg:ident: $ty:ty)* $(,)?) $(-> $ret:ty)? = $body:ident;
    ) => {
        $crate::simd::tiered! {
            @emit [$(#[$attr])*] [$vis] $name [$($($g: $b),+)?] $isa
            [$isa: $crate::simd::Isa $(, $arg: $ty)*]
            [$isa: $crate::simd::Isa $(, $arg: $ty)*] $(-> $ret)? = $body
        }
    };
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident $(<$($g:ident: $b:ident),+>)?
            ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:ident;
    ) => {
        $crate::simd::tiered! {
            @emit [$(#[$attr])*] [$vis] $name [$($($g: $b),+)?] isa
            [isa: $crate::simd::Isa $(, $arg: $ty)*]
            [$($arg: $ty),*] $(-> $ret)? = $body
        }
    };
    (
        @emit [$(#[$attr:meta])*] [$vis:vis] $name:ident [$($g:ident: $b:ident),*] $isa:ident
        [$($warg:ident: $wty:ty),*] [$($arg:ident: $ty:ty),*] $(-> $ret:ty)? = $body:ident
    ) => {
        $(#[$attr])*
        $vis fn $name<$($g: $b),*>($($warg: $wty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                /// # Safety
                /// The CPU must support AVX-512F.
                #[allow(clippy::too_many_arguments)]
                #[target_feature(enable = "avx512f")]
                unsafe fn avx512<$($g: $b),*>($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                /// # Safety
                /// The CPU must support AVX2 and FMA.
                #[allow(clippy::too_many_arguments)]
                #[target_feature(enable = "avx2,fma")]
                unsafe fn avx2<$($g: $b),*>($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                match $isa.clamp_supported() {
                    // SAFETY: `clamp_supported` only returns a tier whose
                    // features the running CPU reports.
                    $crate::simd::Isa::Avx512 => return unsafe { avx512($($arg),*) },
                    // SAFETY: as above.
                    $crate::simd::Isa::Avx2 => return unsafe { avx2($($arg),*) },
                    _ => {}
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = $isa;
            $body($($arg),*)
        }
    };
}
pub(crate) use tiered;

#[inline]
fn same<T: 'static, U: 'static>() -> bool {
    TypeId::of::<T>() == TypeId::of::<U>()
}

/// Dispatched scalar product: [`kernel::dot`] on the scalar tier, the
/// tier's vector chain otherwise.
#[inline]
pub fn dot<T: Real>(isa: Isa, a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    let isa = isa.clamp_supported();
    if isa == Isa::Scalar {
        return kernel::dot(a, b);
    }
    simd_pair(isa, a, b, false).unwrap_or_else(|| kernel::dot(a, b))
}

/// Dispatched squared euclidean distance: [`kernel::dist_sq`] on the
/// scalar tier, the tier's vector chain otherwise.
#[inline]
pub fn dist_sq<T: Real>(isa: Isa, a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    let isa = isa.clamp_supported();
    if isa == Isa::Scalar {
        return kernel::dist_sq(a, b);
    }
    simd_pair(isa, a, b, true).unwrap_or_else(|| kernel::dist_sq(a, b))
}

/// Dispatched panel of inner products — the SIMD form of
/// [`kernel::panel_dot`]. Full tiles run one vector FMA chain per pair;
/// partial tiles fall back to per-pair [`dot`]s of the same tier, so every
/// produced entry is bitwise identical to the per-pair evaluation.
#[inline]
pub fn panel_dot<T: Real>(isa: Isa, ra: &[&[T]], rb: &[&[T]]) -> Panel<T> {
    panel_impl(isa, ra, rb, false)
}

/// Dispatched panel of squared distances — the SIMD form of
/// [`kernel::panel_dist_sq`].
#[inline]
pub fn panel_dist_sq<T: Real>(isa: Isa, ra: &[&[T]], rb: &[&[T]]) -> Panel<T> {
    panel_impl(isa, ra, rb, true)
}

#[inline]
fn panel_impl<T: Real>(isa: Isa, ra: &[&[T]], rb: &[&[T]], dist: bool) -> Panel<T> {
    debug_assert!(ra.len() <= PANEL_MR && rb.len() <= PANEL_NR);
    let isa = isa.clamp_supported();
    if isa == Isa::Scalar {
        return if dist {
            kernel::panel_dist_sq(ra, rb)
        } else {
            kernel::panel_dot(ra, rb)
        };
    }
    if ra.len() == PANEL_MR && rb.len() == PANEL_NR {
        let d = ra[0].len();
        let a = [&ra[0][..d], &ra[1][..d], &ra[2][..d], &ra[3][..d]];
        let b = [&rb[0][..d], &rb[1][..d], &rb[2][..d], &rb[3][..d]];
        let mut out = [[T::ZERO; PANEL_NR]; PANEL_MR];
        if panel_full(isa, &a, &b, &mut out, dist) {
            return out;
        }
        // Unreachable on supported SIMD hosts; kept as a safe fallback for
        // exotic `Real` types or architectures without kernels.
        return if dist {
            kernel::panel_dist_sq(ra, rb)
        } else {
            kernel::panel_dot(ra, rb)
        };
    }
    let mut acc = [[T::ZERO; PANEL_NR]; PANEL_MR];
    for (acc_row, a) in acc.iter_mut().zip(ra) {
        for (slot, b) in acc_row.iter_mut().zip(rb) {
            *slot = if dist {
                dist_sq(isa, a, b)
            } else {
                dot(isa, a, b)
            };
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// x86-64: AVX2+FMA and AVX-512F kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::kernel::{PANEL_MR, PANEL_NR};

    macro_rules! x86_kernels {
        ($modname:ident, $feat:literal, $t:ty, $w:expr, $v:ty,
         $setzero:ident, $loadu:ident, $storeu:ident, $fmadd:ident, $sub:ident) => {
            pub(super) mod $modname {
                #[allow(unused_imports)]
                use super::{PANEL_MR, PANEL_NR};
                use core::arch::x86_64::*;

                /// # Safety
                /// The CPU must support the tier's target features and
                /// `a.len() == b.len()` must hold.
                #[target_feature(enable = $feat)]
                pub unsafe fn dot(a: &[$t], b: &[$t]) -> $t {
                    debug_assert_eq!(a.len(), b.len());
                    let d = a.len();
                    let chunks = d / $w;
                    let mut acc = $setzero();
                    for c in 0..chunks {
                        let va = $loadu(a.as_ptr().add(c * $w));
                        let vb = $loadu(b.as_ptr().add(c * $w));
                        acc = $fmadd(va, vb, acc);
                    }
                    let mut lanes = [0.0 as $t; $w];
                    $storeu(lanes.as_mut_ptr(), acc);
                    let mut s = lanes[0];
                    for l in &lanes[1..] {
                        s += *l;
                    }
                    for f in (chunks * $w)..d {
                        s = a[f].mul_add(b[f], s);
                    }
                    s
                }

                /// # Safety
                /// Same contract as [`dot`].
                #[target_feature(enable = $feat)]
                pub unsafe fn dist_sq(a: &[$t], b: &[$t]) -> $t {
                    debug_assert_eq!(a.len(), b.len());
                    let d = a.len();
                    let chunks = d / $w;
                    let mut acc = $setzero();
                    for c in 0..chunks {
                        let va = $loadu(a.as_ptr().add(c * $w));
                        let vb = $loadu(b.as_ptr().add(c * $w));
                        let diff = $sub(va, vb);
                        acc = $fmadd(diff, diff, acc);
                    }
                    let mut lanes = [0.0 as $t; $w];
                    $storeu(lanes.as_mut_ptr(), acc);
                    let mut s = lanes[0];
                    for l in &lanes[1..] {
                        s += *l;
                    }
                    for f in (chunks * $w)..d {
                        let diff = a[f] - b[f];
                        s = diff.mul_add(diff, s);
                    }
                    s
                }

                /// # Safety
                /// Feature support as for [`dot`]; all rows of `a` and `b`
                /// must be at least `a[0].len()` long (the dispatcher
                /// re-slices them).
                #[target_feature(enable = $feat)]
                pub unsafe fn panel_dot(
                    a: &[&[$t]; PANEL_MR],
                    b: &[&[$t]; PANEL_NR],
                    out: &mut [[$t; PANEL_NR]; PANEL_MR],
                ) {
                    let d = a[0].len();
                    let chunks = d / $w;
                    let mut acc = [[$setzero(); PANEL_NR]; PANEL_MR];
                    for c in 0..chunks {
                        let o = c * $w;
                        let mut vb = [$setzero(); PANEL_NR];
                        for (slot, rb) in vb.iter_mut().zip(b) {
                            *slot = $loadu(rb.as_ptr().add(o));
                        }
                        for (acc_row, ra) in acc.iter_mut().zip(a) {
                            let va = $loadu(ra.as_ptr().add(o));
                            for (slot, &vbj) in acc_row.iter_mut().zip(&vb) {
                                *slot = $fmadd(va, vbj, *slot);
                            }
                        }
                    }
                    for ((acc_row, out_row), ra) in acc.iter().zip(out.iter_mut()).zip(a) {
                        for ((accv, slot), rb) in acc_row.iter().zip(out_row.iter_mut()).zip(b) {
                            let mut lanes = [0.0 as $t; $w];
                            $storeu(lanes.as_mut_ptr(), *accv);
                            let mut s = lanes[0];
                            for l in &lanes[1..] {
                                s += *l;
                            }
                            for f in (chunks * $w)..d {
                                s = ra[f].mul_add(rb[f], s);
                            }
                            *slot = s;
                        }
                    }
                }

                /// # Safety
                /// Same contract as [`panel_dot`].
                #[target_feature(enable = $feat)]
                pub unsafe fn panel_dist_sq(
                    a: &[&[$t]; PANEL_MR],
                    b: &[&[$t]; PANEL_NR],
                    out: &mut [[$t; PANEL_NR]; PANEL_MR],
                ) {
                    let d = a[0].len();
                    let chunks = d / $w;
                    let mut acc = [[$setzero(); PANEL_NR]; PANEL_MR];
                    for c in 0..chunks {
                        let o = c * $w;
                        let mut vb = [$setzero(); PANEL_NR];
                        for (slot, rb) in vb.iter_mut().zip(b) {
                            *slot = $loadu(rb.as_ptr().add(o));
                        }
                        for (acc_row, ra) in acc.iter_mut().zip(a) {
                            let va = $loadu(ra.as_ptr().add(o));
                            for (slot, &vbj) in acc_row.iter_mut().zip(&vb) {
                                let diff = $sub(va, vbj);
                                *slot = $fmadd(diff, diff, *slot);
                            }
                        }
                    }
                    for ((acc_row, out_row), ra) in acc.iter().zip(out.iter_mut()).zip(a) {
                        for ((accv, slot), rb) in acc_row.iter().zip(out_row.iter_mut()).zip(b) {
                            let mut lanes = [0.0 as $t; $w];
                            $storeu(lanes.as_mut_ptr(), *accv);
                            let mut s = lanes[0];
                            for l in &lanes[1..] {
                                s += *l;
                            }
                            for f in (chunks * $w)..d {
                                let diff = ra[f] - rb[f];
                                s = diff.mul_add(diff, s);
                            }
                            *slot = s;
                        }
                    }
                }
            }
        };
    }

    x86_kernels!(
        avx2_f32,
        "avx2,fma",
        f32,
        8,
        __m256,
        _mm256_setzero_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_fmadd_ps,
        _mm256_sub_ps
    );
    x86_kernels!(
        avx2_f64,
        "avx2,fma",
        f64,
        4,
        __m256d,
        _mm256_setzero_pd,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_fmadd_pd,
        _mm256_sub_pd
    );
    x86_kernels!(
        avx512_f32,
        "avx512f",
        f32,
        16,
        __m512,
        _mm512_setzero_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_fmadd_ps,
        _mm512_sub_ps
    );
    x86_kernels!(
        avx512_f64,
        "avx512f",
        f64,
        8,
        __m512d,
        _mm512_setzero_pd,
        _mm512_loadu_pd,
        _mm512_storeu_pd,
        _mm512_fmadd_pd,
        _mm512_sub_pd
    );
}

// ---------------------------------------------------------------------------
// aarch64: NEON kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use crate::kernel::{PANEL_MR, PANEL_NR};

    macro_rules! neon_kernels {
        ($modname:ident, $t:ty, $w:expr, $v:ty,
         $dup:ident, $loadu:ident, $storeu:ident, $fma:ident, $sub:ident) => {
            pub(super) mod $modname {
                #[allow(unused_imports)]
                use super::{PANEL_MR, PANEL_NR};
                use core::arch::aarch64::*;

                /// # Safety
                /// The CPU must support NEON and `a.len() == b.len()`.
                #[target_feature(enable = "neon")]
                pub unsafe fn dot(a: &[$t], b: &[$t]) -> $t {
                    debug_assert_eq!(a.len(), b.len());
                    let d = a.len();
                    let chunks = d / $w;
                    let mut acc = $dup(0.0);
                    for c in 0..chunks {
                        let va = $loadu(a.as_ptr().add(c * $w));
                        let vb = $loadu(b.as_ptr().add(c * $w));
                        acc = $fma(acc, va, vb);
                    }
                    let mut lanes = [0.0 as $t; $w];
                    $storeu(lanes.as_mut_ptr(), acc);
                    let mut s = lanes[0];
                    for l in &lanes[1..] {
                        s += *l;
                    }
                    for f in (chunks * $w)..d {
                        s = a[f].mul_add(b[f], s);
                    }
                    s
                }

                /// # Safety
                /// Same contract as [`dot`].
                #[target_feature(enable = "neon")]
                pub unsafe fn dist_sq(a: &[$t], b: &[$t]) -> $t {
                    debug_assert_eq!(a.len(), b.len());
                    let d = a.len();
                    let chunks = d / $w;
                    let mut acc = $dup(0.0);
                    for c in 0..chunks {
                        let va = $loadu(a.as_ptr().add(c * $w));
                        let vb = $loadu(b.as_ptr().add(c * $w));
                        let diff = $sub(va, vb);
                        acc = $fma(acc, diff, diff);
                    }
                    let mut lanes = [0.0 as $t; $w];
                    $storeu(lanes.as_mut_ptr(), acc);
                    let mut s = lanes[0];
                    for l in &lanes[1..] {
                        s += *l;
                    }
                    for f in (chunks * $w)..d {
                        let diff = a[f] - b[f];
                        s = diff.mul_add(diff, s);
                    }
                    s
                }

                /// # Safety
                /// NEON support; all rows at least `a[0].len()` long.
                #[target_feature(enable = "neon")]
                pub unsafe fn panel_dot(
                    a: &[&[$t]; PANEL_MR],
                    b: &[&[$t]; PANEL_NR],
                    out: &mut [[$t; PANEL_NR]; PANEL_MR],
                ) {
                    let d = a[0].len();
                    let chunks = d / $w;
                    let mut acc = [[$dup(0.0); PANEL_NR]; PANEL_MR];
                    for c in 0..chunks {
                        let o = c * $w;
                        let mut vb = [$dup(0.0); PANEL_NR];
                        for (slot, rb) in vb.iter_mut().zip(b) {
                            *slot = $loadu(rb.as_ptr().add(o));
                        }
                        for (acc_row, ra) in acc.iter_mut().zip(a) {
                            let va = $loadu(ra.as_ptr().add(o));
                            for (slot, &vbj) in acc_row.iter_mut().zip(&vb) {
                                *slot = $fma(*slot, va, vbj);
                            }
                        }
                    }
                    for ((acc_row, out_row), ra) in acc.iter().zip(out.iter_mut()).zip(a) {
                        for ((accv, slot), rb) in acc_row.iter().zip(out_row.iter_mut()).zip(b) {
                            let mut lanes = [0.0 as $t; $w];
                            $storeu(lanes.as_mut_ptr(), *accv);
                            let mut s = lanes[0];
                            for l in &lanes[1..] {
                                s += *l;
                            }
                            for f in (chunks * $w)..d {
                                s = ra[f].mul_add(rb[f], s);
                            }
                            *slot = s;
                        }
                    }
                }

                /// # Safety
                /// Same contract as [`panel_dot`].
                #[target_feature(enable = "neon")]
                pub unsafe fn panel_dist_sq(
                    a: &[&[$t]; PANEL_MR],
                    b: &[&[$t]; PANEL_NR],
                    out: &mut [[$t; PANEL_NR]; PANEL_MR],
                ) {
                    let d = a[0].len();
                    let chunks = d / $w;
                    let mut acc = [[$dup(0.0); PANEL_NR]; PANEL_MR];
                    for c in 0..chunks {
                        let o = c * $w;
                        let mut vb = [$dup(0.0); PANEL_NR];
                        for (slot, rb) in vb.iter_mut().zip(b) {
                            *slot = $loadu(rb.as_ptr().add(o));
                        }
                        for (acc_row, ra) in acc.iter_mut().zip(a) {
                            let va = $loadu(ra.as_ptr().add(o));
                            for (slot, &vbj) in acc_row.iter_mut().zip(&vb) {
                                let diff = $sub(va, vbj);
                                *slot = $fma(*slot, diff, diff);
                            }
                        }
                    }
                    for ((acc_row, out_row), ra) in acc.iter().zip(out.iter_mut()).zip(a) {
                        for ((accv, slot), rb) in acc_row.iter().zip(out_row.iter_mut()).zip(b) {
                            let mut lanes = [0.0 as $t; $w];
                            $storeu(lanes.as_mut_ptr(), *accv);
                            let mut s = lanes[0];
                            for l in &lanes[1..] {
                                s += *l;
                            }
                            for f in (chunks * $w)..d {
                                let diff = ra[f] - rb[f];
                                s = diff.mul_add(diff, s);
                            }
                            *slot = s;
                        }
                    }
                }
            }
        };
    }

    neon_kernels!(
        neon_f32,
        f32,
        4,
        float32x4_t,
        vdupq_n_f32,
        vld1q_f32,
        vst1q_f32,
        vfmaq_f32,
        vsubq_f32
    );
    neon_kernels!(
        neon_f64,
        f64,
        2,
        float64x2_t,
        vdupq_n_f64,
        vld1q_f64,
        vst1q_f64,
        vfmaq_f64,
        vsubq_f64
    );
}

// ---------------------------------------------------------------------------
// Type-erased dispatch glue
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[inline]
fn simd_pair<T: Real>(isa: Isa, a: &[T], b: &[T], dist: bool) -> Option<T> {
    macro_rules! arm {
        ($m:ident, $t:ty) => {{
            assert!(same::<T, $t>());
            // SAFETY: T == $t (checked above), so the slices reinterpret to
            // the identical layout; the tier was clamped to a supported one
            // before dispatch, so the target features are available.
            let ca: &[$t] = unsafe { core::slice::from_raw_parts(a.as_ptr().cast(), a.len()) };
            let cb: &[$t] = unsafe { core::slice::from_raw_parts(b.as_ptr().cast(), b.len()) };
            let r = if dist {
                unsafe { x86::$m::dist_sq(ca, cb) }
            } else {
                unsafe { x86::$m::dot(ca, cb) }
            };
            Some(unsafe { core::mem::transmute_copy::<$t, T>(&r) })
        }};
    }
    match isa {
        Isa::Avx2 if same::<T, f64>() => arm!(avx2_f64, f64),
        Isa::Avx2 if same::<T, f32>() => arm!(avx2_f32, f32),
        Isa::Avx512 if same::<T, f64>() => arm!(avx512_f64, f64),
        Isa::Avx512 if same::<T, f32>() => arm!(avx512_f32, f32),
        _ => None,
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn panel_full<T: Real>(
    isa: Isa,
    a: &[&[T]; PANEL_MR],
    b: &[&[T]; PANEL_NR],
    out: &mut Panel<T>,
    dist: bool,
) -> bool {
    macro_rules! arm {
        ($m:ident, $t:ty) => {{
            assert!(same::<T, $t>());
            // SAFETY: T == $t, so the row arrays and the output panel
            // reinterpret to the identical layout; feature support is
            // guaranteed by the pre-dispatch clamp.
            let ca = unsafe { &*(a as *const [&[T]; PANEL_MR] as *const [&[$t]; PANEL_MR]) };
            let cb = unsafe { &*(b as *const [&[T]; PANEL_NR] as *const [&[$t]; PANEL_NR]) };
            let co = unsafe { &mut *(out as *mut Panel<T> as *mut [[$t; PANEL_NR]; PANEL_MR]) };
            if dist {
                unsafe { x86::$m::panel_dist_sq(ca, cb, co) }
            } else {
                unsafe { x86::$m::panel_dot(ca, cb, co) }
            }
            true
        }};
    }
    match isa {
        Isa::Avx2 if same::<T, f64>() => arm!(avx2_f64, f64),
        Isa::Avx2 if same::<T, f32>() => arm!(avx2_f32, f32),
        Isa::Avx512 if same::<T, f64>() => arm!(avx512_f64, f64),
        Isa::Avx512 if same::<T, f32>() => arm!(avx512_f32, f32),
        _ => false,
    }
}

#[cfg(target_arch = "aarch64")]
#[inline]
fn simd_pair<T: Real>(isa: Isa, a: &[T], b: &[T], dist: bool) -> Option<T> {
    macro_rules! arm {
        ($m:ident, $t:ty) => {{
            assert!(same::<T, $t>());
            // SAFETY: T == $t (checked above); NEON support guaranteed by
            // the pre-dispatch clamp.
            let ca: &[$t] = unsafe { core::slice::from_raw_parts(a.as_ptr().cast(), a.len()) };
            let cb: &[$t] = unsafe { core::slice::from_raw_parts(b.as_ptr().cast(), b.len()) };
            let r = if dist {
                unsafe { neon::$m::dist_sq(ca, cb) }
            } else {
                unsafe { neon::$m::dot(ca, cb) }
            };
            Some(unsafe { core::mem::transmute_copy::<$t, T>(&r) })
        }};
    }
    match isa {
        Isa::Neon if same::<T, f64>() => arm!(neon_f64, f64),
        Isa::Neon if same::<T, f32>() => arm!(neon_f32, f32),
        _ => None,
    }
}

#[cfg(target_arch = "aarch64")]
#[inline]
fn panel_full<T: Real>(
    isa: Isa,
    a: &[&[T]; PANEL_MR],
    b: &[&[T]; PANEL_NR],
    out: &mut Panel<T>,
    dist: bool,
) -> bool {
    macro_rules! arm {
        ($m:ident, $t:ty) => {{
            assert!(same::<T, $t>());
            // SAFETY: T == $t; NEON support guaranteed by the clamp.
            let ca = unsafe { &*(a as *const [&[T]; PANEL_MR] as *const [&[$t]; PANEL_MR]) };
            let cb = unsafe { &*(b as *const [&[T]; PANEL_NR] as *const [&[$t]; PANEL_NR]) };
            let co = unsafe { &mut *(out as *mut Panel<T> as *mut [[$t; PANEL_NR]; PANEL_MR]) };
            if dist {
                unsafe { neon::$m::panel_dist_sq(ca, cb, co) }
            } else {
                unsafe { neon::$m::panel_dot(ca, cb, co) }
            }
            true
        }};
    }
    match isa {
        Isa::Neon if same::<T, f64>() => arm!(neon_f64, f64),
        Isa::Neon if same::<T, f32>() => arm!(neon_f32, f32),
        _ => false,
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
#[inline]
fn simd_pair<T: Real>(_isa: Isa, _a: &[T], _b: &[T], _dist: bool) -> Option<T> {
    None
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
#[inline]
fn panel_full<T: Real>(
    _isa: Isa,
    _a: &[&[T]; PANEL_MR],
    _b: &[&[T]; PANEL_NR],
    _out: &mut Panel<T>,
    _dist: bool,
) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random row (LCG over a fixed modulus, values in
    /// roughly [-1.6, 1.6]).
    fn row<T: Real>(d: usize, salt: u64) -> Vec<T> {
        (0..d)
            .map(|f| T::from_f64((((f as u64 * 37 + salt * 101 + 13) % 33) as f64 - 16.0) / 10.0))
            .collect()
    }

    fn rows<T: Real>(n: usize, d: usize, salt: u64) -> Vec<Vec<T>> {
        (0..n).map(|r| row(d, salt + 7 * r as u64)).collect()
    }

    /// Lengths around every tier's lane boundary plus awkward primes.
    fn adversarial_lengths() -> Vec<usize> {
        let mut lens = vec![0usize, 1, 97];
        for w in [2usize, 4, 8, 16] {
            lens.extend([w - 1, w, w + 1]);
        }
        lens.sort_unstable();
        lens.dedup();
        lens
    }

    #[test]
    fn parse_roundtrips_and_rejects_garbage() {
        for tier in [Isa::Scalar, Isa::Neon, Isa::Avx2, Isa::Avx512] {
            assert_eq!(Isa::parse(tier.name()).unwrap(), tier);
            assert_eq!(Isa::parse(&tier.name().to_uppercase()).unwrap(), tier);
        }
        assert!(Isa::parse("sse9").is_err());
        assert!(Isa::parse("").is_err());
    }

    #[test]
    fn clamp_never_selects_unsupported_tier() {
        for tier in [Isa::Scalar, Isa::Neon, Isa::Avx2, Isa::Avx512] {
            assert!(tier.clamp_supported().supported(), "{tier:?}");
        }
        assert_eq!(Isa::Scalar.clamp_supported(), Isa::Scalar);
    }

    #[test]
    fn detect_is_supported_and_stable() {
        let first = Isa::detect();
        assert!(first.supported());
        assert_eq!(Isa::detect(), first);
        assert!(Isa::available().contains(&first));
    }

    #[test]
    fn scalar_tier_is_bit_identical_to_kernel_module() {
        for d in adversarial_lengths() {
            let a: Vec<f64> = row(d, 1);
            let b: Vec<f64> = row(d, 2);
            assert_eq!(
                dot(Isa::Scalar, &a, &b).to_bits(),
                kernel::dot(&a, &b).to_bits()
            );
            assert_eq!(
                dist_sq(Isa::Scalar, &a, &b).to_bits(),
                kernel::dist_sq(&a, &b).to_bits()
            );
        }
        let ra_owned = rows::<f64>(4, 11, 3);
        let rb_owned = rows::<f64>(4, 11, 40);
        let ra: Vec<&[f64]> = ra_owned.iter().map(|r| r.as_slice()).collect();
        let rb: Vec<&[f64]> = rb_owned.iter().map(|r| r.as_slice()).collect();
        let p = panel_dot(Isa::Scalar, &ra, &rb);
        let q = kernel::panel_dot(&ra, &rb);
        assert_eq!(format!("{p:?}"), format!("{q:?}"));
    }

    fn assert_tier_matches_scalar<T: Real>(isa: Isa) {
        for d in adversarial_lengths() {
            let a: Vec<T> = row(d, 5);
            let b: Vec<T> = row(d, 9);
            // Reassociation error is bounded by a few ULP of the sum of
            // absolute terms (not of the possibly-cancelled result).
            let bound = |terms: T| T::EPSILON * T::from_usize(4) * T::from_usize(d.max(1)) * terms;
            let (sd, vd) = (kernel::dot(&a, &b), dot(isa, &a, &b));
            let dot_terms = a
                .iter()
                .zip(&b)
                .fold(T::ZERO, |s, (&x, &y)| s + (x * y).abs());
            assert!(
                (sd - vd).abs() <= bound(dot_terms),
                "{isa:?} dot d={d}: {} vs {}",
                sd.to_f64(),
                vd.to_f64()
            );
            let (sq, vq) = (kernel::dist_sq(&a, &b), dist_sq(isa, &a, &b));
            assert!(
                (sq - vq).abs() <= bound(sq.max(T::ONE)),
                "{isa:?} dist_sq d={d}: {} vs {}",
                sq.to_f64(),
                vq.to_f64()
            );
            // below one vector: the SIMD path is the scalar tail chain, so
            // agreement must be exact
            if d < isa.lanes_f32().min(isa.lanes_f64()) {
                assert_eq!(sd.to_f64().to_bits(), vd.to_f64().to_bits());
            }
        }
    }

    #[test]
    fn every_available_tier_matches_scalar_on_adversarial_lengths() {
        for isa in Isa::available() {
            assert_tier_matches_scalar::<f32>(isa);
            assert_tier_matches_scalar::<f64>(isa);
        }
    }

    /// A full panel entry must be bitwise identical to the per-pair dot of
    /// the same tier: identical FMA chain, identical fixed-order reduction.
    #[test]
    fn full_panel_entries_bitwise_match_per_pair_evaluation() {
        for isa in Isa::available() {
            for d in adversarial_lengths() {
                let ra_owned = rows::<f64>(PANEL_MR, d, 21);
                let rb_owned = rows::<f64>(PANEL_NR, d, 77);
                let ra: Vec<&[f64]> = ra_owned.iter().map(|r| r.as_slice()).collect();
                let rb: Vec<&[f64]> = rb_owned.iter().map(|r| r.as_slice()).collect();
                let pd = panel_dot(isa, &ra, &rb);
                let pq = panel_dist_sq(isa, &ra, &rb);
                for (i, a) in ra.iter().enumerate() {
                    for (j, b) in rb.iter().enumerate() {
                        assert_eq!(
                            pd[i][j].to_bits(),
                            dot(isa, a, b).to_bits(),
                            "{isa:?} dot d={d} ({i},{j})"
                        );
                        assert_eq!(
                            pq[i][j].to_bits(),
                            dist_sq(isa, a, b).to_bits(),
                            "{isa:?} dist d={d} ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partial_panels_match_per_pair_evaluation() {
        for isa in Isa::available() {
            let ra_owned = rows::<f32>(PANEL_MR, 19, 4);
            let rb_owned = rows::<f32>(PANEL_NR, 19, 8);
            let ra: Vec<&[f32]> = ra_owned.iter().map(|r| r.as_slice()).collect();
            let rb: Vec<&[f32]> = rb_owned.iter().map(|r| r.as_slice()).collect();
            for mh in 1..PANEL_MR {
                for nh in 1..=PANEL_NR {
                    let p = panel_dot(isa, &ra[..mh], &rb[..nh]);
                    for (i, a) in ra[..mh].iter().enumerate() {
                        for (j, b) in rb[..nh].iter().enumerate() {
                            assert_eq!(p[i][j].to_bits(), dot(isa, a, b).to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn summary_mentions_lanes_and_panel() {
        let s = Isa::Avx2.summary();
        assert!(
            s.contains("avx2") && s.contains("f32x8") && s.contains("4x4"),
            "{s}"
        );
    }
}
