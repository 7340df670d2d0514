//! Runtime SIMD feature detection and tier dispatch for every
//! hand-dispatched kernel in the workspace.
//!
//! Before this module existed, each accelerated kernel carried its own
//! ad-hoc `is_x86_feature_detected!` site (`gemm`, the Quest page-score
//! bound in `spec_kvcache`). This registry centralizes that: feature
//! detection runs **once per process**, every kernel consults the same
//! [`active_tier`], and the whole stack can be forced onto a lower tier
//! for testing — so the scalar code paths stay exercised on AVX2/AVX-512
//! machines.
//!
//! # Tiers
//!
//! [`SimdTier`] orders the supported instruction-set tiers:
//! `Scalar < Neon < Avx2 < Avx512`. Exactly one tier is *active* at any
//! moment, resolved in priority order:
//!
//! 1. a thread-local [`with_tier`] override (used by the equivalence
//!    property tests to sweep every available tier in one process),
//! 2. the `SPEC_SIMD` environment variable (`scalar`, `neon`, `avx2`,
//!    `avx512`; parsed once, case-insensitive; garbage falls through),
//! 3. the hardware's [`detected_tier`].
//!
//! Requests are always **clamped down** to the detected tier — forcing
//! `SPEC_SIMD=avx512` on an AVX2-only part runs AVX2, and forcing a tier
//! the architecture does not have at all (e.g. `neon` on x86) falls back
//! to the best supported tier at or below it, ultimately scalar. It is
//! therefore impossible to select a tier the CPU cannot execute.
//!
//! # The determinism contract
//!
//! Every dispatched kernel in the workspace has **one shared arithmetic**:
//! wider registers change how many lanes one instruction covers, never
//! the sequence of floating-point operations each output element
//! receives. All tiers are therefore bit-for-bit identical to the
//! retained scalar `*_reference` implementations, which the
//! `simd_dispatch` property suite pins across every available tier.
//!
//! Almost every kernel gets that by compiling one shared *body* per tier
//! (see [`dispatch_kernel!`](crate::dispatch_kernel)) and leaving the
//! data movement to the compiler. One does not: `ops::indexed_dots`' AVX-512
//! tier, for key rows a multiple of 16 wide, moves the listed rows into
//! its lanes with explicit `core::arch` shuffles (a 16x16 register
//! transpose), because the shared body's staging — each key element
//! stored into its lane of a tile — compiles to two scatters a row there,
//! ~4/5 of the decode step's QK. Its multiplies and adds are the shared
//! body's, one lane per listed row, in the same order, so it returns the
//! same bits; the shared body is what every other tier and width runs.

use std::cell::Cell;
use std::sync::OnceLock;

/// An instruction-set dispatch tier, ordered from narrowest to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdTier {
    /// Portable scalar code — always available, the reference tier.
    Scalar,
    /// AArch64 Advanced SIMD (128-bit).
    Neon,
    /// x86 AVX2 (256-bit).
    Avx2,
    /// x86 AVX-512F (512-bit).
    Avx512,
}

impl SimdTier {
    /// The canonical lower-case name (`scalar`, `neon`, `avx2`,
    /// `avx512`) — what `SPEC_SIMD` accepts and diagnostics print.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Neon => "neon",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }

    /// Parses a tier name as accepted by `SPEC_SIMD` (case-insensitive,
    /// surrounding whitespace ignored). `avx512f` is accepted as an
    /// alias for `avx512`.
    pub fn parse(s: &str) -> Option<SimdTier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdTier::Scalar),
            "neon" => Some(SimdTier::Neon),
            "avx2" => Some(SimdTier::Avx2),
            "avx512" | "avx512f" => Some(SimdTier::Avx512),
            _ => None,
        }
    }
}

impl std::fmt::Display for SimdTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

thread_local! {
    /// Per-thread override installed by [`with_tier`]; `None` = unset.
    static TIER_OVERRIDE: Cell<Option<SimdTier>> = const { Cell::new(None) };
}

/// The widest tier the running CPU supports (detected once per process;
/// `Scalar` on architectures with no accelerated variant).
pub fn detected_tier() -> SimdTier {
    static DETECTED: OnceLock<SimdTier> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return SimdTier::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdTier::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return SimdTier::Neon;
            }
        }
        SimdTier::Scalar
    })
}

/// `SPEC_SIMD`, parsed once per process.
fn env_tier() -> Option<SimdTier> {
    static ENV: OnceLock<Option<SimdTier>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("SPEC_SIMD")
            .ok()
            .and_then(|v| SimdTier::parse(&v))
    })
}

/// Clamps a requested tier to the best tier this CPU can actually
/// execute at or below it (`Scalar` in the worst case). This is what
/// makes every tier value safe to hand to a dispatched kernel, wherever
/// it came from.
pub fn clamp(requested: SimdTier) -> SimdTier {
    available_tiers()
        .iter()
        .rev()
        .copied()
        .find(|&t| t <= requested)
        .unwrap_or(SimdTier::Scalar)
}

/// The tiers this CPU can execute, ascending (always starts with
/// [`SimdTier::Scalar`]). The equivalence property tests sweep this
/// list, forcing each entry via [`with_tier`].
pub fn available_tiers() -> &'static [SimdTier] {
    static AVAILABLE: OnceLock<Vec<SimdTier>> = OnceLock::new();
    AVAILABLE.get_or_init(|| {
        let mut out = vec![SimdTier::Scalar];
        let detected = detected_tier();
        #[cfg(target_arch = "aarch64")]
        if detected >= SimdTier::Neon {
            out.push(SimdTier::Neon);
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if detected >= SimdTier::Avx2 {
                out.push(SimdTier::Avx2);
            }
            if detected >= SimdTier::Avx512 {
                out.push(SimdTier::Avx512);
            }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64", target_arch = "aarch64")))]
        let _ = detected;
        out
    })
}

/// The tier dispatched kernels run at right now: the [`with_tier`]
/// override, else `SPEC_SIMD`, else the detected hardware maximum —
/// always clamped to what the CPU supports.
pub fn active_tier() -> SimdTier {
    if let Some(t) = TIER_OVERRIDE.with(Cell::get) {
        return clamp(t);
    }
    match env_tier() {
        Some(t) => clamp(t),
        None => detected_tier(),
    }
}

/// Runs `f` with [`active_tier`] pinned to (the clamp of) `tier` on the
/// current thread. The override is thread-local, so concurrent tests
/// cannot race on it; the previous value is restored on exit, including
/// on panic.
pub fn with_tier<R>(tier: SimdTier, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<SimdTier>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TIER_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(TIER_OVERRIDE.with(|c| c.replace(Some(tier))));
    f()
}

/// [`spec_parallel::join`] with `a` at the caller's [`active_tier`]: the
/// helper thread that may run it does not see the caller's [`with_tier`]
/// override, and a half split off a kernel's caller must dispatch as the
/// caller does. Every tier gives the same bits; what this keeps is which
/// tier's code a forced-tier test exercises.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    RA: Send,
    B: FnOnce() -> RB,
{
    let tier = active_tier();
    spec_parallel::join(|| with_tier(tier, a), b)
}

/// Defines a runtime-dispatched kernel: one shared `body`, compiled once
/// per instruction-set tier (`#[target_feature]` variants of the exact
/// same code), behind a `dispatch(tier, ...)` entry point.
///
/// ```ignore
/// spec_tensor::dispatch_kernel! {
///     /// One chunk of fused multiply/score work.
///     pub(crate) my_kernel(query: &[f32], out: &mut [f32]) -> f32 { ... }
/// }
/// // Resolve the tier once per batch, then call per item:
/// let tier = spec_tensor::dispatch::active_tier();
/// let score = my_kernel::dispatch(tier, q, out);
/// ```
///
/// Expands to a module named after the kernel whose one public item is
/// `dispatch(tier, ...)`: it clamps `tier` via
/// [`dispatch::clamp`](crate::dispatch::clamp) and runs the matching
/// private variant; tiers the architecture lacks fall back to the scalar
/// one. The scalar variant stays a function of its own rather than
/// `body` inlined into `dispatch`, so each tier is one call from
/// `dispatch`. Because every tier compiles the identical body — and the
/// bodies are written so each output element sees the same sequence of
/// floating-point operations regardless of lane width — all variants
/// return bit-identical results. The return type is optional: a kernel
/// without one returns `()`.
#[macro_export]
macro_rules! dispatch_kernel {
    (
        $(#[$meta:meta])*
        $vis:vis $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
        $body:block
    ) => {
        $(#[$meta])*
        #[allow(unused_qualifications)]
        $vis mod $name {
            #[allow(unused_imports)]
            use super::*;

            /// The shared kernel body; every tier compiles exactly this.
            #[inline(always)]
            fn body($($arg: $ty),*) $(-> $ret)? $body

            /// The scalar (reference-tier) variant.
            fn scalar($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            #[target_feature(enable = "avx2")]
            unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            #[target_feature(enable = "avx512f")]
            unsafe fn avx512($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            #[cfg(target_arch = "aarch64")]
            #[target_feature(enable = "neon")]
            unsafe fn neon($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            /// Runs the variant for `tier` (resolve it once per batch
            /// with `active_tier()`); unavailable tiers clamp down.
            pub fn dispatch(tier: $crate::dispatch::SimdTier, $($arg: $ty),*) $(-> $ret)? {
                match $crate::dispatch::clamp(tier) {
                    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                    // SAFETY: `clamp` only returns runtime-detected tiers.
                    $crate::dispatch::SimdTier::Avx512 => unsafe { avx512($($arg),*) },
                    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                    // SAFETY: as above.
                    $crate::dispatch::SimdTier::Avx2 => unsafe { avx2($($arg),*) },
                    #[cfg(target_arch = "aarch64")]
                    // SAFETY: as above.
                    $crate::dispatch::SimdTier::Neon => unsafe { neon($($arg),*) },
                    _ => scalar($($arg),*),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_are_ordered_narrow_to_wide() {
        assert!(SimdTier::Scalar < SimdTier::Neon);
        assert!(SimdTier::Neon < SimdTier::Avx2);
        assert!(SimdTier::Avx2 < SimdTier::Avx512);
    }

    #[test]
    fn parse_round_trips_every_name() {
        for t in [
            SimdTier::Scalar,
            SimdTier::Neon,
            SimdTier::Avx2,
            SimdTier::Avx512,
        ] {
            assert_eq!(SimdTier::parse(t.name()), Some(t));
            assert_eq!(SimdTier::parse(&t.name().to_uppercase()), Some(t));
        }
        assert_eq!(SimdTier::parse(" avx512f "), Some(SimdTier::Avx512));
        assert_eq!(SimdTier::parse("sse9"), None);
        assert_eq!(SimdTier::parse(""), None);
    }

    #[test]
    fn available_tiers_start_scalar_and_stay_sorted() {
        let tiers = available_tiers();
        assert_eq!(tiers.first(), Some(&SimdTier::Scalar));
        assert!(tiers.windows(2).all(|w| w[0] < w[1]));
        assert!(tiers.contains(&detected_tier()));
    }

    #[test]
    fn clamp_never_exceeds_detected() {
        for req in [
            SimdTier::Scalar,
            SimdTier::Neon,
            SimdTier::Avx2,
            SimdTier::Avx512,
        ] {
            let got = clamp(req);
            assert!(got <= req, "{got} > requested {req}");
            assert!(available_tiers().contains(&got));
        }
        assert_eq!(clamp(SimdTier::Scalar), SimdTier::Scalar);
    }

    #[test]
    fn with_tier_overrides_and_restores() {
        let ambient = active_tier();
        let inner = with_tier(SimdTier::Scalar, active_tier);
        assert_eq!(inner, SimdTier::Scalar);
        assert_eq!(active_tier(), ambient);
        // Nested overrides restore layer by layer.
        with_tier(SimdTier::Scalar, || {
            let wide = with_tier(SimdTier::Avx512, active_tier);
            assert_eq!(wide, clamp(SimdTier::Avx512));
            assert_eq!(active_tier(), SimdTier::Scalar);
        });
    }

    #[test]
    fn active_tier_is_always_executable() {
        assert!(available_tiers().contains(&active_tier()));
    }
}
