//! Runtime-dispatched SIMD specialization of the thin-`k` hot kernels.
//!
//! The dispatch layer recompiles the **exact scalar kernel bodies** under
//! `#[target_feature]` wrappers and selects a variant once per process
//! (`is_x86_feature_detected!` at first use, overridable via the
//! `TGS_SIMD` environment variable). Because the specialized variants run
//! the *same* Rust code — same loop structure, same mul/add order, no
//! FMA contraction (Rust never emits fast-math flags, so LLVM may not
//! fuse `a * b + c` into one rounding) — every lane computes the exact
//! IEEE-754 sequence of the scalar path and results are **bit-identical**
//! across tiers, scalar tails included. What changes is pure codegen:
//! with AVX2 enabled, LLVM vectorizes the lane-ordered elementwise and
//! accumulate loops 4 f64s at a time (plus the scalar tail for widths
//! that are not a multiple of the lane count) instead of the 2-wide SSE2
//! baseline. Parity is property-tested in `tests/simd_parity.rs`.
//!
//! Tiers:
//!
//! * [`SimdTier::Scalar`] — the portable baseline (x86-64 SSE2 codegen).
//! * [`SimdTier::Avx2`] — AVX2 without FMA.
//! * [`SimdTier::Avx2Fma`] — AVX2 + FMA detected. Arithmetic is still
//!   mul-then-add (contraction would change rounding and break the
//!   bit-identity contract), so enabling FMA would compile the same
//!   instructions: the tier is reported for diagnostics and dispatches
//!   to the AVX2 body.
//! * [`SimdTier::Neon`] — aarch64, where NEON is part of the baseline
//!   target: the "scalar" body already compiles to NEON, so the tier is
//!   reported for diagnostics and dispatches to the shared body.
//!
//! `TGS_SIMD` accepts `auto` (default), `off`, `avx2`, `fma`. Overrides
//! are clamped to what the CPU actually supports — requesting `fma` on an
//! AVX2-only machine degrades to `avx2`, and any x86 tier degrades to
//! `scalar` off x86-64 — so a stale environment variable can never make
//! the process execute unsupported instructions.

use std::sync::atomic::{AtomicU8, Ordering};

/// The instruction-set tier a dispatched kernel executes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Portable baseline codegen (no runtime feature use).
    Scalar = 0,
    /// AVX2 (256-bit, 4×f64 lanes).
    Avx2 = 1,
    /// AVX2 + FMA available (arithmetic stays mul-then-add, so it runs
    /// the AVX2 body; see module docs).
    Avx2Fma = 2,
    /// aarch64 NEON (baseline on that target; reported for diagnostics).
    Neon = 3,
}

impl SimdTier {
    /// Short stable name, recorded in `EngineStats` / bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx2Fma => "avx2+fma",
            SimdTier::Neon => "neon",
        }
    }

    fn from_u8(v: u8) -> SimdTier {
        match v {
            1 => SimdTier::Avx2,
            2 => SimdTier::Avx2Fma,
            3 => SimdTier::Neon,
            _ => SimdTier::Scalar,
        }
    }
}

/// What this CPU supports, independent of any override.
pub fn detected_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            if is_x86_feature_detected!("fma") {
                return SimdTier::Avx2Fma;
            }
            return SimdTier::Avx2;
        }
        SimdTier::Scalar
    }
    #[cfg(target_arch = "aarch64")]
    {
        SimdTier::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdTier::Scalar
    }
}

/// Parses a `TGS_SIMD` value into the *requested* tier. Unrecognized
/// values (and `auto`) request the best detected tier; the request is
/// clamped to `detected` so an override can never enable instructions
/// the CPU lacks.
pub(crate) fn resolve_request(request: Option<&str>, detected: SimdTier) -> SimdTier {
    let lowered = request.map(|r| r.trim().to_ascii_lowercase());
    let requested = match lowered.as_deref() {
        // Case-insensitive, with the common "disable" spellings — a
        // near-miss of "off" silently enabling full SIMD would defeat
        // the knob's whole purpose (provenance while debugging).
        Some("off") | Some("scalar") | Some("none") | Some("0") | Some("false")
        | Some("disable") | Some("disabled") => SimdTier::Scalar,
        Some("avx2") => SimdTier::Avx2,
        Some("fma") | Some("avx2+fma") | Some("avx2fma") => SimdTier::Avx2Fma,
        _ => detected, // auto / unset / unrecognized
    };
    // NEON is not orderable against the x86 tiers; any explicit x86
    // request off x86-64 degrades to scalar, `auto` keeps NEON.
    if detected == SimdTier::Neon {
        return match requested {
            SimdTier::Scalar => SimdTier::Scalar,
            _ => SimdTier::Neon,
        };
    }
    requested.min(detected)
}

/// Process-wide resolved tier: 0xFF = not yet initialized.
static ACTIVE: AtomicU8 = AtomicU8::new(0xFF);

thread_local! {
    /// Per-thread override used by parity tests and the SIMD benches to
    /// force a specific tier. Thread-local on purpose: dispatch decisions
    /// are made on the calling thread (worker threads only execute the
    /// already-chosen body), and a process-global override would race
    /// between concurrently running tests.
    static OVERRIDE: std::cell::Cell<u8> = const { std::cell::Cell::new(0xFF) };
}

fn resolve_from_env() -> SimdTier {
    let env = std::env::var("TGS_SIMD").ok();
    resolve_request(env.as_deref(), detected_tier())
}

/// The tier dispatched kernels execute under on this thread: the
/// thread-local override if set, otherwise the process-wide tier
/// (resolved once from `TGS_SIMD` + CPU detection).
#[inline]
pub fn active_tier() -> SimdTier {
    let o = OVERRIDE.with(|c| c.get());
    if o != 0xFF {
        return SimdTier::from_u8(o);
    }
    let v = ACTIVE.load(Ordering::Relaxed);
    if v != 0xFF {
        return SimdTier::from_u8(v);
    }
    let resolved = resolve_from_env();
    ACTIVE.store(resolved as u8, Ordering::Relaxed);
    resolved
}

/// Short name of [`active_tier`] (stats / bench provenance).
pub fn active_tier_name() -> &'static str {
    active_tier().name()
}

/// Forces the dispatch tier on the **current thread** (parity tests,
/// `simd_kernels/{scalar,dispatched}` benches). `None` restores normal
/// resolution. The request is clamped to the detected capabilities, so
/// forcing `Avx2Fma` on a machine without it silently degrades — callers
/// comparing tiers should check [`active_tier`] afterwards. Returns the
/// previous override.
pub fn set_simd_tier_override(tier: Option<SimdTier>) -> Option<SimdTier> {
    let clamped = tier.map(|t| {
        let detected = detected_tier();
        if detected == SimdTier::Neon {
            // NEON is not orderable against the x86 tiers.
            if t == SimdTier::Scalar {
                SimdTier::Scalar
            } else {
                SimdTier::Neon
            }
        } else {
            t.min(detected)
        }
    });
    let prev = OVERRIDE.with(|c| c.replace(clamped.map_or(0xFF, |t| t as u8)));
    if prev == 0xFF {
        None
    } else {
        Some(SimdTier::from_u8(prev))
    }
}

/// Defines a runtime-dispatched kernel: the body is instantiated once as
/// the portable `scalar` function and once more under a
/// `#[target_feature(enable = "avx2")]` wrapper, which both x86 SIMD
/// tiers run; the generated front function takes the tier as its
/// **first argument** and selects a body. Callers resolve
/// [`active_tier`] once on the calling thread and pass it down —
/// dispatch therefore works inside row-parallel chunk closures running
/// on worker threads (where a thread-local lookup would miss the
/// caller's override), and the cost per chunk is one match.
///
/// The body is duplicated *textually* into the wrapper (not shared via
/// an inlined helper) so that rustc's closure-inherits-target-feature
/// rule applies to any closure in the body, and because the identical
/// source compiled at a higher feature level executes the identical
/// IEEE-754 sequence (no fast-math, no contraction), both bodies are
/// bit-identical.
macro_rules! simd_kernel {
    ($(#[$meta:meta])* $vis:vis fn $name:ident$(<const $K:ident: usize>)?( $($arg:ident: $ty:ty),* $(,)? ) $body:block) => {
        $(#[$meta])*
        #[allow(clippy::too_many_arguments)]
        $vis fn $name$(<const $K: usize>)?(tier: $crate::simd::SimdTier, $($arg: $ty),*) {
            #[inline(always)]
            #[allow(clippy::too_many_arguments)]
            fn variant_scalar$(<const $K: usize>)?($($arg: $ty),*) $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn variant_avx2$(<const $K: usize>)?($($arg: $ty),*) $body

            match tier {
                // SAFETY: tiers are only ever produced by `active_tier`,
                // which reports a tier strictly after
                // `is_x86_feature_detected!` confirmed the features (env
                // and test overrides are clamped to detection).
                #[cfg(target_arch = "x86_64")]
                $crate::simd::SimdTier::Avx2 | $crate::simd::SimdTier::Avx2Fma => unsafe {
                    variant_avx2$(::<$K>)?($($arg),*)
                },
                _ => variant_scalar$(::<$K>)?($($arg),*),
            }
        }
    };
}

pub(crate) use simd_kernel;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_request_clamps_to_detected() {
        use SimdTier::*;
        // auto / unknown take the detected tier
        assert_eq!(resolve_request(None, Avx2Fma), Avx2Fma);
        assert_eq!(resolve_request(Some("auto"), Avx2), Avx2);
        assert_eq!(resolve_request(Some("warp-drive"), Scalar), Scalar);
        // off always wins, case-insensitively and under aliases
        assert_eq!(resolve_request(Some("off"), Avx2Fma), Scalar);
        assert_eq!(resolve_request(Some("OFF"), Avx2Fma), Scalar);
        assert_eq!(resolve_request(Some(" Off "), Avx2Fma), Scalar);
        assert_eq!(resolve_request(Some("disabled"), Avx2Fma), Scalar);
        assert_eq!(resolve_request(Some("0"), Avx2Fma), Scalar);
        assert_eq!(resolve_request(Some("scalar"), Neon), Scalar);
        assert_eq!(resolve_request(Some("AVX2"), Avx2Fma), Avx2);
        assert_eq!(resolve_request(Some("FMA"), Avx2Fma), Avx2Fma);
        // explicit requests clamp to capability
        assert_eq!(resolve_request(Some("fma"), Avx2Fma), Avx2Fma);
        assert_eq!(resolve_request(Some("fma"), Avx2), Avx2);
        assert_eq!(resolve_request(Some("avx2"), Avx2Fma), Avx2);
        assert_eq!(resolve_request(Some("avx2"), Scalar), Scalar);
        // x86 requests degrade gracefully on aarch64
        assert_eq!(resolve_request(Some("avx2"), Neon), Neon);
        assert_eq!(resolve_request(None, Neon), Neon);
    }

    #[test]
    fn override_is_thread_local_and_clamped() {
        let process_tier = std::thread::spawn(active_tier).join().unwrap();
        let prev = set_simd_tier_override(Some(SimdTier::Scalar));
        assert_eq!(active_tier(), SimdTier::Scalar);
        // A spawned thread sees the un-overridden process tier.
        let other = std::thread::spawn(active_tier).join().unwrap();
        assert_eq!(other, process_tier, "override leaked across threads");
        set_simd_tier_override(prev);
    }

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(SimdTier::Scalar.name(), "scalar");
        assert_eq!(SimdTier::Avx2.name(), "avx2");
        assert_eq!(SimdTier::Avx2Fma.name(), "avx2+fma");
        assert_eq!(SimdTier::Neon.name(), "neon");
    }
}
