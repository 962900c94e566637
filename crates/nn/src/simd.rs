//! Runtime-dispatched SIMD kernels for the batched controller datapath,
//! bit-identical across backends *by construction*.
//!
//! Every batched kernel in this crate funnels through this module. Three
//! backends exist: AVX-512 and AVX2 on x86-64, and the portable scalar
//! code (the former `matrix.rs` / `mlp.rs` / `activation.rs` loops, moved
//! here verbatim). The f32 kernels are written once: `f32_kernels!`
//! stamps the scalar source into `mod scalar` and, under
//! `#[target_feature(enable = "avx2")]`, into `mod avx2`, so LLVM
//! vectorizes the same loops for 8-lane vectors. Both x86 tiers run that
//! AVX2 copy; a copy compiled with `avx512f` was slower than it at every
//! measured shape (EXPERIMENTS.md), so the tiers differ only in their
//! int8 forms. Only the int8 path keeps hand-written intrinsic forms: the
//! GEMMs, because compiled scalar code cannot produce `pmaddwd`,
//! `vpdpbusd` or `vpdpwssd`, and the `max_abs_f32`/`quantize_i8` helpers,
//! whose compiled twins ran the pooled int8 forward 1.7–4.2x slower on
//! either tier (EXPERIMENTS.md). Other architectures (aarch64 included)
//! run the scalar source, which LLVM vectorizes for the target's
//! baseline SIMD on its own. The backend is chosen once at startup by
//! [`dispatched`] via runtime feature detection, overridable with
//! `RESEMBLE_SIMD={avx512,avx2,scalar}`; tests and benches can pin a
//! backend per thread with [`force`].
//!
//! # Bit-identity by construction
//!
//! The repo's determinism gates compare f32 results bitwise, so the
//! vector paths must produce *byte-identical* output to the scalar
//! fallback — not merely close. That is guaranteed structurally, never
//! by tolerance:
//!
//! - **One source, compiled per tier.** Every tier evaluates the same
//!   IEEE-754 expressions in the same operand order. Rust never
//!   contracts `a + w * x` into an FMA (not even with `avx512f`, which
//!   implies FMA), and LLVM does not reorder float operations without
//!   fast-math flags, so each element sees the same roundings on every
//!   tier.
//! - **One accumulator per output element.** The kernels loop across
//!   independent output elements / batch lanes and walk the inner
//!   dimension `k = 0, 1, 2, …` per lane, so vectorization never splits
//!   a per-element sum across vector lanes — there is no float reduction
//!   for the vectorizer to reassociate (and it refuses to without
//!   fast-math).
//! - **Compares and selects are bit-exact.** The ReLU clamp
//!   `if *x < 0.0 { *x = 0.0 }` preserves `-0.0` and NaN, and the
//!   derivative masks multiply by a selected `{0.0, 1.0}`, reproducing
//!   `d * 0.0` / `d * 1.0` including the sign of a `±0.0` result — a
//!   vectorized compare-and-select computes the same values.
//!
//! Consequently every tier agrees bit-for-bit with scalar on every
//! input, which the backend-sweep proptest
//! (`crates/nn/tests/backend_sweep.rs`) and this module's unit tests pin.
//!
//! # Int8 kernels: exactness, not order
//!
//! The int8 GEMM ([`gemm_i8_i32`]) obeys a *different* — and simpler —
//! determinism argument. Every product of two i8 values and every partial
//! sum fits an i32 exactly (|Σ| ≤ k·127², and the wrapper asserts `k ≤
//! 130_000` so that bound stays below `i32::MAX`), and exact integer
//! addition is associative, so *any* summation order — including the
//! horizontal reductions the float kernels must avoid — yields the same
//! i32. Backends therefore agree byte-for-byte by arithmetic exactness
//! rather than by matching accumulation order; the cross-backend sweep in
//! `crates/nn/tests/int8_sweep.rs` pins it. [`gemm_i8p_lanes`] applies
//! the same argument to the small-`k`, wide-`fan_out` layer shape (the
//! wide frozen controller's input layer): the weights are pre-staged as
//! i16 `(k, k+1)` pairs interleaved across outputs so one `madd` yields
//! eight exact i32 partial sums, and again any accumulation order gives
//! identical bytes.
//!
//! The elementwise int8 helpers ([`max_abs_f32`] and [`quantize_i8`])
//! are dispatched too, with a third determinism argument: `max` over a
//! set is order-free, and a per-element map has no accumulation at all —
//! every backend evaluates the identical IEEE expression per element
//! (multiply by the reciprocal scale, round half away from zero computed
//! as exact truncate-plus-fraction-compare, clamp, narrow). The one
//! caveat, documented on [`quantize_i8`], is non-finite input: scalar
//! Rust saturating casts and x86 `cvttps2dq` disagree on NaN/±inf, so
//! cross-backend identity is promised for finite inputs only. The
//! dequant/bias/activation epilogue stays in `quant.rs` as shared
//! non-dispatched code, so the full quantized forward pass inherits the
//! same guarantee.
//!
//! # VNNI dot-product forms
//!
//! On VNNI-capable hosts the int8 GEMMs upgrade themselves within their
//! tier — the [`KernelBackend`] stays `Avx512`/`Avx2`, [`capabilities`]
//! picks the instruction form:
//!
//! - `avx512_vnni` (EVEX): [`gemm_i8_i32`] uses `vpdpbusd` — one fused
//!   u8×i8 dot per 64 bytes, made signed-exact by the classic offset
//!   trick (`x + 128` via sign-bit XOR, then subtract `128·Σw`, with the
//!   correction's `Σw` recovered from a `vpsadbw` running sum). The
//!   accumulator lanes may wrap in i32, but all arithmetic is mod 2³²
//!   and the true dot is bounded by the wrapper's `k ≤ 130_000` assert,
//!   so the corrected result is the exact i32 — the same exactness
//!   argument as above, extended to modular form. [`gemm_i8p_lanes`]
//!   uses `vpdpwssd`, which fuses the `madd`+`add` pair-sum step into
//!   one instruction with identical i32 results.
//! - `avx_vnni` (VEX, 256-bit): the same `vpdpwssd` fusion at AVX2
//!   width (`_mm256_dpwssd_avx_epi32`) for hosts with VNNI but no
//!   AVX-512 state.
//!
//! Because every form computes the identical exact i32s, VNNI needs no
//! new byte-equality argument — the existing int8 sweeps pin it.
//!
//! [`capabilities`] reports the feature bits backing this selection
//! (`avx2`, `avx512f`, `avx512bw`, `avx512-vnni`, `avx-vnni`); the
//! `Avx512` tier requires `avx512f` *and* `avx512bw` (byte/word ops in
//! the int8 kernels), which every AVX-512 server core since Skylake-SP
//! provides, plus `avx2` for the f32 kernels it shares with the `Avx2`
//! tier.
//!
//! The `simd-outside-kernel` lint rule keeps all `std::arch` usage inside
//! this file; add new kernels here (see CONTRIBUTING.md).

use std::cell::Cell;
use std::sync::OnceLock;

/// Environment variable that overrides backend selection
/// (`avx512`/`avx2`/`scalar`); unavailable or unknown values fall back to
/// the best detected backend with a warning on stderr.
pub const BACKEND_ENV: &str = "RESEMBLE_SIMD";

/// A kernel implementation the dispatcher can route to.
///
/// Safety invariant: non-`Scalar` values are only handed to the kernel
/// wrappers after the corresponding ISA was confirmed present —
/// [`dispatched`] detects before selecting, [`force`] asserts
/// [`KernelBackend::is_available`], and [`available`] lists only detected
/// backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// The `Avx2` tier's f32 kernels plus hand-written 512-bit int8
    /// forms that need AVX-512F and AVX-512BW, so availability requires
    /// all three features.
    Avx512,
    /// 8-lane f32 vectors: the f32 kernels compiled with AVX2 enabled,
    /// plus hand-written AVX2 int8 forms.
    Avx2,
    /// The portable scalar fallback (always available).
    Scalar,
}

impl KernelBackend {
    /// Every backend the crate knows, widest first, scalar last. Names
    /// parse on every architecture (so `RESEMBLE_SIMD=avx2` on aarch64
    /// warns and clamps rather than reading as a typo); availability is
    /// what gates actual dispatch. Tests iterate this to log skipped ISAs.
    pub const ALL: [KernelBackend; 3] = [
        KernelBackend::Avx512,
        KernelBackend::Avx2,
        KernelBackend::Scalar,
    ];

    /// Stable lowercase name, as accepted by [`BACKEND_ENV`] and reported
    /// in benchmark/telemetry output.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Avx512 => "avx512",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Scalar => "scalar",
        }
    }

    /// Parse a [`KernelBackend::name`] string (ASCII case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        Self::ALL
            .into_iter()
            .find(|b| s.eq_ignore_ascii_case(b.name()))
    }

    /// Whether this backend's ISA is present on the current host.
    pub fn is_available(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx2")
            }
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            KernelBackend::Avx512 | KernelBackend::Avx2 => false,
        }
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Best backend the host supports, ignoring the environment override:
/// the first available entry of [`KernelBackend::ALL`] (widest first).
fn detect_best() -> KernelBackend {
    KernelBackend::ALL
        .into_iter()
        .find(|b| b.is_available())
        .unwrap_or(KernelBackend::Scalar)
}

/// All backends available on this host, best first (scalar is always
/// last). Use this to sweep backends in tests and benchmarks.
pub fn available() -> &'static [KernelBackend] {
    static LIST: OnceLock<Vec<KernelBackend>> = OnceLock::new();
    LIST.get_or_init(|| {
        KernelBackend::ALL
            .into_iter()
            .filter(|b| b.is_available())
            .collect()
    })
}

/// The process-wide backend, chosen once on first use: the best detected
/// ISA, unless [`BACKEND_ENV`] requests another *available* backend.
pub fn dispatched() -> KernelBackend {
    static CHOSEN: OnceLock<KernelBackend> = OnceLock::new();
    *CHOSEN.get_or_init(|| {
        let best = detect_best();
        let Ok(req) = std::env::var(BACKEND_ENV) else {
            return best;
        };
        match KernelBackend::parse(&req) {
            Some(b) if b.is_available() => b,
            Some(b) => {
                eprintln!(
                    "resemble-nn: {BACKEND_ENV}={} is not available on this host \
                     (detected features: {}); using {}",
                    b.name(),
                    capabilities().summary(),
                    best.name()
                );
                best
            }
            None => {
                let expected = KernelBackend::ALL.map(KernelBackend::name).join("|");
                eprintln!(
                    "resemble-nn: unrecognized {BACKEND_ENV} value {req:?} \
                     (expected {expected}); using {}",
                    best.name()
                );
                best
            }
        }
    })
}

/// CPU feature bits backing kernel-lane selection, detected once per
/// process. The `Avx512` tier gates on `avx2 && avx512f && avx512bw`;
/// within a tier the int8 GEMMs pick their VNNI instruction form from
/// `avx512_vnni`/`avx_vnni` (see the module docs). Telemetry and
/// benchmark reports echo [`CpuCaps::summary`] so skipped metrics can
/// name what the host lacks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuCaps {
    /// 256-bit integer/float SIMD.
    pub avx2: bool,
    /// AVX-512 foundation, including the OS having enabled zmm state
    /// (XCR0 opmask/zmm bits) — false if the CPU has it but the OS
    /// doesn't save the registers.
    pub avx512f: bool,
    /// AVX-512 byte/word instructions — required alongside `avx512f` for
    /// the `Avx512` tier's int8 kernels (sign-extends, `vpsadbw`).
    pub avx512bw: bool,
    /// AVX-512 VNNI int8 dot-product instructions (`vpdpbusd`/`vpdpwssd`
    /// in EVEX form); implies usable AVX-512 state.
    pub avx512_vnni: bool,
    /// AVX-VNNI: the VEX-encoded (256-bit) dot-product subset, for CPUs
    /// with VNNI but without full AVX-512.
    pub avx_vnni: bool,
}

impl CpuCaps {
    /// Space-separated list of the detected feature names, stable order,
    /// `"none"` when nothing beyond portable scalar is present — for
    /// telemetry snapshots and benchmark reports.
    pub fn summary(self) -> String {
        let mut names = Vec::new();
        if self.avx2 {
            names.push("avx2");
        }
        if self.avx512f {
            names.push("avx512f");
        }
        if self.avx512bw {
            names.push("avx512bw");
        }
        if self.avx512_vnni {
            names.push("avx512-vnni");
        }
        if self.avx_vnni {
            names.push("avx-vnni");
        }
        if names.is_empty() {
            "none".to_owned()
        } else {
            names.join(" ")
        }
    }
}

/// The host's CPU feature bits, detected once (see [`CpuCaps`]).
pub fn capabilities() -> CpuCaps {
    static CAPS: OnceLock<CpuCaps> = OnceLock::new();
    *CAPS.get_or_init(detect_caps)
}

#[cfg(target_arch = "x86_64")]
fn detect_caps() -> CpuCaps {
    use core::arch::x86_64::{__cpuid, __cpuid_count, _xgetbv};

    /// `xgetbv(0)` reads XCR0, the OS-enabled extended-state mask.
    ///
    /// SAFETY: caller only invokes this after CPUID leaf 1 ECX reports
    /// both XSAVE (bit 26) and OSXSAVE (bit 27) — OSXSAVE set means the
    /// OS enabled CR4.OSXSAVE, which architecturally makes XGETBV(0)
    /// legal.
    #[target_feature(enable = "xsave")]
    unsafe fn xcr0() -> u64 {
        // SAFETY: target_feature-only unsafety; the caller contract above
        // guarantees the instruction is enabled.
        unsafe { _xgetbv(0) }
    }

    // CPUID leaf 0 is valid on every x86-64 CPU (the ISA guarantees the
    // instruction, leaf 0 reports the max leaf) and the intrinsic is safe
    // on this target; leaf 1 predates the 64-bit ISA.
    let max_leaf = __cpuid(0).eax;
    let leaf1 = __cpuid(1);
    let osxsave = leaf1.ecx & (1 << 26) != 0 && leaf1.ecx & (1 << 27) != 0;
    // SAFETY: xcr0() is guarded on XSAVE+OSXSAVE per its contract.
    let xcr0 = if osxsave { unsafe { xcr0() } } else { 0 };
    // AVX needs xmm+ymm state (XCR0 bits 1-2); AVX-512 additionally needs
    // opmask+zmm state (bits 5-7).
    let os_avx = xcr0 & 0x6 == 0x6;
    let os_avx512 = os_avx && xcr0 & 0xe0 == 0xe0;

    let (l7_0, l7_max_sub) = if max_leaf >= 7 {
        // Guarded on max_leaf >= 7, so leaf 7 subleaf 0 is valid.
        let r = __cpuid_count(7, 0);
        (Some(r), r.eax)
    } else {
        (None, 0)
    };
    let l7_1 = if max_leaf >= 7 && l7_max_sub >= 1 {
        // Guarded on leaf 7 existing and its EAX (max subleaf) covering
        // subleaf 1.
        Some(__cpuid_count(7, 1))
    } else {
        None
    };

    let ebx7 = l7_0.map_or(0, |r| r.ebx);
    let ecx7 = l7_0.map_or(0, |r| r.ecx);
    let eax7_1 = l7_1.map_or(0, |r| r.eax);
    CpuCaps {
        avx2: std::arch::is_x86_feature_detected!("avx2"),
        avx512f: os_avx512 && ebx7 & (1 << 16) != 0,
        avx512bw: os_avx512 && ebx7 & (1 << 30) != 0,
        avx512_vnni: os_avx512 && ecx7 & (1 << 11) != 0,
        avx_vnni: os_avx && eax7_1 & (1 << 4) != 0,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_caps() -> CpuCaps {
    CpuCaps::default()
}

thread_local! {
    static FORCED: Cell<Option<KernelBackend>> = const { Cell::new(None) };
}

/// The backend the kernels on this thread currently use: the innermost
/// [`force`] override, or else the process-wide [`dispatched`] choice.
/// Never panics.
pub fn active() -> KernelBackend {
    FORCED.with(Cell::get).unwrap_or_else(dispatched)
}

/// Pin `backend` as this thread's active backend until the returned
/// guard drops (restoring the previous state). Panics if the backend is
/// not available on this host — the availability check is what keeps the
/// unsafe ISA dispatch sound.
#[must_use = "the override ends when the guard is dropped"]
pub fn force(backend: KernelBackend) -> BackendGuard {
    assert!(
        backend.is_available(),
        "kernel backend {} is not available on this host",
        backend.name()
    );
    let prev = FORCED.with(|f| f.replace(Some(backend)));
    BackendGuard { prev }
}

/// RAII guard returned by [`force`]; restores the previous per-thread
/// backend override on drop.
pub struct BackendGuard {
    prev: Option<KernelBackend>,
}

impl Drop for BackendGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        FORCED.with(|f| f.set(prev));
    }
}

/// Route one f32 kernel call to the backend's implementation: both x86
/// tiers run the AVX2 copy.
///
/// SAFETY: the x86 arm calls `#[target_feature(enable = "avx2")]`
/// functions; this is sound because of the module invariant that
/// `Avx512`/`Avx2` only reach the wrappers after runtime detection (see
/// [`KernelBackend`]), and both tiers' detection includes `avx2`.
macro_rules! dispatch {
    ($be:expr, $name:ident ( $($arg:expr),* $(,)? )) => {
        match $be {
            // SAFETY: this arm is reached only when runtime detection
            // produced `Avx512` or `Avx2` (module invariant — see
            // `KernelBackend`), and `is_available` checks `avx2` for
            // both, so the target_feature fn's CPU requirement holds.
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 | KernelBackend::Avx2 => unsafe { avx2::$name($($arg),*) },
            _ => scalar::$name($($arg),*),
        }
    };
}

/// Batch-lane dot sweep: `acc[b] += Σ_k wrow[k] · xt[k·tl + b]` with `k`
/// strictly ascending per lane, `tl = acc.len()`.
pub(crate) fn gemm_lanes(be: KernelBackend, acc: &mut [f32], wrow: &[f32], xt: &[f32]) {
    dispatch!(be, gemm_lanes(acc, wrow, xt));
}

/// Output-major matvec against a transposed weight stage: `y[r] = Σ_k
/// wt[k·r_dim + r] · x[k]`, `k` ascending per element — the exact
/// accumulation sequence of `Matrix::matvec_into`, vectorized across the
/// output dimension.
pub(crate) fn matvec_lanes(be: KernelBackend, y: &mut [f32], wt: &[f32], x: &[f32]) {
    dispatch!(be, matvec_lanes(y, wt, x));
}

/// One sample of the transposed matvec `y[c] = Σ_r w[r·cols + c] · x[r]`
/// with the exact-zero `x[r]` skip — the body of
/// `Matrix::matvec_transpose_into`, vectorized across the output columns.
pub(crate) fn matvec_t_sample(be: KernelBackend, y: &mut [f32], w: &[f32], x: &[f32]) {
    dispatch!(be, matvec_t_sample(y, w, x));
}

/// One sample of `dw += alpha · a ⊗ b`, row-major with the exact-zero
/// delta skip — the body of `Matrix::add_outer`.
pub(crate) fn outer_rows_sample(
    be: KernelBackend,
    dw: &mut [f32],
    a_row: &[f32],
    b_row: &[f32],
    alpha: f32,
) {
    dispatch!(be, outer_rows_sample(dw, a_row, b_row, alpha));
}

/// One sample of `dwt += alpha · b ⊗ a` into a *transposed* gradient
/// stage, vectorized across the `a` dimension (see
/// `Matrix::add_outer_batch` for the bit-identity argument).
pub(crate) fn outer_lanes_sample(
    be: KernelBackend,
    dwt: &mut [f32],
    a_row: &[f32],
    b_row: &[f32],
    alpha: f32,
) {
    dispatch!(be, outer_lanes_sample(dwt, a_row, b_row, alpha));
}

/// `out[s·n + i] += bias[i]` for every sample row `s` — the batched bias
/// add of a dense layer.
pub(crate) fn add_bias_rows(be: KernelBackend, out: &mut [f32], bias: &[f32]) {
    dispatch!(be, add_bias_rows(out, bias));
}

/// `acc[i] += Σ_s rows[s·n + i]`, sample-major — the batched
/// bias-gradient column sums, accumulating each element in sample order.
pub(crate) fn sum_rows(be: KernelBackend, acc: &mut [f32], rows: &[f32]) {
    dispatch!(be, sum_rows(acc, rows));
}

/// In-place ReLU over a flat batch: `x = if x < 0.0 { 0.0 } else { x }`,
/// preserving `-0.0` and NaN exactly like the scalar clamp.
pub(crate) fn relu(be: KernelBackend, xs: &mut [f32]) {
    dispatch!(be, relu(xs));
}

/// Batched ReLU chain-rule mask: `d *= if y > 0.0 { 1.0 } else { 0.0 }`.
pub(crate) fn relu_mask(be: KernelBackend, deltas: &mut [f32], ys: &[f32]) {
    dispatch!(be, relu_mask(deltas, ys));
}

/// Batched tanh chain-rule step: `d *= 1.0 - y·y`.
pub(crate) fn tanh_mask(be: KernelBackend, deltas: &mut [f32], ys: &[f32]) {
    dispatch!(be, tanh_mask(deltas, ys));
}

/// Batched sigmoid chain-rule step: `d *= y · (1.0 - y)`.
pub(crate) fn sigmoid_mask(be: KernelBackend, deltas: &mut [f32], ys: &[f32]) {
    dispatch!(be, sigmoid_mask(deltas, ys));
}

/// Int8 GEMM with exact i32 accumulation: `acc[r·cols + c] = Σ_k
/// x[r·k_dim + k] · w[c·k_dim + k]` where `rows = x.len() / k_dim` and
/// `cols = w.len() / k_dim` (both operands row-major with the shared
/// inner dimension contiguous — `w` rows are output neurons).
///
/// Bit-identity across backends holds by *exactness*, not order: with
/// inputs in `[-127, 127]` and `k_dim ≤ 130_000` (asserted), every
/// partial sum fits an i32 exactly and integer addition is associative,
/// so the vector lanes may reduce horizontally and still match the
/// scalar reference byte-for-byte (see the module docs).
pub(crate) fn gemm_i8_i32(be: KernelBackend, acc: &mut [i32], x: &[i8], w: &[i8], k_dim: usize) {
    assert!(
        k_dim <= 130_000,
        "gemm_i8_i32: k_dim {k_dim} exceeds the exact-i32 headroom (k·127² must stay below i32::MAX)"
    );
    if k_dim == 0 {
        acc.fill(0);
        return;
    }
    assert!(
        x.len().is_multiple_of(k_dim) && w.len().is_multiple_of(k_dim),
        "gemm_i8_i32: operand lengths {}/{} not multiples of k_dim {k_dim}",
        x.len(),
        w.len()
    );
    assert_eq!(
        acc.len(),
        (x.len() / k_dim) * (w.len() / k_dim),
        "gemm_i8_i32: acc length mismatch"
    );
    match be {
        // SAFETY: `Avx512` only reaches the wrappers after runtime
        // detection of avx512f+avx512bw (module invariant — see
        // `KernelBackend`); the VNNI form additionally gates on the
        // detected `avx512_vnni` capability bit.
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => unsafe {
            if capabilities().avx512_vnni {
                i8x86::avx512vnni_gemm_i8_i32(acc, x, w, k_dim)
            } else {
                i8x86::avx512_gemm_i8_i32(acc, x, w, k_dim)
            }
        },
        // SAFETY: `Avx2` only reaches the wrappers after runtime
        // detection (module invariant — see `KernelBackend`), so the
        // target_feature fn's CPU requirement holds; the VEX-VNNI form
        // additionally gates on the detected `avx_vnni` capability bit.
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => unsafe {
            if capabilities().avx_vnni {
                i8x86::avxvnni_gemm_i8_i32(acc, x, w, k_dim)
            } else {
                i8x86::avx2_gemm_i8_i32(acc, x, w, k_dim)
            }
        },
        _ => scalar::gemm_i8_i32(acc, x, w, k_dim),
    }
}

/// Pair-interleaved int8 matvec for small-`k`, wide-`fan_out` layers:
/// `acc[r] = Σ_p x0_p · wt[(p·fan_out + r)·2] + x1_p ·
/// wt[(p·fan_out + r)·2 + 1]`, overwriting `acc`.
///
/// `xpairs[p]` packs the quantized input pair `(x[2p], x[2p+1])` as two
/// little-endian i16 lanes of one i32 (see [`pack_i8_pairs`]); `wt` holds
/// the matching weight pairs interleaved across outputs so the vector
/// backends read eight consecutive outputs per 256-bit load and one
/// `madd` produces eight exact i32 pair-sums. Exactness, not order: each
/// i16·i16 pair-product sum is ≤ 2·127² and the wrapper bounds the pair
/// count, so any accumulation order matches the scalar reference
/// byte-for-byte.
pub(crate) fn gemm_i8p_lanes(
    be: KernelBackend,
    acc: &mut [i32],
    xpairs: &[i32],
    wt: &[i16],
    fan_out: usize,
) {
    assert!(
        xpairs.len() <= 65_000,
        "gemm_i8p_lanes: pair count {} exceeds the exact-i32 headroom",
        xpairs.len()
    );
    assert_eq!(acc.len(), fan_out, "gemm_i8p_lanes: acc length mismatch");
    assert_eq!(
        wt.len(),
        xpairs.len() * fan_out * 2,
        "gemm_i8p_lanes: weight layout mismatch"
    );
    if xpairs.is_empty() || fan_out == 0 {
        acc.fill(0);
        return;
    }
    match be {
        // SAFETY: `Avx512` only reaches the wrappers after runtime
        // detection of avx512f+avx512bw (module invariant — see
        // `KernelBackend`); the VNNI form additionally gates on the
        // detected `avx512_vnni` capability bit.
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => unsafe {
            if capabilities().avx512_vnni {
                i8x86::avx512vnni_gemm_i8p_lanes(acc, xpairs, wt, fan_out)
            } else {
                i8x86::avx512_gemm_i8p_lanes(acc, xpairs, wt, fan_out)
            }
        },
        // SAFETY: `Avx2` only reaches the wrappers after runtime
        // detection (module invariant — see `KernelBackend`), so the
        // target_feature fn's CPU requirement holds; the VEX-VNNI form
        // additionally gates on the detected `avx_vnni` capability bit.
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => unsafe {
            if capabilities().avx_vnni {
                i8x86::avxvnni_gemm_i8p_lanes(acc, xpairs, wt, fan_out)
            } else {
                i8x86::avx2_gemm_i8p_lanes(acc, xpairs, wt, fan_out)
            }
        },
        _ => scalar::gemm_i8p_lanes(acc, xpairs, wt, fan_out),
    }
}

/// Pack a quantized row into the little-endian i16-pair format
/// [`gemm_i8p_lanes`] consumes: `out[p]` holds `(x[2p], x[2p+1])` with an
/// implicit zero for the odd tail. Shared (non-dispatched) by
/// construction — it is pure bit shuffling.
pub(crate) fn pack_i8_pairs(x: &[i8], out: &mut Vec<i32>) {
    out.clear();
    let mut it = x.chunks_exact(2);
    for pair in &mut it {
        // lint:allow(lossy-cast): i16->u16 bit reinterpret packs the sign-extended lane
        let (l0, l1) = (i16::from(pair[0]) as u16, i16::from(pair[1]) as u16);
        out.push(i32::from(l0) | (i32::from(l1) << 16));
    }
    if let Some(&x0) = it.remainder().first() {
        // lint:allow(lossy-cast): i16->u16 bit reinterpret packs the sign-extended lane
        out.push(i32::from(i16::from(x0) as u16));
    }
}

/// Maximum absolute value of `x` (`0.0` when empty). `max` over a set is
/// order-free — every reduction tree yields the same f32 for finite
/// inputs — so the vector backends match the scalar fold byte-for-byte.
pub(crate) fn max_abs_f32(be: KernelBackend, x: &[f32]) -> f32 {
    match be {
        // SAFETY: `Avx512` only reaches the wrappers after runtime
        // detection of avx512f+avx512bw (module invariant — see
        // `KernelBackend`).
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => unsafe { i8x86::avx512_max_abs_f32(x) },
        // SAFETY: `Avx2` only reaches the wrappers after runtime
        // detection (module invariant — see `KernelBackend`).
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => unsafe { i8x86::avx2_max_abs_f32(x) },
        _ => scalar::max_abs_f32(x),
    }
}

/// Elementwise int8 quantization: `dst[i] =
/// clamp(round_half_away(src[i] · inv), -127, 127)` with round-half-away
/// computed as exact truncation plus a fraction compare (`t = trunc(x)`,
/// `r = x - t`, add ±1 when `|r| ≥ 0.5`) — both steps exact in f32 for
/// the `|x| ≲ 127` domain the reciprocal scale guarantees, so every
/// backend produces identical codes without needing a vector `round`.
///
/// Non-finite inputs are the one documented gap: Rust's saturating
/// float→int cast and x86 `cvttps2dq` disagree on NaN/±inf, so the
/// cross-backend byte-identity promise holds for finite `src` only
/// (callers in `quant.rs` derive `inv` from the same row, which keeps
/// finite rows in-domain).
pub(crate) fn quantize_i8(be: KernelBackend, src: &[f32], dst: &mut [i8], inv: f32) {
    assert_eq!(src.len(), dst.len(), "quantize_i8: length mismatch");
    match be {
        // SAFETY: `Avx512` only reaches the wrappers after runtime
        // detection of avx512f+avx512bw (module invariant — see
        // `KernelBackend`).
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => unsafe { i8x86::avx512_quantize_i8(src, dst, inv) },
        // SAFETY: `Avx2` only reaches the wrappers after runtime
        // detection (module invariant — see `KernelBackend`).
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => unsafe { i8x86::avx2_quantize_i8(src, dst, inv) },
        _ => scalar::quantize_i8(src, dst, inv),
    }
}

/// The f32 kernel source, written once and stamped into each tier's
/// module: `f32_kernels!()` for the portable scalar reference and
/// `f32_kernels!(#[target_feature(enable = "avx2")])` for the x86 tiers,
/// where the attribute lets LLVM vectorize the same loops for the wider
/// ISA. Every tier therefore evaluates identical IEEE expressions in
/// identical order (see the module docs). The stamped functions stay
/// safe Rust; calling a `target_feature` one from outside its module
/// needs `unsafe` and a prior runtime detection, which `dispatch!`
/// provides.
macro_rules! f32_kernels {
    ($(#[$tier:meta])*) => {
        /// `acc[i] += w * xs[i]` over the overlapping prefix.
        ///
        /// Each lane is an independent accumulator, so vectorizing across `i`
        /// never reorders any per-element sum.
        #[inline]
        $(#[$tier])*
        pub(super) fn axpy(acc: &mut [f32], xs: &[f32], w: f32) {
            for (a, &v) in acc.iter_mut().zip(xs) {
                *a += w * v;
            }
        }

        /// Two fused axpy passes: `acc[i] = (acc[i] + w0·x0[i]) + w1·x1[i]` —
        /// per element, the identical two sequential f32 adds of two [`axpy`]
        /// calls, with half the accumulator load/store traffic.
        #[inline]
        $(#[$tier])*
        pub(super) fn axpy2(acc: &mut [f32], x0: &[f32], w0: f32, x1: &[f32], w1: f32) {
            for ((a, &v0), &v1) in acc.iter_mut().zip(x0).zip(x1) {
                *a = (*a + w0 * v0) + w1 * v1;
            }
        }

        /// See [`super::gemm_lanes`].
        ///
        /// `#[inline(never)]` is load-bearing here and on the helpers below:
        /// the staging buffers come from a thread-local `RefCell`, where the
        /// optimizer cannot prove disjointness and emits scalar code — and a
        /// plain `#[inline]` boundary is erased by MIR inlining before its
        /// noalias parameter guarantees reach codegen. A real call boundary
        /// keeps them, and the lane loops autovectorize.
        #[inline(never)]
        $(#[$tier])*
        pub(super) fn gemm_lanes(acc: &mut [f32], wrow: &[f32], xt: &[f32]) {
            let tl = acc.len();
            if tl == 0 {
                return;
            }
            let mut ws = wrow.chunks_exact(2);
            let mut cols = xt.chunks_exact(2 * tl);
            for (wp, cp) in ws.by_ref().zip(cols.by_ref()) {
                let (c0, c1) = cp.split_at(tl);
                axpy2(acc, c0, wp[0], c1, wp[1]);
            }
            for (&w, col) in ws.remainder().iter().zip(cols.remainder().chunks_exact(tl)) {
                axpy(acc, col, w);
            }
        }

        /// See [`super::matvec_lanes`].
        #[inline(never)]
        $(#[$tier])*
        pub(super) fn matvec_lanes(y: &mut [f32], wt: &[f32], x: &[f32]) {
            let r_dim = y.len();
            if r_dim == 0 {
                return;
            }
            y.fill(0.0);
            let mut xs = x.chunks_exact(2);
            let mut ws = wt.chunks_exact(2 * r_dim);
            for (xp, wp) in xs.by_ref().zip(ws.by_ref()) {
                let (w0, w1) = wp.split_at(r_dim);
                axpy2(y, w0, xp[0], w1, xp[1]);
            }
            for (&xv, wrow) in xs
                .remainder()
                .iter()
                .zip(ws.remainder().chunks_exact(r_dim))
            {
                axpy(y, wrow, xv);
            }
        }

        /// See [`super::matvec_t_sample`] — the loop body of
        /// `Matrix::matvec_transpose_into`, per sample.
        #[inline(never)]
        $(#[$tier])*
        pub(super) fn matvec_t_sample(y: &mut [f32], w: &[f32], x: &[f32]) {
            y.fill(0.0);
            let cols = y.len();
            if cols == 0 {
                return;
            }
            for (&xv, row) in x.iter().zip(w.chunks_exact(cols)) {
                // lint:allow(float-eq): exact-zero sparsity skip; backprop deltas are assigned 0.0 exactly, and a false negative only costs speed
                if xv == 0.0 {
                    continue;
                }
                for (yc, wv) in y.iter_mut().zip(row) {
                    *yc += wv * xv;
                }
            }
        }

        /// See [`super::outer_rows_sample`].
        #[inline(never)]
        $(#[$tier])*
        pub(super) fn outer_rows_sample(dw: &mut [f32], a_row: &[f32], b_row: &[f32], alpha: f32) {
            let cols = b_row.len();
            if cols == 0 {
                return;
            }
            for (&av, row) in a_row.iter().zip(dw.chunks_exact_mut(cols)) {
                // lint:allow(float-eq): exact-zero sparsity skip; ReLU masks and single-action TD errors assign 0.0 exactly, and a false negative only costs speed
                if av == 0.0 {
                    continue;
                }
                axpy(row, b_row, alpha * av);
            }
        }

        /// See [`super::outer_lanes_sample`]. Bit-identity of the transposed
        /// store layout and the moved sparsity skip: element `(r, c)`
        /// receives the identical f32 add sequence as the row-major form —
        /// one contribution per sample in sample order; where it is *stored*
        /// during accumulation does not change rounding, and skipped/added
        /// `±0.0` products of finite operands satisfy `x + ±0.0 == x` bitwise
        /// for every `x` an accumulation starting at `+0.0` can reach.
        #[inline(never)]
        $(#[$tier])*
        pub(super) fn outer_lanes_sample(dwt: &mut [f32], a_row: &[f32], b_row: &[f32], alpha: f32) {
            let rows = a_row.len();
            if rows == 0 {
                return;
            }
            for (&bv, drow) in b_row.iter().zip(dwt.chunks_exact_mut(rows)) {
                // lint:allow(float-eq): exact-zero sparsity skip, proven bit-identical above
                if bv == 0.0 {
                    continue;
                }
                axpy(drow, a_row, alpha * bv);
            }
        }

        /// See [`super::add_bias_rows`].
        #[inline(never)]
        $(#[$tier])*
        pub(super) fn add_bias_rows(out: &mut [f32], bias: &[f32]) {
            if bias.is_empty() {
                return;
            }
            for row in out.chunks_exact_mut(bias.len()) {
                for (o, &bv) in row.iter_mut().zip(bias) {
                    *o += bv;
                }
            }
        }

        /// See [`super::sum_rows`].
        #[inline(never)]
        $(#[$tier])*
        pub(super) fn sum_rows(acc: &mut [f32], rows: &[f32]) {
            if acc.is_empty() {
                return;
            }
            for row in rows.chunks_exact(acc.len()) {
                for (g, &d) in acc.iter_mut().zip(row) {
                    *g += d;
                }
            }
        }

        /// See [`super::relu`] — the `Activation::Relu` clamp over a flat
        /// batch.
        #[inline(never)]
        $(#[$tier])*
        pub(super) fn relu(xs: &mut [f32]) {
            for x in xs {
                if *x < 0.0 {
                    *x = 0.0;
                }
            }
        }

        /// See [`super::relu_mask`]. The select-then-multiply form compiles
        /// branchless, and `d * 0.0 = ±0.0` keeps `d`'s sign exactly like
        /// the per-sample chain rule.
        #[inline(never)]
        $(#[$tier])*
        pub(super) fn relu_mask(deltas: &mut [f32], ys: &[f32]) {
            for (d, &y) in deltas.iter_mut().zip(ys) {
                *d *= if y > 0.0 { 1.0 } else { 0.0 };
            }
        }

        /// See [`super::tanh_mask`].
        #[inline(never)]
        $(#[$tier])*
        pub(super) fn tanh_mask(deltas: &mut [f32], ys: &[f32]) {
            for (d, &y) in deltas.iter_mut().zip(ys) {
                *d *= 1.0 - y * y;
            }
        }

        /// See [`super::sigmoid_mask`].
        #[inline(never)]
        $(#[$tier])*
        pub(super) fn sigmoid_mask(deltas: &mut [f32], ys: &[f32]) {
            for (d, &y) in deltas.iter_mut().zip(ys) {
                *d *= y * (1.0 - y);
            }
        }
    };
}

/// The portable fallback: the original scalar kernels, moved here
/// verbatim from `matrix.rs`, `mlp.rs`, and `activation.rs`. These are
/// the reference semantics every vector backend must reproduce bitwise;
/// the f32 half is the same source the x86 tiers compile.
mod scalar {
    f32_kernels!();

    /// See [`super::gemm_i8_i32`] — the exact-i32 reference. Widening
    /// through `i32::from` (infallible), no `as` casts.
    #[inline(never)]
    pub(super) fn gemm_i8_i32(acc: &mut [i32], x: &[i8], w: &[i8], k_dim: usize) {
        if k_dim == 0 {
            acc.fill(0);
            return;
        }
        let mut out = acc.iter_mut();
        for xrow in x.chunks_exact(k_dim) {
            for wrow in w.chunks_exact(k_dim) {
                let mut s = 0i32;
                for (&xv, &wv) in xrow.iter().zip(wrow) {
                    s += i32::from(xv) * i32::from(wv);
                }
                if let Some(slot) = out.next() {
                    *slot = s;
                }
            }
        }
    }

    /// See [`super::gemm_i8p_lanes`] — the exact-i32 reference over the
    /// pair-interleaved layout. Unpacks each packed i32 back into its two
    /// i16 lanes with infallible conversions.
    #[inline(never)]
    pub(super) fn gemm_i8p_lanes(acc: &mut [i32], xpairs: &[i32], wt: &[i16], fan_out: usize) {
        acc.fill(0);
        for (p, &xp) in xpairs.iter().enumerate() {
            // lint:allow(lossy-cast): exact lane unpack of the 16-bit halves
            let x0 = i32::from((xp & 0xFFFF) as u16 as i16);
            // lint:allow(lossy-cast): exact lane unpack of the 16-bit halves
            let x1 = i32::from((xp >> 16) as u16 as i16);
            let row = &wt[p * fan_out * 2..(p + 1) * fan_out * 2];
            for (slot, wp) in acc.iter_mut().zip(row.chunks_exact(2)) {
                *slot += x0 * i32::from(wp[0]) + x1 * i32::from(wp[1]);
            }
        }
    }

    /// See [`super::max_abs_f32`].
    #[inline(never)]
    pub(super) fn max_abs_f32(x: &[f32]) -> f32 {
        let mut m = 0.0f32;
        for &v in x {
            let a = v.abs();
            if a > m {
                m = a;
            }
        }
        m
    }

    /// One element of [`super::quantize_i8`]: truncate, compare the exact
    /// fraction against ±0.5, clamp. Shared with the vector remainder
    /// loops so tails are identical by construction.
    #[inline]
    pub(super) fn quantize_one_i8(v: f32, inv: f32) -> i8 {
        let x = v * inv;
        // lint:allow(lossy-cast): saturating truncation is the documented rounding primitive
        let t = x as i32;
        let r = x - t as f32;
        let q = t + i32::from(r >= 0.5) - i32::from(r <= -0.5);
        // lint:allow(lossy-cast): clamped to the i8 range on the previous step
        q.clamp(-127, 127) as i8
    }

    /// See [`super::quantize_i8`].
    #[inline(never)]
    pub(super) fn quantize_i8(src: &[f32], dst: &mut [i8], inv: f32) {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = quantize_one_i8(v, inv);
        }
    }
}

/// The x86 f32 kernels, shared by the `Avx2` and `Avx512` tiers: the
/// scalar source compiled with AVX2 enabled (8-lane vectors).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    f32_kernels!(#[target_feature(enable = "avx2")]);
}

/// Shared scalar remainder for the pair-interleaved kernels: the
/// outputs past the last full vector, computed with the reference
/// expressions so tails match `mod scalar` by construction.
#[cfg(target_arch = "x86_64")]
fn lanes_tail_i8p(tail: &mut [i32], xpairs: &[i32], wt: &[i16], fan_out: usize, base: usize) {
    for (j, slot) in tail.iter_mut().enumerate() {
        let r = base + j;
        let mut s = 0i32;
        for (p, &xp) in xpairs.iter().enumerate() {
            // lint:allow(lossy-cast): exact lane unpack of the 16-bit halves
            let x0 = i32::from((xp & 0xFFFF) as u16 as i16);
            // lint:allow(lossy-cast): exact lane unpack of the 16-bit halves
            let x1 = i32::from((xp >> 16) as u16 as i16);
            let w0 = i32::from(wt[(p * fan_out + r) * 2]);
            let w1 = i32::from(wt[(p * fan_out + r) * 2 + 1]);
            s += x0 * w0 + x1 * w1;
        }
        *slot = s;
    }
}

/// Hand-written int8 dot-product kernels. Unlike the f32 kernels these
/// *do* reduce horizontally — exact i32 arithmetic makes any summation
/// order bit-identical (see the module docs), so the layout is chosen for
/// speed, not to mirror the scalar loop.
///
/// The AVX2 lane follows the `maddubs`-style two-step shape without the
/// u8×i8 saturation hazard: sign-extend 16 i8 to 16 i16
/// (`vpmovsxbw`), then `vpmaddwd` pairs into 8 exact i32 partials —
/// exact because i8-range products are ≤ 16129 and a pair sum ≤ 32258
/// can't overflow the *i32* madd output (i16 saturation inside madd only
/// occurs for both inputs = -32768, unreachable from i8). The AVX-512
/// lane doubles that to 32 bytes per `madd`; on VNNI hosts the dot
/// collapses further into `vpdpbusd`/`vpdpwssd` forms (see the module
/// docs for the offset-corrected exactness argument).
#[cfg(target_arch = "x86_64")]
mod i8x86 {
    use core::arch::x86_64::*;

    /// Exact i32 dot product of two i8 slices (overlapping prefix).
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher after runtime detection of AVX2; pointer
    // offsets stay below the `i + 16 <= n` slice bound.
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_dot_i8(x: &[i8], w: &[i8]) -> i32 {
        let n = x.len().min(w.len());
        let mut accv = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 16 <= n {
            let xv = _mm_loadu_si128(x.as_ptr().add(i).cast());
            let wv = _mm_loadu_si128(w.as_ptr().add(i).cast());
            let xw = _mm256_cvtepi8_epi16(xv);
            let ww = _mm256_cvtepi8_epi16(wv);
            accv = _mm256_add_epi32(accv, _mm256_madd_epi16(xw, ww));
            i += 16;
        }
        let lo = _mm256_castsi256_si128(accv);
        let hi = _mm256_extracti128_si256::<1>(accv);
        let s4 = _mm_add_epi32(lo, hi);
        let s2 = _mm_add_epi32(s4, _mm_unpackhi_epi64(s4, s4));
        let s1 = _mm_add_epi32(s2, _mm_shuffle_epi32::<1>(s2));
        let mut sum = _mm_cvtsi128_si32(s1);
        for (&xv, &wv) in x[i..n].iter().zip(&w[i..n]) {
            sum += i32::from(xv) * i32::from(wv);
        }
        sum
    }

    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher after runtime detection of AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_gemm_i8_i32(acc: &mut [i32], x: &[i8], w: &[i8], k_dim: usize) {
        if k_dim == 0 {
            acc.fill(0);
            return;
        }
        let mut out = acc.iter_mut();
        for xrow in x.chunks_exact(k_dim) {
            for wrow in w.chunks_exact(k_dim) {
                let s = avx2_dot_i8(xrow, wrow);
                if let Some(slot) = out.next() {
                    *slot = s;
                }
            }
        }
    }

    /// Exact i32 dot product, AVX-512BW lane: sign-extend 32 i8 to one
    /// zmm of i16 (`vpmovsxbw`), `vpmaddwd` into 16 exact i32 partials,
    /// lane-reduce — the AVX2 shape at twice the width.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher after runtime detection of
    // avx512f+avx512bw; pointer offsets stay below the `i + 32 <= n`
    // slice bound.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn avx512_dot_i8(x: &[i8], w: &[i8]) -> i32 {
        let n = x.len().min(w.len());
        let mut accv = _mm512_setzero_si512();
        let mut i = 0usize;
        while i + 32 <= n {
            let xv = _mm256_loadu_si256(x.as_ptr().add(i).cast());
            let wv = _mm256_loadu_si256(w.as_ptr().add(i).cast());
            let xw = _mm512_cvtepi8_epi16(xv);
            let ww = _mm512_cvtepi8_epi16(wv);
            accv = _mm512_add_epi32(accv, _mm512_madd_epi16(xw, ww));
            i += 32;
        }
        let mut sum = _mm512_reduce_add_epi32(accv);
        for (&xv, &wv) in x[i..n].iter().zip(&w[i..n]) {
            sum += i32::from(xv) * i32::from(wv);
        }
        sum
    }

    /// Exact i32 dot product, AVX-512 VNNI lane: one `vpdpbusd` per 64
    /// bytes, signed-exact via the offset trick. `vpdpbusd` multiplies
    /// *unsigned* bytes by signed bytes, so the x operand is biased by
    /// +128 (a sign-bit XOR): the accumulator then holds `Σ (x+128)·w =
    /// dot + 128·Σw`, and `Σw` over the same prefix is recovered from a
    /// `vpsadbw` running sum of the biased w bytes (`Σ(w+128) − 128·len`,
    /// exact in u64). The i32 accumulator lanes may wrap, but every step
    /// is arithmetic mod 2³² and the true dot is within i32 by the
    /// wrapper's `k ≤ 130_000` bound, so the corrected difference is the
    /// exact dot — see the module docs.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher after runtime detection of
    // avx512f+avx512bw and the `avx512_vnni` capability bit; pointer
    // offsets stay below the `i + 64 <= n` slice bound.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    unsafe fn avx512vnni_dot_i8(x: &[i8], w: &[i8]) -> i32 {
        let n = x.len().min(w.len());
        let sign = _mm512_set1_epi8(-128i8);
        let zero = _mm512_setzero_si512();
        let mut dp = _mm512_setzero_si512();
        let mut wu_acc = _mm512_setzero_si512();
        let mut chunks = 0i64;
        let mut i = 0usize;
        while i + 64 <= n {
            let xv = _mm512_loadu_si512(x.as_ptr().add(i).cast());
            let wv = _mm512_loadu_si512(w.as_ptr().add(i).cast());
            let xu = _mm512_xor_si512(xv, sign);
            dp = _mm512_dpbusd_epi32(dp, xu, wv);
            let wu = _mm512_xor_si512(wv, sign);
            wu_acc = _mm512_add_epi64(wu_acc, _mm512_sad_epu8(wu, zero));
            chunks += 1;
            i += 64;
        }
        let dpsum = _mm512_reduce_add_epi32(dp);
        // Σ(w+128) over the vector prefix, exact in i64; the correction
        // `128·Σw` is then applied mod 2³² (the truncation below is the
        // intended modular step, not a range assumption).
        let wu_total = _mm512_reduce_add_epi64(wu_acc);
        let w_signed_sum = wu_total - 128 * 64 * chunks;
        // lint:allow(lossy-cast): intentional mod-2^32 truncation of the correction term
        let corr = (128i64 * w_signed_sum) as i32;
        let mut sum = dpsum.wrapping_sub(corr);
        for (&xv, &wv) in x[i..n].iter().zip(&w[i..n]) {
            sum += i32::from(xv) * i32::from(wv);
        }
        sum
    }

    /// Exact i32 dot product, AVX-VNNI (VEX) lane: the AVX2 shape with
    /// `vpdpwssd` fusing the `madd`+`add` pair into one instruction —
    /// identical exact i32 lane sums, one fewer op per 16 bytes.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher after runtime detection of AVX2 and the
    // `avx_vnni` capability bit; pointer offsets stay below the
    // `i + 16 <= n` slice bound.
    #[target_feature(enable = "avx2,avxvnni")]
    unsafe fn avxvnni_dot_i8(x: &[i8], w: &[i8]) -> i32 {
        let n = x.len().min(w.len());
        let mut accv = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 16 <= n {
            let xv = _mm_loadu_si128(x.as_ptr().add(i).cast());
            let wv = _mm_loadu_si128(w.as_ptr().add(i).cast());
            let xw = _mm256_cvtepi8_epi16(xv);
            let ww = _mm256_cvtepi8_epi16(wv);
            accv = _mm256_dpwssd_avx_epi32(accv, xw, ww);
            i += 16;
        }
        let lo = _mm256_castsi256_si128(accv);
        let hi = _mm256_extracti128_si256::<1>(accv);
        let s4 = _mm_add_epi32(lo, hi);
        let s2 = _mm_add_epi32(s4, _mm_unpackhi_epi64(s4, s4));
        let s1 = _mm_add_epi32(s2, _mm_shuffle_epi32::<1>(s2));
        let mut sum = _mm_cvtsi128_si32(s1);
        for (&xv, &wv) in x[i..n].iter().zip(&w[i..n]) {
            sum += i32::from(xv) * i32::from(wv);
        }
        sum
    }

    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher after runtime detection of
    // avx512f+avx512bw.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn avx512_gemm_i8_i32(acc: &mut [i32], x: &[i8], w: &[i8], k_dim: usize) {
        if k_dim == 0 {
            acc.fill(0);
            return;
        }
        let mut out = acc.iter_mut();
        for xrow in x.chunks_exact(k_dim) {
            for wrow in w.chunks_exact(k_dim) {
                let s = avx512_dot_i8(xrow, wrow);
                if let Some(slot) = out.next() {
                    *slot = s;
                }
            }
        }
    }

    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher after runtime detection of
    // avx512f+avx512bw and the `avx512_vnni` capability bit.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) unsafe fn avx512vnni_gemm_i8_i32(acc: &mut [i32], x: &[i8], w: &[i8], k_dim: usize) {
        if k_dim == 0 {
            acc.fill(0);
            return;
        }
        let mut out = acc.iter_mut();
        for xrow in x.chunks_exact(k_dim) {
            for wrow in w.chunks_exact(k_dim) {
                let s = avx512vnni_dot_i8(xrow, wrow);
                if let Some(slot) = out.next() {
                    *slot = s;
                }
            }
        }
    }

    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher after runtime detection of AVX2 and the
    // `avx_vnni` capability bit.
    #[target_feature(enable = "avx2,avxvnni")]
    pub(super) unsafe fn avxvnni_gemm_i8_i32(acc: &mut [i32], x: &[i8], w: &[i8], k_dim: usize) {
        if k_dim == 0 {
            acc.fill(0);
            return;
        }
        let mut out = acc.iter_mut();
        for xrow in x.chunks_exact(k_dim) {
            for wrow in w.chunks_exact(k_dim) {
                let s = avxvnni_dot_i8(xrow, wrow);
                if let Some(slot) = out.next() {
                    *slot = s;
                }
            }
        }
    }

    /// Pair-interleaved matvec, AVX2 lane: broadcast one packed input
    /// pair, `pmaddwd` it against eight consecutive outputs' weight pairs
    /// per load. Each `madd` lane is one exact pair-sum (≤ 2·127²), so
    /// the i32 adds are the same integers the scalar reference computes.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8p_lanes` dispatcher after runtime detection of AVX2; the
    // wrapper's length asserts guarantee every pointer offset below is
    // in bounds.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_gemm_i8p_lanes(
        acc: &mut [i32],
        xpairs: &[i32],
        wt: &[i16],
        fan_out: usize,
    ) {
        let mut r = 0usize;
        while r + 8 <= fan_out {
            let mut accv = _mm256_setzero_si256();
            for (p, &xp) in xpairs.iter().enumerate() {
                let xv = _mm256_set1_epi32(xp);
                let wv = _mm256_loadu_si256(wt.as_ptr().add((p * fan_out + r) * 2).cast());
                accv = _mm256_add_epi32(accv, _mm256_madd_epi16(xv, wv));
            }
            _mm256_storeu_si256(acc.as_mut_ptr().add(r).cast(), accv);
            r += 8;
        }
        super::lanes_tail_i8p(&mut acc[r..], xpairs, wt, fan_out, r);
    }

    /// Pair-interleaved matvec, AVX-512BW lane: identical structure
    /// 16-wide — one `madd` covers sixteen consecutive outputs' weight
    /// pairs.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8p_lanes` dispatcher after runtime detection of
    // avx512f+avx512bw; the wrapper's length asserts keep every offset
    // in bounds.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn avx512_gemm_i8p_lanes(
        acc: &mut [i32],
        xpairs: &[i32],
        wt: &[i16],
        fan_out: usize,
    ) {
        let mut r = 0usize;
        while r + 16 <= fan_out {
            let mut accv = _mm512_setzero_si512();
            for (p, &xp) in xpairs.iter().enumerate() {
                let xv = _mm512_set1_epi32(xp);
                let wv = _mm512_loadu_si512(wt.as_ptr().add((p * fan_out + r) * 2).cast());
                accv = _mm512_add_epi32(accv, _mm512_madd_epi16(xv, wv));
            }
            _mm512_storeu_si512(acc.as_mut_ptr().add(r).cast(), accv);
            r += 16;
        }
        super::lanes_tail_i8p(&mut acc[r..], xpairs, wt, fan_out, r);
    }

    /// Pair-interleaved matvec, AVX-512 VNNI lane: `vpdpwssd` fuses the
    /// `madd`+`add` pair into one instruction per sixteen outputs — the
    /// i16-pair layout is exactly the shape VNNI's word form consumes.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8p_lanes` dispatcher after runtime detection of
    // avx512f+avx512bw and the `avx512_vnni` capability bit; the
    // wrapper's length asserts keep every offset in bounds.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) unsafe fn avx512vnni_gemm_i8p_lanes(
        acc: &mut [i32],
        xpairs: &[i32],
        wt: &[i16],
        fan_out: usize,
    ) {
        let mut r = 0usize;
        while r + 16 <= fan_out {
            let mut accv = _mm512_setzero_si512();
            for (p, &xp) in xpairs.iter().enumerate() {
                let xv = _mm512_set1_epi32(xp);
                let wv = _mm512_loadu_si512(wt.as_ptr().add((p * fan_out + r) * 2).cast());
                accv = _mm512_dpwssd_epi32(accv, xv, wv);
            }
            _mm512_storeu_si512(acc.as_mut_ptr().add(r).cast(), accv);
            r += 16;
        }
        super::lanes_tail_i8p(&mut acc[r..], xpairs, wt, fan_out, r);
    }

    /// Pair-interleaved matvec, AVX-VNNI (VEX) lane: the AVX2 structure
    /// with the fused `vpdpwssd` accumulate.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8p_lanes` dispatcher after runtime detection of AVX2 and
    // the `avx_vnni` capability bit; the wrapper's length asserts keep
    // every offset in bounds.
    #[target_feature(enable = "avx2,avxvnni")]
    pub(super) unsafe fn avxvnni_gemm_i8p_lanes(
        acc: &mut [i32],
        xpairs: &[i32],
        wt: &[i16],
        fan_out: usize,
    ) {
        let mut r = 0usize;
        while r + 8 <= fan_out {
            let mut accv = _mm256_setzero_si256();
            for (p, &xp) in xpairs.iter().enumerate() {
                let xv = _mm256_set1_epi32(xp);
                let wv = _mm256_loadu_si256(wt.as_ptr().add((p * fan_out + r) * 2).cast());
                accv = _mm256_dpwssd_avx_epi32(accv, xv, wv);
            }
            _mm256_storeu_si256(acc.as_mut_ptr().add(r).cast(), accv);
            r += 8;
        }
        super::lanes_tail_i8p(&mut acc[r..], xpairs, wt, fan_out, r);
    }

    /// Max-|x| fold, AVX-512 lane: bitwise abs (`_mm512_abs_ps` clears
    /// the sign bit, exactly like the and-mask below), `maxps` fold,
    /// order-free horizontal reduce, scalar tail.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `max_abs_f32` dispatcher after runtime detection of
    // avx512f+avx512bw; offsets stay below the `i + 16 <= n` bound.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn avx512_max_abs_f32(x: &[f32]) -> f32 {
        let n = x.len();
        let mut mv = _mm512_setzero_ps();
        let mut i = 0usize;
        while i + 16 <= n {
            let v = _mm512_abs_ps(_mm512_loadu_ps(x.as_ptr().add(i)));
            mv = _mm512_max_ps(mv, v);
            i += 16;
        }
        let mut m = _mm512_reduce_max_ps(mv);
        for &v in &x[i..] {
            let a = v.abs();
            if a > m {
                m = a;
            }
        }
        m
    }

    /// Elementwise quantize, AVX-512 lane: same structure 16-wide; the
    /// ±0.5 compares land in opmask registers, so the adjustment uses
    /// mask-predicated add/sub of −1 instead of subtracting an all-ones
    /// vector mask — the resulting i32s are identical. After the
    /// [-127, 127] clamp the saturating narrow (`vpmovsdb`) is a plain
    /// truncation.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `quantize_i8` dispatcher after runtime detection of
    // avx512f+avx512bw; the wrapper asserts `src.len() == dst.len()` and
    // offsets stay below the `i + 16 <= n` bound.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn avx512_quantize_i8(src: &[f32], dst: &mut [i8], inv: f32) {
        let n = src.len();
        let invv = _mm512_set1_ps(inv);
        let half = _mm512_set1_ps(0.5);
        let nhalf = _mm512_set1_ps(-0.5);
        let lo = _mm512_set1_epi32(-127);
        let hi = _mm512_set1_epi32(127);
        let negone = _mm512_set1_epi32(-1);
        let mut i = 0usize;
        while i + 16 <= n {
            let x = _mm512_mul_ps(_mm512_loadu_ps(src.as_ptr().add(i)), invv);
            let t = _mm512_cvttps_epi32(x);
            let r = _mm512_sub_ps(x, _mm512_cvtepi32_ps(t));
            let ge = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(r, half);
            let le = _mm512_cmp_ps_mask::<_CMP_LE_OQ>(r, nhalf);
            // Subtracting -1 where `ge` adds 1; adding -1 where `le`
            // subtracts 1 — the round-half-away adjustment.
            let q = _mm512_mask_sub_epi32(t, ge, t, negone);
            let q = _mm512_mask_add_epi32(q, le, q, negone);
            let q = _mm512_max_epi32(lo, _mm512_min_epi32(hi, q));
            let b = _mm512_cvtsepi32_epi8(q);
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), b);
            i += 16;
        }
        for (d, &v) in dst[i..].iter_mut().zip(&src[i..]) {
            *d = super::scalar::quantize_one_i8(v, inv);
        }
    }

    /// Max-|x| fold, AVX2 lane: abs via sign-bit mask, `maxps` fold,
    /// horizontal max, scalar tail. `max` is order-free over finite
    /// floats, so the tree reduction equals the scalar left fold.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `max_abs_f32` dispatcher after runtime detection of AVX2; offsets
    // stay below the `i + 8 <= n` bound.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_max_abs_f32(x: &[f32]) -> f32 {
        let n = x.len();
        let mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
        let mut mv = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= n {
            let v = _mm256_and_ps(mask, _mm256_loadu_ps(x.as_ptr().add(i)));
            mv = _mm256_max_ps(mv, v);
            i += 8;
        }
        let lo = _mm256_castps256_ps128(mv);
        let hi = _mm256_extractf128_ps::<1>(mv);
        let m4 = _mm_max_ps(lo, hi);
        let m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
        let m1 = _mm_max_ss(m2, _mm_shuffle_ps::<1>(m2, m2));
        let mut m = _mm_cvtss_f32(m1);
        for &v in &x[i..] {
            let a = v.abs();
            if a > m {
                m = a;
            }
        }
        m
    }

    /// Elementwise quantize, AVX2 lane: multiply by the reciprocal scale,
    /// truncate (`cvttps2dq`), recover the exact fraction, adjust by the
    /// ±0.5 compares (`_OQ`: false on NaN, matching the scalar compare),
    /// clamp in i32, then pack 8 lanes down to i8.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `quantize_i8` dispatcher after runtime detection of AVX2; the
    // wrapper asserts `src.len() == dst.len()` and offsets stay below the
    // `i + 8 <= n` bound.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_quantize_i8(src: &[f32], dst: &mut [i8], inv: f32) {
        let n = src.len();
        let invv = _mm256_set1_ps(inv);
        let half = _mm256_set1_ps(0.5);
        let nhalf = _mm256_set1_ps(-0.5);
        let lo = _mm256_set1_epi32(-127);
        let hi = _mm256_set1_epi32(127);
        let mut i = 0usize;
        while i + 8 <= n {
            let x = _mm256_mul_ps(_mm256_loadu_ps(src.as_ptr().add(i)), invv);
            let t = _mm256_cvttps_epi32(x);
            let r = _mm256_sub_ps(x, _mm256_cvtepi32_ps(t));
            let ge = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GE_OQ>(r, half));
            let le = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(r, nhalf));
            // Masks are all-ones (-1) where true: subtracting `ge` adds 1,
            // adding `le` subtracts 1 — the round-half-away adjustment.
            let q = _mm256_add_epi32(_mm256_sub_epi32(t, ge), le);
            let q = _mm256_max_epi32(lo, _mm256_min_epi32(hi, q));
            let qlo = _mm256_castsi256_si128(q);
            let qhi = _mm256_extracti128_si256::<1>(q);
            let w = _mm_packs_epi32(qlo, qhi);
            let b = _mm_packs_epi16(w, w);
            _mm_storel_epi64(dst.as_mut_ptr().add(i).cast(), b);
            i += 8;
        }
        for (d, &v) in dst[i..].iter_mut().zip(&src[i..]) {
            *d = super::scalar::quantize_one_i8(v, inv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudorandom values with exact zeros and negative
    /// zeros sprinkled in (the cases the sparsity skips and sign rules
    /// care about).
    fn vals(n: usize, seed: u32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(2654435761).max(3);
        (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                if i % 7 == 3 {
                    0.0
                } else if i % 11 == 5 {
                    -0.0
                } else {
                    (s % 2000) as f32 / 100.0 - 10.0
                }
            })
            .collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Lengths that exercise full vectors and every tail size for the
    /// 8-wide f32 kernels and the 8- and 16-wide int8 helpers.
    const LENS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 67];

    fn non_scalar() -> impl Iterator<Item = KernelBackend> {
        available()
            .iter()
            .copied()
            .filter(|&b| b != KernelBackend::Scalar)
    }

    #[test]
    fn name_parse_roundtrip() {
        for b in KernelBackend::ALL {
            assert_eq!(KernelBackend::parse(b.name()), Some(b));
            assert_eq!(KernelBackend::parse(&b.name().to_uppercase()), Some(b));
            assert_eq!(format!("{b}"), b.name());
        }
        assert_eq!(KernelBackend::parse("avx1024"), None);
        assert_eq!(KernelBackend::parse(""), None);
    }

    #[test]
    fn all_is_ordered_widest_first_and_ends_with_scalar() {
        assert_eq!(KernelBackend::ALL.last(), Some(&KernelBackend::Scalar));
        assert!(KernelBackend::Scalar.is_available());
        // `available()` preserves ALL's preference order.
        let avail = available();
        let order: Vec<usize> = avail
            .iter()
            .map(|b| KernelBackend::ALL.iter().position(|a| a == b).unwrap())
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "order={order:?}");
    }

    #[test]
    fn available_ends_with_scalar_and_contains_dispatched() {
        let list = available();
        assert_eq!(list.last(), Some(&KernelBackend::Scalar));
        assert!(list.contains(&dispatched()));
        assert!(list.iter().all(|b| b.is_available()));
    }

    #[test]
    fn force_guard_nests_and_restores() {
        assert_eq!(active(), dispatched());
        {
            let _outer = force(KernelBackend::Scalar);
            assert_eq!(active(), KernelBackend::Scalar);
            {
                let best = available()[0];
                let _inner = force(best);
                assert_eq!(active(), best);
            }
            assert_eq!(active(), KernelBackend::Scalar);
        }
        assert_eq!(active(), dispatched());
    }

    #[test]
    fn gemm_and_matvec_lanes_match_scalar_bitwise() {
        for be in non_scalar() {
            for &tl in LENS {
                for k_dim in [0usize, 1, 2, 3, 5, 8] {
                    let wrow = vals(k_dim, 1);
                    let xt = vals(k_dim * tl, 2);
                    let mut want = vals(tl, 3);
                    let mut got = want.clone();
                    scalar::gemm_lanes(&mut want, &wrow, &xt);
                    super::gemm_lanes(be, &mut got, &wrow, &xt);
                    assert_eq!(bits(&got), bits(&want), "{be} gemm tl={tl} k={k_dim}");

                    let wt = vals(k_dim * tl, 4);
                    let x = vals(k_dim, 5);
                    let mut want = vec![9.0f32; tl];
                    let mut got = want.clone();
                    scalar::matvec_lanes(&mut want, &wt, &x);
                    super::matvec_lanes(be, &mut got, &wt, &x);
                    assert_eq!(bits(&got), bits(&want), "{be} matvec tl={tl} k={k_dim}");
                }
            }
        }
    }

    #[test]
    fn matvec_t_and_outer_samples_match_scalar_bitwise() {
        for be in non_scalar() {
            for &cols in LENS {
                for rows in [0usize, 1, 2, 3, 5, 8] {
                    let w = vals(rows * cols, 6);
                    let x = vals(rows, 7); // includes exact zeros → skip path
                    let mut want = vec![1.0f32; cols];
                    let mut got = want.clone();
                    scalar::matvec_t_sample(&mut want, &w, &x);
                    super::matvec_t_sample(be, &mut got, &w, &x);
                    assert_eq!(bits(&got), bits(&want), "{be} matvec_t {rows}x{cols}");

                    let a = vals(rows, 8);
                    let b = vals(cols, 9);
                    let mut want = vals(rows * cols, 10);
                    let mut got = want.clone();
                    scalar::outer_rows_sample(&mut want, &a, &b, 0.37);
                    super::outer_rows_sample(be, &mut got, &a, &b, 0.37);
                    assert_eq!(bits(&got), bits(&want), "{be} outer_rows {rows}x{cols}");

                    let mut want = vals(rows * cols, 11);
                    let mut got = want.clone();
                    scalar::outer_lanes_sample(&mut want, &a, &b, -1.1);
                    super::outer_lanes_sample(be, &mut got, &a, &b, -1.1);
                    assert_eq!(bits(&got), bits(&want), "{be} outer_lanes {rows}x{cols}");
                }
            }
        }
    }

    #[test]
    fn bias_and_row_sums_match_scalar_bitwise() {
        for be in non_scalar() {
            for &n in LENS {
                for samples in [0usize, 1, 3, 4] {
                    let bias = vals(n, 12);
                    let mut want = vals(samples * n, 13);
                    let mut got = want.clone();
                    scalar::add_bias_rows(&mut want, &bias);
                    super::add_bias_rows(be, &mut got, &bias);
                    assert_eq!(bits(&got), bits(&want), "{be} bias n={n} s={samples}");

                    let rows = vals(samples * n, 14);
                    let mut want = vals(n, 15);
                    let mut got = want.clone();
                    scalar::sum_rows(&mut want, &rows);
                    super::sum_rows(be, &mut got, &rows);
                    assert_eq!(bits(&got), bits(&want), "{be} sums n={n} s={samples}");
                }
            }
        }
    }

    #[test]
    fn activations_match_scalar_bitwise_including_signed_zero_and_nan() {
        for be in non_scalar() {
            for &n in LENS {
                let mut xs = vals(n, 16);
                if n > 2 {
                    xs[1] = f32::from_bits(0x7fc0_1234); // NaN with payload
                }
                let mut want = xs.clone();
                let mut got = xs;
                scalar::relu(&mut want);
                super::relu(be, &mut got);
                assert_eq!(bits(&got), bits(&want), "{be} relu n={n}");

                let ys = vals(n, 17);
                let mut want = vals(n, 18);
                let mut got = want.clone();
                scalar::relu_mask(&mut want, &ys);
                super::relu_mask(be, &mut got, &ys);
                assert_eq!(bits(&got), bits(&want), "{be} relu_mask n={n}");

                let mut want = vals(n, 19);
                let mut got = want.clone();
                scalar::tanh_mask(&mut want, &ys);
                super::tanh_mask(be, &mut got, &ys);
                assert_eq!(bits(&got), bits(&want), "{be} tanh_mask n={n}");

                let mut want = vals(n, 20);
                let mut got = want.clone();
                scalar::sigmoid_mask(&mut want, &ys);
                super::sigmoid_mask(be, &mut got, &ys);
                assert_eq!(bits(&got), bits(&want), "{be} sigmoid_mask n={n}");
            }
        }
    }

    #[test]
    fn relu_keeps_negative_zero_and_clamps_to_positive_zero() {
        for &be in available() {
            let mut xs = vec![-0.0f32, -3.5, 0.0, 2.0, -1e-30, f32::NAN];
            super::relu(be, &mut xs);
            assert_eq!(xs[0].to_bits(), (-0.0f32).to_bits(), "{be}: -0.0 kept");
            assert_eq!(xs[1].to_bits(), 0.0f32.to_bits(), "{be}: clamp is +0.0");
            assert_eq!(xs[4].to_bits(), 0.0f32.to_bits(), "{be}: tiny negative");
            assert!(xs[5].is_nan(), "{be}: NaN preserved");
        }
    }

    /// Deterministic pseudorandom i8 values covering the full ±127 range
    /// (and never -128 — the quantizer's symmetric range).
    fn i8_vals(n: usize, seed: u32) -> Vec<i8> {
        let mut s = seed.wrapping_mul(2654435761).max(3);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                ((s % 255) as i16 - 127) as i8
            })
            .collect()
    }

    #[test]
    fn gemm_i8_matches_scalar_exactly_across_backends() {
        // Tail sizes around the 16-wide vector body, plus degenerate dims.
        for be in non_scalar() {
            for &k in &[0usize, 1, 2, 7, 15, 16, 17, 31, 32, 33, 48, 100] {
                for (rows, cols) in [(0usize, 3usize), (1, 1), (2, 3), (3, 5), (4, 8)] {
                    let x = i8_vals(rows * k, 21);
                    let w = i8_vals(cols * k, 22);
                    let mut want = vec![7i32; rows * cols];
                    let mut got = want.clone();
                    scalar::gemm_i8_i32(&mut want, &x, &w, k);
                    super::gemm_i8_i32(be, &mut got, &x, &w, k);
                    assert_eq!(got, want, "{be} i8 gemm {rows}x{cols} k={k}");
                }
            }
        }
    }

    #[test]
    fn gemm_i8_extreme_magnitudes_do_not_overflow() {
        // All-|127| operands at a length big enough to cross the vector
        // body: partial sums reach k·127² and must remain exact.
        let k = 1024usize;
        let x = vec![127i8; k];
        let w = vec![-127i8; k];
        let mut want = vec![0i32; 1];
        scalar::gemm_i8_i32(&mut want, &x, &w, k);
        assert_eq!(want[0], -(k as i32) * 127 * 127);
        for be in non_scalar() {
            let mut got = vec![0i32; 1];
            super::gemm_i8_i32(be, &mut got, &x, &w, k);
            assert_eq!(got, want, "{be} extreme i8 gemm");
        }
    }

    #[test]
    fn pack_i8_pairs_round_trips_and_pads_odd_tails() {
        let x = i8_vals(17, 31);
        let mut packed = Vec::new();
        super::pack_i8_pairs(&x, &mut packed);
        assert_eq!(packed.len(), 9);
        for (p, &xp) in packed.iter().enumerate() {
            let x0 = (xp & 0xFFFF) as u16 as i16;
            let x1 = (xp >> 16) as u16 as i16;
            assert_eq!(x0, i16::from(x[2 * p]));
            let want1 = x.get(2 * p + 1).copied().map_or(0, i16::from);
            assert_eq!(x1, want1, "pair {p}");
        }
        // Reuse clears previous contents.
        super::pack_i8_pairs(&[], &mut packed);
        assert!(packed.is_empty());
    }

    #[test]
    fn gemm_i8p_lanes_matches_scalar_exactly_across_backends() {
        // fan_out values around the 8- and 16-wide vector bodies, and
        // fan_in values crossing the odd-tail padding.
        for be in non_scalar() {
            for &k in &[0usize, 1, 2, 3, 4, 5, 8, 64] {
                for &fan_out in &[0usize, 1, 3, 4, 5, 7, 8, 9, 16, 17, 33, 64] {
                    let x = i8_vals(k, 41);
                    let mut xpairs = Vec::new();
                    super::pack_i8_pairs(&x, &mut xpairs);
                    let wt = i8_vals(xpairs.len() * fan_out * 2, 42)
                        .into_iter()
                        .map(i16::from)
                        .collect::<Vec<_>>();
                    let mut want = vec![7i32; fan_out];
                    let mut got = vec![-7i32; fan_out];
                    scalar::gemm_i8p_lanes(&mut want, &xpairs, &wt, fan_out);
                    super::gemm_i8p_lanes(be, &mut got, &xpairs, &wt, fan_out);
                    assert_eq!(got, want, "{be} i8p lanes k={k} fan_out={fan_out}");
                }
            }
        }
    }

    #[test]
    fn gemm_i8p_lanes_extreme_magnitudes_stay_exact() {
        // All-|127| pairs at the documented pair bound's working size:
        // per-output sums reach pairs·2·127² and must remain exact i32.
        let pairs = 32usize;
        let fan_out = 9usize;
        let xpairs = vec![
            {
                let b = i32::from(127u16);
                b | (b << 16)
            };
            pairs
        ];
        let wt = vec![-127i16; pairs * fan_out * 2];
        let mut want = vec![0i32; fan_out];
        scalar::gemm_i8p_lanes(&mut want, &xpairs, &wt, fan_out);
        assert!(want.iter().all(|&v| v == -(pairs as i32) * 2 * 127 * 127));
        for be in non_scalar() {
            let mut got = vec![0i32; fan_out];
            super::gemm_i8p_lanes(be, &mut got, &xpairs, &wt, fan_out);
            assert_eq!(got, want, "{be} extreme i8p lanes");
        }
    }

    /// The backend dispatchers pick the VNNI instruction form whenever
    /// the host has it, which would leave the plain madd forms untested
    /// on VNNI hosts (and vice versa). Pin every compiled-in x86 int8
    /// form directly against scalar, gated on its own ISA bits.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn every_x86_int8_form_matches_scalar_exactly() {
        type GemmFn = unsafe fn(&mut [i32], &[i8], &[i8], usize);
        type LanesFn = unsafe fn(&mut [i32], &[i32], &[i16], usize);
        let caps = capabilities();
        let avx512 = KernelBackend::Avx512.is_available();
        let gemms: &[(&str, bool, GemmFn)] = &[
            ("avx2", caps.avx2, i8x86::avx2_gemm_i8_i32),
            (
                "avx-vnni",
                caps.avx2 && caps.avx_vnni,
                i8x86::avxvnni_gemm_i8_i32,
            ),
            ("avx512", avx512, i8x86::avx512_gemm_i8_i32),
            (
                "avx512-vnni",
                avx512 && caps.avx512_vnni,
                i8x86::avx512vnni_gemm_i8_i32,
            ),
        ];
        for &(label, ok, f) in gemms {
            if !ok {
                continue;
            }
            for &k in &[0usize, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 129] {
                let x = i8_vals(2 * k, 71);
                let w = i8_vals(3 * k, 72);
                let mut want = vec![7i32; 6];
                let mut got = want.clone();
                scalar::gemm_i8_i32(&mut want, &x, &w, k);
                // SAFETY: gated on the runtime ISA bits checked above.
                unsafe { f(&mut got, &x, &w, k) };
                assert_eq!(got, want, "{label} gemm form k={k}");
            }
        }
        let lanes: &[(&str, bool, LanesFn)] = &[
            ("avx2", caps.avx2, i8x86::avx2_gemm_i8p_lanes),
            (
                "avx-vnni",
                caps.avx2 && caps.avx_vnni,
                i8x86::avxvnni_gemm_i8p_lanes,
            ),
            ("avx512", avx512, i8x86::avx512_gemm_i8p_lanes),
            (
                "avx512-vnni",
                avx512 && caps.avx512_vnni,
                i8x86::avx512vnni_gemm_i8p_lanes,
            ),
        ];
        for &(label, ok, f) in lanes {
            if !ok {
                continue;
            }
            for &k in &[0usize, 1, 4, 64, 130] {
                for &fan_out in &[0usize, 1, 7, 8, 15, 16, 17, 33] {
                    let x = i8_vals(k, 73);
                    let mut xpairs = Vec::new();
                    super::pack_i8_pairs(&x, &mut xpairs);
                    let wt = i8_vals(xpairs.len() * fan_out * 2, 74)
                        .into_iter()
                        .map(i16::from)
                        .collect::<Vec<_>>();
                    let mut want = vec![7i32; fan_out];
                    let mut got = vec![-7i32; fan_out];
                    scalar::gemm_i8p_lanes(&mut want, &xpairs, &wt, fan_out);
                    // SAFETY: gated on the runtime ISA bits checked above.
                    unsafe { f(&mut got, &xpairs, &wt, fan_out) };
                    assert_eq!(got, want, "{label} lanes form k={k} fan_out={fan_out}");
                }
            }
        }
    }

    /// The vpdpbusd offset-corrected form relies on mod-2³² wrapping:
    /// hammer it with the extreme magnitudes the k ≤ 130_000 bound
    /// allows, where the biased intermediate genuinely wraps i32.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn vpdpbusd_offset_correction_survives_wrapping() {
        let caps = capabilities();
        if !(KernelBackend::Avx512.is_available() && caps.avx512_vnni) {
            return;
        }
        for &k in &[4096usize, 65_536, 130_000] {
            for (xv, wv) in [(127i8, 127i8), (127, -127), (-127, 127), (-127, -127)] {
                let x = vec![xv; k];
                let w = vec![wv; k];
                let mut want = vec![0i32; 1];
                let mut got = vec![0i32; 1];
                scalar::gemm_i8_i32(&mut want, &x, &w, k);
                // SAFETY: gated on avx512f+bw+vnni runtime detection above.
                unsafe { i8x86::avx512vnni_gemm_i8_i32(&mut got, &x, &w, k) };
                assert_eq!(got, want, "vnni wrap k={k} x={xv} w={wv}");
            }
        }
    }

    #[test]
    fn max_abs_matches_scalar_across_backends() {
        for be in non_scalar() {
            for &n in LENS {
                let x = vals(n, 51);
                let want = scalar::max_abs_f32(&x);
                let got = super::max_abs_f32(be, &x);
                assert_eq!(got.to_bits(), want.to_bits(), "{be} max_abs n={n}");
            }
        }
        assert_eq!(scalar::max_abs_f32(&[]), 0.0);
    }

    #[test]
    fn quantize_i8_matches_scalar_across_backends() {
        // Exact ties (x.5 products), clamp-range extremes, and negative
        // zeros all land in `vals`-derived rows once scaled.
        for be in non_scalar() {
            for &n in LENS {
                let x = vals(n, 61);
                for &inv in &[12.7f32, 0.5, 1.0, 127.0 / 10.0] {
                    let mut want = vec![3i8; n];
                    let mut got = vec![-3i8; n];
                    scalar::quantize_i8(&x, &mut want, inv);
                    super::quantize_i8(be, &x, &mut got, inv);
                    assert_eq!(got, want, "{be} quantize n={n} inv={inv}");
                }
            }
        }
    }

    #[test]
    fn quantize_rounds_half_away_and_clamps() {
        // Hand-picked points: exact ties both signs, the clamp edges, and
        // the largest f32 strictly below 0.5 (the naive +0.5 trick fails
        // there; the fraction-compare formulation must not).
        let below_half = 0.5f32 - 2.0f32.powi(-25);
        let src = [0.5f32, -0.5, 1.5, -2.5, 126.6, -300.0, below_half, 0.0];
        let want: [i8; 8] = [1, -1, 2, -3, 127, -127, 0, 0];
        for &be in available() {
            let mut got = [0i8; 8];
            super::quantize_i8(be, &src, &mut got, 1.0);
            assert_eq!(got, want, "{be} rounding/clamp table");
        }
    }

    #[test]
    fn capabilities_are_consistent_with_dispatch() {
        let caps = capabilities();
        // The dispatched backends must agree with the reported bits.
        assert_eq!(caps.avx2, KernelBackend::Avx2.is_available());
        assert_eq!(
            caps.avx2 && caps.avx512f && caps.avx512bw,
            KernelBackend::Avx512.is_available()
        );
        // VNNI forms imply the matching OS-enabled vector state chain.
        if caps.avx512_vnni {
            assert!(caps.avx512f, "avx512-vnni without avx512f state");
        }
        let summary = caps.summary();
        assert!(!summary.is_empty());
        if caps.avx2 {
            assert!(summary.contains("avx2"), "summary={summary}");
        }
        // Detection is cached and stable.
        assert_eq!(capabilities(), caps);
    }
}
