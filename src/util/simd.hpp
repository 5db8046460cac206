#pragma once
/// \file simd.hpp
/// Runtime-dispatched SIMD row kernels for the training hot loops.
///
/// Three implementations of every kernel — portable scalar, AVX2 and
/// AVX-512F — compiled side by side in one TU via per-function target
/// attributes and selected **once** per process from `PLEXUS_SIMD`
/// (`auto|avx512|avx2|scalar`, default auto = best the CPU supports,
/// logged at first use).
///
/// The GEMM and SpMM kernels are register-blocked: they work on (i, j)
/// output tiles that stay in registers across the whole reduction loop
/// (GEMM: 4 rows x up to 64 columns on AVX-512; SpMM: one row, up to 128
/// columns per pass), so C is loaded and stored once per tile, not once per
/// reduction step. Blocking changes only which elements are in flight
/// together, never the per-element order: every output element sees exactly
/// the serial sequence of roundings, `c = c + v * b` as one multiply and one
/// add (never an FMA; the whole tree compiles with `-ffp-contract=off` so the
/// scalar reference cannot silently contract either) with the reduction
/// index ascending. All targets are therefore **bitwise-identical**. The
/// columns that do not fill a vector use masked lanes, so any feature width
/// matches `spmm_rows_serial` exactly. `PLEXUS_SIMD` is a pure performance
/// knob with no observable numeric effect.
///
/// The table of a *specific* target is also exposed (`kernels(target)`)
/// so tests can pin every supported target against the scalar reference
/// and benches can measure `speedup_vs_serial` without re-execing under a
/// different environment.
///
/// bf16 helpers (round-to-nearest-even pack, widening unpack, fused
/// unpack-accumulate in fp32) live here too: the comm layer uses them for
/// the bf16 wire format (`TrainOptions::wire`, see docs/COMM.md).

#include <cstdint>

namespace plexus::simd {

enum class Target { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/// Human-readable name ("scalar", "avx2", "avx512").
const char* target_name(Target t);

/// True when the running CPU can execute `t` (Scalar always can).
bool target_supported(Target t);

/// The dispatch decision, resolved once per process: PLEXUS_SIMD when set
/// (falling back, with a warning, to the best supported target if the CPU
/// cannot run the requested one), else the best supported target. Logged
/// at Info on first call.
Target active_target();

/// Kernel table of one target. All function pointers are non-null; every
/// target's results are bitwise-identical to the Scalar entry.
struct Kernels {
  /// SpMM rows [r0, r1): C[r,:] = sum_k va[k] * B[ci[k],:], summed from
  /// +0.0 in nonzero order, row pointers `rp`, leading dimensions in
  /// elements.
  void (*spmm_rows)(const std::int64_t* rp, const std::int32_t* ci, const float* va,
                    const float* b, std::int64_t ldb, float* c, std::int64_t ldc, std::int64_t r0,
                    std::int64_t r1, std::int64_t n);
  /// GEMM accumulate tile: C[i,:] += (alpha * op(A)[i,kk]) * B[kk,:] for
  /// i in [i0, i1), kk in [k0, k1) ascending, where op(A)[i,kk] is
  /// `a[i * a_rs + kk * a_ks]`: (lda, 1) reads A, (1, lda) reads A^T in
  /// place. Keeps the `alpha * a == 0` skip of the serial kernel (a skipped
  /// term adds nothing, not +0.0).
  void (*gemm_tile)(const float* a, std::int64_t a_rs, std::int64_t a_ks, const float* b,
                    std::int64_t ldb, float* c, std::int64_t ldc, std::int64_t i0,
                    std::int64_t i1, std::int64_t k0, std::int64_t k1, std::int64_t n,
                    float alpha);
  /// y[i] = x[i] > 0 ? x[i] : +0 (y may alias x). A non-null `mask` also
  /// receives relu'(x) as ceil(n / 64) words: bit i % 64 of mask[i / 64] is
  /// x[i] > 0 (clear for NaN), and the last word's bits past n are clear.
  /// Serving passes null.
  void (*relu)(const float* x, float* y, std::int64_t n, std::uint64_t* mask);
  /// dx[i] = bit i of `mask` ? dy[i] : +0 (dx may alias dy), for a mask the
  /// forward relu wrote. Equal to `x[i] > 0 ? dy[i] : 0` for every x,
  /// NaN, +-0 and +-inf included.
  void (*relu_backward)(const std::uint64_t* mask, const float* dy, float* dx, std::int64_t n);
  /// One Adam update over n parameters; bc1/bc2 are the precomputed bias
  /// corrections 1 - beta^t.
  void (*adam_step)(float* p, const float* g, float* m, float* v, std::int64_t n, float beta1,
                    float beta2, float lr, float eps, float weight_decay, float bc1, float bc2);
};

/// Table of a specific target. PLEXUS_CHECKs that the CPU supports it.
const Kernels& kernels(Target t);

/// Table of `active_target()` — what the library hot paths call.
const Kernels& active_kernels();

// ---------------------------------------------------------------------------
// bf16 (top 16 bits of fp32) wire-format helpers.

/// Round-to-nearest-even truncation fp32 -> bf16. NaN stays NaN (quietened,
/// sign preserved); +-0 and +-inf are exact; any value whose mantissa fits
/// 7 bits round-trips exactly.
std::uint16_t bf16_from_f32(float f);

/// Widening bf16 -> fp32 (exact: bf16 values are a subset of fp32).
float f32_from_bf16(std::uint16_t h);

void bf16_pack(const float* src, std::uint16_t* dst, std::int64_t n);
void bf16_unpack(const std::uint16_t* src, float* dst, std::int64_t n);
/// dst[i] = f32(src[i]) — the reduction-assign hook of the comm layer.
void bf16_assign_f32(float* dst, const std::uint16_t* src, std::int64_t n);
/// dst[i] += f32(src[i]) — accumulation stays in fp32.
void bf16_accumulate_f32(float* dst, const std::uint16_t* src, std::int64_t n);

}  // namespace plexus::simd
