#include "util/simd.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "util/error.hpp"
#include "util/logging.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define PLEXUS_SIMD_X86 1
#include <immintrin.h>
#else
#define PLEXUS_SIMD_X86 0
#endif

// The scalar fallback is pinned non-vectorized on x86 so "scalar" means the
// same thing on every build (and `speedup_vs_serial` in micro_kernels measures
// SIMD against a true scalar loop, not whatever the autovectorizer produced
// for the baseline ISA). Elsewhere there is no vector target to compare
// against, so the compiler may do its best.
#if PLEXUS_SIMD_X86 && !defined(__clang__)
#define PLEXUS_SCALAR_ATTR __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define PLEXUS_SCALAR_ATTR
#endif

namespace plexus::simd {

namespace {

// ---------------------------------------------------------------------------
// ReLU and its bit-mask derivative. Each target walks 64-element words and
// builds a word from its lanes' compare masks (AVX-512 `cmp_ps_mask`, AVX2
// `movemask`), so no store reinterprets a mask register as memory. The
// compares are ordered (`_CMP_GT_OQ`), false for NaN like the scalar `>`;
// lanes past n are loaded as zero, which leaves their bits clear.

PLEXUS_SCALAR_ATTR void relu_scalar(const float* x, float* y, std::int64_t n,
                                    std::uint64_t* mask) {
  for (std::int64_t i0 = 0; i0 < n; i0 += 64) {
    const std::int64_t len = std::min<std::int64_t>(64, n - i0);
    std::uint64_t bits = 0;
    for (std::int64_t j = 0; j < len; ++j) {
      const float v = x[i0 + j];
      const bool pos = v > 0.0f;
      y[i0 + j] = pos ? v : 0.0f;
      bits |= static_cast<std::uint64_t>(pos) << j;
    }
    if (mask != nullptr) mask[i0 / 64] = bits;
  }
}

PLEXUS_SCALAR_ATTR void relu_backward_scalar(const std::uint64_t* mask, const float* dy,
                                             float* dx, std::int64_t n) {
  for (std::int64_t i0 = 0; i0 < n; i0 += 64) {
    const std::int64_t len = std::min<std::int64_t>(64, n - i0);
    const std::uint64_t bits = mask[i0 / 64];
    for (std::int64_t j = 0; j < len; ++j) dx[i0 + j] = (bits >> j) & 1u ? dy[i0 + j] : 0.0f;
  }
}

#if PLEXUS_SIMD_X86

#define PLEXUS_AVX2_ATTR __attribute__((target("avx2")))
#define PLEXUS_AVX512_ATTR __attribute__((target("avx512f")))

/// Lanes [0, left) of an 8-lane vector, all of them when left >= 8.
PLEXUS_AVX2_ATTR inline __m256i lanes_avx2(std::int64_t left) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(std::min<std::int64_t>(left, 8))),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

PLEXUS_AVX2_ATTR void relu_avx2(const float* x, float* y, std::int64_t n, std::uint64_t* mask) {
  for (std::int64_t i0 = 0; i0 < n; i0 += 64) {
    std::uint64_t bits = 0;
    for (std::int64_t j = 0; j < 64 && i0 + j < n; j += 8) {
      const std::int64_t left = n - i0 - j;
      __m256 v;
      if (left >= 8) {
        v = _mm256_loadu_ps(x + i0 + j);
      } else {
        v = _mm256_maskload_ps(x + i0 + j, lanes_avx2(left));
      }
      const __m256 pos = _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ);
      const __m256 out = _mm256_and_ps(v, pos);
      if (left >= 8) {
        _mm256_storeu_ps(y + i0 + j, out);
      } else {
        _mm256_maskstore_ps(y + i0 + j, lanes_avx2(left), out);
      }
      bits |= static_cast<std::uint64_t>(static_cast<unsigned>(_mm256_movemask_ps(pos))) << j;
    }
    if (mask != nullptr) mask[i0 / 64] = bits;
  }
}

PLEXUS_AVX2_ATTR void relu_backward_avx2(const std::uint64_t* mask, const float* dy, float* dx,
                                         std::int64_t n) {
  // Lane k keeps dy when bit k of the byte is set: broadcast the byte, AND
  // each lane with its own bit and compare, which expands bits into lanes.
  const __m256i lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  for (std::int64_t i0 = 0; i0 < n; i0 += 64) {
    const std::uint64_t bits = mask[i0 / 64];
    for (std::int64_t j = 0; j < 64 && i0 + j < n; j += 8) {
      const auto byte = static_cast<int>((bits >> j) & 0xffu);
      const __m256 keep = _mm256_castsi256_ps(_mm256_cmpeq_epi32(
          _mm256_and_si256(_mm256_set1_epi32(byte), lane_bit), lane_bit));
      const std::int64_t left = n - i0 - j;
      if (left >= 8) {
        _mm256_storeu_ps(dx + i0 + j, _mm256_and_ps(_mm256_loadu_ps(dy + i0 + j), keep));
      } else {
        const __m256i lanes = lanes_avx2(left);
        _mm256_maskstore_ps(dx + i0 + j, lanes,
                            _mm256_and_ps(_mm256_maskload_ps(dy + i0 + j, lanes), keep));
      }
    }
  }
}

/// Lanes [0, left) of a 16-lane vector, all of them when left >= 16.
PLEXUS_AVX512_ATTR inline __mmask16 lanes_avx512(std::int64_t left) {
  return left >= 16 ? static_cast<__mmask16>(0xffffu)
                    : static_cast<__mmask16>((1u << static_cast<unsigned>(left)) - 1u);
}

PLEXUS_AVX512_ATTR void relu_avx512(const float* x, float* y, std::int64_t n,
                                    std::uint64_t* mask) {
  for (std::int64_t i0 = 0; i0 < n; i0 += 64) {
    std::uint64_t bits = 0;
    for (std::int64_t j = 0; j < 64 && i0 + j < n; j += 16) {
      const __mmask16 lanes = lanes_avx512(n - i0 - j);
      const __m512 v = _mm512_maskz_loadu_ps(lanes, x + i0 + j);
      const __mmask16 pos = _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_GT_OQ);
      _mm512_mask_storeu_ps(y + i0 + j, lanes, _mm512_maskz_mov_ps(pos, v));
      bits |= static_cast<std::uint64_t>(pos) << j;
    }
    if (mask != nullptr) mask[i0 / 64] = bits;
  }
}

PLEXUS_AVX512_ATTR void relu_backward_avx512(const std::uint64_t* mask, const float* dy,
                                             float* dx, std::int64_t n) {
  for (std::int64_t i0 = 0; i0 < n; i0 += 64) {
    const std::uint64_t bits = mask[i0 / 64];
    for (std::int64_t j = 0; j < 64 && i0 + j < n; j += 16) {
      const __mmask16 lanes = lanes_avx512(n - i0 - j);
      const auto keep = static_cast<__mmask16>(bits >> j);
      const __m512 g = _mm512_maskz_loadu_ps(lanes, dy + i0 + j);
      _mm512_mask_storeu_ps(dx + i0 + j, lanes, _mm512_maskz_mov_ps(keep, g));
    }
  }
}

#undef PLEXUS_AVX2_ATTR
#undef PLEXUS_AVX512_ATTR

#endif  // PLEXUS_SIMD_X86

// ---------------------------------------------------------------------------
// Row kernels and Adam: the register-blocked GEMM and SpMM and the Adam step
// of simd_rows.inc, compiled once per target over a vector traits type. The
// traits use separate mul, add, sub, div and sqrt, each one correctly
// rounded operation (never FMA, same as the scalar expression), and
// `load`/`store` with `masked` set touch only the `tail` lanes, so every
// width is bitwise-identical to the scalar table.

namespace scalar_rows {

#define PLEXUS_ROW_ATTR PLEXUS_SCALAR_ATTR
/// One lane per "vector": C tiles of 4x4 and SpMM passes of 8 columns, held
/// in scalar registers.
struct V {
  using Reg = float;
  using Keep = bool;
  using Tail = bool;  // a one-lane vector is never partial
  static constexpr std::int64_t kLanes = 1;
  static constexpr int kGemmVecs = 4;
  static constexpr int kSpmmVecs = 8;
  PLEXUS_ROW_ATTR static Tail tail(std::int64_t) { return true; }
  PLEXUS_ROW_ATTR static Reg zero() { return 0.0f; }
  PLEXUS_ROW_ATTR static Reg load(const float* p, bool, Tail) { return *p; }
  PLEXUS_ROW_ATTR static void store(float* p, Reg x, bool, Tail) { *p = x; }
  PLEXUS_ROW_ATTR static Reg splat(float x) { return x; }
  PLEXUS_ROW_ATTR static Reg mul(Reg x, Reg y) { return x * y; }
  PLEXUS_ROW_ATTR static Reg add(Reg x, Reg y) { return x + y; }
  PLEXUS_ROW_ATTR static Reg sub(Reg x, Reg y) { return x - y; }
  PLEXUS_ROW_ATTR static Reg div(Reg x, Reg y) { return x / y; }
  PLEXUS_ROW_ATTR static Reg sqrt(Reg x) { return std::sqrt(x); }
  PLEXUS_ROW_ATTR static Keep nonzero(Reg x) { return x != 0.0f; }
  PLEXUS_ROW_ATTR static Reg add_if(Keep keep, Reg c, Reg p) { return keep ? c + p : c; }
};
#include "util/simd_rows.inc"
#undef PLEXUS_ROW_ATTR

}  // namespace scalar_rows

#if PLEXUS_SIMD_X86

namespace avx2_rows {

#define PLEXUS_ROW_ATTR __attribute__((target("avx2")))
/// 8 lanes: C tiles of 4x16 (8 ymm accumulators of the 16 registers), SpMM
/// passes of 64 columns. Tails use maskload/maskstore; the skip is a blend.
struct V {
  using Reg = __m256;
  using Keep = __m256;
  using Tail = __m256i;
  static constexpr std::int64_t kLanes = 8;
  static constexpr int kGemmVecs = 2;
  static constexpr int kSpmmVecs = 8;
  PLEXUS_ROW_ATTR static Tail tail(std::int64_t w) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(w)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  PLEXUS_ROW_ATTR static Reg zero() { return _mm256_setzero_ps(); }
  PLEXUS_ROW_ATTR static Reg load(const float* p, bool masked, Tail t) {
    return masked ? _mm256_maskload_ps(p, t) : _mm256_loadu_ps(p);
  }
  PLEXUS_ROW_ATTR static void store(float* p, Reg x, bool masked, Tail t) {
    if (masked) {
      _mm256_maskstore_ps(p, t, x);
    } else {
      _mm256_storeu_ps(p, x);
    }
  }
  PLEXUS_ROW_ATTR static Reg splat(float x) { return _mm256_set1_ps(x); }
  PLEXUS_ROW_ATTR static Reg mul(Reg x, Reg y) { return _mm256_mul_ps(x, y); }
  PLEXUS_ROW_ATTR static Reg add(Reg x, Reg y) { return _mm256_add_ps(x, y); }
  PLEXUS_ROW_ATTR static Reg sub(Reg x, Reg y) { return _mm256_sub_ps(x, y); }
  PLEXUS_ROW_ATTR static Reg div(Reg x, Reg y) { return _mm256_div_ps(x, y); }
  PLEXUS_ROW_ATTR static Reg sqrt(Reg x) { return _mm256_sqrt_ps(x); }
  PLEXUS_ROW_ATTR static Keep nonzero(Reg x) {
    return _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_NEQ_UQ);
  }
  PLEXUS_ROW_ATTR static Reg add_if(Keep keep, Reg c, Reg p) {
    return _mm256_blendv_ps(c, _mm256_add_ps(c, p), keep);
  }
};
#include "util/simd_rows.inc"
#undef PLEXUS_ROW_ATTR

}  // namespace avx2_rows

namespace avx512_rows {

#define PLEXUS_ROW_ATTR __attribute__((target("avx512f")))
/// 16 lanes: C tiles of 4x64 (16 zmm accumulators), SpMM passes of 128
/// columns. Tails and the skip are native mask registers.
struct V {
  using Reg = __m512;
  using Keep = __mmask16;
  using Tail = __mmask16;
  static constexpr std::int64_t kLanes = 16;
  static constexpr int kGemmVecs = 4;
  static constexpr int kSpmmVecs = 8;
  PLEXUS_ROW_ATTR static Tail tail(std::int64_t w) {
    return static_cast<__mmask16>((1u << static_cast<unsigned>(w)) - 1u);
  }
  PLEXUS_ROW_ATTR static Reg zero() { return _mm512_setzero_ps(); }
  PLEXUS_ROW_ATTR static Reg load(const float* p, bool masked, Tail t) {
    return masked ? _mm512_maskz_loadu_ps(t, p) : _mm512_loadu_ps(p);
  }
  PLEXUS_ROW_ATTR static void store(float* p, Reg x, bool masked, Tail t) {
    if (masked) {
      _mm512_mask_storeu_ps(p, t, x);
    } else {
      _mm512_storeu_ps(p, x);
    }
  }
  PLEXUS_ROW_ATTR static Reg splat(float x) { return _mm512_set1_ps(x); }
  PLEXUS_ROW_ATTR static Reg mul(Reg x, Reg y) { return _mm512_mul_ps(x, y); }
  PLEXUS_ROW_ATTR static Reg add(Reg x, Reg y) { return _mm512_add_ps(x, y); }
  PLEXUS_ROW_ATTR static Reg sub(Reg x, Reg y) { return _mm512_sub_ps(x, y); }
  PLEXUS_ROW_ATTR static Reg div(Reg x, Reg y) { return _mm512_div_ps(x, y); }
  // All lanes through the zero-masked form: GCC 12 warns that the unmasked
  // _mm512_sqrt_ps reads its undefined pass-through.
  PLEXUS_ROW_ATTR static Reg sqrt(Reg x) { return _mm512_maskz_sqrt_ps(0xffff, x); }
  PLEXUS_ROW_ATTR static Keep nonzero(Reg x) {
    return _mm512_cmp_ps_mask(x, _mm512_setzero_ps(), _CMP_NEQ_UQ);
  }
  PLEXUS_ROW_ATTR static Reg add_if(Keep keep, Reg c, Reg p) {
    return _mm512_mask_add_ps(c, keep, c, p);
  }
};
#include "util/simd_rows.inc"
#undef PLEXUS_ROW_ATTR

}  // namespace avx512_rows

#endif  // PLEXUS_SIMD_X86

constexpr Kernels kScalarKernels{scalar_rows::spmm_rows, scalar_rows::gemm_tile, relu_scalar,
                                 relu_backward_scalar, scalar_rows::adam_step};
#if PLEXUS_SIMD_X86
constexpr Kernels kAvx2Kernels{avx2_rows::spmm_rows, avx2_rows::gemm_tile, relu_avx2,
                               relu_backward_avx2, avx2_rows::adam_step};
constexpr Kernels kAvx512Kernels{avx512_rows::spmm_rows, avx512_rows::gemm_tile, relu_avx512,
                                 relu_backward_avx512, avx512_rows::adam_step};
#endif

Target best_supported() {
  if (target_supported(Target::Avx512)) return Target::Avx512;
  if (target_supported(Target::Avx2)) return Target::Avx2;
  return Target::Scalar;
}

std::string lower(const char* s) {
  std::string v(s);
  for (char& ch : v) ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  return v;
}

Target resolve_active() {
  Target pick = best_supported();
  const char* env = std::getenv("PLEXUS_SIMD");
  bool forced = false;
  if (env != nullptr && *env != '\0') {
    const std::string v = lower(env);
    if (v == "auto") {
      // keep best_supported
    } else if (v == "avx512") {
      pick = Target::Avx512;
      forced = true;
    } else if (v == "avx2") {
      pick = Target::Avx2;
      forced = true;
    } else if (v == "scalar") {
      pick = Target::Scalar;
      forced = true;
    } else {
      PLEXUS_LOG(Warn) << "PLEXUS_SIMD=" << env
                       << " not recognized (auto|avx512|avx2|scalar); using auto";
    }
  }
  if (forced && !target_supported(pick)) {
    PLEXUS_LOG(Warn) << "PLEXUS_SIMD=" << env << " not supported by this CPU; falling back to "
                     << target_name(best_supported());
    pick = best_supported();
    forced = false;
  }
  PLEXUS_LOG(Info) << "SIMD target: " << target_name(pick)
                   << (forced ? " (forced via PLEXUS_SIMD)" : " (auto-detected)");
  return pick;
}

}  // namespace

const char* target_name(Target t) {
  switch (t) {
    case Target::Scalar: return "scalar";
    case Target::Avx2: return "avx2";
    case Target::Avx512: return "avx512";
  }
  return "?";
}

bool target_supported(Target t) {
  if (t == Target::Scalar) return true;
#if PLEXUS_SIMD_X86
  if (t == Target::Avx2) return __builtin_cpu_supports("avx2") != 0;
  if (t == Target::Avx512) return __builtin_cpu_supports("avx512f") != 0;
#endif
  return false;
}

Target active_target() {
  static const Target t = resolve_active();
  return t;
}

const Kernels& kernels(Target t) {
  PLEXUS_CHECK(target_supported(t),
               std::string("SIMD target not supported on this CPU: ") + target_name(t));
#if PLEXUS_SIMD_X86
  if (t == Target::Avx2) return kAvx2Kernels;
  if (t == Target::Avx512) return kAvx512Kernels;
#endif
  return kScalarKernels;
}

const Kernels& active_kernels() {
  static const Kernels& k = kernels(active_target());
  return k;
}

// ---------------------------------------------------------------------------
// bf16 wire format.

std::uint16_t bf16_from_f32(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  if ((u & 0x7fffffffu) > 0x7f800000u) {
    // NaN: truncate but force a nonzero mantissa so it stays NaN.
    return static_cast<std::uint16_t>((u >> 16) | 0x0040u);
  }
  // Round to nearest, ties to even on the truncated 16 bits.
  u += 0x7fffu + ((u >> 16) & 1u);
  return static_cast<std::uint16_t>(u >> 16);
}

float f32_from_bf16(std::uint16_t h) {
  const std::uint32_t u = static_cast<std::uint32_t>(h) << 16;
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

void bf16_pack(const float* src, std::uint16_t* dst, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = bf16_from_f32(src[i]);
}

void bf16_unpack(const std::uint16_t* src, float* dst, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = f32_from_bf16(src[i]);
}

void bf16_assign_f32(float* dst, const std::uint16_t* src, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = f32_from_bf16(src[i]);
}

void bf16_accumulate_f32(float* dst, const std::uint16_t* src, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] += f32_from_bf16(src[i]);
}

}  // namespace plexus::simd
