// The bitwise contract of the runtime-dispatched SIMD kernels
// (util/simd.hpp): every target's table — scalar, AVX2, AVX-512 — must
// produce bit-for-bit the scalar reference's output for any shape: widths
// that exercise the vector tails and register-panel edges, the empty edge
// (0), row-tile remainders, reduction depths around the GEMM's k blocks, and
// both in-place addressings of op(A). `kernels(target)` pins a specific
// table, so one process covers every target the CPU supports without
// re-execing under PLEXUS_SIMD.
//
// The bf16 wire-format helpers are property-tested here too: exact
// round-trip for values whose mantissa fits bf16, half-ulp-bounded relative
// error everywhere else (round-to-nearest-even), and sign/inf/NaN handling.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "dense/matrix.hpp"
#include "sparse/csr.hpp"
#include "sparse/spmm.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace ps = plexus::simd;

namespace {

/// Feature widths: the empty edge, one full vector of AVX2 (8) and AVX-512
/// (16), tails of both around them, and the register-panel edges (64/65 for
/// AVX-512 GEMM, 128/129 for the SpMM pass and the 4-vector GEMM panels).
constexpr std::int64_t kWidths[] = {0, 1, 7, 8, 15, 16, 17, 33, 63, 64, 65, 100, 129};

std::vector<ps::Target> supported_targets() {
  std::vector<ps::Target> out;
  for (const ps::Target t : {ps::Target::Scalar, ps::Target::Avx2, ps::Target::Avx512}) {
    if (ps::target_supported(t)) out.push_back(t);
  }
  return out;
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed, float lo = -2.0f,
                                 float hi = 2.0f) {
  plexus::util::CounterRng rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.uniform_at(i, lo, hi);
  return v;
}

void expect_bitwise_equal(const std::vector<float>& got, const std::vector<float>& want,
                          const char* what, ps::Target t, std::int64_t n) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint32_t gb = 0, wb = 0;
    std::memcpy(&gb, &got[i], 4);
    std::memcpy(&wb, &want[i], 4);
    ASSERT_EQ(gb, wb) << what << ": target " << ps::target_name(t) << ", width " << n
                      << ", element " << i;
  }
}

/// The serial GEMM tile every table must reproduce: for each row, k
/// ascending, one multiply and one add per element, terms whose `alpha * a`
/// is zero skipped.
void serial_gemm_tile(const float* a, std::int64_t rs, std::int64_t ks, const float* b,
                      std::int64_t ldb, float* c, std::int64_t ldc, std::int64_t i0,
                      std::int64_t i1, std::int64_t k0, std::int64_t k1, std::int64_t n,
                      float alpha) {
  for (std::int64_t i = i0; i < i1; ++i) {
    for (std::int64_t kk = k0; kk < k1; ++kk) {
      const float av = alpha * a[i * rs + kk * ks];
      if (av == 0.0f) continue;
      for (std::int64_t j = 0; j < n; ++j) c[i * ldc + j] += av * b[kk * ldb + j];
    }
  }
}

}  // namespace

TEST(SimdKernels, ScalarAlwaysSupportedAndActiveTargetIs) {
  EXPECT_TRUE(ps::target_supported(ps::Target::Scalar));
  EXPECT_TRUE(ps::target_supported(ps::active_target()));
  EXPECT_STREQ(ps::target_name(ps::Target::Scalar), "scalar");
  EXPECT_STREQ(ps::target_name(ps::Target::Avx2), "avx2");
  EXPECT_STREQ(ps::target_name(ps::Target::Avx512), "avx512");
}

TEST(SimdKernels, SpmmRowsBitwiseAcrossTargetsAndWidths) {
  // Hand-built CSR with empty rows, duplicate columns and hub rows.
  const std::vector<std::int64_t> rp = {0, 3, 3, 7, 8, 12, 15};
  const std::vector<std::int32_t> ci = {0, 4, 9, 1, 1, 5, 8, 0, 2, 3, 6, 7, 9, 9, 4};
  const auto va = random_floats(ci.size(), 11);
  const std::int64_t rows = 6, bro = 10;
  // kWidths plus 200 and 256: rows that take two 128-column register passes.
  std::vector<std::int64_t> widths(std::begin(kWidths), std::end(kWidths));
  widths.insert(widths.end(), {200, 256});
  for (const std::int64_t n : widths) {
    const auto b = random_floats(static_cast<std::size_t>(bro * n), 13);
    // Prior output contents must be overwritten, not summed into.
    const auto seed_c = random_floats(static_cast<std::size_t>(rows * n), 17);
    std::vector<float> want = seed_c;
    ps::kernels(ps::Target::Scalar)
        .spmm_rows(rp.data(), ci.data(), va.data(), b.data(), n, want.data(), n, 0, rows, n);
    for (const ps::Target t : supported_targets()) {
      std::vector<float> got = seed_c;
      ps::kernels(t).spmm_rows(rp.data(), ci.data(), va.data(), b.data(), n, got.data(), n, 0,
                               rows, n);
      expect_bitwise_equal(got, want, "spmm", t, n);
    }
  }
}

TEST(SimdKernels, SpmmRowsMatchesSerialReferenceThroughCsr) {
  // The public contract: any target == spmm_rows_serial on a real Csr.
  plexus::util::CounterRng rng(23);
  const std::int64_t rows = 37, cols = 29;
  std::vector<std::int64_t> rp(static_cast<std::size_t>(rows) + 1, 0);
  std::vector<std::int32_t> ci;
  std::vector<float> va;
  for (std::int64_t r = 0; r < rows; ++r) {
    const auto deg = static_cast<std::int64_t>(rng.uniform_at(static_cast<std::uint64_t>(r)) * 6);
    for (std::int64_t k = 0; k < deg; ++k) {
      const auto u = static_cast<std::uint64_t>(r * 100 + k);
      ci.push_back(static_cast<std::int32_t>(rng.uniform_at(u) * static_cast<double>(cols)));
      va.push_back(rng.uniform_at(u + 1, -1, 1));
    }
    rp[static_cast<std::size_t>(r) + 1] = static_cast<std::int64_t>(ci.size());
  }
  const auto a = plexus::sparse::Csr::from_parts(rows, cols, rp, ci, va);
  for (const std::int64_t n : {std::int64_t{7}, std::int64_t{33}}) {
    plexus::dense::Matrix b(cols, n);
    for (std::int64_t i = 0; i < b.size(); ++i) {
      b.flat()[static_cast<std::size_t>(i)] =
          rng.uniform_at(static_cast<std::uint64_t>(1000 + i), -1, 1);
    }
    plexus::dense::Matrix want(rows, n);
    plexus::sparse::spmm_rows_serial(a, b, want, 0, rows);
    for (const ps::Target t : supported_targets()) {
      plexus::dense::Matrix got(rows, n);
      ps::kernels(t).spmm_rows(a.row_ptr().data(), a.col_idx().data(), a.vals().data(), b.data(),
                               b.cols(), got.data(), got.cols(), 0, rows, n);
      for (std::int64_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got.flat()[static_cast<std::size_t>(i)],
                  want.flat()[static_cast<std::size_t>(i)])
            << "target " << ps::target_name(t) << ", width " << n << ", element " << i;
      }
    }
  }
}

TEST(SimdKernels, GemmTileBitwiseAcrossTargetsAndShapes) {
  // Every table, scalar included, against the serial tile. m covers the
  // 4-row tile remainders, k the 256-deep block edges, n the vector tails
  // and column-panel edges of every target. The tile covers
  // [k0, k0 + k): k0 = 2 starts inside the reduction range, k0 = 300 past the
  // first k block, like the later blocks of dense::gemm. op(A) is read both
  // ways, each through a power-of-two leading dimension: (lda, 1) from an
  // m x 1024 A, and (1, lda) from a k x 16 A holding A^T. Half of A is zero
  // (+0.0 and -0.0) so the `alpha * a == 0` skip runs in every tile, and
  // alpha = 0 skips every term.
  constexpr std::int64_t kLdN = 1024, kLdT = 16;
  constexpr std::int64_t kRows[] = {1, 3, 5, 9};
  constexpr std::int64_t kDepths[] = {1, 255, 256, 257, 600};
  constexpr std::int64_t kStarts[] = {0, 2, 300};
  constexpr std::int64_t kMaxK = 300 + 600;
  static_assert(9 * kLdN <= kMaxK * kLdT && kMaxK <= kLdN, "A storage covers both addressings");
  auto a_store = random_floats(static_cast<std::size_t>(kMaxK * kLdT), 29);
  for (std::size_t i = 0; i < a_store.size(); i += 2) a_store[i] = i % 4 == 0 ? 0.0f : -0.0f;
  for (const std::int64_t n : kWidths) {
    const auto b = random_floats(static_cast<std::size_t>(kMaxK * n), 31);
    for (const std::int64_t m : kRows) {
      const auto seed_c = random_floats(static_cast<std::size_t>(m * n), 37);
      for (const std::int64_t k : kDepths) {
        for (const std::int64_t k0 : kStarts) {
          for (const bool trans_a : {false, true}) {
            const std::int64_t rs = trans_a ? 1 : kLdN;
            const std::int64_t ks = trans_a ? kLdT : 1;
            for (const bool accumulate : {false, true}) {
              for (const float alpha : {1.0f, -0.75f, 0.0f}) {
                SCOPED_TRACE(testing::Message()
                             << "m=" << m << " k=" << k << " k0=" << k0 << " trans_a=" << trans_a
                             << " accumulate=" << accumulate << " alpha=" << alpha);
                const std::vector<float> c0 =
                    accumulate ? seed_c : std::vector<float>(seed_c.size(), 0.0f);
                std::vector<float> want = c0;
                serial_gemm_tile(a_store.data(), rs, ks, b.data(), n, want.data(), n, 0, m, k0,
                                 k0 + k, n, alpha);
                for (const ps::Target t : supported_targets()) {
                  std::vector<float> got = c0;
                  ps::kernels(t).gemm_tile(a_store.data(), rs, ks, b.data(), n, got.data(), n, 0,
                                           m, k0, k0 + k, n, alpha);
                  expect_bitwise_equal(got, want, "gemm_tile", t, n);
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernels, GemmTileSkipKeepsNegativeZeroAgainstNonFiniteB) {
  // Zero A entries (+0.0 and -0.0) face +inf, NaN and -inf rows of B, and C
  // starts at -0.0. The serial kernel skips those terms: an unmasked add
  // would turn -0.0 into +0.0 (adding 0 * finite) or into NaN (0 * inf).
  const std::int64_t m = 5, k = 7, n = 37;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto a = random_floats(static_cast<std::size_t>(m * k), 41);
  auto b = random_floats(static_cast<std::size_t>(k * n), 43);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      // Row 4 is all zero; elsewhere the terms facing B rows 1, 3, 5.
      if (i == 4 || kk % 2 == 1) a[static_cast<std::size_t>(i * k + kk)] = kk == 3 ? -0.0f : 0.0f;
    }
  }
  for (std::int64_t j = 0; j < n; ++j) {
    b[static_cast<std::size_t>(1 * n + j)] = inf;
    b[static_cast<std::size_t>(3 * n + j)] = nan;
    b[static_cast<std::size_t>(5 * n + j)] = -inf;
  }
  const std::vector<float> c0(static_cast<std::size_t>(m * n), -0.0f);
  for (const float alpha : {1.0f, -0.75f}) {
    std::vector<float> want = c0;
    ps::kernels(ps::Target::Scalar)
        .gemm_tile(a.data(), k, 1, b.data(), n, want.data(), n, 0, m, 0, k, n, alpha);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(std::isfinite(want[i])) << i;
      if (static_cast<std::int64_t>(i) / n == 4) {
        ASSERT_TRUE(want[i] == 0.0f && std::signbit(want[i])) << "all-skipped element " << i;
      }
    }
    for (const ps::Target t : supported_targets()) {
      std::vector<float> got = c0;
      ps::kernels(t).gemm_tile(a.data(), k, 1, b.data(), n, got.data(), n, 0, m, 0, k, n, alpha);
      expect_bitwise_equal(got, want, "gemm_tile skip", t, n);
    }
  }
}

TEST(SimdKernels, ElementwiseAndAdamBitwiseAcrossTargetsAndWidths) {
  for (const std::int64_t n : kWidths) {
    const auto sz = static_cast<std::size_t>(n);
    const auto x = random_floats(sz, 41);
    const auto dy = random_floats(sz, 43);
    auto g = random_floats(sz, 47, -0.5f, 0.5f);
    const auto p0 = random_floats(sz, 53);
    const auto m0 = random_floats(sz, 59, -0.1f, 0.1f);
    auto v0 = random_floats(sz, 61, 0.0f, 0.1f);
    // Fresh second moments, as on Adam's first step; where the gradient is
    // zero too, sqrt(v / bc2) is sqrt(+0).
    for (std::size_t i = 0; i < sz; i += 3) v0[i] = 0.0f;
    for (std::size_t i = 0; i < sz; i += 6) g[i] = 0.0f;

    const auto words = static_cast<std::size_t>((n + 63) / 64);
    std::vector<float> relu_want(sz), dx_want(sz);
    std::vector<std::uint64_t> mask_want(words);
    ps::kernels(ps::Target::Scalar).relu(x.data(), relu_want.data(), n, mask_want.data());
    ps::kernels(ps::Target::Scalar)
        .relu_backward(mask_want.data(), dy.data(), dx_want.data(), n);

    for (const ps::Target t : supported_targets()) {
      std::vector<float> relu_got(sz), dx_got(sz);
      std::vector<std::uint64_t> mask_got(words);
      ps::kernels(t).relu(x.data(), relu_got.data(), n, mask_got.data());
      ps::kernels(t).relu_backward(mask_got.data(), dy.data(), dx_got.data(), n);
      expect_bitwise_equal(relu_got, relu_want, "relu", t, n);
      EXPECT_EQ(mask_got, mask_want) << "relu mask: target " << ps::target_name(t) << ", width "
                                     << n;
      expect_bitwise_equal(dx_got, dx_want, "relu_backward", t, n);
    }

    for (const float weight_decay : {0.0f, 0.01f}) {
      const auto adam = [&](ps::Target t, std::vector<float>& p, std::vector<float>& m,
                            std::vector<float>& v) {
        p = p0;
        m = m0;
        v = v0;
        ps::kernels(t).adam_step(p.data(), g.data(), m.data(), v.data(), n, 0.9f, 0.999f, 1e-2f,
                                 1e-8f, weight_decay, 1.0f - 0.9f, 1.0f - 0.999f);
      };
      std::vector<float> pw, mw, vw;
      adam(ps::Target::Scalar, pw, mw, vw);
      for (const ps::Target t : supported_targets()) {
        SCOPED_TRACE(weight_decay);
        std::vector<float> pg, mg, vg;
        adam(t, pg, mg, vg);
        expect_bitwise_equal(pg, pw, "adam p", t, n);
        expect_bitwise_equal(mg, mw, "adam m", t, n);
        expect_bitwise_equal(vg, vw, "adam v", t, n);
      }
    }
  }
}

TEST(SimdKernels, ReluMaskBitwiseAcrossTargets) {
  // Lengths around the 8- and 16-lane vectors and the 64-element mask word.
  // Inputs mix random values with NaN of both signs, +-0, +-inf, denormals
  // and the smallest normals; dy carries its own NaN and inf so that the
  // backward's `bit ? dy : +0` must pass dy's bits through unchanged.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float tiny = std::numeric_limits<float>::min();
  const float specials[] = {nan,  -nan,    0.0f,  -0.0f, inf,   -inf,
                            denorm, -denorm, 0x1p-140f, -0x1p-140f, tiny, -tiny};
  const auto bits_of = [](float f) { return std::bit_cast<std::uint32_t>(f); };
  for (const std::int64_t n : {1, 7, 8, 15, 16, 17, 63, 64, 65, 1000, 4099}) {
    const auto sz = static_cast<std::size_t>(n);
    auto x = random_floats(sz, 97);
    auto dy = random_floats(sz, 101);
    for (std::size_t i = 0; i < sz; i += 3) x[i] = specials[(i / 3) % std::size(specials)];
    for (std::size_t i = 1; i < sz; i += 5) dy[i] = specials[(i / 5) % std::size(specials)];
    const auto words = static_cast<std::size_t>((n + 63) / 64);

    std::vector<float> y_want(sz), dx_want(sz);
    std::vector<std::uint64_t> mask_want(words);
    ps::kernels(ps::Target::Scalar).relu(x.data(), y_want.data(), n, mask_want.data());
    ps::kernels(ps::Target::Scalar)
        .relu_backward(mask_want.data(), dy.data(), dx_want.data(), n);
    for (std::size_t i = 0; i < sz; ++i) {
      const bool pos = x[i] > 0.0f;
      ASSERT_EQ(bits_of(y_want[i]), bits_of(pos ? x[i] : 0.0f)) << "n " << n << ", element " << i;
      ASSERT_EQ((mask_want[i / 64] >> (i % 64)) & 1u, pos ? 1u : 0u)
          << "n " << n << ", element " << i;
      ASSERT_EQ(bits_of(dx_want[i]), bits_of(pos ? dy[i] : 0.0f))
          << "n " << n << ", element " << i;
    }
    if (n % 64 != 0) {
      EXPECT_EQ(mask_want.back() >> (n % 64), 0u) << "n " << n;
    }

    for (const ps::Target t : supported_targets()) {
      std::vector<float> y(sz), dx(sz);
      std::vector<std::uint64_t> mask(words, ~std::uint64_t{0});
      ps::kernels(t).relu(x.data(), y.data(), n, mask.data());
      ps::kernels(t).relu_backward(mask.data(), dy.data(), dx.data(), n);
      expect_bitwise_equal(y, y_want, "relu", t, n);
      EXPECT_EQ(mask, mask_want) << "relu mask: target " << ps::target_name(t) << ", n " << n;
      expect_bitwise_equal(dx, dx_want, "relu_backward", t, n);

      // In place, as the layers run them; serving passes no mask.
      std::vector<float> inplace = x;
      ps::kernels(t).relu(inplace.data(), inplace.data(), n, nullptr);
      expect_bitwise_equal(inplace, y_want, "relu in place, no mask", t, n);
      inplace = dy;
      ps::kernels(t).relu_backward(mask_want.data(), inplace.data(), inplace.data(), n);
      expect_bitwise_equal(inplace, dx_want, "relu_backward in place", t, n);
    }
  }
}

// ---------------------------------------------------------------------------
// bf16 wire-format properties.

TEST(Bf16, ExactRoundTripForSevenBitMantissas) {
  // Any fp32 whose mantissa fits bf16's 7 stored bits survives unchanged.
  for (const float f : {0.0f, 1.0f, -1.0f, 0.5f, 1.5f, -2.25f, 1.984375f, 0.0078125f, 96.0f,
                        -0x1.5p126f, 0x1p-126f}) {
    EXPECT_EQ(plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(f)), f) << f;
  }
}

TEST(Bf16, BoundedRelativeErrorEverywhere) {
  // Round-to-nearest-even: at most half a bf16 ulp, i.e. 2^-8 relative.
  plexus::util::CounterRng rng(67);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const auto mag = static_cast<float>(std::exp(rng.uniform_at(2 * i, -30.0f, 30.0f)));
    const float f = rng.uniform_at(2 * i + 1, -1, 1) * mag;
    const float rt = plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(f));
    EXPECT_LE(std::fabs(rt - f), std::fabs(f) * 0x1p-8f) << f;
  }
}

TEST(Bf16, SignedZeroInfNanHandling) {
  const float pz = plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(0.0f));
  const float nz = plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(-0.0f));
  EXPECT_EQ(pz, 0.0f);
  EXPECT_FALSE(std::signbit(pz));
  EXPECT_TRUE(std::signbit(nz));
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(inf)), inf);
  EXPECT_EQ(plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(-inf)), -inf);
  const float rtn =
      plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(std::nanf("")));
  EXPECT_TRUE(std::isnan(rtn));
  // A large finite value inside bf16's range must stay finite (the nearest
  // bf16 neighbour of 3.3e38 is below the 3.39e38 bf16 maximum).
  EXPECT_TRUE(std::isfinite(plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(3.3e38f))));
}

TEST(Bf16, RoundToNearestEvenTies) {
  // 1 + 2^-8 sits exactly between bf16 neighbours 1.0 and 1 + 2^-7; RNE
  // keeps the even mantissa (1.0). One ulp above the tie rounds up.
  EXPECT_EQ(plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(1.0f + 0x1p-8f)), 1.0f);
  const float above = std::nextafter(1.0f + 0x1p-8f, 2.0f);
  EXPECT_EQ(plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(above)), 1.0f + 0x1p-7f);
  // 1 + 3 * 2^-8: between 1 + 2^-7 and 1 + 2^-6, ties to even = 1 + 2^-6.
  EXPECT_EQ(plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(1.0f + 3 * 0x1p-8f)),
            1.0f + 0x1p-6f);
}

TEST(Bf16, PackUnpackAccumulateAgreeWithScalarHelpers) {
  const auto src = random_floats(257, 71, -8.0f, 8.0f);  // odd length: vector tails
  const auto n = static_cast<std::int64_t>(src.size());
  std::vector<std::uint16_t> wire(src.size());
  plexus::simd::bf16_pack(src.data(), wire.data(), n);
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(wire[i], plexus::simd::bf16_from_f32(src[i])) << i;
  }
  std::vector<float> unpacked(src.size());
  plexus::simd::bf16_unpack(wire.data(), unpacked.data(), n);
  std::vector<float> assigned(src.size(), -99.0f);
  plexus::simd::bf16_assign_f32(assigned.data(), wire.data(), n);
  auto acc = random_floats(src.size(), 73);
  const auto acc0 = acc;
  plexus::simd::bf16_accumulate_f32(acc.data(), wire.data(), n);
  for (std::size_t i = 0; i < src.size(); ++i) {
    const float w = plexus::simd::f32_from_bf16(wire[i]);
    ASSERT_EQ(unpacked[i], w) << i;
    ASSERT_EQ(assigned[i], w) << i;
    ASSERT_EQ(acc[i], acc0[i] + w) << i;  // accumulation happens in fp32
  }
}
