// Unit tests for dense: matrix container, GEMM transpose modes, NN ops, Adam.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "dense/gemm.hpp"
#include "dense/matrix.hpp"
#include "dense/ops.hpp"
#include "dense/optim.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pd = plexus::dense;

namespace {

pd::Matrix random_matrix(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  plexus::util::CounterRng rng(seed);
  pd::Matrix m(r, c);
  for (std::int64_t i = 0; i < r; ++i) {
    for (std::int64_t j = 0; j < c; ++j) {
      m.at(i, j) = rng.uniform_at(static_cast<std::uint64_t>(i * c + j), -1.0f, 1.0f);
    }
  }
  return m;
}

/// Naive triple loop reference for op(A) * op(B).
pd::Matrix naive_matmul(const pd::Matrix& a, const pd::Matrix& b, pd::Trans ta, pd::Trans tb) {
  const auto m = pd::op_rows(a, ta);
  const auto k = pd::op_cols(a, ta);
  const auto n = pd::op_cols(b, tb);
  pd::Matrix c(m, n);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = ta == pd::Trans::N ? a.at(i, kk) : a.at(kk, i);
        const float bv = tb == pd::Trans::N ? b.at(kk, j) : b.at(j, kk);
        acc += av * bv;
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

}  // namespace

TEST(Matrix, BlockAndSetBlockRoundTrip) {
  const auto m = random_matrix(6, 5, 1);
  const auto blk = m.block(1, 4, 2, 5);
  EXPECT_EQ(blk.rows(), 3);
  EXPECT_EQ(blk.cols(), 3);
  EXPECT_EQ(blk.at(0, 0), m.at(1, 2));
  pd::Matrix copy(6, 5);
  copy.set_block(1, 2, blk);
  EXPECT_EQ(copy.at(3, 4), m.at(3, 4));
  EXPECT_EQ(copy.at(0, 0), 0.0f);
}

TEST(Matrix, TransposeInvolution) {
  const auto m = random_matrix(4, 7, 2);
  EXPECT_EQ(pd::Matrix::max_abs_diff(m.transposed().transposed(), m), 0.0f);
}

TEST(Matrix, GlorotDeterministicAcrossShardings) {
  // The (2, 3) element of the global matrix must be identical whether we
  // materialise the whole matrix or just the shard containing it.
  const auto full = pd::Matrix::glorot(8, 6, 77, 8, 6);
  const auto shard = pd::Matrix::glorot(4, 3, 77, 8, 6, /*row_off=*/2, /*col_off=*/3,
                                        /*global_cols=*/6);
  EXPECT_EQ(shard.at(0, 0), full.at(2, 3));
  EXPECT_EQ(shard.at(3, 2), full.at(5, 5));
}

TEST(Matrix, GlorotWithinLimit) {
  const auto m = pd::Matrix::glorot(20, 20, 3, 20, 20);
  const float limit = std::sqrt(6.0f / 40.0f);
  for (const float v : m.flat()) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
}

using GemmCase = std::tuple<int, int, int, pd::Trans, pd::Trans>;

class GemmModes : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmModes, MatchesNaiveReference) {
  const auto [m, n, k, ta, tb] = GetParam();
  const auto a_rows = ta == pd::Trans::N ? m : k;
  const auto a_cols = ta == pd::Trans::N ? k : m;
  const auto b_rows = tb == pd::Trans::N ? k : n;
  const auto b_cols = tb == pd::Trans::N ? n : k;
  const auto a = random_matrix(a_rows, a_cols, 10);
  const auto b = random_matrix(b_rows, b_cols, 11);
  const auto got = pd::matmul(a, b, ta, tb);
  const auto want = naive_matmul(a, b, ta, tb);
  EXPECT_LT(pd::Matrix::max_abs_diff(got, want), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmModes,
    ::testing::Values(GemmCase{5, 7, 3, pd::Trans::N, pd::Trans::N},
                      GemmCase{5, 7, 3, pd::Trans::T, pd::Trans::N},
                      GemmCase{5, 7, 3, pd::Trans::N, pd::Trans::T},
                      GemmCase{5, 7, 3, pd::Trans::T, pd::Trans::T},
                      GemmCase{1, 1, 1, pd::Trans::N, pd::Trans::N},
                      GemmCase{64, 96, 130, pd::Trans::N, pd::Trans::N},
                      GemmCase{130, 32, 64, pd::Trans::T, pd::Trans::N},
                      GemmCase{17, 130, 65, pd::Trans::N, pd::Trans::T}));

TEST(Gemm, AlphaBetaAccumulate) {
  const auto a = random_matrix(4, 3, 20);
  const auto b = random_matrix(3, 5, 21);
  auto c = random_matrix(4, 5, 22);
  auto expect = c;
  const auto ab = naive_matmul(a, b, pd::Trans::N, pd::Trans::N);
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 5; ++j) {
      expect.at(i, j) = 2.0f * ab.at(i, j) + 0.5f * expect.at(i, j);
    }
  }
  pd::gemm(pd::Trans::N, pd::Trans::N, 2.0f, a, b, 0.5f, c);
  EXPECT_LT(pd::Matrix::max_abs_diff(c, expect), 1e-4f);
}

TEST(Gemm, GradWReversedOrderEquivalence) {
  // Section 5.3 rewrite: SGEMM(H^T, dQ) == (SGEMM(dQ^T, H))^T.
  const auto h = random_matrix(9, 4, 30);
  const auto dq = random_matrix(9, 6, 31);
  const auto direct = pd::matmul(h, dq, pd::Trans::T, pd::Trans::N);
  const auto reversed = pd::matmul(dq, h, pd::Trans::T, pd::Trans::N).transposed();
  EXPECT_LT(pd::Matrix::max_abs_diff(direct, reversed), 1e-4f);
}

TEST(Ops, ReluForwardBackward) {
  pd::Matrix x(1, 4);
  x.at(0, 0) = -1.0f;
  x.at(0, 1) = 0.0f;
  x.at(0, 2) = 2.0f;
  x.at(0, 3) = -0.5f;
  const auto y = pd::relu(x);
  EXPECT_EQ(y.at(0, 0), 0.0f);
  EXPECT_EQ(y.at(0, 2), 2.0f);

  // The training form also writes relu'(x) as bits: only x[2] > 0.
  std::vector<std::uint64_t> mask(static_cast<std::size_t>(pd::relu_mask_words(x.size())));
  ASSERT_EQ(mask.size(), 1u);
  pd::Matrix y_masked(1, 4);
  pd::relu(x, y_masked, mask);
  EXPECT_EQ(mask[0], std::uint64_t{0b0100});
  EXPECT_EQ(pd::Matrix::max_abs_diff(y_masked, y), 0.0f);

  pd::Matrix dy(1, 4, 1.0f);
  pd::Matrix dx(1, 4);
  pd::relu_backward(mask, dy, dx);
  EXPECT_EQ(dx.at(0, 0), 0.0f);
  EXPECT_EQ(dx.at(0, 1), 0.0f);  // gradient 0 at non-positive pre-activation
  EXPECT_EQ(dx.at(0, 2), 1.0f);
}

TEST(Ops, ReluMaskThreadedMatchesSerial) {
  // 301 x 229 = 68,929 elements: above the serial-work cutoff, so the pool
  // really splits the words, and one element past a whole word, so the last
  // word is partial. Each run is in place, as the layers run it.
  const auto x = random_matrix(301, 229, 91);
  const auto dy = random_matrix(301, 229, 92);
  const auto words = static_cast<std::size_t>(pd::relu_mask_words(x.size()));
  ASSERT_NE(x.size() % 64, 0);
  ASSERT_GT(x.size(), plexus::util::kSerialWorkCutoff);
  const auto run = [&](int threads, pd::Matrix& y, std::vector<std::uint64_t>& mask,
                       pd::Matrix& dx) {
    plexus::util::ScopedIntraRankThreads scope(threads);
    y = x;
    mask.assign(words, ~std::uint64_t{0});
    pd::relu(y, y, mask);
    dx = dy;
    pd::relu_backward(mask, dx, dx);
  };
  pd::Matrix y1, dx1;
  std::vector<std::uint64_t> mask1;
  run(1, y1, mask1, dx1);
  EXPECT_EQ(mask1.back() >> (x.size() % 64), 0u) << "bits past the last element must be clear";
  for (const int threads : {2, 4}) {
    pd::Matrix y, dx;
    std::vector<std::uint64_t> mask;
    run(threads, y, mask, dx);
    EXPECT_EQ(mask, mask1) << threads << " threads";
    for (std::int64_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(y.flat()[static_cast<std::size_t>(i)]),
                std::bit_cast<std::uint32_t>(y1.flat()[static_cast<std::size_t>(i)]))
          << threads << " threads, relu element " << i;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(dx.flat()[static_cast<std::size_t>(i)]),
                std::bit_cast<std::uint32_t>(dx1.flat()[static_cast<std::size_t>(i)]))
          << threads << " threads, relu_backward element " << i;
    }
  }
}

TEST(Ops, SoftmaxCrossEntropyValuesAndMask) {
  pd::Matrix logits(2, 3);
  logits.at(0, 0) = 1.0f;
  logits.at(0, 1) = 2.0f;
  logits.at(0, 2) = 3.0f;
  logits.at(1, 0) = 0.0f;
  logits.at(1, 1) = 0.0f;
  logits.at(1, 2) = 0.0f;
  const std::vector<std::int32_t> labels{2, 0};
  pd::Matrix grad(2, 3);

  // Only row 0 masked in.
  const auto res =
      pd::softmax_cross_entropy(logits, labels, {1, 0}, /*norm=*/1.0, &grad);
  EXPECT_EQ(res.count, 1);
  EXPECT_EQ(res.correct, 1);
  const double expected =
      -std::log(std::exp(3.0) / (std::exp(1.0) + std::exp(2.0) + std::exp(3.0)));
  EXPECT_NEAR(res.loss_sum, expected, 1e-5);
  EXPECT_EQ(grad.at(1, 0), 0.0f);  // masked row has zero gradient
}

TEST(Ops, SoftmaxCrossEntropyGradMatchesFiniteDifference) {
  auto logits = random_matrix(3, 4, 40);
  const std::vector<std::int32_t> labels{1, 3, 0};
  const std::vector<std::uint8_t> mask{1, 1, 1};
  pd::Matrix grad(3, 4);
  pd::softmax_cross_entropy(logits, labels, mask, /*norm=*/3.0, &grad);

  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      auto perturbed = logits;
      perturbed.at(i, j) += eps;
      const auto up = pd::softmax_cross_entropy(perturbed, labels, mask, 3.0, nullptr);
      perturbed.at(i, j) -= 2 * eps;
      const auto dn = pd::softmax_cross_entropy(perturbed, labels, mask, 3.0, nullptr);
      const double fd = (up.loss_sum - dn.loss_sum) / (2.0 * eps) / 3.0;
      EXPECT_NEAR(grad.at(i, j), fd, 2e-3) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(Ops, SoftmaxCrossEntropyColumnBlocksMatchOneBlock) {
  // 7 classes split unevenly into 2 and 3 column blocks, so the last block
  // carries padding columns; 300 rows span two of the kernel's row chunks.
  const std::int64_t n = 300;
  const std::int64_t c = 7;
  const auto logits = random_matrix(n, c, 50);
  std::vector<std::int32_t> labels(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    labels[static_cast<std::size_t>(i)] = static_cast<std::int32_t>((i * 5) % c);
    mask[static_cast<std::size_t>(i)] = i % 3 != 0 ? 1 : 0;
  }
  const double norm = 17.0;
  pd::Matrix want_grad(n, c);
  const auto want = pd::softmax_cross_entropy(logits, labels, mask, norm, &want_grad);
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };

  for (const std::int64_t p : {1, 2, 3}) {
    const std::int64_t bc = (c + p - 1) / p;
    // Padding columns hold NaN: the kernel must never read them.
    std::vector<float> blocks(static_cast<std::size_t>(p * n * bc),
                              std::numeric_limits<float>::quiet_NaN());
    for (std::int64_t b = 0; b < p; ++b) {
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = b * bc; j < std::min(c, (b + 1) * bc); ++j) {
          blocks[static_cast<std::size_t>((b * n + i) * bc + j - b * bc)] = logits.at(i, j);
        }
      }
    }
    for (std::int64_t w = 0; w < p; ++w) {
      pd::Matrix grad(n, bc, 123.0f);  // stale contents must be overwritten
      const auto got = pd::softmax_cross_entropy_blocks(blocks, n, bc, c, labels, mask, norm,
                                                        &grad, w * bc);
      EXPECT_EQ(got.loss_sum, want.loss_sum) << "P " << p << " window " << w;
      EXPECT_EQ(got.count, want.count);
      EXPECT_EQ(got.correct, want.correct);
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t jj = 0; jj < bc; ++jj) {
          const std::int64_t j = w * bc + jj;
          const float expect = j < c ? want_grad.at(i, j) : 0.0f;
          ASSERT_EQ(bits(grad.at(i, jj)), bits(expect))
              << "P " << p << " window " << w << " row " << i << " class " << j;
        }
      }
    }
    const auto no_grad =
        pd::softmax_cross_entropy_blocks(blocks, n, bc, c, labels, mask, norm, nullptr);
    EXPECT_EQ(no_grad.loss_sum, want.loss_sum) << "P " << p;
  }
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimise f(x) = sum (x - 3)^2 elementwise.
  std::vector<float> x(8, 0.0f);
  pd::AdamConfig cfg;
  cfg.lr = 0.1f;
  pd::Adam opt(x.size(), cfg);
  std::vector<float> g(8);
  for (int step = 0; step < 500; ++step) {
    for (std::size_t i = 0; i < x.size(); ++i) g[i] = 2.0f * (x[i] - 3.0f);
    opt.step(x, g);
  }
  for (const float v : x) EXPECT_NEAR(v, 3.0f, 1e-2f);
}

TEST(Adam, FirstStepIsSignedLearningRate) {
  // With bias correction, the first Adam step is ~ -lr * sign(g).
  std::vector<float> x{0.0f, 0.0f};
  pd::AdamConfig cfg;
  cfg.lr = 0.05f;
  pd::Adam opt(2, cfg);
  std::vector<float> g{0.3f, -2.0f};
  opt.step(x, g);
  EXPECT_NEAR(x[0], -0.05f, 1e-4f);
  EXPECT_NEAR(x[1], 0.05f, 1e-4f);
}

TEST(Adam, ShardedUpdateMatchesFullUpdate) {
  // Elementwise property the distributed validation relies on: updating two
  // halves with separate Adam instances equals updating the concatenation.
  std::vector<float> full{1.0f, -2.0f, 0.5f, 4.0f};
  std::vector<float> gfull{0.1f, 0.2f, -0.3f, 0.4f};
  pd::Adam opt_full(4, {});
  opt_full.step(full, gfull);

  std::vector<float> lo{1.0f, -2.0f};
  std::vector<float> hi{0.5f, 4.0f};
  pd::Adam opt_lo(2, {});
  pd::Adam opt_hi(2, {});
  opt_lo.step(lo, std::vector<float>{0.1f, 0.2f});
  opt_hi.step(hi, std::vector<float>{-0.3f, 0.4f});
  EXPECT_EQ(lo[0], full[0]);
  EXPECT_EQ(lo[1], full[1]);
  EXPECT_EQ(hi[0], full[2]);
  EXPECT_EQ(hi[1], full[3]);
}
