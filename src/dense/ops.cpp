#include "dense/ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace plexus::dense {

void relu(const Matrix& x, Matrix& out, std::span<std::uint64_t> mask) {
  PLEXUS_CHECK(x.same_shape(out), "relu shape mismatch");
  const std::int64_t n = x.size();
  PLEXUS_CHECK(mask.empty() || static_cast<std::int64_t>(mask.size()) == relu_mask_words(n),
               "relu mask size mismatch");
  const float* in = x.data();
  float* o = out.data();
  std::uint64_t* bits = mask.empty() ? nullptr : mask.data();
  const auto& kernels = simd::active_kernels();
  util::parallel_for(
      0, relu_mask_words(n),
      [&](std::int64_t w0, std::int64_t w1) {
        const std::int64_t i0 = w0 * 64;
        kernels.relu(in + i0, o + i0, std::min(n, w1 * 64) - i0,
                     bits == nullptr ? nullptr : bits + w0);
      },
      /*work_estimate=*/n);
}

Matrix relu(const Matrix& x) {
  Matrix out(x.rows(), x.cols());
  relu(x, out);
  return out;
}

void relu_backward(std::span<const std::uint64_t> mask, const Matrix& dy, Matrix& dx) {
  PLEXUS_CHECK(dy.same_shape(dx), "relu_backward shape mismatch");
  const std::int64_t n = dy.size();
  PLEXUS_CHECK(static_cast<std::int64_t>(mask.size()) == relu_mask_words(n),
               "relu_backward mask size mismatch");
  const float* g = dy.data();
  float* o = dx.data();
  const auto& kernels = simd::active_kernels();
  util::parallel_for(
      0, relu_mask_words(n),
      [&](std::int64_t w0, std::int64_t w1) {
        const std::int64_t i0 = w0 * 64;
        kernels.relu_backward(mask.data() + w0, g + i0, o + i0, std::min(n, w1 * 64) - i0);
      },
      /*work_estimate=*/n);
}

CrossEntropyResult softmax_cross_entropy(const Matrix& logits,
                                         const std::vector<std::int32_t>& labels,
                                         const std::vector<std::uint8_t>& mask, double norm,
                                         Matrix* grad) {
  PLEXUS_CHECK(grad == nullptr || grad->same_shape(logits), "grad shape");
  return softmax_cross_entropy_blocks(logits.flat(), logits.rows(), logits.cols(), logits.cols(),
                                      labels, mask, norm, grad);
}

CrossEntropyResult softmax_cross_entropy_blocks(std::span<const float> logits, std::int64_t n,
                                                std::int64_t block_cols, std::int64_t classes,
                                                std::span<const std::int32_t> labels,
                                                std::span<const std::uint8_t> mask, double norm,
                                                Matrix* grad, std::int64_t grad_col0) {
  const std::int64_t c = classes;
  PLEXUS_CHECK(static_cast<std::int64_t>(labels.size()) == n, "labels size");
  PLEXUS_CHECK(static_cast<std::int64_t>(mask.size()) == n, "mask size");
  PLEXUS_CHECK(norm > 0.0, "softmax_cross_entropy: norm must be positive");
  if (grad != nullptr) {
    PLEXUS_CHECK(grad->rows() == n && grad_col0 >= 0, "grad shape");
    grad->zero();
  }
  CrossEntropyResult res;
  if (n == 0) return res;
  PLEXUS_CHECK(c > 0 && block_cols > 0, "softmax_cross_entropy: empty class blocks");
  const std::int64_t blocks = (c + block_cols - 1) / block_cols;
  PLEXUS_CHECK(static_cast<std::int64_t>(logits.size()) >= blocks * n * block_cols,
               "softmax_cross_entropy: logits shorter than its column blocks");
  const std::int64_t g1 = grad != nullptr ? std::min(c, grad_col0 + grad->cols()) : 0;

  // Rows are processed in fixed-size chunks (grain independent of the thread
  // count) and the per-chunk loss partials are combined in chunk order, so
  // the double-precision sum is bitwise-identical for any thread budget.
  constexpr std::int64_t kRowChunk = 256;
  std::vector<CrossEntropyResult> partials(
      static_cast<std::size_t>(util::parallel_chunk_count(n, kRowChunk)));
  util::parallel_for_grain(0, n, kRowChunk, [&](std::int64_t chunk, std::int64_t i0,
                                                std::int64_t i1) {
    CrossEntropyResult local;
    std::vector<float> row_buf(static_cast<std::size_t>(c));
    std::vector<float> probs(static_cast<std::size_t>(c));
    float* row = row_buf.data();
    for (std::int64_t i = i0; i < i1; ++i) {
      if (mask[static_cast<std::size_t>(i)] == 0) continue;
      const std::int32_t label = labels[static_cast<std::size_t>(i)];
      PLEXUS_CHECK(label >= 0 && label < c, "label out of range");
      // Reassemble the row from its column blocks.
      for (std::int64_t b = 0; b < blocks; ++b) {
        const std::int64_t j0 = b * block_cols;
        std::copy_n(logits.data() + (b * n + i) * block_cols, std::min(block_cols, c - j0),
                    row + j0);
      }
      float mx = row[0];
      for (std::int64_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
      double denom = 0.0;
      for (std::int64_t j = 0; j < c; ++j) {
        probs[static_cast<std::size_t>(j)] = std::exp(row[j] - mx);
        denom += probs[static_cast<std::size_t>(j)];
      }
      const double log_denom = std::log(denom);
      local.loss_sum += -(static_cast<double>(row[label]) - mx - log_denom);
      local.count += 1;

      std::int64_t argmax = 0;
      for (std::int64_t j = 1; j < c; ++j) {
        if (row[j] > row[argmax]) argmax = j;
      }
      if (argmax == label) local.correct += 1;

      if (grad != nullptr) {
        float* grow = grad->row(i);
        const auto inv = static_cast<float>(1.0 / (denom * norm));
        for (std::int64_t j = grad_col0; j < g1; ++j) {
          grow[j - grad_col0] = probs[static_cast<std::size_t>(j)] * inv;
        }
        if (label >= grad_col0 && label < g1) {
          grow[label - grad_col0] -= static_cast<float>(1.0 / norm);
        }
      }
    }
    partials[static_cast<std::size_t>(chunk)] = local;
  });
  for (const auto& p : partials) {
    res.loss_sum += p.loss_sum;
    res.count += p.count;
    res.correct += p.correct;
  }
  return res;
}

}  // namespace plexus::dense
