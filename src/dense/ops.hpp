#pragma once
/// \file ops.hpp
/// Elementwise / rowwise neural-network operations used by the GCN:
/// ReLU (+ gradient), masked softmax cross-entropy (+ gradient), accuracy.

#include <cstdint>
#include <span>
#include <vector>

#include "dense/matrix.hpp"

namespace plexus::dense {

/// Words of a ReLU derivative mask over n elements: one bit per element.
constexpr std::int64_t relu_mask_words(std::int64_t n) { return (n + 63) / 64; }

/// out = max(x, 0), elementwise: x > 0 ? x : +0 (out may alias x). A
/// non-empty `mask` (relu_mask_words(x.size()) words) also receives relu'(x)
/// as bits in flat row-major order: bit i % 64 of word i / 64 is x[i] > 0.
/// Threads split on whole words, so no two write one word.
void relu(const Matrix& x, Matrix& out, std::span<std::uint64_t> mask = {});
Matrix relu(const Matrix& x);

/// dx = dy where the forward relu's `mask` bit is set, else +0 (dx may alias
/// dy): bitwise `x > 0 ? dy : 0` on the forward's input x.
void relu_backward(std::span<const std::uint64_t> mask, const Matrix& dy, Matrix& dx);

/// Result of a masked softmax cross-entropy evaluation over a *row slice* of
/// the logits; losses/counts are sums so distributed shards can be all-reduced.
struct CrossEntropyResult {
  double loss_sum = 0.0;     ///< sum over masked rows of -log softmax[label]
  std::int64_t count = 0;    ///< number of masked rows in this slice
  std::int64_t correct = 0;  ///< argmax == label among masked rows
};

/// Computes masked softmax cross-entropy over `logits` (n x C). `labels[i]` is
/// the class for row i; rows with mask[i] == 0 contribute nothing and get zero
/// gradient. `grad` (same shape as logits) receives (softmax - onehot) / norm
/// for masked rows. `norm` is the *global* count of training rows so that
/// shard-local gradients sum to the serial gradient. One-block call of
/// softmax_cross_entropy_blocks.
CrossEntropyResult softmax_cross_entropy(const Matrix& logits,
                                         const std::vector<std::int32_t>& labels,
                                         const std::vector<std::uint8_t>& mask, double norm,
                                         Matrix* grad);

/// The kernel behind softmax_cross_entropy, for logits split by class: the
/// n x `classes` logits are stored as consecutive row-major column blocks of
/// `block_cols` columns, block b (classes [b * block_cols, (b + 1) *
/// block_cols)) at logits[b * n * block_cols]. Columns at or past `classes`
/// are padding and never read. `grad`, when given (n rows), receives the
/// gradient's columns [grad_col0, grad_col0 + grad->cols()); columns at or
/// past `classes` and masked-out rows get zero. Each row's loss, argmax and
/// gradient are bitwise-equal to the one-block call on the reassembled
/// (n x classes) matrix. `grad` may alias one-block logits (`block_cols ==
/// grad->cols()`, `grad_col0 == 0`): each row's logits are read before its
/// gradient row is written, and no row reads another.
CrossEntropyResult softmax_cross_entropy_blocks(std::span<const float> logits, std::int64_t n,
                                                std::int64_t block_cols, std::int64_t classes,
                                                std::span<const std::int32_t> labels,
                                                std::span<const std::uint8_t> mask, double norm,
                                                Matrix* grad, std::int64_t grad_col0 = 0);

}  // namespace plexus::dense
