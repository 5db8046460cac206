#pragma once
/// \file ops.hpp
/// Elementwise / rowwise neural-network operations used by the GCN:
/// ReLU (+ gradient), masked softmax cross-entropy (+ gradient), accuracy.

#include <cstdint>
#include <span>
#include <vector>

#include "dense/matrix.hpp"

namespace plexus::dense {

/// out = max(x, 0), elementwise (out may alias x).
void relu(const Matrix& x, Matrix& out);
Matrix relu(const Matrix& x);

/// dx = dy * 1[pre_activation > 0], elementwise.
void relu_backward(const Matrix& pre_activation, const Matrix& dy, Matrix& dx);

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
/// (n x classes) matrix.
CrossEntropyResult softmax_cross_entropy_blocks(std::span<const float> logits, std::int64_t n,
                                                std::int64_t block_cols, std::int64_t classes,
                                                std::span<const std::int32_t> labels,
                                                std::span<const std::uint8_t> mask, double norm,
                                                Matrix* grad, std::int64_t grad_col0 = 0);

}  // namespace plexus::dense
