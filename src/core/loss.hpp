#pragma once
/// \file loss.hpp
/// Distributed masked softmax cross-entropy on the final layer's output.
///
/// The last layer's logits are sharded (rows along R, classes along P,
/// replicated over Q). Each rank all-gathers the class dimension across its
/// P-group, evaluates the masked loss on its row block straight from the
/// gathered column blocks, and writes only its own column block of the
/// gradient; the scalar loss/accuracy are summed across the R-group (row
/// blocks partition the nodes). When the P-group has one member the logits
/// block already holds every class, and the loss reads it in place. Padded
/// class columns carry zero gradient, keeping padding inert.

#include <cstdint>
#include <vector>

#include "core/dataset_view.hpp"
#include "core/grid.hpp"
#include "dense/matrix.hpp"
#include "sim/cluster.hpp"

namespace plexus::core {

struct LossResult {
  double loss = 0.0;      ///< mean over masked nodes (same value on all ranks)
  double accuracy = 0.0;  ///< argmax accuracy over masked nodes
};

/// `logits_block`: the final layer's output block. `last_layer` selects the
/// roles (and must be the index of the final layer). `mask` is one of the
/// dataset's split masks (output permutation). `norm` divides the gradient
/// (pass the *training* count even when evaluating other splits so gradients
/// stay consistent). `gathered` is the caller's reused buffer for the
/// P-gathered logits; it stays untouched (empty) when P = 1. `dlogits`, when
/// given, receives this rank's (N/R x C'/P) gradient block; pass null to skip
/// the gradient (evaluation). Both buffers are sized on first use and reused
/// after. `dlogits` may alias `logits_block`: when P > 1 the block is read
/// only by the P-gather, which blocks until it completes, and the gradient
/// kernel reads `gathered` alone; when P = 1 the kernel reads each row of the
/// block before it writes that row's gradient
/// (dense::softmax_cross_entropy_blocks).
LossResult distributed_softmax_ce(sim::RankContext& ctx, const Grid3D& grid, int last_layer,
                                  const DatasetView& view, const dense::Matrix& logits_block,
                                  const std::vector<std::uint8_t>& mask, double norm,
                                  std::vector<float>& gathered, dense::Matrix* dlogits);

}  // namespace plexus::core
