#include "serve/served_model.hpp"

#include <algorithm>
#include <utility>

#include "core/checkpoint.hpp"
#include "dense/gemm.hpp"
#include "dense/ops.hpp"
#include "sparse/spmm.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace plexus::serve {

ServedModel::ServedModel(const std::string& checkpoint_dir)
    : state_(core::load_model_state(checkpoint_dir)),
      ds_(core::load_checkpoint_dataset(checkpoint_dir)) {
  PLEXUS_CHECK(state_.feat_rows == ds_.padded_nodes && state_.feat_cols == ds_.padded_feature_dim,
               "checkpoint model/dataset shape mismatch in " + checkpoint_dir);
  PLEXUS_CHECK(static_cast<std::int32_t>(ds_.scheme) == state_.scheme,
               "checkpoint model/dataset permutation scheme mismatch in " + checkpoint_dir);

  // One-time full-graph forward, serially over the global matrices:
  // H_{l+1} = act(A_l H_l W_l). The trained features are the checkpoint's
  // feature blocks, already permuted into the layer-0 input order.
  const int L = state_.num_layers();
  dense::Matrix h = ds_.features;
  acts_.reserve(static_cast<std::size_t>(L));
  for (int l = 0; l < L; ++l) {
    const io::LayerState& ls = state_.layers[static_cast<std::size_t>(l)];
    PLEXUS_CHECK(ls.rows == h.cols(), "checkpoint layer dims do not chain");
    dense::Matrix w(ls.rows, ls.cols);
    std::copy(ls.w.begin(), ls.w.end(), w.data());
    h = sparse::spmm(ds_.adjacency_for_layer(l), h);
    h = dense::matmul(h, w);
    if (l + 1 < L) h = dense::relu(h);
    acts_.push_back(h);  // cache; h flows on as the next layer's input
  }

  // Original id -> output row: the final layer's output order, regenerated
  // from the checkpointed scheme and seed exactly as preprocessing drew it.
  p_out_ = util::scheme_permutations(state_.scheme, ds_.padded_nodes, state_.preprocess_seed)
               .output(L);
}

std::int64_t ServedModel::logits_row(std::int64_t node) const {
  PLEXUS_CHECK(node >= 0 && node < ds_.num_nodes, "predict: node id out of range");
  return p_out_[static_cast<std::size_t>(node)];
}

Prediction ServedModel::predict(std::int64_t node) const {
  const dense::Matrix& lg = logits();
  const float* row = lg.row(logits_row(node));
  // Argmax over the VALID classes only: padded weight columns are zero, so a
  // padded class's logit (0) could shadow all-negative real logits.
  Prediction p;
  p.label = 0;
  p.score = row[0];
  for (std::int64_t c = 1; c < ds_.num_classes; ++c) {
    if (row[c] > p.score) {
      p.score = row[c];
      p.label = static_cast<std::int32_t>(c);
    }
  }
  return p;
}

std::int32_t ServedModel::label(std::int64_t node) const {
  return ds_.labels[static_cast<std::size_t>(logits_row(node))];
}

bool ServedModel::in_split(std::int64_t node, core::Split split) const {
  const auto row = static_cast<std::size_t>(logits_row(node));
  switch (split) {
    case core::Split::Train: return ds_.train_mask[row] != 0;
    case core::Split::Val: return ds_.val_mask[row] != 0;
    case core::Split::Test: return ds_.test_mask[row] != 0;
  }
  return false;
}

const dense::Matrix& ServedModel::activations(int l) const {
  PLEXUS_CHECK(l >= 0 && l < num_layers(), "activations: bad layer index");
  return acts_[static_cast<std::size_t>(l)];
}

const dense::Matrix& ServedModel::logits() const { return acts_.back(); }

}  // namespace plexus::serve
