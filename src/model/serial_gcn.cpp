#include "model/serial_gcn.hpp"

#include "core/shard.hpp"
#include "dense/gemm.hpp"
#include "dense/ops.hpp"
#include "dense/optim.hpp"
#include "sparse/csr.hpp"
#include "sparse/spmm.hpp"
#include "util/error.hpp"

namespace plexus::ref {

std::vector<double> SerialResult::losses() const {
  std::vector<double> out;
  out.reserve(epochs.size());
  for (const auto& e : epochs) out.push_back(e.loss);
  return out;
}

namespace {

struct SerialModel {
  sparse::Csr adj;    ///< normalised adjacency
  sparse::Csr adj_t;  ///< == adj for symmetric graphs; kept for generality
  dense::Matrix features;
  std::vector<dense::Matrix> weights;
  std::vector<dense::Adam> w_adams;
  dense::Adam f_adam;
  std::vector<std::int64_t> dims;
  core::GcnSpec spec;

  SerialModel(const graph::Graph& g, const core::GcnSpec& s) : spec(s) {
    adj = sparse::normalize_adjacency(g.adjacency(), g.num_nodes);
    adj_t = adj.transposed();
    features = g.features;
    dims.push_back(g.feature_dim());
    for (const auto h : s.hidden_dims) dims.push_back(h);
    dims.push_back(g.num_classes);
    for (int l = 0; l < s.num_layers(); ++l) {
      const auto din = dims[static_cast<std::size_t>(l)];
      const auto dout = dims[static_cast<std::size_t>(l) + 1];
      weights.push_back(core::init_weight_block(s.seed, l, 0, 0, din, dout, din, dout));
      w_adams.emplace_back(static_cast<std::size_t>(din * dout), s.options.adam);
    }
    f_adam = dense::Adam(static_cast<std::size_t>(features.size()), s.options.adam);
  }

  struct ForwardState {
    std::vector<dense::Matrix> h;                        // aggregation outputs per layer
    std::vector<std::vector<std::uint64_t>> relu_masks;  // relu'(Q) bits per hidden layer
    dense::Matrix logits;
  };

  ForwardState forward() const {
    ForwardState st;
    const int L = spec.num_layers();
    dense::Matrix f = features;
    for (int l = 0; l < L; ++l) {
      dense::Matrix h = sparse::spmm(adj, f);                       // eq. 2.1
      dense::Matrix q = dense::matmul(h, weights[static_cast<std::size_t>(l)]);  // eq. 2.2
      st.h.push_back(std::move(h));
      if (l == L - 1) {
        st.logits = std::move(q);
      } else {
        std::vector<std::uint64_t> mask(static_cast<std::size_t>(dense::relu_mask_words(q.size())));
        dense::relu(q, q, mask);  // eq. 2.3
        st.relu_masks.push_back(std::move(mask));
        f = std::move(q);
      }
    }
    return st;
  }

  /// Backward from dlogits; applies Adam to weights and (optionally) features.
  void backward_and_step(const ForwardState& st, const dense::Matrix& dlogits) {
    const int L = spec.num_layers();
    dense::Matrix dq = dlogits;
    for (int l = L - 1; l >= 0; --l) {
      const auto& h = st.h[static_cast<std::size_t>(l)];
      // eq. 2.5
      const dense::Matrix dw = dense::matmul(h, dq, dense::Trans::T, dense::Trans::N);
      // eq. 2.6
      dense::Matrix dh =
          dense::matmul(dq, weights[static_cast<std::size_t>(l)], dense::Trans::N, dense::Trans::T);
      // eq. 2.7
      dense::Matrix df = sparse::spmm(adj_t, dh);
      w_adams[static_cast<std::size_t>(l)].step(weights[static_cast<std::size_t>(l)].flat(),
                                                dw.flat());
      if (l > 0) {
        // eq. 2.4 for the layer below
        dense::relu_backward(st.relu_masks[static_cast<std::size_t>(l - 1)], df, df);
        dq = std::move(df);
      } else {
        f_adam.step(features.flat(), df.flat());
      }
    }
  }
};

}  // namespace

SerialResult train_serial_gcn(const graph::Graph& g, const core::GcnSpec& spec, int epochs,
                              bool evaluate_splits) {
  SerialModel model(g, spec);
  const double norm = static_cast<double>(g.train_count());
  PLEXUS_CHECK(norm > 0, "no training nodes");

  SerialResult out;
  for (int e = 0; e < epochs; ++e) {
    auto st = model.forward();
    dense::Matrix grad(st.logits.rows(), st.logits.cols());
    const auto ce =
        dense::softmax_cross_entropy(st.logits, g.labels, g.train_mask, norm, &grad);
    out.epochs.push_back({ce.loss_sum / static_cast<double>(ce.count),
                          static_cast<double>(ce.correct) / static_cast<double>(ce.count)});
    model.backward_and_step(st, grad);
  }
  if (evaluate_splits) {
    const auto st = model.forward();
    const auto val = dense::softmax_cross_entropy(st.logits, g.labels, g.val_mask, norm, nullptr);
    const auto test =
        dense::softmax_cross_entropy(st.logits, g.labels, g.test_mask, norm, nullptr);
    out.val_accuracy = val.count > 0 ? static_cast<double>(val.correct) / val.count : 0.0;
    out.test_accuracy = test.count > 0 ? static_cast<double>(test.correct) / test.count : 0.0;
  }
  return out;
}

dense::Matrix serial_forward(const graph::Graph& g, const core::GcnSpec& spec) {
  SerialModel model(g, spec);
  return model.forward().logits;
}

SerialGrads serial_loss_and_grads(const graph::Graph& g, const core::GcnSpec& spec) {
  SerialModel model(g, spec);
  const double norm = static_cast<double>(g.train_count());
  const auto st = model.forward();
  dense::Matrix grad(st.logits.rows(), st.logits.cols());
  const auto ce = dense::softmax_cross_entropy(st.logits, g.labels, g.train_mask, norm, &grad);

  SerialGrads out;
  out.loss = ce.loss_sum / static_cast<double>(ce.count);
  out.dw.resize(static_cast<std::size_t>(spec.num_layers()));
  dense::Matrix dq = grad;
  for (int l = spec.num_layers() - 1; l >= 0; --l) {
    const auto& h = st.h[static_cast<std::size_t>(l)];
    out.dw[static_cast<std::size_t>(l)] =
        dense::matmul(h, dq, dense::Trans::T, dense::Trans::N);
    dense::Matrix dh =
        dense::matmul(dq, model.weights[static_cast<std::size_t>(l)], dense::Trans::N,
                      dense::Trans::T);
    dense::Matrix df = sparse::spmm(model.adj_t, dh);
    if (l > 0) {
      dense::relu_backward(st.relu_masks[static_cast<std::size_t>(l - 1)], df, df);
      dq = std::move(df);
    } else {
      out.df = std::move(df);
    }
  }
  return out;
}

}  // namespace plexus::ref
