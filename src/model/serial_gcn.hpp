#pragma once
/// \file serial_gcn.hpp
/// Serial (single-device) reference GCN with trainable input features.
///
/// Plays the role PyTorch Geometric plays in the paper's Figure 7: the ground
/// truth that every 3D-parallel configuration must match. It shares the exact
/// deterministic initialisation (core/shard.hpp) and Adam implementation with
/// the distributed model, so loss curves agree to float reduction-order
/// tolerance.

#include <cstdint>
#include <vector>

#include "core/model.hpp"
#include "dense/matrix.hpp"
#include "graph/graph.hpp"

namespace plexus::ref {

struct SerialEpoch {
  double loss = 0.0;
  double train_accuracy = 0.0;
};

struct SerialResult {
  std::vector<SerialEpoch> epochs;
  double val_accuracy = 0.0;
  double test_accuracy = 0.0;
  std::vector<double> losses() const;
};

/// Train the reference model; `spec` matches the distributed GcnSpec (only
/// hidden_dims, adam config and seed are used; input features are trained).
SerialResult train_serial_gcn(const graph::Graph& g, const core::GcnSpec& spec, int epochs,
                              bool evaluate_splits = false);

/// Single forward pass returning logits (tests).
dense::Matrix serial_forward(const graph::Graph& g, const core::GcnSpec& spec);

/// Loss and analytic gradients at initialisation, without optimizer steps —
/// the target for finite-difference checks and for distributed-gradient
/// equivalence tests.
struct SerialGrads {
  double loss = 0.0;
  std::vector<dense::Matrix> dw;  ///< per layer
  dense::Matrix df;               ///< gradient w.r.t. input features
};
SerialGrads serial_loss_and_grads(const graph::Graph& g, const core::GcnSpec& spec);

}  // namespace plexus::ref
