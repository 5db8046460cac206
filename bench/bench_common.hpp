#pragma once
/// \file bench_common.hpp
/// Shared helpers for the table/figure harnesses: proxy construction at
/// bench-friendly scale, formatting, and banner printing. Every harness
/// prints (a) the paper's reported numbers and (b) our measured/modelled
/// reproduction, so the two can be compared row by row.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "graph/datasets.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace plexus::bench {

/// PLEXUS_BENCH_RMAT_SCALE (log2 nodes of the sweep graphs), or
/// `default_scale` when unset, not a whole integer ("14x") or outside
/// [4, 26]. One parser for every bench so the env var means the same thing
/// everywhere; benches pick their own default (micro_kernels 18,
/// micro_collectives 14).
inline int rmat_scale(int default_scale) {
  const char* s = std::getenv("PLEXUS_BENCH_RMAT_SCALE");
  int v = 0;
  if (s != nullptr && util::parse_int(s, v) && v >= 4 && v <= 26) return v;
  return default_scale;
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

inline void note(const std::string& text) { std::printf("note: %s\n", text.c_str()); }

/// Proxy scaled for functional simulation on one host: structure class and
/// average degree of the real dataset, at `target_nodes` scale.
inline graph::Graph bench_proxy(const std::string& dataset, std::int64_t target_nodes,
                                std::uint64_t seed = 0xbe7c4) {
  return graph::make_proxy(graph::dataset_info(dataset), target_nodes, seed);
}

inline std::string ms(double seconds, int digits = 1) {
  return util::Table::fmt(seconds * 1e3, digits);
}

inline std::string pct(double fraction, int digits = 1) {
  return util::Table::fmt(fraction * 100.0, digits) + "%";
}

}  // namespace plexus::bench
