// Table 4: details of the graph datasets used for experiments.
// Prints the registry (the paper's exact statistics, used by the full-scale
// performance models) and, for each dataset, the scaled synthetic proxy used
// for functional simulation, with its measured structural properties.
#include "bench_common.hpp"
#include "sparse/partition2d.hpp"
#include "util/table.hpp"

int main() {
  using plexus::util::Table;
  namespace pg = plexus::graph;

  plexus::bench::banner("Table 4: Details of graph datasets used for experiments",
                        "Table 4 (section 6.2)");

  Table t({"Dataset", "# Nodes", "# Edges", "# Non-zeros", "# Features", "# Classes"});
  for (const auto& d : pg::paper_datasets()) {
    t.add_row({d.name, Table::fmt_count(d.num_nodes), Table::fmt_count(d.num_edges),
               Table::fmt_count(d.num_nonzeros), Table::fmt_count(d.feature_dim),
               Table::fmt_count(d.num_classes)});
  }
  t.print();

  plexus::bench::note(
      "functional proxies (generator class + avg degree matched, scaled down):");
  Table p({"Proxy of", "Nodes", "Sym. edges", "Avg degree (real)", "Avg degree (proxy)",
           "8x8 max/mean nnz (natural order)"});
  for (const auto& d : pg::paper_datasets()) {
    const auto g = plexus::bench::bench_proxy(d.name, 8000);
    const auto imb = plexus::sparse::grid_imbalance(g.adjacency(), 8, 8);
    p.add_row({d.name, Table::fmt_count(g.num_nodes), Table::fmt_count(g.num_edges()),
               Table::fmt(d.avg_degree(), 2),
               Table::fmt(static_cast<double>(g.num_edges()) / 2.0 /
                              static_cast<double>(g.num_nodes), 2),
               Table::fmt(imb.max_over_mean, 2)});
  }
  p.print();
  return 0;
}
