// Command-line training driver — the "plexus run" entry point a downstream
// user would script:
//
//   ./build/examples/plexus_train --dataset=ogbn-products --nodes=8000
//       --grid=4x2x2 --epochs=10
//   ./build/examples/plexus_train --gpus=16        # perf model picks the grid
//   ./build/examples/plexus_train --checkpoint=/tmp/ckpt --checkpoint-every=2
//   ./build/examples/plexus_train --resume=/tmp/ckpt --epochs=10
//
// dataset: any Table 4 name (a scaled proxy is generated at --nodes scale).
// --gpus asks the performance model for the best grid at that GPU budget
// (section 4.3). --backend picks the byte transport (sim, the default, plus
// mpi in PLEXUS_WITH_MPI builds) — losses are bitwise-identical across them.
// The mpi backend runs one process per rank: launch under
// `mpirun -np <volume>`; rank 0 preprocesses and writes a sharded dataset
// directory (PLEXUS_SHARD_DIR, default under /tmp), every rank then streams
// only its own shard's block files (see docs/COMM.md).
// --wire picks the collective wire format (fp32, the default, or bf16) —
// bf16 halves the float wire volume but is an explicit numeric change
// (losses close, not bitwise; docs/COMM.md).
// --checkpoint writes a restorable checkpoint directory (final epoch
// always, every k-th epoch with --checkpoint-every=k); --resume continues a
// checkpointed run bitwise (see docs/SERVING.md).
//
// Out-of-core streaming (docs/ARCHITECTURE.md): --write-shards=DIR generates
// the proxy dataset straight to a sharded block-file directory without ever
// materialising the graph in memory (graph::rmat_to_shards) and exits;
// --stream-dir=DIR then trains out of that directory, streaming adjacency
// blocks through an LRU cache bounded by --rss-budget=MB (default:
// unbounded) with an IO prefetch pipeline of
// --prefetch-depth blocks (default: adaptive). Epoch losses are
// bitwise-identical to the in-memory run over the same proxy.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/dataset_view.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/rmat_shards.hpp"
#include "perfmodel/perfmodel.hpp"
#include "sim/machine.hpp"
#include "util/arg_parser.hpp"
#include "util/enum_names.hpp"
#include "util/parse.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace {

/// Parse "XxYxZ" (e.g. "4x2x2").
bool parse_grid(const std::string& s, int& gx, int& gy, int& gz) {
  const auto a = s.find('x');
  const auto b = a == std::string::npos ? std::string::npos : s.find('x', a + 1);
  if (b == std::string::npos) return false;
  return plexus::util::parse_int(s.substr(0, a), gx) &&
         plexus::util::parse_int(s.substr(a + 1, b - a - 1), gy) &&
         plexus::util::parse_int(s.substr(b + 1), gz) && gx >= 1 && gy >= 1 && gz >= 1;
}

int fail(const plexus::util::ArgParser& args, const std::string& what) {
  std::fprintf(stderr, "plexus_train: %s\n%s", what.c_str(), args.usage().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using plexus::util::ArgParser;
  ArgParser args("plexus_train", "Train the Plexus 3D-parallel GCN on a proxy dataset.");
  args.add_flag("dataset", "name", "Table 4 dataset (proxy generated at --nodes scale)",
                "ogbn-products");
  args.add_flag("nodes", "n", "proxy node count", "4000");
  args.add_flag("grid", "XxYxZ", "3D grid shape", "2x2x2");
  args.add_flag("gpus", "n", "let the performance model pick the best n-GPU grid");
  args.add_flag("epochs", "n", "total training epochs", "10");
  args.add_flag("backend", "name",
                "byte transport: " + plexus::comm::backend_choices(), "sim");
  args.add_flag("wire", "name",
                "fp32 wire format: " +
                    plexus::util::enum_choices<plexus::comm::WirePrecision>() +
                    " (bf16 is not bitwise)",
                "fp32");
  args.add_flag("checkpoint", "dir", "write a checkpoint directory (final epoch; see -every)");
  args.add_flag("checkpoint-every", "k", "also checkpoint every k-th epoch", "0");
  args.add_flag("resume", "dir", "resume from a checkpoint directory (bitwise continuation)");
  args.add_flag("write-shards", "dir",
                "generate the proxy straight to a sharded dataset directory and exit "
                "(out-of-core; bitwise-equal to preprocessing in memory)");
  args.add_flag("stream-dir", "dir",
                "train out-of-core from a sharded dataset directory (losses bitwise-equal "
                "to the in-memory run)");
  args.add_flag("rss-budget", "MB",
                "streaming block-cache budget in MB (default: unbounded)");
  args.add_flag("prefetch-depth", "n",
                "streaming IO prefetch depth (default: adaptive from the perf model)");

  switch (args.parse(argc, argv)) {
    case ArgParser::Status::Help: std::fputs(args.usage().c_str(), stdout); return 0;
    case ArgParser::Status::Error:
      std::fprintf(stderr, "plexus_train: %s\n%s", args.error().c_str(), args.usage().c_str());
      return 1;
    case ArgParser::Status::Ok: break;
  }

  const std::string dataset = args.value("dataset");
  std::int64_t nodes = 0;
  if (!args.value_int64("nodes", nodes) || nodes < 1) {
    return fail(args, "bad --nodes '" + args.value("nodes") + "'");
  }
  int gx = 2, gy = 2, gz = 2;
  if (!parse_grid(args.value("grid"), gx, gy, gz)) {
    return fail(args, "bad --grid '" + args.value("grid") + "' (expected XxYxZ)");
  }
  int gpu_budget = 0;  // > 0: ask the perf model
  if (args.is_set("gpus") && (!args.value_int("gpus", gpu_budget) || gpu_budget < 1)) {
    return fail(args, "bad --gpus '" + args.value("gpus") + "'");
  }
  int epochs = 0;
  if (!args.value_int("epochs", epochs) || epochs < 1) {
    return fail(args, "bad --epochs '" + args.value("epochs") + "'");
  }
  auto backend = plexus::comm::Backend::Sim;
  if (!plexus::comm::backend_from_string(args.value("backend"), backend)) {
    return fail(args, plexus::util::enum_error<plexus::comm::Backend>(
                          args.value("backend"), plexus::comm::backend_choices()));
  }
  auto wire = plexus::comm::WirePrecision::Fp32;
  if (!plexus::comm::wire_precision_from_string(args.value("wire"), wire)) {
    return fail(args,
                plexus::util::enum_error<plexus::comm::WirePrecision>(args.value("wire")));
  }
  const std::string checkpoint_dir = args.value("checkpoint");
  int checkpoint_every = 0;
  if (!args.value_int("checkpoint-every", checkpoint_every) || checkpoint_every < 0) {
    return fail(args, "bad --checkpoint-every '" + args.value("checkpoint-every") + "'");
  }
  const std::string resume_dir = args.value("resume");
  const std::string write_shards_dir = args.value("write-shards");
  const std::string stream_dir = args.value("stream-dir");
  std::int64_t rss_budget_mb = -1;
  if (args.is_set("rss-budget") &&
      (!args.value_int64("rss-budget", rss_budget_mb) || rss_budget_mb < 0 ||
       rss_budget_mb > plexus::core::kMaxRssBudgetMb)) {
    return fail(args, "bad --rss-budget '" + args.value("rss-budget") + "'");
  }
  int prefetch_depth = -1;
  if (args.is_set("prefetch-depth") &&
      (!args.value_int("prefetch-depth", prefetch_depth) || prefetch_depth < 1)) {
    return fail(args, "bad --prefetch-depth '" + args.value("prefetch-depth") + "'");
  }

  const bool distributed = backend == plexus::comm::Backend::Mpi;
  if (distributed && !plexus::comm::mpi_transport_available()) {
    std::fprintf(stderr,
                 "this build has no mpi backend (expected %s); rebuild with "
                 "-DPLEXUS_WITH_MPI=ON\n",
                 plexus::comm::backend_choices().c_str());
    return 1;
  }

  plexus::comm::MpiRuntime rt;  // rank 0 / size 1 unless the mpi backend is up
  if (distributed) rt = plexus::comm::mpi_runtime_init(&argc, &argv);

  const auto& info = plexus::graph::dataset_info(dataset);
  const auto& machine = plexus::sim::Machine::perlmutter_a100();

  if (gpu_budget > 0) {
    // Model-selected configuration for a GPU budget (section 4.3). The choice
    // is deterministic, so under mpirun every rank selects the same grid
    // without communicating.
    const auto w = plexus::perf::WorkloadStats::from_dataset(info);
    const auto best = plexus::perf::best_configuration(machine, w, gpu_budget);
    gx = best.x;
    gz = best.z;
    gy = best.y;
    if (rt.rank == 0) {
      std::printf("performance model selected %s\n",
                  plexus::perf::grid_to_string(best).c_str());
    }
  }
  const int volume = gx * gy * gz;
  if (distributed && rt.size != volume) {
    if (rt.rank == 0) {
      std::fprintf(stderr,
                   "mpi backend needs one process per rank: launched %d processes for a "
                   "%dx%dx%d grid (%d ranks)\n",
                   rt.size, gx, gy, gz, volume);
    }
    plexus::comm::mpi_runtime_finalize();
    return 1;
  }

  plexus::core::TrainOptions opt;
  opt.grid = {gx, gy, gz};
  opt.machine = &machine;
  opt.model.hidden_dims = {128, 128};
  opt.model.options.agg_row_blocks = 8;
  opt.epochs = epochs;
  opt.evaluate_validation = true;
  opt.backend = backend;
  opt.wire = wire;
  opt.checkpoint_dir = checkpoint_dir;
  opt.checkpoint_every = checkpoint_every;
  if (rss_budget_mb >= 0) opt.rss_budget_bytes = rss_budget_mb << 20;
  if (prefetch_depth > 0) opt.prefetch_depth = prefetch_depth;
  // The block cache budget matters only for --stream-dir: the flag, else
  // unbounded.
  std::string budget_label = "none (resident adjacency)";
  if (!stream_dir.empty()) {
    budget_label = rss_budget_mb >= 0 ? std::to_string(rss_budget_mb) + " MiB" : "unbounded";
  }

  if (!write_shards_dir.empty()) {
    if (distributed) {
      std::fprintf(stderr, "--write-shards generates on one process; run it without --backend=mpi\n");
      return 1;
    }
    // Same proxy + preprocess parameters the in-memory path uses, so the
    // directory is byte-identical to preprocessing make_proxy(...) in memory
    // and the streamed losses gate bitwise against the in-memory run.
    auto spec = plexus::graph::proxy_shards_spec(info, nodes, /*seed=*/1);
    spec.scheme = static_cast<int>(opt.scheme);
    spec.num_layers = opt.model.num_layers();
    spec.pad_multiple = volume;
    spec.preprocess_seed = opt.preprocess_seed;
    spec.parts = volume;
    const plexus::util::WallTimer gen_timer;
    const auto r = plexus::graph::rmat_to_shards(write_shards_dir, spec);
    const double gen_s = gen_timer.seconds();
    std::printf(
        "wrote sharded %s proxy to %s: %lld nodes (%lld padded), %lld edges, %lld nnz per "
        "version, %.1f MB on disk, %.1f MB peak buffer, %lld of %lld R-MAT attempts "
        "replayed, %.2f s\n",
        dataset.c_str(), write_shards_dir.c_str(), static_cast<long long>(r.num_nodes),
        static_cast<long long>(r.padded_nodes), static_cast<long long>(r.num_edges),
        static_cast<long long>(r.adjacency_nnz), static_cast<double>(r.bytes_written) / 1e6,
        static_cast<double>(r.peak_buffer_bytes) / 1e6, static_cast<long long>(r.attempts),
        static_cast<long long>(spec.target_edges * plexus::graph::RmatAttempts::kCapPerEdge),
        gen_s);
    return 0;
  }

  const char* wire_label = plexus::comm::wire_precision_name(wire);
  const char* simd_label = plexus::simd::target_name(plexus::simd::active_target());

  plexus::core::TrainResult result;
  if (!resume_dir.empty()) {
    if (rt.rank == 0) {
      std::printf(
          "resuming from %s on a %dx%dx%d grid, %d total epochs, %s transport, %s wire, "
          "%s simd\n",
          resume_dir.c_str(), gx, gy, gz, epochs, plexus::comm::backend_name(backend),
          wire_label, simd_label);
    }
    result = distributed ? plexus::core::resume_plexus_rank(resume_dir, opt, rt.rank)
                         : plexus::core::resume_plexus(resume_dir, opt);
  } else if (!stream_dir.empty()) {
    if (distributed) {
      std::fprintf(stderr,
                   "--stream-dir runs the threaded cluster; the mpi backend already streams "
                   "per-rank shards (drop --backend=mpi)\n");
      return 1;
    }
    std::printf(
        "streaming %s out-of-core on a %dx%dx%d grid, %d epochs, budget %s, "
        "%s transport, %s wire, %s simd\n",
        stream_dir.c_str(), gx, gy, gz, epochs, budget_label.c_str(),
        plexus::comm::backend_name(backend), wire_label, simd_label);
    result = plexus::core::train_plexus_streaming(stream_dir, opt);
  } else if (!distributed) {
    const auto g = plexus::graph::make_proxy(info, nodes, /*seed=*/1);
    std::printf(
        "training %s proxy (%lld nodes, %lld edges) on a %dx%dx%d grid, %d epochs, "
        "%s transport, %s wire, %s simd\n",
        dataset.c_str(), static_cast<long long>(g.num_nodes),
        static_cast<long long>(g.num_edges()), gx, gy, gz, epochs,
        plexus::comm::backend_name(backend), wire_label, simd_label);
    result = plexus::core::train_plexus(g, opt);
  } else {
    // Rank 0 preprocesses once and writes the sharded block-file layout; the
    // barrier publishes it, then every rank (rank 0 included) streams only
    // the block files its own shard windows intersect.
    const char* env_dir = std::getenv("PLEXUS_SHARD_DIR");
    const std::string dir =
        env_dir != nullptr && *env_dir != '\0'
            ? std::string(env_dir)
            : (std::filesystem::temp_directory_path() /
               ("plexus_shards_" + dataset + "_" + std::to_string(nodes) + "_" +
                std::to_string(gx) + "x" + std::to_string(gy) + "x" + std::to_string(gz)))
                  .string();
    if (rt.rank == 0) {
      const auto g = plexus::graph::make_proxy(info, nodes, /*seed=*/1);
      std::printf(
          "training %s proxy (%lld nodes, %lld edges) on a %dx%dx%d grid, %d epochs, "
          "%s transport, %s wire, %s simd\n",
          dataset.c_str(), static_cast<long long>(g.num_nodes),
          static_cast<long long>(g.num_edges()), gx, gy, gz, epochs,
          plexus::comm::backend_name(backend), wire_label, simd_label);
      const auto ds = plexus::core::preprocess_graph(g, opt.scheme, opt.model.num_layers(),
                                                     /*pad_multiple=*/volume,
                                                     opt.preprocess_seed);
      plexus::core::write_sharded_plexus_dataset(dir, ds, volume);
      std::printf("rank 0 wrote sharded dataset to %s\n", dir.c_str());
    }
    plexus::comm::mpi_runtime_barrier();
    plexus::core::ShardedDatasetView view(dir);
    result = plexus::core::train_plexus_rank(view, opt, rt.rank);
    if (rt.rank == 0) {
      const auto st = view.cache_stats();
      std::printf("rank 0 streamed %lld bytes from %lld block files (shard-local IO)\n",
                  static_cast<long long>(st.bytes_loaded), static_cast<long long>(st.misses));
    }
  }

  if (rt.rank == 0) {
    for (std::size_t e = 0; e < result.epochs.size(); ++e) {
      const auto& s = result.epochs[e];
      std::printf(
          "epoch %2zu  loss %.4f  acc %.3f  sim %.2f ms (spmm %.2f, gemm %.2f, comm %.2f)  "
          "wire %.2f MB\n",
          e + 1 + static_cast<std::size_t>(result.first_epoch), s.loss, s.train_accuracy,
          s.epoch_seconds * 1e3, s.spmm_seconds * 1e3, s.gemm_seconds * 1e3,
          s.wait_seconds() * 1e3, s.comm_wire_bytes / 1e6);
      if (e == 0) {
        // Beside the measured workspace, the memory model's price for it:
        // the activation term of perf::estimate_per_gpu_bytes at this run's
        // own node count and layer dims.
        plexus::perf::WorkloadStats run_shape;
        run_shape.num_nodes = result.padded_nodes;
        run_shape.layer_dims = result.padded_dims;
        std::printf(
            "workspace %.1f MiB per rank x %d ranks (memory model's activation term %.1f MiB), "
            "block-cache budget %s\n",
            static_cast<double>(result.workspace_bytes) / (1 << 20), volume,
            plexus::perf::estimate_activation_bytes(run_shape, opt.grid) / (1 << 20),
            budget_label.c_str());
      }
    }
    std::printf("validation accuracy %.3f | avg epoch %.2f ms on %s\n", result.val_accuracy,
                result.avg_epoch_seconds(2) * 1e3, machine.name.c_str());
    if (!stream_dir.empty()) {
      // After, not inside, the epoch lines: the streamed run's epoch lines
      // must diff clean against the in-memory run's (the CI loss gate).
      double io_bytes = 0.0;
      double io_s = 0.0;
      for (const auto& s : result.epochs) {
        io_bytes += s.io_bytes_streamed;
        io_s += s.io_exposed_seconds;
      }
      std::printf("streamed %.2f MB of adjacency blocks from disk, %.2f ms exposed IO "
                  "(wall clock)\n",
                  io_bytes / 1e6, io_s * 1e3);
    }
    if (!checkpoint_dir.empty()) {
      std::printf("checkpoint written to %s\n", checkpoint_dir.c_str());
    }
  }
  if (distributed) {
    plexus::comm::mpi_runtime_barrier();  // keep rank 0's output ahead of teardown
    plexus::comm::mpi_runtime_finalize();
  }
  return 0;
}
