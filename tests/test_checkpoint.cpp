// Checkpoint save/restore (core/checkpoint.hpp + loader/checkpoint.hpp):
// resume reproduces an uninterrupted run bitwise, and the model.plx reader
// fails loudly on every corruption mode the dataset loaders guard against.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "loader/checkpoint.hpp"

namespace pc = plexus::core;
namespace pg = plexus::graph;
namespace pio = plexus::io;

namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("plexus_checkpoint_test_" + std::to_string(::getpid()));
    g_ = pg::make_test_graph(192, 6.0, 8, 4, 3);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  pc::TrainOptions options(int epochs) const {
    pc::TrainOptions opt;
    opt.grid = {2, 1, 2};
    opt.model.hidden_dims = {16, 16};
    opt.epochs = epochs;
    return opt;
  }

  std::filesystem::path dir_;
  pg::Graph g_;
};

}  // namespace

TEST_F(CheckpointTest, ResumeReproducesUninterruptedRunBitwise) {
  // Reference: 5 epochs straight through, no checkpointing.
  const auto straight = pc::train_plexus(g_, options(5));

  // Interrupted: 2 epochs + checkpoint, then resume to 5.
  auto first = options(2);
  first.checkpoint_dir = dir_.string();
  const auto head = pc::train_plexus(g_, first);
  EXPECT_EQ(head.first_epoch, 0);
  ASSERT_EQ(head.epochs.size(), 2u);

  const auto tail = pc::resume_plexus(dir_.string(), options(5));
  EXPECT_EQ(tail.first_epoch, 2);
  ASSERT_EQ(tail.epochs.size(), 3u);

  // Bitwise: epoch seeds key on the absolute epoch index and the checkpoint
  // round-trips every weight/moment exactly, so losses and accuracies must
  // be EQ, not NEAR.
  for (std::size_t e = 0; e < head.epochs.size(); ++e) {
    EXPECT_EQ(head.epochs[e].loss, straight.epochs[e].loss) << "epoch " << e;
  }
  for (std::size_t e = 0; e < tail.epochs.size(); ++e) {
    EXPECT_EQ(tail.epochs[e].loss, straight.epochs[e + 2].loss) << "epoch " << e + 2;
    EXPECT_EQ(tail.epochs[e].train_accuracy, straight.epochs[e + 2].train_accuracy);
  }
}

TEST_F(CheckpointTest, ModelStateRoundTrip) {
  auto opt = options(2);
  opt.checkpoint_dir = dir_.string();
  pc::train_plexus(g_, opt);

  const auto s = pc::load_model_state(dir_.string());
  EXPECT_EQ(s.hidden_dims, (std::vector<std::int64_t>{16, 16}));
  EXPECT_EQ(s.num_layers(), 3);
  EXPECT_EQ(s.pad_multiple, 4);
  EXPECT_EQ(s.epochs_completed, 2);
  EXPECT_EQ(s.preprocess_seed, 7u);
  for (const auto& l : s.layers) {
    ASSERT_EQ(l.w.size(), static_cast<std::size_t>(l.rows * l.cols));
    ASSERT_EQ(l.m.size(), l.w.size());
    ASSERT_EQ(l.v.size(), l.w.size());
    EXPECT_EQ(l.adam_t, 2);
  }
  EXPECT_EQ(s.feat_m.size(), static_cast<std::size_t>(s.feat_rows * s.feat_cols));

  // Writing the state back out reproduces it exactly.
  const auto dir2 = dir_ / "rewrite";
  pio::write_model_state(dir2.string(), s);
  const auto s2 = pio::read_model_state(dir2.string());
  EXPECT_EQ(s2.layers[0].w, s.layers[0].w);
  EXPECT_EQ(s2.feat_v, s.feat_v);
  EXPECT_EQ(s2.epochs_completed, s.epochs_completed);
}

TEST_F(CheckpointTest, CheckpointDatasetIsAValidDataset) {
  auto opt = options(2);
  opt.checkpoint_dir = dir_.string();
  pc::train_plexus(g_, opt);

  const auto ds = pc::load_checkpoint_dataset(dir_.string());
  EXPECT_EQ(ds.num_classes, 4);
  EXPECT_EQ(ds.padded_nodes % 4, 0);
  EXPECT_EQ(ds.features.rows(), ds.padded_nodes);
}

TEST_F(CheckpointTest, MissingModelStateThrows) {
  EXPECT_THROW(pc::load_model_state("/nonexistent/plexus_ckpt"), std::runtime_error);
}

TEST_F(CheckpointTest, TruncatedModelStateThrows) {
  auto opt = options(1);
  opt.checkpoint_dir = dir_.string();
  pc::train_plexus(g_, opt);

  const auto path = dir_ / "model.plx";
  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, 64u);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(pc::load_model_state(dir_.string()), std::runtime_error);
}

TEST_F(CheckpointTest, CorruptMagicThrows) {
  auto opt = options(1);
  opt.checkpoint_dir = dir_.string();
  pc::train_plexus(g_, opt);

  const auto path = dir_ / "model.plx";
  std::FILE* f = std::fopen(path.string().c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const std::uint64_t garbage = 0xdeadbeefdeadbeefULL;
  ASSERT_EQ(std::fwrite(&garbage, sizeof(garbage), 1, f), 1u);
  std::fclose(f);
  try {
    pc::load_model_state(dir_.string());
    FAIL() << "corrupt magic accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos) << e.what();
  }
}

TEST_F(CheckpointTest, ShortWriteSurfacesAtClose) {
  // Same /dev/full trick as the dataset writers: buffered writes succeed
  // into the stdio buffer and only fail at the checked close.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this platform";
  auto opt = options(1);
  opt.checkpoint_dir = dir_.string();
  pc::train_plexus(g_, opt);
  const auto s = pc::load_model_state(dir_.string());

  const auto wdir = dir_ / "full_disk";
  std::filesystem::create_directories(wdir);
  std::filesystem::create_symlink("/dev/full", wdir / "model.plx");
  EXPECT_THROW(pio::write_model_state(wdir.string(), s), std::runtime_error);
}

TEST_F(CheckpointTest, ResumeRejectsMismatchedGrid) {
  auto opt = options(2);
  opt.checkpoint_dir = dir_.string();
  pc::train_plexus(g_, opt);

  auto wrong = options(4);
  wrong.grid = {2, 1, 1};  // volume 2 != checkpoint pad_multiple 4
  EXPECT_THROW(pc::resume_plexus(dir_.string(), wrong), std::runtime_error);
}

TEST_F(CheckpointTest, RetiredSpecSlotsKeepTheLayout) {
  // model.plx keeps two retired spec slots so older checkpoints still load:
  // the trained-features byte (always 1; a 0 is rejected with a diagnostic)
  // and the aggregation-strategy int32 (written 0, ignored on read).
  auto opt = options(1);
  opt.model.options.pipeline_depth = 3;
  opt.checkpoint_dir = dir_.string();
  pc::train_plexus(g_, opt);

  // Offsets: magic, hidden count, two hidden dims, model seed; then the
  // features byte, agg row blocks, dW tuning byte, pipeline depth.
  const long features_at = 8 + 8 + 2 * 8 + 8;
  const long depth_at = features_at + 1 + 4 + 1;
  const long aggregation_at = depth_at + 4;
  const auto path = (dir_ / "model.plx").string();
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::int32_t depth = 0, aggregation = -1;
  ASSERT_EQ(std::fseek(f, depth_at, SEEK_SET), 0);
  ASSERT_EQ(std::fread(&depth, sizeof(depth), 1, f), 1u);
  ASSERT_EQ(std::fread(&aggregation, sizeof(aggregation), 1, f), 1u);
  EXPECT_EQ(depth, 3);
  EXPECT_EQ(aggregation, 0);
  const std::int32_t older_strategy = 1;  // what a checkpoint of a sparse run holds
  ASSERT_EQ(std::fseek(f, aggregation_at, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&older_strategy, sizeof(older_strategy), 1, f), 1u);
  std::fclose(f);

  auto s = pc::load_model_state(dir_.string());
  EXPECT_EQ(s.train_input_features, 1);
  EXPECT_EQ(s.pipeline_depth, 3);
  EXPECT_EQ(s.adam.lr, opt.model.options.adam.lr);  // fields after the slot still line up
  EXPECT_EQ(pc::spec_from_model_state(s).options.pipeline_depth, 3);

  s.train_input_features = 0;
  try {
    pc::spec_from_model_state(s);
    FAIL() << "frozen-features checkpoint accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("frozen input features"), std::string::npos)
        << e.what();
  }
}
