// Serving stack (serve/): ServedModel cached-logits inference over a real
// checkpoint, the InferenceServer admission queue + batcher under concurrent
// load, and the Zipfian request sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "serve/inference_server.hpp"
#include "serve/served_model.hpp"
#include "serve/zipf.hpp"

namespace pc = plexus::core;
namespace pg = plexus::graph;
namespace psv = plexus::serve;

namespace {

// One shared checkpoint + model for the whole suite: training even a tiny
// model dominates the runtime, and every test only reads.
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::filesystem::path(std::filesystem::temp_directory_path() /
                                     ("plexus_serve_test_" + std::to_string(::getpid())));
    const auto g = pg::make_test_graph(192, 6.0, 8, 4, 3);
    pc::TrainOptions opt;
    opt.grid = {2, 1, 2};
    opt.model.hidden_dims = {16, 16};
    opt.epochs = 3;
    opt.checkpoint_dir = dir_->string();
    pc::train_plexus(g, opt);
    model_ = new psv::ServedModel(dir_->string());
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }

  static std::filesystem::path* dir_;
  static psv::ServedModel* model_;
};

std::filesystem::path* ServeTest::dir_ = nullptr;
psv::ServedModel* ServeTest::model_ = nullptr;

}  // namespace

TEST_F(ServeTest, LoadsCheckpointShape) {
  EXPECT_EQ(model_->num_nodes(), 192);
  EXPECT_EQ(model_->num_classes(), 4);
  EXPECT_EQ(model_->num_layers(), 3);
  EXPECT_EQ(model_->logits().cols(), model_->state().layers.back().cols);
}

TEST_F(ServeTest, CorruptCheckpointBlockIsRejectedAtLoad) {
  // row_ptr[1] of the first adjacency block (after the 48-byte header and
  // row_ptr[0]) pointing far past the block's nonzeros.
  const auto copy = std::filesystem::path(dir_->string() + "_corrupt");
  std::filesystem::remove_all(copy);
  std::filesystem::copy(*dir_, copy);
  std::FILE* f = std::fopen((copy / "adj_0_0.plx").string().c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const std::int64_t bogus = std::int64_t{1} << 40;
  ASSERT_EQ(std::fseek(f, 56, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&bogus, sizeof(bogus), 1, f), 1u);
  std::fclose(f);
  try {
    psv::ServedModel corrupt(copy.string());
    ADD_FAILURE() << "corrupt checkpoint block accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("adj_0_0.plx"), std::string::npos) << e.what();
  }
  std::filesystem::remove_all(copy);
}

TEST_F(ServeTest, PredictIsArgmaxOverValidClassesOnly) {
  for (std::int64_t u = 0; u < model_->num_nodes(); ++u) {
    const auto p = model_->predict(u);
    ASSERT_GE(p.label, 0);
    ASSERT_LT(p.label, model_->num_classes());
    const auto row = model_->logits_row(u);
    EXPECT_EQ(p.score, model_->logits().at(row, p.label));
    // No valid class beats the returned one (padded columns must not win
    // even though their zero logits can exceed negative real logits).
    for (std::int32_t c = 0; c < model_->num_classes(); ++c) {
      EXPECT_LE(model_->logits().at(row, c), p.score);
    }
  }
}

TEST_F(ServeTest, LabelsAndSplitsFollowTheOutputPermutation) {
  // Every original node resolves to some label in range, and the three
  // splits partition the valid nodes (same invariant preprocessing set up).
  std::int64_t in_any = 0;
  for (std::int64_t u = 0; u < model_->num_nodes(); ++u) {
    const auto l = model_->label(u);
    EXPECT_GE(l, 0);
    EXPECT_LT(l, model_->num_classes());
    const int n = static_cast<int>(model_->in_split(u, pc::Split::Train)) +
                  static_cast<int>(model_->in_split(u, pc::Split::Val)) +
                  static_cast<int>(model_->in_split(u, pc::Split::Test));
    EXPECT_LE(n, 1);
    in_any += n;
  }
  EXPECT_EQ(in_any, model_->num_nodes());
}

TEST_F(ServeTest, ServerAnswersMatchDirectPredict) {
  psv::InferenceServer server(*model_);
  std::vector<std::future<psv::Prediction>> futures;
  for (std::int64_t u = 0; u < model_->num_nodes(); ++u) {
    auto fut = server.submit(u);
    ASSERT_TRUE(fut.has_value());
    futures.push_back(std::move(*fut));
  }
  for (std::int64_t u = 0; u < model_->num_nodes(); ++u) {
    const auto got = futures[static_cast<std::size_t>(u)].get();
    const auto want = model_->predict(u);
    EXPECT_EQ(got.label, want.label);
    EXPECT_EQ(got.score, want.score);
  }
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.served, model_->num_nodes());
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_GE(stats.batches, 1);
  EXPECT_LE(stats.max_batch_size, 64);
  EXPECT_GE(stats.p99_latency_us, stats.p50_latency_us);
}

TEST_F(ServeTest, ConcurrentSubmittersAllGetAnswers) {
  psv::InferenceServer server(*model_);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  std::vector<int> correct(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::int64_t u = (t * kPerThread + i) % model_->num_nodes();
        auto fut = server.submit(u);
        ASSERT_TRUE(fut.has_value());
        if (fut->get().label == model_->predict(u).label) ++correct[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  server.stop();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(correct[t], kPerThread);
  EXPECT_EQ(server.stats().served, kThreads * kPerThread);
}

TEST_F(ServeTest, AdmissionBoundRejectsOverload) {
  // Tiny queue + long linger: the submit loop floods far faster than the
  // batcher drains, so most requests must be rejected — and every admitted
  // one must still be answered.
  psv::ServeOptions opt;
  opt.max_queue = 4;
  opt.max_batch = 1024;
  opt.max_wait_us = 100000;
  psv::InferenceServer server(*model_, opt);
  constexpr int kFlood = 200;
  std::vector<std::future<psv::Prediction>> admitted;
  for (int i = 0; i < kFlood; ++i) {
    auto fut = server.submit(i % model_->num_nodes());
    if (fut.has_value()) admitted.push_back(std::move(*fut));
  }
  EXPECT_LT(admitted.size(), static_cast<std::size_t>(kFlood));
  for (auto& f : admitted) f.get();
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.served, static_cast<std::int64_t>(admitted.size()));
  EXPECT_EQ(stats.served + stats.rejected, kFlood);
  EXPECT_LE(stats.max_queue_depth, 4);
}

TEST_F(ServeTest, StopDrainsPendingRequests) {
  psv::ServeOptions opt;
  opt.max_wait_us = 50000;  // long linger so requests are pending at stop()
  psv::InferenceServer server(*model_, opt);
  std::vector<std::future<psv::Prediction>> futures;
  for (std::int64_t u = 0; u < 32; ++u) {
    auto fut = server.submit(u);
    ASSERT_TRUE(fut.has_value());
    futures.push_back(std::move(*fut));
  }
  server.stop();  // must answer everything already admitted, then join
  for (std::int64_t u = 0; u < 32; ++u) {
    EXPECT_EQ(futures[static_cast<std::size_t>(u)].get().label, model_->predict(u).label);
  }
  EXPECT_EQ(server.stats().served, 32);
  // After stop, new submissions are refused, not queued forever.
  EXPECT_FALSE(server.submit(0).has_value());
}

TEST_F(ServeTest, StatsTableListsEveryCounter) {
  psv::InferenceServer server(*model_);
  server.submit(0)->get();
  server.stop();
  const auto rendered = server.stats_table().to_string();
  for (const char* key : {"served", "rejected", "batches", "p50", "p99"}) {
    EXPECT_NE(rendered.find(key), std::string::npos) << rendered;
  }
}

TEST(Zipf, SamplesInRangeAndDeterministic) {
  psv::ZipfSampler a(100, 0.99, 7);
  psv::ZipfSampler b(100, 0.99, 7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = a.next();
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
    EXPECT_EQ(v, b.next());
  }
}

TEST(Zipf, SkewPrefersSmallIds) {
  // With exponent ~1 the head of the distribution dominates; uniform (s=0)
  // does not.
  const auto mass_in_head = [](double s) {
    psv::ZipfSampler z(1000, s, 11);
    int head = 0;
    for (int i = 0; i < 10000; ++i) head += z.next() < 10;
    return head;
  };
  EXPECT_GT(mass_in_head(1.1), 2000);  // >20% of mass on the top-1% ids
  EXPECT_LT(mass_in_head(0.0), 500);   // uniform: ~1%
}
