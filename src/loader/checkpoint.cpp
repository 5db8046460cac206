#include "loader/checkpoint.hpp"

#include <filesystem>

#include "loader/file_io.hpp"
#include "util/error.hpp"

namespace plexus::io {

namespace {

std::string model_path(const std::string& dir) { return dir + "/model.plx"; }

}  // namespace

void write_model_state(const std::string& dir, const ModelState& s) {
  PLEXUS_CHECK(s.feat_m.size() == s.feat_v.size(), "feature moment size mismatch");
  PLEXUS_CHECK(static_cast<std::int64_t>(s.feat_m.size()) == s.feat_rows * s.feat_cols,
               "feature moment shape mismatch");
  std::filesystem::create_directories(dir);
  auto f = open_file(model_path(dir), "wb");
  write_pod(f.get(), kPlxMagic);
  write_pod(f.get(), static_cast<std::int64_t>(s.hidden_dims.size()));
  write_array(f.get(), s.hidden_dims.data(), s.hidden_dims.size());
  write_pod(f.get(), s.model_seed);
  write_pod(f.get(), s.train_input_features);
  write_pod(f.get(), s.agg_row_blocks);
  write_pod(f.get(), s.gemm_dw_tuning);
  write_pod(f.get(), s.pipeline_depth);
  write_pod(f.get(), std::int32_t{0});  // retired aggregation-strategy slot
  write_pod(f.get(), s.adam.lr);
  write_pod(f.get(), s.adam.beta1);
  write_pod(f.get(), s.adam.beta2);
  write_pod(f.get(), s.adam.eps);
  write_pod(f.get(), s.adam.weight_decay);
  write_pod(f.get(), s.scheme);
  write_pod(f.get(), s.preprocess_seed);
  write_pod(f.get(), s.pad_multiple);
  write_pod(f.get(), s.epochs_completed);
  write_pod(f.get(), s.feat_rows);
  write_pod(f.get(), s.feat_cols);
  write_pod(f.get(), s.feat_t);
  write_array(f.get(), s.feat_m.data(), s.feat_m.size());
  write_array(f.get(), s.feat_v.data(), s.feat_v.size());
  write_pod(f.get(), static_cast<std::int64_t>(s.layers.size()));
  for (const auto& l : s.layers) {
    PLEXUS_CHECK(static_cast<std::int64_t>(l.w.size()) == l.rows * l.cols &&
                     l.m.size() == l.w.size() && l.v.size() == l.w.size(),
                 "layer state shape mismatch");
    write_pod(f.get(), l.rows);
    write_pod(f.get(), l.cols);
    write_pod(f.get(), l.adam_t);
    write_array(f.get(), l.w.data(), l.w.size());
    write_array(f.get(), l.m.data(), l.m.size());
    write_array(f.get(), l.v.data(), l.v.size());
  }
  f.close();
}

ModelState read_model_state(const std::string& dir) {
  const std::string path = model_path(dir);
  auto f = open_file(path, "rb");
  PLEXUS_CHECK(read_pod<std::uint64_t>(f.get(), nullptr) == kPlxMagic, "bad magic in " + path);
  ModelState s;
  const auto num_hidden = read_pod<std::int64_t>(f.get(), nullptr);
  PLEXUS_CHECK(num_hidden >= 0 && num_hidden < 1024, "implausible hidden-layer count in " + path);
  s.hidden_dims = read_array<std::int64_t>(f.get(), static_cast<std::size_t>(num_hidden), nullptr);
  s.model_seed = read_pod<std::uint64_t>(f.get(), nullptr);
  s.train_input_features = read_pod<std::uint8_t>(f.get(), nullptr);
  s.agg_row_blocks = read_pod<std::int32_t>(f.get(), nullptr);
  s.gemm_dw_tuning = read_pod<std::uint8_t>(f.get(), nullptr);
  s.pipeline_depth = read_pod<std::int32_t>(f.get(), nullptr);
  read_pod<std::int32_t>(f.get(), nullptr);  // retired aggregation-strategy slot
  s.adam.lr = read_pod<float>(f.get(), nullptr);
  s.adam.beta1 = read_pod<float>(f.get(), nullptr);
  s.adam.beta2 = read_pod<float>(f.get(), nullptr);
  s.adam.eps = read_pod<float>(f.get(), nullptr);
  s.adam.weight_decay = read_pod<float>(f.get(), nullptr);
  s.scheme = read_pod<std::int32_t>(f.get(), nullptr);
  s.preprocess_seed = read_pod<std::uint64_t>(f.get(), nullptr);
  s.pad_multiple = read_pod<std::int64_t>(f.get(), nullptr);
  s.epochs_completed = read_pod<std::int64_t>(f.get(), nullptr);
  s.feat_rows = read_pod<std::int64_t>(f.get(), nullptr);
  s.feat_cols = read_pod<std::int64_t>(f.get(), nullptr);
  s.feat_t = read_pod<std::int64_t>(f.get(), nullptr);
  PLEXUS_CHECK(s.feat_rows >= 0 && s.feat_cols >= 0, "negative feature shape in " + path);
  const auto feat_n = static_cast<std::size_t>(s.feat_rows * s.feat_cols);
  s.feat_m = read_array<float>(f.get(), feat_n, nullptr);
  s.feat_v = read_array<float>(f.get(), feat_n, nullptr);
  const auto num_layers = read_pod<std::int64_t>(f.get(), nullptr);
  PLEXUS_CHECK(num_layers >= 1 && num_layers < 1025, "implausible layer count in " + path);
  s.layers.resize(static_cast<std::size_t>(num_layers));
  for (auto& l : s.layers) {
    l.rows = read_pod<std::int64_t>(f.get(), nullptr);
    l.cols = read_pod<std::int64_t>(f.get(), nullptr);
    l.adam_t = read_pod<std::int64_t>(f.get(), nullptr);
    PLEXUS_CHECK(l.rows > 0 && l.cols > 0, "bad layer shape in " + path);
    const auto n = static_cast<std::size_t>(l.rows * l.cols);
    l.w = read_array<float>(f.get(), n, nullptr);
    l.m = read_array<float>(f.get(), n, nullptr);
    l.v = read_array<float>(f.get(), n, nullptr);
  }
  PLEXUS_CHECK(std::fgetc(f.get()) == EOF, "trailing bytes in " + path);
  PLEXUS_CHECK(static_cast<std::size_t>(num_hidden) + 1 == s.layers.size(),
               "layer count does not match hidden dims in " + path);
  return s;
}

}  // namespace plexus::io
