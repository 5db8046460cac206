#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>

#include "stats.hpp"
#include "core/roles.hpp"
#include "core/shard.hpp"
#include "dense/gemm.hpp"
#include "sparse/spmm.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace pc = plexus::comm;
namespace pcore = plexus::core;

namespace {

thread_local std::vector<std::int64_t> t_open_spans;
thread_local bool t_rank_thread = false;

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int idx = next.fetch_add(1);
  return idx;
}

const char* collective_span_name(pc::Collective c) {
  switch (c) {
    case pc::Collective::Barrier: return "comm.barrier";
    case pc::Collective::Broadcast: return "comm.broadcast";
    case pc::Collective::AllGather: return "comm.allgather";
    case pc::Collective::AllReduce: return "comm.allreduce";
    case pc::Collective::ReduceScatter: return "comm.reduce_scatter";
    case pc::Collective::AllToAll: return "comm.alltoall";
    case pc::Collective::Send: return "comm.send";
  }
  return "comm.other";
}

}  // namespace

// ---------------------------------------------------------------- Tracer

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

std::int64_t Tracer::parent_for_thread() const {
  return t_open_spans.empty() ? root_.load() : t_open_spans.back();
}

void Tracer::push(Span s) {
  std::lock_guard<std::mutex> lk(mutex_);
  if (spans_.size() >= kMaxSpans) {
    dropped_.fetch_add(1);
    return;
  }
  spans_.push_back(std::move(s));
}

std::int64_t Tracer::record(std::string_view name, Clock::time_point t0, Clock::time_point t1,
                            std::int64_t parent) {
  const std::int64_t id = next_id();
  push(Span{id, parent >= 0 ? parent : parent_for_thread(), thread_index(), us(t0), us(t1),
            std::string(name)});
  return id;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return spans_.size();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  PLEXUS_CHECK(f != nullptr, "cannot write span file " + path);
  std::lock_guard<std::mutex> lk(mutex_);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": %d, \"ts\": %.3f, "
                 "\"dur\": %.3f, \"args\": {\"id\": %lld, \"parent\": %lld}}%s\n",
                 s.name.c_str(), s.thread, s.start_us, s.end_us - s.start_us,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "], \"otherData\": {\"dropped_spans\": %lld}}\n",
               static_cast<long long>(dropped_.load()));
  PLEXUS_CHECK(std::fclose(f) == 0, "cannot finish span file " + path);
}

Tracer::Scope::Scope(Tracer* tracer, std::string_view name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  name_ = std::string(name);
  id_ = tracer_->next_id();
  parent_ = tracer_->parent_for_thread();
  t_open_spans.push_back(id_);
  t0_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const auto t1 = Clock::now();
  t_open_spans.pop_back();
  tracer_->push(Span{id_, parent_, thread_index(), tracer_->us(t0_), tracer_->us(t1),
                     std::move(name_)});
}

// -------------------------------------------------------- TimedTransport

std::int64_t TimedTransport::Totals::total_calls() const {
  std::int64_t n = 0;
  for (const auto c : calls) n += c;
  return n;
}

double TimedTransport::Totals::total_ms() const {
  std::int64_t n = 0;
  for (const auto x : ns) n += x;
  return static_cast<double>(n) / 1e6;
}

double TimedTransport::Totals::ms(pc::Collective c) const {
  return static_cast<double>(ns[static_cast<std::size_t>(c)]) / 1e6;
}

TimedTransport::TimedTransport(pc::Transport& inner, Tracer& tracer)
    : inner_(inner), tracer_(tracer) {}

void TimedTransport::account(pc::Collective kind, Clock::time_point t0) {
  const auto t1 = Clock::now();
  const auto k = static_cast<std::size_t>(kind);
  calls_[k].fetch_add(1, std::memory_order_relaxed);
  ns_[k].fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
                   std::memory_order_relaxed);
  tracer_.record(collective_span_name(kind), t0, t1);
}

void TimedTransport::move(pc::GroupShared& g, const pc::CollArgs& a) {
  const auto t0 = Clock::now();
  inner_.move(g, a);
  account(a.kind, t0);
}

void TimedTransport::finalize(pc::GroupShared& g, const pc::CollArgs& a) {
  const auto t0 = Clock::now();
  inner_.finalize(g, a);
  account(a.kind, t0);
}

void TimedTransport::execute(pc::GroupShared& g, const pc::CollArgs& a, pc::detail::CommOp& op) {
  const auto t0 = Clock::now();
  inner_.execute(g, a, op);
  account(a.kind, t0);
}

void TimedTransport::alltoallv(pc::GroupShared& g, const pc::CollArgs& a,
                               const std::vector<std::span<const unsigned char>>& send,
                               std::vector<std::vector<unsigned char>>& recv,
                               pc::detail::CommOp& op) {
  const auto t0 = Clock::now();
  inner_.alltoallv(g, a, send, recv, op);
  account(a.kind, t0);
}

TimedTransport::Totals TimedTransport::totals() const {
  Totals t;
  for (std::size_t k = 0; k < kKinds; ++k) {
    t.calls[k] = calls_[k].load();
    t.ns[k] = ns_[k].load();
  }
  return t;
}

// ------------------------------------------------------------- TimedView

TimedView::TimedView(const pcore::DatasetView& inner, Tracer& tracer)
    : inner_(inner), tracer_(tracer) {
  num_nodes_ = inner.num_nodes();
  padded_nodes_ = inner.padded_nodes();
  feature_dim_ = inner.feature_dim();
  padded_feature_dim_ = inner.padded_feature_dim();
  num_classes_ = inner.num_classes();
  train_total_ = inner.train_total();
  scheme_ = inner.scheme();
}

void TimedView::log(int version, std::int64_t r0, std::int64_t r1, std::int64_t c0,
                    std::int64_t c1, Clock::time_point t0) const {
  const auto t1 = Clock::now();
  if (!logging_.load()) return;
  tracer_.record("loader.adjacency_block", t0, t1);
  const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  std::lock_guard<std::mutex> lk(mutex_);
  block_ms_.push_back(ms);
  if (t_rank_thread) rank_wait_ms_ += ms;
  windows_.push_back(Window{version, r0, r1, c0, c1});
}

double TimedView::rank_wait_ms() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return rank_wait_ms_;
}

void mark_rank_thread() { t_rank_thread = true; }

plexus::sparse::Csr TimedView::adjacency_block(int version, std::int64_t r0, std::int64_t r1,
                                               std::int64_t c0, std::int64_t c1) const {
  const auto t0 = Clock::now();
  plexus::sparse::Csr out = inner_.adjacency_block(version, r0, r1, c0, c1);
  log(version, r0, r1, c0, c1, t0);
  return out;
}

plexus::sparse::Csr TimedView::adjacency_block_counted(int version, std::int64_t r0,
                                                       std::int64_t r1, std::int64_t c0,
                                                       std::int64_t c1,
                                                       std::int64_t* io_bytes) const {
  const auto t0 = Clock::now();
  plexus::sparse::Csr out = inner_.adjacency_block_counted(version, r0, r1, c0, c1, io_bytes);
  log(version, r0, r1, c0, c1, t0);
  return out;
}

plexus::dense::Matrix TimedView::feature_block(std::int64_t r0, std::int64_t r1,
                                               std::int64_t c0, std::int64_t c1) const {
  const auto t0 = Clock::now();
  plexus::dense::Matrix out = inner_.feature_block(r0, r1, c0, c1);
  if (logging_.load()) tracer_.record("loader.feature_block", t0, Clock::now());
  return out;
}

std::vector<double> TimedView::block_ms() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return block_ms_;
}

std::vector<TimedView::Window> TimedView::windows() const {
  std::lock_guard<std::mutex> lk(mutex_);
  std::set<std::tuple<int, std::int64_t, std::int64_t, std::int64_t, std::int64_t>> seen;
  std::vector<Window> out;
  for (const auto& w : windows_) {
    if (seen.emplace(w.version, w.r0, w.r1, w.c0, w.c1).second) out.push_back(w);
  }
  return out;
}

// ---------------------------------------------------------------- replay

ReplayResult replay_rank0_kernels(const TimedView& view, const pcore::Grid3D& grid,
                                  const std::vector<std::int64_t>& padded_dims, int threads,
                                  int reps) {
  using plexus::dense::Matrix;
  using plexus::dense::Trans;
  const int layers = static_cast<int>(padded_dims.size()) - 1;
  const std::int64_t n = view.padded_nodes();
  const pcore::Coords c0 = grid.coords_of(0);
  const auto windows = view.windows();

  // One SpMM job: the window's CSR (transposed for the backward pass) times
  // a dense operand of `width` columns.
  struct SpmmJob {
    plexus::sparse::Csr a;
    Matrix b;
  };
  struct GemmJob {
    Trans ta, tb;
    Matrix a, b;
  };
  std::vector<SpmmJob> spmm_jobs;
  std::vector<GemmJob> gemm_jobs;
  ReplayResult r;
  auto fill = [](Matrix& m, std::int64_t salt) {
    float* p = m.data();
    for (std::int64_t i = 0; i < m.size(); ++i) {
      p[i] = static_cast<float>(((i + salt) * 2654435761LL) % 1000) * 1e-3f - 0.5f;
    }
  };
  std::set<std::tuple<int, std::int64_t, std::int64_t, std::int64_t, std::int64_t>> taken;
  for (int l = 0; l < layers; ++l) {
    const pcore::LayerRoles roles = pcore::roles_for_layer(l);
    const auto shard = pcore::matrix_shard(n, n, grid, c0, roles.r, roles.p);
    const int version = view.scheme() == pcore::PermutationScheme::Double ? l % 2 : 0;
    const std::int64_t din_q = padded_dims[static_cast<std::size_t>(l)] / grid.extent(roles.q);
    const std::int64_t dout_p =
        padded_dims[static_cast<std::size_t>(l) + 1] / grid.extent(roles.p);
    const std::int64_t rows_r = shard.rows.size();
    for (const auto& w : windows) {
      if (w.version != version || w.r0 < shard.rows.begin || w.r1 > shard.rows.end ||
          w.c0 < shard.cols.begin || w.c1 > shard.cols.end) {
        continue;
      }
      // Layers 0 and 2 share an adjacency version; a window inside both of
      // their shards (none on the 2x1x2 grid) is replayed once.
      if (!taken.emplace(l, w.r0, w.r1, w.c0, w.c1).second) continue;
      const bool full_cols = w.c0 == shard.cols.begin && w.c1 == shard.cols.end;
      const bool full_rows = w.r0 == shard.rows.begin && w.r1 == shard.rows.end;
      plexus::sparse::Csr a = view.inner().adjacency_block(w.version, w.r0, w.r1, w.c0, w.c1);
      if (full_cols) {  // forward H = A F over a row block
        Matrix b(w.c1 - w.c0, din_q);
        fill(b, l);
        r.spmm.gflop += static_cast<double>(plexus::sparse::spmm_flops(a, din_q)) / 1e9;
        spmm_jobs.push_back(SpmmJob{a, std::move(b)});
      }
      if (full_rows) {  // backward dF = A^T dH over a column block
        Matrix b(w.r1 - w.r0, din_q);
        fill(b, l + 7);
        plexus::sparse::Csr at = a.transposed();
        r.spmm.gflop += static_cast<double>(plexus::sparse::spmm_flops(at, din_q)) / 1e9;
        spmm_jobs.push_back(SpmmJob{std::move(at), std::move(b)});
      }
    }
    // Forward Q = H W, backward dW = H^T dQ and dH = dQ W^T.
    Matrix h(rows_r, din_q), w(din_q, dout_p), dq(rows_r, dout_p);
    fill(h, l);
    fill(w, l + 1);
    fill(dq, l + 2);
    gemm_jobs.push_back(GemmJob{Trans::N, Trans::N, h, w});
    gemm_jobs.push_back(GemmJob{Trans::T, Trans::N, h, dq});
    gemm_jobs.push_back(GemmJob{Trans::N, Trans::T, dq, std::move(w)});
    r.gemm.gflop += 3.0 * 2.0 * static_cast<double>(rows_r) * static_cast<double>(din_q) *
                    static_cast<double>(dout_p) / 1e9;
  }

  plexus::util::ScopedIntraRankThreads budget(threads);
  std::vector<double> spmm_ms, gemm_ms;
  for (int rep = 0; rep < reps; ++rep) {
    plexus::util::WallTimer t;
    for (const auto& j : spmm_jobs) {
      Matrix out(j.a.rows(), j.b.cols());
      plexus::sparse::spmm(j.a, j.b, out);
    }
    spmm_ms.push_back(t.milliseconds());
    t.reset();
    for (const auto& j : gemm_jobs) {
      Matrix out(plexus::dense::op_rows(j.a, j.ta), plexus::dense::op_cols(j.b, j.tb));
      plexus::dense::gemm(j.ta, j.tb, 1.0f, j.a, j.b, 0.0f, out);
    }
    gemm_ms.push_back(t.milliseconds());
  }
  r.spmm.ms = median(spmm_ms);
  r.gemm.ms = median(gemm_ms);
  return r;
}

}  // namespace perfbench
