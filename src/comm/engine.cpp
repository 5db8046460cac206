#include "comm/handle.hpp"

#include <atomic>
#include <cstdlib>

#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"

namespace plexus::comm {

CommEngine::~CommEngine() {
  {
    std::lock_guard<std::mutex> lock(m_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void CommEngine::post(std::shared_ptr<detail::CommOp> op) {
  {
    std::lock_guard<std::mutex> lock(m_);
    queue_.push_back(std::move(op));
    if (!worker_.joinable()) worker_ = std::thread([this] { loop(); });
  }
  cv_.notify_one();
}

void CommEngine::run_inline(detail::CommOp& op) {
  try {
    op.execute(op);
  } catch (...) {
    op.error = std::current_exception();
  }
  op.execute = nullptr;  // drop captured buffers/closure state promptly
  op.mark_finished();
}

void CommEngine::loop() {
  // The comm thread moves bytes; it must never recursively build a kernel
  // pool, so it keeps the serial budget for its whole lifetime.
  util::set_intra_rank_threads(1);
  for (;;) {
    std::shared_ptr<detail::CommOp> op;
    {
      std::unique_lock<std::mutex> lock(m_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop set and fully drained
      op = std::move(queue_.front());
      queue_.pop_front();
    }
    run_inline(*op);
  }
}

namespace {

/// -1 = "use the environment", 0 or 1 = explicit override.
std::atomic<int> g_comm_threads{-1};

int env_comm_threads() {
  const char* s = std::getenv("PLEXUS_COMM_THREADS");
  if (s == nullptr || *s == '\0') return 1;
  int v = -1;
  if (!util::parse_int(s, v) || (v != 0 && v != 1)) {
    PLEXUS_LOG(Warn) << "PLEXUS_COMM_THREADS=" << s << " is not 0 or 1; using 1";
    return 1;
  }
  return v;
}

}  // namespace

int comm_thread_budget() {
  const int v = g_comm_threads.load(std::memory_order_relaxed);
  return v >= 0 ? v : env_comm_threads();
}

int comm_thread_override() { return g_comm_threads.load(std::memory_order_relaxed); }

void set_comm_thread_budget(int n) {
  PLEXUS_CHECK(n >= -1 && n <= 1, "comm thread budget must be 0 or 1 (-1 = environment)");
  g_comm_threads.store(n, std::memory_order_relaxed);
}

}  // namespace plexus::comm
