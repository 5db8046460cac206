#include "load.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>

#include "stats.hpp"
#include "trace.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace ps = plexus::serve;

bool LoadResult::met(double limit_us, int max_batch) const {
  const double allowed_backlog = rate * limit_us * 1e-6 + max_batch;
  return rejected == 0 && errors == 0 && wrong == 0 && answered == sent &&
         latency_p99_us <= limit_us && late_p99_us <= limit_us &&
         static_cast<double>(backlog_at_end) <= allowed_backlog;
}

std::vector<std::int32_t> expected_labels(const ps::ServedModel& model) {
  const auto& logits = model.logits();
  std::vector<std::int32_t> out(static_cast<std::size_t>(model.num_nodes()));
  for (std::int64_t v = 0; v < model.num_nodes(); ++v) {
    const float* row = logits.row(model.logits_row(v));
    std::int32_t best = 0;
    for (std::int64_t c = 1; c < model.num_classes(); ++c) {
      if (row[c] > row[best]) best = static_cast<std::int32_t>(c);
    }
    out[static_cast<std::size_t>(v)] = best;
  }
  return out;
}

LoadResult run_open_loop(const ps::ServedModel& model, const ps::ServeOptions& sopt,
                         const std::vector<std::int64_t>& nodes,
                         const std::vector<std::int32_t>& expected, double rate, double seconds,
                         Tracer* tracer) {
  PLEXUS_CHECK(rate > 0.0 && seconds > 0.0 && !nodes.empty(), "bad open-loop load");
  const auto n = static_cast<std::size_t>(std::max(1.0, std::round(rate * seconds)));
  const double gap_ns = 1e9 / rate;

  std::vector<Clock::time_point> due(n);
  std::vector<std::future<ps::Prediction>> futures(n);
  std::vector<float> late_us(n, 0.0f), submit_us(n, 0.0f);
  std::vector<float> lat_us(n, std::nanf(""));  // NaN: not answered
  std::atomic<std::size_t> published{0};  // requests handed to the collector
  std::atomic<std::size_t> collected{0};  // requests the collector finished

  LoadResult r;
  r.rate = rate;
  Clock::time_point last_answer{};
  ps::InferenceServer server(model, sopt);

  // Collector: waits the futures in submission order (the batcher answers
  // FIFO), so each wait ends when that request's answer is ready.
  std::thread collector([&] {
    for (std::size_t i = 0; i < n; ++i) {
      while (published.load(std::memory_order_acquire) <= i) std::this_thread::yield();
      if (futures[i].valid()) {
        try {
          const ps::Prediction p = futures[i].get();
          const auto now = Clock::now();
          last_answer = now;
          lat_us[i] =
              static_cast<float>(std::chrono::duration<double, std::micro>(now - due[i]).count());
          const auto node = nodes[i % nodes.size()];
          if (p.label != expected[static_cast<std::size_t>(node)]) ++r.wrong;
          if (tracer != nullptr && i % 4096 == 0) tracer->record("serve.request", due[i], now);
        } catch (...) {
          ++r.errors;
        }
      }
      collected.store(i + 1, std::memory_order_release);
    }
  });

  // Generator: this thread. Sleeps while the next due time is far and
  // otherwise spins with yields, so a collector or batcher woken on this CPU
  // runs at once instead of waiting out the spin. Never skips a request.
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  try {
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = t0 + std::chrono::nanoseconds(
                        static_cast<std::int64_t>(gap_ns * static_cast<double>(i)));
      for (auto now = Clock::now(); now < due[i]; now = Clock::now()) {
        if (due[i] - now > std::chrono::microseconds(300)) {
          std::this_thread::sleep_for(due[i] - now - std::chrono::microseconds(200));
        } else {
          std::this_thread::yield();
        }
      }
      const auto s0 = Clock::now();
      auto fut = server.submit(nodes[i % nodes.size()]);
      const auto s1 = Clock::now();
      late_us[i] = static_cast<float>(std::chrono::duration<double, std::micro>(s0 - due[i]).count());
      submit_us[i] = static_cast<float>(std::chrono::duration<double, std::micro>(s1 - s0).count());
      if (fut.has_value()) {
        futures[i] = std::move(*fut);
      } else {
        ++r.rejected;
      }
      published.store(i + 1, std::memory_order_release);
    }
  } catch (...) {
    // Release the collector (unsubmitted slots hold no future) before
    // unwinding, so the thread is joined on every path.
    published.store(n, std::memory_order_release);
    collector.join();
    throw;
  }
  r.backlog_at_end = static_cast<std::int64_t>(n - collected.load(std::memory_order_acquire));
  collector.join();
  server.stop();
  if (tracer != nullptr) tracer->record("serve.load", t0, Clock::now());

  // Whole-window median; per-slice p99s (slices by due time), then their
  // median.
  std::vector<float> answered, slice_lat, slice_late;
  std::vector<double> lat_p99s, late_p99s;
  const auto per_slice = static_cast<std::size_t>(std::max(1.0, std::round(rate * kSliceSeconds)));
  for (std::size_t b = 0; b < n; b += per_slice) {
    slice_lat.clear();
    slice_late.clear();
    for (std::size_t i = b; i < std::min(n, b + per_slice); ++i) {
      slice_late.push_back(late_us[i]);
      if (std::isnan(lat_us[i])) continue;
      slice_lat.push_back(lat_us[i]);
      answered.push_back(lat_us[i]);
    }
    if (!slice_lat.empty()) lat_p99s.push_back(percentile(slice_lat, 99.0));
    late_p99s.push_back(percentile(slice_late, 99.0));
  }
  r.sent = static_cast<std::int64_t>(n);
  r.answered = static_cast<std::int64_t>(answered.size());
  const double span_s = std::chrono::duration<double>(last_answer - t0).count();
  r.achieved_qps = span_s > 0.0 ? static_cast<double>(r.answered) / span_s : 0.0;
  r.latency_p50_us = percentile(answered, 50.0);
  r.latency_p99_us = median(lat_p99s);
  r.late_p99_us = median(late_p99s);
  r.submit_p50_us = percentile(submit_us, 50.0);
  r.server = server.stats();
  return r;
}

}  // namespace perfbench
