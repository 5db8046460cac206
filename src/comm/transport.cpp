#include "comm/transport.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/error.hpp"

namespace plexus::comm {

void Transport::move(GroupShared&, const CollArgs&) {
  PLEXUS_CHECK(false, "transport does not implement in-process movement");
}

void Transport::finalize(GroupShared&, const CollArgs&) {}

void Transport::execute(GroupShared&, const CollArgs&, detail::CommOp&) {
  PLEXUS_CHECK(false, "transport does not implement whole-op execution");
}

void Transport::alltoallv(GroupShared&, const CollArgs&,
                          const std::vector<std::span<const unsigned char>>&,
                          std::vector<std::vector<unsigned char>>&, detail::CommOp&) {
  PLEXUS_CHECK(false, "transport does not implement all_to_all_v");
}

namespace {

/// The historic shared-slot movement: peers read each other's published
/// buffers directly. Kept bit-for-bit identical to the pre-transport
/// Communicator loops — same memcpy pattern, same canonical (member 0..G-1)
/// float summation order — so every existing determinism test pins it.
class SimTransport final : public Transport {
 public:
  Backend backend() const override { return Backend::Sim; }
  const char* name() const override { return "sim"; }

  void move(GroupShared& g, const CollArgs& a) override {
    const std::size_t nb = a.count * a.elem;  // per-member chunk in bytes
    switch (a.kind) {
      case Collective::AllGather: {
        if (nb == 0) return;
        auto* dst = static_cast<unsigned char*>(a.recv);
        for (int m = 0; m < g.size(); ++m) {
          std::memcpy(dst + static_cast<std::size_t>(m) * nb,
                      g.slots[static_cast<std::size_t>(m)], nb);
        }
        return;
      }
      case Collective::ReduceScatter: {
        if (nb == 0) return;
        const std::size_t off = static_cast<std::size_t>(a.pos) * nb;
        const auto* first = static_cast<const unsigned char*>(g.slots[0]);
        detail::assign_chunk(a, a.recv, first + off);
        for (int m = 1; m < g.size(); ++m) {
          const auto* src =
              static_cast<const unsigned char*>(g.slots[static_cast<std::size_t>(m)]) + off;
          a.accumulate(a.recv, src, a.count);
        }
        return;
      }
      case Collective::AllReduce: {
        if (nb == 0) return;
        auto& scratch = detail::op_scratch();
        scratch.resize(a.count * a.accumulator_elem());
        detail::assign_chunk(a, scratch.data(), g.slots[0]);
        for (int m = 1; m < g.size(); ++m) {
          a.accumulate(scratch.data(), g.slots[static_cast<std::size_t>(m)], a.count);
        }
        return;  // copy-back happens in finalize(), after the completion barrier
      }
      case Collective::Broadcast: {
        if (a.pos != a.root && nb > 0) {
          std::memcpy(a.recv, g.slots[static_cast<std::size_t>(a.root)], nb);
        }
        return;
      }
      case Collective::AllToAll: {
        if (nb == 0) return;
        auto* dst = static_cast<unsigned char*>(a.recv);
        for (int m = 0; m < g.size(); ++m) {
          const auto* src =
              static_cast<const unsigned char*>(g.slots[static_cast<std::size_t>(m)]) +
              static_cast<std::size_t>(a.pos) * nb;
          std::memcpy(dst + static_cast<std::size_t>(m) * nb, src, nb);
        }
        return;
      }
      case Collective::Barrier:
      case Collective::Send:
        return;
    }
  }

  void finalize(GroupShared&, const CollArgs& a) override {
    if (a.kind != Collective::AllReduce) return;
    if (a.count * a.elem == 0) return;
    // The in-place result: peers read the original buffer during the read
    // phase, so the reduced scratch lands only after the completion barrier.
    std::memcpy(a.recv, detail::op_scratch().data(), a.count * a.accumulator_elem());
  }
};

}  // namespace

namespace detail {

Transport& sim_transport() {
  static SimTransport t;
  return t;
}

}  // namespace detail

const char* backend_name(Backend b) { return util::enum_name(b); }

bool backend_from_string(std::string_view s, Backend& out) {
  return util::enum_from_string(s, out);
}

std::string backend_choices() {
  std::string s;
  for (const auto& e : util::EnumNames<Backend>::table) {
    if (e.value == Backend::Mpi && !mpi_transport_available()) continue;
    if (!s.empty()) s += " | ";
    s += e.name;
  }
  return s;
}

namespace {

/// -1 = follow PLEXUS_BACKEND, else the Backend value of the override.
std::atomic<int> g_backend_override{-1};

Backend env_backend() {
  const char* s = std::getenv("PLEXUS_BACKEND");
  if (s == nullptr || *s == '\0') return Backend::Sim;
  Backend b = Backend::Sim;
  if (!backend_from_string(s, b)) return Backend::Sim;  // malformed: default
  return b;
}

}  // namespace

Backend default_backend() {
  const int v = g_backend_override.load(std::memory_order_relaxed);
  return v >= 0 ? static_cast<Backend>(v) : env_backend();
}

void set_default_backend(Backend b) {
  g_backend_override.store(static_cast<int>(b), std::memory_order_relaxed);
}

void reset_default_backend() { g_backend_override.store(-1, std::memory_order_relaxed); }

ScopedBackend::ScopedBackend(Backend b)
    : had_override_(g_backend_override.load(std::memory_order_relaxed) >= 0),
      prev_(default_backend()) {
  set_default_backend(b);
}

ScopedBackend::~ScopedBackend() {
  if (had_override_) {
    set_default_backend(prev_);
  } else {
    reset_default_backend();
  }
}

const char* wire_precision_name(WirePrecision w) { return util::enum_name(w); }

bool wire_precision_from_string(std::string_view s, WirePrecision& out) {
  return util::enum_from_string(s, out);
}

namespace {

/// -1 = follow PLEXUS_WIRE, else the WirePrecision value of the override.
std::atomic<int> g_wire_override{-1};

WirePrecision env_wire_precision() {
  const char* s = std::getenv("PLEXUS_WIRE");
  if (s == nullptr || *s == '\0') return WirePrecision::Fp32;
  WirePrecision w = WirePrecision::Fp32;
  if (!wire_precision_from_string(s, w)) return WirePrecision::Fp32;  // malformed: default
  return w;
}

}  // namespace

WirePrecision default_wire_precision() {
  const int v = g_wire_override.load(std::memory_order_relaxed);
  return v >= 0 ? static_cast<WirePrecision>(v) : env_wire_precision();
}

void set_default_wire_precision(WirePrecision w) {
  g_wire_override.store(static_cast<int>(w), std::memory_order_relaxed);
}

void reset_default_wire_precision() { g_wire_override.store(-1, std::memory_order_relaxed); }

ScopedWirePrecision::ScopedWirePrecision(WirePrecision w)
    : had_override_(g_wire_override.load(std::memory_order_relaxed) >= 0),
      prev_(default_wire_precision()) {
  set_default_wire_precision(w);
}

ScopedWirePrecision::~ScopedWirePrecision() {
  if (had_override_) {
    set_default_wire_precision(prev_);
  } else {
    reset_default_wire_precision();
  }
}

Transport& transport_for(Backend b) {
  switch (b) {
    case Backend::Sim: return detail::sim_transport();
    case Backend::Local: return detail::local_transport();
    case Backend::Mpi:
#ifdef PLEXUS_WITH_MPI
      return detail::mpi_transport();
#else
      PLEXUS_CHECK(false, "MPI backend requested but built without PLEXUS_WITH_MPI");
#endif
  }
  PLEXUS_CHECK(false, "unknown backend");
  return detail::sim_transport();
}

bool mpi_transport_available() {
#ifdef PLEXUS_WITH_MPI
  return true;
#else
  return false;
#endif
}

#ifndef PLEXUS_WITH_MPI
// One-process-per-rank runtime hooks (implemented in transport_mpi.cpp when
// the backend is compiled in). Erroring stubs keep the examples linkable.
MpiRuntime mpi_runtime_init(int*, char***) {
  PLEXUS_CHECK(false, "mpi_runtime_init: built without PLEXUS_WITH_MPI");
  return {};
}

void mpi_runtime_barrier() {
  PLEXUS_CHECK(false, "mpi_runtime_barrier: built without PLEXUS_WITH_MPI");
}

void mpi_runtime_finalize() {
  PLEXUS_CHECK(false, "mpi_runtime_finalize: built without PLEXUS_WITH_MPI");
}
#endif

}  // namespace plexus::comm
