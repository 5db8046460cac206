#include "comm/transport.hpp"

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
  PLEXUS_CHECK(false, "transport does not implement alltoallv");
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
      case Collective::Barrier:
        return;
      case Collective::Broadcast:
      case Collective::AllToAll:
      case Collective::Send:
        break;
    }
    PLEXUS_CHECK(false, std::string("sim transport: nothing posts ") + collective_name(a.kind));
  }

  void finalize(GroupShared&, const CollArgs& a) override {
    if (a.kind != Collective::AllReduce) return;
    if (a.count * a.elem == 0) return;
    // The in-place result: peers read the original buffer during the read
    // phase, so the reduced scratch lands only after the completion barrier.
    std::memcpy(a.recv, detail::op_scratch().data(), a.count * a.accumulator_elem());
  }
};

Transport& sim_transport() {
  static SimTransport t;
  return t;
}

}  // namespace

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

const char* wire_precision_name(WirePrecision w) { return util::enum_name(w); }

bool wire_precision_from_string(std::string_view s, WirePrecision& out) {
  return util::enum_from_string(s, out);
}

Transport& transport_for(Backend b) {
  switch (b) {
    case Backend::Sim: return sim_transport();
    case Backend::Mpi:
#ifdef PLEXUS_WITH_MPI
      return detail::mpi_transport();
#else
      PLEXUS_CHECK(false, "MPI backend requested but built without PLEXUS_WITH_MPI");
#endif
  }
  PLEXUS_CHECK(false, "unknown backend");
  return sim_transport();
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
