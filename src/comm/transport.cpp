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

/// The shared-slot movement: peers read each other's published buffers
/// directly, and reductions fold in canonical member order (member 0, 1, …,
/// G-1), so every determinism test pins it.
///
/// An all-reduce is a reduce-scatter of slices followed by an all-gather of
/// the folded slices, inside the protocol's two barriers. In the read phase
/// member m folds its slice (`detail::fold_slice`) of every contribution
/// into `g.fold[m]`; after the completion barrier `finalize` copies the G
/// folded slices into its own buffer. That is safe without further
/// synchronisation:
///  * only member m resizes or writes `fold[m]`, and only inside `move`, so
///    before the completion barrier;
///  * peers read `fold[m]` only in `finalize`, after that barrier;
///  * member m writes `fold[m]` next in the next op's `move`, after that op's
///    first barrier, and no peer reaches that barrier before it has finished
///    this op's `finalize` (each rank runs its ops in order on one thread).
/// A one-member fp32 all-reduce is the identity and touches nothing; under a
/// compressed wire it still widens its packed contribution through the fold.
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
        detail::assign_chunk(a, a.recv, first + off, a.count);
        for (int m = 1; m < g.size(); ++m) {
          const auto* src =
              static_cast<const unsigned char*>(g.slots[static_cast<std::size_t>(m)]) + off;
          a.accumulate(a.recv, src, a.count);
        }
        return;
      }
      case Collective::AllReduce: {
        if (identity(g, a)) return;
        const detail::FoldSlice s = detail::fold_slice(a.count, a.pos, g.size());
        if (s.size() == 0) return;
        // Grown to the group's largest slice and never shrunk, so a steady
        // epoch neither allocates nor zero-fills it.
        auto& fold = g.fold[static_cast<std::size_t>(a.pos)];
        const std::size_t bytes = s.size() * a.accumulator_elem();
        if (fold.size() < bytes) fold.resize(bytes);
        const std::size_t off = s.begin * a.elem;
        detail::assign_chunk(a, fold.data(), static_cast<const unsigned char*>(g.slots[0]) + off,
                             s.size());
        for (int m = 1; m < g.size(); ++m) {
          a.accumulate(fold.data(),
                       static_cast<const unsigned char*>(g.slots[static_cast<std::size_t>(m)]) +
                           off,
                       s.size());
        }
        return;  // the slices land in recv in finalize(), after the completion barrier
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

  void finalize(GroupShared& g, const CollArgs& a) override {
    if (a.kind != Collective::AllReduce || identity(g, a)) return;
    // The in-place result: peers read the original buffer during the read
    // phase, so the folded slices land only after the completion barrier.
    auto* dst = static_cast<unsigned char*>(a.recv);
    const std::size_t acc = a.accumulator_elem();
    for (int m = 0; m < g.size(); ++m) {
      const detail::FoldSlice s = detail::fold_slice(a.count, m, g.size());
      if (s.size() == 0) continue;
      std::memcpy(dst + s.begin * acc, g.fold[static_cast<std::size_t>(m)].data(),
                  s.size() * acc);
    }
  }

 private:
  /// All-reduces that leave `recv` as it is: empty ones, and one-member ones
  /// whose wire and accumulator types agree (the buffer already is the sum).
  static bool identity(const GroupShared& g, const CollArgs& a) {
    return a.count == 0 || (g.size() == 1 && a.assign == nullptr);
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
