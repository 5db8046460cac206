/// \file transport_local.cpp
/// The Local byte-transport: really moves payloads between the in-process
/// rank threads the way a network transport would, instead of letting every
/// peer read every published buffer directly (the Sim transport).
///
/// Schedules (G = group size, all executed SPMD by the members' channel
/// threads, synchronised with extra rounds of the group's own barrier):
///
///  * all-gather — classic ring: after seeding its own chunk, member p copies
///    chunk (p - s) mod G from its *left neighbour's* output buffer at step
///    s = 1..G-1. Neighbour-only traffic, G-1 steps, one barrier per step.
///  * broadcast — ring relay: the member at ring distance s from the root
///    copies the buffer from its left neighbour at step s.
///  * all-to-all — rotated exchange: at offset s, member p reads its chunk
///    from member (p + s) mod G, so no two members ever read the same source
///    buffer in the same round.
///  * all-reduce — ring all-gather of every contribution into a staging
///    buffer, then a *canonical-order* local reduction (member 0, 1, …, G-1,
///    exactly the Sim transport's left-fold). A true ring reduce-scatter
///    would nest its partial sums in ring order — a different float
///    summation tree per member — and break the bitwise Sim == Local
///    conformance contract, so the bytes travel the ring but the arithmetic
///    stays canonical.
///  * reduce-scatter — every peer's chunk is staged into a receive buffer
///    (rotated read order) and reduced in canonical member order.
///
/// The staging memory is the executing thread's op scratch; buffers that
/// peers must reach (ring all-gather/all-reduce) are published through
/// `GroupShared::xfer_slots`, bracketed by barriers. Completion, accounting
/// and sim-time semantics are untouched: they live in the Communicator's
/// protocol, which is why clocks, stats and losses are bitwise-identical to
/// the Sim backend.

#include <cstring>

#include "comm/transport.hpp"
#include "util/error.hpp"

namespace plexus::comm {

namespace {

/// Member `pos`'s left neighbour on the group ring.
int left_of(int pos, int size) { return (pos - 1 + size) % size; }

class LocalTransport final : public Transport {
 public:
  Backend backend() const override { return Backend::Local; }
  const char* name() const override { return "local"; }

  void move(GroupShared& g, const CollArgs& a) override {
    const int G = g.size();
    const std::size_t nb = a.count * a.elem;  // per-member chunk in bytes
    switch (a.kind) {
      case Collective::AllGather:
        ring_all_gather(g, a.pos, static_cast<const unsigned char*>(a.send),
                        static_cast<unsigned char*>(a.recv), nb);
        return;
      case Collective::Broadcast: {
        if (nb == 0 || G == 1) return;
        const int d = (a.pos - a.root + G) % G;  // ring distance from the root
        for (int s = 1; s < G; ++s) {
          if (d == s) {
            std::memcpy(a.recv, g.slots[static_cast<std::size_t>(left_of(a.pos, G))], nb);
          }
          g.barrier->arrive_and_wait();  // seal step s before step s+1 reads it
        }
        return;
      }
      case Collective::AllToAll: {
        if (nb == 0) return;
        auto* dst = static_cast<unsigned char*>(a.recv);
        for (int s = 0; s < G; ++s) {
          const int m = (a.pos + s) % G;
          const auto* src =
              static_cast<const unsigned char*>(g.slots[static_cast<std::size_t>(m)]) +
              static_cast<std::size_t>(a.pos) * nb;
          std::memcpy(dst + static_cast<std::size_t>(m) * nb, src, nb);
        }
        return;
      }
      case Collective::AllReduce: {
        if (nb == 0) return;
        // Ring-gather every member's *published* contribution (the packed
        // wire buffer under a compressed wire format, else the in-place
        // buffer) into staging chunks [0, G), then left-fold them in
        // canonical order into the fp32-width accumulator chunk after them.
        const auto* contrib =
            static_cast<const unsigned char*>(a.send != nullptr ? a.send : a.recv);
        auto& scratch = detail::op_scratch();
        scratch.resize(static_cast<std::size_t>(G) * nb + a.count * a.accumulator_elem());
        ring_all_gather_published(g, a.pos, contrib, scratch.data(), nb);
        unsigned char* acc = scratch.data() + static_cast<std::size_t>(G) * nb;
        detail::assign_chunk(a, acc, scratch.data());
        for (int m = 1; m < G; ++m) {
          a.accumulate(acc, scratch.data() + static_cast<std::size_t>(m) * nb, a.count);
        }
        return;  // copy-back in finalize(), after the completion barrier
      }
      case Collective::ReduceScatter: {
        if (nb == 0) return;
        // Stage every peer's chunk `pos` (rotated read order, like the
        // all-to-all), then reduce the stages in canonical member order.
        auto& scratch = detail::op_scratch();
        scratch.resize(static_cast<std::size_t>(G) * nb);
        const std::size_t off = static_cast<std::size_t>(a.pos) * nb;
        for (int s = 0; s < G; ++s) {
          const int m = (a.pos + s) % G;
          const auto* src =
              static_cast<const unsigned char*>(g.slots[static_cast<std::size_t>(m)]) + off;
          std::memcpy(scratch.data() + static_cast<std::size_t>(m) * nb, src, nb);
        }
        detail::assign_chunk(a, a.recv, scratch.data());
        for (int m = 1; m < G; ++m) {
          a.accumulate(a.recv, scratch.data() + static_cast<std::size_t>(m) * nb, a.count);
        }
        return;
      }
      case Collective::Barrier:
      case Collective::Send:
        return;
    }
  }

  void finalize(GroupShared& g, const CollArgs& a) override {
    if (a.kind != Collective::AllReduce) return;
    const std::size_t nb = a.count * a.elem;
    if (nb == 0) return;
    std::memcpy(a.recv, detail::op_scratch().data() + static_cast<std::size_t>(g.size()) * nb,
                a.count * a.accumulator_elem());
  }

 private:
  /// Ring all-gather into the caller-provided `dst` buffers: each member
  /// publishes `dst` via xfer_slots, seeds its own chunk from `src`, then
  /// copies one chunk per step from its left neighbour's `dst`.
  static void ring_all_gather(GroupShared& g, int pos, const unsigned char* src,
                              unsigned char* dst, std::size_t nb) {
    if (nb == 0) return;
    ring_all_gather_published(g, pos, src, dst, nb);
  }

  /// Shared ring schedule: gathers member m's `src` chunk into every member's
  /// `dst + m * nb`. `dst` may be caller memory (all-gather) or thread
  /// scratch (all-reduce staging); it is reachable by peers only through the
  /// xfer_slots published here.
  static void ring_all_gather_published(GroupShared& g, int pos, const unsigned char* src,
                                        unsigned char* dst, std::size_t nb) {
    const int G = g.size();
    if (G == 1) {
      if (dst != src) std::memcpy(dst, src, nb);
      return;
    }
    g.xfer_slots[static_cast<std::size_t>(pos)] = dst;
    g.barrier->arrive_and_wait();  // publication visible to neighbours
    std::memcpy(dst + static_cast<std::size_t>(pos) * nb, src, nb);
    const int left = left_of(pos, G);
    for (int s = 1; s < G; ++s) {
      g.barrier->arrive_and_wait();  // step s-1 writes visible
      const int c = (pos - s + G) % G;
      const auto* left_dst = static_cast<const unsigned char*>(
          g.xfer_slots[static_cast<std::size_t>(left)]);
      std::memcpy(dst + static_cast<std::size_t>(c) * nb,
                  left_dst + static_cast<std::size_t>(c) * nb, nb);
    }
  }
};

}  // namespace

namespace detail {

Transport& local_transport() {
  static LocalTransport t;
  return t;
}

}  // namespace detail

}  // namespace plexus::comm
