#pragma once
/// \file transport.hpp
/// Pluggable byte-transport backends behind the Communicator.
///
/// The comm stack is split into two layers:
///
///  * **cost / accounting** (communicator.hpp) — post-time clocks, the ring
///    cost model, link-busy horizons, exposed-vs-hidden attribution,
///    CommStats and the timeline. This layer is backend-invariant: it never
///    looks at how the bytes travel.
///  * **byte movement** (this file) — how the payload of a collective
///    actually travels between ranks. Selected per Communicator via a
///    `Transport`.
///
/// Two backends:
///
///  * `Backend::Sim` — the shared-slot simulator movement: every member
///    publishes its buffer pointer and peers read it directly. Reductions
///    fold contributions in canonical member order (member 0, 1, …, G-1), a
///    left-fold pinned against a serial reference by the transport
///    conformance test.
///  * `Backend::Mpi` — optional, compiled behind the `PLEXUS_WITH_MPI` CMake
///    option: maps each CommHandle onto MPI collectives on a per-group
///    sub-communicator (`MPI_Comm_create_group` over the group's member
///    list). One process per rank. Reductions gather every contribution and
///    fold locally in canonical member order (never `MPI_SUM`, whose order
///    is implementation-defined), so float results are bitwise-identical to
///    Sim. Supports the SimClock: each op piggybacks one max-allreduce of
///    its posted clock on the collective, which is all the completion math
///    needs (see docs/COMM.md).
///
/// The launcher fixes the transport: a Communicator or `sim::run_cluster`
/// given none uses Sim, and `sim::run_distributed_rank` takes MPI.
///
/// In-process transports implement `move()` (+ optional `finalize()`), which
/// the Communicator runs inside the group's barrier protocol. Distributed
/// transports set `uses_group_protocol() == false` and implement `execute()`,
/// owning the whole collective.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "comm/handle.hpp"
#include "comm/world.hpp"
#include "util/enum_names.hpp"

namespace plexus::comm {

/// Byte-transport backend selector (`sim` | `mpi`).
enum class Backend {
  Sim,  ///< shared-slot in-process movement between rank threads
  Mpi,  ///< real MPI nonblocking collectives (requires PLEXUS_WITH_MPI)
};

/// Element type of a collective payload, for backends (MPI) that need a real
/// datatype for reductions. Byte-copy collectives may use `Bytes`.
enum class DType { Bytes, F32, F64, I32, I64 };

/// Number format of fp32 collective payloads *on the wire*. `Fp32` ships the
/// buffers verbatim (bitwise-identical training, the default); `Bf16` packs
/// fp32 → bf16 at the transport boundary — the Communicator converts on post
/// and widens / accumulates in fp32 on completion, so the compression is an
/// explicitly opted-in numeric change (docs/COMM.md), never silent. Only
/// fp32 payloads compress; int / double / metadata exchanges always travel
/// at full width. Set per Communicator with `set_wire_precision` (the
/// trainer forwards `TrainOptions::wire`); Fp32 unless set.
enum class WirePrecision {
  Fp32,  ///< verbatim fp32 payloads (bitwise-deterministic)
  Bf16,  ///< bf16 wire payloads, fp32 accumulation (half the wire volume)
};

/// Wire-format name ("fp32", "bf16") for logs and CLI flags.
const char* wire_precision_name(WirePrecision w);

/// Parse a wire-format name (case-insensitive). Returns false on unknown.
bool wire_precision_from_string(std::string_view s, WirePrecision& out);

/// Bytes one fp32 payload element occupies on the wire under `w`.
constexpr std::size_t wire_elem_size(WirePrecision w) {
  return w == WirePrecision::Bf16 ? 2 : 4;
}

template <typename T>
constexpr DType dtype_of() {
  if constexpr (std::is_same_v<T, float>) return DType::F32;
  else if constexpr (std::is_same_v<T, double>) return DType::F64;
  else if constexpr (std::is_same_v<T, std::int32_t>) return DType::I32;
  else if constexpr (std::is_same_v<T, std::int64_t>) return DType::I64;
  else return DType::Bytes;
}

/// Type-erased description of one collective, built by the Communicator's
/// templated entry points. Field meaning by kind:
///
/// | kind          | send        | recv          | count (elements)        |
/// |---------------|-------------|---------------|-------------------------|
/// | AllGather     | own chunk   | gathered out  | per-member chunk        |
/// | ReduceScatter | full input  | own chunk out | per-member chunk (out)  |
/// | AllReduce     | nullptr     | in-place buf  | buffer elements         |
/// | Barrier       | nullptr     | nullptr       | 0                       |
///
/// Nothing posts the other `Collective` kinds; every backend rejects them.
struct CollArgs {
  Collective kind = Collective::Barrier;
  GroupId gid = 0;  ///< the op's group (sub-communicator key for MPI)
  int pos = 0;      ///< caller's position within the group
  const void* send = nullptr;
  void* recv = nullptr;
  std::size_t elem = 0;   ///< element size in bytes
  std::size_t count = 0;  ///< element count (see table above)
  DType dtype = DType::Bytes;
  /// Typed accumulation `acc[i] += src[i]` over `n` elements; null for
  /// non-reducing collectives. Every backend must apply contributions with
  /// this exact function in canonical member order for bitwise conformance.
  /// Under a compressed wire format `src` points at *wire-typed* elements
  /// (`elem` bytes each) while `acc` stays a fp32 accumulator — the function
  /// widens as it folds, so precision is lost only once per contribution.
  void (*accumulate)(void* acc, const void* src, std::size_t n) = nullptr;
  /// Reduction-accumulator initialisation `acc[i] = widen(src[i])` over
  /// `count` elements, for wire formats narrower than the accumulator. Null
  /// means the wire and accumulator types agree: plain `memcpy` of
  /// `count * elem` bytes (the historic behaviour, bit-for-bit).
  void (*assign)(void* acc, const void* src, std::size_t n) = nullptr;
  /// Element size of the reduction accumulator (and of `recv` for reducing
  /// collectives). 0 means `elem` — wire and accumulator types agree.
  std::size_t acc_elem = 0;

  /// Effective accumulator element size (see `acc_elem`).
  std::size_t accumulator_elem() const { return acc_elem != 0 ? acc_elem : elem; }
  /// Scalar reductions (all_reduce_{max,sum}_scalar) for non-protocol
  /// backends; in-process backends exchange scalars through the group's
  /// clock-slot aux values instead.
  bool scalar_op = false;
  bool scalar_is_max = false;
  double scalar_value = 0.0;
};

/// A byte-movement backend. Stateless (Sim) or process-global (MPI)
/// singletons returned by `transport_for`; shared by every Communicator that
/// selects them, so implementations must be thread-safe across concurrent
/// rank and channel threads.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual Backend backend() const = 0;
  virtual const char* name() const = 0;

  /// True when the transport moves bytes inside the shared-memory group
  /// protocol (publish / barrier / read phase / barrier) — the in-process
  /// backends. False for distributed backends (MPI), which own the whole op
  /// via execute() and never touch group barriers or clock slots.
  virtual bool uses_group_protocol() const { return true; }

  /// True when Communicators over this transport may carry a SimClock.
  /// In-process transports exchange post clocks through the group's clock
  /// slots; a distributed transport must override this (and piggyback the
  /// clock exchange on its own wire, see MpiTransport) to opt in. The
  /// Communicator rejects a clock when this is false.
  virtual bool supports_clock() const { return uses_group_protocol(); }

  /// In-process data movement. Runs on the op's executing thread between the
  /// group's protocol barriers; `g.slots[m]` holds member m's published
  /// buffer (CollArgs::send if set, else recv).
  virtual void move(GroupShared& g, const CollArgs& a);

  /// Trailing writes to the member's *own* buffers, run after the protocol's
  /// completion barrier (e.g. the all-reduce copy-back from scratch). The
  /// next op's first barrier orders these writes before any peer reads.
  virtual void finalize(GroupShared& g, const CollArgs& a);

  /// Whole-op execution for non-protocol backends: perform the collective,
  /// fill `op.full_seconds` / `op.done_clock` (cost-model time) and, for
  /// scalar ops, `op.scalar`.
  virtual void execute(GroupShared& g, const CollArgs& a, detail::CommOp& op);

  /// Variable all-to-all hook. No backend implements it and nothing calls
  /// it; it stays because perfbench's TimedTransport overrides it.
  virtual void alltoallv(GroupShared& g, const CollArgs& a,
                         const std::vector<std::span<const unsigned char>>& send,
                         std::vector<std::vector<unsigned char>>& recv,
                         detail::CommOp& op);
};

/// Backend name ("sim", "mpi") for logs and CLI flags. Thin wrapper
/// over the util::EnumNames registry below.
const char* backend_name(Backend b);

/// Parse a backend name (case-insensitive). Returns false on unknown names.
bool backend_from_string(std::string_view s, Backend& out);

/// The backends this *build* can actually run: "sim", plus "mpi"
/// when compiled with PLEXUS_WITH_MPI. Pass to util::enum_error<Backend> so
/// error messages never advertise an unavailable backend.
std::string backend_choices();

/// The singleton transport for a backend. Aborts for Backend::Mpi when the
/// tree was configured without PLEXUS_WITH_MPI.
Transport& transport_for(Backend b);

/// True when this build carries the MPI transport (PLEXUS_WITH_MPI=ON).
bool mpi_transport_available();

/// The MPI process identity established by `mpi_runtime_init`.
struct MpiRuntime {
  int rank = 0;  ///< this process's rank in MPI_COMM_WORLD
  int size = 1;  ///< number of launched processes
};

/// Initialise MPI for a one-process-per-rank driver (examples, tests) without
/// exposing mpi.h to the caller: `MPI_Init_thread(MPI_THREAD_MULTIPLE)`, then
/// downgrade the per-process comm-thread budget to match the granted thread
/// level (SERIALIZED → one channel, less → inline). Idempotent per process.
/// Aborts in builds without PLEXUS_WITH_MPI.
MpiRuntime mpi_runtime_init(int* argc, char*** argv);

/// `MPI_Barrier(MPI_COMM_WORLD)` — e.g. "rank 0 finished writing shards".
void mpi_runtime_barrier();

/// `MPI_Finalize` (no-op if never initialised or already finalised).
void mpi_runtime_finalize();

namespace detail {

/// Initialise a reduction accumulator from the first contribution: the
/// wire-format `assign` hook when set, else the historic memcpy of the raw
/// chunk. Every backend seeds its canonical left-fold through this.
inline void assign_chunk(const CollArgs& a, void* acc, const void* src) {
  if (a.assign != nullptr) {
    a.assign(acc, src, a.count);
    return;
  }
  const std::size_t nb = a.count * a.elem;
  if (nb > 0) std::memcpy(acc, src, nb);
}

#ifdef PLEXUS_WITH_MPI
/// The MPI singleton behind `transport_for` (transport_mpi.cpp).
Transport& mpi_transport();
#endif
}  // namespace detail

}  // namespace plexus::comm

/// Registry entry (util/enum_names.hpp): the one source of truth for backend
/// names. backend_name / backend_from_string are wrappers over this table.
template <>
struct plexus::util::EnumNames<plexus::comm::Backend> {
  static constexpr const char* kind = "backend";
  static constexpr EnumEntry<plexus::comm::Backend> table[] = {
      {plexus::comm::Backend::Sim, "sim"},
      {plexus::comm::Backend::Mpi, "mpi"},
  };
};

/// Registry entry: the one source of truth for wire-format names.
template <>
struct plexus::util::EnumNames<plexus::comm::WirePrecision> {
  static constexpr const char* kind = "wire format";
  static constexpr EnumEntry<plexus::comm::WirePrecision> table[] = {
      {plexus::comm::WirePrecision::Fp32, "fp32"},
      {plexus::comm::WirePrecision::Bf16, "bf16"},
  };
};
