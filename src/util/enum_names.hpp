#pragma once
/// \file enum_names.hpp
/// One string<->enum registry for every user-facing enum (CLI flags, env
/// vars, checkpoint headers).
///
/// Each enum declares a single table next to its definition by specializing
/// `EnumNames<E>`:
///
///   template <>
///   struct plexus::util::EnumNames<comm::Backend> {
///     static constexpr const char* kind = "backend";
///     static constexpr EnumEntry<comm::Backend> table[] = {
///         {comm::Backend::Sim, "sim"}, {comm::Backend::Mpi, "mpi"}};
///   };
///
/// and gets `enum_name` / `enum_from_string` (case-insensitive) /
/// `enum_choices` / the uniform `enum_error` message for free. The table is
/// the one source of truth: to_string(from_string(x)) == x holds for every
/// listed name by construction (property-tested in test_util).
///
/// Availability filtering (e.g. "mpi" only in PLEXUS_WITH_MPI builds) is a
/// runtime question the static table cannot answer; callers with such
/// constraints pass their own choices string to `enum_error`.

#include <string>
#include <string_view>

namespace plexus::util {

template <typename E>
struct EnumEntry {
  E value;
  const char* name;
};

/// Specialize per enum with `kind` (for error messages) and `table`.
template <typename E>
struct EnumNames;

/// Canonical name of `v`, or "?" for values outside the table.
template <typename E>
constexpr const char* enum_name(E v) {
  for (const auto& e : EnumNames<E>::table) {
    if (e.value == v) return e.name;
  }
  return "?";
}

inline bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto lo = [](char c) {
      return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
    };
    if (lo(a[i]) != lo(b[i])) return false;
  }
  return true;
}

/// Case-insensitive lookup. Returns false (leaving `out` untouched) for
/// names not in the table.
template <typename E>
bool enum_from_string(std::string_view s, E& out) {
  for (const auto& e : EnumNames<E>::table) {
    if (iequals(s, e.name)) {
      out = e.value;
      return true;
    }
  }
  return false;
}

/// "a | b | c" — every name in table order.
template <typename E>
std::string enum_choices() {
  std::string s;
  for (const auto& e : EnumNames<E>::table) {
    if (!s.empty()) s += " | ";
    s += e.name;
  }
  return s;
}

/// The uniform parse-failure message: "unknown <kind> 'got' (expected a | b)".
/// `choices` overrides the table listing when availability is
/// build/runtime-dependent (comm::backend_choices()).
template <typename E>
std::string enum_error(std::string_view got, std::string_view choices = {}) {
  std::string s = "unknown ";
  s += EnumNames<E>::kind;
  s += " '";
  s += got;
  s += "' (expected ";
  s += choices.empty() ? enum_choices<E>() : std::string(choices);
  s += ")";
  return s;
}

}  // namespace plexus::util
