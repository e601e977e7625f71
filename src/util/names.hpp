// Name tables: a vocabulary (an enum whose values have stable text names)
// is one list of (enumerator, name) pairs, read in both directions, so
// each name is spelled once and the parse direction cannot drift from the
// print direction.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace cdsf::util {

template <class E>
struct Named {
  E value;
  const char* name;
};

template <class E, std::size_t N>
using NameTable = std::array<Named<E>, N>;

/// The name of `value`, or "unknown" when the table lacks it.
template <class E, std::size_t N>
[[nodiscard]] constexpr const char* name_of(const NameTable<E, N>& table, E value) noexcept {
  for (const Named<E>& entry : table) {
    if (entry.value == value) return entry.name;
  }
  return "unknown";
}

/// The enumerator called `name` (case-sensitive), or std::nullopt.
template <class E, std::size_t N>
[[nodiscard]] constexpr std::optional<E> value_named(const NameTable<E, N>& table,
                                                     std::string_view name) noexcept {
  for (const Named<E>& entry : table) {
    if (name == entry.name) return entry.value;
  }
  return std::nullopt;
}

/// Every name in table order, separated by " | " (for error messages).
template <class E, std::size_t N>
[[nodiscard]] std::string joined_names(const NameTable<E, N>& table) {
  std::string out;
  for (const Named<E>& entry : table) {
    if (!out.empty()) out += " | ";
    out += entry.name;
  }
  return out;
}

}  // namespace cdsf::util
