// Resource allocations: the output of Stage I.
//
// An Allocation maps every application of a batch to a group assignment —
// a processor type and a processor count (single-type groups, per the
// paper's model). The paper additionally restricts counts to powers of two;
// that rule is a parameter here so the large-scale extension studies can
// relax it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sysmodel/platform.hpp"

namespace cdsf::ra {

/// Group of processors assigned to one application.
struct GroupAssignment {
  std::size_t processor_type = 0;
  std::size_t processors = 0;

  friend bool operator==(const GroupAssignment&, const GroupAssignment&) = default;
};

/// Which processor counts a group may take.
enum class CountRule { kPowerOfTwo, kAny };

/// A complete assignment for a batch (index i == application i).
class Allocation {
 public:
  Allocation() = default;
  explicit Allocation(std::vector<GroupAssignment> groups) : groups_(std::move(groups)) {}

  [[nodiscard]] std::size_t size() const noexcept { return groups_.size(); }
  [[nodiscard]] const GroupAssignment& at(std::size_t i) const { return groups_.at(i); }
  [[nodiscard]] const std::vector<GroupAssignment>& groups() const noexcept { return groups_; }

  /// True when every group has >= 1 processor of a type the platform knows
  /// and the per-type processor totals fit the platform's capacity.
  [[nodiscard]] bool fits(const sysmodel::Platform& platform) const noexcept;

  /// Processors of `type` this allocation consumes.
  [[nodiscard]] std::size_t used_of_type(std::size_t type) const noexcept;

  /// Total processors consumed.
  [[nodiscard]] std::size_t total_processors() const noexcept;

  /// "app1 -> 2 x type1, app2 -> ..." (diagnostics, bench output).
  [[nodiscard]] std::string to_string(const sysmodel::Platform& platform) const;

  friend bool operator==(const Allocation&, const Allocation&) = default;

 private:
  std::vector<GroupAssignment> groups_;
};

/// The processor counts a group may take on a type with `capacity`
/// processors under `rule`, ascending (e.g. capacity 8, power-of-2:
/// {1, 2, 4, 8}).
[[nodiscard]] std::vector<std::size_t> candidate_counts(std::size_t capacity, CountRule rule);

/// Every feasible allocation of `applications` groups onto `platform`
/// under `rule` (all applications assigned, capacities respected).
/// Exhaustive — exponential in the batch size; intended for paper-scale
/// instances and for validating heuristics on small instances.
/// Throws std::invalid_argument if applications == 0.
[[nodiscard]] std::vector<Allocation> enumerate_feasible(std::size_t applications,
                                                         const sysmodel::Platform& platform,
                                                         CountRule rule);

/// Number of feasible allocations, enumerate_feasible(...).size(), counted
/// without visiting them: per type, the ordered tuples of candidate counts
/// that fit its capacity, combined over types with binomial coefficients
/// (applications are labelled). Polynomial in the batch size and the
/// capacities. Returns SIZE_MAX when the count does not fit in a size_t.
/// Throws std::invalid_argument if applications == 0.
[[nodiscard]] std::size_t count_feasible(std::size_t applications,
                                         const sysmodel::Platform& platform, CountRule rule);

}  // namespace cdsf::ra
