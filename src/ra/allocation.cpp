#include "ra/allocation.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace cdsf::ra {

bool Allocation::fits(const sysmodel::Platform& platform) const noexcept {
  std::vector<std::size_t> used(platform.type_count(), 0);
  for (const GroupAssignment& group : groups_) {
    if (group.processors == 0) return false;
    if (group.processor_type >= platform.type_count()) return false;
    used[group.processor_type] += group.processors;
  }
  for (std::size_t j = 0; j < platform.type_count(); ++j) {
    if (used[j] > platform.processors_of_type(j)) return false;
  }
  return true;
}

std::size_t Allocation::used_of_type(std::size_t type) const noexcept {
  std::size_t used = 0;
  for (const GroupAssignment& group : groups_) {
    if (group.processor_type == type) used += group.processors;
  }
  return used;
}

std::size_t Allocation::total_processors() const noexcept {
  std::size_t total = 0;
  for (const GroupAssignment& group : groups_) total += group.processors;
  return total;
}

std::string Allocation::to_string(const sysmodel::Platform& platform) const {
  std::ostringstream out;
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "app" << (i + 1) << " -> " << groups_[i].processors << " x ";
    out << (groups_[i].processor_type < platform.type_count()
                ? platform.type(groups_[i].processor_type).name
                : "?");
  }
  return out.str();
}

std::vector<std::size_t> candidate_counts(std::size_t capacity, CountRule rule) {
  std::vector<std::size_t> counts;
  if (rule == CountRule::kPowerOfTwo) {
    for (std::size_t c = 1; c <= capacity; c *= 2) counts.push_back(c);
  } else {
    counts.reserve(capacity);
    for (std::size_t c = 1; c <= capacity; ++c) counts.push_back(c);
  }
  return counts;
}

namespace {

/// Depth-first enumeration over applications; appends each complete
/// feasible allocation to `result`.
void enumerate_recursive(std::size_t app, std::size_t applications,
                         const sysmodel::Platform& platform, CountRule rule,
                         std::vector<std::size_t>& remaining,
                         std::vector<GroupAssignment>& current,
                         std::vector<Allocation>& result) {
  if (app == applications) {
    result.emplace_back(current);
    return;
  }
  for (std::size_t type = 0; type < platform.type_count(); ++type) {
    for (std::size_t count : candidate_counts(remaining[type], rule)) {
      remaining[type] -= count;
      current.push_back(GroupAssignment{type, count});
      enumerate_recursive(app + 1, applications, platform, rule, remaining, current, result);
      current.pop_back();
      remaining[type] += count;
    }
  }
}

constexpr std::size_t kSaturated = std::numeric_limits<std::size_t>::max();

std::size_t saturating_add(std::size_t a, std::size_t b) {
  return a > kSaturated - b ? kSaturated : a + b;
}

std::size_t saturating_mul(std::size_t a, std::size_t b) {
  return a != 0 && b > kSaturated / a ? kSaturated : a * b;
}

/// fits[k] = ordered k-tuples of candidate counts whose sum is at most
/// `capacity`, for k in [0, applications]; saturating.
std::vector<std::size_t> tuples_within(std::size_t capacity, CountRule rule,
                                       std::size_t applications) {
  const std::vector<std::size_t> candidates = candidate_counts(capacity, rule);
  std::vector<std::size_t> fits(applications + 1, 0);
  // exact[s] = k-tuples summing to exactly s, starting from the empty tuple.
  std::vector<std::size_t> exact(capacity + 1, 0);
  exact[0] = 1;
  fits[0] = 1;
  // Every count is >= 1, so no tuple longer than `capacity` fits.
  for (std::size_t k = 1; k <= std::min(applications, capacity); ++k) {
    std::vector<std::size_t> next(capacity + 1, 0);
    for (std::size_t s = 1; s <= capacity; ++s) {
      for (const std::size_t count : candidates) {
        if (count > s) break;
        next[s] = saturating_add(next[s], exact[s - count]);
      }
      fits[k] = saturating_add(fits[k], next[s]);
    }
    exact = std::move(next);
  }
  return fits;
}

}  // namespace

std::vector<Allocation> enumerate_feasible(std::size_t applications,
                                           const sysmodel::Platform& platform, CountRule rule) {
  if (applications == 0) {
    throw std::invalid_argument("enumerate_feasible: applications must be >= 1");
  }
  std::vector<Allocation> result;
  std::vector<std::size_t> remaining(platform.type_count());
  for (std::size_t j = 0; j < platform.type_count(); ++j) {
    remaining[j] = platform.processors_of_type(j);
  }
  std::vector<GroupAssignment> current;
  current.reserve(applications);
  enumerate_recursive(0, applications, platform, rule, remaining, current, result);
  return result;
}

std::size_t count_feasible(std::size_t applications, const sysmodel::Platform& platform,
                           CountRule rule) {
  if (applications == 0) {
    throw std::invalid_argument("count_feasible: applications must be >= 1");
  }
  // Every application takes at least one processor.
  if (applications > platform.total_processors()) return 0;
  // binomial[m][k] = C(m, k), saturating.
  std::vector<std::vector<std::size_t>> binomial(applications + 1);
  for (std::size_t m = 0; m <= applications; ++m) {
    binomial[m].assign(m + 1, 1);
    for (std::size_t k = 1; k < m; ++k) {
      binomial[m][k] = saturating_add(binomial[m - 1][k - 1], binomial[m - 1][k]);
    }
  }
  // ways[m] = allocations of m labelled applications onto the types folded
  // in so far. Folding in a type picks which k of the m applications it
  // hosts (C(m, k)) and their counts on it (fits[k]).
  std::vector<std::size_t> ways(applications + 1, 0);
  ways[0] = 1;
  for (std::size_t type = 0; type < platform.type_count(); ++type) {
    const std::vector<std::size_t> fits =
        tuples_within(platform.processors_of_type(type), rule, applications);
    std::vector<std::size_t> next(applications + 1, 0);
    for (std::size_t m = 0; m <= applications; ++m) {
      for (std::size_t k = 0; k <= m; ++k) {
        const std::size_t term =
            saturating_mul(binomial[m][k], saturating_mul(ways[m - k], fits[k]));
        next[m] = saturating_add(next[m], term);
      }
    }
    ways = std::move(next);
  }
  return ways[applications];
}

}  // namespace cdsf::ra
