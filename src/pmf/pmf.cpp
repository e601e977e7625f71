#include "pmf/pmf.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace cdsf::pmf {

namespace {

// Pulses whose values differ by less than this relative tolerance merge
// during canonicalization (guards against floating-point near-duplicates
// produced by product-measure combines).
constexpr double kValueMergeRelTol = 1e-12;

bool nearly_equal(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= kValueMergeRelTol * scale;
}

std::vector<Pulse> canonicalize(std::vector<Pulse> pulses) {
  for (const Pulse& pulse : pulses) {
    if (!std::isfinite(pulse.value) || !std::isfinite(pulse.probability)) {
      throw std::invalid_argument("Pmf: pulse value/probability must be finite");
    }
    if (pulse.probability < 0.0) {
      throw std::invalid_argument("Pmf: pulse probability must be >= 0");
    }
  }
  std::erase_if(pulses, [](const Pulse& pulse) { return pulse.probability == 0.0; });
  if (pulses.empty()) {
    throw std::invalid_argument("Pmf: at least one positive-probability pulse required");
  }
  // Strictly increasing values have exactly one sorted order, so skipping the
  // sort then leaves the bits std::sort would. Any equal pair (including
  // -0.0, +0.0) still sorts: where equal keys land decides the summation
  // order below.
  auto by_value = [](const Pulse& a, const Pulse& b) { return a.value < b.value; };
  const auto unsorted = std::adjacent_find(
      pulses.begin(), pulses.end(), [&](const Pulse& a, const Pulse& b) { return !by_value(a, b); });
  if (unsorted != pulses.end()) std::sort(pulses.begin(), pulses.end(), by_value);

  std::vector<Pulse> merged;
  merged.reserve(pulses.size());
  for (const Pulse& pulse : pulses) {
    if (!merged.empty() && nearly_equal(merged.back().value, pulse.value)) {
      merged.back().probability += pulse.probability;
    } else {
      merged.push_back(pulse);
    }
  }

  double total = 0.0;
  for (const Pulse& pulse : merged) total += pulse.probability;
  if (!(total > 0.0)) {
    throw std::invalid_argument("Pmf: total probability mass must be > 0");
  }
  for (Pulse& pulse : merged) pulse.probability /= total;
  return merged;
}

}  // namespace

Pmf Pmf::from_pulses(std::vector<Pulse> pulses) { return Pmf(canonicalize(std::move(pulses))); }

Pmf Pmf::delta(double value) { return from_pulses({{value, 1.0}}); }

Pmf Pmf::uniform_over(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("Pmf::uniform_over: empty value list");
  std::vector<Pulse> pulses;
  pulses.reserve(values.size());
  const double p = 1.0 / static_cast<double>(values.size());
  for (double v : values) pulses.push_back({v, p});
  return from_pulses(std::move(pulses));
}

double Pmf::expectation() const noexcept {
  double sum = 0.0;
  for (const Pulse& pulse : pulses_) sum += pulse.value * pulse.probability;
  return sum;
}

double Pmf::variance() const noexcept {
  const double mu = expectation();
  double sum = 0.0;
  for (const Pulse& pulse : pulses_) {
    const double d = pulse.value - mu;
    sum += d * d * pulse.probability;
  }
  return sum;
}

double Pmf::stddev() const noexcept { return std::sqrt(variance()); }

double Pmf::cdf(double x) const noexcept {
  double sum = 0.0;
  for (const Pulse& pulse : pulses_) {
    if (pulse.value > x) break;
    sum += pulse.probability;
  }
  return std::min(sum, 1.0);
}

double Pmf::tail(double x) const noexcept {
  double sum = 0.0;
  for (auto it = pulses_.rbegin(); it != pulses_.rend(); ++it) {
    if (it->value <= x) break;
    sum += it->probability;
  }
  return std::min(sum, 1.0);
}

double Pmf::quantile(double p) const {
  if (!(p >= 0.0 && p <= 1.0)) throw std::invalid_argument("Pmf::quantile: p must be in [0, 1]");
  if (p == 0.0) return min();
  double cumulative = 0.0;
  for (const Pulse& pulse : pulses_) {
    cumulative += pulse.probability;
    if (cumulative >= p - 1e-15) return pulse.value;
  }
  return max();
}

double Pmf::expect(const std::function<double(double)>& f) const {
  double sum = 0.0;
  for (const Pulse& pulse : pulses_) sum += f(pulse.value) * pulse.probability;
  return sum;
}

double Pmf::conditional_value_at_risk(double alpha) const {
  if (!(alpha >= 0.0 && alpha < 1.0)) {
    throw std::invalid_argument("conditional_value_at_risk: alpha must be in [0, 1)");
  }
  const double tail_mass = 1.0 - alpha;
  // Walk from the top until `tail_mass` probability is accumulated; the
  // pulse straddling the boundary contributes only its in-tail fraction.
  double remaining = tail_mass;
  double weighted = 0.0;
  for (auto it = pulses_.rbegin(); it != pulses_.rend() && remaining > 1e-15; ++it) {
    const double take = std::min(it->probability, remaining);
    weighted += it->value * take;
    remaining -= take;
  }
  return weighted / tail_mass;
}

double Pmf::expected_tardiness(double deadline) const noexcept {
  double sum = 0.0;
  for (auto it = pulses_.rbegin(); it != pulses_.rend(); ++it) {
    if (it->value <= deadline) break;
    sum += (it->value - deadline) * it->probability;
  }
  return sum;
}

Pmf Pmf::map(const std::function<double(double)>& f) const {
  std::vector<Pulse> out;
  out.reserve(pulses_.size());
  for (const Pulse& pulse : pulses_) out.push_back({f(pulse.value), pulse.probability});
  return from_pulses(std::move(out));
}

Pmf Pmf::scaled(double factor) const {
  return map([factor](double v) { return v * factor; });
}

Pmf Pmf::shifted(double offset) const {
  return map([offset](double v) { return v + offset; });
}

Pmf Pmf::compacted(std::size_t max_pulses) const {
  if (max_pulses == 0) throw std::invalid_argument("Pmf::compacted: max_pulses must be > 0");
  if (pulses_.size() <= max_pulses) return *this;

  // Greedy merging on the sorted pulse list: each step merges the adjacent
  // pair with the smallest cost, the leftmost pair on ties. Cost of merging
  // (v1,p1),(v2,p2): the mass-weighted squared spread they would collapse —
  // exactly the variance the merge removes. A NaN cost (an underflowed
  // probability product times an overflowed gap) ranks as +inf, so it is
  // taken only when no finite cost is left, and then the leftmost pair goes
  // first.
  //
  // A pair's cost depends only on its two pulses, so a merge changes just
  // the costs of the pairs on either side of it. Survivors form a doubly
  // linked list over the original indices (which keep their order, so the
  // smallest left index is the leftmost pair). A tournament tree finds each
  // merge: leaf i holds the cost of the pair starting at pulse i, as its IEEE
  // bits — costs are >= +0, so their bits order as the values do — or
  // kDead when pulse i starts no pair (merged away, or the last survivor).
  // Every inner node holds the smaller of its children, the left one on
  // ties, so the root is the cheapest, leftmost pair. There is a leaf per
  // pulse, not per pair: a merge's right pulse may be the last one.
  const std::size_t n = pulses_.size();
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  constexpr std::uint64_t kDead = std::numeric_limits<std::uint64_t>::max();
  constexpr auto kInfBits = std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity());
  std::vector<Pulse> work = pulses_;
  std::vector<std::size_t> prev(n);
  std::vector<std::size_t> next(n);
  for (std::size_t i = 0; i < n; ++i) {
    prev[i] = i == 0 ? kNone : i - 1;
    next[i] = i + 1 == n ? kNone : i + 1;
  }

  auto cost_bits = [&](std::size_t left) {
    const Pulse& a = work[left];
    const Pulse& b = work[next[left]];
    const double mass = a.probability + b.probability;
    const double d = b.value - a.value;
    const double cost = (a.probability * b.probability / mass) * d * d;
    return std::isnan(cost) ? kInfBits : std::bit_cast<std::uint64_t>(cost);
  };

  // Node k's children are 2k and 2k + 1; leaf i is node leaves + i.
  struct Node {
    std::uint64_t cost;
    std::size_t left;
  };
  const std::size_t leaves = std::bit_ceil(n);
  std::vector<Node> tree(2 * leaves, Node{kDead, kNone});
  for (std::size_t i = 0; i + 1 < n; ++i) tree[leaves + i] = Node{cost_bits(i), i};
  // The select is branch-free: which child wins is data, and a branch on it
  // would mispredict about half the time.
  auto replay = [&](std::size_t k) {
    const Node& a = tree[2 * k];
    const Node& b = tree[2 * k + 1];
    const std::uint64_t take_b = std::uint64_t{0} - std::uint64_t{b.cost < a.cost};
    tree[k] = Node{a.cost ^ ((a.cost ^ b.cost) & take_b), a.left ^ ((a.left ^ b.left) & take_b)};
  };
  for (std::size_t k = leaves - 1; k >= 1; --k) replay(k);

  for (std::size_t merges = n - max_pulses; merges > 0; --merges) {
    const std::size_t left = tree[1].left;
    const std::size_t right = next[left];
    const double mass = work[left].probability + work[right].probability;
    const double value =
        (work[left].value * work[left].probability + work[right].value * work[right].probability) /
        mass;
    work[left] = Pulse{value, mass};
    next[left] = next[right];
    tree[leaves + right].cost = kDead;
    if (next[left] != kNone) {
      prev[next[left]] = left;
      tree[leaves + left].cost = cost_bits(left);
    } else {
      tree[leaves + left].cost = kDead;
    }
    const std::size_t before = prev[left];
    if (before != kNone) tree[leaves + before].cost = cost_bits(before);

    // Replay the changed leaves' ancestors in one bottom-up pass. The
    // leaves ascend in index order, so their ancestors at each level do
    // too, and a path that met its left neighbour's is replayed once.
    std::size_t a = leaves + (before != kNone ? before : left);
    std::size_t b = leaves + left;
    std::size_t c = leaves + right;
    while (a > 1) {
      a >>= 1;
      b >>= 1;
      c >>= 1;
      replay(a);
      if (b != a) replay(b);
      if (c != b) replay(c);
    }
  }

  // Survivors move down in order; pulse 0 is never a right partner, so the
  // list starts there.
  std::size_t kept = 0;
  for (std::size_t i = 0; i != kNone; i = next[i]) work[kept++] = work[i];
  work.resize(kept);
  return from_pulses(std::move(work));
}

double Pmf::sample_with(double u) const {
  if (!(u >= 0.0 && u < 1.0)) throw std::invalid_argument("Pmf::sample_with: u must be in [0, 1)");
  double cumulative = 0.0;
  for (const Pulse& pulse : pulses_) {
    cumulative += pulse.probability;
    if (u < cumulative) return pulse.value;
  }
  return max();
}

std::string Pmf::to_string() const {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < pulses_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "(" << pulses_[i].value << ", " << pulses_[i].probability << ")";
  }
  out << "}";
  return out.str();
}

}  // namespace cdsf::pmf
