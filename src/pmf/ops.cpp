#include "pmf/ops.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace cdsf::pmf {

namespace {

/// All-pairs combine without compaction.
std::vector<Pulse> product_pulses(const Pmf& x, const Pmf& y,
                                  const std::function<double(double, double)>& f) {
  std::vector<Pulse> out;
  out.reserve(x.size() * y.size());
  for (const Pulse& px : x.pulses()) {
    for (const Pulse& py : y.pulses()) {
      out.push_back({f(px.value, py.value), px.probability * py.probability});
    }
  }
  return out;
}

}  // namespace

Pmf combine(const Pmf& x, const Pmf& y, const std::function<double(double, double)>& f,
            std::size_t max_pulses) {
  return Pmf::from_pulses(product_pulses(x, y, f)).compacted(max_pulses);
}

Pmf convolve_sum(const Pmf& x, const Pmf& y, std::size_t max_pulses) {
  return combine(x, y, [](double a, double b) { return a + b; }, max_pulses);
}

Pmf independent_max(const Pmf& x, const Pmf& y) {
  // Support of max(X, Y) is a subset of the union of supports; the CDF of
  // the max is the product of CDFs, so assemble pulses from CDF increments.
  std::vector<double> support;
  support.reserve(x.size() + y.size());
  for (const Pulse& pulse : x.pulses()) support.push_back(pulse.value);
  for (const Pulse& pulse : y.pulses()) support.push_back(pulse.value);
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());

  std::vector<Pulse> out;
  out.reserve(support.size());
  double prev_cdf = 0.0;
  for (double v : support) {
    const double joint = x.cdf(v) * y.cdf(v);
    const double mass = joint - prev_cdf;
    if (mass > 0.0) out.push_back({v, mass});
    prev_cdf = joint;
  }
  return Pmf::from_pulses(std::move(out));
}

Pmf independent_min(const Pmf& x, const Pmf& y) {
  std::vector<double> support;
  support.reserve(x.size() + y.size());
  for (const Pulse& pulse : x.pulses()) support.push_back(pulse.value);
  for (const Pulse& pulse : y.pulses()) support.push_back(pulse.value);
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());

  // P(min > v) = P(X > v) P(Y > v); pulses are decrements of the survival.
  std::vector<Pulse> out;
  out.reserve(support.size());
  double prev_survival = 1.0;
  for (double v : support) {
    const double survival = x.tail(v) * y.tail(v);
    const double mass = prev_survival - survival;
    if (mass > 0.0) out.push_back({v, mass});
    prev_survival = survival;
  }
  return Pmf::from_pulses(std::move(out));
}

Pmf apply_availability(const Pmf& time, const Pmf& availability, std::size_t max_pulses) {
  for (const Pulse& pulse : availability.pulses()) {
    if (!(pulse.value > 0.0)) {
      throw std::invalid_argument("apply_availability: availability pulses must be > 0");
    }
  }
  return combine(time, availability, [](double t, double a) { return t / a; }, max_pulses);
}

Pmf mixture(const Pmf& x, double w, const Pmf& y) {
  if (!(w >= 0.0 && w <= 1.0)) throw std::invalid_argument("mixture: w must be in [0, 1]");
  std::vector<Pulse> out;
  out.reserve(x.size() + y.size());
  for (const Pulse& pulse : x.pulses()) out.push_back({pulse.value, w * pulse.probability});
  for (const Pulse& pulse : y.pulses()) {
    out.push_back({pulse.value, (1.0 - w) * pulse.probability});
  }
  return Pmf::from_pulses(std::move(out));
}

}  // namespace cdsf::pmf
