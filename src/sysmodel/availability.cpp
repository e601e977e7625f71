#include "sysmodel/availability.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace cdsf::sysmodel {

namespace {
constexpr double kInfinity = std::numeric_limits<double>::infinity();
}

namespace detail {

double next_epoch_boundary(double t, double epoch_length) {
  const auto epoch = static_cast<std::size_t>(t / epoch_length);
  const double boundary = (static_cast<double>(epoch) + 1.0) * epoch_length;
  // When epoch_length is not exactly representable, t can land exactly on a
  // boundary whose division rounds back into the previous epoch; the naive
  // formula then returns t itself and finish_time()/work_delivered() — which
  // advance with `t = next_change_after(t)` — spin forever. Step one more
  // epoch so the result is always strictly past t.
  return boundary > t ? boundary : boundary + epoch_length;
}

}  // namespace detail

void validate_availability_pmf(const pmf::Pmf& law) {
  for (const pmf::Pulse& pulse : law.pulses()) {
    if (!(pulse.value > 0.0 && pulse.value <= 1.0)) {
      throw std::invalid_argument("availability PMF pulse must be in (0, 1], got " +
                                  std::to_string(pulse.value));
    }
  }
}

AvailabilitySpec::AvailabilitySpec(std::string name, std::vector<pmf::Pmf> per_type)
    : name_(std::move(name)), per_type_(std::move(per_type)) {
  if (per_type_.empty()) {
    throw std::invalid_argument("AvailabilitySpec: at least one processor type required");
  }
  for (const pmf::Pmf& law : per_type_) validate_availability_pmf(law);
}

double AvailabilitySpec::weighted_system_availability(const Platform& platform) const {
  if (platform.type_count() != type_count()) {
    throw std::invalid_argument(
        "weighted_system_availability: platform type count mismatch");
  }
  double weighted = 0.0;
  for (std::size_t j = 0; j < type_count(); ++j) {
    weighted += static_cast<double>(platform.processors_of_type(j)) * expected(j);
  }
  return weighted / static_cast<double>(platform.total_processors());
}

double availability_decrease(const AvailabilitySpec& reference, const AvailabilitySpec& actual,
                             const Platform& platform) {
  const double ref = reference.weighted_system_availability(platform);
  const double act = actual.weighted_system_availability(platform);
  return 1.0 - act / ref;
}

// ---------------------------------------------------------- processes ----

double AvailabilityProcess::finish_time(double start, double work) {
  if (work < 0.0) throw std::invalid_argument("finish_time: work must be >= 0");
  double t = start;
  double remaining = work;
  while (remaining > 0.0) {
    const double a = availability_at(t);
    const double boundary = next_change_after(t);
    if (a <= 0.0) {
      // Outage (CrashingAvailability): no progress. A permanent outage
      // never completes the work.
      if (!std::isfinite(boundary)) return kInfinity;
      t = boundary;
      continue;
    }
    const double needed = remaining / a;
    if (t + needed <= boundary) return t + needed;
    remaining -= a * (boundary - t);
    t = boundary;
  }
  return t;
}

double AvailabilityProcess::work_delivered(double start, double end) {
  if (end < start) throw std::invalid_argument("work_delivered: end must be >= start");
  double t = start;
  double work = 0.0;
  while (t < end) {
    const double a = availability_at(t);
    const double boundary = std::min(next_change_after(t), end);
    work += a * (boundary - t);
    t = boundary;
  }
  return work;
}

ConstantAvailability::ConstantAvailability(double availability) : availability_(availability) {
  if (!(availability > 0.0 && availability <= 1.0)) {
    throw std::invalid_argument("ConstantAvailability: availability must be in (0, 1]");
  }
}

double ConstantAvailability::next_change_after(double) { return kInfinity; }

IidEpochAvailability::IidEpochAvailability(pmf::Pmf law, double epoch_length, std::uint64_t seed)
    : law_(std::move(law)), epoch_length_(epoch_length), rng_(seed) {
  if (!(epoch_length > 0.0)) {
    throw std::invalid_argument("IidEpochAvailability: epoch_length must be > 0");
  }
  validate_availability_pmf(law_);
}

double IidEpochAvailability::value_for_epoch(std::size_t epoch) {
  while (cache_.size() <= epoch) cache_.push_back(law_.sample_with(rng_.uniform01()));
  return cache_[epoch];
}

double IidEpochAvailability::availability_at(double t) {
  if (t < 0.0) throw std::invalid_argument("availability_at: t must be >= 0");
  return value_for_epoch(static_cast<std::size_t>(t / epoch_length_));
}

double IidEpochAvailability::next_change_after(double t) {
  return detail::next_epoch_boundary(t, epoch_length_);
}

MarkovEpochAvailability::MarkovEpochAvailability(pmf::Pmf law, double epoch_length,
                                                 double persistence, std::uint64_t seed)
    : law_(std::move(law)),
      epoch_length_(epoch_length),
      persistence_(persistence),
      rng_(seed) {
  if (!(epoch_length > 0.0)) {
    throw std::invalid_argument("MarkovEpochAvailability: epoch_length must be > 0");
  }
  if (!(persistence >= 0.0 && persistence < 1.0)) {
    throw std::invalid_argument("MarkovEpochAvailability: persistence must be in [0, 1)");
  }
  validate_availability_pmf(law_);
}

void MarkovEpochAvailability::extend_cache(std::size_t epoch) {
  while (cache_.size() <= epoch) {
    if (cache_.empty() || rng_.uniform01() >= persistence_) {
      cache_.push_back(law_.sample_with(rng_.uniform01()));
    } else {
      cache_.push_back(cache_.back());
    }
  }
}

double MarkovEpochAvailability::availability_at(double t) {
  if (t < 0.0) throw std::invalid_argument("availability_at: t must be >= 0");
  const auto epoch = static_cast<std::size_t>(t / epoch_length_);
  extend_cache(epoch);
  return cache_[epoch];
}

double MarkovEpochAvailability::next_change_after(double t) {
  return detail::next_epoch_boundary(t, epoch_length_);
}

TraceAvailability::TraceAvailability(std::vector<double> time_points, std::vector<double> values)
    : time_points_(std::move(time_points)), values_(std::move(values)) {
  if (time_points_.empty() || time_points_.size() != values_.size()) {
    throw std::invalid_argument("TraceAvailability: time_points and values must match and be non-empty");
  }
  if (time_points_.front() != 0.0) {
    throw std::invalid_argument("TraceAvailability: trace must start at time 0");
  }
  for (std::size_t i = 1; i < time_points_.size(); ++i) {
    if (!(time_points_[i] > time_points_[i - 1])) {
      throw std::invalid_argument("TraceAvailability: times must be strictly increasing");
    }
  }
  for (double v : values_) {
    if (!(v > 0.0 && v <= 1.0)) {
      throw std::invalid_argument("TraceAvailability: values must be in (0, 1]");
    }
  }
}

double TraceAvailability::availability_at(double t) {
  if (t < 0.0) throw std::invalid_argument("availability_at: t must be >= 0");
  // Last step whose start time <= t.
  std::size_t lo = 0;
  std::size_t hi = time_points_.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (time_points_[mid] <= t) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return values_[lo];
}

double TraceAvailability::next_change_after(double t) {
  // First step start strictly after t (times are strictly increasing).
  const auto next = std::upper_bound(time_points_.begin(), time_points_.end(), t);
  return next == time_points_.end() ? kInfinity : *next;
}

DiurnalAvailability::DiurnalAvailability(double mean, double amplitude, double period,
                                         double phase, std::size_t steps_per_period)
    : mean_(mean), amplitude_(amplitude), period_(period), phase_(phase),
      steps_(steps_per_period) {
  if (!(period > 0.0)) throw std::invalid_argument("DiurnalAvailability: period must be > 0");
  if (steps_per_period < 2) {
    throw std::invalid_argument("DiurnalAvailability: steps_per_period must be >= 2");
  }
  if (amplitude < 0.0) {
    throw std::invalid_argument("DiurnalAvailability: amplitude must be >= 0");
  }
  if (!(mean - amplitude > 0.0) || mean + amplitude > 1.0 + 1e-9) {
    throw std::invalid_argument(
        "DiurnalAvailability: mean +/- amplitude must stay within (0, 1]");
  }
}

double DiurnalAvailability::availability_at(double t) {
  if (t < 0.0) throw std::invalid_argument("availability_at: t must be >= 0");
  // Quantize to the containing step's midpoint so the function is piecewise
  // constant (finish_time integrates it exactly).
  const double step_length = period_ / static_cast<double>(steps_);
  const double step_mid =
      (std::floor(t / step_length) + 0.5) * step_length;
  constexpr double kTwoPi = 6.283185307179586;
  const double value =
      mean_ - amplitude_ * std::sin(kTwoPi * (step_mid + phase_) / period_);
  return std::clamp(value, 1e-9, 1.0);
}

double DiurnalAvailability::next_change_after(double t) {
  const double step_length = period_ / static_cast<double>(steps_);
  return detail::next_epoch_boundary(t, step_length);
}

FailingAvailability::FailingAvailability(std::unique_ptr<AvailabilityProcess> inner,
                                         double failure_time, double residual)
    : inner_(std::move(inner)), failure_time_(failure_time), residual_(residual) {
  if (inner_ == nullptr) throw std::invalid_argument("FailingAvailability: inner is null");
  if (failure_time < 0.0) {
    throw std::invalid_argument("FailingAvailability: failure_time must be >= 0");
  }
  if (!(residual > 0.0 && residual <= 1.0)) {
    throw std::invalid_argument("FailingAvailability: residual must be in (0, 1]");
  }
}

double FailingAvailability::availability_at(double t) {
  if (t >= failure_time_) return residual_;
  return inner_->availability_at(t);
}

double FailingAvailability::next_change_after(double t) {
  if (t >= failure_time_) return kInfinity;
  return std::min(inner_->next_change_after(t), failure_time_);
}

CrashingAvailability::CrashingAvailability(std::unique_ptr<AvailabilityProcess> inner,
                                           double crash_time, double recovery_time)
    : inner_(std::move(inner)), crash_time_(crash_time), recovery_time_(recovery_time) {
  if (inner_ == nullptr) throw std::invalid_argument("CrashingAvailability: inner is null");
  if (crash_time < 0.0) {
    throw std::invalid_argument("CrashingAvailability: crash_time must be >= 0");
  }
  if (!(recovery_time > crash_time)) {
    throw std::invalid_argument("CrashingAvailability: recovery_time must be > crash_time");
  }
}

double CrashingAvailability::availability_at(double t) {
  if (is_down(t)) return 0.0;
  return inner_->availability_at(t);
}

double CrashingAvailability::next_change_after(double t) {
  if (t < crash_time_) return std::min(inner_->next_change_after(t), crash_time_);
  if (is_down(t)) return recovery_time_;
  return inner_->next_change_after(t);
}

BurstWindows::BurstWindows(double mean_gap, double duration, std::uint64_t seed)
    : mean_gap_(mean_gap), duration_(duration), start_(0.0), rng_(seed) {
  if (!(mean_gap > 0.0) || !(duration > 0.0)) {
    throw std::invalid_argument("BurstWindows: mean_gap and duration must be > 0");
  }
  start_ = -mean_gap_ * std::log1p(-rng_.uniform01());
}

bool BurstWindows::covers(double t) {
  while (t >= start_ + duration_) {
    start_ += duration_ - mean_gap_ * std::log1p(-rng_.uniform01());
  }
  return t >= start_;
}

}  // namespace cdsf::sysmodel
