// The stochastic robustness metric of Stage I (Shestak, Smith, Maciejewski
// & Siegel 2008, as used by the CDSF paper).
//
// For application i assigned n processors of type j:
//   1. discretize its single-processor execution-time law into a PMF,
//   2. apply Eq. (2) per pulse -> parallel execution-time PMF,
//   3. combine with the availability PMF of type j (each time pulse t and
//      availability pulse a yield pulse t / a) -> completion-time PMF,
//   4. Pr(app meets deadline) = CDF of that PMF at the deadline.
// Applications are independent, so the allocation's robustness phi_1 is the
// product of the per-application probabilities.
#pragma once

#include <atomic>
#include <cstddef>
#include <unordered_map>

#include "pmf/pmf.hpp"
#include "ra/allocation.hpp"
#include "sysmodel/availability.hpp"
#include "workload/application.hpp"

namespace cdsf::ra {

/// Discretization / compaction budgets for the PMF pipeline.
struct RobustnessConfig {
  /// Pulses used to discretize each single-processor time law.
  std::size_t discretization_pulses = 64;
  /// Pulse budget after the availability combine.
  std::size_t max_pulses = 2048;
  /// Cooperative cancellation hook (util::CancelToken::flag()); polled at
  /// every RA-enumeration boundary (each candidate completion-PMF
  /// evaluation) and before each completion precompute() builds, so a
  /// Stage I search unwinds with util::Cancelled shortly after the owning
  /// watchdog fires. Null = never cancelled. The pointee must outlive the
  /// evaluator.
  const std::atomic<bool>* cancel = nullptr;
};

/// Evaluates completion PMFs and deadline probabilities for one batch under
/// one availability spec and one deadline. Memoizes per (application, type,
/// count) the completion PMF together with its deadline probability and
/// expectation, each computed once from the PMF, so exhaustive searches stay
/// cheap: a repeated query is a hash lookup, not a pulse scan.
///
/// NOT thread-safe: the const queries write the memoization cache, so one
/// evaluator must not be shared across threads (util::parallel_for_index
/// included); give each thread its own. precompute() is the one parallel
/// entry: it builds completions on its own threads and writes the cache
/// from the calling thread only.
class RobustnessEvaluator {
 public:
  /// The batch, spec and platform must outlive the evaluator.
  /// Throws std::invalid_argument if the batch is empty, type counts
  /// disagree, or deadline <= 0.
  RobustnessEvaluator(const workload::Batch& batch, const sysmodel::AvailabilitySpec& availability,
                      double deadline, RobustnessConfig config = {});

  /// Completion-time PMF of application `app` under `group` (steps 1-3).
  [[nodiscard]] const pmf::Pmf& completion_pmf(std::size_t app, GroupAssignment group) const;

  /// Memoizes every completion a search on `platform` under `rule` can
  /// query and the cache lacks: each (application, type, count) with count
  /// in candidate_counts(platform.processors_of_type(type), rule). They are
  /// computed on `threads` threads (util::parallel_for_index) and inserted
  /// from the calling thread, bit-identical to the lazy queries' entries at
  /// any thread count. Each computation polls the cancel token first, so a
  /// cancelled token throws util::Cancelled. Throws std::invalid_argument
  /// if the platform's type count differs from the availability spec's.
  void precompute(const sysmodel::Platform& platform, CountRule rule, std::size_t threads) const;

  /// Pr(application completes <= deadline) under `group`: the memoized
  /// completion_pmf(app, group).cdf(deadline()).
  [[nodiscard]] double application_probability(std::size_t app, GroupAssignment group) const;

  /// Expected completion time of `app` under `group` (Table V values): the
  /// memoized completion_pmf(app, group).expectation().
  [[nodiscard]] double expected_completion(std::size_t app, GroupAssignment group) const;

  /// phi_1 of a full allocation: product of application probabilities.
  /// Throws std::invalid_argument if allocation size != batch size.
  [[nodiscard]] double joint_probability(const Allocation& allocation) const;

  /// The full distribution of the system makespan Psi = max_i T_i under an
  /// allocation (independent applications => pmf::independent_max). Its CDF
  /// at the deadline equals joint_probability; its expectation and
  /// quantiles characterize the allocation beyond the single phi_1 number.
  /// Throws std::invalid_argument if allocation size != batch size.
  [[nodiscard]] pmf::Pmf system_makespan_pmf(const Allocation& allocation) const;

  /// The deterministic FePIA robustness radius of reference [3]
  /// (Ali, Maciejewski, Siegel & Kim, TPDS 2004) applied to this system:
  /// for each application, the largest drop in its group's availability
  /// (from the expected value) before its MEAN execution time violates the
  /// deadline,
  ///     r_i = E[a_type(i)] - E[T_par,i] / deadline,
  /// and the radius is min_i r_i (infinity-norm FePIA). Negative values
  /// mean the application misses the deadline already at the expected
  /// availability. Complements the stochastic phi_1: the radius asks "how
  /// far can availability fall", phi_1 asks "how likely is failure now".
  /// Throws std::invalid_argument if allocation size != batch size.
  [[nodiscard]] double fepia_robustness_radius(const Allocation& allocation) const;

  /// Per-application FePIA slacks r_i (same convention as above).
  [[nodiscard]] std::vector<double> fepia_slacks(const Allocation& allocation) const;

  [[nodiscard]] double deadline() const noexcept { return deadline_; }
  [[nodiscard]] const workload::Batch& batch() const noexcept { return *batch_; }
  [[nodiscard]] const sysmodel::AvailabilitySpec& availability() const noexcept {
    return *availability_;
  }

 private:
  /// One memoized (application, type, count): the completion PMF and the two
  /// numbers the searches read from it.
  struct Completion {
    pmf::Pmf pmf;
    double probability = 0.0;
    double expectation = 0.0;
  };
  struct Key {
    std::size_t app = 0;
    std::size_t processor_type = 0;
    std::size_t processors = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };

  /// Polls the cancel token, validates the arguments, then returns the
  /// memoized entry, computing it on first use.
  const Completion& completion(std::size_t app, GroupAssignment group) const;

  /// Steps 1-3 for one valid key, with the deadline probability and the
  /// expectation. Reads only immutable state, so distinct keys may be
  /// computed concurrently.
  Completion compute(const Key& key) const;

  const workload::Batch* batch_;
  const sysmodel::AvailabilitySpec* availability_;
  double deadline_;
  RobustnessConfig config_;
  mutable std::unordered_map<Key, Completion, KeyHash> cache_;
};

}  // namespace cdsf::ra
