// Adaptive weighted factoring (AWF) and its variants.
//
// AWF keeps the weighted-factoring chunk rule but *learns* the worker
// weights from runtime measurements instead of fixing them a priori
// (Cariño & Banicescu 2008). A worker's weight is proportional to its
// measured processing rate (inverse mean iteration time). The variants
// differ in WHEN weights are refreshed and WHICH timing they use:
//
//   AWF    — weights refresh only between timesteps of a time-stepping
//            application (advance_timestep()); within one loop execution it
//            behaves like WF with the current weights.
//   AWF-B  — weights refresh at every batch boundary; timing = chunk
//            execution time.
//   AWF-C  — weights refresh at every chunk request (no batches); timing =
//            chunk execution time.
//   AWF-D  — like AWF-B but timing includes the scheduling overhead
//            (total chunk time).
//   AWF-E  — like AWF-C but timing includes the scheduling overhead.
#pragma once

#include <span>

#include "dls/technique.hpp"
#include "stats/summary.hpp"

namespace cdsf::dls {

/// Which AWF flavor an AdaptiveWeightedFactoring instance implements.
enum class AwfVariant { kTimestep, kBatch, kChunk, kBatchTotal, kChunkTotal };

[[nodiscard]] std::string awf_variant_name(AwfVariant variant);

class AdaptiveWeightedFactoring final : public Technique {
 public:
  AdaptiveWeightedFactoring(const TechniqueParams& params, AwfVariant variant);

  [[nodiscard]] std::string name() const override { return awf_variant_name(variant_); }
  [[nodiscard]] std::int64_t next_chunk(const SchedulingContext& ctx) override;
  void record(const ChunkResult& result) override;
  void reset() override;
  [[nodiscard]] double estimated_iteration_time(std::size_t worker) const override;

  /// AWF (timestep variant) only: folds this execution's measurements into
  /// the weights used by the next execution. No-op for other variants.
  void advance_timestep();

  /// Current normalized weights (mean 1) — exposed for tests.
  [[nodiscard]] std::vector<double> current_weights() const;

 private:
  void refresh_weights();
  [[nodiscard]] std::int64_t weighted_chunk(const SchedulingContext& ctx, std::int64_t pool);

  AwfVariant variant_;
  std::size_t workers_;
  std::vector<double> weights_;                  // normalized, mean 1
  std::vector<stats::OnlineSummary> measured_;   // per-worker iteration times
  std::int64_t batch_remaining_ = 0;
  std::int64_t batch_size_ = 0;
};

/// AF — adaptive factoring (Banicescu & Liu 2000).
///
/// For each worker j, runtime estimates (mu_j, sigma_j) of its iteration
/// time are maintained. A chunk for worker j is the K solving
///     K * mu_j + sigma_j * sqrt(K) = T,
/// i.e. the largest chunk whose one-standard-deviation pessimistic
/// completion time stays within the batch target T; closed form
///     K_j(T) = (sigma^2 + 2 mu T - sigma sqrt(sigma^2 + 4 mu T)) / (2 mu^2).
/// T is set (by monotone bisection) so that one virtual batch of chunks
/// covers half of the remaining iterations: sum_j K_j(T) = R / 2 — the
/// factoring rule. Workers with no measurements yet receive the factoring
/// bootstrap chunk R / (2P) scaled by their availability observed at
/// dispatch time (the executor-provided weights): AF is defined by its use
/// of runtime system information, and before any chunk completes the
/// current availability is the only runtime information there is.
///
/// The bisection's bits are fixed, but most of its sums are not needed.
/// Before bisecting, search_target guesses the root r by Newton's method
/// and certifies a window (r(1 - eta), r(1 + eta)): with an error bound E
/// on the computed sum it proves that every bisection midpoint below the
/// window would compare below the budget and every midpoint above it would
/// not. Only midpoints inside the window are summed, so the search settles
/// on the same T with about 15 sums instead of about 56. When a check fails
/// (cancellation when sigma >> mu, a poor guess), an input leaves the range
/// the bound covers, or the bracket doubling hit its cap, every step is
/// summed as before.
class AdaptiveFactoring final : public Technique {
 public:
  explicit AdaptiveFactoring(const TechniqueParams& params);

  [[nodiscard]] std::string name() const override { return "AF"; }
  [[nodiscard]] std::int64_t next_chunk(const SchedulingContext& ctx) override;
  void record(const ChunkResult& result) override;
  void reset() override;
  [[nodiscard]] double estimated_iteration_time(std::size_t worker) const override;

  /// K_j(T) closed form above — exposed for unit tests.
  [[nodiscard]] static double chunk_for_target(double mu, double sigma, double target);

  /// One measured worker's K_j(T) constants, hoisted out of the target
  /// search. Each is computed as chunk_for_target computes it, so K_j(T)
  /// keeps every bit.
  struct Estimate {
    Estimate(double mean, double stddev);  // throws like chunk_for_target

    double sigma;
    double sigma_sq;   // sigma * sigma
    double two_mu;     // 2 * mu
    double four_mu;    // 4 * mu
    double two_mu_sq;  // 2 * mu * mu
    double inv_mu;     // 1 / mu: the Newton guess and the error bound only
  };

  /// What the batch target search settled on, and what it cost.
  struct TargetSearch {
    double target;   // T, bit for bit the bisection's
    int sums;        // evaluations of sum_j K_j (Newton steps included)
    bool certified;  // a certified window skipped bisection steps
  };

  /// next_chunk's search for T with sum_j K_j(T) = budget over the measured
  /// workers' estimates; the requesting worker's (own_mu, own_sigma) seeds
  /// the bracket. Exposed for tests.
  [[nodiscard]] static TargetSearch search_target(std::span<const Estimate> estimates,
                                                  double own_mu, double own_sigma,
                                                  double budget);

 private:
  std::size_t workers_;
  std::vector<double> bootstrap_weights_;       // availability-seeded, mean 1
  std::vector<stats::OnlineSummary> measured_;  // per-worker chunk-mean iteration times
  std::vector<Estimate> estimates_;             // next_chunk scratch, reused across calls
};

}  // namespace cdsf::dls
