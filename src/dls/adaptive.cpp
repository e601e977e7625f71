#include "dls/adaptive.hpp"

#include <cmath>
#include <stdexcept>

namespace cdsf::dls {

std::string awf_variant_name(AwfVariant variant) {
  switch (variant) {
    case AwfVariant::kTimestep: return "AWF";
    case AwfVariant::kBatch: return "AWF-B";
    case AwfVariant::kChunk: return "AWF-C";
    case AwfVariant::kBatchTotal: return "AWF-D";
    case AwfVariant::kChunkTotal: return "AWF-E";
  }
  return "AWF-?";
}

namespace {

/// Weights proportional to measured rates (1 / mean iteration time),
/// normalized to mean 1. Workers without measurements get the average rate
/// of the measured ones (neutral weight if nobody has data yet).
std::vector<double> weights_from_measurements(
    const std::vector<stats::OnlineSummary>& measured) {
  const std::size_t workers = measured.size();
  double known_rate_sum = 0.0;
  std::size_t known = 0;
  for (const auto& summary : measured) {
    if (!summary.empty() && summary.mean() > 0.0) {
      known_rate_sum += 1.0 / summary.mean();
      ++known;
    }
  }
  std::vector<double> weights(workers, 1.0);
  if (known == 0) return weights;
  const double fallback_rate = known_rate_sum / static_cast<double>(known);
  double total = 0.0;
  for (std::size_t w = 0; w < workers; ++w) {
    const double rate = (!measured[w].empty() && measured[w].mean() > 0.0)
                            ? 1.0 / measured[w].mean()
                            : fallback_rate;
    weights[w] = rate;
    total += rate;
  }
  for (double& weight : weights) weight *= static_cast<double>(workers) / total;
  return weights;
}

}  // namespace

// ------------------------------------------------------------------- AWF --

AdaptiveWeightedFactoring::AdaptiveWeightedFactoring(const TechniqueParams& params,
                                                     AwfVariant variant)
    : variant_(variant), workers_(params.workers), measured_(params.workers) {
  validate_params(params);
  // The timestep variant carries a-priori weights across executions (they
  // come from previous timesteps). The batch/chunk-adaptive variants start
  // uniform by definition — they learn ONLY from their own measurements,
  // which is exactly what separates them from WF in the paper's study.
  weights_ = variant_ == AwfVariant::kTimestep ? normalized_weights(params)
                                               : std::vector<double>(workers_, 1.0);
}

void AdaptiveWeightedFactoring::refresh_weights() { weights_ = weights_from_measurements(measured_); }

std::int64_t AdaptiveWeightedFactoring::weighted_chunk(const SchedulingContext& ctx,
                                                       std::int64_t pool) {
  const double share =
      static_cast<double>(pool) * weights_.at(ctx.worker) / static_cast<double>(workers_);
  auto chunk = static_cast<std::int64_t>(std::llround(share));
  return std::max<std::int64_t>(1, chunk);
}

std::int64_t AdaptiveWeightedFactoring::next_chunk(const SchedulingContext& ctx) {
  const bool chunk_adaptive = variant_ == AwfVariant::kChunk || variant_ == AwfVariant::kChunkTotal;
  if (chunk_adaptive) {
    refresh_weights();
    // No batches: the pool is half the remaining iterations.
    const auto pool = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::ceil(static_cast<double>(ctx.remaining_iterations) * 0.5)));
    return clamp_chunk(weighted_chunk(ctx, pool), ctx.remaining_iterations);
  }

  if (batch_remaining_ <= 0) {
    if (variant_ == AwfVariant::kBatch || variant_ == AwfVariant::kBatchTotal) refresh_weights();
    batch_size_ = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::ceil(static_cast<double>(ctx.remaining_iterations) * 0.5)));
    batch_remaining_ = batch_size_;
  }
  std::int64_t chunk = weighted_chunk(ctx, batch_size_);
  chunk = std::min(chunk, batch_remaining_);
  batch_remaining_ -= chunk;
  return clamp_chunk(chunk, ctx.remaining_iterations);
}

void AdaptiveWeightedFactoring::record(const ChunkResult& result) {
  if (result.worker >= workers_) throw std::out_of_range("AWF::record: bad worker index");
  if (result.iterations <= 0) return;
  const bool total_timing =
      variant_ == AwfVariant::kBatchTotal || variant_ == AwfVariant::kChunkTotal;
  const double time = total_timing ? result.total_time : result.execution_time;
  if (time <= 0.0) return;
  measured_[result.worker].add(time / static_cast<double>(result.iterations),
                               static_cast<double>(result.iterations));
}

void AdaptiveWeightedFactoring::reset() {
  batch_remaining_ = 0;
  batch_size_ = 0;
  if (variant_ != AwfVariant::kTimestep) {
    // Chunk/batch-adaptive variants learn within one execution only.
    measured_.assign(workers_, stats::OnlineSummary{});
    weights_.assign(workers_, 1.0);
  }
}

void AdaptiveWeightedFactoring::advance_timestep() {
  if (variant_ != AwfVariant::kTimestep) return;
  refresh_weights();
  measured_.assign(workers_, stats::OnlineSummary{});
}

std::vector<double> AdaptiveWeightedFactoring::current_weights() const { return weights_; }

double AdaptiveWeightedFactoring::estimated_iteration_time(std::size_t worker) const {
  if (worker >= workers_) throw std::out_of_range("AWF::estimated_iteration_time: bad worker index");
  const stats::OnlineSummary& own = measured_[worker];
  return (!own.empty() && own.mean() > 0.0) ? own.mean() : 0.0;
}

// -------------------------------------------------------------------- AF --

AdaptiveFactoring::AdaptiveFactoring(const TechniqueParams& params)
    : workers_(params.workers),
      bootstrap_weights_(normalized_weights(params)),
      measured_(params.workers) {
  validate_params(params);
}

namespace {

void check_estimate(double mu, double sigma) {
  if (!(mu > 0.0)) throw std::invalid_argument("chunk_for_target: mu must be > 0");
  if (sigma < 0.0) throw std::invalid_argument("chunk_for_target: sigma must be >= 0");
}

/// K_j(T) for an already checked (mu, sigma). The expression order is fixed:
/// AF's chunk sizes depend on its last bit.
double chunk_for_checked(double mu, double sigma, double target) {
  if (target <= 0.0) return 0.0;
  const double s2 = sigma * sigma;
  return (s2 + 2.0 * mu * target - sigma * std::sqrt(s2 + 4.0 * mu * target)) /
         (2.0 * mu * mu);
}

}  // namespace

double AdaptiveFactoring::chunk_for_target(double mu, double sigma, double target) {
  check_estimate(mu, sigma);
  return chunk_for_checked(mu, sigma, target);
}

std::int64_t AdaptiveFactoring::next_chunk(const SchedulingContext& ctx) {
  const auto p = static_cast<double>(workers_);
  const double batch = std::max(1.0, static_cast<double>(ctx.remaining_iterations) * 0.5);

  const stats::OnlineSummary& own = measured_.at(ctx.worker);
  if (own.empty() || own.mean() <= 0.0) {
    // No measurements yet: AF's only runtime information is the current
    // system state, so the bootstrap chunk is the factoring share scaled by
    // the worker's observed availability (params.weights, filled by the
    // executor). An unloaded-uniform group degrades to the plain R/(2P).
    const double share = (batch / p) * bootstrap_weights_.at(ctx.worker);
    const std::int64_t bootstrap =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(std::llround(share)));
    return clamp_chunk(bootstrap, ctx.remaining_iterations);
  }

  // Collect (mu, sigma) for all workers with data; others contribute the
  // bootstrap share to the batch budget.
  estimates_.clear();
  double unknown_share = 0.0;
  for (const auto& summary : measured_) {
    if (!summary.empty() && summary.mean() > 0.0) {
      const Estimate e{summary.mean(), summary.stddev()};
      check_estimate(e.mu, e.sigma);
      estimates_.push_back(e);
    } else {
      unknown_share += batch / p;
    }
  }
  const double budget = std::max(1.0, batch - unknown_share);

  // Find target time T with sum_j K_j(T) = budget (monotone in T).
  auto total_chunks = [&](double target) {
    double sum = 0.0;
    for (const Estimate& e : estimates_) sum += chunk_for_checked(e.mu, e.sigma, target);
    return sum;
  };
  double hi = own.mean() * budget + own.stddev() * std::sqrt(budget) + 1.0;
  for (int i = 0; i < 128 && total_chunks(hi) < budget; ++i) hi *= 2.0;
  double lo = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    // Adjacent doubles (after ~55-60 steps): every further step either
    // keeps (lo, hi) or collapses it onto mid, so the target below is mid
    // either way.
    if (mid == lo || mid == hi) break;
    if (total_chunks(mid) < budget) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double target = 0.5 * (lo + hi);
  const auto chunk = static_cast<std::int64_t>(
      std::llround(chunk_for_target(own.mean(), own.stddev(), target)));
  return clamp_chunk(chunk, ctx.remaining_iterations);
}

void AdaptiveFactoring::record(const ChunkResult& result) {
  if (result.worker >= workers_) throw std::out_of_range("AF::record: bad worker index");
  if (result.iterations <= 0 || result.execution_time <= 0.0) return;
  // One observation per chunk: the chunk-mean iteration time. The spread of
  // these observations across chunks is exactly the availability-driven
  // variability AF must react to.
  measured_[result.worker].add(result.execution_time / static_cast<double>(result.iterations));
}

void AdaptiveFactoring::reset() { measured_.assign(workers_, stats::OnlineSummary{}); }

double AdaptiveFactoring::estimated_iteration_time(std::size_t worker) const {
  if (worker >= workers_) throw std::out_of_range("AF::estimated_iteration_time: bad worker index");
  const stats::OnlineSummary& own = measured_[worker];
  return (!own.empty() && own.mean() > 0.0) ? own.mean() : 0.0;
}

}  // namespace cdsf::dls
