#include "dls/adaptive.hpp"

#include <cmath>
#include <limits>
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

using Estimate = AdaptiveFactoring::Estimate;

void check_estimate(double mu, double sigma) {
  if (!(mu > 0.0)) throw std::invalid_argument("chunk_for_target: mu must be > 0");
  if (sigma < 0.0) throw std::invalid_argument("chunk_for_target: sigma must be >= 0");
}

/// K_j(T). The expression order is fixed: AF's chunk sizes depend on its
/// last bit.
double chunk_of(const Estimate& e, double target) {
  if (target <= 0.0) return 0.0;
  return (e.sigma_sq + e.two_mu * target - e.sigma * std::sqrt(e.sigma_sq + e.four_mu * target)) /
         e.two_mu_sq;
}

/// f(T) = sum_j K_j(T), in worker order.
double total_chunks(std::span<const Estimate> estimates, double target) {
  double sum = 0.0;
  for (const Estimate& e : estimates) sum += chunk_of(e, target);
  return sum;
}

/// A guess at the root of f(T) = budget by Newton's method, starting from
/// budget / sum_j (1 / mu_j), which lies below the root because
/// K_j(T) <= T / mu_j. f is convex and increasing, so the first step lands
/// above the root and the rest descend onto it. Only speed depends on the
/// guess: a poor one fails the certificate's checks.
double guess_root(std::span<const Estimate> estimates, double budget, double inv_mu_sum,
                  int& sums) {
  double target = budget / inv_mu_sum;
  for (int step = 0; step < 8; ++step) {
    double total = 0.0;
    double slope = 0.0;
    for (const Estimate& e : estimates) {
      total += chunk_of(e, target);
      // K_j'(T) = (1 - sigma / sqrt(sigma^2 + 4mu T)) / mu
      slope += e.inv_mu * (1.0 - e.sigma / std::sqrt(e.sigma_sq + e.four_mu * target));
    }
    ++sums;
    const double delta = (total - budget) / slope;
    target -= delta;
    // The relative error after a step of size d is at most about d^2 / 2
    // (T f'' / f' <= 1 for every K_j), so a step of 2^-26 T leaves ~2^-53.
    if (!(std::abs(delta) > 0x1p-26 * target)) break;
  }
  return target;
}

/// Bisection midpoints the certificate decides without summing: every mid
/// <= lower compares below the budget and every mid >= upper does not. The
/// default window decides only what the sum itself would (nothing lies
/// below 0 and a mid of +inf ends the loop), so it sums every step.
struct Window {
  double lower = 0.0;
  double upper = std::numeric_limits<double>::infinity();
};

// Error bound. Let u = 2^-53, f the computed sum and f* the exact sum of
// the exact K_j(T) for the stored (mu, sigma); f* is nondecreasing in T.
// Per worker, chunk_of rounds ten times (sigma^2, 2mu T, 4mu T, the sums
// under and beside the root, the root, sigma * root, the difference,
// 2mu^2, the quotient; 2mu and 4mu are exact). Both terms under the root
// are positive, and sigma sqrt(sigma^2 + 4mu T) <= M = sigma^2 + 2mu T by
// AM-GM, so the difference is within about 7u M of exact however much it
// cancels, and the quotient within about 9.1u M / (2mu^2) < 10u S_j, where
// S_j = M / (2mu^2) = sigma^2 / (2mu^2) + T / mu >= K_j*(T) >= 0. Adding the
// P terms in order costs at most (P - 1)u (1 + 10u) sum_j S_j more. So
//     |f(T) - f*(T)| <= E(T) = eps (A + B T) + P 2^-400,
//     A = sum_j sigma_j^2 / (2mu_j^2),  B = sum_j 1 / mu_j,
// nondecreasing in T, with eps = (P + 12)u: P + 9 plus 3u of slack for
// rounding in A, B and E itself (enough for P <= 2^20). The safe range
// below keeps every operation at any T <= hi finite, and the P 2^-400 term
// covers underflow, which costs at most ~1e-123 per worker there.
//
// Certificate. With E nondecreasing and rounding monotone (so a computed
// comparison against the representable budget implies the exact one):
//   f(a) + 2E(a) < budget gives, for every mid <= a,
//     f(mid) <= f*(mid) + E(mid) <= f*(a) + E(a) <= f(a) + 2E(a) < budget;
//   f(b) - 2E(c) > budget gives, for mid in [b, c],
//     f(mid) >= f*(b) - E(c) >= f(b) - E(b) - E(c) > budget;
//   f(c) - 2E(hi) > budget likewise covers mid in [c, hi), and every mid
//     of the bisection lies below the hi it starts from.
// So a step outside (a, b) takes the branch its sum would take.
Window certify(std::span<const Estimate> estimates, double budget, double hi, int& sums) {
  constexpr double kMin = 1e-100;
  constexpr double kMax = 1e100;
  if (!(hi <= 1e150) || estimates.size() > (std::size_t{1} << 20)) return {};
  double a_sum = 0.0;
  double b_sum = 0.0;
  for (const Estimate& e : estimates) {
    const bool sigma_safe = e.sigma == 0.0 || (e.sigma >= kMin && e.sigma <= kMax);
    if (!sigma_safe || !(e.inv_mu >= kMin && e.inv_mu <= kMax)) return {};
    a_sum += e.sigma_sq / e.two_mu_sq;
    b_sum += e.inv_mu;
  }
  const auto workers = static_cast<double>(estimates.size());
  const double eps = (workers + 12.0) * 0x1p-53;
  auto bound = [&](double target) { return eps * (a_sum + b_sum * target) + workers * 0x1p-400; };
  auto total = [&](double target) {
    ++sums;
    return total_chunks(estimates, target);
  };

  const double root = guess_root(estimates, budget, b_sum, sums);
  double c = 1.125 * root;
  if (c < hi) {
    if (!(total(c) - 2.0 * bound(hi) > budget)) return {};
  } else {
    c = hi;  // [c, hi) is empty
  }
  // Each side's check needs f to move by about 2E between r and the window
  // edge, and f moves by at least eta * budget there (f is convex with
  // f(0) = 0). A half-width of 3E(r) / budget passes almost always; else
  // one 64 times wider is tried.
  double eta = 3.0 * bound(root) / budget;
  for (int attempt = 0; attempt < 2; ++attempt, eta *= 64.0) {
    const double a = root * (1.0 - eta);
    const double b = root * (1.0 + eta);
    if (!(a > 0.0 && b < c)) return {};
    if (total(a) + 2.0 * bound(a) < budget && total(b) - 2.0 * bound(c) > budget) return {a, b};
  }
  return {};
}

}  // namespace

AdaptiveFactoring::Estimate::Estimate(double mean, double stddev)
    : sigma(stddev),
      sigma_sq(stddev * stddev),
      two_mu(2.0 * mean),
      four_mu(4.0 * mean),
      two_mu_sq(2.0 * mean * mean),
      inv_mu(1.0 / mean) {
  check_estimate(mean, stddev);
}

double AdaptiveFactoring::chunk_for_target(double mu, double sigma, double target) {
  return chunk_of(Estimate(mu, sigma), target);
}

AdaptiveFactoring::TargetSearch AdaptiveFactoring::search_target(
    std::span<const Estimate> estimates, double own_mu, double own_sigma, double budget) {
  int sums = 0;
  auto below_budget = [&](double target) {
    ++sums;
    return total_chunks(estimates, target) < budget;
  };
  constexpr int kMaxDoublings = 128;
  double hi = own_mu * budget + own_sigma * std::sqrt(budget) + 1.0;
  int doublings = 0;
  for (; doublings < kMaxDoublings && below_budget(hi); ++doublings) hi *= 2.0;
  const Window window =
      doublings < kMaxDoublings ? certify(estimates, budget, hi, sums) : Window{};
  double lo = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    // Adjacent doubles (after ~55-60 steps): every further step either
    // keeps (lo, hi) or collapses it onto mid, so the target below is mid
    // either way.
    if (mid == lo || mid == hi) break;
    const bool below = mid <= window.lower   ? true
                       : mid >= window.upper ? false
                                             : below_budget(mid);
    if (below) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const bool certified = window.lower > 0.0;
  return TargetSearch{0.5 * (lo + hi), sums, certified};
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

  // Collect estimates for all workers with data; others contribute the
  // bootstrap share to the batch budget.
  estimates_.clear();
  double unknown_share = 0.0;
  for (const auto& summary : measured_) {
    if (!summary.empty() && summary.mean() > 0.0) {
      estimates_.emplace_back(summary.mean(), summary.stddev());
    } else {
      unknown_share += batch / p;
    }
  }
  const double budget = std::max(1.0, batch - unknown_share);
  const double target = search_target(estimates_, own.mean(), own.stddev(), budget).target;
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
