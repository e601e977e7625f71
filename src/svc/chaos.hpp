// Service chaos axis: randomized campaigns against the scheduling
// service, with the crash-safety and determinism contracts checked on
// every schedule. Lives in svc/ (not sim/chaos.* or cdsf/admission.*)
// because the service sits above both; the `cdsf chaos` subcommand runs
// it alongside the executor and arrival-storm campaigns and folds the
// verdict into the cdsf.chaos_report/4 document.
//
// Each schedule draws a request stream (seeded arrivals, a poison
// fraction) and a fault mix (injected solver hangs, a mid-stream daemon
// crash), then checks:
//
//   * exactly-once reports — every admitted request reaches exactly one
//     terminal outcome across the crash/restart pair; a report delivered
//     before the crash is never re-delivered after it;
//   * zero lost requests — every acked id (journal flushed) is terminal
//     by the end of the restarted run;
//   * repeat determinism — the service report is byte-identical when the
//     same schedule re-runs with a different Phase B thread count;
//   * drain termination — the no-crash run always drains (no stranded
//     queue entries), and the admission identity holds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace cdsf::svc {

struct ServiceChaosConfig {
  /// Randomized schedules (each runs the service three times: two
  /// thread-count variants plus a crash/restart pair).
  std::size_t schedules = 4;
  std::uint64_t seed = 2026;
  std::size_t requests = 8;
  std::size_t shards = 2;
  double poison_fraction = 0.15;
  double hang_fraction = 0.15;
  /// Stage II replications per real solve (kept small: every schedule
  /// solves every delivered request multiple times).
  std::size_t replications = 3;
};

struct ServiceChaosViolation {
  std::size_t schedule = 0;
  std::uint64_t seed = 0;
  std::string invariant;  // "exactly_once" | "lost_request" | ...
  std::string detail;
};

struct ServiceChaosReport {
  std::size_t schedules_run = 0;
  std::uint64_t delivered = 0;
  std::uint64_t hedges = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t poisoned = 0;
  std::uint64_t crashes = 0;
  std::uint64_t replayed = 0;
  std::vector<ServiceChaosViolation> violations;

  [[nodiscard]] bool passed() const noexcept { return violations.empty(); }
};

/// Runs the campaign (see file comment). Throws std::invalid_argument
/// when schedules == 0 or requests == 0.
[[nodiscard]] ServiceChaosReport run_service_chaos_campaign(const ServiceChaosConfig& config);

/// The `service` block `cdsf chaos --report-json` embeds in the
/// cdsf.chaos_report/4 document (the /3 -> /4 schema bump).
[[nodiscard]] obs::Json service_chaos_json(const ServiceChaosReport& report);

}  // namespace cdsf::svc
