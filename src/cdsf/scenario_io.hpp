// Plain-text scenario files: describe a platform, its availability cases,
// a batch of applications and a deadline in a small INI-like format, so
// experiments can be configured without recompiling.
//
//   # comments start with '#'
//   [platform]
//   type = type1 4            # name count
//
//   [availability case1]      # one section per case; first case = Â
//   type1 = 0.75:0.5 1.0:0.5  # availability:probability pulses
//
//   [application app1]
//   serial = 439
//   parallel = 1024
//   mean = 1800               # per processor type, in [platform] order
//
//   [deadline]
//   value = 3250
//
// Optional sections add injected faults ([failure], repeatable), the MPI
// channel's faults and protocol ([channel], [integrity]), master
// checkpoints ([checkpoint]), gray-failure containment ([quarantine]) and
// the dynamic manager's overload control ([admission]).
// docs/scenario_format.md lists every key with its domain and default;
// scenario_io.cpp declares each key once, and both the parser and the
// writer read those declarations. Sections may appear in any order: the
// parser resolves names after reading the whole file.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "cdsf/admission.hpp"
#include "sim/loop_executor.hpp"
#include "sysmodel/availability.hpp"
#include "sysmodel/platform.hpp"
#include "workload/application.hpp"

namespace cdsf::core {

/// Everything a scenario file defines.
struct Scenario {
  sysmodel::Platform platform{{{"default", 1}}};
  std::vector<sysmodel::AvailabilitySpec> cases;  // [0] is the reference
  workload::Batch batch;
  double deadline = 0.0;
  /// Injected worker faults for Stage II executions (worker indexes are
  /// within each application's group; duplicates are rejected at
  /// simulation time, where the group size is known).
  std::vector<sim::SimConfig::Failure> failures;
  /// Unreliable-channel model for the MPI executor ([channel] section;
  /// default-constructed = reliable, no protocol hardening).
  sim::ChannelModel channel;
  /// Master checkpoint/restart knobs ([checkpoint] section; disabled when
  /// the section is absent — a master-restart failure still implies it at
  /// simulation time).
  sim::SimConfig::MasterCheckpoint checkpoint;
  /// Fail-slow quarantine / audit-validation knobs ([quarantine] section;
  /// structurally disarmed when the section is absent). Payload-corruption
  /// probabilities from [integrity] land on `channel`.
  sim::SimConfig::Quarantine quarantine;
  /// Dynamic-manager overload control ([admission] section; inert
  /// accept-all when absent — batch/plan runs ignore it entirely).
  AdmissionConfig admission;
};

/// Parses a scenario from a stream. Throws std::runtime_error with a
/// line-numbered message on malformed input, and std::invalid_argument when
/// the parsed pieces are inconsistent (unknown type names, no applications,
/// missing deadline, ...).
[[nodiscard]] Scenario parse_scenario(std::istream& in);

/// Convenience: parse from a string.
[[nodiscard]] Scenario parse_scenario_text(const std::string& text);

/// Loads and parses a scenario file. Throws std::runtime_error if the file
/// cannot be opened.
[[nodiscard]] Scenario load_scenario(const std::string& path);

/// Serializes a scenario to the file format. Numbers are written at the
/// stream's default of six significant digits, so a value with more digits
/// parses back rounded (3250.123456789 comes back as 3250.12); a text this
/// function wrote parses and writes back to the same bytes.
[[nodiscard]] std::string scenario_to_text(const Scenario& scenario);

/// The paper's Section IV example as a scenario-file string (used by the
/// round-trip tests and as a template for users).
[[nodiscard]] std::string paper_scenario_text();

}  // namespace cdsf::core
