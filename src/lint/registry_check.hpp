// registry-sync pass: three-way diff between the schema tags and metric
// names the code emits, the checked-in registry (tools/obs_registry.json),
// and the tables in docs/observability.md.
//
// Registry (schema "cdsf.obs_registry/1"):
//   {
//     "schema": "cdsf.obs_registry/1",
//     "schemas": ["cdsf.run_report/1", ...],
//     "metrics": ["sim.makespan", ...]
//   }
//
// Code side: full-literal "cdsf.<name>/<version>" strings and registry
// metric-name literals from the project index, excluding tests/ (unit
// tests mint throwaway names; the contract governs production series).
// Doc side: the backticked first column of the markdown tables.
//
// Findings (id registry-sync unless noted):
//   - metric-name (its own id): a metric-name literal that does not match
//     ^(sim|cdsf|obs)\.[a-z0-9_.]+$, so exported series group by
//     subsystem; it takes no part in the diff below. The pass, and so this
//     check, runs only when a registry or doc input is given;
//   - undocumented: the code emits an entry absent from the registry or
//     the doc tables (anchored at the emitting line);
//   - orphaned: the registry or doc lists an entry nothing emits (anchored
//     at its line in the registry/doc file);
//   - version skew: the same schema base appears with different versions
//     in code vs registry/doc (anchored at the emitting line).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/index.hpp"
#include "lint/rules.hpp"

namespace cdsf::lint {

/// Pass id used in diagnostics and allow(...) suppressions.
inline constexpr const char* kRegistryPass = "registry-sync";
/// Id of the pass's metric-name findings.
inline constexpr const char* kMetricNameId = "metric-name";
/// Schema tag the registry file must carry.
inline constexpr const char* kObsRegistrySchema = "cdsf.obs_registry/1";

struct RegistryInput {
  std::string registry_path;  ///< tools/obs_registry.json (empty = skip side).
  std::string registry_text;
  std::string doc_path;       ///< docs/observability.md (empty = skip side).
  std::string doc_text;
};

/// Reads the two input files into a RegistryInput. A missing file throws
/// std::runtime_error; an empty path skips that side of the diff.
[[nodiscard]] RegistryInput load_registry_input(const std::string& registry_path,
                                                const std::string& doc_path);

struct RegistryResult {
  std::vector<Diagnostic> diagnostics;
  std::size_t code_schemas = 0;   ///< Distinct schema tags emitted by code.
  std::size_t code_metrics = 0;   ///< Distinct metric names emitted by code.
};

[[nodiscard]] RegistryResult check_registry(const ProjectIndex& index,
                                            const RegistryInput& input);

}  // namespace cdsf::lint
