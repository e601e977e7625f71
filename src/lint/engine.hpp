// Lint engine: runs the per-file rule set plus the project-wide passes
// (include-layering, lock-order, determinism-taint, registry-sync) over
// SourceFiles, applies suppressions, validates suppression markers, and
// renders text / JSON reports.
//
// A finding carries an id: a pass's own findings carry the pass id, and the
// lexical ids of finding_ids() are each emitted by one pass — the rules
// pass's three rules, determinism-taint's rng-source and wall-clock, and
// registry-sync's metric-name.
//
// Exit-code contract (shared with the cdsf_lint CLI and the fixture tests):
//   0 — clean (suppressed findings allowed)
//   1 — at least one active violation
//   2 — usage or I/O error
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "lint/rules.hpp"
#include "obs/json.hpp"

namespace cdsf::lint {

/// JSON schema tag stamped on --json reports. /2 added per-pass result
/// blocks and a "pass" field on every diagnostic.
inline constexpr const char* kLintReportSchema = "cdsf.lint_report/2";

/// Pass id of the per-file rule set (the other pass ids live in the pass
/// headers: kLayeringPass, kLockOrderPass, kTaintPass, kRegistryPass).
inline constexpr const char* kRulesPass = "rules";

/// All pass ids in stable execution order.
[[nodiscard]] const std::vector<std::string>& all_pass_ids();

/// One lexical finding id, the pass that emits it, and a one-line summary.
struct FindingId {
  std::string_view id;
  std::string_view pass;
  std::string_view summary;
};

/// The lexical finding ids in stable order: the one list that --rule,
/// --list-rules and the unknown-suppression check read (the check also
/// accepts every pass id).
[[nodiscard]] const std::vector<FindingId>& finding_ids();

/// One per-pass block of the report.
struct PassSummary {
  std::string name;
  bool ran = false;
  std::size_t violation_count = 0;
  std::size_t suppressed_count = 0;
  std::vector<std::string> notes;  ///< Pass-specific info (unused allows…).
};

/// Inputs and pass selection for run_project.
struct ProjectOptions {
  /// Passes to run, in any order (executed in canonical order). Empty =
  /// defaults: rules, lock-order, determinism-taint, plus include-layering
  /// when `layering_path` is set and registry-sync when `registry_path` or
  /// `metrics_doc_path` is set.
  std::vector<std::string> passes;
  /// Finding ids to keep (each one of finding_ids()); empty keeps every
  /// finding. The selected passes run either way, and a pass's counts
  /// cover only the findings kept.
  std::vector<std::string> rules;
  std::string layering_path;     ///< tools/layering.json (enables layering).
  std::string registry_path;     ///< tools/obs_registry.json.
  std::string metrics_doc_path;  ///< docs/observability.md.
  bool want_dot = false;         ///< Produce LintResult::layering_dot.
};

struct LintResult {
  std::vector<Diagnostic> violations;   ///< Active findings (fail the run).
  std::vector<Diagnostic> suppressed;   ///< Findings silenced by allow(...).
  std::size_t files_scanned = 0;
  std::vector<PassSummary> passes;      ///< One entry per executed/known pass.
  std::string layering_dot;             ///< DOT graph when requested.

  [[nodiscard]] bool clean() const noexcept { return violations.empty(); }
  /// 0 when clean, 1 otherwise (see exit-code contract above).
  [[nodiscard]] int exit_code() const noexcept { return clean() ? 0 : 1; }
};

/// Runs the selected passes (see ProjectOptions) over the scan set: the
/// per-file rules plus the project-wide analyses on a shared ProjectIndex.
/// Suppression routing is central: a finding at file:line honours an
/// `allow(<id>)` naming its id, whichever pass emits it. A marker naming
/// neither a finding id nor a pass id is itself an active violation (id
/// "unknown-suppression") so typos cannot silently disable enforcement.
/// Output order is deterministic: by file, line, id, then message. Throws
/// std::runtime_error on an unknown pass or finding id and on
/// unreadable/malformed manifest or registry inputs.
[[nodiscard]] LintResult run_project(const std::vector<SourceFile>& files,
                                     const ProjectOptions& options);

/// Recursively collects C++ sources (.hpp/.h/.cpp/.cc) under `path` in
/// sorted order; a file path is returned as-is. Throws std::runtime_error
/// when `path` does not exist.
[[nodiscard]] std::vector<std::string> collect_sources(const std::string& path);

/// Human-readable rendering: one gcc-style line per finding, suppressions
/// listed as notes, and a one-line summary.
[[nodiscard]] std::string to_text(const LintResult& result);

/// Machine-readable rendering ({schema: cdsf.lint_report/2, ...}).
[[nodiscard]] obs::Json to_json(const LintResult& result);

}  // namespace cdsf::lint
