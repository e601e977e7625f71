// Rule interface and the per-file rule set of cdsf_lint's "rules" pass.
//
// Rules are lexical: they pattern-match identifiers in the scrubbed view of
// a SourceFile (comments and literal contents blanked), so they are fast,
// dependency-free, and immune to matches inside strings or comments. They
// are deliberately conservative approximations of the real invariants —
// the escape hatch for a justified exception is a
// `// cdsf-lint: allow(<rule>)` suppression, which the engine counts and
// lists rather than hides.
//
// The three rules need nothing beyond the file itself (ids are stable;
// docs/static_analysis.md documents each):
//   unordered-iteration — no iteration over std::unordered_{map,set,...}
//                         declared in the same file; iteration order is
//                         nondeterministic and poisons reports, traces,
//                         and replicated-run reductions.
//   bare-mutex-lock     — no bare .lock()/.unlock() calls; use the RAII
//                         guards (std::scoped_lock & friends).
//   report-schema-tag   — every `Json make_*report(...)` in src/obs/ must
//                         stamp a "schema" key on the document it builds.
// The other lexical ids are emitted by the pass that already reads their
// tokens: rng-source and wall-clock by determinism-taint (lint/taint.hpp),
// metric-name by registry-sync (lint/registry_check.hpp).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lint/source.hpp"

namespace cdsf::lint {

struct Diagnostic {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
  bool suppressed = false;
  /// Analysis pass that produced the finding ("rules" for the per-file
  /// rule set; project passes stamp their own id). The engine fills this
  /// in for rule diagnostics, so rules leave it empty.
  std::string pass;
};

class Rule {
 public:
  virtual ~Rule() = default;
  /// Stable kebab-case id used in diagnostics and allow(...) comments.
  [[nodiscard]] virtual std::string_view id() const = 0;
  /// Emits diagnostics for `file` (suppressions are applied by the engine).
  virtual void check(const SourceFile& file, std::vector<Diagnostic>& out) const = 0;
};

/// The rules pass's rule set, in stable order.
[[nodiscard]] std::vector<std::unique_ptr<Rule>> default_rules();

}  // namespace cdsf::lint
