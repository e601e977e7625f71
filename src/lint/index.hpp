// Project-wide semantic index for cdsf_lint's multi-pass analyses.
//
// One pass over the scrubbed sources builds every cross-file fact the
// project passes need, so each pass is a pure graph/set computation:
//
//   - include edges   (#include "..." resolved against the scanned set)
//   - function definitions with body spans, and the call sites inside them
//     (a lexical, name-based approximation of the call graph)
//   - mutex member/local declarations and RAII lock-acquisition sites
//   - full-literal report schema tags ("cdsf.<name>/<version>")
//   - metric name literals passed to the MetricsRegistry mutators
//
// The index is deliberately lexical (no preprocessor, no overload
// resolution): deterministic, dependency-free, and fast enough to run on
// every test invocation. Each pass documents how it compensates for the
// approximation (docs/static_analysis.md).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lint/source.hpp"

namespace cdsf::lint {

/// One `#include "..."` directive. `to_file` is npos when the target is
/// not among the scanned files (system or external header).
struct IncludeRef {
  std::size_t from_file = 0;
  std::string target;        ///< Path as written between the quotes.
  std::size_t to_file = 0;   ///< Scanned-file id, or npos.
  std::size_t line = 0;
};

/// One function (or member function / constructor) definition.
struct FunctionDef {
  std::string name;       ///< Unqualified name used for call matching.
  std::string display;    ///< Qualified spelling when written qualified.
  std::size_t file = 0;
  std::size_t line = 0;
  std::size_t body_begin = 0;  ///< Offset just inside the opening brace.
  std::size_t body_end = 0;    ///< Offset of the closing brace.
};

/// One call site `name(...)` inside a function body (first occurrence of
/// each callee name per function).
struct CallRef {
  std::size_t caller = 0;  ///< Index into ProjectIndex::functions.
  std::string name;
  std::size_t line = 0;
};

/// One mutex declaration (member, local, or parameter).
struct MutexDecl {
  std::string name;
  std::size_t file = 0;
  std::size_t line = 0;
  bool recursive = false;
};

/// One RAII guard acquisition (`std::scoped_lock lock(a, b);` etc.).
/// `mutexes` holds the declared mutex names found among the arguments;
/// deferred acquisitions (`std::defer_lock`) are not recorded.
struct LockSite {
  std::size_t function = 0;  ///< Index into ProjectIndex::functions.
  std::size_t file = 0;
  std::size_t offset = 0;    ///< Offset of the guard token.
  std::size_t line = 0;
  std::string guard;         ///< scoped_lock / lock_guard / unique_lock / shared_lock.
  std::vector<std::string> mutexes;
};

/// One full-literal schema tag, e.g. "cdsf.run_report/1".
struct SchemaLiteral {
  std::string tag;
  std::string base;     ///< "cdsf.run_report"
  int version = 0;      ///< 1
  std::size_t file = 0;
  std::size_t line = 0;
};

/// One string-literal metric name passed to a registry mutator
/// (`.add(...)`, `.observe(...)`, `.set_gauge(...)`,
/// `.set_histogram_bounds(...)`) or a ScopedTimer constructor.
struct MetricLiteral {
  std::string name;
  std::size_t file = 0;
  std::size_t line = 0;
};

struct ProjectIndex {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::vector<const SourceFile*> files;
  std::vector<IncludeRef> includes;
  std::vector<FunctionDef> functions;
  std::vector<CallRef> calls;
  std::vector<MutexDecl> mutexes;
  std::vector<LockSite> locks;
  std::vector<SchemaLiteral> schemas;
  std::vector<MetricLiteral> metrics;

  /// Function indexes grouped by unqualified name.
  std::map<std::string, std::vector<std::size_t>, std::less<>> functions_by_name;

  /// Scanned-file id of `path` (exact match on the path as given), or npos.
  [[nodiscard]] std::size_t file_id(std::string_view path) const;
};

/// Builds the full index. The SourceFile vector must outlive the index
/// (it keeps pointers, not copies).
[[nodiscard]] ProjectIndex build_index(const std::vector<SourceFile>& files);

}  // namespace cdsf::lint
