// determinism-taint pass: host-clock / raw-RNG reads, direct and
// transitive over the indexed call graph.
//
// One whole-file scan of the clock/RNG tokens (the token lists live in
// taint.cpp, the one scanner in the tree) feeds two kinds of finding:
//
//   - direct reads, under their own ids and anywhere in a file (inside a
//     function body or not): `rng-source` in every file but util/rng.hpp,
//     `wall-clock` in the deterministic subsystems sim/, dls/, cdsf/ and
//     svc/;
//   - laundered reads, under the pass id: a helper in util/ (or anywhere
//     outside the deterministic tree) that reads the host clock and is then
//     called from a deterministic subsystem. Functions whose body holds an
//     unwaived hit are the seeds; taint flows callee→caller over the
//     name-resolved call graph, and a diagnostic is emitted at the
//     definition of every non-seed function in a deterministic subsystem
//     that can reach a seed, with the full call chain in the message.
//
// Trusted files never seed and are never flagged by a chain: util/rng.hpp
// (the seeded RNG fan-out), all of obs/ (timestamps are observability
// metadata, excluded from byte-compare scopes), and files that
// file-wide-allow wall-clock, rng-source or the pass. The list does not
// apply to direct findings, which each id's own allow(...) waives. Call
// resolution is conservative: same-file definitions win, src/ callers only
// bind to src/ definitions, and an ambiguous name (multiple unrelated
// definitions) resolves to nothing rather than guessing.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/index.hpp"
#include "lint/rules.hpp"

namespace cdsf::lint {

/// Pass id used in chain diagnostics and allow(...) suppressions.
inline constexpr const char* kTaintPass = "determinism-taint";
/// Ids of the pass's direct findings.
inline constexpr const char* kRngSourceId = "rng-source";
inline constexpr const char* kWallClockId = "wall-clock";

struct TaintResult {
  std::vector<Diagnostic> diagnostics;  ///< Direct and chain findings.
  std::size_t seeds = 0;    ///< Functions directly touching clock/RNG.
  std::size_t tainted = 0;  ///< Functions reachable from a seed (any file).
};

[[nodiscard]] TaintResult check_determinism_taint(const ProjectIndex& index);

}  // namespace cdsf::lint
