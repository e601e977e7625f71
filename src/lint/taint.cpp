#include "lint/taint.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/text.hpp"

namespace cdsf::lint {

namespace {

/// The single source of truth for what counts as a host-clock read: the
/// chrono clock types plus the POSIX/libc formatting-and-reading calls.
constexpr std::array<std::string_view, 11> kWallClockTokens = {
    "system_clock", "steady_clock", "high_resolution_clock", "file_clock",
    "utc_clock",    "gettimeofday", "clock_gettime",          "timespec_get",
    "localtime",    "gmtime",       "strftime"};

/// C clock reads that are only violations in call form (`time(...)`), since
/// the bare word also names members and locals.
constexpr std::array<std::string_view, 2> kWallClockCCalls = {"time", "clock"};

/// Unseeded C random sources, violations in call form only.
constexpr std::array<std::string_view, 4> kRngCallTokens = {"rand", "srand", "rand_r",
                                                            "drand48"};

/// Raw std engine / entropy-source types; any mention bypasses the seeded
/// SplitMix64 fan-out in util/rng.hpp.
constexpr std::array<std::string_view, 9> kRngTypeTokens = {
    "random_device", "mt19937",  "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "ranlux24", "ranlux48", "knuth_b"};

/// True when `pos` in scrubbed `text` is a C-call-form hit for `token`:
/// followed by '(', not a member call (`obj.time(...)`), and not a
/// declaration (`long time() const`) unless introduced by a statement
/// keyword (`return time(0)`).
bool is_c_call_form(std::string_view text, std::string_view token, std::size_t pos) {
  const std::size_t after = skip_ws(text, pos + token.size());
  if (after >= text.size() || text[after] != '(') return false;
  if (preceded_by_member_access(text, pos)) return false;
  const std::size_t before = prev_non_ws(text, pos);
  if (before == std::string_view::npos) return true;
  if (is_ident_char(text[before])) {
    const std::size_t start = ident_start(text, before);
    const std::string_view prev_token = text.substr(start, before + 1 - start);
    static constexpr std::array<std::string_view, 5> kCallKeywords = {
        "return", "co_return", "co_yield", "throw", "case"};
    for (const std::string_view keyword : kCallKeywords) {
      if (prev_token == keyword) return true;
    }
    return false;
  }
  return true;
}

/// One clock or raw-RNG token in a file's scrubbed view.
struct TokenHit {
  std::size_t pos = 0;
  std::size_t line = 0;
  std::string_view token;
  bool rng = false;   ///< An rng-source token; otherwise a wall-clock one.
  bool call = false;  ///< A C call (`rand()`, `time()`), not a type name.
};

/// Every clock/RNG token of `file` in offset order: the one scan that feeds
/// both the direct findings and the seeds.
std::vector<TokenHit> scan_tokens(const SourceFile& file) {
  const std::string_view text = file.scrubbed();
  std::vector<TokenHit> hits;
  const auto scan = [&](const auto& tokens, bool rng, bool call) {
    for (const std::string_view token : tokens) {
      for (std::size_t pos = find_word(text, token); pos != std::string_view::npos;
           pos = find_word(text, token, pos + 1)) {
        if (call && !is_c_call_form(text, token, pos)) continue;
        hits.push_back({pos, file.line_of(pos), token, rng, call});
      }
    }
  };
  scan(kWallClockTokens, false, false);
  scan(kWallClockCCalls, false, true);
  scan(kRngCallTokens, true, true);
  scan(kRngTypeTokens, true, false);
  std::sort(hits.begin(), hits.end(),
            [](const TokenHit& a, const TokenHit& b) { return a.pos < b.pos; });
  return hits;
}

/// True when `path` lies in a subsystem whose behaviour must be time- and
/// entropy-independent: wall-clock's scope, and where chains are flagged.
bool in_deterministic_path(std::string_view path) {
  return has_segment(path, "sim") || has_segment(path, "dls") || has_segment(path, "cdsf") ||
         has_segment(path, "svc");
}

/// The direct finding for `hit` in `file`, unless the hit is outside its
/// id's scope: rng-source covers every file but util/rng.hpp, wall-clock
/// the deterministic subsystems.
void direct_finding(const SourceFile& file, const TokenHit& hit, std::vector<Diagnostic>& out) {
  const std::string token(hit.token);
  if (hit.rng) {
    if (ends_with(normalize_path(file.path()), "util/rng.hpp")) return;
    out.push_back({file.path(), hit.line, kRngSourceId,
                   hit.call ? token + "() is unseeded; draw from util::RngStream (util/rng.hpp) "
                                      "instead"
                            : "std::" + token +
                                  " bypasses the seed fan-out; use util::RngStream / "
                                  "util::SeedSequence (util/rng.hpp)",
                   false, kTaintPass});
  } else if (in_deterministic_path(file.path())) {
    out.push_back({file.path(), hit.line, kWallClockId,
                   token + (hit.call ? "()" : "") +
                       " reads the host clock; deterministic paths must derive time from the "
                       "simulation clock or an explicit parameter",
                   false, kTaintPass});
  }
}

/// Ids whose file-wide allowance also exempts a file from seeding or being
/// flagged by the chains (the allowance already documents why the file may
/// touch the clock / RNG).
bool file_wide_exempt(const SourceFile& file) {
  for (const Suppression& s : file.suppressions()) {
    if (!s.file_wide) continue;
    if (s.rule == kWallClockId || s.rule == kRngSourceId || s.rule == kTaintPass) return true;
  }
  return false;
}

bool trusted_file(const SourceFile& file) {
  const std::string path = normalize_path(file.path());
  if (ends_with(path, "util/rng.hpp")) return true;
  if (has_segment(path, "obs")) return true;
  return file_wide_exempt(file);
}

/// Ids whose line-level suppression silences a seed at that line.
bool seed_suppressed(const SourceFile& file, std::size_t line) {
  return file.suppressed(kWallClockId, line) || file.suppressed(kRngSourceId, line) ||
         file.suppressed(kTaintPass, line);
}

bool in_src(std::string_view path) { return has_segment(path, "src"); }

}  // namespace

TaintResult check_determinism_taint(const ProjectIndex& index) {
  TaintResult result;
  const std::size_t function_count = index.functions.size();

  // 1. One token scan per file: every hit is a direct finding within its
  //    id's scope, wherever it sits; the trusted-file list does not apply.
  std::vector<std::vector<TokenHit>> hits(index.files.size());
  for (std::size_t file = 0; file < index.files.size(); ++file) {
    hits[file] = scan_tokens(*index.files[file]);
    for (const TokenHit& hit : hits[file]) {
      direct_finding(*index.files[file], hit, result.diagnostics);
    }
  }

  // 2. Seeds: functions whose own body touches the clock / raw RNG, each
  //    named by its earliest hit not waived at that line.
  std::vector<const TokenHit*> seed_hit(function_count, nullptr);
  for (std::size_t fi = 0; fi < function_count; ++fi) {
    const FunctionDef& def = index.functions[fi];
    const SourceFile& file = *index.files[def.file];
    if (trusted_file(file)) continue;
    const std::vector<TokenHit>& file_hits = hits[def.file];
    auto it = std::lower_bound(
        file_hits.begin(), file_hits.end(), def.body_begin,
        [](const TokenHit& hit, std::size_t pos) { return hit.pos < pos; });
    for (; it != file_hits.end() && it->pos < def.body_end; ++it) {
      if (seed_suppressed(file, it->line)) continue;
      seed_hit[fi] = &*it;
      ++result.seeds;
      break;
    }
  }

  // 3. Reverse call edges (callee → callers) with conservative resolution.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> callers(
      function_count);  // callee → (caller, call line)
  for (const CallRef& call : index.calls) {
    const auto it = index.functions_by_name.find(call.name);
    if (it == index.functions_by_name.end()) continue;
    const std::size_t caller_file = index.functions[call.caller].file;
    const std::string& caller_path = index.files[caller_file]->path();

    // Same-file definitions win outright.
    std::vector<std::size_t> candidates;
    for (const std::size_t fi : it->second) {
      if (index.functions[fi].file == caller_file) candidates.push_back(fi);
    }
    if (candidates.empty()) {
      // Library callers must not bind to harness helpers with the same
      // name; a caller under src/ only resolves into src/.
      const bool caller_in_src = in_src(caller_path);
      for (const std::size_t fi : it->second) {
        if (caller_in_src && !in_src(index.files[index.functions[fi].file]->path())) continue;
        candidates.push_back(fi);
      }
      // Cross-file resolution demands a unique definition; an ambiguous
      // name (overloads / unrelated same-named helpers) binds to nothing.
      if (candidates.size() != 1) continue;
    }
    for (const std::size_t callee : candidates) {
      if (callee == call.caller) continue;
      callers[callee].emplace_back(call.caller, call.line);
    }
  }

  // 4. BFS from the seeds along reverse edges, recording the discovery
  //    parent so each flagged function carries a concrete call chain.
  std::vector<std::size_t> parent(function_count, ProjectIndex::npos);
  std::vector<bool> tainted(function_count, false);
  std::deque<std::size_t> queue;
  // Deterministic frontier order: seeds by (path, line).
  std::vector<std::size_t> seeds;
  for (std::size_t fi = 0; fi < function_count; ++fi) {
    if (seed_hit[fi] != nullptr) seeds.push_back(fi);
  }
  std::sort(seeds.begin(), seeds.end(), [&](std::size_t a, std::size_t b) {
    const FunctionDef& fa = index.functions[a];
    const FunctionDef& fb = index.functions[b];
    const std::string& pa = index.files[fa.file]->path();
    const std::string& pb = index.files[fb.file]->path();
    if (pa != pb) return pa < pb;
    return fa.line < fb.line;
  });
  for (const std::size_t fi : seeds) {
    tainted[fi] = true;
    queue.push_back(fi);
  }
  while (!queue.empty()) {
    const std::size_t callee = queue.front();
    queue.pop_front();
    // Trusted callers absorb taint rather than propagate it: randomness
    // wrapped by util/rng.hpp is the sanctioned path.
    for (const auto& [caller, line] : callers[callee]) {
      if (tainted[caller]) continue;
      if (trusted_file(*index.files[index.functions[caller].file])) continue;
      tainted[caller] = true;
      parent[caller] = callee;
      queue.push_back(caller);
    }
  }
  for (std::size_t fi = 0; fi < function_count; ++fi) {
    if (tainted[fi]) ++result.tainted;
  }

  // 5. Flag indirectly tainted functions in the deterministic subsystems.
  //    Direct seeds there are step 1's findings already; a chain names what
  //    file-local matching cannot see.
  for (std::size_t fi = 0; fi < function_count; ++fi) {
    if (!tainted[fi] || seed_hit[fi] != nullptr) continue;
    const FunctionDef& def = index.functions[fi];
    const SourceFile& file = *index.files[def.file];
    if (!in_deterministic_path(file.path())) continue;
    if (trusted_file(file)) continue;
    // Reconstruct the chain down to the seed.
    std::string chain = def.display;
    std::size_t cursor = fi;
    std::size_t seed_fn = fi;
    while (parent[cursor] != ProjectIndex::npos) {
      cursor = parent[cursor];
      chain += " -> " + index.functions[cursor].display;
      seed_fn = cursor;
    }
    const FunctionDef& seed_def = index.functions[seed_fn];
    const TokenHit& seed = *seed_hit[seed_fn];
    result.diagnostics.push_back(
        {file.path(), def.line, kTaintPass,
         "'" + def.display + "' transitively reaches a host clock/RNG source: " + chain +
             " (" + index.files[seed_def.file]->path() + ":" + std::to_string(seed.line) +
             " uses " + std::string(seed.token) +
             "); route time/randomness through the simulation clock or util::RngStream",
         false, kTaintPass});
  }

  std::sort(result.diagnostics.begin(), result.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.message < b.message;
            });
  return result;
}

}  // namespace cdsf::lint
