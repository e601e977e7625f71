// Shared lexical helpers for the lint rules and the project-wide indexer.
//
// Everything here operates on the *scrubbed* view of a SourceFile (comments
// and literal contents blanked, offsets preserved), so callers can match
// code tokens without tripping over prose or string contents, and can still
// read literal bodies from the raw view at the same offsets.
#pragma once

#include <algorithm>
#include <array>
#include <cctype>
#include <cstddef>
#include <string>
#include <string_view>

namespace cdsf::lint {

[[nodiscard]] inline bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

[[nodiscard]] inline std::string normalize_path(std::string_view path) {
  std::string out(path);
  for (char& c : out) {
    if (c == '\\') c = '/';
  }
  return out;
}

/// True when `path` contains `segment` as a whole directory component
/// (`/sim/` infix or `sim/` prefix).
[[nodiscard]] inline bool has_segment(std::string_view path, std::string_view segment) {
  const std::string normalized = normalize_path(path);
  // append() instead of operator+ (GCC 12 -O3 -Wrestrict false positive).
  std::string infix = "/";
  infix.append(segment).append("/");
  if (normalized.find(infix) != std::string::npos) return true;
  std::string prefix(segment);
  prefix.append("/");
  return normalized.rfind(prefix, 0) == 0;
}

[[nodiscard]] inline bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Offset of the next word-bounded occurrence of `word` in `text` at or
/// after `from`; npos when absent.
[[nodiscard]] inline std::size_t find_word(std::string_view text, std::string_view word,
                                           std::size_t from = 0) {
  std::size_t pos = text.find(word, from);
  while (pos != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) return pos;
    pos = text.find(word, pos + 1);
  }
  return std::string_view::npos;
}

[[nodiscard]] inline std::size_t skip_ws(std::string_view text, std::size_t pos) {
  while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos])) != 0) ++pos;
  return pos;
}

/// Last non-whitespace offset strictly before `pos`; npos when none.
[[nodiscard]] inline std::size_t prev_non_ws(std::string_view text, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (std::isspace(static_cast<unsigned char>(text[pos])) == 0) return pos;
  }
  return std::string_view::npos;
}

/// Offset just past the bracket-matched region opened by the bracket at
/// `open` ('(' / '<' / '{'); npos when unbalanced. '<' matching is a
/// heuristic good enough for template argument lists in declarations.
[[nodiscard]] inline std::size_t match_bracket(std::string_view text, std::size_t open) {
  const char open_char = text[open];
  const char close_char = open_char == '(' ? ')' : open_char == '<' ? '>' : '}';
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    const char c = text[i];
    if (c == open_char) {
      ++depth;
    } else if (c == close_char) {
      if (--depth == 0) return i + 1;
    }
  }
  return std::string_view::npos;
}

/// Start offset of the identifier whose last character sits at `end`
/// (inclusive); `end + 1` when the character at `end` is not ident.
[[nodiscard]] inline std::size_t ident_start(std::string_view text, std::size_t end) {
  if (end >= text.size() || !is_ident_char(text[end])) return end + 1;
  std::size_t start = end;
  while (start > 0 && is_ident_char(text[start - 1])) --start;
  return start;
}

/// True when the non-whitespace token just before `pos` is `.` or `->`
/// (i.e. `pos` begins a member access).
[[nodiscard]] inline bool preceded_by_member_access(std::string_view text, std::size_t pos) {
  const std::size_t before = prev_non_ws(text, pos);
  return before != std::string_view::npos &&
         (text[before] == '.' ||
          (text[before] == '>' && before > 0 && text[before - 1] == '-'));
}

/// The single source of truth for what counts as a host-clock read: the
/// chrono clock types plus the POSIX/libc formatting-and-reading calls.
/// Shared by the wall-clock rules (sim/dls/cdsf and svc) and the
/// determinism-taint pass, so the scanners can never drift apart.
inline constexpr std::array<std::string_view, 11> kWallClockTokens = {
    "system_clock", "steady_clock", "high_resolution_clock", "file_clock",
    "utc_clock",    "gettimeofday", "clock_gettime",          "timespec_get",
    "localtime",    "gmtime",       "strftime"};

/// C clock reads that are only violations in call form (`time(...)`), since
/// the bare word also names members and locals.
inline constexpr std::array<std::string_view, 2> kWallClockCCalls = {"time", "clock"};

/// Unseeded C random sources, violations in call form only.
inline constexpr std::array<std::string_view, 4> kRngCallTokens = {"rand", "srand", "rand_r",
                                                                   "drand48"};

/// Raw std engine / entropy-source types; any mention bypasses the seeded
/// SplitMix64 fan-out in util/rng.hpp.
inline constexpr std::array<std::string_view, 9> kRngTypeTokens = {
    "random_device", "mt19937",  "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "ranlux24", "ranlux48", "knuth_b"};

/// True when `name` is a production metric name:
/// ^(sim|cdsf|obs)\.[a-z0-9_.]+$ . Shared by the metric-name rule and the
/// registry cross-validation pass.
[[nodiscard]] inline bool valid_metric_name(std::string_view name) {
  static constexpr std::array<std::string_view, 3> kPrefixes = {"sim.", "cdsf.", "obs."};
  for (const std::string_view prefix : kPrefixes) {
    if (name.size() > prefix.size() && name.compare(0, prefix.size(), prefix) == 0) {
      const std::string_view rest = name.substr(prefix.size());
      return std::all_of(rest.begin(), rest.end(), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' || c == '.';
      });
    }
  }
  return false;
}

/// True when `pos` in scrubbed `text` is a C-call-form hit for `token`:
/// followed by '(', not a member call (`obj.time(...)`), and not a
/// declaration (`long time() const`) unless introduced by a statement
/// keyword (`return time(0)`).
[[nodiscard]] inline bool is_c_call_form(std::string_view text, std::string_view token,
                                         std::size_t pos) {
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

}  // namespace cdsf::lint
