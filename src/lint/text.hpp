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
/// (`/sim/` infix or `sim/` prefix) of the tree. The path is read from its
/// last `src/`, `tests/`, `bench/` or `examples/` component (the whole path
/// when it has none), so the directories a checkout lives under
/// (`/home/u/cdsf/src/...`) never gate a file as one of the subsystems.
[[nodiscard]] inline bool has_segment(std::string_view path, std::string_view segment) {
  static constexpr std::array<std::string_view, 4> kTreeRoots = {"src", "tests", "bench",
                                                                 "examples"};
  std::string normalized = normalize_path(path);
  std::size_t root = 0;
  for (const std::string_view tree_root : kTreeRoots) {
    // append() instead of operator+ (GCC 12 -O3 -Wrestrict false positive).
    std::string infix = "/";
    infix.append(tree_root).append("/");
    const std::size_t pos = normalized.rfind(infix);
    if (pos != std::string::npos) root = std::max(root, pos + 1);
  }
  normalized.erase(0, root);
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

}  // namespace cdsf::lint
