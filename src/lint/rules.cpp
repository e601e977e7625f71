#include "lint/rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>

#include "lint/text.hpp"

namespace cdsf::lint {

namespace {

// ---------------------------------------------------------------------------
// unordered-iteration

class UnorderedIterationRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "unordered-iteration"; }
  void check(const SourceFile& file, std::vector<Diagnostic>& out) const override {
    const std::string_view text = file.scrubbed();
    // Pass 1: names declared in this file with an unordered container type.
    static constexpr std::array<std::string_view, 4> kContainers = {
        "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
    std::vector<std::string> names;
    for (const std::string_view container : kContainers) {
      for (std::size_t pos = find_word(text, container); pos != std::string_view::npos;
           pos = find_word(text, container, pos + 1)) {
        std::size_t cursor = skip_ws(text, pos + container.size());
        if (cursor >= text.size() || text[cursor] != '<') continue;
        cursor = match_bracket(text, cursor);
        if (cursor == std::string_view::npos) continue;
        cursor = skip_ws(text, cursor);
        while (cursor < text.size() && (text[cursor] == '*' || text[cursor] == '&')) {
          cursor = skip_ws(text, cursor + 1);
        }
        std::size_t name_end = cursor;
        while (name_end < text.size() && is_ident_char(text[name_end])) ++name_end;
        if (name_end > cursor) names.emplace_back(text.substr(cursor, name_end - cursor));
      }
    }
    if (names.empty()) return;
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());

    auto flag = [&](std::size_t pos, const std::string& name) {
      out.push_back({file.path(), file.line_of(pos), std::string(id()),
                     "iteration over unordered container '" + name +
                         "' is nondeterministic; use std::map/std::set or copy + sort "
                         "before iterating",
                     false, {}});
    };
    // Pass 2a: range-for whose range expression mentions a tracked name.
    for (std::size_t pos = find_word(text, "for"); pos != std::string_view::npos;
         pos = find_word(text, "for", pos + 1)) {
      const std::size_t open = skip_ws(text, pos + 3);
      if (open >= text.size() || text[open] != '(') continue;
      const std::size_t close = match_bracket(text, open);
      if (close == std::string_view::npos) continue;
      const std::string_view header = text.substr(open, close - open);
      std::size_t colon = std::string_view::npos;
      for (std::size_t i = 1; i + 1 < header.size(); ++i) {
        if (header[i] == ':' && header[i - 1] != ':' && header[i + 1] != ':') {
          colon = i;
          break;
        }
      }
      if (colon == std::string_view::npos) continue;
      const std::string_view range = header.substr(colon + 1);
      for (const std::string& name : names) {
        if (find_word(range, name) != std::string_view::npos) {
          flag(pos, name);
          break;
        }
      }
    }
    // Pass 2b: explicit iterator walks. `.begin()` is the iteration signal;
    // `.end()` alone is the `find() != end()` lookup idiom and stays legal.
    static constexpr std::array<std::string_view, 4> kIterFns = {"begin", "cbegin", "rbegin",
                                                                 "crbegin"};
    for (const std::string& name : names) {
      for (std::size_t pos = find_word(text, name); pos != std::string_view::npos;
           pos = find_word(text, name, pos + 1)) {
        std::size_t cursor = skip_ws(text, pos + name.size());
        if (cursor >= text.size() || text[cursor] != '.') continue;
        cursor = skip_ws(text, cursor + 1);
        for (const std::string_view fn : kIterFns) {
          if (text.compare(cursor, fn.size(), fn) == 0) {
            const std::size_t after = skip_ws(text, cursor + fn.size());
            if (after < text.size() && text[after] == '(' &&
                !is_ident_char(text[cursor + fn.size()])) {
              flag(pos, name);
            }
            break;
          }
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// bare-mutex-lock

class BareMutexLockRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "bare-mutex-lock"; }
  void check(const SourceFile& file, std::vector<Diagnostic>& out) const override {
    const std::string_view text = file.scrubbed();
    static constexpr std::array<std::string_view, 3> kMembers = {"lock", "unlock", "try_lock"};
    for (const std::string_view member : kMembers) {
      for (std::size_t pos = find_word(text, member); pos != std::string_view::npos;
           pos = find_word(text, member, pos + 1)) {
        const std::size_t after = skip_ws(text, pos + member.size());
        if (after >= text.size() || text[after] != '(') continue;
        const std::size_t before = prev_non_ws(text, pos);
        const bool member_call =
            before != std::string_view::npos &&
            (text[before] == '.' ||
             (text[before] == '>' && before > 0 && text[before - 1] == '-'));
        if (!member_call) continue;
        // weak_ptr::lock() is the idiomatic promotion, not a mutex grab:
        // exempt receivers whose name mentions ptr/weak.
        const std::size_t recv_start = before > 0 && text[before] == '>' ? before - 1 : before;
        std::size_t recv = recv_start;
        while (recv > 0 && is_ident_char(text[recv - 1])) --recv;
        const std::string_view receiver = text.substr(recv, recv_start - recv);
        if (receiver.find("ptr") != std::string_view::npos ||
            receiver.find("weak") != std::string_view::npos) {
          continue;
        }
        out.push_back({file.path(), file.line_of(pos), std::string(id()),
                       "bare ." + std::string(member) +
                           "() is not exception-safe; hold mutexes through std::scoped_lock, "
                           "std::lock_guard, or std::unique_lock",
                       false, {}});
      }
    }
    for (const std::string_view fn : {std::string_view("pthread_mutex_lock"),
                                      std::string_view("pthread_mutex_unlock")}) {
      for (std::size_t pos = find_word(text, fn); pos != std::string_view::npos;
           pos = find_word(text, fn, pos + 1)) {
        out.push_back({file.path(), file.line_of(pos), std::string(id()),
                       std::string(fn) + " bypasses RAII; use std::mutex with std::scoped_lock",
                       false, {}});
      }
    }
  }
};

// ---------------------------------------------------------------------------
// report-schema-tag

class ReportSchemaTagRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "report-schema-tag"; }
  void check(const SourceFile& file, std::vector<Diagnostic>& out) const override {
    if (!has_segment(file.path(), "obs")) return;
    const std::string_view text = file.scrubbed();
    for (std::size_t pos = text.find("make_"); pos != std::string::npos;
         pos = text.find("make_", pos + 1)) {
      if (pos > 0 && is_ident_char(text[pos - 1])) continue;
      std::size_t name_end = pos;
      while (name_end < text.size() && is_ident_char(text[name_end])) ++name_end;
      const std::string_view name = text.substr(pos, name_end - pos);
      if (name.find("report") == std::string_view::npos) continue;
      // Require a Json return type right before the name (obs::Json included,
      // as `Json` is then the preceding identifier token as well).
      const std::size_t before = prev_non_ws(text, pos);
      if (before == std::string_view::npos || before < 3 ||
          text.compare(before - 3, 4, "Json") != 0 ||
          (before >= 4 && is_ident_char(text[before - 4]))) {
        continue;
      }
      std::size_t cursor = skip_ws(text, name_end);
      if (cursor >= text.size() || text[cursor] != '(') continue;
      cursor = match_bracket(text, cursor);
      if (cursor == std::string_view::npos) continue;
      cursor = skip_ws(text, cursor);
      if (cursor >= text.size() || text[cursor] != '{') continue;  // declaration only
      const std::size_t body_end = match_bracket(text, cursor);
      if (body_end == std::string_view::npos) continue;
      // Literal contents are blanked in the scrubbed view; the raw view is
      // offset-aligned, so read the body there to find set("schema").
      const std::string_view body =
          std::string_view(file.raw()).substr(cursor, body_end - cursor);
      if (body.find("set(\"schema\"") == std::string_view::npos) {
        out.push_back({file.path(), file.line_of(pos), std::string(id()),
                       std::string(name) +
                           " builds a report document without set(\"schema\", ...); consumers "
                           "cannot version-gate it",
                       false, {}});
      }
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> default_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<UnorderedIterationRule>());
  rules.push_back(std::make_unique<BareMutexLockRule>());
  rules.push_back(std::make_unique<ReportSchemaTagRule>());
  return rules;
}

}  // namespace cdsf::lint
