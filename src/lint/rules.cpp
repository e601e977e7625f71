#include "lint/rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>

#include "lint/index.hpp"
#include "lint/text.hpp"

namespace cdsf::lint {

namespace {

// ---------------------------------------------------------------------------
// rng-source

class RngSourceRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "rng-source"; }
  [[nodiscard]] std::string_view summary() const override {
    return "raw C/std random sources outside util/rng.hpp break single-seed reproducibility";
  }
  void check(const SourceFile& file, std::vector<Diagnostic>& out) const override {
    if (ends_with(normalize_path(file.path()), "util/rng.hpp")) return;
    const std::string_view text = file.scrubbed();
    // Call-form tokens: flag only C calls, so a member call (`gen.rand()`),
    // a declaration (`int rand() const;`) or a local named e.g. `rand_limit`
    // never matches. Token lists and is_c_call_form live in lint/text.hpp,
    // shared with the wall-clock rules and the determinism-taint pass.
    for (const std::string_view token : kRngCallTokens) {
      for (std::size_t pos = find_word(text, token); pos != std::string_view::npos;
           pos = find_word(text, token, pos + 1)) {
        if (!is_c_call_form(text, token, pos)) continue;
        out.push_back({file.path(), file.line_of(pos), std::string(id()),
                       std::string(token) +
                           "() is unseeded; draw from util::RngStream (util/rng.hpp) instead",
                       false, {}});
      }
    }
    // Type tokens: any mention is a violation — constructing a raw engine
    // or an entropy source bypasses the SplitMix64 seed fan-out.
    for (const std::string_view token : kRngTypeTokens) {
      for (std::size_t pos = find_word(text, token); pos != std::string_view::npos;
           pos = find_word(text, token, pos + 1)) {
        out.push_back({file.path(), file.line_of(pos), std::string(id()),
                       "std::" + std::string(token) +
                           " bypasses the seed fan-out; use util::RngStream / "
                           "util::SeedSequence (util/rng.hpp)",
                       false, {}});
      }
    }
  }
};

// ---------------------------------------------------------------------------
// wall-clock

/// The wall-clock token scan shared by WallClockRule (sim/dls/cdsf) and
/// SvcWallClockRule (svc/): one token list, one C-call heuristic, so the
/// two rules cannot drift apart on what counts as a host-clock read.
/// `remedy` names where time must come from instead.
void scan_wall_clock_tokens(const SourceFile& file, std::string_view rule_id,
                            std::string_view remedy, std::vector<Diagnostic>& out) {
  const std::string_view text = file.scrubbed();
  for (const std::string_view token : kWallClockTokens) {
    for (std::size_t pos = find_word(text, token); pos != std::string_view::npos;
         pos = find_word(text, token, pos + 1)) {
      out.push_back({file.path(), file.line_of(pos), std::string(rule_id),
                     std::string(token) + " reads the host clock; " + std::string(remedy),
                     false, {}});
    }
  }
  // C `time(...)` / `clock(...)` calls: member calls (obj.time(...),
  // obj->clock(...)) are someone's API, not the libc clock, and a preceding
  // identifier means a declaration — is_c_call_form (lint/text.hpp) owns
  // the heuristic, shared with the determinism-taint pass.
  for (const std::string_view token : kWallClockCCalls) {
    for (std::size_t pos = find_word(text, token); pos != std::string_view::npos;
         pos = find_word(text, token, pos + 1)) {
      if (!is_c_call_form(text, token, pos)) continue;
      out.push_back({file.path(), file.line_of(pos), std::string(rule_id),
                     std::string(token) + "() reads the host clock; " + std::string(remedy),
                     false, {}});
    }
  }
}

class WallClockRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "wall-clock"; }
  [[nodiscard]] std::string_view summary() const override {
    return "wall/monotonic clock reads in sim/, dls/, cdsf/ make deterministic paths time-dependent";
  }
  void check(const SourceFile& file, std::vector<Diagnostic>& out) const override {
    if (!in_deterministic_path(file.path())) return;
    scan_wall_clock_tokens(file, id(),
                           "deterministic paths must derive time from "
                           "the simulation clock or an explicit parameter",
                           out);
  }
};

// ---------------------------------------------------------------------------
// svc-wall-clock

class SvcWallClockRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "svc-wall-clock"; }
  [[nodiscard]] std::string_view summary() const override {
    return "the scheduling service (svc/) is virtual-time only; host-clock reads belong "
           "nowhere but svc/virtual_time.hpp";
  }
  void check(const SourceFile& file, std::vector<Diagnostic>& out) const override {
    if (!has_segment(file.path(), "svc")) return;
    // The single sanctioned time source: everything else in svc/ must take
    // time from the VirtualClock it defines.
    if (ends_with(normalize_path(file.path()), "svc/virtual_time.hpp")) return;
    scan_wall_clock_tokens(file, id(),
                           "the service replays byte-identically from a journal, so time "
                           "must come from svc/virtual_time.hpp (VirtualClock)",
                           out);
  }
};

// ---------------------------------------------------------------------------
// unordered-iteration

class UnorderedIterationRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "unordered-iteration"; }
  [[nodiscard]] std::string_view summary() const override {
    return "iterating an unordered container yields nondeterministic order in reports/traces/reductions";
  }
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
  [[nodiscard]] std::string_view summary() const override {
    return "bare lock()/unlock() calls leak on exceptions; use std::scoped_lock / lock_guard";
  }
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
  [[nodiscard]] std::string_view summary() const override {
    return "every Json make_*report() in src/obs/ must stamp a \"schema\" key on its document";
  }
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

// ---------------------------------------------------------------------------
// metric-name

class MetricNameRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "metric-name"; }
  [[nodiscard]] std::string_view summary() const override {
    return "registry metric name literals must match ^(sim|cdsf|obs)\\.[a-z0-9_.]+$ so "
           "exported series group by subsystem";
  }
  void check(const SourceFile& file, std::vector<Diagnostic>& out) const override {
    // Unit tests build throwaway local registries with deliberately tiny
    // names ("c", "h"); the convention governs production series only.
    if (has_segment(file.path(), "tests")) return;
    // The registry cross-validation pass reads the same literals.
    for (const MetricLiteral& metric : extract_metric_literals(file, 0)) {
      if (valid_metric_name(metric.name)) continue;
      out.push_back({file.path(), metric.line, std::string(id()),
                     "metric name \"" + metric.name +
                         "\" must match ^(sim|cdsf|obs)\\.[a-z0-9_.]+$ (subsystem prefix, "
                         "lowercase dotted path)",
                     false, {}});
    }
  }
};

}  // namespace

bool in_deterministic_path(std::string_view path) {
  return has_segment(path, "sim") || has_segment(path, "dls") || has_segment(path, "cdsf");
}

std::vector<std::unique_ptr<Rule>> default_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<RngSourceRule>());
  rules.push_back(std::make_unique<WallClockRule>());
  rules.push_back(std::make_unique<SvcWallClockRule>());
  rules.push_back(std::make_unique<UnorderedIterationRule>());
  rules.push_back(std::make_unique<BareMutexLockRule>());
  rules.push_back(std::make_unique<ReportSchemaTagRule>());
  rules.push_back(std::make_unique<MetricNameRule>());
  return rules;
}

}  // namespace cdsf::lint
