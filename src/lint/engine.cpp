#include "lint/engine.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "lint/index.hpp"
#include "lint/layering.hpp"
#include "lint/lockorder.hpp"
#include "lint/registry_check.hpp"
#include "lint/taint.hpp"

namespace cdsf::lint {

namespace {

bool diagnostic_order(const Diagnostic& a, const Diagnostic& b) {
  if (a.file != b.file) return a.file < b.file;
  if (a.line != b.line) return a.line < b.line;
  if (a.rule != b.rule) return a.rule < b.rule;
  return a.message < b.message;
}

using IdSet = std::set<std::string, std::less<>>;

/// Suppression ids the engine accepts: every finding id plus every pass id.
/// Ids are always "known", even when the pass emitting them is not selected
/// for this run — an allow(include-layering) must not trip
/// unknown-suppression just because a per-file invocation skipped the
/// project passes.
IdSet known_suppression_ids() {
  IdSet known;
  for (const FindingId& finding : finding_ids()) known.emplace(finding.id);
  for (const std::string& pass : all_pass_ids()) known.insert(pass);
  return known;
}

/// Routes the `found` diagnostics whose id `keep` names (all when it is
/// empty) into violations/suppressed using the suppression tables of the
/// scanned files. Diagnostics anchored at files outside the scan set
/// (registry/doc files) cannot be suppressed.
void route_diagnostics(std::vector<Diagnostic> found,
                       const std::map<std::string, const SourceFile*, std::less<>>& by_path,
                       const IdSet& keep, LintResult& result, PassSummary& summary) {
  for (Diagnostic& diagnostic : found) {
    if (!keep.empty() && keep.count(diagnostic.rule) == 0) continue;
    const auto it = by_path.find(diagnostic.file);
    if (it != by_path.end() && it->second->suppressed(diagnostic.rule, diagnostic.line)) {
      diagnostic.suppressed = true;
      ++summary.suppressed_count;
      result.suppressed.push_back(std::move(diagnostic));
    } else {
      ++summary.violation_count;
      result.violations.push_back(std::move(diagnostic));
    }
  }
}

void check_unknown_suppressions(const std::vector<SourceFile>& files, LintResult& result,
                                PassSummary& rules_summary) {
  const IdSet known = known_suppression_ids();
  for (const SourceFile& file : files) {
    // A marker naming a rule nobody registered is a typo that would
    // otherwise rot silently once the rule it meant is renamed.
    for (const Suppression& suppression : file.suppressions()) {
      if (known.count(suppression.rule) == 0) {
        ++rules_summary.violation_count;
        result.violations.push_back(
            {file.path(), suppression.line, "unknown-suppression",
             "suppression names unknown rule '" + suppression.rule + "'", false, kRulesPass});
      }
    }
  }
}

void run_rules_pass(const std::vector<SourceFile>& files,
                    const std::map<std::string, const SourceFile*, std::less<>>& by_path,
                    const IdSet& keep, LintResult& result, PassSummary& summary) {
  summary.ran = true;
  const std::vector<std::unique_ptr<Rule>> rules = default_rules();
  for (const SourceFile& file : files) {
    std::vector<Diagnostic> found;
    for (const auto& rule : rules) rule->check(file, found);
    for (Diagnostic& diagnostic : found) diagnostic.pass = kRulesPass;
    std::sort(found.begin(), found.end(), diagnostic_order);
    route_diagnostics(std::move(found), by_path, keep, result, summary);
  }
}

}  // namespace

const std::vector<std::string>& all_pass_ids() {
  static const std::vector<std::string> kPasses = {kRulesPass, kLayeringPass, kLockOrderPass,
                                                   kTaintPass, kRegistryPass};
  return kPasses;
}

const std::vector<FindingId>& finding_ids() {
  static const std::vector<FindingId> kIds = {
      {kRngSourceId, kTaintPass,
       "raw C/std random sources outside util/rng.hpp break single-seed reproducibility"},
      {kWallClockId, kTaintPass,
       "wall/monotonic clock reads in sim/, dls/, cdsf/, svc/ make deterministic paths "
       "time-dependent"},
      {"unordered-iteration", kRulesPass,
       "iterating an unordered container yields nondeterministic order in "
       "reports/traces/reductions"},
      {"bare-mutex-lock", kRulesPass,
       "bare lock()/unlock() calls leak on exceptions; use std::scoped_lock / lock_guard"},
      {"report-schema-tag", kRulesPass,
       "every Json make_*report() in src/obs/ must stamp a \"schema\" key on its document"},
      {kMetricNameId, kRegistryPass,
       "registry metric name literals must match ^(sim|cdsf|obs)\\.[a-z0-9_.]+$ so "
       "exported series group by subsystem"},
  };
  return kIds;
}

LintResult run_project(const std::vector<SourceFile>& files, const ProjectOptions& options) {
  IdSet keep;
  for (const std::string& id : options.rules) {
    if (std::none_of(finding_ids().begin(), finding_ids().end(),
                     [&](const FindingId& finding) { return finding.id == id; })) {
      throw std::runtime_error("unknown rule '" + id + "' (see --list-rules)");
    }
    keep.insert(id);
  }

  // Resolve the pass selection.
  std::set<std::string, std::less<>> selected;
  if (!options.passes.empty()) {
    for (const std::string& pass : options.passes) {
      if (std::find(all_pass_ids().begin(), all_pass_ids().end(), pass) ==
          all_pass_ids().end()) {
        throw std::runtime_error("unknown pass: " + pass);
      }
      selected.insert(pass);
    }
  } else {
    selected = {kRulesPass, kLockOrderPass, kTaintPass};
    if (!options.layering_path.empty()) selected.insert(kLayeringPass);
    if (!options.registry_path.empty() || !options.metrics_doc_path.empty()) {
      selected.insert(kRegistryPass);
    }
  }
  if (selected.count(kLayeringPass) != 0 && options.layering_path.empty()) {
    throw std::runtime_error("pass include-layering needs --layering <manifest>");
  }
  if (selected.count(kRegistryPass) != 0 && options.registry_path.empty() &&
      options.metrics_doc_path.empty()) {
    throw std::runtime_error("pass registry-sync needs --registry and/or --metrics-doc");
  }
  if (options.want_dot && selected.count(kLayeringPass) == 0) {
    throw std::runtime_error("--graph-dot needs the include-layering pass (--layering)");
  }

  LintResult result;
  result.files_scanned = files.size();
  std::map<std::string, const SourceFile*, std::less<>> by_path;
  for (const SourceFile& file : files) by_path.emplace(file.path(), &file);

  // The project passes share one index; skip the build when none runs.
  const bool needs_index = selected.count(kLayeringPass) != 0 ||
                           selected.count(kLockOrderPass) != 0 ||
                           selected.count(kTaintPass) != 0 ||
                           selected.count(kRegistryPass) != 0;
  ProjectIndex index;
  if (needs_index) index = build_index(files);

  for (const std::string& pass : all_pass_ids()) {
    PassSummary summary;
    summary.name = pass;
    if (selected.count(pass) == 0) {
      result.passes.push_back(std::move(summary));
      continue;
    }
    if (pass == kRulesPass) {
      run_rules_pass(files, by_path, keep, result, summary);
    } else if (pass == kLayeringPass) {
      summary.ran = true;
      const LayeringManifest manifest = LayeringManifest::load(options.layering_path);
      LayeringResult layering = check_layering(index, manifest);
      summary.notes = std::move(layering.notes);
      summary.notes.push_back(std::to_string(layering.edges_checked) +
                              " in-tree include edge(s) checked");
      route_diagnostics(std::move(layering.diagnostics), by_path, keep, result, summary);
      if (options.want_dot) result.layering_dot = layering_dot(index, manifest);
    } else if (pass == kLockOrderPass) {
      summary.ran = true;
      LockOrderResult locks = check_lock_order(index);
      summary.notes.push_back(std::to_string(locks.sites) + " guard site(s), " +
                              std::to_string(locks.edges) + " ordering edge(s)");
      route_diagnostics(std::move(locks.diagnostics), by_path, keep, result, summary);
    } else if (pass == kTaintPass) {
      summary.ran = true;
      TaintResult taint = check_determinism_taint(index);
      summary.notes.push_back(std::to_string(taint.seeds) + " seed function(s), " +
                              std::to_string(taint.tainted) + " tainted function(s)");
      route_diagnostics(std::move(taint.diagnostics), by_path, keep, result, summary);
    } else if (pass == kRegistryPass) {
      summary.ran = true;
      const RegistryInput input =
          load_registry_input(options.registry_path, options.metrics_doc_path);
      RegistryResult registry = check_registry(index, input);
      summary.notes.push_back(std::to_string(registry.code_schemas) + " schema tag(s), " +
                              std::to_string(registry.code_metrics) +
                              " metric name(s) emitted by code");
      route_diagnostics(std::move(registry.diagnostics), by_path, keep, result, summary);
    }
    result.passes.push_back(std::move(summary));
  }

  // Unknown-suppression markers are validated once, against every id; a
  // --rule selection keeps only the ids it names, so it drops them too.
  if (keep.empty()) check_unknown_suppressions(files, result, result.passes.front());

  std::sort(result.violations.begin(), result.violations.end(), diagnostic_order);
  std::sort(result.suppressed.begin(), result.suppressed.end(), diagnostic_order);
  return result;
}

std::vector<std::string> collect_sources(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path root(path);
  if (!fs::exists(root)) throw std::runtime_error("no such path: " + path);
  std::vector<std::string> sources;
  if (fs::is_regular_file(root)) {
    sources.push_back(root.generic_string());
    return sources;
  }
  for (const fs::directory_entry& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc") {
      sources.push_back(entry.path().generic_string());
    }
  }
  std::sort(sources.begin(), sources.end());
  return sources;
}

std::string to_text(const LintResult& result) {
  std::ostringstream out;
  for (const Diagnostic& d : result.violations) {
    out << d.file << ":" << d.line << ": error: [" << d.rule << "] " << d.message << "\n";
  }
  for (const Diagnostic& d : result.suppressed) {
    out << d.file << ":" << d.line << ": note: suppressed [" << d.rule << "] " << d.message
        << "\n";
  }
  for (const PassSummary& pass : result.passes) {
    if (!pass.ran) continue;
    out << "pass " << pass.name << ": " << pass.violation_count << " violation(s), "
        << pass.suppressed_count << " suppressed";
    for (const std::string& note : pass.notes) out << "; " << note;
    out << "\n";
  }
  out << "cdsf_lint: " << result.files_scanned << " file(s), " << result.violations.size()
      << " violation(s), " << result.suppressed.size() << " suppressed\n";
  return out.str();
}

obs::Json to_json(const LintResult& result) {
  auto diagnostics_json = [](const std::vector<Diagnostic>& diagnostics) {
    obs::Json array = obs::Json::array();
    for (const Diagnostic& d : diagnostics) {
      obs::Json entry = obs::Json::object();
      entry.set("file", d.file);
      entry.set("line", d.line);
      entry.set("rule", d.rule);
      entry.set("pass", d.pass);
      entry.set("message", d.message);
      array.push_back(std::move(entry));
    }
    return array;
  };
  obs::Json doc = obs::Json::object();
  doc.set("schema", kLintReportSchema);
  doc.set("files_scanned", result.files_scanned);
  doc.set("violation_count", result.violations.size());
  doc.set("suppression_count", result.suppressed.size());
  doc.set("clean", result.clean());
  obs::Json passes = obs::Json::array();
  for (const PassSummary& pass : result.passes) {
    obs::Json entry = obs::Json::object();
    entry.set("name", pass.name);
    entry.set("ran", pass.ran);
    entry.set("violation_count", pass.violation_count);
    entry.set("suppressed_count", pass.suppressed_count);
    obs::Json notes = obs::Json::array();
    for (const std::string& note : pass.notes) notes.push_back(note);
    entry.set("notes", std::move(notes));
    passes.push_back(std::move(entry));
  }
  doc.set("passes", std::move(passes));
  doc.set("violations", diagnostics_json(result.violations));
  doc.set("suppressions", diagnostics_json(result.suppressed));
  return doc;
}

}  // namespace cdsf::lint
