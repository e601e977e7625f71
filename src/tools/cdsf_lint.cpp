// cdsf_lint — CDSF-specific concurrency & determinism lint.
//
// Usage:
//   cdsf_lint [--json] [--rule <id> ...] [--pass <name> ...]
//             [--layering <manifest>] [--registry <json>]
//             [--metrics-doc <md>] [--graph-dot <file>]
//             [--list-rules] [--list-passes] <path> [<path> ...]
//
// Paths may be files or directories (directories are scanned recursively
// for .hpp/.h/.cpp/.cc, in sorted order, so output is stable). Beyond the
// per-file rules, project-wide passes analyze the whole scan set at once:
// include-layering (needs --layering), lock-order, determinism-taint (which
// also emits the rng-source and wall-clock findings), and registry-sync
// (needs --registry and/or --metrics-doc; also emits metric-name). --rule
// keeps only the findings with the named ids, whichever pass emits them.
// The finding ids, passes, and suppression syntax are documented in
// docs/static_analysis.md.
//
// Exit codes: 0 clean, 1 violations, 2 usage/I-O error.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lint/engine.hpp"
#include "lint/source.hpp"

namespace {

void print_usage(std::ostream& out) {
  out << "usage: cdsf_lint [options] <path> [<path> ...]\n"
         "\n"
         "CDSF concurrency & determinism lint. Per-file rules (unordered-container\n"
         "iteration, bare mutex lock/unlock, untagged report documents) plus\n"
         "project-wide passes (include-layering, lock-order, determinism-taint\n"
         "with unseeded RNG and wall-clock reads in deterministic paths,\n"
         "registry-sync with metric names). See docs/static_analysis.md.\n"
         "\n"
         "  --json             machine-readable report on stdout (cdsf.lint_report/2)\n"
         "  --rule <id>        keep only findings with this id, whichever pass\n"
         "                     emits it (repeatable; see --list-rules)\n"
         "  --pass <name>      run only the named pass (repeatable; default:\n"
         "                     rules, lock-order, determinism-taint, plus\n"
         "                     include-layering/registry-sync when their\n"
         "                     inputs are given)\n"
         "  --layering <file>  layer manifest (tools/layering.json); enables\n"
         "                     the include-layering pass\n"
         "  --registry <file>  schema/metric registry (tools/obs_registry.json);\n"
         "                     enables the registry-sync pass\n"
         "  --metrics-doc <md> observability doc whose tables registry-sync\n"
         "                     cross-checks (docs/observability.md)\n"
         "  --graph-dot <file> write the layer include graph as Graphviz DOT\n"
         "                     (needs --layering)\n"
         "  --list-rules       print finding ids + summaries and exit\n"
         "  --list-passes      print pass names and exit\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool list_rules = false;
  bool list_passes = false;
  std::vector<std::string> paths;
  cdsf::lint::ProjectOptions options;
  std::string graph_dot_path;

  const auto need_value = [&](int& i, const std::string& flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "cdsf_lint: " << flag << " needs an argument\n";
      return nullptr;
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--list-passes") {
      list_passes = true;
    } else if (arg == "--rule") {
      const char* value = need_value(i, arg);
      if (value == nullptr) return 2;
      options.rules.emplace_back(value);
    } else if (arg == "--pass") {
      const char* value = need_value(i, arg);
      if (value == nullptr) return 2;
      options.passes.emplace_back(value);
    } else if (arg == "--layering") {
      const char* value = need_value(i, arg);
      if (value == nullptr) return 2;
      options.layering_path = value;
    } else if (arg == "--registry") {
      const char* value = need_value(i, arg);
      if (value == nullptr) return 2;
      options.registry_path = value;
    } else if (arg == "--metrics-doc") {
      const char* value = need_value(i, arg);
      if (value == nullptr) return 2;
      options.metrics_doc_path = value;
    } else if (arg == "--graph-dot") {
      const char* value = need_value(i, arg);
      if (value == nullptr) return 2;
      graph_dot_path = value;
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "cdsf_lint: unknown flag " << arg << "\n";
      print_usage(std::cerr);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  options.want_dot = !graph_dot_path.empty();

  if (list_rules) {
    for (const cdsf::lint::FindingId& finding : cdsf::lint::finding_ids()) {
      std::cout << finding.id << " — " << finding.summary << "\n";
    }
    return 0;
  }
  if (list_passes) {
    for (const std::string& pass : cdsf::lint::all_pass_ids()) {
      std::cout << pass << "\n";
    }
    return 0;
  }
  if (paths.empty()) {
    print_usage(std::cerr);
    return 2;
  }

  try {
    std::vector<cdsf::lint::SourceFile> files;
    for (const std::string& path : paths) {
      for (const std::string& source : cdsf::lint::collect_sources(path)) {
        files.push_back(cdsf::lint::SourceFile::load(source));
      }
    }
    const cdsf::lint::LintResult result = cdsf::lint::run_project(files, options);
    if (!graph_dot_path.empty()) {
      std::ofstream dot(graph_dot_path, std::ios::binary);
      if (!dot) {
        std::cerr << "cdsf_lint: cannot write " << graph_dot_path << "\n";
        return 2;
      }
      dot << result.layering_dot;
    }
    if (json) {
      std::cout << cdsf::lint::to_json(result).dump(1) << "\n";
    } else {
      std::cout << cdsf::lint::to_text(result);
    }
    return result.exit_code();
  } catch (const std::exception& error) {
    std::cerr << "cdsf_lint: " << error.what() << "\n";
    return 2;
  }
}
