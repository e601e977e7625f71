#include "lint/registry_check.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "lint/text.hpp"
#include "obs/json.hpp"

namespace cdsf::lint {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// 1-based line of the first occurrence of `needle` in `text` (1 if absent,
/// so diagnostics on a malformed file still point somewhere sensible).
std::size_t line_of_first(std::string_view text, std::string_view needle) {
  const std::size_t pos = text.find(needle);
  if (pos == std::string_view::npos) return 1;
  return static_cast<std::size_t>(std::count(text.begin(), text.begin() + pos, '\n')) + 1;
}

/// True when `name` is a production metric name:
/// ^(sim|cdsf|obs)\.[a-z0-9_.]+$ .
bool valid_metric_name(std::string_view name) {
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

bool parse_schema_tag(std::string_view tag, std::string& base, int& version) {
  const std::size_t slash = tag.rfind('/');
  if (slash == std::string_view::npos || slash + 1 >= tag.size()) return false;
  int v = 0;
  for (std::size_t i = slash + 1; i < tag.size(); ++i) {
    if (tag[i] < '0' || tag[i] > '9') return false;
    v = v * 10 + (tag[i] - '0');
  }
  base = std::string(tag.substr(0, slash));
  version = v;
  return true;
}

/// Backticked first-column entries of markdown table rows, split into
/// schema tags (contain '/') and metric names.
void parse_doc_tables(std::string_view text, std::set<std::string>& doc_schemas,
                      std::set<std::string>& doc_metrics) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t line_end = text.find('\n', pos);
    if (line_end == std::string_view::npos) line_end = text.size();
    const std::string_view line = text.substr(pos, line_end - pos);
    pos = line_end + 1;
    // Rows look like: | `sim.makespan` | counter | ... |
    std::size_t cursor = 0;
    while (cursor < line.size() && (line[cursor] == ' ' || line[cursor] == '\t')) ++cursor;
    if (cursor >= line.size() || line[cursor] != '|') continue;
    cursor = line.find('`', cursor);
    if (cursor == std::string_view::npos) continue;
    const std::size_t close = line.find('`', cursor + 1);
    if (close == std::string_view::npos) continue;
    const std::string_view entry = line.substr(cursor + 1, close - cursor - 1);
    std::string base;
    int version = 0;
    if (entry.rfind("cdsf.", 0) == 0 && entry.find('/') != std::string_view::npos &&
        parse_schema_tag(entry, base, version)) {
      doc_schemas.emplace(entry);
    } else if (valid_metric_name(entry)) {
      doc_metrics.emplace(entry);
    }
  }
}

struct CodeEntry {
  std::size_t file = 0;
  std::size_t line = 0;
};

}  // namespace

RegistryInput load_registry_input(const std::string& registry_path,
                                  const std::string& doc_path) {
  RegistryInput input;
  if (!registry_path.empty()) {
    input.registry_path = registry_path;
    input.registry_text = read_file(registry_path);
  }
  if (!doc_path.empty()) {
    input.doc_path = doc_path;
    input.doc_text = read_file(doc_path);
  }
  return input;
}

RegistryResult check_registry(const ProjectIndex& index, const RegistryInput& input) {
  RegistryResult result;

  // --- code side (tests excluded: throwaway names, local registries) ----
  std::map<std::string, CodeEntry> code_schemas;  // tag → first emit site
  std::map<std::string, CodeEntry> code_metrics;  // name → first emit site
  for (const SchemaLiteral& schema : index.schemas) {
    if (has_segment(index.files[schema.file]->path(), "tests")) continue;
    code_schemas.emplace(schema.tag, CodeEntry{schema.file, schema.line});
  }
  for (const MetricLiteral& metric : index.metrics) {
    const std::string& path = index.files[metric.file]->path();
    if (has_segment(path, "tests")) continue;
    if (!valid_metric_name(metric.name)) {
      result.diagnostics.push_back(
          {path, metric.line, kMetricNameId,
           "metric name \"" + metric.name +
               "\" must match ^(sim|cdsf|obs)\\.[a-z0-9_.]+$ (subsystem prefix, "
               "lowercase dotted path)",
           false, kRegistryPass});
      continue;
    }
    code_metrics.emplace(metric.name, CodeEntry{metric.file, metric.line});
  }
  result.code_schemas = code_schemas.size();
  result.code_metrics = code_metrics.size();

  // --- registry side ----------------------------------------------------
  std::set<std::string> registry_schemas;
  std::set<std::string> registry_metrics;
  if (!input.registry_path.empty()) {
    obs::Json doc;
    try {
      doc = obs::Json::parse(input.registry_text);
    } catch (const std::exception& e) {
      throw std::runtime_error("obs registry " + input.registry_path + ": malformed JSON: " +
                               e.what());
    }
    const obs::Json* schema = doc.find("schema");
    if (schema == nullptr || schema->as_string() != kObsRegistrySchema) {
      throw std::runtime_error("obs registry " + input.registry_path + ": expected schema " +
                               kObsRegistrySchema);
    }
    if (const obs::Json* schemas = doc.find("schemas"); schemas != nullptr) {
      for (const obs::Json& entry : schemas->items()) {
        registry_schemas.insert(entry.as_string());
      }
    }
    if (const obs::Json* metrics = doc.find("metrics"); metrics != nullptr) {
      for (const obs::Json& entry : metrics->items()) {
        registry_metrics.insert(entry.as_string());
      }
    }
  }

  // --- doc side ---------------------------------------------------------
  std::set<std::string> doc_schemas;
  std::set<std::string> doc_metrics;
  if (!input.doc_path.empty()) {
    parse_doc_tables(input.doc_text, doc_schemas, doc_metrics);
  }

  const auto emit = [&](std::string file, std::size_t line, std::string message) {
    result.diagnostics.push_back(
        {std::move(file), line, kRegistryPass, std::move(message), false, kRegistryPass});
  };

  // Version-skew detection wants base → version maps for each side.
  const auto base_versions = [](const std::set<std::string>& tags) {
    std::map<std::string, std::set<int>> out;
    for (const std::string& tag : tags) {
      std::string base;
      int version = 0;
      if (parse_schema_tag(tag, base, version)) out[base].insert(version);
    }
    return out;
  };
  const auto registry_bases = base_versions(registry_schemas);
  const auto doc_bases = base_versions(doc_schemas);

  // --- code → registry/doc ---------------------------------------------
  for (const auto& [tag, site] : code_schemas) {
    const std::string& path = index.files[site.file]->path();
    std::string base;
    int version = 0;
    parse_schema_tag(tag, base, version);
    if (!input.registry_path.empty() && registry_schemas.count(tag) == 0) {
      const auto it = registry_bases.find(base);
      if (it != registry_bases.end()) {
        emit(path, site.line,
             "schema version skew: code emits \"" + tag + "\" but " + input.registry_path +
                 " registers version " + std::to_string(*it->second.rbegin()) +
                 "; bump both sides together");
      } else {
        emit(path, site.line, "schema \"" + tag + "\" is not registered in " +
                                  input.registry_path + "; add it to \"schemas\"");
      }
    }
    if (!input.doc_path.empty() && doc_schemas.count(tag) == 0) {
      const auto it = doc_bases.find(base);
      if (it != doc_bases.end()) {
        emit(path, site.line,
             "schema version skew: code emits \"" + tag + "\" but " + input.doc_path +
                 " documents version " + std::to_string(*it->second.rbegin()) +
                 "; update the schema table");
      } else {
        emit(path, site.line, "schema \"" + tag + "\" is not documented in " + input.doc_path +
                                  "; add a schema-table row");
      }
    }
  }
  for (const auto& [name, site] : code_metrics) {
    const std::string& path = index.files[site.file]->path();
    if (!input.registry_path.empty() && registry_metrics.count(name) == 0) {
      emit(path, site.line, "metric \"" + name + "\" is not registered in " +
                                input.registry_path + "; add it to \"metrics\"");
    }
    if (!input.doc_path.empty() && doc_metrics.count(name) == 0) {
      emit(path, site.line, "metric \"" + name + "\" is not documented in " + input.doc_path +
                                "; add a metric-table row");
    }
  }

  // --- registry/doc → code (orphans) ------------------------------------
  // A version mismatch on a base the code does emit is already reported as
  // skew above; orphan findings cover bases with no emitter at all.
  std::set<std::string> code_schema_bases;
  for (const auto& [tag, site] : code_schemas) {
    std::string base;
    int version = 0;
    if (parse_schema_tag(tag, base, version)) code_schema_bases.insert(base);
  }
  const auto base_of = [](const std::string& tag) {
    std::string base;
    int version = 0;
    parse_schema_tag(tag, base, version);
    return base;
  };
  for (const std::string& tag : registry_schemas) {
    if (code_schemas.count(tag) != 0 || code_schema_bases.count(base_of(tag)) != 0) continue;
    emit(input.registry_path, line_of_first(input.registry_text, "\"" + tag + "\""),
         "registry schema \"" + tag + "\" has no emitter in the scanned sources; remove it or "
         "restore the emitter");
  }
  for (const std::string& name : registry_metrics) {
    if (code_metrics.count(name) != 0) continue;
    emit(input.registry_path, line_of_first(input.registry_text, "\"" + name + "\""),
         "registry metric \"" + name + "\" has no emitter in the scanned sources; remove it "
         "or restore the emitter");
  }
  for (const std::string& tag : doc_schemas) {
    if (code_schemas.count(tag) != 0 || code_schema_bases.count(base_of(tag)) != 0) continue;
    emit(input.doc_path, line_of_first(input.doc_text, "`" + tag + "`"),
         "documented schema \"" + tag + "\" has no emitter in the scanned sources; drop the "
         "row or restore the emitter");
  }
  for (const std::string& name : doc_metrics) {
    if (code_metrics.count(name) != 0) continue;
    emit(input.doc_path, line_of_first(input.doc_text, "`" + name + "`"),
         "documented metric \"" + name + "\" has no emitter in the scanned sources; drop the "
         "row or restore the emitter");
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
