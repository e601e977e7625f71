// Project-wide lint passes: index construction, include-layering,
// lock-order, determinism-taint, registry-sync, engine pass routing, and
// the cdsf_lint binary's project-mode flags.
//
// Three layers, mirroring test_lint.cpp:
//   1. Pass semantics on in-memory sources with controlled paths.
//   2. Engine-level suppression routing (allow(<pass-id>) markers).
//   3. The installed binary against the real tree's manifests — the same
//      invocation the lint_tree CI gate runs, so the tree itself is pinned
//      clean from inside the test suite.
//
// CDSF_LINT_FIXTURES, CDSF_LINT_BINARY, and CDSF_SOURCE_ROOT are injected
// by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "lint/engine.hpp"
#include "lint/index.hpp"
#include "lint/layering.hpp"
#include "lint/lockorder.hpp"
#include "lint/registry_check.hpp"
#include "lint/rules.hpp"
#include "lint/source.hpp"
#include "lint/taint.hpp"
#include "obs/json.hpp"

namespace {

using cdsf::lint::build_index;
using cdsf::lint::Diagnostic;
using cdsf::lint::LayeringManifest;
using cdsf::lint::LintResult;
using cdsf::lint::ProjectIndex;
using cdsf::lint::ProjectOptions;
using cdsf::lint::run_project;
using cdsf::lint::SourceFile;

std::vector<SourceFile> sources(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  std::vector<SourceFile> files;
  files.reserve(entries.size());
  for (const auto& [path, text] : entries) files.push_back(SourceFile::from_string(path, text));
  return files;
}

/// Writes `text` under the gtest temp dir and returns the absolute path.
std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

std::string diag_text(const std::vector<Diagnostic>& diagnostics) {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += d.file + ":" + std::to_string(d.line) + ": [" + d.pass + "] " + d.message + "\n";
  }
  return out;
}

// --- index ------------------------------------------------------------------

TEST(LintIndex, ResolvesIncludesPreferringSameDirectoryThenSuffix) {
  const auto files = sources({
      {"src/a/x.hpp", "int ax;\n"},
      {"src/b/x.hpp", "int bx;\n"},
      {"src/a/y.cpp", "#include \"x.hpp\"\n#include \"b/x.hpp\"\n#include \"gone.hpp\"\n"},
  });
  const ProjectIndex index = build_index(files);
  ASSERT_EQ(index.includes.size(), 3u);
  EXPECT_EQ(index.includes[0].to_file, index.file_id("src/a/x.hpp"));  // same dir wins
  EXPECT_EQ(index.includes[1].to_file, index.file_id("src/b/x.hpp"));  // suffix match
  EXPECT_EQ(index.includes[2].to_file, ProjectIndex::npos);            // external
  EXPECT_EQ(index.includes[1].line, 2u);
}

TEST(LintIndex, FindsFunctionBodiesAndFirstCallPerName) {
  const auto files = sources({{"src/a/f.cpp",
                               "int helper(int v) { return v + 1; }\n"
                               "auto trailing(int v) -> int {\n"
                               "  helper(v);\n"
                               "  helper(v + 2);\n"  // second call: deduplicated
                               "  return helper(3);\n"
                               "}\n"
                               "Widget::Widget(int v) : value_(v), name_(\"w\") {\n"
                               "  helper(v);\n"
                               "}\n"
                               "int declared(int v);\n"}});
  const ProjectIndex index = build_index(files);
  std::vector<std::string> names;
  for (const auto& def : index.functions) names.push_back(def.name);
  EXPECT_EQ(names, (std::vector<std::string>{"helper", "trailing", "Widget"}));
  std::size_t trailing_calls = 0;
  for (const auto& call : index.calls) {
    if (index.functions[call.caller].name == "trailing") {
      ++trailing_calls;
      EXPECT_EQ(call.name, "helper");
      EXPECT_EQ(call.line, 3u);  // first occurrence only
    }
  }
  EXPECT_EQ(trailing_calls, 1u);
}

TEST(LintIndex, FindsMutexDeclarationsAndGuardSites) {
  const auto files = sources({{"src/a/m.cpp",
                               "std::mutex mu_a;\n"
                               "std::recursive_mutex mu_r;\n"
                               "void f() {\n"
                               "  std::scoped_lock both(mu_a, mu_r);\n"
                               "  std::unique_lock<std::mutex> lazy(mu_a, std::defer_lock);\n"
                               "}\n"}});
  const ProjectIndex index = build_index(files);
  ASSERT_EQ(index.mutexes.size(), 2u);
  EXPECT_FALSE(index.mutexes[0].recursive);
  EXPECT_TRUE(index.mutexes[1].recursive);
  ASSERT_EQ(index.locks.size(), 1u);  // defer_lock site not recorded
  EXPECT_EQ(index.locks[0].guard, "scoped_lock");
  EXPECT_EQ(index.locks[0].mutexes, (std::vector<std::string>{"mu_a", "mu_r"}));
  EXPECT_EQ(index.functions[index.locks[0].function].name, "f");
}

// --- include-layering -------------------------------------------------------

std::string manifest_json(const std::string& layers) {
  return "{\"schema\": \"cdsf.layering/1\", \"layers\": [" + layers + "]}";
}

TEST(LintLayering, ParseRejectsMalformedManifests) {
  EXPECT_THROW(LayeringManifest::parse("{\"schema\": \"cdsf.layering/9\", \"layers\": []}"),
               std::runtime_error);
  EXPECT_THROW(  // duplicate layer name
      LayeringManifest::parse(manifest_json(
          R"({"name": "a", "match": ["src/a"], "allow": []},
             {"name": "a", "match": ["src/b"], "allow": []})")),
      std::runtime_error);
  EXPECT_THROW(  // allow names an unknown layer
      LayeringManifest::parse(
          manifest_json(R"({"name": "a", "match": ["src/a"], "allow": ["ghost"]})")),
      std::runtime_error);
  EXPECT_THROW(  // cyclic allow graph: the manifest must order the architecture
      LayeringManifest::parse(manifest_json(
          R"({"name": "a", "match": ["src/a"], "allow": ["b"]},
             {"name": "b", "match": ["src/b"], "allow": ["a"]})")),
      std::runtime_error);
}

TEST(LintLayering, FirstMatchingLayerWinsAndPatternsHandleAbsolutePaths) {
  const LayeringManifest manifest = LayeringManifest::parse(manifest_json(
      R"({"name": "special", "match": ["src/obs/report.hpp"], "allow": []},
         {"name": "obs", "match": ["src/obs"], "allow": []},
         {"name": "harness", "match": ["tests"], "allow": ["*"]})"));
  EXPECT_EQ(manifest.layers[manifest.layer_of("src/obs/report.hpp")].name, "special");
  EXPECT_EQ(manifest.layers[manifest.layer_of("src/obs/metrics.hpp")].name, "obs");
  EXPECT_EQ(manifest.layers[manifest.layer_of("/abs/checkout/src/obs/json.hpp")].name, "obs");
  EXPECT_EQ(manifest.layers[manifest.layer_of("tests/test_x.cpp")].name, "harness");
  EXPECT_EQ(manifest.layer_of("bench/bench_x.cpp"), LayeringManifest::npos);
}

TEST(LintLayering, FlagsIllegalEdgeAtTheIncludeSite) {
  const auto files = sources({
      {"src/util/helper.hpp", "#include \"sim/engine.hpp\"\nint h;\n"},
      {"src/sim/engine.hpp", "#include \"util/helper.hpp\"\nint e;\n"},
  });
  const ProjectIndex index = build_index(files);
  const LayeringManifest manifest = LayeringManifest::parse(manifest_json(
      R"({"name": "util", "match": ["src/util"], "allow": []},
         {"name": "sim", "match": ["src/sim"], "allow": ["util"]})"));
  const auto result = cdsf::lint::check_layering(index, manifest);
  // util→sim is illegal; sim→util is declared. The cycle the two files form
  // is reported separately.
  bool found_edge = false;
  for (const Diagnostic& d : result.diagnostics) {
    if (d.message.find("layer 'util' must not include layer 'sim'") != std::string::npos) {
      found_edge = true;
      EXPECT_EQ(d.file, "src/util/helper.hpp");
      EXPECT_EQ(d.line, 1u);
      EXPECT_EQ(d.pass, cdsf::lint::kLayeringPass);
    }
  }
  EXPECT_TRUE(found_edge) << diag_text(result.diagnostics);
  EXPECT_EQ(result.edges_checked, 2u);
}

TEST(LintLayering, FlagsUnmatchedFilesAndIncludeCycles) {
  const auto files = sources({
      {"src/a/one.hpp", "#include \"two.hpp\"\n"},
      {"src/a/two.hpp", "#include \"one.hpp\"\n"},
      {"scripts/loose.hpp", "int l;\n"},
  });
  const ProjectIndex index = build_index(files);
  const LayeringManifest manifest = LayeringManifest::parse(
      manifest_json(R"({"name": "a", "match": ["src/a"], "allow": []})"));
  const auto result = cdsf::lint::check_layering(index, manifest);
  EXPECT_EQ(result.files_unmatched, 1u);
  bool unmatched = false;
  bool cycle = false;
  for (const Diagnostic& d : result.diagnostics) {
    if (d.file == "scripts/loose.hpp" && d.line == 1) unmatched = true;
    if (d.message.find("include cycle") != std::string::npos) cycle = true;
  }
  EXPECT_TRUE(unmatched) << diag_text(result.diagnostics);
  EXPECT_TRUE(cycle) << diag_text(result.diagnostics);
}

TEST(LintLayering, ReportsUnusedAllowEdgesAsNotes) {
  const auto files = sources({{"src/a/x.hpp", "int x;\n"}, {"src/b/y.hpp", "int y;\n"}});
  const ProjectIndex index = build_index(files);
  const LayeringManifest manifest = LayeringManifest::parse(manifest_json(
      R"({"name": "b", "match": ["src/b"], "allow": []},
         {"name": "a", "match": ["src/a"], "allow": ["b"]})"));
  const auto result = cdsf::lint::check_layering(index, manifest);
  EXPECT_TRUE(result.diagnostics.empty()) << diag_text(result.diagnostics);
  ASSERT_EQ(result.notes.size(), 1u);
  EXPECT_NE(result.notes[0].find("declared but no include uses it"), std::string::npos)
      << result.notes[0];
  EXPECT_NE(result.notes[0].find("a -> b"), std::string::npos) << result.notes[0];
}

TEST(LintLayering, DotRendersLayersObservedAndUnusedEdges) {
  const auto files = sources({
      {"src/a/x.hpp", "#include \"b/y.hpp\"\n"},
      {"src/b/y.hpp", "int y;\n"},
      {"src/c/z.hpp", "#include \"b/y.hpp\"\n"},  // illegal: c allows nothing
  });
  const ProjectIndex index = build_index(files);
  const LayeringManifest manifest = LayeringManifest::parse(manifest_json(
      R"({"name": "b", "match": ["src/b"], "allow": []},
         {"name": "a", "match": ["src/a"], "allow": ["b"]},
         {"name": "c", "match": ["src/c"], "allow": []},
         {"name": "d", "match": ["src/d"], "allow": ["b"]})"));
  const std::string dot = cdsf::lint::layering_dot(index, manifest);
  EXPECT_NE(dot.find("digraph layering"), std::string::npos);
  EXPECT_NE(dot.find("rankdir=BT"), std::string::npos);
  EXPECT_NE(dot.find("\"a\" -> \"b\""), std::string::npos) << dot;
  EXPECT_NE(dot.find("red"), std::string::npos) << dot;     // the illegal c→b edge
  EXPECT_NE(dot.find("dashed"), std::string::npos) << dot;  // the unused d→b allow
}

// --- lock-order -------------------------------------------------------------

TEST(LintLockOrder, FlagsInversionAcrossFunctionsOncePerPair) {
  const auto files = sources({{"src/x/locks.cpp",
                               "std::mutex mu_a;\n"
                               "std::mutex mu_b;\n"
                               "void forward() {\n"
                               "  std::scoped_lock l1(mu_a);\n"
                               "  std::scoped_lock l2(mu_b);\n"
                               "}\n"
                               "void backward() {\n"
                               "  std::scoped_lock l1(mu_b);\n"
                               "  std::scoped_lock l2(mu_a);\n"
                               "}\n"}});
  const auto result = cdsf::lint::check_lock_order(build_index(files));
  EXPECT_EQ(result.edges, 2u);
  ASSERT_EQ(result.diagnostics.size(), 1u) << diag_text(result.diagnostics);
  // Anchored at the (mu_b, mu_a) orientation — the second-sorting pair.
  EXPECT_EQ(result.diagnostics[0].file, "src/x/locks.cpp");
  EXPECT_EQ(result.diagnostics[0].line, 9u);
  EXPECT_NE(result.diagnostics[0].message.find(
                "'mu_b' then 'mu_a' here, but 'mu_a' then 'mu_b' at src/x/locks.cpp:5"),
            std::string::npos)
      << result.diagnostics[0].message;
}

TEST(LintLockOrder, ScopeExitReleasesGuardsSoNoEdgeForms) {
  const auto files = sources({{"src/x/locks.cpp",
                               "std::mutex mu_a;\n"
                               "std::mutex mu_b;\n"
                               "void sequential() {\n"
                               "  { std::scoped_lock l1(mu_a); }\n"  // released here
                               "  std::scoped_lock l2(mu_b);\n"
                               "}\n"
                               "void backward() {\n"
                               "  std::scoped_lock l1(mu_b);\n"
                               "  std::scoped_lock l2(mu_a);\n"
                               "}\n"}});
  const auto result = cdsf::lint::check_lock_order(build_index(files));
  EXPECT_EQ(result.edges, 1u);  // only backward's b→a
  EXPECT_TRUE(result.diagnostics.empty()) << diag_text(result.diagnostics);
}

TEST(LintLockOrder, MultiMutexScopedLockAcquiresAtomically) {
  const auto files = sources({{"src/x/locks.cpp",
                               "std::mutex mu_a;\n"
                               "std::mutex mu_b;\n"
                               "void forward() { std::scoped_lock l(mu_a, mu_b); }\n"
                               "void backward() { std::scoped_lock l(mu_b, mu_a); }\n"}});
  const auto result = cdsf::lint::check_lock_order(build_index(files));
  // std::scoped_lock's deadlock-avoidance makes argument order irrelevant.
  EXPECT_EQ(result.edges, 0u);
  EXPECT_TRUE(result.diagnostics.empty()) << diag_text(result.diagnostics);
  EXPECT_EQ(result.sites, 2u);
}

TEST(LintLockOrder, FlagsSelfReacquisitionExceptRecursiveAndSharedPairs) {
  const auto files = sources({{"src/x/locks.cpp",
                               "std::mutex mu_a;\n"
                               "std::recursive_mutex mu_r;\n"
                               "std::shared_mutex mu_s;\n"
                               "void deadlocks() {\n"
                               "  std::scoped_lock l1(mu_a);\n"
                               "  std::scoped_lock l2(mu_a);\n"
                               "}\n"
                               "void recursive_ok() {\n"
                               "  std::scoped_lock l1(mu_r);\n"
                               "  std::scoped_lock l2(mu_r);\n"
                               "}\n"
                               "void shared_ok() {\n"
                               "  std::shared_lock l1(mu_s);\n"
                               "  std::shared_lock l2(mu_s);\n"
                               "}\n"}});
  const auto result = cdsf::lint::check_lock_order(build_index(files));
  ASSERT_EQ(result.diagnostics.size(), 1u) << diag_text(result.diagnostics);
  EXPECT_EQ(result.diagnostics[0].line, 6u);
  EXPECT_NE(result.diagnostics[0].message.find("re-acquired while already held"),
            std::string::npos);
  EXPECT_NE(result.diagnostics[0].message.find("src/x/locks.cpp:5"), std::string::npos);
}

TEST(LintLockOrder, SameNameInDifferentDirectoriesIsADifferentLock) {
  const auto files = sources({
      {"src/x/one.cpp",
       "std::mutex mu_;\nstd::mutex other_;\n"
       "void f() { std::scoped_lock l1(mu_); std::scoped_lock l2(other_); }\n"},
      {"src/y/two.cpp",
       "std::mutex mu_;\nstd::mutex other_;\n"
       "void g() { std::scoped_lock l1(other_); std::scoped_lock l2(mu_); }\n"},
  });
  const auto result = cdsf::lint::check_lock_order(build_index(files));
  // src/x:mu_ and src/y:mu_ are distinct identities — no inversion.
  EXPECT_TRUE(result.diagnostics.empty()) << diag_text(result.diagnostics);
  EXPECT_EQ(result.edges, 2u);
}

// --- determinism-taint ------------------------------------------------------

TEST(LintTaint, FlagsLaunderedClockReachingSimWithFullChain) {
  const auto files = sources({
      {"src/util/timing.hpp",
       "inline double now_seconds() {\n"
       "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
       "}\n"
       "inline double stamp() { return now_seconds(); }\n"},
      {"src/sim/engine.cpp",
       "#include \"util/timing.hpp\"\n"
       "double step() { return stamp(); }\n"},
  });
  const auto result = cdsf::lint::check_determinism_taint(build_index(files));
  ASSERT_EQ(result.diagnostics.size(), 1u) << diag_text(result.diagnostics);
  EXPECT_EQ(result.diagnostics[0].file, "src/sim/engine.cpp");
  EXPECT_EQ(result.diagnostics[0].line, 2u);  // at step()'s definition
  EXPECT_NE(result.diagnostics[0].message.find("step -> stamp -> now_seconds"),
            std::string::npos)
      << result.diagnostics[0].message;
  EXPECT_NE(result.diagnostics[0].message.find("steady_clock"), std::string::npos);
  EXPECT_EQ(result.seeds, 1u);
  EXPECT_EQ(result.tainted, 3u);  // now_seconds (the seed), stamp, step
}

TEST(LintTaint, TrustedObsCallersAbsorbTaint) {
  const auto files = sources({
      {"src/util/timing.hpp", "inline double now_seconds() { return clock(); }\n"},
      {"src/obs/flight.cpp", "double annotate() { return now_seconds(); }\n"},
  });
  const auto result = cdsf::lint::check_determinism_taint(build_index(files));
  // obs/ timestamps are observability metadata: the call is absorbed, never
  // flagged, and taint does not continue through the trusted caller.
  EXPECT_TRUE(result.diagnostics.empty()) << diag_text(result.diagnostics);
  EXPECT_EQ(result.seeds, 1u);
}

TEST(LintTaint, AmbiguousCalleeNamesResolveToNothing) {
  const auto files = sources({
      {"src/util/a.hpp", "inline double helper() { return clock(); }\n"},
      {"src/stats/b.hpp", "inline double helper() { return 0.0; }\n"},
      {"src/sim/engine.cpp", "double step() { return helper(); }\n"},
  });
  const auto result = cdsf::lint::check_determinism_taint(build_index(files));
  // Two unrelated helper() definitions: guessing would fabricate findings.
  EXPECT_TRUE(result.diagnostics.empty()) << diag_text(result.diagnostics);
}

TEST(LintTaint, SuppressedSeedLinesDoNotSeed) {
  const auto files = sources({
      {"src/util/timing.hpp",
       "inline double now_seconds() {\n"
       "  return clock();  // cdsf-lint: allow(wall-clock)\n"
       "}\n"},
      {"src/sim/engine.cpp",
       "#include \"util/timing.hpp\"\n"
       "double step() { return now_seconds(); }\n"},
  });
  const auto result = cdsf::lint::check_determinism_taint(build_index(files));
  // The underlying lexical finding was deliberately waived; the taint pass
  // must not resurrect it transitively.
  EXPECT_TRUE(result.diagnostics.empty()) << diag_text(result.diagnostics);
  EXPECT_EQ(result.seeds, 0u);
}

TEST(LintTaint, DirectReadsKeepTheirIdsAndScopesWhateverTheTrustedList) {
  const auto files = sources({
      // obs/ is trusted for chains, yet its raw engine is still rng-source.
      {"src/obs/x.cpp", "std::mt19937 engine;\n"},
      // Outside any function body, and svc/ is a deterministic subsystem.
      {"src/svc/y.cpp", "#include <chrono>\nauto t = std::chrono::steady_clock::now();\n"},
      // The seeded fan-out may name engines; util/ may read the clock.
      {"src/util/rng.hpp", "std::mt19937_64 engine;\n"},
      {"src/util/z.cpp", "double now() { return clock(); }\n"},
  });
  const auto result = cdsf::lint::check_determinism_taint(build_index(files));
  ASSERT_EQ(result.diagnostics.size(), 2u) << diag_text(result.diagnostics);
  EXPECT_EQ(result.diagnostics[0].file, "src/obs/x.cpp");
  EXPECT_EQ(result.diagnostics[0].line, 1u);
  EXPECT_EQ(result.diagnostics[0].rule, cdsf::lint::kRngSourceId);
  EXPECT_EQ(result.diagnostics[0].message,
            "std::mt19937 bypasses the seed fan-out; use util::RngStream / "
            "util::SeedSequence (util/rng.hpp)");
  EXPECT_EQ(result.diagnostics[1].file, "src/svc/y.cpp");
  EXPECT_EQ(result.diagnostics[1].line, 2u);
  EXPECT_EQ(result.diagnostics[1].rule, cdsf::lint::kWallClockId);
  for (const Diagnostic& d : result.diagnostics) EXPECT_EQ(d.pass, cdsf::lint::kTaintPass);
  EXPECT_EQ(result.seeds, 1u);  // util/z.cpp's now(): a seed, but no finding of its own
}

// --- registry-sync ----------------------------------------------------------

cdsf::lint::RegistryInput registry_input(const std::string& registry_text,
                                         const std::string& doc_text) {
  cdsf::lint::RegistryInput input;
  if (!registry_text.empty()) {
    input.registry_path = "tools/obs_registry.json";
    input.registry_text = registry_text;
  }
  if (!doc_text.empty()) {
    input.doc_path = "docs/observability.md";
    input.doc_text = doc_text;
  }
  return input;
}

const char* const kRegistryOk =
    "{\"schema\": \"cdsf.obs_registry/1\",\n"
    " \"schemas\": [\"cdsf.run_report/1\"],\n"
    " \"metrics\": [\"sim.makespan\"]}";

TEST(LintRegistry, CleanWhenCodeRegistryAndDocAgree) {
  const auto files = sources({{"src/obs/report.cpp",
                               "void f(obs::MetricsRegistry& m) {\n"
                               "  doc.set(\"schema\", \"cdsf.run_report/1\");\n"
                               "  m.add(\"sim.makespan\");\n"
                               "}\n"}});
  const std::string doc =
      "| `cdsf.run_report/1` | run report |\n| `sim.makespan` | counter |\n";
  const auto result =
      cdsf::lint::check_registry(build_index(files), registry_input(kRegistryOk, doc));
  EXPECT_TRUE(result.diagnostics.empty()) << diag_text(result.diagnostics);
  EXPECT_EQ(result.code_schemas, 1u);
  EXPECT_EQ(result.code_metrics, 1u);
}

TEST(LintRegistry, FlagsUndocumentedEmissionsAtTheEmittingLine) {
  const auto files = sources({{"src/sim/engine.cpp",
                               "void f(obs::MetricsRegistry& m) {\n"
                               "  m.add(\"sim.new_series\");\n"
                               "  doc.set(\"schema\", \"cdsf.new_report/1\");\n"
                               "}\n"}});
  const auto result =
      cdsf::lint::check_registry(build_index(files), registry_input(kRegistryOk, ""));
  // The new metric and schema are undocumented; the registry's entries are
  // now orphaned (nothing in this scan set emits them).
  ASSERT_EQ(result.diagnostics.size(), 4u) << diag_text(result.diagnostics);
  bool metric_hit = false;
  bool schema_hit = false;
  for (const Diagnostic& d : result.diagnostics) {
    if (d.file == "src/sim/engine.cpp" && d.line == 2) metric_hit = true;
    if (d.file == "src/sim/engine.cpp" && d.line == 3) schema_hit = true;
  }
  EXPECT_TRUE(metric_hit) << diag_text(result.diagnostics);
  EXPECT_TRUE(schema_hit) << diag_text(result.diagnostics);
}

TEST(LintRegistry, FlagsOrphanedRegistryEntriesAtTheirRegistryLine) {
  const auto files = sources({{"src/obs/report.cpp",
                               "void f() { doc.set(\"schema\", \"cdsf.run_report/1\"); }\n"}});
  const auto result =
      cdsf::lint::check_registry(build_index(files), registry_input(kRegistryOk, ""));
  // sim.makespan is registered but nothing emits it.
  ASSERT_EQ(result.diagnostics.size(), 1u) << diag_text(result.diagnostics);
  EXPECT_EQ(result.diagnostics[0].file, "tools/obs_registry.json");
  EXPECT_EQ(result.diagnostics[0].line, 3u);  // the "metrics" line of kRegistryOk
  EXPECT_NE(result.diagnostics[0].message.find("sim.makespan"), std::string::npos);
}

TEST(LintRegistry, FlagsVersionSkewOnceInsteadOfOrphanPlusUndocumented) {
  const auto files = sources({{"src/obs/report.cpp",
                               "void f(obs::MetricsRegistry& m) {\n"
                               "  doc.set(\"schema\", \"cdsf.run_report/2\");\n"
                               "  m.add(\"sim.makespan\");\n"
                               "}\n"}});
  const auto result =
      cdsf::lint::check_registry(build_index(files), registry_input(kRegistryOk, ""));
  ASSERT_EQ(result.diagnostics.size(), 1u) << diag_text(result.diagnostics);
  EXPECT_EQ(result.diagnostics[0].file, "src/obs/report.cpp");
  EXPECT_EQ(result.diagnostics[0].line, 2u);
  EXPECT_NE(result.diagnostics[0].message.find("cdsf.run_report/2"), std::string::npos);
  EXPECT_NE(result.diagnostics[0].message.find("registers version 1"), std::string::npos);
}

TEST(LintRegistry, TestSourcesMayMintThrowawayNames) {
  const auto files = sources({
      {"src/obs/report.cpp",
       "void f(obs::MetricsRegistry& m) {\n"
       "  doc.set(\"schema\", \"cdsf.run_report/1\");\n"
       "  m.add(\"sim.makespan\");\n"
       "}\n"},
      {"tests/test_x.cpp", "void g(obs::MetricsRegistry& m) { m.add(\"sim.scratch\"); }\n"},
  });
  const auto result =
      cdsf::lint::check_registry(build_index(files), registry_input(kRegistryOk, ""));
  EXPECT_TRUE(result.diagnostics.empty()) << diag_text(result.diagnostics);
}

// --- engine pass routing ----------------------------------------------------

TEST(LintEngine, FindingIdsListEveryRuleOnceWithItsPass) {
  std::vector<std::string> listed_rules;
  for (const auto& finding : cdsf::lint::finding_ids()) {
    if (finding.pass == cdsf::lint::kRulesPass) listed_rules.emplace_back(finding.id);
  }
  std::vector<std::string> rules;
  for (const auto& rule : cdsf::lint::default_rules()) rules.emplace_back(rule->id());
  EXPECT_EQ(listed_rules, rules);
  EXPECT_EQ(cdsf::lint::finding_ids().size(), 6u);
}

TEST(LintEngine, RuleFilterKeepsTheNamedIdsWhicheverPassEmitsThem) {
  const auto files = sources({{"src/sim/x.cpp",
                               "std::mutex mu_a;\n"
                               "int roll() { return rand(); }\n"
                               "void f() { mu_a.lock(); }\n"
                               "int a;  // cdsf-lint: allow(no-such-rule)\n"
                               "std::unordered_set<int> seen;\n"
                               "long now() { for (int v : seen) {} return time(nullptr); }\n"}});
  ProjectOptions options;
  options.rules = {cdsf::lint::kRngSourceId, "bare-mutex-lock"};
  const LintResult result = run_project(files, options);
  std::vector<std::pair<std::string, std::string>> kept;
  for (const Diagnostic& d : result.violations) kept.emplace_back(d.rule, d.pass);
  // The unordered-iteration, wall-clock and unknown-suppression findings
  // carry no kept id, so they go.
  EXPECT_EQ(kept, (std::vector<std::pair<std::string, std::string>>{
                      {cdsf::lint::kRngSourceId, cdsf::lint::kTaintPass},
                      {"bare-mutex-lock", cdsf::lint::kRulesPass}}))
      << cdsf::lint::to_text(result);
  for (const auto& pass : result.passes) {
    const bool counts_one =
        pass.name == cdsf::lint::kRulesPass || pass.name == cdsf::lint::kTaintPass;
    EXPECT_EQ(pass.violation_count, counts_one ? 1u : 0u) << pass.name;
  }
  options.rules = {cdsf::lint::kLockOrderPass};  // a pass id, not a finding id
  EXPECT_THROW((void)run_project(files, options), std::runtime_error);
}

TEST(LintEngine, DefaultPassesSkipAnalysesWithoutInputs) {
  const auto files = sources({{"src/a/x.cpp", "int x;\n"}});
  const LintResult result = run_project(files, {});
  ASSERT_EQ(result.passes.size(), 5u);
  for (const auto& pass : result.passes) {
    const bool needs_input =
        pass.name == cdsf::lint::kLayeringPass || pass.name == cdsf::lint::kRegistryPass;
    EXPECT_EQ(pass.ran, !needs_input) << pass.name;
  }
}

TEST(LintEngine, ExplicitPassWithoutItsInputThrows) {
  const auto files = sources({{"src/a/x.cpp", "int x;\n"}});
  ProjectOptions layering_only;
  layering_only.passes = {cdsf::lint::kLayeringPass};
  EXPECT_THROW((void)run_project(files, layering_only), std::runtime_error);
  ProjectOptions registry_only;
  registry_only.passes = {cdsf::lint::kRegistryPass};
  EXPECT_THROW((void)run_project(files, registry_only), std::runtime_error);
  ProjectOptions dot_without_layering;
  dot_without_layering.want_dot = true;
  EXPECT_THROW((void)run_project(files, dot_without_layering), std::runtime_error);
  ProjectOptions unknown;
  unknown.passes = {"no-such-pass"};
  EXPECT_THROW((void)run_project(files, unknown), std::runtime_error);
}

TEST(LintEngine, PassDiagnosticsHonorAllowSuppressions) {
  const std::string manifest_path = write_temp(
      "lint_layering_manifest.json",
      manifest_json(R"({"name": "util", "match": ["src/util"], "allow": []},
                       {"name": "sim", "match": ["src/sim"], "allow": ["util"]})"));
  const auto files = sources({
      {"src/util/h.hpp",
       "#include \"sim/e.hpp\"  // cdsf-lint: allow(include-layering)\n"},
      {"src/sim/e.hpp",
       "// cdsf-lint: allow-file(include-layering)\n"  // waives the cycle report
       "#include \"util/h.hpp\"\n"
       "std::mutex mu_a;\n"
       "std::mutex mu_b;\n"
       "void forward() {\n"
       "  std::scoped_lock l1(mu_a);\n"
       "  std::scoped_lock l2(mu_b);\n"
       "}\n"
       "void backward() {\n"
       "  std::scoped_lock l1(mu_b);\n"
       "  // cdsf-lint: allow(lock-order)\n"
       "  std::scoped_lock l2(mu_a);\n"
       "}\n"},
  });
  ProjectOptions options;
  options.layering_path = manifest_path;
  const LintResult result = run_project(files, options);
  EXPECT_TRUE(result.violations.empty()) << cdsf::lint::to_text(result);
  // The illegal util→sim edge, the include cycle, and the inversion all
  // landed in `suppressed` rather than vanishing.
  std::size_t layering = 0;
  std::size_t lock_order = 0;
  for (const Diagnostic& d : result.suppressed) {
    if (d.pass == cdsf::lint::kLayeringPass) ++layering;
    if (d.pass == cdsf::lint::kLockOrderPass) ++lock_order;
  }
  EXPECT_EQ(layering, 2u) << cdsf::lint::to_text(result);
  EXPECT_EQ(lock_order, 1u) << cdsf::lint::to_text(result);
}

TEST(LintEngine, PassIdTyposInSuppressionsAreViolations) {
  const auto files = sources({{"src/a/x.cpp",
                               "int a;  // cdsf-lint: allow(lock-ordr)\n"
                               "int b;  // cdsf-lint: allow(determinism-taint)\n"
                               "int c;  // cdsf-lint: allow(metric-name)\n"}});
  const LintResult result = run_project(files, {});
  ASSERT_EQ(result.violations.size(), 1u) << cdsf::lint::to_text(result);
  EXPECT_EQ(result.violations[0].rule, "unknown-suppression");
  EXPECT_EQ(result.violations[0].line, 1u);
  EXPECT_NE(result.violations[0].message.find("lock-ordr"), std::string::npos);
}

TEST(LintEngine, JsonV2CarriesPassBlocksAndPerDiagnosticPass) {
  const auto files = sources({{"src/x/locks.cpp",
                               "std::mutex mu_a;\n"
                               "std::mutex mu_b;\n"
                               "void forward() {\n"
                               "  std::scoped_lock l1(mu_a);\n"
                               "  std::scoped_lock l2(mu_b);\n"
                               "}\n"
                               "void backward() {\n"
                               "  std::scoped_lock l1(mu_b);\n"
                               "  std::scoped_lock l2(mu_a);\n"
                               "}\n"}});
  const LintResult result = run_project(files, {});
  const cdsf::obs::Json doc = cdsf::lint::to_json(result);
  EXPECT_EQ(doc.at("schema").as_string(), "cdsf.lint_report/2");
  ASSERT_NE(doc.find("passes"), nullptr);
  bool lock_order_block = false;
  for (const auto& entry : doc.at("passes").items()) {
    if (entry.at("name").as_string() == cdsf::lint::kLockOrderPass) {
      lock_order_block = true;
      EXPECT_TRUE(entry.at("ran").as_bool());
      EXPECT_EQ(entry.at("violation_count").as_int(), 1);
    }
  }
  EXPECT_TRUE(lock_order_block);
  ASSERT_EQ(doc.at("violations").size(), 1u);
  EXPECT_EQ(doc.at("violations").items()[0].at("pass").as_string(),
            cdsf::lint::kLockOrderPass);
}

// --- binary contract --------------------------------------------------------

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_binary(const std::string& args) {
  const std::string command = std::string(CDSF_LINT_BINARY) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  CommandResult result;
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof buffer, pipe)) > 0) result.output.append(buffer, n);
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string root(const std::string& rel) { return std::string(CDSF_SOURCE_ROOT) + "/" + rel; }

TEST(LintProjectBinary, ListsAllPassesAndValidatesFlags) {
  const CommandResult listing = run_binary("--list-passes");
  EXPECT_EQ(listing.exit_code, 0);
  for (const std::string& pass : cdsf::lint::all_pass_ids()) {
    EXPECT_NE(listing.output.find(pass), std::string::npos) << pass;
  }
  // Project flags are validated up front: exit 2, not a crash or a pass.
  const std::string fixture = std::string(CDSF_LINT_FIXTURES) + "/clean.cxx";
  EXPECT_EQ(run_binary("--pass include-layering " + fixture).exit_code, 2);
  EXPECT_EQ(run_binary("--pass no-such-pass " + fixture).exit_code, 2);
  EXPECT_EQ(run_binary("--graph-dot /tmp/x.dot " + fixture).exit_code, 2);
  EXPECT_EQ(run_binary("--layering no/such/manifest.json " + fixture).exit_code, 2);
}

TEST(LintProjectBinary, RealTreeIsCleanUnderAllPasses) {
  // The exact lint_tree CI invocation: every pass, every scanned root, the
  // checked-in manifests. The tree must stay at zero active violations.
  const CommandResult result = run_binary(
      "--json --layering " + root("tools/layering.json") + " --registry " +
      root("tools/obs_registry.json") + " --metrics-doc " + root("docs/observability.md") +
      " " + root("src") + " " + root("tests") + " " + root("examples") + " " + root("bench"));
  ASSERT_EQ(result.exit_code, 0) << result.output;
  const cdsf::obs::Json doc = cdsf::obs::Json::parse(result.output);
  EXPECT_TRUE(doc.at("clean").as_bool());
  ASSERT_EQ(doc.at("passes").size(), 5u);
  for (const auto& pass : doc.at("passes").items()) {
    EXPECT_TRUE(pass.at("ran").as_bool()) << pass.at("name").as_string();
    EXPECT_EQ(pass.at("violation_count").as_int(), 0) << pass.at("name").as_string();
  }
}

TEST(LintProjectBinary, WritesTheLayeringDotExport) {
  const std::string dot_path = ::testing::TempDir() + "lint_layering.dot";
  std::remove(dot_path.c_str());
  const CommandResult result = run_binary("--layering " + root("tools/layering.json") +
                                          " --graph-dot " + dot_path + " " + root("src"));
  EXPECT_EQ(result.exit_code, 0) << result.output;
  std::ifstream in(dot_path);
  ASSERT_TRUE(in.good());
  std::string dot((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(dot.find("digraph layering"), std::string::npos);
  EXPECT_NE(dot.find("\"svc\" -> \"cdsf\""), std::string::npos) << dot;
}

}  // namespace
