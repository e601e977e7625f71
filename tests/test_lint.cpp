// cdsf_lint engine + rules + CLI contract.
//
// Three layers:
//   1. Scrubber / suppression parsing on in-memory sources.
//   2. Rule semantics on synthetic sources with controlled paths.
//   3. The fixture files under tests/lint_fixtures/ (exact diagnostics) and
//      the installed cdsf_lint binary (exact exit codes, --json shape).
//
// CDSF_LINT_FIXTURES and CDSF_LINT_BINARY are injected by tests/CMakeLists.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "lint/engine.hpp"
#include "lint/rules.hpp"
#include "lint/source.hpp"
#include "obs/json.hpp"

namespace {

using cdsf::lint::Diagnostic;
using cdsf::lint::LintResult;
using cdsf::lint::SourceFile;

LintResult lint_text(const std::string& path, const std::string& text) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile::from_string(path, text));
  return cdsf::lint::run_rules(files, cdsf::lint::default_rules());
}

std::vector<std::pair<std::string, std::size_t>> rule_lines(const std::vector<Diagnostic>& ds) {
  std::vector<std::pair<std::string, std::size_t>> out;
  out.reserve(ds.size());
  for (const Diagnostic& d : ds) out.emplace_back(d.rule, d.line);
  return out;
}

// --- scrubber ---------------------------------------------------------------

TEST(LintSource, BlanksCommentsAndLiteralsPreservingOffsets) {
  const std::string text =
      "int a = 1; // rand()\n"
      "const char* s = \"rand()\";\n"
      "/* system_clock */ int b = 2;\n"
      "const char c = 'x';\n";
  const SourceFile file = SourceFile::from_string("x.cpp", text);
  ASSERT_EQ(file.scrubbed().size(), file.raw().size());
  EXPECT_EQ(file.scrubbed().find("rand"), std::string::npos);
  EXPECT_EQ(file.scrubbed().find("system_clock"), std::string::npos);
  EXPECT_NE(file.scrubbed().find("int a = 1;"), std::string::npos);
  EXPECT_NE(file.scrubbed().find("int b = 2;"), std::string::npos);
  // Quotes stay so string boundaries remain visible; contents are blanked.
  EXPECT_NE(file.scrubbed().find("\"      \""), std::string::npos);
}

TEST(LintSource, HandlesRawStringsAndDigitSeparators) {
  const std::string text =
      "auto j = R\"json({\"x\": \"rand()\"})json\";\n"
      "int big = 1'000'000;\n"
      "int after = 3;\n";
  const SourceFile file = SourceFile::from_string("x.cpp", text);
  EXPECT_EQ(file.scrubbed().find("rand"), std::string::npos);
  // The digit separator must not open a char literal and swallow the rest.
  EXPECT_NE(file.scrubbed().find("int after = 3;"), std::string::npos);
}

TEST(LintSource, HandlesCustomDelimiterAndPrefixedRawStrings) {
  const std::string text =
      "auto a = R\"x(rand() \")\" still inside)x\";\n"
      "auto b = u8R\"(system_clock)\";\n"
      "auto c = LR\"d!(mt19937)d!\";\n"
      "int after = 7;\n";
  const SourceFile file = SourceFile::from_string("x.cpp", text);
  EXPECT_EQ(file.scrubbed().find("rand"), std::string::npos);
  EXPECT_EQ(file.scrubbed().find("system_clock"), std::string::npos);
  EXPECT_EQ(file.scrubbed().find("mt19937"), std::string::npos);
  // A custom delimiter means `")` inside the literal must NOT close it.
  EXPECT_NE(file.scrubbed().find("int after = 7;"), std::string::npos);
}

TEST(LintSource, HandlesPrefixedCharLiterals) {
  const std::string text =
      "char32_t a = U'x';\n"
      "wchar_t b = L')';\n"
      "auto c = u8'\"';\n"
      "int big = 1'000'000;\n"  // digit separators still must not open a literal
      "int after = 9;\n";
  const SourceFile file = SourceFile::from_string("x.cpp", text);
  EXPECT_NE(file.scrubbed().find("int after = 9;"), std::string::npos);
  // The quote inside L')' is blanked, so it cannot unbalance bracket matching.
  EXPECT_EQ(file.scrubbed().find("')'"), std::string::npos);
}

TEST(LintSource, LineCommentContinuesAcrossBackslashSplice) {
  const std::string text =
      "// first line \\\n"
      "rand() still commented\n"
      "int live = rand_limit;\n";
  const SourceFile file = SourceFile::from_string("x.cpp", text);
  EXPECT_EQ(file.scrubbed().find("rand()"), std::string::npos);
  EXPECT_NE(file.scrubbed().find("int live = rand_limit;"), std::string::npos);
}

TEST(LintSource, ParsesLineAndFileSuppressions) {
  const std::string text =
      "// cdsf-lint: allow-file(wall-clock)\n"
      "int a;\n"
      "int b; // cdsf-lint: allow(rng-source)\n"
      "// cdsf-lint: allow(bare-mutex-lock)\n"
      "int c;\n";
  const SourceFile file = SourceFile::from_string("x.cpp", text);
  ASSERT_EQ(file.suppressions().size(), 3u);
  EXPECT_TRUE(file.suppressed("wall-clock", 1));
  EXPECT_TRUE(file.suppressed("wall-clock", 999));  // file-wide
  EXPECT_TRUE(file.suppressed("rng-source", 3));
  EXPECT_FALSE(file.suppressed("rng-source", 4));
  EXPECT_TRUE(file.suppressed("bare-mutex-lock", 5));  // own-line -> next line
  EXPECT_FALSE(file.suppressed("bare-mutex-lock", 3));
}

TEST(LintSource, PlaceholderRuleNamesAreDiscarded) {
  const SourceFile file =
      SourceFile::from_string("x.cpp", "// syntax: cdsf-lint: allow(<rule>)\n");
  EXPECT_TRUE(file.suppressions().empty());
}

// --- rules ------------------------------------------------------------------

TEST(LintRules, RngSourceFlagsRawEnginesEverywhereButRngHpp) {
  const std::string text =
      "#include <random>\n"
      "int roll() { return rand() % 6; }\n"
      "std::mt19937 engine{std::random_device{}()};\n"
      "int draw = gen.rand() + gen->drand48();\n"  // member calls: someone's API
      "struct Dice { int rand() const; long rand_r(unsigned* s); };\n";  // declarations
  const LintResult hit = lint_text("src/stats/x.cpp", text);
  EXPECT_EQ(rule_lines(hit.violations),
            (std::vector<std::pair<std::string, std::size_t>>{
                {"rng-source", 2}, {"rng-source", 3}, {"rng-source", 3}}));
  const LintResult exempt = lint_text("src/util/rng.hpp", text);
  EXPECT_TRUE(exempt.violations.empty());
}

TEST(LintRules, WallClockOnlyFiresInDeterministicPaths) {
  const std::string text =
      "#include <chrono>\n"
      "auto t = std::chrono::system_clock::now();\n"
      "long u = time(nullptr);\n"
      "long v = event.time();\n";  // member call: not libc time()
  const LintResult sim_hit = lint_text("src/sim/x.cpp", text);
  EXPECT_EQ(rule_lines(sim_hit.violations),
            (std::vector<std::pair<std::string, std::size_t>>{{"wall-clock", 2},
                                                              {"wall-clock", 3}}));
  EXPECT_TRUE(lint_text("src/obs/x.cpp", text).violations.empty());
  EXPECT_TRUE(lint_text("bench/x.cpp", text).violations.empty());
}

TEST(LintRules, SvcWallClockFiresEverywhereInSvcButTheVirtualTimeSource) {
  const std::string text =
      "#include <chrono>\n"
      "auto t = std::chrono::steady_clock::now();\n"
      "long u = time(nullptr);\n"
      "long v = clock.now();\n";  // member call: the VirtualClock, not libc
  const LintResult svc_hit = lint_text("src/svc/service.cpp", text);
  EXPECT_EQ(rule_lines(svc_hit.violations),
            (std::vector<std::pair<std::string, std::size_t>>{{"svc-wall-clock", 2},
                                                              {"svc-wall-clock", 3}}));
  // The one sanctioned time source is exempt; non-svc paths are not this
  // rule's business (src/sim etc. are WallClockRule's).
  EXPECT_TRUE(lint_text("src/svc/virtual_time.hpp", text).violations.empty());
  EXPECT_TRUE(lint_text("src/obs/x.cpp", text).violations.empty());
  const LintResult sim_hit = lint_text("src/sim/x.cpp", text);
  for (const Diagnostic& diagnostic : sim_hit.violations) {
    EXPECT_EQ(diagnostic.rule, "wall-clock");
  }
}

TEST(LintRules, UnorderedIterationFlagsRangeForAndBeginButNotLookup) {
  const std::string text =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> table;\n"
      "int f() {\n"
      "  int s = 0;\n"
      "  for (const auto& [k, v] : table) s += v;\n"
      "  auto it = table.begin();\n"
      "  return s + (table.find(0) != table.end() ? 1 : 0);\n"
      "}\n";
  const LintResult result = lint_text("src/obs/x.cpp", text);
  EXPECT_EQ(rule_lines(result.violations),
            (std::vector<std::pair<std::string, std::size_t>>{{"unordered-iteration", 5},
                                                              {"unordered-iteration", 6}}));
}

TEST(LintRules, BareMutexLockFlagsMemberCallsButNotWeakPtrOrGuards) {
  const std::string text =
      "void f(std::mutex& m, std::weak_ptr<int>& weak) {\n"
      "  m.lock();\n"
      "  m.unlock();\n"
      "  std::scoped_lock lock(m);\n"
      "  auto strong = weak.lock();\n"
      "}\n";
  const LintResult result = lint_text("src/sim/x.cpp", text);
  EXPECT_EQ(rule_lines(result.violations),
            (std::vector<std::pair<std::string, std::size_t>>{{"bare-mutex-lock", 2},
                                                              {"bare-mutex-lock", 3}}));
}

TEST(LintRules, ReportSchemaTagRequiresSetSchemaInObsReportBuilders) {
  const std::string text =
      "Json make_x_report(int v) {\n"
      "  Json doc = Json::object();\n"
      "  doc.set(\"value\", v);\n"
      "  return doc;\n"
      "}\n"
      "Json make_y_report(int v);\n"  // declaration: ignored
      "Json make_widget(int v) { return Json(); }\n";  // not a report builder
  const LintResult obs_hit = lint_text("src/obs/report.cpp", text);
  EXPECT_EQ(rule_lines(obs_hit.violations),
            (std::vector<std::pair<std::string, std::size_t>>{{"report-schema-tag", 1}}));
  EXPECT_TRUE(lint_text("src/sim/report.cpp", text).violations.empty());
}

TEST(LintRules, MetricNameEnforcesSubsystemPrefixOutsideTests) {
  const std::string text =
      "void f(obs::MetricsRegistry& metrics, stats::StreamingSummary& summary) {\n"
      "  metrics.add(\"sim.chunks\");\n"
      "  metrics.add(\"chunks\");\n"
      "  metrics.observe(\"sim.Makespan\", 1.0);\n"
      "  metrics.set_gauge(\"cdsf.stage1.phi1\", 0.5);\n"
      "  metrics.set_histogram_bounds(\"obs.q\", {1.0, 2.0});\n"
      "  metrics.add(computed_name);\n"  // non-literal name: out of scope
      "  summary.add(4.0);\n"            // different API entirely
      "  obs::ScopedTimer timer(metrics, \"stage2.seconds\");\n"
      "}\n";
  const LintResult hit = lint_text("src/sim/x.cpp", text);
  EXPECT_EQ(rule_lines(hit.violations),
            (std::vector<std::pair<std::string, std::size_t>>{
                {"metric-name", 3}, {"metric-name", 4}, {"metric-name", 9}}))
      << cdsf::lint::to_text(hit);
  // Unit tests name throwaway local-registry series freely.
  EXPECT_TRUE(lint_text("tests/test_x.cpp", text).violations.empty());
}

TEST(LintRules, UnknownSuppressionIsAViolation) {
  const LintResult result =
      lint_text("src/x.cpp", "int a; // cdsf-lint: allow(no-such-rule)\n");
  EXPECT_EQ(rule_lines(result.violations),
            (std::vector<std::pair<std::string, std::size_t>>{{"unknown-suppression", 1}}));
}

// --- fixtures ---------------------------------------------------------------

std::string fixture(const std::string& name) {
  return std::string(CDSF_LINT_FIXTURES) + "/" + name;
}

LintResult lint_fixture(const std::string& name) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile::load(fixture(name)));
  return cdsf::lint::run_rules(files, cdsf::lint::default_rules());
}

TEST(LintFixtures, CleanFileHasNoFindings) {
  const LintResult result = lint_fixture("clean.cxx");
  EXPECT_TRUE(result.violations.empty()) << cdsf::lint::to_text(result);
  EXPECT_TRUE(result.suppressed.empty());
}

TEST(LintFixtures, ViolationsFileTripsEachPathIndependentRule) {
  const LintResult result = lint_fixture("violations.cxx");
  EXPECT_EQ(rule_lines(result.violations),
            (std::vector<std::pair<std::string, std::size_t>>{
                {"rng-source", 11},
                {"rng-source", 13},
                {"rng-source", 13},
                {"unordered-iteration", 19},
                {"bare-mutex-lock", 26},
                {"bare-mutex-lock", 27}}))
      << cdsf::lint::to_text(result);
}

TEST(LintFixtures, WallClockFixtureTripsOnlyInsideSimPath) {
  const LintResult result = lint_fixture("sim/wall_clock.cxx");
  EXPECT_EQ(rule_lines(result.violations),
            (std::vector<std::pair<std::string, std::size_t>>{{"wall-clock", 10},
                                                              {"wall-clock", 14}}))
      << cdsf::lint::to_text(result);
}

TEST(LintFixtures, UntaggedReportFixtureTripsSchemaRule) {
  const LintResult result = lint_fixture("obs/untagged_report.cxx");
  EXPECT_EQ(rule_lines(result.violations),
            (std::vector<std::pair<std::string, std::size_t>>{{"report-schema-tag", 8}}))
      << cdsf::lint::to_text(result);
}

TEST(LintFixtures, ScrubEdgeCasesFileIsClean) {
  // Raw strings with custom delimiters and encoding prefixes, a
  // line-spliced comment, and prefixed char literals — every rule token in
  // the file is inside a literal or comment. Re-rooted under src/sim/ so
  // the path-gated wall-clock rule is armed too.
  std::ifstream in(fixture("scrub_edges.cxx"));
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::vector<SourceFile> files;
  files.push_back(SourceFile::from_string("src/sim/scrub_edges.cxx", text));
  const LintResult result = cdsf::lint::run_rules(files, cdsf::lint::default_rules());
  EXPECT_TRUE(result.violations.empty()) << cdsf::lint::to_text(result);
  EXPECT_TRUE(result.suppressed.empty());
}

TEST(LintFixtures, SuppressedFileIsCleanWithListedSuppressions) {
  const LintResult result = lint_fixture("suppressed.cxx");
  EXPECT_TRUE(result.violations.empty()) << cdsf::lint::to_text(result);
  EXPECT_EQ(rule_lines(result.suppressed),
            (std::vector<std::pair<std::string, std::size_t>>{{"rng-source", 12},
                                                              {"bare-mutex-lock", 17},
                                                              {"bare-mutex-lock", 18}}));
  EXPECT_EQ(result.exit_code(), 0);
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

TEST(LintBinary, ExitCodesFollowTheContract) {
  EXPECT_EQ(run_binary(fixture("clean.cxx")).exit_code, 0);
  EXPECT_EQ(run_binary(fixture("suppressed.cxx")).exit_code, 0);
  EXPECT_EQ(run_binary(fixture("violations.cxx")).exit_code, 1);
  EXPECT_EQ(run_binary(fixture("sim/wall_clock.cxx")).exit_code, 1);
  EXPECT_EQ(run_binary("--no-such-flag").exit_code, 2);
  EXPECT_EQ(run_binary(fixture("missing.cxx")).exit_code, 2);
  EXPECT_EQ(run_binary("--rule no-such-rule " + fixture("clean.cxx")).exit_code, 2);
}

TEST(LintBinary, TextOutputCarriesExactDiagnostics) {
  const CommandResult result = run_binary(fixture("violations.cxx"));
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("violations.cxx:11: error: [rng-source]"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("violations.cxx:19: error: [unordered-iteration]"),
            std::string::npos);
  EXPECT_NE(result.output.find("violations.cxx:26: error: [bare-mutex-lock]"),
            std::string::npos);
  EXPECT_NE(result.output.find("6 violation(s), 0 suppressed"), std::string::npos);
}

TEST(LintBinary, JsonOutputParsesAndCountsMatch) {
  const CommandResult result =
      run_binary("--json " + fixture("violations.cxx") + " " + fixture("suppressed.cxx"));
  EXPECT_EQ(result.exit_code, 1);
  const cdsf::obs::Json doc = cdsf::obs::Json::parse(result.output);
  EXPECT_EQ(doc.at("schema").as_string(), "cdsf.lint_report/2");
  EXPECT_EQ(doc.at("files_scanned").as_int(), 2);
  EXPECT_EQ(doc.at("violation_count").as_int(), 6);
  EXPECT_EQ(doc.at("suppression_count").as_int(), 3);
  EXPECT_FALSE(doc.at("clean").as_bool());
  EXPECT_EQ(doc.at("violations").size(), 6u);
  EXPECT_EQ(doc.at("suppressions").size(), 3u);
}

TEST(LintBinary, RuleFilterRunsOnlyTheNamedRule) {
  const CommandResult result = run_binary("--rule rng-source " + fixture("violations.cxx"));
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("3 violation(s)"), std::string::npos) << result.output;
  EXPECT_EQ(result.output.find("bare-mutex-lock"), std::string::npos);
}

}  // namespace
