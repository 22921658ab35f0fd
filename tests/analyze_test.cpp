// Self-tests for tools/analyze (quicsteps-analyze).
//
// The fixture trees under tools/analyze/testdata/ pin every rule family:
//   violations/  one deliberate violation per rule, line numbers fixed
//   layering/    seeded upward include + include cycle + unknown layer
//   clean/       a file the analyzer must pass with zero findings
// The SARIF reporter is golden-tested byte-for-byte against
// expected_violations.sarif so downstream consumers (CI annotations, SARIF
// viewers) can rely on the exact shape.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/analyzer.hpp"
#include "analyze/baseline.hpp"
#include "analyze/lexer.hpp"
#include "analyze/report.hpp"
#include "analyze/rule.hpp"

namespace {

using quicsteps::analyze::AnalysisResult;
using quicsteps::analyze::Baseline;
using quicsteps::analyze::Finding;
using quicsteps::analyze::LayerManifest;
using quicsteps::analyze::LexResult;
using quicsteps::analyze::Options;
using quicsteps::analyze::TokKind;

// Set by tests/CMakeLists.txt to <repo>/tools/analyze.
const std::string kAnalyzeDir = QS_ANALYZE_DIR;
const std::string kTestdata = kAnalyzeDir + "/testdata";
const std::string kLayersJson = kAnalyzeDir + "/layers.json";

std::string read_file_or_die(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// "file:line rule-id" per finding, in the analyzer's reporting order.
std::vector<std::string> finding_keys(const AnalysisResult& result) {
  std::vector<std::string> keys;
  for (const auto& f : result.findings) {
    keys.push_back(f.file + ":" + std::to_string(f.line) + " " + f.rule_id);
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(AnalyzeLexer, CommentsProduceNoTokens) {
  LexResult r = quicsteps::analyze::lex(
      "// rand() in a line comment\n"
      "/* std::chrono in a block\n   comment */ int x;\n");
  ASSERT_EQ(r.tokens.size(), 3u);
  EXPECT_TRUE(r.tokens[0].is_id("int"));
  EXPECT_TRUE(r.tokens[1].is_id("x"));
  EXPECT_TRUE(r.tokens[2].is_punct(";"));
  // The block comment swallowed a newline: `int` sits on line 3.
  EXPECT_EQ(r.tokens[0].line, 3);
}

TEST(AnalyzeLexer, StringBodiesAreTypedNotIdentifiers) {
  LexResult r = quicsteps::analyze::lex("const char* s = \"rand() time()\";");
  int strings = 0;
  for (const auto& t : r.tokens) {
    EXPECT_FALSE(t.is_id("rand"));
    if (t.kind == TokKind::kString) ++strings;
  }
  EXPECT_EQ(strings, 1);
}

TEST(AnalyzeLexer, RawStringsAndDigitSeparators) {
  LexResult r = quicsteps::analyze::lex(
      "auto s = R\"(srand(1) \" quote)\";\n"
      "long long n = 1'000'000;\n");
  bool saw_raw = false, saw_number = false;
  for (const auto& t : r.tokens) {
    if (t.kind == TokKind::kString && t.text == "srand(1) \" quote") {
      saw_raw = true;
    }
    if (t.kind == TokKind::kNumber && t.text == "1'000'000") {
      saw_number = true;
    }
    EXPECT_FALSE(t.is_id("srand"));  // raw-string body must not leak out
  }
  EXPECT_TRUE(saw_raw);
  EXPECT_TRUE(saw_number);
}

TEST(AnalyzeLexer, IncludeExtractionAndPragmaOnce) {
  LexResult r = quicsteps::analyze::lex(
      "#pragma once\n"
      "#include <vector>\n"
      "#include \"sim/time.hpp\"\n");
  EXPECT_TRUE(r.has_pragma_once);
  ASSERT_EQ(r.includes.size(), 2u);
  EXPECT_EQ(r.includes[0].path, "vector");
  EXPECT_TRUE(r.includes[0].angle);
  EXPECT_EQ(r.includes[0].line, 2);
  EXPECT_EQ(r.includes[1].path, "sim/time.hpp");
  EXPECT_FALSE(r.includes[1].angle);
  EXPECT_EQ(r.includes[1].line, 3);
}

TEST(AnalyzeLexer, MultiCharPunctuatorsAreSingleTokens) {
  LexResult r = quicsteps::analyze::lex("a && b; std::x; p->q; c || d;");
  int amp_amp = 0, colon_colon = 0, arrow = 0, pipe_pipe = 0, bare_amp = 0;
  for (const auto& t : r.tokens) {
    if (t.is_punct("&&")) ++amp_amp;
    if (t.is_punct("::")) ++colon_colon;
    if (t.is_punct("->")) ++arrow;
    if (t.is_punct("||")) ++pipe_pipe;
    if (t.is_punct("&")) ++bare_amp;
  }
  EXPECT_EQ(amp_amp, 1);
  EXPECT_EQ(colon_colon, 1);
  EXPECT_EQ(arrow, 1);
  EXPECT_EQ(pipe_pipe, 1);
  EXPECT_EQ(bare_amp, 0);
}

TEST(AnalyzeLexer, BackslashNewlineSplicesKeepDirectiveState) {
  LexResult r = quicsteps::analyze::lex(
      "#include \\\n\"sim/time.hpp\"\n"
      "int after;\n");
  ASSERT_EQ(r.includes.size(), 1u);
  EXPECT_EQ(r.includes[0].path, "sim/time.hpp");
  // The identifier after the directive is NOT in_pp.
  for (const auto& t : r.tokens) {
    if (t.is_id("after")) {
      EXPECT_FALSE(t.in_pp);
    }
    if (t.is_id("include")) {
      EXPECT_TRUE(t.in_pp);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------------

TEST(AnalyzeRules, RegistryListsAllTwelveRules) {
  const auto& rules = quicsteps::analyze::all_rules();
  EXPECT_EQ(rules.size(), 12u);
  EXPECT_TRUE(quicsteps::analyze::known_rule("determinism/wall-clock"));
  EXPECT_TRUE(
      quicsteps::analyze::known_rule("determinism/unordered-container"));
  EXPECT_TRUE(quicsteps::analyze::known_rule("layering/cycle"));
  // Deleted rules' ids must fail baseline loads: both perf rules (the
  // syntactic v1 and the call-graph one; test_ack_alloc counts the
  // allocations per wire packet instead), the four whose defect class
  // another gate owns (unordered-container, ThreadSanitizer,
  // -Wconversion), the lambda capture check that function-pointer
  // callbacks made impossible, the slab-borrow and API-protocol checks
  // that had no borrow API or harmful misuse left to check, and the two
  // interval rules (saturating Time/Duration arithmetic, UBSan and the
  // CLI's range checks own int64 overflow).
  for (const char* gone :
       {"perf/hot-path-alloc", "perf/hot-path-alloc-interproc",
        "determinism/exporter-unordered", "determinism/unordered-taint",
        "concurrency/parallel-shared-state", "units/lossy-narrowing",
        "scheduling/ref-capture", "lifetime/use-after-recycle",
        "lifetime/ref-escape", "protocol/typestate",
        "units/interval-overflow", "units/div-by-zero-rate"}) {
    EXPECT_FALSE(quicsteps::analyze::known_rule(gone)) << gone;
  }
  EXPECT_FALSE(quicsteps::analyze::known_rule("determinism/flux-capacitor"));
  EXPECT_EQ(quicsteps::analyze::rule_family("units/raw-rate-type"), "units");
}

// ---------------------------------------------------------------------------
// Violations fixture: every non-layering rule, exact file:line
// ---------------------------------------------------------------------------

// (assigned via a named string: GCC 12's inliner false-positives
// -Werror=restrict on short-literal assignment here)
const std::string kNoLayers = "-";

AnalysisResult run_violations() {
  Options opts;
  opts.root = kTestdata + "/violations";
  opts.paths = {opts.root};
  opts.include_base = opts.root;
  opts.layers_file = kNoLayers;  // fixture tree is not the real layer stack
  return quicsteps::analyze::run_analysis(opts);
}

TEST(AnalyzeViolationsFixture, FindsEachSeededViolationOnItsPinnedLine) {
  AnalysisResult result = run_violations();
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.files_scanned, 7u);
  const std::vector<std::string> expected = {
      "determinism_misc.cpp:7 determinism/random-device",
      "determinism_misc.cpp:12 determinism/unordered-container",
      "determinism_misc.cpp:17 determinism/thread-sleep",
      "determinism_misc.cpp:18 determinism/wall-clock",
      "determinism_misc.cpp:22 determinism/unordered-container",
      "determinism_rand.cpp:5 determinism/libc-rand",
      "determinism_rand.cpp:6 determinism/libc-rand",
      "determinism_rand.cpp:10 determinism/libc-rand",
      "determinism_wall.cpp:7 determinism/wall-clock",
      "determinism_wall.cpp:9 determinism/wall-clock",
      "determinism_wall.cpp:18 determinism/wall-clock",
      "exporter_unordered.cpp:7 determinism/unordered-container",
      "missing_guard.hpp:1 determinism/include-guard",
      "units_raw.cpp:5 units/raw-time-type",
      "units_raw.cpp:6 units/raw-rate-type",
      "units_raw.cpp:10 units/raw-time-type",
      "units_rewrap.cpp:7 units/unwrap-rewrap",
      "units_rewrap.cpp:11 units/unwrap-rewrap",
  };
  EXPECT_EQ(finding_keys(result), expected);
  EXPECT_EQ(result.active_count, expected.size());
  EXPECT_EQ(result.baselined_count, 0u);
}

TEST(AnalyzeViolationsFixture, RuleFamilyFilterNarrowsTheRun) {
  Options opts;
  opts.root = kTestdata + "/violations";
  opts.paths = {opts.root};
  opts.include_base = opts.root;
  opts.layers_file = "-";
  opts.rule_families = {"units"};
  AnalysisResult result = quicsteps::analyze::run_analysis(opts);
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.rules_run, 3u);  // the three units/* rules
  for (const auto& f : result.findings) {
    EXPECT_EQ(quicsteps::analyze::rule_family(f.rule_id), "units") << f.rule_id;
  }
  EXPECT_EQ(result.findings.size(), 5u);
}

TEST(AnalyzeViolationsFixture, UnknownRuleFamilyIsAConfigError) {
  // A misspelled family would otherwise run zero rules and pass.
  Options opts;
  opts.root = kTestdata + "/violations";
  opts.paths = {opts.root};
  opts.include_base = opts.root;
  opts.layers_file = kNoLayers;
  opts.rule_families = {"units", "determinsim"};
  AnalysisResult result = quicsteps::analyze::run_analysis(opts);
  EXPECT_EQ(result.error,
            "unknown rule family 'determinsim' (known: layering, units, "
            "determinism)");
  EXPECT_EQ(result.rules_run, 0u);
  EXPECT_TRUE(result.findings.empty());
}

// ---------------------------------------------------------------------------
// Clean fixture
// ---------------------------------------------------------------------------

TEST(AnalyzeCleanFixture, ReportsNothing) {
  Options opts;
  opts.root = kTestdata + "/clean";
  opts.paths = {opts.root};
  opts.include_base = opts.root;
  opts.layers_file = "-";
  AnalysisResult result = quicsteps::analyze::run_analysis(opts);
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.files_scanned, 1u);
  EXPECT_TRUE(result.findings.empty());
}

// ---------------------------------------------------------------------------
// Layering fixture: upward include, cycle, unknown layer — against the
// real checked-in layers.json
// ---------------------------------------------------------------------------

TEST(AnalyzeLayeringFixture, RejectsUpwardIncludeCycleAndUnknownLayer) {
  Options opts;
  opts.root = kTestdata + "/layering";
  opts.paths = {opts.root};
  opts.include_base = opts.root;
  opts.layers_file = kLayersJson;
  AnalysisResult result = quicsteps::analyze::run_analysis(opts);
  ASSERT_TRUE(result.error.empty()) << result.error;
  const std::vector<std::string> expected = {
      "mystery/thing.hpp:1 layering/unknown-layer",
      "quic/a.hpp:4 layering/cycle",
      "sim/clock.hpp:4 layering/upward-include",
  };
  EXPECT_EQ(finding_keys(result), expected);

  for (const auto& f : result.findings) {
    if (f.rule_id == "layering/cycle") {
      EXPECT_EQ(f.message, "include cycle: quic/a.hpp -> quic/b.hpp");
    }
    if (f.rule_id == "layering/upward-include") {
      EXPECT_NE(f.message.find("layer 'sim'"), std::string::npos) << f.message;
      EXPECT_NE(f.message.find("framework/report.hpp"), std::string::npos)
          << f.message;
    }
  }
}

TEST(AnalyzeLayering, RealManifestLoadsAndDeclaresTheStack) {
  LayerManifest manifest;
  std::string error;
  ASSERT_TRUE(quicsteps::analyze::load_layer_manifest(
      read_file_or_die(kLayersJson), &manifest, &error))
      << error;
  for (const char* layer : {"core", "check", "obs", "sim", "net", "kernel",
                            "cc", "pacing", "metrics", "quic", "stacks",
                            "tcp", "framework"}) {
    EXPECT_TRUE(manifest.declared(layer)) << layer;
  }
  EXPECT_TRUE(manifest.is_universal("core"));
  EXPECT_TRUE(manifest.is_universal("check"));
  EXPECT_TRUE(manifest.is_universal("obs"));
  EXPECT_FALSE(manifest.is_universal("sim"));
}

// ---------------------------------------------------------------------------
// --fix-baseline: stale entries are dropped in place
// ---------------------------------------------------------------------------

TEST(AnalyzeBaseline, FixBaselineRewritesStaleEntriesInPlace) {
  const std::string path =
      ::testing::TempDir() + "/qs-fix-baseline-test.txt";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "# live entry (units_raw.cpp really has this finding)\n"
        << "units_raw.cpp:units/raw-time-type\n"
        << "# stale entry: nothing in the fixture matches it\n"
        << "never.cpp:determinism/wall-clock\n";
  }

  Options opts;
  opts.root = kTestdata + "/violations";
  opts.paths = {opts.root};
  opts.include_base = opts.root;
  opts.layers_file = kNoLayers;
  opts.baseline_files = {path};
  opts.fix_baseline = true;
  AnalysisResult result = quicsteps::analyze::run_analysis(opts);
  ASSERT_TRUE(result.error.empty()) << result.error;
  ASSERT_EQ(result.rewritten_baselines.size(), 1u);
  EXPECT_EQ(result.rewritten_baselines[0], path);

  const std::string fixed = read_file_or_die(path);
  EXPECT_NE(fixed.find("units_raw.cpp:units/raw-time-type"),
            std::string::npos);
  EXPECT_EQ(fixed.find("never.cpp"), std::string::npos) << fixed;
  // Comments survive the rewrite.
  EXPECT_NE(fixed.find("# live entry"), std::string::npos);

  std::filesystem::remove(path);
}

TEST(AnalyzeBaseline, FamilyFilteredRunLeavesOtherFamiliesWaiversAlone) {
  // A --rules units run never evaluated determinism/*, so it can neither
  // report that family's waiver stale nor rewrite it away.
  const std::string path =
      ::testing::TempDir() + "/qs-filtered-baseline-test.txt";
  const std::string content =
      "units_raw.cpp:units/raw-time-type\n"
      "determinism_wall.cpp:determinism/wall-clock\n";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }

  Options opts;
  opts.root = kTestdata + "/violations";
  opts.paths = {opts.root};
  opts.include_base = opts.root;
  opts.layers_file = kNoLayers;
  opts.baseline_files = {path};
  opts.rule_families = {"units"};
  opts.fix_baseline = true;
  AnalysisResult result = quicsteps::analyze::run_analysis(opts);
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.unused_baseline_entries.empty());
  EXPECT_TRUE(result.rewritten_baselines.empty());
  EXPECT_EQ(read_file_or_die(path), content);

  std::filesystem::remove(path);
}

TEST(AnalyzeLayering, CyclicDeclaredGraphIsAConfigError) {
  LayerManifest manifest;
  std::string error;
  const std::string cyclic =
      "{ \"layers\": { \"a\": [\"b\"], \"b\": [\"a\"] } }";
  EXPECT_FALSE(
      quicsteps::analyze::load_layer_manifest(cyclic, &manifest, &error));
  EXPECT_NE(error.find("cycle"), std::string::npos) << error;
}

TEST(AnalyzeLayering, UndeclaredDepIsAConfigError) {
  LayerManifest manifest;
  std::string error;
  const std::string bad = "{ \"layers\": { \"a\": [\"ghost\"] } }";
  EXPECT_FALSE(
      quicsteps::analyze::load_layer_manifest(bad, &manifest, &error));
  EXPECT_NE(error.find("ghost"), std::string::npos) << error;
}

TEST(AnalyzeLayering, MissingManifestFileIsAConfigErrorNotClean) {
  Options opts;
  opts.root = kTestdata + "/clean";
  opts.paths = {opts.root};
  opts.include_base = opts.root;
  opts.layers_file = kTestdata + "/no-such-layers.json";
  AnalysisResult result = quicsteps::analyze::run_analysis(opts);
  EXPECT_FALSE(result.error.empty());
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

TEST(AnalyzeBaseline, WaivesMatchingFindingsAndReportsStaleEntries) {
  Baseline baseline;
  std::string error;
  ASSERT_TRUE(baseline.load(
      "# comment\n"
      "src/sim/foo.cpp:units/raw-time-type\n"
      "src/never/matched.cpp:determinism/wall-clock\n",
      "test-baseline", &error))
      << error;
  EXPECT_EQ(baseline.size(), 2u);

  Finding hit{"units/raw-time-type", "src/sim/foo.cpp", 10, 3, "m", false, {}};
  Finding miss{"units/raw-rate-type", "src/sim/foo.cpp", 11, 3, "m", false,
               {}};
  EXPECT_TRUE(baseline.matches(hit));
  EXPECT_FALSE(baseline.matches(miss));

  std::vector<std::string> stale = baseline.unused();
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_NE(stale[0].find("src/never/matched.cpp"), std::string::npos);
}

TEST(AnalyzeBaseline, UnknownRuleIdFailsLoud) {
  Baseline baseline;
  std::string error;
  EXPECT_FALSE(baseline.load("src/a.cpp:units/imaginary-rule\n",
                             "test-baseline", &error));
  EXPECT_NE(error.find("imaginary-rule"), std::string::npos) << error;
}

TEST(AnalyzeBaseline, CheckedInBaselineStillMatchesTheTree) {
  // The real baseline against the real src/: loading must succeed, every
  // entry must still be in use, and src/ must be clean. This is the same
  // gate `ctest -R analyze` runs through the CLI.
  Options opts;
  opts.root = kAnalyzeDir + "/../..";
  AnalysisResult result = quicsteps::analyze::run_analysis(opts);
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.active_count, 0u) << quicsteps::analyze::text_report(
      result.findings);
  EXPECT_TRUE(result.unused_baseline_entries.empty());
}

// ---------------------------------------------------------------------------
// Reporters
// ---------------------------------------------------------------------------

TEST(AnalyzeReport, TextReportPinsTheGccStyleFormat) {
  std::vector<Finding> findings = {
      {"units/raw-time-type", "src/sim/time.cpp", 12, 9, "raw int64_t", false,
       {}},
      {"determinism/wall-clock", "src/a.cpp", 3, 1, "wall clock", true, {}},
  };
  EXPECT_EQ(quicsteps::analyze::text_report(findings),
            "src/sim/time.cpp:12:9: [units/raw-time-type] raw int64_t\n");
}

TEST(AnalyzeReport, TextReportEmitsMachineReadableFixits) {
  quicsteps::analyze::FixIt fix;
  fix.description = "replace unordered_map with map";
  fix.line = 12;
  fix.col = 14;
  fix.end_line = 12;
  fix.end_col = 27;
  fix.replacement = "map";
  std::vector<Finding> findings = {
      {"determinism/unordered-container", "src/a.cpp", 12, 9, "unordered",
       false, {fix}},
  };
  EXPECT_EQ(quicsteps::analyze::text_report(findings),
            "src/a.cpp:12:9: [determinism/unordered-container] unordered\n"
            "src/a.cpp:12:14: fix: replace [12:14-12:27] with 'map' "
            "(replace unordered_map with map)\n");
}

TEST(AnalyzeReport, SummaryLinePinsTheFormat) {
  EXPECT_EQ(quicsteps::analyze::summary_line(127, 13, 9, 9, 14),
            "quicsteps-analyze: 127 files, 13 rules, 9 finding(s) "
            "(9 baselined) in 14 ms");
}

TEST(AnalyzeReport, SarifGoldenOverViolationsFixture) {
  AnalysisResult result = run_violations();
  ASSERT_TRUE(result.error.empty()) << result.error;
  const std::string golden =
      read_file_or_die(kTestdata + "/expected_violations.sarif");
  EXPECT_EQ(quicsteps::analyze::sarif_report(result.findings), golden)
      << "regenerate with: quicsteps-analyze --root " << kTestdata
      << "/violations --include-base . --layers - --sarif "
      << kTestdata << "/expected_violations.sarif " << kTestdata
      << "/violations";
}

}  // namespace
