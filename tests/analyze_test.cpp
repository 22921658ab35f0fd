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
#include "analyze/callgraph.hpp"
#include "analyze/cfg.hpp"
#include "analyze/lexer.hpp"
#include "analyze/report.hpp"
#include "analyze/rule.hpp"
#include "analyze/symbols.hpp"

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

TEST(AnalyzeRules, RegistryListsAllTwentyThreeRules) {
  const auto& rules = quicsteps::analyze::all_rules();
  EXPECT_EQ(rules.size(), 23u);
  // The flow-sensitive v3 families ride on the CFG + abstract interpreter.
  EXPECT_TRUE(quicsteps::analyze::known_rule("lifetime/use-after-recycle"));
  EXPECT_TRUE(quicsteps::analyze::known_rule("lifetime/ref-escape"));
  EXPECT_TRUE(quicsteps::analyze::known_rule("units/interval-overflow"));
  EXPECT_TRUE(quicsteps::analyze::known_rule("units/div-by-zero-rate"));
  EXPECT_TRUE(quicsteps::analyze::known_rule("units/lossy-narrowing"));
  EXPECT_TRUE(quicsteps::analyze::known_rule("protocol/typestate"));
  EXPECT_EQ(quicsteps::analyze::rule_family("lifetime/ref-escape"),
            "lifetime");
  EXPECT_EQ(quicsteps::analyze::rule_family("protocol/typestate"), "protocol");
  EXPECT_EQ(quicsteps::analyze::rule_family("units/interval-overflow"),
            "units");
  EXPECT_TRUE(quicsteps::analyze::known_rule("determinism/wall-clock"));
  EXPECT_TRUE(
      quicsteps::analyze::known_rule("determinism/exporter-unordered"));
  EXPECT_TRUE(quicsteps::analyze::known_rule("determinism/unordered-taint"));
  EXPECT_TRUE(quicsteps::analyze::known_rule("layering/cycle"));
  EXPECT_TRUE(
      quicsteps::analyze::known_rule("perf/hot-path-alloc-interproc"));
  EXPECT_TRUE(
      quicsteps::analyze::known_rule("concurrency/parallel-shared-state"));
  // The syntactic v1 perf rule is gone; its id must fail baseline loads.
  EXPECT_FALSE(quicsteps::analyze::known_rule("perf/hot-path-alloc"));
  EXPECT_FALSE(quicsteps::analyze::known_rule("determinism/flux-capacitor"));
  EXPECT_EQ(quicsteps::analyze::rule_family("units/raw-rate-type"), "units");
  EXPECT_EQ(quicsteps::analyze::rule_family("perf/hot-path-alloc-interproc"),
            "perf");
  EXPECT_EQ(
      quicsteps::analyze::rule_family("concurrency/parallel-shared-state"),
      "concurrency");
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
  EXPECT_EQ(result.files_scanned, 8u);
  const std::vector<std::string> expected = {
      "determinism_misc.cpp:7 determinism/random-device",
      "determinism_misc.cpp:12 determinism/unordered-container",
      "determinism_misc.cpp:17 determinism/thread-sleep",
      "determinism_misc.cpp:18 determinism/wall-clock",
      "determinism_rand.cpp:5 determinism/libc-rand",
      "determinism_rand.cpp:6 determinism/libc-rand",
      "determinism_rand.cpp:10 determinism/libc-rand",
      "determinism_wall.cpp:7 determinism/wall-clock",
      "determinism_wall.cpp:9 determinism/wall-clock",
      "determinism_wall.cpp:18 determinism/wall-clock",
      "exporter_unordered.cpp:7 determinism/exporter-unordered",
      "missing_guard.hpp:1 determinism/include-guard",
      "scheduling_capture.cpp:9 scheduling/ref-capture",
      "scheduling_capture.cpp:10 scheduling/ref-capture",
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
  EXPECT_EQ(result.rules_run, 6u);  // the six units/* rules
  for (const auto& f : result.findings) {
    EXPECT_EQ(quicsteps::analyze::rule_family(f.rule_id), "units") << f.rule_id;
  }
  EXPECT_EQ(result.findings.size(), 5u);
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
  // The batched-datapath files are tagged hot_path for perf/hot-path-alloc.
  EXPECT_TRUE(manifest.is_hot_path("sim/event_loop.cpp"));
  EXPECT_TRUE(manifest.is_hot_path("net/packet_slab.hpp"));
  EXPECT_TRUE(manifest.is_hot_path("kernel/nic.cpp"));
  EXPECT_FALSE(manifest.is_hot_path("framework/flows.cpp"));
}

// ---------------------------------------------------------------------------
// Perf fixture: hot-path allocation tagging
// ---------------------------------------------------------------------------

TEST(AnalyzePerf, FlagsHotCallablesAndTransitivelyReachableHelpers) {
  Options opts;
  opts.root = kTestdata + "/perf";
  opts.paths = {opts.root};
  opts.include_base = opts.root;
  opts.layers_file = kTestdata + "/perf/layers.json";
  opts.rule_families = {"perf"};
  AnalysisResult result = quicsteps::analyze::run_analysis(opts);
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.rules_run, 1u);
  EXPECT_EQ(result.files_scanned, 2u);
  // cold() repeats the same patterns untagged and must stay silent, but
  // alloc_helper() — called from hot() across the file boundary — is in
  // the transitive hot set and its allocation is flagged.
  const std::vector<std::string> expected = {
      "cold.cpp:13 perf/hot-path-alloc-interproc",  // via call graph
      "hot.cpp:6 perf/hot-path-alloc-interproc",    // new
      "hot.cpp:7 perf/hot-path-alloc-interproc",    // make_unique
      "hot.cpp:8 perf/hot-path-alloc-interproc",    // make_shared
      "hot.cpp:9 perf/hot-path-alloc-interproc",    // push_back
      "hot.cpp:10 perf/hot-path-alloc-interproc",   // emplace_back
      "hot.cpp:11 perf/hot-path-alloc-interproc",   // schedule_at
      "hot.cpp:12 perf/hot-path-alloc-interproc",   // schedule_after
  };
  EXPECT_EQ(finding_keys(result), expected);
  for (const auto& f : result.findings) {
    if (f.file == "cold.cpp") {
      EXPECT_NE(f.message.find("reachable from the hot-path set"),
                std::string::npos)
          << f.message;
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrency fixture: unsynchronized shared writes from parallel workers
// ---------------------------------------------------------------------------

TEST(AnalyzeConcurrency, FlagsUnsyncedSharedWritesFromWorkers) {
  Options opts;
  opts.root = kTestdata + "/concurrency";
  opts.paths = {opts.root};
  opts.include_base = opts.root;
  opts.layers_file = kTestdata + "/concurrency/layers.json";
  opts.rule_families = {"concurrency"};
  AnalysisResult result = quicsteps::analyze::run_analysis(opts);
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.rules_run, 1u);
  // Three races: the global mutated in a helper one call away, and the
  // spawning frame's local written from two worker thunks. The atomic,
  // lock_guard-protected, and lambda-local writes must all stay silent.
  const std::vector<std::string> expected = {
      "race.cpp:8 concurrency/parallel-shared-state",
      "race.cpp:13 concurrency/parallel-shared-state",
      "race.cpp:16 concurrency/parallel-shared-state",
  };
  EXPECT_EQ(finding_keys(result), expected);
  for (const auto& f : result.findings) {
    if (f.line == 8) {
      EXPECT_NE(f.message.find("non-const global 'shared_hits'"),
                std::string::npos)
          << f.message;
      EXPECT_NE(f.message.find("reaches 'bump_shared'"), std::string::npos)
          << f.message;
    }
    if (f.line == 13 || f.line == 16) {
      EXPECT_NE(f.message.find("by-ref capture 'total'"), std::string::npos)
          << f.message;
      EXPECT_NE(f.message.find("declared at line 11"), std::string::npos)
          << f.message;
    }
  }
}

// ---------------------------------------------------------------------------
// Taint fixture: unordered iteration order flowing to sinks
// ---------------------------------------------------------------------------

TEST(AnalyzeTaint, FollowsUnorderedOrderToSinksAndHonorsLaundering) {
  Options opts;
  opts.root = kTestdata + "/taint";
  opts.paths = {opts.root};
  opts.include_base = opts.root;
  opts.layers_file = kNoLayers;
  opts.rule_families = {"determinism"};
  AnalysisResult result = quicsteps::analyze::run_analysis(opts);
  ASSERT_TRUE(result.error.empty()) << result.error;
  std::vector<std::string> taint_keys;
  for (const auto& f : result.findings) {
    if (f.rule_id == "determinism/unordered-taint") {
      taint_keys.push_back(f.file + ":" + std::to_string(f.line));
    }
  }
  // 15: range-for binding over the unordered map reaches write_row;
  // 17: the container itself reaches dump_counts;
  // 23: the binding is streamed with operator<<.
  // The std::map copy in launder_through_map stays silent (line 31).
  const std::vector<std::string> expected = {
      "taint.cpp:15", "taint.cpp:17", "taint.cpp:23"};
  EXPECT_EQ(taint_keys, expected);
  for (const auto& f : result.findings) {
    if (f.rule_id != "determinism/unordered-taint" || f.line != 17) continue;
    // Machine fix at the SOURCE declaration, not the sink: swap
    // unordered_map for map on line 12.
    ASSERT_EQ(f.fixits.size(), 1u);
    EXPECT_EQ(f.fixits[0].line, 12);
    EXPECT_EQ(f.fixits[0].replacement, "map");
  }
}

// ---------------------------------------------------------------------------
// Symbol index and call graph goldens
// ---------------------------------------------------------------------------

quicsteps::analyze::Model build_fixture_model(const std::string& dir) {
  quicsteps::analyze::Model model;
  std::string error;
  EXPECT_TRUE(
      quicsteps::analyze::build_model({dir}, dir, dir, &model, &error))
      << error;
  return model;
}

const quicsteps::analyze::Symbol* find_symbol(
    const quicsteps::analyze::SymbolIndex& index, const std::string& name) {
  for (const auto& sym : index.symbols) {
    if (sym.name == name) return &sym;
  }
  return nullptr;
}

TEST(AnalyzeSymbols, IndexClassifiesTheSemanticsFixture) {
  using quicsteps::analyze::Symbol;
  const auto model = build_fixture_model(kTestdata + "/semantics");
  const auto index = quicsteps::analyze::build_symbol_index(model);

  const Symbol* global = find_symbol(index, "global_counter");
  ASSERT_NE(global, nullptr);
  EXPECT_EQ(global->kind, Symbol::Kind::kGlobal);
  EXPECT_FALSE(global->is_const);

  const Symbol* limit = find_symbol(index, "kLimit");
  ASSERT_NE(limit, nullptr);
  EXPECT_TRUE(limit->is_const);

  const Symbol* atomic_hits = find_symbol(index, "atomic_hits");
  ASSERT_NE(atomic_hits, nullptr);
  EXPECT_TRUE(atomic_hits->is_atomic);

  const Symbol* gate = find_symbol(index, "gate");
  ASSERT_NE(gate, nullptr);
  EXPECT_TRUE(gate->is_mutex);

  const Symbol* size = find_symbol(index, "size");
  ASSERT_NE(size, nullptr);
  EXPECT_EQ(size->kind, Symbol::Kind::kFunction);
  EXPECT_NE(size->qual_name.find("Widget::size"), std::string::npos)
      << size->qual_name;

  const Symbol* field = find_symbol(index, "n_");
  ASSERT_NE(field, nullptr);
  EXPECT_EQ(field->kind, Symbol::Kind::kField);

  const Symbol* entry = find_symbol(index, "entry");
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->body_begin, Symbol::npos);

  const Symbol* calls = find_symbol(index, "calls");
  ASSERT_NE(calls, nullptr);
  EXPECT_EQ(calls->kind, Symbol::Kind::kStaticLocal);
  EXPECT_EQ(&index.symbols[calls->parent], entry);

  const Symbol* lambda = find_symbol(index, "<lambda>");
  ASSERT_NE(lambda, nullptr);
  EXPECT_EQ(lambda->bound_name, "bump");
  EXPECT_EQ(&index.symbols[lambda->parent], entry);

  // A token inside entry's body resolves to entry.
  const std::size_t inside =
      index.enclosing_callable(entry->file, entry->body_begin + 1);
  EXPECT_EQ(&index.symbols[inside], entry);
}

TEST(AnalyzeSymbols, CallGraphResolvesCallsIncludingBoundLambdas) {
  const auto model = build_fixture_model(kTestdata + "/semantics");
  const auto index = quicsteps::analyze::build_symbol_index(model);
  const auto graph =
      quicsteps::analyze::build_call_graph(model, index, nullptr);

  const auto id_of = [&](const std::string& name) {
    for (std::size_t i = 0; i < index.symbols.size(); ++i) {
      if (index.symbols[i].name == name) return i;
    }
    return quicsteps::analyze::Symbol::npos;
  };
  const std::size_t entry = id_of("entry");
  const std::size_t helper = id_of("helper");
  const std::size_t lambda = id_of("<lambda>");
  ASSERT_NE(entry, quicsteps::analyze::Symbol::npos);

  const auto has_edge = [&](std::size_t from, std::size_t to) {
    const auto& e = graph.edges[from];
    return std::find(e.begin(), e.end(), to) != e.end();
  };
  // entry -> helper (direct call), entry -> lambda (containment plus the
  // bump(x) bound-name call), lambda -> helper (call inside the body).
  EXPECT_TRUE(has_edge(entry, helper));
  EXPECT_TRUE(has_edge(entry, lambda));
  EXPECT_TRUE(has_edge(lambda, helper));
}

TEST(AnalyzeSymbols, HotTagsPropagateTransitivelyOverTheGraph) {
  const auto model = build_fixture_model(kTestdata + "/perf");
  const auto index = quicsteps::analyze::build_symbol_index(model);
  LayerManifest manifest;
  std::string error;
  ASSERT_TRUE(quicsteps::analyze::load_layer_manifest(
      read_file_or_die(kTestdata + "/perf/layers.json"), &manifest, &error))
      << error;
  const auto graph =
      quicsteps::analyze::build_call_graph(model, index, &manifest);

  for (std::size_t i = 0; i < index.symbols.size(); ++i) {
    const auto& sym = index.symbols[i];
    if (!sym.is_callable()) continue;
    if (sym.name == "hot" || sym.name == "alloc_helper") {
      // hot() is seeded by the manifest; alloc_helper (defined in the
      // cold file) is reachable from it, so the tag propagates.
      EXPECT_TRUE(graph.is_hot(i)) << sym.qual_name;
    }
    if (sym.name == "cold") {
      EXPECT_FALSE(graph.is_hot(i)) << sym.qual_name;
    }
  }
}

// ---------------------------------------------------------------------------
// CFG builder: blocks, short-circuit splitting, loop heads
// ---------------------------------------------------------------------------

TEST(AnalyzeCfg, BranchyFixtureLowersToCondBlocksAndLoopHead) {
  using quicsteps::analyze::Cfg;
  const auto model = build_fixture_model(kTestdata + "/cfg");
  const auto index = quicsteps::analyze::build_symbol_index(model);
  const auto cfgs = quicsteps::analyze::build_cfg_index(model, index);

  const Cfg* cfg = nullptr;
  for (const auto& c : cfgs.cfgs) {
    if (index.symbols[c.symbol].name == "classify") cfg = &c;
  }
  ASSERT_NE(cfg, nullptr);

  // Entry and exit are empty plain blocks; the exit has no successors.
  EXPECT_TRUE(cfg->blocks[Cfg::kEntry].stmts.empty());
  EXPECT_TRUE(cfg->blocks[Cfg::kExit].succs.empty());

  // `if (x > 0 && x < 10)` splits at the top-level && into TWO atomic
  // condition blocks; the for loop contributes a third. Every condition
  // block carries exactly one expression and exactly two successors.
  std::size_t conds = 0, loop_heads = 0;
  for (const auto& b : cfg->blocks) {
    if (b.is_cond) {
      ++conds;
      EXPECT_EQ(b.stmts.size(), 1u);
      EXPECT_EQ(b.succs.size(), 2u);
    }
    if (b.is_loop_head) ++loop_heads;
  }
  EXPECT_EQ(conds, 3u);
  EXPECT_EQ(loop_heads, 1u);

  // The RPO seed starts at the entry and never repeats a block.
  ASSERT_FALSE(cfg->rpo.empty());
  EXPECT_EQ(cfg->rpo.front(), Cfg::kEntry);
  std::vector<std::size_t> sorted = cfg->rpo;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

// ---------------------------------------------------------------------------
// Interval fixture: overflow / div-by-zero / narrowing, and the guarded
// negatives the path-sensitivity exists for
// ---------------------------------------------------------------------------

AnalysisResult run_intervals_fixture() {
  Options opts;
  opts.root = kTestdata + "/intervals";
  opts.paths = {opts.root};
  opts.include_base = opts.root;
  opts.layers_file = kNoLayers;
  opts.rule_families = {"units"};
  return quicsteps::analyze::run_analysis(opts);
}

TEST(AnalyzeIntervals, FlagsOverflowDivByZeroAndNarrowingOnPinnedLines) {
  AnalysisResult result = run_intervals_fixture();
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.files_scanned, 2u);
  const std::vector<std::string> expected = {
      "overflow.cpp:11 units/interval-overflow",  // factory scale
      "overflow.cpp:18 units/interval-overflow",  // raw + on unwrapped ns
      "overflow.cpp:23 units/interval-overflow",  // raw * before saturation
      "overflow.cpp:29 units/div-by-zero-rate",   // divisor interval has 0
      "overflow.cpp:34 units/lossy-narrowing",    // int64 ns into int
  };
  EXPECT_EQ(finding_keys(result), expected);
}

TEST(AnalyzeIntervals, NarrowingFindingCarriesAWideningFixit) {
  AnalysisResult result = run_intervals_fixture();
  ASSERT_TRUE(result.error.empty()) << result.error;
  for (const auto& f : result.findings) {
    if (f.rule_id != "units/lossy-narrowing") continue;
    ASSERT_EQ(f.fixits.size(), 1u);
    EXPECT_EQ(f.fixits[0].line, 34);
    EXPECT_EQ(f.fixits[0].replacement, "std::int64_t");
  }
}

TEST(AnalyzeIntervals, GuardedAndSaturatingPatternsStaySilent) {
  // guarded.cpp re-states every overflow.cpp shape behind a guard the
  // interval domain must refine on: `rate.bps() > 0`, `!rate.is_zero()`,
  // a saturating_add_ns sum, a __int128 growth test, a plain loop
  // counter (the widen-to-top regression), and a bounded factory arg.
  AnalysisResult result = run_intervals_fixture();
  ASSERT_TRUE(result.error.empty()) << result.error;
  for (const auto& f : result.findings) {
    EXPECT_NE(f.file, "guarded.cpp") << f.message;
  }
}

// ---------------------------------------------------------------------------
// Lifetime fixture: slab borrows dying across recycle paths
// ---------------------------------------------------------------------------

AnalysisResult run_lifetime_fixture() {
  Options opts;
  opts.root = kTestdata + "/lifetime";
  opts.paths = {opts.root};
  opts.include_base = opts.root;
  opts.layers_file = kTestdata + "/lifetime/layers.json";
  opts.rule_families = {"lifetime"};
  return quicsteps::analyze::run_analysis(opts);
}

TEST(AnalyzeLifetime, FlagsUseAfterRecycleAcrossPathsAndCalls) {
  AnalysisResult result = run_lifetime_fixture();
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.files_scanned, 2u);
  const std::vector<std::string> expected = {
      "use_after.cpp:29 lifetime/use-after-recycle",  // straight-line put
      "use_after.cpp:35 lifetime/use-after-recycle",  // via recycle_helper
      "use_after.cpp:43 lifetime/use-after-recycle",  // one branch only
      "use_after.cpp:48 lifetime/ref-escape",         // deferred callback
  };
  EXPECT_EQ(finding_keys(result), expected);
  // The interprocedural finding names the container handed to the helper.
  for (const auto& f : result.findings) {
    if (f.line == 35) {
      EXPECT_NE(f.message.find("'s2'"), std::string::npos) << f.message;
    }
  }
}

TEST(AnalyzeLifetime, LiveCopiedAndReborrowedHandlesStaySilent) {
  AnalysisResult result = run_lifetime_fixture();
  ASSERT_TRUE(result.error.empty()) << result.error;
  for (const auto& f : result.findings) {
    EXPECT_NE(f.file, "clean.cpp") << f.message;
  }
}

// ---------------------------------------------------------------------------
// Typestate fixture: the three declared protocols, may/must polarity
// ---------------------------------------------------------------------------

AnalysisResult run_typestate_fixture() {
  Options opts;
  opts.root = kTestdata + "/typestate";
  opts.paths = {opts.root};
  opts.include_base = opts.root;
  opts.layers_file = kTestdata + "/typestate/layers.json";
  opts.rule_families = {"protocol"};
  return quicsteps::analyze::run_analysis(opts);
}

TEST(AnalyzeTypestate, FlagsOneViolationPerProtocolOnPinnedLines) {
  AnalysisResult result = run_typestate_fixture();
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.files_scanned, 2u);
  const std::vector<std::string> expected = {
      "misuse.cpp:11 protocol/typestate",  // run() on an unscheduled loop
      "misuse.cpp:15 protocol/typestate",  // publish through unchecked ptr
      "misuse.cpp:20 protocol/typestate",  // mutate after run_flows froze it
  };
  EXPECT_EQ(finding_keys(result), expected);
  for (const auto& f : result.findings) {
    if (f.line == 11) {
      EXPECT_NE(f.message.find("eventloop-schedule-then-run"),
                std::string::npos)
          << f.message;
    }
    if (f.line == 15) {
      EXPECT_NE(f.message.find("tracebus-checked-publish"), std::string::npos)
          << f.message;
    }
    if (f.line == 20) {
      EXPECT_NE(f.message.find("flowconfig-frozen-after-run"),
                std::string::npos)
          << f.message;
    }
  }
}

TEST(AnalyzeTypestate, GuardedEscapedAndJoinedUsesStaySilent) {
  // clean.cpp exercises the joins the polarity model exists for: a sweep
  // loop whose back edge merges {building, frozen} (must-silent), an
  // escape into a component that may schedule, and both null-guard
  // shapes (`if (bus)` dominates, `if (!bus) return` early-outs).
  AnalysisResult result = run_typestate_fixture();
  ASSERT_TRUE(result.error.empty()) << result.error;
  for (const auto& f : result.findings) {
    EXPECT_NE(f.file, "clean.cpp") << f.message;
  }
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

TEST(AnalyzeReport, SarifGoldenOverIntervalsFixture) {
  // The flow-sensitive findings (intervals + the narrowing fix-it) are
  // golden-tested byte-for-byte, same as the v1 violations tree.
  AnalysisResult result = run_intervals_fixture();
  ASSERT_TRUE(result.error.empty()) << result.error;
  const std::string golden =
      read_file_or_die(kTestdata + "/expected_intervals.sarif");
  EXPECT_EQ(quicsteps::analyze::sarif_report(result.findings), golden)
      << "regenerate with: quicsteps-analyze --root " << kTestdata
      << "/intervals --include-base " << kTestdata << "/intervals"
      << " --layers - --rules units --sarif " << kTestdata
      << "/expected_intervals.sarif " << kTestdata << "/intervals";
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
