#include "analyzer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "baseline.hpp"
#include "callgraph.hpp"
#include "cfg.hpp"
#include "dataflow.hpp"
#include "symbols.hpp"

namespace quicsteps::analyze {

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool family_enabled(const Options& options, const char* family) {
  if (options.rule_families.empty()) return true;
  for (const auto& f : options.rule_families) {
    if (f == family) return true;
  }
  return false;
}

}  // namespace

AnalysisResult run_analysis(const Options& options) {
  AnalysisResult result;
  const std::string root =
      options.root.empty() ? std::string(".") : options.root;
  const std::string include_base =
      options.include_base.empty() ? root + "/src" : options.include_base;
  std::vector<std::string> paths = options.paths;
  if (paths.empty()) {
    paths.push_back(root + "/src");
    // Self-hosting: the analyzer's own sources are part of the default
    // scan (fixture trees under testdata/ are skipped by build_model),
    // and so are the bench drivers and examples — they exercise the same
    // APIs the protocols and lifetime rules guard.
    for (const char* extra : {"/tools/analyze", "/bench", "/examples"}) {
      const std::string dir = root + extra;
      if (std::filesystem::exists(dir)) paths.push_back(dir);
    }
  }

  Model model;
  if (!build_model(paths, root, include_base, &model, &result.error)) {
    return result;
  }
  result.files_scanned = model.files.size();

  std::vector<Finding> findings;
  // The manifest feeds three families: layering (the DAG), perf (the
  // hot_path tags), and concurrency (the parallel_entries roots). "-"
  // skips all three — fixture trees without a real layer stack opt out of
  // manifest-driven rules entirely.
  const bool want_layering = family_enabled(options, "layering");
  const bool want_perf = family_enabled(options, "perf");
  const bool want_concurrency = family_enabled(options, "concurrency");
  const bool want_determinism = family_enabled(options, "determinism");
  const bool want_units = family_enabled(options, "units");
  const bool want_lifetime = family_enabled(options, "lifetime");
  const bool want_protocol = family_enabled(options, "protocol");
  LayerManifest manifest;
  bool have_manifest = false;
  if (want_layering || want_perf || want_concurrency || want_lifetime ||
      want_protocol) {
    std::string layers_path = options.layers_file.empty()
                                  ? root + "/tools/analyze/layers.json"
                                  : options.layers_file;
    if (layers_path != "-") {
      std::string manifest_text;
      if (!read_file(layers_path, &manifest_text)) {
        result.error = "cannot read layer manifest " + layers_path;
        return result;
      }
      if (!load_layer_manifest(manifest_text, &manifest, &result.error)) {
        return result;
      }
      have_manifest = true;
    }
  }

  if (want_layering && have_manifest) {
    run_layering_rules(model, manifest, &findings);
  }

  // The semantic families share one model: symbol index, call graph
  // (hot tags need the manifest), dataflow skeleton.
  SymbolIndex index;
  CallGraph graph;
  Dataflow flow;
  CfgIndex cfgs;
  SemanticModel sem;
  // The flow-sensitive families (lifetime, interval units, typestate)
  // additionally need per-callable CFGs.
  const bool want_flow =
      (want_lifetime && have_manifest) || (want_protocol && have_manifest) ||
      want_units;
  const bool want_semantic = (want_perf && have_manifest) ||
                             (want_concurrency && have_manifest) ||
                             want_determinism || want_flow;
  if (want_semantic) {
    index = build_symbol_index(model);
    graph =
        build_call_graph(model, index, have_manifest ? &manifest : nullptr);
    flow = build_dataflow(model, index);
    sem = {&index, &graph, &flow};
    if (want_flow) {
      cfgs = build_cfg_index(model, index);
      sem.cfgs = &cfgs;
    }
  }
  if (want_perf && have_manifest) {
    run_perf_rules(model, manifest, sem, &findings);
  }
  if (want_concurrency && have_manifest) {
    run_concurrency_rules(model, manifest, sem, &findings);
  }
  if (want_units) {
    run_units_rules(model, &findings);
    run_interval_rules(model, sem, &findings);
  }
  if (want_lifetime && have_manifest) {
    run_lifetime_rules(model, manifest, sem, &findings);
  }
  if (want_protocol && have_manifest) {
    run_typestate_rules(model, manifest, sem, &findings);
  }
  if (want_determinism) {
    run_determinism_rules(model, &findings);
    run_taint_rules(model, sem, &findings);
  }
  if (family_enabled(options, "scheduling")) {
    run_scheduling_rules(model, &findings);
  }
  for (const auto& rule : all_rules()) {
    if (family_enabled(options, rule_family(rule.id).c_str())) {
      ++result.rules_run;
    }
  }

  Baseline baseline;
  std::vector<std::string> baseline_files = options.baseline_files;
  if (baseline_files.empty()) {
    const std::string default_baseline = root + "/tools/analyze/baseline.txt";
    if (std::filesystem::exists(default_baseline)) {
      baseline_files.push_back(default_baseline);
    }
  }
  for (const auto& path : baseline_files) {
    std::string content;
    if (!read_file(path, &content)) {
      result.error = "cannot read baseline " + path;
      return result;
    }
    if (!baseline.load(content, path, &result.error)) return result;
  }

  for (auto& f : findings) {
    f.baselined = baseline.matches(f);
    if (f.baselined) {
      ++result.baselined_count;
    } else {
      ++result.active_count;
    }
  }
  result.unused_baseline_entries = baseline.unused();

  if (options.fix_baseline && !result.unused_baseline_entries.empty()) {
    for (const auto& path : baseline_files) {
      std::string fixed;
      if (!baseline.rewritten(path, &fixed)) continue;
      std::string current;
      read_file(path, &current);
      if (fixed == current) continue;  // this file held no stale entries
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      if (!out) {
        result.error = "--fix-baseline: cannot rewrite " + path;
        return result;
      }
      out << fixed;
      result.rewritten_baselines.push_back(path);
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.col != b.col) return a.col < b.col;
              return a.rule_id < b.rule_id;
            });
  result.findings = std::move(findings);
  return result;
}

}  // namespace quicsteps::analyze
