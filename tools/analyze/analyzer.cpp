#include "analyzer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "baseline.hpp"

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

bool family_enabled(const Options& options, const std::string& family) {
  if (options.rule_families.empty()) return true;
  for (const auto& f : options.rule_families) {
    if (f == family) return true;
  }
  return false;
}

/// The families of all_rules(), in registry order.
std::vector<std::string> known_families() {
  std::vector<std::string> families;
  for (const auto& rule : all_rules()) {
    const std::string family = rule_family(rule.id);
    if (std::find(families.begin(), families.end(), family) ==
        families.end()) {
      families.push_back(family);
    }
  }
  return families;
}

}  // namespace

AnalysisResult run_analysis(const Options& options) {
  AnalysisResult result;
  // A misspelled family would run zero rules and pass.
  const std::vector<std::string> families = known_families();
  for (const auto& family : options.rule_families) {
    if (std::find(families.begin(), families.end(), family) ==
        families.end()) {
      result.error = "unknown rule family '" + family + "' (known: ";
      for (std::size_t i = 0; i < families.size(); ++i) {
        result.error += (i == 0 ? "" : ", ") + families[i];
      }
      result.error += ")";
      return result;
    }
  }
  const std::string root =
      options.root.empty() ? std::string(".") : options.root;
  const std::string include_base =
      options.include_base.empty() ? root + "/src" : options.include_base;
  std::vector<std::string> paths = options.paths;
  if (paths.empty()) {
    paths.push_back(root + "/src");
    // The whole tools/ tree is part of the default scan: the CLI, where
    // outside values enter, and the analyzer's own sources (it self-hosts;
    // fixture trees under testdata/ are skipped by build_model). So are
    // the bench drivers and examples, which the determinism and units
    // rules cover like src/.
    for (const char* extra : {"/tools", "/bench", "/examples"}) {
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
  // The manifest feeds the layering family. "-" skips it — fixture trees
  // without a real layer stack opt out of the manifest-driven rules.
  const bool want_layering = family_enabled(options, "layering");
  LayerManifest manifest;
  bool have_manifest = false;
  if (want_layering) {
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

  if (family_enabled(options, "units")) {
    run_units_rules(model, &findings);
  }
  if (family_enabled(options, "determinism")) {
    run_determinism_rules(model, &findings);
  }
  for (const auto& rule : all_rules()) {
    if (family_enabled(options, rule_family(rule.id))) {
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
  baseline.judge_only(options.rule_families);
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
