// Rule registry and finding model.
//
// Rule IDs are "<family>/<name>" (e.g. "determinism/wall-clock"). Families
// group what one conceptual checker owns; the baseline file and the
// --rules filter both operate on these IDs. Adding a rule means adding a
// RuleInfo entry here and emitting findings with that ID — the reporters
// and SARIF metadata pick it up from the table.
#pragma once

#include <string>
#include <vector>

#include "source_model.hpp"

namespace quicsteps::analyze {

/// Machine-applicable replacement: replace the [line:col, end_line:end_col)
/// region of the finding's file with `replacement`. A zero-width region
/// (line==end_line, col==end_col) is an insertion; an empty replacement is
/// a deletion. Reported as a `fix:` line by the text reporter and as a
/// SARIF `fixes` entry.
struct FixIt {
  std::string description;
  int line = 1;
  int col = 1;
  int end_line = 1;
  int end_col = 1;
  std::string replacement;
};

struct Finding {
  std::string rule_id;
  std::string file;  // rel_path of the file
  int line = 1;
  int col = 1;
  std::string message;
  bool baselined = false;
  std::vector<FixIt> fixits;
};

struct RuleInfo {
  const char* id;
  const char* short_description;
};

/// Every rule the analyzer knows, in stable (reporting) order.
const std::vector<RuleInfo>& all_rules();

/// True when `rule_id` exists in all_rules().
bool known_rule(const std::string& rule_id);

/// Family prefix of an ID ("determinism/wall-clock" -> "determinism").
std::string rule_family(const std::string& rule_id);

/// The layering manifest: which layer may include which.
struct LayerManifest {
  /// layer -> allowed dependency layers ("*" = everything).
  std::vector<std::pair<std::string, std::vector<std::string>>> allow;
  /// Layers includable from anywhere (the audit spine and the umbrella).
  std::vector<std::string> universal;

  bool declared(const std::string& layer) const {
    for (const auto& [name, deps] : allow) {
      if (name == layer) return true;
    }
    return false;
  }
  bool is_universal(const std::string& layer) const {
    for (const auto& u : universal) {
      if (u == layer) return true;
    }
    return false;
  }
  const std::vector<std::string>* deps_of(const std::string& layer) const {
    for (const auto& [name, deps] : allow) {
      if (name == layer) return &deps;
    }
    return nullptr;
  }
};

/// Parses + validates layers.json content. The declared dependency graph
/// restricted to non-universal layers must be a DAG; a cycle there is a
/// configuration error, reported via `*error` (the analyzer exits 2 — a
/// broken manifest must never read as "clean").
bool load_layer_manifest(const std::string& json_text, LayerManifest* out,
                         std::string* error);

// Rule family entry points. Each appends findings for every file in the
// model; filtering (baseline, --rules) happens downstream.
void run_determinism_rules(const Model& model, std::vector<Finding>* out);
void run_units_rules(const Model& model, std::vector<Finding>* out);
void run_layering_rules(const Model& model, const LayerManifest& manifest,
                        std::vector<Finding>* out);

}  // namespace quicsteps::analyze
