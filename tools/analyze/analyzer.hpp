// Orchestration: options in, sorted findings out. main.cpp and the
// self-tests both drive analysis through this header so the CLI and the
// test suite can never disagree about behavior.
#pragma once

#include <string>
#include <vector>

#include "rule.hpp"

namespace quicsteps::analyze {

struct Options {
  std::string root;                        // anchors reported paths
  std::vector<std::string> paths;          // files/dirs; default: root/src
                                           // plus root/tools/analyze (the
                                           // analyzer self-hosts)
  std::string include_base;                // default: root/src
  std::string layers_file;                 // default:
                                           // root/tools/analyze/layers.json;
                                           // "-" disables manifest rules
  std::vector<std::string> baseline_files; // default:
                                           // root/tools/analyze/baseline.txt
                                           // (if it exists)
  std::vector<std::string> rule_families;  // empty = all families
  bool fix_baseline = false;               // rewrite baselines, dropping
                                           // stale entries
};

struct AnalysisResult {
  /// All findings (baselined ones flagged), sorted by
  /// (file, line, col, rule_id) — the order every reporter uses.
  std::vector<Finding> findings;
  std::vector<std::string> unused_baseline_entries;
  /// Baseline files rewritten by --fix-baseline (stale entries dropped).
  std::vector<std::string> rewritten_baselines;
  std::size_t files_scanned = 0;
  std::size_t rules_run = 0;
  std::size_t active_count = 0;     // findings not baselined
  std::size_t baselined_count = 0;
  /// Non-empty on configuration errors (bad manifest, unreadable path,
  /// malformed baseline). Callers must exit 2, not "clean".
  std::string error;
};

AnalysisResult run_analysis(const Options& options);

}  // namespace quicsteps::analyze
