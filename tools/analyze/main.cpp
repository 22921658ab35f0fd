// quicsteps-analyze — in-repo static analyzer for the simulation sources.
//
// Usage:
//   quicsteps-analyze [--root DIR] [--include-base DIR] [--layers FILE|-]
//                     [--baseline FILE]... [--rules fam1,fam2]
//                     [--sarif FILE] [--fix-baseline] [--list-rules]
//                     [PATHS...]
//
// Defaults: scans <root>/src, <root>/tools (the CLI and the analyzer
// itself), <root>/bench and <root>/examples with
// <root>/tools/analyze/layers.json and <root>/tools/analyze/baseline.txt.
// --fix-baseline rewrites the baseline file(s) in place, dropping stale
// entries. Exit status: 0 clean (baselined findings do not
// fail the run), 1 unbaselined findings, 2 bad invocation/configuration.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "report.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--root DIR] [--include-base DIR] [--layers FILE|-]\n"
      "          [--baseline FILE]... [--rules fam1,fam2] [--sarif FILE]\n"
      "          [--fix-baseline] [--list-rules] [PATHS...]\n",
      argv0);
  return 2;
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const auto comma = s.find(',', start);
    if (comma == std::string::npos) {
      if (start < s.size()) out.push_back(s.substr(start));
      break;
    }
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using quicsteps::analyze::Options;
  Options options;
  std::string sarif_path;
  bool list_rules = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--root") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      options.root = v;
    } else if (arg == "--include-base") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      options.include_base = v;
    } else if (arg == "--layers") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      options.layers_file = v;
    } else if (arg == "--baseline") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      options.baseline_files.push_back(v);
    } else if (arg == "--rules") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      for (auto& fam : split_commas(v)) {
        options.rule_families.push_back(fam);
      }
    } else if (arg == "--sarif") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      sarif_path = v;
    } else if (arg == "--fix-baseline") {
      options.fix_baseline = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      options.paths.push_back(arg);
    }
  }

  if (list_rules) {
    for (const auto& rule : quicsteps::analyze::all_rules()) {
      std::printf("%-34s %s\n", rule.id, rule.short_description);
    }
    return 0;
  }

  const auto start = std::chrono::steady_clock::now();
  const auto result = quicsteps::analyze::run_analysis(options);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();

  if (!result.error.empty()) {
    std::fprintf(stderr, "quicsteps-analyze: %s\n", result.error.c_str());
    return 2;
  }

  std::fputs(quicsteps::analyze::text_report(result.findings).c_str(),
             stdout);
  for (const auto& stale : result.unused_baseline_entries) {
    std::fprintf(stderr,
                 "quicsteps-analyze: stale baseline entry%s: %s\n",
                 result.rewritten_baselines.empty()
                     ? " (matched nothing)"
                     : " (removed by --fix-baseline)",
                 stale.c_str());
  }
  for (const auto& rewritten : result.rewritten_baselines) {
    std::fprintf(stderr, "quicsteps-analyze: rewrote %s\n",
                 rewritten.c_str());
  }

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "quicsteps-analyze: cannot write %s\n",
                   sarif_path.c_str());
      return 2;
    }
    out << quicsteps::analyze::sarif_report(result.findings);
  }

  std::fprintf(stderr, "%s\n",
               quicsteps::analyze::summary_line(
                   result.files_scanned, result.rules_run,
                   result.active_count, result.baselined_count, elapsed_ms)
                   .c_str());
  return result.active_count > 0 ? 1 : 0;
}
