// Baseline / suppression file support.
//
// Format, one entry per line, '#' comments:
//     <path-relative-to-root>:<rule-id>
// e.g. src/sim/time.cpp:units/raw-time-type
//
// An entry waives every finding of that rule in that file (deliberate:
// line numbers churn, policies do not). Entries that match nothing are
// reported so the baseline can only shrink. This replaces
// tools/lint_allowlist.txt; its rule names map to determinism/<rule>.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "rule.hpp"

namespace quicsteps::analyze {

class Baseline {
 public:
  /// Parses baseline file content. Unknown rule IDs or malformed lines
  /// set `*error` and fail (a typo must not silently waive nothing).
  bool load(const std::string& content, const std::string& source_name,
            std::string* error);

  /// True when `finding` is waived; records the entry as used.
  bool matches(const Finding& finding);

  /// Keeps every entry whose rule family is not in `families` (empty =
  /// all families ran) out of unused() and rewritten(): a run that skipped
  /// a family cannot tell whether that family's waivers are stale.
  void judge_only(const std::vector<std::string>& families);

  /// Entries that never matched a finding (stale — candidates to delete).
  std::vector<std::string> unused() const;

  /// --fix-baseline: the content of `source_name` with stale entry lines
  /// removed. Comment-only and blank lines survive verbatim, as do the
  /// inline rationale comments of kept entries; a dropped entry takes its
  /// whole line (inline comment included) with it. Returns false when the
  /// source was never loaded.
  bool rewritten(const std::string& source_name, std::string* out) const;

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string path;
    std::string rule_id;
    bool used = false;
  };
  struct Line {
    std::string raw;
    std::size_t entry = static_cast<std::size_t>(-1);  // into entries_
  };
  std::vector<Entry> entries_;
  /// source_name -> original lines, each tagged with the entry it defines.
  std::vector<std::pair<std::string, std::vector<Line>>> sources_;
};

}  // namespace quicsteps::analyze
