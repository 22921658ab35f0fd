#include "baseline.hpp"

#include <algorithm>
#include <sstream>

namespace quicsteps::analyze {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

bool Baseline::load(const std::string& content,
                    const std::string& source_name, std::string* error) {
  sources_.emplace_back(source_name, std::vector<Line>());
  std::vector<Line>& lines = sources_.back().second;
  std::istringstream in(content);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    lines.push_back({raw, static_cast<std::size_t>(-1)});
    const auto hash = raw.find('#');
    std::string line = trim(hash == std::string::npos ? raw
                                                      : raw.substr(0, hash));
    if (line.empty()) continue;
    // The rule ID itself contains a '/'; the separator is the LAST ':'.
    const auto colon = line.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= line.size()) {
      *error = source_name + ":" + std::to_string(lineno) +
               ": malformed baseline entry (want <path>:<rule-id>)";
      return false;
    }
    Entry e;
    e.path = trim(line.substr(0, colon));
    e.rule_id = trim(line.substr(colon + 1));
    if (!known_rule(e.rule_id)) {
      *error = source_name + ":" + std::to_string(lineno) +
               ": unknown rule id '" + e.rule_id + "'";
      return false;
    }
    lines.back().entry = entries_.size();
    entries_.push_back(std::move(e));
  }
  return true;
}

bool Baseline::matches(const Finding& finding) {
  bool hit = false;
  for (auto& e : entries_) {
    if (e.path == finding.file && e.rule_id == finding.rule_id) {
      e.used = true;
      hit = true;
    }
  }
  return hit;
}

void Baseline::judge_only(const std::vector<std::string>& families) {
  if (families.empty()) return;
  for (auto& e : entries_) {
    if (std::find(families.begin(), families.end(),
                  rule_family(e.rule_id)) == families.end()) {
      e.used = true;  // not judged: kept as if it had matched
    }
  }
}

std::vector<std::string> Baseline::unused() const {
  std::vector<std::string> out;
  for (const auto& e : entries_) {
    if (!e.used) out.push_back(e.path + ":" + e.rule_id);
  }
  return out;
}

bool Baseline::rewritten(const std::string& source_name,
                         std::string* out) const {
  for (const auto& [name, lines] : sources_) {
    if (name != source_name) continue;
    out->clear();
    for (const Line& line : lines) {
      if (line.entry != static_cast<std::size_t>(-1) &&
          !entries_[line.entry].used) {
        continue;  // stale entry: the whole line goes
      }
      *out += line.raw;
      *out += '\n';
    }
    return true;
  }
  return false;
}

}  // namespace quicsteps::analyze
