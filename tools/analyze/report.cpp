#include "report.hpp"

#include <cstdio>

#include "json.hpp"

namespace quicsteps::analyze {

std::string text_report(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings) {
    if (f.baselined) continue;
    out += f.file + ":" + std::to_string(f.line) + ":" +
           std::to_string(f.col) + ": [" + f.rule_id + "] " + f.message +
           "\n";
    for (const FixIt& fix : f.fixits) {
      std::string shown;  // keep the report line-oriented
      for (const char c : fix.replacement) {
        c == '\n' ? shown += "\\n" : shown += c;
      }
      out += f.file + ":" + std::to_string(fix.line) + ":" +
             std::to_string(fix.col) + ": fix: replace [" +
             std::to_string(fix.line) + ":" + std::to_string(fix.col) + "-" +
             std::to_string(fix.end_line) + ":" +
             std::to_string(fix.end_col) + "] with '" + shown + "' (" +
             fix.description + ")\n";
    }
  }
  return out;
}

std::string sarif_report(const std::vector<Finding>& findings) {
  const auto& rules = all_rules();
  auto rule_index = [&](const std::string& id) {
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (id == rules[i].id) return static_cast<int>(i);
    }
    return -1;
  };

  std::string out;
  out += "{\n";
  out += "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out += "  \"version\": \"2.1.0\",\n";
  out += "  \"runs\": [\n";
  out += "    {\n";
  out += "      \"tool\": {\n";
  out += "        \"driver\": {\n";
  out += "          \"name\": \"quicsteps-analyze\",\n";
  out += "          \"version\": \"1.0.0\",\n";
  out += "          \"rules\": [\n";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out += "            {\n";
    out += "              \"id\": \"" + json_escape(rules[i].id) + "\",\n";
    out += "              \"shortDescription\": { \"text\": \"" +
           json_escape(rules[i].short_description) + "\" }\n";
    out += i + 1 < rules.size() ? "            },\n" : "            }\n";
  }
  out += "          ]\n";
  out += "        }\n";
  out += "      },\n";
  out += "      \"columnKind\": \"utf16CodeUnits\",\n";
  out += "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += "        {\n";
    out += "          \"ruleId\": \"" + json_escape(f.rule_id) + "\",\n";
    out += "          \"ruleIndex\": " + std::to_string(rule_index(f.rule_id)) +
           ",\n";
    out += "          \"level\": \"error\",\n";
    out += "          \"message\": { \"text\": \"" + json_escape(f.message) +
           "\" },\n";
    out += "          \"locations\": [\n";
    out += "            {\n";
    out += "              \"physicalLocation\": {\n";
    out += "                \"artifactLocation\": { \"uri\": \"" +
           json_escape(f.file) + "\" },\n";
    out += "                \"region\": { \"startLine\": " +
           std::to_string(f.line) +
           ", \"startColumn\": " + std::to_string(f.col) + " }\n";
    out += "              }\n";
    out += "            }\n";
    out += "          ]";
    if (!f.fixits.empty()) {
      out += ",\n          \"fixes\": [\n";
      for (std::size_t j = 0; j < f.fixits.size(); ++j) {
        const FixIt& fix = f.fixits[j];
        out += "            {\n";
        out += "              \"description\": { \"text\": \"" +
               json_escape(fix.description) + "\" },\n";
        out += "              \"artifactChanges\": [\n";
        out += "                {\n";
        out += "                  \"artifactLocation\": { \"uri\": \"" +
               json_escape(f.file) + "\" },\n";
        out += "                  \"replacements\": [\n";
        out += "                    {\n";
        out += "                      \"deletedRegion\": { \"startLine\": " +
               std::to_string(fix.line) +
               ", \"startColumn\": " + std::to_string(fix.col) +
               ", \"endLine\": " + std::to_string(fix.end_line) +
               ", \"endColumn\": " + std::to_string(fix.end_col) + " },\n";
        out += "                      \"insertedContent\": { \"text\": \"" +
               json_escape(fix.replacement) + "\" }\n";
        out += "                    }\n";
        out += "                  ]\n";
        out += "                }\n";
        out += "              ]\n";
        out += j + 1 < f.fixits.size() ? "            },\n"
                                       : "            }\n";
      }
      out += "          ]";
    }
    if (f.baselined) {
      out += ",\n          \"suppressions\": [ { \"kind\": \"external\" } ]";
    }
    out += "\n";
    out += i + 1 < findings.size() ? "        },\n" : "        }\n";
  }
  out += "      ]\n";
  out += "    }\n";
  out += "  ]\n";
  out += "}\n";
  return out;
}

std::string summary_line(std::size_t files, std::size_t rules,
                         std::size_t findings, std::size_t baselined,
                         long long elapsed_ms) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "quicsteps-analyze: %zu files, %zu rules, "
                "%zu finding(s) (%zu baselined) in %lld ms",
                files, rules, findings, baselined, elapsed_ms);
  return buf;
}

}  // namespace quicsteps::analyze
