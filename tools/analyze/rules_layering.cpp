// Layering rules: the architecture DAG is data (tools/analyze/layers.json),
// and every quoted #include is checked against it. An upward include (sim/
// reaching into framework/) or an include cycle is how "implementation
// drift" starts; both are rejected at lint time instead of being
// discovered as an unexplainable figure later.
#include <algorithm>

#include "json.hpp"
#include "rule.hpp"

namespace quicsteps::analyze {

bool load_layer_manifest(const std::string& json_text, LayerManifest* out,
                         std::string* error) {
  std::string parse_error;
  auto doc = parse_json(json_text, &parse_error);
  if (!doc) {
    *error = "layers.json: " + parse_error;
    return false;
  }
  const JsonValue* layers = doc->find("layers");
  if (layers == nullptr || !layers->is_object()) {
    *error = "layers.json: missing \"layers\" object";
    return false;
  }
  for (const auto& [name, deps] : layers->object) {
    if (!deps.is_array()) {
      *error = "layers.json: layer \"" + name + "\" must map to an array";
      return false;
    }
    std::vector<std::string> dep_names;
    for (const auto& d : deps.array) {
      if (!d.is_string()) {
        *error = "layers.json: layer \"" + name + "\" has a non-string dep";
        return false;
      }
      dep_names.push_back(d.str);
    }
    out->allow.emplace_back(name, std::move(dep_names));
  }
  if (const JsonValue* universal = doc->find("universal")) {
    if (!universal->is_array()) {
      *error = "layers.json: \"universal\" must be an array";
      return false;
    }
    for (const auto& u : universal->array) {
      if (!u.is_string() || !out->declared(u.str)) {
        *error = "layers.json: universal layer \"" +
                 (u.is_string() ? u.str : std::string("?")) +
                 "\" is not declared under \"layers\"";
        return false;
      }
      out->universal.push_back(u.str);
    }
  }

  // Every dep must itself be declared (or the "*" wildcard).
  for (const auto& [name, deps] : out->allow) {
    for (const auto& d : deps) {
      if (d != "*" && !out->declared(d)) {
        *error = "layers.json: layer \"" + name + "\" depends on \"" + d +
                 "\", which is not declared";
        return false;
      }
    }
  }

  // The declared graph over non-universal layers must be acyclic —
  // otherwise "upward" has no meaning. Universal layers sit outside the
  // stack by design (the audit spine is includable from anywhere), so
  // they are exempt from the DAG requirement but still constrain their
  // own includes through their dep list.
  enum class Mark { kWhite, kGrey, kBlack };
  std::vector<Mark> marks(out->allow.size(), Mark::kWhite);
  auto index_of = [&](const std::string& name) -> std::size_t {
    for (std::size_t i = 0; i < out->allow.size(); ++i) {
      if (out->allow[i].first == name) return i;
    }
    return static_cast<std::size_t>(-1);
  };
  std::string cycle_at;
  auto dfs = [&](auto&& self, std::size_t i) -> bool {
    if (out->is_universal(out->allow[i].first)) return true;
    if (marks[i] == Mark::kGrey) {
      cycle_at = out->allow[i].first;
      return false;
    }
    if (marks[i] == Mark::kBlack) return true;
    marks[i] = Mark::kGrey;
    for (const auto& d : out->allow[i].second) {
      if (d == "*") continue;
      const std::size_t j = index_of(d);
      if (!out->is_universal(d) && !self(self, j)) return false;
    }
    marks[i] = Mark::kBlack;
    return true;
  };
  for (std::size_t i = 0; i < out->allow.size(); ++i) {
    if (!dfs(dfs, i)) {
      *error = "layers.json: declared dependency graph has a cycle through "
               "layer \"" +
               cycle_at + "\"";
      return false;
    }
  }
  return true;
}

namespace {

/// First path component of an include ("sim/time.hpp" -> "sim"); empty
/// for flat includes ("bench_common.hpp").
std::string include_layer(const std::string& path) {
  const auto slash = path.find('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

void check_layer_edges(const Model& model, const LayerManifest& manifest,
                       std::vector<Finding>* out) {
  for (const auto& f : model.files) {
    // Flat files (no directory component anywhere) carry no layer; files
    // outside the include base still do, via rel_path (self-hosting).
    if (f.include_key.empty() && f.layer.empty()) continue;
    if (!f.layer.empty() && !manifest.declared(f.layer)) {
      out->push_back(
          {"layering/unknown-layer", f.rel_path, 1, 1,
           "directory '" + f.layer +
               "' is not declared in layers.json; declare its place in the "
               "stack before adding code to it",
           false,
           {}});
      continue;
    }
    if (f.layer.empty()) continue;  // flat files carry no layer
    const std::vector<std::string>* deps = manifest.deps_of(f.layer);
    for (const auto& inc : f.lex.includes) {
      if (inc.angle) continue;  // system headers are not layer edges
      const std::string target = include_layer(inc.path);
      if (target.empty() || !manifest.declared(target)) continue;
      if (target == f.layer || manifest.is_universal(target)) continue;
      const bool allowed =
          deps != nullptr &&
          std::any_of(deps->begin(), deps->end(), [&](const std::string& d) {
            return d == "*" || d == target;
          });
      if (!allowed) {
        out->push_back(
            {"layering/upward-include", f.rel_path, inc.line, 1,
             "layer '" + f.layer + "' may not include \"" + inc.path +
                 "\" (layer '" + target +
                 "'); the declared stack in tools/analyze/layers.json only "
                 "allows downward includes",
             false,
             {}});
      }
    }
  }
}

/// Tarjan SCC over the resolved include graph; any component with more
/// than one file (or a self-include) is a cycle.
struct CycleFinder {
  const Model& model;
  std::vector<int> index, lowlink;
  std::vector<bool> on_stack;
  std::vector<std::size_t> stack;
  int next_index = 0;
  std::vector<std::vector<std::size_t>> cycles;

  explicit CycleFinder(const Model& m)
      : model(m),
        index(m.files.size(), -1),
        lowlink(m.files.size(), -1),
        on_stack(m.files.size(), false) {}

  void strongconnect(std::size_t v) {
    index[v] = lowlink[v] = next_index++;
    stack.push_back(v);
    on_stack[v] = true;
    bool self_loop = false;
    for (const auto& inc : model.files[v].lex.includes) {
      if (inc.angle) continue;
      const std::size_t w = model.resolve(inc.path);
      if (w == Model::npos) continue;
      if (w == v) self_loop = true;
      if (index[w] < 0) {
        strongconnect(w);
        lowlink[v] = std::min(lowlink[v], lowlink[w]);
      } else if (on_stack[w]) {
        lowlink[v] = std::min(lowlink[v], index[w]);
      }
    }
    if (lowlink[v] == index[v]) {
      std::vector<std::size_t> component;
      std::size_t w;
      do {
        w = stack.back();
        stack.pop_back();
        on_stack[w] = false;
        component.push_back(w);
      } while (w != v);
      if (component.size() > 1 || self_loop) {
        std::sort(component.begin(), component.end(),
                  [&](std::size_t a, std::size_t b) {
                    return model.files[a].rel_path < model.files[b].rel_path;
                  });
        cycles.push_back(std::move(component));
      }
    }
  }
};

void check_cycles(const Model& model, std::vector<Finding>* out) {
  CycleFinder finder(model);
  for (std::size_t i = 0; i < model.files.size(); ++i) {
    if (finder.index[i] < 0) finder.strongconnect(i);
  }
  std::sort(finder.cycles.begin(), finder.cycles.end(),
            [&](const auto& a, const auto& b) {
              return model.files[a.front()].rel_path <
                     model.files[b.front()].rel_path;
            });
  for (const auto& component : finder.cycles) {
    const SourceFile& anchor = model.files[component.front()];
    // Anchor the finding at the anchor file's include that stays inside
    // the component.
    int line = 1;
    for (const auto& inc : anchor.lex.includes) {
      const std::size_t w = model.resolve(inc.path);
      if (w != Model::npos &&
          std::find(component.begin(), component.end(), w) !=
              component.end()) {
        line = inc.line;
        break;
      }
    }
    std::string members;
    for (const auto& idx : component) {
      if (!members.empty()) members += " -> ";
      members += model.files[idx].include_key.empty()
                     ? model.files[idx].rel_path
                     : model.files[idx].include_key;
    }
    out->push_back({"layering/cycle", anchor.rel_path, line, 1,
                    "include cycle: " + members, false, {}});
  }
}

}  // namespace

void run_layering_rules(const Model& model, const LayerManifest& manifest,
                        std::vector<Finding>* out) {
  check_layer_edges(model, manifest, out);
  check_cycles(model, out);
}

}  // namespace quicsteps::analyze
