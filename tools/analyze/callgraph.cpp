#include "callgraph.hpp"

#include <algorithm>
#include <queue>
#include <string>
#include <utility>
#include <vector>

namespace quicsteps::analyze {

namespace {

// By-name resolution stops inventing edges past this many candidate
// definitions — common method names (size, reset, push) would otherwise
// connect everything to everything.
constexpr std::size_t kAmbiguityCap = 8;

bool is_call_keyword(const std::string& s) {
  static const char* kWords[] = {
      "if",     "else",  "for",    "while",   "switch",     "do",
      "return", "sizeof", "alignof", "decltype", "new",     "delete",
      "case",   "catch", "throw",  "static_cast", "const_cast",
      "dynamic_cast", "reinterpret_cast", "static_assert", "assert",
      "defined", "alignas", "noexcept", "typeid",
  };
  for (const char* w : kWords) {
    if (s == w) return true;
  }
  return false;
}

/// True when the '(' at `open` has a matching ')'.
bool paren_closes(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].in_pp) continue;
    if (toks[i].is_punct("(")) ++depth;
    if (toks[i].is_punct(")") && --depth == 0) return true;
  }
  return false;
}

/// Symbol ids a call to `name` from file `file` resolves to (may be empty).
std::vector<std::size_t> resolve_callees(const SymbolIndex& index,
                                         const std::string& name,
                                         std::size_t file) {
  auto [lo, hi] = index.callables_by_name.equal_range(name);
  std::vector<std::size_t> same_file, elsewhere;
  for (auto it = lo; it != hi; ++it) {
    const Symbol& cand = index.symbols[it->second];
    // A lambda resolves through its bound name only within its own file —
    // the binding is a local variable.
    if (cand.kind == Symbol::Kind::kLambda && cand.file != file) continue;
    (cand.file == file ? same_file : elsewhere).push_back(it->second);
  }
  std::vector<std::size_t>& picked =
      same_file.empty() ? elsewhere : same_file;
  if (picked.empty() || picked.size() > kAmbiguityCap) return {};
  std::sort(picked.begin(), picked.end());
  return std::move(picked);
}

}  // namespace

CallGraph build_call_graph(const Model& model, const SymbolIndex& index,
                           const LayerManifest* manifest) {
  CallGraph graph;
  graph.edges.resize(index.symbols.size());
  graph.hot.resize(index.symbols.size(), false);

  // Implicit containment edges: enclosing callable -> lambda.
  for (std::size_t id = 0; id < index.symbols.size(); ++id) {
    const Symbol& sym = index.symbols[id];
    if (sym.kind == Symbol::Kind::kLambda && sym.parent != Symbol::npos) {
      graph.edges[sym.parent].push_back(id);
    }
  }

  for (std::size_t f = 0; f < model.files.size(); ++f) {
    const std::vector<Token>& toks = model.files[f].lex.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.in_pp || t.kind != TokKind::kIdentifier ||
          is_call_keyword(t.text) || !toks[i + 1].is_punct("(")) {
        continue;
      }
      const std::size_t caller = index.enclosing_callable(f, i);
      // `Type name(args);` declarations at namespace/class scope look like
      // calls but have no enclosing callable, and the definition header
      // `void f(` is not a call to f: neither adds an edge.
      if (caller == Symbol::npos ||
          index.symbols[caller].params_begin == i + 1) {
        continue;
      }
      if (!paren_closes(toks, i + 1)) continue;
      for (const std::size_t callee : resolve_callees(index, t.text, f)) {
        if (callee != caller) graph.edges[caller].push_back(callee);
      }
    }
  }

  for (auto& out : graph.edges) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }

  if (manifest != nullptr) {
    std::queue<std::size_t> frontier;
    for (std::size_t id = 0; id < index.symbols.size(); ++id) {
      const Symbol& sym = index.symbols[id];
      if (!sym.is_callable()) continue;
      if (manifest->is_hot_path(model.files[sym.file].include_key)) {
        graph.hot[id] = true;
        frontier.push(id);
      }
    }
    while (!frontier.empty()) {
      const std::size_t at = frontier.front();
      frontier.pop();
      for (const std::size_t next : graph.edges[at]) {
        if (!graph.hot[next]) {
          graph.hot[next] = true;
          frontier.push(next);
        }
      }
    }
  }
  return graph;
}

}  // namespace quicsteps::analyze
