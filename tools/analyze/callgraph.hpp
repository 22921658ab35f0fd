// Call graph over the symbol index.
//
// Edges come from by-name resolution of `name(` call sites inside callable
// bodies: candidates sharing the callee name are looked up in the index,
// preferring definitions in the calling file, and capped when a name is
// ambiguous across too many definitions (a heuristic graph must not invent
// thousands of edges for `reset`). Lambdas get an implicit edge from the
// callable that lexically contains them — a lambda defined in a hot
// function runs on the hot path until proven otherwise — and resolve by
// their bound local name when invoked or passed on.
//
// Hot tags seed from callables defined in the layers.json hot_path file
// set and propagate transitively along edges (BFS); this is what lets
// perf/hot-path-alloc-interproc flag an allocation two calls away from the
// per-packet loop.
#pragma once

#include <string>
#include <vector>

#include "rule.hpp"
#include "symbols.hpp"

namespace quicsteps::analyze {

/// One `name(...)` occurrence inside a callable body.
struct CallSite {
  std::size_t caller = Symbol::npos;  // enclosing callable; npos at
                                      // namespace scope (global init)
  std::string name;                   // callee name as spelled
  std::size_t file = 0;
  std::size_t tok = 0;   // token index of the name
  int line = 1;
  int col = 1;
  std::size_t args_begin = 0;  // token index of '('
  std::size_t args_end = 0;    // token index of matching ')'
  std::vector<std::size_t> callees;  // resolved symbol ids (may be empty)
};

struct CallGraph {
  std::vector<CallSite> sites;  // (file, token) order
  /// Per symbol id: resolved callee symbol ids, sorted + deduped.
  /// Includes the implicit containing-callable -> lambda edges.
  std::vector<std::vector<std::size_t>> edges;
  /// Per symbol id: transitively reachable from a hot-path file's
  /// callables (seeds included).
  std::vector<bool> hot;
  std::vector<std::size_t> hot_seeds;  // symbol ids, ascending

  bool is_hot(std::size_t symbol) const {
    return symbol < hot.size() && hot[symbol];
  }
};

/// Builds sites, edges, and (when `manifest` is non-null) hot tags.
CallGraph build_call_graph(const Model& model, const SymbolIndex& index,
                           const LayerManifest* manifest);

}  // namespace quicsteps::analyze
