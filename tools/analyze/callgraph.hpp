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

#include <vector>

#include "rule.hpp"
#include "symbols.hpp"

namespace quicsteps::analyze {

struct CallGraph {
  /// Per symbol id: resolved callee symbol ids, sorted + deduped.
  /// Includes the implicit containing-callable -> lambda edges.
  std::vector<std::vector<std::size_t>> edges;
  /// Per symbol id: transitively reachable from a hot-path file's
  /// callables (seeds included).
  std::vector<bool> hot;

  bool is_hot(std::size_t symbol) const {
    return symbol < hot.size() && hot[symbol];
  }
};

/// Builds edges and (when `manifest` is non-null) hot tags.
CallGraph build_call_graph(const Model& model, const SymbolIndex& index,
                           const LayerManifest* manifest);

}  // namespace quicsteps::analyze
