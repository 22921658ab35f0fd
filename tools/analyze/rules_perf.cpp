// Hot-path allocation hygiene, interprocedural.
//
// The datapath's whole point is that the per-packet path performs no
// allocation in steady state: packets live in the slab
// (net/packet_slab.hpp), hops ride drain records
// (sim::EventLoop::post_drain_at), and every container grows only to
// its high-water mark. Files carrying that guarantee are tagged under
// "hot_path" in tools/analyze/layers.json.
//
// v1 of this rule (perf/hot-path-alloc) scanned whole hot files
// syntactically — every allocation in a hot file was flagged, including
// setup/teardown helpers, and an allocation in a helper one call away in a
// cold file was invisible. This version walks the call graph instead: the
// hot set is every callable defined in a hot-path file plus everything
// transitively reachable from one, and only tokens inside those callables'
// bodies are scanned. Patterns flagged:
//   * operator new / std::make_unique / std::make_shared — a heap
//     allocation per call;
//   * push_back / emplace_back — container growth (fine when amortized to
//     a recycled high-water mark, which is what the baseline records).
// Deliberate sites (free-list growth to a recycled high-water mark) are
// baselined in tools/analyze/baseline.txt with their rationale.
#include "callgraph.hpp"
#include "dataflow.hpp"
#include "rule.hpp"
#include "symbols.hpp"

namespace quicsteps::analyze {

void run_perf_rules(const Model& model, const LayerManifest& manifest,
                    const SemanticModel& sem, std::vector<Finding>* out) {
  (void)manifest;
  const SymbolIndex& index = *sem.index;
  const CallGraph& graph = *sem.graph;
  for (std::size_t id = 0; id < index.symbols.size(); ++id) {
    const Symbol& sym = index.symbols[id];
    if (!graph.is_hot(id) || !sym.is_callable() ||
        sym.body_begin == Symbol::npos || sym.body_end == Symbol::npos) {
      continue;
    }
    const SourceFile& f = model.files[sym.file];
    const bool seeded = manifest.is_hot_path(f.include_key);
    const std::string where =
        seeded ? "a hot-path callable"
               : "'" + sym.qual_name +
                     "', reachable from the hot-path set via the call graph";
    const auto& toks = f.lex.tokens;
    for (std::size_t i = sym.body_begin + 1; i < sym.body_end; ++i) {
      const Token& t = toks[i];
      if (t.in_pp || t.kind != TokKind::kIdentifier) continue;
      // Don't double-report tokens of a nested lambda that is itself hot —
      // the lambda's own walk covers them. (A cold nested lambda inside a
      // hot body stays covered here.)
      const std::size_t owner = index.enclosing_callable(sym.file, i);
      if (owner != id && owner != Symbol::npos && graph.is_hot(owner) &&
          index.symbols[owner].body_begin > sym.body_begin) {
        continue;
      }
      // A call to the enclosing callable's own name is overload delegation
      // (or recursion) — the definition-site family, not a use of the
      // pattern.
      if (t.text == sym.name) continue;
      const bool is_call =
          i + 1 < toks.size() &&
          (toks[i + 1].is_punct("(") || toks[i + 1].is_punct("<"));
      std::string message;
      if (t.text == "new") {
        message = "'new' in " + where +
                  " allocates per call; store packets in the slab or "
                  "preallocated state";
      } else if ((t.text == "make_unique" || t.text == "make_shared") &&
                 is_call) {
        message = "'" + t.text + "' in " + where +
                  " allocates per call; store packets in the slab or "
                  "preallocated state";
      } else if ((t.text == "push_back" || t.text == "emplace_back") &&
                 is_call) {
        message = "'" + t.text + "' in " + where +
                  " grows a container; growth must amortize to a recycled "
                  "high-water mark (baseline with the rationale if it does)";
      } else {
        continue;
      }
      out->push_back({"perf/hot-path-alloc-interproc", f.rel_path, t.line,
                      t.col, std::move(message), false, {}});
    }
  }
}

}  // namespace quicsteps::analyze
