// Intraprocedural dataflow skeleton for the quicsteps static analyzer.
//
// For every callable in the symbol index this builds a flat def model of
// its locals: parameter, local-variable and range-for declarations (with
// their declared type text), and every assignment to each local together
// with the right-hand-side token range. No control-flow sensitivity —
// defs are in token order; the flow-sensitive rules place them on the
// CFG (cfg.hpp) themselves.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "symbols.hpp"

namespace quicsteps::analyze {

/// One assignment to a local: `x = <rhs>;`, `x += <rhs>;`, `++x`.
struct Def {
  std::size_t tok = 0;        // token index of the local's name
  std::size_t rhs_begin = 0;  // first RHS token; rhs_begin==rhs_end for ++/--
  std::size_t rhs_end = 0;    // one past the last RHS token
};

struct Local {
  std::string name;
  std::size_t decl_tok = 0;  // token index of the name at the declaration
  std::string type_text;  // joined declaration tokens before the name
  bool is_param = false;
  std::vector<Def> defs;  // assignments after the declaration
};

/// Def model for one callable's body.
struct CallableDataflow {
  std::size_t symbol = Symbol::npos;  // into SymbolIndex::symbols
  std::vector<Local> locals;          // declaration order, params first

  /// First local with this name, or npos (shadowing collapses).
  std::size_t find(const std::string& name) const;
};

struct Dataflow {
  std::vector<CallableDataflow> callables;
  /// symbol id -> index into `callables`.
  std::map<std::size_t, std::size_t> by_symbol;

  const CallableDataflow* for_symbol(std::size_t symbol) const;
};

/// Builds the def model for every callable in the index that has a body.
Dataflow build_dataflow(const Model& model, const SymbolIndex& index);

}  // namespace quicsteps::analyze
