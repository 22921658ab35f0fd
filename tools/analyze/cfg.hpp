// Intraprocedural control-flow graphs for the quicsteps static analyzer.
//
// dataflow.hpp models a callable as a flat def list — useless on its own
// for anything path-dependent: a rate that is only proven nonzero on the
// guarded path, a product that only overflows on one branch of an `if`.
// This builder turns a callable's body token range into a statement-level CFG:
//
//   * basic blocks hold consecutive simple statements (token ranges);
//   * `if` / `while` / `for` / `do` / `switch` lower to condition blocks
//     with explicit true/false successor edges;
//   * conditions are split at TOP-LEVEL `&&` / `||` into a chain of atomic
//     condition blocks, so short-circuit control flow is real edges and a
//     guard like `if (rate != 0 && bytes > 0)` refines state per conjunct;
//   * `return` wires straight to the exit block, `break` / `continue` to
//     the innermost breakable/continuable construct, `case`/`default`
//     fan out from the switch head;
//   * loop back edges are recorded (`is_loop_head`) so the abstract
//     interpreter (absint.hpp) knows where to widen.
//
// Like the rest of the analyzer this is a token-level heuristic, not a
// frontend: anything unrecognized becomes a plain statement in the current
// block, and malformed nesting degrades to a linear region — conservative
// for the path-sensitive rules, which only ever refine (never invent)
// state along explicit edges.
#pragma once

#include <string>
#include <vector>

#include "symbols.hpp"

namespace quicsteps::analyze {

/// One simple statement: tokens [begin, end) of the owning file, with the
/// trailing ';' excluded. Condition blocks carry their expression here too
/// (Block::is_cond distinguishes them).
struct CfgStmt {
  std::size_t begin = 0;
  std::size_t end = 0;
};

struct CfgBlock {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::vector<CfgStmt> stmts;

  /// Condition blocks: `stmts` holds exactly the atomic condition
  /// expression, succs[0] is the true edge and succs[1] the false edge.
  bool is_cond = false;

  /// Head of a `while` / `for` / `do` loop: the abstract interpreter
  /// widens here after a bounded number of visits.
  bool is_loop_head = false;

  /// Successor block ids. Plain blocks have 0 or 1; condition blocks
  /// exactly 2 (true, false); the exit block none.
  std::vector<std::size_t> succs;
};

/// CFG for one callable body. Block 0 is the entry, block 1 the exit;
/// both are empty plain blocks.
struct Cfg {
  static constexpr std::size_t kEntry = 0;
  static constexpr std::size_t kExit = 1;

  std::size_t symbol = Symbol::npos;  // into SymbolIndex::symbols
  std::vector<CfgBlock> blocks;
};

/// Builds the CFG for one callable; requires sym.body_begin/end valid.
Cfg build_cfg(const std::vector<Token>& toks, const Symbol& sym,
              std::size_t symbol_id);

/// CFGs for every callable in the index that has a body.
struct CfgIndex {
  std::vector<Cfg> cfgs;
};

CfgIndex build_cfg_index(const Model& model, const SymbolIndex& index);

}  // namespace quicsteps::analyze
