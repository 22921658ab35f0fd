// Callable index for the quicsteps static analyzer.
//
// Built on the token stream (no real C++ frontend): a heuristic scope
// parser walks each file's tokens tracking namespace / class / function /
// lambda nesting and records every callable with a body — functions and
// methods, and lambdas — with its parameter and body token ranges. The
// dataflow skeleton (dataflow.hpp) and the CFGs (cfg.hpp) the interval
// rules read are built per callable on top of this index.
//
// Being token-level, the parser is deliberately conservative: anything it
// cannot classify becomes an anonymous block, never a wrong symbol. The
// repo's house style (pragma-once headers, paren member init, no macros
// that open braces) keeps the heuristics honest; the symbol-index golden
// test pins the behavior on a fixture tree.
#pragma once

#include <string>
#include <vector>

#include "source_model.hpp"

namespace quicsteps::analyze {

struct Symbol {
  enum class Kind {
    kFunction,  // free function or method definition (has a body)
    kLambda,    // lambda expression
  };
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  Kind kind = Kind::kFunction;
  std::string name;      // unqualified; lambdas: "<lambda>"
  std::size_t file = 0;  // index into Model::files

  // Token indices (into the owning file's token vector) of the body's '{'
  // and matching '}'; npos when unterminated.
  std::size_t body_begin = npos;
  std::size_t body_end = npos;
  // Token indices of the parameter list's '(' and ')'; npos when the
  // lambda has no parameter list.
  std::size_t params_begin = npos;
  std::size_t params_end = npos;
};

struct SymbolIndex {
  std::vector<Symbol> symbols;
};

/// Builds the index over every file in the model. Deterministic: symbols
/// appear in (file, token) order.
SymbolIndex build_symbol_index(const Model& model);

}  // namespace quicsteps::analyze
