// Cross-TU symbol index for the quicsteps static analyzer.
//
// Built on the token stream (no real C++ frontend): a heuristic scope
// parser walks each file's tokens tracking namespace / class / function /
// lambda nesting and records every symbol the semantic rules need —
// functions and methods (with their body token ranges), lambdas (with
// their capture lists and the local name they are bound to, if any),
// namespace-scope globals, function-local statics, and class member
// fields, each with const classification from the declaration tokens.
// The call graph (callgraph.hpp), the dataflow skeleton (dataflow.hpp),
// and the interprocedural rule families all sit on top of this index.
//
// Being token-level, the parser is deliberately conservative: anything it
// cannot classify becomes an anonymous block, never a wrong symbol. The
// repo's house style (pragma-once headers, paren member init, no macros
// that open braces) keeps the heuristics honest; the symbol-index golden
// test pins the behavior on a fixture tree.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "source_model.hpp"

namespace quicsteps::analyze {

struct Symbol {
  enum class Kind {
    kFunction,     // free function or method definition (has a body)
    kLambda,       // lambda expression
    kGlobal,       // namespace-scope variable
    kStaticLocal,  // function-local static variable
    kField,        // class member variable
  };
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  Kind kind = Kind::kFunction;
  std::string name;       // unqualified; lambdas: "<lambda>"
  std::string qual_name;  // Outer::Inner::name as spelled at the definition
  std::size_t file = 0;   // index into Model::files
  int line = 1;
  int col = 1;

  // Declaration classification (variables and fields; functions record
  // const-method-ness in is_const).
  bool is_const = false;  // const / constexpr declaration, or const method
  std::string type_text;  // joined declaration/return-type tokens

  // Functions and lambdas: token indices (into the owning file's token
  // vector) of the body's '{' and matching '}'; npos when unterminated.
  std::size_t body_begin = npos;
  std::size_t body_end = npos;
  // Functions and lambdas: token indices of the parameter list's '(' and
  // ')'; npos when the lambda has no parameter list.
  std::size_t params_begin = npos;
  std::size_t params_end = npos;
  // Lambdas: the local variable the lambda initializes, when written as
  // `auto worker = [..]...` — lets `worker()` and `pool.emplace_back(
  // worker)` resolve to the lambda.
  std::string bound_name;
  // Lambdas and static locals: index of the enclosing function/lambda
  // symbol; npos at namespace scope.
  std::size_t parent = npos;

  bool is_callable() const {
    return kind == Kind::kFunction || kind == Kind::kLambda;
  }
};

struct SymbolIndex {
  std::vector<Symbol> symbols;
  /// Per model file: symbol ids defined in that file, in token order.
  std::vector<std::vector<std::size_t>> by_file;
  /// Callable name -> symbol ids (functions only; lambdas resolve through
  /// bound_name, recorded here under that name).
  std::multimap<std::string, std::size_t> callables_by_name;

  /// Innermost function/lambda whose body [body_begin, body_end] contains
  /// token `tok` of file `file`; npos when at namespace/class scope.
  std::size_t enclosing_callable(std::size_t file, std::size_t tok) const;
};

/// Builds the index over every file in the model. Deterministic: symbols
/// appear in (file, token) order.
SymbolIndex build_symbol_index(const Model& model);

}  // namespace quicsteps::analyze
