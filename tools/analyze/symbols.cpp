#include "symbols.hpp"

#include <algorithm>

namespace quicsteps::analyze {

namespace {

constexpr std::size_t npos = Symbol::npos;

bool is_keyword(const std::string& s) {
  static const char* kWords[] = {
      "if",       "else",    "for",      "while",    "switch",  "do",
      "return",   "sizeof",  "alignof",  "decltype", "new",     "delete",
      "case",     "default", "break",    "continue", "goto",    "try",
      "catch",    "throw",   "static",   "const",    "constexpr",
      "inline",   "virtual", "explicit", "typename", "template", "using",
      "typedef",  "friend",  "extern",   "public",   "private", "protected",
      "operator", "noexcept", "override", "final",   "mutable", "co_return",
      "co_await", "co_yield", "static_cast", "const_cast", "dynamic_cast",
      "reinterpret_cast", "static_assert", "namespace", "class", "struct",
      "union",    "enum",    "auto",     "void",     "this",
  };
  for (const char* w : kWords) {
    if (s == w) return true;
  }
  return false;
}

bool is_control_keyword(const std::string& s) {
  return s == "if" || s == "else" || s == "for" || s == "while" ||
         s == "switch" || s == "do" || s == "try" || s == "catch";
}

bool match_group(const std::vector<Token>& toks, std::size_t open,
                 const char* open_p, const char* close_p,
                 std::size_t* close) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].in_pp) continue;
    if (toks[i].is_punct(open_p)) ++depth;
    if (toks[i].is_punct(close_p)) {
      --depth;
      if (depth == 0) {
        *close = i;
        return true;
      }
    }
  }
  return false;
}

bool match_paren(const std::vector<Token>& toks, std::size_t open,
                 std::size_t* close) {
  return match_group(toks, open, "(", ")", close);
}

bool match_bracket(const std::vector<Token>& toks, std::size_t open,
                   std::size_t* close) {
  return match_group(toks, open, "[", "]", close);
}

std::string join_tokens(const std::vector<Token>& toks, std::size_t begin,
                        std::size_t end) {
  std::string out;
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    if (toks[i].in_pp) continue;
    if (!out.empty() && toks[i].kind == TokKind::kIdentifier &&
        toks[i - 1].kind == TokKind::kIdentifier) {
      out += ' ';
    }
    out += toks[i].text;
  }
  return out;
}

struct Scope {
  enum class Kind { kNamespace, kClass, kEnum, kFunction, kLambda, kBlock };
  Kind kind;
  std::string name;          // namespace/class name ("" when anonymous)
  std::size_t symbol = npos; // kFunction/kLambda: index into out.symbols
};

/// Per-file heuristic scope parser. Walks the token stream once,
/// maintaining the namespace/class/function/lambda nesting, and appends
/// every discovered symbol to `out`.
class FileParser {
 public:
  FileParser(const Model& model, std::size_t file, SymbolIndex* out)
      : toks_(model.files[file].lex.tokens), file_(file), out_(out) {}

  void run();

 private:
  const Token& tok(std::size_t i) const { return toks_[i]; }

  /// Innermost enclosing function/lambda symbol id, else npos.
  std::size_t enclosing_callable() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kFunction ||
          it->kind == Scope::Kind::kLambda) {
        return it->symbol;
      }
    }
    return npos;
  }

  Scope::Kind innermost_kind() const {
    return scopes_.empty() ? Scope::Kind::kNamespace : scopes_.back().kind;
  }

  /// "ns::Class::" prefix from the open scopes.
  std::string scope_prefix() const {
    std::string prefix;
    for (const auto& s : scopes_) {
      if ((s.kind == Scope::Kind::kNamespace ||
           s.kind == Scope::Kind::kClass) &&
          !s.name.empty()) {
        prefix += s.name + "::";
      }
    }
    return prefix;
  }

  std::size_t add_symbol(Symbol sym) {
    out_->symbols.push_back(std::move(sym));
    const std::size_t id = out_->symbols.size() - 1;
    out_->by_file[file_].push_back(id);
    return id;
  }

  void classify_open_brace(std::size_t i);
  void maybe_variable_decl(std::size_t stmt_begin, std::size_t stmt_end);
  bool try_lambda(std::size_t i, std::size_t* resume);

  const std::vector<Token>& toks_;
  std::size_t file_;
  SymbolIndex* out_;
  std::vector<Scope> scopes_;
  std::size_t stmt_start_ = 0;
  // body-open brace token index -> lambda symbol id (filled when the
  // introducer is recognized, consumed when the walk reaches the brace).
  std::map<std::size_t, std::size_t> lambda_bodies_;
};

bool FileParser::try_lambda(std::size_t i, std::size_t* resume) {
  // Reject subscripts/attributes: a lambda introducer cannot directly
  // follow a value-producing token.
  if (i > 0) {
    const Token& prev = tok(i - 1);
    if (prev.kind == TokKind::kIdentifier && !is_keyword(prev.text)) {
      return false;
    }
    if (prev.kind == TokKind::kNumber || prev.is_punct(")") ||
        prev.is_punct("]")) {
      return false;
    }
  }
  std::size_t cap_end = 0;
  if (!match_bracket(toks_, i, &cap_end)) return false;

  std::size_t j = cap_end + 1;
  std::size_t params_begin = npos, params_end = npos;
  if (j < toks_.size() && tok(j).is_punct("(")) {
    std::size_t close = 0;
    if (!match_paren(toks_, j, &close)) return false;
    params_begin = j;
    params_end = close;
    j = close + 1;
  }
  // Skip mutable/noexcept/trailing-return tokens up to the body brace;
  // bail on anything that ends the expression first.
  std::size_t body = npos;
  for (std::size_t k = j; k < toks_.size() && k < j + 32; ++k) {
    if (tok(k).is_punct("{")) {
      body = k;
      break;
    }
    if (tok(k).is_punct(";") || tok(k).is_punct(")") ||
        tok(k).is_punct(",") || tok(k).is_punct("]")) {
      return false;
    }
  }
  if (body == npos) return false;

  Symbol sym;
  sym.kind = Symbol::Kind::kLambda;
  sym.name = "<lambda>";
  sym.file = file_;
  sym.line = tok(i).line;
  sym.col = tok(i).col;
  sym.params_begin = params_begin;
  sym.params_end = params_end;
  sym.parent = enclosing_callable();
  // `auto worker = [..]` binds the lambda to a local name.
  if (i >= 2 && tok(i - 1).is_punct("=") &&
      tok(i - 2).kind == TokKind::kIdentifier &&
      !is_keyword(tok(i - 2).text)) {
    sym.bound_name = tok(i - 2).text;
  }
  sym.qual_name = scope_prefix() +
                  (sym.bound_name.empty() ? "<lambda>" : sym.bound_name);
  const std::size_t id = add_symbol(std::move(sym));
  if (!out_->symbols[id].bound_name.empty()) {
    out_->callables_by_name.emplace(out_->symbols[id].bound_name, id);
  }
  lambda_bodies_[body] = id;
  *resume = cap_end;  // keep walking inside the capture list's successors
  return true;
}

void FileParser::classify_open_brace(std::size_t i) {
  // A lambda introducer already claimed this brace as its body.
  auto pending = lambda_bodies_.find(i);
  if (pending != lambda_bodies_.end()) {
    out_->symbols[pending->second].body_begin = i;
    scopes_.push_back({Scope::Kind::kLambda, "", pending->second});
    lambda_bodies_.erase(pending);
    return;
  }

  const std::size_t begin = stmt_start_;
  // Aggregate / designated initializer: `= {...}`.
  if (i > begin && tok(i - 1).is_punct("=")) {
    scopes_.push_back({Scope::Kind::kBlock, "", npos});
    return;
  }

  std::size_t last_class_kw = npos;
  bool has_namespace = false, has_enum = false, has_control = false;
  int paren_depth = 0;
  for (std::size_t k = begin; k < i; ++k) {
    if (tok(k).in_pp) continue;
    if (tok(k).is_punct("(")) ++paren_depth;
    if (tok(k).is_punct(")")) --paren_depth;
    if (tok(k).kind != TokKind::kIdentifier || paren_depth > 0) continue;
    const std::string& s = tok(k).text;
    if (s == "namespace") has_namespace = true;
    if (s == "enum") has_enum = true;
    if (s == "class" || s == "struct" || s == "union") last_class_kw = k;
    if (is_control_keyword(s)) has_control = true;
  }

  if (has_namespace) {
    std::string name;
    for (std::size_t k = i; k-- > begin;) {
      if (tok(k).kind == TokKind::kIdentifier && tok(k).text != "namespace") {
        name = tok(k).text;
        break;
      }
      if (tok(k).is_id("namespace")) break;
    }
    scopes_.push_back({Scope::Kind::kNamespace, name, npos});
    return;
  }
  if (has_enum) {
    scopes_.push_back({Scope::Kind::kEnum, "", npos});
    return;
  }
  if (last_class_kw != npos) {
    std::string name;
    if (last_class_kw + 1 < i &&
        tok(last_class_kw + 1).kind == TokKind::kIdentifier) {
      name = tok(last_class_kw + 1).text;
    }
    scopes_.push_back({Scope::Kind::kClass, name, npos});
    return;
  }
  if (has_control) {
    scopes_.push_back({Scope::Kind::kBlock, "", npos});
    return;
  }

  // Function definition: `ret Qual::name ( params ) qualifiers {` at
  // namespace or class scope. Inside a function body, every remaining
  // brace is a plain block.
  const Scope::Kind at = innermost_kind();
  if (at != Scope::Kind::kNamespace && at != Scope::Kind::kClass) {
    scopes_.push_back({Scope::Kind::kBlock, "", npos});
    return;
  }
  std::size_t name_tok = npos, params_open = npos;
  int depth = 0;
  for (std::size_t k = begin; k < i; ++k) {
    if (tok(k).in_pp) continue;
    if (tok(k).is_punct("(")) {
      if (depth == 0 && k > begin && params_open == npos) {
        const Token& before = tok(k - 1);
        if (before.kind == TokKind::kIdentifier && !is_keyword(before.text)) {
          name_tok = k - 1;
          params_open = k;
        } else if (before.kind == TokKind::kPunct && k >= 2 &&
                   tok(k - 2).is_id("operator")) {
          name_tok = k - 2;  // operator<< and friends
          params_open = k;
        }
      }
      ++depth;
    }
    if (tok(k).is_punct(")")) --depth;
  }
  if (name_tok == npos) {
    scopes_.push_back({Scope::Kind::kBlock, "", npos});
    return;
  }

  Symbol sym;
  sym.kind = Symbol::Kind::kFunction;
  sym.name = tok(name_tok).is_id("operator")
                 ? "operator" + tok(name_tok + 1).text
                 : tok(name_tok).text;
  sym.file = file_;
  sym.line = tok(name_tok).line;
  sym.col = tok(name_tok).col;
  // Out-of-line qualifiers: `EventLoop::schedule_at` -> EventLoop:: chain.
  std::string qualifier;
  for (std::size_t k = name_tok; k >= 2 && tok(k - 1).is_punct("::") &&
                                 tok(k - 2).kind == TokKind::kIdentifier;
       k -= 2) {
    qualifier = tok(k - 2).text + "::" + qualifier;
  }
  sym.qual_name = scope_prefix() + qualifier + sym.name;
  sym.type_text = join_tokens(toks_, begin, name_tok);
  // Const method: `) const ... {`.
  std::size_t close = 0;
  if (params_open != npos && match_paren(toks_, params_open, &close)) {
    sym.params_begin = params_open;
    sym.params_end = close;
    for (std::size_t k = close + 1; k < i; ++k) {
      if (tok(k).is_id("const")) sym.is_const = true;
    }
  }
  const std::size_t id = add_symbol(std::move(sym));
  out_->symbols[id].body_begin = i;
  out_->callables_by_name.emplace(out_->symbols[id].name, id);
  scopes_.push_back({Scope::Kind::kFunction, "", id});
}

void FileParser::maybe_variable_decl(std::size_t begin, std::size_t end) {
  const Scope::Kind at = innermost_kind();
  const std::size_t parent = enclosing_callable();
  const bool in_callable = parent != npos;
  // Namespace-scope globals, class fields, and function-local statics;
  // non-static locals are the dataflow skeleton's job (dataflow.cpp).
  if (at == Scope::Kind::kEnum) return;
  if (in_callable && !(begin < end && tok(begin).is_id("static"))) return;
  if (at == Scope::Kind::kBlock && !in_callable) return;

  bool is_static = false, is_const = false, rejected = false;
  std::size_t name_tok = npos;
  int paren_depth = 0, bracket_depth = 0;
  for (std::size_t k = begin; k < end; ++k) {
    if (tok(k).in_pp) continue;
    const Token& t = tok(k);
    if (t.is_punct("(")) ++paren_depth;
    if (t.is_punct(")")) --paren_depth;
    if (t.is_punct("[")) ++bracket_depth;
    if (t.is_punct("]")) --bracket_depth;
    if (t.kind != TokKind::kIdentifier) continue;
    const std::string& s = t.text;
    if (s == "using" || s == "typedef" || s == "friend" || s == "extern" ||
        s == "namespace" || s == "operator" || s == "return" ||
        s == "template" || s == "class" || s == "struct" || s == "union" ||
        s == "enum" || is_control_keyword(s)) {
      rejected = true;
      break;
    }
    if (s == "static") is_static = true;
    if ((s == "const" || s == "constexpr") && name_tok == npos) {
      is_const = true;
    }
    if (paren_depth > 0 || bracket_depth > 0 || name_tok != npos) continue;
    // Declarator: `Type name` followed by = ; { [  — with a type-ish
    // token right before the name.
    if (is_keyword(s) || k == begin || k + 1 > end) continue;
    const Token& prev = tok(k - 1);
    const bool typed_before =
        (prev.kind == TokKind::kIdentifier && !is_control_keyword(prev.text) &&
         prev.text != "return") ||
        prev.is_punct(">") || prev.is_punct("*") || prev.is_punct("&");
    if (!typed_before) continue;
    const bool ends_decl =
        k + 1 == end || tok(k + 1).is_punct("=") || tok(k + 1).is_punct("{") ||
        tok(k + 1).is_punct("[");
    if (ends_decl) name_tok = k;
  }
  if (rejected || name_tok == npos) return;
  // `a == b` is a comparison, not a declaration.
  if (name_tok + 2 < end && tok(name_tok + 1).is_punct("=") &&
      tok(name_tok + 2).is_punct("=")) {
    return;
  }

  Symbol sym;
  sym.file = file_;
  sym.name = tok(name_tok).text;
  sym.line = tok(name_tok).line;
  sym.col = tok(name_tok).col;
  sym.is_const = is_const;
  sym.type_text = join_tokens(toks_, begin, name_tok);
  if (in_callable) {
    if (!is_static) return;
    sym.kind = Symbol::Kind::kStaticLocal;
    sym.parent = parent;
  } else if (at == Scope::Kind::kClass) {
    sym.kind = Symbol::Kind::kField;
  } else {
    sym.kind = Symbol::Kind::kGlobal;
  }
  sym.qual_name = scope_prefix() + sym.name;
  add_symbol(std::move(sym));
}

void FileParser::run() {
  for (std::size_t i = 0; i < toks_.size(); ++i) {
    const Token& t = tok(i);
    if (t.in_pp) {
      stmt_start_ = i + 1;
      continue;
    }
    if (t.is_punct("[")) {
      std::size_t resume = i;
      if (try_lambda(i, &resume)) {
        i = resume;  // walk capture contents' successors normally
        continue;
      }
      std::size_t close = 0;
      if (match_bracket(toks_, i, &close)) i = close;  // subscript/attribute
      continue;
    }
    if (t.is_punct("{")) {
      classify_open_brace(i);
      stmt_start_ = i + 1;
      continue;
    }
    if (t.is_punct("}")) {
      if (!scopes_.empty()) {
        const Scope& top = scopes_.back();
        if (top.symbol != npos) out_->symbols[top.symbol].body_end = i;
        scopes_.pop_back();
      }
      stmt_start_ = i + 1;
      continue;
    }
    if (t.is_punct(";")) {
      maybe_variable_decl(stmt_start_, i);
      stmt_start_ = i + 1;
      continue;
    }
    if (t.is_punct("(")) {
      // Keep statement boundaries out of argument lists: `f(a; b)` cannot
      // occur, but `for (a; b; c)` can — skip the whole group.
      const std::size_t begin = stmt_start_;
      std::size_t close = 0;
      if (i > begin && match_paren(toks_, i, &close)) {
        bool is_for = false;
        for (std::size_t k = begin; k < i; ++k) {
          if (tok(k).is_id("for")) is_for = true;
        }
        if (is_for) i = close;
      }
      continue;
    }
  }
}

}  // namespace

std::size_t SymbolIndex::enclosing_callable(std::size_t file,
                                            std::size_t tok) const {
  std::size_t best = Symbol::npos;
  std::size_t best_begin = 0;
  for (const std::size_t id : by_file[file]) {
    const Symbol& s = symbols[id];
    if (!s.is_callable() || s.body_begin == Symbol::npos ||
        s.body_end == Symbol::npos) {
      continue;
    }
    if (s.body_begin < tok && tok < s.body_end &&
        (best == Symbol::npos || s.body_begin >= best_begin)) {
      best = id;
      best_begin = s.body_begin;
    }
  }
  return best;
}

SymbolIndex build_symbol_index(const Model& model) {
  SymbolIndex index;
  index.by_file.resize(model.files.size());
  for (std::size_t f = 0; f < model.files.size(); ++f) {
    FileParser(model, f, &index).run();
  }
  return index;
}

}  // namespace quicsteps::analyze
