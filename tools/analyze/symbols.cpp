#include "symbols.hpp"

#include <map>

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

struct Scope {
  enum class Kind { kNamespace, kClass, kFunction, kLambda, kBlock };
  Kind kind;
  std::size_t symbol = npos;  // kFunction/kLambda: index into out.symbols
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

  Scope::Kind innermost_kind() const {
    return scopes_.empty() ? Scope::Kind::kNamespace : scopes_.back().kind;
  }

  std::size_t add_symbol(Symbol sym) {
    out_->symbols.push_back(std::move(sym));
    return out_->symbols.size() - 1;
  }

  void classify_open_brace(std::size_t i);
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
  sym.params_begin = params_begin;
  sym.params_end = params_end;
  lambda_bodies_[body] = add_symbol(std::move(sym));
  *resume = cap_end;  // keep walking inside the capture list's successors
  return true;
}

void FileParser::classify_open_brace(std::size_t i) {
  // A lambda introducer already claimed this brace as its body.
  auto pending = lambda_bodies_.find(i);
  if (pending != lambda_bodies_.end()) {
    out_->symbols[pending->second].body_begin = i;
    scopes_.push_back({Scope::Kind::kLambda, pending->second});
    lambda_bodies_.erase(pending);
    return;
  }

  const std::size_t begin = stmt_start_;
  // Aggregate / designated initializer: `= {...}`.
  if (i > begin && tok(i - 1).is_punct("=")) {
    scopes_.push_back({Scope::Kind::kBlock, npos});
    return;
  }

  bool has_namespace = false, has_enum = false, has_class = false,
       has_control = false;
  int paren_depth = 0;
  for (std::size_t k = begin; k < i; ++k) {
    if (tok(k).in_pp) continue;
    if (tok(k).is_punct("(")) ++paren_depth;
    if (tok(k).is_punct(")")) --paren_depth;
    if (tok(k).kind != TokKind::kIdentifier || paren_depth > 0) continue;
    const std::string& s = tok(k).text;
    if (s == "namespace") has_namespace = true;
    if (s == "enum") has_enum = true;
    if (s == "class" || s == "struct" || s == "union") has_class = true;
    if (is_control_keyword(s)) has_control = true;
  }

  if (has_namespace) {
    scopes_.push_back({Scope::Kind::kNamespace, npos});
    return;
  }
  if (has_enum) {  // before has_class: `enum class` opens no class
    scopes_.push_back({Scope::Kind::kBlock, npos});
    return;
  }
  if (has_class) {
    scopes_.push_back({Scope::Kind::kClass, npos});
    return;
  }
  if (has_control) {
    scopes_.push_back({Scope::Kind::kBlock, npos});
    return;
  }

  // Function definition: `ret Qual::name ( params ) qualifiers {` at
  // namespace or class scope. Inside a function body, every remaining
  // brace is a plain block.
  const Scope::Kind at = innermost_kind();
  if (at != Scope::Kind::kNamespace && at != Scope::Kind::kClass) {
    scopes_.push_back({Scope::Kind::kBlock, npos});
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
    scopes_.push_back({Scope::Kind::kBlock, npos});
    return;
  }

  Symbol sym;
  sym.kind = Symbol::Kind::kFunction;
  sym.name = tok(name_tok).is_id("operator")
                 ? "operator" + tok(name_tok + 1).text
                 : tok(name_tok).text;
  sym.file = file_;
  std::size_t close = 0;
  if (match_paren(toks_, params_open, &close)) {
    sym.params_begin = params_open;
    sym.params_end = close;
  }
  sym.body_begin = i;
  scopes_.push_back({Scope::Kind::kFunction, add_symbol(std::move(sym))});
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

SymbolIndex build_symbol_index(const Model& model) {
  SymbolIndex index;
  for (std::size_t f = 0; f < model.files.size(); ++f) {
    FileParser(model, f, &index).run();
  }
  return index;
}

}  // namespace quicsteps::analyze
