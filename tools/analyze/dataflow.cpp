#include "dataflow.hpp"

namespace quicsteps::analyze {

namespace {

constexpr std::size_t npos = Symbol::npos;

bool is_control_keyword(const std::string& s) {
  return s == "if" || s == "else" || s == "for" || s == "while" ||
         s == "switch" || s == "do" || s == "try" || s == "catch";
}

bool is_decl_stopper(const std::string& s) {
  return s == "return" || s == "using" || s == "typedef" || s == "throw" ||
         s == "delete" || s == "goto" || s == "case" || s == "break" ||
         s == "continue" || s == "co_return" || s == "co_yield" ||
         is_control_keyword(s);
}

bool is_type_keyword(const std::string& s) {
  return s == "auto" || s == "const" || s == "constexpr" || s == "static" ||
         s == "unsigned" || s == "signed" || s == "int" || s == "long" ||
         s == "short" || s == "char" || s == "bool" || s == "double" ||
         s == "float" || s == "void" || s == "size_t";
}

bool match_paren(const std::vector<Token>& toks, std::size_t open,
                 std::size_t* close) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].in_pp) continue;
    if (toks[i].is_punct("(")) ++depth;
    if (toks[i].is_punct(")")) {
      --depth;
      if (depth == 0) {
        *close = i;
        return true;
      }
    }
  }
  return false;
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

class BodyScanner {
 public:
  BodyScanner(const std::vector<Token>& toks, const Symbol& sym,
              CallableDataflow* out)
      : toks_(toks), sym_(sym), out_(out) {}

  void run() {
    collect_params();
    collect_locals();
    collect_defs();
  }

 private:
  const Token& tok(std::size_t i) const { return toks_[i]; }

  void add_param(std::size_t begin, std::size_t end) {
    // `Type name`, `Type name = default` — the name is the last identifier
    // before the end / `=`.
    std::size_t stop = end;
    for (std::size_t k = begin; k < end; ++k) {
      if (tok(k).is_punct("=")) {
        stop = k;
        break;
      }
    }
    std::size_t name_tok = npos;
    for (std::size_t k = stop; k-- > begin;) {
      if (tok(k).in_pp) continue;
      if (tok(k).kind == TokKind::kIdentifier && !is_type_keyword(tok(k).text)) {
        // Skip template-argument identifiers: require the name outside <>.
        int angle = 0;
        for (std::size_t j = k + 1; j < stop; ++j) {
          if (tok(j).is_punct(">")) ++angle;
          if (tok(j).is_punct("<")) --angle;
        }
        if (angle != 0) continue;
        name_tok = k;
        break;
      }
      break;  // ends with `&`, `*`, `...` etc: unnamed parameter
    }
    if (name_tok == npos || name_tok == begin) return;
    Local local;
    local.name = tok(name_tok).text;
    local.decl_tok = name_tok;
    local.type_text = join_tokens(toks_, begin, name_tok);
    local.is_param = true;
    out_->locals.push_back(std::move(local));
  }

  void collect_params() {
    if (sym_.params_begin == npos || sym_.params_end == npos) return;
    std::size_t piece = sym_.params_begin + 1;
    int depth = 0;
    for (std::size_t k = piece; k <= sym_.params_end; ++k) {
      if (tok(k).in_pp) continue;
      if (tok(k).is_punct("(") || tok(k).is_punct("<") ||
          tok(k).is_punct("[") || tok(k).is_punct("{")) {
        ++depth;
      }
      if (tok(k).is_punct(")") || tok(k).is_punct(">") ||
          tok(k).is_punct("]") || tok(k).is_punct("}")) {
        --depth;
      }
      const bool at_end = k == sym_.params_end;
      if ((tok(k).is_punct(",") && depth == 0) || at_end) {
        if (k > piece) add_param(piece, k);
        piece = k + 1;
      }
    }
  }

  /// Declaration heuristic over one statement: `Type name = ...`,
  /// `Type name(...)`, `Type name{...}`, `Type name;`.
  void maybe_local_decl(std::size_t begin, std::size_t end) {
    std::size_t name_tok = npos;
    int paren = 0, bracket = 0;
    for (std::size_t k = begin; k < end; ++k) {
      if (tok(k).in_pp) continue;
      const Token& t = tok(k);
      if (t.is_punct("(")) ++paren;
      if (t.is_punct(")")) --paren;
      if (t.is_punct("[")) ++bracket;
      if (t.is_punct("]")) --bracket;
      if (t.kind != TokKind::kIdentifier) continue;
      if (is_decl_stopper(t.text) || t.text == "operator" ||
          t.text == "template" || t.text == "namespace") {
        return;
      }
      if (paren > 0 || bracket > 0 || name_tok != npos) continue;
      if (is_type_keyword(t.text) && t.text != "auto") continue;
      if (k == begin) continue;
      const Token& prev = tok(k - 1);
      const bool typed_before =
          (prev.kind == TokKind::kIdentifier &&
           prev.text != "return" && !is_control_keyword(prev.text)) ||
          prev.is_punct(">") || prev.is_punct("*") || prev.is_punct("&");
      if (!typed_before) continue;
      const bool ends_decl =
          k + 1 == end || tok(k + 1).is_punct("=") ||
          tok(k + 1).is_punct("{") || tok(k + 1).is_punct("(") ||
          tok(k + 1).is_punct("[");
      if (!ends_decl) continue;
      // `a == b` and `a <= b` are comparisons.
      if (k + 2 < end && tok(k + 1).is_punct("=") && tok(k + 2).is_punct("=")) {
        continue;
      }
      name_tok = k;
    }
    if (name_tok == npos) return;

    Local local;
    local.name = tok(name_tok).text;
    local.decl_tok = name_tok;
    local.type_text = join_tokens(toks_, begin, name_tok);
    // Initializer counts as the first def: `auto x = f();`.
    if (name_tok + 1 < end && (tok(name_tok + 1).is_punct("=") ||
                               tok(name_tok + 1).is_punct("(") ||
                               tok(name_tok + 1).is_punct("{"))) {
      Def def;
      def.tok = name_tok;
      def.rhs_begin = name_tok + 2;
      def.rhs_end = end;
      local.defs.push_back(def);
    }
    out_->locals.push_back(std::move(local));
  }

  /// `for (T x : range)` — bind x, remember the range expression.
  /// `for (init; cond; step)` — run the decl heuristic on init.
  void handle_for(std::size_t open, std::size_t close) {
    std::size_t colon = npos, semi = npos;
    int depth = 0;
    for (std::size_t k = open + 1; k < close; ++k) {
      if (tok(k).in_pp) continue;
      if (tok(k).is_punct("(") || tok(k).is_punct("[") ||
          tok(k).is_punct("{")) {
        ++depth;
      }
      if (tok(k).is_punct(")") || tok(k).is_punct("]") ||
          tok(k).is_punct("}")) {
        --depth;
      }
      if (depth != 0) continue;
      if (tok(k).is_punct(":") && colon == npos &&
          !(k > 0 && tok(k - 1).is_punct(":")) &&
          !(k + 1 < close && tok(k + 1).is_punct(":"))) {
        colon = k;
      }
      if (tok(k).is_punct(";") && semi == npos) semi = k;
    }
    if (colon != npos && semi == npos) {
      // Range-for: name is the identifier right before the ':'.
      std::size_t name_tok = npos;
      for (std::size_t k = colon; k-- > open + 1;) {
        if (tok(k).in_pp) continue;
        if (tok(k).kind == TokKind::kIdentifier) name_tok = k;
        break;
      }
      if (name_tok == npos) return;
      Local local;
      local.name = tok(name_tok).text;
      local.decl_tok = name_tok;
      local.type_text = join_tokens(toks_, open + 1, name_tok);
      out_->locals.push_back(std::move(local));
    } else if (semi != npos) {
      maybe_local_decl(open + 1, semi);
    }
  }

  void collect_locals() {
    std::size_t stmt_start = sym_.body_begin + 1;
    for (std::size_t i = sym_.body_begin + 1; i < sym_.body_end; ++i) {
      const Token& t = tok(i);
      if (t.in_pp) {
        stmt_start = i + 1;
        continue;
      }
      if (t.is_punct("{") || t.is_punct("}")) {
        stmt_start = i + 1;
        continue;
      }
      if (t.is_punct(";")) {
        maybe_local_decl(stmt_start, i);
        stmt_start = i + 1;
        continue;
      }
      if (t.is_id("for") && i + 1 < sym_.body_end &&
          tok(i + 1).is_punct("(")) {
        std::size_t close = 0;
        if (match_paren(toks_, i + 1, &close) && close < sym_.body_end) {
          handle_for(i + 1, close);
          i = close;
          stmt_start = i + 1;
        }
        continue;
      }
      if (t.is_punct("(") && i > stmt_start) {
        // Skip argument lists so their ';' (impossible) or ',' never split
        // statements; condition parens of if/while are fine to walk.
        continue;
      }
    }
  }

  void collect_defs() {
    for (std::size_t i = sym_.body_begin + 1; i < sym_.body_end; ++i) {
      const Token& t = tok(i);
      if (t.in_pp || t.kind != TokKind::kIdentifier) continue;
      const std::size_t local_id = out_->find(t.text);
      if (local_id == npos) continue;
      Local& local = out_->locals[local_id];
      if (i == local.decl_tok) continue;
      // Member access `obj.x` / `p->x` / `A::x` is not this local.
      if (i > 0 && (tok(i - 1).is_punct(".") || tok(i - 1).is_punct("->") ||
                    tok(i - 1).is_punct("::"))) {
        continue;
      }
      const bool next_eq = i + 1 < sym_.body_end && tok(i + 1).is_punct("=");
      const bool next_next_eq =
          i + 2 < sym_.body_end && tok(i + 2).is_punct("=");
      if (next_eq && !next_next_eq) {
        // Plain assignment; find the statement end for the RHS range.
        std::size_t end = i + 2;
        int depth = 0;
        while (end < sym_.body_end) {
          if (tok(end).is_punct("(") || tok(end).is_punct("[") ||
              tok(end).is_punct("{")) {
            ++depth;
          }
          if (tok(end).is_punct(")") || tok(end).is_punct("]") ||
              tok(end).is_punct("}")) {
            if (depth == 0) break;
            --depth;
          }
          if (tok(end).is_punct(";") && depth == 0) break;
          ++end;
        }
        Def def;
        def.tok = i;
        def.rhs_begin = i + 2;
        def.rhs_end = end;
        local.defs.push_back(def);
        continue;
      }
      // Compound assignment lexes as two puncts: `x += 1` is x + = 1.
      const bool compound =
          i + 2 < sym_.body_end && next_next_eq &&
          (tok(i + 1).is_punct("+") || tok(i + 1).is_punct("-") ||
           tok(i + 1).is_punct("*") || tok(i + 1).is_punct("/") ||
           tok(i + 1).is_punct("%") || tok(i + 1).is_punct("&") ||
           tok(i + 1).is_punct("|") || tok(i + 1).is_punct("^"));
      const bool inc_dec =
          (i + 2 < sym_.body_end && tok(i + 1).is_punct("+") &&
           tok(i + 2).is_punct("+")) ||
          (i + 2 < sym_.body_end && tok(i + 1).is_punct("-") &&
           tok(i + 2).is_punct("-")) ||
          (i >= 2 && tok(i - 1).is_punct("+") && tok(i - 2).is_punct("+")) ||
          (i >= 2 && tok(i - 1).is_punct("-") && tok(i - 2).is_punct("-"));
      if (compound || inc_dec) {
        Def def;
        def.tok = i;
        def.rhs_begin = i;
        def.rhs_end = i;
        local.defs.push_back(def);
      }
    }
  }

  const std::vector<Token>& toks_;
  const Symbol& sym_;
  CallableDataflow* out_;
};

}  // namespace

std::size_t CallableDataflow::find(const std::string& name) const {
  for (std::size_t i = 0; i < locals.size(); ++i) {
    if (locals[i].name == name) return i;
  }
  return Symbol::npos;
}

const CallableDataflow* Dataflow::for_symbol(std::size_t symbol) const {
  auto it = by_symbol.find(symbol);
  return it == by_symbol.end() ? nullptr : &callables[it->second];
}

Dataflow build_dataflow(const Model& model, const SymbolIndex& index) {
  Dataflow flow;
  for (std::size_t id = 0; id < index.symbols.size(); ++id) {
    const Symbol& sym = index.symbols[id];
    if (sym.body_begin == Symbol::npos || sym.body_end == Symbol::npos) {
      continue;
    }
    CallableDataflow df;
    df.symbol = id;
    BodyScanner(model.files[sym.file].lex.tokens, sym, &df).run();
    flow.by_symbol[id] = flow.callables.size();
    flow.callables.push_back(std::move(df));
  }
  return flow;
}

}  // namespace quicsteps::analyze
