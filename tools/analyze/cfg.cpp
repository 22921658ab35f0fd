#include "cfg.hpp"

#include <algorithm>

namespace quicsteps::analyze {

namespace {

constexpr std::size_t npos = CfgBlock::npos;

/// Index of the ')' matching the '(' at `open`, or npos. Skips pp tokens.
std::size_t match_paren(const std::vector<Token>& toks, std::size_t open,
                        std::size_t limit) {
  int depth = 0;
  for (std::size_t i = open; i < limit && i < toks.size(); ++i) {
    if (toks[i].in_pp) continue;
    if (toks[i].is_punct("(")) ++depth;
    if (toks[i].is_punct(")")) {
      if (--depth == 0) return i;
    }
  }
  return npos;
}

/// Index of the '}' matching the '{' at `open`, or npos.
std::size_t match_brace(const std::vector<Token>& toks, std::size_t open,
                        std::size_t limit) {
  int depth = 0;
  for (std::size_t i = open; i < limit && i < toks.size(); ++i) {
    if (toks[i].in_pp) continue;
    if (toks[i].is_punct("{")) ++depth;
    if (toks[i].is_punct("}")) {
      if (--depth == 0) return i;
    }
  }
  return npos;
}

class CfgBuilder {
 public:
  CfgBuilder(const std::vector<Token>& toks, const Symbol& sym,
             std::size_t symbol_id)
      : toks_(toks), sym_(sym) {
    cfg_.symbol = symbol_id;
    cfg_.blocks.resize(2);  // kEntry, kExit
  }

  Cfg build() {
    std::size_t current = Cfg::kEntry;
    parse_region(sym_.body_begin + 1, sym_.body_end, &current);
    link(current, Cfg::kExit);
    return std::move(cfg_);
  }

 private:
  const Token& tok(std::size_t i) const { return toks_[i]; }

  std::size_t new_block() {
    cfg_.blocks.emplace_back();
    return cfg_.blocks.size() - 1;
  }

  void link(std::size_t from, std::size_t to) {
    cfg_.blocks[from].succs.push_back(to);
  }

  void add_stmt(std::size_t block, std::size_t begin, std::size_t end) {
    if (begin >= end) return;
    cfg_.blocks[block].stmts.push_back({begin, end});
  }

  /// End of the plain statement starting at `i`: the ';' at nesting depth
  /// zero (parens, brackets, braces all count — a lambda body is one
  /// statement to the CFG). Returns the ';' index, or `limit`.
  std::size_t stmt_end(std::size_t i, std::size_t limit) const {
    int depth = 0;
    for (std::size_t k = i; k < limit; ++k) {
      if (tok(k).in_pp) continue;
      if (tok(k).is_punct("(") || tok(k).is_punct("[") ||
          tok(k).is_punct("{")) {
        ++depth;
      }
      if (tok(k).is_punct(")") || tok(k).is_punct("]") ||
          tok(k).is_punct("}")) {
        if (depth == 0) return k;  // malformed; stop at the close
        --depth;
      }
      if (tok(k).is_punct(";") && depth == 0) return k;
    }
    return limit;
  }

  /// Lowers a condition expression [begin, end) into a chain of atomic
  /// condition blocks with short-circuit edges. Returns the chain's entry
  /// block id. Splits at top-level `||` first (lowest precedence), then
  /// `&&`; `!x` / `!(...)` swap the targets.
  std::size_t lower_cond(std::size_t begin, std::size_t end,
                         std::size_t true_target, std::size_t false_target) {
    // Strip parens that wrap the whole range.
    while (begin < end && tok(begin).is_punct("(") &&
           match_paren(toks_, begin, end) == end - 1) {
      ++begin;
      --end;
    }
    if (begin >= end) {
      // Empty condition (for(;;)): always true.
      const std::size_t b = new_block();
      cfg_.blocks[b].is_cond = true;
      link(b, true_target);
      link(b, false_target);
      return b;
    }
    // `!expr` where expr spans the rest: swap targets.
    if (tok(begin).is_punct("!") &&
        (begin + 1 == end - 0 || !has_toplevel_binop(begin + 1, end))) {
      return lower_cond(begin + 1, end, false_target, true_target);
    }
    // Top-level split, right-associatively built: find the LAST top-level
    // `||` (then `&&`) so evaluation order stays left-to-right.
    const std::size_t or_at = find_toplevel(begin, end, "||");
    if (or_at != npos) {
      const std::size_t rhs =
          lower_cond(or_at + 1, end, true_target, false_target);
      return lower_cond(begin, or_at, true_target, rhs);
    }
    const std::size_t and_at = find_toplevel(begin, end, "&&");
    if (and_at != npos) {
      const std::size_t rhs =
          lower_cond(and_at + 1, end, true_target, false_target);
      return lower_cond(begin, and_at, rhs, false_target);
    }
    const std::size_t b = new_block();
    cfg_.blocks[b].is_cond = true;
    add_stmt(b, begin, end);
    link(b, true_target);
    link(b, false_target);
    return b;
  }

  /// First top-level occurrence of punct `op` in [begin, end), or npos.
  std::size_t find_toplevel(std::size_t begin, std::size_t end,
                            const char* op) const {
    int depth = 0;
    for (std::size_t k = begin; k < end; ++k) {
      if (tok(k).in_pp) continue;
      if (tok(k).is_punct("(") || tok(k).is_punct("[") ||
          tok(k).is_punct("{")) {
        ++depth;
      }
      if (tok(k).is_punct(")") || tok(k).is_punct("]") ||
          tok(k).is_punct("}")) {
        --depth;
      }
      if (depth == 0 && tok(k).is_punct(op)) return k;
    }
    return npos;
  }

  bool has_toplevel_binop(std::size_t begin, std::size_t end) const {
    return find_toplevel(begin, end, "||") != npos ||
           find_toplevel(begin, end, "&&") != npos;
  }

  /// Parses statements in [begin, end) growing from *current; on return
  /// *current is the block falling through past `end`.
  void parse_region(std::size_t begin, std::size_t end,
                    std::size_t* current) {
    std::size_t i = begin;
    while (i < end) {
      if (tok(i).in_pp || tok(i).is_punct(";")) {
        ++i;
        continue;
      }
      i = parse_stmt(i, end, current);
    }
  }

  /// Parses one statement starting at `i`; returns the index just past it.
  std::size_t parse_stmt(std::size_t i, std::size_t limit,
                         std::size_t* current) {
    const Token& t = tok(i);

    if (t.is_punct("{")) {
      const std::size_t close = match_brace(toks_, i, limit);
      if (close == npos) return limit;
      parse_region(i + 1, close, current);
      return close + 1;
    }

    if (t.is_id("if")) return parse_if(i, limit, current);
    if (t.is_id("while")) return parse_while(i, limit, current);
    if (t.is_id("for")) return parse_for(i, limit, current);
    if (t.is_id("do")) return parse_do(i, limit, current);
    if (t.is_id("switch")) return parse_switch(i, limit, current);

    if (t.is_id("return") || t.is_id("co_return")) {
      const std::size_t semi = stmt_end(i, limit);
      add_stmt(*current, i, semi);
      link(*current, Cfg::kExit);
      *current = new_block();  // unreachable continuation
      return semi + 1;
    }
    if (t.is_id("break") && !break_targets_.empty()) {
      add_stmt(*current, i, i + 1);
      link(*current, break_targets_.back());
      *current = new_block();
      return stmt_end(i, limit) + 1;
    }
    if (t.is_id("continue") && !continue_targets_.empty()) {
      add_stmt(*current, i, i + 1);
      link(*current, continue_targets_.back());
      *current = new_block();
      return stmt_end(i, limit) + 1;
    }

    // `else` without a preceding `if` we parsed (malformed / macro): skip
    // the keyword, parse its statement inline.
    if (t.is_id("else")) return i + 1;

    // `case X:` / `default:` outside a switch we model: skip the label.
    if ((t.is_id("case") || t.is_id("default"))) {
      std::size_t k = i + 1;
      while (k < limit && !tok(k).is_punct(":")) ++k;
      return k + 1;
    }

    // try/catch: lower both blocks as sequential regions (the analyzer's
    // rules treat exceptional edges conservatively as fallthrough).
    if (t.is_id("try")) return i + 1;
    if (t.is_id("catch")) {
      if (i + 1 < limit && tok(i + 1).is_punct("(")) {
        const std::size_t close = match_paren(toks_, i + 1, limit);
        if (close != npos) return close + 1;
      }
      return i + 1;
    }

    // Plain statement.
    const std::size_t semi = stmt_end(i, limit);
    add_stmt(*current, i, semi);
    return semi + 1;
  }

  /// `if [constexpr] (cond) stmt [else stmt]`, including the
  /// if-with-initializer form (`if (init; cond)`).
  std::size_t parse_if(std::size_t i, std::size_t limit,
                       std::size_t* current) {
    std::size_t open = i + 1;
    if (open < limit && tok(open).is_id("constexpr")) ++open;
    if (open >= limit || !tok(open).is_punct("(")) return i + 1;
    const std::size_t close = match_paren(toks_, open, limit);
    if (close == npos) return limit;

    std::size_t cond_begin = open + 1;
    const std::size_t init_semi = find_toplevel(cond_begin, close, ";");
    if (init_semi != npos) {
      add_stmt(*current, cond_begin, init_semi);
      cond_begin = init_semi + 1;
    }

    const std::size_t then_entry = new_block();
    const std::size_t join = new_block();

    // Parse the then-branch first so we can see whether an `else` follows.
    std::size_t then_cur = then_entry;
    std::size_t after = parse_stmt(close + 1, limit, &then_cur);

    std::size_t false_entry = join;
    if (after < limit && tok(after).is_id("else")) {
      const std::size_t else_entry = new_block();
      false_entry = else_entry;
      std::size_t else_cur = else_entry;
      after = parse_stmt(after + 1, limit, &else_cur);
      link(else_cur, join);
    }
    link(then_cur, join);

    const std::size_t chain =
        lower_cond(cond_begin, close, then_entry, false_entry);
    link(*current, chain);
    *current = join;
    return after;
  }

  std::size_t parse_while(std::size_t i, std::size_t limit,
                          std::size_t* current) {
    const std::size_t open = i + 1;
    if (open >= limit || !tok(open).is_punct("(")) return i + 1;
    const std::size_t close = match_paren(toks_, open, limit);
    if (close == npos) return limit;

    const std::size_t head = new_block();
    cfg_.blocks[head].is_loop_head = true;
    link(*current, head);
    const std::size_t body_entry = new_block();
    const std::size_t after = new_block();
    const std::size_t chain = lower_cond(open + 1, close, body_entry, after);
    link(head, chain);

    break_targets_.push_back(after);
    continue_targets_.push_back(head);
    std::size_t body_cur = body_entry;
    const std::size_t next = parse_stmt(close + 1, limit, &body_cur);
    break_targets_.pop_back();
    continue_targets_.pop_back();

    link(body_cur, head);  // back edge
    *current = after;
    return next;
  }

  std::size_t parse_for(std::size_t i, std::size_t limit,
                        std::size_t* current) {
    const std::size_t open = i + 1;
    if (open >= limit || !tok(open).is_punct("(")) return i + 1;
    const std::size_t close = match_paren(toks_, open, limit);
    if (close == npos) return limit;

    const std::size_t semi1 = find_toplevel(open + 1, close, ";");
    const std::size_t colon =
        semi1 == npos ? find_rangefor_colon(open + 1, close) : npos;

    const std::size_t head = new_block();
    cfg_.blocks[head].is_loop_head = true;
    const std::size_t body_entry = new_block();
    const std::size_t after = new_block();

    std::size_t continue_to = head;
    if (colon != npos) {
      // Range-for: the whole header is the (always-may-iterate) condition;
      // the binding declaration rides along for statement-scanning rules.
      link(*current, head);
      const std::size_t cond = new_block();
      cfg_.blocks[cond].is_cond = true;
      add_stmt(cond, open + 1, close);
      link(cond, body_entry);
      link(cond, after);
      link(head, cond);
    } else if (semi1 != npos) {
      const std::size_t semi2 = find_toplevel(semi1 + 1, close, ";");
      add_stmt(*current, open + 1, semi1);  // init runs once, before head
      link(*current, head);
      const std::size_t cond_begin = semi1 + 1;
      const std::size_t cond_end = semi2 == npos ? close : semi2;
      const std::size_t chain =
          lower_cond(cond_begin, cond_end, body_entry, after);
      link(head, chain);
      if (semi2 != npos && semi2 + 1 < close) {
        const std::size_t step = new_block();
        add_stmt(step, semi2 + 1, close);
        link(step, head);
        continue_to = step;
      }
    } else {
      // Malformed header: degrade to a linear statement.
      add_stmt(*current, open + 1, close);
      link(*current, head);
      link(head, body_entry);
    }

    break_targets_.push_back(after);
    continue_targets_.push_back(continue_to);
    std::size_t body_cur = body_entry;
    const std::size_t next = parse_stmt(close + 1, limit, &body_cur);
    break_targets_.pop_back();
    continue_targets_.pop_back();

    link(body_cur, continue_to);
    *current = after;
    return next;
  }

  /// The range-for ':' at top nesting level, not part of '::'.
  std::size_t find_rangefor_colon(std::size_t begin, std::size_t end) const {
    int depth = 0;
    for (std::size_t k = begin; k < end; ++k) {
      if (tok(k).in_pp) continue;
      if (tok(k).is_punct("(") || tok(k).is_punct("[") ||
          tok(k).is_punct("{") || tok(k).is_punct("<")) {
        ++depth;
      }
      if (tok(k).is_punct(")") || tok(k).is_punct("]") ||
          tok(k).is_punct("}") || tok(k).is_punct(">")) {
        --depth;
      }
      if (depth == 0 && tok(k).is_punct(":") &&
          !(k > begin && tok(k - 1).is_punct(":")) &&
          !(k + 1 < end && tok(k + 1).is_punct(":"))) {
        return k;
      }
    }
    return npos;
  }

  std::size_t parse_do(std::size_t i, std::size_t limit,
                       std::size_t* current) {
    const std::size_t head = new_block();
    cfg_.blocks[head].is_loop_head = true;
    link(*current, head);
    const std::size_t after = new_block();
    // continue in a do-loop jumps to the condition; the condition is not
    // built yet, so route through a placeholder join.
    const std::size_t cond_join = new_block();

    break_targets_.push_back(after);
    continue_targets_.push_back(cond_join);
    std::size_t body_cur = head;
    std::size_t next = parse_stmt(i + 1, limit, &body_cur);
    break_targets_.pop_back();
    continue_targets_.pop_back();
    link(body_cur, cond_join);

    if (next < limit && tok(next).is_id("while") && next + 1 < limit &&
        tok(next + 1).is_punct("(")) {
      const std::size_t close = match_paren(toks_, next + 1, limit);
      if (close != npos) {
        const std::size_t chain =
            lower_cond(next + 2, close, head, after);
        link(cond_join, chain);
        return stmt_end(close, limit) + 1;
      }
    }
    // Malformed `do`: fall through.
    link(cond_join, after);
    *current = after;
    return next;
  }

  std::size_t parse_switch(std::size_t i, std::size_t limit,
                           std::size_t* current) {
    const std::size_t open = i + 1;
    if (open >= limit || !tok(open).is_punct("(")) return i + 1;
    const std::size_t close = match_paren(toks_, open, limit);
    if (close == npos || close + 1 >= limit ||
        !tok(close + 1).is_punct("{")) {
      return close == npos ? limit : close + 1;
    }
    const std::size_t body_close = match_brace(toks_, close + 1, limit);
    if (body_close == npos) return limit;

    // The head evaluates the scrutinee, then fans out to every label.
    add_stmt(*current, open + 1, close);
    const std::size_t head = *current;
    const std::size_t after = new_block();

    break_targets_.push_back(after);
    bool has_default = false;
    std::size_t cur = npos;  // dead until the first label
    std::size_t k = close + 2;
    while (k < body_close) {
      if (tok(k).in_pp) {
        ++k;
        continue;
      }
      const bool is_case = tok(k).is_id("case");
      const bool is_default = tok(k).is_id("default");
      if (is_case || is_default) {
        // New label: previous arm falls through into it.
        const std::size_t label = new_block();
        link(head, label);
        if (cur != npos) link(cur, label);
        cur = label;
        has_default = has_default || is_default;
        while (k < body_close && !tok(k).is_punct(":")) ++k;
        ++k;
        continue;
      }
      if (cur == npos) {
        ++k;  // statements before the first label are unreachable
        continue;
      }
      k = parse_stmt(k, body_close, &cur);
    }
    break_targets_.pop_back();
    if (cur != npos) link(cur, after);
    if (!has_default) link(head, after);
    *current = after;
    return body_close + 1;
  }

  const std::vector<Token>& toks_;
  const Symbol& sym_;
  Cfg cfg_;
  std::vector<std::size_t> break_targets_;
  std::vector<std::size_t> continue_targets_;
};

}  // namespace

Cfg build_cfg(const std::vector<Token>& toks, const Symbol& sym,
              std::size_t symbol_id) {
  return CfgBuilder(toks, sym, symbol_id).build();
}

CfgIndex build_cfg_index(const Model& model, const SymbolIndex& index) {
  CfgIndex out;
  for (std::size_t id = 0; id < index.symbols.size(); ++id) {
    const Symbol& sym = index.symbols[id];
    if (sym.body_begin == Symbol::npos || sym.body_end == Symbol::npos) {
      continue;
    }
    out.cfgs.push_back(
        build_cfg(model.files[sym.file].lex.tokens, sym, id));
  }
  return out;
}

}  // namespace quicsteps::analyze
