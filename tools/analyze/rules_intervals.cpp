// units/* interval rules — abstract interpretation over int64 intervals.
//
// sim::Time and sim::Duration keep an INT64_MAX "infinite" sentinel and
// saturate additive arithmetic (saturating_add_ns); net::DataRate keeps
// bps with zero = "link down". The type wrappers cannot protect the raw
// int64 math AROUND them: unwrapping with .ns() and multiplying, scaling
// inside the non-saturating constexpr factories (Duration::millis(ms) is
// a raw multiply), or dividing by a rate nobody proved non-zero. This pass
// runs an interval domain through each callable's CFG (absint.hpp) and
// reports exactly those:
//
//   units/interval-overflow   known-interval multiply/add can exceed int64
//                             BEFORE any saturating wrapper sees it
//   units/div-by-zero-rate    divisor interval contains 0 on some path and
//                             no dominating `> 0` / `!= 0` / !is_zero()
//                             guard refines it away
//
// Narrowing an int64 magnitude into a 32-bit or float local is not a rule
// here: -Wconversion reports every such implicit conversion.
//
// Locals are classified by declared type: plain integers carry their
// evaluated interval, Duration/Time carry their magnitude in ns (always
// int64-bounded, so .ns() on an untracked value is the full range — the
// sentinel IS representable), DataRate carries bps with a default of
// [0, INT64_MAX]: a rate is possibly-zero until a guard proves otherwise.
// Guards refine through the edge-sensitive condition transfer.
#include <cctype>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "absint.hpp"
#include "cfg.hpp"
#include "dataflow.hpp"
#include "rule.hpp"
#include "symbols.hpp"

namespace quicsteps::analyze {

namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();

bool is_ident(const Token& t) { return t.kind == TokKind::kIdentifier; }

bool word_in(const std::string& text, const std::string& w) {
  std::size_t at = 0;
  while ((at = text.find(w, at)) != std::string::npos) {
    const bool l_ok =
        at == 0 || (!std::isalnum(static_cast<unsigned char>(text[at - 1])) &&
                    text[at - 1] != '_');
    const std::size_t after = at + w.size();
    const bool r_ok = after >= text.size() ||
                      (!std::isalnum(static_cast<unsigned char>(text[after])) &&
                       text[after] != '_');
    if (l_ok && r_ok) return true;
    at = after;
  }
  return false;
}

enum class VKind { kNone, kInt, kChrono, kRate };

struct EvalResult {
  IntInterval iv;
  bool known = false;
  // Provenance: the value derives from a chrono unwrap/factory (.ns(),
  // Duration::millis, ...) or a rate unwrap/factory (.bps(), DataRate::...).
  // The overflow/div checks only fire for unit-derived values or
  // provably-bounded constant math — a widened loop counter has neither.
  bool chrono = false;
  bool rate = false;
};

EvalResult unknown_value() { return {}; }
EvalResult known_value(IntInterval iv) { return {iv, true}; }
EvalResult known_value(IntInterval iv, bool chrono, bool rate) {
  EvalResult r{iv, true};
  r.chrono = chrono;
  r.rate = rate;
  return r;
}

struct DefSite {
  std::size_t local = npos;
  std::size_t rhs_begin = 0;
  std::size_t rhs_end = 0;
};

/// Chrono/rate factory scale, or 0 when the name is not a factory.
std::int64_t factory_scale(const std::string& owner, const std::string& fn) {
  if (owner == "Duration") {
    if (fn == "nanos") return 1;
    if (fn == "micros") return 1'000;
    if (fn == "millis") return 1'000'000;
    if (fn == "seconds") return 1'000'000'000;
  } else if (owner == "Time") {
    if (fn == "from_ns") return 1;
  } else if (owner == "DataRate") {
    if (fn == "bits_per_second") return 1;
    if (fn == "kilobits_per_second") return 1'000;
    if (fn == "megabits_per_second") return 1'000'000;
    if (fn == "gigabits_per_second") return 1'000'000'000;
    if (fn == "bytes_per_second") return 8;
  }
  return 0;
}

struct IntervalDomain {
  // local index -> interval. Absent = unknown (nothing provable).
  using State = std::map<std::size_t, IntInterval>;

  const std::vector<Token>* toks = nullptr;
  const CallableDataflow* dfc = nullptr;
  std::vector<VKind> kinds;
  std::map<std::size_t, DefSite> def_at;  // def token -> site
  // Static (flow-insensitive) unit taint per local: any def RHS mentions a
  // chrono/rate unwrap, factory, or an already-tainted local.
  std::vector<std::uint8_t> prov_chrono, prov_rate;

  bool reporting = false;
  const SourceFile* file = nullptr;
  std::vector<Finding>* out = nullptr;
  std::set<std::size_t> reported;

  const Token& tok(std::size_t i) const { return (*toks)[i]; }

  State entry_state() const {
    State st;
    for (std::size_t l = 0; l < dfc->locals.size(); ++l) {
      if (!dfc->locals[l].is_param) continue;
      if (kinds[l] == VKind::kRate) st[l] = IntInterval::range(0, kI64Max);
      if (kinds[l] == VKind::kChrono) st[l] = IntInterval::top();
    }
    return st;
  }

  bool join(State* into, const State& s) const {
    bool changed = false;
    for (auto it = into->begin(); it != into->end();) {
      auto f = s.find(it->first);
      if (f == s.end()) {
        it = into->erase(it);
        changed = true;
      } else {
        if (it->second.join(f->second)) changed = true;
        ++it;
      }
    }
    return changed;
  }

  void widen(State* into, const State& prev) const {
    for (auto& [l, iv] : *into) {
      auto p = prev.find(l);
      if (p != prev.end()) iv.widen(p->second);
    }
  }

  void report(const char* rule, std::size_t at, std::string msg) {
    if (!reporting || !reported.insert(at).second) return;
    Finding f;
    f.rule_id = rule;
    f.file = file->rel_path;
    f.line = tok(at).line;
    f.col = tok(at).col;
    f.message = std::move(msg);
    out->push_back(std::move(f));
  }

  /// Both ends proven finite — constant math, not a widened guard artifact.
  static bool bounded(const IntInterval& iv) {
    return iv.lo != std::numeric_limits<std::int64_t>::min() &&
           iv.hi != kI64Max;
  }
  static bool unit_tainted(const EvalResult& v) { return v.chrono || v.rate; }
  /// Overflow checks only make sense for unit-derived magnitudes (where the
  /// sentinel/full-range intervals are REAL values) or fully bounded
  /// constant arithmetic. A loop counter widened to [k, INT64_MAX] by a
  /// guard is neither — flagging `i + 1` on it is noise.
  static bool overflow_checkable(const EvalResult& l, const EvalResult& r) {
    return unit_tainted(l) || unit_tainted(r) ||
           (bounded(l.iv) && bounded(r.iv));
  }

  static std::string show(const IntInterval& iv) {
    auto one = [](std::int64_t v) -> std::string {
      if (v == kI64Max) return "INT64_MAX";
      if (v == std::numeric_limits<std::int64_t>::min()) return "INT64_MIN";
      return std::to_string(v);
    };
    // Appended rather than `"[" + ...`: GCC 12 at -O3 false-positives
    // -Werror=restrict on operator+(const char*, std::string&&) here.
    std::string out = "[";
    out += one(iv.lo);
    out += ", ";
    out += one(iv.hi);
    out += "]";
    return out;
  }

  // -- expression evaluation -----------------------------------------------

  /// Strips balanced wrapping parens in-place.
  void trim(std::size_t* b, std::size_t* e) const {
    while (*b < *e && tok(*b).is_punct("(") && tok(*e - 1).is_punct(")")) {
      int depth = 0;
      bool wraps = true;
      for (std::size_t k = *b; k + 1 < *e; ++k) {
        if (tok(k).is_punct("(")) ++depth;
        if (tok(k).is_punct(")")) {
          --depth;
          if (depth == 0) {
            wraps = false;
            break;
          }
        }
      }
      if (!wraps) return;
      ++*b;
      --*e;
    }
  }

  /// True when the token can end a value (so a following +/- is binary).
  bool ends_value(std::size_t i) const {
    const Token& t = tok(i);
    return t.kind == TokKind::kNumber || is_ident(t) || t.is_punct(")") ||
           t.is_punct("]");
  }

  /// Last depth-0 occurrence of a binary op in `ops`, or npos.
  std::size_t find_binary(std::size_t b, std::size_t e,
                          const std::set<std::string>& ops) const {
    int depth = 0;
    std::size_t found = npos;
    for (std::size_t k = b; k < e; ++k) {
      const Token& t = tok(k);
      if (t.is_punct("(") || t.is_punct("[") || t.is_punct("{")) ++depth;
      if (t.is_punct(")") || t.is_punct("]") || t.is_punct("}")) --depth;
      if (depth != 0 || t.kind != TokKind::kPunct) continue;
      // `<` / `>` here would be comparisons, not handled at this level.
      if (ops.count(t.text) && k > b && ends_value(k - 1)) found = k;
    }
    return found;
  }

  EvalResult eval_number(const std::string& raw) const {
    std::string digits;
    for (const char c : raw) {
      if (c == '\'') continue;
      digits += c;
    }
    if (digits.find('.') != std::string::npos) return unknown_value();
    const bool hex =
        digits.rfind("0x", 0) == 0 || digits.rfind("0X", 0) == 0;
    if (!hex && (digits.find('e') != std::string::npos ||
                 digits.find('E') != std::string::npos)) {
      return unknown_value();  // 1e9 is a double literal
    }
    // strtoll handles 0x...; trailing integer suffixes stop the parse.
    char* endp = nullptr;
    const long long v = std::strtoll(digits.c_str(), &endp, 0);
    if (endp == digits.c_str()) return unknown_value();
    for (; *endp; ++endp) {
      const char c = static_cast<char>(std::tolower(*endp));
      if (c != 'u' && c != 'l' && c != 'z') return unknown_value();
    }
    return known_value(IntInterval::constant(v));
  }

  /// `Owner::factory(arg)` with optional `sim::`/`net::` qualification.
  /// Returns true and fills *r when matched.
  bool eval_factory(std::size_t b, std::size_t e, VKind want,
                    const State* st, EvalResult* r) {
    // Strip namespace qualifiers: `sim :: Duration :: millis(..)`.
    while (b + 1 < e && is_ident(tok(b)) && tok(b + 1).is_punct("::") &&
           b + 3 < e && is_ident(tok(b + 2)) && tok(b + 3).is_punct("::")) {
      b += 2;
    }
    if (b + 3 >= e || !is_ident(tok(b)) || !tok(b + 1).is_punct("::") ||
        !is_ident(tok(b + 2)) || !tok(b + 3).is_punct("(") ||
        !tok(e - 1).is_punct(")")) {
      return false;
    }
    const std::string& owner = tok(b).text;
    const std::string& fn = tok(b + 2).text;
    const bool chrono_owner = owner == "Duration" || owner == "Time";
    const bool rate_owner = owner == "DataRate";
    if (!chrono_owner && !rate_owner) return false;
    if (want == VKind::kChrono && !chrono_owner) return false;
    if (want == VKind::kRate && !rate_owner) return false;
    if (fn == "zero") {
      *r = known_value(IntInterval::constant(0), chrono_owner, rate_owner);
      return true;
    }
    if (fn == "infinite") {
      *r = known_value(IntInterval::constant(kI64Max), chrono_owner,
                       rate_owner);
      return true;
    }
    const std::int64_t scale = factory_scale(owner, fn);
    if (scale == 0) {
      *r = rate_owner ? known_value(IntInterval::range(0, kI64Max), false,
                                    true)
                      : known_value(IntInterval::top(), true, false);
      return true;
    }
    const EvalResult arg = eval_int_st(b + 4, e - 1, st);
    if (!arg.known) {
      *r = rate_owner ? known_value(IntInterval::range(0, kI64Max), false,
                                    true)
                      : unknown_value();
      return true;
    }
    const IntInterval k = IntInterval::constant(scale);
    // The constexpr factories multiply WITHOUT saturating — a too-large
    // argument is UB before any sentinel logic can intervene. Only flag
    // unit-derived or provably-bounded arguments; a counter the solver
    // widened to [k, INT64_MAX] proves nothing about the real value.
    if (scale > 1 && (unit_tainted(arg) || bounded(arg.iv)) &&
        mul_may_overflow(arg.iv, k)) {
      report("units/interval-overflow", b + 2,
             owner + "::" + fn + "() scales by " + std::to_string(scale) +
                 " without saturating; the argument interval " +
                 show(arg.iv) +
                 " can overflow int64 inside the factory. Clamp the "
                 "argument or build from Duration::nanos().");
    }
    *r = known_value(arg.iv.mul(k), chrono_owner, rate_owner);
    return true;
  }

  /// Integer-valued expression: literals, tracked locals, .ns()/.us()/
  /// .ms()/.bps() unwraps, static_cast, saturating_add_ns, + - * / %.
  EvalResult eval_int_st(std::size_t b, std::size_t e, const State* st) {
    trim(&b, &e);
    if (b >= e) return unknown_value();

    const std::size_t addop = find_binary(b, e, {"+", "-"});
    if (addop != npos) {
      const EvalResult l = eval_int_st(b, addop, st);
      const EvalResult r = eval_int_st(addop + 1, e, st);
      if (!l.known || !r.known) return unknown_value();
      const bool prov_c = l.chrono || r.chrono;
      const bool prov_r = l.rate || r.rate;
      if (tok(addop).is_punct("+")) {
        if (overflow_checkable(l, r) && add_may_overflow(l.iv, r.iv)) {
          report("units/interval-overflow", addop,
                 "addition of intervals " + show(l.iv) + " + " + show(r.iv) +
                     " can exceed int64 — this raw + does not saturate. "
                     "Route through sim::detail::saturating_add_ns or the "
                     "Duration/Time operators.");
        }
        return known_value(l.iv.add(r.iv), prov_c, prov_r);
      }
      return known_value(l.iv.sub(r.iv), prov_c, prov_r);
    }

    const std::size_t mulop = find_binary(b, e, {"*", "/", "%"});
    if (mulop != npos) {
      const EvalResult l = eval_int_st(b, mulop, st);
      const EvalResult r = eval_int_st(mulop + 1, e, st);
      const bool prov_c = l.chrono || r.chrono;
      const bool prov_r = l.rate || r.rate;
      if (tok(mulop).is_punct("/") || tok(mulop).is_punct("%")) {
        // Only unit-typed divisors carry the "zero is a valid state"
        // semantics (rate zero = link down, duration zero = unset).
        if (r.known && unit_tainted(r) && r.iv.contains(0)) {
          report("units/div-by-zero-rate", mulop,
                 "divisor interval " + show(r.iv) +
                     " contains zero on some path to this division — a "
                     "zero rate is a valid 'link down' configuration. "
                     "Guard with `> 0` / `!is_zero()` first.");
        }
        if (!l.known || !r.known) return unknown_value();
        return known_value(l.iv.div(r.iv), prov_c, prov_r);
      }
      if (l.known && r.known && overflow_checkable(l, r) &&
          mul_may_overflow(l.iv, r.iv)) {
        report("units/interval-overflow", mulop,
               "multiply of intervals " + show(l.iv) + " * " + show(r.iv) +
                   " can exceed int64 before any saturating wrapper sees "
                   "the product. Divide first, bound the operands, or use "
                   "__int128 and clamp.");
      }
      if (!l.known || !r.known) return unknown_value();
      return known_value(l.iv.mul(r.iv), prov_c, prov_r);
    }

    return eval_int_atom(b, e, st);
  }

  EvalResult eval_int_atom(std::size_t b, std::size_t e, const State* st) {
    if (tok(b).is_punct("-")) {
      const EvalResult r = eval_int_st(b + 1, e, st);
      if (!r.known) return unknown_value();
      return known_value(IntInterval::constant(0).sub(r.iv), r.chrono,
                         r.rate);
    }
    if (tok(b).is_punct("+")) return eval_int_st(b + 1, e, st);

    if (e - b == 1) {
      if (tok(b).kind == TokKind::kNumber) return eval_number(tok(b).text);
      if (is_ident(tok(b))) {
        const std::string& name = tok(b).text;
        if (name == "INT64_MAX") {
          return known_value(IntInterval::constant(kI64Max));
        }
        if (name == "INT64_MIN") {
          return known_value(IntInterval::constant(
              std::numeric_limits<std::int64_t>::min()));
        }
        if (name == "INT32_MAX") {
          return known_value(IntInterval::constant(2147483647));
        }
        if (st != nullptr) {
          const std::size_t l = dfc->find(name);
          if (l != npos && kinds[l] == VKind::kInt) {
            auto it = st->find(l);
            if (it != st->end()) {
              return known_value(it->second, prov_chrono[l] != 0,
                                 prov_rate[l] != 0);
            }
          }
        }
        return unknown_value();
      }
      return unknown_value();
    }

    // `<recv> . ns ( )` / us / ms / bps — unwrap with the type bound.
    if (e - b >= 5 && tok(e - 1).is_punct(")") && tok(e - 2).is_punct("(") &&
        is_ident(tok(e - 3)) &&
        (tok(e - 4).is_punct(".") || tok(e - 4).is_punct("->"))) {
      const std::string& fn = tok(e - 3).text;
      const auto recv_interval = [&](VKind want,
                                     IntInterval fallback) -> IntInterval {
        if (e - 4 - b == 1 && is_ident(tok(b)) && st != nullptr) {
          const std::size_t l = dfc->find(tok(b).text);
          if (l != npos && kinds[l] == want) {
            auto it = st->find(l);
            if (it != st->end()) return it->second;
          }
        }
        return fallback;
      };
      if (fn == "ns") {
        return known_value(recv_interval(VKind::kChrono, IntInterval::top()),
                           true, false);
      }
      if (fn == "us") {
        return known_value(recv_interval(VKind::kChrono, IntInterval::top())
                               .div(IntInterval::constant(1'000)),
                           true, false);
      }
      if (fn == "ms") {
        return known_value(recv_interval(VKind::kChrono, IntInterval::top())
                               .div(IntInterval::constant(1'000'000)),
                           true, false);
      }
      if (fn == "bps") {
        return known_value(
            recv_interval(VKind::kRate, IntInterval::range(0, kI64Max)),
            false, true);
      }
      return unknown_value();
    }

    // static_cast<T>(expr): evaluate the inner expression.
    if (is_ident(tok(b)) && tok(b).text == "static_cast") {
      std::size_t open = b;
      while (open < e && !tok(open).is_punct("(")) ++open;
      if (open < e && tok(e - 1).is_punct(")")) {
        // Lossy float casts make the value unknowable; integer casts
        // pass through.
        std::string cast_type;
        for (std::size_t k = b + 1; k < open; ++k) cast_type += tok(k).text;
        // Lossy float casts make the value unknowable; a cast to __int128
        // widens past int64, so arithmetic ON the cast result cannot
        // overflow int64 — the blessed overflow-safe escape hatch. The
        // inner expression still computes in its own type: evaluate it for
        // its checks, then drop the bound.
        if (cast_type.find("int128") != std::string::npos) {
          eval_int_st(open + 1, e - 1, st);
          return unknown_value();
        }
        if (cast_type.find("double") != std::string::npos ||
            cast_type.find("float") != std::string::npos) {
          return unknown_value();
        }
        return eval_int_st(open + 1, e - 1, st);
      }
      return unknown_value();
    }

    // saturating_add_ns(a, b) — the blessed helper, never flagged.
    {
      std::size_t fb = b;
      while (fb + 1 < e && is_ident(tok(fb)) && tok(fb + 1).is_punct("::")) {
        fb += 2;
      }
      if (fb + 1 < e && is_ident(tok(fb)) &&
          tok(fb).text == "saturating_add_ns" && tok(fb + 1).is_punct("(") &&
          tok(e - 1).is_punct(")")) {
        int depth = 0;
        std::size_t comma = npos;
        for (std::size_t k = fb + 2; k + 1 < e; ++k) {
          if (tok(k).is_punct("(")) ++depth;
          if (tok(k).is_punct(")")) --depth;
          if (depth == 0 && tok(k).is_punct(",")) comma = k;
        }
        if (comma != npos) {
          const EvalResult l = eval_int_st(fb + 2, comma, st);
          const EvalResult r = eval_int_st(comma + 1, e - 1, st);
          if (l.known && r.known) {
            return known_value(l.iv.add(r.iv), true, false);
          }
        }
        return known_value(IntInterval::top(), true, false);
      }
    }
    return unknown_value();
  }

  /// Duration/Time magnitude in ns. Always int64-bounded, so unresolved
  /// forms are the full range (the sentinel is representable).
  EvalResult eval_chrono(std::size_t b, std::size_t e, const State* st) {
    trim(&b, &e);
    if (b >= e) return known_value(IntInterval::top(), true, false);
    const std::size_t addop = find_binary(b, e, {"+", "-"});
    if (addop != npos) {
      // Duration/Time operator+/- saturate — interval add, never flagged.
      const EvalResult l = eval_chrono(b, addop, st);
      const EvalResult r = eval_chrono(addop + 1, e, st);
      return known_value(tok(addop).is_punct("+") ? l.iv.add(r.iv)
                                                  : l.iv.sub(r.iv),
                         true, false);
    }
    EvalResult r;
    if (eval_factory(b, e, VKind::kChrono, st, &r)) {
      return r.known ? r : known_value(IntInterval::top(), true, false);
    }
    if (e - b == 1 && is_ident(tok(b)) && st != nullptr) {
      const std::size_t l = dfc->find(tok(b).text);
      if (l != npos && kinds[l] == VKind::kChrono) {
        auto it = st->find(l);
        if (it != st->end()) return known_value(it->second, true, false);
      }
    }
    return known_value(IntInterval::top(), true, false);
  }

  /// DataRate magnitude in bps; unresolved = [0, INT64_MAX] (possibly
  /// zero until proven otherwise).
  EvalResult eval_rate(std::size_t b, std::size_t e, const State* st) {
    trim(&b, &e);
    EvalResult r;
    if (b < e && eval_factory(b, e, VKind::kRate, st, &r) && r.known) {
      return r;
    }
    if (b < e && e - b == 1 && is_ident(tok(b)) && st != nullptr) {
      const std::size_t l = dfc->find(tok(b).text);
      if (l != npos && kinds[l] == VKind::kRate) {
        auto it = st->find(l);
        if (it != st->end()) {
          return known_value(it->second, false, true);
        }
      }
    }
    return known_value(IntInterval::range(0, kI64Max), false, true);
  }

  // -- transfer ------------------------------------------------------------

  void apply_def(const DefSite& d, State* st) {
    const VKind kind = kinds[d.local];
    if (d.rhs_begin >= d.rhs_end) {  // compound / ++ / -- : unknown
      st->erase(d.local);
      return;
    }
    EvalResult v;
    switch (kind) {
      case VKind::kInt:
        v = eval_int_st(d.rhs_begin, d.rhs_end, st);
        break;
      case VKind::kChrono:
        v = eval_chrono(d.rhs_begin, d.rhs_end, st);
        break;
      case VKind::kRate:
        v = eval_rate(d.rhs_begin, d.rhs_end, st);
        break;
      default:
        return;
    }
    if (v.known) {
      (*st)[d.local] = v.iv;
    } else {
      st->erase(d.local);
    }
  }

  void transfer_stmt(const CfgStmt& s, State* st) {
    for (std::size_t i = s.begin; i < s.end; ++i) {
      auto d = def_at.find(i);
      if (d != def_at.end()) apply_def(d->second, st);
    }
  }

  // -- conditions ----------------------------------------------------------

  /// The local a comparison side refines, if any: a bare tracked name, or
  /// `name.ns()` / `name.bps()`.
  std::size_t refine_target(std::size_t b, std::size_t e) const {
    if (e - b == 1 && is_ident(tok(b))) {
      const std::size_t l = dfc->find(tok(b).text);
      if (l != npos && kinds[l] != VKind::kNone) return l;
      return npos;
    }
    if (e - b == 5 && is_ident(tok(b)) &&
        (tok(b + 1).is_punct(".") || tok(b + 1).is_punct("->")) &&
        is_ident(tok(b + 2)) && tok(b + 3).is_punct("(") &&
        tok(b + 4).is_punct(")")) {
      const std::string& fn = tok(b + 2).text;
      const std::size_t l = dfc->find(tok(b).text);
      if (l == npos) return npos;
      if (fn == "ns" && kinds[l] == VKind::kChrono) return l;
      if (fn == "bps" && kinds[l] == VKind::kRate) return l;
    }
    return npos;
  }

  IntInterval default_interval(VKind k) const {
    if (k == VKind::kRate) return IntInterval::range(0, kI64Max);
    return IntInterval::top();
  }

  void refine(std::size_t l, const std::string& op, const IntInterval& rhs,
              State* st) const {
    auto it = st->find(l);
    IntInterval cur =
        it != st->end() ? it->second : default_interval(kinds[l]);
    IntInterval next = cur;
    if (op == "<") next = cur.refine_lt(rhs.hi);
    else if (op == "<=") next = cur.refine_le(rhs.hi);
    else if (op == ">") next = cur.refine_gt(rhs.lo);
    else if (op == ">=") next = cur.refine_ge(rhs.lo);
    else if (op == "==") {
      if (rhs.lo == rhs.hi) next = cur.refine_eq(rhs.lo);
    } else if (op == "!=") {
      if (rhs.lo == rhs.hi) next = cur.refine_ne(rhs.lo);
    }
    (*st)[l] = next;
  }

  static std::string negate_op(const std::string& op) {
    if (op == "<") return ">=";
    if (op == "<=") return ">";
    if (op == ">") return "<=";
    if (op == ">=") return "<";
    if (op == "==") return "!=";
    return "==";
  }
  static std::string mirror_op(const std::string& op) {
    if (op == "<") return ">";
    if (op == "<=") return ">=";
    if (op == ">") return "<";
    if (op == ">=") return "<=";
    return op;
  }

  void transfer_cond(const CfgStmt& s, bool branch_true, State* st) {
    std::size_t b = s.begin, e = s.end;
    trim(&b, &e);
    if (b >= e) return;
    // `!cond` flips which branch the refinement lands on.
    while (b < e && tok(b).is_punct("!") &&
           !(b + 1 < e && tok(b + 1).is_punct("="))) {
      branch_true = !branch_true;
      ++b;
      trim(&b, &e);
    }
    if (b >= e) return;

    // `name.is_zero()` — refine the receiver to/away from zero.
    if (e - b == 5 && is_ident(tok(b)) &&
        (tok(b + 1).is_punct(".") || tok(b + 1).is_punct("->")) &&
        is_ident(tok(b + 2)) && tok(b + 2).text == "is_zero" &&
        tok(b + 3).is_punct("(") && tok(b + 4).is_punct(")")) {
      const std::size_t l = dfc->find(tok(b).text);
      if (l != npos && kinds[l] != VKind::kNone) {
        refine(l, branch_true ? "==" : "!=", IntInterval::constant(0), st);
      }
      return;
    }
    // Bare tracked name in boolean context.
    if (e - b == 1 && is_ident(tok(b))) {
      const std::size_t l = dfc->find(tok(b).text);
      if (l != npos && kinds[l] == VKind::kInt) {
        refine(l, branch_true ? "!=" : "==", IntInterval::constant(0), st);
      }
      return;
    }

    // Comparison: lhs OP rhs, relationals arriving as 1–2 punct tokens.
    int depth = 0;
    for (std::size_t k = b; k < e; ++k) {
      const Token& t = tok(k);
      if (t.is_punct("(") || t.is_punct("[")) ++depth;
      if (t.is_punct(")") || t.is_punct("]")) --depth;
      if (depth != 0 || t.kind != TokKind::kPunct) continue;
      std::string op;
      std::size_t rhs_b = k + 1;
      const bool next_eq = k + 1 < e && tok(k + 1).is_punct("=");
      if (t.text == "<" || t.text == ">") {
        op = t.text;
        if (next_eq) {
          op += "=";
          rhs_b = k + 2;
        }
      } else if ((t.text == "=" || t.text == "!") && next_eq) {
        op = t.text == "=" ? "==" : "!=";
        rhs_b = k + 2;
      } else {
        continue;
      }

      const std::string eff = branch_true ? op : negate_op(op);
      const std::size_t lhs_l = refine_target(b, k);
      if (lhs_l != npos) {
        const EvalResult rhs = eval_for_kind(lhs_l, b, k, rhs_b, e, st);
        if (rhs.known) refine(lhs_l, eff, rhs.iv, st);
        return;
      }
      const std::size_t rhs_l = refine_target(rhs_b, e);
      if (rhs_l != npos) {
        const EvalResult lhs = eval_for_kind(rhs_l, rhs_b, e, b, k, st);
        if (lhs.known) refine(rhs_l, mirror_op(eff), lhs.iv, st);
      }
      return;
    }
  }

  /// Evaluate the comparison's other side in the refined local's domain:
  /// bare chrono locals compare against Duration expressions, `.ns()`
  /// unwraps and plain ints against integer expressions.
  EvalResult eval_for_kind(std::size_t l, std::size_t lhs_b,
                           std::size_t lhs_e, std::size_t b, std::size_t e,
                           const State* st) {
    const bool bare = lhs_e - lhs_b == 1;
    switch (kinds[l]) {
      case VKind::kChrono:
        return bare ? eval_chrono(b, e, st) : eval_int_st(b, e, st);
      case VKind::kRate:
        return bare ? eval_rate(b, e, st) : eval_int_st(b, e, st);
      default:
        return eval_int_st(b, e, st);
    }
  }

  /// Replay hook for condition expressions: run the checks (div-by-zero
  /// inside a condition) exactly once per cond block.
  void check_cond_expr(const CfgStmt& s, const State* st) {
    std::size_t b = s.begin, e = s.end;
    trim(&b, &e);
    if (b < e) eval_int_st(b, e, st);
  }
};

VKind classify(const Local& local) {
  const std::string& t = local.type_text;
  if (t.find('*') != std::string::npos) return VKind::kNone;
  if (word_in(t, "DataRate")) return VKind::kRate;
  if (word_in(t, "Duration") || word_in(t, "Time")) return VKind::kChrono;
  if (word_in(t, "double") || word_in(t, "bool") || word_in(t, "char")) {
    return VKind::kNone;
  }
  if (word_in(t, "int64_t") || word_in(t, "uint64_t") || word_in(t, "int") ||
      word_in(t, "int32_t") || word_in(t, "uint32_t") ||
      word_in(t, "size_t") || word_in(t, "long") || word_in(t, "short") ||
      word_in(t, "int16_t") || word_in(t, "uint16_t") ||
      word_in(t, "unsigned") || word_in(t, "float")) {
    return VKind::kInt;
  }
  return VKind::kNone;
}

/// `auto` declarations take their kind from the initializer's leading
/// factory tokens, defaulting to plain int tracking.
VKind classify_auto(const Local& local, const std::vector<Token>& toks) {
  if (local.defs.empty()) return VKind::kNone;
  std::size_t b = local.defs.front().rhs_begin;
  const std::size_t e = local.defs.front().rhs_end;
  while (b + 1 < e && is_ident(toks[b]) && toks[b + 1].is_punct("::") &&
         (toks[b].text == "sim" || toks[b].text == "net" ||
          toks[b].text == "quicsteps")) {
    b += 2;
  }
  if (b < e && is_ident(toks[b])) {
    if (toks[b].text == "Duration" || toks[b].text == "Time") {
      return VKind::kChrono;
    }
    if (toks[b].text == "DataRate") return VKind::kRate;
  }
  return VKind::kInt;
}

/// Flow-insensitive unit taint: a plain-int local is chrono-derived (resp.
/// rate-derived) when any def RHS mentions a chrono unwrap / factory /
/// chrono local (resp. the rate equivalents), transitively through other
/// int locals. Compound defs (`x += ...`) record an empty RHS, so their
/// statement tail up to `;` is scanned instead.
void compute_unit_taint(const CallableDataflow& dfc,
                        const std::vector<VKind>& kinds,
                        const std::vector<Token>& toks,
                        std::vector<std::uint8_t>* chrono,
                        std::vector<std::uint8_t>* rate) {
  chrono->assign(dfc.locals.size(), 0);
  rate->assign(dfc.locals.size(), 0);
  const auto scan = [&](std::size_t b, std::size_t e, std::uint8_t* c,
                        std::uint8_t* r) {
    for (std::size_t i = b; i < e && i < toks.size(); ++i) {
      const Token& t = toks[i];
      if ((t.is_punct(".") || t.is_punct("->")) && i + 2 < e &&
          toks[i + 1].kind == TokKind::kIdentifier &&
          toks[i + 2].is_punct("(")) {
        const std::string& fn = toks[i + 1].text;
        if (fn == "ns" || fn == "us" || fn == "ms") *c = 1;
        if (fn == "bps") *r = 1;
      }
      if (t.kind != TokKind::kIdentifier) continue;
      if (t.text == "Duration" || t.text == "Time" ||
          t.text == "saturating_add_ns") {
        *c = 1;
      }
      if (t.text == "DataRate") *r = 1;
      const std::size_t l2 = dfc.find(t.text);
      if (l2 == npos) continue;
      if (kinds[l2] == VKind::kChrono || (*chrono)[l2]) *c = 1;
      if (kinds[l2] == VKind::kRate || (*rate)[l2]) *r = 1;
    }
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t l = 0; l < dfc.locals.size(); ++l) {
      if (kinds[l] != VKind::kInt) continue;
      std::uint8_t c = (*chrono)[l], r = (*rate)[l];
      for (const Def& d : dfc.locals[l].defs) {
        std::size_t b = d.rhs_begin, e = d.rhs_end;
        if (b >= e) {  // compound / ++ / -- : scan to end of statement
          b = d.tok + 1;
          e = b;
          int depth = 0;
          while (e < toks.size() && e < b + 64) {
            const Token& t = toks[e];
            if (t.is_punct("(") || t.is_punct("[")) ++depth;
            if (t.is_punct(")") || t.is_punct("]")) --depth;
            if (depth <= 0 && (t.is_punct(";") || t.is_punct("{") ||
                               t.is_punct("}"))) {
              break;
            }
            ++e;
          }
        }
        scan(b, e, &c, &r);
      }
      if (c != (*chrono)[l] || r != (*rate)[l]) {
        (*chrono)[l] = c;
        (*rate)[l] = r;
        changed = true;
      }
    }
  }
}

}  // namespace

void run_interval_rules(const Model& model, const SemanticModel& sem,
                        std::vector<Finding>* out) {
  if (sem.cfgs == nullptr || sem.flow == nullptr || sem.index == nullptr) {
    return;
  }
  for (const Cfg& cfg : sem.cfgs->cfgs) {
    const Symbol& sym = sem.index->symbols[cfg.symbol];
    const CallableDataflow* dfc = sem.flow->for_symbol(cfg.symbol);
    if (dfc == nullptr || sym.file >= model.files.size()) continue;
    const SourceFile& sf = model.files[sym.file];

    IntervalDomain dom;
    dom.toks = &sf.lex.tokens;
    dom.dfc = dfc;
    dom.file = &sf;
    dom.out = out;
    dom.kinds.resize(dfc->locals.size(), VKind::kNone);
    bool any = false;
    for (std::size_t l = 0; l < dfc->locals.size(); ++l) {
      const Local& local = dfc->locals[l];
      dom.kinds[l] = word_in(local.type_text, "auto")
                         ? classify_auto(local, sf.lex.tokens)
                         : classify(local);
      if (dom.kinds[l] != VKind::kNone) any = true;
      if (dom.kinds[l] == VKind::kNone) continue;
      for (const Def& d : local.defs) {
        DefSite site;
        site.local = l;
        site.rhs_begin = d.rhs_begin;
        site.rhs_end = d.rhs_end;
        dom.def_at[d.tok] = site;
      }
    }
    if (!any) continue;
    compute_unit_taint(*dfc, dom.kinds, sf.lex.tokens, &dom.prov_chrono,
                       &dom.prov_rate);

    auto solved = solve_absint(cfg, dom);
    dom.reporting = true;
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
      if (!solved.reachable[b]) continue;
      IntervalDomain::State st = solved.in[b];
      const CfgBlock& block = cfg.blocks[b];
      if (block.is_cond) {
        if (!block.stmts.empty()) {
          dom.check_cond_expr(block.stmts.front(), &st);
        }
        continue;
      }
      for (const CfgStmt& s : block.stmts) dom.transfer_stmt(s, &st);
    }
  }
}

}  // namespace quicsteps::analyze
