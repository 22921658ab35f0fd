// Determinism rules: every published number must be a pure function of
// (config, seed). The rules match on the token stream, so string literals
// and comments can never false-positive and one engine owns the policy.
#include "rule.hpp"

namespace quicsteps::analyze {

namespace {

bool is_unordered_container(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

/// True when tokens[i] is preceded by a member-access operator, i.e.
/// `x.time(` / `x->clock(` — those are method calls on simulation objects,
/// not the libc functions.
bool member_access_before(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return false;
  return toks[i - 1].is_punct(".") || toks[i - 1].is_punct("->");
}

bool next_is_call(const std::vector<Token>& toks, std::size_t i) {
  return i + 1 < toks.size() && toks[i + 1].is_punct("(");
}

void add(std::vector<Finding>* out, const char* id, const SourceFile& f,
         const Token& t, std::string message) {
  out->push_back({id, f.rel_path, t.line, t.col, std::move(message), false, {}});
}

/// Machine fix: swap the `unordered_<X>` token for its ordered `<X>`
/// equivalent in place.
FixIt ordered_equivalent_fix(const Token& container_tok) {
  FixIt fix;
  const std::string ordered =
      container_tok.text.substr(std::string("unordered_").size());
  fix.description = "replace " + container_tok.text + " with " + ordered;
  fix.line = container_tok.line;
  fix.col = container_tok.col;
  fix.end_line = container_tok.line;
  fix.end_col =
      container_tok.col + static_cast<int>(container_tok.text.size());
  fix.replacement = ordered;
  return fix;
}

}  // namespace

void run_determinism_rules(const Model& model, std::vector<Finding>* out) {
  for (const auto& f : model.files) {
    if (f.is_header && !f.lex.has_pragma_once) {
      FixIt fix;
      fix.description = "insert #pragma once";
      fix.replacement = "#pragma once\n";
      out->push_back({"determinism/include-guard", f.rel_path, 1, 1,
                      "header lacks #pragma once", false,
                      std::vector<FixIt>{fix}});
    }

    const auto& toks = f.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdentifier) continue;

      // Any unordered container, qualified or not: a using-import or an
      // alias's own declaration spells the same token. `#include
      // <unordered_map>` tokens are preprocessor text, not uses.
      if (is_unordered_container(t.text) && !t.in_pp) {
        add(out, "determinism/unordered-container", f, t,
            t.text +
                " iteration order is allocator-dependent; use std::map, a "
                "sorted vector, or net::CountersTable");
        out->back().fixits.push_back(ordered_equivalent_fix(t));
        continue;
      }

      // std::<something> patterns.
      if (t.text == "std" && i + 2 < toks.size() &&
          toks[i + 1].is_punct("::") &&
          toks[i + 2].kind == TokKind::kIdentifier) {
        const std::string& m = toks[i + 2].text;
        if (m == "chrono") {
          add(out, "determinism/wall-clock", f, t,
              "std::chrono reads the host clock; simulated time comes from "
              "sim::Time / the EventLoop");
        } else if (m == "random_device") {
          add(out, "determinism/random-device", f, t,
              "std::random_device is nondeterministic by definition; draw "
              "from the seeded sim::Rng");
        } else if (m == "this_thread" && i + 4 < toks.size() &&
                   toks[i + 3].is_punct("::") &&
                   (toks[i + 4].is_id("sleep_for") ||
                    toks[i + 4].is_id("sleep_until"))) {
          add(out, "determinism/thread-sleep", f, t,
              "wall-clock sleeping has no place in a discrete-event "
              "simulation");
        }
        continue;
      }

      // Bare libc calls. `std::time(` / `std::clock(` funnel through here
      // too: the preceding "std" token matches none of the cases above and
      // the call itself is still the libc function.
      if ((t.text == "time" || t.text == "clock") && next_is_call(toks, i) &&
          !member_access_before(toks, i)) {
        add(out, "determinism/wall-clock", f, t,
            t.text + "() reads the host clock; use the EventLoop's now()");
        continue;
      }
      if (t.text == "gettimeofday" || t.text == "clock_gettime") {
        add(out, "determinism/wall-clock", f, t,
            t.text + " reads the host clock; use the EventLoop's now()");
        continue;
      }
      if ((t.text == "rand" || t.text == "srand") && next_is_call(toks, i) &&
          !member_access_before(toks, i)) {
        add(out, "determinism/libc-rand", f, t,
            t.text + "() bypasses the seeded sim::Rng");
        continue;
      }
      if (t.text == "drand48" || t.text == "lrand48" ||
          t.text == "mrand48") {
        add(out, "determinism/libc-rand", f, t,
            t.text + " bypasses the seeded sim::Rng");
        continue;
      }
    }
  }
}

}  // namespace quicsteps::analyze
