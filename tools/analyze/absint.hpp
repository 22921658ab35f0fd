// Worklist abstract interpretation over the analyzer's CFGs (cfg.hpp).
//
// The framework is a classic monotone-dataflow solver: per-block input
// states, a FIFO worklist seeded with the entry block alone (successors
// join it as their input changes), join at merge points, and widening at
// loop heads after a bounded number of visits so infinite-ascending-chain
// domains (intervals) terminate. The visit order is part of the result:
// under widening a different order can settle on a different fixpoint. Rules instantiate it
// with a small domain type:
//
//   struct Domain {
//     using State = ...;                       // the lattice element
//     State entry_state();                     // at Cfg::kEntry
//     bool join(State* into, const State& s);  // true when *into changed
//     void widen(State* into, const State& prev);   // loop-head widening
//     void transfer_stmt(const CfgStmt&, State*);   // plain statement
//     // Condition blocks are edge-sensitive: the same atomic condition
//     // produces one state for the true edge and one for the false edge,
//     // which is how `if (rate > 0)` guards refine state.
//     void transfer_cond(const CfgStmt&, bool branch_true, State*);
//   };
//
// solve() returns the fixed per-block input states; rules then replay
// transfer_stmt over each reachable block (with the block's solved input)
// to check and report at statement granularity.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "cfg.hpp"

namespace quicsteps::analyze {

/// Visits of a loop head before join is replaced by widening. Three trips
/// let a loop whose bounds settle on its second iteration stabilize
/// precisely before the hammer comes down.
inline constexpr int kWidenAfterVisits = 3;

template <typename Domain>
struct AbsintResult {
  using State = typename Domain::State;
  std::vector<State> in;          // per block, solved input state
  std::vector<bool> reachable;    // block ever entered the worklist
};

template <typename Domain>
AbsintResult<Domain> solve_absint(const Cfg& cfg, Domain& domain) {
  using State = typename Domain::State;
  AbsintResult<Domain> result;
  const std::size_t n = cfg.blocks.size();
  result.in.assign(n, State{});
  result.reachable.assign(n, false);

  std::vector<int> visits(n, 0);
  std::vector<bool> queued(n, false);
  std::deque<std::size_t> worklist;

  result.in[Cfg::kEntry] = domain.entry_state();
  result.reachable[Cfg::kEntry] = true;
  worklist.push_back(Cfg::kEntry);
  queued[Cfg::kEntry] = true;

  // Hard iteration backstop: no heuristic domain is worth a hang. The
  // bound is generous — widening converges long before it on real code.
  std::size_t budget = 64 * n + 256;

  while (!worklist.empty() && budget-- > 0) {
    const std::size_t b = worklist.front();
    worklist.pop_front();
    queued[b] = false;
    const CfgBlock& block = cfg.blocks[b];

    // Propagate to each successor; condition blocks split per edge.
    auto propagate = [&](std::size_t succ, const State& out_state) {
      State incoming = out_state;
      bool changed;
      if (!result.reachable[succ]) {
        result.in[succ] = incoming;
        result.reachable[succ] = true;
        changed = true;
      } else if (cfg.blocks[succ].is_loop_head &&
                 visits[succ] >= kWidenAfterVisits) {
        State widened = result.in[succ];
        domain.join(&widened, incoming);
        domain.widen(&widened, result.in[succ]);
        changed = domain.join(&result.in[succ], widened);
      } else {
        changed = domain.join(&result.in[succ], incoming);
      }
      if (changed && !queued[succ]) {
        ++visits[succ];
        worklist.push_back(succ);
        queued[succ] = true;
      }
    };

    if (block.is_cond) {
      // stmts holds the atomic condition (possibly empty for `for(;;)`).
      if (block.succs.size() >= 2) {
        State on_true = result.in[b];
        State on_false = result.in[b];
        if (!block.stmts.empty()) {
          domain.transfer_cond(block.stmts.front(), true, &on_true);
          domain.transfer_cond(block.stmts.front(), false, &on_false);
        }
        propagate(block.succs[0], on_true);
        propagate(block.succs[1], on_false);
      }
      continue;
    }

    State out = result.in[b];
    for (const CfgStmt& stmt : block.stmts) {
      domain.transfer_stmt(stmt, &out);
    }
    for (const std::size_t succ : block.succs) {
      propagate(succ, out);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Integer interval lattice (units/time-interval rules)
// ---------------------------------------------------------------------------

/// A [lo, hi] interval over int64 with saturating arithmetic, mirroring
/// sim::Time's sentinel semantics: INT64_MAX is "infinite"/saturated, so
/// an interval reaching it models "may be at the sentinel". Bottom
/// (empty) is lo > hi.
struct IntInterval {
  std::int64_t lo = 0;
  std::int64_t hi = -1;  // default-constructed = bottom (empty)

  static IntInterval top();
  static IntInterval constant(std::int64_t v);
  static IntInterval range(std::int64_t lo, std::int64_t hi);

  bool is_bottom() const { return lo > hi; }
  bool contains(std::int64_t v) const { return !is_bottom() && lo <= v && v <= hi; }

  /// Union hull; returns true when *this changed.
  bool join(const IntInterval& o);
  /// Classic interval widening against the previous iterate: bounds that
  /// grew jump to the respective infinity.
  void widen(const IntInterval& prev);

  /// Saturating interval arithmetic (never UB; saturates at int64 range).
  IntInterval add(const IntInterval& o) const;
  IntInterval sub(const IntInterval& o) const;
  IntInterval mul(const IntInterval& o) const;
  IntInterval div(const IntInterval& o) const;  // conservative; 0 divisor -> top

  /// Refinements from comparisons: the subinterval satisfying `x OP k`.
  IntInterval refine_lt(std::int64_t k) const;
  IntInterval refine_le(std::int64_t k) const;
  IntInterval refine_gt(std::int64_t k) const;
  IntInterval refine_ge(std::int64_t k) const;
  IntInterval refine_eq(std::int64_t k) const;
  IntInterval refine_ne(std::int64_t k) const;

  bool operator==(const IntInterval& o) const {
    return (is_bottom() && o.is_bottom()) || (lo == o.lo && hi == o.hi);
  }
};

/// True when `a * b` can exceed the int64 range (the overflow the
/// saturating sentinel arithmetic exists to prevent happens BEFORE the
/// value is wrapped — this is what units/interval-overflow reports).
bool mul_may_overflow(const IntInterval& a, const IntInterval& b);
bool add_may_overflow(const IntInterval& a, const IntInterval& b);

}  // namespace quicsteps::analyze
