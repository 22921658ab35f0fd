// The one worker-pool primitive every parallel phase shares.
//
// parallel_for(n, jobs, body) runs body(0..n-1), each index exactly once,
// across `jobs` workers pulling indices from one atomic counter. It is the
// concurrency funnel of the repo: ParallelRunner's grid and flow-set
// collectors both go through it, so CI's ThreadSanitizer job (a
// -DQUICSTEPS_SANITIZE=thread build running ctest -L tier1-tsan and
// test_flows' ParallelFlows cases) checks every body that runs on a pool
// thread.
//
// Contract for bodies: writes must land in slots preassigned to exactly
// one index before the workers start (results[i]), so they are disjoint
// by construction; the join publishes them.
#pragma once

#include <cstddef>
#include <functional>

namespace quicsteps::framework {

/// Runs body(0..n-1), each index exactly once, across `jobs` workers.
/// Inline on the caller thread when one worker (or one task) suffices.
/// The first exception thrown by any body is rethrown on the caller.
void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& body);

}  // namespace quicsteps::framework
