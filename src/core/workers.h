// The one place src/core starts threads. Phase 1 fragmentation and Phase 3
// pair distances both split their work across a fixed number of workers that
// claim chunks from a shared atomic cursor; this helper owns the spawn, the
// join and the error hand-off, so no worker exception can reach
// std::terminate.
#pragma once

#include <functional>

namespace neat::detail {

/// Runs `body(w)` for every worker index w in [0, workers). With at most one
/// worker the body runs inline on the calling thread; otherwise `workers`
/// threads are spawned and all of them are joined before returning. A
/// worker's exception never escapes its thread: after the join, the
/// exception of the lowest-numbered worker that threw is rethrown on the
/// calling thread.
void run_workers(unsigned workers, const std::function<void(unsigned)>& body);

}  // namespace neat::detail
