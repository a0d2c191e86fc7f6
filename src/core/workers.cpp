#include "core/workers.h"

#include <exception>
#include <thread>
#include <vector>

namespace neat::detail {

void run_workers(unsigned workers, const std::function<void(unsigned)>& body) {
  if (workers <= 1) {
    body(0);
    return;
  }
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  const auto join_all = [&] {
    for (std::thread& t : threads) t.join();
  };
  try {
    for (unsigned w = 0; w < workers; ++w) {
      threads.emplace_back([&body, &errors, w] {
        try {
          body(w);
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
  } catch (...) {
    // A failed spawn must not destroy the already running threads unjoined.
    join_all();
    throw;
  }
  join_all();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace neat::detail
