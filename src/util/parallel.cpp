#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace cdsf::util {

std::size_t default_thread_count() noexcept {
#if defined(__linux__)
  // The affinity mask, as `nproc` counts it: `taskset -c 0` gives 1.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    return std::clamp<std::size_t>(static_cast<std::size_t>(CPU_COUNT(&allowed)), 1, 64);
  }
#endif
  const unsigned hardware = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hardware == 0 ? 1 : hardware, 1, 64);
}

void parallel_for_index(std::size_t count, std::size_t threads,
                        const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  threads = std::min(std::max<std::size_t>(threads, 1), count);
  if (threads == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::size_t error_index = count;  // guarded by error_mutex
  std::exception_ptr error;         // guarded by error_mutex
  auto claim_and_run = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) {
    try {
      pool.emplace_back(claim_and_run);
    } catch (const std::system_error&) {
      break;  // the threads already started claim every index
    }
  }
  claim_and_run();
  for (std::thread& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace cdsf::util
