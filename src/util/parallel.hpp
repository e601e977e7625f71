// Deterministic fork-join parallelism for embarrassingly parallel index
// spaces (simulation replications, Monte-Carlo draws, allocation scoring).
//
// parallel_for_index hands out the indices of [0, count) one at a time from
// a shared counter, so threads stay busy when bodies differ in cost; every
// index is processed exactly once and results keyed by index are
// independent of the thread count — determinism is preserved because all
// randomness in this library derives from per-index seeds, never from
// thread identity or scheduling order.
#pragma once

#include <cstddef>
#include <functional>

namespace cdsf::util {

/// CPUs this process may run on (its affinity mask on Linux, the online
/// hardware threads elsewhere), clamped to [1, 64].
[[nodiscard]] std::size_t default_thread_count() noexcept;

/// Invokes body(i) for every i in [0, count) on `threads` std::threads (the
/// calling thread works too), each claiming the next unclaimed index in
/// increasing order. `threads` == 0 or 1, or count < 2, runs inline. The
/// body must be safe to call concurrently for DISTINCT indices (typically:
/// it writes only to result[i]). Once a body throws, no further index is
/// claimed, bodies already running finish, and the exception of the lowest
/// failing index is rethrown after all threads join. Every lower index was
/// claimed first, so when whether an index throws depends only on the
/// index, that is the exception a serial loop throws, at any thread count.
void parallel_for_index(std::size_t count, std::size_t threads,
                        const std::function<void(std::size_t)>& body);

}  // namespace cdsf::util
