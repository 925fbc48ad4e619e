/**
 * @file
 * The `parallelFor`/`parallelMap` helpers the detector's harness
 * fan-out builds on.
 *
 * Job-count policy: an explicit request wins; otherwise
 * `std::thread::hardware_concurrency()`. `parallelFor(1, ...)` runs
 * inline on the calling thread, so a jobs=1 run never spawns threads
 * and is the bit-exact reference for the determinism tests.
 */

#ifndef SIERRA_UTIL_THREAD_POOL_HH
#define SIERRA_UTIL_THREAD_POOL_HH

#include <functional>
#include <vector>

namespace sierra::util {

/**
 * Resolve a requested job count to the number of workers to use.
 *
 * @param requested  > 0: use as-is. <= 0: `hardware_concurrency()`.
 *                   Never returns less than 1.
 */
int resolveJobs(int requested = 0);

/**
 * Run `fn(i)` for every i in [0, n), distributing iterations across
 * `jobs` workers: the calling thread plus jobs-1 spawned threads,
 * joined before return (work-stealing via a shared atomic index, so
 * uneven iterations balance). With jobs <= 1 (or n <= 1) everything
 * runs inline on the calling thread in index order.
 *
 * The first exception thrown by any iteration is rethrown on the
 * calling thread after all workers stop picking up new iterations.
 */
void parallelFor(int jobs, int n, const std::function<void(int)> &fn);

/** parallelFor that collects `fn(i)` into a vector, in index order. */
template <typename T, typename Fn>
std::vector<T>
parallelMap(int jobs, int n, Fn fn)
{
    std::vector<T> out(static_cast<size_t>(n < 0 ? 0 : n));
    parallelFor(jobs, n, [&](int i) { out[i] = fn(i); });
    return out;
}

} // namespace sierra::util

#endif // SIERRA_UTIL_THREAD_POOL_HH
