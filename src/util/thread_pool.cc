#include "thread_pool.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "trace.hh"

namespace sierra::util {

int
resolveJobs(int requested)
{
    if (requested > 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

void
parallelFor(int jobs, int n, const std::function<void(int)> &fn)
{
    if (n <= 0)
        return;
    if (jobs > n)
        jobs = n;
    if (jobs <= 1) {
        for (int i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<int> next{0};
    std::exception_ptr first_error;
    std::once_flag error_once;

    auto drain = [&] {
        // One span per participating worker ("worker" category: the
        // number of these varies with the jobs count by design).
        SIERRA_TRACE_SPAN(span, "worker", "parallel_for.drain",
                          std::string());
        for (;;) {
            int i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::call_once(error_once, [&] {
                    first_error = std::current_exception();
                });
                // Stop handing out iterations; in-flight ones finish.
                next.store(n, std::memory_order_relaxed);
                return;
            }
        }
    };

    // The calling thread is worker zero; only jobs-1 threads spawn.
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(jobs - 1));
    for (int w = 0; w + 1 < jobs; ++w) {
        workers.emplace_back([&drain, w] {
            // Name this thread's trace track.
            trace::setThreadName("pool-worker-" + std::to_string(w));
            drain();
        });
    }
    drain();
    for (std::thread &t : workers)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace sierra::util
