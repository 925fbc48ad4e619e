/** @file Unit tests for the util parallel helpers. */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hh"

namespace sierra {
namespace {

TEST(ResolveJobs, ExplicitRequestWins)
{
    EXPECT_EQ(util::resolveJobs(3), 3);
    EXPECT_EQ(util::resolveJobs(1), 1);
}

TEST(ResolveJobs, DefaultIsAtLeastOne)
{
    EXPECT_GE(util::resolveJobs(0), 1);
    EXPECT_GE(util::resolveJobs(-7), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(257);
    util::parallelFor(4, 257, [&](int i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, SingleJobRunsInlineInOrder)
{
    // jobs=1 is the serial reference path: same thread, index order,
    // no synchronization needed in the body.
    std::vector<int> order;
    std::thread::id caller = std::this_thread::get_id();
    util::parallelFor(1, 10, [&](int i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    std::vector<int> expect(10);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect);
}

TEST(ParallelFor, EmptyAndNegativeRangesAreNoOps)
{
    int calls = 0;
    util::parallelFor(4, 0, [&](int) { ++calls; });
    util::parallelFor(4, -3, [&](int) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, PropagatesFirstException)
{
    std::atomic<int> completed{0};
    auto body = [&](int i) {
        if (i == 13)
            throw std::runtime_error("boom 13");
        completed.fetch_add(1);
    };
    EXPECT_THROW(util::parallelFor(4, 64, body), std::runtime_error);
    EXPECT_LT(completed.load(), 64);
}

TEST(ParallelFor, ExceptionPropagatesFromSerialPath)
{
    auto body = [](int i) {
        if (i == 2)
            throw std::logic_error("serial boom");
    };
    EXPECT_THROW(util::parallelFor(1, 5, body), std::logic_error);
}

TEST(ParallelMap, CollectsResultsInIndexOrder)
{
    std::vector<int> squares = util::parallelMap<int>(
        4, 50, [](int i) { return i * i; });
    ASSERT_EQ(squares.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(ParallelMap, MoveOnlyResults)
{
    auto out = util::parallelMap<std::unique_ptr<int>>(
        3, 20, [](int i) { return std::make_unique<int>(i); });
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(*out[i], i);
}

} // namespace
} // namespace sierra
