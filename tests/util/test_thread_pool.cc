#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "util/thread_pool.hh"

namespace nvmexp {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&] { count.fetch_add(1); });
    pool.submit([&] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&] { count.fetch_add(1); });
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ResolveJobs)
{
    EXPECT_EQ(ThreadPool::resolveJobs(3), 3);
    EXPECT_EQ(ThreadPool::resolveJobs(1), 1);
    EXPECT_GE(ThreadPool::resolveJobs(0), 1);
    EXPECT_GE(ThreadPool::resolveJobs(-1), 1);
    EXPECT_GE(ThreadPool::hardwareThreads(), 1);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce)
{
    for (int jobs : {1, 2, 8}) {
        std::vector<std::atomic<int>> visits(257);
        parallelFor(visits.size(), jobs, [&](std::size_t i) {
            visits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < visits.size(); ++i)
            EXPECT_EQ(visits[i].load(), 1) << "jobs=" << jobs
                                           << " i=" << i;
    }
}

TEST(ParallelFor, HandlesEmptyAndSingleRanges)
{
    std::atomic<int> count{0};
    parallelFor(0, 8, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 0);
    parallelFor(1, 8, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 1);
}

} // namespace
} // namespace nvmexp
