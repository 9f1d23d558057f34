/**
 * @file
 * ThreadSanitizer stress suite for the ThreadPool: saturation,
 * shutdown/destruction ordering, and submit-during-shutdown
 * semantics. These tests are written to maximize interleavings (many
 * small tasks, construct/destroy churn, deliberate races between
 * submit and the destructor), so the TSan CI leg exercises every
 * lock-ordering path the sweep engine relies on. They also pin the
 * pool's drain guarantees as plain functional assertions, so a future
 * refactor that drops tasks on shutdown fails loudly without TSan.
 */

#include "util/thread_pool.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "util/logging.hh"

namespace nvmexp {
namespace {

void
sleepMs(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(ThreadPoolStress, SaturationManySmallTasks)
{
    ThreadPool pool(8);
    std::atomic<int> count{0};
    const int tasks = 20000;
    for (int i = 0; i < tasks; ++i)
        ASSERT_TRUE(pool.submit([&count] { ++count; }));
    pool.wait();
    EXPECT_EQ(count.load(), tasks);
}

TEST(ThreadPoolStress, RepeatedWaitSubmitCycles)
{
    ThreadPool pool(8);
    std::atomic<int> count{0};
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 64; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), (round + 1) * 64);
    }
}

TEST(ThreadPoolStress, ParallelForSlotWritesAreVisibleAfterReturn)
{
    ThreadPool pool(8);
    const std::size_t n = 50000;
    std::vector<int> slots(n, 0);
    for (int round = 0; round < 5; ++round) {
        parallelFor(pool, n, [&](std::size_t i) {
            slots[i] += (int)(i % 7) + 1;
        });
    }
    long long sum = std::accumulate(slots.begin(), slots.end(), 0LL);
    long long expect = 0;
    for (std::size_t i = 0; i < n; ++i)
        expect += 5 * ((long long)(i % 7) + 1);
    EXPECT_EQ(sum, expect);
}

// Destruction drains: every task enqueued before the destructor runs,
// even with no intervening wait().
TEST(ThreadPoolStress, DestructorDrainsPendingQueue)
{
    std::atomic<int> count{0};
    const int tasks = 500;
    {
        ThreadPool pool(4);
        for (int i = 0; i < tasks; ++i)
            pool.submit([&count] { ++count; });
        // No wait(): the destructor must run the backlog.
    }
    EXPECT_EQ(count.load(), tasks);
}

// Pinned regression for shutdown ordering: a running task that
// submits follow-up work during the destructor's drain must still get
// that work executed (the submitting worker cannot have exited), even
// when every other worker has already seen an empty queue and left.
TEST(ThreadPoolStress, SubmitFromTaskDuringShutdownStillRuns)
{
    for (int round = 0; round < 20; ++round) {
        std::atomic<bool> followUpRan{false};
        std::atomic<bool> destructing{false};
        {
            ThreadPool pool(4);
            pool.submit([&] {
                // Park until the main thread is about to destroy the
                // pool, so the nested submit races the drain.
                while (!destructing.load())
                    std::this_thread::yield();
                sleepMs(1);
                ASSERT_TRUE(pool.submit(
                    [&followUpRan] { followUpRan = true; }));
            });
            destructing = true;
        }
        EXPECT_TRUE(followUpRan.load()) << "round " << round;
    }
}

// Pinned regression for the outside-submit hole: once shutdown has
// begun, a non-worker thread's submit is either accepted (it won the
// race, so the drain runs it) or refused with `false` — it is never
// accepted and then silently dropped. The destructor runs on a third
// thread and is held draining by a latch-blocked task, so the
// outsider's submit races shutdown while the pool is still alive; the
// outsider is joined before the latch opens and the pool can go.
TEST(ThreadPoolStress, OutsideSubmitDuringShutdownAcceptedOrRefused)
{
    setQuiet(true);  // the refusal path warns by design
    for (int round = 0; round < 50; ++round) {
        std::atomic<bool> ran{false};
        std::atomic<bool> go{false};
        std::latch drainHeld(1);
        bool accepted = false;
        auto pool = std::make_unique<ThreadPool>(2);
        ThreadPool *live = pool.get();
        ASSERT_TRUE(live->submit([&drainHeld] { drainHeld.wait(); }));
        std::thread destroyer([&] {
            while (!go.load())
                std::this_thread::yield();
            pool.reset();
        });
        std::thread outsider([&] {
            go = true;
            // Races the destructor's shutdown.
            accepted = live->submit([&ran] { ran = true; });
        });
        outsider.join();
        drainHeld.count_down();
        destroyer.join();
        EXPECT_EQ(ran.load(), accepted) << "round " << round;
    }
    setQuiet(false);
}

TEST(ThreadPoolStress, ConstructDestroyChurn)
{
    std::atomic<int> count{0};
    for (int round = 0; round < 100; ++round) {
        ThreadPool pool(4);
        for (int i = 0; i < 8; ++i)
            pool.submit([&count] { ++count; });
    }
    EXPECT_EQ(count.load(), 100 * 8);
}

TEST(ThreadPoolStress, ImmediateDestructionNoTasks)
{
    for (int round = 0; round < 200; ++round)
        ThreadPool pool(4);
}

// parallelFor claims iterations dynamically; uneven task costs at
// full saturation must neither lose nor duplicate iterations.
TEST(ThreadPoolStress, ParallelForUnevenCosts)
{
    ThreadPool pool(8);
    const std::size_t n = 256;
    std::vector<std::atomic<int>> visits(n);
    parallelFor(pool, n, [&](std::size_t i) {
        if (i % 17 == 0)
            sleepMs(1);
        ++visits[i];
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "slot " << i;
}

} // namespace
} // namespace nvmexp
