/**
 * @file
 * Minimal fixed-size worker pool plus a parallelFor helper.
 *
 * The sweep engine's work items (array characterization, traffic
 * evaluation) are coarse and independent, so a plain mutex-protected
 * task queue is plenty; results stay deterministic because callers
 * write into preallocated, index-addressed output slots rather than
 * appending in completion order.
 */

#ifndef NVMEXP_UTIL_THREAD_POOL_HH
#define NVMEXP_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nvmexp {

/** Fixed set of worker threads draining a shared task queue. */
class ThreadPool
{
  public:
    /** @param threads worker count; <=0 means hardwareThreads(). */
    explicit ThreadPool(int threads = 0);

    /** Drains remaining tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a task; runs on some worker at some point.
     *
     * During shutdown the queue keeps draining, and tasks submitted
     * from a worker thread (follow-up work spawned by a running task)
     * are still accepted and guaranteed to execute before the
     * destructor returns. A submit from any other thread once
     * shutdown has begun is refused (returns false): no worker is
     * guaranteed to still be around to run it.
     *
     * @return true when the task was enqueued.
     */
    bool submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    /** Number of worker threads. */
    int size() const { return (int)workers_.size(); }

    /** std::thread::hardware_concurrency with a floor of 1. */
    static int hardwareThreads();

    /** Hard ceiling on workers per pool: far beyond any useful sweep
     *  parallelism, and low enough that thread creation cannot hit OS
     *  limits and abort. */
    static constexpr int kMaxThreads = 256;

    /** Map a user-facing jobs count to a worker count: <=0 => all
     *  hardware threads, large values clamp to kMaxThreads. */
    static int resolveJobs(int jobs);

  private:
    void workerLoop();

    /** Stop accepting outside work, drain the queue, join. Shared by
     *  the destructor and the constructor's failure path (a partially
     *  constructed pool must still join the threads it started). */
    void joinWorkers();

    /** @return true when called from one of this pool's workers. */
    bool onWorkerThread() const;

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allDone_;
    std::size_t inFlight_ = 0;
    bool stopping_ = false;
};

/**
 * Run body(i) for i in [0, count) on up to `jobs` threads (<=0 => all
 * hardware threads). Iterations are claimed dynamically, so uneven
 * item costs still balance; with jobs<=1 the loop runs inline.
 */
void parallelFor(std::size_t count, int jobs,
                 const std::function<void(std::size_t)> &body);

/**
 * Same, but on an existing pool — callers issuing many parallel loops
 * (e.g. one per traffic pattern) reuse their workers instead of
 * paying thread creation/teardown per loop. Runs inline when the pool
 * has one worker or there is at most one iteration. The pool must be
 * otherwise idle (wait() would join unrelated work).
 */
void parallelFor(ThreadPool &pool, std::size_t count,
                 const std::function<void(std::size_t)> &body);

} // namespace nvmexp

#endif // NVMEXP_UTIL_THREAD_POOL_HH
