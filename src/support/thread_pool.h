/**
 * @file
 * A small process-wide thread pool for coarse, independent tasks.
 * Its two users: sim::simulateAll fans fused groups across it, and
 * the runtime executor's resolve() compiles + simulates its missing
 * block shapes concurrently on the same pool.
 *
 * Deliberately minimal: one parallel-for style job at a time
 * (concurrent top-level submitters serialize), the caller
 * participates in the job, and a nested run() issued from inside a
 * worker executes inline — so pool users can freely call other pool
 * users without deadlock.
 */

#ifndef STREAMTENSOR_SUPPORT_THREAD_POOL_H
#define STREAMTENSOR_SUPPORT_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace streamtensor {
namespace support {

class ThreadPool
{
  public:
    /** @p threads is the total parallelism including the calling
     *  thread; 0 picks the hardware concurrency clamped to [1, 8]
     *  (a *small* pool: tasks here are coarse). */
    explicit ThreadPool(int64_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total parallelism (workers plus the calling thread). */
    int64_t
    parallelism() const
    {
        return static_cast<int64_t>(workers_.size()) + 1;
    }

    /** Run fn(0) .. fn(n-1) across the pool and block until all
     *  completed. The first exception thrown by any item is
     *  rethrown here (remaining items may be skipped). */
    void run(int64_t n, const std::function<void(int64_t)> &fn);

    /** The process-wide pool shared by the simulator and the
     *  runtime executor. */
    static ThreadPool &shared();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::mutex mutex_;              ///< guards job fields
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    std::mutex submit_mutex_;       ///< serializes top-level jobs
    const std::function<void(int64_t)> *job_fn_ = nullptr;
    int64_t job_n_ = 0;
    std::atomic<int64_t> job_next_{0};
    int64_t job_running_ = 0;
    std::exception_ptr job_error_;
    uint64_t job_generation_ = 0;
    bool stop_ = false;
};

} // namespace support
} // namespace streamtensor

#endif // STREAMTENSOR_SUPPORT_THREAD_POOL_H
