/**
 * @file
 * Small FIFO thread pool for embarrassingly parallel sweeps.
 *
 * The simulator itself stays single-threaded and deterministic; the pool
 * exists so the bench harnesses can run *independent* (model, policy,
 * batch) configurations of the zoo concurrently. Workers share one FIFO
 * queue, so tasks start in submission order. Tasks are plain callables;
 * submit() returns a future, so exceptions thrown inside a task propagate
 * to whoever joins it.
 *
 * Determinism argument: a task never shares mutable state with another
 * task (each runs a private Session over a private Graph), so execution
 * order cannot change any task's result — parallelism only reorders
 * *wall-clock* completion. Callers collect results into pre-sized slots
 * indexed by task id and print after joining, which restores a fixed
 * output order.
 */

#ifndef CAPU_SUPPORT_THREAD_POOL_HH
#define CAPU_SUPPORT_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace capu
{

class ThreadPool
{
  public:
    /**
     * @param threads Worker count, capped at defaultThreads(); 0 means
     *        defaultThreads().
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Joins all workers; queued tasks are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Queue a task; the future rethrows anything the task throws. */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        enqueue([task] { (*task)(); });
        return fut;
    }

    /**
     * Run fn(i) for i in [0, n) across the pool and wait for all of them.
     * The first exception thrown by any index is rethrown here (after all
     * indices finished or were attempted).
     */
    void forEachIndex(std::size_t n,
                      const std::function<void(std::size_t)> &fn);

    /** Hardware thread count (minimum 1): the pool's worker bound. */
    static unsigned defaultThreads();

  private:
    void enqueue(std::function<void()> fn);
    void workerLoop();
    void stopAndJoin();

    std::mutex mutex_;
    std::condition_variable ready_; ///< a task was queued, or stopping_
    std::deque<std::function<void()>> queue_; ///< guarded by mutex_
    bool stopping_ = false;                   ///< guarded by mutex_
    std::vector<std::thread> workers_;
};

} // namespace capu

#endif // CAPU_SUPPORT_THREAD_POOL_HH
