#include "support/thread_pool.hh"

#include <algorithm>
#include <exception>

namespace capu
{

unsigned
ThreadPool::defaultThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads)
{
    unsigned n = threads == 0 ? defaultThreads()
                              : std::min(threads, defaultThreads());
    try {
        for (unsigned i = 0; i < n; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (...) {
        stopAndJoin(); // an unjoined std::thread would end the program
        throw;
    }
}

ThreadPool::~ThreadPool() { stopAndJoin(); }

void
ThreadPool::stopAndJoin()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        stopping_ = true;
    }
    ready_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::enqueue(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        queue_.push_back(std::move(fn));
    }
    ready_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lk(mutex_);
            ready_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping, and every queued task has run
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ThreadPool::forEachIndex(std::size_t n,
                         const std::function<void(std::size_t)> &fn)
{
    std::vector<std::future<void>> futs;
    futs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        futs.push_back(submit([&fn, i] { fn(i); }));
    std::exception_ptr first;
    for (auto &f : futs) {
        try {
            f.get();
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    if (first)
        std::rethrow_exception(first);
}

} // namespace capu
