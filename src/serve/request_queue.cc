#include "serve/request_queue.hh"

#include <algorithm>
#include <utility>

namespace capu::serve
{

RequestQueue::RequestQueue(PlanService &service, RequestQueueConfig cfg,
                           ThreadPool *pool)
    : service_(service), cfg_(cfg)
{
    if (cfg_.gpus < 1)
        cfg_.gpus = 1;
    if (!pool) {
        ownPool_ = std::make_unique<ThreadPool>();
        pool = ownPool_.get();
    }
    pool_ = pool;
}

void
RequestQueue::enqueue(PlanRequest request)
{
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(request));
    ++stats_.enqueued;
}

std::size_t
RequestQueue::pending() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

void
RequestQueue::acquireGpu()
{
    std::unique_lock<std::mutex> lock(mutex_);
    gpuFree_.wait(lock, [&] { return admitted_ < cfg_.gpus; });
    ++admitted_;
    stats_.peakAdmitted = std::max(stats_.peakAdmitted, admitted_);
}

void
RequestQueue::releaseGpu()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        --admitted_;
    }
    gpuFree_.notify_one();
}

std::vector<PlanResponse>
RequestQueue::drain()
{
    std::vector<PlanRequest> work;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        work.assign(std::make_move_iterator(queue_.begin()),
                    std::make_move_iterator(queue_.end()));
        queue_.clear();
    }
    std::vector<PlanResponse> responses(work.size());
    pool_->forEachIndex(work.size(), [&](std::size_t i) {
        acquireGpu();
        responses[i] = service_.handle(work[i]);
        releaseGpu();
    });
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.drained += work.size();
    }
    return responses;
}

} // namespace capu::serve
