/**
 * @file
 * capuserve — request admission and fan-out.
 *
 * Tenants enqueue PlanRequests; drain() answers everything queued by
 * fanning it over the work-stealing ThreadPool, with a token-based
 * admission gate modelling the simulated GPU pool: at most `gpus` planning
 * sessions run concurrently (a cold measured run monopolizes a device;
 * admitting more requests than devices would only thrash the host).
 * Responses come back in enqueue order regardless of completion order
 * (pre-sized result slots, thread-pool determinism argument).
 */

#ifndef CAPU_SERVE_REQUEST_QUEUE_HH
#define CAPU_SERVE_REQUEST_QUEUE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/service.hh"
#include "support/thread_pool.hh"

namespace capu::serve
{

struct RequestQueueConfig
{
    /** Admission tokens: planning sessions in flight at once. */
    int gpus = 4;
};

struct RequestQueueStats
{
    std::uint64_t enqueued = 0;
    std::uint64_t drained = 0;
    /** High-water mark of concurrently admitted requests. */
    int peakAdmitted = 0;
};

class RequestQueue
{
  public:
    /**
     * @param pool Shared thread pool; nullptr = own pool with the default
     *        worker count.
     */
    RequestQueue(PlanService &service, RequestQueueConfig cfg = {},
                 ThreadPool *pool = nullptr);

    void enqueue(PlanRequest request);
    std::size_t pending() const;

    /** Answer everything queued so far; responses in enqueue order. */
    std::vector<PlanResponse> drain();

    const RequestQueueStats &stats() const { return stats_; }

  private:
    void acquireGpu();
    void releaseGpu();

    PlanService &service_;
    RequestQueueConfig cfg_;
    std::unique_ptr<ThreadPool> ownPool_;
    ThreadPool *pool_;

    mutable std::mutex mutex_; ///< guards queue_ + stats_ + admission
    std::condition_variable gpuFree_;
    std::deque<PlanRequest> queue_;
    int admitted_ = 0;
    RequestQueueStats stats_;
};

} // namespace capu::serve

#endif // CAPU_SERVE_REQUEST_QUEUE_HH
