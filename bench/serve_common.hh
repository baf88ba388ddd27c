/**
 * @file
 * Request-mix and phase-timing helpers for serve_throughput, the
 * capuserve bench.
 *
 * A serve bench runs two phases against one PlanService: a *cold* phase
 * (one request per tenant, every one a cache miss that runs a measured
 * planning session) and a *warm* phase (repeats over the same tenants,
 * every one a cache hit answered by forking the template session). The
 * acceptance floor compares the two phases' requests/sec; the identity
 * check compares plan digests, which plan_io defines such that equal
 * digests mean bit-identical plans.
 */

#ifndef CAPU_BENCH_SERVE_COMMON_HH
#define CAPU_BENCH_SERVE_COMMON_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/request_queue.hh"
#include "serve/service.hh"

namespace capu::bench
{

struct ServeTenant
{
    const char *model;
    std::int64_t batch;
};

/** The zoo request mix: four tenants across model families, batches kept
 *  modest so a cold planning session stays in the hundreds of ms. */
inline constexpr ServeTenant kServeTenants[] = {
    {"resnet50", 192},
    {"vgg16", 96},
    {"densenet", 96},
    {"inceptionv3", 128},
};

inline constexpr ServeTenant kQuickServeTenants[] = {
    {"resnet50", 192},
    {"vgg16", 96},
};

/**
 * Round-robin request stream over `tenants`: every tenant appears once
 * per cycle, so `count >= n_tenants` guarantees full coverage and the
 * stream is deterministic without a seed.
 */
inline std::vector<serve::PlanRequest>
serveMix(const ServeTenant *tenants, std::size_t n_tenants,
         std::size_t count, int warm_iters)
{
    std::vector<serve::PlanRequest> reqs;
    reqs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const ServeTenant &t = tenants[i % n_tenants];
        serve::PlanRequest r;
        r.model = t.model;
        r.batch = t.batch;
        r.warmIterations = warm_iters;
        reqs.push_back(std::move(r));
    }
    return reqs;
}

/** One timed drain of a request batch through the queue. */
struct ServePhaseResult
{
    std::size_t requests = 0;
    int errors = 0;
    double reqPerSec = 0;
    std::vector<serve::PlanResponse> responses;
};

inline ServePhaseResult
runServePhase(serve::RequestQueue &queue,
              const std::vector<serve::PlanRequest> &reqs)
{
    for (const serve::PlanRequest &r : reqs)
        queue.enqueue(r);
    auto t0 = std::chrono::steady_clock::now();
    ServePhaseResult res;
    res.responses = queue.drain();
    auto t1 = std::chrono::steady_clock::now();
    res.requests = res.responses.size();
    double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    for (const serve::PlanResponse &r : res.responses) {
        if (!r.ok)
            ++res.errors;
    }
    res.reqPerSec = wall_ms > 0
                        ? static_cast<double>(res.requests) * 1e3 / wall_ms
                        : 0.0;
    return res;
}

/**
 * Record the first digest seen per (model, batch) tag and flag any later
 * disagreement — the warm/cold bit-identity check. Returns true while
 * all phases agree.
 */
class ServeDigestLedger
{
  public:
    void
    observe(const std::vector<serve::PlanRequest> &reqs,
            const std::vector<serve::PlanResponse> &resps)
    {
        for (std::size_t i = 0; i < resps.size() && i < reqs.size(); ++i) {
            if (!resps[i].ok)
                continue;
            std::string tag =
                reqs[i].model + "@" + std::to_string(reqs[i].batch);
            auto it = first_.find(tag);
            if (it == first_.end())
                first_.emplace(std::move(tag), resps[i].digest);
            else if (it->second != resps[i].digest)
                identical_ = false;
        }
    }

    bool identical() const { return identical_; }
    std::size_t keys() const { return first_.size(); }

  private:
    std::unordered_map<std::string, std::uint64_t> first_;
    bool identical_ = true;
};

} // namespace capu::bench

#endif // CAPU_BENCH_SERVE_COMMON_HH
