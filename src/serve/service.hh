/**
 * @file
 * capuserve — the in-process planning service.
 *
 * A long-running service answering "give me a memory plan for (model,
 * batch, memory limit, policy config)" requests for many tenants sharing
 * one simulated GPU pool:
 *
 *  - cold (miss): build the graph, run a short Capuchin session (measured
 *    iteration + guided refinement), extract the learned plan and insert
 *    it into the PlanCache together with the session, which the entry
 *    keeps as the key's template;
 *  - warm (hit): return the cached plan and fork the template session
 *    (capufork) so the tenant starts guided execution immediately — the
 *    measured iteration is never re-run, and the returned plan is
 *    bit-identical (by digest) to the cold run's.
 *
 * With a plan directory configured, cold results are also serialized to
 * disk (core/plan_io format) and a miss first tries to reload a stored
 * plan — version and graph-fingerprint validated — before measuring.
 *
 * Thread-safety: handle() may be called from many pool workers at once.
 * Cache access is serialized by one mutex; cold planning runs outside
 * the lock. Misses are single-flight: the first miss on a key registers
 * a measurement and runs it; a request that finds its key being measured
 * waits without touching the cache's counters, then looks up again (a
 * hit answered by a fork), or returns the measurement's error when it
 * inserted no entry.
 *
 * Observability: capu.serve.hit / miss / evict / disk_load / error
 * counters (error counts every response that is not ok) plus inflight,
 * cache occupancy and hit-rate gauges, published into the registry
 * passed at construction (capuscope conventions).
 */

#ifndef CAPU_SERVE_SERVICE_HH
#define CAPU_SERVE_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "exec/executor.hh"
#include "obs/metrics.hh"
#include "serve/plan_cache.hh"

namespace capu::serve
{

struct PlanRequest
{
    std::string model = "resnet50";
    std::int64_t batch = 256;
    /** capuchin | capuchin-swap | capuchin-recompute. */
    std::string policy = "capuchin";
    /** Guided iterations to run on the warm fork (0 = plan only). */
    int warmIterations = 1;
};

struct PlanResponse
{
    bool ok = false;
    std::string error;
    bool hit = false;
    /** Plan loaded from the on-disk store instead of measured (cold). */
    bool fromDisk = false;
    std::uint64_t digest = 0;
    std::uint64_t graphFingerprint = 0;
    std::uint64_t version = 0;
    std::size_t planItems = 0;
    std::uint64_t plannedBytes = 0;
    /** Host wall time spent answering, milliseconds. */
    double latencyMs = 0.0;
    /** Simulated throughput of the warm-fork iterations (0 if none ran). */
    double imagesPerSec = 0.0;
};

struct PlanServiceConfig
{
    /** Device/allocator/replay configuration for planning sessions. */
    ExecConfig exec;
    /** Plan cache entry capacity; at least 1. */
    std::size_t cacheEntries = 64;
    /**
     * Iterations of a cold planning session: one measured + enough guided
     * iterations for the refinement loop to settle on a plan.
     */
    int coldIterations = 4;
    /** Serialized-plan directory ("" = no persistence). */
    std::string planDir;
};

class PlanService
{
  public:
    /** `metrics` may be nullptr (counters are then dropped). */
    explicit PlanService(PlanServiceConfig cfg,
                         obs::MetricsRegistry *metrics = nullptr);

    /** Answer one request (thread-safe; see file comment). */
    PlanResponse handle(const PlanRequest &request);

    /** Key derivation (exposed for tests and tools). */
    ServeKey keyFor(const PlanRequest &request) const;

    const PlanCacheStats &cacheStats() const { return cache_.stats(); }
    std::size_t cacheEntries() const { return cache_.entries(); }
    std::size_t templateSessions() const { return cache_.templateSessions(); }

    /**
     * Publish cache occupancy / hit-rate gauges into the registry now
     * (counters are maintained incrementally; gauges snapshot on demand
     * and at the end of every handle()).
     */
    void publishGauges();

  private:
    /** One key's measurement in progress; fields guarded by mutex_. */
    struct Measurement
    {
        bool done = false;
        /** Why it inserted no entry ("" when it did). */
        std::string error;
    };

    PlanResponse answer(const PlanRequest &request);
    PlanResponse measure(const ServeKey &key, const PlanRequest &request,
                         Measurement &m);
    std::unique_ptr<Session> loadFromDisk(const ServeKey &key,
                                          const PlanRequest &req, Plan &plan,
                                          std::uint64_t &fingerprint,
                                          PlanResponse &resp);
    /** Caller holds mutex_. */
    void endMeasurement(const ServeKey &key, Measurement &m,
                        const std::string &error);
    static void fillFromEntry(PlanResponse &resp,
                              const PlanCache::Entry &entry);
    std::string planPath(const ServeKey &key) const;
    /** Caller holds mutex_ (the registry is not thread-safe). */
    void count(const char *name, std::uint64_t delta = 1);

    PlanServiceConfig cfg_;
    obs::MetricsRegistry *metrics_;
    std::mutex mutex_; ///< guards cache_ + measuring_
    PlanCache cache_;
    std::unordered_map<ServeKey, std::shared_ptr<Measurement>, ServeKeyHash>
        measuring_;
    std::condition_variable measured_; ///< a measurement finished
    /** Requests being answered; read only by the inflight gauge. */
    std::atomic<int> inflight_{0};
};

/**
 * Stable hash of a policy configuration for key derivation. Covers the
 * policy name; extend with option fields if the service ever exposes
 * tunables that change planning decisions.
 */
std::uint64_t policyConfigHash(const std::string &policy);

/** Model-identity hash (canonical model name). */
std::uint64_t modelHash(const std::string &model);

} // namespace capu::serve

#endif // CAPU_SERVE_SERVICE_HH
