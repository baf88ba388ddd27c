#include "serve/service.hh"

#include <chrono>
#include <ios>
#include <optional>
#include <sstream>
#include <utility>

#include "core/capuchin_policy.hh"
#include "core/plan_io.hh"
#include "models/workload.hh"
#include "support/logging.hh"

namespace capu::serve
{

namespace
{

double
nowMs()
{
    using namespace std::chrono;
    return duration<double, std::milli>(
               steady_clock::now().time_since_epoch())
        .count();
}

/** The service plans with the Capuchin family (plan extraction needs the
 *  access-tracker lifecycle the baselines do not run). */
std::unique_ptr<MemoryPolicy>
makeServePolicy(const std::string &policy)
{
    CapuchinOptions o;
    if (policy == "capuchin-swap")
        o.enableRecompute = false;
    else if (policy == "capuchin-recompute")
        o.enableSwap = false;
    else if (policy != "capuchin")
        fatal("capuserve: unsupported policy '{}' (want capuchin, "
              "capuchin-swap or capuchin-recompute)",
              policy);
    return makeCapuchinPolicy(o);
}

} // namespace

std::uint64_t
policyConfigHash(const std::string &policy)
{
    return hashString(policy.c_str());
}

std::uint64_t
modelHash(const std::string &model)
{
    return hashString(model.c_str());
}

PlanService::PlanService(PlanServiceConfig cfg, obs::MetricsRegistry *metrics)
    : cfg_(std::move(cfg)), metrics_(metrics),
      cache_(cfg_.cacheEntries, cfg_.cacheBytes)
{
}

ServeKey
PlanService::keyFor(const PlanRequest &request) const
{
    ServeKey key;
    key.model = modelHash(request.model);
    key.batch = request.batch;
    key.memLimit = cfg_.exec.device.memCapacity;
    key.policyCfg = policyConfigHash(request.policy);
    return key;
}

void
PlanService::count(const char *name, std::uint64_t delta)
{
    if (metrics_)
        metrics_->add(name, delta);
}

void
PlanService::publishGauges()
{
    if (!metrics_)
        return;
    metrics_->set("capu.serve.cache.entries",
                  static_cast<double>(cache_.entries()));
    metrics_->set("capu.serve.cache.bytes",
                  static_cast<double>(cache_.bytes()));
    metrics_->set("capu.serve.hit_rate", cache_.stats().hitRate());
    metrics_->set("capu.serve.inflight",
                  static_cast<double>(inflight_.load()));
}

std::string
PlanService::planPath(const ServeKey &key) const
{
    std::ostringstream os;
    os << cfg_.planDir << "/plan-" << std::hex << key.model << '-'
       << std::dec << key.batch << '-' << std::hex << key.memLimit << '-'
       << key.policyCfg << ".capuplan";
    return os.str();
}

void
PlanService::fillFromEntry(PlanResponse &resp, const PlanCache::Entry &entry)
{
    resp.digest = entry.digest;
    resp.graphFingerprint = entry.graphFingerprint;
    resp.version = entry.version;
    resp.planItems = entry.plan.items.size();
    resp.plannedBytes = entry.plan.plannedBytes;
}

void
PlanService::endMeasurement(const ServeKey &key, Measurement &m,
                            const std::string &error)
{
    m.error = error;
    m.done = true;
    measuring_.erase(key);
    measured_.notify_all();
}

std::unique_ptr<Session>
PlanService::loadFromDisk(const ServeKey &key, const PlanRequest &req,
                          Plan &plan, std::uint64_t &fingerprint,
                          PlanResponse &resp)
{
    if (cfg_.planDir.empty())
        return nullptr;
    // Validation needs the graph fingerprint, and the warm path needs a
    // template session anyway — build the graph once, reuse it for both.
    Graph graph = buildModelByName(req.model, req.batch);
    std::uint64_t fp = graphFingerprint(graph);
    Plan loaded;
    PlanLoadStatus st = loadPlanFile(planPath(key), loaded, fp);
    if (st != PlanLoadStatus::Ok) {
        if (st != PlanLoadStatus::Truncated)
            warn("capuserve: stored plan for {}@{} rejected: {}", req.model,
                 req.batch, planLoadStatusName(st));
        return nullptr;
    }
    // Seed a session with the loaded plan (no measured iteration) and run
    // one guided iteration so the template is warm for future forks.
    auto policy = makeServePolicy(req.policy);
    static_cast<CapuchinPolicy *>(policy.get())->seedPlan(loaded);
    auto session = std::make_unique<Session>(std::move(graph), cfg_.exec,
                                             std::move(policy));
    auto r = session->run(1);
    if (r.oom)
        return nullptr;
    resp.fromDisk = true;
    resp.imagesPerSec = r.steadyThroughput(req.batch, /*skip=*/0);
    plan = std::move(loaded);
    fingerprint = fp;
    return session;
}

PlanResponse
PlanService::handle(const PlanRequest &request)
{
    double t0 = nowMs();
    ++inflight_;
    PlanResponse resp;
    try {
        resp = answer(request);
    } catch (const FatalError &e) {
        resp = PlanResponse{};
        resp.error = e.what();
    }
    if (!resp.ok) {
        std::lock_guard<std::mutex> lock(mutex_);
        count("capu.serve.error");
    }
    --inflight_;
    resp.latencyMs = nowMs() - t0;
    return resp;
}

PlanResponse
PlanService::answer(const PlanRequest &request)
{
    ServeKey key = keyFor(request);
    PlanResponse resp;
    std::shared_ptr<Measurement> leading;
    std::optional<Session> fork;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        publishGauges();
        // Single flight: wait out each measurement of this key in
        // progress, without touching the cache's counters, before the
        // lookup below.
        for (auto it = measuring_.find(key); it != measuring_.end();
             it = measuring_.find(key)) {
            std::shared_ptr<Measurement> m = it->second;
            measured_.wait(lock, [&] { return m->done; });
            if (!m->error.empty()) {
                resp.error = m->error;
                return resp;
            }
        }
        if (const PlanCache::Entry *entry = cache_.find(key)) {
            count("capu.serve.hit");
            resp.ok = true;
            resp.hit = true;
            fillFromEntry(resp, *entry);
            // Materialize the fork while the template cannot be evicted;
            // its warm iterations run outside the lock.
            fork = entry->templateSession->fork();
        } else {
            count("capu.serve.miss");
            leading = std::make_shared<Measurement>();
            measuring_.emplace(key, leading);
        }
    }
    if (leading)
        return measure(key, request, *leading);

    if (request.warmIterations > 0) {
        auto r = fork->run(request.warmIterations);
        if (r.oom) {
            resp.ok = false;
            resp.error = "warm fork OOMed: " + r.oomMessage;
        } else {
            resp.imagesPerSec = r.steadyThroughput(request.batch, /*skip=*/0);
        }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    publishGauges();
    return resp;
}

PlanResponse
PlanService::measure(const ServeKey &key, const PlanRequest &request,
                     Measurement &m)
{
    // Ends the measurement with an error on every exit that inserted
    // nothing — an error response, a FatalError or a PanicError — so no
    // waiter waits for it forever.
    struct EndOnExit
    {
        PlanService &svc;
        const ServeKey &key;
        Measurement &m;
        std::string error;

        ~EndOnExit()
        {
            std::lock_guard<std::mutex> lock(svc.mutex_);
            if (!m.done)
                svc.endMeasurement(key, m, error);
        }
    } guard{*this, key, m, "cold planning run did not finish"};

    PlanResponse resp;
    try {
        // Prefer a validated on-disk plan (cross-process warm start), else
        // run the cold measured session. Both happen outside the lock.
        Plan plan;
        std::uint64_t fp = 0;
        std::unique_ptr<Session> session =
            loadFromDisk(key, request, plan, fp, resp);
        if (!session) {
            Graph graph = buildModelByName(request.model, request.batch);
            fp = graphFingerprint(graph);
            session = std::make_unique<Session>(
                std::move(graph), cfg_.exec, makeServePolicy(request.policy));
            auto r = session->run(cfg_.coldIterations);
            if (r.oom) {
                resp.error = "cold planning run OOMed: " + r.oomMessage;
                guard.error = resp.error;
                return resp;
            }
            auto *capu = dynamic_cast<CapuchinPolicy *>(session->policy());
            plan = capu ? capu->plan() : Plan{};
            resp.imagesPerSec =
                r.steadyThroughput(request.batch, /*skip=*/1);
            if (!cfg_.planDir.empty())
                savePlanFile(planPath(key), plan, fp);
        }
        // Insert and end the measurement under one lock hold: its waiters
        // then find the entry, or share the error when it did not fit.
        std::lock_guard<std::mutex> lock(mutex_);
        std::uint64_t evicted = cache_.stats().evictions;
        const PlanCache::Entry *entry = cache_.insert(
            key, std::move(plan), fp, std::move(session));
        evicted = cache_.stats().evictions - evicted;
        if (evicted > 0)
            count("capu.serve.evict", evicted);
        if (entry) {
            resp.ok = true;
            fillFromEntry(resp, *entry);
            if (resp.fromDisk)
                count("capu.serve.disk_load");
        } else {
            resp.error = "plan cache capacity is zero";
        }
        endMeasurement(key, m, resp.error);
        publishGauges();
    } catch (const std::exception &e) {
        guard.error = e.what();
        throw;
    }
    return resp;
}

} // namespace capu::serve
