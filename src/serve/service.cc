#include "serve/service.hh"

#include <chrono>
#include <ios>
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
    // Evicting a plan entry drops its template session in the same step:
    // a fork source must never outlive the plan it would answer with.
    cache_.setEvictionHook([this](const PlanCache::Entry &victim) {
        sessions_.drop(victim.key);
        if (metrics_)
            metrics_->add("capu.serve.evict");
    });
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
PlanService::count(const char *name)
{
    if (metrics_)
        metrics_->add(name);
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

bool
PlanService::tryLoadFromDisk(const ServeKey &key, const PlanRequest &req,
                             PlanResponse &resp)
{
    if (cfg_.planDir.empty())
        return false;
    // Validation needs the graph fingerprint, and the warm path needs a
    // template session anyway — build the graph once, reuse it for both.
    Graph graph = buildModelByName(req.model, req.batch);
    std::uint64_t fp = graphFingerprint(graph);
    Plan plan;
    PlanLoadStatus st = loadPlanFile(planPath(key), plan, fp);
    if (st != PlanLoadStatus::Ok) {
        if (st != PlanLoadStatus::Truncated)
            warn("capuserve: stored plan for {}@{} rejected: {}", req.model,
                 req.batch, planLoadStatusName(st));
        return false;
    }
    // Seed a session with the loaded plan (no measured iteration) and run
    // one guided iteration so the template is warm for future forks.
    auto policy = makeServePolicy(req.policy);
    static_cast<CapuchinPolicy *>(policy.get())->seedPlan(plan);
    Session session(std::move(graph), cfg_.exec, std::move(policy));
    auto r = session.run(1);
    if (r.oom)
        return false;
    resp.fromDisk = true;
    resp.imagesPerSec = r.steadyThroughput(req.batch, /*skip=*/0);

    std::lock_guard<std::mutex> lock(mutex_);
    const PlanCache::Entry *entry = cache_.insert(key, std::move(plan), fp);
    if (!entry)
        return false;
    sessions_.store(key, std::move(session));
    resp.ok = true;
    fillFromEntry(resp, *entry);
    count("capu.serve.disk_load");
    publishGauges();
    return true;
}

PlanResponse
PlanService::handle(const PlanRequest &request)
{
    double t0 = nowMs();
    ++inflight_;
    PlanResponse resp;
    try {
        resp = handleLocked(request);
    } catch (const FatalError &e) {
        count("capu.serve.error");
        resp = PlanResponse{};
        resp.error = e.what();
    }
    --inflight_;
    resp.latencyMs = nowMs() - t0;
    return resp;
}

PlanResponse
PlanService::handleLocked(const PlanRequest &request)
{
    ServeKey key = keyFor(request);
    PlanResponse resp;

    std::optional<Session> fork;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        publishGauges();
        if (const PlanCache::Entry *entry = cache_.find(key)) {
            count("capu.serve.hit");
            resp.ok = true;
            resp.hit = true;
            fillFromEntry(resp, *entry);
            // Materialize the fork while the template cannot be evicted;
            // its warm iterations run outside the lock.
            fork = sessions_.forkFor(key);
        } else {
            count("capu.serve.miss");
        }
    }
    if (resp.hit) {
        if (fork && request.warmIterations > 0) {
            auto r = fork->run(request.warmIterations);
            if (r.oom) {
                resp.ok = false;
                resp.error = "warm fork OOMed: " + r.oomMessage;
            } else {
                resp.imagesPerSec =
                    r.steadyThroughput(request.batch, /*skip=*/0);
            }
        }
        std::lock_guard<std::mutex> lock(mutex_);
        publishGauges();
        return resp;
    }

    // Miss: prefer a validated on-disk plan (cross-process warm start),
    // else run the cold measured session. Both happen outside the lock;
    // concurrent misses on the same key both measure — the deterministic
    // simulation makes their plans identical, and the loser's insert just
    // bumps the entry version.
    if (tryLoadFromDisk(key, request, resp))
        return resp;

    Graph graph = buildModelByName(request.model, request.batch);
    std::uint64_t fp = graphFingerprint(graph);
    Session session(std::move(graph), cfg_.exec,
                    makeServePolicy(request.policy));
    auto r = session.run(cfg_.coldIterations);
    if (r.oom) {
        count("capu.serve.error");
        resp.error = "cold planning run OOMed: " + r.oomMessage;
        return resp;
    }
    auto *capu = dynamic_cast<CapuchinPolicy *>(session.policy());
    Plan plan = capu ? capu->plan() : Plan{};
    resp.imagesPerSec = r.steadyThroughput(request.batch, /*skip=*/1);

    if (!cfg_.planDir.empty())
        savePlanFile(planPath(key), plan, fp);

    std::lock_guard<std::mutex> lock(mutex_);
    const PlanCache::Entry *entry = cache_.insert(key, std::move(plan), fp);
    if (entry) {
        sessions_.store(key, std::move(session));
        resp.ok = true;
        fillFromEntry(resp, *entry);
    } else {
        resp.error = "plan cache capacity is zero";
    }
    publishGauges();
    return resp;
}

} // namespace capu::serve
