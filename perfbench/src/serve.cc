/**
 * @file
 * serve-mix: PlanService::handle driven as a closed loop.
 *
 * `workers` client threads share one PlanService. Each client sends its
 * next request as soon as the previous one returns, drawing keys from its
 * own seeded ServeKeyStream. The key space (28 keys) is more than twice
 * the cache capacity (12 entries), so cold measured sessions, LRU evictions,
 * warm forks and concurrent misses on one key all occur. Every response
 * must be ok and carry the committed plan digest of its key.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>

#include "bench_util.hh"
#include "host_probe.hh"
#include "percentile.hh"
#include "serve/service.hh"
#include "serve_keys.hh"

namespace perfbench
{

namespace
{

using namespace capu;

constexpr std::size_t kCacheEntries = 12;
/** Guided iterations each warm fork runs before the response returns. */
constexpr int kWarmIterations = 1;
/** Each client runs the host probe once per this many requests. */
constexpr std::size_t kProbeEvery = 64;

struct Sample
{
    std::size_t key = 0;
    bool ok = false;
    bool hit = false;
    double clientMs = 0; ///< as the client observed it
    double insideMs = 0; ///< inside handle(), as the service measured it
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

serve::PlanServiceConfig
serviceConfig()
{
    serve::PlanServiceConfig cfg;
    cfg.cacheEntries = kCacheEntries;
    return cfg;
}

serve::PlanRequest
requestFor(std::size_t key)
{
    const ServeKeySpec &spec = serveKeySpace()[key];
    serve::PlanRequest req;
    req.model = spec.model;
    req.batch = spec.batch;
    req.policy = spec.policy;
    req.warmIterations = kWarmIterations;
    return req;
}

/** Checks a response against the committed digest of its key. */
bool
checkResponse(Fingerprints &fp, std::size_t key,
              const serve::PlanResponse &resp)
{
    if (!resp.ok || resp.planItems == 0)
        return false;
    return fp.check("serve." + serveKeySpace()[key].tag() + ".digest",
                    hex64(resp.digest));
}

/**
 * Misses whose interval overlaps an earlier-started miss on the same key:
 * the duplicate cold measurements a single-flight service would avoid.
 */
std::size_t
concurrentDuplicateMisses(std::vector<Sample> misses)
{
    std::sort(misses.begin(), misses.end(),
              [](const Sample &a, const Sample &b) {
                  return a.key != b.key ? a.key < b.key
                                        : a.startNs < b.startNs;
              });
    std::size_t dups = 0;
    std::int64_t open_until = 0;
    for (std::size_t i = 0; i < misses.size(); ++i) {
        if (i > 0 && misses[i].key == misses[i - 1].key &&
            misses[i].startNs < open_until) {
            ++dups;
        } else if (i == 0 || misses[i].key != misses[i - 1].key) {
            open_until = 0;
        }
        open_until = std::max(open_until, misses[i].endNs);
    }
    return dups;
}

} // namespace

Outcome
runServeMix(const Context &ctx)
{
    Outcome out;
    Fingerprints &fp = *ctx.expected;
    const unsigned clients = std::max(1u, ctx.workers);

    // Set-up: start a service and answer the most popular key cold, the
    // first thing any tenant waits for. The last service is kept.
    std::unique_ptr<serve::PlanService> svc;
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        std::int64_t t0 = nowNs();
        svc = std::make_unique<serve::PlanService>(serviceConfig());
        serve::PlanResponse resp;
        {
            Span span(Layer::Serve, "PlanService::handle");
            resp = svc->handle(requestFor(0));
        }
        out.operation(checkResponse(fp, 0, resp),
                      "set-up request failed: " + resp.error);
        setup_s.push_back(scaleByProbe(msSince(t0), out.probeMs) / 1e3);
    }
    const serve::PlanCacheStats before = svc->cacheStats();

    std::vector<std::vector<Sample>> per_client(clients);
    std::vector<std::vector<double>> probes(clients);
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> done{0}, missed{0};
    std::vector<std::thread> threads;
    const std::uint64_t root = currentSpan();
    std::int64_t t0 = nowNs();
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            Span client_span(Layer::Other, "serve client", root);
            ServeKeyStream stream(ctx.seed, c);
            std::vector<Sample> &samples = per_client[c];
            while (!stop.load(std::memory_order_relaxed)) {
                Sample s;
                s.key = stream.next();
                serve::PlanRequest req = requestFor(s.key);
                s.startNs = nowNs();
                serve::PlanResponse resp;
                {
                    Span span(Layer::Serve, "PlanService::handle");
                    resp = svc->handle(req);
                }
                s.endNs = nowNs();
                s.clientMs = static_cast<double>(s.endNs - s.startNs) / 1e6;
                s.insideMs = resp.latencyMs;
                s.hit = resp.hit;
                s.ok = checkResponse(fp, s.key, resp);
                samples.push_back(s);
                if (samples.size() % kProbeEvery == 0)
                    sampleHostProbe(probes[c], 1);
                done.fetch_add(1, std::memory_order_relaxed);
                if (!s.hit)
                    missed.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    // Closed loop: run for the budget, and until the request and miss
    // percentiles are resolved.
    Budget budget(ctx.seconds);
    const std::size_t need_all = samplesToResolve(90);
    const std::size_t need_miss = samplesToResolve(50);
    while (budget.more(done.load() >= need_all && missed.load() >= need_miss))
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true);
    for (std::thread &t : threads)
        t.join();
    double window_s = msSince(t0) / 1e3;
    for (const auto &p : probes)
        out.probeMs.insert(out.probeMs.end(), p.begin(), p.end());

    std::vector<double> all_ms, hit_ms, miss_ms, hit_inside, miss_inside,
        wait_ms;
    std::vector<Sample> misses;
    std::set<std::size_t> keys_missed;
    for (const auto &samples : per_client) {
        for (const Sample &s : samples) {
            out.operation(s.ok, "request " + serveKeySpace()[s.key].tag() +
                                    " failed or returned a wrong digest");
            all_ms.push_back(s.clientMs);
            wait_ms.push_back(s.clientMs - s.insideMs);
            if (s.hit) {
                hit_ms.push_back(s.clientMs);
                hit_inside.push_back(s.insideMs);
            } else {
                miss_ms.push_back(s.clientMs);
                miss_inside.push_back(s.insideMs);
                misses.push_back(s);
                keys_missed.insert(s.key);
            }
        }
    }
    const serve::PlanCacheStats after = svc->cacheStats();
    double hits = static_cast<double>(after.hits - before.hits);
    double cache_misses = static_cast<double>(after.misses - before.misses);
    double evictions =
        static_cast<double>(after.evictions - before.evictions);
    std::size_t dups = concurrentDuplicateMisses(misses);

    // Throughput per whole second of the window; the median second is
    // robust to a burst of host interference in a few of them.
    std::vector<double> per_second(static_cast<std::size_t>(window_s), 0.0);
    for (const auto &samples : per_client) {
        for (const Sample &s : samples) {
            auto bin = static_cast<std::size_t>((s.endNs - t0) / 1000000000);
            if (bin < per_second.size())
                per_second[bin] += 1.0;
        }
    }
    const double req_per_s = median(per_second);

    Percentile p50 = nearestRank(all_ms, 50);
    Percentile p90 = nearestRank(all_ms, 90);
    Percentile hit50 = nearestRank(hit_ms, 50);
    Percentile hit99 = nearestRank(hit_ms, 99);
    Percentile miss50 = nearestRank(miss_ms, 50);
    Percentile miss90 = nearestRank(miss_ms, 90);
    const double requests = static_cast<double>(all_ms.size());
    out.unitMedianMs = p50.value;

    auto &m = out.metrics;
    m["setup_s"] = median(setup_s);
    // Clients probe while the loop runs, so the run's median probe time
    // describes the host under this load (host_probe.hh).
    const double f = hostSpeedFactor(out.probeMs);
    m["units_per_s"] = req_per_s / f;
    m["unit_p50_ms"] = p50.value * f;
    m["secondary_ms"] = miss50.value * f;
    m["peak_rss_mb"] = peakRssMb();

    m["serve.handle_hit_ms"] = median(hit_inside);
    m["serve.handle_miss_ms"] = median(miss_inside);
    m["serve.wait_ms"] = median(wait_ms);
    m["serve.hit_rate"] = ratio(hits, hits + cache_misses);
    m["serve.evictions"] = ratio(evictions, requests);
    m["serve.measures_per_key"] =
        ratio(cache_misses, static_cast<double>(keys_missed.size()));

    out.line(strf("serve-mix: %u closed-loop clients, %zu keys, cache %zu "
                  "entries, %.0f requests in %.2f s",
                  clients, serveKeySpace().size(), kCacheEntries, requests,
                  window_s));
    out.line(strf("  serve_req_per_s %.4f 1/s (median of %zu whole seconds; "
                  "%.4f over the window)",
                  req_per_s, per_second.size(), ratio(requests, window_s)));
    out.line("  request " + describe(p50, "ms") + "; " +
             describe(p90, "ms"));
    out.line("  serve_hit " + describe(hit50, "ms") + "; " +
             describe(hit99, "ms"));
    out.line("  serve_miss " + describe(miss50, "ms") + "; " +
             describe(miss90, "ms"));
    out.line(strf("  hit_rate %.4f = %.0f hits / %.0f lookups; evictions "
                  "%.4f per request = %.0f / %.0f",
                  ratio(hits, hits + cache_misses), hits,
                  hits + cache_misses, ratio(evictions, requests), evictions,
                  requests));
    out.line(strf("  measures_per_key %.4f = %.0f cold measurements / %zu "
                  "distinct keys missed; %zu of them overlapped a miss on "
                  "the same key",
                  ratio(cache_misses, static_cast<double>(keys_missed.size())),
                  cache_misses, keys_missed.size(), dups));
    out.line(strf("  set-up %.4f s probe-scaled (median of %d: service start + "
                  "cold %s)",
                  median(setup_s), kSetupReps, serveKeySpace()[0].tag().c_str()));
    return out;
}

} // namespace perfbench
