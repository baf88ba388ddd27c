/**
 * @file
 * capuserve throughput harness: cold vs warm requests/sec and latency.
 *
 * Both timed phases run in kRounds rounds, interleaved. A cold round
 * starts a fresh service and sends one request per tenant, so every
 * request is a cache miss that runs a full measured planning session; the
 * warm round after it repeats the mix kWarmPasses times on that service,
 * so every request is a cache hit answered by forking the cached template
 * session, no re-measurement. A last phase runs one guided iteration on
 * each warm fork to show the fork is a *live* session, not just a stored
 * plan. Three hard gates:
 *
 *  - identity: every warm response's plan digest equals the digest of the
 *    cold measured plan for its key (plan_io digests hash every field of
 *    every item, so equal digests mean bit-identical plans);
 *  - accounting: cold rounds run exactly one measured session per cache
 *    miss, and warm requests run none;
 *  - speedup: the median warm round's requests/sec must be >= 10x the
 *    median cold round's — the capuserve acceptance floor. The ratio is
 *    host-time based but self-relative (both phases run on the same
 *    machine in the same process), so no calibration normalization is
 *    needed; medians over several rounds keep one slow round on a shared
 *    host from deciding it. The timed phases admit one request at a
 *    time: with more admission tokens cold sessions run in parallel
 *    while warm forks serialize on the service mutex, so the ratio
 *    would track the host's core count (~24x on one core, ~11x on four)
 *    instead of what a hit saves over a miss.
 *
 * --verify adds an eviction-churn stress: a service capped at 2 cache
 * entries is driven round-robin over 4 tenants, so every request misses
 * and every insert evicts. Each re-measured plan must digest-match the
 * first plan ever built for its key — determinism under churn — and the
 * cache must stay at its capacity floor with live eviction counts.
 *
 * Exit status: 0 ok; 1 gate failure; 2 usage error.
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/serve_common.hh"
#include "obs/metrics.hh"
#include "support/logging.hh"
#include "support/percentile.hh"
#include "support/strfmt.hh"
#include "support/thread_pool.hh"
#include "support/units.hh"

using namespace capu;
using namespace capu::bench;
using namespace capu::serve;

namespace
{

struct Options
{
    bool quick = false;
    bool verify = false;
    int gpus = 4;
    std::string device = "p100";
    std::string json;
};

void
usage()
{
    std::cout <<
        "usage: serve_throughput [options]\n"
        "  --quick           2-tenant mix (CI smoke)\n"
        "  --verify          add the eviction-churn stress phase\n"
        "  --gpus N          admission tokens for the churn stress (the\n"
        "                    timed phases admit one request at a time)\n"
        "  --device NAME     p100 (default) | v100\n"
        "  --json FILE       write machine-readable results here\n";
}

double
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::atof(buf);
}

/** Timed rounds per phase. A single 4-request cold phase is one noisy
 *  sample on a shared host; the median of 20 rounds is stable. */
constexpr std::size_t kRounds = 20;

/** Passes over the tenant mix per warm round. A one-pass warm round
 *  lasts a millisecond or two, short against the queue's per-drain
 *  dispatch cost; a cold round lasts tens. */
constexpr std::size_t kWarmPasses = 4;

/** The rounds of one timed phase. */
struct PhaseRounds
{
    std::vector<double> reqPerSec; ///< one sample per round
    std::vector<double> latencyMs; ///< every request of every round
    std::size_t requests = 0;
    int errors = 0;
    /** Responses that ran a measured session (neither hit nor disk). */
    std::size_t measured = 0;

    void
    add(const ServePhaseResult &round)
    {
        reqPerSec.push_back(round.reqPerSec);
        requests += round.requests;
        errors += round.errors;
        for (const PlanResponse &r : round.responses) {
            latencyMs.push_back(r.latencyMs);
            if (!r.hit && !r.fromDisk)
                ++measured;
        }
    }

    double medianReqPerSec() const { return percentile(reqPerSec, 0.5); }

    std::string
    describe() const
    {
        return fmt("{} req in {} rounds, median {} req/s (min {}, max {}, "
                   "n={}), p50 {} ms, p99 {} ms (n={})",
                   requests, reqPerSec.size(), medianReqPerSec(),
                   percentile(reqPerSec, 0.0), percentile(reqPerSec, 1.0),
                   reqPerSec.size(), percentile(latencyMs, 0.5),
                   percentile(latencyMs, 0.99), latencyMs.size());
    }

    std::string
    json() const
    {
        return fmt("{\"requests\": {}, \"rounds\": {}, \"req_per_sec\": {}, "
                   "\"p50_ms\": {}, \"p99_ms\": {}}",
                   requests, reqPerSec.size(), jsonNum(medianReqPerSec()),
                   jsonNum(percentile(latencyMs, 0.5)),
                   jsonNum(percentile(latencyMs, 0.99)));
    }
};

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--quick")
            opt.quick = true;
        else if (arg == "--verify")
            opt.verify = true;
        else if (arg == "--gpus")
            opt.gpus = std::atoi(next());
        else if (arg == "--device")
            opt.device = next();
        else if (arg == "--json")
            opt.json = next();
        else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            usage();
            return 2;
        }
    }
    setLogEnabled(false);

    const ServeTenant *tenants =
        opt.quick ? kQuickServeTenants : kServeTenants;
    std::size_t n_tenants =
        opt.quick ? std::size(kQuickServeTenants) : std::size(kServeTenants);

    try {
        PlanServiceConfig cfg;
        if (opt.device == "v100")
            cfg.exec.device = GpuDeviceSpec::v100();
        else
            cfg.exec.device = GpuDeviceSpec::p100();
        obs::MetricsRegistry metrics;
        metrics.setEnabled(true);
        RequestQueueConfig qcfg;
        qcfg.gpus = opt.gpus;
        RequestQueueConfig timed_qcfg; // one request at a time (file comment)
        timed_qcfg.gpus = 1;
        ThreadPool pool;
        std::unique_ptr<PlanService> service;
        std::unique_ptr<RequestQueue> queue;

        bool ok = true;
        ServeDigestLedger ledger;
        auto round = [&](std::size_t passes, int warm_iters,
                         PhaseRounds &phase) {
            std::vector<PlanRequest> reqs = serveMix(
                tenants, n_tenants, passes * n_tenants, warm_iters);
            ServePhaseResult res = runServePhase(*queue, reqs);
            ledger.observe(reqs, res.responses);
            phase.add(res);
        };

        // ---- phases 1 + 2: cold and warm rounds, interleaved ------------
        // Each cold round starts a fresh service, so every request misses
        // and measures; the warm round after it hits that service's cache
        // and forks its templates. Interleaving puts both phases under the
        // same host load, which drifts on a shared host. An untimed pass
        // goes before each warm round: the first forks of a fresh template
        // fault in memory a long-running service faults in once.
        PhaseRounds cold, warm, warmup;
        std::uint64_t cold_misses = 0;
        for (std::size_t r = 0; r < kRounds; ++r) {
            queue.reset();
            service = std::make_unique<PlanService>(cfg, &metrics);
            queue =
                std::make_unique<RequestQueue>(*service, timed_qcfg, &pool);
            round(1, /*warm_iters=*/0, cold);
            cold_misses += service->cacheStats().misses;
            round(1, /*warm_iters=*/0, warmup);
            round(kWarmPasses, /*warm_iters=*/0, warm);
        }

        // ---- phase 3: warm fork + 1 guided iteration (reported only) ----
        PhaseRounds forkrun;
        round(1, /*warm_iters=*/1, forkrun);

        const PlanCacheStats &cs = service->cacheStats();
        double speedup = cold.medianReqPerSec() > 0
                             ? warm.medianReqPerSec() / cold.medianReqPerSec()
                             : 0.0;
        const std::size_t warm_measured =
            warmup.measured + warm.measured + forkrun.measured;

        std::cout << "capuserve throughput (" << n_tenants
                  << " tenants, device " << opt.device << ")\n";
        std::cout << "  cold: " << cold.describe() << "\n";
        std::cout << "  warm: " << warm.describe() << "\n";
        std::cout << "  fork+run: " << forkrun.requests << " req, p50 "
                  << percentile(forkrun.latencyMs, 0.5) << " ms (n="
                  << forkrun.latencyMs.size()
                  << ", 1 guided iteration each)\n";
        std::cout << "  speedup: " << speedup
                  << "x warm over cold (median round each); cold "
                  << cold.measured << " measured sessions / " << cold_misses
                  << " misses; warm " << warm_measured
                  << " measured sessions; last service " << cs.hits
                  << " hits / " << cs.misses << " misses, "
                  << service->templateSessions() << " template sessions\n";

        int errors = cold.errors + warmup.errors + warm.errors +
                     forkrun.errors;
        if (errors) {
            std::cerr << "SERVE ERRORS: " << errors
                      << " requests failed\n";
            ok = false;
        }
        if (!ledger.identical()) {
            std::cerr << "SERVE DIGEST MISMATCH: a warm response disagrees "
                         "with the cold plan for its key\n";
            ok = false;
        }
        if (cold.measured != cold_misses || cold_misses != cold.requests ||
            warm_measured != 0) {
            std::cerr << "SERVE MEASURED SESSIONS OFF: cold " << cold.measured
                      << " for " << cold_misses << " misses of "
                      << cold.requests << " requests; warm " << warm_measured
                      << " (expected 0)\n";
            ok = false;
        }
        const std::size_t last_hits =
            (1 + kWarmPasses) * n_tenants + forkrun.requests;
        if (cs.misses != n_tenants || cs.hits != last_hits) {
            std::cerr << "SERVE CACHE ACCOUNTING OFF: " << cs.hits
                      << " hits / " << cs.misses << " misses, expected "
                      << last_hits << " / " << n_tenants << "\n";
            ok = false;
        }
        if (speedup < 10.0) {
            std::cerr << "SERVE WARM SPEEDUP " << speedup
                      << "x BELOW 10x COLD\n";
            ok = false;
        }

        // ---- eviction-churn stress (--verify) ---------------------------
        std::uint64_t churn_evictions = 0;
        std::size_t churn_requests = 0;
        bool churn_identical = true;
        if (opt.verify) {
            PlanServiceConfig ccfg = cfg;
            ccfg.cacheEntries = 2; // 4 tenants round-robin: always evicting
            ccfg.coldIterations = 2;
            obs::MetricsRegistry cmetrics;
            cmetrics.setEnabled(true);
            PlanService churn_svc(ccfg, &cmetrics);
            RequestQueue churn_queue(churn_svc, qcfg);
            ServeDigestLedger churn_ledger;
            int rounds = opt.quick ? 2 : 3;
            for (int round = 0; round < rounds; ++round) {
                std::vector<PlanRequest> reqs =
                    serveMix(kServeTenants, std::size(kServeTenants),
                             std::size(kServeTenants), /*warm_iters=*/0);
                ServePhaseResult res = runServePhase(churn_queue, reqs);
                churn_ledger.observe(reqs, res.responses);
                churn_requests += res.requests;
                if (res.errors) {
                    std::cerr << "CHURN ERRORS in round " << round << "\n";
                    ok = false;
                }
            }
            const PlanCacheStats &ccs = churn_svc.cacheStats();
            churn_evictions = ccs.evictions;
            churn_identical = churn_ledger.identical();
            std::cout << "  churn: " << churn_requests
                      << " req over capacity-2 cache, " << ccs.evictions
                      << " evictions, " << churn_svc.cacheEntries()
                      << " resident, re-measured plans identical: "
                      << (churn_identical ? "yes" : "NO") << "\n";
            if (!churn_identical) {
                std::cerr << "CHURN DIGEST MISMATCH: a re-measured plan "
                             "differs from the first plan for its key\n";
                ok = false;
            }
            if (ccs.evictions == 0 || churn_svc.cacheEntries() > 2) {
                std::cerr << "CHURN DID NOT EVICT (evictions="
                          << ccs.evictions << ", entries="
                          << churn_svc.cacheEntries() << ")\n";
                ok = false;
            }
            if (churn_svc.templateSessions() > churn_svc.cacheEntries()) {
                std::cerr << "TEMPLATE SESSION LEAK: "
                          << churn_svc.templateSessions()
                          << " sessions for " << churn_svc.cacheEntries()
                          << " cache entries\n";
                ok = false;
            }
        }

        if (!opt.json.empty()) {
            std::ofstream js(opt.json);
            js << "{\n  \"schema\": \"capu-serve-v1\",\n"
               << "  \"quick\": " << (opt.quick ? "true" : "false") << ",\n"
               << "  \"tenants\": " << n_tenants << ",\n"
               << "  \"cold\": " << cold.json() << ",\n"
               << "  \"warm\": " << warm.json() << ",\n"
               << "  \"fork_run_p50_ms\": "
               << jsonNum(percentile(forkrun.latencyMs, 0.5)) << ",\n"
               << "  \"warm_speedup\": " << jsonNum(speedup) << ",\n"
               << "  \"identical\": "
               << (ledger.identical() ? "true" : "false") << ",\n"
               << "  \"hits\": " << cs.hits << ",\n"
               << "  \"misses\": " << cs.misses << ",\n"
               << "  \"churn\": {\"requests\": " << churn_requests
               << ", \"evictions\": " << churn_evictions
               << ", \"identical\": "
               << (churn_identical ? "true" : "false") << "}\n}\n";
            std::cout << "  wrote " << opt.json << "\n";
        }

        if (!ok) {
            std::cout << "SERVE THROUGHPUT FAILED (see messages above)\n";
            return 1;
        }
        return 0;
    } catch (const FatalError &e) {
        std::cerr << "serve_throughput: " << e.what() << "\n";
        return 1;
    } catch (const PanicError &e) {
        std::cerr << "serve_throughput: " << e.what() << "\n";
        return 1;
    }
}
