/**
 * @file
 * capuserve — multi-tenant planning service driver.
 *
 * Answers a request stream (scripted file or generated zoo mix) with one
 * PlanService, fanned over a pool of --gpus workers, and reports cache
 * behaviour and latency:
 *
 *   capuserve --mix 40 --gpus 4                 # generated zoo mix
 *   capuserve --stream requests.txt --plan-dir plans/
 *   capuserve --mix 40 --metrics serve.csv --csv
 *
 * Stream file format, one request per line (# starts a comment):
 *   <model> <batch> [policy] [warm-iterations]
 * Any other non-blank line is a usage error naming <file>:<line>.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "serve/service.hh"
#include "support/logging.hh"
#include "support/percentile.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"
#include "support/units.hh"

using namespace capu;
using namespace capu::serve;

namespace
{

constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::uint64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kSizeMax = std::numeric_limits<std::size_t>::max();

struct Options
{
    std::string device = "p100";
    std::string stream;
    int mix = 0;
    std::uint64_t seed = 0;
    int gpus = 4;
    std::size_t cacheEntries = 64;
    std::uint64_t cacheBytes = 64ull << 20;
    int coldIterations = 4;
    int warmIterations = 1;
    std::string planDir;
    std::string metricsFile;
    bool csv = false;
};

void
usage()
{
    std::cout <<
        "capuserve — multi-tenant Capuchin planning service\n"
        "\n"
        "  --stream <file>      scripted request stream (one request per\n"
        "                       line: <model> <batch> [policy] [warm-iters])\n"
        "  --mix <n>            generate n requests over the model zoo\n"
        "                       (deterministic per --seed; default 24 when\n"
        "                       no --stream is given)\n"
        "  --seed <n>           seed for --mix (default 0)\n"
        "  --device <name>      p100 (default) | v100\n"
        "  --gpus <n>           planning sessions in flight at once, at\n"
        "                       most one per hardware thread (default 4)\n"
        "  --cache-entries <n>  plan cache entry capacity (default 64)\n"
        "  --cache-bytes <n>    plan cache byte capacity, e.g. 64M or\n"
        "                       1.5G (default 64 MiB)\n"
        "  --cold-iters <n>     iterations of a cold planning session\n"
        "                       (default 4)\n"
        "  --warm-iters <n>     guided iterations run on each warm fork\n"
        "                       (default 1)\n"
        "  --plan-dir <dir>     serialize plans to <dir> and reload them on\n"
        "                       miss (cross-process warm start)\n"
        "  --metrics <f>        write capu.serve.* metrics (.json => JSON,\n"
        "                       else CSV)\n"
        "  --csv                machine-readable per-request output\n"
        "  --quiet / --verbose  log verbosity\n"
        "\n"
        "exit status:\n"
        "  0  every request answered\n"
        "  1  usage error (a malformed option or stream line)\n"
        "  3  a request failed, a warm response's digest differs from its\n"
        "     key's cold plan, or, when nothing was evicted, a key was not\n"
        "     measured exactly once\n";
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value after {}", a);
            return argv[++i];
        };
        auto count = [&](std::uint64_t lo, std::uint64_t hi) {
            return parseCount(next(), a, lo, hi);
        };
        if (a == "--stream")
            opt.stream = next();
        else if (a == "--mix")
            opt.mix = static_cast<int>(count(0, kIntMax));
        else if (a == "--seed")
            opt.seed = parseCount(next(), a);
        else if (a == "--device")
            opt.device = next();
        else if (a == "--gpus")
            opt.gpus = static_cast<int>(count(1, kIntMax));
        else if (a == "--cache-entries")
            opt.cacheEntries = static_cast<std::size_t>(count(0, kSizeMax));
        else if (a == "--cache-bytes")
            opt.cacheBytes = parseBytes(next());
        else if (a == "--cold-iters")
            opt.coldIterations = static_cast<int>(count(1, kIntMax));
        else if (a == "--warm-iters")
            opt.warmIterations = static_cast<int>(count(0, kIntMax));
        else if (a == "--plan-dir")
            opt.planDir = next();
        else if (a == "--metrics")
            opt.metricsFile = next();
        else if (a == "--csv")
            opt.csv = true;
        else if (a == "--quiet")
            setLogEnabled(false);
        else if (a == "--verbose")
            setLogEnabled(true);
        else if (a == "--help" || a == "-h") {
            usage();
            return false;
        } else {
            fatal("unknown argument '{}' (see --help)", a);
        }
    }
    return true;
}

std::vector<PlanRequest>
loadStream(const std::string &path, int default_warm)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot read request stream '{}'", path);
    std::vector<PlanRequest> reqs;
    std::string line;
    for (int lineno = 1; std::getline(is, line); ++lineno) {
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        std::vector<std::string> tok;
        for (std::string t; ls >> t;)
            tok.push_back(std::move(t));
        if (tok.empty())
            continue; // blank / comment-only line
        std::string where = path + ":" + std::to_string(lineno) + ":";
        if (tok.size() < 2 || tok.size() > 4)
            fatal("{} expected 2 to 4 fields (<model> <batch> [policy] "
                  "[warm-iters]), got {}",
                  where, tok.size());
        PlanRequest r;
        r.model = tok[0];
        r.batch = static_cast<std::int64_t>(
            parseCount(tok[1], where + " batch", 1, kInt64Max));
        if (tok.size() > 2)
            r.policy = tok[2];
        r.warmIterations =
            tok.size() > 3 ? static_cast<int>(parseCount(
                                 tok[3], where + " warm-iters", 0, kIntMax))
                           : default_warm;
        reqs.push_back(std::move(r));
    }
    return reqs;
}

/**
 * Deterministic zoo request mix: a handful of (model, batch) tenants with
 * Zipf-ish popularity, so the stream exercises both cold planning and the
 * warm fork path. Batches stay modest to keep cold sessions quick.
 */
std::vector<PlanRequest>
generateMix(int n, std::uint64_t seed, int warm_iters)
{
    struct Tenant
    {
        const char *model;
        std::int64_t batch;
    };
    static const Tenant kTenants[] = {
        {"resnet50", 192}, {"resnet50", 256}, {"vgg16", 96},
        {"densenet", 96},  {"inceptionv3", 128},
    };
    constexpr std::size_t kTenantCount =
        sizeof(kTenants) / sizeof(kTenants[0]);
    Rng rng(seed ^ 0x5e57e5e57ull);
    std::vector<PlanRequest> reqs;
    reqs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        // Harmonic weights: tenant k drawn with weight 1/(k+1).
        double total = 0;
        for (std::size_t k = 0; k < kTenantCount; ++k)
            total += 1.0 / static_cast<double>(k + 1);
        double roll = rng.uniformReal(0.0, total);
        std::size_t pick = 0;
        for (; pick + 1 < kTenantCount; ++pick) {
            roll -= 1.0 / static_cast<double>(pick + 1);
            if (roll <= 0)
                break;
        }
        PlanRequest r;
        r.model = kTenants[pick].model;
        r.batch = kTenants[pick].batch;
        r.warmIterations = warm_iters;
        reqs.push_back(std::move(r));
    }
    return reqs;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        if (!parseArgs(argc, argv, opt))
            return 0;

        PlanServiceConfig cfg;
        if (opt.device == "p100")
            cfg.exec.device = GpuDeviceSpec::p100();
        else if (opt.device == "v100")
            cfg.exec.device = GpuDeviceSpec::v100();
        else
            fatal("unknown device '{}' (p100 or v100)", opt.device);
        cfg.cacheEntries = opt.cacheEntries;
        cfg.cacheBytes = opt.cacheBytes;
        cfg.coldIterations = opt.coldIterations;
        cfg.planDir = opt.planDir;

        std::vector<PlanRequest> reqs;
        if (!opt.stream.empty())
            reqs = loadStream(opt.stream, opt.warmIterations);
        else
            reqs = generateMix(opt.mix > 0 ? opt.mix : 24, opt.seed,
                               opt.warmIterations);
        if (reqs.empty())
            fatal("request stream is empty");

        obs::MetricsRegistry metrics;
        metrics.setEnabled(true);
        PlanService service(cfg, &metrics);
        // One worker per GPU bounds the sessions in flight; responses land
        // in stream order whatever order the workers finish in.
        ThreadPool pool(std::min(static_cast<unsigned>(opt.gpus),
                                 ThreadPool::defaultThreads()));
        std::vector<PlanResponse> resps(reqs.size());

        auto t0 = std::chrono::steady_clock::now();
        pool.forEachIndex(reqs.size(), [&](std::size_t i) {
            resps[i] = service.handle(reqs[i]);
        });
        auto t1 = std::chrono::steady_clock::now();
        double wall_s =
            std::chrono::duration<double>(t1 - t0).count();
        service.publishGauges();
        metrics.snapshotIteration(0);

        // Per key over its ok responses: every one carries the cold plan's
        // digest (bit-identical plan), and the misses among them are the
        // key's measurements.
        struct KeyTally
        {
            std::uint64_t digest = 0;
            int misses = 0;
            std::size_t firstRequest = 0;
        };
        std::vector<double> cold_ms, warm_ms;
        int errors = 0;
        bool digest_mismatch = false;
        std::unordered_map<ServeKey, KeyTally, ServeKeyHash> tally;
        if (opt.csv)
            std::cout << "req,hit,from_disk,digest,version,plan_items,"
                         "latency_ms,img_per_s,error\n";
        for (std::size_t i = 0; i < resps.size(); ++i) {
            const PlanResponse &r = resps[i];
            (r.hit ? warm_ms : cold_ms).push_back(r.latencyMs);
            if (!r.ok) {
                ++errors;
                std::cerr << "capuserve: request " << i << " ("
                          << reqs[i].model << "@" << reqs[i].batch
                          << ") failed: " << r.error << "\n";
            } else {
                auto [it, first] =
                    tally.try_emplace(service.keyFor(reqs[i]));
                KeyTally &t = it->second;
                if (first) {
                    t.digest = r.digest;
                    t.firstRequest = i;
                } else if (t.digest != r.digest) {
                    digest_mismatch = true;
                }
                if (!r.hit)
                    ++t.misses;
            }
            if (opt.csv) {
                std::cout << i << ',' << (r.hit ? 1 : 0) << ','
                          << (r.fromDisk ? 1 : 0) << ',' << std::hex
                          << r.digest << std::dec << ',' << r.version << ','
                          << r.planItems << ',' << r.latencyMs << ','
                          << r.imagesPerSec << ','
                          << (r.ok ? "" : r.error) << '\n';
            }
        }

        const PlanCacheStats &cs = service.cacheStats();
        std::cout << "serve: " << resps.size() << " requests in " << wall_s
                  << " s (" << (wall_s > 0
                                    ? static_cast<double>(resps.size()) /
                                          wall_s
                                    : 0.0)
                  << " req/s), " << errors << " errors\n";
        std::cout << "cache: " << cs.hits << " hits, " << cs.misses
                  << " misses (" << static_cast<int>(cs.hitRate() * 100)
                  << "% hit rate), " << cs.evictions << " evictions, "
                  << service.cacheEntries() << " entries / "
                  << formatBytes(service.cacheBytes()) << " resident, "
                  << service.templateSessions() << " template sessions\n";
        std::cout << "latency: cold p50 " << percentile(cold_ms, 0.50)
                  << " ms p99 " << percentile(cold_ms, 0.99)
                  << " ms (n=" << cold_ms.size() << "), warm p50 "
                  << percentile(warm_ms, 0.50) << " ms p99 "
                  << percentile(warm_ms, 0.99) << " ms (n="
                  << warm_ms.size() << ")\n";

        if (!opt.metricsFile.empty() &&
            obs::writeMetricsFile(opt.metricsFile, metrics))
            inform("wrote serve metrics to {}", opt.metricsFile);

        bool failed = errors > 0;
        if (digest_mismatch) {
            std::cerr << "capuserve: DIGEST MISMATCH: a warm response "
                         "disagrees with the cold plan for its key\n";
            failed = true;
        }
        // With nothing evicted, a key is measured once and every later
        // request for it is a hit.
        if (cs.evictions == 0) {
            for (const auto &[key, t] : tally) {
                if (t.misses == 1)
                    continue;
                const PlanRequest &r = reqs[t.firstRequest];
                std::cerr << "capuserve: " << r.model << "@" << r.batch
                          << " " << r.policy << " missed " << t.misses
                          << " times with nothing evicted\n";
                failed = true;
            }
        }
        if (failed)
            return 3;
        return 0;
    } catch (const FatalError &e) {
        std::cerr << "capuserve: " << e.what() << "\n";
        return 1;
    } catch (const PanicError &e) {
        std::cerr << "capuserve: " << e.what() << "\n";
        return 3;
    }
}
