/**
 * @file
 * google-benchmark microbenches for the substrate hot paths: the BFC
 * allocator, the access tracker, graph construction, the policy maker,
 * and a whole simulated training iteration. These guard the
 * simulator's own performance (a full Table-2 sweep runs ~10^4 simulated
 * iterations).
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/access_tracker.hh"
#include "core/capuchin_policy.hh"
#include "exec/session.hh"
#include "memory/bfc_allocator.hh"
#include "models/zoo.hh"
#include "policy/noop_policy.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/units.hh"

using namespace capu;

namespace
{
// Policy-internal inform() chatter would pollute the benchmark table.
[[maybe_unused]] const bool g_quiet = (setLogEnabled(false), true);
} // namespace

static void
BM_BfcAllocFreeCycle(benchmark::State &state)
{
    BfcAllocator alloc(1ull << 30);
    Rng rng(42);
    std::vector<MemHandle> live;
    for (auto _ : state) {
        if (live.size() < 256 && (live.empty() || rng.chance(0.6))) {
            auto h = alloc.allocate(rng.uniformInt(256, 1 << 20));
            if (h)
                live.push_back(*h);
        } else {
            std::size_t i = rng.uniformInt(0, live.size() - 1);
            alloc.deallocate(live[i]);
            live[i] = live.back();
            live.pop_back();
        }
    }
    for (auto h : live)
        alloc.deallocate(h);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BfcAllocFreeCycle);

/**
 * The churn DESIGN.md §10 measured its rejected BFC free-list rewrites
 * on: a 16 GiB arena holding up to 2048 live chunks, so every free-list
 * insert and erase works on long sets. One alloc or free per iteration
 * over a fixed xorshift sequence: a free at a random slot one step in 8
 * (always above 2048 live), else a 4 KiB–4 MiB request, with a failed
 * request freeing the newest chunk. The 64–320 MiB branch tests the same
 * low bits as the free draw, so it fires only while nothing is live.
 */
static void
BM_BfcChurn(benchmark::State &state)
{
    BfcAllocator alloc(16_GiB);
    std::vector<MemHandle> live;
    live.reserve(4096);
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    auto rnd = [&] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (auto _ : state) {
        std::uint64_t r = rnd();
        if (!live.empty() && (live.size() > 2048 || (r & 7) == 0)) {
            std::size_t i = rnd() % live.size();
            alloc.deallocate(live[i]);
            live[i] = live.back();
            live.pop_back();
            continue;
        }
        std::uint64_t bytes = (r & 15) == 0 ? 64_MiB + rnd() % 256_MiB
                                            : 4_KiB + rnd() % 4_MiB;
        if (auto h = alloc.allocate(bytes)) {
            live.push_back(*h);
        } else if (!live.empty()) {
            alloc.deallocate(live.back());
            live.pop_back();
        }
    }
    alloc.checkInvariants();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BfcChurn);

static void
BM_AccessTrackerRecord(benchmark::State &state)
{
    AccessTracker tracker;
    Tick t = 0;
    for (auto _ : state) {
        AccessRecord r;
        r.tensor = static_cast<TensorId>(t % 1000);
        r.accessIndex = static_cast<int>(t / 1000) + 1;
        r.time = t += 100;
        tracker.record(r);
        if (tracker.size() > 100000) {
            state.PauseTiming();
            tracker.reset();
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AccessTrackerRecord);

static void
BM_BuildResNet50Graph(benchmark::State &state)
{
    for (auto _ : state) {
        Graph g = buildResNet(64, 50);
        benchmark::DoNotOptimize(g.numOps());
    }
}
BENCHMARK(BM_BuildResNet50Graph);

static void
BM_SimulateResNet50Iteration(benchmark::State &state)
{
    Graph g = buildResNet(64, 50);
    ExecConfig cfg;
    Executor ex(g, cfg, nullptr);
    ex.setup();
    for (auto _ : state) {
        auto stats = ex.runIteration();
        benchmark::DoNotOptimize(stats.duration());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulateResNet50Iteration);

static void
BM_CapuchinPlanBuild(benchmark::State &state)
{
    // Measure planning cost on a real oversubscribed trace: run the
    // measured iteration once, then rebuild plans repeatedly.
    Graph g = buildResNet(300, 50);
    for (auto _ : state) {
        state.PauseTiming();
        ExecConfig cfg;
        auto policy = makeCapuchinPolicy();
        Executor ex(g, cfg, policy.get());
        ex.setup();
        ex.runIteration(); // measured execution
        state.ResumeTiming();
        ex.runIteration(); // first guided iteration includes buildPlan
    }
}
BENCHMARK(BM_CapuchinPlanBuild);

BENCHMARK_MAIN();
