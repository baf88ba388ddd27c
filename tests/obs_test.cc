/**
 * @file
 * Tests for the capuscope observability layer: tracer ring semantics,
 * metrics snapshots and percentiles, the Chrome-trace exporter's schema
 * (validated with support/json, the parser this suite's in-test parser
 * was promoted into), cross-layer metric invariants, and the
 * zero-observer-effect guarantee across the model zoo.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/capuchin_policy.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "obs/chrome_trace.hh"
#include "obs/obs.hh"
#include "policy/noop_policy.hh"
#include "policy/vdnn_policy.hh"
#include "support/json.hh"

using namespace capu;

namespace
{

using Json = json::Value;

/** VGG16 under Capuchin at a batch that forces swapping, fully traced. */
Session &
tracedVgg16()
{
    static std::unique_ptr<Session> session;
    if (!session) {
        ExecConfig cfg;
        cfg.obsLevel = obs::ObsLevel::Full;
        session = std::make_unique<Session>(buildVgg16(230), cfg,
                                            makeCapuchinPolicy());
        auto r = session->run(3);
        EXPECT_FALSE(r.oom) << r.oomMessage;
    }
    return *session;
}

/** `iterations` iterations of `g` under `policy` at obs level `level`. */
SessionResult
runAtLevel(obs::ObsLevel level, Graph g, std::unique_ptr<MemoryPolicy> policy,
           int iterations)
{
    ExecConfig cfg;
    cfg.obsLevel = level;
    Session s(std::move(g), cfg, std::move(policy));
    SessionResult r = s.run(iterations);
    EXPECT_FALSE(r.oom) << r.oomMessage;
    return r;
}

/** Every iteration's (begin, end). */
std::vector<std::pair<Tick, Tick>>
stamps(const SessionResult &r)
{
    std::vector<std::pair<Tick, Tick>> out;
    for (const auto &it : r.iterations)
        out.emplace_back(it.begin, it.end);
    return out;
}

} // namespace

// --- Tracer ring semantics ---

TEST(Tracer, RingDropsOldest)
{
    // 40000 events span several storage blocks, so the wrap crosses them.
    for (std::size_t cap : {std::size_t{4}, std::size_t{40000}}) {
        obs::Tracer tracer(cap);
        tracer.setEnabled(true);
        obs::NameId m = tracer.intern("m");
        Tick n = 2 * cap + cap / 2;
        for (Tick t = 0; t < n; ++t)
            tracer.instant(obs::kTrackHost, obs::EventKind::Marker, t, m);
        EXPECT_EQ(tracer.size(), cap);
        EXPECT_EQ(tracer.recorded(), n);
        EXPECT_EQ(tracer.dropped(), n - cap);
        // The survivors are the *newest* `cap`, oldest-first.
        std::vector<Tick> want(cap);
        std::iota(want.begin(), want.end(), n - cap);
        std::vector<Tick> ts;
        tracer.forEach(
            [&](const obs::TraceEvent &ev) { ts.push_back(ev.ts); });
        EXPECT_EQ(ts, want);
        ts.clear();
        for (const obs::TraceEvent *ev : tracer.chronological())
            ts.push_back(ev->ts);
        EXPECT_EQ(ts, want);
    }
}

TEST(Tracer, ChronologicalSortsByTimestamp)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    tracer.instant(obs::kTrackHost, obs::EventKind::Marker, 30, "c");
    tracer.instant(obs::kTrackHost, obs::EventKind::Marker, 10, "a");
    tracer.instant(obs::kTrackHost, obs::EventKind::Marker, 20, "b");
    auto evs = tracer.chronological();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(tracer.name(evs[0]->name), "a");
    EXPECT_EQ(tracer.name(evs[1]->name), "b");
    EXPECT_EQ(tracer.name(evs[2]->name), "c");
}

TEST(Tracer, ChronologicalCacheInvalidatedByRecordAndClear)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    tracer.instant(obs::kTrackHost, obs::EventKind::Marker, 20, "b");
    tracer.instant(obs::kTrackHost, obs::EventKind::Marker, 10, "a");
    const auto &first = tracer.chronological();
    ASSERT_EQ(first.size(), 2u);
    // Cached: repeated calls hand back the same vector, no re-sort.
    EXPECT_EQ(&tracer.chronological(), &first);
    // A new record invalidates the cache...
    tracer.instant(obs::kTrackHost, obs::EventKind::Marker, 15, "c");
    const auto &second = tracer.chronological();
    ASSERT_EQ(second.size(), 3u);
    EXPECT_EQ(tracer.name(second[0]->name), "a");
    EXPECT_EQ(tracer.name(second[1]->name), "c");
    EXPECT_EQ(tracer.name(second[2]->name), "b");
    // ...and so does clear().
    tracer.clear();
    EXPECT_TRUE(tracer.chronological().empty());
}

TEST(Tracer, CopyOwnsItsChronologicalOrder)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    tracer.setTrackName(obs::kTrackHost, "host");
    for (Tick t : {30, 10, 20, 10, 40})
        tracer.instant(obs::kTrackHost, obs::EventKind::Marker, t, "m");
    ASSERT_EQ(tracer.chronological().size(), 5u); // cache the original's
    std::ostringstream before;
    obs::writeChromeTrace(before, tracer);

    obs::Tracer copy(tracer);
    tracer.clear();
    // The copy's order points into the copy's own ring, never into the
    // (now cleared) original's.
    std::set<const obs::TraceEvent *> owned;
    copy.forEach([&](const obs::TraceEvent &ev) { owned.insert(&ev); });
    const auto &order = copy.chronological();
    ASSERT_EQ(order.size(), 5u);
    for (const obs::TraceEvent *ev : order)
        ASSERT_EQ(owned.count(ev), 1u);
    std::ostringstream after;
    obs::writeChromeTrace(after, copy);
    EXPECT_EQ(after.str(), before.str());
}

TEST(Tracer, ChronologicalTiesKeepEmissionOrderAcrossWrap)
{
    // A ring of 8 wrapped 2.5 times by runs of three equal ticks: ties
    // straddle the overwrite cursor, where slot order and emission order
    // disagree.
    obs::Tracer tracer(8);
    tracer.setEnabled(true);
    for (int k = 0; k < 20; ++k) {
        tracer.instant(obs::kTrackHost, obs::EventKind::Marker, k / 3, "m",
                       -1, -1, static_cast<std::uint64_t>(k));
    }
    std::vector<const obs::TraceEvent *> want;
    tracer.forEach([&](const obs::TraceEvent &ev) { want.push_back(&ev); });
    std::stable_sort(want.begin(), want.end(),
                     [](const obs::TraceEvent *a, const obs::TraceEvent *b) {
                         return a->ts < b->ts;
                     });
    EXPECT_EQ(tracer.chronological(), want);
}

TEST(Tracer, DroppedSurfacesAsMetricCounter)
{
    // A deliberately tiny ring must overflow on a real workload and
    // surface the drop count as capu.obs.trace_dropped.
    ExecConfig cfg;
    cfg.obsLevel = obs::ObsLevel::Full;
    cfg.obsRingCapacity = 512;
    Session s(buildVgg16(230), cfg, makeCapuchinPolicy());
    auto r = s.run(2);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    const obs::Obs &o = s.executor().obs();
    EXPECT_GT(o.tracer.dropped(), 0u);
    EXPECT_EQ(o.metrics.counter("capu.obs.trace_dropped"),
              o.tracer.dropped());
}

TEST(Tracer, DisabledDropsEverything)
{
    obs::Tracer tracer;
    tracer.instant(obs::kTrackHost, obs::EventKind::Marker, 1, "m");
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.recorded(), 0u);
}

// --- Interned labels ---

TEST(NameTable, InternIsIdempotentAndDense)
{
    obs::NameTable names;
    EXPECT_EQ(names.size(), 1u);
    EXPECT_EQ(names.name(0), "");
    EXPECT_EQ(names.intern(""), 0u);
    obs::NameId a = names.intern("a");
    obs::NameId b = names.intern("b");
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(names.intern("a"), a);
    EXPECT_EQ(names.intern(std::string("b")), b);
    EXPECT_EQ(names.size(), 3u);
    EXPECT_EQ(names.name(a), "a");
    EXPECT_EQ(names.name(b), "b");
}

TEST(NameTable, ResolvedNamesSurviveLaterInterns)
{
    obs::NameTable names;
    // Longer than any small-string buffer, so the bytes live on the heap.
    std::string long_name(100, 'x');
    const std::string &first = names.name(names.intern(long_name));
    const std::string &short_first = names.name(names.intern("s"));
    for (int i = 0; i < 10000; ++i)
        names.intern("name" + std::to_string(i));
    EXPECT_EQ(first, long_name);
    EXPECT_EQ(short_first, "s");
    EXPECT_EQ(names.intern(long_name), 1u);
}

TEST(NameTable, CopyResolvesEveryIdAlike)
{
    obs::NameTable names;
    for (int i = 0; i < 100; ++i)
        names.intern("label" + std::to_string(i));
    obs::NameTable copy = names;
    obs::NameTable assigned;
    assigned.intern("stale");
    assigned = names;
    ASSERT_EQ(copy.size(), names.size());
    ASSERT_EQ(assigned.size(), names.size());
    for (obs::NameId id = 0; id < names.size(); ++id) {
        EXPECT_EQ(copy.name(id), names.name(id));
        EXPECT_EQ(assigned.name(id), names.name(id));
        // The copy's index is its own: lookups find the same ids.
        EXPECT_EQ(copy.intern(names.name(id)), id);
    }
    // A copy grows on its own without disturbing the original.
    obs::NameId fresh = copy.intern("fresh");
    EXPECT_EQ(fresh, names.size());
    EXPECT_EQ(names.size() + 1, copy.size());
}

TEST(Tracer, NamesSurviveClearCapacityAndWrap)
{
    obs::Tracer tracer(4);
    tracer.setEnabled(true);
    obs::NameId a = tracer.intern("a");
    for (Tick t = 0; t < 10; ++t) // wraps the ring twice
        tracer.instant(obs::kTrackHost, obs::EventKind::Marker, t, a);
    obs::NameId b = tracer.intern("b");
    tracer.clear();
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.name(a), "a");
    tracer.setCapacity(16);
    EXPECT_EQ(tracer.name(b), "b");
    EXPECT_EQ(tracer.intern("a"), a);
    EXPECT_EQ(tracer.intern("b"), b);
    EXPECT_EQ(tracer.names().size(), 3u);
    tracer.instant(obs::kTrackHost, obs::EventKind::Marker, 1, "b");
    ASSERT_EQ(tracer.size(), 1u);
    EXPECT_EQ(tracer.chronological()[0]->name, b);
}

TEST(Tracer, DisabledTracerInternsNothing)
{
    obs::Tracer tracer;
    EXPECT_EQ(tracer.intern("x"), 0u);
    tracer.complete(obs::kTrackHost, obs::EventKind::Marker, 0, 1, "c");
    tracer.instant(obs::kTrackHost, obs::EventKind::Marker, 0, "i");
    tracer.counter(obs::kTrackMemory, 0, "n", 1.0);
    tracer.spanBegin(obs::EventKind::Lifetime, 0, 0, "b");
    tracer.spanEnd(obs::EventKind::Lifetime, 0, 1, "e");
    EXPECT_EQ(tracer.names().size(), 1u);
    EXPECT_EQ(tracer.size(), 0u);

    // An obs-off session builds no label anywhere.
    Session s(buildVgg16(230), ExecConfig{}, makeCapuchinPolicy());
    ASSERT_FALSE(s.run(3).oom);
    EXPECT_EQ(s.executor().obs().tracer.names().size(), 1u);
}

TEST(Tracer, CopyAndForkResolveIdsAlike)
{
    ExecConfig cfg;
    cfg.obsLevel = obs::ObsLevel::Full;
    Session base(buildVgg16(230), cfg, makeCapuchinPolicy());
    ASSERT_FALSE(base.run(2).oom);
    const obs::Tracer &tracer = base.executor().obs().tracer;
    ASSERT_GT(tracer.names().size(), 1u);

    obs::Tracer copy = tracer;
    Session fork = base.fork();
    const obs::Tracer &forked = fork.executor().obs().tracer;
    ASSERT_EQ(copy.names().size(), tracer.names().size());
    ASSERT_EQ(forked.names().size(), tracer.names().size());
    for (obs::NameId id = 0; id < tracer.names().size(); ++id) {
        EXPECT_EQ(copy.name(id), tracer.name(id));
        EXPECT_EQ(forked.name(id), tracer.name(id));
    }
    // Every buffered event resolves the same in the fork's table.
    std::size_t unresolved = 0;
    forked.forEach([&](const obs::TraceEvent &ev) {
        unresolved += ev.name < tracer.names().size() ? 0 : 1;
    });
    EXPECT_EQ(unresolved, 0u);
    // The fork interns its next iteration's markers into its own table.
    std::size_t before = tracer.names().size();
    ASSERT_FALSE(fork.run(1).oom);
    EXPECT_GT(forked.names().size(), before);
    EXPECT_EQ(tracer.names().size(), before);
}

TEST(Tracer, NamesGrowWithLabelsNotEvents)
{
    // Steady-state iterations reuse every kernel, access, lifetime and
    // transfer label; only the two iteration markers are new.
    ExecConfig cfg;
    cfg.obsLevel = obs::ObsLevel::Full;
    Session s(buildVgg16(230), cfg, makeCapuchinPolicy());
    ASSERT_FALSE(s.run(3).oom);
    const obs::Tracer &tracer = s.executor().obs().tracer;
    std::size_t names = tracer.names().size();
    std::uint64_t events = tracer.recorded();
    ASSERT_FALSE(s.run(5).oom);
    EXPECT_GT(tracer.recorded(), events + 5 * 500);
    EXPECT_EQ(tracer.names().size(), names + 5 * 2); // iter:N, iteration:N
}

// --- Metrics registry ---

TEST(Metrics, SnapshotRecordsCounterDeltas)
{
    obs::MetricsRegistry m;
    m.setEnabled(true);
    m.add("x", 5);
    m.snapshotIteration(0);
    m.add("x", 3);
    m.set("g", 0.5);
    m.snapshotIteration(1);
    ASSERT_EQ(m.iterations().size(), 2u);
    EXPECT_DOUBLE_EQ(m.iterations()[0].values.at("x"), 5.0);
    EXPECT_DOUBLE_EQ(m.iterations()[1].values.at("x"), 3.0);
    EXPECT_DOUBLE_EQ(m.iterations()[1].values.at("g"), 0.5);
    EXPECT_EQ(m.counter("x"), 8u);
}

TEST(Metrics, HistogramBuckets)
{
    obs::MetricsRegistry m;
    m.setEnabled(true);
    m.observe("h", 0);
    m.observe("h", 1);
    m.observe("h", 100);
    const obs::Histogram *h = m.histogram("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 3u);
    EXPECT_EQ(h->sum(), 101u);
    EXPECT_EQ(h->min(), 0u);
    EXPECT_EQ(h->max(), 100u);
    EXPECT_EQ(h->bucket(0), 1u); // the zero observation
}

TEST(Metrics, DisabledIgnoresMutations)
{
    obs::MetricsRegistry m;
    m.add("x", 5);
    m.snapshotIteration(0);
    EXPECT_EQ(m.counter("x"), 0u);
    EXPECT_TRUE(m.iterations().empty());
}

// --- Chrome-trace golden schema (VGG16 under Capuchin) ---

TEST(ChromeTrace, Vgg16TraceIsValidJson)
{
    Session &s = tracedVgg16();
    std::ostringstream os;
    obs::writeChromeTrace(os, s.executor().obs().tracer);
    std::string text = os.str();

    Json root;
    ASSERT_TRUE(json::parse(text, root)) << "trace is not valid JSON";
    ASSERT_EQ(root.kind, Json::Obj);
    ASSERT_TRUE(root.has("traceEvents"));
    const Json &evs = root["traceEvents"];
    ASSERT_EQ(evs.kind, Json::Arr);
    ASSERT_FALSE(evs.arr.empty());

    std::size_t metadata = 0, complete = 0, spans = 0;
    for (const Json &ev : evs.arr) {
        ASSERT_EQ(ev.kind, Json::Obj);
        ASSERT_TRUE(ev.has("ph"));
        const std::string &ph = ev["ph"].str;
        ASSERT_TRUE(ph == "X" || ph == "i" || ph == "C" || ph == "b" ||
                    ph == "e" || ph == "M")
            << "unexpected phase " << ph;
        ASSERT_TRUE(ev.has("name"));
        ASSERT_TRUE(ev.has("pid"));
        if (ph == "M") {
            ++metadata;
            continue;
        }
        ASSERT_TRUE(ev.has("ts"));
        ASSERT_GE(ev["ts"].num, 0.0);
        if (ph == "X") {
            ++complete;
            ASSERT_TRUE(ev.has("dur"));
            ASSERT_GE(ev["dur"].num, 0.0);
        }
        if (ph == "b" || ph == "e") {
            ++spans;
            ASSERT_TRUE(ev.has("id"));
            ASSERT_TRUE(ev.has("cat"));
        }
    }
    EXPECT_GT(metadata, 0u) << "no process/thread metadata";
    EXPECT_GT(complete, 0u) << "no duration events (kernels/transfers)";
    EXPECT_GT(spans, 0u) << "no tensor-lifetime spans";
}

TEST(ChromeTrace, LifetimeSpansNestCorrectly)
{
    Session &s = tracedVgg16();
    std::ostringstream os;
    obs::writeChromeTrace(os, s.executor().obs().tracer);
    Json root;
    ASSERT_TRUE(json::parse(os.str(), root));

    // Async spans pair by (cat, id): depth never goes negative and every
    // span opened is eventually closed (the executor closes residency
    // phases at iteration end).
    std::map<std::string, int> depth;
    for (const Json &ev : root["traceEvents"].arr) {
        const std::string &ph = ev["ph"].str;
        if (ph != "b" && ph != "e")
            continue;
        std::string key =
            ev["cat"].str + "/" +
            std::to_string(static_cast<long long>(ev["id"].num));
        if (ph == "b") {
            ASSERT_EQ(depth[key], 0)
                << "span " << key << " reopened while open";
            ++depth[key];
        } else {
            ASSERT_EQ(depth[key], 1) << "span " << key << " closed twice";
            --depth[key];
        }
    }
    for (const auto &[key, d] : depth)
        EXPECT_EQ(d, 0) << "span " << key << " left open";
}

TEST(ChromeTrace, MetricsExportsParse)
{
    Session &s = tracedVgg16();
    const obs::MetricsRegistry &m = s.executor().obs().metrics;

    std::ostringstream js;
    obs::writeMetricsJson(js, m);
    Json root;
    ASSERT_TRUE(json::parse(js.str(), root))
        << "metrics JSON is not valid JSON";
    ASSERT_TRUE(root.has("counters"));
    ASSERT_TRUE(root.has("gauges"));
    ASSERT_TRUE(root.has("iterations"));
    EXPECT_EQ(root["iterations"].arr.size(), 3u);

    std::ostringstream cs;
    obs::writeMetricsCsv(cs, m);
    std::string csv = cs.str();
    // Header + one row per iteration + one #histogram footer row each.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'),
              4 + static_cast<std::int64_t>(m.histograms().size()));
    EXPECT_EQ(csv.rfind("iteration", 0), 0u);
}

TEST(Metrics, HistogramPercentiles)
{
    // Known distribution: one observation each of 1..1000. Exact ranks are
    // 500/950/990; the log2-bucketed estimate must land inside the
    // surrounding power-of-two bucket.
    obs::MetricsRegistry m;
    m.setEnabled(true);
    for (std::uint64_t v = 1; v <= 1000; ++v)
        m.observe("h", v);
    const obs::Histogram *h = m.histogram("h");
    ASSERT_NE(h, nullptr);
    EXPECT_GE(h->p50(), 256u);
    EXPECT_LE(h->p50(), 512u);
    EXPECT_GE(h->p95(), 512u);
    EXPECT_LE(h->p95(), 1000u);
    EXPECT_GE(h->p99(), h->p95());
    EXPECT_LE(h->p99(), 1000u);
    EXPECT_GE(h->p95(), h->p50());
    // Degenerate distributions pin every percentile to the single value.
    m.observe("one", 42);
    const obs::Histogram *one = m.histogram("one");
    EXPECT_EQ(one->p50(), 42u);
    EXPECT_EQ(one->p99(), 42u);
    // Percentiles ride along in the JSON export.
    std::ostringstream js;
    obs::writeMetricsJson(js, m);
    Json root;
    ASSERT_TRUE(json::parse(js.str(), root));
    const Json &hist = root["histograms"]["h"];
    ASSERT_FALSE(hist.isNull());
    EXPECT_DOUBLE_EQ(hist["p50"].num, static_cast<double>(h->p50()));
    EXPECT_DOUBLE_EQ(hist["p95"].num, static_cast<double>(h->p95()));
    EXPECT_DOUBLE_EQ(hist["p99"].num, static_cast<double>(h->p99()));
}

TEST(Metrics, EmptyHistogramPercentileIsZero)
{
    obs::Histogram h;
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.p99(), 0u);
}

// --- Cross-layer metric invariants ---

TEST(ObsInvariants, SwapByteConservation)
{
    Session &s = tracedVgg16();
    const obs::MetricsRegistry &m = s.executor().obs().metrics;
    // Every byte swapped out either came back in or retired with its host
    // copy — transition-level conservation across the whole run.
    EXPECT_GT(m.counter("tensor.out_bytes"), 0u) << "run never swapped";
    EXPECT_EQ(m.counter("tensor.out_bytes"),
              m.counter("tensor.in_bytes") +
                  m.counter("tensor.retired_host_bytes"));
}

TEST(ObsInvariants, PrefetchHiddenRatioInRange)
{
    Session &s = tracedVgg16();
    const obs::MetricsRegistry &m = s.executor().obs().metrics;
    double ratio = m.gauge("prefetch.hidden_ratio");
    EXPECT_GE(ratio, 0.0);
    EXPECT_LE(ratio, 1.0);
}

TEST(ObsInvariants, KernelEventsMatchKernelBusy)
{
    // The compute track's Complete events must sum to the iteration stats'
    // kernel + recompute busy time: the trace and the stats are two views
    // of the same simulation.
    Session &s = tracedVgg16();
    Tick traced = 0;
    s.executor().obs().tracer.forEach([&](const obs::TraceEvent &ev) {
        if (ev.track == obs::kTrackCompute &&
            ev.phase == obs::EventPhase::Complete)
            traced += ev.dur;
    });
    Tick stats = 0;
    // Session keeps only aggregate results; re-derive from the metrics.
    const obs::MetricsRegistry &m = s.executor().obs().metrics;
    stats = m.counter("compute.kernel_ns") + m.counter("compute.recompute_ns");
    EXPECT_EQ(traced, stats);
}

// --- Zero observer effect across the zoo ---

TEST(ObserverEffect, ObsLevelChangesNoTimestamps)
{
    // ObsLevel::Metrics and ::Full must not move a single simulated
    // timestamp relative to ObsLevel::Off, for every graph-mode model in
    // the zoo.
    for (ModelKind kind : graphModeModels()) {
        auto base = stamps(runAtLevel(obs::ObsLevel::Off,
                                      buildModel(kind, 32),
                                      makeCapuchinPolicy(), 2));
        for (auto level : {obs::ObsLevel::Metrics, obs::ObsLevel::Full})
            EXPECT_EQ(stamps(runAtLevel(level, buildModel(kind, 32),
                                        makeCapuchinPolicy(), 2)),
                      base)
                << modelName(kind) << ": obs level "
                << obs::obsLevelName(level) << " moved timestamps";
    }
}

TEST(ObserverEffect, SwappingWorkloadIdenticalUnderTracing)
{
    // Same check on workloads that actually swap: vDNN on Vgg16@230
    // exercises evict/prefetch/stall paths, and Capuchin on ResNet-50@256
    // (CI's traced cell) swaps in its measured iteration 0 and recomputes
    // in its guided iteration 2.
    auto vgg = stamps(runAtLevel(obs::ObsLevel::Off, buildVgg16(230),
                                 makeVdnnPolicy(), 2));
    SessionResult resnet =
        runAtLevel(obs::ObsLevel::Off, buildModel(ModelKind::ResNet50, 256),
                   makeCapuchinPolicy(), 3);
    ASSERT_EQ(resnet.iterations.size(), 3u);
    EXPECT_GT(resnet.iterations[0].swapOutBytes, 0u);
    EXPECT_GT(resnet.iterations[2].recomputeOps, 0);
    for (auto level : {obs::ObsLevel::Metrics, obs::ObsLevel::Full}) {
        EXPECT_EQ(stamps(runAtLevel(level, buildVgg16(230),
                                    makeVdnnPolicy(), 2)),
                  vgg)
            << "vgg16@230 vDNN at " << obs::obsLevelName(level);
        EXPECT_EQ(stamps(runAtLevel(level,
                                    buildModel(ModelKind::ResNet50, 256),
                                    makeCapuchinPolicy(), 3)),
                  stamps(resnet))
            << "resnet50@256 Capuchin at " << obs::obsLevelName(level);
    }
}
