/**
 * @file
 * capuserve tests: plan serialization round-trips bit-identically across a
 * simulated process boundary (serialize -> reload -> compare field by
 * field and by digest) for the zoo under all three plan-producing policies
 * (Capuchin measured plans, vDNN offload plans, checkpointing drop-set
 * plans), rejection of bad-magic / version-mismatch / fingerprint-mismatch
 * / truncated / corrupted files, seeded sessions (loadPlan + seedPlan)
 * running deterministically without mutating the loaded plan, PlanCache
 * LRU / byte-capacity / versioning semantics, and PlanService cold/warm
 * digest identity, template-session lifetime, single-flight misses and
 * the on-disk warm-start path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/baseline_plans.hh"
#include "core/access_tracker.hh"
#include "core/capuchin_policy.hh"
#include "core/plan_io.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "policy/checkpointing_policy.hh"
#include "policy/vdnn_policy.hh"
#include "serve/plan_cache.hh"
#include "serve/service.hh"

using namespace capu;
using namespace capu::serve;

namespace
{

/** Oversubscribed batches (the IncrementalPlan cases): passive mode must
 *  evict, so every policy's plan is non-trivial. */
struct ZooCase
{
    const char *name;
    ModelKind kind;
    std::int64_t batch;
};

const ZooCase kZoo[] = {
    {"vgg16", ModelKind::Vgg16, 260},
    {"resnet50", ModelKind::ResNet50, 240},
    {"bert", ModelKind::BertBase, 110},
};

void
expectPlansEqual(const Plan &a, const Plan &b)
{
    EXPECT_EQ(a.targetBytes, b.targetBytes);
    EXPECT_EQ(a.plannedBytes, b.plannedBytes);
    EXPECT_EQ(a.swapCount, b.swapCount);
    EXPECT_EQ(a.recomputeCount, b.recomputeCount);
    EXPECT_EQ(a.peak.valid, b.peak.valid);
    EXPECT_EQ(a.peak.lo, b.peak.lo);
    EXPECT_EQ(a.peak.hi, b.peak.hi);
    EXPECT_EQ(a.peak.peakBytes, b.peak.peakBytes);
    ASSERT_EQ(a.items.size(), b.items.size());
    for (std::size_t i = 0; i < a.items.size(); ++i) {
        const PlannedEviction &x = a.items[i];
        const PlannedEviction &y = b.items[i];
        EXPECT_EQ(x.tensor, y.tensor) << "item " << i;
        EXPECT_EQ(x.mode, y.mode) << "item " << i;
        EXPECT_EQ(x.bytes, y.bytes) << "item " << i;
        EXPECT_EQ(x.evictAfterAccess, y.evictAfterAccess) << "item " << i;
        EXPECT_EQ(x.backAccess, y.backAccess) << "item " << i;
        EXPECT_EQ(x.evictTime, y.evictTime) << "item " << i;
        EXPECT_EQ(x.backTime, y.backTime) << "item " << i;
        EXPECT_EQ(x.swapTime, y.swapTime) << "item " << i;
        EXPECT_EQ(x.freeTime, y.freeTime) << "item " << i;
        EXPECT_EQ(x.desiredSwapInStart, y.desiredSwapInStart)
            << "item " << i;
        EXPECT_EQ(x.triggerTensor, y.triggerTensor) << "item " << i;
        EXPECT_EQ(x.triggerAccess, y.triggerAccess) << "item " << i;
        EXPECT_EQ(x.recomputeTime, y.recomputeTime) << "item " << i;
        EXPECT_EQ(x.estimatedOverhead, y.estimatedOverhead) << "item " << i;
    }
    EXPECT_EQ(planDigest(a), planDigest(b));
}

/** Serialize to a string and load back — the process boundary in vitro. */
void
expectRoundTrip(const Plan &plan, std::uint64_t fingerprint)
{
    std::ostringstream os;
    serializePlan(os, plan, fingerprint);
    std::istringstream is(os.str());
    Plan loaded;
    PlanFileInfo info;
    ASSERT_EQ(loadPlan(is, loaded, fingerprint, &info), PlanLoadStatus::Ok);
    EXPECT_EQ(info.version, kPlanFormatVersion);
    EXPECT_EQ(info.fingerprint, fingerprint);
    EXPECT_EQ(info.digest, planDigest(plan));
    expectPlansEqual(plan, loaded);
}

/** Record one access on the corrected (infinite-memory) timeline — the
 *  lint-hook observer, replicated for the baseline-plan adapters. */
void
recordCorrected(AccessTracker &tracker, ExecContext &ctx,
                const AccessEvent &event)
{
    AccessRecord rec;
    rec.tensor = event.tensor;
    rec.accessIndex = event.accessIndex;
    Tick stall = ctx.memStallSoFar();
    rec.time = event.when > stall ? event.when - stall : 0;
    rec.isOutput = event.isOutput;
    rec.op = event.op;
    tracker.record(rec);
}

/** Measured Capuchin plan for one zoo case. The plan is built from the
 *  measured trace at the start of iteration 1, so two iterations run. */
Plan
capuchinPlan(const ZooCase &zc, std::uint64_t *fingerprint)
{
    Graph graph = buildModel(zc.kind, zc.batch);
    *fingerprint = graphFingerprint(graph);
    ExecConfig cfg;
    Session session(std::move(graph), cfg, makeCapuchinPolicy());
    auto r = session.run(2);
    EXPECT_FALSE(r.oom) << zc.name << ": " << r.oomMessage;
    auto *capu = dynamic_cast<CapuchinPolicy *>(session.policy());
    EXPECT_NE(capu, nullptr);
    return capu->plan();
}

Plan
vdnnPlan(const ZooCase &zc, std::uint64_t *fingerprint)
{
    Graph graph = buildModel(zc.kind, zc.batch);
    *fingerprint = graphFingerprint(graph);
    auto policy = std::make_unique<VdnnPolicy>();
    auto tracker = std::make_shared<AccessTracker>();
    Plan plan;
    bool audited = false;
    policy->setAudit(
        [tracker](ExecContext &ctx, const AccessEvent &event) {
            recordCorrected(*tracker, ctx, event);
        },
        [tracker, &plan, &audited](const VdnnPolicy &p, ExecContext &ctx) {
            plan = planFromOffloadTargets(
                ctx.graph(), *tracker, p.targets(),
                [&](TensorId id) { return ctx.tensorBytes(id); },
                [&](std::uint64_t bytes) { return ctx.swapTime(bytes); });
            audited = true;
        });
    ExecConfig cfg;
    Session session(std::move(graph), cfg, std::move(policy));
    auto r = session.run(1);
    EXPECT_FALSE(r.oom) << zc.name << ": " << r.oomMessage;
    EXPECT_TRUE(audited);
    return plan;
}

Plan
checkpointingPlan(const ZooCase &zc, std::uint64_t *fingerprint)
{
    Graph graph = buildModel(zc.kind, zc.batch);
    *fingerprint = graphFingerprint(graph);
    auto policy = std::make_unique<CheckpointingPolicy>(
        CheckpointingPolicy::Mode::Speed);
    auto tracker = std::make_shared<AccessTracker>();
    Plan plan;
    bool audited = false;
    policy->setAudit(
        [tracker](ExecContext &ctx, const AccessEvent &event) {
            recordCorrected(*tracker, ctx, event);
        },
        [tracker, &plan, &audited](const CheckpointingPolicy &p,
                                   ExecContext &ctx) {
            plan = planFromDropSet(
                ctx.graph(), *tracker, p.dropSet(),
                [&](TensorId id) { return ctx.tensorBytes(id); });
            audited = true;
        });
    ExecConfig cfg;
    Session session(std::move(graph), cfg, std::move(policy));
    auto r = session.run(1);
    EXPECT_FALSE(r.oom) << zc.name << ": " << r.oomMessage;
    EXPECT_TRUE(audited);
    return plan;
}

// ---- serialization round-trip: zoo x {capuchin, vdnn, checkpointing} ----

TEST(PlanIo, RoundTripCapuchinZoo)
{
    for (const ZooCase &zc : kZoo) {
        SCOPED_TRACE(zc.name);
        std::uint64_t fp = 0;
        Plan plan = capuchinPlan(zc, &fp);
        EXPECT_FALSE(plan.items.empty());
        expectRoundTrip(plan, fp);
    }
}

TEST(PlanIo, RoundTripVdnnZoo)
{
    for (const ZooCase &zc : kZoo) {
        SCOPED_TRACE(zc.name);
        std::uint64_t fp = 0;
        Plan plan = vdnnPlan(zc, &fp);
        EXPECT_FALSE(plan.items.empty());
        expectRoundTrip(plan, fp);
    }
}

TEST(PlanIo, RoundTripCheckpointingZoo)
{
    for (const ZooCase &zc : kZoo) {
        SCOPED_TRACE(zc.name);
        std::uint64_t fp = 0;
        Plan plan = checkpointingPlan(zc, &fp);
        EXPECT_FALSE(plan.items.empty());
        expectRoundTrip(plan, fp);
    }
}

TEST(PlanIo, RoundTripEmptyPlan)
{
    expectRoundTrip(Plan{}, 0x1234u);
}

TEST(PlanIo, FileRoundTrip)
{
    std::uint64_t fp = 0;
    Plan plan = capuchinPlan(kZoo[0], &fp);
    const std::string path = "serve_test_plan.capuplan";
    ASSERT_TRUE(savePlanFile(path, plan, fp));
    Plan loaded;
    EXPECT_EQ(loadPlanFile(path, loaded, fp), PlanLoadStatus::Ok);
    expectPlansEqual(plan, loaded);
    std::remove(path.c_str());
}

// ---- rejection paths -----------------------------------------------------

TEST(PlanIo, RejectsBadMagic)
{
    std::istringstream is("this is not a serialized plan at all");
    Plan out;
    EXPECT_EQ(loadPlan(is, out, 0), PlanLoadStatus::BadMagic);
    EXPECT_TRUE(out.items.empty());
}

TEST(PlanIo, RejectsVersionMismatch)
{
    std::ostringstream os;
    serializePlan(os, Plan{}, 7);
    std::string bytes = os.str();
    bytes[8] = static_cast<char>(bytes[8] + 1); // version field, LE byte 0
    std::istringstream is(bytes);
    Plan out;
    PlanFileInfo info;
    EXPECT_EQ(loadPlan(is, out, 7, &info),
              PlanLoadStatus::VersionMismatch);
    EXPECT_EQ(info.version, kPlanFormatVersion + 1);
}

TEST(PlanIo, RejectsFingerprintMismatch)
{
    std::ostringstream os;
    serializePlan(os, Plan{}, /*graph_fingerprint=*/7);
    std::istringstream is(os.str());
    Plan out;
    EXPECT_EQ(loadPlan(is, out, /*expect_fingerprint=*/8),
              PlanLoadStatus::FingerprintMismatch);
}

TEST(PlanIo, RejectsTruncatedPayload)
{
    std::uint64_t fp = 0;
    Plan plan = capuchinPlan(kZoo[0], &fp);
    std::ostringstream os;
    serializePlan(os, plan, fp);
    std::string bytes = os.str();
    std::istringstream is(bytes.substr(0, bytes.size() - 5));
    Plan out;
    EXPECT_EQ(loadPlan(is, out, fp), PlanLoadStatus::Truncated);
    EXPECT_TRUE(out.items.empty());
}

TEST(PlanIo, RejectsCorruptedPayload)
{
    std::uint64_t fp = 0;
    Plan plan = capuchinPlan(kZoo[0], &fp);
    ASSERT_FALSE(plan.items.empty());
    std::ostringstream os;
    serializePlan(os, plan, fp);
    std::string bytes = os.str();
    // Header is 28 bytes (magic, version, fingerprint, digest); flip a
    // payload byte so the recomputed digest disagrees with the stored one.
    bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x40);
    std::istringstream is(bytes);
    Plan out;
    EXPECT_EQ(loadPlan(is, out, fp), PlanLoadStatus::DigestMismatch);
    EXPECT_TRUE(out.items.empty());
}

TEST(PlanIo, RejectsHostileItemCount)
{
    // The header's 64-bit item count sizes nothing: a count the payload
    // cannot back ends in Truncated, not in a huge allocation.
    std::ostringstream os;
    serializePlan(os, Plan{}, 7);
    const std::string bytes = os.str();
    for (int shift : {60, 30}) {
        SCOPED_TRACE(shift);
        std::string hostile = bytes;
        // n_items follows the 28-byte header (magic, version, fingerprint,
        // digest), little-endian.
        const std::uint64_t n_items = std::uint64_t{1} << shift;
        for (int b = 0; b < 8; ++b)
            hostile[28 + b] = static_cast<char>(n_items >> (8 * b));
        std::istringstream is(hostile);
        Plan out;
        EXPECT_EQ(loadPlan(is, out, 7), PlanLoadStatus::Truncated);
        EXPECT_TRUE(out.items.empty());
    }
}

// ---- seeded sessions (reload -> run vs straight-line run) ---------------

TEST(SeededSession, RunsLoadedPlanWithoutMutatingIt)
{
    const ZooCase &zc = kZoo[0];
    std::uint64_t fp = 0;
    Plan plan = capuchinPlan(zc, &fp);
    std::uint64_t digest = planDigest(plan);

    // Simulated process boundary: the seeded session only ever sees the
    // deserialized bytes, never the in-memory plan of the cold run.
    std::ostringstream os;
    serializePlan(os, plan, fp);
    std::istringstream is(os.str());
    Plan loaded;
    ASSERT_EQ(loadPlan(is, loaded, fp), PlanLoadStatus::Ok);

    // Feedback (§4.4) legitimately tunes desiredSwapInStart at runtime;
    // disable it so "the plan never changes" is exact. Replanning proper
    // is frozen by seedPlan either way.
    CapuchinOptions opts;
    opts.enableFeedback = false;
    auto policy = makeCapuchinPolicy(opts);
    static_cast<CapuchinPolicy *>(policy.get())->seedPlan(loaded);
    ExecConfig cfg;
    Session session(buildModel(zc.kind, zc.batch), cfg, std::move(policy));
    auto r = session.run(2);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    ASSERT_EQ(r.iterations.size(), 2u);
    // A seeded session skips measured execution: iteration 0 is already
    // guided, so the plan's swaps/recomputes are live from the start.
    EXPECT_GT(r.iterations.front().swapOutCount +
                  r.iterations.front().recomputedTensors,
              0);
    auto *capu = dynamic_cast<CapuchinPolicy *>(session.policy());
    ASSERT_NE(capu, nullptr);
    EXPECT_EQ(planDigest(capu->plan()), digest);
}

TEST(SeededSession, DeterministicAcrossSeedings)
{
    const ZooCase &zc = kZoo[1];
    std::uint64_t fp = 0;
    Plan plan = capuchinPlan(zc, &fp);

    auto seeded_run = [&](int iters) {
        auto policy = makeCapuchinPolicy();
        static_cast<CapuchinPolicy *>(policy.get())->seedPlan(plan);
        ExecConfig cfg;
        Session session(buildModel(zc.kind, zc.batch), cfg,
                        std::move(policy));
        return session.run(iters);
    };
    auto a = seeded_run(2);
    auto b = seeded_run(2);
    ASSERT_FALSE(a.oom);
    ASSERT_FALSE(b.oom);
    ASSERT_EQ(a.iterations.size(), b.iterations.size());
    for (std::size_t i = 0; i < a.iterations.size(); ++i) {
        EXPECT_EQ(a.iterations[i].begin, b.iterations[i].begin);
        EXPECT_EQ(a.iterations[i].end, b.iterations[i].end);
        EXPECT_EQ(a.iterations[i].swapOutBytes, b.iterations[i].swapOutBytes);
        EXPECT_EQ(a.iterations[i].peakGpuBytes, b.iterations[i].peakGpuBytes);
    }
}

// ---- PlanCache -----------------------------------------------------------

ServeKey
key(std::uint64_t n)
{
    ServeKey k;
    k.model = n;
    k.batch = static_cast<std::int64_t>(n);
    k.memLimit = 1;
    k.policyCfg = 1;
    return k;
}

Plan
planOfBytes(std::uint64_t bytes)
{
    Plan p;
    PlannedEviction item;
    item.tensor = 1;
    item.bytes = bytes;
    p.items.push_back(item);
    p.plannedBytes = bytes;
    return p;
}

TEST(PlanCacheTest, LruEvictionOrder)
{
    PlanCache cache(/*max_entries=*/2, /*max_bytes=*/0);
    cache.insert(key(1), planOfBytes(10), 0);
    cache.insert(key(2), planOfBytes(10), 0);
    ASSERT_NE(cache.find(key(1)), nullptr); // 1 now most recently used
    cache.insert(key(3), planOfBytes(10), 0);

    EXPECT_EQ(cache.entries(), 2u);
    EXPECT_EQ(cache.find(key(2)), nullptr); // LRU victim, not key 1
    EXPECT_NE(cache.find(key(1)), nullptr);
    EXPECT_NE(cache.find(key(3)), nullptr);

    const PlanCacheStats &s = cache.stats();
    EXPECT_EQ(s.insertions, 3u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.hits, 3u);
    EXPECT_EQ(s.misses, 1u);
}

TEST(PlanCacheTest, ByteCapacityEviction)
{
    // Measure one entry's approximate footprint, then bound a second
    // cache so exactly two such entries fit.
    PlanCache probe(0, 0);
    probe.insert(key(1), planOfBytes(400), 0);
    std::uint64_t one_entry = probe.bytes();
    ASSERT_GT(one_entry, 0u);

    PlanCache cache(/*max_entries=*/0, /*max_bytes=*/one_entry * 2);
    cache.insert(key(1), planOfBytes(400), 0);
    cache.insert(key(2), planOfBytes(400), 0);
    EXPECT_EQ(cache.entries(), 2u);
    cache.insert(key(3), planOfBytes(400), 0);
    EXPECT_LE(cache.bytes(), one_entry * 2);
    EXPECT_EQ(cache.entries(), 2u);
    EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(PlanCacheTest, VersionBumpsOnReinsert)
{
    PlanCache cache(4, 0);
    const PlanCache::Entry *a = cache.insert(key(1), planOfBytes(10), 7);
    ASSERT_NE(a, nullptr);
    std::uint64_t v1 = a->version;
    EXPECT_EQ(a->graphFingerprint, 7u);
    const PlanCache::Entry *b = cache.insert(key(1), planOfBytes(20), 7);
    ASSERT_NE(b, nullptr);
    EXPECT_GT(b->version, v1);
    EXPECT_EQ(cache.entries(), 1u);
}

TEST(PlanCacheTest, EntryTooBigForByteCapacity)
{
    PlanCache cache(/*max_entries=*/4, /*max_bytes=*/1);
    EXPECT_EQ(cache.insert(key(1), planOfBytes(100), 0), nullptr);
    EXPECT_EQ(cache.entries(), 0u);
}

// ---- PlanService ---------------------------------------------------------

PlanServiceConfig
serviceConfig()
{
    PlanServiceConfig cfg;
    cfg.coldIterations = 2;
    return cfg;
}

TEST(PlanServiceTest, ColdThenWarmDigestIdentity)
{
    PlanService service(serviceConfig(), nullptr);
    PlanRequest req;
    req.model = "resnet50";
    req.batch = 192;
    req.warmIterations = 0;

    PlanResponse cold = service.handle(req);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_FALSE(cold.hit);
    EXPECT_GT(cold.planItems, 0u);
    EXPECT_EQ(service.templateSessions(), 1u);

    PlanResponse warm = service.handle(req);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(warm.hit);
    EXPECT_EQ(warm.digest, cold.digest);
    EXPECT_EQ(warm.version, cold.version);
    EXPECT_EQ(warm.graphFingerprint, cold.graphFingerprint);
    EXPECT_EQ(service.cacheStats().hits, 1u);
    EXPECT_EQ(service.cacheStats().misses, 1u);
}

TEST(PlanServiceTest, WarmForkRunsGuidedIterations)
{
    PlanService service(serviceConfig(), nullptr);
    PlanRequest req;
    req.model = "vgg16";
    req.batch = 96;
    req.warmIterations = 1;
    PlanResponse cold = service.handle(req);
    ASSERT_TRUE(cold.ok) << cold.error;
    PlanResponse warm = service.handle(req);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(warm.hit);
    EXPECT_GT(warm.imagesPerSec, 0.0);
    EXPECT_EQ(warm.digest, cold.digest);
}

TEST(PlanServiceTest, EvictionDropsTemplateSession)
{
    PlanServiceConfig cfg = serviceConfig();
    cfg.cacheEntries = 1;
    PlanService service(cfg, nullptr);
    PlanRequest a;
    a.model = "resnet50";
    a.batch = 192;
    a.warmIterations = 0;
    PlanRequest b = a;
    b.batch = 200;

    PlanResponse first = service.handle(a);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_EQ(service.templateSessions(), 1u);
    ASSERT_TRUE(service.handle(b).ok);
    EXPECT_EQ(service.cacheEntries(), 1u);
    EXPECT_EQ(service.templateSessions(), 1u); // a's template dropped

    PlanResponse again = service.handle(a); // re-measures: a was evicted
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_FALSE(again.hit);
    EXPECT_FALSE(again.fromDisk);
    // Churn determinism: the re-measured plan is the first one, bit for bit.
    EXPECT_EQ(again.digest, first.digest);
    EXPECT_EQ(service.cacheStats().evictions, 2u);
    EXPECT_EQ(service.templateSessions(), 1u);
}

TEST(PlanServiceTest, DiskWarmStartAcrossServices)
{
    PlanServiceConfig cfg = serviceConfig();
    cfg.planDir = "."; // build tree cwd; files removed below
    PlanRequest req;
    req.model = "vgg16";
    req.batch = 96;
    req.warmIterations = 0;

    std::uint64_t cold_digest = 0;
    std::string plan_file;
    {
        PlanService first(cfg, nullptr);
        PlanResponse cold = first.handle(req);
        ASSERT_TRUE(cold.ok) << cold.error;
        EXPECT_FALSE(cold.fromDisk);
        cold_digest = cold.digest;
    }
    {
        // A fresh service (empty cache) must answer from the plan file:
        // a miss, but served by loadPlan + seedPlan, not re-measured.
        PlanService second(cfg, nullptr);
        PlanResponse resp = second.handle(req);
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_FALSE(resp.hit);
        EXPECT_TRUE(resp.fromDisk);
        EXPECT_EQ(resp.digest, cold_digest);
        EXPECT_EQ(second.templateSessions(), 1u);
        // And the next request is a plain warm hit.
        PlanResponse warm = second.handle(req);
        ASSERT_TRUE(warm.ok);
        EXPECT_TRUE(warm.hit);
        EXPECT_EQ(warm.digest, cold_digest);
    }
    // Clean the plan file out of the build tree.
    ServeKey k = PlanService(cfg, nullptr).keyFor(req);
    std::ostringstream path;
    path << "./plan-" << std::hex << k.model << '-' << std::dec << k.batch
         << '-' << std::hex << k.memLimit << '-' << k.policyCfg
         << ".capuplan";
    std::remove(path.str().c_str());
}

/** Answers `req` from `n` threads that all start at once. */
std::vector<PlanResponse>
handleConcurrently(PlanService &service, const PlanRequest &req, int n)
{
    std::vector<PlanResponse> resps(static_cast<std::size_t>(n));
    std::latch start(n);
    std::vector<std::thread> threads;
    for (int i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
            start.arrive_and_wait();
            resps[static_cast<std::size_t>(i)] = service.handle(req);
        });
    }
    for (std::thread &t : threads)
        t.join();
    return resps;
}

TEST(PlanServiceTest, ConcurrentMissesMeasureOnce)
{
    PlanService service(serviceConfig(), nullptr);
    PlanRequest req;
    req.model = "resnet50";
    req.batch = 192;
    req.warmIterations = 0;

    std::vector<PlanResponse> resps = handleConcurrently(service, req, 4);
    for (const PlanResponse &r : resps) {
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.digest, resps[0].digest);
    }
    // One request measured; the other three waited for it and forked.
    EXPECT_EQ(service.cacheStats().misses, 1u);
    EXPECT_EQ(service.cacheStats().hits, 3u);
    EXPECT_EQ(service.templateSessions(), 1u);
}

TEST(PlanServiceTest, ConcurrentMissesShareLeaderError)
{
    // A 2 GiB device is too small for resnet50@192: the cold measured run
    // OOMs some milliseconds in, so the other requests arrive while it
    // runs.
    PlanServiceConfig cfg = serviceConfig();
    cfg.exec.device.memCapacity = 2ull << 30;
    PlanService service(cfg, nullptr);
    PlanRequest req;
    req.model = "resnet50";
    req.batch = 192;
    req.warmIterations = 0;

    for (const PlanResponse &r : handleConcurrently(service, req, 4)) {
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("cold planning run OOMed"), std::string::npos)
            << r.error;
    }
    EXPECT_EQ(service.cacheEntries(), 0u);
}

TEST(PlanServiceTest, UnknownModelIsAnErrorResponse)
{
    PlanService service(serviceConfig(), nullptr);
    PlanRequest req;
    req.model = "alexnet";
    req.batch = 32;
    PlanResponse resp = service.handle(req);
    EXPECT_FALSE(resp.ok);
    EXPECT_FALSE(resp.error.empty());
}

} // namespace
