/**
 * @file
 * capuprof tests: bucket-attribution conservation across the zoo x policy
 * grid, diff-of-identical-runs emptiness, replayed-vs-executed profile
 * bit-identity, critical-path sanity, per-tensor accounting invariants,
 * profile JSON round-trip, and Chrome-trace import round-trip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/capuchin_policy.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "obs/chrome_trace.hh"
#include "policy/checkpointing_policy.hh"
#include "policy/vdnn_policy.hh"
#include "prof/diff.hh"
#include "prof/profile.hh"
#include "prof/report.hh"
#include "prof/trace_io.hh"
#include "prof/trace_view.hh"

using namespace capu;

namespace
{

struct ZooCase
{
    const char *name;
    ModelKind kind;
    std::int64_t batch;
};

const ZooCase kZoo[] = {
    {"vgg16", ModelKind::Vgg16, 230},
    {"resnet50", ModelKind::ResNet50, 200},
    {"bert", ModelKind::BertBase, 64},
};

std::unique_ptr<MemoryPolicy>
makePolicy(const std::string &name)
{
    if (name == "capuchin")
        return makeCapuchinPolicy();
    if (name == "vdnn")
        return std::make_unique<VdnnPolicy>();
    return std::make_unique<CheckpointingPolicy>(
        CheckpointingPolicy::Mode::Memory);
}

ExecConfig
tracedConfig()
{
    ExecConfig cfg;
    cfg.obsLevel = obs::ObsLevel::Full;
    return cfg;
}

prof::Profile
runAndProfile(ModelKind kind, std::int64_t batch, const std::string &policy,
              int iters, ExecConfig cfg = tracedConfig())
{
    Session s(buildModel(kind, batch), cfg, makePolicy(policy));
    SessionResult r = s.run(iters);
    EXPECT_FALSE(r.oom) << r.oomMessage;
    return prof::buildProfile(s.executor().obs().tracer);
}

std::string
tempPath(const char *stem)
{
    return testing::TempDir() + stem;
}

} // namespace

// --- conservation: the acceptance gate ---------------------------------

TEST(ProfConservation, ZooPolicySweepBucketsSumToWall)
{
    for (const auto &zc : kZoo) {
        for (const char *policy : {"capuchin", "vdnn", "checkpointing"}) {
            SCOPED_TRACE(std::string(zc.name) + "/" + policy);
            prof::Profile p = runAndProfile(zc.kind, zc.batch, policy, 4);
            ASSERT_GT(p.events, 0u);
            ASSERT_GT(p.wallTicks, 0u);
            // Exact by construction; the CI gate's "within 1%" is slack.
            EXPECT_EQ(p.conservationError(), 0u)
                << "buckets " << p.buckets.total() << " wall " << p.wallTicks;
            EXPECT_EQ(p.iterations.size(), 4u);
            for (const auto &it : p.iterations) {
                EXPECT_EQ(it.buckets.total(), it.end - it.begin)
                    << "iteration " << it.iteration;
                EXPECT_NE(it.digest, 0u);
            }
            EXPECT_GT(p.buckets.compute, 0u);
            EXPECT_GT(p.peakBytes, 0u);
        }
    }
}

// --- per-tensor accounting ---------------------------------------------

TEST(ProfAccounting, CapuchinChargesOverheadToMovedTensors)
{
    prof::Profile p =
        runAndProfile(ModelKind::Vgg16, 230, "capuchin", 4);
    ASSERT_FALSE(p.tensors.empty());

    std::uint64_t out_bytes = 0, in_bytes = 0;
    Tick stall = 0, recompute = 0;
    bool relief = false;
    for (const auto &t : p.tensors) {
        EXPECT_GE(t.tensor, 0);
        EXPECT_FALSE(t.name.empty());
        EXPECT_EQ(t.overheadTicks, t.stallTicks + t.recomputeTicks);
        out_bytes += t.swapOutBytes;
        in_bytes += t.swapInBytes;
        stall += t.stallTicks;
        recompute += t.recomputeTicks;
        relief = relief || t.reliefByteTicks > 0;
    }
    // vgg16@230 under capuchin must actually move memory.
    EXPECT_GT(out_bytes, 0u);
    EXPECT_GT(in_bytes, 0u);
    EXPECT_TRUE(relief);
    // Tensor-charged time is bounded by the bucketed totals.
    EXPECT_LE(recompute, p.buckets.recompute);
    (void)stall;

    // Ranking is by overhead, heaviest first.
    auto ranked = prof::rankTensors(p);
    ASSERT_EQ(ranked.size(), p.tensors.size());
    for (std::size_t i = 1; i < ranked.size(); ++i)
        EXPECT_GE(ranked[i - 1]->overheadTicks, ranked[i]->overheadTicks);
}

TEST(ProfAccounting, PrefetchTimelinessCountsTransfers)
{
    prof::Profile p =
        runAndProfile(ModelKind::Vgg16, 230, "capuchin", 4);
    int swap_ins = 0, timeliness = 0;
    for (const auto &t : p.tensors) {
        swap_ins += t.swapInCount;
        timeliness += t.prefetch.total();
    }
    // Every H2D transfer lands in exactly one timeliness class.
    EXPECT_EQ(timeliness, swap_ins);
    EXPECT_GT(swap_ins, 0);
}

// --- critical path ------------------------------------------------------

TEST(ProfCriticalPath, SaneOnCapuchinRun)
{
    prof::Profile p =
        runAndProfile(ModelKind::Vgg16, 230, "capuchin", 3);
    ASSERT_TRUE(p.critical.valid);
    EXPECT_GT(p.critical.makespan, 0u);
    EXPECT_GT(p.critical.events, 0u);
    EXPECT_GT(p.critical.edges, 0u);
    EXPECT_GE(p.critical.zeroSlack, 1u);
    ASSERT_FALSE(p.critical.steps.empty());
    EXPECT_GE(p.critical.pathLength, p.critical.steps.size());
    // Steps are chronological and inside the session window.
    for (std::size_t i = 1; i < p.critical.steps.size(); ++i)
        EXPECT_GE(p.critical.steps[i].start,
                  p.critical.steps[i - 1].start);
    // The observed critical path can never exceed the traced makespan.
    EXPECT_LE(p.critical.onPathTransfer + p.critical.onPathRecompute,
              p.critical.makespan);
}

// --- differential profiling ---------------------------------------------

TEST(ProfDiff, IdenticalRunsDiffEmpty)
{
    for (const char *policy : {"capuchin", "vdnn", "checkpointing"}) {
        SCOPED_TRACE(policy);
        prof::Profile a =
            runAndProfile(ModelKind::ResNet50, 200, policy, 4);
        prof::Profile b =
            runAndProfile(ModelKind::ResNet50, 200, policy, 4);
        prof::ProfileDiff d = prof::diffProfiles(a, b);
        EXPECT_TRUE(d.identical);
        EXPECT_EQ(d.wallDelta, 0);
        EXPECT_TRUE(d.buckets.zero());
        EXPECT_EQ(d.firstDivergingIteration, -1);
        EXPECT_EQ(d.firstDivergingOp, -1);
        EXPECT_EQ(d.firstDivergingTensor, -1);
        EXPECT_TRUE(d.tensors.empty());
        EXPECT_TRUE(d.ops.empty());
    }
}

TEST(ProfDiff, DifferentPoliciesLocalize)
{
    prof::Profile a =
        runAndProfile(ModelKind::Vgg16, 230, "capuchin", 3);
    prof::Profile b = runAndProfile(ModelKind::Vgg16, 230, "vdnn", 3);
    prof::ProfileDiff d = prof::diffProfiles(a, b);
    EXPECT_FALSE(d.identical);
    // Digest alignment must localize the divergence to the very first
    // iteration: the policies schedule different transfers from the start.
    EXPECT_EQ(d.firstDivergingIteration, 0);
    EXPECT_GE(d.firstDivergingTensor, 0);

    // Rendering must not crash in any format.
    for (auto fmt : {prof::ReportFormat::Text, prof::ReportFormat::Markdown,
                     prof::ReportFormat::Json}) {
        std::ostringstream os;
        prof::renderDiff(os, a, b, d, fmt);
        EXPECT_FALSE(os.str().empty());
    }
}

TEST(ProfDiff, ExtraIterationsDivergeAtCommonLength)
{
    prof::Profile a =
        runAndProfile(ModelKind::ResNet50, 200, "capuchin", 3);
    prof::Profile b =
        runAndProfile(ModelKind::ResNet50, 200, "capuchin", 5);
    prof::ProfileDiff d = prof::diffProfiles(a, b);
    EXPECT_FALSE(d.identical);
    EXPECT_EQ(d.firstDivergingIteration, 3);
}

// --- replayed vs executed (satellite: event_adapter on synthesized
// timelines) ------------------------------------------------------------

TEST(ProfReplay, Replayed100IterProfileBitIdenticalToExecuted)
{
    constexpr int kIters = 100;
    ExecConfig on = tracedConfig();
    on.replay.enabled = true;
    ExecConfig off = tracedConfig();
    off.replay.enabled = false;

    Session son(buildModel(ModelKind::Vgg16, 230), on,
                makeCapuchinPolicy());
    Session soff(buildModel(ModelKind::Vgg16, 230), off,
                 makeCapuchinPolicy());
    SessionResult ron = son.run(kIters);
    SessionResult roff = soff.run(kIters);
    ASSERT_FALSE(ron.oom) << ron.oomMessage;
    ASSERT_FALSE(roff.oom) << roff.oomMessage;
    ASSERT_GT(ron.replay.replayed, 0);

    prof::Profile pon = prof::buildProfile(son.executor().obs().tracer);
    prof::Profile poff = prof::buildProfile(soff.executor().obs().tracer);
    ASSERT_EQ(pon.iterations.size(), static_cast<std::size_t>(kIters));

    // The replay track is excluded from attribution, so a mostly
    // synthesized session must profile bit-identically to the fully
    // executed one: same digests, buckets, tensor accounts, everything.
    prof::ProfileDiff d = prof::diffProfiles(pon, poff);
    EXPECT_TRUE(d.identical)
        << "first diverging iteration " << d.firstDivergingIteration
        << ", op " << d.firstDivergingOpName << ", tensor "
        << d.firstDivergingTensorName;
    EXPECT_EQ(pon.buckets.compute, poff.buckets.compute);
    EXPECT_EQ(pon.buckets.swapStall, poff.buckets.swapStall);
    for (std::size_t i = 0; i < pon.iterations.size(); ++i)
        EXPECT_EQ(pon.iterations[i].digest, poff.iterations[i].digest)
            << "iteration " << i;
}

// --- persistence round-trips --------------------------------------------

TEST(ProfRoundTrip, ProfileJson)
{
    prof::Profile p =
        runAndProfile(ModelKind::Vgg16, 230, "capuchin", 3);
    std::string path = tempPath("prof_roundtrip.json");
    ASSERT_TRUE(prof::writeProfileJsonFile(path, p));

    prof::Profile loaded;
    std::string err;
    ASSERT_TRUE(prof::loadProfileJson(path, loaded, &err)) << err;
    std::remove(path.c_str());

    prof::ProfileDiff d = prof::diffProfiles(p, loaded);
    EXPECT_TRUE(d.identical);
    EXPECT_EQ(loaded.wallTicks, p.wallTicks);
    EXPECT_EQ(loaded.peakBytes, p.peakBytes);
    EXPECT_EQ(loaded.critical.makespan, p.critical.makespan);
    EXPECT_EQ(loaded.tensors.size(), p.tensors.size());
    EXPECT_EQ(loaded.meta, p.meta);
}

TEST(ProfRoundTrip, ChromeTraceImportMatchesLiveRing)
{
    Session s(buildModel(ModelKind::Vgg16, 230), tracedConfig(),
              makeCapuchinPolicy());
    SessionResult r = s.run(3);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    const obs::Tracer &tracer = s.executor().obs().tracer;

    std::string path = tempPath("prof_trace.json");
    ASSERT_TRUE(obs::writeChromeTraceFile(path, tracer));

    prof::TraceBundle bundle;
    std::string err;
    ASSERT_TRUE(prof::importChromeTrace(path, bundle, &err)) << err;
    std::remove(path.c_str());
    EXPECT_EQ(bundle.events.size(), tracer.chronological().size());
    EXPECT_EQ(bundle.meta, tracer.meta());

    // The export is lossless, so the profile built from the file must be
    // bit-identical to the one built from the live ring.
    prof::Profile from_file = prof::buildProfile(prof::TraceView(bundle));
    prof::Profile live = prof::buildProfile(tracer);
    prof::ProfileDiff d = prof::diffProfiles(live, from_file);
    EXPECT_TRUE(d.identical)
        << "first diverging iteration " << d.firstDivergingIteration;
    EXPECT_EQ(from_file.peakBytes, live.peakBytes);
    EXPECT_EQ(from_file.critical.makespan, live.critical.makespan);
}

// --- imported traces with unusual content -------------------------------

namespace
{

/** Import a Chrome trace given as text, through a temp file. */
prof::TraceBundle
importText(const char *stem, const std::string &text)
{
    std::string path = tempPath(stem);
    {
        std::ofstream os(path);
        os << text;
    }
    prof::TraceBundle bundle;
    std::string err;
    EXPECT_TRUE(prof::importChromeTrace(path, bundle, &err)) << err;
    std::remove(path.c_str());
    return bundle;
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

TEST(ProfImport, HostileIdsProfileAsBefore)
{
    // Lifetime spans on a negative tensor id and on 2^62, a swap-in of
    // the 2^62 tensor and a kernel whose op id is 2^62: no account may be
    // dropped or sized by its id.
    const std::string big = "4611686018427387904";
    prof::TraceBundle bundle = importText(
        "prof_hostile_ids.json",
        R"({"traceEvents":[
{"name":"iteration:0","cat":"marker","pid":0,"tid":0,"ts":0.000,"ph":"X","dur":100.000,"args":{}},
{"name":"neg:IN","cat":"tensor","pid":0,"tid":0,"ts":1.000,"ph":"b","id":-7,"args":{"bytes":64}},
{"name":"big:OUT","cat":"tensor","pid":0,"tid":0,"ts":2.000,"ph":"b","id":)" +
            big + R"(,"args":{"bytes":128}},
{"name":"conv","cat":"kernel","pid":0,"tid":1,"ts":3.000,"ph":"X","dur":5.000,"args":{"op":)" +
            big + R"(}},
{"name":"big:OUT","cat":"tensor","pid":0,"tid":0,"ts":10.000,"ph":"e","id":)" +
            big + R"(,"args":{}},
{"name":"swapin:big","cat":"transfer","pid":0,"tid":3,"ts":10.000,"ph":"X","dur":4.000,"args":{"tensor":)" +
            big + R"(,"bytes":128}},
{"name":"neg:IN","cat":"tensor","pid":0,"tid":0,"ts":20.000,"ph":"e","id":-7,"args":{}}
],"displayTimeUnit":"ns","otherData":{"recorded":7,"dropped":0}})");
    ASSERT_EQ(bundle.events.size(), 7u);
    prof::Profile p = prof::buildProfile(prof::TraceView(bundle));
    ASSERT_EQ(p.tensors.size(), 2u);
    EXPECT_EQ(p.tensors[0].tensor, -7);
    EXPECT_EQ(p.tensors[1].tensor, std::int64_t{1} << 62);
    ASSERT_EQ(p.ops.size(), 1u);
    EXPECT_EQ(p.ops[0].op, std::int64_t{1} << 62);

    // The rendered bytes, pinned as the profile builder wrote them before
    // its accounts moved from id-keyed maps to dense slots.
    std::ostringstream os;
    prof::renderProfile(os, p, prof::ReportFormat::Json);
    EXPECT_EQ(os.str().size(), 1802u);
    EXPECT_EQ(fnv1a(os.str()), 0x7d502880558eb5d7ull);
}

TEST(ProfImport, ShortTransferLabelFallsBackToTensorName)
{
    // An H2D transfer whose label has neither the prefetch: nor the
    // swapin: prefix leaves the account to the tensor<id> default.
    prof::TraceBundle bundle = importText(
        "prof_short_label.json",
        R"({"traceEvents":[
{"name":"iteration:0","cat":"marker","pid":0,"tid":0,"ts":0,"ph":"X","dur":10,"args":{}},
{"name":"x","cat":"transfer","pid":0,"tid":3,"ts":1,"ph":"X","dur":1,"args":{"tensor":5}}
]})");
    prof::Profile p;
    EXPECT_NO_THROW(p = prof::buildProfile(prof::TraceView(bundle)));
    ASSERT_EQ(p.tensors.size(), 1u);
    EXPECT_EQ(p.tensors[0].name, "tensor5");
    EXPECT_EQ(p.tensors[0].swapInCount, 1);
}

// --- rendering ----------------------------------------------------------

TEST(ProfReport, AllFormatsRenderNonEmpty)
{
    prof::Profile p =
        runAndProfile(ModelKind::Vgg16, 230, "capuchin", 3);
    for (auto fmt : {prof::ReportFormat::Text, prof::ReportFormat::Markdown,
                     prof::ReportFormat::Json}) {
        std::ostringstream os;
        prof::renderProfile(os, p, fmt);
        EXPECT_FALSE(os.str().empty());
    }
    std::ostringstream os;
    prof::renderProfile(os, p, prof::ReportFormat::Text);
    EXPECT_NE(os.str().find("compute"), std::string::npos);
    EXPECT_NE(os.str().find("critical path"), std::string::npos);
}
