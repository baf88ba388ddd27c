/**
 * @file
 * Tests for capuverify: the happens-before engine (ordering-edge
 * enumeration, vector clocks, race scan, directional obligations) and
 * the zoo-wide guarantee that every clean plan the policies produce
 * verifies race-free — statically from the plan and dynamically from a
 * capuscope trace. The plan rules PlanChecker::check runs before its
 * static happens-before scan are tested in plan_checker_test.cc.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/happens_before.hh"
#include "analysis/lint_hooks.hh"
#include "core/capuchin_policy.hh"
#include "exec/ordering.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "obs/event_adapter.hh"
#include "obs/obs.hh"
#include "policy/checkpointing_policy.hh"
#include "policy/vdnn_policy.hh"
#include "support/units.hh"

using namespace capu;

namespace
{

hb::HbEvent
ev(std::uint32_t id, hb::HbStream stream, hb::HbOp op, TensorId tensor,
   int buffer, bool write, std::int32_t cause = -1, int accessIndex = 0)
{
    hb::HbEvent e;
    e.id = id;
    e.stream = stream;
    e.op = op;
    e.tensor = tensor;
    e.buffer = buffer;
    e.write = write;
    e.cause = cause;
    e.accessIndex = accessIndex;
    return e;
}

bool
hasEdge(const std::vector<hb::HbEdge> &edges, std::uint32_t from,
        std::uint32_t to, const std::string &rule)
{
    for (const auto &e : edges) {
        if (e.from == from && e.to == to && rule == e.rule)
            return true;
    }
    return false;
}

bool
hasRule(const LintReport &report, const std::string &rule)
{
    for (const auto &d : report.diags) {
        if (d.rule == rule)
            return true;
    }
    return false;
}

/**
 * The canonical swap round trip in issue order: evict access, D2H copy,
 * deferred free, the trigger access, then the prefetch triple and the
 * back access. This is exactly what buildPlanEventGraph emits for one
 * swap item — clean under the full rule set by construction.
 */
std::vector<hb::HbEvent>
roundTrip()
{
    using hb::HbOp;
    using hb::HbStream;
    std::vector<hb::HbEvent> evs;
    evs.push_back(ev(0, HbStream::Compute, HbOp::KernelAccess, 7, 1, false,
                     -1, 3));                                     // evict
    evs.push_back(ev(1, HbStream::D2H, HbOp::SwapOutStart, 7, 1, false, -1,
                     1));
    evs.push_back(ev(2, HbStream::D2H, HbOp::SwapOutEnd, 7, 1, false, -1,
                     1));
    evs.push_back(ev(3, HbStream::Deferred, HbOp::BufferFree, 7, 1, false,
                     -1, 1));
    evs.push_back(ev(4, HbStream::Compute, HbOp::KernelAccess, 9, 1, false,
                     -1, 5));                                     // trigger
    evs.push_back(ev(5, HbStream::Deferred, HbOp::BufferAlloc, 7, 2, false,
                     4, 1));
    evs.push_back(ev(6, HbStream::H2D, HbOp::SwapInStart, 7, 2, true, 4, 1));
    evs.push_back(ev(7, HbStream::H2D, HbOp::SwapInEnd, 7, 2, true, -1, 1));
    evs.push_back(ev(8, HbStream::Compute, HbOp::KernelAccess, 7, 2, false,
                     -1, 4));                                     // back
    return evs;
}

LintReport
scan(std::vector<hb::HbEvent> events, const hb::OrderingRules &rules = {})
{
    HbAnalysis a;
    a.events = std::move(events);
    a.edges = hb::enumerateOrderingEdges(a.events, rules);
    return checkHappensBefore(a);
}

} // namespace

// --- ordering-edge enumeration ---

TEST(OrderingEdges, StreamFifoChainsSkipDeferred)
{
    using hb::HbOp;
    using hb::HbStream;
    std::vector<hb::HbEvent> evs;
    evs.push_back(ev(0, HbStream::Compute, HbOp::KernelAccess, 1, 1, true));
    evs.push_back(
        ev(1, HbStream::Deferred, HbOp::BufferFree, 2, 1, false, 0));
    evs.push_back(ev(2, HbStream::Compute, HbOp::KernelAccess, 1, 1, false));
    auto edges = hb::enumerateOrderingEdges(evs);
    // Compute FIFO links 0 -> 2 directly; the deferred free is ordered by
    // its cause only, never by a stream chain.
    EXPECT_TRUE(hasEdge(edges, 0, 2, "stream-fifo"));
    EXPECT_TRUE(hasEdge(edges, 0, 1, "issue-after-cause"));
    for (const auto &e : edges)
        EXPECT_FALSE(e.to == 1 && std::string(e.rule) == "stream-fifo");
}

TEST(OrderingEdges, SwapRoundTripEmitsEveryGuarantee)
{
    auto edges = hb::enumerateOrderingEdges(roundTrip());
    EXPECT_TRUE(hasEdge(edges, 0, 1, "retire-before-copy"));
    EXPECT_TRUE(hasEdge(edges, 2, 3, "complete-before-free"));
    EXPECT_TRUE(hasEdge(edges, 2, 6, "out-before-in"));
    EXPECT_TRUE(hasEdge(edges, 5, 6, "alloc-before-copy-in"));
    EXPECT_TRUE(hasEdge(edges, 4, 6, "issue-after-cause"));
    EXPECT_TRUE(hasEdge(edges, 7, 8, "complete-before-use"));
}

TEST(OrderingEdges, KnockedOutRuleEmitsNoEdge)
{
    hb::OrderingRules rules;
    rules.outBeforeIn = false;
    auto edges = hb::enumerateOrderingEdges(roundTrip(), rules);
    EXPECT_FALSE(hasEdge(edges, 2, 6, "out-before-in"));
    EXPECT_TRUE(hasEdge(edges, 2, 3, "complete-before-free"));
}

// --- vector clocks ---

TEST(VectorClocks, TransitiveCrossStreamOrder)
{
    HbAnalysis a;
    a.events = roundTrip();
    a.edges = hb::enumerateOrderingEdges(a.events);
    HbClocks clocks = assignVectorClocks(a);
    ASSERT_TRUE(clocks.acyclic);
    // Evict access -> D2H copy -> prefetch -> back access, across three
    // streams and two matching edges.
    EXPECT_TRUE(clocks.ordered(0, 8));
    EXPECT_FALSE(clocks.ordered(8, 0));
    // The deferred free is ordered after the copy but concurrent with the
    // back access: nothing sequences host frees against later kernels.
    EXPECT_TRUE(clocks.ordered(2, 3));
    EXPECT_FALSE(clocks.ordered(3, 8));
    EXPECT_FALSE(clocks.ordered(8, 3));
    // An event never happens-before itself (irreflexive).
    EXPECT_FALSE(clocks.ordered(4, 4));
}

TEST(VectorClocks, CycleDetectedAndReported)
{
    using hb::HbOp;
    using hb::HbStream;
    std::vector<hb::HbEvent> evs;
    evs.push_back(
        ev(0, HbStream::Deferred, HbOp::BufferFree, 1, 1, false, 1));
    evs.push_back(
        ev(1, HbStream::Deferred, HbOp::BufferAlloc, 1, 1, false, 0));
    HbAnalysis a;
    a.events = evs;
    a.edges = hb::enumerateOrderingEdges(a.events);
    EXPECT_FALSE(assignVectorClocks(a).acyclic);
    EXPECT_TRUE(hasRule(checkHappensBefore(a), "hb-cycle"));
}

// --- race scan + obligations ---

TEST(RaceScan, CleanRoundTripIsRaceFree)
{
    LintReport report = scan(roundTrip());
    EXPECT_EQ(report.errorCount(), 0u) << report.summary();
}

TEST(RaceScan, PrefetchSequencedAfterBackAccess)
{
    // The executor bug trigger-after-back: same events, but the prefetch
    // triple is issued after the access it should precede. Every pair is
    // FIFO-"ordered" somewhere, yet the fill direction is wrong.
    using hb::HbOp;
    using hb::HbStream;
    std::vector<hb::HbEvent> evs;
    evs.push_back(ev(0, HbStream::Compute, HbOp::KernelAccess, 7, 1, false,
                     -1, 3));
    evs.push_back(ev(1, HbStream::D2H, HbOp::SwapOutStart, 7, 1, false, -1,
                     1));
    evs.push_back(ev(2, HbStream::D2H, HbOp::SwapOutEnd, 7, 1, false, -1,
                     1));
    evs.push_back(ev(3, HbStream::Compute, HbOp::KernelAccess, 7, 2, false,
                     -1, 4)); // back access, nothing filled buffer 2 yet
    evs.push_back(ev(4, HbStream::Deferred, HbOp::BufferAlloc, 7, 2, false,
                     -1, 1));
    evs.push_back(ev(5, HbStream::H2D, HbOp::SwapInStart, 7, 2, true, -1,
                     1));
    evs.push_back(ev(6, HbStream::H2D, HbOp::SwapInEnd, 7, 2, true, -1, 1));
    LintReport report = scan(std::move(evs));
    EXPECT_TRUE(hasRule(report, "hb-unsequenced-prefetch"))
        << report.summary();
}

TEST(RaceScan, EarlyFreeRacesSwapOut)
{
    hb::OrderingRules rules;
    rules.completeBeforeFree = false;
    LintReport report = scan(roundTrip(), rules);
    EXPECT_TRUE(hasRule(report, "hb-free-racing-swapout"))
        << report.summary();
}

TEST(Obligations, CopyBeforeRetire)
{
    hb::OrderingRules rules;
    rules.retireBeforeCopy = false;
    LintReport report = scan(roundTrip(), rules);
    EXPECT_TRUE(hasRule(report, "hb-copy-before-retire")) << report.summary();
}

TEST(Obligations, SwapInBeforeSwapOut)
{
    hb::OrderingRules rules;
    rules.outBeforeIn = false;
    LintReport report = scan(roundTrip(), rules);
    EXPECT_TRUE(hasRule(report, "hb-swapin-before-swapout"))
        << report.summary();
}

TEST(Obligations, DroppedSyncEdgeUnsequencesPrefetch)
{
    hb::OrderingRules rules;
    rules.completeBeforeUse = false;
    LintReport report = scan(roundTrip(), rules);
    EXPECT_TRUE(hasRule(report, "hb-unsequenced-prefetch"))
        << report.summary();
}

TEST(Obligations, FreeOrderedBeforeUseIsUseAfterFree)
{
    using hb::HbOp;
    using hb::HbStream;
    std::vector<hb::HbEvent> evs;
    evs.push_back(ev(0, HbStream::Compute, HbOp::KernelAccess, 3, 1, true,
                     -1, 1));
    evs.push_back(
        ev(1, HbStream::Deferred, HbOp::BufferFree, 3, 1, false, 0));
    // A kernel access issued *after* the free of the buffer it reads.
    evs.push_back(ev(2, HbStream::Compute, HbOp::KernelAccess, 3, 1, false,
                     1, 2));
    LintReport report = scan(std::move(evs));
    EXPECT_TRUE(hasRule(report, "hb-use-after-free")) << report.summary();
}

// --- timestamp cross-check (dynamic mode) ---

namespace
{

obs::TimelineRecord
rec(obs::TimelineKind kind, std::int64_t tensor, Tick start, Tick end,
    int accessIndex = 0, bool write = false)
{
    obs::TimelineRecord r;
    r.kind = kind;
    r.tensor = tensor;
    r.start = start;
    r.end = end;
    r.accessIndex = accessIndex;
    r.write = write;
    return r;
}

} // namespace

TEST(Timestamps, RecomputeOverlappingPredecessorIsFlagged)
{
    using K = obs::TimelineKind;
    std::vector<obs::TimelineRecord> recs;
    recs.push_back(rec(K::Access, 5, 100, 100, 1, true));
    recs.push_back(rec(K::Access, 5, 200, 200, 2));
    // The replay interval starts before its compute-stream predecessor's
    // tick — the measured serialization contradicts stream FIFO.
    recs.push_back(rec(K::Recompute, 5, 150, 400));
    recs.push_back(rec(K::Access, 5, 500, 500, 3));
    HbAnalysis a = buildTraceEventGraph(recs);
    EXPECT_TRUE(hasRule(checkTimestamps(a), "hb-timestamp-violation"));

    // Consistent times: the same timeline with the replay after the read.
    recs[2].start = 300;
    HbAnalysis clean = buildTraceEventGraph(recs);
    EXPECT_EQ(checkTimestamps(clean).errorCount(), 0u);
    EXPECT_EQ(checkHappensBefore(clean).errorCount(), 0u);
}

// --- zoo sweep: clean plans verify race-free ---

namespace
{

enum class Pol
{
    Capuchin,
    Vdnn,
    Checkpointing,
};

const char *
polName(Pol p)
{
    switch (p) {
      case Pol::Capuchin:
        return "capuchin";
      case Pol::Vdnn:
        return "vdnn";
      case Pol::Checkpointing:
        return "checkpointing";
    }
    return "?";
}

std::int64_t
sweepBatch(ModelKind kind)
{
    switch (kind) {
      case ModelKind::Vgg16: return 260;
      case ModelKind::ResNet50: return 240;
      case ModelKind::ResNet152: return 110;
      case ModelKind::InceptionV3: return 210;
      case ModelKind::InceptionV4: return 120;
      case ModelKind::DenseNet121: return 200;
      case ModelKind::BertBase: return 110;
    }
    return 0;
}

std::unique_ptr<MemoryPolicy>
makeLintedPolicy(Pol p)
{
    // panicOnError stays at its default (true): an error from any static
    // rule, hb-* included, fails the sweep by throwing out of run().
    switch (p) {
      case Pol::Capuchin: {
        CapuchinOptions o;
        enablePlanLint(o);
        return makeCapuchinPolicy(o);
      }
      case Pol::Vdnn: {
        auto v = std::make_unique<VdnnPolicy>(VdnnPolicy::Mode::All);
        enablePlanLint(*v);
        return v;
      }
      case Pol::Checkpointing: {
        auto c = std::make_unique<CheckpointingPolicy>(
            CheckpointingPolicy::Mode::Memory);
        enablePlanLint(*c);
        return c;
      }
    }
    return nullptr;
}

} // namespace

class CapuverifyZooTest
    : public ::testing::TestWithParam<std::tuple<ModelKind, Pol>>
{
};

TEST_P(CapuverifyZooTest, CleanPlansVerifyRaceFree)
{
    auto [kind, pol] = GetParam();
    if (kind == ModelKind::BertBase && pol == Pol::Vdnn)
        GTEST_SKIP() << "vDNN is CNN-only";
    Session s(buildModel(kind, sweepBatch(kind)), ExecConfig{},
              makeLintedPolicy(pol));
    auto r = s.run(2); // PlanChecker::check (plan rules + hb) runs inside
    EXPECT_FALSE(r.oom) << r.oomMessage;
}

INSTANTIATE_TEST_SUITE_P(
    ZooPlans, CapuverifyZooTest,
    ::testing::Combine(::testing::ValuesIn(graphModeModels()),
                       ::testing::Values(Pol::Capuchin, Pol::Vdnn,
                                         Pol::Checkpointing)),
    [](const auto &info) {
        std::string n = std::string(modelName(std::get<0>(info.param))) +
                        "_" + polName(std::get<1>(info.param));
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

// --- dynamic cross-check on a real capuscope trace ---

TEST(DynamicCrossCheck, TracedRunIsConsistent)
{
    ExecConfig cfg;
    cfg.obsLevel = obs::ObsLevel::Full;
    Session s(buildVgg16(230), cfg, makeCapuchinPolicy());
    auto r = s.run(2);
    ASSERT_FALSE(r.oom) << r.oomMessage;

    auto timeline = obs::extractTimeline(s.executor().obs().tracer);
    ASSERT_FALSE(timeline.empty());
    HbAnalysis a = buildTraceEventGraph(timeline);
    ASSERT_FALSE(a.events.empty());
    LintReport races = checkHappensBefore(a, &s.graph());
    EXPECT_EQ(races.errorCount(), 0u) << races.summary();
    LintReport stamps = checkTimestamps(a, &s.graph());
    EXPECT_EQ(stamps.errorCount(), 0u) << stamps.summary();
}
