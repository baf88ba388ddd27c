/**
 * @file
 * End-to-end tests of the Capuchin policy: measured execution, guided
 * execution, feedback, iterative refinement, abort recovery, eager mode.
 */

#include <gtest/gtest.h>

#include "core/capuchin_policy.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "policy/noop_policy.hh"
#include "test_graphs.hh"

using namespace capu;

namespace
{

/** Session over ResNet-50 at `batch` with a Capuchin policy handle. */
struct CapuchinRun
{
    CapuchinPolicy *policy;
    Session session;

    explicit CapuchinRun(std::int64_t batch, CapuchinOptions opts = {},
                         ExecConfig cfg = {})
        : policy(nullptr),
          session(buildResNet(batch, 50), cfg,
                  [&] {
                      auto p = std::make_unique<CapuchinPolicy>(opts);
                      policy = p.get();
                      return p;
                  }())
    {
    }
};

} // namespace

TEST(Capuchin, NoOversubscriptionMeansNoPlan)
{
    CapuchinRun run(64);
    auto r = run.session.run(3);
    ASSERT_FALSE(r.oom);
    EXPECT_EQ(run.policy->measuredEvictedBytes(), 0u);
    EXPECT_TRUE(run.policy->plan().items.empty());
    // ... and zero overhead: same speed as the unmanaged baseline.
    Session base(buildResNet(64, 50), ExecConfig{}, makeNoOpPolicy());
    auto rb = base.run(3);
    EXPECT_EQ(r.steadyIterationTicks(1), rb.steadyIterationTicks(1));
}

TEST(Capuchin, MeasuredExecutionSurvivesOversubscription)
{
    // Batch 400 needs ~2x the P100's memory; passive mode must carry the
    // measured iteration through.
    CapuchinRun run(400);
    auto r = run.session.run(1);
    ASSERT_FALSE(r.oom);
    EXPECT_GT(r.last().oomEvictions, 0);
    EXPECT_GT(run.policy->measuredEvictedBytes(), 1_GiB);
    EXPECT_GT(run.policy->tracker().size(), 1000u);
}

TEST(Capuchin, GuidedExecutionBeatsMeasured)
{
    CapuchinRun run(400);
    auto r = run.session.run(6);
    ASSERT_FALSE(r.oom);
    EXPECT_TRUE(run.policy->planBuilt());
    EXPECT_GT(run.policy->plan().items.size(), 0u);
    // Guided iterations are faster than the passive measured one.
    EXPECT_LT(r.iterations.back().duration(),
              r.iterations.front().duration());
}

TEST(Capuchin, GuidedUsesProactiveEviction)
{
    CapuchinRun run(400);
    auto r = run.session.run(6);
    ASSERT_FALSE(r.oom);
    // Passive (on-demand) evictions nearly vanish under the plan.
    EXPECT_LT(r.iterations.back().oomEvictions,
              r.iterations.front().oomEvictions / 2);
}

TEST(Capuchin, PlanTimestampsAreStallCorrected)
{
    // The measured iteration's access times include on-demand swap stalls;
    // the recorded trace must be on the corrected (infinite-memory)
    // timeline, i.e. strictly shorter than the raw iteration.
    CapuchinRun run(400);
    auto r = run.session.run(1);
    ASSERT_FALSE(r.oom);
    Tick trace_span = run.policy->tracker().sequence().back().time;
    EXPECT_LT(trace_span, r.last().duration());
}

TEST(Capuchin, FeedbackAdjustsInTriggers)
{
    CapuchinRun run(400);
    auto r = run.session.run(8);
    ASSERT_FALSE(r.oom);
    if (run.policy->plan().swapCount > 0) {
        EXPECT_GT(run.policy->feedbackAdjustments(), 0);
    }
}

TEST(Capuchin, FeedbackImprovesThroughputOverIterations)
{
    CapuchinRun run(400);
    auto r = run.session.run(25);
    ASSERT_FALSE(r.oom);
    // Stabilized performance beats the first guided iteration ("measure
    // once the policy is stable", §6.3.2).
    Tick early = r.iterations[1].duration();
    Tick late = r.iterations.back().duration();
    EXPECT_LE(late, early);
}

TEST(Capuchin, FeedbackCanBeDisabled)
{
    CapuchinOptions opts;
    opts.enableFeedback = false;
    CapuchinRun run(400, opts);
    auto r = run.session.run(8);
    ASSERT_FALSE(r.oom);
    EXPECT_EQ(run.policy->feedbackAdjustments(), 0);
}

TEST(Capuchin, SwapOnlyModeNeverRecomputes)
{
    CapuchinOptions opts;
    opts.enableRecompute = false;
    CapuchinRun run(350, opts);
    auto r = run.session.run(5);
    ASSERT_FALSE(r.oom);
    EXPECT_EQ(r.last().recomputeOps, 0);
    EXPECT_GT(r.last().swapOutBytes, 0u);
}

TEST(Capuchin, RecomputeOnlyModeNeverPlansSwaps)
{
    CapuchinOptions opts;
    opts.enableSwap = false;
    CapuchinRun run(350, opts);
    auto r = run.session.run(5);
    ASSERT_FALSE(r.oom);
    for (const auto &item : run.policy->plan().items)
        EXPECT_EQ(item.mode, RegenChoice::Recompute);
    EXPECT_GT(r.last().recomputeOps, 0);
}

TEST(Capuchin, HybridUsesBothMechanisms)
{
    CapuchinRun run(500);
    auto r = run.session.run(6);
    ASSERT_FALSE(r.oom);
    EXPECT_GT(run.policy->plan().swapCount, 0u);
    EXPECT_GT(run.policy->plan().recomputeCount, 0u);
}

TEST(Capuchin, ExtendsMaxBatchBeyondBaselines)
{
    ExecConfig cfg;
    auto builder = [](std::int64_t b) { return buildResNet(b, 50); };
    auto tf = findMaxBatch(builder, [] { return makeNoOpPolicy(); }, cfg,
                           2, 1, 4096);
    auto capu = findMaxBatch(builder, [] { return makeCapuchinPolicy(); },
                             cfg, 2, 1, 4096);
    // Table 2's headline: ~5x the unmanaged framework on ResNet-50
    // (paper: 1014/190 = 5.3x; our robust max-batch search is
    // conservative, so accept >= 4.5x).
    EXPECT_GT(capu * 2, tf * 9);
}

TEST(Capuchin, AbortRecoveryRescuesMeasuredExecution)
{
    // At a batch past single-shot passive feasibility, measured execution
    // relies on abort-and-retry with partial plans.
    ExecConfig cfg;
    CapuchinRun run(1000, CapuchinOptions{}, cfg);
    auto r = run.session.run(3);
    EXPECT_FALSE(r.oom);
}

TEST(Capuchin, WorksInEagerMode)
{
    ExecConfig cfg;
    cfg.eagerMode = true;
    CapuchinRun run(300, CapuchinOptions{}, cfg);
    auto r = run.session.run(4);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    EXPECT_GT(r.last().swapOutBytes + r.last().droppedBytes, 0u);
}

TEST(Capuchin, EagerMaxBatchGainMatchesPaperShape)
{
    // Table 3: ResNet-50 eager 122 -> 300 under Capuchin (>= 2x).
    ExecConfig cfg;
    cfg.eagerMode = true;
    auto builder = [](std::int64_t b) { return buildResNet(b, 50); };
    auto tf = findMaxBatch(builder, [] { return makeNoOpPolicy(); }, cfg,
                           2, 1, 2048);
    auto capu = findMaxBatch(builder, [] { return makeCapuchinPolicy(); },
                             cfg, 2, 1, 2048);
    EXPECT_GT(capu, tf * 2);
}

TEST(Capuchin, TrackingOverheadIsNegligible)
{
    // §6.3.2: at batches the baseline can run, Capuchin's instrumentation
    // costs <1%. Our tracker is event-driven off the same hooks, so guided
    // iterations at a fitting batch must match the baseline exactly.
    Session base(buildResNet(128, 50), ExecConfig{}, makeNoOpPolicy());
    CapuchinRun run(128);
    auto rb = base.run(4);
    auto rc = run.session.run(4);
    ASSERT_FALSE(rb.oom);
    ASSERT_FALSE(rc.oom);
    double ratio = static_cast<double>(rc.steadyIterationTicks(1)) /
                   static_cast<double>(rb.steadyIterationTicks(1));
    EXPECT_LT(ratio, 1.01);
}

TEST(Capuchin, SharedTriggerFiresPrefetchesInItemOrderThenEvict)
{
    // One access, three plan items: two swap items whose in-trigger is
    // that access, and a third item that evicts at it. The policy must
    // fire the prefetches in plan-item order, then the eviction. Item 0
    // names the higher tensor id, so item order is not id order.
    test::ChainGraph cg(4, 64_MiB);
    const TensorId l1 = cg.features[0];
    const TensorId l2 = cg.features[1];
    const TensorId l3 = cg.features[2];
    auto swap_item = [](TensorId tensor, int evict_after) {
        PlannedEviction item;
        item.tensor = tensor;
        item.mode = RegenChoice::Swap;
        item.bytes = 64_MiB;
        item.evictAfterAccess = evict_after;
        item.backAccess = evict_after + 1;
        return item;
    };
    // L3:out's access 2 is L4's forward read.
    Plan plan;
    plan.items.push_back(swap_item(l2, 2));
    plan.items.back().triggerTensor = l3;
    plan.items.back().triggerAccess = 2;
    plan.items.push_back(swap_item(l1, 2));
    plan.items.back().triggerTensor = l3;
    plan.items.back().triggerAccess = 2;
    plan.items.push_back(swap_item(l3, 2));
    plan.swapCount = plan.items.size();

    CapuchinOptions opts;
    opts.enableFeedback = false;
    auto policy = std::make_unique<CapuchinPolicy>(opts);
    policy->seedPlan(plan);
    ExecConfig cfg;
    cfg.obsLevel = obs::ObsLevel::Full;
    Session session(std::move(cg.graph), cfg, std::move(policy));
    auto r = session.run(1);
    ASSERT_FALSE(r.oom) << r.oomMessage;

    const obs::Tracer &tracer = session.executor().obs().tracer;
    std::vector<std::pair<std::string, std::int64_t>> fired;
    tracer.forEach([&](const obs::TraceEvent &ev) {
        const std::string &name = tracer.name(ev.name);
        if (ev.track == obs::kTrackPolicy &&
            name.rfind("trigger.", 0) == 0)
            fired.emplace_back(name, ev.tensor);
    });
    const std::vector<std::pair<std::string, std::int64_t>> want = {
        {"trigger.evict.swap", l1},  // L2 reads L1:out (access 2)
        {"trigger.evict.swap", l2},  // L3 reads L2:out (access 2)
        {"trigger.prefetch", l2},    // L4 reads L3:out (access 2): item 0
        {"trigger.prefetch", l1},    // item 1
        {"trigger.evict.swap", l3},  // item 2
    };
    EXPECT_EQ(fired, want);
}
