/**
 * @file
 * capuchaos tests: fault-spec grammar, zero-perturbation bit-identity,
 * degradation/recovery behaviour under each documented fault class, the
 * capped-host-pool regression (swap-out falls back to recompute-eviction
 * instead of aborting), feedback-shift arithmetic and convergence, OOM
 * post-mortem enrichment, drift-triggered re-measurement, and (spec, seed)
 * reproducibility.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/lint_hooks.hh"
#include "core/capuchin_policy.hh"
#include "exec/session.hh"
#include "faults/fault_engine.hh"
#include "faults/fault_spec.hh"
#include "models/workload.hh"
#include "models/zoo.hh"
#include "policy/noop_policy.hh"
#include "support/logging.hh"

using namespace capu;

namespace
{

/** Session over a zoo model with a Capuchin policy handle. */
struct ChaosRun
{
    CapuchinPolicy *policy;
    Session session;

    ChaosRun(Graph graph, ExecConfig cfg, CapuchinOptions opts = {})
        : policy(nullptr),
          session(std::move(graph), cfg,
                  [&] {
                      auto p = std::make_unique<CapuchinPolicy>(opts);
                      policy = p.get();
                      return p;
                  }())
    {
    }
};

ExecConfig
chaosConfig(const std::string &spec, std::uint64_t seed = 42)
{
    ExecConfig cfg;
    cfg.faults = faults::parseFaultSpec(spec);
    cfg.seed = seed;
    return cfg;
}

std::vector<Tick>
iterationStamps(const SessionResult &r)
{
    std::vector<Tick> out;
    for (const auto &it : r.iterations) {
        out.push_back(it.begin);
        out.push_back(it.end);
    }
    return out;
}

} // namespace

// --- fault-spec grammar -----------------------------------------------

TEST(FaultSpec, EmptyStringIsDisabled)
{
    auto spec = faults::parseFaultSpec("");
    EXPECT_FALSE(spec.enabled());
    EXPECT_EQ(spec.summary(), "none");
    EXPECT_EQ(spec.clampHostBytes(1ull << 40), 1ull << 40);
}

TEST(FaultSpec, ParsesEveryClause)
{
    auto spec = faults::parseFaultSpec(
        "pcie:0.5@2000-4000;jitter:0.1;hostcap:8GiB;hostfail:p=0.02;"
        "swapfail:p=0.01,retries=5,backoff=100us");
    EXPECT_TRUE(spec.enabled());
    ASSERT_EQ(spec.pcie.size(), 1u);
    EXPECT_DOUBLE_EQ(spec.pcie[0].factor, 0.5);
    EXPECT_EQ(spec.pcie[0].begin, ticksFromMs(2000));
    EXPECT_EQ(spec.pcie[0].end, ticksFromMs(4000));
    EXPECT_DOUBLE_EQ(spec.kernelJitter, 0.1);
    EXPECT_EQ(spec.hostCapBytes, 8ull << 30);
    EXPECT_DOUBLE_EQ(spec.hostFailProb, 0.02);
    EXPECT_DOUBLE_EQ(spec.swapFailProb, 0.01);
    EXPECT_EQ(spec.swapRetries, 5);
    EXPECT_EQ(spec.swapBackoffBase, ticksFromUs(100));
    EXPECT_EQ(spec.clampHostBytes(256ull << 30), 8ull << 30);
}

TEST(FaultSpec, SummaryRoundTrips)
{
    // Two summaries agree even when both lose a window's fraction, so
    // compare each episode's ticks after the round trip as well.
    for (const char *text :
         {"pcie:0.5@2000-4000;jitter:0.1;hostcap:8GiB;swapfail:p=0.01,"
          "retries=3",
          "pcie:0.5@0.5-1.5", "pcie:0.25@1500us-2000001ns;pcie:0.75"}) {
        auto spec = faults::parseFaultSpec(text);
        auto reparsed = faults::parseFaultSpec(spec.summary());
        EXPECT_EQ(spec.summary(), reparsed.summary()) << text;
        ASSERT_EQ(spec.pcie.size(), reparsed.pcie.size()) << text;
        for (std::size_t i = 0; i < spec.pcie.size(); ++i) {
            EXPECT_EQ(spec.pcie[i].begin, reparsed.pcie[i].begin) << text;
            EXPECT_EQ(spec.pcie[i].end, reparsed.pcie[i].end) << text;
        }
    }
    // Whole-millisecond windows keep their bare spelling.
    EXPECT_EQ(faults::parseFaultSpec("pcie:0.5@2000-4000").summary(),
              "pcie:0.5@2000-4000");
    EXPECT_EQ(faults::parseFaultSpec("pcie:0.5@0.5-1.5").summary(),
              "pcie:0.5@500us-1500us");
}

TEST(FaultSpec, ByteSizesAndDurations)
{
    EXPECT_EQ(parseBytes("8GiB"), 8ull << 30);
    EXPECT_EQ(parseBytes("512MiB"), 512ull << 20);
    EXPECT_EQ(parseBytes("64K"), 64ull << 10);
    EXPECT_EQ(parseBytes("1024"), 1024u);
    EXPECT_EQ(faults::parseTickSpan("100us"), ticksFromUs(100));
    EXPECT_EQ(faults::parseTickSpan("2ms"), ticksFromMs(2));
    EXPECT_EQ(faults::parseTickSpan("1s"), ticksFromSec(1));
}

TEST(FaultSpec, RejectsMalformedInput)
{
    EXPECT_THROW(faults::parseFaultSpec("pcie:1.5"), FatalError);
    EXPECT_THROW(faults::parseFaultSpec("pcie:0"), FatalError);
    EXPECT_THROW(faults::parseFaultSpec("pcie:0.5@4000-2000"), FatalError);
    EXPECT_THROW(faults::parseFaultSpec("jitter:-0.1"), FatalError);
    EXPECT_THROW(faults::parseFaultSpec("swapfail:retries=3"), FatalError);
    EXPECT_THROW(faults::parseFaultSpec("hostcap:12XB"), FatalError);
    EXPECT_THROW(faults::parseFaultSpec("bogus:1"), FatalError);
    // NaN in every real-valued field, a size or a duration past 64 bits.
    for (const char *bad :
         {"pcie:nan", "jitter:nan", "hostfail:p=nan", "swapfail:p=nan",
          "hostcap:nan", "hostcap:1e30GiB", "swapfail:p=0.1,backoff=1e30s"})
        EXPECT_THROW(faults::parseFaultSpec(bad), FatalError) << bad;
}

TEST(FaultSpec, OverlappingPcieWindowsTakeMinimum)
{
    auto spec = faults::parseFaultSpec("pcie:0.5@0-10000;pcie:0.25@5000-8000");
    faults::FaultEngine eng(spec, 1);
    EXPECT_DOUBLE_EQ(eng.pcieFactor(ticksFromMs(1000)), 0.5);
    EXPECT_DOUBLE_EQ(eng.pcieFactor(ticksFromMs(6000)), 0.25);
    EXPECT_DOUBLE_EQ(eng.pcieFactor(ticksFromMs(20000)), 1.0);
}

// --- zero-perturbation self-check -------------------------------------

TEST(Chaos, FaultsOffIsBitIdentical)
{
    // A seed-only config (no fault clauses) must take the exact legacy
    // code paths: every simulated timestamp identical to the default.
    auto run_with = [](ExecConfig cfg) {
        ChaosRun run(buildResNet(400, 50), cfg);
        auto r = run.session.run(4);
        EXPECT_FALSE(r.oom);
        return iterationStamps(r);
    };
    auto baseline = run_with(ExecConfig{});
    auto seeded = run_with(chaosConfig("", /*seed=*/1234567));
    EXPECT_EQ(baseline, seeded);
}

TEST(Chaos, DisabledEngineMakesNoDraws)
{
    faults::FaultEngine eng(faults::FaultSpec{}, 99);
    EXPECT_FALSE(eng.enabled());
    EXPECT_EQ(eng.jitterKernel(1000), 1000u);
    EXPECT_FALSE(eng.hostTransientFail());
    EXPECT_FALSE(eng.swapAttemptFails());
    EXPECT_DOUBLE_EQ(eng.pcieFactor(0), 1.0);
}

// --- per-fault degradation + recovery ---------------------------------

TEST(Chaos, PcieDegradationCompletesAndCounts)
{
    ExecConfig cfg = chaosConfig("pcie:0.5");
    CapuchinOptions opts;
    enablePlanLint(opts);
    ChaosRun run(buildModel(ModelKind::Vgg16, 230), cfg, opts);
    auto r = run.session.run(5);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    const auto &fs = run.session.executor().faultEngine().stats();
    EXPECT_GT(fs.degradedTransfers, 0u);
}

TEST(Chaos, KernelJitterCompletesAndCounts)
{
    ExecConfig cfg = chaosConfig("jitter:0.1");
    CapuchinOptions opts;
    enablePlanLint(opts);
    ChaosRun run(buildModel(ModelKind::Vgg16, 230), cfg, opts);
    auto r = run.session.run(5);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    const auto &fs = run.session.executor().faultEngine().stats();
    EXPECT_GT(fs.jitteredKernels, 0u);
}

TEST(Chaos, SwapFailuresRetryAndComplete)
{
    ExecConfig cfg = chaosConfig("swapfail:p=0.2,retries=3");
    CapuchinOptions opts;
    enablePlanLint(opts);
    ChaosRun run(buildModel(ModelKind::Vgg16, 230), cfg, opts);
    auto r = run.session.run(5);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    const auto &fs = run.session.executor().faultEngine().stats();
    EXPECT_GT(fs.swapAttemptFailures, 0u);
    EXPECT_GT(fs.swapRetries, 0u);
}

TEST(Chaos, HostTransientFailuresDegradeToDrop)
{
    ExecConfig cfg = chaosConfig("hostfail:p=0.3");
    ChaosRun run(buildResNet(400, 50), cfg);
    auto r = run.session.run(5);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    const auto &fs = run.session.executor().faultEngine().stats();
    EXPECT_GT(fs.hostRejects, 0u);
    // Each rejected staging must resolve safely: either degrade to a
    // recompute-eviction (drop) or refuse the swap and keep the tensor
    // resident for passive mode to pick another victim.
    EXPECT_GT(fs.dropFallbacks + fs.swapSkips, 0u);
}

// --- capped-host-pool regression (satellite: exhaustion end-to-end) ---

TEST(Chaos, HostcapClauseClampsThePool)
{
    ExecConfig cfg = chaosConfig("hostcap:1GiB");
    ChaosRun run(buildResNet(256, 50), cfg);
    EXPECT_EQ(run.session.executor().memory().host().capacity(), 1ull << 30);
}

TEST(Chaos, ExhaustedHostPoolFallsBackToRecompute)
{
    // A pool far too small for the passive swap traffic. The first few
    // GiB of swap-outs seed host copies (stable recompute roots); every
    // swap-out beyond the cap must then degrade to drop-for-recompute,
    // not abort. (A cap so small that *no* host copies exist would leave
    // early activations with no stable replay root — their lineage ends
    // at the non-recomputable input batch — which is unrecoverable by
    // design, not a robustness bug.)
    ExecConfig cfg = chaosConfig("hostcap:4GiB");
    ChaosRun run(buildResNet(400, 50), cfg);
    auto r = run.session.run(4);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    const auto &fs = run.session.executor().faultEngine().stats();
    EXPECT_GT(fs.hostRejects, 0u);
    EXPECT_GT(fs.dropFallbacks, 0u);
    EXPECT_GT(run.session.executor().memory().host().failedAllocs(), 0u);
    bool any_drops = false;
    for (const auto &it : r.iterations)
        any_drops = any_drops || it.droppedTensors > 0;
    EXPECT_TRUE(any_drops);
}

TEST(Chaos, UncappedRunNeverTouchesTheFallback)
{
    ChaosRun run(buildResNet(400, 50), ExecConfig{});
    auto r = run.session.run(4);
    ASSERT_FALSE(r.oom);
    EXPECT_EQ(run.session.executor().memory().host().failedAllocs(), 0u);
}

// --- feedback (satellite: onBackAccessStall convergence) --------------

TEST(Feedback, StallShiftsInTriggerByStepTimesSwapTime)
{
    ChaosRun run(buildResNet(400, 50), ExecConfig{});
    auto r = run.session.run(3);
    ASSERT_FALSE(r.oom);
    // Pick any planned swap; a direct stall report must advance its
    // desired swap-in start by exactly max(1, feedbackStep x SwapTime).
    const Plan &plan = run.policy->plan();
    const PlannedEviction *item = nullptr;
    for (const auto &it : plan.items) {
        if (it.mode == RegenChoice::Swap && it.desiredSwapInStart > 0) {
            item = &it;
            break;
        }
    }
    ASSERT_NE(item, nullptr) << "plan has no swap items";
    TensorId id = item->tensor;
    Tick before = item->desiredSwapInStart;
    Tick expected_shift = std::max<Tick>(
        static_cast<Tick>(static_cast<double>(item->swapTime) * 0.05), 1);
    int adj_before = run.policy->feedbackAdjustments();
    // A stall of a full SwapTime is far above the feedback deadband.
    run.policy->onBackAccessStall(run.session.executor(), id,
                                  item->swapTime);
    EXPECT_EQ(run.policy->feedbackAdjustments(), adj_before + 1);
    EXPECT_EQ(item->desiredSwapInStart,
              before > expected_shift ? before - expected_shift : 0);
}

TEST(Feedback, ConvergesUnderPermanentPcieDegradation)
{
    // A permanently slower link makes every planned swap-in late at
    // first; the feedback loop must keep shifting in-triggers earlier
    // until the stalls shrink. Refinement is frozen (maxReplans = 0) so
    // plan rebuilds don't reset the shifted in-triggers between
    // iterations, and the drift watchdog is off (default) so only the
    // feedback path reacts.
    ExecConfig cfg = chaosConfig("pcie:0.6");
    CapuchinOptions opts;
    opts.maxReplans = 0;
    opts.feedbackStep = 0.2;
    ChaosRun run(buildResNet(400, 50), cfg, opts);
    auto r = run.session.run(12);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    EXPECT_GT(run.policy->feedbackAdjustments(), 0);
    const auto &fs = run.session.executor().faultEngine().stats();
    EXPECT_GT(fs.feedbackShifts, 0u);
    // The loop must settle well below the first guided iteration's stall.
    // Individual late iterations can still spike: the passive safety net
    // occasionally re-evicts an already-prefetched tensor, whose
    // on-demand swap-in then costs one full degraded transfer. That is
    // scheduling noise, not feedback divergence, so assert on the best
    // of the last few iterations (the steady state the loop returns to).
    Tick first_guided = r.iterations[1].prefetchStall;
    Tick steady = r.iterations.back().prefetchStall;
    for (std::size_t i = r.iterations.size() - 4; i < r.iterations.size();
         ++i)
        steady = std::min(steady, r.iterations[i].prefetchStall);
    EXPECT_LT(steady, first_guided / 4);
}

// --- OOM post-mortem enrichment ---------------------------------------

TEST(Chaos, OomCarriesPostMortemContext)
{
    // No policy assistance: a heavily oversubscribed run must die with an
    // enriched OomError.
    Session session(buildResNet(400, 50), ExecConfig{}, makeNoOpPolicy());
    auto r = session.run(2);
    ASSERT_TRUE(r.oom);
    EXPECT_GT(r.oomRequestedBytes, 0u);
    EXPECT_GT(r.oomContext.gpuBytesInUse, 0u);
    EXPECT_GT(r.oomContext.hostCapacity, 0u);
    EXPECT_NE(r.oomContext.tensor, kInvalidTensor);
    EXPECT_FALSE(r.oomContext.tensorName.empty());
    std::string pm = r.postMortem();
    EXPECT_NE(pm.find("OOM post-mortem"), std::string::npos);
    EXPECT_NE(pm.find(r.oomContext.tensorName), std::string::npos);
}

TEST(Chaos, CompletedRunHasEmptyPostMortem)
{
    ChaosRun run(buildResNet(256, 50), ExecConfig{});
    auto r = run.session.run(2);
    ASSERT_FALSE(r.oom);
    EXPECT_TRUE(r.postMortem().empty());
}

// --- drift watchdog ----------------------------------------------------

TEST(Chaos, DriftTriggersRemeasurement)
{
    // The plan is measured on a healthy link; a severe permanent
    // degradation makes guided timestamps drift past the threshold, so
    // the policy must discard the plan and re-measure.
    ExecConfig cfg = chaosConfig("pcie:0.35");
    CapuchinOptions opts;
    opts.driftThreshold = 0.10;
    opts.enableFeedback = false; // isolate the watchdog
    ChaosRun run(buildResNet(400, 50), cfg, opts);
    auto r = run.session.run(8);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    EXPECT_GT(run.policy->remeasures(), 0);
    const auto &fs = run.session.executor().faultEngine().stats();
    EXPECT_GT(fs.remeasures, 0u);
}

TEST(Chaos, DriftWatchdogOffByDefault)
{
    ExecConfig cfg = chaosConfig("pcie:0.35");
    ChaosRun run(buildResNet(400, 50), cfg);
    auto r = run.session.run(8);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    EXPECT_EQ(run.policy->remeasures(), 0);
}

// --- reproducibility ---------------------------------------------------

TEST(Chaos, SameSpecAndSeedReproduceExactly)
{
    auto stamps = [](std::uint64_t seed) {
        ExecConfig cfg = chaosConfig("jitter:0.1;swapfail:p=0.05", seed);
        ChaosRun run(buildModel(ModelKind::Vgg16, 230), cfg);
        auto r = run.session.run(4);
        EXPECT_FALSE(r.oom);
        return iterationStamps(r);
    };
    EXPECT_EQ(stamps(7), stamps(7));
}

TEST(Chaos, DifferentSeedsDiverge)
{
    auto stamps = [](std::uint64_t seed) {
        ExecConfig cfg = chaosConfig("jitter:0.1", seed);
        ChaosRun run(buildModel(ModelKind::Vgg16, 230), cfg);
        auto r = run.session.run(3);
        EXPECT_FALSE(r.oom);
        return iterationStamps(r);
    };
    EXPECT_NE(stamps(1), stamps(2));
}

// --- faults x dynamic workloads (capudrift) ---------------------------

TEST(ChaosDrift, EveryFaultClassComposesWithVarlen)
{
    // Chaos under a varlen stream: no OOM, every iteration completes, the
    // run costs at most a bounded factor over the fault-free stream, and
    // the per-class re-measure budget bounds any thrash between
    // fault-triggered and drift-triggered re-measurement.
    DynamicWorkload base = buildVarlenLstm(8, 3);
    ExecConfig clean_cfg = chaosConfig("");
    clean_cfg.variantSchedule = base.schedule;
    ChaosRun clean(Graph(base.graph), clean_cfg);
    SessionResult rclean = clean.session.run(16);
    ASSERT_FALSE(rclean.oom) << rclean.oomMessage;
    Tick clean_wall =
        rclean.iterations.back().end - rclean.iterations.front().begin;

    const char *specs[] = {"pcie:0.5", "jitter:0.1",
                           "swapfail:p=0.2,retries=3", "hostcap:4GiB",
                           "pcie:0.6;jitter:0.1"};
    for (const char *spec : specs) {
        SCOPED_TRACE(spec);
        ExecConfig cfg = chaosConfig(spec);
        cfg.variantSchedule = base.schedule;
        CapuchinOptions opts;
        opts.driftThreshold = 0.35; // what capusim arms under --faults
        ChaosRun run(Graph(base.graph), cfg, opts);
        SessionResult r = run.session.run(16);
        EXPECT_FALSE(r.oom) << r.oomMessage;
        ASSERT_EQ(r.iterations.size(), 16u);
        Tick wall = r.iterations.back().end - r.iterations.front().begin;
        EXPECT_LE(wall, 2 * clean_wall) << "unbounded chaos overhead";
        // Bounded escalation, not a remeasure loop: each shape class may
        // re-measure at most kMaxRemeasures times.
        EXPECT_LE(run.policy->remeasures(),
                  kMaxRemeasures *
                      static_cast<int>(run.policy->shapeClassCount()));
    }
}

TEST(ChaosDrift, PressuredBatchRampSurvivesDegradedPcie)
{
    // Batch-ramp at a swapping batch size: the heavy class actually moves
    // tensors, so degraded PCIe exercises the fault path on a stream whose
    // shape also drifts. The run must complete every scheduled class.
    DynamicWorkload dw = buildBatchRamp("resnet50", 400, 1);
    ExecConfig cfg = chaosConfig("pcie:0.5");
    cfg.variantSchedule = dw.schedule;
    CapuchinOptions opts;
    opts.driftThreshold = 0.35;
    int iters = static_cast<int>(dw.schedule.size());
    ChaosRun run(std::move(dw.graph), cfg, opts);
    SessionResult r = run.session.run(iters);
    EXPECT_FALSE(r.oom) << r.oomMessage;
    EXPECT_EQ(r.iterations.size(), static_cast<std::size_t>(iters));
    EXPECT_EQ(run.policy->shapeClassCount(), 3u);
    EXPECT_LE(run.policy->remeasures(), 3 * kMaxRemeasures);
}
