/**
 * @file
 * Executor tests on synthetic graphs: refcount lifetimes, fingerprint
 * integrity, swap/recompute mechanics, eager mode, OOM behaviour.
 */

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "exec/executor.hh"
#include "exec/session.hh"
#include "policy/noop_policy.hh"
#include "support/logging.hh"
#include "test_graphs.hh"

using namespace capu;
using capu::test::ChainGraph;

namespace
{

ExecConfig
testConfig(std::uint64_t capacity)
{
    ExecConfig cfg;
    cfg.device = GpuDeviceSpec::testDevice(capacity);
    return cfg;
}

/** Scripted policy: evicts/prefetches at fixed access points. */
class ScriptedPolicy : public MemoryPolicy
{
  public:
    std::string name() const override { return "scripted"; }
    bool graphAgnostic() const override { return true; }

    struct Action
    {
        TensorId tensor;
        int accessIndex;
        enum Kind { SwapOut, Drop, Prefetch } kind;
        TensorId target = kInvalidTensor; // for Prefetch
    };
    std::vector<Action> actions;

    void
    onAccess(ExecContext &ctx, const AccessEvent &ev) override
    {
        for (const auto &a : actions) {
            if (a.tensor != ev.tensor || a.accessIndex != ev.accessIndex)
                continue;
            switch (a.kind) {
              case Action::SwapOut: ctx.evictSwapAsync(ev.tensor); break;
              case Action::Drop: ctx.evictDrop(ev.tensor); break;
              case Action::Prefetch: ctx.prefetchAsync(a.target); break;
            }
        }
    }
};

} // namespace

TEST(Executor, RunsChainToCompletion)
{
    ChainGraph cg(4, 1_MiB);
    Executor ex(cg.graph, testConfig(64_MiB), nullptr);
    ex.setup();
    auto stats = ex.runIteration();
    EXPECT_GT(stats.kernelBusy, 0u);
    EXPECT_EQ(stats.swapOutCount, 0);
    EXPECT_EQ(stats.inputStall, 0u);
}

TEST(Executor, MemoryReturnsToWeightsAfterIteration)
{
    ChainGraph cg(6, 1_MiB, 1e6, true);
    Executor ex(cg.graph, testConfig(64_MiB), nullptr);
    ex.setup();
    ex.runIteration();
    ex.memory().drainAll();
    EXPECT_EQ(ex.memory().gpu().bytesInUse(),
              cg.graph.bytesOfKind(TensorKind::Weight));
    ex.memory().gpu().checkInvariants();
}

TEST(Executor, PeakReflectsSavedActivations)
{
    // All 8 activations (1 MiB each) are saved to backward: the peak must
    // hold roughly all of them at the fwd/bwd boundary.
    ChainGraph cg(8, 1_MiB);
    Executor ex(cg.graph, testConfig(256_MiB), nullptr);
    ex.setup();
    auto stats = ex.runIteration();
    EXPECT_GE(stats.peakGpuBytes, 8_MiB);
    EXPECT_LE(stats.peakGpuBytes, 14_MiB);
}

TEST(Executor, IterationsAreDeterministic)
{
    ChainGraph cg(5, 1_MiB);
    Executor ex(cg.graph, testConfig(64_MiB), nullptr);
    ex.setup();
    auto s1 = ex.runIteration();
    auto s2 = ex.runIteration();
    EXPECT_EQ(s1.duration(), s2.duration());
    EXPECT_EQ(s1.peakGpuBytes, s2.peakGpuBytes);
}

TEST(Executor, ThrowsOomWithoutPolicy)
{
    ChainGraph cg(32, 1_MiB);
    Executor ex(cg.graph, testConfig(8_MiB), nullptr);
    ex.setup();
    EXPECT_THROW(ex.runIteration(), OomError);
}

TEST(Executor, WeightsAloneOverCapacityThrowAtSetup)
{
    ChainGraph cg(2, 4_MiB, 1e6, true);
    Executor ex(cg.graph, testConfig(1_KiB), nullptr);
    EXPECT_THROW(ex.setup(), OomError);
}

TEST(Executor, SwapOutAndBackPreservesFingerprint)
{
    ChainGraph cg(6, 1_MiB);
    auto policy = std::make_unique<ScriptedPolicy>();
    // Evict L1:out right after its forward consumption (access 2: produce
    // is 1, L2's read is 2); its backward read swaps it back in.
    policy->actions.push_back({cg.features[0], 2,
                               ScriptedPolicy::Action::SwapOut,
                               kInvalidTensor});
    ExecConfig cfg = testConfig(64_MiB);
    Executor ex(cg.graph, cfg, policy.get());
    ex.setup();
    auto stats = ex.runIteration();
    EXPECT_EQ(stats.swapOutCount, 1);
    EXPECT_EQ(stats.swapInCount, 1);
    EXPECT_GT(stats.swapOutBytes, 0u);
}

TEST(Executor, DropAndRecomputeRegeneratesData)
{
    ChainGraph cg(6, 1_MiB);
    auto policy = std::make_unique<ScriptedPolicy>();
    policy->actions.push_back({cg.features[2], 2,
                               ScriptedPolicy::Action::Drop,
                               kInvalidTensor});
    ExecConfig cfg = testConfig(64_MiB);
    Executor ex(cg.graph, cfg, policy.get());
    ex.setup();
    auto stats = ex.runIteration();
    EXPECT_GE(stats.recomputedTensors, 1);
    EXPECT_GT(stats.recomputeBusy, 0u);
    // The fingerprint check inside the executor validated regeneration.
}

TEST(Executor, RecomputeChainsToNearestResident)
{
    // Drop L2, L3 and L4; L4's back-access must replay from L1.
    ChainGraph cg(6, 1_MiB);
    auto policy = std::make_unique<ScriptedPolicy>();
    for (int i : {1, 2, 3}) {
        policy->actions.push_back({cg.features[i], 2,
                                   ScriptedPolicy::Action::Drop,
                                   kInvalidTensor});
    }
    Executor ex(cg.graph, testConfig(64_MiB), policy.get());
    ex.setup();
    auto stats = ex.runIteration();
    // Collective recomputation: one replay of 3 ops regenerates them all.
    EXPECT_EQ(stats.recomputeOps, 3);
    EXPECT_EQ(stats.recomputedTensors, 1);
}

TEST(Executor, NonCollectiveRecomputeRepeatsWork)
{
    ChainGraph cg1(6, 1_MiB);
    ChainGraph cg2(6, 1_MiB);
    auto mk_policy = [&](ChainGraph &cg) {
        auto p = std::make_unique<ScriptedPolicy>();
        for (int i : {1, 2, 3}) {
            p->actions.push_back({cg.features[i], 2,
                                  ScriptedPolicy::Action::Drop,
                                  kInvalidTensor});
        }
        return p;
    };
    auto p1 = mk_policy(cg1);
    auto p2 = mk_policy(cg2);

    ExecConfig with = testConfig(64_MiB);
    with.collectiveRecompute = true;
    ExecConfig without = testConfig(64_MiB);
    without.collectiveRecompute = false;

    Executor e1(cg1.graph, with, p1.get());
    e1.setup();
    auto s_with = e1.runIteration();
    Executor e2(cg2.graph, without, p2.get());
    e2.setup();
    auto s_without = e2.runIteration();

    // O(n) vs O(n^2): without CR the chain is replayed repeatedly (§5.3).
    EXPECT_GT(s_without.recomputeOps, s_with.recomputeOps);
}

TEST(Executor, PrefetchHidesSwapInLatency)
{
    ChainGraph cg(12, 1_MiB, 5e7); // slow ops: room to hide the transfer
    auto policy = std::make_unique<ScriptedPolicy>();
    policy->actions.push_back({cg.features[0], 2,
                               ScriptedPolicy::Action::SwapOut,
                               kInvalidTensor});
    // In-trigger: when L8:out is produced (access 1), prefetch L1:out.
    policy->actions.push_back({cg.features[7], 1,
                               ScriptedPolicy::Action::Prefetch,
                               cg.features[0]});
    Executor ex(cg.graph, testConfig(256_MiB), policy.get());
    ex.setup();
    auto stats = ex.runIteration();
    EXPECT_EQ(stats.swapInCount, 1);
    EXPECT_EQ(stats.inputStall, 0u); // fully hidden
}

TEST(Executor, OnDemandSwapInStalls)
{
    ChainGraph cg(12, 1_MiB, 5e7);
    auto policy = std::make_unique<ScriptedPolicy>();
    policy->actions.push_back({cg.features[0], 2,
                               ScriptedPolicy::Action::SwapOut,
                               kInvalidTensor});
    // No prefetch: the back-access fetches on demand.
    Executor ex(cg.graph, testConfig(256_MiB), policy.get());
    ex.setup();
    auto stats = ex.runIteration();
    EXPECT_GT(stats.inputStall, 0u);
}

TEST(Executor, EagerModeIsSlower)
{
    ChainGraph cg1(10, 1_MiB);
    ChainGraph cg2(10, 1_MiB);
    ExecConfig graph_cfg = testConfig(256_MiB);
    ExecConfig eager_cfg = testConfig(256_MiB);
    eager_cfg.eagerMode = true;

    Executor g(cg1.graph, graph_cfg, nullptr);
    g.setup();
    Executor e(cg2.graph, eager_cfg, nullptr);
    e.setup();
    EXPECT_LT(g.runIteration().duration(), e.runIteration().duration());
}

TEST(Executor, EagerModeUsesMoreMemory)
{
    ChainGraph cg1(10, 1_MiB);
    ChainGraph cg2(10, 1_MiB);
    ExecConfig graph_cfg = testConfig(256_MiB);
    ExecConfig eager_cfg = testConfig(256_MiB);
    eager_cfg.eagerMode = true;

    Executor g(cg1.graph, graph_cfg, nullptr);
    g.setup();
    Executor e(cg2.graph, eager_cfg, nullptr);
    e.setup();
    EXPECT_LT(g.runIteration().peakGpuBytes,
              e.runIteration().peakGpuBytes);
}

TEST(Executor, EagerRejectsGraphBoundPolicies)
{
    class GraphPolicy : public MemoryPolicy
    {
        std::string name() const override { return "graph-bound"; }
    };
    ChainGraph cg(3, 1_MiB);
    ExecConfig cfg = testConfig(64_MiB);
    cfg.eagerMode = true;
    GraphPolicy p;
    EXPECT_THROW(Executor(cg.graph, cfg, &p), FatalError);
}

TEST(Executor, AbortIterationResetsState)
{
    ChainGraph cg(32, 1_MiB);
    Executor ex(cg.graph, testConfig(8_MiB), nullptr);
    ex.setup();
    EXPECT_THROW(ex.runIteration(), OomError);
    ex.abortIteration();
    EXPECT_EQ(ex.memory().gpu().bytesInUse(),
              cg.graph.bytesOfKind(TensorKind::Weight));
    // A feasible re-run would now proceed (capacity is still too small,
    // but the state machine is clean — rerun throws the same way rather
    // than corrupting).
    EXPECT_THROW(ex.runIteration(), OomError);
}

TEST(Executor, TraceRecordsKernels)
{
    ChainGraph cg(4, 1_MiB);
    ExecConfig cfg = testConfig(64_MiB);
    cfg.obsLevel = obs::ObsLevel::Full;
    Executor ex(cg.graph, cfg, nullptr);
    ex.setup();
    ex.runIteration();
    std::size_t kernels = 0;
    ex.obs().tracer.forEach([&](const obs::TraceEvent &ev) {
        if (ev.track == obs::kTrackCompute &&
            ev.kind == obs::EventKind::Kernel)
            ++kernels;
    });
    EXPECT_EQ(kernels, cg.graph.numOps());
}

TEST(Executor, TracingOffByDefault)
{
    ChainGraph cg(4, 1_MiB);
    Executor ex(cg.graph, testConfig(64_MiB), nullptr);
    ex.setup();
    ex.runIteration();
    EXPECT_EQ(ex.obs().tracer.size(), 0u);
    EXPECT_FALSE(ex.obs().metricsOn());
}

TEST(Executor, InplaceForwardingFiresInGraphMode)
{
    // Mark the chain's middle op in-place eligible; its input has exactly
    // one consumer in the forward direction... the chain ops save their
    // input for backward (2 consumers), so eligibility fails — verifying
    // the safety check. Then relax savedForBackward to allow it.
    ChainGraph cg(4, 1_MiB);
    cg.graph.mutableOp(2).inplaceEligible = true; // L2 (op 0 is source)
    Executor ex(cg.graph, testConfig(64_MiB), nullptr);
    ex.setup();
    auto stats = ex.runIteration();
    EXPECT_EQ(stats.inplaceForwards, 0); // input also read by backward
}

TEST(Executor, VictimsForContiguousFindsWindow)
{
    ChainGraph cg(8, 1_MiB);
    Executor ex(cg.graph, testConfig(64_MiB), nullptr);
    ex.setup();
    ex.runIteration();
    // Mid-iteration analysis is exercised by policy tests; after an
    // iteration all activations are dead, so a window needs no victims.
    auto victims = ex.victimsForContiguous(1_MiB);
    EXPECT_TRUE(victims.empty());
    EXPECT_TRUE(ex.canAllocateNow(1_MiB));
}

namespace
{

/** Runs `probe` while the op producing `trigger` writes it. */
class WriteProbe : public MemoryPolicy
{
  public:
    TensorId trigger = kInvalidTensor;
    std::function<void(ExecContext &)> probe;

    std::string name() const override { return "write-probe"; }

    void
    onAccess(ExecContext &ctx, const AccessEvent &ev) override
    {
        if (ev.tensor == trigger && ev.isOutput)
            probe(ctx);
    }
};

} // namespace

TEST(Executor, VictimsForContiguousMidIteration)
{
    // Six feature maps A..F all read `img` and are summed at the end. The
    // probe runs while F is written, with the arena packed low to high
    // (MiB): w 1 | img 1 | A 2 | B 1 | C 1 | D 2 | E 1 | F 1 | free 0.5.
    // w is a weight and img and F are pinned by the running op, so all
    // three block a window; A..E are resident and evictable.
    Graph g("victims");
    TensorId w = g.addTensor("w", 1_MiB, TensorKind::Weight);
    TensorId img = g.addTensor("img", 1_MiB, TensorKind::FeatureMap);
    Operation src;
    src.name = "source";
    src.category = OpCategory::Source;
    src.outputs = {img};
    src.recomputable = false;
    g.addOp(src);
    const std::uint64_t sizes[] = {2_MiB, 1_MiB, 1_MiB, 2_MiB, 1_MiB, 1_MiB};
    std::vector<TensorId> fm;
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
        std::string name(1, static_cast<char>('A' + i));
        TensorId t = g.addTensor(name, sizes[i], TensorKind::FeatureMap);
        Operation op;
        op.name = "make" + name;
        op.inputs = {img};
        op.outputs = {t};
        op.flops = 1e6;
        g.addOp(op);
        fm.push_back(t);
    }
    Operation sum;
    sum.name = "sum";
    sum.inputs = fm;
    sum.inputs.push_back(w);
    sum.outputs = {g.addTensor("sum", 256, TensorKind::FeatureMap)};
    sum.flops = 1e6;
    g.addOp(sum);
    g.validate();
    const TensorId a = fm[0], b = fm[1], c = fm[2];

    WriteProbe policy;
    policy.trigger = fm[5];
    Executor ex(g, testConfig(10_MiB + 512_KiB), &policy);
    bool probed = false;
    policy.probe = [&](ExecContext &ctx) {
        probed = true;
        ASSERT_EQ(*ex.tensorState(w).gpuHandle, 0u);
        ASSERT_EQ(*ex.tensorState(img).gpuHandle, 1_MiB);
        ASSERT_EQ(*ex.tensorState(a).gpuHandle, 2_MiB);
        ASSERT_EQ(*ex.tensorState(fm[5]).gpuHandle, 9_MiB);
        ASSERT_TRUE(ctx.isPinned(img));
        ASSERT_TRUE(ctx.isPinned(fm[5]));

        // [w] and [img] would cost 1 MiB at lower addresses, but a
        // weight and a pinned chunk block; of B, C and E, B is lowest.
        EXPECT_EQ(ctx.victimsForContiguous(1_MiB), std::vector{b});
        // [F, free] would cost only 1 MiB, but F is pinned.
        EXPECT_EQ(ctx.victimsForContiguous(1_MiB + 512_KiB),
                  std::vector{a});
        // [A], [B, C] and [D] all cost 2 MiB: the lowest-addressed wins.
        EXPECT_EQ(ctx.victimsForContiguous(2_MiB), std::vector{a});
        // Several victims come back in address order.
        EXPECT_EQ(ctx.victimsForContiguous(3_MiB), (std::vector{a, b}));

        // Swapping B out leaves its chunk behind a pending deferred free,
        // which costs nothing and is never returned as a victim.
        MemHandle b_chunk = *ex.tensorState(b).gpuHandle;
        ctx.evictSwapAsync(b);
        ASSERT_TRUE(ex.memory().isFreePending(b_chunk));
        EXPECT_TRUE(ctx.victimsForContiguous(1_MiB).empty());
        // [B, C] now costs 1 MiB and beats [A], the cheapest window wins.
        EXPECT_EQ(ctx.victimsForContiguous(2_MiB), std::vector{c});
    };
    ex.setup();
    ex.runIteration();
    EXPECT_TRUE(probed);
}

namespace
{

/**
 * Swaps L1:out out after its forward read, prefetches it back when L8:out
 * is written, and evicts it again through `sync ? evictSwapSync :
 * evictSwapAsync` when L10:out is written. The host copy staged by the
 * first swap-out is still current then, so the second eviction must skip
 * the writeback: no D2H transfer, one elided writeback, and the chunk
 * freed once the evicting kernel (async) or the host clock (sync) and the
 * filling swap-in are both done.
 */
void
expectCleanVictimEviction(bool sync)
{
    ChainGraph cg(12, 1_MiB, 5e7);
    const TensorId victim = cg.features[0];
    auto policy = std::make_unique<ScriptedPolicy>();
    policy->actions.push_back(
        {victim, 2, ScriptedPolicy::Action::SwapOut, kInvalidTensor});
    policy->actions.push_back(
        {cg.features[7], 1, ScriptedPolicy::Action::Prefetch, victim});
    WriteProbe probe;
    probe.trigger = cg.features[9];

    // Chain the two policies: the script first, then the probe.
    class Both : public MemoryPolicy
    {
      public:
        MemoryPolicy *first;
        MemoryPolicy *second;
        std::string name() const override { return "both"; }
        void
        onAccess(ExecContext &ctx, const AccessEvent &ev) override
        {
            first->onAccess(ctx, ev);
            second->onAccess(ctx, ev);
        }
    } both;
    both.first = policy.get();
    both.second = &probe;

    Executor ex(cg.graph, testConfig(256_MiB), &both);
    bool probed = false;
    probe.probe = [&](ExecContext &ctx) {
        probed = true;
        const TensorState &st = ex.tensorState(victim);
        ASSERT_EQ(ctx.status(victim), TensorStatus::In);
        ASSERT_TRUE(st.hasHostCopy);
        ASSERT_TRUE(st.gpuHandle.has_value());
        const MemHandle chunk = *st.gpuHandle;
        const Tick ready = sync ? ctx.now() : ex.computeStream().busyUntil();
        const Tick expected_free = std::max(ready, st.swapInReady);
        const Tick d2h_start = ex.pcie().lastStart(CopyDir::DeviceToHost);
        const Tick d2h_busy = ex.pcie().laneBusyUntil(CopyDir::DeviceToHost);

        if (sync)
            EXPECT_TRUE(ctx.evictSwapSync(victim));
        else
            ctx.evictSwapAsync(victim);

        EXPECT_FALSE(st.gpuHandle.has_value());
        EXPECT_TRUE(st.hasHostCopy);
        EXPECT_EQ(st.status, TensorStatus::Out);
        EXPECT_EQ(ex.pcie().lastStart(CopyDir::DeviceToHost), d2h_start);
        EXPECT_EQ(ex.pcie().laneBusyUntil(CopyDir::DeviceToHost), d2h_busy);
        bool freed = false;
        for (const auto &[when, handle] : ex.memory().pendingFrees()) {
            if (handle == chunk) {
                EXPECT_EQ(when, expected_free);
                freed = true;
            }
        }
        EXPECT_TRUE(freed) << "no deferred free posted for the chunk";
    };
    ex.setup();
    IterationStats stats = ex.runIteration();
    EXPECT_TRUE(probed);
    EXPECT_EQ(stats.elidedWritebacks, 1);
    EXPECT_EQ(stats.swapOutCount, 1); // the first, dirty eviction only
    EXPECT_EQ(stats.swapInCount, 2);  // prefetch, then on demand
    EXPECT_EQ(stats.oomEvictions, sync ? 1 : 0);
}

} // namespace

TEST(Executor, CleanVictimElidesWritebackAsync)
{
    expectCleanVictimEviction(false);
}

TEST(Executor, CleanVictimElidesWritebackSync)
{
    expectCleanVictimEviction(true);
}

namespace capu
{

struct ExecutorBindAccess
{
    static void
    bind(Executor &ex, TensorId id, MemHandle h)
    {
        ex.bindGpu(id, h);
    }
};

} // namespace capu

TEST(Executor, BindingOwnedChunkPanics)
{
    // Chunk owner tags mirror the tensors' handles, so a second tensor
    // bound to a chunk another tensor owns is caught at bind time, not
    // only when a victim search happens to walk past the chunk.
    ChainGraph cg(2, 1_MiB, 1e6, true);
    Executor ex(cg.graph, testConfig(64_MiB), nullptr);
    ex.setup();
    TensorId weight = kInvalidTensor;
    for (const auto &t : cg.graph.tensors()) {
        if (t.kind == TensorKind::Weight) {
            weight = t.id;
            break;
        }
    }
    ASSERT_NE(weight, kInvalidTensor);
    MemHandle chunk = *ex.tensorState(weight).gpuHandle;
    EXPECT_EQ(ex.memory().gpu().tagOwner(chunk, weight), weight);
    try {
        ExecutorBindAccess::bind(ex, cg.features[0], chunk);
        ADD_FAILURE() << "binding an owned chunk did not panic";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("share GPU chunk"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Session, RunsAndReportsThroughput)
{
    ChainGraph cg(4, 1_MiB);
    Session s(std::move(cg.graph), testConfig(64_MiB), makeNoOpPolicy());
    auto r = s.run(5);
    EXPECT_FALSE(r.oom);
    EXPECT_EQ(r.iterations.size(), 5u);
    EXPECT_GT(r.steadyThroughput(8), 0.0);
    EXPECT_GT(r.steadyIterationTicks(), 0u);
}

TEST(Session, ReportsOomGracefully)
{
    ChainGraph cg(32, 1_MiB);
    Session s(std::move(cg.graph), testConfig(8_MiB), makeNoOpPolicy());
    auto r = s.run(3);
    EXPECT_TRUE(r.oom);
    EXPECT_FALSE(r.oomMessage.empty());
}

TEST(Session, FindMaxBatchMonotone)
{
    // Batch scales the chain's tensor size; max batch must land just
    // below the capacity knee.
    auto builder = [](std::int64_t batch) {
        test::ChainGraph cg(4, static_cast<std::uint64_t>(batch) * 64_KiB);
        return std::move(cg.graph);
    };
    ExecConfig cfg = testConfig(32_MiB);
    auto mb = findMaxBatch(builder, [] { return makeNoOpPolicy(); }, cfg,
                           2, 1, 1024);
    EXPECT_GT(mb, 8);
    EXPECT_LT(mb, 1024);
    // One more than max must fail.
    Session over(builder(mb + 1), cfg, makeNoOpPolicy());
    EXPECT_TRUE(over.run(2).oom);
}
