/**
 * @file
 * capureplay tests: zoo-wide bit-identity between replayed and fully
 * executed sessions (iteration stats, steady throughput, weight versions
 * and fingerprints, metrics), replay engagement/coverage accounting,
 * default-off behaviour, audit-driven divergence fallback, trace
 * re-emission on the replay track, and forced-off under every chaos plan.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/capuchin_policy.hh"
#include "exec/replay.hh"
#include "exec/session.hh"
#include "faults/fault_spec.hh"
#include "models/zoo.hh"
#include "policy/checkpointing_policy.hh"
#include "policy/vdnn_policy.hh"

using namespace capu;

namespace
{

struct ZooCase
{
    const char *name;
    ModelKind kind;
    std::int64_t batch;
};

/** Workloads whose Capuchin plan stabilizes within a few iterations. */
const ZooCase kZoo[] = {
    {"vgg16", ModelKind::Vgg16, 230},
    {"resnet50", ModelKind::ResNet50, 200},
    {"bert", ModelKind::BertBase, 64},
};

ExecConfig
replayConfig(bool enabled, obs::ObsLevel level = obs::ObsLevel::Metrics)
{
    ExecConfig cfg;
    cfg.obsLevel = level;
    cfg.replay.enabled = enabled;
    return cfg;
}

void
expectIterationsEqual(const SessionResult &a, const SessionResult &b)
{
    ASSERT_EQ(a.iterations.size(), b.iterations.size());
    for (std::size_t i = 0; i < a.iterations.size(); ++i) {
        const IterationStats &x = a.iterations[i];
        const IterationStats &y = b.iterations[i];
        EXPECT_EQ(x.iteration, y.iteration) << "iteration " << i;
        EXPECT_EQ(x.begin, y.begin) << "iteration " << i;
        EXPECT_EQ(x.end, y.end) << "iteration " << i;
        EXPECT_EQ(x.kernelBusy, y.kernelBusy) << "iteration " << i;
        EXPECT_EQ(x.recomputeBusy, y.recomputeBusy) << "iteration " << i;
        EXPECT_EQ(x.inputStall, y.inputStall) << "iteration " << i;
        EXPECT_EQ(x.allocStall, y.allocStall) << "iteration " << i;
        EXPECT_EQ(x.swapOutBytes, y.swapOutBytes) << "iteration " << i;
        EXPECT_EQ(x.swapInBytes, y.swapInBytes) << "iteration " << i;
        EXPECT_EQ(x.swapOutCount, y.swapOutCount) << "iteration " << i;
        EXPECT_EQ(x.swapInCount, y.swapInCount) << "iteration " << i;
        EXPECT_EQ(x.recomputedTensors, y.recomputedTensors)
            << "iteration " << i;
        EXPECT_EQ(x.recomputeOps, y.recomputeOps) << "iteration " << i;
        EXPECT_EQ(x.droppedTensors, y.droppedTensors) << "iteration " << i;
        EXPECT_EQ(x.droppedBytes, y.droppedBytes) << "iteration " << i;
        EXPECT_EQ(x.inplaceForwards, y.inplaceForwards) << "iteration " << i;
        EXPECT_EQ(x.fallbackKernels, y.fallbackKernels) << "iteration " << i;
        EXPECT_EQ(x.oomEvictions, y.oomEvictions) << "iteration " << i;
        EXPECT_EQ(x.prefetchBusy, y.prefetchBusy) << "iteration " << i;
        EXPECT_EQ(x.prefetchStall, y.prefetchStall) << "iteration " << i;
        EXPECT_EQ(x.peakGpuBytes, y.peakGpuBytes) << "iteration " << i;
    }
}

/** Registry equality, ignoring the replay.* bookkeeping counters. */
void
expectMetricsEqual(const obs::MetricsRegistry &a,
                   const obs::MetricsRegistry &b)
{
    auto synthetic = [](const std::string &name) {
        return name.rfind("replay.", 0) == 0;
    };
    for (const auto &[name, value] : a.counters()) {
        if (synthetic(name))
            continue;
        EXPECT_EQ(value, b.counter(name)) << "counter " << name;
    }
    for (const auto &[name, value] : b.counters()) {
        if (!synthetic(name)) {
            EXPECT_EQ(a.counter(name), value) << "counter " << name;
        }
    }
    for (const auto &[name, value] : a.gauges())
        EXPECT_EQ(value, b.gauge(name)) << "gauge " << name;
    EXPECT_EQ(a.gauges().size(), b.gauges().size());
    for (const auto &[name, hist] : a.histograms()) {
        const obs::Histogram *other = b.histogram(name);
        ASSERT_NE(other, nullptr) << "histogram " << name;
        EXPECT_EQ(hist.count(), other->count()) << "histogram " << name;
        EXPECT_EQ(hist.sum(), other->sum()) << "histogram " << name;
        EXPECT_EQ(hist.min(), other->min()) << "histogram " << name;
        EXPECT_EQ(hist.max(), other->max()) << "histogram " << name;
        for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i)
            EXPECT_EQ(hist.bucket(i), other->bucket(i))
                << "histogram " << name << " bucket " << i;
    }
    EXPECT_EQ(a.histograms().size(), b.histograms().size());
}

void
expectWeightsEqual(Session &a, Session &b)
{
    const Graph &g = a.graph();
    for (std::size_t t = 0; t < g.numTensors(); ++t) {
        auto id = static_cast<TensorId>(t);
        if (g.tensor(id).kind != TensorKind::Weight)
            continue;
        const TensorState &x = a.executor().tensorState(id);
        const TensorState &y = b.executor().tensorState(id);
        EXPECT_EQ(x.weightVersion, y.weightVersion)
            << "weight " << g.tensor(id).name;
        EXPECT_EQ(x.fingerprint, y.fingerprint)
            << "weight " << g.tensor(id).name;
        EXPECT_EQ(x.expectedFp, y.expectedFp)
            << "weight " << g.tensor(id).name;
    }
}

} // namespace

// --- bit-identity across the zoo --------------------------------------

TEST(ReplayIdentity, CapuchinZooSweep)
{
    // Executed iterations per kZoo cell at each horizon (warm-up plus
    // audits); the rest are synthesized. Replay's payoff as exact work: a
    // fixed point reached later, or a template that stops matching,
    // changes a count. At ObsLevel::Metrics the digest also covers metric
    // deltas, which can settle one iteration after the stats do.
    struct Horizon
    {
        int iters;
        int executed[std::size(kZoo)];
    };
    const Horizon kHorizons[] = {{20, {4, 5, 4}}, {100, {9, 10, 9}}};
    for (const Horizon &h : kHorizons) {
        for (std::size_t z = 0; z < std::size(kZoo); ++z) {
            const ZooCase &zc = kZoo[z];
            SCOPED_TRACE(std::string(zc.name) + " x" +
                         std::to_string(h.iters));
            Session on(buildModel(zc.kind, zc.batch), replayConfig(true),
                       makeCapuchinPolicy());
            Session off(buildModel(zc.kind, zc.batch), replayConfig(false),
                        makeCapuchinPolicy());
            SessionResult ron = on.run(h.iters);
            SessionResult roff = off.run(h.iters);
            ASSERT_FALSE(ron.oom) << ron.oomMessage;
            ASSERT_FALSE(roff.oom) << roff.oomMessage;
            // Replay must actually engage for the sweep to mean anything.
            EXPECT_GT(ron.replay.replayed, 0);
            EXPECT_EQ(ron.replay.executed, h.executed[z]);
            EXPECT_EQ(ron.replay.replayed, h.iters - h.executed[z]);
            EXPECT_EQ(roff.replay.replayed, 0);
            expectIterationsEqual(ron, roff);
            EXPECT_EQ(ron.steadyIterationTicks(),
                      roff.steadyIterationTicks());
            EXPECT_DOUBLE_EQ(ron.steadyThroughput(zc.batch),
                             roff.steadyThroughput(zc.batch));
            expectWeightsEqual(on, off);
            expectMetricsEqual(on.executor().obs().metrics,
                               off.executor().obs().metrics);
        }
    }
}

TEST(ReplayIdentity, BaselinePoliciesBitIdentical)
{
    constexpr int kIters = 16;
    auto run_pair = [&](auto make_policy) {
        Session on(buildModel(ModelKind::ResNet50, 160), replayConfig(true),
                   make_policy());
        Session off(buildModel(ModelKind::ResNet50, 160),
                    replayConfig(false), make_policy());
        SessionResult ron = on.run(kIters);
        SessionResult roff = off.run(kIters);
        ASSERT_FALSE(ron.oom) << ron.oomMessage;
        EXPECT_GT(ron.replay.replayed, 0);
        expectIterationsEqual(ron, roff);
        expectWeightsEqual(on, off);
        expectMetricsEqual(on.executor().obs().metrics,
                           off.executor().obs().metrics);
    };
    run_pair([] { return std::make_unique<VdnnPolicy>(); });
    run_pair([] {
        return std::make_unique<CheckpointingPolicy>(
            CheckpointingPolicy::Mode::Memory);
    });
}

// --- engagement, coverage and accounting ------------------------------

TEST(ReplayCoverage, SteadyStateMostlySynthesized)
{
    constexpr int kIters = 30;
    ExecConfig cfg = replayConfig(true);
    cfg.replay.auditInterval = 8;
    Session s(buildModel(ModelKind::Vgg16, 230), cfg, makeCapuchinPolicy());
    SessionResult r = s.run(kIters);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    EXPECT_EQ(r.replay.executed + r.replay.replayed, kIters);
    EXPECT_GE(r.replay.replayed, 15);
    EXPECT_GE(r.replay.audits, 1);
    EXPECT_EQ(r.replay.auditMismatches, 0);
}

TEST(ReplayCoverage, DisabledByDefault)
{
    Session s(buildModel(ModelKind::Vgg16, 230), ExecConfig{},
              makeCapuchinPolicy());
    SessionResult r = s.run(8);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    EXPECT_FALSE(s.executor().replayArmed());
    EXPECT_EQ(r.replay.replayed, 0);
    EXPECT_EQ(r.replay.audits, 0);
    EXPECT_EQ(r.replay.executed, 8);
}

// --- audit protocol ----------------------------------------------------

namespace
{

/**
 * A policy that claims replay stability but silently changes behaviour
 * from iteration `flipAt` on: it starts async-evicting the first sizable
 * unpinned feature map after each op. Replay synthesizes through the flip
 * without consulting the policy, so only an audit iteration can expose
 * the divergence.
 */
class FlippingPolicy : public MemoryPolicy
{
  public:
    explicit FlippingPolicy(int flip_at) : flipAt_(flip_at) {}

    std::string name() const override { return "Flipping"; }
    bool graphAgnostic() const override { return true; }

    void
    afterOp(ExecContext &ctx, OpId op, Tick op_end) override
    {
        (void)op;
        (void)op_end;
        if (ctx.iteration() < flipAt_ || evictedThisIter_)
            return;
        const Graph &g = ctx.graph();
        for (std::size_t t = 0; t < g.numTensors(); ++t) {
            auto id = static_cast<TensorId>(t);
            if (g.tensor(id).kind != TensorKind::FeatureMap)
                continue;
            if (ctx.status(id) != TensorStatus::In || ctx.isPinned(id))
                continue;
            if (ctx.tensorBytes(id) < (8ull << 20))
                continue;
            ctx.evictSwapAsync(id);
            evictedThisIter_ = true;
            return;
        }
    }

    void
    beginIteration(ExecContext &ctx) override
    {
        (void)ctx;
        evictedThisIter_ = false;
    }

  private:
    int flipAt_;
    bool evictedThisIter_ = false;
};

} // namespace

TEST(ReplayAudit, MismatchFallsBackToExecution)
{
    constexpr int kIters = 24;
    constexpr int kFlip = 7;
    ExecConfig cfg = replayConfig(true);
    cfg.replay.auditInterval = 2;
    cfg.replay.maxAuditMismatches = 1;
    Session s(buildModel(ModelKind::ResNet50, 160), cfg,
              std::make_unique<FlippingPolicy>(kFlip));
    SessionResult r = s.run(kIters);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    // Replay engaged before the flip, an audit caught the divergence, and
    // with a budget of one mismatch replay stayed off afterwards.
    EXPECT_GT(r.replay.replayed, 0);
    EXPECT_GE(r.replay.audits, 1);
    EXPECT_EQ(r.replay.auditMismatches, 1);

    // After the fallback both worlds execute the flipped behaviour; late
    // iterations must agree with a never-replayed run up to a time shift.
    Session off(buildModel(ModelKind::ResNet50, 160), replayConfig(false),
                std::make_unique<FlippingPolicy>(kFlip));
    SessionResult roff = off.run(kIters);
    ASSERT_FALSE(roff.oom) << roff.oomMessage;
    const IterationStats &x = r.iterations.back();
    const IterationStats &y = roff.iterations.back();
    EXPECT_EQ(x.duration(), y.duration());
    EXPECT_EQ(x.swapOutBytes, y.swapOutBytes);
    EXPECT_EQ(x.swapInBytes, y.swapInBytes);
    EXPECT_EQ(x.kernelBusy, y.kernelBusy);
}

// --- trace re-emission -------------------------------------------------

TEST(ReplayTrace, SynthesizedIterationsReEmitEvents)
{
    constexpr int kIters = 20;
    Session s(buildModel(ModelKind::Vgg16, 230),
              replayConfig(true, obs::ObsLevel::Full), makeCapuchinPolicy());
    SessionResult r = s.run(kIters);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    ASSERT_GT(r.replay.replayed, 0);

    bool saw_replay_mark = false;
    bool saw_last_iteration_marker = false;
    std::string last = "iteration:" + std::to_string(kIters - 1);
    const obs::Tracer &tracer = s.executor().obs().tracer;
    tracer.forEach([&](const obs::TraceEvent &ev) {
        const std::string &name = tracer.name(ev.name);
        if (ev.track == obs::kTrackReplay && name.starts_with("replay.iter:"))
            saw_replay_mark = true;
        if (name == last) {
            saw_last_iteration_marker = true;
            // Re-emitted with shifted ticks: the marker must sit at the
            // synthesized iteration's true begin.
            EXPECT_EQ(ev.ts, r.iterations.back().begin);
            EXPECT_EQ(ev.dur, r.iterations.back().duration());
        }
    });
    EXPECT_TRUE(saw_replay_mark);
    EXPECT_TRUE(saw_last_iteration_marker);
}

// --- fault plans force replay off --------------------------------------

TEST(ReplayFaults, EveryChaosPlanDisarmsReplay)
{
    const char *kPlans[] = {
        "pcie:0.5@500-2500",
        "jitter:0.15",
        "hostcap:4GiB",
        "swapfail:p=0.05,retries=3",
        "pcie:0.6@1000-3000;jitter:0.1;swapfail:p=0.02,retries=2",
    };
    for (const char *plan : kPlans) {
        SCOPED_TRACE(plan);
        ExecConfig cfg = replayConfig(true);
        cfg.faults = faults::parseFaultSpec(plan);
        cfg.seed = 42;
        Session s(buildModel(ModelKind::Vgg16, 230), cfg,
                  makeCapuchinPolicy());
        SessionResult r = s.run(8);
        EXPECT_FALSE(s.executor().replayArmed());
        EXPECT_EQ(r.replay.replayed, 0);
        EXPECT_EQ(r.replay.audits, 0);
    }
}
