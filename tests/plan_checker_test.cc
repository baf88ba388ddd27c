/**
 * @file
 * Plan verifier (capulint) tests: every rule must reject its seeded-bad
 * plan, a well-formed plan must pass, and — the cross-cutting guarantee —
 * every model in the zoo must produce a lint-clean plan under Capuchin
 * and the baselines at an oversubscribed batch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "analysis/lint_hooks.hh"
#include "analysis/plan_checker.hh"
#include "core/capuchin_policy.hh"
#include "core/policy_maker.hh"
#include "core/trace_io.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "policy/checkpointing_policy.hh"
#include "policy/vdnn_policy.hh"
#include "support/logging.hh"
#include "support/strfmt.hh"
#include "support/units.hh"

using namespace capu;

namespace
{

/**
 * Lineage images -> t1 -> t2 -> t3 plus a synthetic trace; tests seed
 * plans by hand and run the checker against it.
 */
struct CheckerFixture
{
    Graph g{"checker"};
    TensorId images, t1, t2, t3;
    AccessTracker tracker;
    std::uint64_t bytes = 64_MiB;

    CheckerFixture()
    {
        images = g.addTensor("images", bytes, TensorKind::FeatureMap);
        Operation src;
        src.name = "source";
        src.category = OpCategory::Source;
        src.outputs = {images};
        src.recomputable = false;
        g.addOp(src);
        t1 = addLayer("op1", {images});
        t2 = addLayer("op2", {t1});
        t3 = addLayer("op3", {t2});
    }

    TensorId
    addLayer(const std::string &name, std::vector<TensorId> ins)
    {
        TensorId out =
            g.addTensor(name + ":out", bytes, TensorKind::FeatureMap);
        Operation op;
        op.name = name;
        op.category = OpCategory::Elementwise;
        op.inputs = std::move(ins);
        op.outputs = {out};
        op.recomputable = true;
        g.addOp(op);
        return out;
    }

    void
    access(TensorId tensor, int index, Tick time)
    {
        AccessRecord r;
        r.tensor = tensor;
        r.accessIndex = index;
        r.time = time;
        r.isOutput = index == 1;
        r.op = g.tensor(tensor).producer;
        tracker.record(r);
    }

    /** Produce + forward read + one backward read each, reverse order. */
    void
    standardTrace()
    {
        access(images, 1, 0);
        access(images, 2, 50);
        access(t1, 1, 100);
        access(t1, 2, 200);
        access(t2, 1, 300);
        access(t2, 2, 400);
        access(t3, 1, 500);
        access(t3, 2, 600);
        access(t3, 3, 10000);
        access(t2, 3, 11000);
        access(t1, 3, 12000);
    }

    PlannedEviction
    swapItem(TensorId t, int evict_idx, int back_idx, Tick evict_time,
             Tick back_time, Tick swap_time)
    {
        PlannedEviction item;
        item.tensor = t;
        item.mode = RegenChoice::Swap;
        item.bytes = bytes;
        item.evictAfterAccess = evict_idx;
        item.backAccess = back_idx;
        item.evictTime = evict_time;
        item.backTime = back_time;
        item.swapTime = swap_time;
        return item;
    }

    PlannedEviction
    recomputeItem(TensorId t, int evict_idx, int back_idx, Tick evict_time,
                  Tick back_time)
    {
        PlannedEviction item;
        item.tensor = t;
        item.mode = RegenChoice::Recompute;
        item.bytes = bytes;
        item.evictAfterAccess = evict_idx;
        item.backAccess = back_idx;
        item.evictTime = evict_time;
        item.backTime = back_time;
        item.recomputeTime = 10;
        return item;
    }

    LintReport
    check(const Plan &plan, Tick swap_time = 100,
          PlanCheckerOptions opts = {})
    {
        PlanChecker checker(g, tracker, opts);
        return checker.check(
            plan, [&](TensorId) { return bytes; },
            [=](std::uint64_t) { return swap_time; });
    }
};

bool
hasRule(const LintReport &report, const std::string &rule,
        LintSeverity sev)
{
    for (const auto &d : report.diags) {
        if (d.rule == rule && d.severity == sev)
            return true;
    }
    return false;
}

std::size_t
countRule(const LintReport &report, const std::string &rule)
{
    return static_cast<std::size_t>(
        std::count_if(report.diags.begin(), report.diags.end(),
                      [&](const auto &d) { return d.rule == rule; }));
}

} // namespace

// --- structural rules ---

TEST(PlanChecker, CleanSwapPlanPasses)
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    // Evict t1 after its forward read, back at the backward read; the
    // 11800-tick interval hides a 100-tick swap; in-trigger at t3's
    // backward read (10000), between eviction and back-access.
    auto item = f.swapItem(f.t1, 2, 3, 200, 12000, 100);
    item.triggerTensor = f.t3;
    item.triggerAccess = 3;
    plan.items.push_back(item);
    plan.plannedBytes = plan.targetBytes = f.bytes;

    LintReport report = f.check(plan);
    EXPECT_TRUE(report.clean()) << report.summary();
    EXPECT_EQ(report.diags.size(), 0u);
}

TEST(PlanChecker, UseAfterEvictRejected)
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    // Evict t2 after production (#1) but regenerate only at the backward
    // read (#3): the forward read #2 falls inside the hole.
    plan.items.push_back(f.swapItem(f.t2, 1, 3, 300, 11000, 100));

    LintReport report = f.check(plan);
    EXPECT_TRUE(hasRule(report, "use-after-evict", LintSeverity::Error));
    EXPECT_FALSE(report.clean());
}

TEST(PlanChecker, DuplicateItemRejected)
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    plan.items.push_back(f.swapItem(f.t1, 2, 3, 200, 12000, 100));
    plan.items.push_back(f.swapItem(f.t1, 2, 3, 200, 12000, 100));

    LintReport report = f.check(plan);
    EXPECT_TRUE(hasRule(report, "duplicate-item", LintSeverity::Error));
}

TEST(PlanChecker, MissingAccessRejected)
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    plan.items.push_back(f.swapItem(f.t1, 2, 9, 200, 12000, 100));

    LintReport report = f.check(plan);
    EXPECT_TRUE(hasRule(report, "missing-access", LintSeverity::Error));
}

TEST(PlanChecker, BadIntervalRejected)
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    plan.items.push_back(f.swapItem(f.t1, 3, 2, 12000, 200, 100));

    LintReport report = f.check(plan);
    EXPECT_TRUE(hasRule(report, "bad-interval", LintSeverity::Error));
}

TEST(PlanChecker, TimeInversionIsAdvisory)
{
    CheckerFixture f;
    f.standardTrace();
    // Seed an extra access whose corrected timestamp runs backwards:
    // index #4 follows #3 but is stamped 1000 ticks earlier.
    f.access(f.t3, 4, 9000);
    Plan plan;
    auto item = f.swapItem(f.t3, 3, 4, 10000, 9000, 100);
    // The inverted pair makes FT meaningless (and negative); budget the
    // exposure so only the inversion itself is under test.
    item.estimatedOverhead = 5000;
    plan.items.push_back(item);

    LintReport report = f.check(plan);
    EXPECT_TRUE(hasRule(report, "time-inversion", LintSeverity::Warning));
    EXPECT_EQ(report.errorCount(), 0u) << report.summary();
}

// --- prefetch rules ---

TEST(PlanChecker, NegativeFtClaimedHiddenRejected)
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    // Interval t2 #2 -> #3 is 10600 ticks; a 6000-tick swap cannot fit
    // the 12000-tick round trip. estimatedOverhead = 0 claims the swap is
    // hidden: the feedback loop can never make that true.
    auto item = f.swapItem(f.t2, 2, 3, 400, 11000, 6000);
    item.estimatedOverhead = 0;
    item.triggerTensor = f.t3;
    item.triggerAccess = 3;
    plan.items.push_back(item);

    LintReport report = f.check(plan, 6000);
    EXPECT_TRUE(
        hasRule(report, "negative-ft-prefetch", LintSeverity::Error));
}

TEST(PlanChecker, BudgetedExposureIsAdvisory)
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    // Same exposed swap, but the plan honestly budgets the exposure
    // (2 * 6000 - 10600 = 1400 ticks).
    auto item = f.swapItem(f.t2, 2, 3, 400, 11000, 6000);
    item.estimatedOverhead = 1400;
    item.triggerTensor = f.t3;
    item.triggerAccess = 3;
    plan.items.push_back(item);

    LintReport report = f.check(plan, 6000);
    EXPECT_TRUE(hasRule(report, "exposed-swap", LintSeverity::Warning));
    EXPECT_EQ(report.errorCount(), 0u) << report.summary();
}

TEST(PlanChecker, DanglingTriggerRejected)
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    auto item = f.swapItem(f.t1, 2, 3, 200, 12000, 100);
    item.triggerTensor = f.t3;
    item.triggerAccess = 9; // no such access in the trace
    plan.items.push_back(item);

    LintReport report = f.check(plan);
    EXPECT_TRUE(
        hasRule(report, "prefetch-missing-trigger", LintSeverity::Error));
}

TEST(PlanChecker, LateAndDeadTriggersAreAdvisory)
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    // images#2 at t=50 fires before t1's eviction at 200: a no-op.
    auto dead = f.swapItem(f.t1, 2, 3, 200, 12000, 100);
    dead.triggerTensor = f.images;
    dead.triggerAccess = 2;
    plan.items.push_back(dead);
    // t1#3 at 12000 fires after t2's back-access at 11000: too late.
    auto late = f.swapItem(f.t2, 2, 3, 400, 11000, 100);
    late.triggerTensor = f.t1;
    late.triggerAccess = 3;
    plan.items.push_back(late);

    LintReport report = f.check(plan);
    EXPECT_TRUE(
        hasRule(report, "prefetch-dead-trigger", LintSeverity::Warning));
    EXPECT_TRUE(
        hasRule(report, "prefetch-late-trigger", LintSeverity::Warning));
    EXPECT_EQ(report.errorCount(), 0u) << report.summary();
}

// --- recompute rules ---

TEST(PlanChecker, EvictedRecomputeSourceRejected)
{
    CheckerFixture f;
    // t1 and images die before t2's backward read: replaying t2 chains to
    // op1(images), and images' producer is a non-recomputable source.
    f.access(f.images, 1, 0);
    f.access(f.images, 2, 50);
    f.access(f.t1, 1, 100);
    f.access(f.t1, 2, 200);
    f.access(f.t2, 1, 300);
    f.access(f.t2, 2, 400);
    f.access(f.t2, 3, 10000);

    Plan plan;
    plan.items.push_back(f.recomputeItem(f.t2, 2, 3, 400, 10000));

    LintReport report = f.check(plan);
    EXPECT_TRUE(
        hasRule(report, "recompute-source-lost", LintSeverity::Error));
}

TEST(PlanChecker, ResidentSourceAccepted)
{
    CheckerFixture f;
    f.standardTrace(); // t1 alive until 12000 > replay at 11000
    Plan plan;
    plan.items.push_back(f.recomputeItem(f.t2, 2, 3, 400, 11000));

    LintReport report = f.check(plan);
    EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(PlanChecker, SwapBackedSourceAccepted)
{
    CheckerFixture f;
    // t1's last live stretch ends at 500, before t2's replay at 11000 —
    // but a swap item covers t1 across that time, so the host copy
    // satisfies the replay via an on-demand swap-in.
    f.access(f.images, 1, 0);
    f.access(f.t1, 1, 100);
    f.access(f.t1, 2, 500);
    f.access(f.t1, 3, 12000);
    f.access(f.t2, 1, 300);
    f.access(f.t2, 2, 400);
    f.access(f.t2, 3, 11000);

    Plan plan;
    plan.items.push_back(f.swapItem(f.t1, 2, 3, 500, 12000, 100));
    plan.items.push_back(f.recomputeItem(f.t2, 2, 3, 400, 11000));

    LintReport report = f.check(plan);
    EXPECT_EQ(report.errorCount(), 0u) << report.summary();
}

TEST(PlanChecker, RecomputeCycleRejected)
{
    CheckerFixture f;
    // Malformed lineage: a <-> b producer cycle feeding c; both dead at
    // replay time, so the lineage walk must chain through the loop.
    TensorId a = f.g.addTensor("a", f.bytes, TensorKind::FeatureMap);
    TensorId b = f.g.addTensor("b", f.bytes, TensorKind::FeatureMap);
    Operation opa;
    opa.name = "opa";
    opa.category = OpCategory::Elementwise;
    opa.inputs = {b};
    opa.outputs = {a};
    opa.recomputable = true;
    f.g.addOp(opa);
    Operation opb;
    opb.name = "opb";
    opb.category = OpCategory::Elementwise;
    opb.inputs = {a};
    opb.outputs = {b};
    opb.recomputable = true;
    f.g.addOp(opb);
    TensorId c = f.addLayer("opc", {a});

    f.access(a, 1, 0);
    f.access(a, 2, 10);
    f.access(b, 1, 20);
    f.access(b, 2, 30);
    f.access(c, 1, 100);
    f.access(c, 2, 200);
    f.access(c, 3, 10000);

    Plan plan;
    plan.items.push_back(f.recomputeItem(c, 2, 3, 200, 10000));

    LintReport report = f.check(plan);
    EXPECT_TRUE(hasRule(report, "recompute-cycle", LintSeverity::Error));
}

TEST(PlanChecker, DeepChainIsAdvisory)
{
    CheckerFixture f;
    // images stays alive across the replay, but every link of a chain of
    // kMaxRecomputeChain + 1 ops above it is dead by refcount: replaying
    // the top one needs one op more than the budget allows.
    f.access(f.images, 1, 0);
    TensorId top = f.images;
    Tick t = 10;
    for (std::size_t i = 0; i <= kMaxRecomputeChain; ++i) {
        top = f.addLayer("link" + std::to_string(i), {top});
        f.access(top, 1, t);
        f.access(top, 2, t + 1);
        t += 10;
    }
    f.access(top, 3, 1000000);
    f.access(f.images, 2, 2000000);

    Plan plan;
    plan.items.push_back(f.recomputeItem(top, 2, 3, t - 9, 1000000));
    LintReport report = f.check(plan);
    EXPECT_TRUE(hasRule(report, "recompute-chain-too-long",
                        LintSeverity::Warning));
    EXPECT_EQ(report.errorCount(), 0u) << report.summary();
}

// --- memory window rules ---

TEST(PlanChecker, UndeliveredOvercommitRejected)
{
    CheckerFixture f;
    f.standardTrace();
    // t1, t2, t3 overlap over [500, 10000] for a 3-tensor peak; capacity
    // fits two. Evicting t3 over (600, 10000) frees nothing at the
    // residual peak [500, 700) — the claimed savings are never delivered,
    // and no amount of re-planning around this plan's numbers fixes that.
    Plan plan;
    plan.items.push_back(f.swapItem(f.t3, 2, 3, 600, 10000, 100));
    plan.plannedBytes = plan.targetBytes = f.bytes;

    PlanCheckerOptions opts;
    opts.gpuCapacity = 2 * f.bytes;
    LintReport report = f.check(plan, 100, opts);
    EXPECT_TRUE(
        hasRule(report, "memory-overcommit", LintSeverity::Error));
}

TEST(PlanChecker, DeliveredOvercommitIsAdvisory)
{
    CheckerFixture f;
    f.standardTrace();
    // Squeeze capacity to one tensor: the replayed curve still overshoots,
    // but the eviction window spans the peak and delivers the full claimed
    // savings — the residual overshoot is passive mode's (and the
    // refinement loop's) problem, not a plan lie.
    Plan plan;
    plan.items.push_back(f.swapItem(f.t1, 2, 3, 200, 12000, 100));
    plan.plannedBytes = plan.targetBytes = f.bytes;

    PlanCheckerOptions opts;
    opts.gpuCapacity = f.bytes;
    LintReport report = f.check(plan, 100, opts);
    EXPECT_TRUE(
        hasRule(report, "memory-overcommit", LintSeverity::Warning));
    EXPECT_EQ(report.errorCount(), 0u) << report.summary();
}

TEST(PlanChecker, ResidencyWindowBoundsTheReplayedCurve)
{
    // t1 swaps out after #2 (t=200) and back for #3 (t=12000) over a
    // 100-tick transfer: its chunk is free over [300, 11900). Capacity
    // holds one 64 MiB tensor, not two, so a neighbour t2, resident over
    // [first, last + 1), fits exactly when it lives inside that window.
    // Moving either end of t2 by one tick across a window edge flips the
    // verdict, which pins both edges to the tick.
    auto overcommits = [](Tick first, Tick last, bool trigger) {
        CheckerFixture f;
        f.access(f.t1, 1, 100);
        f.access(f.t1, 2, 200);
        f.access(f.t2, 1, first);
        f.access(f.t2, 2, last);
        f.access(f.t3, 1, 11000);
        f.access(f.t1, 3, 12000);
        Plan plan;
        auto item = f.swapItem(f.t1, 2, 3, 200, 12000, 100);
        if (trigger) {
            // An in-trigger inside the window re-acquires the chunk there.
            item.triggerTensor = f.t3;
            item.triggerAccess = 1;
        }
        plan.items.push_back(item);
        plan.plannedBytes = plan.targetBytes = f.bytes;
        PlanCheckerOptions opts;
        opts.gpuCapacity = f.bytes * 3 / 2;
        PlanChecker checker(f.g, f.tracker, opts);
        // The trigger tensor holds no bytes: only t1 and t2 compete.
        LintReport report = checker.check(
            plan,
            [&](TensorId id) { return id == f.t3 ? 0 : f.bytes; },
            [](std::uint64_t) { return Tick(100); });
        return hasRule(report, "memory-overcommit", LintSeverity::Error);
    };
    // freed-at = evict + SwapTime = 300.
    EXPECT_TRUE(overcommits(299, 5000, false));
    EXPECT_FALSE(overcommits(300, 5000, false));
    // back-alloc-at = back - SwapTime = 11900.
    EXPECT_FALSE(overcommits(5000, 11899, false));
    EXPECT_TRUE(overcommits(5000, 11900, false));
    // The in-trigger at 11000 fires inside the window and moves
    // back-alloc-at there.
    EXPECT_FALSE(overcommits(5000, 10999, true));
    EXPECT_TRUE(overcommits(5000, 11000, true));
}

TEST(PlanChecker, HostOvercommitRejected)
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    auto item = f.swapItem(f.t1, 2, 3, 200, 12000, 100);
    item.triggerTensor = f.t3;
    item.triggerAccess = 3;
    plan.items.push_back(item);
    plan.plannedBytes = plan.targetBytes = f.bytes;

    PlanCheckerOptions opts;
    opts.hostCapacity = f.bytes / 2; // staging cannot hold the swap
    LintReport report = f.check(plan, 100, opts);
    EXPECT_TRUE(hasRule(report, "host-overcommit", LintSeverity::Error));
}

// --- offline reconstruction ---

TEST(PlanChecker, ReconstructedGraphPlansAndLintsClean)
{
    // The capulint tool replans from a serialized trace with a graph
    // rebuilt from lineage records alone; the result must survive the
    // same rules as the live pipeline.
    ExecConfig cfg;
    auto policy = makeCapuchinPolicy();
    auto *capu = static_cast<CapuchinPolicy *>(policy.get());
    Session session(buildModel(ModelKind::Vgg16, 64), cfg,
                    std::move(policy));
    auto r = session.run(1);
    ASSERT_FALSE(r.oom) << r.oomMessage;

    TensorTrace trace = captureTrace(capu->tracker(), session.graph());
    Graph rebuilt = reconstructGraph(trace);
    ASSERT_GT(rebuilt.numTensors(), 0u);

    AccessTracker tracker = trace.toTracker();
    auto bytes_of = [&](TensorId id) { return rebuilt.tensor(id).bytes; };
    auto swap_of = [](std::uint64_t b) { return static_cast<Tick>(b / 12); };
    PolicyMaker maker(rebuilt, tracker, PolicyMakerOptions{});
    Plan plan = maker.build(512_MiB, bytes_of, swap_of, 8_GiB);
    EXPECT_FALSE(plan.items.empty());

    PlanCheckerOptions opts;
    opts.gpuCapacity = 8_GiB;
    PlanChecker checker(rebuilt, tracker, opts);
    LintReport report = checker.check(plan, bytes_of, swap_of);
    EXPECT_EQ(report.errorCount(), 0u) << report.summary();
}

// --- one verifier: each fault is reported under one rule ---

TEST(PlanChecker, EachFaultReportedUnderOneRule)
{
    // A real plan corrupted three ways: one item's back-access stretched
    // over live accesses, one item duplicated, one item's interval
    // emptied. Every fault must surface, and no (tensor, access) pair may
    // carry errors under two rule names.
    auto policy = makeCapuchinPolicy();
    auto *capu = static_cast<CapuchinPolicy *>(policy.get());
    Session session(buildModel(ModelKind::ResNet50, 240), ExecConfig{},
                    std::move(policy));
    SessionResult r = session.run(2);
    ASSERT_FALSE(r.oom) << r.oomMessage;

    const AccessTracker &tracker = capu->tracker();
    Plan plan = capu->plan();
    const std::size_t n = plan.items.size();
    ASSERT_GE(n, 3u);
    std::size_t stretched = n;
    for (std::size_t i = 0; i < n && stretched == n; ++i) {
        const auto &recs = tracker.accessesOf(plan.items[i].tensor);
        if (recs.back().accessIndex > plan.items[i].backAccess)
            stretched = i;
    }
    ASSERT_LT(stretched, n) << "no item has an access past its back-access";
    PlannedEviction &hole = plan.items[stretched];
    hole.backAccess = tracker.accessesOf(hole.tensor).back().accessIndex;
    PlannedEviction &empty = plan.items[(stretched + 1) % n];
    empty.backAccess = empty.evictAfterAccess;
    plan.items.push_back(plan.items[(stretched + 2) % n]);

    LintHookOptions hook;
    hook.panicOnError = false;
    hook.printFindings = false;
    LintReport report = runPlanLint(plan, session.graph(), tracker,
                                    session.executor(), hook, "test");
    EXPECT_TRUE(hasRule(report, "use-after-evict", LintSeverity::Error));
    EXPECT_TRUE(hasRule(report, "bad-interval", LintSeverity::Error));
    EXPECT_TRUE(hasRule(report, "duplicate-item", LintSeverity::Error));

    std::map<std::pair<TensorId, int>, std::set<std::string>> rules;
    for (const LintDiagnostic &d : report.diags) {
        if (d.severity == LintSeverity::Error)
            rules[{d.tensor, d.accessIndex}].insert(d.rule);
    }
    for (const auto &[at, names] : rules) {
        std::string joined;
        for (const std::string &name : names)
            joined += " " + name;
        EXPECT_EQ(names.size(), 1u) << "tensor " << at.first << " access "
                                    << at.second << ":" << joined;
    }
}

// --- the lifetime cases: the residency-window analysis that used to run
// as its own pass, now graded on the checker's rules ---

namespace
{

/** a accessed at 10/20/30/40, b at 15/30; 1 MiB each, SwapTime 2. */
struct LifetimeFixture
{
    Graph graph{"lifetime-test"};
    AccessTracker tracker;
    TensorId a = kInvalidTensor;
    TensorId b = kInvalidTensor;

    LifetimeFixture()
    {
        a = graph.addTensor("a", 1_MiB, TensorKind::FeatureMap);
        b = graph.addTensor("b", 1_MiB, TensorKind::FeatureMap);
        record(a, 1, 10, true);
        record(a, 2, 20, false);
        record(a, 3, 30, false);
        record(a, 4, 40, false);
        record(b, 1, 15, true);
        record(b, 2, 30, false);
    }

    void
    record(TensorId t, int idx, Tick time, bool out)
    {
        AccessRecord r;
        r.tensor = t;
        r.accessIndex = idx;
        r.time = time;
        r.isOutput = out;
        tracker.record(r);
    }

    LintReport
    check(const Plan &plan, PlanCheckerOptions opts = {})
    {
        PlanChecker checker(graph, tracker, opts);
        return checker.check(
            plan, [this](TensorId id) { return graph.tensor(id).bytes; },
            [](std::uint64_t) { return Tick(2); });
    }

    PlannedEviction
    swapItem(TensorId t, int evict_after, int back)
    {
        PlannedEviction item;
        item.tensor = t;
        item.mode = RegenChoice::Swap;
        item.bytes = graph.tensor(t).bytes;
        item.evictAfterAccess = evict_after;
        item.backAccess = back;
        return item;
    }
};

} // namespace

TEST(Lifetime, AccessInsideEvictedIntervalIsUseAfterFree)
{
    LifetimeFixture f;
    Plan plan;
    plan.items.push_back(f.swapItem(f.a, 1, 4)); // accesses 2 and 3 fall in
    LintReport r = f.check(plan);
    // One error per hole access, under one rule name.
    EXPECT_EQ(countRule(r, "use-after-evict"), 2u) << r.summary();
    EXPECT_EQ(r.errorCount(), 2u) << r.summary();
}

TEST(Lifetime, EmptyOrInvertedIntervalFlagged)
{
    LifetimeFixture f;
    Plan empty;
    empty.items.push_back(f.swapItem(f.a, 3, 3));
    EXPECT_TRUE(hasRule(f.check(empty), "bad-interval", LintSeverity::Error));

    Plan inverted;
    inverted.items.push_back(f.swapItem(f.a, 4, 2));
    EXPECT_TRUE(
        hasRule(f.check(inverted), "bad-interval", LintSeverity::Error));
}

TEST(Lifetime, MissingAccessFlagged)
{
    LifetimeFixture f;
    Plan plan;
    plan.items.push_back(f.swapItem(f.a, 3, 9));
    EXPECT_TRUE(
        hasRule(f.check(plan), "missing-access", LintSeverity::Error));
}

TEST(Lifetime, IntervalSetsAndPeakBound)
{
    LifetimeFixture f;
    // Capacity holds one tensor, not two (5% slack included).
    PlanCheckerOptions opts;
    opts.gpuCapacity = 3_MiB / 2;
    opts.hostCapacity = 1_MiB / 2;

    // No plan: both tensors fully resident; the peak is the overlap of
    // a (10..40) and b (15..30), first reached when b is produced.
    LintReport none = f.check(Plan{}, opts);
    ASSERT_EQ(countRule(none, "memory-overcommit"), 1u) << none.summary();
    EXPECT_NE(none.diags[0].message.find(
                  fmt("peaks at {} (reached at {})", formatBytes(2_MiB),
                      formatTicks(15))),
              std::string::npos)
        << none.diags[0].message;
    EXPECT_EQ(countRule(none, "host-overcommit"), 0u);

    // Evicting a across (1, 4) removes the overlap: a's chunk is free
    // between freedAt (10+2) and backAllocAt (40-2), covering b entirely;
    // its host copy is staged from the eviction on. a's hole accesses
    // make the plan invalid, but the window math is unaffected.
    Plan plan;
    plan.items.push_back(f.swapItem(f.a, 1, 4));
    LintReport swapped = f.check(plan, opts);
    EXPECT_EQ(countRule(swapped, "memory-overcommit"), 0u)
        << swapped.summary();
    EXPECT_TRUE(
        hasRule(swapped, "host-overcommit", LintSeverity::Error));
}

TEST(Lifetime, LostRecomputeSourceFlagged)
{
    Graph g("lineage");
    TensorId s = g.addTensor("s", 1_MiB, TensorKind::FeatureMap);
    TensorId r = g.addTensor("r", 1_MiB, TensorKind::FeatureMap);
    Operation src;
    src.name = "source";
    src.category = OpCategory::Source;
    src.recomputable = false;
    src.outputs = {s};
    g.addOp(src);
    Operation op;
    op.name = "op";
    op.inputs = {s};
    op.outputs = {r};
    g.addOp(op);

    AccessTracker tracker;
    auto record = [&](TensorId t, int idx, Tick time, bool out) {
        AccessRecord a;
        a.tensor = t;
        a.accessIndex = idx;
        a.time = time;
        a.isOutput = out;
        tracker.record(a);
    };
    record(s, 1, 1, true);
    record(s, 2, 2, false);
    record(r, 1, 3, true);
    record(r, 2, 50, false);

    Plan plan;
    PlannedEviction item;
    item.tensor = r;
    item.mode = RegenChoice::Recompute;
    item.bytes = 1_MiB;
    item.evictAfterAccess = 1;
    item.backAccess = 2;
    plan.items.push_back(item);

    PlanChecker checker(g, tracker);
    LintReport res = checker.check(
        plan, [&](TensorId id) { return g.tensor(id).bytes; },
        [](std::uint64_t) { return Tick(2); });
    // s is dead at replay time (last access 2 < 50), has no host copy,
    // and its producer cannot be replayed: one finding, on r.
    ASSERT_EQ(res.errorCount(), 1u) << res.summary();
    EXPECT_EQ(res.diags[0].rule, "recompute-source-lost");
    EXPECT_EQ(res.diags[0].tensor, r);
}

// --- the zoo sweep: every policy's plan is lint-clean end to end ---

namespace
{

std::int64_t
oversubscribedBatch(ModelKind kind)
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

/** Panic on errors, keep warnings quiet: the sweep asserts soundness. */
LintHookOptions
strictHook()
{
    LintHookOptions hook;
    hook.panicOnError = true;
    hook.printFindings = false;
    return hook;
}

} // namespace

class LintSweepTest : public ::testing::TestWithParam<ModelKind>
{
};

TEST_P(LintSweepTest, CapuchinPlanIsLintClean)
{
    ModelKind kind = GetParam();
    CapuchinOptions opts;
    enablePlanLint(opts, strictHook());
    Session session(buildModel(kind, oversubscribedBatch(kind)),
                    ExecConfig{}, makeCapuchinPolicy(opts));
    // An error-level finding panics out of run(); OOM is reported in r.
    SessionResult r = session.run(4);
    EXPECT_FALSE(r.oom) << r.oomMessage;
}

INSTANTIATE_TEST_SUITE_P(AllModels, LintSweepTest,
                         ::testing::Values(ModelKind::Vgg16,
                                           ModelKind::ResNet50,
                                           ModelKind::ResNet152,
                                           ModelKind::InceptionV3,
                                           ModelKind::InceptionV4,
                                           ModelKind::DenseNet121,
                                           ModelKind::BertBase),
                         [](const auto &info) {
                             std::string name = modelName(info.param);
                             std::erase_if(name, [](unsigned char c) {
                                 return std::isalnum(c) == 0;
                             });
                             return name;
                         });

TEST(LintSweepBaselines, VdnnPlanIsLintClean)
{
    for (ModelKind kind : {ModelKind::Vgg16, ModelKind::ResNet50,
                           ModelKind::DenseNet121}) {
        auto policy = std::make_unique<VdnnPolicy>();
        enablePlanLint(*policy, strictHook());
        Session session(buildModel(kind, oversubscribedBatch(kind)),
                        ExecConfig{}, std::move(policy));
        SessionResult r = session.run(2);
        EXPECT_FALSE(r.oom) << modelName(kind) << ": " << r.oomMessage;
    }
}

TEST(LintSweepBaselines, CheckpointingPlanIsLintClean)
{
    for (ModelKind kind : {ModelKind::Vgg16, ModelKind::ResNet50,
                           ModelKind::DenseNet121}) {
        auto policy = std::make_unique<CheckpointingPolicy>(
            CheckpointingPolicy::Mode::Memory);
        enablePlanLint(*policy, strictHook());
        Session session(buildModel(kind, oversubscribedBatch(kind)),
                        ExecConfig{}, std::move(policy));
        SessionResult r = session.run(2);
        EXPECT_FALSE(r.oom) << modelName(kind) << ": " << r.oomMessage;
    }
}
