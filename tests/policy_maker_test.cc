/**
 * @file
 * Tests for the Tensor Access Tracker and Policy Maker: FT ranking, the
 * MSPS/Algorithm-2 recompute machinery, in-trigger placement, the
 * swap/recompute crossover, and the incremental selection engine against
 * a full-rescan oracle on every zoo model and on lanes with tied anchors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>

#include "core/access_tracker.hh"
#include "core/capuchin_policy.hh"
#include "core/plan_io.hh"
#include "core/policy_maker.hh"
#include "exec/session.hh"
#include "graph/graph.hh"
#include "models/zoo.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/units.hh"

using namespace capu;

namespace
{

/**
 * Builds a 4-tensor lineage images -> T1 -> T2 -> T3 and a synthetic
 * access trace with controllable gaps, then lets tests run the planner.
 */
struct PlannerFixture
{
    Graph g{"planner"};
    TensorId images, t1, t2, t3;
    AccessTracker tracker;
    std::uint64_t bytes = 64_MiB;

    PlannerFixture()
    {
        images = g.addTensor("images", bytes, TensorKind::FeatureMap);
        Operation src;
        src.name = "source";
        src.category = OpCategory::Source;
        src.outputs = {images};
        src.recomputable = false;
        g.addOp(src);
        t1 = addLayer("op1", images);
        t2 = addLayer("op2", t1);
        t3 = addLayer("op3", t2);
    }

    TensorId
    addLayer(const std::string &name, TensorId in)
    {
        TensorId out = g.addTensor(name + ":out", bytes,
                                   TensorKind::FeatureMap);
        Operation op;
        op.name = name;
        op.category = OpCategory::Elementwise;
        op.inputs = {in};
        op.outputs = {out};
        op.flops = 1e6;
        op.memBytes = 1e6;
        op.gradInputs = {in};
        op.savedForBackward = {in};
        g.addOp(op);
        return out;
    }

    /** Record {tensor, accessIndex} at `time`; output iff index == 1. */
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

    Plan
    plan(std::uint64_t target, Tick swap_time_per_tensor,
         std::uint64_t capacity = 1, PolicyMakerOptions opts = {})
    {
        PolicyMaker maker(g, tracker, opts);
        return maker.build(
            target, [&](TensorId) { return bytes; },
            [&](std::uint64_t) { return swap_time_per_tensor; }, capacity);
    }
};

} // namespace

// --- AccessTracker ---

TEST(AccessTracker, RecordsSequencesAndPerTensorLists)
{
    PlannerFixture f;
    f.access(f.t1, 1, 100);
    f.access(f.t1, 2, 500);
    f.access(f.t2, 1, 200);
    EXPECT_EQ(f.tracker.size(), 3u);
    EXPECT_EQ(f.tracker.accessesOf(f.t1).size(), 2u);
    EXPECT_EQ(f.tracker.accessesOf(f.t2).size(), 1u);
    EXPECT_TRUE(f.tracker.accessesOf(f.t3).empty());
}

TEST(AccessTracker, OpDurationFromAccessTimes)
{
    PlannerFixture f;
    // op2 reads t1 at 100 (input) and writes t2 at 400 (output).
    AccessRecord in;
    in.tensor = f.t1;
    in.accessIndex = 2;
    in.time = 100;
    in.isOutput = false;
    in.op = f.g.tensor(f.t2).producer;
    f.tracker.record(in);
    f.access(f.t2, 1, 400);
    EXPECT_EQ(f.tracker.opDuration(f.g.tensor(f.t2).producer), 300u);
    EXPECT_TRUE(f.tracker.hasOpDuration(f.g.tensor(f.t2).producer));
    EXPECT_FALSE(f.tracker.hasOpDuration(f.g.tensor(f.t1).producer));
}

TEST(AccessTracker, PeakWindowDetection)
{
    PlannerFixture f;
    // t1 alive [100, 900], t2 alive [200, 800], t3 alive [300, 400]:
    // usage crosses 2 x 64 MiB during [200, 800].
    f.access(f.t1, 1, 100);
    f.access(f.t2, 1, 200);
    f.access(f.t3, 1, 300);
    f.access(f.t3, 2, 400);
    f.access(f.t2, 2, 800);
    f.access(f.t1, 2, 900);
    auto win = f.tracker.peakWindow([&](TensorId) { return f.bytes; },
                                    f.bytes * 2);
    ASSERT_TRUE(win.valid);
    EXPECT_EQ(win.lo, 300u);
    EXPECT_GE(win.peakBytes, 3 * f.bytes);
}

TEST(AccessTracker, PeakWindowInvalidWhenUnderThreshold)
{
    PlannerFixture f;
    f.access(f.t1, 1, 100);
    f.access(f.t1, 2, 200);
    auto win = f.tracker.peakWindow([&](TensorId) { return f.bytes; },
                                    f.bytes * 10);
    EXPECT_FALSE(win.valid);
}

TEST(AccessTracker, ResetClearsEverything)
{
    PlannerFixture f;
    f.access(f.t1, 1, 100);
    f.tracker.reset();
    EXPECT_TRUE(f.tracker.empty());
    EXPECT_TRUE(f.tracker.accessesOf(f.t1).empty());
}

// --- PolicyMaker: swap path ---

TEST(PolicyMaker, EmptyPlanWithZeroTarget)
{
    PlannerFixture f;
    f.access(f.t1, 1, 0);
    f.access(f.t1, 2, 1000);
    auto plan = f.plan(0, 10);
    EXPECT_TRUE(plan.items.empty());
}

TEST(PolicyMaker, PicksLargestGapTensorForSwap)
{
    PlannerFixture f;
    Tick ms = kTickPerMs;
    // t1: gap 100 ms; t2: gap 10 ms; t3: gap 2 ms. Swap time 1 ms.
    f.access(f.t1, 1, 0);
    f.access(f.t2, 1, 1 * ms);
    f.access(f.t3, 1, 2 * ms);
    f.access(f.t3, 2, 4 * ms);
    f.access(f.t2, 2, 11 * ms);
    f.access(f.t1, 2, 100 * ms);
    auto plan = f.plan(f.bytes, 1 * ms); // one tensor suffices
    ASSERT_EQ(plan.items.size(), 1u);
    EXPECT_EQ(plan.items[0].tensor, f.t1);
    EXPECT_EQ(plan.items[0].mode, RegenChoice::Swap);
    EXPECT_EQ(plan.items[0].evictAfterAccess, 1);
    EXPECT_EQ(plan.items[0].backAccess, 2);
    // FT = gap - 2 x SwapTime = 98 ms (Eq. 1).
    EXPECT_EQ(plan.items[0].freeTime, 98 * ms);
    EXPECT_EQ(plan.items[0].estimatedOverhead, 0u);
}

TEST(PolicyMaker, InTriggerBeforeBackAccessBySwapTime)
{
    PlannerFixture f;
    Tick ms = kTickPerMs;
    f.access(f.t1, 1, 0);
    f.access(f.t2, 1, 10 * ms);
    f.access(f.t3, 1, 80 * ms);
    f.access(f.t3, 2, 85 * ms);
    f.access(f.t2, 2, 90 * ms);
    f.access(f.t1, 2, 100 * ms);
    auto plan = f.plan(f.bytes, 10 * ms);
    ASSERT_EQ(plan.items.size(), 1u);
    const auto &item = plan.items[0];
    // Desired fetch start: 100 - 10 = 90 ms; the latest access at or
    // before that is t2's back-access at 90 ms.
    EXPECT_EQ(item.desiredSwapInStart, 90 * ms);
    EXPECT_EQ(item.triggerTensor, f.t2);
    EXPECT_EQ(item.triggerAccess, 2);
}

TEST(PolicyMaker, RepickTriggerAfterFeedbackShift)
{
    PlannerFixture f;
    Tick ms = kTickPerMs;
    f.access(f.t1, 1, 0);
    f.access(f.t2, 1, 10 * ms);
    f.access(f.t3, 1, 80 * ms);
    f.access(f.t3, 2, 85 * ms);
    f.access(f.t2, 2, 90 * ms);
    f.access(f.t1, 2, 100 * ms);
    auto plan = f.plan(f.bytes, 10 * ms);
    ASSERT_EQ(plan.items.size(), 1u);
    PlannedEviction item = plan.items[0];
    // Feedback shifts the desired start before t2's back-access; the
    // trigger must fall back to an earlier access (t3's at 85 ms).
    item.desiredSwapInStart = 87 * ms;
    PolicyMaker maker(f.g, f.tracker, {});
    ASSERT_TRUE(maker.repickTrigger(item));
    EXPECT_EQ(item.triggerTensor, f.t3);
}

TEST(PolicyMaker, SingleAccessTensorsAreNotCandidates)
{
    PlannerFixture f;
    f.access(f.t1, 1, 0); // never re-accessed
    f.access(f.t2, 1, 100);
    f.access(f.t2, 2, ticksFromMs(50));
    auto plan = f.plan(4 * f.bytes, 10);
    for (const auto &item : plan.items)
        EXPECT_NE(item.tensor, f.t1);
}

// --- PolicyMaker: recompute path ---

TEST(PolicyMaker, ShortGapsFlipToRecompute)
{
    PlannerFixture f;
    Tick ms = kTickPerMs;
    // Gaps of ~4 ms against a 10 ms swap time: swapping cannot be hidden;
    // recomputing (measured op time ~1 ms) is cheaper.
    f.access(f.images, 1, 0);
    f.access(f.images, 2, 1 * ms); // read by op1 at kernel start
    f.access(f.t1, 1, 2 * ms);     // op1 output (duration 2-1 = 1 ms)
    f.access(f.t1, 2, 3 * ms);
    f.access(f.t2, 1, 4 * ms);
    f.access(f.t2, 2, 5 * ms);
    f.access(f.t3, 1, 6 * ms);
    f.access(f.t1, 3, 9 * ms);
    f.access(f.t2, 3, 10 * ms);
    f.access(f.t3, 2, 11 * ms);
    auto plan = f.plan(2 * f.bytes, 10 * ms);
    ASSERT_GE(plan.items.size(), 1u);
    EXPECT_GT(plan.recomputeCount, 0u);
}

TEST(PolicyMaker, SwapOnlyOptionHonored)
{
    PlannerFixture f;
    Tick ms = kTickPerMs;
    f.access(f.images, 1, 0);
    f.access(f.images, 2, 1 * ms);
    f.access(f.t1, 1, 2 * ms);
    f.access(f.t1, 2, 3 * ms);
    f.access(f.t1, 3, 9 * ms);
    PolicyMakerOptions opts;
    opts.enableRecompute = false;
    auto plan = f.plan(f.bytes, 10 * ms, 1, opts);
    for (const auto &item : plan.items)
        EXPECT_EQ(item.mode, RegenChoice::Swap);
}

TEST(PolicyMaker, RecomputeOnlyOptionHonored)
{
    PlannerFixture f;
    Tick ms = kTickPerMs;
    f.access(f.images, 1, 0);
    f.access(f.images, 2, 1 * ms);
    f.access(f.t1, 1, 2 * ms);
    f.access(f.t1, 2, 3 * ms);
    f.access(f.t1, 3, 200 * ms); // giant gap: swap would be free
    PolicyMakerOptions opts;
    opts.enableSwap = false;
    auto plan = f.plan(f.bytes, 1 * ms, 1, opts);
    ASSERT_GE(plan.items.size(), 1u);
    for (const auto &item : plan.items)
        EXPECT_EQ(item.mode, RegenChoice::Recompute);
}

TEST(PolicyMaker, SourceOutputsAreNotRecomputable)
{
    // `images` comes from a Source op: with swap disabled the planner
    // must not emit a recompute item for it.
    PlannerFixture f;
    Tick ms = kTickPerMs;
    f.access(f.images, 1, 0);
    f.access(f.images, 2, 1 * ms);
    f.access(f.images, 3, 50 * ms);
    PolicyMakerOptions opts;
    opts.enableSwap = false;
    auto plan = f.plan(f.bytes, 1 * ms, 1, opts);
    for (const auto &item : plan.items)
        EXPECT_NE(item.tensor, f.images);
}

TEST(PolicyMaker, LaneSaturationShiftsLaterTensorsToRecompute)
{
    // Many same-window swap candidates: per-tensor FT is positive, but the
    // lane FIFO fills; the planner must charge queueing delay and start
    // choosing recomputation for the overflow.
    PlannerFixture f;
    Tick ms = kTickPerMs;
    std::vector<TensorId> extra;
    TensorId prev = f.t3;
    for (int i = 0; i < 12; ++i)
        extra.push_back(prev = f.addLayer("x" + std::to_string(i), prev));

    // All evicted-accesses cluster at ~1 ms; back-accesses at ~100 ms.
    Tick t = 0;
    f.access(f.images, 1, t);
    f.access(f.images, 2, t += 100000);
    f.access(f.t1, 1, t += 100000);
    f.access(f.t1, 2, t += 100000);
    f.access(f.t2, 1, t += 100000);
    f.access(f.t2, 2, t += 100000);
    f.access(f.t3, 1, t += 100000);
    f.access(f.t3, 2, t += 100000);
    for (std::size_t i = 0; i < extra.size(); ++i) {
        f.access(extra[i], 1, t += 100000);
        f.access(extra[i], 2, t += 100000);
    }
    Tick back = 100 * ms;
    f.access(f.t1, 3, back += ms);
    f.access(f.t2, 3, back += ms);
    f.access(f.t3, 3, back += ms);
    for (std::size_t i = 0; i < extra.size(); ++i)
        f.access(extra[i], 3, back += ms);

    // Swap time 8 ms per tensor: 15 swaps = 120 ms per lane against a
    // ~115 ms iteration: saturated.
    auto plan = f.plan(15 * f.bytes, 8 * ms);
    EXPECT_GT(plan.recomputeCount, 0u)
        << "queueing delay failed to flip any candidate to recompute";
}

TEST(PolicyMaker, PlanSummariesAreInformative)
{
    PlannerFixture f;
    f.access(f.t1, 1, 0);
    f.access(f.t1, 2, ticksFromMs(100));
    auto plan = f.plan(f.bytes, ticksFromMs(1));
    EXPECT_NE(plan.summary().find("swap"), std::string::npos);
    EXPECT_NE(plan.find(f.t1), nullptr);
    EXPECT_EQ(plan.find(f.t3), nullptr);
}

// --- PolicyMaker: incremental engine vs. full-rescan oracle ---

namespace
{

/**
 * Pinned transfers serialize per PCIe direction (§4.4): each lane is a
 * FIFO over the chosen transfers, and a candidate is charged the queueing
 * delay it would add.
 */
struct Xfer
{
    Tick anchor;
    Tick dur;
    bool operator<(const Xfer &o) const { return anchor < o.anchor; }
};

/** Total queueing (start - anchor) waiting across a lane's transfers. */
Tick
laneWait(const std::vector<Xfer> &lane)
{
    Tick busy = 0;
    Tick total = 0;
    for (const auto &x : lane) {
        Tick start = std::max(x.anchor, busy);
        total += start - x.anchor;
        busy = start + x.dur;
    }
    return total;
}

/** Marginal growth in total lane waiting if `probe` were added. */
Tick
queueDelay(std::vector<Xfer> lane, Xfer probe)
{
    std::sort(lane.begin(), lane.end());
    Tick before = laneWait(lane);
    lane.push_back(probe);
    std::sort(lane.begin(), lane.end());
    return laneWait(lane) - before;
}

bool
containsTensor(const std::vector<TensorId> &v, TensorId t)
{
    return std::find(v.begin(), v.end(), t) != v.end();
}

} // namespace

namespace capu
{

/**
 * The full-rescan Algorithm 1/2 loop: every pick rescans every candidate
 * and every emitted recompute. PolicyMaker::select must emit the same
 * plan item for item. The oracle shares PolicyMaker::prepare (peak
 * window, candidates, lineage state) through a friend declaration, so the
 * digest pins below guard that shared step.
 */
class ReferencePlanner
{
  public:
    static Plan
    build(const PolicyMaker &pm, std::uint64_t mem_saving_target,
          const PolicyMaker::BytesFn &tensor_bytes,
          const PolicyMaker::SwapTimeFn &swap_time,
          std::uint64_t gpu_capacity)
    {
        Plan plan;
        plan.targetBytes = mem_saving_target;
        if (mem_saving_target == 0 || pm.tracker_.empty())
            return plan;
        run(pm, plan,
            pm.prepare(plan, tensor_bytes, swap_time, gpu_capacity));
        return plan;
    }

  private:
    using Candidate = PolicyMaker::Candidate;

    static void run(const PolicyMaker &pm, Plan &plan,
                    std::vector<Candidate> cands);
};

void
ReferencePlanner::run(const PolicyMaker &pm, Plan &plan,
                      std::vector<Candidate> cands)
{
    struct Recomp
    {
        TensorId tensor;
        std::vector<TensorId> srcs;
        Tick rpTime;
    };
    std::vector<Recomp> recomps;

    std::vector<Xfer> chosen_out, chosen_in;

    auto exposure = [&](const Candidate &c) -> Tick {
        Tick interval = c.backTime - c.evictTime;
        Tick round_trip = 2 * c.swapTime;
        Tick exposed = round_trip > interval ? round_trip - interval : 0;
        exposed += queueDelay(chosen_out, Xfer{c.evictTime, c.swapTime});
        Tick in_anchor = c.backTime > c.swapTime ? c.backTime - c.swapTime
                                                 : 0;
        exposed += queueDelay(chosen_in, Xfer{in_anchor, c.swapTime});
        return exposed;
    };
    auto can_recompute = [](const Candidate &c) {
        return c.rpTime > 0;
    };

    std::int64_t saving = static_cast<std::int64_t>(plan.targetBytes);

    auto emit_swap = [&](std::size_t idx) {
        Candidate c = cands[idx];
        cands.erase(cands.begin() + static_cast<std::ptrdiff_t>(idx));
        PlannedEviction item;
        item.tensor = c.tensor;
        item.mode = RegenChoice::Swap;
        item.bytes = c.bytes;
        item.evictAfterAccess = c.evictAfterAccess;
        item.backAccess = c.backAccess;
        item.evictTime = c.evictTime;
        item.backTime = c.backTime;
        item.swapTime = c.swapTime;
        item.freeTime = c.freeTime;
        item.estimatedOverhead = exposure(c);
        pm.chooseInTrigger(item, plan.peak);
        plan.items.push_back(item);
        ++plan.swapCount;
        plan.plannedBytes += c.bytes;
        chosen_out.push_back(Xfer{c.evictTime, c.swapTime});
        chosen_in.push_back(
            Xfer{c.backTime > c.swapTime ? c.backTime - c.swapTime : 0,
                 c.swapTime});
        saving -= static_cast<std::int64_t>(c.bytes);
    };

    auto emit_recompute = [&](std::size_t idx) {
        Candidate c = cands[idx];
        cands.erase(cands.begin() + static_cast<std::ptrdiff_t>(idx));

        // Algorithm 2, lines 5-12: targets whose source set contained the
        // newly chosen tensor now start from its sources instead, and the
        // shared prefix is replayed once more per such target.
        int ext_ct = 1;
        for (auto &rp : recomps) {
            if (containsTensor(rp.srcs, c.tensor)) {
                rp.srcs.erase(
                    std::remove(rp.srcs.begin(), rp.srcs.end(), c.tensor),
                    rp.srcs.end());
                for (TensorId s : c.srcs) {
                    if (!containsTensor(rp.srcs, s))
                        rp.srcs.push_back(s);
                }
                ++ext_ct;
            }
        }
        recomps.push_back(Recomp{c.tensor, c.srcs, c.rpTime});

        // Algorithm 2, lines 17-34: update the remaining candidates.
        for (auto &cand : cands) {
            if (!can_recompute(cand))
                continue;
            if (containsTensor(cand.srcs, c.tensor)) {
                cand.srcs.erase(std::remove(cand.srcs.begin(),
                                            cand.srcs.end(), c.tensor),
                                cand.srcs.end());
                for (TensorId s : c.srcs) {
                    if (!containsTensor(cand.srcs, s))
                        cand.srcs.push_back(s);
                }
                cand.rpTime += c.rpTime;
                cand.extTime = 0;
                for (const auto &rp : recomps) {
                    if (containsTensor(rp.srcs, cand.tensor))
                        cand.extTime += cand.rpTime;
                }
            }
            if (containsTensor(c.srcs, cand.tensor)) {
                cand.extTime =
                    static_cast<Tick>(ext_ct) * cand.rpTime;
            }
        }

        PlannedEviction item;
        item.tensor = c.tensor;
        item.mode = RegenChoice::Recompute;
        item.bytes = c.bytes;
        item.evictAfterAccess = c.evictAfterAccess;
        item.backAccess = c.backAccess;
        item.evictTime = c.evictTime;
        item.backTime = c.backTime;
        item.recomputeTime = c.rpTime + c.extTime;
        item.estimatedOverhead = item.recomputeTime;
        plan.items.push_back(item);
        ++plan.recomputeCount;
        plan.plannedBytes += c.bytes;
        saving -= static_cast<std::int64_t>(c.bytes);
    };

    while (saving > 0 && !cands.empty()) {
        // Best swap: maximal FT, i.e. minimal exposure.
        std::size_t s_idx = cands.size();
        if (pm.opts_.enableSwap) {
            for (std::size_t i = 0; i < cands.size(); ++i) {
                if (s_idx == cands.size() ||
                    exposure(cands[i]) < exposure(cands[s_idx]) ||
                    (exposure(cands[i]) == exposure(cands[s_idx]) &&
                     cands[i].freeTime > cands[s_idx].freeTime)) {
                    s_idx = i;
                }
            }
        }
        if (s_idx < cands.size() && exposure(cands[s_idx]) == 0) {
            emit_swap(s_idx); // fully hidden: swap is free (§4.5)
            continue;
        }

        std::size_t r_idx = cands.size();
        if (pm.opts_.enableRecompute) {
            for (std::size_t i = 0; i < cands.size(); ++i) {
                if (!can_recompute(cands[i]))
                    continue;
                if (r_idx == cands.size() ||
                    cands[i].msps() > cands[r_idx].msps()) {
                    r_idx = i;
                }
            }
        }

        bool have_s = s_idx < cands.size();
        bool have_r = r_idx < cands.size();
        if (have_s && have_r) {
            Tick s_over = exposure(cands[s_idx]);
            Tick r_over = cands[r_idx].rpTime + cands[r_idx].extTime;
            if (s_over <= r_over)
                emit_swap(s_idx);
            else
                emit_recompute(r_idx);
        } else if (have_s) {
            emit_swap(s_idx);
        } else if (have_r) {
            emit_recompute(r_idx);
        } else {
            break; // nothing actionable left
        }
    }
}

} // namespace capu

namespace
{

void
expectPlansIdentical(const Plan &ref, const Plan &inc, const char *model)
{
    ASSERT_EQ(ref.items.size(), inc.items.size()) << model;
    EXPECT_EQ(ref.targetBytes, inc.targetBytes) << model;
    EXPECT_EQ(ref.plannedBytes, inc.plannedBytes) << model;
    EXPECT_EQ(ref.swapCount, inc.swapCount) << model;
    EXPECT_EQ(ref.recomputeCount, inc.recomputeCount) << model;
    for (std::size_t i = 0; i < ref.items.size(); ++i) {
        const PlannedEviction &a = ref.items[i];
        const PlannedEviction &b = inc.items[i];
        EXPECT_EQ(a.tensor, b.tensor) << model << " item " << i;
        EXPECT_EQ(a.mode, b.mode) << model << " item " << i;
        EXPECT_EQ(a.bytes, b.bytes) << model << " item " << i;
        EXPECT_EQ(a.evictAfterAccess, b.evictAfterAccess)
            << model << " item " << i;
        EXPECT_EQ(a.backAccess, b.backAccess) << model << " item " << i;
        EXPECT_EQ(a.evictTime, b.evictTime) << model << " item " << i;
        EXPECT_EQ(a.backTime, b.backTime) << model << " item " << i;
        EXPECT_EQ(a.swapTime, b.swapTime) << model << " item " << i;
        EXPECT_EQ(a.freeTime, b.freeTime) << model << " item " << i;
        EXPECT_EQ(a.desiredSwapInStart, b.desiredSwapInStart)
            << model << " item " << i;
        EXPECT_EQ(a.triggerTensor, b.triggerTensor)
            << model << " item " << i;
        EXPECT_EQ(a.triggerAccess, b.triggerAccess)
            << model << " item " << i;
        EXPECT_EQ(a.recomputeTime, b.recomputeTime)
            << model << " item " << i;
        EXPECT_EQ(a.estimatedOverhead, b.estimatedOverhead)
            << model << " item " << i;
    }
}

/** planDigest and item count of a cell's standalone plan. */
struct PlanPin
{
    std::uint64_t digest;
    std::size_t items;
};

/**
 * Run one measured-then-guided session at an oversubscribed batch, then
 * rebuild the plan standalone with the engine and with the oracle and
 * demand byte-for-byte identical output. Engine and oracle share the
 * preparation step, so the engine's plan is also pinned by digest and
 * item count.
 */
void
checkIncrementalMatchesReference(ModelKind kind, std::int64_t batch,
                                 PlanPin pin)
{
    setLogEnabled(false);
    CapuchinOptions copts;
    Session session(buildModel(kind, batch), ExecConfig{},
                    makeCapuchinPolicy(copts));
    auto r = session.run(2);
    ASSERT_FALSE(r.oom) << modelName(kind) << "@" << batch;
    auto *capu = dynamic_cast<CapuchinPolicy *>(session.policy());
    ASSERT_NE(capu, nullptr);
    ASSERT_TRUE(capu->planBuilt())
        << modelName(kind) << "@" << batch
        << ": batch not oversubscribed, test is vacuous";

    Executor &ex = session.executor();
    auto target = static_cast<std::uint64_t>(
        static_cast<double>(capu->measuredEvictedBytes()) *
        copts.savingMargin);
    auto bytes_fn = [&](TensorId id) { return ex.tensorBytes(id); };
    auto swap_fn = [&](std::uint64_t b) { return ex.swapTime(b); };

    PolicyMaker maker(session.graph(), capu->tracker());
    Plan ref = ReferencePlanner::build(maker, target, bytes_fn, swap_fn,
                                       ex.gpuCapacity());
    Plan inc = maker.build(target, bytes_fn, swap_fn, ex.gpuCapacity());

    EXPECT_GT(inc.items.size(), 0u)
        << modelName(kind) << ": empty plan makes this test vacuous";
    expectPlansIdentical(ref, inc, modelName(kind));
    EXPECT_EQ(planDigest(inc), pin.digest) << modelName(kind);
    EXPECT_EQ(inc.items.size(), pin.items) << modelName(kind);
    // (The *live* policy's plan is deliberately not compared: iterative
    // refinement grows its saving target beyond measuredEvicted ×
    // savingMargin, and runtime feedback shifts trigger timing.)
}

} // namespace

TEST(IncrementalPlan, Vgg16) { checkIncrementalMatchesReference(ModelKind::Vgg16, 260, {0xb2c645a3929030eaull, 14}); }
TEST(IncrementalPlan, ResNet50) { checkIncrementalMatchesReference(ModelKind::ResNet50, 240, {0x49d5ce7e30bcbf81ull, 52}); }
TEST(IncrementalPlan, ResNet152) { checkIncrementalMatchesReference(ModelKind::ResNet152, 110, {0xa85a39285624806dull, 9}); }
TEST(IncrementalPlan, InceptionV3) { checkIncrementalMatchesReference(ModelKind::InceptionV3, 210, {0x668809d85334cb81ull, 14}); }
TEST(IncrementalPlan, InceptionV4) { checkIncrementalMatchesReference(ModelKind::InceptionV4, 120, {0x2ad54f67f92f30d3ull, 3}); }
TEST(IncrementalPlan, DenseNet121) { checkIncrementalMatchesReference(ModelKind::DenseNet121, 200, {0xdfdc26d5b109818full, 6}); }
TEST(IncrementalPlan, BertBase) { checkIncrementalMatchesReference(ModelKind::BertBase, 110, {0x493fcad2710f03f2ull, 23}); }

/**
 * Lanes whose transfers tie on their anchors. Each seed plans a chain of
 * 40-48 feature maps of 16-64 MiB evicted at one of four ticks and read
 * back at one of four others. Swap time is proportional to bytes, so
 * equal-anchor transfers of different durations are common, and their
 * order decides the queueing delay. Odd seeds plan swap-only, so the
 * lanes grow past the 16 transfers above which libstdc++'s std::sort
 * partitions unstably.
 */
TEST(IncrementalPlan, TiedAnchorLanes)
{
    setLogEnabled(false);
    const Tick ms = kTickPerMs;
    int tied_plans = 0;
    std::size_t max_swaps = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        Rng rng(seed);
        PlannerFixture f;
        std::vector<TensorId> maps{f.t1, f.t2, f.t3};
        std::size_t n_maps = 40 + rng.uniformInt(0, 8);
        while (maps.size() < n_maps) {
            f.bytes = rng.uniformInt(2, 8) * 8_MiB;
            maps.push_back(
                f.addLayer("x" + std::to_string(maps.size()), maps.back()));
        }

        // Forward kernels of 0.5-2 ms (recompute costs), then one evict
        // and one back access per map, recorded in time order.
        std::vector<AccessRecord> recs;
        std::unordered_map<TensorId, int> count;
        auto add = [&](TensorId t, Tick time, OpId op, bool output) {
            AccessRecord r;
            r.tensor = t;
            r.accessIndex = ++count[t];
            r.time = time;
            r.isOutput = output;
            r.op = op;
            recs.push_back(r);
        };
        add(f.images, 0, f.g.tensor(f.images).producer, true);
        Tick t = ms;
        TensorId in = f.images;
        for (TensorId m : maps) {
            OpId op = f.g.tensor(m).producer;
            add(in, t, op, false);
            t += rng.uniformInt(1, 4) * ms / 2;
            add(m, t, op, true);
            in = m;
        }
        for (TensorId m : maps)
            add(m, t + rng.uniformInt(1, 4) * ms, kInvalidOp, false);
        for (TensorId m : maps) {
            add(m, t + 40 * ms + rng.uniformInt(0, 3) * ms / 2, kInvalidOp,
                false);
        }
        std::stable_sort(recs.begin(), recs.end(),
                         [](const AccessRecord &a, const AccessRecord &b) {
                             return a.time < b.time;
                         });
        for (const AccessRecord &r : recs)
            f.tracker.record(r);

        PolicyMakerOptions opts;
        opts.enableRecompute = seed % 2 == 0;
        PolicyMaker maker(f.g, f.tracker, opts);
        auto bytes_fn = [&](TensorId id) { return f.g.tensor(id).bytes; };
        auto swap_fn = [&](std::uint64_t b) {
            return static_cast<Tick>(b / 8_MiB) * ms / 2;
        };
        std::uint64_t target = 0;
        for (TensorId m : maps)
            target += f.g.tensor(m).bytes;
        Plan ref =
            ReferencePlanner::build(maker, target, bytes_fn, swap_fn, 1);
        Plan inc = maker.build(target, bytes_fn, swap_fn, 1);
        std::string label = "seed " + std::to_string(seed);
        expectPlansIdentical(ref, inc, label.c_str());

        max_swaps = std::max(max_swaps, inc.swapCount);
        bool tied = false;
        for (const auto &a : inc.items) {
            for (const auto &b : inc.items) {
                tied |= a.mode == RegenChoice::Swap &&
                        b.mode == RegenChoice::Swap &&
                        a.evictTime == b.evictTime &&
                        a.swapTime != b.swapTime;
            }
        }
        tied_plans += tied;
    }
    // Guards against a vacuous fixture: many plans must put transfers of
    // different durations on one anchor, and some lane must pass 16.
    EXPECT_GE(tied_plans, 30);
    EXPECT_GT(max_swaps, 16u);
}
