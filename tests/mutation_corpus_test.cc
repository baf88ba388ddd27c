/**
 * @file
 * The mutation corpus: proof that the plan rules and the happens-before
 * engine notice when a buffer's frees, copies and accesses lose their order.
 *
 * The fixture takes ResNet-50@256's measured access trace under Capuchin
 * (captureTrace, reconstructGraph and toTracker, as `capusim --dump-trace`
 * does but with no file in between), plans it at 14 GiB and derives the
 * event graph the plan implies (buildPlanEventGraph). The clean plan, that
 * graph and a clean synthetic timeline must verify without errors. Ten
 * corruption classes then run five seeded cases each:
 *
 *   event surgery    trigger-after-back, swapin-during-swapout: prefetch
 *                    triples reordered the way a buggy executor issues them
 *   rule knockouts   drop-sync-edge, early-free, copy-before-retire: every
 *                    edge of one executor guarantee dropped from the graph
 *   plan mutations   use-after-evict-hole, empty-interval: corrupt eviction
 *                    intervals, graded on PlanChecker::check
 *   graph surgery    cyclic-lineage, lost-source: corrupt the lineage a
 *                    recompute replays, graded on PlanChecker::check
 *   timestamp skew   clock-skew: a synthetic capuscope timeline whose times
 *                    contradict an ordering edge
 *
 * Each case must fire the rules it fired when the corpus was recorded, and
 * the gate needs 95% of the cases caught and a site in every class.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/happens_before.hh"
#include "analysis/plan_checker.hh"
#include "core/capuchin_policy.hh"
#include "core/policy_maker.hh"
#include "core/trace_io.hh"
#include "exec/ordering.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "obs/event_adapter.hh"
#include "sim/gpu_device.hh"
#include "sim/pcie_link.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/units.hh"

using namespace capu;

namespace
{

/**
 * Derive the event graph a plan implies over the measured access trace,
 * mirroring the executor's degradations (a dead or late in-trigger falls
 * back to an on-demand fetch at the back access; an access inside the
 * eviction hole regenerates on demand). Because it mirrors them, any plan
 * yields a race-free graph: the event-surgery and knockout classes below
 * corrupt the graph itself, and plan faults are PlanChecker::check's.
 * Structurally invalid items (anchors missing from the trace) get no
 * special handling here. Transfer times are derived over the measured
 * (no-eviction) timeline, where an exposed swap legitimately completes
 * after its back access's recorded tick, so the graph is race-scanned but
 * never timestamp-checked.
 */
HbAnalysis
buildPlanEventGraph(const Plan &plan, const AccessTracker &tracker,
                    const PlanChecker::BytesFn &tensor_bytes,
                    const PlanChecker::SwapTimeFn &swap_time)
{
    using hb::HbEvent;
    using hb::HbOp;
    using hb::HbStream;

    HbAnalysis out;

    // Per planned tensor: the item, its index, and the executor-mirrored
    // runtime state the walk maintains.
    struct TState
    {
        const PlannedEviction *item = nullptr;
        int itemIdx = 0;
        int gen = 0;        ///< device-buffer incarnation
        bool evicted = false;
        bool inFlight = false; ///< prefetch issued, not yet consumed
        bool consumed = false; ///< the plan item already fired
    };
    std::unordered_map<TensorId, TState> planned;
    // (trigger tensor, trigger access) -> victims whose prefetch it fires.
    std::map<std::pair<TensorId, int>, std::vector<TensorId>> triggers;
    std::unordered_set<TensorId> triggerTensors;
    for (std::size_t i = 0; i < plan.items.size(); ++i) {
        const PlannedEviction &item = plan.items[i];
        if (item.tensor == kInvalidTensor)
            continue;
        TState ts;
        ts.item = &item;
        ts.itemIdx = static_cast<int>(i);
        // Duplicate items for one tensor keep the first (duplicate-item is
        // a PlanChecker rule); losers register no trigger either.
        if (!planned.emplace(item.tensor, ts).second)
            continue;
        if (item.mode == RegenChoice::Swap &&
            item.triggerTensor != kInvalidTensor) {
            triggers[{item.triggerTensor, item.triggerAccess}].push_back(
                item.tensor);
            triggerTensors.insert(item.triggerTensor);
        }
    }
    if (planned.empty())
        return out;

    Tick d2hBusy = 0;
    Tick h2dBusy = 0;
    auto emit = [&](HbStream stream, HbOp op, TensorId tensor, int access,
                    int buffer, bool write, std::int32_t cause, Tick start,
                    Tick end, OpId opId) -> std::uint32_t {
        HbEvent ev;
        ev.id = static_cast<std::uint32_t>(out.events.size());
        ev.stream = stream;
        ev.op = op;
        ev.tensor = tensor;
        ev.accessIndex = access;
        ev.buffer = buffer;
        ev.write = write;
        ev.cause = cause;
        ev.start = start;
        ev.end = end;
        ev.opId = opId;
        out.events.push_back(ev);
        return ev.id;
    };
    // Issue a swap-in (prefetch or on-demand) for `t`, caused by `cause`
    // (-1 for on-demand fetches at the faulting access).
    auto issueSwapIn = [&](TState &ts, TensorId t, std::int32_t cause,
                           Tick ready) {
        ++ts.gen;
        Tick st = swap_time(tensor_bytes(t));
        Tick start = std::max(ready, h2dBusy);
        Tick end = start + st;
        h2dBusy = end;
        int tag = ts.itemIdx + 1;
        emit(HbStream::Deferred, HbOp::BufferAlloc, t, tag, ts.gen, false,
             cause, ready, ready, kInvalidOp);
        emit(HbStream::H2D, HbOp::SwapInStart, t, tag, ts.gen, true, cause,
             start, start, kInvalidOp);
        emit(HbStream::H2D, HbOp::SwapInEnd, t, tag, ts.gen, true, -1, end,
             end, kInvalidOp);
    };

    for (const AccessRecord &r : tracker.sequence()) {
        auto it = planned.find(r.tensor);
        TState *ts = it == planned.end() ? nullptr : &it->second;
        if (!ts && triggerTensors.count(r.tensor) == 0)
            continue; // compute-chain contraction: FIFO order is preserved

        // ensureResident: regenerate an evicted tensor before its access.
        // A hole access (plan bug) and a missing/dead trigger both degrade
        // to on-demand regeneration, exactly like the executor.
        if (ts && ts->evicted) {
            if (ts->inFlight) {
                // Prefetch arrives; complete-before-use links its SwapInEnd
                // to this access.
                ts->evicted = false;
                ts->inFlight = false;
            } else if (ts->item->mode == RegenChoice::Swap) {
                issueSwapIn(*ts, r.tensor, -1, r.time);
                ts->evicted = false;
            } else {
                ++ts->gen;
                emit(HbStream::Compute, HbOp::RecomputeKernel, r.tensor, 0,
                     ts->gen, true, -1, r.time, r.time, r.op);
                ts->evicted = false;
            }
        }

        std::uint32_t accEv =
            emit(HbStream::Compute, HbOp::KernelAccess, r.tensor,
                 r.accessIndex, ts ? ts->gen : 0, r.isOutput, -1, r.time,
                 r.time, r.op);

        // Trigger role: fire prefetches this access is the in-trigger for.
        auto trig = triggers.find({r.tensor, r.accessIndex});
        if (trig != triggers.end()) {
            for (TensorId victim : trig->second) {
                TState &vs = planned.at(victim);
                // prefetchAsync is a no-op unless the tensor is out; a dead
                // (pre-eviction) or late (post-back) trigger does nothing.
                if (!vs.evicted || vs.inFlight)
                    continue;
                issueSwapIn(vs, victim, static_cast<std::int32_t>(accEv),
                            r.time);
                vs.inFlight = true;
            }
        }

        // Eviction role: the plan item fires after its evict access.
        if (ts && !ts->consumed &&
            r.accessIndex == ts->item->evictAfterAccess) {
            ts->consumed = true;
            ts->evicted = true;
            int tag = ts->itemIdx + 1;
            if (ts->item->mode == RegenChoice::Swap) {
                Tick st = swap_time(tensor_bytes(r.tensor));
                Tick start = std::max(r.time, d2hBusy);
                Tick end = start + st;
                d2hBusy = end;
                // retire-before-copy supplies the access -> copy edge; the
                // free is ordered only by complete-before-free so knocking
                // that rule out exposes the race.
                emit(HbStream::D2H, HbOp::SwapOutStart, r.tensor, tag,
                     ts->gen, false, -1, start, start, kInvalidOp);
                emit(HbStream::D2H, HbOp::SwapOutEnd, r.tensor, tag, ts->gen,
                     false, -1, end, end, kInvalidOp);
                emit(HbStream::Deferred, HbOp::BufferFree, r.tensor, tag,
                     ts->gen, false, -1, end, end, kInvalidOp);
            } else {
                // Drop-free at the evicting kernel.
                emit(HbStream::Deferred, HbOp::BufferFree, r.tensor, tag,
                     ts->gen, false, static_cast<std::int32_t>(accEv),
                     r.time, r.time, kInvalidOp);
            }
        }
    }

    out.edges = enumerateOrderingEdges(out.events);
    return out;
}

/** Outcome of one injected case. */
struct CaseResult
{
    bool injected = false; ///< a mutation site existed
    bool caught = false;   ///< the expected rule fired
    std::string note;      ///< site description / fired rules
};

bool
hasRule(const LintReport &report, const std::string &rule)
{
    for (const auto &d : report.diags) {
        if (d.rule == rule)
            return true;
    }
    return false;
}

std::string
firedRules(const LintReport &report)
{
    std::string out;
    std::vector<std::string> seen;
    for (const auto &d : report.diags) {
        if (std::find(seen.begin(), seen.end(), d.rule) != seen.end())
            continue;
        seen.push_back(d.rule);
        if (!out.empty())
            out += ",";
        out += d.rule;
    }
    return out.empty() ? "none" : out;
}

/**
 * Move the `count` events starting at `first` so they sit immediately
 * after the event at original index `destAfter` (not inside the block).
 * Event ids and cause references are remapped to the new listed order —
 * the result is a valid issue-order list for enumerateOrderingEdges.
 */
std::vector<hb::HbEvent>
reorderEvents(const std::vector<hb::HbEvent> &events, std::size_t first,
              std::size_t count, std::size_t destAfter)
{
    const std::size_t n = events.size();
    std::vector<std::size_t> order;
    order.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
        if (k >= first && k < first + count)
            continue;
        order.push_back(k);
        if (k == destAfter) {
            for (std::size_t b = first; b < first + count; ++b)
                order.push_back(b);
        }
    }
    std::vector<std::uint32_t> oldToNew(n, 0);
    for (std::size_t k = 0; k < order.size(); ++k)
        oldToNew[order[k]] = static_cast<std::uint32_t>(k);
    std::vector<hb::HbEvent> out;
    out.reserve(n);
    for (std::size_t k = 0; k < order.size(); ++k) {
        hb::HbEvent ev = events[order[k]];
        ev.id = static_cast<std::uint32_t>(k);
        if (ev.cause >= 0)
            ev.cause =
                static_cast<std::int32_t>(oldToNew[static_cast<std::size_t>(
                    ev.cause)]);
        out.push_back(ev);
    }
    return out;
}

/** Everything a mutator needs; built once per corpus run. */
struct Corpus
{
    const Plan *plan = nullptr;
    const Graph *graph = nullptr;
    const AccessTracker *tracker = nullptr;
    PlanChecker::BytesFn bytesOf;
    PlanChecker::SwapTimeFn swapTime;
    PlanCheckerOptions checker;
    HbAnalysis base; ///< the event graph the clean plan implies
};

/** The plan rules over `plan`, with `graph` for the lineage walk. */
LintReport
checkPlan(const Corpus &c, const Plan &plan, const Graph &graph)
{
    return PlanChecker(graph, *c.tracker, c.checker)
        .check(plan, c.bytesOf, c.swapTime);
}

LintReport
scanEvents(std::vector<hb::HbEvent> events, const Corpus &c)
{
    HbAnalysis m;
    m.events = std::move(events);
    m.edges = hb::enumerateOrderingEdges(m.events);
    return checkHappensBefore(m, c.graph);
}

/** Is event `i` the SwapInStart of a contiguous alloc/start/end triple? */
bool
swapInTripleAt(const std::vector<hb::HbEvent> &evs, std::size_t i)
{
    return i >= 1 && i + 1 < evs.size() &&
           evs[i].op == hb::HbOp::SwapInStart &&
           evs[i - 1].op == hb::HbOp::BufferAlloc &&
           evs[i - 1].tensor == evs[i].tensor &&
           evs[i + 1].op == hb::HbOp::SwapInEnd &&
           evs[i + 1].tensor == evs[i].tensor;
}

// --- class: trigger-after-back ---------------------------------------------
// A buggy executor issues the prefetch triple after the access it was meant
// to hide — "ordered", but the access reads a buffer nothing has filled.
CaseResult
mutateTriggerAfterBack(const Corpus &c, Rng &rng, const std::string &rule)
{
    CaseResult res;
    const auto &evs = c.base.events;
    struct Site
    {
        std::size_t triple; ///< index of the BufferAlloc
        std::size_t back;   ///< the access the triple is moved after
    };
    std::vector<Site> sites;
    for (std::size_t i = 1; i + 1 < evs.size(); ++i) {
        if (!swapInTripleAt(evs, i) || evs[i].cause < 0)
            continue; // only triggered prefetches model this bug
        for (std::size_t j = i + 2; j < evs.size(); ++j) {
            if (evs[j].op == hb::HbOp::KernelAccess &&
                evs[j].tensor == evs[i].tensor &&
                evs[j].buffer == evs[i].buffer) {
                sites.push_back({i - 1, j});
                break;
            }
        }
    }
    if (sites.empty())
        return res;
    res.injected = true;
    Site s = sites[rng.uniformInt(0, sites.size() - 1)];
    std::vector<hb::HbEvent> copy = evs;
    for (std::size_t k = s.triple; k < s.triple + 3; ++k)
        copy[k].cause = -1; // the late issue has no trigger
    LintReport report = scanEvents(reorderEvents(copy, s.triple, 3, s.back), c);
    res.caught = hasRule(report, rule);
    res.note = firedRules(report);
    return res;
}

// --- class: swapin-during-swapout ------------------------------------------
// The prefetch is issued while the same host copy is still being written
// by the swap-out (out-before-in violated by reordering, not by knockout).
CaseResult
mutateSwapinDuringSwapout(const Corpus &c, Rng &rng, const std::string &rule)
{
    CaseResult res;
    const auto &evs = c.base.events;
    struct Site
    {
        std::size_t triple;
        std::size_t outStart;
    };
    std::vector<Site> sites;
    for (std::size_t i = 1; i + 1 < evs.size(); ++i) {
        if (!swapInTripleAt(evs, i))
            continue;
        for (std::size_t j = i - 1; j-- > 0;) {
            if (evs[j].op == hb::HbOp::SwapOutStart &&
                evs[j].tensor == evs[i].tensor &&
                evs[j].accessIndex == evs[i].accessIndex) {
                sites.push_back({i - 1, j});
                break;
            }
        }
    }
    if (sites.empty())
        return res;
    res.injected = true;
    Site s = sites[rng.uniformInt(0, sites.size() - 1)];
    std::vector<hb::HbEvent> copy = evs;
    for (std::size_t k = s.triple; k < s.triple + 3; ++k)
        copy[k].cause = -1;
    LintReport report =
        scanEvents(reorderEvents(copy, s.triple, 3, s.outStart), c);
    res.caught = hasRule(report, rule);
    res.note = firedRules(report);
    return res;
}

// --- classes: rule knockouts ------------------------------------------------
// Model an executor that forgot one sequencing guarantee: the clean graph
// minus every edge named `ordering`. Detection is deterministic per plan;
// every case still gets its own seed, as every other class's does.
CaseResult
mutateKnockout(const Corpus &c, const std::string &rule,
               std::string_view ordering, hb::HbOp siteOp)
{
    CaseResult res;
    for (const hb::HbEvent &ev : c.base.events) {
        if (ev.op == siteOp) {
            res.injected = true;
            break;
        }
    }
    if (!res.injected)
        return res;
    HbAnalysis m;
    m.events = c.base.events;
    for (const hb::HbEdge &e : c.base.edges) {
        if (ordering != e.rule)
            m.edges.push_back(e);
    }
    LintReport report = checkHappensBefore(m, c.graph);
    res.caught = hasRule(report, rule);
    res.note = firedRules(report);
    return res;
}

// --- class: use-after-evict-hole --------------------------------------------
// Stretch an eviction interval over a real access: the plan says the
// buffer is gone when the kernel reads it.
CaseResult
mutateEvictHole(const Corpus &c, Rng &rng, const std::string &rule)
{
    CaseResult res;
    std::vector<std::size_t> extendBack;
    std::vector<std::size_t> shrinkEvict;
    for (std::size_t i = 0; i < c.plan->items.size(); ++i) {
        const PlannedEviction &item = c.plan->items[i];
        const auto &recs = c.tracker->accessesOf(item.tensor);
        if (recs.empty())
            continue;
        if (recs.back().accessIndex > item.backAccess)
            extendBack.push_back(i);
        else if (item.evictAfterAccess > 1 &&
                 item.backAccess > item.evictAfterAccess)
            shrinkEvict.push_back(i);
    }
    const auto &sites = extendBack.empty() ? shrinkEvict : extendBack;
    if (sites.empty())
        return res;
    res.injected = true;
    std::size_t idx = sites[rng.uniformInt(0, sites.size() - 1)];
    Plan mutated = *c.plan;
    PlannedEviction &item = mutated.items[idx];
    if (!extendBack.empty())
        item.backAccess =
            c.tracker->accessesOf(item.tensor).back().accessIndex;
    else
        --item.evictAfterAccess;
    LintReport report = checkPlan(c, mutated, *c.graph);
    res.caught = hasRule(report, rule);
    res.note = firedRules(report);
    return res;
}

// --- class: empty-interval ---------------------------------------------------
CaseResult
mutateEmptyInterval(const Corpus &c, Rng &rng, const std::string &rule)
{
    CaseResult res;
    if (c.plan->items.empty())
        return res;
    res.injected = true;
    Plan mutated = *c.plan;
    PlannedEviction &item =
        mutated.items[rng.uniformInt(0, mutated.items.size() - 1)];
    item.backAccess = item.evictAfterAccess;
    LintReport report = checkPlan(c, mutated, *c.graph);
    res.caught = hasRule(report, rule);
    res.note = firedRules(report);
    return res;
}

/** Recompute-mode plan items placed on the timeline (valid anchors only). */
struct RecomputeSite
{
    std::size_t idx = 0;
    TensorId tensor = kInvalidTensor;
    OpId producer = kInvalidOp;
    Tick evictTime = 0;
    Tick backTime = 0;
};

std::vector<RecomputeSite>
recomputeSites(const Corpus &c)
{
    std::vector<RecomputeSite> out;
    for (std::size_t i = 0; i < c.plan->items.size(); ++i) {
        const PlannedEviction &item = c.plan->items[i];
        if (item.mode != RegenChoice::Recompute)
            continue;
        OpId prod = c.graph->tensor(item.tensor).producer;
        if (prod == kInvalidOp || !c.graph->op(prod).recomputable)
            continue;
        RecomputeSite s;
        s.idx = i;
        s.tensor = item.tensor;
        s.producer = prod;
        bool ok = false;
        for (const AccessRecord &r : c.tracker->accessesOf(item.tensor)) {
            if (r.accessIndex == item.evictAfterAccess)
                s.evictTime = r.time;
            if (r.accessIndex == item.backAccess) {
                s.backTime = r.time;
                ok = true;
            }
        }
        if (ok)
            out.push_back(s);
    }
    return out;
}

// --- class: cyclic-lineage ---------------------------------------------------
// Route a recompute replay into a tensor whose own replay needs itself:
// root's producer reads u (evicted across root's replay time), and u's
// producer reads u. The DFS must report the cycle, not spin or mislabel.
CaseResult
mutateCyclicLineage(const Corpus &c, Rng &rng, const std::string &rule)
{
    CaseResult res;
    auto sites = recomputeSites(c);
    struct Pair
    {
        std::size_t root;
        std::size_t u;
    };
    std::vector<Pair> pairs;
    for (std::size_t r = 0; r < sites.size(); ++r) {
        for (std::size_t u = 0; u < sites.size(); ++u) {
            if (u == r)
                continue;
            if (sites[u].evictTime < sites[r].backTime &&
                sites[r].backTime < sites[u].backTime)
                pairs.push_back({r, u});
        }
    }
    if (pairs.empty())
        return res;
    res.injected = true;
    Pair p = pairs[rng.uniformInt(0, pairs.size() - 1)];
    Graph mutated = *c.graph;
    // Front-insert so the DFS meets the cycle before any legitimate input
    // can divert it into a different diagnostic.
    auto &rootIn = mutated.mutableOp(sites[p.root].producer).inputs;
    rootIn.insert(rootIn.begin(), sites[p.u].tensor);
    auto &uIn = mutated.mutableOp(sites[p.u].producer).inputs;
    uIn.insert(uIn.begin(), sites[p.u].tensor);
    LintReport report = checkPlan(c, *c.plan, mutated);
    res.caught = hasRule(report, rule);
    res.note = firedRules(report);
    return res;
}

// --- class: lost-source ------------------------------------------------------
// The plan recomputes a tensor whose producer cannot be replayed (think: a
// data-dependent op) — no host copy, no lineage path, the value is gone.
CaseResult
mutateLostSource(const Corpus &c, Rng &rng, const std::string &rule)
{
    CaseResult res;
    auto sites = recomputeSites(c);
    if (sites.empty())
        return res;
    res.injected = true;
    const RecomputeSite &s = sites[rng.uniformInt(0, sites.size() - 1)];
    Graph mutated = *c.graph;
    mutated.mutableOp(s.producer).recomputable = false;
    LintReport report = checkPlan(c, *c.plan, mutated);
    res.caught = hasRule(report, rule);
    res.note = firedRules(report);
    return res;
}

// --- class: clock-skew -------------------------------------------------------
// A synthetic capuscope timeline (dynamic mode): swap round-trips plus one
// recompute, times chosen so every ordering edge is timestamp-consistent.
// The mutation starts the recompute before its compute-stream predecessor
// retires — the cross-check must flag the contradiction.
std::vector<obs::TimelineRecord>
syntheticTimeline(Rng &rng, bool skew)
{
    std::vector<obs::TimelineRecord> recs;
    auto add = [&](obs::TimelineKind kind, std::int64_t tensor, Tick start,
                   Tick end, int accessIndex, bool write) {
        obs::TimelineRecord r;
        r.kind = kind;
        r.tensor = tensor;
        r.start = start;
        r.end = end;
        r.accessIndex = accessIndex;
        r.write = write;
        recs.push_back(r);
    };
    using K = obs::TimelineKind;
    std::size_t nswap = 2 + rng.uniformInt(0, 2);
    for (std::size_t k = 0; k < nswap; ++k) {
        Tick base = 1000 * static_cast<Tick>(k + 1);
        add(K::Access, static_cast<std::int64_t>(k), base, base, 1, true);
        add(K::Access, static_cast<std::int64_t>(k), base + 100, base + 100,
            2, false);
        add(K::SwapOut, static_cast<std::int64_t>(k), base + 110, base + 200,
            0, false);
        add(K::SwapIn, static_cast<std::int64_t>(k), base + 400, base + 490,
            0, false);
        add(K::Access, static_cast<std::int64_t>(k), base + 500, base + 500,
            3, false);
    }
    Tick rbase = 1000 * static_cast<Tick>(nswap + 2);
    std::int64_t rt = 90;
    add(K::Access, rt, rbase, rbase, 1, true);
    add(K::Access, rt, rbase + 100, rbase + 100, 2, false);
    // Clean: the replay starts well after the previous access retires.
    // Skewed: it starts before that access's tick — impossible on a FIFO
    // stream, so some measured serialization claim is a lie.
    Tick rstart = skew ? rbase + 99 - static_cast<Tick>(rng.uniformInt(0, 50))
                       : rbase + 400;
    add(K::Recompute, rt, rstart, rbase + 490, 0, true);
    add(K::Access, rt, rbase + 500, rbase + 500, 3, false);
    return recs;
}

LintReport
scanTimeline(const std::vector<obs::TimelineRecord> &recs, const Corpus &c)
{
    HbAnalysis m = buildTraceEventGraph(recs);
    LintReport report = checkHappensBefore(m, c.graph);
    LintReport stamps = checkTimestamps(m, c.graph);
    for (auto &d : stamps.diags)
        report.diags.push_back(std::move(d));
    return report;
}

CaseResult
mutateClockSkew(const Corpus &c, Rng &rng, const std::string &rule)
{
    CaseResult res;
    res.injected = true; // the fixture always exists
    LintReport report = scanTimeline(syntheticTimeline(rng, true), c);
    res.caught = hasRule(report, rule);
    res.note = firedRules(report);
    return res;
}

constexpr std::uint64_t kSeed = 1;
constexpr std::uint64_t kCapacity = 14_GiB;
constexpr std::size_t kCases = 5;

/** The rules each of a class's cases fired when the corpus was recorded. */
using FiredRules = std::array<const char *, kCases>;

constexpr FiredRules
everyCase(const char *r) { return {r, r, r, r, r}; }

/** One corruption class: the rule that counts as a catch, the mutator and
 *  the rules each case fired when recorded. */
struct CorpusClass
{
    const char *name;
    const char *rule;
    CaseResult (*mutate)(const Corpus &, Rng &, const std::string &);
    FiredRules fired;
};

const std::array<CorpusClass, 10> kClasses = {{
    {"trigger-after-back", "hb-unsequenced-prefetch", mutateTriggerAfterBack,
     everyCase("hb-race,hb-unsequenced-prefetch")},
    {"drop-sync-edge", "hb-unsequenced-prefetch",
     [](const Corpus &c, Rng &, const std::string &rule) {
         return mutateKnockout(c, rule, "complete-before-use",
                               hb::HbOp::SwapInEnd);
     },
     everyCase("hb-race,hb-unsequenced-prefetch")},
    {"early-free", "hb-free-racing-swapout",
     [](const Corpus &c, Rng &, const std::string &rule) {
         return mutateKnockout(c, rule, "complete-before-free",
                               hb::HbOp::SwapOutStart);
     },
     everyCase("hb-race,hb-free-racing-swapout")},
    {"copy-before-retire", "hb-copy-before-retire",
     [](const Corpus &c, Rng &, const std::string &rule) {
         return mutateKnockout(c, rule, "retire-before-copy",
                               hb::HbOp::SwapOutStart);
     },
     everyCase("hb-race,hb-copy-before-retire")},
    {"swapin-during-swapout", "hb-swapin-before-swapout",
     mutateSwapinDuringSwapout, everyCase("hb-swapin-before-swapout")},
    {"use-after-evict-hole", "use-after-evict", mutateEvictHole,
     everyCase("use-after-evict")},
    {"empty-interval", "bad-interval", mutateEmptyInterval,
     {"bad-interval", "bad-interval", "bad-interval,memory-overcommit",
      "bad-interval,memory-overcommit", "bad-interval,memory-overcommit"}},
    {"cyclic-lineage", "recompute-cycle", mutateCyclicLineage,
     everyCase("recompute-cycle")},
    {"lost-source", "recompute-source-lost", mutateLostSource,
     everyCase("recompute-source-lost")},
    {"clock-skew", "hb-timestamp-violation", mutateClockSkew,
     everyCase("hb-timestamp-violation")},
}};

/** ResNet-50@256's measured iteration under Capuchin, as an access trace. */
TensorTrace
measuredTrace()
{
    auto policy = makeCapuchinPolicy();
    const auto &capuchin = static_cast<const CapuchinPolicy &>(*policy);
    Session session(buildResNet(256, 50), ExecConfig{}, std::move(policy));
    auto r = session.run(1);
    if (r.oom)
        fatal("measured execution failed: {}", r.oomMessage);
    return captureTrace(capuchin.tracker(), session.graph());
}

/** The trace, its plan at kCapacity and the plan's event graph. */
struct CorpusFixture
{
    TensorTrace trace = measuredTrace();
    Graph graph = reconstructGraph(trace);
    AccessTracker tracker = trace.toTracker();
    PcieLink pcie{GpuDeviceSpec::p100().pcieBandwidth,
                  GpuDeviceSpec::p100().pcieLatency};
    Plan plan;
    Corpus corpus;

    CorpusFixture()
    {
        corpus.plan = &plan;
        corpus.graph = &graph;
        corpus.tracker = &tracker;
        corpus.bytesOf = [this](TensorId t) { return graph.tensor(t).bytes; };
        corpus.swapTime = [this](std::uint64_t b) {
            return pcie.transferTime(b);
        };
        corpus.checker.gpuCapacity = kCapacity;
        // Target: what the activations need beyond the pool left after the
        // weights, at the trace's hypothetical (no-eviction) peak.
        std::uint64_t peak = tracker.hypotheticalPeak([this](TensorId id) {
            const TensorDesc &t = graph.tensor(id);
            return t.kind == TensorKind::Weight ? 0 : t.bytes;
        });
        std::uint64_t weights = graph.bytesOfKind(TensorKind::Weight);
        std::uint64_t budget = kCapacity > weights ? kCapacity - weights : 0;
        std::uint64_t target = peak > budget ? peak - budget : 0;
        plan = PolicyMaker(graph, tracker, PolicyMakerOptions{})
                   .build(target, corpus.bytesOf, corpus.swapTime, kCapacity);
        corpus.base = buildPlanEventGraph(plan, tracker, corpus.bytesOf,
                                          corpus.swapTime);
    }
};

const Corpus &
corpus()
{
    static const CorpusFixture f;
    return f.corpus;
}

CaseResult
runCase(const CorpusClass &cls, std::size_t s)
{
    Rng rng(hashCombine(hashCombine(kSeed, hashString(cls.name)),
                        static_cast<std::uint64_t>(s)));
    return cls.mutate(corpus(), rng, cls.rule);
}

} // namespace

TEST(MutationCorpus, PlansTheRecordedCorpus)
{
    const Corpus &c = corpus();
    auto swaps = std::count_if(
        c.plan->items.begin(), c.plan->items.end(),
        [](const PlannedEviction &i) { return i.mode == RegenChoice::Swap; });
    EXPECT_EQ(c.plan->items.size(), 60u);
    EXPECT_EQ(swaps, 31);
    EXPECT_EQ(c.base.events.size(), 592u);
}

TEST(MutationCorpus, CleanBaselineHasNoErrors)
{
    const Corpus &c = corpus();
    LintReport plan = checkPlan(c, *c.plan, *c.graph);
    EXPECT_EQ(plan.errorCount(), 0u) << plan.summary();
    LintReport races = checkHappensBefore(c.base, c.graph);
    EXPECT_EQ(races.errorCount(), 0u) << races.summary();
    Rng rng(hashCombine(kSeed, hashString("clean")));
    LintReport timeline = scanTimeline(syntheticTimeline(rng, false), c);
    EXPECT_EQ(timeline.errorCount(), 0u) << timeline.summary();
}

TEST(MutationCorpus, GateCatchesEveryClass)
{
    std::size_t injected = 0;
    std::size_t caught = 0;
    for (const CorpusClass &cls : kClasses) {
        std::size_t clsInjected = 0;
        for (std::size_t s = 0; s < kCases; ++s) {
            CaseResult res = runCase(cls, s);
            EXPECT_EQ(res.note, cls.fired[s]) << cls.name << " case " << s;
            clsInjected += res.injected ? 1 : 0;
            caught += res.caught ? 1 : 0;
        }
        EXPECT_GT(clsInjected, 0u) << cls.name << " has no injection site";
        injected += clsInjected;
    }
    EXPECT_GE(caught * 100, injected * 95)
        << caught << " of " << injected << " cases caught";
}
