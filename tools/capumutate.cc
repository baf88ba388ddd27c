/**
 * @file
 * capumutate — seeded mutation corpus for the plan verifier and the
 * happens-before engine.
 *
 * Builds a clean plan from a saved access trace (same flow as capulint)
 * and the event graph that plan implies (buildPlanEventGraph: the
 * schedule the executor runs it as). The false-positive gate requires
 * zero errors from PlanChecker::check on the plan, from the race scan on
 * that unmutated graph, and from the dynamic happens-before cross-check
 * on a clean synthetic timeline. The detection gate then injects ~10
 * classes of plan/schedule corruptions and checks each is caught with the
 * expected rule. Corruption classes:
 *
 *   event surgery      trigger-after-back, swapin-during-swapout — reorder
 *                      prefetch triples in the event list, exactly the
 *                      schedules a buggy executor would produce
 *   rule knockouts     drop-sync-edge, early-free, copy-before-retire —
 *                      drop every edge of one executor guarantee from the
 *                      clean graph, modelling a runtime that forgot to
 *                      enforce it
 *   plan mutations     use-after-evict-hole, empty-interval — corrupt
 *                      PlannedEviction intervals (graded on
 *                      PlanChecker::check)
 *   graph surgery      cyclic-lineage, lost-source — corrupt the lineage
 *                      the recompute replay depends on (graded on
 *                      PlanChecker::check)
 *   timestamp skew     clock-skew — a synthetic capuscope timeline whose
 *                      measured times contradict an ordering edge
 *
 * The corpus composition (class, case count, expected rule) is read from
 * the manifest given with --manifest (CI passes
 * tools/capumutate_manifest.txt). Exit 0 when the catch rate is >= 95%
 * with zero false positives and no class lacking an injection site; exit
 * 4 when the gate fails; exit 1 on usage/trace errors.
 */

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/happens_before.hh"
#include "analysis/plan_checker.hh"
#include "core/policy_maker.hh"
#include "core/trace_io.hh"
#include "exec/ordering.hh"
#include "obs/event_adapter.hh"
#include "sim/gpu_device.hh"
#include "sim/pcie_link.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/units.hh"

using namespace capu;

namespace
{

struct Options
{
    std::string trace;
    std::string manifest;
    std::string device = "p100";
    std::uint64_t capacity = 0;
    std::uint64_t savingBytes = 0;
    std::uint64_t seed = 1;
    bool noSwap = false;
    bool noRecompute = false;
    bool verbose = false;
};

void
usage()
{
    std::cout <<
        "capumutate — mutation corpus gate for the static plan verifier\n"
        "\n"
        "  --trace <file>       access trace from capusim --dump-trace\n"
        "  --manifest <file>    corpus manifest, e.g.\n"
        "                       tools/capumutate_manifest.txt\n"
        "  --device <name>      p100 (default) | v100\n"
        "  --capacity <bytes>   GPU pool capacity (K/M/G suffixes)\n"
        "  --saving <bytes>     memory-saving target for the PolicyMaker\n"
        "  --no-swap            recompute-only plan\n"
        "  --no-recompute       swap-only plan\n"
        "  --seed <n>           base corpus seed (default 1)\n"
        "  --verbose            per-case detail\n"
        "\n"
        "exit status:\n"
        "  0  catch rate >= 95%, zero false positives\n"
        "  1  usage error or the trace failed to load/parse\n"
        "  4  the detection or false-positive gate failed\n";
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value after {}", a);
            return argv[++i];
        };
        if (a == "--trace")
            opt.trace = next();
        else if (a == "--manifest")
            opt.manifest = next();
        else if (a == "--device")
            opt.device = next();
        else if (a == "--capacity")
            opt.capacity = parseBytes(next());
        else if (a == "--saving")
            opt.savingBytes = parseBytes(next());
        else if (a == "--no-swap")
            opt.noSwap = true;
        else if (a == "--no-recompute")
            opt.noRecompute = true;
        else if (a == "--seed")
            opt.seed = parseCount(next(), a);
        else if (a == "--verbose")
            opt.verbose = true;
        else if (a == "--help" || a == "-h") {
            usage();
            return false;
        } else {
            fatal("unknown argument '{}' (see --help)", a);
        }
    }
    if (opt.trace.empty())
        fatal("--trace is required (see --help)");
    if (opt.manifest.empty())
        fatal("--manifest is required (see --help)");
    return true;
}

// ---------------------------------------------------------------------------
// Corpus manifest
// ---------------------------------------------------------------------------

struct CorpusClass
{
    std::string name;
    int cases = 0;
    std::string rule; ///< the diagnostic that counts as a catch
};

std::vector<CorpusClass>
loadManifest(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open manifest '{}'", path);
    std::vector<CorpusClass> classes;
    std::string line;
    while (std::getline(in, line)) {
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        CorpusClass c;
        if (!(ls >> c.name >> c.cases >> c.rule))
            continue;
        if (c.cases <= 0)
            fatal("manifest class '{}' has no cases", c.name);
        classes.push_back(std::move(c));
    }
    if (classes.empty())
        fatal("manifest '{}' lists no corpus classes", path);
    return classes;
}

// ---------------------------------------------------------------------------
// Plan -> event graph
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Mutation machinery
// ---------------------------------------------------------------------------

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
// seeds exist for manifest uniformity.
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

CaseResult
runCase(const std::string &cls, const Corpus &c, Rng &rng,
        const std::string &rule)
{
    if (cls == "trigger-after-back")
        return mutateTriggerAfterBack(c, rng, rule);
    if (cls == "drop-sync-edge")
        return mutateKnockout(c, rule, "complete-before-use",
                              hb::HbOp::SwapInEnd);
    if (cls == "early-free")
        return mutateKnockout(c, rule, "complete-before-free",
                              hb::HbOp::SwapOutStart);
    if (cls == "copy-before-retire")
        return mutateKnockout(c, rule, "retire-before-copy",
                              hb::HbOp::SwapOutStart);
    if (cls == "swapin-during-swapout")
        return mutateSwapinDuringSwapout(c, rng, rule);
    if (cls == "use-after-evict-hole")
        return mutateEvictHole(c, rng, rule);
    if (cls == "empty-interval")
        return mutateEmptyInterval(c, rng, rule);
    if (cls == "cyclic-lineage")
        return mutateCyclicLineage(c, rng, rule);
    if (cls == "lost-source")
        return mutateLostSource(c, rng, rule);
    if (cls == "clock-skew")
        return mutateClockSkew(c, rng, rule);
    fatal("unknown corpus class '{}' in manifest", cls);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        if (!parseArgs(argc, argv, opt))
            return 0;
        setLogEnabled(opt.verbose);

        GpuDeviceSpec device = GpuDeviceSpec::byName(opt.device);
        std::uint64_t capacity =
            opt.capacity ? opt.capacity : device.memCapacity;

        TensorTrace trace = loadTraceFile(opt.trace);
        Graph graph = reconstructGraph(trace);
        AccessTracker tracker = trace.toTracker();
        if (tracker.empty())
            fatal("trace '{}' has no access records", opt.trace);

        auto bytes_of = [&graph](TensorId id) {
            return graph.tensor(id).bytes;
        };
        PcieLink pcie(device.pcieBandwidth, device.pcieLatency);
        auto swap_time = [&pcie](std::uint64_t b) {
            return pcie.transferTime(b);
        };

        std::uint64_t weight_bytes = graph.bytesOfKind(TensorKind::Weight);
        std::uint64_t target = opt.savingBytes;
        if (target == 0) {
            std::uint64_t peak = tracker.hypotheticalPeak([&](TensorId id) {
                const TensorDesc &t = graph.tensor(id);
                return t.kind == TensorKind::Weight ? 0 : t.bytes;
            });
            std::uint64_t budget =
                capacity > weight_bytes ? capacity - weight_bytes : 0;
            target = peak > budget ? peak - budget : 0;
            if (target == 0)
                fatal("trace fits {} without a plan; pass --saving or a "
                      "tighter --capacity to force one",
                      formatBytes(capacity));
        }

        PolicyMakerOptions pm_opts;
        pm_opts.enableSwap = !opt.noSwap;
        pm_opts.enableRecompute = !opt.noRecompute;
        PolicyMaker maker(graph, tracker, pm_opts);
        Plan plan = maker.build(target, bytes_of, swap_time, capacity);
        if (plan.items.empty())
            fatal("PolicyMaker produced an empty plan; nothing to mutate");

        Corpus corpus;
        corpus.plan = &plan;
        corpus.graph = &graph;
        corpus.tracker = &tracker;
        corpus.bytesOf = bytes_of;
        corpus.swapTime = swap_time;
        corpus.checker.gpuCapacity = capacity;
        corpus.base =
            buildPlanEventGraph(plan, tracker, bytes_of, swap_time);

        std::size_t swapItems = 0;
        for (const PlannedEviction &item : plan.items)
            swapItems += item.mode == RegenChoice::Swap ? 1 : 0;
        std::cout << "capumutate: trace " << opt.trace << ": plan "
                  << plan.items.size() << " items (" << swapItems
                  << " swap / " << plan.items.size() - swapItems
                  << " recompute), " << corpus.base.events.size()
                  << " events\n";

        // --- False-positive gate: the clean plan, the event graph it
        // implies and the clean synthetic timeline must produce zero
        // error-level findings.
        std::size_t falsePositives = 0;
        {
            LintReport clean = checkPlan(corpus, plan, graph);
            LintReport races = checkHappensBefore(corpus.base, &graph);
            for (auto &d : races.diags)
                clean.diags.push_back(std::move(d));
            Rng fixtureRng(hashCombine(opt.seed, hashString("clean")));
            LintReport synth =
                scanTimeline(syntheticTimeline(fixtureRng, false), corpus);
            for (auto &d : synth.diags)
                clean.diags.push_back(std::move(d));
            falsePositives = clean.errorCount();
            std::cout << "clean baseline: " << clean.errorCount()
                      << " errors, " << clean.warningCount()
                      << " warnings ("
                      << (falsePositives == 0 ? "PASS" : "FAIL") << ")\n";
            if (falsePositives != 0)
                printLintReport(std::cout, clean, graph);
        }

        // --- Detection gate.
        std::vector<CorpusClass> classes = loadManifest(opt.manifest);
        std::size_t injected = 0;
        std::size_t caught = 0;
        std::size_t skippedClasses = 0;
        std::cout << "\n"
                  << std::left << std::setw(24) << "class" << std::right
                  << std::setw(7) << "cases" << std::setw(8) << "caught"
                  << std::setw(8) << "missed" << std::setw(9) << "skipped"
                  << "  expected rule\n";
        for (const CorpusClass &cls : classes) {
            std::size_t clsInjected = 0;
            std::size_t clsCaught = 0;
            for (int s = 0; s < cls.cases; ++s) {
                Rng rng(hashCombine(hashCombine(opt.seed,
                                                hashString(cls.name.c_str())),
                                    static_cast<std::uint64_t>(s)));
                CaseResult res = runCase(cls.name, corpus, rng, cls.rule);
                clsInjected += res.injected ? 1 : 0;
                clsCaught += res.caught ? 1 : 0;
                if (opt.verbose)
                    std::cout << "  " << cls.name << " seed " << s << ": "
                              << (res.injected
                                      ? (res.caught ? "caught" : "MISSED")
                                      : "skipped (no site)")
                              << " [" << res.note << "]\n";
            }
            injected += clsInjected;
            caught += clsCaught;
            if (clsInjected == 0)
                ++skippedClasses;
            std::cout << std::left << std::setw(24) << cls.name << std::right
                      << std::setw(7) << cls.cases << std::setw(8)
                      << clsCaught << std::setw(8) << clsInjected - clsCaught
                      << std::setw(9)
                      << static_cast<std::size_t>(cls.cases) - clsInjected
                      << "  " << cls.rule << "\n";
        }

        double rate = injected == 0
                          ? 0.0
                          : 100.0 * static_cast<double>(caught) /
                                static_cast<double>(injected);
        bool pass = falsePositives == 0 && skippedClasses == 0 &&
                    injected > 0 && rate >= 95.0;
        std::cout << "\ntotal: " << injected << " injected, " << caught
                  << " caught (" << std::fixed << std::setprecision(1)
                  << rate << "%), " << skippedClasses
                  << " classes without a site, " << falsePositives
                  << " false positives\n"
                  << "gate: " << (pass ? "PASS" : "FAIL")
                  << " (requires >= 95% catch, 0 false positives, every "
                     "class injectable)\n";
        return pass ? 0 : 4;
    } catch (const FatalError &e) {
        std::cerr << "capumutate: " << e.what() << "\n";
        return 1;
    }
}
