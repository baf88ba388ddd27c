#include "analysis/happens_before.hh"

#include <algorithm>
#include <array>
#include <compare>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "support/logging.hh"

namespace capu
{

namespace
{

std::string
tensorLabel(const Graph *graph, TensorId id)
{
    if (graph && id != kInvalidTensor &&
        static_cast<std::size_t>(id) < graph->tensors().size())
        return graph->tensor(id).name;
    return "t" + std::to_string(id);
}

std::string
eventLabel(const hb::HbEvent &ev, const Graph *graph)
{
    std::string s = hbOpName(ev.op);
    s += "(" + tensorLabel(graph, ev.tensor);
    if (ev.op == hb::HbOp::KernelAccess && ev.accessIndex > 0)
        s += "#" + std::to_string(ev.accessIndex);
    s += ")@" + std::to_string(ev.start);
    return s;
}

void
diag(LintReport &report, LintSeverity sev, const char *rule, TensorId tensor,
     int access, std::string msg)
{
    LintDiagnostic d;
    d.severity = sev;
    d.rule = rule;
    d.tensor = tensor;
    d.accessIndex = access;
    d.message = std::move(msg);
    report.diags.push_back(std::move(d));
}

} // namespace

// ---------------------------------------------------------------------------
// Static mode: plan -> event graph
// ---------------------------------------------------------------------------

HbAnalysis
buildPlanEventGraph(const Plan &plan, const AccessTracker &tracker,
                    const PlanChecker::BytesFn &tensor_bytes,
                    const PlanChecker::SwapTimeFn &swap_time,
                    const hb::OrderingRules &rules)
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

    out.edges = enumerateOrderingEdges(out.events, rules);
    return out;
}

// ---------------------------------------------------------------------------
// Dynamic mode: capuscope timeline -> event graph
// ---------------------------------------------------------------------------

HbAnalysis
buildTraceEventGraph(const std::vector<obs::TimelineRecord> &recs,
                     const hb::OrderingRules &rules)
{
    using hb::HbEvent;
    using hb::HbOp;
    using hb::HbStream;
    using obs::TimelineKind;

    HbAnalysis out;

    // Only tensors that actually move contribute events.
    std::unordered_set<std::int64_t> moving;
    for (const auto &r : recs) {
        if (r.kind != TimelineKind::Access && !r.failed)
            moving.insert(r.tensor);
    }
    if (moving.empty())
        return out;

    // Split interval records into start/end sub-events and order them by
    // (tick, rank): completions enable work at the same tick (rank 0),
    // accesses consume it (rank 1), new copies read retired data (rank 2).
    struct Sub
    {
        Tick key = 0;
        int rank = 0;
        HbEvent ev;
    };
    std::vector<Sub> subs;
    subs.reserve(recs.size() * 2);
    auto add = [&](Tick key, int rank, HbStream stream, HbOp op,
                   const obs::TimelineRecord &r, Tick start, Tick end,
                   bool write) {
        Sub s;
        s.key = key;
        s.rank = rank;
        s.ev.stream = stream;
        s.ev.op = op;
        s.ev.tensor = static_cast<TensorId>(r.tensor);
        s.ev.write = write;
        s.ev.start = start;
        s.ev.end = end;
        s.ev.opId = r.op < 0 ? kInvalidOp : static_cast<OpId>(r.op);
        if (op == HbOp::KernelAccess)
            s.ev.accessIndex = r.accessIndex;
        subs.push_back(std::move(s));
    };
    for (const auto &r : recs) {
        if (moving.count(r.tensor) == 0 || r.failed)
            continue;
        switch (r.kind) {
          case TimelineKind::Access:
            add(r.start, 1, HbStream::Compute, HbOp::KernelAccess, r,
                r.start, r.start, r.write);
            break;
          case TimelineKind::Recompute:
            add(r.end, 0, HbStream::Compute, HbOp::RecomputeKernel, r,
                r.start, r.end, true);
            break;
          case TimelineKind::SwapOut:
            add(r.start, 2, HbStream::D2H, HbOp::SwapOutStart, r, r.start,
                r.start, false);
            add(r.end, 0, HbStream::D2H, HbOp::SwapOutEnd, r, r.end, r.end,
                false);
            break;
          case TimelineKind::SwapIn:
            add(r.start, 2, HbStream::H2D, HbOp::SwapInStart, r, r.start,
                r.start, true);
            add(r.end, 0, HbStream::H2D, HbOp::SwapInEnd, r, r.end, r.end,
                true);
            break;
        }
    }
    std::stable_sort(subs.begin(), subs.end(), [](const Sub &a, const Sub &b) {
        return a.key != b.key ? a.key < b.key : a.rank < b.rank;
    });

    // Buffer incarnations: a production write or a swap-in creates a fresh
    // device buffer; a swap-out bumps the host-copy tag it writes.
    struct Gen
    {
        int buffer = 0;
        int host = 0;
    };
    std::unordered_map<TensorId, Gen> gens;
    out.events.reserve(subs.size());
    for (Sub &s : subs) {
        Gen &g = gens[s.ev.tensor];
        switch (s.ev.op) {
          case HbOp::KernelAccess:
            if (s.ev.write && s.ev.accessIndex == 1)
                ++g.buffer; // production: fresh chunk each iteration
            s.ev.buffer = g.buffer;
            break;
          case HbOp::RecomputeKernel:
            ++g.buffer;
            s.ev.buffer = g.buffer;
            break;
          case HbOp::SwapOutStart:
            ++g.host;
            s.ev.buffer = g.buffer;
            s.ev.accessIndex = g.host;
            break;
          case HbOp::SwapOutEnd:
            s.ev.buffer = g.buffer;
            s.ev.accessIndex = g.host;
            break;
          case HbOp::SwapInStart:
            ++g.buffer;
            s.ev.buffer = g.buffer;
            s.ev.accessIndex = g.host;
            break;
          case HbOp::SwapInEnd:
            s.ev.buffer = g.buffer;
            s.ev.accessIndex = g.host;
            break;
          default:
            break;
        }
        s.ev.id = static_cast<std::uint32_t>(out.events.size());
        out.events.push_back(s.ev);
    }

    out.edges = enumerateOrderingEdges(out.events, rules);
    return out;
}

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

namespace
{

HbCsr
csr(const HbAnalysis &analysis, bool forward)
{
    HbCsr out;
    out.first.assign(analysis.events.size() + 1, 0);
    out.adj.resize(analysis.edges.size());
    for (const hb::HbEdge &e : analysis.edges)
        ++out.first[(forward ? e.from : e.to) + 1];
    for (std::size_t i = 1; i < out.first.size(); ++i)
        out.first[i] += out.first[i - 1];
    std::vector<std::uint32_t> fill(out.first.begin(), out.first.end() - 1);
    for (const hb::HbEdge &e : analysis.edges)
        out.adj[fill[forward ? e.from : e.to]++] = forward ? e.to : e.from;
    return out;
}

} // namespace

HbCsr
hbSuccessors(const HbAnalysis &analysis)
{
    return csr(analysis, true);
}

HbCsr
hbPredecessors(const HbAnalysis &analysis)
{
    return csr(analysis, false);
}

bool
HbClocks::ordered(std::uint32_t a, std::uint32_t b) const
{
    if (a == b)
        return false;
    const auto &[chain, position] = pos[a];
    return clock[b * chainCount + chain] >= position;
}

HbClocks
assignVectorClocks(const HbAnalysis &analysis)
{
    using hb::HbStream;
    using hb::kHbChainStreams;

    HbClocks clocks;
    const std::size_t n = analysis.events.size();

    // Chains: the three FIFO streams plus one singleton chain per deferred
    // event (deferred host actions are ordered only by their causes;
    // putting them on a shared chain would invent orderings).
    std::size_t deferred = 0;
    clocks.pos.resize(n);
    std::array<std::uint32_t, kHbChainStreams> streamPos{};
    for (std::size_t i = 0; i < n; ++i) {
        const hb::HbEvent &ev = analysis.events[i];
        if (ev.stream == HbStream::Deferred) {
            clocks.pos[i] = {static_cast<std::uint32_t>(kHbChainStreams +
                                                        deferred),
                             1};
            ++deferred;
        } else {
            auto s = static_cast<std::size_t>(ev.stream);
            clocks.pos[i] = {static_cast<std::uint32_t>(s), ++streamPos[s]};
        }
    }
    const std::size_t chains = kHbChainStreams + deferred;
    clocks.chainCount = chains;
    clocks.clock.assign(n * chains, 0);

    const HbCsr succ = hbSuccessors(analysis);
    std::vector<std::uint32_t> indeg(n, 0);
    for (std::uint32_t v : succ.adj)
        ++indeg[v];

    // Kahn's algorithm with a FIFO queue: `ready` holds the visit order.
    std::vector<std::uint32_t> ready;
    ready.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (indeg[i] == 0)
            ready.push_back(static_cast<std::uint32_t>(i));
    }
    for (std::size_t head = 0; head < ready.size(); ++head) {
        std::uint32_t u = ready[head];
        std::uint32_t *cu = &clocks.clock[u * chains];
        const auto &[chain, position] = clocks.pos[u];
        cu[chain] = std::max(cu[chain], position);
        for (std::uint32_t k = succ.first[u]; k < succ.first[u + 1]; ++k) {
            std::uint32_t v = succ.adj[k];
            std::uint32_t *cv = &clocks.clock[v * chains];
            for (std::size_t c = 0; c < chains; ++c)
                cv[c] = std::max(cv[c], cu[c]);
            if (--indeg[v] == 0)
                ready.push_back(v);
        }
    }
    if (ready.size() != n) {
        clocks.acyclic = false;
        for (std::size_t i = 0; i < n; ++i) {
            if (indeg[i] != 0) {
                clocks.cycleEvent = static_cast<std::uint32_t>(i);
                break;
            }
        }
    }
    return clocks;
}

// ---------------------------------------------------------------------------
// Race scan + obligations
// ---------------------------------------------------------------------------

namespace
{

/** How an event touches the device buffer it is tagged with. */
enum class BufRole
{
    None,  ///< metadata only (alloc)
    Read,  ///< kernel read, D2H copy source
    Write, ///< kernel write, H2D copy destination, recompute
    Free,  ///< destructive release
};

BufRole
deviceRole(const hb::HbEvent &ev)
{
    switch (ev.op) {
      case hb::HbOp::KernelAccess:
        return ev.write ? BufRole::Write : BufRole::Read;
      case hb::HbOp::RecomputeKernel:
        return BufRole::Write;
      case hb::HbOp::SwapOutStart:
      case hb::HbOp::SwapOutEnd:
        return BufRole::Read;
      case hb::HbOp::SwapInStart:
      case hb::HbOp::SwapInEnd:
        return BufRole::Write;
      case hb::HbOp::BufferFree:
        return BufRole::Free;
      case hb::HbOp::BufferAlloc:
        return BufRole::None;
    }
    return BufRole::None;
}

bool
isTransfer(const hb::HbEvent &ev)
{
    return ev.op == hb::HbOp::SwapOutStart || ev.op == hb::HbOp::SwapOutEnd ||
           ev.op == hb::HbOp::SwapInStart || ev.op == hb::HbOp::SwapInEnd;
}

bool
isSwapOut(const hb::HbEvent &ev)
{
    return ev.op == hb::HbOp::SwapOutStart || ev.op == hb::HbOp::SwapOutEnd;
}

constexpr std::size_t kMaxGroupReports = 4;

/** An event touching the resource (tensor, key). */
struct Touch
{
    TensorId tensor;
    int key;
    std::uint32_t id;

    auto operator<=>(const Touch &) const = default;
};

/**
 * fn(tensor, key, ids) for each group of sorted touches that share one
 * resource. Sorting visits groups in ascending (tensor, key) order and
 * each group's ids ascending: the order a std::map of per-resource
 * vectors gives.
 */
template <typename Fn>
void
forEachGroup(const std::vector<Touch> &sorted, Fn &&fn)
{
    std::vector<std::uint32_t> ids;
    for (std::size_t i = 0, j = 0; i < sorted.size(); i = j) {
        ids.clear();
        for (; j < sorted.size() && sorted[j].tensor == sorted[i].tensor &&
               sorted[j].key == sorted[i].key;
             ++j)
            ids.push_back(sorted[j].id);
        fn(sorted[i].tensor, sorted[i].key, ids);
    }
}

} // namespace

LintReport
checkHappensBefore(const HbAnalysis &analysis, const Graph *graph)
{
    using hb::HbEvent;
    using hb::HbOp;

    LintReport report;
    HbClocks clocks = assignVectorClocks(analysis);
    if (!clocks.acyclic) {
        const HbEvent &ev = analysis.events[clocks.cycleEvent];
        diag(report, LintSeverity::Error, "hb-cycle", ev.tensor,
             ev.accessIndex,
             "ordering edges form a cycle through " +
                 eventLabel(ev, graph) +
                 "; the implied schedule cannot execute");
        return report;
    }

    // Group events by the resource they touch: the device-buffer
    // incarnation (tensor, buffer) and, for transfers, the pinned host
    // copy (tensor, host tag).
    std::vector<Touch> device;
    std::vector<Touch> host;
    for (const HbEvent &ev : analysis.events) {
        if (ev.tensor == kInvalidTensor)
            continue;
        if (deviceRole(ev) != BufRole::None)
            device.push_back({ev.tensor, ev.buffer, ev.id});
        if (isTransfer(ev))
            host.push_back({ev.tensor, ev.accessIndex, ev.id});
    }
    std::sort(device.begin(), device.end());
    std::sort(host.begin(), host.end());

    auto raceRule = [](const HbEvent &a, const HbEvent &b) -> const char * {
        bool free = a.op == HbOp::BufferFree || b.op == HbOp::BufferFree;
        bool out = isSwapOut(a) || isSwapOut(b);
        if (free && out)
            return "hb-free-racing-swapout";
        return "hb-race";
    };

    // Pairwise scan: every conflicting pair on one buffer must be ordered;
    // a free ordered before another use is a use-after-free.
    forEachGroup(device, [&](TensorId tensor, int buffer,
                             const std::vector<std::uint32_t> &members) {
        std::size_t reported = 0;
        for (std::size_t i = 0;
             i < members.size() && reported < kMaxGroupReports; ++i) {
            const HbEvent &a = analysis.events[members[i]];
            BufRole ra = deviceRole(a);
            for (std::size_t j = i + 1;
                 j < members.size() && reported < kMaxGroupReports; ++j) {
                const HbEvent &b = analysis.events[members[j]];
                BufRole rb = deviceRole(b);
                if (ra == BufRole::Read && rb == BufRole::Read)
                    continue;
                bool ab = clocks.ordered(a.id, b.id);
                bool ba = clocks.ordered(b.id, a.id);
                if (!ab && !ba) {
                    diag(report, LintSeverity::Error, raceRule(a, b),
                         tensor, a.accessIndex,
                         "unordered conflicting operations on device buffer #" +
                             std::to_string(buffer) + ": " +
                             eventLabel(a, graph) + " vs " +
                             eventLabel(b, graph));
                    ++reported;
                    continue;
                }
                const HbEvent *first = ab ? &a : &b;
                const HbEvent *second = ab ? &b : &a;
                if (first->op == HbOp::BufferFree &&
                    second->op != HbOp::BufferFree) {
                    diag(report, LintSeverity::Error, "hb-use-after-free",
                         tensor, second->accessIndex,
                         eventLabel(*second, graph) +
                             " is ordered after the free of device buffer #" +
                             std::to_string(buffer));
                    ++reported;
                }
            }
        }
    });

    // Host-copy scan: the D2H copy that writes the staging buffer must be
    // ordered before every H2D copy that reads it back.
    forEachGroup(host, [&](TensorId tensor, int copy,
                           const std::vector<std::uint32_t> &members) {
        std::size_t reported = 0;
        for (std::size_t i = 0;
             i < members.size() && reported < kMaxGroupReports; ++i) {
            const HbEvent &a = analysis.events[members[i]];
            for (std::size_t j = i + 1;
                 j < members.size() && reported < kMaxGroupReports; ++j) {
                const HbEvent &b = analysis.events[members[j]];
                if (isSwapOut(a) == isSwapOut(b))
                    continue; // lane FIFO covers same-direction pairs
                const HbEvent &outEv = isSwapOut(a) ? a : b;
                const HbEvent &inEv = isSwapOut(a) ? b : a;
                if (!clocks.ordered(outEv.id, inEv.id)) {
                    diag(report, LintSeverity::Error,
                         "hb-swapin-before-swapout", tensor, 0,
                         eventLabel(inEv, graph) +
                             " reads host copy #" + std::to_string(copy) +
                             " without being ordered after " +
                             eventLabel(outEv, graph));
                    ++reported;
                }
            }
        }
    });

    // Directional obligations.
    // (1) The copy/replay that fills a buffer happens-before each read of
    //     it — a prefetch sequenced after its target access is stale data
    //     even though the pair is "ordered".
    forEachGroup(device, [&](TensorId tensor, int buffer,
                             const std::vector<std::uint32_t> &members) {
        std::int64_t writer = -1;
        HbOp writerOp = HbOp::KernelAccess;
        for (std::uint32_t id : members) {
            const HbEvent &ev = analysis.events[id];
            if (ev.op == HbOp::SwapInEnd || ev.op == HbOp::RecomputeKernel) {
                writer = id;
                writerOp = ev.op;
            }
        }
        if (writer < 0)
            return;
        std::size_t reported = 0;
        for (std::uint32_t id : members) {
            const HbEvent &ev = analysis.events[id];
            if (ev.op != HbOp::KernelAccess)
                continue;
            if (reported >= kMaxGroupReports)
                break;
            auto w = static_cast<std::uint32_t>(writer);
            if (!clocks.ordered(w, id)) {
                diag(report, LintSeverity::Error,
                     writerOp == HbOp::SwapInEnd ? "hb-unsequenced-prefetch"
                                                 : "hb-unsequenced-recompute",
                     tensor, ev.accessIndex,
                     eventLabel(ev, graph) +
                         " is not ordered after the " +
                         std::string(hbOpName(writerOp)) +
                         " that fills device buffer #" +
                         std::to_string(buffer));
                ++reported;
            }
        }
    });
    // (2) The evicting kernel retires before the D2H copy reads the buffer.
    {
        std::unordered_map<TensorId, std::int64_t> lastAccess;
        for (const HbEvent &ev : analysis.events) {
            if (ev.tensor == kInvalidTensor)
                continue;
            if (ev.op == HbOp::KernelAccess ||
                ev.op == HbOp::RecomputeKernel) {
                lastAccess[ev.tensor] = ev.id;
            } else if (ev.op == HbOp::SwapOutStart) {
                auto it = lastAccess.find(ev.tensor);
                if (it == lastAccess.end())
                    continue;
                auto a = static_cast<std::uint32_t>(it->second);
                if (analysis.events[a].buffer == ev.buffer &&
                    !clocks.ordered(a, ev.id)) {
                    diag(report, LintSeverity::Error, "hb-copy-before-retire",
                         ev.tensor, analysis.events[a].accessIndex,
                         eventLabel(ev, graph) +
                             " is not ordered after the evicting access " +
                             eventLabel(analysis.events[a], graph));
                }
            }
        }
    }
    return report;
}

LintReport
checkTimestamps(const HbAnalysis &analysis, const Graph *graph)
{
    constexpr std::size_t kMaxReports = 32;
    LintReport report;
    for (const hb::HbEdge &e : analysis.edges) {
        const hb::HbEvent &from = analysis.events[e.from];
        const hb::HbEvent &to = analysis.events[e.to];
        if (from.end > to.start) {
            diag(report, LintSeverity::Error, "hb-timestamp-violation",
                 to.tensor, to.accessIndex,
                 std::string(e.rule) + " edge contradicted by the trace: " +
                     eventLabel(from, graph) + " ends at " +
                     std::to_string(from.end) + " but " +
                     eventLabel(to, graph) + " starts at " +
                     std::to_string(to.start));
            if (report.diags.size() >= kMaxReports)
                break;
        }
    }
    return report;
}

} // namespace capu
