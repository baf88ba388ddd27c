#include "prof/critical_path.hh"

#include <algorithm>
#include <limits>

#include "analysis/happens_before.hh"

namespace capu::prof
{

namespace
{

/** Cap on materialized critical-path steps (totals stay exact). */
constexpr std::size_t kMaxPathSteps = 64;

Tick
dur(const hb::HbEvent &ev)
{
    return ev.end >= ev.start ? ev.end - ev.start : 0;
}

/** A Start/End pair bracketing one PCIe transfer on the same lane. */
bool
transferBracket(const hb::HbEvent &a, const hb::HbEvent &b)
{
    if (a.tensor != b.tensor || a.stream != b.stream)
        return false;
    return (a.op == hb::HbOp::SwapOutStart && b.op == hb::HbOp::SwapOutEnd) ||
           (a.op == hb::HbOp::SwapInStart && b.op == hb::HbOp::SwapInEnd);
}

} // namespace

CriticalPathSummary
computeCriticalPath(const HbAnalysis &hb)
{
    CriticalPathSummary out;
    const auto &events = hb.events;
    const auto &edges = hb.edges;
    out.events = events.size();
    out.edges = edges.size();
    if (events.empty())
        return out; // nothing moved: no memory traffic to attribute

    // Kahn topological order; a cycle means the trace contradicts the
    // ordering rules (capuverify reports hb-cycle) — bail gracefully.
    const HbCsr succ = hbSuccessors(hb);
    const HbCsr pred = hbPredecessors(hb);
    std::vector<std::uint32_t> indeg(events.size());
    for (std::uint32_t i = 0; i < events.size(); ++i)
        indeg[i] = pred.first[i + 1] - pred.first[i];
    std::vector<std::uint32_t> topo;
    topo.reserve(events.size());
    for (std::uint32_t i = 0; i < events.size(); ++i) {
        if (indeg[i] == 0)
            topo.push_back(i);
    }
    for (std::size_t head = 0; head < topo.size(); ++head) {
        std::uint32_t u = topo[head];
        for (std::uint32_t k = succ.first[u]; k < succ.first[u + 1]; ++k) {
            if (--indeg[succ.adj[k]] == 0)
                topo.push_back(succ.adj[k]);
        }
    }
    if (topo.size() != events.size())
        return out; // cyclic

    Tick minStart = std::numeric_limits<Tick>::max();
    Tick maxEnd = 0;
    for (const auto &ev : events) {
        minStart = std::min(minStart, ev.start);
        maxEnd = std::max(maxEnd, ev.end);
    }
    out.makespan = maxEnd - minStart;

    // PERT backward pass over the observed schedule: LF[i] is the latest
    // finish of event i that keeps every successor's latest start, hence
    // the makespan. slack = LF - observed end (clamped: a trace that
    // violates an edge's timestamps would otherwise go negative).
    std::vector<Tick> lf(events.size(), maxEnd);
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        std::uint32_t u = *it;
        for (std::uint32_t k = succ.first[u]; k < succ.first[u + 1]; ++k) {
            std::uint32_t v = succ.adj[k];
            Tick ls = lf[v] - std::min(lf[v], dur(events[v]));
            lf[u] = std::min(lf[u], ls);
        }
    }
    for (std::uint32_t i = 0; i < events.size(); ++i) {
        Tick slack = lf[i] >= events[i].end ? lf[i] - events[i].end : 0;
        if (slack == 0)
            ++out.zeroSlack;
        out.maxSlack = std::max(out.maxSlack, slack);
    }

    // Extract one longest chain: start from an event finishing at the
    // makespan, repeatedly hop to the predecessor that finished last —
    // the constraint that actually gated each step.
    std::uint32_t sink = 0;
    for (std::uint32_t i = 0; i < events.size(); ++i) {
        if (events[i].end == maxEnd) {
            sink = i;
            break;
        }
    }
    std::vector<std::uint32_t> chain;
    chain.push_back(sink);
    std::uint32_t cur = sink;
    while (pred.first[cur] < pred.first[cur + 1]) {
        std::uint32_t best = pred.adj[pred.first[cur]];
        for (std::uint32_t k = pred.first[cur]; k < pred.first[cur + 1];
             ++k) {
            std::uint32_t p = pred.adj[k];
            if (events[p].end > events[best].end ||
                (events[p].end == events[best].end && p < best))
                best = p;
        }
        chain.push_back(best);
        cur = best;
    }
    std::reverse(chain.begin(), chain.end());
    out.pathLength = chain.size();

    // Compose the chain's time: event durations (recompute replays are
    // the only HB events with extent), transfer gaps between Start/End
    // brackets, and unexplained gaps as waits.
    for (std::size_t i = 0; i < chain.size(); ++i) {
        const hb::HbEvent &ev = events[chain[i]];
        if (ev.op == hb::HbOp::RecomputeKernel)
            out.onPathRecompute += dur(ev);
        if (i == 0)
            continue;
        const hb::HbEvent &prev = events[chain[i - 1]];
        Tick gap = ev.start >= prev.end ? ev.start - prev.end : 0;
        if (transferBracket(prev, ev))
            out.onPathTransfer += gap;
        else
            out.onPathWait += gap;
    }

    // Materialize the tail of the chain (the part nearest the makespan).
    std::size_t first =
        chain.size() > kMaxPathSteps ? chain.size() - kMaxPathSteps : 0;
    out.steps.reserve(chain.size() - first);
    for (std::size_t i = first; i < chain.size(); ++i) {
        const hb::HbEvent &ev = events[chain[i]];
        CriticalPathStep step;
        step.op = hb::hbOpName(ev.op);
        step.stream = hb::hbStreamName(ev.stream);
        step.tensor = ev.tensor == kInvalidTensor
                          ? -1
                          : static_cast<std::int64_t>(ev.tensor);
        step.opId = ev.opId == kInvalidOp ? -1
                                          : static_cast<std::int64_t>(ev.opId);
        step.start = ev.start;
        step.end = ev.end;
        if (i > 0) {
            const hb::HbEvent &prev = events[chain[i - 1]];
            step.wait = ev.start >= prev.end ? ev.start - prev.end : 0;
        }
        out.steps.push_back(std::move(step));
    }

    out.valid = true;
    return out;
}

} // namespace capu::prof
