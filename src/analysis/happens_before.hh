/**
 * @file
 * capuverify: happens-before race detection over execution traces.
 *
 * Guided execution runs concurrently: kernels on the FIFO compute stream,
 * swap-outs and prefetches on the two PCIe lanes, chunk frees deferred to
 * transfer completion. The PlanChecker proves per-tensor plan invariants
 * before a run; this engine proves the *cross-stream* property of the run
 * itself: every pair of conflicting operations on a tensor's device
 * buffer (or its pinned host copy) is ordered by the runtime's guarantees.
 *
 * Pipeline:
 *   1. Lift a capuscope trace's real records into an event list
 *      (buildTraceEventGraph).
 *   2. Enumerate the ordering edges the Executor/Stream/PcieLink enforce
 *      (exec/ordering.hh — the single source of truth for the rules).
 *   3. Assign vector clocks: one clock component per totally-ordered
 *      timeline (compute, D2H, H2D). Clocks propagate along edges in
 *      topological order. Deferred host actions (frees and allocs) are
 *      ordered only by their causes, so they get no component; whether
 *      one happens before an event is asked of its successors.
 *   4. Check: unordered conflicting pairs (`hb-race`), frees ordered
 *      before a use of the same buffer (`hb-use-after-free`), directional
 *      obligations — the copy that fills a buffer must be sequenced
 *      before its first read (`hb-unsequenced-prefetch` /
 *      `hb-unsequenced-recompute`), the evicting kernel before the D2H
 *      copy (`hb-copy-before-retire`) — and cyclic event graphs
 *      (`hb-cycle`).
 *
 * checkTimestamps additionally cross-checks the simulator itself: every
 * enumerated edge must be respected by the trace's real timestamps
 * (`hb-timestamp-violation`), so a sequencing bug in the executor shows up
 * as a contradiction between the rules it claims and the times it
 * produced.
 *
 * Plans are not checked here: the executor itself sequences each planned
 * eviction (deferred frees, prefetch stalls, on-demand fallbacks), so what
 * a plan can get wrong is for PlanChecker::check's plan rules to find.
 * The mutation corpus (tests/mutation_corpus_test.cc) grades this engine
 * on event graphs it derives from a real plan and then corrupts.
 */

#ifndef CAPU_ANALYSIS_HAPPENS_BEFORE_HH
#define CAPU_ANALYSIS_HAPPENS_BEFORE_HH

#include <cstdint>
#include <vector>

#include "analysis/plan_checker.hh"
#include "exec/ordering.hh"
#include "graph/graph.hh"
#include "obs/event_adapter.hh"

namespace capu
{

/** An event list plus the ordering edges enumerated for it. */
struct HbAnalysis
{
    std::vector<hb::HbEvent> events;
    std::vector<hb::HbEdge> edges;
};

/**
 * Lift a capuscope timeline (obs::extractTimeline) into the event model.
 * Only tensors that move (transfers or recompute replays) contribute
 * events; buffer incarnations are tracked across iterations so repeated
 * swap cycles do not alias.
 */
HbAnalysis buildTraceEventGraph(const std::vector<obs::TimelineRecord> &recs);

/**
 * One direction of an analysis's edges in compressed sparse row form:
 * event i's neighbours are adj[first[i]] .. adj[first[i + 1] - 1], in edge
 * order.
 */
struct HbCsr
{
    std::vector<std::uint32_t> first; ///< event count + 1 offsets
    std::vector<std::uint32_t> adj;
};

/** Each event's successors (edge targets), in edge order. */
HbCsr hbSuccessors(const HbAnalysis &analysis);
/** Each event's predecessors (edge sources), in edge order. */
HbCsr hbPredecessors(const HbAnalysis &analysis);

/**
 * Vector clocks for one analysis: one component per FIFO stream (compute,
 * D2H, H2D). A deferred event joins no chain; ordered() answers for it
 * through its successors.
 */
struct HbClocks
{
    bool acyclic = true;
    std::uint32_t cycleEvent = 0; ///< an event on the cycle (if !acyclic)
    /** Per event: (stream chain, 1-based position on it); a deferred event
     *  has chain kHbChainStreams and position 0. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pos;
    /**
     * Row-major events x kHbChainStreams: event i's clock, joined over its
     * predecessors with its own position included, is the row starting at
     * clock[i * kHbChainStreams].
     */
    std::vector<std::uint32_t> clock;
    HbCsr succ; ///< each event's successors

    /** Strict happens-before: a's position is visible in b's clock, or
     *  (for a deferred a) a successor of a is b or happens before it. */
    bool ordered(std::uint32_t a, std::uint32_t b) const;
};

HbClocks assignVectorClocks(const HbAnalysis &analysis);

/**
 * Race scan + directional obligations over an event graph. `graph` is
 * used for tensor names in messages; pass nullptr when unavailable.
 */
LintReport checkHappensBefore(const HbAnalysis &analysis,
                              const Graph *graph = nullptr);

/**
 * Trace cross-check: every enumerated edge must be respected by the
 * events' observed timestamps (from.end <= to.start).
 */
LintReport checkTimestamps(const HbAnalysis &analysis,
                           const Graph *graph = nullptr);

} // namespace capu

#endif // CAPU_ANALYSIS_HAPPENS_BEFORE_HH
