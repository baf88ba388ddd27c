/**
 * @file
 * Critical-path analysis over the dynamic happens-before DAG.
 *
 * capuverify already reconstructs the run's ordering graph from the trace
 * (event_adapter timeline -> buildTraceEventGraph): kernel accesses,
 * recompute replays, and swap transfers as point/interval events joined
 * by the executor's seven ordering rules. capuprof reuses that graph for
 * a PERT pass: with observed start/end ticks as the schedule, compute
 * each event's *slack* (how much later it could have finished without
 * moving the makespan) and extract one longest chain — the sequence of
 * memory-traffic events that actually gated the run.
 *
 * Scope note: the HB DAG orders *memory traffic*; scheduled kernels only
 * appear as access instants. So the critical path explains which swaps
 * and recomputes were ordering-critical (and how much of the path was
 * transfer vs replay vs wait), while the wall-clock bucket taxonomy in
 * profile.hh owns the conservation claim.
 */

#ifndef CAPU_PROF_CRITICAL_PATH_HH
#define CAPU_PROF_CRITICAL_PATH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/units.hh"

namespace capu
{
struct HbAnalysis;
} // namespace capu

namespace capu::prof
{

/** One hop of the extracted longest chain. */
struct CriticalPathStep
{
    std::string op;     ///< hbOpName: KernelAccess, SwapInEnd, ...
    std::string stream; ///< hbStreamName: compute, d2h, h2d, deferred
    std::int64_t tensor = -1;
    std::int64_t opId = -1;
    Tick start = 0;
    Tick end = 0;
    /** Gap between the predecessor step's end and this step's start. */
    Tick wait = 0;
};

struct CriticalPathSummary
{
    bool valid = false; ///< false: no moving tensors, or a cyclic graph
    Tick makespan = 0;  ///< last HB event end - first HB event start

    std::size_t events = 0;
    std::size_t edges = 0;
    std::size_t zeroSlack = 0; ///< events that could not slip at all
    Tick maxSlack = 0;

    /** Path-time composition (sums over the extracted chain). */
    Tick onPathTransfer = 0;  ///< inside SwapOut/SwapIn start->end hops
    Tick onPathRecompute = 0; ///< RecomputeKernel durations on the path
    Tick onPathWait = 0;      ///< gaps not explained by either

    std::size_t pathLength = 0;           ///< full chain length
    std::vector<CriticalPathStep> steps;  ///< capped materialization
};

/**
 * Run the PERT pass over an already-built HB graph (a TraceView's hb()).
 * The materialized chain keeps its last 64 steps; composition totals
 * always cover the whole chain.
 */
CriticalPathSummary computeCriticalPath(const HbAnalysis &hb);

} // namespace capu::prof

#endif // CAPU_PROF_CRITICAL_PATH_HH
