/**
 * @file
 * Trace → timeline adapter for capuverify's dynamic mode.
 *
 * The tracer's ring holds everything capuscope knows about a run. The
 * happens-before engine only needs the subset that orders memory traffic:
 * tensor accesses (compute-side touches), recompute replays, and the PCIe
 * transfers on the two lanes. This adapter flattens the ring into typed
 * TimelineRecords, chronologically ordered, so analysis code never parses
 * event labels or track ids itself.
 *
 * The ring drops its *oldest* events on wrap, so a timeline may begin
 * mid-iteration; consumers must tolerate unpaired traffic at the front
 * (the happens-before builder only forms edges between records it can
 * actually see).
 */

#ifndef CAPU_OBS_EVENT_ADAPTER_HH
#define CAPU_OBS_EVENT_ADAPTER_HH

#include <cstdint>
#include <vector>

#include "obs/tracer.hh"

namespace capu::obs
{

enum class TimelineKind : std::uint8_t
{
    Access,    ///< compute kernel touches a tensor (instant)
    Recompute, ///< lineage replay regenerates a tensor (interval)
    SwapOut,   ///< D2H transfer of a tensor (interval)
    SwapIn,    ///< H2D transfer of a tensor (interval)
};

const char *timelineKindName(TimelineKind kind);

struct TimelineRecord
{
    TimelineKind kind = TimelineKind::Access;
    std::int64_t tensor = -1;
    std::int64_t op = -1;
    Tick start = 0;
    Tick end = 0;        ///< == start for Access instants
    int accessIndex = 0; ///< Access records: 1-based index (1 = production)
    bool write = false;  ///< Access records: output access
    bool failed = false; ///< transfer aborted by an injected fault
    std::uint64_t bytes = 0;
};

/**
 * Filter + flatten a raw event list into timeline records, stable-sorted
 * by start tick (emission-order ties preserved). `names` resolves the
 * events' labels.
 */
std::vector<TimelineRecord>
extractTimeline(const std::vector<TraceEvent> &events,
                const NameTable &names);

/** Convenience: extract from a tracer's buffered ring. */
std::vector<TimelineRecord> extractTimeline(const Tracer &tracer);

} // namespace capu::obs

#endif // CAPU_OBS_EVENT_ADAPTER_HH
