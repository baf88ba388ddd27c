/**
 * @file
 * Trace decoding shared by the post-hoc readers: per-label facts and the
 * trace → timeline adapter for capuverify's dynamic mode.
 *
 * Labels are turned into facts once per NameId (labelFacts), so no walk
 * parses a label per event. The tracer's ring holds everything capuscope
 * knows about a run. The happens-before engine only needs the subset that
 * orders memory traffic: tensor accesses (compute-side touches), recompute
 * replays, and the PCIe transfers on the two lanes. This adapter flattens
 * the chronological order into typed TimelineRecords, so analysis code
 * never parses event labels or track ids itself.
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

/** What a lifetime span's phase (the label after its last ':') says. */
enum class SpanPhase : std::uint8_t
{
    None,     ///< malformed label: no phase
    Relief,   ///< OUT / DROPPED: the tensor's bytes are off-device
    Resident, ///< IN / SWAPPING_IN / SWAPPING_OUT: they are on-device
};

/** The facts post-hoc readers take from one label. */
struct LabelFacts
{
    std::uint64_t hash = 0; ///< hashString(label): the profile digest's input
    SpanPhase span = SpanPhase::None;
    bool write = false;      ///< output access ("write")
    bool failed = false;     ///< aborted transfer attempt ("...!fail")
    bool onDemand = false;   ///< on-demand swap-in ("swapin:...")
    bool bytesInUse = false; ///< the allocator's gpu.bytes_in_use counter
};

/** Facts for every label of `names`, indexed by NameId. */
std::vector<LabelFacts> labelFacts(const NameTable &names);

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
 * Filter + flatten a chronological event order (Tracer::chronological(),
 * or any order sorted by tick) into timeline records, which come out in
 * the same order: sorted by start tick. `facts` is labelFacts() of the
 * table the events' labels index.
 */
std::vector<TimelineRecord>
extractTimeline(const std::vector<const TraceEvent *> &events,
                const std::vector<LabelFacts> &facts);

/** Convenience: extract from a tracer's chronological order. */
std::vector<TimelineRecord> extractTimeline(const Tracer &tracer);

} // namespace capu::obs

#endif // CAPU_OBS_EVENT_ADAPTER_HH
