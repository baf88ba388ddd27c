/**
 * @file
 * The event vocabulary of the observability layer (capuscope).
 *
 * A TraceEvent is one timestamped fact about the simulation: a stream
 * occupancy interval, a PCIe transfer, a policy decision, a tensor
 * residency-phase transition, or a counter sample. Events are trivially
 * copyable 64-byte PODs so the tracer's ring buffer, its chronological
 * sort and session forks copy them as plain memory. The label is a NameId
 * into the recording tracer's NameTable: emitters intern a label once and
 * pass its id, and only the consumers that need text (the exporters, the
 * profile builder, the timeline adapter) resolve it. Richer structure
 * (per-track grouping, async-span pairing) is reconstructed at export
 * time.
 *
 * Timestamps are simulation Ticks (integer nanoseconds). Recording an event
 * never advances or perturbs simulated time: the tracer is a pure observer,
 * and tests assert that `--obs-level=full` leaves every simulated timestamp
 * bit-identical to `--obs-level=off`.
 */

#ifndef CAPU_OBS_EVENT_HH
#define CAPU_OBS_EVENT_HH

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "support/units.hh"

namespace capu::obs
{

/**
 * Trace tracks (Chrome `tid`s under one `pid`). Compute and the two PCIe
 * lanes mirror the simulator's execution resources; Host carries the host
 * loop's stalls and OOM-protocol steps; Policy carries decision instants;
 * Memory carries allocator counter samples; Fault carries injected
 * capuchaos episodes and Recovery the pipeline's degradation reactions,
 * so chaos traces show cause and reaction side by side. Replay marks
 * synthesized steady-state iterations (capureplay) so a trace always
 * distinguishes executed from replayed time. Drift carries shape-class
 * switches and re-measurement episodes on dynamic workloads (capudrift),
 * making the cost of adaptation attributable.
 */
enum Track : std::uint32_t
{
    kTrackHost = 0,
    kTrackCompute = 1,
    kTrackD2H = 2,
    kTrackH2D = 3,
    kTrackPolicy = 4,
    kTrackMemory = 5,
    kTrackFault = 6,
    kTrackRecovery = 7,
    kTrackReplay = 8,
    kTrackDrift = 9,
};

/** How the event maps onto the Chrome trace_event phase model. */
enum class EventPhase : std::uint8_t
{
    Complete,  ///< interval with known start + duration ("X")
    Instant,   ///< zero-duration mark ("i")
    Counter,   ///< sampled value ("C")
    SpanBegin, ///< async span open ("b"), paired by (kind, tensor id)
    SpanEnd,   ///< async span close ("e")
};

/** Semantic category; becomes the Chrome `cat` field. */
enum class EventKind : std::uint8_t
{
    Kernel,    ///< scheduled compute kernel
    Recompute, ///< lineage-replay kernel
    Transfer,  ///< PCIe copy (bytes = wire size)
    Sync,      ///< cross-stream synchronization (blocking swap barrier)
    Stall,     ///< host loop waiting (input residency, allocation)
    Access,    ///< tensor access event (value = access index)
    OomStep,   ///< step of the OOM protocol (wait-free / policy / raise)
    Decision,  ///< policy decision (evict, prefetch, feedback, passive)
    Plan,      ///< plan lifecycle (build, refine, in-trigger placement)
    Lifetime,  ///< tensor residency phase (async span, id = tensor)
    Sample,    ///< counter sample (value carries the measurement)
    Marker,    ///< structural marker (iteration boundaries, aborts)
    Fault,     ///< injected perturbation episode (capuchaos)
    Recovery,  ///< degradation/recovery reaction (retry, fallback, ...)
};

const char *eventKindName(EventKind kind);

/** An interned label: an index into a NameTable. 0 is the empty name. */
using NameId = std::uint32_t;

/**
 * Append-only label table behind NameId. Ids are dense in first-intern
 * order and never reused. Names live in stable storage, so a reference
 * from name() stays valid while later names are interned. A copy resolves
 * every id to the same string as its original.
 */
class NameTable
{
  public:
    NameTable();
    NameTable(const NameTable &other);
    NameTable &operator=(const NameTable &other);

    /** Id of `s`, adding it on first sight. */
    NameId intern(std::string_view s);

    const std::string &name(NameId id) const { return names_[id]; }

    /** Names held, the empty name included. */
    std::size_t size() const { return names_.size(); }

  private:
    void reindex();

    std::deque<std::string> names_;
    /// Views into names_ (a deque never moves its elements).
    std::unordered_map<std::string_view, NameId> ids_;
};

struct TraceEvent
{
    Tick ts = 0;
    Tick dur = 0; ///< Complete events only
    std::uint32_t track = kTrackHost;
    EventPhase phase = EventPhase::Instant;
    EventKind kind = EventKind::Marker;
    std::int64_t tensor = -1; ///< tensor id; async-span id for Lifetime
    std::int64_t op = -1;     ///< op id when the event is op-related
    std::uint64_t bytes = 0;  ///< payload size where meaningful
    double value = 0.0;       ///< counter samples, access indices
    NameId name = 0;          ///< label in the recording tracer's table
};

static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(sizeof(TraceEvent) == 64);

} // namespace capu::obs

#endif // CAPU_OBS_EVENT_HH
