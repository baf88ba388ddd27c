/**
 * @file
 * Ring-buffered event tracer.
 *
 * Instrumentation points all over the pipeline (streams, PCIe lanes, the
 * executor's host loop, the allocator, the policies) record TraceEvents
 * here. The buffer is a fixed-capacity ring: recording is O(1), memory is
 * bounded, and when the ring wraps the *oldest* events are dropped — the
 * tail of a run is always intact, which is what post-mortem debugging
 * wants. Dropped events are counted and reported by the exporters. The
 * ring is stored in fixed-size blocks allocated as it fills, so recording
 * never moves an event and memory follows use up to the capacity.
 *
 * Events arrive in *emission* order, which is close to but not exactly
 * timestamp order (the host loop emits a kernel's interval at enqueue time,
 * which may predate an already-emitted transfer completion). Consumers that
 * need chronology use chronological(): pointers into the ring, stable-
 * sorted by tick, built once and shared by every post-hoc reader.
 *
 * Each tracer owns the NameTable its events' labels index. Hot emitters
 * intern a label once and pass the cached NameId; the string_view emitter
 * overloads intern per call. A disabled tracer never touches its table, so
 * intern() returns 0 while disabled and callers cache ids only while
 * tracing.
 * clear() and setCapacity() drop events, never names.
 */

#ifndef CAPU_OBS_TRACER_HH
#define CAPU_OBS_TRACER_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/event.hh"

namespace capu::obs
{

class Tracer
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1u << 20;

    explicit Tracer(std::size_t capacity = kDefaultCapacity);

    /** Disabled tracers drop every record() without touching the ring. */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Resize the ring; discards any buffered events (names stay). */
    void setCapacity(std::size_t capacity);
    std::size_t capacity() const { return capacity_; }

    /** Drop all buffered events and reset the drop counter; interned
     *  names stay, so held ids keep resolving. */
    void clear();

    /** Events currently buffered. */
    std::size_t size() const { return size_; }
    /** Events recorded since the last clear(), including dropped ones. */
    std::uint64_t recorded() const { return recorded_; }
    /** Events evicted by ring wrap-around. */
    std::uint64_t dropped() const { return recorded_ - size_; }

    /** Human-readable name for a track (exported as thread_name). */
    void setTrackName(std::uint32_t track, std::string name);
    const std::vector<std::pair<std::uint32_t, std::string>> &
    trackNames() const
    {
        return trackNames_;
    }

    /**
     * Run-level metadata (seed, fault plan, ...) exported into the Chrome
     * trace's otherData so any artifact identifies the run that produced
     * it. Stored even while tracing is disabled. Re-setting a key
     * overwrites its value.
     */
    void setMeta(std::string key, std::string value);
    const std::vector<std::pair<std::string, std::string>> &
    meta() const
    {
        return meta_;
    }

    /** Id of `s` in this tracer's name table; 0 while disabled. */
    NameId
    intern(std::string_view s)
    {
        return enabled_ ? names_.intern(s) : 0;
    }
    const std::string &name(NameId id) const { return names_.name(id); }
    const NameTable &names() const { return names_; }

    void record(const TraceEvent &ev);

    // --- convenience emitters (no-ops while disabled) ---
    // Each takes a cached NameId or a string_view it interns while enabled.

    void complete(std::uint32_t track, EventKind kind, Tick start, Tick dur,
                  NameId name, std::int64_t tensor = -1,
                  std::int64_t op = -1, std::uint64_t bytes = 0);
    void complete(std::uint32_t track, EventKind kind, Tick start, Tick dur,
                  std::string_view name, std::int64_t tensor = -1,
                  std::int64_t op = -1, std::uint64_t bytes = 0);

    void instant(std::uint32_t track, EventKind kind, Tick ts, NameId name,
                 std::int64_t tensor = -1, std::int64_t op = -1,
                 std::uint64_t bytes = 0);
    void instant(std::uint32_t track, EventKind kind, Tick ts,
                 std::string_view name, std::int64_t tensor = -1,
                 std::int64_t op = -1, std::uint64_t bytes = 0);

    void counter(std::uint32_t track, Tick ts, NameId name, double value);
    void counter(std::uint32_t track, Tick ts, std::string_view name,
                 double value);

    /** Open an async span; paired with spanEnd by (kind, id). `bytes`
     *  sizes the spanned object (tensor lifetime spans: alloc bytes) so
     *  post-hoc analyzers can weigh residency without the graph. */
    void spanBegin(EventKind kind, std::int64_t id, Tick ts, NameId name,
                   std::uint64_t bytes = 0);
    void spanBegin(EventKind kind, std::int64_t id, Tick ts,
                   std::string_view name, std::uint64_t bytes = 0);
    void spanEnd(EventKind kind, std::int64_t id, Tick ts, NameId name);
    void spanEnd(EventKind kind, std::int64_t id, Tick ts,
                 std::string_view name);

    /** Visit buffered events oldest-to-newest (emission order). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        // From the overwrite cursor to the end, then the head (next_ stays
        // 0 until the ring wraps).
        for (std::size_t i = next_; i < size_; ++i)
            fn(slot(i));
        for (std::size_t i = 0; i < next_; ++i)
            fn(slot(i));
    }

    /**
     * Pointers to the buffered events, stable-sorted by timestamp (ties in
     * emission order). The order is cached and invalidated by record(),
     * clear() and setCapacity(), so exporters and analyzers that each walk
     * the full ring share one sort. The reference and the pointers are
     * invalidated by the next mutation. A copied tracer starts without a
     * cached order and builds one over its own ring.
     */
    const std::vector<const TraceEvent *> &chronological() const;

    /**
     * Copies of the events recorded at or after sequence number `mark`
     * (a prior recorded() value), in emission order. Events that have
     * already been evicted by ring wrap-around are silently missing —
     * callers sampling one iteration should size the ring accordingly.
     */
    std::vector<TraceEvent> eventsSince(std::uint64_t mark) const;

  private:
    /// Events per storage block (1 MiB).
    static constexpr std::size_t kBlockEvents = std::size_t{1} << 14;

    const TraceEvent &
    slot(std::size_t i) const
    {
        return blocks_[i / kBlockEvents][i % kBlockEvents];
    }

    /**
     * The chronological() cache. It points into the ring's blocks, so a
     * copy (Tracer copies, Session::fork) starts empty rather than
     * pointing into its original's ring.
     */
    struct ChronoCache
    {
        std::vector<const TraceEvent *> order;
        bool valid = false;

        ChronoCache() = default;
        ChronoCache(const ChronoCache &) {}
        ChronoCache &
        operator=(const ChronoCache &)
        {
            reset();
            return *this;
        }
        void
        reset()
        {
            order = {};
            valid = false;
        }
    };

    std::vector<std::vector<TraceEvent>> blocks_;
    std::size_t size_ = 0; ///< events buffered
    NameTable names_;
    mutable ChronoCache chrono_;
    std::vector<std::pair<std::uint32_t, std::string>> trackNames_;
    std::vector<std::pair<std::string, std::string>> meta_;
    std::size_t capacity_;
    std::size_t next_ = 0; ///< overwrite cursor once the ring is full
    std::uint64_t recorded_ = 0;
    bool enabled_ = false;
};

} // namespace capu::obs

#endif // CAPU_OBS_TRACER_HH
