/**
 * @file
 * A CUDA-stream-like FIFO execution resource.
 *
 * Work items enqueued on a Stream execute strictly in order, each occupying
 * the stream for a fixed duration; an item may additionally wait for an
 * external readiness time (a CUDA-event dependency). enqueue() returns the
 * item's completion tick, which callers use exactly like cudaEventRecord +
 * cudaStreamWaitEvent pairs.
 *
 * Streams no longer keep their own interval log: occupancy intervals are
 * emitted as Complete events into an attached obs::Tracer (one trace track
 * per stream), which is the single source for timeline rendering and
 * utilization accounting. A running busy-tick counter survives for cheap
 * utilization queries when tracing is off.
 */

#ifndef CAPU_SIM_STREAM_HH
#define CAPU_SIM_STREAM_HH

#include <cstdint>
#include <string>

#include "obs/tracer.hh"
#include "support/units.hh"

namespace capu
{

class Stream
{
  public:
    explicit Stream(std::string name) : name_(std::move(name)) {}

    /**
     * Enqueue a work item.
     *
     * @param ready Earliest tick the item may start (its dependencies).
     * @param duration Occupancy of the stream.
     * @param label Trace label, interned in the attached tracer.
     * @param kind Trace category for the emitted Complete event.
     * @param tensor,op,bytes Optional trace annotations.
     * @return Completion tick: max(ready, busyUntil()) + duration.
     */
    Tick enqueue(Tick ready, Tick duration, obs::NameId label,
                 obs::EventKind kind = obs::EventKind::Kernel,
                 std::int64_t tensor = -1, std::int64_t op = -1,
                 std::uint64_t bytes = 0);

    /**
     * Route occupancy intervals into `tracer` on trace track `track`.
     * Pass nullptr to detach. Attachment never changes timing.
     */
    void attachTracer(obs::Tracer *tracer, std::uint32_t track);
    obs::Tracer *tracer() const { return tracer_; }

    /** Tick at which the last enqueued item completes. */
    Tick busyUntil() const { return busyUntil_; }

    /** Start tick of the most recently enqueued item. */
    Tick lastStart() const { return lastStart_; }

    const std::string &name() const { return name_; }

    /** Total occupancy since construction / the last reset(). */
    Tick busyTime() const { return busyTicks_; }

    /**
     * capureplay: advance this stream's state by one synthesized steady
     * iteration — `dt` on the time axis, `busy` occupancy ticks — without
     * executing work or emitting events (the replay engine re-emits the
     * template iteration's events itself).
     */
    void
    replayShift(Tick dt, Tick busy)
    {
        busyUntil_ += dt;
        lastStart_ += dt;
        busyTicks_ += busy;
    }

    /**
     * Quiesce: forbid new work from starting before `t` (a device-wide
     * synchronize, e.g. after an aborted iteration). Emits no events.
     */
    void
    fence(Tick t)
    {
        if (t > busyUntil_)
            busyUntil_ = t;
    }

    /** Reset the stream to idle at tick 0 (new simulation). */
    void reset();

  private:
    std::string name_;
    Tick busyUntil_ = 0;
    Tick lastStart_ = 0;
    Tick busyTicks_ = 0;
    obs::Tracer *tracer_ = nullptr;
    std::uint32_t track_ = obs::kTrackHost;
};

} // namespace capu

#endif // CAPU_SIM_STREAM_HH
