#include "sim/stream.hh"

#include <algorithm>

namespace capu
{

Tick
Stream::enqueue(Tick ready, Tick duration, obs::NameId label,
                obs::EventKind kind, std::int64_t tensor, std::int64_t op,
                std::uint64_t bytes)
{
    Tick start = std::max(ready, busyUntil_);
    Tick end = start + duration;
    lastStart_ = start;
    busyUntil_ = end;
    busyTicks_ += duration;
    if (tracer_)
        tracer_->complete(track_, kind, start, duration, label, tensor, op,
                          bytes);
    return end;
}

void
Stream::attachTracer(obs::Tracer *tracer, std::uint32_t track)
{
    tracer_ = tracer;
    track_ = track;
    if (tracer_)
        tracer_->setTrackName(track_, name_);
}

void
Stream::reset()
{
    busyUntil_ = 0;
    lastStart_ = 0;
    busyTicks_ = 0;
}

} // namespace capu
