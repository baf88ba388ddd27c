#include "obs/event_adapter.hh"

#include <string_view>

#include "support/rng.hh"

namespace capu::obs
{

const char *
timelineKindName(TimelineKind kind)
{
    switch (kind) {
      case TimelineKind::Access:
        return "access";
      case TimelineKind::Recompute:
        return "recompute";
      case TimelineKind::SwapOut:
        return "swap-out";
      case TimelineKind::SwapIn:
        return "swap-in";
    }
    return "?";
}

std::vector<LabelFacts>
labelFacts(const NameTable &names)
{
    std::vector<LabelFacts> facts(names.size());
    for (std::size_t id = 0; id < names.size(); ++id) {
        const std::string &label = names.name(static_cast<NameId>(id));
        LabelFacts &f = facts[id];
        f.hash = hashString(label.c_str());
        auto colon = label.rfind(':');
        std::string_view phase =
            colon == std::string::npos
                ? std::string_view()
                : std::string_view(label).substr(colon + 1);
        if (phase == "OUT" || phase == "DROPPED")
            f.span = SpanPhase::Relief;
        else if (!phase.empty())
            f.span = SpanPhase::Resident;
        f.write = label == "write";
        f.failed = label.ends_with("!fail");
        f.onDemand = label.starts_with("swapin:");
        f.bytesInUse = label == "gpu.bytes_in_use";
    }
    return facts;
}

namespace
{

/** Append `ev`'s timeline record to `out` if it orders memory traffic. */
void
addRecord(const TraceEvent &ev, const std::vector<LabelFacts> &facts,
          std::vector<TimelineRecord> &out)
{
    if (ev.tensor < 0)
        return;
    TimelineRecord rec;
    rec.tensor = ev.tensor;
    rec.op = ev.op;
    rec.start = ev.ts;
    rec.end = ev.ts + ev.dur;
    rec.bytes = ev.bytes;
    switch (ev.kind) {
      case EventKind::Access:
        if (ev.track != kTrackHost || ev.phase != EventPhase::Instant)
            return;
        rec.kind = TimelineKind::Access;
        rec.accessIndex = static_cast<int>(ev.value);
        rec.write = facts[ev.name].write;
        break;
      case EventKind::Recompute:
        if (ev.track != kTrackCompute || ev.phase != EventPhase::Complete)
            return;
        rec.kind = TimelineKind::Recompute;
        break;
      case EventKind::Transfer:
        if (ev.phase != EventPhase::Complete)
            return;
        if (ev.track == kTrackD2H)
            rec.kind = TimelineKind::SwapOut;
        else if (ev.track == kTrackH2D)
            rec.kind = TimelineKind::SwapIn;
        else
            return;
        rec.failed = facts[ev.name].failed;
        break;
      default:
        return;
    }
    out.push_back(rec);
}

} // namespace

std::vector<TimelineRecord>
extractTimeline(const std::vector<const TraceEvent *> &events,
                const std::vector<LabelFacts> &facts)
{
    // A record starts at its event's tick, so chronological input yields
    // records already sorted by start.
    std::vector<TimelineRecord> out;
    out.reserve(events.size() / 2);
    for (const TraceEvent *ev : events)
        addRecord(*ev, facts, out);
    return out;
}

std::vector<TimelineRecord>
extractTimeline(const Tracer &tracer)
{
    return extractTimeline(tracer.chronological(),
                           labelFacts(tracer.names()));
}

} // namespace capu::obs
