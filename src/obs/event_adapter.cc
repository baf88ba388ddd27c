#include "obs/event_adapter.hh"

#include <algorithm>
#include <string_view>

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

namespace
{

/** The label facts a timeline reads, derived once per name id. */
struct LabelFlags
{
    bool write = false;  ///< output access ("write")
    bool failed = false; ///< aborted transfer attempt ("...!fail")
};

std::vector<LabelFlags>
labelFlags(const NameTable &names)
{
    std::vector<LabelFlags> flags(names.size());
    for (std::size_t id = 0; id < names.size(); ++id) {
        std::string_view n = names.name(static_cast<NameId>(id));
        flags[id].write = n == "write";
        flags[id].failed = n.ends_with("!fail");
    }
    return flags;
}

/** Append `ev`'s timeline record to `out` if it orders memory traffic. */
void
addRecord(const TraceEvent &ev, const std::vector<LabelFlags> &labels,
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
        rec.write = labels[ev.name].write;
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
        rec.failed = labels[ev.name].failed;
        break;
      default:
        return;
    }
    out.push_back(rec);
}

std::vector<TimelineRecord>
byStart(std::vector<TimelineRecord> out)
{
    // Records from chronological() input arrive sorted; a stable sort of
    // sorted input is the identity.
    auto earlier = [](const TimelineRecord &a, const TimelineRecord &b) {
        return a.start < b.start;
    };
    if (!std::is_sorted(out.begin(), out.end(), earlier))
        std::stable_sort(out.begin(), out.end(), earlier);
    return out;
}

} // namespace

std::vector<TimelineRecord>
extractTimeline(const std::vector<TraceEvent> &events,
                const NameTable &names)
{
    std::vector<LabelFlags> labels = labelFlags(names);
    std::vector<TimelineRecord> out;
    out.reserve(events.size() / 2);
    for (const TraceEvent &ev : events)
        addRecord(ev, labels, out);
    return byStart(std::move(out));
}

std::vector<TimelineRecord>
extractTimeline(const Tracer &tracer)
{
    // Walk the ring in place rather than copying it: only about half of
    // its events become records.
    std::vector<LabelFlags> labels = labelFlags(tracer.names());
    std::vector<TimelineRecord> out;
    out.reserve(tracer.size() / 2);
    tracer.forEach(
        [&](const TraceEvent &ev) { addRecord(ev, labels, out); });
    return byStart(std::move(out));
}

} // namespace capu::obs
