#include "prof/trace_io.hh"

#include <cmath>
#include <cstring>

#include "support/json.hh"

namespace capu::prof
{

namespace
{

/** Inverse of eventKindName(); Marker when unrecognized. */
obs::EventKind
kindFromName(const std::string &name)
{
    using obs::EventKind;
    static const std::pair<const char *, EventKind> table[] = {
        {"kernel", EventKind::Kernel},
        {"recompute", EventKind::Recompute},
        {"transfer", EventKind::Transfer},
        {"sync", EventKind::Sync},
        {"stall", EventKind::Stall},
        {"access", EventKind::Access},
        {"oom", EventKind::OomStep},
        {"decision", EventKind::Decision},
        {"plan", EventKind::Plan},
        {"tensor", EventKind::Lifetime},
        {"sample", EventKind::Sample},
        {"marker", EventKind::Marker},
        {"fault", EventKind::Fault},
        {"recovery", EventKind::Recovery},
    };
    for (const auto &[key, kind] : table) {
        if (name == key)
            return kind;
    }
    return EventKind::Marker;
}

/** Exported µs (3 fractional digits) back to integer ns. */
Tick
ticksFromMicros(double us)
{
    return static_cast<Tick>(std::llround(us * 1000.0));
}

} // namespace

bool
importChromeTrace(const json::Value &root, TraceBundle &out,
                  std::string *err)
{
    if (root.kind != json::Value::Obj || !root.has("traceEvents")) {
        if (err)
            *err = "not a Chrome trace artifact (no traceEvents)";
        return false;
    }

    const json::Value &other = root["otherData"];
    out.recorded = other["recorded"].asU64();
    out.dropped = other["dropped"].asU64();
    for (const std::string &key : other.keys) {
        if (key == "recorded" || key == "dropped")
            continue;
        const json::Value &val = other[key];
        if (val.kind == json::Value::Str)
            out.meta.emplace_back(key, val.str);
    }

    for (const json::Value &jev : root["traceEvents"].arr) {
        const std::string &ph = jev["ph"].str;
        if (ph == "M")
            continue; // process/thread metadata
        obs::TraceEvent ev;
        ev.name = out.names.intern(jev["name"].str);
        ev.kind = kindFromName(jev["cat"].str);
        ev.track = static_cast<std::uint32_t>(jev["tid"].asU64());
        ev.ts = ticksFromMicros(jev["ts"].asDouble());
        const json::Value &args = jev["args"];
        ev.tensor = args.has("tensor") ? args["tensor"].asI64() : -1;
        ev.op = args.has("op") ? args["op"].asI64() : -1;
        ev.bytes = args["bytes"].asU64();
        if (ph == "X") {
            ev.phase = obs::EventPhase::Complete;
            ev.dur = ticksFromMicros(jev["dur"].asDouble());
        } else if (ph == "i") {
            ev.phase = obs::EventPhase::Instant;
            ev.value = args["value"].asDouble();
        } else if (ph == "C") {
            ev.phase = obs::EventPhase::Counter;
            ev.value = args["value"].asDouble();
        } else if (ph == "b" || ph == "e") {
            ev.phase = ph == "b" ? obs::EventPhase::SpanBegin
                                 : obs::EventPhase::SpanEnd;
            ev.tensor = jev["id"].asI64();
        } else {
            continue; // unknown phase: skip rather than reject
        }
        out.events.push_back(ev);
    }
    return true;
}

} // namespace capu::prof
