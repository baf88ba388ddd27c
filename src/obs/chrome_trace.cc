#include "obs/chrome_trace.hh"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <vector>

#include "support/logging.hh"

namespace capu::obs
{

namespace
{

/// Room for any number to_chars writes here ("%.17g" needs at most 24).
constexpr std::size_t kNumberWidth = 32;

/**
 * Write `v` at `at`, which has kNumberWidth bytes of room; returns the
 * end. Integral values (counters, byte totals) print exactly so the export
 * round-trips bit-for-bit through capuprof's importer; anything else gets
 * enough digits ("%.17g") to reparse to the same double.
 */
char *
formatDouble(char *at, double v)
{
    if (v >= -9.2e18 && v <= 9.2e18 &&
        v == static_cast<double>(static_cast<long long>(v)))
        return std::to_chars(at, at + kNumberWidth,
                             static_cast<long long>(v))
            .ptr;
    return std::to_chars(at, at + kNumberWidth, v,
                         std::chars_format::general, 17)
        .ptr;
}

std::string
jsonDouble(double v)
{
    char buf[kNumberWidth];
    return std::string(buf, formatDouble(buf, v));
}

/** Append a string literal; its length is known, so no strlen. */
template <std::size_t N>
void
put(std::string &out, const char (&literal)[N])
{
    out.append(literal, N - 1);
}

template <typename Int>
void
appendInt(std::string &out, Int v)
{
    char buf[kNumberWidth];
    out.append(buf, std::to_chars(buf, buf + kNumberWidth, v).ptr);
}

/** Simulation ns -> trace µs, keeping full ns precision as fractions. */
void
appendMicros(std::string &out, Tick ns)
{
    appendInt(out, ns / 1000);
    auto frac = static_cast<unsigned>(ns % 1000);
    const char tail[] = {'.', static_cast<char>('0' + frac / 100),
                         static_cast<char>('0' + frac / 10 % 10),
                         static_cast<char>('0' + frac % 10)};
    out.append(tail, sizeof(tail));
}

void
appendDouble(std::string &out, double v)
{
    char buf[kNumberWidth];
    out.append(buf, formatDouble(buf, v));
}

void
writeCommonArgs(std::string &out, const TraceEvent &ev, bool &first)
{
    auto field = [&](std::string_view key, auto val) {
        if (!first)
            out += ',';
        out += '"';
        out += key;
        put(out, "\":");
        appendInt(out, val);
        first = false;
    };
    if (ev.tensor >= 0)
        field("tensor", ev.tensor);
    if (ev.op >= 0)
        field("op", ev.op);
    if (ev.bytes != 0)
        field("bytes", ev.bytes);
}

void
writeEvent(std::string &out, const TraceEvent &ev, std::string_view name)
{
    put(out, "{\"name\":\"");
    out += name;
    put(out, "\",\"cat\":\"");
    out += eventKindName(ev.kind);
    put(out, "\",\"pid\":0,\"tid\":");
    appendInt(out, ev.track);
    put(out, ",\"ts\":");
    appendMicros(out, ev.ts);
    switch (ev.phase) {
      case EventPhase::Complete: {
        put(out, ",\"ph\":\"X\",\"dur\":");
        appendMicros(out, ev.dur);
        put(out, ",\"args\":{");
        bool first = true;
        writeCommonArgs(out, ev, first);
        out += '}';
        break;
      }
      case EventPhase::Instant: {
        put(out, ",\"ph\":\"i\",\"s\":\"t\",\"args\":{");
        bool first = true;
        writeCommonArgs(out, ev, first);
        if (ev.value != 0) { // access index: keeps the export lossless
            if (!first)
                out += ',';
            put(out, "\"value\":");
            appendDouble(out, ev.value);
        }
        out += '}';
        break;
      }
      case EventPhase::Counter:
        put(out, ",\"ph\":\"C\",\"args\":{\"value\":");
        appendDouble(out, ev.value);
        out += '}';
        break;
      case EventPhase::SpanBegin:
      case EventPhase::SpanEnd:
        put(out, ",\"ph\":\"");
        out += ev.phase == EventPhase::SpanBegin ? 'b' : 'e';
        put(out, "\",\"id\":");
        appendInt(out, ev.tensor);
        put(out, ",\"args\":{");
        if (ev.bytes != 0) {
            put(out, "\"bytes\":");
            appendInt(out, ev.bytes);
        }
        out += '}';
        break;
    }
    out += '}';
}

} // namespace

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
writeChromeTrace(std::ostream &os, const Tracer &tracer)
{
    os << "{\"traceEvents\":[\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
          "\"args\":{\"name\":\"capusim\"}}";
    for (const auto &[track, name] : tracer.trackNames()) {
        os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
           << track << ",\"args\":{\"name\":\"" << jsonEscape(name)
           << "\"}}";
        os << ",\n{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,"
              "\"tid\":"
           << track << ",\"args\":{\"sort_index\":" << track << "}}";
    }

    // Escape each label once per name id, not once per event.
    const NameTable &names = tracer.names();
    std::vector<std::string> escaped;
    escaped.reserve(names.size());
    for (std::size_t id = 0; id < names.size(); ++id)
        escaped.push_back(jsonEscape(names.name(static_cast<NameId>(id))));

    // Format into one reused buffer, handed to the stream once it fills.
    constexpr std::size_t kFlushBytes = std::size_t{1} << 16;
    std::string out;
    out.reserve(2 * kFlushBytes);
    for (const TraceEvent *ev : tracer.chronological()) {
        put(out, ",\n");
        writeEvent(out, *ev, escaped[ev->name]);
        if (out.size() >= kFlushBytes) {
            os.write(out.data(), static_cast<std::streamsize>(out.size()));
            out.clear();
        }
    }
    os.write(out.data(), static_cast<std::streamsize>(out.size()));

    os << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{"
          "\"recorded\":"
       << tracer.recorded() << ",\"dropped\":" << tracer.dropped();
    for (const auto &[key, value] : tracer.meta()) {
        os << ",\"" << jsonEscape(key) << "\":\"" << jsonEscape(value)
           << "\"";
    }
    os << "}}\n";
}

bool
writeChromeTraceFile(const std::string &path, const Tracer &tracer)
{
    std::ofstream os(path);
    if (!os) {
        warn("obs: cannot open trace file '{}'", path);
        return false;
    }
    writeChromeTrace(os, tracer);
    if (tracer.dropped() > 0) {
        warn("obs: trace ring dropped {} of {} events (oldest first); "
             "profile/trace '{}' is truncated — raise --trace-cap",
             tracer.dropped(), tracer.recorded(), path);
    }
    return static_cast<bool>(os);
}

void
writeMetricsCsv(std::ostream &os, const MetricsRegistry &metrics)
{
    auto columns = metrics.snapshotColumns();
    os << "iteration";
    for (const auto &name : columns)
        os << ',' << name;
    os << '\n';
    for (const auto &snap : metrics.iterations()) {
        os << snap.iteration;
        for (const auto &name : columns) {
            os << ',';
            auto it = snap.values.find(name);
            if (it != snap.values.end())
                os << jsonDouble(it->second);
            else
                os << 0;
        }
        os << '\n';
    }
    // Histogram summary footer: full-run distributions don't fit the
    // per-iteration row model, so they ride along as comment rows.
    for (const auto &[name, hist] : metrics.histograms()) {
        os << "#histogram," << name << ",count=" << hist.count()
           << ",sum=" << hist.sum() << ",min=" << hist.min()
           << ",max=" << hist.max() << ",mean=" << jsonDouble(hist.mean())
           << ",p50=" << hist.p50() << ",p95=" << hist.p95()
           << ",p99=" << hist.p99() << '\n';
    }
}

void
writeMetricsJson(std::ostream &os, const MetricsRegistry &metrics)
{
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, value] : metrics.counters()) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << value;
        first = false;
    }
    os << "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto &[name, value] : metrics.gauges()) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << jsonDouble(value);
        first = false;
    }
    os << "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto &[name, hist] : metrics.histograms()) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"count\": " << hist.count() << ", \"sum\": "
           << hist.sum() << ", \"min\": " << hist.min() << ", \"max\": "
           << hist.max() << ", \"mean\": " << jsonDouble(hist.mean())
           << ", \"p50\": " << hist.p50() << ", \"p95\": " << hist.p95()
           << ", \"p99\": " << hist.p99() << ", \"buckets\": [";
        for (std::size_t i = 0; i < hist.usedBuckets(); ++i)
            os << (i ? "," : "") << hist.bucket(i);
        os << "]}";
        first = false;
    }
    os << "\n  },\n  \"iterations\": [";
    first = true;
    for (const auto &snap : metrics.iterations()) {
        os << (first ? "\n" : ",\n") << "    {\"iteration\": "
           << snap.iteration;
        for (const auto &[name, value] : snap.values)
            os << ", \"" << jsonEscape(name) << "\": " << jsonDouble(value);
        os << "}";
        first = false;
    }
    os << "\n  ]\n}\n";
}

bool
writeMetricsFile(const std::string &path, const MetricsRegistry &metrics)
{
    std::ofstream os(path);
    if (!os) {
        warn("obs: cannot open metrics file '{}'", path);
        return false;
    }
    bool json = path.size() >= 5 && path.compare(path.size() - 5, 5,
                                                 ".json") == 0;
    if (json)
        writeMetricsJson(os, metrics);
    else
        writeMetricsCsv(os, metrics);
    return static_cast<bool>(os);
}

} // namespace capu::obs
