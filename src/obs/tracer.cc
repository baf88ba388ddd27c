#include "obs/tracer.hh"

#include <algorithm>

#include "support/logging.hh"

namespace capu::obs
{

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::Kernel: return "kernel";
      case EventKind::Recompute: return "recompute";
      case EventKind::Transfer: return "transfer";
      case EventKind::Sync: return "sync";
      case EventKind::Stall: return "stall";
      case EventKind::Access: return "access";
      case EventKind::OomStep: return "oom";
      case EventKind::Decision: return "decision";
      case EventKind::Plan: return "plan";
      case EventKind::Lifetime: return "tensor";
      case EventKind::Sample: return "sample";
      case EventKind::Marker: return "marker";
      case EventKind::Fault: return "fault";
      case EventKind::Recovery: return "recovery";
    }
    return "?";
}

NameTable::NameTable()
{
    names_.emplace_back();
    reindex();
}

NameTable::NameTable(const NameTable &other) : names_(other.names_)
{
    reindex();
}

NameTable &
NameTable::operator=(const NameTable &other)
{
    if (this != &other) {
        names_ = other.names_;
        reindex();
    }
    return *this;
}

void
NameTable::reindex()
{
    ids_.clear();
    ids_.reserve(names_.size());
    for (std::size_t i = 0; i < names_.size(); ++i)
        ids_.emplace(names_[i], static_cast<NameId>(i));
}

NameId
NameTable::intern(std::string_view s)
{
    auto it = ids_.find(s);
    if (it != ids_.end())
        return it->second;
    auto id = static_cast<NameId>(names_.size());
    ids_.emplace(names_.emplace_back(s), id);
    return id;
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity)
{
    if (capacity_ == 0)
        fatal("tracer ring capacity must be nonzero");
}

void
Tracer::setCapacity(std::size_t capacity)
{
    if (capacity == 0)
        fatal("tracer ring capacity must be nonzero");
    capacity_ = capacity;
    clear();
}

void
Tracer::clear()
{
    blocks_.clear();
    blocks_.shrink_to_fit();
    size_ = 0;
    chrono_.reset();
    next_ = 0;
    recorded_ = 0;
}

void
Tracer::setTrackName(std::uint32_t track, std::string name)
{
    for (auto &[id, n] : trackNames_) {
        if (id == track) {
            n = std::move(name);
            return;
        }
    }
    trackNames_.emplace_back(track, std::move(name));
}

void
Tracer::setMeta(std::string key, std::string value)
{
    for (auto &[k, v] : meta_) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    meta_.emplace_back(std::move(key), std::move(value));
}

void
Tracer::record(const TraceEvent &ev)
{
    if (!enabled_)
        return;
    ++recorded_;
    chrono_.valid = false;
    if (size_ < capacity_) {
        if (size_ % kBlockEvents == 0) {
            blocks_.emplace_back();
            blocks_.back().reserve(std::min(kBlockEvents, capacity_ - size_));
        }
        blocks_.back().push_back(ev);
        ++size_;
        return;
    }
    blocks_[next_ / kBlockEvents][next_ % kBlockEvents] = ev;
    next_ = (next_ + 1) % size_;
}

void
Tracer::complete(std::uint32_t track, EventKind kind, Tick start, Tick dur,
                 NameId name, std::int64_t tensor, std::int64_t op,
                 std::uint64_t bytes)
{
    if (!enabled_)
        return;
    TraceEvent ev;
    ev.ts = start;
    ev.dur = dur;
    ev.track = track;
    ev.phase = EventPhase::Complete;
    ev.kind = kind;
    ev.tensor = tensor;
    ev.op = op;
    ev.bytes = bytes;
    ev.name = name;
    record(ev);
}

void
Tracer::complete(std::uint32_t track, EventKind kind, Tick start, Tick dur,
                 std::string_view name, std::int64_t tensor,
                 std::int64_t op, std::uint64_t bytes)
{
    if (enabled_)
        complete(track, kind, start, dur, names_.intern(name), tensor, op,
                 bytes);
}

void
Tracer::instant(std::uint32_t track, EventKind kind, Tick ts, NameId name,
                std::int64_t tensor, std::int64_t op, std::uint64_t bytes)
{
    if (!enabled_)
        return;
    TraceEvent ev;
    ev.ts = ts;
    ev.track = track;
    ev.phase = EventPhase::Instant;
    ev.kind = kind;
    ev.tensor = tensor;
    ev.op = op;
    ev.bytes = bytes;
    ev.name = name;
    record(ev);
}

void
Tracer::instant(std::uint32_t track, EventKind kind, Tick ts,
                std::string_view name, std::int64_t tensor, std::int64_t op,
                std::uint64_t bytes)
{
    if (enabled_)
        instant(track, kind, ts, names_.intern(name), tensor, op, bytes);
}

void
Tracer::counter(std::uint32_t track, Tick ts, NameId name, double value)
{
    if (!enabled_)
        return;
    TraceEvent ev;
    ev.ts = ts;
    ev.track = track;
    ev.phase = EventPhase::Counter;
    ev.kind = EventKind::Sample;
    ev.value = value;
    ev.name = name;
    record(ev);
}

void
Tracer::counter(std::uint32_t track, Tick ts, std::string_view name,
                double value)
{
    if (enabled_)
        counter(track, ts, names_.intern(name), value);
}

void
Tracer::spanBegin(EventKind kind, std::int64_t id, Tick ts, NameId name,
                  std::uint64_t bytes)
{
    if (!enabled_)
        return;
    TraceEvent ev;
    ev.ts = ts;
    ev.phase = EventPhase::SpanBegin;
    ev.kind = kind;
    ev.tensor = id;
    ev.bytes = bytes;
    ev.name = name;
    record(ev);
}

void
Tracer::spanBegin(EventKind kind, std::int64_t id, Tick ts,
                  std::string_view name, std::uint64_t bytes)
{
    if (enabled_)
        spanBegin(kind, id, ts, names_.intern(name), bytes);
}

void
Tracer::spanEnd(EventKind kind, std::int64_t id, Tick ts, NameId name)
{
    if (!enabled_)
        return;
    TraceEvent ev;
    ev.ts = ts;
    ev.phase = EventPhase::SpanEnd;
    ev.kind = kind;
    ev.tensor = id;
    ev.name = name;
    record(ev);
}

void
Tracer::spanEnd(EventKind kind, std::int64_t id, Tick ts,
                std::string_view name)
{
    if (enabled_)
        spanEnd(kind, id, ts, names_.intern(name));
}

std::vector<TraceEvent>
Tracer::eventsSince(std::uint64_t mark) const
{
    std::vector<TraceEvent> out;
    // Sequence number of the oldest event still buffered.
    std::uint64_t oldest = recorded_ - size_;
    if (mark >= recorded_)
        return out;
    std::uint64_t first = std::max(mark, oldest);
    out.reserve(static_cast<std::size_t>(recorded_ - first));
    std::uint64_t seq = oldest;
    forEach([&](const TraceEvent &ev) {
        if (seq >= first)
            out.push_back(ev);
        ++seq;
    });
    return out;
}

const std::vector<const TraceEvent *> &
Tracer::chronological() const
{
    if (chrono_.valid)
        return chrono_.order;
    // Sort 16-byte (tick, emission sequence) keys rather than the 64-byte
    // events; the sequence counts from the oldest surviving event, so the
    // stable sort keeps ties in emission order even across a wrapped ring.
    struct Key
    {
        Tick ts;
        std::size_t seq;
    };
    std::vector<Key> keys;
    keys.reserve(size_);
    std::size_t seq = 0;
    forEach([&](const TraceEvent &ev) { keys.push_back({ev.ts, seq++}); });
    std::stable_sort(keys.begin(), keys.end(),
                     [](const Key &a, const Key &b) { return a.ts < b.ts; });
    // Sequence k is ring slot (next_ + k) mod size_ (next_ stays 0 until
    // the ring wraps); ring blocks never move, so the pointers hold until
    // the next mutation.
    chrono_.order.resize(size_);
    for (std::size_t i = 0; i < size_; ++i) {
        std::size_t at = next_ + keys[i].seq;
        chrono_.order[i] = &slot(at < size_ ? at : at - size_);
    }
    chrono_.valid = true;
    return chrono_.order;
}

} // namespace capu::obs
