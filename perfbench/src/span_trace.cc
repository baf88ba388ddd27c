#include "span_trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <tuple>
#include <unordered_map>

namespace perfbench
{

namespace
{

struct ThreadBuffer
{
    std::vector<SpanRecord> records;
    std::vector<std::uint64_t> open;
};

std::mutex registryMutex;
/// Every thread's buffer; buffers live until exit so a joined thread's
/// spans stay readable. Guarded by registryMutex.
std::vector<std::unique_ptr<ThreadBuffer>> registry;
std::atomic<bool> tracingOn{false};
std::atomic<std::uint64_t> nextId{1};

ThreadBuffer &
localBuffer()
{
    thread_local ThreadBuffer *buf = nullptr;
    if (buf == nullptr) {
        auto owned = std::make_unique<ThreadBuffer>();
        buf = owned.get();
        std::lock_guard<std::mutex> lock(registryMutex);
        registry.push_back(std::move(owned));
    }
    return *buf;
}

} // namespace

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Models: return "models";
      case Layer::Exec: return "exec";
      case Layer::Core: return "core";
      case Layer::Analysis: return "analysis";
      case Layer::Prof: return "prof";
      case Layer::Obs: return "obs";
      case Layer::Serve: return "serve";
      case Layer::Support: return "support";
      case Layer::Other: return "other";
    }
    return "?";
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
setTracing(bool on)
{
    tracingOn.store(on, std::memory_order_relaxed);
}

bool
tracing()
{
    return tracingOn.load(std::memory_order_relaxed);
}

void
clearSpans()
{
    std::lock_guard<std::mutex> lock(registryMutex);
    for (auto &buf : registry)
        buf->records.clear();
}

std::vector<SpanRecord>
collectSpans()
{
    std::vector<SpanRecord> all;
    std::lock_guard<std::mutex> lock(registryMutex);
    for (const auto &buf : registry)
        all.insert(all.end(), buf->records.begin(), buf->records.end());
    return all;
}

std::uint64_t
currentSpan()
{
    if (!tracing())
        return 0;
    const ThreadBuffer &buf = localBuffer();
    return buf.open.empty() ? 0 : buf.open.back();
}

Span::Span(Layer layer, const char *name, std::uint64_t fallback_parent)
{
    if (!tracing())
        return;
    ThreadBuffer &buf = localBuffer();
    rec_.id = nextId.fetch_add(1, std::memory_order_relaxed);
    rec_.parent = buf.open.empty() ? fallback_parent : buf.open.back();
    rec_.layer = layer;
    rec_.name = name;
    buf.open.push_back(rec_.id);
    rec_.startNs = nowNs();
}

Span::~Span()
{
    if (rec_.id == 0)
        return;
    rec_.endNs = nowNs();
    ThreadBuffer &buf = localBuffer();
    buf.open.pop_back();
    buf.records.push_back(rec_);
}

double
LayerSplit::sumMs() const
{
    double sum = 0.0;
    for (double v : selfMs)
        sum += v;
    return sum;
}

double
LayerSplit::conservationErrorMs() const
{
    return std::fabs(sumMs() - wallMs);
}

LayerSplit
splitSelfTime(const std::vector<SpanRecord> &spans, std::uint64_t root)
{
    LayerSplit split;
    std::unordered_map<std::uint64_t, std::size_t> index;
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        index.emplace(spans[i].id, i);
        children[spans[i].parent].push_back(i);
    }
    auto rit = index.find(root);
    if (rit == index.end())
        return split;
    const SpanRecord &top = spans[rit->second];
    const std::int64_t begin = top.startNs;
    const std::int64_t end = top.endNs;
    split.wallMs = static_cast<double>(end - begin) / 1e6;

    // The root's subtree, as indices into `spans`.
    std::vector<std::size_t> members{rit->second};
    for (std::size_t k = 0; k < members.size(); ++k) {
        auto cit = children.find(spans[members[k]].id);
        if (cit != children.end())
            members.insert(members.end(), cit->second.begin(),
                           cit->second.end());
    }
    split.spans = members.size();

    // (time, kind, span): ends sort before starts at one instant.
    std::vector<std::tuple<std::int64_t, int, std::size_t>> events;
    events.reserve(2 * members.size());
    for (std::size_t i : members) {
        std::int64_t s = std::clamp(spans[i].startNs, begin, end);
        std::int64_t e = std::clamp(spans[i].endNs, s, end);
        events.emplace_back(s, 1, i);
        events.emplace_back(e, 0, i);
    }
    std::sort(events.begin(), events.end());

    std::unordered_map<std::size_t, int> activeKids;
    std::vector<std::size_t> active;
    auto parentIndex = [&](std::size_t i) -> std::size_t {
        auto pit = index.find(spans[i].parent);
        return pit == index.end() ? spans.size() : pit->second;
    };
    auto isActive = [&](std::size_t i) {
        return std::find(active.begin(), active.end(), i) != active.end();
    };

    std::int64_t prev = begin;
    std::vector<std::size_t> leaves;
    for (const auto &[t, kind, i] : events) {
        if (t > prev && !active.empty()) {
            leaves.clear();
            for (std::size_t a : active) {
                if (activeKids[a] == 0)
                    leaves.push_back(a);
            }
            double share = static_cast<double>(t - prev) / 1e6 /
                           static_cast<double>(leaves.size());
            for (std::size_t a : leaves)
                split.selfMs[static_cast<std::size_t>(spans[a].layer)] +=
                    share;
        }
        prev = std::max(prev, t);
        std::size_t p = parentIndex(i);
        if (kind == 1) {
            active.push_back(i);
            if (p < spans.size() && isActive(p))
                ++activeKids[p];
        } else {
            active.erase(std::find(active.begin(), active.end(), i));
            if (p < spans.size() && isActive(p))
                --activeKids[p];
        }
    }
    return split;
}

} // namespace perfbench
