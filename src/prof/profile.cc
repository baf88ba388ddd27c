#include "prof/profile.hh"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <string_view>
#include <unordered_map>

#include "obs/tracer.hh"
#include "support/rng.hh"

namespace capu::prof
{

namespace
{

/** "tensorname:PHASE" -> tensorname (before the last ':'). */
std::string
spanTensorName(const std::string &label)
{
    auto pos = label.rfind(':');
    return pos == std::string::npos ? label : label.substr(0, pos);
}

/** What a lifetime span's phase (after the last ':') says. */
enum class SpanClass : std::uint8_t
{
    None,     ///< malformed label: no phase
    Relief,   ///< OUT / DROPPED: the tensor's bytes are off-device
    Resident, ///< IN / SWAPPING_IN / SWAPPING_OUT: they are on-device
};

/** The facts the builder reads from one label, derived once per name id. */
struct LabelFacts
{
    std::uint64_t hash = 0; ///< hashString(label): the digest's input
    SpanClass span = SpanClass::None;
    bool failed = false;     ///< aborted transfer attempt ("...!fail")
    bool onDemand = false;   ///< on-demand swap-in ("swapin:...")
    bool bytesInUse = false; ///< the allocator's gpu.bytes_in_use counter
};

std::vector<LabelFacts>
labelFacts(const obs::NameTable &names)
{
    std::vector<LabelFacts> facts(names.size());
    for (std::size_t id = 0; id < names.size(); ++id) {
        const std::string &label = names.name(static_cast<obs::NameId>(id));
        LabelFacts &f = facts[id];
        f.hash = hashString(label.c_str());
        auto colon = label.rfind(':');
        std::string_view phase =
            colon == std::string::npos
                ? std::string_view()
                : std::string_view(label).substr(colon + 1);
        if (phase == "OUT" || phase == "DROPPED")
            f.span = SpanClass::Relief;
        else if (!phase.empty())
            f.span = SpanClass::Resident;
        f.failed = label.ends_with("!fail");
        f.onDemand = label.starts_with("swapin:");
        f.bytesInUse = label == "gpu.bytes_in_use";
    }
    return facts;
}

/** Bucket categories in sweep priority order (idle is the remainder). */
enum Cat : int
{
    kCompute = 0,
    kRecompute = 1,
    kOom = 2,
    kSwapStall = 3,
    kNumCats = 4,
};

struct Boundary
{
    Tick at = 0;
    int cat = 0;
    int delta = 0; ///< +1 open, -1 close
};

void
addBucket(Buckets &b, int cat, Tick amount)
{
    switch (cat) {
      case kCompute: b.compute += amount; break;
      case kRecompute: b.recompute += amount; break;
      case kOom: b.oomStall += amount; break;
      case kSwapStall: b.swapStall += amount; break;
      default: b.idle += amount; break;
    }
}

std::uint64_t
mixEvent(std::uint64_t h, const obs::TraceEvent &ev, Tick iterBegin,
         std::uint64_t nameHash)
{
    h = hashCombine(h, ev.track);
    h = hashCombine(h, static_cast<std::uint64_t>(ev.phase));
    h = hashCombine(h, static_cast<std::uint64_t>(ev.kind));
    h = hashCombine(h, static_cast<std::uint64_t>(ev.tensor + 1));
    h = hashCombine(h, static_cast<std::uint64_t>(ev.op + 1));
    h = hashCombine(h, ev.bytes);
    h = hashCombine(h, ev.ts - iterBegin); // shift-invariant (replay)
    h = hashCombine(h, ev.dur);
    std::uint64_t vb = 0;
    std::memcpy(&vb, &ev.value, sizeof(vb));
    h = hashCombine(h, vb);
    h = hashCombine(h, nameHash);
    return h;
}

} // namespace

Buckets
Buckets::operator-(const Buckets &o) const
{
    auto sub = [](Tick a, Tick b) { return a >= b ? a - b : 0; };
    Buckets d;
    d.compute = sub(compute, o.compute);
    d.recompute = sub(recompute, o.recompute);
    d.swapStall = sub(swapStall, o.swapStall);
    d.oomStall = sub(oomStall, o.oomStall);
    d.idle = sub(idle, o.idle);
    return d;
}

Tick
Profile::conservationError() const
{
    Tick total = buckets.total();
    return total >= wallTicks ? total - wallTicks : wallTicks - total;
}

Profile
buildProfile(const std::vector<obs::TraceEvent> &events,
             const obs::NameTable &names, const ProfileOptions &opts)
{
    Profile out;
    out.meta = opts.meta;
    out.droppedEvents = opts.droppedEvents;
    out.events = events.size();
    if (events.empty())
        return out;

    // Chronological working copy; the replay track carries synthesized-
    // iteration markers only and must not distinguish a replayed run
    // from an executed one.
    std::vector<const obs::TraceEvent *> evs;
    evs.reserve(events.size());
    for (const auto &ev : events) {
        if (ev.track != obs::kTrackReplay)
            evs.push_back(&ev);
    }
    // A live tracer hands over chronological() output, already sorted; a
    // stable sort of sorted input is the identity.
    auto byTs = [](const obs::TraceEvent *a, const obs::TraceEvent *b) {
        return a->ts < b->ts;
    };
    if (!std::is_sorted(evs.begin(), evs.end(), byTs))
        std::stable_sort(evs.begin(), evs.end(), byTs);
    if (evs.empty())
        return out;
    const std::vector<LabelFacts> facts = labelFacts(names);

    // --- iteration windows + session window ---
    for (const obs::TraceEvent *ev : evs) {
        if (ev->phase != obs::EventPhase::Complete ||
            ev->kind != obs::EventKind::Marker)
            continue;
        const std::string &label = names.name(ev->name);
        if (label.starts_with("iteration:")) {
            IterationProfile it;
            it.iteration = std::atoi(label.c_str() + 10);
            it.begin = ev->ts;
            it.end = ev->ts + ev->dur;
            out.iterations.push_back(it);
        }
    }
    std::sort(out.iterations.begin(), out.iterations.end(),
              [](const IterationProfile &a, const IterationProfile &b) {
                  return a.begin != b.begin ? a.begin < b.begin
                                            : a.iteration < b.iteration;
              });
    if (!out.iterations.empty()) {
        out.sessionBegin = out.iterations.front().begin;
        out.sessionEnd = out.iterations.back().end;
    } else {
        // Aborted/partial run: attribute whatever the trace covers.
        out.sessionBegin = evs.front()->ts;
        out.sessionEnd = evs.front()->ts;
        for (const obs::TraceEvent *ev : evs)
            out.sessionEnd = std::max(out.sessionEnd, ev->ts + ev->dur);
    }
    out.wallTicks = out.sessionEnd - out.sessionBegin;

    // --- shape-class drift attribution (capudrift) ---
    // The drift track marks each iteration's class at its begin tick and
    // records novel-class / re-measurement decisions; static runs emit
    // nothing on it, leaving the summary all-zero.
    {
        std::vector<Tick> begins;
        begins.reserve(out.iterations.size());
        for (const auto &it : out.iterations)
            begins.push_back(it.begin);
        for (const obs::TraceEvent *ev : evs) {
            if (ev->track != obs::kTrackDrift)
                continue;
            const std::string &label = names.name(ev->name);
            if (label.starts_with("drift.class:")) {
                auto pos = std::upper_bound(begins.begin(), begins.end(),
                                            ev->ts);
                if (pos == begins.begin())
                    continue;
                std::size_t idx =
                    static_cast<std::size_t>(pos - begins.begin()) - 1;
                if (ev->ts < out.iterations[idx].end) {
                    out.iterations[idx].shapeClass =
                        std::atoi(label.c_str() + 12);
                }
            } else if (label.starts_with("drift.novel")) {
                ++out.drift.novel;
            } else if (label.starts_with("drift.remeasure")) {
                ++out.drift.remeasures;
            }
        }
        for (const auto &it : out.iterations) {
            if (it.shapeClass < 0)
                continue;
            auto cls = static_cast<std::size_t>(it.shapeClass);
            if (out.drift.iterationsPerClass.size() <= cls) {
                out.drift.iterationsPerClass.resize(cls + 1, 0);
                out.drift.wallPerClass.resize(cls + 1, 0);
            }
            ++out.drift.iterationsPerClass[cls];
            out.drift.wallPerClass[cls] += it.end - it.begin;
        }
        for (int n : out.drift.iterationsPerClass)
            out.drift.classes += n > 0 ? 1 : 0;
    }

    // --- accounts keyed by tensor / op id ---
    std::map<std::int64_t, TensorAccount> tensors;
    std::map<std::int64_t, OpAccount> ops;
    auto tacc = [&](std::int64_t id) -> TensorAccount & {
        auto &acc = tensors[id];
        acc.tensor = id;
        return acc;
    };

    // --- single walk: occupancy intervals + per-tensor raw material ---
    std::vector<Boundary> bounds;
    // Per tensor: sorted access ticks, stall-end ticks, resident and
    // off-device (relief) lifetime intervals.
    std::unordered_map<std::int64_t, std::vector<Tick>> accesses;
    std::unordered_map<std::int64_t, std::vector<Tick>> stallEnds;
    struct Span
    {
        Tick begin = 0;
        SpanClass phase = SpanClass::None;
        std::uint64_t bytes = 0;
    };
    std::unordered_map<std::int64_t, Span> openSpans;
    struct Residency
    {
        Tick begin = 0;
        Tick end = 0;
    };
    std::unordered_map<std::int64_t, std::vector<Residency>> resident;
    struct H2d
    {
        std::int64_t tensor = -1;
        Tick start = 0;
        Tick end = 0;
        bool onDemand = false;
    };
    std::vector<H2d> h2ds;

    auto addInterval = [&](int cat, Tick a, Tick b) {
        a = std::max(a, out.sessionBegin);
        b = std::min(b, out.sessionEnd);
        if (a >= b)
            return;
        bounds.push_back({a, cat, +1});
        bounds.push_back({b, cat, -1});
    };
    auto closeSpan = [&](std::int64_t id, const Span &span, Tick endTs) {
        TensorAccount &acc = tacc(id);
        if (acc.bytes == 0)
            acc.bytes = span.bytes;
        if (span.phase == SpanClass::Relief) {
            acc.reliefByteTicks += static_cast<double>(span.bytes) *
                                   static_cast<double>(endTs - span.begin);
        } else if (span.phase == SpanClass::Resident) {
            // IN / SWAPPING_IN / SWAPPING_OUT all hold device bytes.
            resident[id].push_back({span.begin, endTs});
        }
    };

    for (const obs::TraceEvent *pev : evs) {
        const obs::TraceEvent &ev = *pev;
        switch (ev.phase) {
          case obs::EventPhase::Complete:
            if (ev.track == obs::kTrackCompute) {
                if (ev.kind == obs::EventKind::Kernel) {
                    addInterval(kCompute, ev.ts, ev.ts + ev.dur);
                    if (ev.op >= 0) {
                        OpAccount &oa = ops[ev.op];
                        oa.op = ev.op;
                        if (oa.name.empty())
                            oa.name = names.name(ev.name);
                        ++oa.count;
                        oa.computeTicks += ev.dur;
                    }
                } else if (ev.kind == obs::EventKind::Recompute) {
                    addInterval(kRecompute, ev.ts, ev.ts + ev.dur);
                    if (ev.tensor >= 0) {
                        TensorAccount &acc = tacc(ev.tensor);
                        acc.recomputeTicks += ev.dur;
                        ++acc.recomputeOps;
                    }
                }
            } else if (ev.track == obs::kTrackHost) {
                if (ev.kind == obs::EventKind::Stall) {
                    addInterval(kSwapStall, ev.ts, ev.ts + ev.dur);
                    if (ev.tensor >= 0) {
                        TensorAccount &acc = tacc(ev.tensor);
                        acc.stallTicks += ev.dur;
                        if (acc.name.empty()) {
                            const std::string &label = names.name(ev.name);
                            if (label.starts_with("stall:"))
                                acc.name = label.substr(6);
                        }
                        stallEnds[ev.tensor].push_back(ev.ts + ev.dur);
                    }
                } else if (ev.kind == obs::EventKind::OomStep) {
                    addInterval(kOom, ev.ts, ev.ts + ev.dur);
                }
            } else if (ev.track == obs::kTrackD2H ||
                       ev.track == obs::kTrackH2D) {
                if (ev.kind != obs::EventKind::Transfer || ev.tensor < 0)
                    break;
                TensorAccount &acc = tacc(ev.tensor);
                acc.transferTicks += ev.dur;
                if (facts[ev.name].failed)
                    break; // occupancy only: the copy never completed
                acc.bytes = std::max(acc.bytes, ev.bytes);
                if (ev.track == obs::kTrackD2H) {
                    acc.swapOutBytes += ev.bytes;
                    ++acc.swapOutCount;
                    if (acc.name.empty()) {
                        const std::string &label = names.name(ev.name);
                        if (label.starts_with("swapout:"))
                            acc.name = label.substr(8);
                        else if (label.starts_with("oom-swapout:"))
                            acc.name = label.substr(12);
                    }
                } else {
                    acc.swapInBytes += ev.bytes;
                    ++acc.swapInCount;
                    bool onDemand = facts[ev.name].onDemand;
                    if (acc.name.empty()) {
                        acc.name =
                            names.name(ev.name).substr(onDemand ? 7 : 9);
                    }
                    h2ds.push_back(
                        {ev.tensor, ev.ts, ev.ts + ev.dur, onDemand});
                }
            }
            break;

          case obs::EventPhase::Instant:
            if (ev.kind == obs::EventKind::Access && ev.tensor >= 0)
                accesses[ev.tensor].push_back(ev.ts);
            break;

          case obs::EventPhase::Counter:
            if (ev.track == obs::kTrackMemory && facts[ev.name].bytesInUse) {
                auto sampled = static_cast<std::uint64_t>(ev.value);
                if (sampled > out.peakBytes) {
                    out.peakBytes = sampled;
                    out.peakTs = ev.ts;
                }
            }
            break;

          case obs::EventPhase::SpanBegin:
            if (ev.kind == obs::EventKind::Lifetime) {
                auto it = openSpans.find(ev.tensor);
                if (it != openSpans.end())
                    closeSpan(ev.tensor, it->second, ev.ts);
                Span span;
                span.begin = ev.ts;
                span.phase = facts[ev.name].span;
                span.bytes = ev.bytes;
                if (tacc(ev.tensor).name.empty())
                    tacc(ev.tensor).name = spanTensorName(names.name(ev.name));
                openSpans[ev.tensor] = span;
            }
            break;

          case obs::EventPhase::SpanEnd:
            if (ev.kind == obs::EventKind::Lifetime) {
                auto it = openSpans.find(ev.tensor);
                if (it != openSpans.end()) {
                    closeSpan(ev.tensor, it->second, ev.ts);
                    openSpans.erase(it);
                }
            }
            break;
        }
    }
    // Spans still open when the trace ends extend to the session edge.
    for (auto &[id, span] : openSpans)
        closeSpan(id, span, out.sessionEnd);

    // --- bucket sweep ---
    // Iteration edges join the boundary set so no segment straddles an
    // iteration window; every tick of [sessionBegin, sessionEnd] lands in
    // exactly one bucket, which is the conservation property the tests
    // and the CI smoke check assert.
    for (const auto &it : out.iterations) {
        bounds.push_back({it.begin, 0, 0});
        bounds.push_back({it.end, 0, 0});
    }
    std::sort(bounds.begin(), bounds.end(),
              [](const Boundary &a, const Boundary &b) {
                  return a.at < b.at;
              });
    std::size_t iterIdx = 0;
    int active[kNumCats] = {};
    Tick cursor = out.sessionBegin;
    std::size_t bi = 0;
    while (cursor < out.sessionEnd) {
        // Apply every boundary at `cursor`, then extend to the next one.
        for (; bi < bounds.size() && bounds[bi].at <= cursor; ++bi)
            active[bounds[bi].cat] += bounds[bi].delta;
        Tick next = bi < bounds.size()
                        ? std::min(bounds[bi].at, out.sessionEnd)
                        : out.sessionEnd;
        if (next <= cursor) {
            cursor = next == cursor ? next + 1 : next;
            continue;
        }
        int cat = kNumCats; // idle
        for (int c = 0; c < kNumCats; ++c) {
            if (active[c] > 0) {
                cat = c;
                break;
            }
        }
        Tick amount = next - cursor;
        addBucket(out.buckets, cat, amount);
        while (iterIdx < out.iterations.size() &&
               out.iterations[iterIdx].end <= cursor)
            ++iterIdx;
        if (iterIdx < out.iterations.size() &&
            out.iterations[iterIdx].begin <= cursor &&
            cursor < out.iterations[iterIdx].end)
            addBucket(out.iterations[iterIdx].buckets, cat, amount);
        cursor = next;
    }

    // --- iteration digests ---
    if (!out.iterations.empty()) {
        std::vector<Tick> begins;
        begins.reserve(out.iterations.size());
        for (const auto &it : out.iterations)
            begins.push_back(it.begin);
        for (auto &it : out.iterations)
            it.digest = 1469598103934665603ull; // FNV-1a offset basis
        for (const obs::TraceEvent *ev : evs) {
            auto pos = std::upper_bound(begins.begin(), begins.end(),
                                        ev->ts);
            if (pos == begins.begin())
                continue; // before the first iteration
            std::size_t idx =
                static_cast<std::size_t>(pos - begins.begin()) - 1;
            IterationProfile &it = out.iterations[idx];
            if (ev->ts >= it.end)
                continue; // inter-iteration gap
            it.digest = mixEvent(it.digest, *ev, it.begin,
                                 facts[ev->name].hash);
        }
    }

    // --- prefetch timeliness ---
    for (auto &[id, ts] : accesses)
        std::sort(ts.begin(), ts.end());
    double meanIter =
        out.iterations.empty()
            ? static_cast<double>(out.wallTicks)
            : static_cast<double>(out.wallTicks) /
                  static_cast<double>(out.iterations.size());
    Tick earlyMargin = static_cast<Tick>(meanIter * opts.earlyMarginFrac);
    for (const H2d &tr : h2ds) {
        TensorAccount &acc = tacc(tr.tensor);
        if (tr.onDemand) {
            ++acc.prefetch.missed;
            continue;
        }
        auto se = stallEnds.find(tr.tensor);
        bool late = false;
        if (se != stallEnds.end()) {
            // A prefetch the back access still waited on emits a Stall
            // whose end is exactly the transfer's completion tick.
            late = std::find(se->second.begin(), se->second.end(),
                             tr.end) != se->second.end();
        }
        if (late) {
            ++acc.prefetch.late;
            continue;
        }
        const auto &acc_ts = accesses[tr.tensor];
        auto next = std::lower_bound(acc_ts.begin(), acc_ts.end(), tr.end);
        if (next == acc_ts.end()) {
            ++acc.prefetch.early; // fetched, never read before trace end
            continue;
        }
        Tick margin = *next - tr.end;
        if (margin > earlyMargin)
            ++acc.prefetch.early;
        else
            ++acc.prefetch.onTime;
    }

    // --- peak residency + finalization ---
    for (auto &[id, acc] : tensors) {
        auto it = resident.find(id);
        if (it != resident.end()) {
            for (const auto &r : it->second) {
                if (r.begin <= out.peakTs && out.peakTs < r.end) {
                    acc.residentAtPeak = true;
                    break;
                }
            }
        }
        acc.overheadTicks = acc.stallTicks + acc.recomputeTicks;
        if (acc.name.empty())
            acc.name = "tensor" + std::to_string(id);
    }

    out.tensors.reserve(tensors.size());
    for (auto &[id, acc] : tensors)
        out.tensors.push_back(std::move(acc));
    out.ops.reserve(ops.size());
    for (auto &[id, oa] : ops)
        out.ops.push_back(std::move(oa));

    if (opts.withCriticalPath) {
        out.critical = computeCriticalPath(events, names, opts.maxPathSteps);
    }
    return out;
}

Profile
buildProfile(const obs::Tracer &tracer, const ProfileOptions &opts)
{
    ProfileOptions effective = opts;
    effective.droppedEvents = tracer.dropped();
    if (effective.meta.empty())
        effective.meta = tracer.meta();
    return buildProfile(tracer.chronological(), tracer.names(), effective);
}

std::vector<const TensorAccount *>
rankTensors(const Profile &profile)
{
    std::vector<const TensorAccount *> ranked;
    ranked.reserve(profile.tensors.size());
    for (const auto &acc : profile.tensors)
        ranked.push_back(&acc);
    std::sort(ranked.begin(), ranked.end(),
              [](const TensorAccount *a, const TensorAccount *b) {
                  if (a->overheadTicks != b->overheadTicks)
                      return a->overheadTicks > b->overheadTicks;
                  std::uint64_t sa = a->swapOutBytes + a->swapInBytes;
                  std::uint64_t sb = b->swapOutBytes + b->swapInBytes;
                  if (sa != sb)
                      return sa > sb;
                  return a->tensor < b->tensor;
              });
    return ranked;
}

ServeSummary
serveSummaryFromMetrics(const obs::MetricsRegistry &metrics)
{
    ServeSummary s;
    s.present = true;
    s.hits = metrics.counter("capu.serve.hit");
    s.misses = metrics.counter("capu.serve.miss");
    s.evictions = metrics.counter("capu.serve.evict");
    s.diskLoads = metrics.counter("capu.serve.disk_load");
    s.cacheEntries = static_cast<std::uint64_t>(
        metrics.gauge("capu.serve.cache.entries"));
    s.cacheBytes = static_cast<std::uint64_t>(
        metrics.gauge("capu.serve.cache.bytes"));
    s.hitRate = metrics.gauge("capu.serve.hit_rate");
    return s;
}

} // namespace capu::prof
