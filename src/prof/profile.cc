#include "prof/profile.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string_view>

#include "prof/trace_view.hh"
#include "support/rng.hh"

namespace capu::prof
{

namespace
{

/**
 * A prefetch completing more than this fraction of the mean iteration
 * duration before its back access counts as "early" (pinned host memory
 * held longer than useful).
 */
constexpr double kEarlyMarginFrac = 0.10;

/** "tensorname:PHASE" -> tensorname (before the last ':'). */
std::string
spanTensorName(const std::string &label)
{
    auto pos = label.rfind(':');
    return pos == std::string::npos ? label : label.substr(0, pos);
}

/**
 * Dense slots for int64 ids (tensors or ops), handed out in first-seen
 * order. An open-addressing table maps an id to its slot, so any id works
 * (negative, or far beyond the number of ids) and nothing is sized by an
 * id.
 */
class IdSlots
{
  public:
    /** Slot of `id`, assigning the next one on first sight. */
    std::uint32_t
    slot(std::int64_t id)
    {
        if (2 * (ids_.size() + 1) > table_.size())
            grow();
        for (std::size_t i = bucket(id);; i = (i + 1) & (table_.size() - 1)) {
            if (table_[i] == 0) {
                ids_.push_back(id);
                table_[i] = static_cast<std::uint32_t>(ids_.size());
                return table_[i] - 1;
            }
            if (ids_[table_[i] - 1] == id)
                return table_[i] - 1;
        }
    }

    /** Every slot, in ascending id order. */
    std::vector<std::uint32_t>
    byId() const
    {
        std::vector<std::uint32_t> order(ids_.size());
        for (std::uint32_t s = 0; s < order.size(); ++s)
            order[s] = s;
        std::sort(order.begin(), order.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return ids_[a] < ids_[b];
                  });
        return order;
    }

  private:
    std::size_t
    bucket(std::int64_t id) const
    {
        // Fibonacci hashing: the multiply spreads sequential ids.
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ull) >>
            shift_);
    }

    void
    grow()
    {
        table_.assign(table_.empty() ? 64 : 2 * table_.size(), 0);
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(table_.size()));
        for (std::uint32_t s = 0; s < ids_.size(); ++s) {
            std::size_t i = bucket(ids_[s]);
            while (table_[i] != 0)
                i = (i + 1) & (table_.size() - 1);
            table_[i] = s + 1;
        }
    }

    std::vector<std::int64_t> ids_;    ///< slot -> id
    std::vector<std::uint32_t> table_; ///< slot + 1; 0 marks an empty cell
    unsigned shift_ = 0;
};

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
buildProfile(const TraceView &view, const ProfileOptions &opts)
{
    Profile out;
    out.meta = view.meta();
    out.droppedEvents = view.dropped();
    out.events = view.events().size();
    const obs::NameTable &names = view.names();
    const std::vector<obs::LabelFacts> &facts = view.facts();
    // The replay track carries synthesized-iteration markers only and must
    // not distinguish a replayed run from an executed one, so both walks
    // skip it.
    auto replayed = [](const obs::TraceEvent *ev) {
        return ev->track == obs::kTrackReplay;
    };

    // --- iteration windows + session window ---
    const obs::TraceEvent *firstEv = nullptr;
    Tick lastEnd = 0;
    for (const obs::TraceEvent *ev : view.events()) {
        if (replayed(ev))
            continue;
        if (!firstEv)
            firstEv = ev;
        lastEnd = std::max(lastEnd, ev->ts + ev->dur);
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
    if (!firstEv)
        return out;
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
        out.sessionBegin = firstEv->ts;
        out.sessionEnd = lastEnd;
    }
    out.wallTicks = out.sessionEnd - out.sessionBegin;
    for (auto &it : out.iterations)
        it.digest = 1469598103934665603ull; // FNV-1a offset basis

    // --- accounts in dense slots, one table per id space ---
    struct Span
    {
        Tick begin = 0;
        obs::SpanPhase phase = obs::SpanPhase::None;
        std::uint64_t bytes = 0;
    };
    struct TensorSlot
    {
        TensorAccount acc;
        bool live = false; ///< has an account, not just access ticks
        bool spanOpen = false;
        Span span; ///< the open lifetime span, while spanOpen
        std::vector<Tick> accesses;  ///< access ticks, ascending
        std::vector<Tick> stallEnds; ///< end ticks of stalls charged here
    };
    IdSlots tensorIds;
    std::vector<TensorSlot> tensors;
    auto tensorSlot = [&](std::int64_t id) {
        std::uint32_t s = tensorIds.slot(id);
        if (s == tensors.size())
            tensors.emplace_back().acc.tensor = id;
        return s;
    };
    // The account of tensor slot `s`, opened on first use.
    auto tacc = [&](std::uint32_t s) -> TensorAccount & {
        tensors[s].live = true;
        return tensors[s].acc;
    };
    IdSlots opIds;
    std::vector<OpAccount> ops;

    // --- single walk: occupancy intervals, per-tensor raw material, drift
    // markers and iteration digests ---
    std::vector<Boundary> bounds;
    // Resident (on-device) lifetime intervals, by tensor slot.
    struct Residency
    {
        std::uint32_t slot = 0;
        Tick begin = 0;
        Tick end = 0;
    };
    std::vector<Residency> resident;
    struct H2d
    {
        std::uint32_t slot = 0;
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
    auto closeSpan = [&](std::uint32_t s, Tick endTs) {
        const Span &span = tensors[s].span;
        tensors[s].spanOpen = false;
        TensorAccount &acc = tacc(s);
        if (acc.bytes == 0)
            acc.bytes = span.bytes;
        if (span.phase == obs::SpanPhase::Relief) {
            acc.reliefByteTicks += static_cast<double>(span.bytes) *
                                   static_cast<double>(endTs - span.begin);
        } else if (span.phase == obs::SpanPhase::Resident) {
            // IN / SWAPPING_IN / SWAPPING_OUT all hold device bytes.
            resident.push_back({s, span.begin, endTs});
        }
    };

    // Events arrive in tick order, so the iteration whose window may hold
    // the event (the last one beginning at or before it) only moves forward.
    std::size_t iterAt = 0;
    for (const obs::TraceEvent *pev : view.events()) {
        if (replayed(pev))
            continue;
        const obs::TraceEvent &ev = *pev;
        while (iterAt + 1 < out.iterations.size() &&
               out.iterations[iterAt + 1].begin <= ev.ts)
            ++iterAt;
        IterationProfile *iter = nullptr;
        if (iterAt < out.iterations.size() &&
            out.iterations[iterAt].begin <= ev.ts &&
            ev.ts < out.iterations[iterAt].end) {
            iter = &out.iterations[iterAt];
            iter->digest =
                mixEvent(iter->digest, ev, iter->begin, facts[ev.name].hash);
        }

        // Shape-class drift attribution (capudrift): the drift track marks
        // each iteration's class at its begin tick and records novel-class
        // and re-measurement decisions; static runs emit nothing on it.
        if (ev.track == obs::kTrackDrift) {
            const std::string &label = names.name(ev.name);
            if (label.starts_with("drift.class:")) {
                if (iter)
                    iter->shapeClass = std::atoi(label.c_str() + 12);
            } else if (label.starts_with("drift.novel")) {
                ++out.drift.novel;
            } else if (label.starts_with("drift.remeasure")) {
                ++out.drift.remeasures;
            }
        }

        switch (ev.phase) {
          case obs::EventPhase::Complete:
            if (ev.track == obs::kTrackCompute) {
                if (ev.kind == obs::EventKind::Kernel) {
                    addInterval(kCompute, ev.ts, ev.ts + ev.dur);
                    if (ev.op >= 0) {
                        std::uint32_t s = opIds.slot(ev.op);
                        if (s == ops.size())
                            ops.emplace_back().op = ev.op;
                        OpAccount &oa = ops[s];
                        if (oa.name.empty())
                            oa.name = names.name(ev.name);
                        ++oa.count;
                        oa.computeTicks += ev.dur;
                    }
                } else if (ev.kind == obs::EventKind::Recompute) {
                    addInterval(kRecompute, ev.ts, ev.ts + ev.dur);
                    if (ev.tensor >= 0) {
                        TensorAccount &acc = tacc(tensorSlot(ev.tensor));
                        acc.recomputeTicks += ev.dur;
                        ++acc.recomputeOps;
                    }
                }
            } else if (ev.track == obs::kTrackHost) {
                if (ev.kind == obs::EventKind::Stall) {
                    addInterval(kSwapStall, ev.ts, ev.ts + ev.dur);
                    if (ev.tensor >= 0) {
                        std::uint32_t s = tensorSlot(ev.tensor);
                        TensorAccount &acc = tacc(s);
                        acc.stallTicks += ev.dur;
                        if (acc.name.empty()) {
                            const std::string &label = names.name(ev.name);
                            if (label.starts_with("stall:"))
                                acc.name = label.substr(6);
                        }
                        tensors[s].stallEnds.push_back(ev.ts + ev.dur);
                    }
                } else if (ev.kind == obs::EventKind::OomStep) {
                    addInterval(kOom, ev.ts, ev.ts + ev.dur);
                }
            } else if (ev.track == obs::kTrackD2H ||
                       ev.track == obs::kTrackH2D) {
                if (ev.kind != obs::EventKind::Transfer || ev.tensor < 0)
                    break;
                std::uint32_t s = tensorSlot(ev.tensor);
                TensorAccount &acc = tacc(s);
                acc.transferTicks += ev.dur;
                if (facts[ev.name].failed)
                    break; // occupancy only: the copy never completed
                acc.bytes = std::max(acc.bytes, ev.bytes);
                const std::string &label = names.name(ev.name);
                if (ev.track == obs::kTrackD2H) {
                    acc.swapOutBytes += ev.bytes;
                    ++acc.swapOutCount;
                    if (acc.name.empty()) {
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
                        if (onDemand)
                            acc.name = label.substr(7);
                        else if (label.starts_with("prefetch:"))
                            acc.name = label.substr(9);
                    }
                    h2ds.push_back({s, ev.ts + ev.dur, onDemand});
                }
            }
            break;

          case obs::EventPhase::Instant:
            if (ev.kind == obs::EventKind::Access && ev.tensor >= 0)
                tensors[tensorSlot(ev.tensor)].accesses.push_back(ev.ts);
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
                std::uint32_t s = tensorSlot(ev.tensor);
                if (tensors[s].spanOpen)
                    closeSpan(s, ev.ts);
                tensors[s].span = {ev.ts, facts[ev.name].span, ev.bytes};
                tensors[s].spanOpen = true;
                TensorAccount &acc = tacc(s);
                if (acc.name.empty())
                    acc.name = spanTensorName(names.name(ev.name));
            }
            break;

          case obs::EventPhase::SpanEnd:
            if (ev.kind == obs::EventKind::Lifetime) {
                std::uint32_t s = tensorSlot(ev.tensor);
                if (tensors[s].spanOpen)
                    closeSpan(s, ev.ts);
            }
            break;
        }
    }
    // Spans still open when the trace ends extend to the session edge.
    for (std::uint32_t s = 0; s < tensors.size(); ++s) {
        if (tensors[s].spanOpen)
            closeSpan(s, out.sessionEnd);
    }

    // --- drift summary ---
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

    // --- prefetch timeliness ---
    double meanIter =
        out.iterations.empty()
            ? static_cast<double>(out.wallTicks)
            : static_cast<double>(out.wallTicks) /
                  static_cast<double>(out.iterations.size());
    Tick earlyMargin = static_cast<Tick>(meanIter * kEarlyMarginFrac);
    for (const H2d &tr : h2ds) {
        TensorSlot &t = tensors[tr.slot];
        PrefetchTimeliness &pf = t.acc.prefetch;
        if (tr.onDemand) {
            ++pf.missed;
            continue;
        }
        // A prefetch the back access still waited on emits a Stall whose
        // end is exactly the transfer's completion tick.
        if (std::find(t.stallEnds.begin(), t.stallEnds.end(), tr.end) !=
            t.stallEnds.end()) {
            ++pf.late;
            continue;
        }
        // Chronological input leaves each tensor's access ticks sorted.
        const std::vector<Tick> &acc_ts = t.accesses;
        auto next = std::lower_bound(acc_ts.begin(), acc_ts.end(), tr.end);
        if (next == acc_ts.end()) {
            ++pf.early; // fetched, never read before trace end
            continue;
        }
        Tick margin = *next - tr.end;
        if (margin > earlyMargin)
            ++pf.early;
        else
            ++pf.onTime;
    }

    // --- peak residency + finalization, in ascending id order ---
    for (const Residency &r : resident) {
        if (r.begin <= out.peakTs && out.peakTs < r.end)
            tensors[r.slot].acc.residentAtPeak = true;
    }
    for (std::uint32_t s : tensorIds.byId()) {
        TensorAccount &acc = tensors[s].acc;
        if (!tensors[s].live)
            continue;
        acc.overheadTicks = acc.stallTicks + acc.recomputeTicks;
        if (acc.name.empty())
            acc.name = "tensor" + std::to_string(acc.tensor);
        out.tensors.push_back(std::move(acc));
    }
    for (std::uint32_t s : opIds.byId())
        out.ops.push_back(std::move(ops[s]));

    if (opts.withCriticalPath)
        out.critical = computeCriticalPath(view.hb());
    return out;
}

Profile
buildProfile(const obs::Tracer &tracer, const ProfileOptions &opts)
{
    return buildProfile(TraceView(tracer), opts);
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

} // namespace capu::prof
