#include "core/access_tracker.hh"

#include <algorithm>
#include <map>

namespace capu
{

void
AccessTracker::reset()
{
    seq_.clear();
    perTensor_.clear();
    opTimes_.clear();
    timeIndex_.clear();
    timeIndexDirty_ = true;
}

void
AccessTracker::record(const AccessRecord &rec)
{
    seq_.push_back(rec);
    timeIndexDirty_ = true;
    if (rec.tensor >= perTensor_.size())
        perTensor_.resize(static_cast<std::size_t>(rec.tensor) + 1);
    perTensor_[rec.tensor].push_back(rec);
    if (rec.op != kInvalidOp) {
        if (rec.op >= opTimes_.size())
            opTimes_.resize(static_cast<std::size_t>(rec.op) + 1);
        OpTimes &ot = opTimes_[rec.op];
        if (rec.isOutput) {
            ot.lastOutput = std::max(ot.lastOutput, rec.time);
            ot.haveOutput = true;
        } else {
            ot.firstInput = ot.haveInput
                                ? std::min(ot.firstInput, rec.time)
                                : rec.time;
            ot.haveInput = true;
        }
    }
}

const std::vector<AccessRecord> &
AccessTracker::accessesOf(TensorId id) const
{
    static const std::vector<AccessRecord> empty;
    return id < perTensor_.size() ? perTensor_[id] : empty;
}

Tick
AccessTracker::opDuration(OpId op) const
{
    if (!hasOpDuration(op))
        return 0;
    const OpTimes &ot = opTimes_[op];
    Tick start = ot.haveInput ? ot.firstInput : ot.lastOutput;
    return ot.lastOutput > start ? ot.lastOutput - start : 0;
}

bool
AccessTracker::hasOpDuration(OpId op) const
{
    return op < opTimes_.size() && opTimes_[op].haveOutput;
}

PeakWindow
AccessTracker::peakWindow(
    const std::function<std::uint64_t(TensorId)> &bytes,
    std::uint64_t threshold) const
{
    // Sweep +size at first access, -size just after last access. The
    // sums per tick do not depend on the order tensors are visited in.
    std::map<Tick, std::int64_t> deltas;
    for (std::size_t tid = 0; tid < perTensor_.size(); ++tid) {
        const std::vector<AccessRecord> &recs = perTensor_[tid];
        if (recs.empty())
            continue;
        std::uint64_t b = bytes(static_cast<TensorId>(tid));
        if (b == 0)
            continue;
        deltas[recs.front().time] += static_cast<std::int64_t>(b);
        deltas[recs.back().time + 1] -= static_cast<std::int64_t>(b);
    }
    PeakWindow win;
    std::int64_t usage = 0;
    bool above = false;
    for (const auto &[t, d] : deltas) {
        usage += d;
        win.peakBytes = std::max(win.peakBytes,
                                 static_cast<std::uint64_t>(
                                     std::max<std::int64_t>(usage, 0)));
        bool now_above = usage > static_cast<std::int64_t>(threshold);
        if (now_above && !above) {
            if (!win.valid) {
                win.valid = true;
                win.lo = t;
            }
            above = true;
        } else if (!now_above && above) {
            win.hi = t; // extend to the last crossing (union span)
            above = false;
        }
    }
    return win;
}

std::uint64_t
AccessTracker::hypotheticalPeak(
    const std::function<std::uint64_t(TensorId)> &bytes) const
{
    return peakWindow(bytes, ~0ull >> 1).peakBytes;
}

void
AccessTracker::ensureTimeIndex() const
{
    if (!timeIndexDirty_)
        return;
    timeIndex_.clear();
    timeIndex_.reserve(seq_.size());
    for (std::size_t i = 0; i < seq_.size(); ++i)
        timeIndex_.emplace_back(seq_[i].time,
                                static_cast<std::uint32_t>(i));
    std::sort(timeIndex_.begin(), timeIndex_.end());
    timeIndexDirty_ = false;
}

const AccessRecord *
AccessTracker::latestAtOrBefore(Tick after, Tick before, Tick at_or_before,
                                TensorId exclude) const
{
    if (before == 0)
        return nullptr;
    ensureTimeIndex();
    Tick cap = std::min(at_or_before, before - 1);
    auto it = std::upper_bound(
        timeIndex_.begin(), timeIndex_.end(),
        std::pair<Tick, std::uint32_t>{cap, ~std::uint32_t(0)});
    std::size_t pos = static_cast<std::size_t>(it - timeIndex_.begin());
    // Walk time groups downward; the first group with a non-excluded
    // record wins, and within a group the lowest sequence position wins
    // (matching the old scan's first-occurrence-of-max-time behaviour).
    while (pos > 0) {
        Tick t = timeIndex_[pos - 1].first;
        if (t <= after)
            break;
        std::size_t gs = pos;
        while (gs > 0 && timeIndex_[gs - 1].first == t)
            --gs;
        for (std::size_t k = gs; k < pos; ++k) {
            const AccessRecord &r = seq_[timeIndex_[k].second];
            if (r.tensor != exclude)
                return &r;
        }
        pos = gs;
    }
    return nullptr;
}

const AccessRecord *
AccessTracker::earliestWithin(Tick after, Tick before,
                              TensorId exclude) const
{
    if (before == 0)
        return nullptr;
    ensureTimeIndex();
    auto it = std::upper_bound(
        timeIndex_.begin(), timeIndex_.end(),
        std::pair<Tick, std::uint32_t>{after, ~std::uint32_t(0)});
    std::size_t pos = static_cast<std::size_t>(it - timeIndex_.begin());
    const std::size_t n = timeIndex_.size();
    while (pos < n) {
        Tick t = timeIndex_[pos].first;
        if (t >= before)
            break;
        std::size_t ge = pos;
        while (ge < n && timeIndex_[ge].first == t)
            ++ge;
        for (std::size_t k = pos; k < ge; ++k) {
            const AccessRecord &r = seq_[timeIndex_[k].second];
            if (r.tensor != exclude)
                return &r;
        }
        pos = ge;
    }
    return nullptr;
}

} // namespace capu
