#include "exec/replay.hh"

#include <algorithm>
#include <cstring>

#include "support/rng.hh"

namespace capu
{

namespace
{

/**
 * Audit digest mismatches after which replay disarms for the rest of the
 * run: the first re-enters observation (the policy may have adapted
 * legitimately), the second means the fixed point cannot be trusted.
 */
constexpr int kMaxAuditMismatches = 2;

} // namespace

ReplayEngine::ReplayEngine(Executor &exec, MemoryPolicy *policy)
    : exec_(exec), policy_(policy), opts_(exec.config().replay)
{
    if (!exec_.replayArmed())
        return;
    armed_ = true;
    const Graph &g = exec_.graph();
    for (std::size_t t = 0; t < g.numTensors(); ++t) {
        auto id = static_cast<TensorId>(t);
        if (g.tensor(id).kind == TensorKind::Weight)
            weightIds_.push_back(id);
    }
}

ReplayEngine::ReplayEngine(const ReplayEngine &other, Executor &exec,
                           MemoryPolicy *policy)
    : exec_(exec), policy_(policy), opts_(other.opts_),
      armed_(other.armed_), disabled_(other.disabled_),
      weightIds_(other.weightIds_), haveMarks_(other.haveMarks_),
      marks_(other.marks_), tracks_(other.tracks_),
      summary_(other.summary_)
{
}

ReplayEngine::Track &
ReplayEngine::trackFor(std::uint64_t cls)
{
    return tracks_[cls]; // default state: Observing
}

bool
ReplayEngine::canReplay()
{
    if (!armed_ || disabled_)
        return false;
    Track &tr = trackFor(exec_.shapeClass());
    if (tr.state != State::Steady)
        return false;
    if (policy_ && !policy_->stableForReplay())
        return false;
    if (opts_.auditInterval > 0 &&
        tr.replayedSinceAudit >= opts_.auditInterval) {
        tr.auditPending = true;
        return false;
    }
    return true;
}

void
ReplayEngine::observe(const IterationStats &stats)
{
    ++summary_.executed;
    if (!armed_ || disabled_)
        return;
    if (!haveMarks_) {
        // First executed iteration after (re)entry: only a baseline.
        captureMarks(marks_);
        haveMarks_ = true;
        return;
    }
    Delta delta = captureDelta(stats);
    captureMarks(marks_);
    bool stable = !policy_ || policy_->stableForReplay();
    // The class that just executed (Session selects it before running, so
    // it is still current here).
    Track &tr = trackFor(exec_.shapeClass());

    if (tr.state == State::Steady) {
        // An executed iteration while steady is either a due audit or a
        // fill-in forced by a policy-instability blip.
        bool was_audit = tr.auditPending;
        tr.auditPending = false;
        tr.replayedSinceAudit = 0;
        if (was_audit)
            ++summary_.audits;
        if (stable && delta.digest == tr.tpl.digest) {
            // Digest reproduced: refresh the template so its cached trace
            // events and clock offsets stay ring-fresh.
            tr.tpl = std::move(delta);
            return;
        }
        if (was_audit) {
            ++summary_.auditMismatches;
            if (summary_.auditMismatches >= kMaxAuditMismatches) {
                disabled_ = true;
                return;
            }
        }
        // The fixed point moved (legitimately, if the policy adapted);
        // hunt for the new one.
        tr.state = State::Observing;
        tr.lastDigest = delta.digest;
        tr.haveLastDigest = stable;
        return;
    }

    // Observing: two consecutive stable iterations of this shape class
    // with equal digests establish its fixed point.
    if (stable && tr.haveLastDigest && delta.digest == tr.lastDigest) {
        tr.tpl = std::move(delta);
        tr.state = State::Steady;
        tr.replayedSinceAudit = 0;
        return;
    }
    tr.lastDigest = delta.digest;
    tr.haveLastDigest = stable;
}

void
ReplayEngine::noteAbort()
{
    if (!armed_ || disabled_)
        return;
    // The machine was force-reset mid-iteration: every class's cached
    // steady state describes a layout that no longer exists.
    for (auto &[cls, tr] : tracks_) {
        (void)cls;
        tr.state = State::Observing;
        tr.haveLastDigest = false;
        tr.auditPending = false;
        tr.replayedSinceAudit = 0;
    }
    haveMarks_ = false;
}

IterationStats
ReplayEngine::synthesize()
{
    Track &tr = trackFor(exec_.shapeClass());
    IterationStats st = tr.tpl.stats;
    // Same begin rule as Executor::beginIterationState; at the fixed point
    // both operands equal the previous iteration's end.
    Tick now = std::max(exec_.now(), exec_.computeStream().busyUntil());
    st.iteration = exec_.iteration();
    st.begin = now;
    st.end = now + tr.tpl.shift.dt;

    emitSynthesized(st, tr.tpl);
    exec_.replayApply(tr.tpl.shift);
    for (const auto &[id, bumps] : tr.tpl.weightBumps)
        exec_.replayBumpWeight(id, bumps);

    // Re-baseline after every synthesized iteration: an eventual audit
    // must diff exactly one executed iteration, not the accumulated
    // replayed span.
    captureMarks(marks_);
    ++summary_.replayed;
    ++tr.replayedSinceAudit;
    return st;
}

void
ReplayEngine::captureMarks(Marks &into) const
{
    into.computeBusy = exec_.computeStream().busyTime();
    into.d2hBusy = exec_.pcie().lane(CopyDir::DeviceToHost).busyTime();
    into.h2dBusy = exec_.pcie().lane(CopyDir::HostToDevice).busyTime();
    into.tracerMark = exec_.obs().tracer.recorded();
    into.weightVersions.clear();
    into.weightVersions.reserve(weightIds_.size());
    for (TensorId id : weightIds_)
        into.weightVersions.push_back(exec_.tensorState(id).weightVersion);
    const auto &m = exec_.obs().metrics;
    into.counters = m.counters();
    into.gauges = m.gauges();
    into.histograms = m.histograms();
}

ReplayEngine::Delta
ReplayEngine::captureDelta(const IterationStats &stats) const
{
    Delta d;
    d.stats = stats;
    d.shift.dt = stats.duration();
    d.shift.computeBusy =
        exec_.computeStream().busyTime() - marks_.computeBusy;
    d.shift.d2hBusy =
        exec_.pcie().lane(CopyDir::DeviceToHost).busyTime() - marks_.d2hBusy;
    d.shift.h2dBusy =
        exec_.pcie().lane(CopyDir::HostToDevice).busyTime() - marks_.h2dBusy;

    for (std::size_t i = 0; i < weightIds_.size(); ++i) {
        int cur = exec_.tensorState(weightIds_[i]).weightVersion;
        int prev = marks_.weightVersions[i];
        if (cur != prev)
            d.weightBumps.emplace_back(weightIds_[i], cur - prev);
    }

    const auto &m = exec_.obs().metrics;
    for (const auto &[name, value] : m.counters()) {
        auto it = marks_.counters.find(name);
        std::uint64_t prev = it == marks_.counters.end() ? 0 : it->second;
        if (value != prev)
            d.counterDeltas.emplace(name, value - prev);
    }
    d.gauges.insert(m.gauges().begin(), m.gauges().end());
    for (const auto &[name, hist] : m.histograms()) {
        auto it = marks_.histograms.find(name);
        obs::Histogram delta = it == marks_.histograms.end()
                                   ? hist.deltaSince(obs::Histogram{})
                                   : hist.deltaSince(it->second);
        if (delta.count() > 0)
            d.histDeltas.emplace_back(name, delta);
    }

    if (exec_.obs().tracing())
        d.events = exec_.obs().tracer.eventsSince(marks_.tracerMark);

    d.digest = digestOf(d);
    return d;
}

std::uint64_t
ReplayEngine::digestOf(const Delta &d) const
{
    std::uint64_t h = hashString("capureplay/v1");
    auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    auto mixd = [&](double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        mix(bits);
    };

    mix(exec_.iterationAccessHash());

    // Iteration stats: every field but the absolute ones (iteration,
    // begin, end); duration stands in for the time axis.
    const IterationStats &s = d.stats;
    mix(s.duration());
    mix(s.kernelBusy);
    mix(s.recomputeBusy);
    mix(s.inputStall);
    mix(s.allocStall);
    mix(s.swapOutBytes);
    mix(s.swapInBytes);
    mix(static_cast<std::uint64_t>(s.swapOutCount));
    mix(static_cast<std::uint64_t>(s.swapInCount));
    mix(static_cast<std::uint64_t>(s.recomputedTensors));
    mix(static_cast<std::uint64_t>(s.recomputeOps));
    mix(static_cast<std::uint64_t>(s.droppedTensors));
    mix(s.droppedBytes);
    mix(static_cast<std::uint64_t>(s.inplaceForwards));
    mix(static_cast<std::uint64_t>(s.fallbackKernels));
    mix(static_cast<std::uint64_t>(s.oomEvictions));
    mix(s.prefetchBusy);
    mix(s.prefetchStall);
    mix(s.peakGpuBytes);

    // Resource horizons relative to iteration end, clamped to zero: a
    // horizon at or before `end` is a behavioral don't-care (an idle lane
    // stays idle however far in the past it drained), and clamping keeps
    // such lanes from blocking digest convergence.
    Tick end = s.end;
    auto rel = [end](Tick t) { return t > end ? t - end : 0; };
    mix(rel(exec_.computeStream().busyUntil()));
    mix(rel(exec_.pcie().laneBusyUntil(CopyDir::DeviceToHost)));
    mix(rel(exec_.pcie().laneBusyUntil(CopyDir::HostToDevice)));
    mix(rel(exec_.computeBarrierTick()));
    mix(rel(exec_.now()));

    // Allocator fixed point: the exact arena layout and the host pool.
    for (const auto &c : exec_.memory().gpu().snapshot()) {
        mix(c.offset);
        mix(c.size);
        mix(c.free ? 1u : 0u);
    }
    mix(exec_.memory().host().bytesInUse());
    for (const auto &[when, handle] : exec_.memory().pendingFrees()) {
        mix(rel(when));
        mix(handle);
    }

    for (const auto &[id, bumps] : d.weightBumps) {
        mix(static_cast<std::uint64_t>(id));
        mix(static_cast<std::uint64_t>(bumps));
    }

    for (const auto &[name, delta] : d.counterDeltas) {
        mix(hashString(name.c_str()));
        mix(delta);
    }
    for (const auto &[name, value] : d.gauges) {
        mix(hashString(name.c_str()));
        mixd(value);
    }
    for (const auto &[name, hist] : d.histDeltas) {
        mix(hashString(name.c_str()));
        mix(hist.count());
        mix(hist.sum());
    }
    return h;
}

void
ReplayEngine::emitSynthesized(const IterationStats &st, const Delta &tpl)
{
    obs::Obs &obs = exec_.obs();
    if (obs.tracing()) {
        Tick offset = st.begin - tpl.stats.begin;
        std::string index = std::to_string(st.iteration);
        obs.tracer.instant(obs::kTrackReplay, obs::EventKind::Marker,
                           st.begin, "replay.iter:" + index);
        // Iteration boundary markers carry the index in their label.
        obs::NameId iter = obs.tracer.intern("iter:" + index);
        obs::NameId iteration = obs.tracer.intern("iteration:" + index);
        for (const obs::TraceEvent &tev : tpl.events) {
            obs::TraceEvent ev = tev;
            ev.ts += offset;
            const std::string &label = obs.tracer.name(ev.name);
            if (label.starts_with("iter:"))
                ev.name = iter;
            else if (label.starts_with("iteration:"))
                ev.name = iteration;
            obs.tracer.record(ev);
        }
    }
    if (obs.metricsOn()) {
        auto &m = obs.metrics;
        for (const auto &[name, delta] : tpl.counterDeltas)
            m.add(name, delta);
        for (const auto &[name, value] : tpl.gauges)
            m.set(name, value);
        for (const auto &[name, hist] : tpl.histDeltas)
            m.mergeHistogram(name, hist);
        m.add("replay.iterations");
        m.snapshotIteration(st.iteration);
    }
}

} // namespace capu
