#include "core/capuchin_policy.hh"

#include <algorithm>
#include <unordered_set>

#include "faults/fault_engine.hh"
#include "support/logging.hh"

namespace capu
{

namespace
{

/**
 * Feedback deadband: back-access stalls shorter than this fraction of the
 * item's SwapTime are ignored. Without it, residual jitter-sized stalls
 * keep marching in-triggers earlier every iteration until prefetches bunch
 * up at iteration start and the loop oscillates.
 */
constexpr double kFeedbackDeadband = 0.02;

} // namespace

CapuchinPolicy::CapuchinPolicy(CapuchinOptions opts) : opts_(opts)
{
}

std::unique_ptr<MemoryPolicy>
CapuchinPolicy::clone() const
{
    auto copy = std::make_unique<CapuchinPolicy>(opts_);
    copy->feedbackAdjustments_ = feedbackAdjustments_;
    copy->currentClass_ = currentClass_;
    copy->classes_.reserve(classes_.size());
    for (const auto &cs : classes_) {
        copy->classes_.push_back(
            cs ? std::make_unique<ClassState>(*cs) : nullptr);
    }
    return copy;
}

CapuchinPolicy::ClassState &
CapuchinPolicy::classFor(std::uint64_t cls) const
{
    if (cls >= classes_.size())
        classes_.resize(cls + 1);
    if (!classes_[cls])
        classes_[cls] = std::make_unique<ClassState>();
    return *classes_[cls];
}

int
CapuchinPolicy::remeasures() const
{
    int total = 0;
    for (const auto &cs : classes_) {
        if (cs)
            total += cs->remeasures;
    }
    return total;
}

void
CapuchinPolicy::onShapeClass(std::uint64_t cls)
{
    currentClass_ = cls;
}

void
CapuchinPolicy::beginIteration(ExecContext &ctx)
{
    currentClass_ = ctx.shapeClass();
    const bool dynamic = ctx.graph().dynamic();
    ClassState &cs = cur();
    cs.iterStart = ctx.now();
    cs.driftAbs = 0.0;
    cs.driftBase = 0.0;
    cs.feedbackShiftedThisIter = false;
    if (!cs.everCompleted) {
        // First (or retried) measured execution of this shape class:
        // passive on-demand swapping only, so a novel shape degrades to
        // extra stalls instead of mis-planned OOM.
        cs.measured = true;
        cs.tracker.reset();
        cs.measuredEvicted = 0;
        cs.measuredIterStart = cs.iterStart;
        if (dynamic) {
            auto &o = ctx.obs();
            if (!cs.novelNoted) {
                cs.novelNoted = true;
                o.metrics.add("capu.drift.novel_class");
                o.tracer.instant(obs::kTrackDrift, obs::EventKind::Decision,
                                 ctx.now(), "drift.novel",
                                 static_cast<std::int64_t>(currentClass_));
            }
            o.metrics.add("capu.drift.measured_iters");
        }
        return;
    }
    if (cs.remeasureRequested) {
        // The drift watchdog fired: the environment this class's plan was
        // measured in no longer holds. Discard everything learned for the
        // class and re-enter measured execution for one clean iteration.
        cs.remeasureRequested = false;
        cs.measured = true;
        cs.tracker.reset();
        cs.measuredEvicted = 0;
        cs.planBuilt = false;
        cs.planFromPartial = false;
        cs.plan = Plan{};
        cs.bestPlan = Plan{};
        cs.evictTriggers.clear();
        cs.prefetchTriggers.clear();
        cs.itemOf.clear();
        cs.measuredTime.clear();
        cs.targetBoost = 0;
        cs.guidedPassiveBytes = 0;
        cs.bestPassiveBytes = ~0ull;
        cs.refinementFrozen = false;
        cs.replans = 0;
        cs.triggersDirty = false;
        cs.measuredIterStart = cs.iterStart;
        if (dynamic)
            ctx.obs().metrics.add("capu.drift.measured_iters");
        return;
    }
    cs.measured = false;
    if (!cs.planBuilt || cs.planFromPartial) {
        cs.planFromPartial = false;
        buildPlan(ctx, cs);
    }
}

void
CapuchinPolicy::buildPlan(ExecContext &ctx, ClassState &cs, bool audit)
{
    PolicyMakerOptions pm_opts;
    pm_opts.enableSwap = opts_.enableSwap;
    pm_opts.enableRecompute = opts_.enableRecompute;
    PolicyMaker maker(ctx.graph(), cs.tracker, pm_opts);

    auto target = static_cast<std::uint64_t>(
        static_cast<double>(cs.measuredEvicted) * opts_.savingMargin +
        static_cast<double>(cs.targetBoost));
    cs.plan = maker.build(
        target, [&](TensorId id) { return ctx.tensorBytes(id); },
        [&](std::uint64_t bytes) { return ctx.swapTime(bytes); },
        ctx.gpuCapacity());

    rebuildTriggerMaps(cs);
    cs.planBuilt = true;
    if (opts_.driftThreshold > 0.0) {
        // Baseline for the drift watchdog: the measured trace's
        // iteration-relative access times the plan assumes.
        cs.measuredTime.clear();
        for (const auto &rec : cs.tracker.sequence()) {
            Tick rel = rec.time > cs.measuredIterStart
                           ? rec.time - cs.measuredIterStart
                           : 0;
            cs.measuredTime[key(rec.tensor, rec.accessIndex)] = rel;
        }
    }
    inform("capuchin {}", cs.plan.summary());

    auto &o = ctx.obs();
    o.metrics.add("plan.builds");
    o.metrics.setCounter("plan.items", cs.plan.items.size());
    o.tracer.instant(obs::kTrackPolicy, obs::EventKind::Plan, ctx.now(),
                     "plan.build", -1, -1, cs.plan.plannedBytes);
    if (o.tracing()) {
        for (const auto &item : cs.plan.items) {
            if (item.mode != RegenChoice::Swap ||
                item.triggerTensor == kInvalidTensor)
                continue;
            o.tracer.instant(obs::kTrackPolicy, obs::EventKind::Plan,
                             ctx.now(), "plan.intrigger",
                             static_cast<std::int64_t>(item.tensor));
        }
    }

    if (audit && opts_.planAudit)
        opts_.planAudit(cs.plan, cs.tracker, ctx);
}

void
CapuchinPolicy::rebuildTriggerMaps(ClassState &cs)
{
    cs.evictTriggers.clear();
    cs.prefetchTriggers.clear();
    cs.itemOf.clear();
    for (std::size_t i = 0; i < cs.plan.items.size(); ++i) {
        const PlannedEviction &item = cs.plan.items[i];
        cs.evictTriggers[key(item.tensor, item.evictAfterAccess)] = i;
        cs.itemOf[item.tensor] = i;
        if (item.mode == RegenChoice::Swap &&
            item.triggerTensor != kInvalidTensor) {
            cs.prefetchTriggers[key(item.triggerTensor, item.triggerAccess)]
                .push_back(i);
        }
    }
    cs.triggersDirty = false;
}

void
CapuchinPolicy::onAccess(ExecContext &ctx, const AccessEvent &event)
{
    ClassState &cs = cur();
    if (cs.measured) {
        AccessRecord rec;
        rec.tensor = event.tensor;
        rec.accessIndex = event.accessIndex;
        // Correct to the infinite-memory timeline: remove the on-demand
        // swapping stalls accumulated so far this iteration (§5.2).
        Tick stall = ctx.memStallSoFar();
        rec.time = event.when > stall ? event.when - stall : 0;
        rec.isOutput = event.isOutput;
        rec.op = event.op;
        cs.tracker.record(rec);
        if (!cs.planBuilt)
            return;
        // A partial plan from an aborted measured attempt keeps guiding
        // while the trace is re-recorded (fall through to the triggers).
    }

    // Guided execution: fire the plan's triggers for this exact access.
    auto k = key(event.tensor, event.accessIndex);

    if (!cs.measured && opts_.driftThreshold > 0.0) {
        // Raw (stall-inclusive) timestamps: divergence caused by late
        // prefetches and slowed transfers is exactly the signal.
        auto mt = cs.measuredTime.find(k);
        if (mt != cs.measuredTime.end()) {
            Tick rel = event.when > cs.iterStart ? event.when - cs.iterStart
                                                 : 0;
            auto a = static_cast<double>(rel);
            auto b = static_cast<double>(mt->second);
            cs.driftAbs += a > b ? a - b : b - a;
            cs.driftBase += b;
        }
    }

    auto &o = ctx.obs();
    auto pf = opts_.enablePrefetch ? cs.prefetchTriggers.find(k)
                                   : cs.prefetchTriggers.end();
    if (pf != cs.prefetchTriggers.end()) {
        for (std::size_t idx : pf->second) {
            o.tracer.instant(obs::kTrackPolicy, obs::EventKind::Decision,
                             ctx.now(), "trigger.prefetch",
                             static_cast<std::int64_t>(
                                 cs.plan.items[idx].tensor));
            o.metrics.add("trigger.prefetch");
            ctx.prefetchAsync(cs.plan.items[idx].tensor);
        }
    }

    auto ev = cs.evictTriggers.find(k);
    if (ev != cs.evictTriggers.end()) {
        const PlannedEviction &item = cs.plan.items[ev->second];
        bool swap = item.mode == RegenChoice::Swap;
        o.tracer.instant(obs::kTrackPolicy, obs::EventKind::Decision,
                         ctx.now(),
                         swap ? "trigger.evict.swap" : "trigger.evict.drop",
                         static_cast<std::int64_t>(item.tensor));
        o.metrics.add(swap ? "trigger.evict.swap" : "trigger.evict.drop");
        if (swap)
            ctx.evictSwapAsync(item.tensor);
        else
            ctx.evictDrop(item.tensor);
    }
}

bool
CapuchinPolicy::onAllocFailure(ExecContext &ctx, std::uint64_t bytes)
{
    // Passive mode (measured execution, and safety net while guided).
    bool freed = passiveEvict(ctx, cur(), bytes);
    return freed;
}

bool
CapuchinPolicy::passiveEvict(ExecContext &ctx, ClassState &cs,
                             std::uint64_t bytes)
{
    std::uint64_t freed = 0;
    bool any = false;
    // Only the evictions needed to satisfy this request feed the plan's
    // memory-saving target; the measured-mode headroom evictions beyond
    // that point are placement insurance, not demand.
    auto minimally_satisfied = [&] {
        return ctx.canAllocateNow(bytes) || freed >= bytes + bytes / 2;
    };
    auto account = [&](std::uint64_t evicted_bytes, bool necessary) {
        freed += evicted_bytes;
        any = true;
        ctx.obs().metrics.add("passive.evicted_bytes", evicted_bytes);
        if (!necessary)
            return;
        if (cs.measured)
            cs.measuredEvicted += evicted_bytes;
        else
            cs.guidedPassiveBytes += evicted_bytes;
    };
    auto satisfied = [&] {
        if (cs.measured) {
            // Measured execution runs at the feasibility edge: evict
            // beyond the immediate request (3x headroom) so the next few
            // giant allocations find contiguous space instead of facing a
            // freshly re-packed arena.
            return ctx.canAllocateNow(bytes) && freed >= 3 * bytes;
        }
        // Guided execution: passive mode is only a safety net; evict the
        // minimum (a contiguous chunk, or enough queued swap-outs that
        // the caller's wait loop will succeed).
        return ctx.canAllocateNow(bytes) || freed >= bytes + bytes / 2;
    };

    // Dispose of a victim by the cheapest correct means: tensors the plan
    // regenerates by recomputation are simply re-dropped (no transfer, no
    // later swap-in stall); everything else is synchronously swapped.
    auto evict_victim = [&](TensorId id) {
        ctx.obs().tracer.instant(obs::kTrackPolicy,
                                 obs::EventKind::Decision, ctx.now(),
                                 "passive.evict",
                                 static_cast<std::int64_t>(id));
        if (cs.planBuilt) {
            auto it = cs.itemOf.find(id);
            if (it != cs.itemOf.end() &&
                cs.plan.items[it->second].mode == RegenChoice::Recompute &&
                ctx.accessCount(id) >=
                    cs.plan.items[it->second].evictAfterAccess &&
                ctx.status(id) == TensorStatus::In && !ctx.isPinned(id)) {
                // Past its planned eviction point: this is a collectively
                // retained rematerialization — re-dropping costs nothing.
                ctx.evictDrop(id);
                return true;
            }
        }
        if (ctx.evictSwapSync(id))
            return true;
        // Swap-out declined (host pool exhausted / transfer retries spent):
        // dispose by drop-for-recompute when that is stably safe.
        if (ctx.status(id) != TensorStatus::In || ctx.isPinned(id))
            return false;
        if (ctx.graph().tensor(id).kind == TensorKind::Weight)
            return false;
        if (!ctx.canRegenerateStably(id))
            return false;
        ctx.obs().tracer.instant(obs::kTrackRecovery,
                                 obs::EventKind::Recovery, ctx.now(),
                                 "recovery.passive-drop",
                                 static_cast<std::int64_t>(id));
        ctx.obs().metrics.add("recovery.drop_fallbacks");
        ctx.evictDrop(id);
        if (ctx.status(id) != TensorStatus::In) {
            if (auto *fe = ctx.faults())
                ++fe->stats().dropFallbacks;
            return true;
        }
        return false;
    };

    // Targeted eviction first: free the cheapest set of tensors that
    // merges with adjacent free space into a contiguous chunk of the
    // requested size (fragmentation, not total free bytes, is what blocks
    // large allocations under eviction churn).
    for (TensorId id : ctx.victimsForContiguous(bytes)) {
        bool necessary = !minimally_satisfied();
        if (evict_victim(id))
            account(ctx.tensorBytes(id), necessary);
    }
    if (any)
        return true;

    // Cheapest first: re-drop tensors the plan regenerates by recompute
    // anyway (kept alive opportunistically by collective recomputation).
    if (cs.planBuilt) {
        for (const auto &item : cs.plan.items) {
            if (satisfied())
                break;
            if (item.mode != RegenChoice::Recompute)
                continue;
            if (ctx.status(item.tensor) != TensorStatus::In ||
                ctx.isPinned(item.tensor))
                continue;
            ctx.obs().tracer.instant(obs::kTrackPolicy,
                                     obs::EventKind::Decision, ctx.now(),
                                     "passive.redrop",
                                     static_cast<std::int64_t>(item.tensor));
            ctx.evictDrop(item.tensor);
            freed += ctx.tensorBytes(item.tensor);
            ctx.obs().metrics.add("passive.evicted_bytes",
                                  ctx.tensorBytes(item.tensor));
            any = true;
        }
    }

    // Victims from the beginning of the access list: the earliest-accessed
    // resident feature maps (their reuse lies deepest in the backward
    // pass). During the very first ops of measured execution the list may
    // be short; fall back to scanning all tensors in id order. On dynamic
    // graphs other classes' tensors are all Out, so the scan degenerates
    // to this class's live set.
    std::unordered_set<TensorId> tried;
    auto try_evict = [&](TensorId id) {
        if (!tried.insert(id).second)
            return;
        const TensorDesc &t = ctx.graph().tensor(id);
        // Passive mode may evict any non-persistent tensor in the access
        // list — including gradients (their reuse point may be far away,
        // e.g. weight gradients waiting for the update phase).
        if (t.kind != TensorKind::FeatureMap &&
            t.kind != TensorKind::Gradient)
            return;
        if (ctx.tensorBytes(id) < kMinTensorBytes)
            return;
        if (ctx.isPinned(id) || ctx.status(id) != TensorStatus::In)
            return;
        bool necessary = !minimally_satisfied();
        if (evict_victim(id))
            account(ctx.tensorBytes(id), necessary);
    };

    for (const auto &rec : cs.tracker.sequence()) {
        if (satisfied())
            break;
        try_evict(rec.tensor);
    }
    if (!satisfied()) {
        for (TensorId id = 0; id < ctx.graph().numTensors(); ++id) {
            if (satisfied())
                break;
            try_evict(id);
        }
    }
    return any;
}

void
CapuchinPolicy::onBackAccessStall(ExecContext &ctx, TensorId id, Tick stall)
{
    ClassState &cs = cur();
    if (cs.measured || !opts_.enableFeedback || stall == 0)
        return;
    auto it = cs.itemOf.find(id);
    if (it == cs.itemOf.end())
        return;
    PlannedEviction &item = cs.plan.items[it->second];
    if (item.mode != RegenChoice::Swap)
        return;
    auto deadband = static_cast<Tick>(
        static_cast<double>(item.swapTime) * kFeedbackDeadband);
    if (stall <= deadband)
        return; // within tolerance: shifting earlier would over-prefetch
    ctx.obs().tracer.instant(obs::kTrackPolicy, obs::EventKind::Decision,
                             ctx.now(), "feedback.shift",
                             static_cast<std::int64_t>(id));
    ctx.obs().metrics.add("feedback.adjustments");
    // The tensor was still SWAPPING_IN (or absent) at its back-access:
    // shift the in-trigger earlier by feedbackStep x SwapTime (§4.4).
    auto shift = static_cast<Tick>(
        static_cast<double>(item.swapTime) * opts_.feedbackStep);
    shift = std::max<Tick>(shift, 1);
    Tick prev = item.desiredSwapInStart;
    item.desiredSwapInStart = prev > shift ? prev - shift : 0;
    ++feedbackAdjustments_;
    if (item.desiredSwapInStart != prev) {
        // Only an actual trigger movement dirties the maps; a shift
        // saturated at iteration start changes nothing, and treating it
        // as instability would block replay at a genuine fixed point.
        cs.triggersDirty = true;
        cs.feedbackShiftedThisIter = true;
    }
    if (auto *fe = ctx.faults())
        ++fe->stats().feedbackShifts;
}

bool
CapuchinPolicy::stableForReplay() const
{
    // Stable only once guided execution has settled *for the upcoming
    // shape class* (currentClass_, freshly announced via onShapeClass):
    // plan built and its refinement frozen, no trigger re-pick pending,
    // no re-measurement scheduled, and the class's last iteration fired
    // no feedback shift (a shift changes the next iteration's prefetch
    // timing, so the digest fixed point has not actually been reached
    // yet). A class never seen before is by definition unstable.
    if (currentClass_ >= classes_.size() || !classes_[currentClass_])
        return false;
    const ClassState &cs = *classes_[currentClass_];
    return !cs.measured && cs.planBuilt && cs.refinementFrozen &&
           !cs.triggersDirty && !cs.remeasureRequested &&
           !cs.feedbackShiftedThisIter;
}

void
CapuchinPolicy::endIteration(ExecContext &ctx, const IterationStats &stats)
{
    (void)stats;
    ClassState &cs = cur();
    if (cs.measured) {
        cs.everCompleted = true;
        return;
    }

    if (opts_.driftThreshold > 0.0 && cs.driftBase > 0.0 &&
        cs.remeasures < kMaxRemeasures &&
        cs.driftAbs / cs.driftBase > opts_.driftThreshold) {
        // Guided timestamps no longer match the trace the plan assumes:
        // schedule a full re-measurement instead of refining a stale plan.
        ++cs.remeasures;
        cs.remeasureRequested = true;
        int pct = static_cast<int>(cs.driftAbs / cs.driftBase * 100.0);
        auto &o = ctx.obs();
        o.tracer.instant(obs::kTrackRecovery, obs::EventKind::Recovery,
                         ctx.now(), "recovery.remeasure");
        o.metrics.add("plan.remeasures");
        if (ctx.graph().dynamic()) {
            o.metrics.add("capu.drift.remeasures");
            o.tracer.instant(obs::kTrackDrift, obs::EventKind::Recovery,
                             ctx.now(), "drift.remeasure",
                             static_cast<std::int64_t>(currentClass_));
        }
        if (auto *fe = ctx.faults())
            ++fe->stats().remeasures;
        inform("capuchin: plan drift {}% exceeds threshold; re-entering "
               "measured execution", pct);
        return;
    }

    // Iterative refinement: the plan's saving target came from passive
    // mode's eviction total, which underestimates the demand of the
    // plan-shaped timeline (proactive evictions fire later than passive
    // ones did). If this iteration still fell back to passive evictions,
    // fold those bytes into the target and rebuild — hill-climbing on the
    // residual passive traffic, keeping the best plan seen so far.
    if (!cs.refinementFrozen) {
        if (cs.guidedPassiveBytes < cs.bestPassiveBytes) {
            cs.bestPassiveBytes = cs.guidedPassiveBytes;
            cs.bestPlan = cs.plan;
        }
        bool coverage_exhausted =
            cs.plan.plannedBytes + (64ull << 20) < cs.plan.targetBytes;
        if (cs.guidedPassiveBytes == 0 || cs.replans >= opts_.maxReplans ||
            coverage_exhausted) {
            // Converged (or no further coverage available): settle on the
            // best plan observed.
            cs.refinementFrozen = true;
            if (cs.bestPassiveBytes != ~0ull && cs.guidedPassiveBytes > 0) {
                cs.plan = cs.bestPlan;
                rebuildTriggerMaps(cs);
            }
            cs.guidedPassiveBytes = 0;
        } else {
            cs.targetBoost += cs.guidedPassiveBytes;
            cs.guidedPassiveBytes = 0;
            ++cs.replans;
            ctx.obs().tracer.instant(obs::kTrackPolicy,
                                     obs::EventKind::Plan, ctx.now(),
                                     "plan.refine");
            ctx.obs().metrics.add("plan.revisions");
            buildPlan(ctx, cs);
            return;
        }
    }
    cs.guidedPassiveBytes = 0;

    if (!cs.triggersDirty)
        return;
    // Re-pick trigger accesses for the adjusted desired times.
    PolicyMaker maker(ctx.graph(), cs.tracker, PolicyMakerOptions{});
    for (auto &item : cs.plan.items) {
        if (item.mode == RegenChoice::Swap)
            maker.repickTrigger(item);
    }
    rebuildTriggerMaps(cs);
}

bool
CapuchinPolicy::onIterationAbort(ExecContext &ctx)
{
    ClassState &cs = cur();
    if (cs.measured) {
        // Measured execution died at the feasibility edge. Learn from the
        // partial access trace: build a (partial) plan whose proactive
        // evictions relieve the next attempt, letting the trace extend
        // further each retry until one measured pass completes.
        if (cs.tracker.empty())
            return false;
        // Partial trace: last-access times are truncated, so plan
        // invariants cannot be judged fairly — skip the audit here; the
        // rebuild from the eventual complete trace gets audited.
        buildPlan(ctx, cs, /*audit=*/false);
        cs.planFromPartial = true;
        return true;
    }
    // Guided execution died: grow the saving target past what passive
    // mode managed to free and rebuild, while refinement budget remains.
    // When the PolicyMaker already plans every coverable byte and still
    // falls short of the target, boosting the target further cannot change
    // the plan — every retry would fail identically. Fall back to passive
    // (measured) execution instead: it is always feasible, and the fresh
    // complete trace it records seeds the next plan.
    bool saturated = cs.planBuilt && cs.plan.plannedBytes + (64ull << 20) <
                                         cs.plan.targetBytes;
    if (saturated || cs.replans >= opts_.maxReplans) {
        if (cs.everCompleted) {
            cs.remeasureRequested = true;
            ++cs.remeasures;
            auto &o = ctx.obs();
            o.tracer.instant(obs::kTrackRecovery, obs::EventKind::Recovery,
                             ctx.now(), "recovery.passive_fallback");
            o.metrics.add("plan.remeasures");
            inform("capuchin: plan coverage saturated ({} of {}); falling "
                   "back to passive execution",
                   formatBytes(cs.plan.plannedBytes),
                   formatBytes(cs.plan.targetBytes));
            return true;
        }
        return false;
    }
    cs.targetBoost += cs.guidedPassiveBytes + (512ull << 20);
    cs.guidedPassiveBytes = 0;
    ++cs.replans;
    cs.refinementFrozen = false;
    ctx.obs().tracer.instant(obs::kTrackPolicy, obs::EventKind::Plan,
                             ctx.now(), "plan.refine");
    ctx.obs().metrics.add("plan.revisions");
    buildPlan(ctx, cs);
    return true;
}

void
CapuchinPolicy::seedPlan(Plan plan)
{
    ClassState &cs = classFor(0);
    cs.plan = std::move(plan);
    cs.bestPlan = cs.plan;
    cs.bestPassiveBytes = 0;
    cs.everCompleted = true; // skip measured execution
    cs.measured = false;
    cs.planBuilt = true;
    cs.planFromPartial = false;
    cs.refinementFrozen = true; // no trace to rebuild from
    cs.replans = opts_.maxReplans;
    rebuildTriggerMaps(cs);
}

std::unique_ptr<MemoryPolicy>
makeCapuchinPolicy(CapuchinOptions opts)
{
    return std::make_unique<CapuchinPolicy>(opts);
}

} // namespace capu
