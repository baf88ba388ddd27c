#include "analysis/plan_checker.hh"

#include <algorithm>
#include <map>
#include <ostream>
#include <unordered_map>
#include <unordered_set>

#include "stats/table.hh"
#include "support/strfmt.hh"

namespace capu
{

const char *
lintSeverityName(LintSeverity severity)
{
    return severity == LintSeverity::Error ? "error" : "warning";
}

std::size_t
LintReport::errorCount() const
{
    return static_cast<std::size_t>(
        std::count_if(diags.begin(), diags.end(), [](const auto &d) {
            return d.severity == LintSeverity::Error;
        }));
}

std::size_t
LintReport::warningCount() const
{
    return diags.size() - errorCount();
}

std::string
LintReport::summary() const
{
    return fmt("plan lint: {} error(s), {} warning(s)", errorCount(),
               warningCount());
}

/**
 * One plan item placed on the measured timeline: its trace anchors, its
 * in-trigger, and the residency window the executor gives it. Only items
 * whose anchors exist and are ordered get a placement; the others carry
 * a structural error instead and the deeper rules never see them.
 */
struct PlanChecker::Placement
{
    const PlannedEviction *item = nullptr;
    Tick evictTime = 0; ///< trace time of the evicted-access
    Tick backTime = 0;  ///< trace time of the back-access
    Tick transfer = 0;  ///< one-way PCIe time of item.bytes (swaps only)
    /** In-trigger record (swaps only); nullptr when unset or untraced. */
    const AccessRecord *trigger = nullptr;
    Tick freedAt = 0;     ///< GPU chunk released
    Tick backAllocAt = 0; ///< GPU chunk re-acquired; <= freedAt: no window
};

PlanChecker::PlanChecker(const Graph &graph, const AccessTracker &tracker,
                         PlanCheckerOptions opts)
    : graph_(graph), tracker_(tracker), opts_(opts)
{
}

namespace
{

/** Record of `tensor` with the given 1-based access index, or nullptr. */
const AccessRecord *
findAccess(const AccessTracker &tracker, TensorId tensor, int access_index)
{
    for (const AccessRecord &rec : tracker.accessesOf(tensor)) {
        if (rec.accessIndex == access_index)
            return &rec;
    }
    return nullptr;
}

void
diag(LintReport &report, LintSeverity sev, std::string rule, TensorId tensor,
     int access, std::string message)
{
    report.diags.push_back(LintDiagnostic{sev, std::move(rule), tensor,
                                          access, std::move(message)});
}

} // namespace

std::vector<PlanChecker::Placement>
PlanChecker::place(const Plan &plan, const SwapTimeFn &swap_time,
                   LintReport &report) const
{
    std::vector<Placement> placed;
    placed.reserve(plan.items.size());
    std::unordered_map<TensorId, std::size_t> first_item;
    for (std::size_t i = 0; i < plan.items.size(); ++i) {
        const PlannedEviction &item = plan.items[i];

        // Rule: duplicate-item — one eviction/prefetch per tensor per plan
        // (a double evict frees a dead handle; a double prefetch races).
        auto [it, inserted] = first_item.emplace(item.tensor, i);
        if (!inserted) {
            diag(report, LintSeverity::Error, "duplicate-item", item.tensor,
                 item.evictAfterAccess,
                 fmt("tensor {} planned by items #{} and #{}", item.tensor,
                     it->second, i));
            continue;
        }

        // Rule: missing-access — both anchors must exist in the trace.
        const AccessRecord *evict_rec =
            findAccess(tracker_, item.tensor, item.evictAfterAccess);
        const AccessRecord *back_rec =
            findAccess(tracker_, item.tensor, item.backAccess);
        if (evict_rec == nullptr || back_rec == nullptr) {
            diag(report, LintSeverity::Error, "missing-access", item.tensor,
                 evict_rec == nullptr ? item.evictAfterAccess
                                      : item.backAccess,
                 fmt("tensor {} access #{} is not in the measured trace",
                     item.tensor,
                     evict_rec == nullptr ? item.evictAfterAccess
                                          : item.backAccess));
            continue;
        }

        // Rule: bad-interval — regeneration must follow the eviction.
        if (item.backAccess <= item.evictAfterAccess) {
            diag(report, LintSeverity::Error, "bad-interval", item.tensor,
                 item.backAccess,
                 fmt("back-access #{} does not follow evicted-access #{}",
                     item.backAccess, item.evictAfterAccess));
            continue;
        }
        // Indices ordered but times inverted: the stall-corrected
        // timeline ran backwards locally (measurement artifact). The
        // interval is meaningless for FT math, so a planner that *chose*
        // the pair for its interval is suspect — but execution order is
        // still sound, so this is advisory.
        if (back_rec->time < evict_rec->time) {
            diag(report, LintSeverity::Warning, "time-inversion",
                 item.tensor, item.backAccess,
                 fmt("back-access #{} is timestamped {} before "
                     "evicted-access #{} — corrected timeline inverted",
                     item.backAccess,
                     formatTicks(evict_rec->time - back_rec->time),
                     item.evictAfterAccess));
        }

        // Rule: use-after-evict — no recorded access of the tensor may
        // fall strictly between eviction and regeneration: it would read
        // a hole (recompute) or stall on a transfer nothing scheduled
        // (swap). The PolicyMaker picks consecutive access pairs, so any
        // hit here is a planner bug, the class of silent corruption DTR
        // avoids by construction.
        for (const AccessRecord &rec : tracker_.accessesOf(item.tensor)) {
            if (rec.accessIndex > item.evictAfterAccess &&
                rec.accessIndex < item.backAccess) {
                diag(report, LintSeverity::Error, "use-after-evict",
                     item.tensor, rec.accessIndex,
                     fmt("access #{} of tensor {} falls inside the planned "
                         "eviction interval (#{}, #{})",
                         rec.accessIndex, item.tensor,
                         item.evictAfterAccess, item.backAccess));
            }
        }

        Placement p;
        p.item = &item;
        p.evictTime = evict_rec->time;
        p.backTime = back_rec->time;
        // Residency window, as the executor runs it: a swap frees its
        // chunk when the D2H copy completes and re-acquires it when the
        // swap-in starts — at the in-trigger if that fires inside the
        // window, else SwapTime before the back-access. A drop frees at
        // the evicting kernel and re-acquires at the replay.
        if (item.mode == RegenChoice::Swap) {
            p.transfer = swap_time(item.bytes);
            if (item.triggerTensor != kInvalidTensor)
                p.trigger = findAccess(tracker_, item.triggerTensor,
                                       item.triggerAccess);
            p.freedAt = p.evictTime + p.transfer;
            p.backAllocAt =
                p.backTime > p.transfer ? p.backTime - p.transfer : 0;
            if (p.trigger != nullptr && p.trigger->time > p.freedAt &&
                p.trigger->time < p.backAllocAt)
                p.backAllocAt = p.trigger->time;
        } else {
            p.freedAt = p.evictTime;
            p.backAllocAt = p.backTime;
        }
        placed.push_back(p);
    }
    return placed;
}

void
PlanChecker::checkPrefetch(const std::vector<Placement> &placed,
                           LintReport &report) const
{
    for (const Placement &p : placed) {
        if (p.item->mode != RegenChoice::Swap)
            continue;
        const PlannedEviction &item = *p.item;

        // Feasibility under the cost model, Eq. 1:
        //   FT = SwapInStart - SwapOutEnd
        //      = (back - SwapTime) - (evict + SwapTime).
        std::int64_t ft = static_cast<std::int64_t>(p.backTime) -
                          static_cast<std::int64_t>(p.evictTime) -
                          2 * static_cast<std::int64_t>(p.transfer);
        if (ft < 0) {
            Tick exposure = static_cast<Tick>(-ft);
            if (item.estimatedOverhead < exposure) {
                // Claimed (near-)hidden but intrinsically exposed: the
                // round trip does not fit the reuse interval, so shifting
                // the in-trigger earlier — all the feedback loop can do —
                // can never remove the stall.
                diag(report, LintSeverity::Error, "negative-ft-prefetch",
                     item.tensor, item.backAccess,
                     fmt("FT = -{} but only {} overhead budgeted; the "
                         "feedback loop cannot fix an exposed round trip",
                         formatTicks(exposure),
                         formatTicks(item.estimatedOverhead)));
            } else {
                diag(report, LintSeverity::Warning, "exposed-swap",
                     item.tensor, item.backAccess,
                     fmt("swap of tensor {} is exposed by {} (budgeted)",
                         item.tensor, formatTicks(exposure)));
            }
        }

        // In-trigger placement (§4.4).
        if (item.triggerTensor == kInvalidTensor) {
            diag(report, LintSeverity::Warning, "prefetch-no-trigger",
                 item.tensor, item.backAccess,
                 fmt("swap of tensor {} has no in-trigger; the back-access "
                     "will fetch on demand",
                     item.tensor));
            continue;
        }
        if (p.trigger == nullptr) {
            diag(report, LintSeverity::Error, "prefetch-missing-trigger",
                 item.triggerTensor, item.triggerAccess,
                 fmt("in-trigger {}:{} for tensor {} is not in the trace "
                     "(the prefetch never fires)",
                     item.triggerTensor, item.triggerAccess, item.tensor));
            continue;
        }
        // A mis-placed trigger is not unsound — the back-access degrades
        // to an on-demand fetch (full SwapTime exposed) — so these are
        // advisory; only a dangling trigger reference is plan corruption.
        Tick fires = p.trigger->time;
        if (fires >= p.backTime) {
            diag(report, LintSeverity::Warning, "prefetch-late-trigger",
                 item.tensor, item.backAccess,
                 fmt("in-trigger {}:{} fires at {} — not before the "
                     "back-access at {}; the fetch degrades to on-demand",
                     item.triggerTensor, item.triggerAccess,
                     formatTicks(fires), formatTicks(p.backTime)));
        } else if (fires <= p.evictTime) {
            // prefetchAsync is a no-op while the tensor is still resident:
            // a trigger at/before the eviction silently never fetches.
            diag(report, LintSeverity::Warning, "prefetch-dead-trigger",
                 item.tensor, item.evictAfterAccess,
                 fmt("in-trigger {}:{} fires at {}, before the eviction at "
                     "{} — the prefetch is a no-op",
                     item.triggerTensor, item.triggerAccess,
                     formatTicks(fires), formatTicks(p.evictTime)));
        }
    }
}

void
PlanChecker::checkRecompute(const std::vector<Placement> &placed,
                            const PlacementIndex &by_tensor,
                            LintReport &report) const
{
    // Is `id` evicted by the plan across time `at`?
    auto evicted_across = [&](TensorId id, Tick at) -> const Placement * {
        auto it = by_tensor.find(id);
        if (it == by_tensor.end())
            return nullptr;
        const Placement *p = it->second;
        return (p->evictTime < at && at < p->backTime) ? p : nullptr;
    };

    for (const Placement &p : placed) {
        if (p.item->mode != RegenChoice::Recompute)
            continue;
        const PlannedEviction &item = *p.item;
        Tick replay_at = p.backTime;

        // Depth-first over the replay closure: a tensor is available at
        // replay time if it is a weight, alive in the trace, or host-
        // backed by a swap item; anything else must itself be replayed
        // through a recomputable producer. Mirrors the executor's
        // regeneration (§4.4 "recomputation sources") but proves it
        // statically against the trace.
        std::unordered_set<TensorId> on_path;   // DFS path (cycle check)
        std::unordered_set<TensorId> satisfied; // proven available
        std::unordered_set<OpId> replay_ops;    // unique ops replayed
        bool budget_blown = false;

        std::function<bool(TensorId)> replay; // regenerate t via producer
        std::function<bool(TensorId)> need;   // make t available

        replay = [&](TensorId t) -> bool {
            OpId prod = graph_.tensor(t).producer;
            if (prod == kInvalidOp || !graph_.op(prod).recomputable) {
                diag(report, LintSeverity::Error, "recompute-source-lost",
                     item.tensor, item.backAccess,
                     fmt("replay of tensor {} needs tensor {}, which is "
                         "neither resident nor host-backed at replay time "
                         "and cannot be regenerated",
                         item.tensor, t));
                return false;
            }
            if (on_path.count(t) != 0u) {
                diag(report, LintSeverity::Error, "recompute-cycle",
                     item.tensor, item.backAccess,
                     fmt("replay of tensor {} revisits tensor {} — lineage "
                         "cycle",
                         item.tensor, t));
                return false;
            }
            on_path.insert(t);
            replay_ops.insert(prod);
            if (replay_ops.size() > kMaxRecomputeChain) {
                // Soundness is unaffected (runtime replay is unbounded and
                // collective recomputation memoizes intermediates); a
                // chain this deep is an MSPS red flag, not a crash.
                if (!budget_blown) {
                    budget_blown = true;
                    diag(report, LintSeverity::Warning,
                         "recompute-chain-too-long", item.tensor,
                         item.backAccess,
                         fmt("replay of tensor {} chains through more than "
                             "{} ops",
                             item.tensor, kMaxRecomputeChain));
                }
                on_path.erase(t);
                return false;
            }
            for (TensorId in : graph_.op(prod).inputs) {
                if (!need(in)) {
                    on_path.erase(t);
                    return false;
                }
            }
            on_path.erase(t);
            satisfied.insert(t);
            return true;
        };

        need = [&](TensorId t) -> bool {
            if (satisfied.count(t) != 0u)
                return true;
            if (graph_.tensor(t).kind == TensorKind::Weight)
                return true; // persistent
            if (const Placement *ev = evicted_across(t, replay_at)) {
                if (ev->item->mode == RegenChoice::Swap)
                    return true; // host copy exists; on-demand swap-in
                return replay(t); // dropped: chain through its producer
            }
            const auto &recs = tracker_.accessesOf(t);
            bool alive = !recs.empty() && recs.front().time <= replay_at &&
                         recs.back().time >= replay_at;
            if (alive)
                return true;
            return replay(t); // dead by refcount: must be regenerated too
        };

        replay(item.tensor);
    }
}

void
PlanChecker::checkMemoryWindow(const Plan &plan,
                               const PlacementIndex &by_tensor,
                               const BytesFn &tensor_bytes,
                               LintReport &report) const
{
    if (opts_.gpuCapacity == 0 && opts_.hostCapacity == 0)
        return;

    // Replay the plan over the hypothetical (infinite-memory) usage curve:
    // each non-weight tensor occupies [first, last] access, minus its
    // residency window [freedAt, backAllocAt). Same sweep convention as
    // AccessTracker::peakWindow so numbers line up with the planner.
    std::map<Tick, std::int64_t> gpu_deltas, base_deltas, host_deltas;
    std::uint64_t weight_bytes = graph_.bytesOfKind(TensorKind::Weight);

    for (const TensorDesc &t : graph_.tensors()) {
        if (t.kind == TensorKind::Weight)
            continue;
        const auto &recs = tracker_.accessesOf(t.id);
        if (recs.empty())
            continue;
        std::uint64_t bytes = tensor_bytes(t.id);
        if (bytes == 0)
            continue;
        auto b = static_cast<std::int64_t>(bytes);
        gpu_deltas[recs.front().time] += b;
        gpu_deltas[recs.back().time + 1] -= b;
        base_deltas[recs.front().time] += b;
        base_deltas[recs.back().time + 1] -= b;

        auto it = by_tensor.find(t.id);
        if (it == by_tensor.end())
            continue;
        const Placement &p = *it->second;
        if (p.freedAt < p.backAllocAt) {
            gpu_deltas[p.freedAt] -= b;
            gpu_deltas[p.backAllocAt] += b;
        }
        // Host side: a swap occupies pinned staging from swap-out start
        // until the swap-in completes at the back-access.
        if (p.item->mode == RegenChoice::Swap) {
            host_deltas[p.evictTime] += b;
            host_deltas[p.backTime + 1] -= b;
        }
    }

    struct Peak
    {
        std::uint64_t bytes = 0;
        Tick at = 0; ///< first tick the peak is reached
    };
    auto sweep_peak = [](const std::map<Tick, std::int64_t> &deltas) {
        std::int64_t usage = 0;
        Peak peak;
        for (const auto &[t, d] : deltas) {
            usage += d;
            if (usage > static_cast<std::int64_t>(peak.bytes))
                peak = {static_cast<std::uint64_t>(usage), t};
        }
        return peak;
    };

    if (opts_.gpuCapacity > 0) {
        // The replay is a model of the executor, not the executor:
        // allocator rounding, workspace churn and transfer timing all
        // wobble a few percent. Passive mode stays armed as the runtime
        // safety net (§5.3), so the rule tolerates a 5% overshoot.
        std::uint64_t slack = opts_.gpuCapacity / 20;
        std::uint64_t activation_budget =
            opts_.gpuCapacity > weight_bytes ? opts_.gpuCapacity -
                                                   weight_bytes
                                             : 0;
        Peak peak = sweep_peak(gpu_deltas);
        if (peak.bytes > activation_budget + slack) {
            // An overshoot alone is survivable: passive mode absorbs it
            // with on-demand evictions and the refinement loop grows the
            // saving target from that traffic. What re-planning can never
            // fix is a plan that does not *deliver* the savings it
            // claims — eviction windows that miss the peak flatten
            // nothing, so the claimed bytes are fake.
            std::uint64_t hyp_peak = sweep_peak(base_deltas).bytes;
            std::uint64_t achieved =
                hyp_peak > peak.bytes ? hyp_peak - peak.bytes : 0;
            std::uint64_t claimed =
                std::min(plan.plannedBytes, plan.targetBytes);
            bool delivered = achieved + slack >= claimed;
            diag(report,
                 delivered ? LintSeverity::Warning : LintSeverity::Error,
                 "memory-overcommit", kInvalidTensor, 0,
                 fmt("replayed curve peaks at {} (reached at {}) against "
                     "{} of activation budget ({} capacity - {} weights); "
                     "plan claims {} of savings, delivers {}",
                     formatBytes(peak.bytes), formatTicks(peak.at),
                     formatBytes(activation_budget),
                     formatBytes(opts_.gpuCapacity),
                     formatBytes(weight_bytes), formatBytes(claimed),
                     formatBytes(achieved)));
        }
    }
    if (opts_.hostCapacity > 0) {
        std::uint64_t peak = sweep_peak(host_deltas).bytes;
        if (peak > opts_.hostCapacity) {
            diag(report, LintSeverity::Error, "host-overcommit",
                 kInvalidTensor, 0,
                 fmt("host staging peaks at {} against {} of HostPool "
                     "capacity",
                     formatBytes(peak), formatBytes(opts_.hostCapacity)));
        }
    }
}

LintReport
PlanChecker::check(const Plan &plan, const BytesFn &tensor_bytes,
                   const SwapTimeFn &swap_time) const
{
    LintReport report;
    std::vector<Placement> placed = place(plan, swap_time, report);
    PlacementIndex by_tensor;
    by_tensor.reserve(placed.size());
    for (const Placement &p : placed)
        by_tensor.emplace(p.item->tensor, &p);
    checkPrefetch(placed, report);
    checkRecompute(placed, by_tensor, report);
    checkMemoryWindow(plan, by_tensor, tensor_bytes, report);
    return report;
}

void
printLintReport(std::ostream &os, const LintReport &report,
                const Graph &graph)
{
    if (report.diags.empty()) {
        os << "no findings\n";
    } else {
        Table t({"severity", "rule", "subject", "where", "message"});
        for (LintSeverity sev : {LintSeverity::Error, LintSeverity::Warning}) {
            for (const LintDiagnostic &d : report.diags) {
                if (d.severity != sev)
                    continue;
                t.addRow({lintSeverityName(d.severity), d.rule,
                          d.tensor == kInvalidTensor
                              ? "<plan>"
                              : graph.tensor(d.tensor).name,
                          d.accessIndex > 0 ? fmt("access {}", d.accessIndex)
                                            : "",
                          d.message});
            }
        }
        t.print(os);
    }
    os << report.summary() << "\n";
}

} // namespace capu
