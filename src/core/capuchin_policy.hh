/**
 * @file
 * Capuchin — the paper's memory management module, as a MemoryPolicy.
 *
 * Iteration 0 is the *measured execution*: the policy runs in passive mode
 * (on-demand synchronous swapping on allocation failure, victims taken from
 * the beginning of the tensor access list) while the Tensor Access Tracker
 * records the corrected access sequence. The total size of passively
 * evicted tensors becomes the memory-saving target.
 *
 * From iteration 1 on (*guided execution*) the PolicyMaker's plan drives
 * proactive eviction at each item's evicted-access, prefetch at its
 * in-trigger, and recomputation on back-access; the feedback loop shifts
 * in-triggers earlier by `feedbackStep` x SwapTime whenever a back-access
 * still observes SWAPPING_IN. Passive mode stays armed as a safety net.
 *
 * The policy is computation-graph agnostic in the paper's sense: decisions
 * derive from the observed access sequence; lineage is supplied by the
 * framework's runtime record of which op produced which tensor (here:
 * ExecContext::graph()).
 */

#ifndef CAPU_CORE_CAPUCHIN_POLICY_HH
#define CAPU_CORE_CAPUCHIN_POLICY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/access_tracker.hh"
#include "core/policy_maker.hh"
#include "exec/memory_policy.hh"

namespace capu
{

/** Upper bound on drift-triggered re-measurements per shape class. */
inline constexpr int kMaxRemeasures = 2;

struct CapuchinOptions
{
    /** Allow swap in the plan (off = recompute-only, Fig. 8b). */
    bool enableSwap = true;
    /** Allow recomputation in the plan (off = swap-only, Fig. 8a). */
    bool enableRecompute = true;
    /** Feedback-driven in-trigger adjustment (FA in Fig. 8a). */
    bool enableFeedback = true;
    /** Prefetch swapped tensors at their in-trigger (off = on-demand). */
    bool enablePrefetch = true;
    /** In-trigger shift per feedback event, as fraction of SwapTime. */
    double feedbackStep = 0.05;
    /** Plan this much beyond the measured eviction total (headroom). */
    double savingMargin = 1.05;
    /**
     * Iterative refinement: when a guided iteration still needed passive
     * evictions, grow the saving target by those bytes and rebuild the
     * plan, up to this many times (the paper: "refined iteratively from
     * runtime feedbacks", stable "usually within 50 iterations").
     */
    int maxReplans = 20;
    /**
     * Plan-drift watchdog: during guided execution, compare each access's
     * observed iteration-relative timestamp against the measured trace the
     * plan was built from. When the mean absolute divergence exceeds this
     * fraction of the measured timeline, discard the plan and re-enter
     * measured execution (the environment changed: PCIe contention, kernel
     * slowdown, ...). 0 disables the watchdog entirely — no per-access
     * bookkeeping, guaranteeing byte-identical behaviour to builds without
     * it.
     */
    double driftThreshold = 0.0;
    /**
     * Optional plan audit (capulint): invoked every time a plan is built
     * from a *complete* measured trace, before guided execution resumes.
     * Installed by analysis/lint_hooks::enablePlanLint; the installed
     * hook panics on error-level findings, so a broken plan dies at the
     * decision site instead of deep inside the executor.
     */
    std::function<void(const Plan &, const AccessTracker &, ExecContext &)>
        planAudit;
};

class CapuchinPolicy : public MemoryPolicy
{
  public:
    explicit CapuchinPolicy(CapuchinOptions opts = {});

    std::string name() const override { return "Capuchin"; }
    bool graphAgnostic() const override { return true; }

    void beginIteration(ExecContext &ctx) override;
    void onShapeClass(std::uint64_t cls) override;
    void onAccess(ExecContext &ctx, const AccessEvent &event) override;
    bool onAllocFailure(ExecContext &ctx, std::uint64_t bytes) override;
    void onBackAccessStall(ExecContext &ctx, TensorId id,
                           Tick stall) override;
    void endIteration(ExecContext &ctx, const IterationStats &stats) override;
    bool onIterationAbort(ExecContext &ctx) override;
    bool stableForReplay() const override;

    /**
     * Deep copy: the per-shape-class plan cache (measured traces, plans,
     * trigger tables, drift watchdog state) is duplicated entry by entry, so
     * a fork's refinements never leak back into the original.
     */
    std::unique_ptr<MemoryPolicy> clone() const override;

    /**
     * Install `plan` as shape class 0's frozen plan before the first
     * iteration, skipping measured execution entirely (capuserve: a
     * deserialized plan validated against the graph fingerprint). The
     * seeded class has no measured trace, so refinement is frozen and any
     * guided abort falls straight back to passive execution rather than
     * rebuilding from an empty tracker.
     */
    void seedPlan(Plan plan);

    // --- introspection (state of the current shape class; a static
    // session has exactly one, so these read as before capudrift) ---
    const AccessTracker &tracker() const { return cur().tracker; }
    const Plan &plan() const { return cur().plan; }
    bool planBuilt() const { return cur().planBuilt; }
    std::uint64_t measuredEvictedBytes() const
    {
        return cur().measuredEvicted;
    }
    int feedbackAdjustments() const { return feedbackAdjustments_; }
    /** Drift-triggered re-measurements, summed over all shape classes. */
    int remeasures() const;
    /** Shape classes encountered so far (>= 1 once running). */
    std::size_t shapeClassCount() const { return classes_.size(); }

  private:
    /**
     * The plan items each access fires, by tensor id, so that an access
     * looks its triggers up without hashing. Rebuilt whenever the plan or
     * its in-triggers change; sized by the plan's largest tensor id, so a
     * tensor past the end, or one with no entry, fires nothing.
     */
    struct TriggerTable
    {
        static constexpr std::uint32_t kNone = ~std::uint32_t{0};

        /** One access with triggers: the items it prefetches, in plan
         *  order, then the one item it evicts (the last such item). */
        struct Access
        {
            int index = 0; ///< access index
            std::uint32_t prefetchBegin = 0; ///< into `prefetch`
            std::uint32_t prefetchEnd = 0;
            std::uint32_t evict = kNone;
        };
        /** A tensor's accesses with triggers, `accesses[first, last)`,
         *  and the last plan item that evicts the tensor. */
        struct Tensor
        {
            std::uint32_t first = 0;
            std::uint32_t last = 0;
            std::uint32_t item = kNone;
        };

        std::vector<Tensor> byTensor;
        std::vector<Access> accesses;
        std::vector<std::uint32_t> prefetch;

        void build(const Plan &plan);
        /** The triggers of `tensor`'s access `index`, or null. */
        const Access *find(TensorId tensor, int index) const;
        /** The last plan item evicting `tensor`, or kNone. */
        std::uint32_t
        itemOf(TensorId tensor) const
        {
            return tensor < byTensor.size() ? byTensor[tensor].item : kNone;
        }
    };

    /**
     * The complete measure/plan/refine lifecycle of one shape class. A
     * static graph uses exactly class 0; a dynamic graph gets one entry
     * per recurring shape, each caching its measured trace and plan so a
     * recurring shape never re-measures (the capudrift plan cache).
     */
    struct ClassState
    {
        AccessTracker tracker;
        Plan plan;
        /** A measured iteration has completed for this class (replaces
         *  the pre-capudrift `ctx.iteration() == 0` virginity test:
         *  aborts never reach endIteration, so a virgin class keeps
         *  re-entering measured execution on each retry). */
        bool everCompleted = false;
        /** The drift track announced this class's first measurement. */
        bool novelNoted = false;
        bool measured = true;
        bool planBuilt = false;
        bool planFromPartial = false;
        bool triggersDirty = false;
        std::uint64_t measuredEvicted = 0;
        std::uint64_t targetBoost = 0;
        std::uint64_t guidedPassiveBytes = 0;
        std::uint64_t bestPassiveBytes = ~0ull;
        Plan bestPlan;
        bool refinementFrozen = false;
        int replans = 0;
        /** A feedback shift fired during the current/just-ended iter. */
        bool feedbackShiftedThisIter = false;

        // --- drift watchdog state (inert while driftThreshold == 0) ---
        // The baseline is `tracker`: it holds the measured trace the plan
        // was built from until the next measured iteration resets it,
        // which also resets measuredIterStart and forces a rebuild.
        int remeasures = 0;
        bool remeasureRequested = false;
        Tick iterStart = 0;
        Tick measuredIterStart = 0;
        double driftAbs = 0.0;
        double driftBase = 0.0;

        TriggerTable triggers;
    };

    CapuchinOptions opts_;
    int feedbackAdjustments_ = 0;
    /**
     * Shape class of the upcoming/current iteration. Set by onShapeClass
     * (fired before the replay engine asks stableForReplay) and confirmed
     * from ctx.shapeClass() at beginIteration. Always 0 on static graphs.
     */
    std::uint64_t currentClass_ = 0;
    /** Plan cache, indexed by shape class (grown on first encounter). */
    mutable std::vector<std::unique_ptr<ClassState>> classes_;

    ClassState &classFor(std::uint64_t cls) const;
    ClassState &cur() const { return classFor(currentClass_); }

    void buildPlan(ExecContext &ctx, ClassState &cs, bool audit = true);
    void rebuildTriggers(ClassState &cs);
    bool passiveEvict(ExecContext &ctx, ClassState &cs, std::uint64_t bytes);
};

std::unique_ptr<MemoryPolicy> makeCapuchinPolicy(CapuchinOptions opts = {});

} // namespace capu

#endif // CAPU_CORE_CAPUCHIN_POLICY_HH
