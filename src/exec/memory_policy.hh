/**
 * @file
 * The memory-policy plug-in interface.
 *
 * The executor owns all *mechanics* (streams, transfers, allocation,
 * recomputation replay); a MemoryPolicy makes the *decisions* by reacting
 * to hook events and issuing ExecContext actions. Capuchin and all three
 * baselines (TF-original, vDNN, OpenAI checkpointing) implement this
 * interface, so every comparison in the evaluation runs on identical
 * machinery. ExecContext holds only what policies call: the queries their
 * decisions read and the five eviction/prefetch actions.
 *
 * Policies that work purely from observed tensor accesses (no computation
 * graph inspection) report graphAgnostic() == true and are the only ones
 * the eager executor accepts — mirroring the paper's claim that only
 * Capuchin functions in imperative mode.
 */

#ifndef CAPU_EXEC_MEMORY_POLICY_HH
#define CAPU_EXEC_MEMORY_POLICY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hh"
#include "obs/obs.hh"
#include "support/units.hh"

namespace capu
{

namespace faults
{
class FaultEngine;
} // namespace faults

struct ExecConfig;
struct IterationStats;

/** One recorded tensor access (the paper's {tensor_id, count, timestamp}). */
struct AccessEvent
{
    TensorId tensor = kInvalidTensor;
    /** 1-based: production is access #1 (paper §5.2). */
    int accessIndex = 0;
    /** GPU-side time of the access (op start for reads, op end for writes). */
    Tick when = 0;
    bool isOutput = false;
    OpId op = kInvalidOp;
};

class ExecContext;

/**
 * Observer over a policy's access stream. Lets external tooling (the plan
 * linter) record a trace through a policy that does not itself track
 * accesses, without the policy depending on the tracker.
 */
using AccessObserverFn =
    std::function<void(ExecContext &, const AccessEvent &)>;

/** Facade the executor exposes to policies. */
class ExecContext
{
  public:
    virtual ~ExecContext() = default;

    // --- queries ---
    virtual const Graph &graph() const = 0;
    virtual int iteration() const = 0;
    virtual TensorStatus status(TensorId id) const = 0;
    virtual int accessCount(TensorId id) const = 0;
    /** Pinned tensors feed the in-flight op; sync eviction must skip them. */
    virtual bool isPinned(TensorId id) const = 0;
    /** Allocation size on this executor (includes eager-mode slack). */
    virtual std::uint64_t tensorBytes(TensorId id) const = 0;
    virtual std::uint64_t gpuCapacity() const = 0;
    /**
     * Whether a contiguous allocation of `bytes` would succeed right now
     * (matured frees applied; fragmentation-aware).
     */
    virtual bool canAllocateNow(std::uint64_t bytes) = 0;

    /**
     * Targeted-eviction analysis: the cheapest set of evictable tensors
     * whose removal merges with adjacent free space into a contiguous
     * region of at least `bytes`. Empty when no such window exists (e.g.
     * pinned tensors or in-flight transfers block every window).
     */
    virtual std::vector<TensorId>
    victimsForContiguous(std::uint64_t bytes) = 0;

    /**
     * Whether dropping `id` right now leaves it regenerable no matter what
     * the executor frees later: every replay path terminates at weights or
     * host copies that outlive its last use, never at a merely-resident
     * feature map whose refcount may hit zero first. Dropping a tensor
     * that cannot be regenerated violates the policy contract (the
     * executor panics at the back access). Trace-driven planners can rely
     * on future liveness instead (the paper's section 4.4 source
     * analysis); policies without that foresight should gate drops on
     * this.
     */
    virtual bool canRegenerateStably(TensorId id) = 0;
    /** Host staging-pool capacity (swap-out destination budget). */
    virtual std::uint64_t hostCapacity() const = 0;
    /** Pure PCIe transfer time for `bytes` (the paper's SwapTime). */
    virtual Tick swapTime(std::uint64_t bytes) const = 0;
    /** Cumulative memory-management stall so far this iteration. */
    virtual Tick memStallSoFar() const = 0;

    /** Current host-loop master clock (for timestamping trace events). */
    virtual Tick now() const = 0;

    /**
     * The shape class (graph-variant index) of the iteration being
     * executed. Always 0 for static graphs, so policies without shape
     * awareness behave exactly as before.
     */
    virtual std::uint64_t shapeClass() const = 0;

    /**
     * Observability sink for policy decisions: policies instrument
     * unconditionally and pay one branch when observability is off.
     */
    virtual obs::Obs &obs() = 0;

    /**
     * Fault/perturbation engine (capuchaos) for recovery accounting. It
     * may be disabled; its FaultStats counters are valid either way.
     */
    virtual faults::FaultEngine &faults() = 0;

    // --- actions ---

    /**
     * Decoupled swap-out: D2H starts when the current op retires; GPU chunk
     * freed at transfer completion; no compute synchronization.
     */
    virtual void evictSwapAsync(TensorId id) = 0;

    /**
     * Coupled swap-out (vDNN): like evictSwapAsync, but the *next* op may
     * not start before the transfer completes. Returns the barrier tick.
     */
    virtual Tick evictSwapBlocking(TensorId id) = 0;

    /**
     * Synchronous on-demand eviction (passive mode): transfer occupies the
     * critical path immediately. Returns false if `id` is not evictable
     * (not resident, pinned, or a weight).
     */
    virtual bool evictSwapSync(TensorId id) = 0;

    /** Drop the tensor; it will be re-generated by lineage recomputation. */
    virtual void evictDrop(TensorId id) = 0;

    /** Begin swap-in now (in-trigger fired). No-op if not swapped out. */
    virtual void prefetchAsync(TensorId id) = 0;
};

class MemoryPolicy
{
  public:
    virtual ~MemoryPolicy() = default;

    virtual std::string name() const = 0;

    /** Called once before the first iteration (graph mode supplies both). */
    virtual void
    attach(const Graph &graph, const std::vector<OpId> &schedule,
           const ExecConfig &config)
    {
        (void)graph;
        (void)schedule;
        (void)config;
    }

    virtual void beginIteration(ExecContext &ctx) { (void)ctx; }

    /**
     * The executor switched the active shape class (graph variant) for the
     * upcoming iteration. Fires *before* the replay engine queries
     * `stableForReplay()`, so shape-aware policies can answer for the
     * class about to run. Never called on static graphs.
     */
    virtual void onShapeClass(std::uint64_t cls) { (void)cls; }

    /** Every tensor access, in execution order (the paper's TAT feed). */
    virtual void
    onAccess(ExecContext &ctx, const AccessEvent &event)
    {
        (void)ctx;
        (void)event;
    }

    /** After an op retires (proactive evictions are issued here). */
    virtual void
    afterOp(ExecContext &ctx, OpId op, Tick op_end)
    {
        (void)ctx;
        (void)op;
        (void)op_end;
    }

    /**
     * The allocator failed even after draining pending frees. Return true
     * after evicting something (executor retries), false to let the
     * executor raise OOM.
     */
    virtual bool
    onAllocFailure(ExecContext &ctx, std::uint64_t bytes)
    {
        (void)ctx;
        (void)bytes;
        return false;
    }

    /**
     * A back-access had to wait `stall` ticks for its tensor (swap-in not
     * complete / on-demand regeneration). Capuchin's feedback-driven
     * in-trigger adjustment hangs off this hook.
     */
    virtual void
    onBackAccessStall(ExecContext &ctx, TensorId id, Tick stall)
    {
        (void)ctx;
        (void)id;
        (void)stall;
    }

    virtual void
    endIteration(ExecContext &ctx, const IterationStats &stats)
    {
        (void)ctx;
        (void)stats;
    }

    /**
     * Whether the policy's per-iteration decision state has reached a
     * fixed point: no pending plan rebuilds, trigger adjustments or
     * re-measurements. Steady-state replay (capureplay) only synthesizes
     * iterations while this holds — an adapting policy must keep
     * executing for real so its hooks observe the run. Policies without
     * cross-iteration state are trivially stable.
     */
    virtual bool stableForReplay() const { return true; }

    /**
     * The iteration died with OomError. Return true to have the executor
     * abort-and-reset the iteration and run it again (the policy should
     * have learned something — e.g. Capuchin builds a plan from the
     * partial access trace); false propagates the OOM.
     */
    virtual bool
    onIterationAbort(ExecContext &ctx)
    {
        (void)ctx;
        return false;
    }

    /** Whether the policy needs no computation graph (eager-compatible). */
    virtual bool graphAgnostic() const { return false; }

    /**
     * Deep copy of the policy *including all learned state* (measured
     * traces, plans, triggers, feedback adjustments). Forked sessions
     * (capufork, exec/session.hh) carry the clone so the fork continues
     * exactly where the original would have — same decisions at the same
     * ticks. Policies that cannot be cloned return nullptr, which makes
     * Session::fork() fail loudly instead of silently sharing state.
     */
    virtual std::unique_ptr<MemoryPolicy> clone() const { return nullptr; }
};

} // namespace capu

#endif // CAPU_EXEC_MEMORY_POLICY_HH
