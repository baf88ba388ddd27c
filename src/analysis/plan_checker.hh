/**
 * @file
 * Static plan verifier ("capulint") for guided-execution plans.
 *
 * Guided execution blindly trusts the PolicyMaker: an eviction placed
 * after a back-access, a prefetch whose FT is negative while the plan
 * claims a hidden swap, or a recomputation whose sources were themselves
 * evicted does not fail loudly — it silently corrupts the measured
 * speedups (or panics deep inside the executor, far from the buggy
 * decision). The PlanChecker proves a set of plan invariants against the
 * recorded access trace *before* guided execution starts and emits
 * structured diagnostics.
 *
 * Checked rules (see DESIGN.md "Plan invariants" for citations):
 *
 *  use-after-evict        every access between an item's evicted-access
 *                         and its regeneration point must be covered
 *  duplicate-item         a tensor may be evicted/prefetched once per plan
 *  missing-access /       the item's access indices must exist in the
 *  bad-interval           trace, back strictly after evict
 *  time-inversion         (warning) the corrected timeline runs backwards
 *                         across the pair — interval math is meaningless
 *  prefetch-*             the in-trigger must exist in the trace (error);
 *                         one that fires late or while still resident
 *                         degrades to on-demand fetching (warning, §4.4)
 *  negative-ft-prefetch   a swap claimed hidden (overhead < exposure)
 *                         whose FT is negative under the cost model —
 *                         the feedback loop can never fix it (Eq. 1)
 *  exposed-swap           (warning) FT < 0 but the exposure is budgeted
 *  recompute-*            lineage sources resident/host-backed at replay
 *                         time, no cycles (errors); chain within budget
 *                         (warning — an MSPS red flag, §4.4)
 *  memory-overcommit      replaying the plan over the hypothetical usage
 *                         curve must fit GPU capacity; error when the
 *                         plan also fails to deliver its claimed savings
 *                         (re-planning cannot fix that), else warning —
 *                         passive mode + refinement absorb the rest
 *  host-overcommit        host staging must fit the HostPool capacity
 *
 * Cross-stream ordering is not a plan rule: the executor sequences every
 * planned eviction (a chunk frees when its swap-out completes, a back
 * access waits for its prefetch, a misplaced in-trigger falls back to an
 * on-demand fetch), so it is checked on traced runs instead
 * (analysis/happens_before, `capusim --verify`).
 *
 * The structural rules, the lineage walk and the memory sweep all read
 * one placement per item: its trace anchors plus the residency window
 * the executor gives it (when the GPU chunk is freed and re-acquired).
 */

#ifndef CAPU_ANALYSIS_PLAN_CHECKER_HH
#define CAPU_ANALYSIS_PLAN_CHECKER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/access_tracker.hh"
#include "core/policy_maker.hh"
#include "graph/graph.hh"
#include "support/units.hh"

namespace capu
{

enum class LintSeverity
{
    Warning, ///< suspicious but executable; runtime will degrade, not break
    Error,   ///< the plan violates a guided-execution invariant
};

const char *lintSeverityName(LintSeverity severity);

/** One finding: severity, rule name, offending tensor/access, prose. */
struct LintDiagnostic
{
    LintSeverity severity = LintSeverity::Error;
    std::string rule;                  ///< kebab-case rule name
    TensorId tensor = kInvalidTensor;  ///< kInvalidTensor for plan-wide rules
    int accessIndex = 0;               ///< 0 when not tied to one access
    std::string message;
};

struct LintReport
{
    std::vector<LintDiagnostic> diags;

    std::size_t errorCount() const;
    std::size_t warningCount() const;
    bool clean() const { return errorCount() == 0; }

    /** e.g. "plan lint: 2 errors, 1 warning in 31 items". */
    std::string summary() const;
};

/** Max ops one recomputation replay may chain through before
 *  recompute-chain-too-long fires. */
inline constexpr std::size_t kMaxRecomputeChain = 256;

struct PlanCheckerOptions
{
    /** GPU pool capacity; 0 disables the memory-window rule. */
    std::uint64_t gpuCapacity = 0;
    /** Host staging capacity; 0 disables the host-overcommit rule. */
    std::uint64_t hostCapacity = 0;
};

/**
 * Analyzes one Plan against the measured access trace. Like the
 * PolicyMaker it needs the graph only for lineage and tensor kinds, so a
 * graph reconstructed from a serialized trace (reconstructGraph) works —
 * the checker stays usable offline and in eager mode.
 */
class PlanChecker
{
  public:
    using BytesFn = std::function<std::uint64_t(TensorId)>;
    using SwapTimeFn = std::function<Tick(std::uint64_t)>;

    PlanChecker(const Graph &graph, const AccessTracker &tracker,
                PlanCheckerOptions opts = {});

    /**
     * Run every plan rule over `plan`.
     * @param tensor_bytes Allocation size per tensor (same fn the plan was
     *        built with).
     * @param swap_time PCIe transfer time for a byte count.
     */
    LintReport check(const Plan &plan, const BytesFn &tensor_bytes,
                     const SwapTimeFn &swap_time) const;

  private:
    const Graph &graph_;
    const AccessTracker &tracker_;
    PlanCheckerOptions opts_;

    struct Placement; // one item's trace anchors and residency window
    using PlacementIndex =
        std::unordered_map<TensorId, const Placement *>;

    std::vector<Placement> place(const Plan &plan,
                                 const SwapTimeFn &swap_time,
                                 LintReport &report) const;
    void checkPrefetch(const std::vector<Placement> &placed,
                       LintReport &report) const;
    void checkRecompute(const std::vector<Placement> &placed,
                        const PlacementIndex &by_tensor,
                        LintReport &report) const;
    void checkMemoryWindow(const Plan &plan, const PlacementIndex &by_tensor,
                           const BytesFn &tensor_bytes,
                           LintReport &report) const;
};

/**
 * Render the report as an aligned diagnostics table, errors first and each
 * class in discovery order ("no findings" when empty), then its summary.
 */
void printLintReport(std::ostream &os, const LintReport &report,
                     const Graph &graph);

} // namespace capu

#endif // CAPU_ANALYSIS_PLAN_CHECKER_HH
