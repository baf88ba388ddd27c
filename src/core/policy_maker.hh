/**
 * @file
 * Policy Maker (PM) — the paper's §4 planning algorithms.
 *
 * From one measured iteration's access sequence the PM derives a guided-
 * execution plan:
 *
 *  1. Candidates: tensors with >1 access whose lifetime crosses the peak
 *     memory window (§4.5).
 *  2. Swap ranking by Free Time, FT = SwapInStart - SwapOutEnd (Eq. 1);
 *     pairs with FT >= 0 hide the entire round trip and are taken first.
 *  3. When hidden swaps run out, the hybrid policy (Algorithm 1) compares
 *     each remaining tensor's exposed-swap overhead against the cheapest
 *     recomputation (max MSPS, Eq. 2), with Algorithm 2's iterative MSPS /
 *     source updates as recompute targets invalidate each other's sources.
 *  4. Each swap item gets an in-trigger: the latest measured access whose
 *     (corrected) time precedes backAccessTime - SwapTime, nudged out of
 *     the peak-memory window; the runtime feedback loop shifts it earlier
 *     by 5% of SwapTime whenever a back-access still finds the tensor
 *     SWAPPING_IN.
 */

#ifndef CAPU_CORE_POLICY_MAKER_HH
#define CAPU_CORE_POLICY_MAKER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/access_tracker.hh"
#include "graph/graph.hh"
#include "support/units.hh"

namespace capu
{

enum class RegenChoice
{
    Swap,
    Recompute,
};

struct PlannedEviction
{
    TensorId tensor = kInvalidTensor;
    RegenChoice mode = RegenChoice::Swap;
    std::uint64_t bytes = 0;

    /** Access index whose completion triggers the eviction. */
    int evictAfterAccess = 0;
    /** Access index of the back-access (first access after eviction). */
    int backAccess = 0;
    Tick evictTime = 0;
    Tick backTime = 0;

    // Swap-only fields.
    Tick swapTime = 0;
    Tick freeTime = 0; ///< FT of the chosen pair (may be negative)
    Tick desiredSwapInStart = 0;
    TensorId triggerTensor = kInvalidTensor;
    int triggerAccess = 0;

    // Recompute-only fields.
    Tick recomputeTime = 0;

    Tick estimatedOverhead = 0;
};

struct Plan
{
    std::vector<PlannedEviction> items;
    std::uint64_t targetBytes = 0;
    std::uint64_t plannedBytes = 0;
    PeakWindow peak;
    std::size_t swapCount = 0;
    std::size_t recomputeCount = 0;

    const PlannedEviction *find(TensorId id) const;
    std::string summary() const;
};

/**
 * Tensors smaller than this are never planned (not worth a transfer or a
 * replay); the passive-mode victim search skips them too.
 */
inline constexpr std::uint64_t kMinTensorBytes = 1ull << 20;

struct PolicyMakerOptions
{
    bool enableSwap = true;
    bool enableRecompute = true;
};

class PolicyMaker
{
  public:
    using BytesFn = std::function<std::uint64_t(TensorId)>;
    using SwapTimeFn = std::function<Tick(std::uint64_t)>;

    PolicyMaker(const Graph &graph, const AccessTracker &tracker,
                PolicyMakerOptions opts = {});

    /**
     * Build the guided-execution plan.
     *
     * @param mem_saving_target Bytes that must leave the peak working set
     *        (from passive mode: total size of on-demand-evicted tensors).
     * @param tensor_bytes Allocation size of a tensor on this executor.
     * @param swap_time PCIe transfer time for a byte count.
     * @param gpu_capacity Pool capacity (defines the peak window).
     */
    Plan build(std::uint64_t mem_saving_target, const BytesFn &tensor_bytes,
               const SwapTimeFn &swap_time, std::uint64_t gpu_capacity);

    /**
     * Re-pick a swap item's in-trigger after a feedback adjustment of its
     * desiredSwapInStart. Returns false if no earlier access exists.
     */
    bool repickTrigger(PlannedEviction &item) const;

  private:
    const Graph &graph_;
    const AccessTracker &tracker_;
    PolicyMakerOptions opts_;

    struct Candidate
    {
        TensorId tensor = kInvalidTensor;
        std::uint64_t bytes = 0;
        // Best (max-interval) consecutive access pair.
        int evictAfterAccess = 0;
        int backAccess = 0;
        Tick evictTime = 0;
        Tick backTime = 0;
        Tick swapTime = 0;
        Tick freeTime = 0;
        // Recompute state (Algorithm 2).
        std::vector<TensorId> srcs;
        Tick rpTime = 0;
        Tick extTime = 0;
        double
        msps() const
        {
            double denom = static_cast<double>(rpTime + extTime);
            return denom <= 0 ? 1e30 : static_cast<double>(bytes) / denom;
        }
    };

    /**
     * Everything build() decides before selection: the peak window (into
     * `plan.peak`), the candidates in gather order and, when recompute is
     * enabled, each candidate's initial lineage state (sources, replay
     * time).
     */
    std::vector<Candidate> prepare(Plan &plan, const BytesFn &tensor_bytes,
                                   const SwapTimeFn &swap_time,
                                   std::uint64_t gpu_capacity) const;

    std::vector<Candidate> gatherCandidates(const BytesFn &tensor_bytes,
                                            const SwapTimeFn &swap_time,
                                            const PeakWindow &peak) const;

    void initRecomputeState(
        Candidate &cand,
        const std::unordered_set<TensorId> &cand_set) const;

    void chooseInTrigger(PlannedEviction &item,
                         const PeakWindow &peak) const;

    /**
     * Algorithms 1 and 2 over the prepared candidates, with exposure
     * caching, an MSPS max-heap and per-source reverse indexes in place
     * of full rescans.
     */
    void select(Plan &plan, std::vector<Candidate> cands) const;

    /** The full-rescan oracle the IncrementalPlan tests compare against
     *  (tests/policy_maker_test.cc); it shares prepare() with build(). */
    friend class ReferencePlanner;
};

} // namespace capu

#endif // CAPU_CORE_POLICY_MAKER_HH
