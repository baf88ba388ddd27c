/**
 * @file
 * Tensor Access Tracker (TAT) — the paper's §5.2 module.
 *
 * During measured execution it records the full tensor access sequence
 * ({tensor_id, access_count, timestamp}, plus the producing op for lineage
 * timing). Timestamps are *corrected*: the executor's cumulative
 * memory-management stall is subtracted so the sequence reflects a
 * hypothetical infinite-memory run (paper: "we need to subtract this time
 * from tensor access time").
 *
 * Derived analyses used by the PolicyMaker:
 *  - per-tensor access lists (pair selection, FT computation);
 *  - per-op measured durations (recomputation cost, the paper's
 *    "comparing the access time of output and input tensors");
 *  - the hypothetical memory-usage curve and its peak window (candidate
 *    filtering and in-trigger placement).
 */

#ifndef CAPU_CORE_ACCESS_TRACKER_HH
#define CAPU_CORE_ACCESS_TRACKER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/tensor.hh"
#include "support/units.hh"

namespace capu
{

struct AccessRecord
{
    TensorId tensor = kInvalidTensor;
    int accessIndex = 0; ///< 1-based; 1 is production
    Tick time = 0;       ///< corrected (infinite-memory) timestamp
    bool isOutput = false;
    OpId op = kInvalidOp;
};

/** Contiguous time range where hypothetical memory usage exceeds a bound. */
struct PeakWindow
{
    bool valid = false;
    Tick lo = 0;
    Tick hi = 0;
    std::uint64_t peakBytes = 0;
};

class AccessTracker
{
  public:
    void reset();

    void record(const AccessRecord &rec);

    const std::vector<AccessRecord> &sequence() const { return seq_; }

    /** Access list of one tensor, in time order. Empty if never seen. */
    const std::vector<AccessRecord> &accessesOf(TensorId id) const;

    /** Measured kernel duration of `op` (last output - first input time). */
    Tick opDuration(OpId op) const;

    bool hasOpDuration(OpId op) const;

    /**
     * Hypothetical (infinite-memory) usage curve analysis. Tensors count
     * `bytes(id)` from first to last access; return 0 from `bytes` to
     * exclude a tensor (weights, tiny tensors).
     *
     * @param threshold Usage level defining the peak window (e.g. GPU
     *        capacity minus weights).
     */
    PeakWindow peakWindow(
        const std::function<std::uint64_t(TensorId)> &bytes,
        std::uint64_t threshold) const;

    /** Peak of the hypothetical usage curve. */
    std::uint64_t hypotheticalPeak(
        const std::function<std::uint64_t(TensorId)> &bytes) const;

    /**
     * Latest access with `after < time < before`, `time <= at_or_before`
     * and tensor != exclude; among equal times the earliest sequence
     * entry wins. Null if none qualifies. Served from a lazily-built
     * (time, seq-position) index — a binary search plus a short group
     * walk instead of a full-sequence scan (the corrected timeline can
     * locally run backwards, so the raw sequence is not time-sorted).
     */
    const AccessRecord *latestAtOrBefore(Tick after, Tick before,
                                         Tick at_or_before,
                                         TensorId exclude) const;

    /**
     * Earliest access with `after < time < before` and tensor != exclude;
     * ties broken toward the earliest sequence entry. Null if none.
     */
    const AccessRecord *earliestWithin(Tick after, Tick before,
                                       TensorId exclude) const;

    std::size_t size() const { return seq_.size(); }
    bool empty() const { return seq_.empty(); }

  private:
    /** Build the sorted (time, seq-position) index if stale. Not
     *  thread-safe; a tracker belongs to exactly one Session. */
    void ensureTimeIndex() const;

    std::vector<AccessRecord> seq_;
    mutable std::vector<std::pair<Tick, std::uint32_t>> timeIndex_;
    mutable bool timeIndexDirty_ = true;
    /// By tensor id, grown on first record; unseen ids hold no records.
    std::vector<std::vector<AccessRecord>> perTensor_;
    struct OpTimes
    {
        Tick firstInput = 0;
        Tick lastOutput = 0;
        bool haveInput = false;
        bool haveOutput = false;
    };
    /// By op id, grown on first record; unseen ids have neither time.
    std::vector<OpTimes> opTimes_;
};

} // namespace capu

#endif // CAPU_CORE_ACCESS_TRACKER_HH
