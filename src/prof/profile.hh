/**
 * @file
 * capuprof: post-hoc profile model built from the capuscope event stream.
 *
 * A Profile is everything the analytics CLI and the inline `capusim
 * --profile` summary report: wall-clock bucket attribution, per-iteration
 * windows with alignment digests, per-tensor cost accounting, per-op
 * compute totals, and the happens-before critical-path summary
 * (critical_path.hh). It is built purely from TraceEvents — the same
 * stream the Chrome-trace exporter writes — so profiles can be produced
 * live from a Tracer or offline from an exported trace file, and the
 * simulation is never perturbed (profiling is strictly post-hoc).
 *
 * Bucket taxonomy (the tentpole conservation property): the session
 * window [sessionBegin, sessionEnd] — first iteration begin to last
 * iteration end — is partitioned by a sweep over resource-occupancy
 * intervals with a fixed priority:
 *
 *   compute   > recompute  > swapStall  > oomStall   > idle
 *   (Kernel)    (Recompute)  (Stall)      (oom.wait-free)
 *
 * Every tick of the window lands in exactly one bucket, so the five
 * buckets sum to measured wall-clock *exactly* — the acceptance gate's
 * "within 1%" is satisfied by construction, and any violation indicates
 * a broken trace. PCIe lane occupancy is deliberately not a bucket:
 * transfer time only costs wall-clock when it surfaces as a Stall, which
 * is the paper's "overhead hidden under compute" claim made measurable.
 */

#ifndef CAPU_PROF_PROFILE_HH
#define CAPU_PROF_PROFILE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/event.hh"
#include "prof/critical_path.hh"

namespace capu::obs
{
class Tracer;
} // namespace capu::obs

namespace capu::prof
{

/** Wall-clock partition; total() always equals the attributed window. */
struct Buckets
{
    Tick compute = 0;   ///< scheduled kernels occupying the compute stream
    Tick recompute = 0; ///< lineage-replay kernels (exposed recompute cost)
    Tick swapStall = 0; ///< host waits on swap-in/prefetch residency
    Tick oomStall = 0;  ///< allocator OOM protocol waiting on frees
    Tick idle = 0;      ///< window ticks not covered by any of the above

    Tick total() const
    {
        return compute + recompute + swapStall + oomStall + idle;
    }
    Buckets operator-(const Buckets &o) const; ///< saturating per-bucket
};

/** Prefetch outcome counts for one tensor's H2D traffic. */
struct PrefetchTimeliness
{
    int early = 0;  ///< arrived well before the back access (margin spare)
    int onTime = 0; ///< arrived before the access, inside the margin
    int late = 0;   ///< prefetch issued but the access still stalled
    int missed = 0; ///< no prefetch at all: on-demand swap-in

    int total() const { return early + onTime + late + missed; }
};

/** Cost/benefit ledger for one tensor's memory-management traffic. */
struct TensorAccount
{
    std::int64_t tensor = -1;
    std::string name;
    std::uint64_t bytes = 0; ///< wire bytes per transfer of this tensor

    std::uint64_t swapOutBytes = 0;
    std::uint64_t swapInBytes = 0;
    int swapOutCount = 0;
    int swapInCount = 0;

    Tick recomputeTicks = 0; ///< compute-stream time replaying lineage
    int recomputeOps = 0;
    Tick stallTicks = 0;     ///< host stalls charged to this tensor
    Tick transferTicks = 0;  ///< PCIe lane occupancy, both directions

    /**
     * Footprint relief: bytes x ticks spent off-device (OUT/DROPPED
     * lifetime spans) — what evicting this tensor bought.
     */
    double reliefByteTicks = 0;
    /** Overhead charged: exposed stalls + recompute replay time. */
    Tick overheadTicks = 0;

    bool residentAtPeak = false; ///< held device bytes at the peak sample
    PrefetchTimeliness prefetch;
};

/** Compute-stream totals for one scheduled op. */
struct OpAccount
{
    std::int64_t op = -1;
    std::string name;
    int count = 0;
    Tick computeTicks = 0;
};

/** One iteration window with its alignment digest and bucket split. */
struct IterationProfile
{
    int iteration = 0;
    Tick begin = 0;
    Tick end = 0;
    /**
     * FNV-1a over the iteration's events (iteration-relative ticks,
     * replay track excluded), so executed and capureplay-synthesized
     * iterations of the same steady state digest identically. Diff
     * alignment compares digest sequences index-by-index.
     */
    std::uint64_t digest = 0;
    /** Shape class from the drift track's marker; -1 on static runs. */
    int shapeClass = -1;
    Buckets buckets;
};

/**
 * Shape-class drift attribution (capudrift), built from the drift track's
 * markers. All-zero on static runs — the drift track is only named (and
 * its events only emitted) when the graph is dynamic.
 */
struct DriftSummary
{
    int classes = 0;    ///< distinct shape classes observed
    int novel = 0;      ///< first-measurement events (drift.novel)
    int remeasures = 0; ///< watchdog re-measurements (drift.remeasure)
    /** Iterations attributed to each class, indexed by class id. */
    std::vector<int> iterationsPerClass;
    /** Wall-clock per class (sum of its iteration windows). */
    std::vector<Tick> wallPerClass;
};

struct Profile
{
    int schema = 1;
    /** Run identity carried over from the tracer's meta. */
    std::vector<std::pair<std::string, std::string>> meta;

    Tick sessionBegin = 0;
    Tick sessionEnd = 0;
    Tick wallTicks = 0; ///< sessionEnd - sessionBegin

    std::uint64_t events = 0;        ///< events the profile was built from
    std::uint64_t droppedEvents = 0; ///< ring drops reported by the source

    Buckets buckets;
    std::vector<IterationProfile> iterations;
    std::vector<TensorAccount> tensors; ///< ascending tensor id
    std::vector<OpAccount> ops;         ///< ascending op id
    CriticalPathSummary critical;
    DriftSummary drift;

    std::uint64_t peakBytes = 0; ///< max gpu.bytes_in_use sample
    Tick peakTs = 0;

    /**
     * |wall - sum(buckets)| in ticks. Zero by construction on a healthy
     * trace; the CI conservation gate asserts <= 1% of wall.
     */
    Tick conservationError() const;
};

class TraceView;

/**
 * Build a profile from a decoded trace (trace_view.hh); the drop count
 * and run meta come from the view's source, and the critical path runs
 * on view.hb(). Replay-track markers are excluded from digests and
 * buckets so replayed and executed runs profile identically.
 */
Profile buildProfile(const TraceView &view);

/** Convenience: profile a live tracer's ring through a TraceView. */
Profile buildProfile(const obs::Tracer &tracer);

/**
 * Tensors ranked by overhead charged (stalls + recompute), heaviest
 * first; ties broken toward larger swap traffic, then lower id.
 */
std::vector<const TensorAccount *> rankTensors(const Profile &profile);

} // namespace capu::prof

#endif // CAPU_PROF_PROFILE_HH
