/**
 * @file
 * The training executor: a sequential-host discrete-event GPU model.
 *
 * The host launches the schedule's ops in order onto one serial compute
 * stream; D2H/H2D copies run on their own PCIe lanes. Because the compute
 * stream is FIFO, the host loop can advance a master clock op-by-op while
 * remaining *exact*: every overlap, synchronization stall and PCIe
 * serialization shows up in the emitted trace events at true ticks.
 *
 * Per op the executor: (1) makes inputs resident (waiting on swap-ins,
 * running on-demand swap-ins, or replaying lineage for recomputation);
 * (2) allocates outputs + workspace under the OOM protocol (drain deferred
 * frees -> wait for earliest in-flight free -> ask the policy -> raise
 * OomError); (3) enqueues the kernel; (4) records tensor accesses and feeds
 * them to the policy; (5) retires refcount-dead tensors at kernel
 * retirement.
 *
 * A tensor changes residency through four private transitions, each
 * written once and shared by every caller: swapOut (a policy's decoupled,
 * coupled or passive eviction), swapIn (a prefetch or an on-demand fetch),
 * dropAt (a policy's drop or a recompute replay's release) and retire
 * (refcount death, iteration end or abort).
 *
 * Data integrity is checked with lineage fingerprints: every tensor carries
 * a 64-bit value deterministically derived from (producer op, inputs,
 * weight versions, iteration); swap must preserve it, recomputation must
 * regenerate it, and every consumption asserts it — a zero-numerics oracle
 * that swapped/recomputed data is the right data.
 *
 * The ordering constraints the executor honours between accesses,
 * transfers, frees and allocs are spelled out as explicit happens-before
 * edges in exec/ordering.hh; capuverify re-derives them from traced runs
 * (capusim --verify) and checks the executor against them.
 */

#ifndef CAPU_EXEC_EXECUTOR_HH
#define CAPU_EXEC_EXECUTOR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/cost_model.hh"
#include "exec/memory_manager.hh"
#include "exec/memory_policy.hh"
#include "faults/fault_engine.hh"
#include "faults/fault_spec.hh"
#include "graph/graph.hh"
#include "obs/obs.hh"
#include "sim/gpu_device.hh"
#include "sim/pcie_link.hh"
#include "sim/stream.hh"
#include "support/units.hh"

namespace capu
{

/**
 * Post-mortem context captured at the OOM throw site: what was executing,
 * which tensor was being materialized, and allocator-level fragmentation
 * state — enough to diagnose *why* the request could not be satisfied
 * without replaying the run under a debugger.
 */
struct OomContext
{
    OpId op = kInvalidOp;
    std::string opName;
    TensorId tensor = kInvalidTensor;
    std::string tensorName;
    std::uint64_t gpuBytesInUse = 0;
    std::uint64_t gpuBytesFree = 0;
    std::uint64_t largestFreeChunk = 0;
    std::uint64_t freeChunkCount = 0;
    double fragmentation = 0.0;
    std::uint64_t hostBytesInUse = 0;
    std::uint64_t hostCapacity = 0;
    int iteration = 0;

    /** Multi-line human-readable post-mortem report. */
    std::string describe(std::uint64_t requested_bytes) const;
};

/** Raised when memory cannot be found even with the policy's help. */
class OomError : public std::runtime_error
{
  public:
    OomError(const std::string &what, std::uint64_t bytes,
             OomContext ctx = {})
        : std::runtime_error(what), requestedBytes(bytes),
          context(std::move(ctx))
    {
    }

    std::uint64_t requestedBytes;
    OomContext context;
};

/**
 * Steady-state iteration replay (capureplay, exec/replay.hh). Once two
 * consecutive executed iterations produce identical digests, remaining
 * iterations are synthesized from the cached iteration delta instead of
 * re-executed; periodic audit iterations re-execute for real and must
 * reproduce the digest bit-for-bit or replay falls back to execution.
 */
struct ReplayOptions
{
    /**
     * Master switch. Off by default: the library preserves the exact
     * per-iteration hook sequence unless a caller opts in (capusim turns
     * it on). Forced off whenever a fault plan is active.
     */
    bool enabled = false;
    /**
     * Execute a real audit iteration after this many consecutive
     * synthesized ones. 0 disables auditing (trusted replay).
     */
    int auditInterval = 16;
};

/** Executed-vs-synthesized iteration accounting for one session run. */
struct ReplaySummary
{
    int executed = 0;
    int replayed = 0;
    int audits = 0;
    int auditMismatches = 0;
};

/**
 * The uniform time warp one synthesized iteration applies to every
 * absolute-tick resource: `dt` on the time axis plus the template
 * iteration's per-stream occupancy (so utilization accounting stays
 * exact across replayed spans).
 */
struct ReplayShift
{
    Tick dt = 0;
    Tick computeBusy = 0;
    Tick d2hBusy = 0;
    Tick h2dBusy = 0;
};

struct ExecConfig
{
    GpuDeviceSpec device = GpuDeviceSpec::p100();

    /** Imperative (eager) execution: sequential host, no graph opts. */
    bool eagerMode = false;

    /** Keep recompute intermediates that are themselves targets (§5.3). */
    bool collectiveRecompute = true;

    /** Observability: off, metrics-only, or metrics + event tracing. */
    obs::ObsLevel obsLevel = obs::ObsLevel::Off;

    /** Event ring capacity when tracing (oldest events drop on wrap). */
    std::size_t obsRingCapacity = obs::Tracer::kDefaultCapacity;

    /** GPU allocator anti-fragmentation features (ablation bench). */
    BfcOptions allocator;

    /**
     * Swap-compression extension (paper section 7 cites CDMA/Gist as
     * orthogonal work): swapped tensors are compressed by a copy-engine-
     * side compressor before crossing PCIe, shrinking transfer time and
     * host footprint by this factor. 1.0 disables. Activation sparsity
     * (ReLU zeros) makes ~2x lossless ratios realistic for CNNs.
     */
    double swapCompressionRatio = 1.0;

    /**
     * Fault-injection plan (capuchaos). Default-constructed (all clauses
     * off) the executor takes the exact legacy code paths — simulated
     * timestamps are bit-identical to a build without the fault layer.
     */
    faults::FaultSpec faults;

    /** Seed for the fault engine's RNG; recorded in metrics and traces. */
    std::uint64_t seed = 0;

    /** Steady-state iteration replay (capureplay). */
    ReplayOptions replay;

    /**
     * Shape-class schedule for dynamic graphs (capudrift): variant index
     * per iteration, applied cyclically. Empty means variant 0 every
     * iteration. Ignored for static graphs.
     */
    std::vector<std::size_t> variantSchedule;
};

struct IterationStats
{
    int iteration = 0;
    Tick begin = 0;
    Tick end = 0;

    /** Compute-stream occupancy by scheduled kernels. */
    Tick kernelBusy = 0;
    /** Extra compute-stream occupancy from recomputation replays. */
    Tick recomputeBusy = 0;
    /** Waits for tensors to become resident at access time. */
    Tick inputStall = 0;
    /** Waits inside allocation (deferred frees, sync evictions). */
    Tick allocStall = 0;

    std::uint64_t swapOutBytes = 0;
    std::uint64_t swapInBytes = 0;
    int swapOutCount = 0;
    int swapInCount = 0;
    int recomputedTensors = 0;
    int recomputeOps = 0;
    int droppedTensors = 0;
    std::uint64_t droppedBytes = 0;
    /** Outputs that reused their input's buffer (graph-mode forwarding). */
    int inplaceForwards = 0;
    /** Conv kernels that fell back to the slow no-workspace algorithm. */
    int fallbackKernels = 0;
    /** Passive-mode on-demand evictions (OOM handler). */
    int oomEvictions = 0;
    /** Evictions whose D2H writeback was skipped: the host copy staged by
     *  an earlier eviction of the same tensor was still current, so the
     *  device chunk was freed without a transfer. */
    int elidedWritebacks = 0;

    /** PCIe occupancy of prefetch (policy-triggered) swap-ins. */
    Tick prefetchBusy = 0;
    /** Portion of prefetch transfers the back access had to wait out. */
    Tick prefetchStall = 0;

    std::uint64_t peakGpuBytes = 0;

    Tick duration() const { return end - begin; }

    double
    throughput(std::int64_t batch) const
    {
        return duration() == 0
                   ? 0.0
                   : static_cast<double>(batch) / ticksToSec(duration());
    }
};

/** Residency phase a tensor's open lifetime span records (tracing only). */
enum class ObsPhase : std::uint8_t
{
    None, ///< no span open
    In,
    Out,
    Dropped,
    SwappingIn,
    SwappingOut,
};

inline constexpr std::size_t kObsPhases =
    static_cast<std::size_t>(ObsPhase::SwappingOut) + 1;

/** Runtime residency + bookkeeping for one tensor. */
struct TensorState
{
    TensorStatus status = TensorStatus::Out;
    bool produced = false;
    /// Written only by Executor::bindGpu / unbindGpu (chunk owner tags).
    std::optional<MemHandle> gpuHandle;
    std::uint64_t hostHandle = 0; ///< nonzero while a host copy exists
    bool hasHostCopy = false;
    Tick swapInReady = 0;
    Tick swapOutDone = 0;
    int remainingUses = 0;
    int accessCount = 0;
    int pinCount = 0;
    std::uint64_t fingerprint = 0;
    std::uint64_t expectedFp = 0;
    int weightVersion = 0;

    /** Open residency-phase span; tracing only. */
    ObsPhase obsPhase = ObsPhase::None;
    Tick obsPhaseAt = 0;
    /** Counted in tensor.out_bytes, awaiting swap-in or host-copy death. */
    bool outWithHost = false;
};

class Executor : public ExecContext
{
  public:
    /**
     * @param policy Decision plug-in; may be nullptr (pure TF-original
     *               behaviour: OOM raises immediately).
     */
    Executor(const Graph &graph, ExecConfig config, MemoryPolicy *policy);

    /**
     * Rebinding copy (capufork): duplicate `other`'s entire simulated
     * machine — clocks, streams, allocator layout, pending frees, tensor
     * residency, replay hashes, observability buffers — against the
     * caller's graph reference and policy pointer. Every component is
     * value-semantic, so the copy is deep by construction; the only
     * post-copy surgery is re-attaching the intra-executor observer
     * pointers (streams/memory/faults -> this copy's tracer, PCIe ->
     * this copy's fault engine) so the fork never writes into the
     * original's buffers. `graph` must be the same immutable graph the
     * original was built from (forks share it; it is never mutated after
     * construction).
     */
    Executor(const Executor &other, const Graph &graph,
             MemoryPolicy *policy);

    /** Allocate weights, build the schedule, attach the policy. */
    void setup();

    /** Whether setup() already ran (forked executors arrive set up). */
    bool setupDone() const { return setupDone_; }

    /** Run one full training iteration. Throws OomError on exhaustion. */
    IterationStats runIteration();

    /**
     * Select which graph variant (shape class) the next iteration runs.
     * Only valid on dynamic graphs; notifies the policy via onShapeClass.
     * Must be called at an iteration boundary, before the replay engine's
     * canReplay() for the upcoming iteration.
     */
    void setActiveVariant(std::size_t variant);

    std::size_t activeVariant() const { return activeVariant_; }

    /**
     * Recover from a mid-iteration OomError: release every non-weight
     * tensor (GPU and host copies), drain pending frees, clear barriers.
     * The same iteration index can then be re-run.
     */
    void abortIteration();

    /** Op order of one iteration (graph topological order). */
    const std::vector<OpId> &schedule() const { return schedule_; }

    // --- ExecContext queries ---
    const Graph &graph() const override { return graph_; }
    int iteration() const override { return iteration_; }
    TensorStatus status(TensorId id) const override;
    int accessCount(TensorId id) const override;
    bool isPinned(TensorId id) const override;
    std::uint64_t tensorBytes(TensorId id) const override;
    std::uint64_t gpuCapacity() const override;
    std::uint64_t hostCapacity() const override;
    bool canAllocateNow(std::uint64_t bytes) override;
    std::vector<TensorId> victimsForContiguous(std::uint64_t bytes) override;
    bool canRegenerateStably(TensorId id) override;
    Tick swapTime(std::uint64_t bytes) const override;
    Tick memStallSoFar() const override;
    Tick now() const override { return clock_; }
    std::uint64_t shapeClass() const override { return activeVariant_; }
    obs::Obs &obs() override { return obs_; }
    faults::FaultEngine &faults() override { return faults_; }

    // --- ExecContext actions ---
    void evictSwapAsync(TensorId id) override;
    Tick evictSwapBlocking(TensorId id) override;
    bool evictSwapSync(TensorId id) override;
    void evictDrop(TensorId id) override;
    void prefetchAsync(TensorId id) override;

    // --- introspection for benches/tests ---
    Stream &computeStream() { return compute_; }
    PcieLink &pcie() { return pcie_; }
    MemoryManager &memory() { return mem_; }
    faults::FaultEngine &faultEngine() { return faults_; }
    const TensorState &tensorState(TensorId id) const;
    const ExecConfig &config() const { return config_; }

    // --- capureplay hooks (exec/replay.hh drives these) ---

    /**
     * Whether replay support is armed: config().replay.enabled and no
     * fault plan active. When armed the executor additionally maintains
     * the per-iteration access-stream hash.
     */
    bool replayArmed() const { return replayArmed_; }

    /**
     * FNV-accumulated hash of the current/last iteration's access stream
     * (tensor, access index, iteration-relative tick, op). Valid only
     * while replayArmed(); part of the iteration digest.
     */
    std::uint64_t iterationAccessHash() const { return iterAccessHash_; }

    /** Blocking-swap fence tick (digest component). */
    Tick computeBarrierTick() const { return computeBarrier_; }

    /**
     * Advance the whole simulated machine by one synthesized iteration:
     * shift clocks, stream horizons and pending deferred frees by
     * `shift.dt`, credit per-stream busy time, and bump the iteration
     * counter. Only meaningful at an iteration boundary.
     */
    void replayApply(const ReplayShift &shift);

    /**
     * Apply `bumps` weight-update version increments to tensor `id` and
     * recompute its fingerprint, exactly as `bumps` executed Update ops
     * would have.
     */
    void replayBumpWeight(TensorId id, int bumps);

  private:
    const Graph &graph_;
    ExecConfig config_;
    MemoryPolicy *policy_;
    CostModel cost_;
    /// Constructed before mem_: its clampHostBytes caps the host pool.
    faults::FaultEngine faults_;
    obs::Obs obs_;
    MemoryManager mem_;
    Stream compute_;
    PcieLink pcie_;

    std::vector<OpId> schedule_;
    /// Per-variant filtered schedules (dynamic graphs only; else empty).
    std::vector<std::vector<OpId>> variantSchedules_;
    std::size_t activeVariant_ = 0;
    std::vector<TensorState> states_;
    std::vector<int> usesPerIteration_; ///< consumer count per tensor
    std::vector<int> lastUsePos_; ///< schedule index of last consumer (-1)
    /**
     * Per tensor, the name part of its fingerprint, hashed once in
     * setup(): hashCombine(hash(producer op name), hash(tensor name)), or
     * hash(tensor name) for a tensor no op produces (weights).
     */
    std::vector<std::uint64_t> nameHash_;

    Tick clock_ = 0;       ///< host-loop master clock
    Tick hostClock_ = 0;   ///< eager-mode interpreter time
    Tick computeBarrier_ = 0; ///< blocking swap-out fence (vDNN coupling)
    int iteration_ = 0;
    bool setupDone_ = false;

    OpId currentOp_ = kInvalidOp;
    Tick currentOpEnd_ = 0;

    IterationStats stats_;

    // --- capureplay state ---
    bool replayArmed_ = false;
    std::uint64_t iterAccessHash_ = 0;

    /**
     * The cumulative allocator and host counters as of the last
     * feedIterationMetrics, which adds their growth since to the
     * registry. Synthesized iterations add their deltas there too, so
     * the registry totals run ahead of the raw counters under replay.
     */
    struct FedCounters
    {
        std::uint64_t bfcSplits = 0;
        std::uint64_t bfcMerges = 0;
        std::uint64_t bfcFailedAllocs = 0;
        std::uint64_t hostFailedAllocs = 0;
    };
    FedCounters fed_;

    /**
     * Hot trace labels as ids in obs_.tracer, interned on first use while
     * tracing (0 = not yet), so the op loop passes an id instead of
     * building a string per event.
     */
    struct TraceLabels
    {
        /// per op: its kernel label, then "recompute:<op>"
        std::vector<std::array<obs::NameId, 2>> op;
        /// per tensor and ObsPhase: "<tensor>:<PHASE>"
        std::vector<std::array<obs::NameId, kObsPhases>> phase;
        obs::NameId read = 0;
        obs::NameId write = 0;
    };
    TraceLabels labels_;

    // --- helpers ---
    /** Op list the current iteration runs (variant slice when dynamic). */
    const std::vector<OpId> &activeSchedule() const;
    TensorState &state(TensorId id);
    const TensorState &state(TensorId id) const;
    std::uint64_t allocBytes(TensorId id) const;
    /** PCIe bytes after swap compression (== bytes when disabled). */
    std::uint64_t wireBytes(std::uint64_t bytes) const;
    TensorStatus effectiveStatus(const TensorState &st, Tick at) const;

    /**
     * The only writers of TensorState::gpuHandle. bindGpu points `id` at
     * chunk `h` and tags the chunk with `id`, panicking if another tensor
     * owns it; unbindGpu clears both and returns the handle. The tags are
     * what victimsForContiguous reads, so they mirror the handles exactly.
     */
    void bindGpu(TensorId id, MemHandle h);
    MemHandle unbindGpu(TensorId id);
    /** Drives bindGpu's sharing panic directly (tests/executor_test.cc). */
    friend struct ExecutorBindAccess;

    /** Allocate under the full OOM protocol; advances `at` on waits. */
    MemHandle allocateOrDie(Tick &at, std::uint64_t bytes,
                            const std::string &what,
                            TensorId tensor = kInvalidTensor);

    /** OOM post-mortem snapshot for the current op / `tensor`. */
    OomContext oomContext(TensorId tensor) const;

    /**
     * Reserve `wire_bytes` of pinned host staging for `id`, consulting the
     * fault engine's transient-failure injection first. Returns the host
     * handle or 0 (exhausted / injected failure), never throws.
     */
    std::uint64_t hostStage(TensorId id, std::uint64_t wire_bytes);

    /**
     * Degradation fallback when a swap-out cannot complete (host staging
     * failed or transfer retries exhausted): drop-for-recompute when that
     * is stably safe, otherwise leave the tensor resident.
     */
    void swapToDropFallback(TensorId id);

    // --- residency transitions (each written once) ---

    /**
     * Move resident `id` to host memory with a D2H copy that starts no
     * earlier than `ready`, traced as `<label><tensor>`; the chunk is freed
     * when the copy completes. A clean victim (its host copy is still
     * current) skips the copy and frees the chunk at max(ready, the
     * filling swap-in's completion). Returns false, leaving `id` resident
     * and without a host copy, when host staging or the transfer fails.
     */
    bool swapOut(TensorId id, Tick ready, std::string_view label);

    /**
     * Copy host-resident `id` into `chunk` with an H2D copy that starts no
     * earlier than `ready`, traced as `<label><tensor>`. Leaves `id`
     * SwappingIn and returns the copy's completion tick.
     */
    Tick swapIn(TensorId id, MemHandle chunk, Tick ready,
                std::string_view label);

    /**
     * Free resident `id`'s chunk at `when`. It comes back by swap-in when
     * a host copy survives, by recomputation otherwise.
     */
    void dropAt(TensorId id, Tick when);

    /**
     * `id` has no uses left: free its chunk once in-flight copies of it
     * are done (callers with other timing free the chunk first), release
     * its host copy, and close its residency phase at `at`.
     */
    void retire(TensorId id, Tick at);

    /** Make `id` resident at time `at`; returns the ready tick. */
    Tick ensureResident(TensorId id, Tick at);

    /** Replay lineage to regenerate `id`; returns completion tick. */
    Tick recomputeTensor(TensorId id, Tick at);

    void runOp(OpId id);
    void recordAccess(TensorId id, Tick when, bool is_output, OpId op);

    // --- observability (pure observers: never touch simulated time) ---
    // Label helpers return 0 unless tracing.
    /** Op `id`'s kernel label, or its lineage-replay label. */
    obs::NameId opLabel(OpId id, bool recompute);
    obs::NameId phaseLabel(TensorId id, ObsPhase phase);
    obs::NameId accessLabel(bool is_output);
    /** `<prefix><tensor name>`, built per call (rare labels only). */
    obs::NameId tensorLabel(std::string_view prefix, TensorId id);
    /** Open residency phase `phase` for `id` at `at` (closes the prior). */
    void notePhase(TensorId id, ObsPhase phase, Tick at);
    void closePhase(TensorId id, Tick at);
    /**
     * Count `id` in tensor.out_bytes until swapIn or retire counts it in
     * tensor.in_bytes or tensor.retired_host_bytes.
     */
    void noteOut(TensorId id);
    void feedIterationMetrics();
    void produceFingerprint(TensorId id, const Operation &op);
    void verifyFingerprint(TensorId id, const Operation &op);
    void setupWeights();
    void beginIterationState();
    void finishIterationState();
};

} // namespace capu

#endif // CAPU_EXEC_EXECUTOR_HH
