/**
 * @file
 * capuchaos fault engine: the runtime half of a FaultSpec.
 *
 * One engine instance is owned by the executor and consulted by the sim
 * layer (PcieLink) and the executor's swap/recompute paths. All stochastic
 * draws flow through one seeded support/rng stream, so a (spec, seed) pair
 * replays the exact same fault timeline; with a disabled spec every hook
 * is a strict no-op (no RNG draws, no arithmetic on simulated durations),
 * which is what keeps the faults-off path bit-identical.
 *
 * The engine also owns the chaos vocabulary of capuscope: injected
 * episodes land on the `faults` track, the pipeline's reactions (retries,
 * drop-fallbacks, forced transfers, re-measurements) on the `recovery`
 * track, so a Chrome trace shows cause and reaction side by side.
 */

#ifndef CAPU_FAULTS_FAULT_ENGINE_HH
#define CAPU_FAULTS_FAULT_ENGINE_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "faults/fault_spec.hh"
#include "obs/tracer.hh"
#include "support/rng.hh"
#include "support/units.hh"

namespace capu::faults
{

/** Per-run fault and recovery counters (the chaos sweep's report). */
struct FaultStats
{
    /** Transfers that ran under a degraded PCIe window. */
    std::uint64_t degradedTransfers = 0;
    /** Kernels whose duration was jittered. */
    std::uint64_t jitteredKernels = 0;
    /** Host-pool allocations rejected (transient fault or exhaustion). */
    std::uint64_t hostRejects = 0;
    /** Swap-transfer attempts that failed mid-flight. */
    std::uint64_t swapAttemptFailures = 0;
    /** Retries issued after failed transfer attempts. */
    std::uint64_t swapRetries = 0;
    /** Must-succeed transfers forced through after the retry budget. */
    std::uint64_t swapForced = 0;
    /** Swap-outs degraded to recompute-eviction (drop). */
    std::uint64_t dropFallbacks = 0;
    /** Swap-outs refused safely (tensor kept resident; no safe drop). */
    std::uint64_t swapSkips = 0;
    /** Prefetches that found no GPU memory (served on demand later). */
    std::uint64_t prefetchMisses = 0;
    /** Plan-drift re-entries into measured execution. */
    std::uint64_t remeasures = 0;
    /** Feedback-driven in-trigger shifts. */
    std::uint64_t feedbackShifts = 0;
};

class FaultEngine
{
  public:
    FaultEngine() = default;
    FaultEngine(FaultSpec spec, std::uint64_t seed);

    bool enabled() const { return enabled_; }
    const FaultSpec &spec() const { return spec_; }
    std::uint64_t seed() const { return seed_; }

    FaultStats &stats() { return stats_; }
    const FaultStats &stats() const { return stats_; }

    /** Bandwidth multiplier in effect at `at` (min over open episodes). */
    double pcieFactor(Tick at) const;

    /**
     * Apply kernel-duration jitter: uniform draw in
     * [1-jitter, 1+jitter] x nominal. Identity (and draw-free) when the
     * jitter clause is absent.
     */
    Tick jitterKernel(Tick nominal);

    /** Bernoulli draw: this host-pool allocation transiently fails. */
    bool hostTransientFail();

    /** Bernoulli draw: this swap-transfer attempt fails mid-flight. */
    bool swapAttemptFails();

    /** Backoff before retry number `attempt` (0-based, doubles each). */
    Tick retryBackoff(int attempt) const;

    /** Host-pool capacity after the hostcap clause. */
    std::uint64_t
    clampHostBytes(std::uint64_t configured) const
    {
        return spec_.clampHostBytes(configured);
    }

    /**
     * Route fault/recovery instants into `tracer` and name the chaos
     * tracks; nullptr detaches.
     */
    void attachTracer(obs::Tracer *tracer);

    /** Injected-episode instant on the `faults` track. */
    void noteFault(Tick ts, std::string_view name, std::int64_t tensor = -1,
                   std::uint64_t bytes = 0);

    /** Reaction instant on the `recovery` track. */
    void noteRecovery(Tick ts, std::string_view name,
                      std::int64_t tensor = -1, std::uint64_t bytes = 0);

  private:
    FaultSpec spec_;
    std::uint64_t seed_ = 0;
    bool enabled_ = false;
    Rng rng_{0};
    FaultStats stats_;
    obs::Tracer *tracer_ = nullptr;
};

} // namespace capu::faults

#endif // CAPU_FAULTS_FAULT_ENGINE_HH
