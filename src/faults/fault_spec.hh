/**
 * @file
 * capuchaos fault-plan specification (the `--faults` grammar).
 *
 * A FaultSpec is a declarative perturbation plan for one run: PCIe
 * bandwidth-degradation episodes, kernel-duration jitter, a pinned
 * host-pool capacity cap, transient host-allocation failures, and
 * transient swap-transfer failures with bounded retry/backoff. The spec
 * is pure data — all randomness lives in FaultEngine, seeded explicitly,
 * so a (spec, seed) pair reproduces a chaos run exactly.
 *
 * Grammar (clauses separated by `;`, whitespace ignored):
 *
 *   pcie:<factor>[@<begin>-<end>]   bandwidth multiplier in (0,1]; the
 *                                   optional window is in milliseconds of
 *                                   simulated time, or in the suffix a
 *                                   bound carries (ns|us|ms|s) (default:
 *                                   whole run);
 *                                   repeatable, overlapping windows take
 *                                   the minimum factor
 *   jitter:<frac>                   kernel durations drawn uniformly from
 *                                   [1-frac, 1+frac] x nominal
 *   hostcap:<size>                  pinned host pool capped at <size>
 *                                   (a parseBytes size: suffixes
 *                                   KiB/MiB/GiB/TiB, also K/M/G/T)
 *   hostfail:p=<prob>               each host-pool allocation fails with
 *                                   probability <prob>
 *   swapfail:p=<prob>[,retries=<n>][,backoff=<ticks><ns|us|ms|s>]
 *                                   each swap-transfer attempt fails with
 *                                   probability <prob>; retried up to <n>
 *                                   times with exponential backoff
 *
 * Example: "pcie:0.5@2000-4000;jitter:0.1;hostcap:8GiB;swapfail:p=0.01,retries=3"
 */

#ifndef CAPU_FAULTS_FAULT_SPEC_HH
#define CAPU_FAULTS_FAULT_SPEC_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/units.hh"

namespace capu::faults
{

/** One PCIe bandwidth-degradation window. */
struct PcieEpisode
{
    /** Bandwidth multiplier in (0, 1]; 0.5 halves the link. */
    double factor = 1.0;
    /** Window of simulated time; the default covers the whole run. */
    Tick begin = 0;
    Tick end = ~0ull;
};

struct FaultSpec
{
    std::vector<PcieEpisode> pcie;

    /** Kernel-duration jitter fraction (0 = deterministic durations). */
    double kernelJitter = 0.0;

    /** Pinned host pool capacity cap in bytes (0 = uncapped). */
    std::uint64_t hostCapBytes = 0;

    /** Probability any host-pool allocation transiently fails. */
    double hostFailProb = 0.0;

    /** Probability any swap-transfer attempt fails mid-flight. */
    double swapFailProb = 0.0;
    /** Failed-transfer retry budget before the caller must degrade. */
    int swapRetries = 3;
    /** Base backoff before the first retry; doubles per attempt. */
    Tick swapBackoffBase = ticksFromUs(50);

    /** Whether any clause perturbs the simulation at all. */
    bool enabled() const;

    /**
     * Canonical one-line rendering ("none" when empty); parses back to
     * the same spec. A window bound prints in bare milliseconds when
     * whole, else with a `us` or `ns` suffix.
     */
    std::string summary() const;

    /** Host-pool capacity after applying the cap clause. */
    std::uint64_t clampHostBytes(std::uint64_t configured) const;
};

/**
 * Parse the fault grammar; throws FatalError on malformed input.
 * The empty string parses to a disabled spec.
 */
FaultSpec parseFaultSpec(std::string_view text);

/**
 * Parse a duration with optional ns/us/ms/s suffix into ticks;
 * bare numbers are interpreted in `bare_unit` ticks (default: ns).
 * Throws FatalError unless the duration is finite, non-negative and fits
 * a Tick.
 */
Tick parseTickSpan(std::string_view text, Tick bare_unit = 1);

} // namespace capu::faults

#endif // CAPU_FAULTS_FAULT_SPEC_HH
