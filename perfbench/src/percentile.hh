/**
 * @file
 * Exact nearest-rank percentiles with an honesty rule.
 *
 * A percentile is the smallest sample that has at least ceil(p/100 * n)
 * samples at or below it, taken over every sample (no buckets, no
 * interpolation). It is *resolved* only when at least `kMinBeyond`
 * samples lie beyond its rank; an unresolved percentile is reported as
 * such and never printed as a number.
 */

#ifndef PERFBENCH_PERCENTILE_HH
#define PERFBENCH_PERCENTILE_HH

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench
{

/** Samples that must lie beyond a percentile's rank to resolve it. */
inline constexpr std::size_t kMinBeyond = 10;

struct Percentile
{
    int pct = 50;
    std::size_t samples = 0;
    /** 1-based rank of the chosen sample (0 when there are no samples). */
    std::size_t rank = 0;
    /** Samples ranked after the chosen one: samples - rank. */
    std::size_t beyond = 0;
    bool resolved = false;
    double value = 0.0;
};

/** Nearest-rank `pct`-th percentile (0 <= pct <= 100) of `samples`. */
Percentile nearestRank(std::vector<double> samples, int pct);

/** Smallest sample count that resolves the `pct`-th percentile. */
std::size_t samplesToResolve(int pct);

/**
 * Median of per-repetition aggregates (mean of the two middle values for
 * an even count; 0 when empty). Used for figures such as set-up time that
 * are repeated a handful of times, not for latency percentiles.
 */
double median(std::vector<double> values);

/** "p90 12.345 ms (n=600, 60 beyond)" or "p99 unresolved (n=40, 0 beyond)". */
std::string describe(const Percentile &p, const std::string &unit);

} // namespace perfbench

#endif // PERFBENCH_PERCENTILE_HH
