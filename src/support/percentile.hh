/**
 * @file
 * Percentiles of host-time samples (request latencies, wall-clock
 * repeats) for the tools' and benches' summary lines.
 */

#ifndef CAPU_SUPPORT_PERCENTILE_HH
#define CAPU_SUPPORT_PERCENTILE_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace capu
{

/**
 * The sample at 0-based rank round(p * (n - 1)) of the sorted `samples`,
 * p in [0, 1]: 0 is the minimum, 1 the maximum, and 0.5 the middle
 * sample, or the upper of the two middle samples for an even count.
 * Returns 0 for no samples.
 */
inline double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    auto idx = static_cast<std::size_t>(
        p * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(idx, samples.size() - 1)];
}

} // namespace capu

#endif // CAPU_SUPPORT_PERCENTILE_HH
