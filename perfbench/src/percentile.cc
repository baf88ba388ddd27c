#include "percentile.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench
{

Percentile
nearestRank(std::vector<double> samples, int pct)
{
    if (pct < 0 || pct > 100)
        throw std::invalid_argument("percentile outside [0, 100]");
    Percentile p;
    p.pct = pct;
    p.samples = samples.size();
    if (samples.empty())
        return p;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    // ceil(pct * n / 100) in integers, clamped to rank 1 for pct == 0.
    std::size_t rank = (static_cast<std::size_t>(pct) * n + 99) / 100;
    rank = std::clamp<std::size_t>(rank, 1, n);
    p.rank = rank;
    p.beyond = n - rank;
    p.value = samples[rank - 1];
    p.resolved = p.beyond >= kMinBeyond;
    return p;
}

std::size_t
samplesToResolve(int pct)
{
    if (pct < 0 || pct >= 100)
        throw std::invalid_argument("only percentiles in [0, 100) resolve");
    for (std::size_t n = 1;; ++n) {
        std::size_t rank = std::max<std::size_t>(
            1, (static_cast<std::size_t>(pct) * n + 99) / 100);
        if (rank <= n && n - rank >= kMinBeyond)
            return n;
    }
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return 0.5 * (values[mid - 1] + values[mid]);
}

std::string
describe(const Percentile &p, const std::string &unit)
{
    char buf[160];
    if (p.resolved)
        std::snprintf(buf, sizeof buf, "p%d %.6g %s (n=%zu, %zu beyond)",
                      p.pct, p.value, unit.c_str(), p.samples, p.beyond);
    else
        std::snprintf(buf, sizeof buf, "p%d unresolved (n=%zu, %zu beyond)",
                      p.pct, p.samples, p.beyond);
    return buf;
}

} // namespace perfbench
