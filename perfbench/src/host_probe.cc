#include "host_probe.hh"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "percentile.hh"
#include "span_trace.hh"

namespace perfbench
{

namespace
{

std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

volatile std::uint64_t probeSink;

} // namespace

double
runHostProbe()
{
    std::int64_t t0 = nowNs();
    std::uint64_t rng = 0x5eed;
    std::uint64_t acc = 0;

    // Best-fit allocation churn: chunks by offset, free chunks by size.
    std::map<std::uint64_t, std::uint64_t> chunks; // offset -> size
    std::set<std::pair<std::uint64_t, std::uint64_t>> free_by_size;
    std::uint64_t offset = 0;
    for (int i = 0; i < 4000; ++i) {
        std::uint64_t size = 256 * (1 + splitmix(rng) % 4096);
        chunks.emplace(offset, size);
        if (i % 2 == 0)
            free_by_size.emplace(size, offset);
        offset += size;
    }
    for (int i = 0; i < 12000; ++i) {
        std::uint64_t want = 256 * (1 + splitmix(rng) % 4096);
        auto it = free_by_size.lower_bound({want, 0});
        if (it != free_by_size.end()) {
            auto c = chunks.find(it->second);
            acc += c->second;
            free_by_size.erase(it);
        } else {
            auto victim = chunks.lower_bound(splitmix(rng) % offset);
            if (victim == chunks.end())
                victim = chunks.begin();
            free_by_size.emplace(victim->second, victim->first);
        }
    }

    // Per-tensor state lookups.
    std::unordered_map<std::uint64_t, std::uint64_t> state;
    for (int i = 0; i < 20000; ++i)
        state[splitmix(rng) % 50000] = static_cast<std::uint64_t>(i);
    for (int i = 0; i < 60000; ++i) {
        auto it = state.find(splitmix(rng) % 50000);
        if (it != state.end())
            acc += it->second;
    }

    // Event names, sorted.
    std::vector<std::string> names;
    names.reserve(8000);
    for (int i = 0; i < 8000; ++i)
        names.push_back("event." + std::to_string(splitmix(rng) % 100000));
    std::sort(names.begin(), names.end());
    acc += names[names.size() / 2].size();

    probeSink = acc;
    return static_cast<double>(nowNs() - t0) / 1e6;
}

void
sampleHostProbe(std::vector<double> &out, int n)
{
    for (int i = 0; i < n; ++i)
        out.push_back(runHostProbe());
}

double
scaleByProbe(double raw_ms, std::vector<double> &probe_ms)
{
    double p = runHostProbe();
    probe_ms.push_back(p);
    return raw_ms * kReferenceMs / p;
}

double
hostSpeedFactor(const std::vector<double> &probe_ms)
{
    double m = median(probe_ms);
    return m > 0 ? kReferenceMs / m : 1.0;
}

} // namespace perfbench
