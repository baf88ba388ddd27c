#include "serve_keys.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

std::string
ServeKeySpec::tag() const
{
    return std::string(model) + "@" + std::to_string(batch) + "/" + policy;
}

const std::vector<ServeKeySpec> &
serveKeySpace()
{
    // Every batch oversubscribes the 16 GB device, so each key plans a
    // non-empty plan. Cold sessions cost 7-60 ms and warm forks 1-5 ms;
    // keys an order of magnitude dearer (ResNet-152 and InceptionV4 under
    // full Capuchin, DenseNet swap-only, ...) and Vgg16's sub-millisecond
    // ones are left out, so no percentile sits in a gap between a few
    // outlier keys. Models alternate down the popularity order.
    static const std::vector<ServeKeySpec> keys = {
        {"resnet50", 240, "capuchin"},
        {"inceptionv3", 210, "capuchin"},
        {"bert", 110, "capuchin"},
        {"resnet152", 110, "capuchin-recompute"},
        {"resnet50", 320, "capuchin"},
        {"densenet", 200, "capuchin-recompute"},
        {"inceptionv3", 280, "capuchin"},
        {"bert", 150, "capuchin"},
        {"inceptionv4", 120, "capuchin-recompute"},
        {"resnet50", 280, "capuchin"},
        {"bert", 130, "capuchin"},
        {"inceptionv3", 210, "capuchin-swap"},
        {"resnet50", 240, "capuchin-swap"},
        {"resnet152", 160, "capuchin-recompute"},
        {"densenet", 260, "capuchin-recompute"},
        {"bert", 110, "capuchin-swap"},
        {"inceptionv3", 280, "capuchin-recompute"},
        {"resnet50", 320, "capuchin-recompute"},
        {"inceptionv4", 160, "capuchin-recompute"},
        {"bert", 150, "capuchin-swap"},
        {"resnet50", 280, "capuchin-recompute"},
        {"inceptionv3", 210, "capuchin-recompute"},
        {"bert", 130, "capuchin-swap"},
        {"resnet50", 240, "capuchin-recompute"},
        {"bert", 110, "capuchin-recompute"},
        {"resnet50", 280, "capuchin-swap"},
        {"bert", 150, "capuchin-recompute"},
        {"bert", 130, "capuchin-recompute"},
    };
    return keys;
}

namespace
{

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

ServeKeyStream::ServeKeyStream(std::uint64_t seed, unsigned client)
    : state_(seed * 0x100000001b3ull + client + 1)
{
    const std::size_t n = serveKeySpace().size();
    cdf_.reserve(n);
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
        cdf_.push_back(total);
    }
    for (double &c : cdf_)
        c /= total;
}

std::size_t
ServeKeyStream::next()
{
    // 53 random bits -> uniform double in [0, 1).
    double u = static_cast<double>(splitmix64(state_) >> 11) * 0x1.0p-53;
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
}

} // namespace perfbench
