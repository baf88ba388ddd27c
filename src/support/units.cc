#include "support/units.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "support/logging.hh"

namespace capu
{

std::string
formatBytes(std::uint64_t bytes)
{
    char buf[64];
    if (bytes >= 1_GiB) {
        std::snprintf(buf, sizeof(buf), "%.2f GiB",
                      static_cast<double>(bytes) / (1ull << 30));
    } else if (bytes >= 1_MiB) {
        std::snprintf(buf, sizeof(buf), "%.1f MiB",
                      static_cast<double>(bytes) / (1ull << 20));
    } else if (bytes >= 1_KiB) {
        std::snprintf(buf, sizeof(buf), "%.1f KiB",
                      static_cast<double>(bytes) / (1ull << 10));
    } else {
        std::snprintf(buf, sizeof(buf), "%llu B",
                      static_cast<unsigned long long>(bytes));
    }
    return buf;
}

std::uint64_t
parseBytes(const std::string &text)
{
    const char *begin = text.c_str();
    char *end = nullptr;
    double value = std::strtod(begin, &end);
    if (end == begin || !std::isfinite(value) || std::signbit(value))
        fatal("bad byte count '{}'", text);
    std::string suffix = end;
    double scale = 0;
    if (suffix.empty() || suffix == "B")
        scale = 1;
    else if (suffix == "K" || suffix == "KB")
        scale = 1_KiB;
    else if (suffix == "M" || suffix == "MB")
        scale = 1_MiB;
    else if (suffix == "G" || suffix == "GB")
        scale = 1_GiB;
    else
        fatal("bad byte suffix '{}' in '{}' (use K/M/G)", suffix, text);
    double bytes = value * scale;
    // uint64 max rounds up to 2^64 as a double: the first value that
    // does not fit.
    constexpr double kTooBig =
        static_cast<double>(std::numeric_limits<std::uint64_t>::max());
    if (bytes >= kTooBig)
        fatal("byte count '{}' does not fit 64 bits", text);
    return static_cast<std::uint64_t>(bytes);
}

std::uint64_t
parseCount(const std::string &text, std::string_view what, std::uint64_t lo,
           std::uint64_t hi)
{
    const char *end = text.data() + text.size();
    std::uint64_t value = 0;
    // from_chars takes no sign, space or prefix for an unsigned target;
    // a leading '+' or '-' simply matches no digits.
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range)
        fatal("{} {} does not fit 64 bits", what, text);
    if (ec != std::errc() || ptr != end)
        fatal("{} needs a whole number, got '{}'", what, text);
    if (value < lo || value > hi)
        fatal("{} must be in [{}, {}], got {}", what, lo, hi, value);
    return value;
}

std::string
formatTicks(Tick ticks)
{
    char buf[64];
    if (ticks >= kTickPerSec) {
        std::snprintf(buf, sizeof(buf), "%.2f s", ticksToSec(ticks));
    } else if (ticks >= kTickPerMs) {
        std::snprintf(buf, sizeof(buf), "%.2f ms", ticksToMs(ticks));
    } else if (ticks >= kTickPerUs) {
        std::snprintf(buf, sizeof(buf), "%.1f us", ticksToUs(ticks));
    } else {
        std::snprintf(buf, sizeof(buf), "%llu ns",
                      static_cast<unsigned long long>(ticks));
    }
    return buf;
}

} // namespace capu
