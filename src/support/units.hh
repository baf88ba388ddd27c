/**
 * @file
 * Simulation time (nanosecond ticks) and byte-size helpers.
 *
 * The whole simulator runs on an integer nanosecond clock (`Tick`) for
 * determinism; floating point appears only at the edges (cost model inputs,
 * report rendering).
 */

#ifndef CAPU_SUPPORT_UNITS_HH
#define CAPU_SUPPORT_UNITS_HH

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace capu
{

/** Simulated time in nanoseconds. */
using Tick = std::uint64_t;

constexpr Tick kTickPerUs = 1000;
constexpr Tick kTickPerMs = 1000 * kTickPerUs;
constexpr Tick kTickPerSec = 1000 * kTickPerMs;

constexpr Tick ticksFromUs(double us)
{ return static_cast<Tick>(us * kTickPerUs + 0.5); }
constexpr Tick ticksFromMs(double ms)
{ return static_cast<Tick>(ms * kTickPerMs + 0.5); }
constexpr Tick ticksFromSec(double s)
{ return static_cast<Tick>(s * kTickPerSec + 0.5); }

constexpr double ticksToUs(Tick t) { return static_cast<double>(t) / kTickPerUs; }
constexpr double ticksToMs(Tick t) { return static_cast<double>(t) / kTickPerMs; }
constexpr double ticksToSec(Tick t) { return static_cast<double>(t) / kTickPerSec; }

constexpr std::uint64_t operator""_KiB(unsigned long long v) { return v << 10; }
constexpr std::uint64_t operator""_MiB(unsigned long long v) { return v << 20; }
constexpr std::uint64_t operator""_GiB(unsigned long long v) { return v << 30; }

/** Render a byte count as e.g. "1.50 GiB" / "322.0 MiB" / "17 B". */
std::string formatBytes(std::uint64_t bytes);

/**
 * Parse a byte count such as "4096", "512M", "1.5G" or "8GiB": a
 * non-negative plain decimal number with an optional B, K/KB/KiB,
 * M/MB/MiB, G/GB/GiB or T/TiB (binary) suffix.
 * Throws FatalError on anything else — NaN, infinity, a sign, leading
 * space, hexadecimal, trailing junk, or a value that does not fit 64
 * bits once scaled.
 */
std::uint64_t parseBytes(const std::string &text);

/**
 * Parse a count such as the value of `--iters 12`: decimal digits only
 * (no sign, space, suffix or exponent), at least `lo` and at most `hi`.
 * Throws FatalError naming `what` — the option — on anything else.
 */
std::uint64_t
parseCount(const std::string &text, std::string_view what,
           std::uint64_t lo = 0,
           std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/** Render a tick count as e.g. "1.23 ms" / "417 us" / "2.01 s". */
std::string formatTicks(Tick ticks);

} // namespace capu

#endif // CAPU_SUPPORT_UNITS_HH
