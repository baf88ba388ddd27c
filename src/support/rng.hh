/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All stochastic behaviour (measurement jitter injection, randomized
 * property tests) must flow through Rng so a seed reproduces a run exactly.
 * Implementation is SplitMix64 — tiny, fast, and identical on every
 * platform, unlike std::mt19937's distribution implementations.
 */

#ifndef CAPU_SUPPORT_RNG_HH
#define CAPU_SUPPORT_RNG_HH

#include <cstdint>

namespace capu
{

class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed) {}

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [lo, hi] (inclusive); requires lo <= hi. */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniformReal();

    /** Uniform double in [lo, hi). */
    double uniformReal(double lo, double hi);

    /** Bernoulli draw with probability p of true. */
    bool chance(double p);

  private:
    std::uint64_t state_;
};

/**
 * Stable 64-bit mix of two values; used for tensor lineage fingerprints
 * and the profile's per-iteration digests. Inline: the digest walk mixes
 * ten fields of every traced event.
 */
inline std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    // Boost-style combine widened to 64 bit with an extra mix round.
    std::uint64_t h = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 12) + (a >> 4));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h;
}

/** Stable 64-bit hash of a string (FNV-1a). */
std::uint64_t hashString(const char *s);

} // namespace capu

#endif // CAPU_SUPPORT_RNG_HH
