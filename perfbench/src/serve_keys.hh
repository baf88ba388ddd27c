/**
 * @file
 * The serve-mix key space and its seeded, skewed request stream.
 *
 * Keys are (model, batch, policy) planning problems, ranked by a fixed
 * popularity order; request i of client c draws rank r with probability
 * proportional to 1 / (r + 1)^kZipfExponent from a SplitMix64 stream
 * seeded by (seed, c). The popularity order is fixed so that every seed
 * sees the same mix of cheap and expensive keys; only the draw sequence
 * depends on the seed. The batches oversubscribe the simulated 16 GB GPU,
 * so every key plans a non-empty Capuchin plan.
 */

#ifndef PERFBENCH_SERVE_KEYS_HH
#define PERFBENCH_SERVE_KEYS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct ServeKeySpec
{
    const char *model;
    std::int64_t batch;
    const char *policy;

    /** "model@batch/policy", the fingerprint name of the key. */
    std::string tag() const;
};

/** Every key, most popular first. */
const std::vector<ServeKeySpec> &serveKeySpace();

inline constexpr double kZipfExponent = 1.0;

/** Deterministic per-client key stream (indices into serveKeySpace()). */
class ServeKeyStream
{
  public:
    ServeKeyStream(std::uint64_t seed, unsigned client);

    /** Index of the next key to request. */
    std::size_t next();

  private:
    std::uint64_t state_;
    std::vector<double> cdf_;
};

} // namespace perfbench

#endif // PERFBENCH_SERVE_KEYS_HH
