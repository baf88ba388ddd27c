/**
 * @file
 * Benchmark-side span recorder and the conserved per-layer split.
 *
 * Spans are recorded by the benchmark around its calls into each layer's
 * public functions (the library itself is not instrumented). A span has a
 * name, a layer, start and end times on the host steady clock, and the
 * span that caused it. Each thread appends to its own buffer, so
 * recording takes no lock; buffers are read only after every recording
 * thread has been joined.
 *
 * Self time follows capuprof's conservation discipline: the root span's
 * wall is swept instant by instant, and each instant is shared equally
 * among the spans that are active then and have no active child (on any
 * thread). On one thread that is the usual "span minus its children"; in
 * a fan-out it splits wall time across the concurrent workers. Either way
 * the layer self times sum to the root's wall exactly.
 */

#ifndef PERFBENCH_SPAN_TRACE_HH
#define PERFBENCH_SPAN_TRACE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{

/** The library layers the benchmark calls into, plus its own harness. */
enum class Layer : std::uint8_t
{
    Models,
    Exec,
    Core,
    Analysis,
    Prof,
    Obs,
    Serve,
    Support,
    Other,
};

inline constexpr std::size_t kLayerCount = 9;

const char *layerName(Layer layer);

struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = no parent
    Layer layer = Layer::Other;
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Monotonic host time in nanoseconds. */
std::int64_t nowNs();

/** Process-wide switch; spans opened while it is off record nothing. */
void setTracing(bool on);
bool tracing();

/** Drop every recorded span (call with no recording thread running). */
void clearSpans();

/** All recorded spans (call after every recording thread was joined). */
std::vector<SpanRecord> collectSpans();

/**
 * RAII span. The parent is the innermost open span on this thread, or
 * `fallback_parent` when none is open (a worker thread picking up a task
 * passes the submitting span's id).
 */
class Span
{
  public:
    Span(Layer layer, const char *name, std::uint64_t fallback_parent = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (0 while tracing is off). */
    std::uint64_t id() const { return rec_.id; }

  private:
    SpanRecord rec_;
};

/** Id of the innermost open span on this thread (0 = none). */
std::uint64_t currentSpan();

struct LayerSplit
{
    std::array<double, kLayerCount> selfMs{};
    double wallMs = 0.0;
    std::size_t spans = 0;

    double sumMs() const;
    /** |sum of self times - wall|; zero up to floating-point rounding. */
    double conservationErrorMs() const;
};

/**
 * Self time per layer inside the span `root` (which must be in `spans`),
 * counting only `root` and its descendants.
 */
LayerSplit splitSelfTime(const std::vector<SpanRecord> &spans,
                         std::uint64_t root);

} // namespace perfbench

#endif // PERFBENCH_SPAN_TRACE_HH
