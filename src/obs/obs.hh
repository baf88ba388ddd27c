/**
 * @file
 * capuscope — the observability facade.
 *
 * One Obs object bundles the event tracer and the metrics registry behind a
 * single level switch:
 *
 *   off     — everything disabled; instrumentation points cost one branch.
 *   metrics — registry on (counters/gauges/histograms, per-iteration
 *             snapshots); tracer off.
 *   full    — registry + ring-buffered event tracing (Chrome-trace export).
 *
 * The executor owns an Obs configured from ExecConfig::obsLevel and exposes
 * it through ExecContext, so policies instrument their decisions without
 * new plumbing.
 *
 * Invariant (tested): no instrumentation point may read or advance
 * simulated time — observability must never change a simulated timestamp.
 */

#ifndef CAPU_OBS_OBS_HH
#define CAPU_OBS_OBS_HH

#include "obs/metrics.hh"
#include "obs/tracer.hh"

namespace capu::obs
{

enum class ObsLevel
{
    Off,
    Metrics,
    Full,
};

const char *obsLevelName(ObsLevel level);

class Obs
{
  public:
    Obs() = default;

    /** Set the level; reconfigures tracer/registry enablement. */
    void configure(ObsLevel level,
                   std::size_t ring_capacity = Tracer::kDefaultCapacity);

    ObsLevel level() const { return level_; }
    bool tracing() const { return level_ == ObsLevel::Full; }
    bool metricsOn() const { return level_ != ObsLevel::Off; }

    Tracer tracer;
    MetricsRegistry metrics;

  private:
    ObsLevel level_ = ObsLevel::Off;
};

} // namespace capu::obs

#endif // CAPU_OBS_OBS_HH
