#include "obs/obs.hh"

namespace capu::obs
{

const char *
obsLevelName(ObsLevel level)
{
    switch (level) {
      case ObsLevel::Off: return "off";
      case ObsLevel::Metrics: return "metrics";
      case ObsLevel::Full: return "full";
    }
    return "?";
}

void
Obs::configure(ObsLevel level, std::size_t ring_capacity)
{
    level_ = level;
    tracer.setCapacity(ring_capacity);
    tracer.setEnabled(level == ObsLevel::Full);
    metrics.clear();
    metrics.setEnabled(level != ObsLevel::Off);
}

} // namespace capu::obs
