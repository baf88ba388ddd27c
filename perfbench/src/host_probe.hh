/**
 * @file
 * Host-speed probe: a fixed, benchmark-owned piece of work whose time
 * tracks how fast this host runs the simulator right now.
 *
 * The shared hosts this benchmark runs on change speed by 20-40% over
 * tens of seconds as neighbours come and go, and the simulator (node-
 * based maps and sets, hash lookups, small allocations) slows down more
 * than arithmetic does. The probe does that kind of work: best-fit
 * allocation churn over an ordered chunk map, hash-map lookups and a sort
 * of small strings. Workloads run it right after their units of work and
 * scale those units' times by kReferenceMs / (probe time), i.e. report
 * them as if the host ran the probe in kReferenceMs. The probe belongs to
 * the benchmark, so no change to the library can move it.
 */

#ifndef PERFBENCH_HOST_PROBE_HH
#define PERFBENCH_HOST_PROBE_HH

#include <vector>

namespace perfbench
{

/** Probe time on a quiet reference host (4-vCPU Xeon, GCC 12, Release). */
inline constexpr double kReferenceMs = 7.0;

/** Run the probe once; returns its wall time in milliseconds. */
double runHostProbe();

/** Append `n` probe times to `out`. */
void sampleHostProbe(std::vector<double> &out, int n = 3);

/**
 * Scale `raw_ms` of work just done on this thread by a probe run right
 * after it (the probe time is appended to `probe_ms`). Used for short
 * one-off timings, where the thread's own CPU at that moment matters more
 * than the run's median host speed.
 */
double scaleByProbe(double raw_ms, std::vector<double> &probe_ms);

/** kReferenceMs / median of `probe_ms` (1 when there are no samples). */
double hostSpeedFactor(const std::vector<double> &probe_ms);

} // namespace perfbench

#endif // PERFBENCH_HOST_PROBE_HH
