/**
 * @file
 * Small helpers shared by the workload implementations.
 */

#ifndef PERFBENCH_BENCH_UTIL_HH
#define PERFBENCH_BENCH_UTIL_HH

#include <cstdarg>
#include <cstdio>
#include <string>

#include "span_trace.hh"
#include "workloads.hh"

namespace perfbench
{

inline double
msSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) / 1e6;
}

/**
 * Run-length control: keep going until `seconds` have passed and the
 * caller's sample counts suffice, but never past the phase cap.
 */
class Budget
{
  public:
    explicit Budget(double seconds) : start_(nowNs()), seconds_(seconds) {}

    double elapsed() const { return msSince(start_) / 1e3; }

    bool
    more(bool enough_samples) const
    {
        double el = elapsed();
        if (el >= kPhaseCapSeconds)
            return false;
        return el < seconds_ || !enough_samples;
    }

  private:
    std::int64_t start_;
    double seconds_;
};

/** Set-up repetitions whose median is a run's setup_s (sweep, serve). */
inline constexpr int kSetupReps = 9;

/** printf-style std::string. */
inline std::string
strf(const char *format, ...)
{
    char buf[512];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof buf, format, args);
    va_end(args);
    return buf;
}

/** a / b, or 0 when b is 0 (ratios are always printed with their base). */
inline double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_UTIL_HH
