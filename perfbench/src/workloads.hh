/**
 * @file
 * The four benchmark workloads and the outcome each one reports.
 *
 * Every workload runs for at least `seconds` of host time (longer only
 * until its percentiles are resolved), checks each operation's simulated
 * output against the committed fingerprints, and fills an Outcome with
 * its end-to-end metrics, its per-layer metrics, and human-readable
 * report lines. The metric names and units are declared once, here; the
 * BENCHMARK.json at the repository root lists the same names.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fingerprints.hh"

namespace perfbench
{

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Reported on every workload by untraced runs. */
const std::vector<MetricSpec> &endToEndMetrics();

/** Reported on every workload by traced runs (0 where a layer idles). */
const std::vector<MetricSpec> &perLayerMetrics();

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

struct Context
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Worker threads (sweep) and client threads (serve): nproc. */
    unsigned workers = 1;
    Fingerprints *expected = nullptr;
};

struct Outcome
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures; ///< the first few, for the report

    /** name -> value; units come from the MetricSpec tables. */
    std::map<std::string, double> metrics;
    std::vector<std::string> report;

    /** Median wall of one unit of work (the trace-overhead yardstick). */
    double unitMedianMs = 0.0;

    /** Host-probe times taken between units of work (host_probe.hh). */
    std::vector<double> probeMs;

    /** Count one checked operation; `why` describes a failure. */
    void operation(bool ok, const std::string &why = "");
    void line(const std::string &text) { report.push_back(text); }
};

/** Run workload `name`; throws std::invalid_argument for unknown names. */
Outcome runWorkload(const std::string &name, const Context &ctx);

Outcome runTrainLong(const Context &ctx);
Outcome runTrainObserved(const Context &ctx);
Outcome runMaxBatchSweep(const Context &ctx);
Outcome runServeMix(const Context &ctx);

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** Hard cap on one workload phase, so a run always ends in time. */
inline constexpr double kPhaseCapSeconds = 70.0;

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
