/**
 * @file
 * perfbench — run one benchmark workload and print its result.
 *
 *   perfbench --workload train-long --seed 1 --seconds 25 --trace 0 \
 *             --expected perfbench/expected.txt
 *
 * Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
 * (--trace 1) spend the first half of the time untraced and the second
 * half with spans on, and report the per-layer metrics of the traced half:
 * the layer self times (which sum to the traced wall), the counts read
 * from the library, and the tracing overhead as the difference between
 * the two halves' median unit times.
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics. Anything else goes before it.
 * With --record PATH the fingerprints seen are written to PATH (no
 * entry of --expected may disagree with them).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench_util.hh"
#include "fingerprints.hh"
#include "host_probe.hh"
#include "percentile.hh"
#include "span_trace.hh"
#include "support/logging.hh"
#include "workloads.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string expected;
    std::string record;
    std::string rev = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --expected FILE [--record FILE] "
                 "[--rev REV]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (flag == "--expected")
                a.expected = v;
            else if (flag == "--record")
                a.record = v;
            else if (flag == "--rev")
                a.rev = v;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.expected.empty())
        usage("--expected is required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    return strf("%.17g", v);
}

void
printMetrics(const Outcome &o, const std::vector<MetricSpec> &specs,
             bool correct)
{
    std::string json = strf("{\"correct\": %s, \"attempted\": %zu, "
                            "\"failed\": %zu, \"metrics\": {",
                            correct ? "true" : "false", o.attempted,
                            o.failed);
    bool first = true;
    for (const MetricSpec &spec : specs) {
        auto it = o.metrics.find(spec.name);
        double value = it == o.metrics.end() ? 0.0 : it->second;
        json += strf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                     first ? "" : ", ", spec.name,
                     jsonNumber(value).c_str(), spec.unit);
        first = false;
    }
    json += "}}";
    std::cout << json << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    capu::setLogEnabled(false);

    Fingerprints expected;
    std::string error;
    if (!expected.load(args.expected, error)) {
        std::cerr << "perfbench: " << error << "\n";
        return 2;
    }
    expected.setRecording(!args.record.empty());

    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    Context ctx;
    ctx.seed = args.seed;
    ctx.seconds = args.seconds;
    ctx.workers = nproc;
    ctx.expected = &expected;

    std::cout << strf("# host: nproc=%u compiler=\"%s\" build_type=%s "
                      "rev=%s workers=%u clients=%u\n",
                      nproc, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                      args.rev.c_str(), ctx.workers, ctx.workers);
    std::cout << strf("# run: workload=%s seed=%llu seconds=%g trace=%d\n",
                      args.workload.c_str(),
                      static_cast<unsigned long long>(args.seed),
                      args.seconds, args.trace ? 1 : 0);

    Outcome result;
    try {
        if (!args.trace) {
            result = runWorkload(args.workload, ctx);
            result.line(strf("host probe: median %.4f ms over %zu samples "
                             "(reference %.1f ms); JSON host times are "
                             "probe-scaled, report lines above are raw",
                             median(result.probeMs), result.probeMs.size(),
                             kReferenceMs));
        } else {
            Context half = ctx;
            half.seconds = ctx.seconds / 2;
            Outcome untraced = runWorkload(args.workload, half);

            clearSpans();
            setTracing(true);
            std::uint64_t root = 0;
            {
                Span span(Layer::Other, "workload");
                root = span.id();
                result = runWorkload(args.workload, half);
            }
            setTracing(false);
            LayerSplit split = splitSelfTime(collectSpans(), root);

            result.attempted += untraced.attempted;
            result.failed += untraced.failed;
            for (const std::string &f : untraced.failures)
                result.failures.push_back(f);
            for (std::size_t l = 0; l < kLayerCount; ++l) {
                result.metrics[strf("self.%s_ms",
                                    layerName(static_cast<Layer>(l)))] =
                    split.selfMs[l];
            }
            double overhead = result.unitMedianMs - untraced.unitMedianMs;
            result.metrics["host.probe_ms"] = median(result.probeMs);
            result.metrics["trace.wall_ms"] = split.wallMs;
            result.metrics["trace.conservation_err_ms"] =
                split.conservationErrorMs();
            result.metrics["trace.overhead_ms"] = overhead;
            result.metrics["trace.overhead_frac"] =
                ratio(overhead, untraced.unitMedianMs);
            // Conservation holds by construction; allow float rounding.
            result.operation(split.conservationErrorMs() <=
                                 1e-9 * split.wallMs + 1e-6,
                             "layer self times do not sum to the wall");

            result.line(strf("trace: %zu spans over %.3f ms; self time "
                             "(ms):",
                             split.spans, split.wallMs));
            std::string row = " ";
            for (std::size_t l = 0; l < kLayerCount; ++l) {
                row += strf(" %s=%.3f", layerName(static_cast<Layer>(l)),
                            split.selfMs[l]);
            }
            result.line(row);
            result.line(strf("  sum %.6f ms vs wall %.6f ms; tracing "
                             "overhead %.4f ms per unit (%.4f of %.4f ms)",
                             split.sumMs(), split.wallMs, overhead,
                             ratio(overhead, untraced.unitMedianMs),
                             untraced.unitMedianMs));
        }
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }

    for (const std::string &line : result.report)
        std::cout << line << "\n";
    for (const std::string &f : result.failures)
        std::cout << "FAILED: " << f << "\n";
    for (const std::string &n : expected.notes())
        std::cout << "MISMATCH: " << n << "\n";
    std::cout << strf("fail_frac %.6f = %zu failed / %zu attempted\n",
                      ratio(static_cast<double>(result.failed),
                            static_cast<double>(result.attempted)),
                      result.failed, result.attempted);

    if (!args.record.empty()) {
        std::ofstream f(args.record);
        f << expected.serialize();
        if (!f) {
            std::cerr << "perfbench: cannot write " << args.record << "\n";
            return 1;
        }
    }

    const bool correct = result.failed == 0 && result.attempted > 0;
    printMetrics(result, args.trace ? perLayerMetrics() : endToEndMetrics(),
                 correct);
    return 0;
}
