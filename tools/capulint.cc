/**
 * @file
 * capulint — offline plan verifier for capuchin access traces.
 *
 * Loads a trace written by `capusim --dump-trace`, rebuilds the skeletal
 * graph and tracker, runs the PolicyMaker exactly as guided execution
 * would, and lints the resulting plan with PlanChecker::check — every
 * static rule, ending with the happens-before scan
 * (src/analysis/plan_checker.hh). Lets planner changes be validated
 * against a corpus of saved traces without re-simulating training.
 *
 *   capusim --model resnet50 --batch 400 --dump-trace r50.csv
 *   capulint --trace r50.csv
 *   capulint --trace r50.csv --device v100 --saving 6G --no-recompute
 *
 * Exit status: 0 clean (warnings allowed), 1 usage/trace error, 4 the
 * plan has error-level findings.
 */

#include <iostream>
#include <string>

#include "analysis/plan_checker.hh"
#include "core/policy_maker.hh"
#include "core/trace_io.hh"
#include "sim/gpu_device.hh"
#include "sim/pcie_link.hh"
#include "support/logging.hh"
#include "support/units.hh"

using namespace capu;

namespace
{

struct Options
{
    std::string trace;
    std::string device = "p100";
    std::uint64_t capacity = 0;     ///< 0 = device default
    std::uint64_t hostCapacity = 256ull << 30;
    std::uint64_t savingBytes = 0;  ///< 0 = derive from peak vs capacity
    bool noSwap = false;
    bool noRecompute = false;
    bool csv = false;
    bool verbose = false;
};

void
usage()
{
    std::cout <<
        "capulint — static verifier for Capuchin memory plans\n"
        "\n"
        "  --trace <file>       access trace from capusim --dump-trace\n"
        "  --device <name>      p100 (default) | v100\n"
        "  --capacity <bytes>   GPU pool capacity (default: device size;\n"
        "                       accepts K/M/G suffixes)\n"
        "  --host-capacity <b>  host staging capacity (default 256G)\n"
        "  --saving <bytes>     memory-saving target for the PolicyMaker\n"
        "                       (default: hypothetical peak minus capacity)\n"
        "  --no-swap            recompute-only plan\n"
        "  --no-recompute       swap-only plan\n"
        "  --csv                machine-readable findings\n"
        "  --quiet              suppress informational log output\n"
        "  --verbose            print the plan summary too\n"
        "\n"
        "exit status:\n"
        "  0  plan is clean (warning-level findings allowed)\n"
        "  1  usage error or the trace failed to load/parse\n"
        "  4  the plan has error-level findings\n";
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value after {}", a);
            return argv[++i];
        };
        if (a == "--trace")
            opt.trace = next();
        else if (a == "--device")
            opt.device = next();
        else if (a == "--capacity")
            opt.capacity = parseBytes(next());
        else if (a == "--host-capacity")
            opt.hostCapacity = parseBytes(next());
        else if (a == "--saving")
            opt.savingBytes = parseBytes(next());
        else if (a == "--no-swap")
            opt.noSwap = true;
        else if (a == "--no-recompute")
            opt.noRecompute = true;
        else if (a == "--csv")
            opt.csv = true;
        else if (a == "--quiet")
            setLogEnabled(false);
        else if (a == "--verbose") {
            opt.verbose = true;
            setLogEnabled(true);
        } else if (a == "--help" || a == "-h") {
            usage();
            return false;
        } else {
            fatal("unknown argument '{}' (see --help)", a);
        }
    }
    if (opt.trace.empty())
        fatal("--trace is required (see --help)");
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        if (!parseArgs(argc, argv, opt))
            return 0;

        GpuDeviceSpec device = GpuDeviceSpec::p100();
        if (opt.device == "v100")
            device = GpuDeviceSpec::v100();
        else if (opt.device != "p100")
            fatal("unknown device '{}' (p100 or v100)", opt.device);
        std::uint64_t capacity =
            opt.capacity ? opt.capacity : device.memCapacity;

        TensorTrace trace = loadTraceFile(opt.trace);
        Graph graph = reconstructGraph(trace);
        AccessTracker tracker = trace.toTracker();
        if (tracker.empty())
            fatal("trace '{}' has no access records", opt.trace);

        auto bytes_of = [&](TensorId id) {
            return graph.tensor(id).bytes;
        };
        PcieLink pcie(device.pcieBandwidth, device.pcieLatency);
        auto swap_time = [&](std::uint64_t b) {
            return pcie.transferTime(b);
        };

        // Weights never leave the GPU; the activation curve competes for
        // what remains.
        std::uint64_t weight_bytes = 0;
        for (const TensorDesc &t : graph.tensors()) {
            if (t.kind == TensorKind::Weight)
                weight_bytes += t.bytes;
        }
        auto activation_bytes = [&](TensorId id) {
            const TensorDesc &t = graph.tensor(id);
            return t.kind == TensorKind::Weight ? 0 : t.bytes;
        };

        std::uint64_t target = opt.savingBytes;
        if (target == 0) {
            std::uint64_t peak = tracker.hypotheticalPeak(activation_bytes);
            std::uint64_t budget =
                capacity > weight_bytes ? capacity - weight_bytes : 0;
            target = peak > budget ? peak - budget : 0;
            if (target == 0) {
                std::cout << "trace fits " << formatBytes(capacity)
                          << " without a plan (peak "
                          << formatBytes(peak + weight_bytes)
                          << "); nothing to lint\n";
                return 0;
            }
        }

        PolicyMakerOptions pm_opts;
        pm_opts.enableSwap = !opt.noSwap;
        pm_opts.enableRecompute = !opt.noRecompute;
        PolicyMaker maker(graph, tracker, pm_opts);
        Plan plan = maker.build(target, bytes_of, swap_time, capacity);
        if (opt.verbose)
            std::cout << plan.summary() << "\n";

        PlanCheckerOptions copts;
        copts.gpuCapacity = capacity;
        copts.hostCapacity = opt.hostCapacity;
        PlanChecker checker(graph, tracker, copts);
        LintReport report = checker.check(plan, bytes_of, swap_time);

        if (opt.csv) {
            std::cout << "severity,rule,tensor,access,message\n";
            for (const auto &d : report.diags) {
                std::string msg = d.message;
                for (char &c : msg) {
                    if (c == ',' || c == '\n')
                        c = ';';
                }
                std::cout << lintSeverityName(d.severity) << ',' << d.rule
                          << ','
                          << (d.tensor == kInvalidTensor
                                  ? std::string("-")
                                  : graph.tensor(d.tensor).name)
                          << ',' << d.accessIndex << ',' << msg << '\n';
            }
            // CSV rows alone leave a warning-only run looking identical to
            // a clean one; always state the verdict on stderr.
            std::cerr << "capulint: " << report.summary() << "\n";
        } else {
            printLintReport(std::cout, report, graph);
        }
        return report.clean() ? 0 : 4;
    } catch (const FatalError &e) {
        std::cerr << "capulint: " << e.what() << "\n";
        return 1;
    }
}
