/**
 * @file
 * capuprof — post-hoc trace analytics for capusim runs.
 *
 * Consumes either a Chrome-trace artifact (capusim --trace-json) or a
 * profile JSON previously written by capuprof itself, and produces:
 *
 *   report  critical-path attribution, wall-clock bucket split
 *           (compute / recompute / swap-in stall / oom protocol / idle),
 *           per-tensor cost accounting with prefetch timeliness, and the
 *           ranked top-K costly tensors.
 *   diff    aligns two runs by iteration digest and reports per-bucket
 *           and per-tensor/per-op deltas, localizing a regression to the
 *           first diverging iteration/op/tensor.
 *
 *   capusim --model vgg16 --batch 230 --policy capuchin --trace-json t.json
 *   capuprof report t.json
 *   capuprof report t.json --format json --out profile.json
 *   capuprof diff profile.json other.json
 *
 * Exit status: 0 ok, 1 usage/input error, 5 runs differ under
 * --expect-identical, 6 bucket conservation violated under --strict.
 */

#include <fstream>
#include <iostream>
#include <string>

#include "prof/diff.hh"
#include "prof/profile.hh"
#include "prof/report.hh"
#include "prof/trace_io.hh"
#include "prof/trace_view.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/units.hh"

using namespace capu;

namespace
{

void
usage()
{
    std::cout <<
        "capuprof — trace analytics for capusim runs\n"
        "\n"
        "  capuprof report <trace.json|profile.json> [options]\n"
        "  capuprof diff <a.json> <b.json> [options]\n"
        "\n"
        "inputs may be Chrome-trace artifacts (capusim --trace-json) or\n"
        "profile JSON written by `capuprof report --format json`; the two\n"
        "are distinguished automatically.\n"
        "\n"
        "options:\n"
        "  --format <f>         text (default) | md | json\n"
        "  --out <file>         write the report there instead of stdout\n"
        "  --topk <n>           costly-tensor table size (default 10)\n"
        "  --no-critical-path   skip the happens-before critical path\n"
        "  --strict             exit 6 if bucket attribution does not sum\n"
        "                       to wall-clock within 1%\n"
        "  --expect-identical   (diff) exit 5 unless the runs are\n"
        "                       bit-identical under digest alignment\n"
        "  --quiet              suppress informational log output\n"
        "\n"
        "exit status:\n"
        "  0  ok\n"
        "  1  usage error or an input failed to load/parse\n"
        "  5  runs differ and --expect-identical was given\n"
        "  6  conservation violated and --strict was given\n";
}

struct Options
{
    std::string command;
    std::vector<std::string> inputs;
    prof::ReportFormat format = prof::ReportFormat::Text;
    std::string out;
    std::size_t topK = 10;
    bool withCriticalPath = true;
    bool strict = false;
    bool expectIdentical = false;
};

bool
parseArgs(int argc, char **argv, Options &opt)
{
    if (argc < 2) {
        usage();
        return false;
    }
    opt.command = argv[1];
    if (opt.command == "--help" || opt.command == "-h") {
        usage();
        return false;
    }
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value after {}", a);
            return argv[++i];
        };
        if (a == "--format") {
            std::string f = next();
            if (!prof::parseReportFormat(f, opt.format))
                fatal("unknown format '{}' (text, md, json)", f);
        } else if (a == "--out")
            opt.out = next();
        else if (a == "--topk")
            opt.topK = static_cast<std::size_t>(parseCount(next(), a));
        else if (a == "--no-critical-path")
            opt.withCriticalPath = false;
        else if (a == "--strict")
            opt.strict = true;
        else if (a == "--expect-identical")
            opt.expectIdentical = true;
        else if (a == "--quiet")
            setLogEnabled(false);
        else if (a == "--help" || a == "-h") {
            usage();
            return false;
        } else if (!a.empty() && a[0] == '-')
            fatal("unknown argument '{}' (see --help)", a);
        else
            opt.inputs.push_back(a);
    }
    return true;
}

/**
 * Load either input flavor into a Profile. Chrome traces are profiled on
 * the spot; profile JSON is loaded as-is (its critical path and buckets
 * were computed when it was written).
 */
prof::Profile
loadInput(const std::string &path, const Options &opt)
{
    json::Value root;
    std::string err;
    if (!json::parseFile(path, root, &err))
        fatal("{}: {}", path, err);

    if (root.has("capuprof")) {
        prof::Profile p;
        if (!prof::loadProfileJson(path, p, &err))
            fatal("{}: {}", path, err);
        return p;
    }
    if (root.has("traceEvents")) {
        prof::TraceBundle bundle;
        if (!prof::importChromeTrace(path, bundle, &err))
            fatal("{}: {}", path, err);
        prof::ProfileOptions popts;
        popts.withCriticalPath = opt.withCriticalPath;
        return prof::buildProfile(prof::TraceView(bundle), popts);
    }
    fatal("{}: neither a Chrome trace (traceEvents) nor a capuprof "
          "profile (capuprof)", path);
}

/** The 1% acceptance gate, shared by report --strict and CI. */
bool
conservationOk(const prof::Profile &p)
{
    return p.conservationError() * 100 <= p.wallTicks;
}

int
runReport(const Options &opt)
{
    if (opt.inputs.size() != 1)
        fatal("report takes exactly one input (see --help)");
    prof::Profile p = loadInput(opt.inputs[0], opt);

    if (!opt.out.empty()) {
        if (opt.format == prof::ReportFormat::Json) {
            if (!prof::writeProfileJsonFile(opt.out, p))
                return 1;
        } else {
            std::ofstream os(opt.out);
            if (!os) {
                warn("capuprof: cannot write '{}'", opt.out);
                return 1;
            }
            prof::renderProfile(os, p, opt.format, opt.topK);
        }
    } else {
        prof::renderProfile(std::cout, p, opt.format, opt.topK);
    }

    if (opt.strict && !conservationOk(p)) {
        std::cerr << "capuprof: bucket attribution off by "
                  << p.conservationError() << " ns of " << p.wallTicks
                  << " ns wall (limit 1%)\n";
        return 6;
    }
    return 0;
}

int
runDiff(const Options &opt)
{
    if (opt.inputs.size() != 2)
        fatal("diff takes exactly two inputs (see --help)");
    prof::Profile a = loadInput(opt.inputs[0], opt);
    prof::Profile b = loadInput(opt.inputs[1], opt);
    prof::ProfileDiff d = prof::diffProfiles(a, b);

    if (!opt.out.empty()) {
        std::ofstream os(opt.out);
        if (!os) {
            warn("capuprof: cannot write '{}'", opt.out);
            return 1;
        }
        prof::renderDiff(os, a, b, d, opt.format);
    } else {
        prof::renderDiff(std::cout, a, b, d, opt.format);
    }

    if (opt.expectIdentical && !d.identical) {
        std::cerr << "capuprof: runs differ (first diverging iteration "
                  << d.firstDivergingIteration << ")\n";
        return 5;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        if (!parseArgs(argc, argv, opt))
            return 0;
        if (opt.command == "report")
            return runReport(opt);
        if (opt.command == "diff")
            return runDiff(opt);
        fatal("unknown command '{}' (report or diff; see --help)",
              opt.command);
    } catch (const FatalError &e) {
        std::cerr << "capuprof: " << e.what() << "\n";
        return 1;
    }
}
