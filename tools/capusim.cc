/**
 * @file
 * capusim — command-line driver for the Capuchin reproduction.
 *
 * Runs any (model, batch, policy) combination on a simulated device and
 * reports per-iteration statistics; can also binary-search the maximum
 * batch or dump the measured tensor-access trace for offline analysis.
 *
 *   capusim --model resnet50 --batch 400 --policy capuchin --iters 12
 *   capusim --model bert --policy capuchin --max-batch
 *   capusim --model inceptionv3 --batch 300 --policy vdnn --eager
 *   capusim --model resnet50 --batch 400 --dump-trace trace.csv
 *   capusim --list
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/lint_hooks.hh"
#include "core/capuchin_policy.hh"
#include "core/trace_io.hh"
#include "exec/session.hh"
#include "faults/fault_spec.hh"
#include "models/workload.hh"
#include "analysis/happens_before.hh"
#include "obs/chrome_trace.hh"
#include "obs/obs.hh"
#include "policy/checkpointing_policy.hh"
#include "policy/noop_policy.hh"
#include "policy/vdnn_policy.hh"
#include "prof/profile.hh"
#include "prof/report.hh"
#include "prof/trace_view.hh"
#include "stats/table.hh"
#include "support/logging.hh"
#include "support/units.hh"

using namespace capu;

namespace
{

constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::uint64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kSizeMax = std::numeric_limits<std::size_t>::max();

struct Options
{
    std::string model = "resnet50";
    std::string policy = "capuchin";
    std::string device = "p100";
    std::int64_t batch = 256;
    int iterations = 10;
    bool eager = false;
    bool lint = false;
    bool findMax = false;
    unsigned jobs = 1;
    bool csv = false;
    bool list = false;
    bool verify = false;
    bool profile = false;
    std::string dumpTrace;
    std::string traceJson;
    std::string metricsFile;
    std::string profileJson;
    std::size_t traceCap = 0; ///< 0 = library default
    std::string faults;
    std::string workload = "static";
    std::uint64_t workloadSeed = 0;
    std::uint64_t seed = 0;
    bool replay = true;
    int replayAudit = -1; ///< -1 = library default
};

std::unique_ptr<MemoryPolicy>
policyByName(const std::string &name, bool lint, bool faults_on = false)
{
    auto vdnn = [&](VdnnPolicy::Mode mode) -> std::unique_ptr<MemoryPolicy> {
        auto p = std::make_unique<VdnnPolicy>(mode);
        if (lint)
            enablePlanLint(*p);
        return p;
    };
    auto openai = [&](CheckpointingPolicy::Mode mode)
        -> std::unique_ptr<MemoryPolicy> {
        auto p = std::make_unique<CheckpointingPolicy>(mode);
        if (lint)
            enablePlanLint(*p);
        return p;
    };
    auto capuchin =
        [&](CapuchinOptions o) -> std::unique_ptr<MemoryPolicy> {
        if (faults_on) {
            // Under fault injection, arm the plan-drift watchdog so the
            // policy re-measures when the environment shifts under it.
            o.driftThreshold = 0.35;
        }
        if (lint)
            enablePlanLint(o);
        return makeCapuchinPolicy(o);
    };

    if (name == "tf" || name == "none") {
        if (lint)
            warn("--lint has no effect on the '{}' policy", name);
        return makeNoOpPolicy();
    }
    if (name == "vdnn")
        return vdnn(VdnnPolicy::Mode::All);
    if (name == "vdnn-conv")
        return vdnn(VdnnPolicy::Mode::ConvOnly);
    if (name == "openai-m")
        return openai(CheckpointingPolicy::Mode::Memory);
    if (name == "openai-s")
        return openai(CheckpointingPolicy::Mode::Speed);
    if (name == "capuchin")
        return capuchin(CapuchinOptions{});
    if (name == "capuchin-swap") {
        CapuchinOptions o;
        o.enableRecompute = false;
        return capuchin(o);
    }
    if (name == "capuchin-recompute") {
        CapuchinOptions o;
        o.enableSwap = false;
        return capuchin(o);
    }
    fatal("unknown policy '{}' (try --list)", name);
}

void
usage()
{
    std::cout <<
        "capusim — Capuchin GPU-memory-management simulator\n"
        "\n"
        "  --model <name>     vgg16 resnet50 resnet152 inceptionv3\n"
        "                     inceptionv4 densenet bert lstm\n"
        "  --policy <name>    tf vdnn vdnn-conv openai-m openai-s\n"
        "                     capuchin capuchin-swap capuchin-recompute\n"
        "  --device <name>    p100 (default) | v100\n"
        "  --batch <n>        batch size (default 256)\n"
        "  --iters <n>        training iterations (default 10)\n"
        "  --eager            imperative execution (graph-agnostic\n"
        "                     policies only)\n"
        "  --lint             verify the memory plan (capulint rules)\n"
        "                     before guided execution; error-level\n"
        "                     findings abort the run\n"
        "  --verify           after the run, replay the capuscope trace\n"
        "                     through the happens-before engine\n"
        "                     (capuverify dynamic mode): race scan plus a\n"
        "                     timestamp cross-check of every ordering edge\n"
        "                     the executor claims; findings exit 4\n"
        "  --max-batch        binary-search the maximum feasible batch;\n"
        "                     prints a `search:` summary line with the\n"
        "                     probe count (and, with --jobs > 1, how many\n"
        "                     probes were speculated on the pool and how\n"
        "                     many of those the search consumed)\n"
        "  --jobs <n>         speculation width for --max-batch (capufork\n"
        "                     speculative probing; default 1), run on at\n"
        "                     most one worker per hardware thread. The\n"
        "                     answer is bit-identical at any job count —\n"
        "                     parallelism only changes where probe\n"
        "                     sessions run, never which results the\n"
        "                     search sees\n"
        "  --dump-trace <f>   run 1 iteration under Capuchin and write the\n"
        "                     measured tensor-access trace to <f>\n"
        "  --csv              machine-readable per-iteration output\n"
        "  --trace-json <f>   write a Chrome trace_event JSON (open in\n"
        "                     Perfetto / chrome://tracing)\n"
        "  --metrics <f>      write per-iteration metrics (.json => JSON,\n"
        "                     else CSV)\n"
        "  --profile          print a capuprof summary after the run\n"
        "                     (bucket attribution, top costly tensors,\n"
        "                     critical path)\n"
        "  --profile-json <f> write the full capuprof profile as JSON\n"
        "                     (input for `capuprof diff`)\n"
        "  --trace-cap <n>    event ring capacity when tracing; oldest\n"
        "                     events drop on wrap (default "
        "1048576)\n"
        "  --no-replay        execute every iteration for real. Steady-\n"
        "                     state replay is default on: once the\n"
        "                     policy stabilizes, iterations are\n"
        "                     synthesized from the cached fixed point\n"
        "                     (bit-identical, audited periodically)\n"
        "  --replay-audit <n> re-execute an audit iteration every n\n"
        "                     synthesized ones (0 = never audit)\n"
        "  --workload <kind>  iteration-shape dynamism (capudrift):\n"
        "                     static (default; plain single-shape run)\n"
        "                     varlen (variable sequence length; bert or\n"
        "                     lstm only) | batch-ramp (mid-training batch\n"
        "                     change) | branchy (per-iteration control\n"
        "                     flow; ignores --model)\n"
        "  --workload-seed <n> seed for the workload's variant schedule\n"
        "                     (default 0; deterministic per seed)\n"
        "  --faults <spec>    capuchaos fault plan, e.g.\n"
        "                     \"pcie:0.5@2000-4000;jitter:0.1;hostcap:8GiB;"
        "swapfail:p=0.01,retries=3\"\n"
        "                     (@<file> reads the spec from a file)\n"
        "  --seed <n>         RNG seed for fault injection (default 0);\n"
        "                     recorded in metrics and trace metadata\n"
        "  --quiet            suppress informational log output\n"
        "  --verbose          force informational log output on\n"
        "  --list             print models and policies\n"
        "\n"
        "exit status:\n"
        "  0  run completed (lint/verify/profile clean when requested)\n"
        "  1  usage error or fatal setup failure\n"
        "  2  the workload ran out of GPU memory\n"
        "  3  simulator self-check failed (--lint audit abort or panic)\n"
        "  4  --verify found races or ordering violations\n";
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
        auto count = [&](std::uint64_t lo, std::uint64_t hi) {
            return parseCount(next(), a, lo, hi);
        };
        if (a == "--model")
            opt.model = next();
        else if (a == "--policy")
            opt.policy = next();
        else if (a == "--device")
            opt.device = next();
        else if (a == "--batch")
            opt.batch = static_cast<std::int64_t>(count(1, kInt64Max));
        else if (a == "--iters")
            opt.iterations = static_cast<int>(count(1, kIntMax));
        else if (a == "--eager")
            opt.eager = true;
        else if (a == "--lint")
            opt.lint = true;
        else if (a == "--max-batch")
            opt.findMax = true;
        else if (a == "--jobs")
            opt.jobs = static_cast<unsigned>(
                count(1, std::numeric_limits<unsigned>::max()));
        else if (a == "--dump-trace")
            opt.dumpTrace = next();
        else if (a == "--csv")
            opt.csv = true;
        else if (a == "--trace-json")
            opt.traceJson = next();
        else if (a == "--metrics")
            opt.metricsFile = next();
        else if (a == "--profile")
            opt.profile = true;
        else if (a == "--profile-json")
            opt.profileJson = next();
        else if (a == "--trace-cap")
            opt.traceCap = static_cast<std::size_t>(count(1, kSizeMax));
        else if (a == "--verify")
            opt.verify = true;
        else if (a == "--no-replay")
            opt.replay = false;
        else if (a == "--replay-audit")
            opt.replayAudit = static_cast<int>(count(0, kIntMax));
        else if (a == "--faults")
            opt.faults = next();
        else if (a == "--workload")
            opt.workload = next();
        else if (a == "--workload-seed")
            opt.workloadSeed = parseCount(next(), a);
        else if (a == "--seed")
            opt.seed = parseCount(next(), a);
        else if (a == "--quiet")
            setLogEnabled(false);
        else if (a == "--verbose")
            setLogEnabled(true);
        else if (a == "--list")
            opt.list = true;
        else if (a == "--help" || a == "-h") {
            usage();
            return false;
        } else {
            fatal("unknown argument '{}' (see --help)", a);
        }
    }
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
        if (opt.list) {
            std::cout << "models:  vgg16 resnet50 resnet152 inceptionv3 "
                         "inceptionv4 densenet bert lstm\n"
                      << "policies: tf vdnn vdnn-conv openai-m openai-s "
                         "capuchin capuchin-swap capuchin-recompute\n"
                      << "workloads: static varlen batch-ramp branchy\n";
            return 0;
        }

        // The outputs asked for pick the obs level: an event trace for
        // the Chrome export, --verify and the profiles, else metrics for
        // --metrics, else nothing.
        const bool traced = !opt.traceJson.empty() || opt.verify ||
                            opt.profile || !opt.profileJson.empty();
        ExecConfig cfg;
        cfg.device = GpuDeviceSpec::byName(opt.device);
        cfg.eagerMode = opt.eager;
        cfg.obsLevel = traced                     ? obs::ObsLevel::Full
                       : !opt.metricsFile.empty() ? obs::ObsLevel::Metrics
                                                  : obs::ObsLevel::Off;
        cfg.seed = opt.seed;
        if (opt.traceCap > 0)
            cfg.obsRingCapacity = opt.traceCap;
        std::string spec_text = opt.faults;
        if (!spec_text.empty() && spec_text[0] == '@') {
            std::ifstream f(spec_text.substr(1));
            if (!f)
                fatal("cannot read fault spec file '{}'",
                      spec_text.substr(1));
            std::stringstream ss;
            ss << f.rdbuf();
            spec_text = ss.str();
        }
        cfg.faults = faults::parseFaultSpec(spec_text);
        const bool faults_on = cfg.faults.enabled();
        // Long --iters runs auto-replay; the executor force-disarms it
        // whenever a fault plan is active.
        cfg.replay.enabled = opt.replay;
        if (opt.replayAudit >= 0)
            cfg.replay.auditInterval = opt.replayAudit;

        // Dynamic workloads (capudrift): the builder returns the variant
        // union graph and the seeded schedule rides in the ExecConfig. The
        // static kind builds the named model directly.
        WorkloadKind wkind;
        if (!workloadFromString(opt.workload, wkind))
            fatal("unknown workload '{}' (static, varlen, batch-ramp, "
                  "branchy)",
                  opt.workload);
        auto buildG = [&](std::int64_t b) -> Graph {
            if (wkind == WorkloadKind::Static)
                return buildModelByName(opt.model, b);
            return buildWorkload(wkind, opt.model, b, opt.workloadSeed)
                .graph;
        };
        if (wkind != WorkloadKind::Static)
            cfg.variantSchedule =
                buildWorkload(wkind, opt.model, opt.batch, opt.workloadSeed)
                    .schedule;

        if (opt.findMax) {
            MaxBatchStats mstats;
            auto mb = findMaxBatch(
                [&](std::int64_t b) { return buildG(b); },
                [&] { return policyByName(opt.policy, opt.lint, faults_on); },
                cfg, 3, 1, 4096, opt.jobs, &mstats);
            std::cout << "max batch for " << opt.model << " under "
                      << opt.policy << (opt.eager ? " (eager)" : "")
                      << ": " << mb << "\n";
            std::cout << "search: " << mstats.probes << " probe sessions";
            if (mstats.jobs > 1)
                std::cout << " on " << mstats.jobs << " jobs ("
                          << mstats.speculated << " speculated, "
                          << mstats.servedFromWarm << " consumed, "
                          << mstats.wasted << " wasted)";
            std::cout << "\n";
            return 0;
        }

        if (!opt.dumpTrace.empty()) {
            CapuchinPolicy *capu = nullptr;
            auto p = makeCapuchinPolicy();
            capu = static_cast<CapuchinPolicy *>(p.get());
            Session session(buildG(opt.batch), cfg,
                            std::move(p));
            auto r = session.run(1);
            if (r.oom)
                fatal("measured execution failed: {}", r.oomMessage);
            auto trace = captureTrace(capu->tracker(), session.graph());
            saveTraceFile(opt.dumpTrace, trace);
            std::cout << "wrote " << trace.records.size() << " accesses of "
                      << trace.tensors.size() << " tensors to "
                      << opt.dumpTrace << "\n";
            return 0;
        }

        Session session(buildG(opt.batch), cfg,
                        policyByName(opt.policy, opt.lint, faults_on));
        SessionResult r = session.run(opt.iterations);

        // Export observability artifacts even on OOM — a truncated trace
        // of a failed run is exactly what post-mortem debugging wants.
        obs::Obs &o = session.executor().obs();
        if (!opt.traceJson.empty() &&
            obs::writeChromeTraceFile(opt.traceJson, o.tracer))
            inform("wrote Chrome trace ({} events, {} dropped) to {}",
                   o.tracer.size(), o.tracer.dropped(), opt.traceJson);
        if (!opt.metricsFile.empty() &&
            obs::writeMetricsFile(opt.metricsFile, o.metrics))
            inform("wrote per-iteration metrics to {}", opt.metricsFile);
        // The profile and --verify decode the trace once, through one view.
        std::optional<prof::TraceView> view;
        if (opt.profile || !opt.profileJson.empty() || opt.verify)
            view.emplace(o.tracer);
        if (opt.profile || !opt.profileJson.empty()) {
            prof::Profile profile = prof::buildProfile(*view);
            if (!opt.profileJson.empty() &&
                prof::writeProfileJsonFile(opt.profileJson, profile))
                inform("wrote capuprof profile to {}", opt.profileJson);
            if (opt.profile)
                prof::renderProfile(std::cout, profile,
                                    prof::ReportFormat::Text);
        }

        if (opt.csv) {
            std::cout << "iter,images_per_s,duration_ms,peak_bytes,"
                         "swap_out_bytes,swap_in_bytes,recompute_ms,"
                         "stall_ms,oom_evictions\n";
            for (const auto &it : r.iterations) {
                std::cout << it.iteration << ','
                          << it.throughput(opt.batch) << ','
                          << ticksToMs(it.duration()) << ','
                          << it.peakGpuBytes << ',' << it.swapOutBytes
                          << ',' << it.swapInBytes << ','
                          << ticksToMs(it.recomputeBusy) << ','
                          << ticksToMs(it.inputStall + it.allocStall)
                          << ',' << it.oomEvictions << '\n';
            }
        } else {
            Table t({"iter", "img/s", "peak", "swap out", "recompute",
                     "stalls"});
            for (const auto &it : r.iterations) {
                t.addRow({cellInt(it.iteration),
                          cellDouble(it.throughput(opt.batch), 1),
                          formatBytes(it.peakGpuBytes),
                          formatBytes(it.swapOutBytes),
                          formatTicks(it.recomputeBusy),
                          formatTicks(it.inputStall + it.allocStall)});
            }
            t.print(std::cout);
        }
        if (!opt.csv && (r.replay.replayed > 0 || r.replay.audits > 0)) {
            std::cout << "replay: " << r.replay.executed << " executed, "
                      << r.replay.replayed << " synthesized, "
                      << r.replay.audits << " audits ("
                      << r.replay.auditMismatches << " mismatches)\n";
        }
        if (faults_on) {
            const faults::FaultStats &fs =
                session.executor().faultEngine().stats();
            std::cout << "chaos: degraded_transfers=" << fs.degradedTransfers
                      << " jittered_kernels=" << fs.jitteredKernels
                      << " host_rejects=" << fs.hostRejects
                      << " swap_failures=" << fs.swapAttemptFailures
                      << " swap_retries=" << fs.swapRetries
                      << " swap_forced=" << fs.swapForced
                      << " drop_fallbacks=" << fs.dropFallbacks
                      << " prefetch_misses=" << fs.prefetchMisses
                      << " remeasures=" << fs.remeasures
                      << " feedback_shifts=" << fs.feedbackShifts << "\n";
        }
        bool verify_failed = false;
        if (opt.verify) {
            // Dynamic-mode capuverify: lift the run's capuscope trace into
            // the happens-before event model, race-scan it, and cross-check
            // every ordering edge the executor claims against the
            // timestamps it actually produced.
            const HbAnalysis &hb = view->hb();
            LintReport races = checkHappensBefore(hb, &session.graph());
            LintReport stamps = checkTimestamps(hb, &session.graph());
            for (auto &d : stamps.diags)
                races.diags.push_back(std::move(d));
            std::cout << "verify: " << view->timeline().size()
                      << " timeline records, " << hb.events.size()
                      << " events, " << hb.edges.size() << " edges checked"
                      << (o.tracer.dropped() > 0
                              ? " (ring dropped " +
                                    std::to_string(o.tracer.dropped()) +
                                    " events; head of run not covered)"
                              : "")
                      << "\n";
            if (races.diags.empty()) {
                std::cout << "verify: trace is race-free; all ordering "
                             "edges consistent with observed timestamps\n";
            } else {
                printLintReport(std::cout, races, session.graph());
                verify_failed = races.errorCount() > 0;
            }
        }
        if (r.oom) {
            std::cout << "OOM after " << r.iterations.size()
                      << " iterations: " << r.oomMessage << "\n";
            std::cout << r.postMortem() << "\n";
            return 2;
        }
        return verify_failed ? 4 : 0;
    } catch (const FatalError &e) {
        std::cerr << "capusim: " << e.what() << "\n";
        return 1;
    } catch (const PanicError &e) {
        // A --lint audit (or any simulator self-check) rejected the run.
        std::cerr << "capusim: " << e.what() << "\n";
        return 3;
    }
}
